//! The static scheduler's execution plan and staged settle loop.
//!
//! The static schedule is a topological order of the analyzer's Tarjan
//! condensation; `lss-analyze`'s `Condensation::stages` additionally groups
//! the SCCs into *stages* — sets of mutually independent schedule units.
//! The plan records, per stage, which units run as devirtualized
//! [`Kernel`](crate::kernel::Kernel)s and which stay on the serial path:
//! behaviors without a lowering, the inline evaluations of straight-line
//! blocks (leaf-level cycles that are acyclic at port level), and fixpoint
//! blocks, which need the interpreter's change-detection machinery.
//!
//! Kernels buffer their writes and the engine commits each stage's buffer
//! at a stage barrier, so the arena a stage reads never depends on
//! evaluation order *within* the stage. A kernel inside a straight-line
//! block runs at its place in the sequence and commits through the same
//! [`commit_stage`], as a stage of one. The injected [`KernelMutation`]s
//! break exactly that barrier discipline.

use std::collections::VecDeque;

use lss_types::Datum;

use crate::component::SimError;
use crate::kernel::KernelUnit;

/// Deliberately injected kernel-loop bugs, in the spirit of
/// `lss-verify`'s `Mutation` knob on the reference simulator: each breaks
/// an invariant the staged executor relies on, and the differential
/// harness must catch (and minimize) the resulting trace divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMutation {
    /// Correct execution.
    #[default]
    None,
    /// A stale stage commit: the last buffered write of every stage is
    /// dropped, as if one kernel's output buffer never made it into the
    /// arena.
    StaleCommit,
    /// A skipped stage barrier: all kernel writes are held back and
    /// committed only after the whole settle pass, so downstream stages
    /// read cycle-start (absent) values instead of their inputs.
    SkipBarrier,
}

impl KernelMutation {
    /// Parses a CLI name (`stale-commit`, `skip-barrier`).
    pub fn parse(name: &str) -> Option<KernelMutation> {
        match name {
            "stale-commit" => Some(KernelMutation::StaleCommit),
            "skip-barrier" => Some(KernelMutation::SkipBarrier),
            _ => None,
        }
    }
}

/// One serial unit of a stage, run in order after the stage's kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialStep {
    /// A component's only (or first) evaluation this cycle.
    Once(usize),
    /// A repeat evaluation inside a straight-line block: clears the
    /// component's `written` flags, evaluates, and retracts every lane it
    /// did not write. No snapshot, no compare.
    Repeat(usize),
    /// A lowered member of a straight-line block (an index into the
    /// engine's kernel vector, outside every stage window), evaluated and
    /// committed at its place in the sequence.
    Kernel(usize),
    /// A fixpoint block: the window `start..start + len` of
    /// [`CompiledPlan::fixpoint_order`], iterated until its outputs stop
    /// changing.
    Fixpoint {
        /// Window start.
        start: usize,
        /// Window length.
        len: usize,
    },
}

/// One stage of the static plan: a window of kernels (mutually
/// independent, barrier-committed) plus a window of serial steps.
#[derive(Debug, Clone, Copy)]
pub struct StageInfo {
    /// Kernel window start into the engine's kernel vector.
    pub kstart: usize,
    /// Kernel window length.
    pub klen: usize,
    /// Serial-step window start into [`CompiledPlan::serial_steps`].
    pub sstart: usize,
    /// Serial-step window length.
    pub slen: usize,
}

/// The lowered schedule the static scheduler executes.
#[derive(Debug, Clone, Default)]
pub struct CompiledPlan {
    /// Stages in dependency order.
    pub stages: Vec<StageInfo>,
    /// Serial steps, windowed by [`StageInfo`].
    pub serial_steps: Vec<SerialStep>,
    /// Members of the fixpoint blocks, windowed by [`SerialStep::Fixpoint`].
    pub fixpoint_order: Vec<usize>,
}

/// Evaluates one stage's kernel window into `out`, appending buffered
/// writes in kernel order.
///
/// On error returns the failing component index with the error, for the
/// engine to locate with its path table.
pub fn eval_stage(
    kernels: &mut [KernelUnit],
    values: &[Option<Datum>],
    cycle: u64,
    seed: i64,
    out: &mut Vec<(usize, Datum)>,
) -> Result<(), (usize, SimError)> {
    for unit in kernels {
        unit.kernel
            .eval(values, cycle, seed, out)
            .map_err(|e| (unit.comp, e))?;
    }
    Ok(())
}

/// A batch of lockstep simulations: one netlist compiled once per lane
/// with a per-lane seed, stepped together cycle by cycle. Lane `k`'s trace
/// is byte-identical to a solo [`Simulator`](crate::Simulator) built with
/// `SimOptions::seed = seeds[k]` — the golden batch snapshots pin this.
///
/// This is the substrate for parameter sweeps: the netlist, schedule, and
/// static plan are structurally identical across lanes (only the seed
/// differs), while each lane keeps its own value arena and kernel state.
pub struct BatchSim {
    lanes: Vec<crate::Simulator>,
    seeds: Vec<i64>,
}

impl BatchSim {
    /// Wraps pre-built lanes (use [`crate::build_batch`]).
    pub(crate) fn new(lanes: Vec<crate::Simulator>, seeds: Vec<i64>) -> Self {
        BatchSim { lanes, seeds }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The per-lane seeds, in lane order.
    pub fn seeds(&self) -> &[i64] {
        &self.seeds
    }

    /// Read access to one lane's simulator.
    pub fn lane(&self, k: usize) -> &crate::Simulator {
        &self.lanes[k]
    }

    /// Mutable access to one lane's simulator.
    pub fn lane_mut(&mut self, k: usize) -> &mut crate::Simulator {
        &mut self.lanes[k]
    }

    /// Steps every lane one cycle, in lane order. A failing lane aborts the
    /// batch step with its lane index attached.
    pub fn step(&mut self) -> Result<(), SimError> {
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            lane.step().map_err(|e| SimError {
                message: format!("lane {k}: {}", e.message),
                span: e.span,
                budget: e.budget,
            })?;
        }
        Ok(())
    }

    /// Runs `n` lockstep cycles.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }
}

/// Commits one stage's buffered writes into the arena, applying the
/// injected mutation. Returns writes held back by
/// [`KernelMutation::SkipBarrier`] via `held`.
pub fn commit_stage(
    buf: &mut Vec<(usize, Datum)>,
    values: &mut [Option<Datum>],
    mutation: KernelMutation,
    held: &mut VecDeque<(usize, Datum)>,
) {
    match mutation {
        KernelMutation::StaleCommit => {
            buf.pop();
        }
        KernelMutation::SkipBarrier => {
            held.extend(buf.drain(..));
            return;
        }
        KernelMutation::None => {}
    }
    for (slot, v) in buf.drain(..) {
        values[slot] = Some(v);
    }
}
