//! Compiled per-component kernels: devirtualized corelib behaviors.
//!
//! The interpreter calls `Component::eval` through a vtable, and repeat
//! evaluations also retract unwritten lanes (fixpoint blocks snapshot
//! outputs for change detection on top). For the hot corelib behaviors the
//! netlist already tells us everything at build time, so the static
//! scheduler lowers each such component into a [`Kernel`]: a
//! monomorphized closure over resolved port *slots* in the flat value
//! arena. Kernel `eval` is a pure function of the arena and the kernel's
//! own state that appends `(slot, value)` writes to a buffer; the executor
//! (`exec.rs`) commits buffers at stage barriers.
//!
//! Every kernel mirrors its dyn counterpart's observable behavior exactly
//! — same values, same `state_lines()`, same error messages. The issue
//! and FU kernels, like their corelib counterparts, hold each instruction
//! as an [`InstrRecord`] and forward the record that arrived on `in`; no
//! kernel encodes an instruction. The
//! three-way equivalence suite (workspace `tests/kernel_equivalence.rs`)
//! and the differential fuzzer keep the two implementations pinned
//! together.

use std::collections::{HashMap, VecDeque};

use lss_netlist::{Instr, InstrRecord, KernelAluOp, KernelClass, RtvId, SrcSpan};
use lss_types::Datum;

use crate::component::SimError;
use crate::slots::SlotTable;

/// A devirtualized behavior instance: resolved slots plus private state.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// `corelib/source.tar`.
    Source {
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Counter base (`int` overload).
        start: i64,
        /// Fixed value for non-`int` types; `None` selects the counter.
        konst: Option<Datum>,
    },
    /// `corelib/sink.tar`.
    Sink {
        /// Driving slot per `in` lane (`None` = unconnected).
        inp: Vec<Option<usize>>,
        /// The `count` runtime variable.
        count: RtvId,
    },
    /// `corelib/delay.tar`.
    Delay {
        /// Driving slot of `in[0]`.
        inp0: Option<usize>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Register state.
        state: Datum,
    },
    /// `corelib/latch.tar`.
    Latch {
        /// Driving slot per `in` lane.
        inp: Vec<Option<usize>>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Per-lane register state.
        state: Vec<Option<Datum>>,
    },
    /// `corelib/tee.tar`.
    Tee {
        /// Driving slot of `in[0]`.
        inp0: Option<usize>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
    },
    /// `corelib/queue.tar`.
    Queue {
        /// Driving slot per `in` lane.
        inp: Vec<Option<usize>>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Output slots of `credit`.
        credit: Vec<usize>,
        /// Driving slot of `credit_in[0]` (`None` = unconnected).
        credit_in: Option<usize>,
        /// Buffer capacity.
        depth: usize,
        /// FIFO state.
        buf: VecDeque<Datum>,
        /// Protocol group for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/alu.tar`.
    Alu {
        /// Driving slot per `a` lane.
        a: Vec<Option<usize>>,
        /// Driving slot per `b` lane.
        b: Vec<Option<usize>>,
        /// Output slots, one per `res` lane.
        res: Vec<usize>,
        /// Operation.
        op: KernelAluOp,
        /// Float overload family member.
        float: bool,
    },
    /// `corelib/issue.tar`.
    Issue {
        /// Driving slot per `in` lane.
        inp: Vec<Option<usize>>,
        /// Output slots of `credit`.
        credit: Vec<usize>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Driving slot per `fu_credit` lane.
        fu_credit: Vec<Option<usize>>,
        /// Driving slot per `complete` lane.
        complete: Vec<Option<usize>>,
        /// Window capacity.
        window_size: usize,
        /// Maximum issues per cycle.
        issue_width: usize,
        /// Strict program-order issue when set.
        in_order: bool,
        /// Per out lane: the op-class codes its class constraint admits,
        /// one bit per code.
        lane_ops: Vec<u8>,
        /// The issue window: each entry is decoded once on arrival and
        /// issued as the record it arrived in.
        window: VecDeque<InstrRecord>,
        /// In-flight destination registers (register → writers outstanding).
        pending: HashMap<i64, u32>,
        /// Selection computed in `eval`, reused by `end_of_timestep` (the
        /// arena cannot change in between on a lowered component).
        select: IssueScratch,
        /// Protocol group for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/fu.tar`.
    Fu {
        /// Driving slot per `in` lane.
        inp: Vec<Option<usize>>,
        /// Output slots of `credit`.
        credit: Vec<usize>,
        /// Output slots, one per `done` lane.
        done: Vec<usize>,
        /// Driving slot per `grant_in` lane.
        grant_in: Vec<Option<usize>>,
        /// Output slots of `mem_req`.
        mem_req: Vec<usize>,
        /// Driving slot per `mem_resp` lane.
        mem_resp: Vec<Option<usize>>,
        /// Accept a new instruction every cycle when set.
        pipelined: bool,
        /// In-flight capacity.
        max_inflight: usize,
        /// Instruction in the address-generation stage, decoded once on
        /// arrival; it keeps the record it arrived in through `in_flight`
        /// and `done_buf`, and every `done` lane carries that record.
        agen: Option<InstrRecord>,
        /// Executing instructions with remaining cycle counts.
        in_flight: Vec<(InstrRecord, i64)>,
        /// Finished instructions awaiting the (optional) CDB grant.
        done_buf: VecDeque<InstrRecord>,
        /// Protocol group for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
}

/// `OpClass::Load` / `OpClass::Store` codes from the corelib instruction
/// model (the only op classes the functional unit inspects).
const OP_LOAD: i64 = 4;
const OP_STORE: i64 = 5;

fn is_mem(instr: &Instr) -> bool {
    instr.op == OP_LOAD || instr.op == OP_STORE
}

/// `OpClass` codes the issue window's class constraints reference.
const OP_IALU: i64 = 1;
const OP_IMUL: i64 = 2;
const OP_BRANCH: i64 = 6;

/// Out-of-range op codes behave as `Nop` (code 0), mirroring
/// `OpClass::from_code(..).unwrap_or(Nop)` on the dyn path.
fn op_norm(op: i64) -> i64 {
    if (0..=6).contains(&op) {
        op
    } else {
        0
    }
}

/// Mirrors the corelib's `class_accepts`: which op classes an out lane's
/// class constraint admits (0 = any, 7 = memory, 8 = integer side).
fn class_accepts(class: i64, op: i64) -> bool {
    match class {
        0 => true,
        7 => op == OP_LOAD || op == OP_STORE,
        8 => op == OP_IALU || op == OP_IMUL || op == OP_BRANCH,
        c => c == op,
    }
}

/// The op classes each of `lanes` out lanes admits, as a bit set over the
/// normalized op codes 0..=6 (lanes without a class admit any op).
fn lane_ops(classes: &[i64], lanes: usize) -> Vec<u8> {
    (0..lanes)
        .map(|lane| {
            let class = *classes.get(lane).unwrap_or(&0);
            (0..=6)
                .filter(|&op| class_accepts(class, op))
                .fold(0, |set, op| set | 1 << op)
        })
        .collect()
}

/// The op classes some still-open lane admits.
fn open_ops(lane_ops: &[u8], open: &[bool]) -> u8 {
    lane_ops
        .iter()
        .zip(open)
        .filter(|(_, &open)| open)
        .fold(0, |set, (&ops, _)| set | ops)
}

fn reg_ready(pending: &HashMap<i64, u32>, reg: i64) -> bool {
    reg < 0 || !pending.contains_key(&reg)
}

/// Scratch buffers the issue selection reuses across cycles, so selecting
/// allocates nothing once they have grown to the lane count and issue
/// width.
#[derive(Debug, Clone, Default)]
pub struct IssueScratch {
    /// The selection: (window index, out lane) pairs in window order.
    picks: Vec<(usize, u32)>,
    /// Per out lane: has credit and has not been granted this cycle.
    open: Vec<bool>,
}

/// The issue selection into `scratch.picks`: (window index, out lane)
/// pairs, in window order. Pure function of the settled arena and the
/// window/scoreboard state.
///
/// Each lane takes at most one instruction per cycle. An entry whose op
/// class no open lane admits is skipped before its registers are looked
/// up: when a long-latency unit is busy, most of a full window waits on
/// it.
#[allow(clippy::too_many_arguments)]
fn issue_select(
    scratch: &mut IssueScratch,
    values: &[Option<Datum>],
    window: &VecDeque<InstrRecord>,
    pending: &HashMap<i64, u32>,
    fu_credit: &[Option<usize>],
    lane_ops: &[u8],
    issue_width: usize,
    in_order: bool,
) {
    let IssueScratch { picks, open } = scratch;
    picks.clear();
    open.clear();
    open.extend((0..lane_ops.len()).map(|lane| {
        let credit = fu_credit
            .get(lane)
            .copied()
            .flatten()
            .and_then(|s| values[s].as_ref());
        matches!(credit, Some(Datum::Int(v)) if *v > 0)
    }));
    let mut admitted = open_ops(lane_ops, open);
    for (i, InstrRecord { instr, .. }) in window.iter().enumerate() {
        if picks.len() >= issue_width || admitted == 0 {
            break;
        }
        let op = 1 << op_norm(instr.op);
        // RAW on sources; conservative WAW on destination.
        let lane = if admitted & op != 0
            && reg_ready(pending, instr.src1)
            && reg_ready(pending, instr.src2)
            && reg_ready(pending, instr.dst)
        {
            (0..lane_ops.len()).find(|&lane| open[lane] && lane_ops[lane] & op != 0)
        } else {
            None
        };
        match lane {
            Some(lane) => {
                open[lane] = false;
                picks.push((i, lane as u32));
                admitted = open_ops(lane_ops, open);
            }
            // Younger instructions cannot bypass the stalled head.
            None if in_order => break,
            None => {}
        }
    }
}

fn fu_can_accept(
    agen: &Option<InstrRecord>,
    in_flight: &[(InstrRecord, i64)],
    done_buf: &VecDeque<InstrRecord>,
    pipelined: bool,
    max_inflight: usize,
) -> bool {
    if agen.is_some() || done_buf.len() >= max_inflight {
        return false;
    }
    if pipelined {
        in_flight.len() < max_inflight
    } else {
        in_flight.is_empty()
    }
}

/// A kernel bound to its component index (for error location and
/// `end_of_timestep` state access).
#[derive(Debug, Clone)]
pub struct KernelUnit {
    /// The component this kernel executes.
    pub comp: usize,
    /// The devirtualized behavior.
    pub kernel: Kernel,
}

/// The dyn path's error for a datum that is not an instruction record.
fn malformed(d: &Datum) -> SimError {
    SimError::new(format!("malformed instruction datum: {d}"))
}

fn read(values: &[Option<Datum>], slot: Option<usize>) -> Option<Datum> {
    values[slot?].clone()
}

fn read_lane(values: &[Option<Datum>], row: &[Option<usize>], lane: usize) -> Option<Datum> {
    values[row.get(lane).copied().flatten()?].clone()
}

/// Unconnected-port semantics for optional integer inputs, mirroring the
/// corelib's `read_int_or`.
fn read_int_or(values: &[Option<Datum>], slot: Option<usize>, default: i64) -> i64 {
    match slot.map(|s| &values[s]) {
        Some(Some(Datum::Int(v))) => *v,
        _ => default,
    }
}

fn queue_emit_count(
    values: &[Option<Datum>],
    buf_len: usize,
    out_lanes: usize,
    credit_in: Option<usize>,
) -> usize {
    let allowed = read_int_or(values, credit_in, out_lanes as i64).max(0) as usize;
    buf_len.min(out_lanes).min(allowed)
}

impl Kernel {
    /// Combinational evaluation: reads the settled arena, appends buffered
    /// `(slot, value)` writes. Never touches the arena directly — stage
    /// peers run concurrently over disjoint `&mut` chunks and the executor
    /// commits `out` at the stage barrier. `&mut self` exists only so a
    /// kernel may cache work for its own `end_of_timestep` (the issue
    /// window's selection, for example) — a kernel runs exactly once per
    /// cycle, after its combinational inputs are final, so such caching is
    /// sound on the components the engine lowers (acyclic singletons, and
    /// straight-line block members evaluated once).
    pub fn eval(
        &mut self,
        values: &[Option<Datum>],
        cycle: u64,
        seed: i64,
        out: &mut Vec<(usize, Datum)>,
    ) -> Result<(), SimError> {
        match self {
            Kernel::Source {
                out: lanes,
                start,
                konst,
            } => {
                let value = match konst {
                    Some(d) => d.clone(),
                    None => Datum::Int(*start + seed + cycle as i64),
                };
                for &s in lanes.iter() {
                    out.push((s, value.clone()));
                }
            }
            Kernel::Sink { .. } => {}
            Kernel::Delay {
                out: lanes, state, ..
            } => {
                for &s in lanes.iter() {
                    out.push((s, state.clone()));
                }
            }
            Kernel::Latch {
                out: lanes, state, ..
            } => {
                for (lane, &s) in lanes.iter().enumerate() {
                    if let Some(v) = state.get(lane).cloned().flatten() {
                        out.push((s, v));
                    }
                }
            }
            Kernel::Tee { inp0, out: lanes } => {
                if let Some(v) = read(values, *inp0) {
                    for &s in lanes.iter() {
                        out.push((s, v.clone()));
                    }
                }
            }
            Kernel::Queue {
                out: lanes,
                credit,
                credit_in,
                depth,
                buf,
                ..
            } => {
                let emit = queue_emit_count(values, buf.len(), lanes.len(), *credit_in);
                for (lane, item) in buf.iter().take(emit).enumerate() {
                    out.push((lanes[lane], item.clone()));
                }
                // Credit reflects space at the start of the cycle.
                let free = (*depth - buf.len()) as i64;
                for &s in credit.iter() {
                    out.push((s, Datum::Int(free)));
                }
            }
            Kernel::Alu {
                a,
                b,
                res,
                op,
                float,
            } => {
                for (lane, &rs) in res.iter().enumerate() {
                    let (Some(x), Some(y)) =
                        (read_lane(values, a, lane), read_lane(values, b, lane))
                    else {
                        continue;
                    };
                    let result = if *float {
                        let (Some(x), Some(y)) = (x.as_float(), y.as_float()) else {
                            return Err(SimError::new("float ALU received non-float data"));
                        };
                        Datum::Float(match op {
                            KernelAluOp::Add => x + y,
                            KernelAluOp::Sub => x - y,
                            KernelAluOp::Mul => x * y,
                        })
                    } else {
                        let (Some(x), Some(y)) = (x.as_int(), y.as_int()) else {
                            return Err(SimError::new("int ALU received non-int data"));
                        };
                        Datum::Int(match op {
                            KernelAluOp::Add => x.wrapping_add(y),
                            KernelAluOp::Sub => x.wrapping_sub(y),
                            KernelAluOp::Mul => x.wrapping_mul(y),
                        })
                    };
                    out.push((rs, result));
                }
            }
            Kernel::Issue {
                credit,
                out: out_row,
                fu_credit,
                window_size,
                issue_width,
                in_order,
                lane_ops,
                window,
                pending,
                select,
                ..
            } => {
                issue_select(
                    select,
                    values,
                    window,
                    pending,
                    fu_credit,
                    lane_ops,
                    *issue_width,
                    *in_order,
                );
                for &(i, lane) in select.picks.iter() {
                    out.push((out_row[lane as usize], window[i].datum.clone()));
                }
                if let Some(&s) = credit.first() {
                    let free = (*window_size - window.len()) as i64;
                    out.push((s, Datum::Int(free)));
                }
            }
            Kernel::Fu {
                credit,
                done,
                mem_req,
                pipelined,
                max_inflight,
                agen,
                in_flight,
                done_buf,
                ..
            } => {
                // Address generation: memory ops probe the cache one cycle
                // after acceptance.
                if let Some(InstrRecord { instr, .. }) = agen {
                    if is_mem(instr) {
                        if let Some(&s) = mem_req.first() {
                            out.push((s, Datum::Int(instr.tgt)));
                        }
                    }
                }
                if let Some(front) = done_buf.front() {
                    for &s in done.iter() {
                        out.push((s, front.datum.clone()));
                    }
                }
                if let Some(&s) = credit.first() {
                    let ok = fu_can_accept(agen, in_flight, done_buf, *pipelined, *max_inflight);
                    out.push((s, Datum::Int(ok as i64)));
                }
            }
        }
        Ok(())
    }

    /// Synchronous state update after settle, reading committed arena
    /// values. `rtvs` is the owning component's runtime-variable table
    /// (kernels with observable counters, like the sink, keep them visible
    /// to `state_lines()` through it).
    pub fn end_of_timestep(
        &mut self,
        values: &[Option<Datum>],
        rtvs: &mut SlotTable,
    ) -> Result<(), SimError> {
        match self {
            Kernel::Sink { inp, count } => {
                let mut c = rtvs.value(count.index()).as_int().unwrap_or(0);
                for s in inp.iter() {
                    if s.is_some_and(|s| values[s].is_some()) {
                        c += 1;
                    }
                }
                rtvs.set(count.index(), Datum::Int(c));
            }
            Kernel::Delay { inp0, state, .. } => {
                if let Some(v) = read(values, *inp0) {
                    *state = v;
                }
            }
            Kernel::Latch { inp, out, state } => {
                let lanes = inp.len().max(out.len());
                state.resize(lanes, None);
                for (lane, slot) in state.iter_mut().enumerate() {
                    *slot = read_lane(values, inp, lane);
                }
            }
            Kernel::Queue {
                inp,
                out,
                credit_in,
                depth,
                buf,
                group,
                span,
                ..
            } => {
                // Pop what was consumed this cycle, then accept arrivals;
                // overflow means the producer violated credits.
                let emitted = queue_emit_count(values, buf.len(), out.len(), *credit_in);
                buf.drain(..emitted);
                for s in inp.iter() {
                    if let Some(v) = s.and_then(|s| values[s].clone()) {
                        if buf.len() >= *depth {
                            return Err(SimError::protocol_violation(
                                &*group,
                                "queue overflow: producer sent beyond the advertised credit",
                                *span,
                            ));
                        }
                        buf.push_back(v);
                    }
                }
            }
            Kernel::Issue {
                inp,
                complete,
                window_size,
                window,
                pending,
                select,
                group,
                span,
                ..
            } => {
                // The selection was computed in this cycle's eval against
                // the same (final) arena; reuse it instead of re-selecting.
                // Mark issued destinations pending, then remove from the
                // window back-to-front (picks are in window order) so
                // indices stay valid.
                for &(i, _) in &select.picks {
                    let instr = window[i].instr;
                    if instr.dst >= 0 {
                        *pending.entry(instr.dst).or_insert(0) += 1;
                    }
                }
                for &(i, _) in select.picks.iter().rev() {
                    window.remove(i);
                }
                select.picks.clear();
                // Completions release destinations.
                for s in complete.iter() {
                    let Some(d) = s.and_then(|s| values[s].as_ref()) else {
                        continue;
                    };
                    let instr = Instr::from_datum(d).ok_or_else(|| malformed(d))?;
                    if instr.dst >= 0 {
                        if let Some(count) = pending.get_mut(&instr.dst) {
                            *count -= 1;
                            if *count == 0 {
                                pending.remove(&instr.dst);
                            }
                        }
                    }
                }
                // Accept arrivals.
                for s in inp.iter() {
                    let Some(d) = s.and_then(|s| values[s].as_ref()) else {
                        continue;
                    };
                    let record = InstrRecord::decode(d).ok_or_else(|| malformed(d))?;
                    if window.len() >= *window_size {
                        return Err(SimError::protocol_violation(
                            &*group,
                            "issue window overflow: producer sent beyond the advertised credit",
                            *span,
                        ));
                    }
                    window.push_back(record);
                }
            }
            Kernel::Fu {
                inp,
                grant_in,
                mem_resp,
                agen,
                in_flight,
                done_buf,
                group,
                span,
                ..
            } => {
                // Retire the granted result (or unconditionally without an
                // arbiter).
                if !done_buf.is_empty() {
                    let granted = if grant_in.is_empty() {
                        true
                    } else {
                        matches!(
                            read_lane(values, grant_in, 0),
                            Some(Datum::Int(v)) if v != 0
                        )
                    };
                    if granted {
                        done_buf.pop_front();
                    }
                }
                // Move the agen-stage instruction into execution, with its
                // latency possibly provided by the attached memory
                // hierarchy; then advance, so a 1-cycle operation completes
                // in the same step it enters.
                if let Some(record) = agen.take() {
                    let instr = &record.instr;
                    let lat = if is_mem(instr) && !mem_resp.is_empty() {
                        match read_lane(values, mem_resp, 0) {
                            Some(Datum::Int(l)) => l.max(1),
                            _ => instr.lat.max(1),
                        }
                    } else {
                        instr.lat.max(1)
                    };
                    in_flight.push((record, lat));
                }
                // Finished instructions move to `done_buf` from the back
                // of `in_flight` forward.
                for (_, remaining) in in_flight.iter_mut() {
                    *remaining -= 1;
                }
                for i in (0..in_flight.len()).rev() {
                    if in_flight[i].1 <= 0 {
                        done_buf.push_back(in_flight.remove(i).0);
                    }
                }
                // Accept a new instruction.
                let arrived = inp.first().copied().flatten();
                if let Some(d) = arrived.and_then(|s| values[s].as_ref()) {
                    let record = InstrRecord::decode(d).ok_or_else(|| malformed(d))?;
                    if agen.is_some() {
                        return Err(SimError::protocol_violation(
                            &*group,
                            "functional unit overflow: producer sent beyond the advertised credit",
                            *span,
                        ));
                    }
                    *agen = Some(record);
                }
            }
            Kernel::Source { .. } | Kernel::Tee { .. } | Kernel::Alu { .. } => {}
        }
        Ok(())
    }
}

/// Resolves a behavior's [`KernelClass`] self-description against the
/// component's slot mapping. Returns `None` (leaving the component on the
/// dyn path) when a port index is out of range — a misdescribed class must
/// never crash the build.
pub fn lower(
    comp: usize,
    class: &KernelClass,
    out_slots: &[Vec<usize>],
    in_slots: &[Vec<Option<usize>>],
    rtvs: &mut SlotTable,
) -> Option<KernelUnit> {
    let out_row = |p: usize| out_slots.get(p).cloned();
    let in_row = |p: usize| in_slots.get(p).cloned();
    let kernel = match class {
        KernelClass::Source { out, start, konst } => Kernel::Source {
            out: out_row(*out)?,
            start: *start,
            konst: konst.clone(),
        },
        KernelClass::Sink { inp } => Kernel::Sink {
            inp: in_row(*inp)?,
            count: RtvId::from_index(rtvs.ensure("count", Datum::Int(0))),
        },
        KernelClass::Delay { inp, out, init } => Kernel::Delay {
            inp0: in_row(*inp)?.first().copied().flatten(),
            out: out_row(*out)?,
            state: init.clone(),
        },
        KernelClass::Latch { inp, out } => Kernel::Latch {
            inp: in_row(*inp)?,
            out: out_row(*out)?,
            state: Vec::new(),
        },
        KernelClass::Tee { inp, out } => Kernel::Tee {
            inp0: in_row(*inp)?.first().copied().flatten(),
            out: out_row(*out)?,
        },
        KernelClass::Queue {
            inp,
            out,
            credit,
            credit_in,
            depth,
            group,
            span,
        } => Kernel::Queue {
            inp: in_row(*inp)?,
            out: out_row(*out)?,
            credit: out_row(*credit)?,
            credit_in: in_row(*credit_in)?.first().copied().flatten(),
            depth: *depth,
            buf: VecDeque::new(),
            group: group.clone(),
            span: *span,
        },
        KernelClass::Alu {
            a,
            b,
            res,
            op,
            float,
        } => Kernel::Alu {
            a: in_row(*a)?,
            b: in_row(*b)?,
            res: out_row(*res)?,
            op: *op,
            float: *float,
        },
        KernelClass::Issue {
            inp,
            credit,
            out,
            fu_credit,
            complete,
            window_size,
            issue_width,
            in_order,
            classes,
            group,
            span,
        } => Kernel::Issue {
            inp: in_row(*inp)?,
            credit: out_row(*credit)?,
            lane_ops: lane_ops(classes, out_slots.get(*out)?.len()),
            out: out_row(*out)?,
            fu_credit: in_row(*fu_credit)?,
            complete: in_row(*complete)?,
            window_size: *window_size,
            issue_width: *issue_width,
            in_order: *in_order,
            window: VecDeque::new(),
            pending: HashMap::new(),
            select: IssueScratch::default(),
            group: group.clone(),
            span: *span,
        },
        KernelClass::Fu {
            inp,
            credit,
            done,
            grant_in,
            mem_req,
            mem_resp,
            pipelined,
            max_inflight,
            group,
            span,
        } => Kernel::Fu {
            inp: in_row(*inp)?,
            credit: out_row(*credit)?,
            done: out_row(*done)?,
            grant_in: in_row(*grant_in)?,
            mem_req: out_row(*mem_req)?,
            mem_resp: in_row(*mem_resp)?,
            pipelined: *pipelined,
            max_inflight: *max_inflight,
            agen: None,
            in_flight: Vec::new(),
            done_buf: VecDeque::new(),
            group: group.clone(),
            span: *span,
        },
    };
    Some(KernelUnit { comp, kernel })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lss_netlist::INSTR_FIELDS;

    use super::*;

    /// An instruction record in a non-canonical layout (reversed, plus an
    /// extra field), so a re-encoded record could not pass for it.
    fn record(op: i64, dst: i64) -> Datum {
        let mut fields: Vec<(&str, Datum)> = INSTR_FIELDS
            .iter()
            .map(|&n| {
                let v = match n {
                    "op" => op,
                    "dst" => dst,
                    "lat" => 1,
                    "src1" | "src2" => -1,
                    _ => 0,
                };
                (n, Datum::Int(v))
            })
            .collect();
        fields.reverse();
        fields.push(("tag", Datum::Int(7)));
        Datum::record(fields)
    }

    fn same_record(a: &Datum, b: &Datum) -> bool {
        matches!((a, b), (Datum::Struct(x), Datum::Struct(y)) if Arc::ptr_eq(x, y))
    }

    fn lowered(class: KernelClass, out: &[Vec<usize>], inp: &[Vec<Option<usize>>]) -> Kernel {
        lower(0, &class, out, inp, &mut SlotTable::new())
            .expect("class lowers")
            .kernel
    }

    #[test]
    fn issue_sends_the_record_that_arrived() {
        // Slots: 0 in, 1 fu_credit, 2 complete, 3 credit, 4 out.
        let mut kernel = lowered(
            KernelClass::Issue {
                inp: 0,
                credit: 1,
                out: 2,
                fu_credit: 3,
                complete: 4,
                window_size: 4,
                issue_width: 1,
                in_order: false,
                classes: vec![0],
                group: "g".into(),
                span: None,
            },
            &[vec![], vec![3], vec![4], vec![], vec![]],
            &[vec![Some(0)], vec![], vec![], vec![Some(1)], vec![Some(2)]],
        );
        let arrived = record(1, 3);
        let mut values = vec![Some(arrived.clone()), None, None, None, None];
        kernel
            .end_of_timestep(&values, &mut SlotTable::new())
            .unwrap();
        values[0] = None;
        values[1] = Some(Datum::Int(1));
        let mut writes = Vec::new();
        kernel.eval(&values, 1, 0, &mut writes).unwrap();
        let sent = writes.iter().find(|(s, _)| *s == 4).expect("issued");
        assert!(same_record(&sent.1, &arrived), "{}", sent.1);
    }

    #[test]
    fn every_fu_done_lane_carries_the_record_that_arrived() {
        // Slots: 0 in, 1 credit, 2 and 3 done.
        let mut kernel = lowered(
            KernelClass::Fu {
                inp: 0,
                credit: 1,
                done: 2,
                grant_in: 3,
                mem_req: 4,
                mem_resp: 5,
                pipelined: true,
                max_inflight: 2,
                group: "g".into(),
                span: None,
            },
            &[vec![], vec![1], vec![2, 3], vec![], vec![], vec![]],
            &[vec![Some(0)], vec![], vec![], vec![], vec![], vec![]],
        );
        let arrived = record(1, 3);
        let mut values = vec![Some(arrived.clone()), None, None, None];
        let mut rtvs = SlotTable::new();
        // Accept into address generation, then execute its one cycle.
        kernel.end_of_timestep(&values, &mut rtvs).unwrap();
        values[0] = None;
        kernel.end_of_timestep(&values, &mut rtvs).unwrap();
        let mut writes = Vec::new();
        kernel.eval(&values, 2, 0, &mut writes).unwrap();
        let done: Vec<&(usize, Datum)> = writes.iter().filter(|(s, _)| *s >= 2).collect();
        assert_eq!(done.len(), 2);
        for (slot, d) in done {
            assert!(same_record(d, &arrived), "done slot {slot}: {d}");
        }
    }
}
