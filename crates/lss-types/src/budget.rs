//! Cooperative resource budgets for the compilation pipeline.
//!
//! LSS programs are *executed* at compile time (§4) and structural
//! inference is NP-complete (§5), so a hostile or buggy spec can hang the
//! elaborator or blow the solver's search space. A [`Budget`] is a
//! cheap-to-clone handle shared by every pipeline stage; stages poll it at
//! their loop headers and, on exhaustion, surface a structured
//! [`BudgetError`] carrying the `LSS4xx` diagnostic code, the stage, the
//! limit that was hit, and the flag that raises it — instead of spinning
//! or aborting.
//!
//! Deadline polling is strided: [`Budget::check_deadline`] only consults
//! the clock every [`POLL_STRIDE`] calls, keeping the overhead of
//! budget-governed compilation well under the 3% bar measured by
//! `bench --bin robustness`.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`Budget::check_deadline`] calls elapse between actual clock
/// reads. Loop bodies in the elaborator and solver are far heavier than an
/// `Instant::now()`, so this bounds detection latency without measurable
/// cost.
pub const POLL_STRIDE: u32 = 64;

/// The resource class a budget violation belongs to.
///
/// Each kind owns one stable `LSS4xx` diagnostic code and the `lssc` flag
/// that raises the corresponding limit. Codes are part of the CLI contract
/// (see `docs/ROBUSTNESS.md`) — never renumber them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// Wall-clock deadline for the whole compilation.
    Deadline,
    /// Elaboration fuel: interpreter statements/expressions executed.
    ElabSteps,
    /// Component/module instances created during elaboration.
    Instances,
    /// Module instantiation (hierarchy) depth.
    Depth,
    /// Type-solver unification steps.
    SolverSteps,
    /// Disjunct-combination expansions considered for one constraint.
    Expansions,
    /// Total elaborated netlist items (instances + port instances).
    NetlistSize,
    /// Simulation cycles executed by one run.
    SimCycles,
}

impl BudgetKind {
    /// The stable diagnostic code, e.g. `"LSS401"`.
    pub fn code(self) -> &'static str {
        match self {
            BudgetKind::Deadline => "LSS401",
            BudgetKind::ElabSteps => "LSS402",
            BudgetKind::Instances => "LSS403",
            BudgetKind::Depth => "LSS404",
            BudgetKind::SolverSteps => "LSS405",
            BudgetKind::Expansions => "LSS406",
            BudgetKind::NetlistSize => "LSS407",
            BudgetKind::SimCycles => "LSS408",
        }
    }

    /// The `lssc` flag that raises this limit.
    pub fn flag(self) -> &'static str {
        match self {
            BudgetKind::Deadline => "--deadline-ms",
            BudgetKind::ElabSteps => "--max-steps",
            BudgetKind::Instances => "--max-instances",
            BudgetKind::Depth => "--max-depth",
            BudgetKind::SolverSteps => "--solver-steps",
            BudgetKind::Expansions => "--expansion-cap",
            BudgetKind::NetlistSize => "--max-netlist",
            BudgetKind::SimCycles => "--max-cycles",
        }
    }

    /// Short human name of the exhausted resource.
    pub fn resource(self) -> &'static str {
        match self {
            BudgetKind::Deadline => "wall-clock deadline",
            BudgetKind::ElabSteps => "elaboration step budget",
            BudgetKind::Instances => "instance budget",
            BudgetKind::Depth => "instantiation depth limit",
            BudgetKind::SolverSteps => "solver step budget",
            BudgetKind::Expansions => "disjunct-expansion budget",
            BudgetKind::NetlistSize => "netlist size budget",
            BudgetKind::SimCycles => "simulation cycle budget",
        }
    }
}

/// A structured resource-exhaustion report.
///
/// Rendered as one `error[LSS4xx]` diagnostic by the driver: the stage
/// that hit the limit, the limit itself, partial progress at the moment of
/// exhaustion, and the flag to retry with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// The resource class (fixes the diagnostic code).
    pub kind: BudgetKind,
    /// Pipeline stage that hit the limit (`"elaborate"`, `"infer"`, ...).
    pub stage: &'static str,
    /// The configured limit (milliseconds for [`BudgetKind::Deadline`]).
    pub limit: u64,
    /// Partial progress at exhaustion ("1204 instances elaborated", ...).
    /// Empty when the caller has nothing useful to report.
    pub progress: String,
}

impl BudgetError {
    /// Creates an error with no progress note.
    pub fn new(kind: BudgetKind, stage: &'static str, limit: u64) -> Self {
        BudgetError {
            kind,
            stage,
            limit,
            progress: String::new(),
        }
    }

    /// Attaches a partial-progress note, returning `self` for chaining.
    #[must_use]
    pub fn with_progress(mut self, progress: impl Into<String>) -> Self {
        self.progress = progress.into();
        self
    }

    /// The stable diagnostic code for this error.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }

    /// The note suggesting how to raise the limit.
    pub fn hint(&self) -> String {
        format!(
            "raise the limit with `{} N` (or remove it) and retry",
            self.kind.flag()
        )
    }
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = if self.kind == BudgetKind::Deadline {
            " ms"
        } else {
            ""
        };
        write!(
            f,
            "{} of {}{} exhausted during {}",
            self.kind.resource(),
            self.limit,
            unit,
            self.stage
        )?;
        if !self.progress.is_empty() {
            write!(f, " ({})", self.progress)?;
        }
        Ok(())
    }
}

impl std::error::Error for BudgetError {}

/// Static limits a [`Budget`] enforces. `None` everywhere means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetCaps {
    /// Wall-clock allowance for the whole compilation.
    pub deadline: Option<Duration>,
    /// Maximum module-instantiation depth.
    pub max_depth: Option<u32>,
    /// Maximum elaborated netlist items (instances + port instances).
    pub max_netlist_items: Option<u64>,
    /// Maximum simulation cycles one run may execute.
    pub max_sim_cycles: Option<u64>,
}

impl BudgetCaps {
    /// Starts the clock: converts static caps into a live [`Budget`].
    pub fn start(self) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                deadline_at: self.deadline.map(|d| Instant::now() + d),
                caps: self,
                polls: AtomicU32::new(0),
            }),
        }
    }
}

#[derive(Debug)]
struct Inner {
    caps: BudgetCaps,
    deadline_at: Option<Instant>,
    polls: AtomicU32,
}

/// A shared, cheap-to-clone resource-budget handle.
///
/// Cloning shares the same deadline and poll counter, so every pipeline
/// stage draws down one allowance. Equality and `Debug` consider only the
/// *configured* caps (never the live clock), so option structs that embed
/// a `Budget` compare equal across runs.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Budget {
    /// A budget with no limits; every check passes.
    pub fn unlimited() -> Self {
        BudgetCaps::default().start()
    }

    /// The caps this budget was started with.
    pub fn caps(&self) -> BudgetCaps {
        self.inner.caps
    }

    /// True when any limit is configured.
    pub fn is_limited(&self) -> bool {
        self.inner.caps != BudgetCaps::default()
    }

    /// Wall-clock time left, if a deadline is configured.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline_at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    fn deadline_ms(&self) -> u64 {
        self.inner
            .caps
            .deadline
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// True when the deadline has passed (always reads the clock).
    pub fn expired(&self) -> bool {
        matches!(self.inner.deadline_at, Some(at) if Instant::now() >= at)
    }

    /// Strided deadline poll for hot loops: reads the clock once every
    /// [`POLL_STRIDE`] calls.
    ///
    /// # Errors
    ///
    /// [`BudgetKind::Deadline`] once the wall-clock allowance is spent.
    pub fn check_deadline(&self, stage: &'static str) -> Result<(), BudgetError> {
        if self.inner.deadline_at.is_none() {
            return Ok(());
        }
        let n = self.inner.polls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(POLL_STRIDE) {
            return Ok(());
        }
        self.check_deadline_now(stage)
    }

    /// Unstrided deadline check for cold points (stage boundaries).
    ///
    /// # Errors
    ///
    /// [`BudgetKind::Deadline`] once the wall-clock allowance is spent.
    pub fn check_deadline_now(&self, stage: &'static str) -> Result<(), BudgetError> {
        if self.expired() {
            return Err(BudgetError::new(
                BudgetKind::Deadline,
                stage,
                self.deadline_ms(),
            ));
        }
        Ok(())
    }

    /// Checks the module-instantiation depth cap.
    ///
    /// # Errors
    ///
    /// [`BudgetKind::Depth`] when `depth` exceeds the configured cap.
    pub fn check_depth(&self, depth: u32, stage: &'static str) -> Result<(), BudgetError> {
        match self.inner.caps.max_depth {
            Some(max) if depth > max => {
                Err(BudgetError::new(BudgetKind::Depth, stage, u64::from(max)))
            }
            _ => Ok(()),
        }
    }

    /// Checks the netlist size cap against the current item count.
    ///
    /// # Errors
    ///
    /// [`BudgetKind::NetlistSize`] when `items` exceeds the configured cap.
    pub fn check_netlist_items(&self, items: u64, stage: &'static str) -> Result<(), BudgetError> {
        match self.inner.caps.max_netlist_items {
            Some(max) if items > max => Err(BudgetError::new(BudgetKind::NetlistSize, stage, max)),
            _ => Ok(()),
        }
    }

    /// Checks the simulation cycle cap against the cycles executed so far.
    ///
    /// # Errors
    ///
    /// [`BudgetKind::SimCycles`] when `cycles` exceeds the configured cap.
    pub fn check_cycles(&self, cycles: u64, stage: &'static str) -> Result<(), BudgetError> {
        match self.inner.caps.max_sim_cycles {
            Some(max) if cycles > max => Err(BudgetError::new(BudgetKind::SimCycles, stage, max)
                .with_progress(format!("{max} cycle(s) executed"))),
            _ => Ok(()),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

// Only the static caps, matching `PartialEq`: the live `Instant` and poll
// counter differ between otherwise identical budgets.
impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("caps", &self.inner.caps)
            .finish()
    }
}

impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.inner.caps == other.inner.caps
    }
}

impl Eq for Budget {}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..10_000 {
            b.check_deadline("elaborate").unwrap();
        }
        b.check_depth(1_000_000, "elaborate").unwrap();
        b.check_netlist_items(u64::MAX, "elaborate").unwrap();
        assert!(b.remaining().is_none());
    }

    #[test]
    fn expired_deadline_reports_lss401() {
        let b = BudgetCaps {
            deadline: Some(Duration::ZERO),
            ..BudgetCaps::default()
        }
        .start();
        let err = b.check_deadline_now("infer").unwrap_err();
        assert_eq!(err.code(), "LSS401");
        assert_eq!(err.stage, "infer");
        assert!(err.hint().contains("--deadline-ms"));
        // The strided poll reaches the same verdict within one stride.
        let strided = (0..=POLL_STRIDE).find_map(|_| b.check_deadline("infer").err());
        assert_eq!(strided.unwrap().kind, BudgetKind::Deadline);
    }

    #[test]
    fn depth_and_netlist_caps_enforced() {
        let b = BudgetCaps {
            max_depth: Some(4),
            max_netlist_items: Some(100),
            ..BudgetCaps::default()
        }
        .start();
        b.check_depth(4, "elaborate").unwrap();
        assert_eq!(b.check_depth(5, "elaborate").unwrap_err().code(), "LSS404");
        b.check_netlist_items(100, "elaborate").unwrap();
        assert_eq!(
            b.check_netlist_items(101, "elaborate").unwrap_err().code(),
            "LSS407"
        );
    }

    #[test]
    fn sim_cycle_cap_enforced_as_lss408() {
        let b = BudgetCaps {
            max_sim_cycles: Some(1000),
            ..BudgetCaps::default()
        }
        .start();
        b.check_cycles(1000, "simulate").unwrap();
        let err = b.check_cycles(1001, "simulate").unwrap_err();
        assert_eq!(err.code(), "LSS408");
        assert_eq!(err.stage, "simulate");
        assert!(err.hint().contains("--max-cycles"));
        assert!(Budget::unlimited()
            .check_cycles(u64::MAX, "simulate")
            .is_ok());
    }

    #[test]
    fn clones_share_one_allowance() {
        let b = BudgetCaps {
            deadline: Some(Duration::from_secs(3600)),
            ..BudgetCaps::default()
        }
        .start();
        let clone = b.clone();
        assert_eq!(b, clone);
        assert!(clone.remaining().unwrap() <= Duration::from_secs(3600));
    }

    #[test]
    fn debug_and_eq_ignore_the_live_clock() {
        let caps = BudgetCaps {
            deadline: Some(Duration::from_millis(250)),
            ..BudgetCaps::default()
        };
        let a = caps.start();
        std::thread::sleep(Duration::from_millis(2));
        let b = caps.start();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn error_display_names_stage_limit_and_progress() {
        let err = BudgetError::new(BudgetKind::Instances, "elaborate", 500)
            .with_progress("500 instances elaborated");
        let msg = err.to_string();
        assert!(msg.contains("instance budget"), "{msg}");
        assert!(msg.contains("500"), "{msg}");
        assert!(msg.contains("elaborate"), "{msg}");
        assert!(msg.contains("500 instances elaborated"), "{msg}");
        assert_eq!(err.code(), "LSS403");
    }

    #[test]
    fn every_kind_has_distinct_code_and_flag() {
        let kinds = [
            BudgetKind::Deadline,
            BudgetKind::ElabSteps,
            BudgetKind::Instances,
            BudgetKind::Depth,
            BudgetKind::SolverSteps,
            BudgetKind::Expansions,
            BudgetKind::NetlistSize,
            BudgetKind::SimCycles,
        ];
        let codes: std::collections::HashSet<_> = kinds.iter().map(|k| k.code()).collect();
        let flags: std::collections::HashSet<_> = kinds.iter().map(|k| k.flag()).collect();
        assert_eq!(codes.len(), kinds.len());
        assert_eq!(flags.len(), kinds.len());
        assert!(codes.iter().all(|c| c.starts_with("LSS4")));
    }
}
