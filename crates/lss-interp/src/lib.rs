//! Compile-time evaluation of LSS specifications.
//!
//! This crate implements the paper's core idea: LSS code is *executed at
//! compile time* to build a static netlist, using the novel deferred
//! evaluation semantics of §6.2 that enables **use-based specialization** —
//! module bodies run only after their instance's uses (parameter
//! assignments, port connections) have been recorded, so bodies can read
//! inferred port widths and conditionally export ports and parameters.
//!
//! Entry points:
//!
//! * [`elaborate`] — run a set of parsed programs to a
//!   [`lss_netlist::Netlist`];
//! * [`typeck::infer`] — resolve every port's basic type with the §5
//!   inference engine.
//!
//! `lss_driver::Driver` runs both as stages of one compilation session.
//!
//! # Example
//!
//! ```
//! use lss_ast::{parse, DiagnosticBag, SourceMap};
//! use lss_interp::{elaborate, infer, ElabOptions, Unit};
//! use lss_types::SolverConfig;
//!
//! let src = r#"
//!     module delay {
//!         parameter initial_state = 0:int;
//!         inport in:int;
//!         outport out:int;
//!         tar_file = "corelib/delay.tar";
//!     };
//!     instance d1:delay;
//!     instance d2:delay;
//!     d1.initial_state = 1;
//!     d1.out -> d2.in;
//! "#;
//! let mut sources = SourceMap::new();
//! let file = sources.add_file("fig6.lss", src);
//! let mut diags = DiagnosticBag::new();
//! let program = parse(file, src, &mut diags);
//! let units = [Unit { program: &program, library: false }];
//! let mut netlist = elaborate(&units, &ElabOptions::default(), &mut diags)
//!     .expect("elaborates")
//!     .netlist;
//! infer(&mut netlist, &SolverConfig::default(), &mut diags).expect("types check");
//! assert_eq!(netlist.instances.len(), 2);
//! ```

#![warn(missing_docs)]
// The interpreter runs user-supplied programs: failures must surface as
// spanned diagnostics, never panics (tests opt back in per-module).
#![warn(clippy::unwrap_used)]

pub mod env;
pub mod eval;
pub mod records;
pub mod typeck;
pub mod value;

pub use eval::{elaborate, elaborate_scoped, ElabOptions, ElabOutput, Unit};
pub use typeck::{infer, infer_with_memo};
pub use value::Value;

use lss_types::SolverConfig;

/// Options for the elaborate and infer stages of a session.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Elaboration limits.
    pub elab: ElabOptions,
    /// Type-inference configuration (heuristics on by default).
    pub solver: SolverConfig,
}

impl CompileOptions {
    /// Threads one shared [`lss_types::Budget`] handle through every
    /// stage, so elaboration and inference draw down a single wall-clock
    /// allowance.
    pub fn set_budget(&mut self, budget: lss_types::Budget) {
        self.elab.budget = budget.clone();
        self.solver.budget = budget;
    }
}
