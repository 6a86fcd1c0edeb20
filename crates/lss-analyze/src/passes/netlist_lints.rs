//! The six original `lss_netlist::lint` checks, migrated into the pass
//! framework (`LSS103`, `LSS104`, `LSS201`, `LSS202`, `LSS301`, `LSS302`).
//!
//! The check implementations stay in `lss-netlist` as the individual
//! `check_*` functions of [`lss_netlist::lint`]; here each check becomes a
//! pass that maps `Lint` findings onto stable codes and per-code severity
//! defaults.

use lss_netlist::{lint, Lint, LintKind, Netlist};

use crate::diag::{Code, Finding};
use crate::{AnalysisCtx, Pass};

/// The stable code for a legacy lint category.
pub fn code_of(kind: LintKind) -> Code {
    match kind {
        LintKind::UnconnectedInput => Code::UnconnectedInput,
        LintKind::UnconnectedOutput => Code::UnconnectedOutput,
        LintKind::IsolatedInstance => Code::IsolatedInstance,
        LintKind::DanglingHierarchicalPort => Code::DanglingHierPort,
        LintKind::WidthMismatch => Code::WidthMismatch,
        LintKind::UnboundCollector => Code::UnboundCollector,
    }
}

fn convert(check: fn(&Netlist, &mut Vec<Lint>), ctx: &AnalysisCtx<'_>, out: &mut Vec<Finding>) {
    let mut lints = Vec::new();
    check(ctx.netlist, &mut lints);
    out.extend(
        lints
            .into_iter()
            .map(|l| Finding::new(code_of(l.kind), l.subject, l.message)),
    );
}

macro_rules! lint_pass {
    ($(#[$doc:meta])* $pass:ident, $name:literal, $check:path, $codes:expr) => {
        $(#[$doc])*
        pub struct $pass;

        impl Pass for $pass {
            fn name(&self) -> &'static str {
                $name
            }

            fn codes(&self) -> &'static [Code] {
                $codes
            }

            fn run(&self, ctx: &AnalysisCtx<'_>, findings: &mut Vec<Finding>) {
                convert($check, ctx, findings);
            }
        }
    };
}

lint_pass!(
    /// Unconnected leaf inputs and outputs on partially wired instances
    /// (`LSS201`, `LSS202`).
    UnconnectedPortsPass,
    "unconnected-ports",
    lint::check_unconnected,
    &[Code::UnconnectedInput, Code::UnconnectedOutput]
);
lint_pass!(
    /// Instances declaring ports with none connected (`LSS103`).
    IsolatedInstancePass,
    "isolated-instances",
    lint::check_isolated,
    &[Code::IsolatedInstance]
);
lint_pass!(
    /// Hierarchical ports connected on only one face (`LSS104`).
    DanglingHierPortPass,
    "dangling-hierarchical-ports",
    lint::check_dangling_hierarchical,
    &[Code::DanglingHierPort]
);
lint_pass!(
    /// Ports sharing a type variable but differing in width (`LSS301`).
    WidthMismatchPass,
    "width-mismatches",
    lint::check_width_mismatch,
    &[Code::WidthMismatch]
);
lint_pass!(
    /// Collectors bound to events that can never fire (`LSS302`).
    UnboundCollectorPass,
    "unbound-collectors",
    lint::check_unbound_collectors,
    &[Code::UnboundCollector]
);
