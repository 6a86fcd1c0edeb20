//! Per-session resource quotas: the eight `LSS401`–`LSS408` limits, one
//! type for every front end.
//!
//! `lssc` parses them from its command line, `lssd` from its command line
//! (server-wide caps) and from each request's `quota` object, and every
//! front end hands the result to [`Driver::set_quota`](crate::Driver::set_quota),
//! the one mapping from limits to stage options and the budget handle.

use std::time::Duration;

use lss_types::BudgetCaps;

/// Per-session resource quota. Every field maps to one `LSS4xx`
/// diagnostic (see docs/ROBUSTNESS.md); `None` leaves the default limit.
/// `lssd` merges a request's quota with its own server-wide caps by
/// taking the *tighter* limit ([`Quota::clamp`]), so a client can never
/// ask for more than the operator allows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quota {
    /// Wall-clock budget in milliseconds (LSS401).
    pub deadline_ms: Option<u64>,
    /// Elaboration statement fuel (LSS402).
    pub max_steps: Option<u64>,
    /// Instance cap (LSS403).
    pub max_instances: Option<u64>,
    /// Module-instantiation depth cap (LSS404).
    pub max_depth: Option<u64>,
    /// Type-inference unification-step cap (LSS405).
    pub solver_steps: Option<u64>,
    /// Disjunct-combination cap per scheme (LSS406).
    pub expansion_cap: Option<u64>,
    /// Elaborated netlist size cap (LSS407).
    pub max_netlist: Option<u64>,
    /// Simulation cycle cap (LSS408).
    pub max_cycles: Option<u64>,
}

impl Quota {
    /// The eight limits in `LSS401`–`LSS408` order, keyed by their JSON
    /// name (`max_steps`); the command-line flag is the same name with
    /// dashes (`--max-steps`).
    pub fn limits_mut(&mut self) -> [(&'static str, &mut Option<u64>); 8] {
        [
            ("deadline_ms", &mut self.deadline_ms),
            ("max_steps", &mut self.max_steps),
            ("max_instances", &mut self.max_instances),
            ("max_depth", &mut self.max_depth),
            ("solver_steps", &mut self.solver_steps),
            ("expansion_cap", &mut self.expansion_cap),
            ("max_netlist", &mut self.max_netlist),
            ("max_cycles", &mut self.max_cycles),
        ]
    }

    /// [`Quota::limits_mut`] by value.
    pub fn limits(mut self) -> [(&'static str, Option<u64>); 8] {
        self.limits_mut().map(|(name, limit)| (name, *limit))
    }

    /// The tighter of two quotas, limit by limit (`None` is unlimited).
    /// Used to clamp a request's asks under the server-wide caps.
    pub fn clamp(mut self, server: Quota) -> Quota {
        for ((_, mine), (_, cap)) in self.limits_mut().into_iter().zip(server.limits()) {
            *mine = match (*mine, cap) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        self
    }

    /// The key-stable caps that arm the shared [`lss_types::Budget`]
    /// handle (deadline, depth, netlist size, sim cycles). Fuel caps
    /// (steps, solver, expansion) go into the stage options instead.
    pub fn budget_caps(&self) -> BudgetCaps {
        BudgetCaps {
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_depth: self.max_depth.map(|n| u32::try_from(n).unwrap_or(u32::MAX)),
            max_netlist_items: self.max_netlist,
            max_sim_cycles: self.max_cycles,
        }
    }

    /// Consumes `flag` and its value from `args` when `flag` is one of
    /// the eight quota flags (`--deadline-ms` … `--max-cycles`). Returns
    /// `Ok(false)`, leaving `args` untouched, for any other flag.
    ///
    /// # Errors
    ///
    /// A missing or non-numeric value: a usage error for the caller to
    /// report.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let is_flag = |name: &str| flag == format!("--{}", name.replace('_', "-"));
        let Some((_, limit)) = self
            .limits_mut()
            .into_iter()
            .find(|(name, _)| is_flag(name))
        else {
            return Ok(false);
        };
        let text = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let n = text
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer, got `{text}`"))?;
        *limit = Some(n);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Driver;
    use lss_interp::CompileOptions;

    #[test]
    fn quota_clamp_takes_the_tighter_limit() {
        let client = Quota {
            deadline_ms: Some(60_000),
            max_cycles: Some(10),
            ..Quota::default()
        };
        let server = Quota {
            deadline_ms: Some(5_000),
            max_netlist: Some(100_000),
            ..Quota::default()
        };
        let merged = client.clamp(server);
        assert_eq!(merged.deadline_ms, Some(5_000), "server cap wins");
        assert_eq!(merged.max_cycles, Some(10), "client ask survives");
        assert_eq!(merged.max_netlist, Some(100_000), "server default applies");
        let caps = merged.budget_caps();
        assert_eq!(caps.max_sim_cycles, Some(10));
        assert_eq!(caps.max_netlist_items, Some(100_000));
    }

    /// Each flag, parsed and applied to a fresh session, moves exactly
    /// the option or budget cap it names and nothing else.
    #[test]
    fn each_flag_sets_exactly_its_own_limit() {
        type Expect = fn(&mut CompileOptions, &mut BudgetCaps);
        let table: [(&str, Expect); 8] = [
            ("--deadline-ms", |_, c| {
                c.deadline = Some(Duration::from_millis(7))
            }),
            ("--max-steps", |o, _| o.elab.max_steps = 7),
            ("--max-instances", |o, _| o.elab.max_instances = 7),
            ("--max-depth", |o, c| {
                o.elab.max_depth = 7;
                c.max_depth = Some(7);
            }),
            ("--solver-steps", |o, _| o.solver.step_budget = Some(7)),
            ("--expansion-cap", |o, _| o.solver.expansion_cap = 7),
            ("--max-netlist", |_, c| c.max_netlist_items = Some(7)),
            ("--max-cycles", |_, c| c.max_sim_cycles = Some(7)),
        ];
        for (flag, expect) in table {
            let mut quota = Quota::default();
            let mut args = ["7", "next"].map(String::from).into_iter();
            assert_eq!(quota.parse_flag(flag, &mut args), Ok(true), "{flag}");
            assert_eq!(args.next().as_deref(), Some("next"), "{flag}");
            let mut driver = Driver::new();
            driver.set_quota(&quota);

            let mut options = CompileOptions::default();
            let mut caps = BudgetCaps::default();
            expect(&mut options, &mut caps);
            if caps != BudgetCaps::default() {
                options.set_budget(caps.start());
            }
            // `Budget`'s `Debug` shows its caps, so this compares every
            // option field, the stage budgets included.
            assert_eq!(
                format!("{:?}", driver.options),
                format!("{options:?}"),
                "{flag}"
            );
            assert_eq!(driver.budget().caps(), caps, "{flag}");
            assert_eq!(driver.sim_options.budget.caps(), caps, "{flag}");
        }

        let mut quota = Quota::default();
        let mut args = ["many"].map(String::from).into_iter();
        let err = quota.parse_flag("--max-steps", &mut args).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
        let err = quota
            .parse_flag("--deadline-ms", &mut std::iter::empty())
            .unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        for other in ["--max-run", "--max_steps", "max-steps"] {
            let mut args = ["7"].map(String::from).into_iter();
            assert_eq!(quota.parse_flag(other, &mut args), Ok(false), "{other}");
            assert_eq!(args.len(), 1, "{other} must consume nothing");
        }
        assert_eq!(quota, Quota::default());
    }
}
