//! Static concurrency scheduling (Penry & August, DAC'03 — reference 12 in the
//! paper).
//!
//! The combinational dependency graph has an edge `A → B` for every wire
//! from an output of `A` to an input of `B` *that `B`'s `eval` actually
//! reads* (state elements consume their inputs in `end_of_timestep`, which
//! is what breaks synchronous feedback loops). The static schedule is the
//! topological order of this graph's strongly connected components. A
//! multi-node SCC is a leaf-level cycle, and LSE schedules at port
//! granularity, so most such cycles (credit handshakes, cache
//! request/response pairs) are acyclic port by port: they run as a fixed
//! straight-line sequence of evaluations. Only a genuine port-level cycle
//! is iterated to a fixpoint at simulation time.
//!
//! The graphs live in `lss-analyze` ([`DepGraph`], its Tarjan
//! [`Condensation`], and the straight-line order of
//! `LeafDepGraph::straight_line_order`): the engine executes exactly the
//! condensation and sequences the static analyzer derives, so `lssc check`
//! (`LSS101`) and the scheduler can never disagree about what is a cycle.

use lss_analyze::{Condensation, DepGraph};

/// One step of a static schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleStep {
    /// Evaluate a single component once.
    Single(usize),
    /// A leaf-level cycle that is acyclic at port level: evaluate these
    /// components in this order, once per entry. A component appears again
    /// only after an in-block output it reads has become final.
    Sequence(Vec<usize>),
    /// A combinational cycle: iterate these components until their outputs
    /// stop changing.
    Fixpoint(Vec<usize>),
}

/// A full static schedule over `n` components.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Steps in execution order.
    pub steps: Vec<ScheduleStep>,
}

impl Schedule {
    /// Number of components covered.
    pub fn len(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                ScheduleStep::Single(_) => 1,
                ScheduleStep::Sequence(v) => {
                    (0..v.len()).filter(|&j| !v[..j].contains(&v[j])).count()
                }
                ScheduleStep::Fixpoint(v) => v.len(),
            })
            .sum()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of fixpoint blocks: genuine port-level combinational cycles.
    pub fn cycle_blocks(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ScheduleStep::Fixpoint(_)))
            .count()
    }

    /// Number of leaf-level cycles scheduled as straight-line sequences.
    pub fn straight_line_blocks(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ScheduleStep::Sequence(_)))
            .count()
    }

    /// Builds the schedule executing a dependency-graph condensation:
    /// acyclic components become [`ScheduleStep::Single`] evaluations in
    /// topological order; each cycle becomes a [`ScheduleStep::Sequence`]
    /// when `sequence` returns an order for it (the engine passes
    /// `LeafDepGraph::straight_line_order`), and a fixpoint block
    /// otherwise.
    pub fn from_condensation(
        cond: &Condensation,
        mut sequence: impl FnMut(&[usize]) -> Option<Vec<usize>>,
    ) -> Schedule {
        let steps = cond
            .sccs
            .iter()
            .zip(&cond.cyclic)
            .map(|(scc, &cyclic)| {
                if !cyclic {
                    ScheduleStep::Single(scc[0])
                } else if let Some(order) = sequence(scc) {
                    ScheduleStep::Sequence(order)
                } else {
                    ScheduleStep::Fixpoint(scc.clone())
                }
            })
            .collect();
        Schedule { steps }
    }
}

/// Computes the static schedule for `n` components given the combinational
/// edges `A → B` (deduplicated internally). Without port-level information
/// every cycle is a fixpoint block.
pub fn schedule(n: usize, edges: &[(usize, usize)]) -> Schedule {
    Schedule::from_condensation(&DepGraph::from_edges(n, edges).condense(), |_| None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_of(schedule: &Schedule) -> Vec<usize> {
        schedule
            .steps
            .iter()
            .flat_map(|s| match s {
                ScheduleStep::Single(v) => vec![*v],
                ScheduleStep::Sequence(vs) | ScheduleStep::Fixpoint(vs) => vs.clone(),
            })
            .collect()
    }

    #[test]
    fn chain_schedules_in_order() {
        // 0 -> 1 -> 2 -> 3
        let s = schedule(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(order_of(&s), vec![0, 1, 2, 3]);
        assert_eq!(s.cycle_blocks(), 0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn respects_topological_constraints_in_dags() {
        // Diamond: 0 -> {1,2} -> 3.
        let s = schedule(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = order_of(&s);
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_becomes_fixpoint_block() {
        // 0 -> 1 -> 2 -> 0 with an entry 3 -> 0 and exit 2 -> 4.
        let s = schedule(5, &[(0, 1), (1, 2), (2, 0), (3, 0), (2, 4)]);
        assert_eq!(s.cycle_blocks(), 1);
        let order = order_of(&s);
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(3) < pos(0), "entry must run before the cycle");
        assert!(pos(2) < pos(4), "exit must run after the cycle");
        // The cycle nodes form one block.
        let block = s
            .steps
            .iter()
            .find_map(|st| match st {
                ScheduleStep::Fixpoint(v) => Some(v.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(block, vec![0, 1, 2]);
    }

    #[test]
    fn sequenced_cycle_is_a_straight_line_block() {
        // 0 <-> 1 feeding 2: with an order for the cycle it runs inline,
        // and each member still counts once.
        let cond = DepGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]).condense();
        let s = Schedule::from_condensation(&cond, |scc| Some(vec![scc[1], scc[0], scc[1]]));
        assert_eq!(s.steps[0], ScheduleStep::Sequence(vec![1, 0, 1]));
        assert_eq!(s.cycle_blocks(), 0);
        assert_eq!(s.straight_line_blocks(), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn self_loop_is_a_fixpoint() {
        let s = schedule(2, &[(0, 0), (0, 1)]);
        assert!(matches!(&s.steps[0], ScheduleStep::Fixpoint(v) if v == &vec![0]));
        assert!(matches!(&s.steps[1], ScheduleStep::Single(1)));
    }

    #[test]
    fn disconnected_components_all_scheduled() {
        let s = schedule(5, &[(0, 1), (3, 4)]);
        let mut order = order_of(&s);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_edges_are_harmless() {
        let s = schedule(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(order_of(&s), vec![0, 1]);
    }

    #[test]
    fn large_pipeline_does_not_overflow_stack() {
        let n = 50_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let s = schedule(n, &edges);
        assert_eq!(s.len(), n);
        assert_eq!(order_of(&s)[0], 0);
        assert_eq!(order_of(&s)[n - 1], n - 1);
    }

    #[test]
    fn two_cycles_are_separate_blocks() {
        // 0 <-> 1, 2 <-> 3, with 1 -> 2.
        let s = schedule(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        assert_eq!(s.cycle_blocks(), 2);
        let order = order_of(&s);
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(2));
    }
}
