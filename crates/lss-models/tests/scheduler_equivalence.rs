//! The static topological scheduler and the dynamic worklist baseline must
//! be observationally equivalent: on every Table 3 model, the same values
//! fire on the same ports in the same cycles, and every collector ends in
//! the same state. (`comp_evals` legitimately differs — the static
//! schedule's whole point is evaluating each component fewer times.)

use std::collections::BTreeMap;

use lss_models::runner::build_sim;
use lss_models::{compile_model, models};
use lss_netlist::Netlist;
use lss_sim::Scheduler;
use lss_types::Datum;

const CYCLES: u64 = 60;

/// One port fire, with the value rendered so the tuple is sortable.
type Fire = (u64, String, String, u32, String);

fn run(
    netlist: &Netlist,
    scheduler: Scheduler,
) -> (Vec<Fire>, BTreeMap<String, BTreeMap<String, Datum>>) {
    let mut sim = build_sim(netlist, scheduler).expect("build");
    sim.watch(""); // log every fire in the model
    sim.set_firing_log_cap(usize::MAX);
    sim.run(CYCLES).expect("run");
    let mut fires: Vec<Fire> = sim
        .firing_log()
        .iter()
        .map(|r| {
            (
                r.cycle,
                r.path.clone(),
                r.port.clone(),
                r.lane,
                r.value.to_string(),
            )
        })
        .collect();
    // Within a cycle the two schedulers visit components in different
    // orders; the *set* of fires is what must agree.
    fires.sort();
    let mut collectors = BTreeMap::new();
    for (path, event, state) in sim.collector_reports() {
        let table: BTreeMap<String, Datum> = state
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        collectors.insert(format!("{path}/{event}"), table);
    }
    (fires, collectors)
}

/// The engine must execute exactly the schedule the static analyzer derives:
/// `lss-analyze`'s component-level dependency graph, condensed and ordered,
/// with every leaf-level cycle that is acyclic at port level replaced by
/// the analyzer's straight-line order, is the single source of truth for
/// evaluation order.
#[test]
fn engine_schedule_matches_analyzer_condensation() {
    use lss_analyze::leaf_dep_graph;
    use lss_sim::Schedule;

    let registry = lss_corelib::registry();
    for model in models() {
        let compiled = compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        let sim = build_sim(&compiled.netlist, Scheduler::Static).expect("build");
        let wires = compiled.netlist.flatten();
        let comb = lss_sim::comb_info(&compiled.netlist, &registry);
        let deps = leaf_dep_graph(&compiled.netlist, &wires, &comb);
        let ports = deps.ports.condense();
        let expected = Schedule::from_condensation(&deps.graph.condense(), |scc| {
            deps.straight_line_order(&ports, scc)
        });
        assert_eq!(
            sim.static_schedule(),
            &expected,
            "model {}: engine schedule diverges from the analyzer's",
            model.id
        );
    }
}

/// Every Table 3 loop (decode ↔ fetch queue, L1 ↔ memory, E's shared
/// hierarchy) is acyclic at port level, so no model keeps a fixpoint
/// block, and each decode ↔ fetch-queue block lowers its queue in place.
#[test]
fn table3_models_run_without_fixpoint_blocks() {
    let expected = [
        ('A', 2, 13),
        ('B', 2, 8),
        ('C', 2, 12),
        ('D', 2, 14),
        ('E', 3, 28),
        ('F', 2, 14),
    ];
    for (model, (id, blocks, kernels)) in models().iter().zip(expected) {
        assert_eq!(model.id, id);
        let compiled = compile_model(model).expect("compile");
        let sim = build_sim(&compiled.netlist, Scheduler::Static).expect("build");
        let schedule = sim.static_schedule();
        assert_eq!(schedule.cycle_blocks(), 0, "model {id}");
        assert_eq!(schedule.straight_line_blocks(), blocks, "model {id}");
        assert_eq!(sim.kernel_count(), kernels, "model {id}");
    }
}

#[test]
fn static_and_dynamic_schedulers_agree_on_all_models() {
    for model in models() {
        let compiled = compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        let (static_fires, static_colls) = run(&compiled.netlist, Scheduler::Static);
        let (dynamic_fires, dynamic_colls) = run(&compiled.netlist, Scheduler::Dynamic);
        assert!(
            !static_fires.is_empty(),
            "model {}: nothing fired in {CYCLES} cycles",
            model.id
        );
        assert_eq!(
            static_fires.len(),
            dynamic_fires.len(),
            "model {}: schedulers produced different fire counts",
            model.id
        );
        for (s, d) in static_fires.iter().zip(&dynamic_fires) {
            assert_eq!(s, d, "model {}: firing logs diverge", model.id);
        }
        assert_eq!(
            static_colls, dynamic_colls,
            "model {}: collector state diverges",
            model.id
        );
    }
}

/// The straight-line orders of the Table 3 loops, by instance path. Each
/// requester runs before and after the level below it; the fetch queue, a
/// memory bank and the bottom `memory` run once.
#[test]
fn table3_straight_line_orders_are_pinned() {
    let credit = "cpu.dec cpu.fe.fq cpu.dec";
    let l1_mem = "cpu.ms.l1 cpu.ms.mm cpu.ms.l1";
    let l1_l2_mem = "cpu.ms.l1 cpu.ms.l2 cpu.ms.mm cpu.ms.l2 cpu.ms.l1";
    let expected: [&[&str]; 6] = [
        &[l1_mem, credit],
        &[l1_mem, credit],
        &[l1_mem, credit],
        &[l1_l2_mem, credit],
        &[
            "core0.dec core0.fe.fq core0.dec",
            "core1.dec core1.fe.fq core1.dec",
            "core1.l1 core0.l1 l2 banks[0] banks[1] banks[2] banks[3] l2 core1.l1 core0.l1",
        ],
        &[l1_l2_mem, credit],
    ];
    for (model, want) in models().iter().zip(expected) {
        let compiled = compile_model(model).expect("compile");
        let sim = build_sim(&compiled.netlist, Scheduler::Static).expect("build");
        let paths: Vec<&str> = compiled.netlist.leaves().map(|l| l.path.as_str()).collect();
        let got: Vec<String> = sim
            .static_schedule()
            .steps
            .iter()
            .filter_map(|step| match step {
                lss_sim::ScheduleStep::Sequence(order) => Some(
                    order
                        .iter()
                        .map(|&c| paths[c])
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                _ => None,
            })
            .collect();
        assert_eq!(got, want, "model {}", model.id);
    }
}
