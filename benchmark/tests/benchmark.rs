//! The benchmark's own tests: an independent check of the expected
//! simulation results, determinism of the seeded operation streams, and
//! traced-layer coverage.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use lss_benchmark::compile_cold::CompileCold;
use lss_benchmark::service_mix::ServiceMix;
use lss_benchmark::sim_table3::SimTable3;
use lss_benchmark::{remainder_and_coverage, Limit, Phase};
use lss_sim::SimOptions;
use lss_verify::{Mutation, RefSim};

/// Opening cycles over which the default engine must match the oracle.
const OPENING_CYCLES: u64 = 200;

fn assert_clean(what: &str, phase: &Phase) {
    assert!(phase.attempted > 0, "{what}: nothing ran");
    assert_eq!(phase.failed, 0, "{what}: {:?}", phase.errors);
}

/// `expected/sim_table3.tsv` comes from the engine under test; this pins
/// that engine to the independent reference simulator, state line for
/// state line, over each model's opening cycles.
#[test]
fn default_engine_matches_refsim() {
    let registry = lss_corelib::registry();
    for m in lss_models::models() {
        let netlist = lss_models::compile_model(m).expect("compiles").netlist;
        let mut sim = lss_sim::build(&netlist, &registry, SimOptions::default()).expect("builds");
        let mut oracle = RefSim::build(&netlist, &registry, Mutation::None).expect("oracle builds");
        oracle.init().expect("oracle init");
        for cycle in 0..OPENING_CYCLES {
            sim.step().expect("engine steps");
            oracle.step().expect("oracle steps");
            assert_eq!(
                sim.state_lines(),
                oracle.state_lines(),
                "model {} diverges from RefSim at cycle {cycle}",
                m.id
            );
        }
    }
}

#[test]
fn sim_table3_is_deterministic_and_correct() {
    let a = SimTable3::setup(7)
        .expect("setup")
        .run(Limit::Ops(8), false);
    let b = SimTable3::setup(7)
        .expect("setup")
        .run(Limit::Ops(8), false);
    let c = SimTable3::setup(8)
        .expect("setup")
        .run(Limit::Ops(8), false);
    for (what, p) in [("seed 7", &a), ("seed 7 again", &b), ("seed 8", &c)] {
        assert_clean(what, p);
    }
    assert_eq!(a.stream, b.stream);
    assert_ne!(a.stream, c.stream, "another seed must shuffle differently");
    for key in [
        "sim.evals_per_cycle",
        "sim.port_firings_per_cycle",
        "sim.events_per_cycle",
    ] {
        assert_eq!(a.values[key], b.values[key], "{key}");
    }
}

#[test]
fn compile_cold_is_deterministic_and_correct() {
    let a = CompileCold::setup(7)
        .expect("setup")
        .run(Limit::Ops(120), false);
    let b = CompileCold::setup(7)
        .expect("setup")
        .run(Limit::Ops(120), false);
    let c = CompileCold::setup(8)
        .expect("setup")
        .run(Limit::Ops(120), false);
    for (what, p) in [("seed 7", &a), ("seed 7 again", &b), ("seed 8", &c)] {
        assert_clean(what, p);
    }
    assert_eq!(a.stream, b.stream);
    assert_ne!(
        a.stream, c.stream,
        "another seed must draw a different stream"
    );
    for key in ["interp.instances", "types.unify_steps", "analyze.findings"] {
        assert_eq!(a.values[key], b.values[key], "{key}");
        assert!(a.values[key] > 0.0, "{key} must count something");
    }
}

#[test]
fn service_mix_is_deterministic_and_correct() {
    let run = |seed| {
        let w = ServiceMix::setup(seed);
        let phase = w.run(Limit::Ops(60), false);
        let _ = std::fs::remove_dir_all(w.work());
        phase
    };
    let (a, b, c) = (run(7), run(7), run(8));
    for (what, p) in [("seed 7", &a), ("seed 7 again", &b), ("seed 8", &c)] {
        assert_clean(what, p);
        assert_eq!(p.values["lssd.panics"], 0.0, "{what}");
    }
    assert_eq!(a.stream, b.stream);
    assert_ne!(a.stream, c.stream, "another seed must draw a different mix");
    assert_eq!(a.values["lssd.hot_entries"], b.values["lssd.hot_entries"]);
}

/// The traced layers must account for at least 95% of an operation's
/// wall time on the single-client workloads.
#[test]
fn traced_layers_cover_the_operations() {
    let sim = SimTable3::setup(3).expect("setup");
    let t = sim.run(Limit::Ops(12), true);
    assert_clean("sim_table3 traced", &t);
    let (_, coverage) = remainder_and_coverage(&t);
    assert!(coverage >= 95.0, "sim_table3 coverage {coverage:.1}%");

    let cold = CompileCold::setup(3).expect("setup");
    let t = cold.run(Limit::Ops(200), true);
    assert_clean("compile_cold traced", &t);
    let (_, coverage) = remainder_and_coverage(&t);
    assert!(coverage >= 95.0, "compile_cold coverage {coverage:.1}%");
}
