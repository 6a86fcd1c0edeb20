//! Kernel-equivalence harness: the static scheduler's staged kernel loop
//! must be observationally indistinguishable from the kernel-free dynamic
//! scheduler and from the naive fixpoint reference simulator.
//!
//! Three-way lockstep over all six Table 3 models and every single-file
//! fuzz-corpus entry, comparing the canonical `state_lines()` dump after
//! every cycle.

use std::fs;
use std::path::PathBuf;

use lss_interp::CompileOptions;
use lss_models::{compile_model, compile_source, models};
use lss_netlist::Netlist;
use lss_sim::{build, Scheduler, SimOptions, Simulator};
use lss_verify::{Mutation, RefSim};

const CYCLES: u64 = 50;

fn build_engine(netlist: &Netlist, scheduler: Scheduler) -> Simulator {
    let opts = SimOptions {
        scheduler,
        ..Default::default()
    };
    build(netlist, &lss_corelib::registry(), opts).expect("engine build")
}

/// Steps all three simulators in lockstep, comparing `state_lines()` after
/// every cycle. Returns an error message naming the first divergence.
fn three_way(netlist: &Netlist, name: &str, cycles: u64) -> Result<(), String> {
    let registry = lss_corelib::registry();
    let mut stat = build_engine(netlist, Scheduler::Static);
    let mut dynamic = build_engine(netlist, Scheduler::Dynamic);
    let mut reference =
        RefSim::build(netlist, &registry, Mutation::None).map_err(|e| format!("{name}: {e}"))?;
    reference.init().map_err(|e| format!("{name}: {e}"))?;
    for cycle in 0..cycles {
        // All three must agree on success/failure as well as on state.
        let rs = stat.step();
        let rd = dynamic.step();
        let rr = reference.step();
        match (&rs, &rd, &rr) {
            (Ok(()), Ok(()), Ok(())) => {}
            (Err(a), Err(b), Err(c)) => {
                let (a, b, c) = (a.to_string(), b.to_string(), c.to_string());
                if a == b && b == c {
                    return Ok(()); // agreed failure: equivalent behavior
                }
                return Err(format!(
                    "{name} cycle {cycle}: engines disagree on error:\n  static:  {a}\n  dynamic: {b}\n  refsim:  {c}"
                ));
            }
            _ => {
                return Err(format!(
                    "{name} cycle {cycle}: engines disagree on success: static={rs:?} dynamic={rd:?} refsim={rr:?}"
                ));
            }
        }
        let ls = stat.state_lines();
        let ld = dynamic.state_lines();
        let lr = reference.state_lines();
        if ls != ld {
            let diff = first_diff(&ls, &ld);
            return Err(format!(
                "{name} cycle {cycle}: dynamic diverges from static:\n{diff}"
            ));
        }
        if ls != lr {
            let diff = first_diff(&ls, &lr);
            return Err(format!(
                "{name} cycle {cycle}: refsim diverges from static:\n{diff}"
            ));
        }
    }
    Ok(())
}

fn first_diff(a: &[String], b: &[String]) -> String {
    for i in 0..a.len().max(b.len()) {
        let la = a.get(i).map(String::as_str).unwrap_or("<missing>");
        let lb = b.get(i).map(String::as_str).unwrap_or("<missing>");
        if la != lb {
            return format!("  line {i}:\n    left:  {la}\n    right: {lb}");
        }
    }
    "  (no line diff — lengths equal?)".to_string()
}

#[test]
fn all_table3_models_agree_three_ways() {
    let mut failures = Vec::new();
    for m in models() {
        let compiled =
            compile_model(m).unwrap_or_else(|e| panic!("model {} failed to compile:\n{e}", m.id));
        if let Err(e) = three_way(&compiled.netlist, &format!("model {}", m.id), CYCLES) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

#[test]
fn all_table3_models_lower_kernels() {
    // The static scheduler must actually lower: on every Table 3 model the
    // bulk of the leaves run as kernels (the dyn fallback is for the
    // exotic residue), and the dynamic baseline lowers nothing.
    for m in models() {
        let compiled = compile_model(m).expect("compile");
        assert_eq!(
            build_engine(&compiled.netlist, Scheduler::Dynamic).kernel_count(),
            0,
            "model {}: the dynamic scheduler lowered kernels",
            m.id
        );
        let sim = build_engine(&compiled.netlist, Scheduler::Static);
        assert!(
            sim.kernel_count() * 3 >= compiled.netlist.leaves().count(),
            "model {}: only {} of {} leaves lowered to kernels",
            m.id,
            sim.kernel_count(),
            compiled.netlist.leaves().count()
        );
        assert!(sim.stage_count() > 1, "model {}: no staging", m.id);
    }
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> =
        fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
            .expect("tests/corpus must exist")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "lss"))
            .collect();
    files.sort();
    files
}

#[test]
fn corpus_agrees_three_ways() {
    let mut failures = Vec::new();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("corpus file readable");
        let compiled = match compile_source(&text, &CompileOptions::default()) {
            Ok(c) => c,
            Err(_) => continue, // invalid corpus entries are covered elsewhere
        };
        if let Err(e) = three_way(&compiled.netlist, &name, 30) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

/// The fixpoint blocks of the static schedule, and the subjects of every
/// `LSS101` finding, as instance paths.
fn fixpoint_blocks_and_lss101_subjects(netlist: &Netlist) -> (Vec<Vec<String>>, Vec<String>) {
    use lss_analyze::{AnalysisConfig, Code, PassManager};
    use lss_sim::ScheduleStep;

    let registry = lss_corelib::registry();
    let sim = build_engine(netlist, Scheduler::Static);
    let paths: Vec<&str> = netlist.leaves().map(|l| l.path.as_str()).collect();
    let blocks = sim
        .static_schedule()
        .steps
        .iter()
        .filter_map(|step| match step {
            ScheduleStep::Fixpoint(members) => {
                Some(members.iter().map(|&c| paths[c].to_string()).collect())
            }
            _ => None,
        })
        .collect();
    let comb = lss_sim::comb_info(netlist, &registry);
    let analysis =
        PassManager::with_default_passes().run(netlist, &comb, &AnalysisConfig::default());
    let subjects = analysis
        .with_code(Code::CombCycle)
        .map(|f| f.subject.clone())
        .collect();
    (blocks, subjects)
}

#[test]
fn fixpoint_blocks_are_exactly_the_lss101_cycles() {
    // A netlist keeps a fixpoint block if and only if `lssc check` reports
    // LSS101 for it: every block holds a reported cycle and every reported
    // cycle runs inside a block. The Table 3 models and the corpus have
    // none; the ring of two tees is a genuine port-level cycle.
    let ring = "instance a:tee;\ninstance b:tee;\na.out -> b.in;\nb.out -> a.in;\na.out :: int;\n";
    let mut netlists: Vec<(String, Netlist)> = models()
        .iter()
        .map(|m| {
            (
                format!("model {}", m.id),
                compile_model(m).expect("compile").netlist,
            )
        })
        .collect();
    for path in corpus_files() {
        let text = fs::read_to_string(&path).expect("corpus file readable");
        if let Ok(c) = compile_source(&text, &CompileOptions::default()) {
            netlists.push((path.display().to_string(), c.netlist));
        }
    }
    let ring = compile_source(ring, &CompileOptions::default()).expect("ring compiles");
    netlists.push(("tee ring".to_string(), ring.netlist));
    let mut cyclic = Vec::new();
    for (name, netlist) in &netlists {
        let (blocks, subjects) = fixpoint_blocks_and_lss101_subjects(netlist);
        for block in &blocks {
            assert!(
                subjects.iter().any(|s| block.contains(s)),
                "{name}: fixpoint block {block:?} has no LSS101 finding"
            );
        }
        for subject in &subjects {
            assert!(
                blocks.iter().any(|b| b.contains(subject)),
                "{name}: LSS101 cycle at {subject} is not a fixpoint block"
            );
        }
        if !blocks.is_empty() {
            cyclic.push(name.as_str());
        }
    }
    assert_eq!(cyclic, ["tee ring"]);
}
