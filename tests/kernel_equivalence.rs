//! Kernel-equivalence harness: the static scheduler's staged kernel loop
//! must be observationally indistinguishable from the kernel-free dynamic
//! scheduler and from the naive fixpoint reference simulator.
//!
//! Three-way lockstep over all six Table 3 models, every single-file
//! fuzz-corpus entry and a pipeline fed instruction records in a
//! non-canonical layout, comparing the canonical `state_lines()` dump
//! after every cycle.

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use lss_corelib::{Instr, InstrExt, Mix, Workload, INSTR_TYPE_LSS};
use lss_interp::CompileOptions;
use lss_models::{compile_model, compile_source, models};
use lss_netlist::{Netlist, INSTR_FIELDS};
use lss_sim::{
    build, CompCtx, Component, ComponentRegistry, Scheduler, SimError, SimOptions, Simulator,
};
use lss_types::Datum;
use lss_verify::{Mutation, RefSim};

const CYCLES: u64 = 50;

fn build_engine(netlist: &Netlist, scheduler: Scheduler) -> Simulator {
    build_with(netlist, &lss_corelib::registry(), scheduler)
}

fn build_with(netlist: &Netlist, registry: &ComponentRegistry, scheduler: Scheduler) -> Simulator {
    let opts = SimOptions {
        scheduler,
        ..Default::default()
    };
    build(netlist, registry, opts).expect("engine build")
}

/// Steps all three simulators in lockstep, comparing `state_lines()` after
/// every cycle. Returns an error message naming the first divergence.
fn three_way(netlist: &Netlist, name: &str, cycles: u64) -> Result<(), String> {
    three_way_with(netlist, &lss_corelib::registry(), name, cycles)
}

/// [`three_way`] with the behaviors of `registry`.
fn three_way_with(
    netlist: &Netlist,
    registry: &ComponentRegistry,
    name: &str,
    cycles: u64,
) -> Result<(), String> {
    let mut stat = build_with(netlist, registry, Scheduler::Static);
    let mut dynamic = build_with(netlist, registry, Scheduler::Dynamic);
    let mut reference =
        RefSim::build(netlist, registry, Mutation::None).map_err(|e| format!("{name}: {e}"))?;
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

/// A fetch stand-in that sends the synthetic stream as records in a
/// non-canonical layout: fields reversed plus a trailing `seq` field. Every
/// third record carries a wrong `lat`, which decode must rewrite. It sends
/// as many records per cycle as `credit_in` allows, like fetch.
struct OddFetch {
    out: usize,
    credit_in: usize,
    workload: Workload,
    left: u64,
    buffer: VecDeque<Datum>,
}

impl OddFetch {
    fn record(instr: &Instr, seq: u64) -> Datum {
        let values = [
            instr.pc,
            instr.op,
            instr.dst,
            instr.src1,
            instr.src2,
            if seq.is_multiple_of(3) { 9 } else { instr.lat },
            instr.tgt,
            instr.taken,
        ];
        let mut fields: Vec<(&str, Datum)> = INSTR_FIELDS
            .iter()
            .zip(values)
            .map(|(n, v)| (*n, Datum::Int(v)))
            .rev()
            .collect();
        fields.push(("seq", Datum::Int(seq as i64)));
        Datum::record(fields)
    }

    fn sent(&self, ctx: &dyn CompCtx) -> usize {
        let credit = match ctx.input(self.credit_in, 0) {
            Some(Datum::Int(v)) => v.max(0) as usize,
            _ => 0,
        };
        self.buffer
            .len()
            .min(credit)
            .min(ctx.width(self.out) as usize)
    }

    fn refill(&mut self) {
        while self.buffer.len() < 4 && self.left > 0 {
            let instr = self.workload.next_instr();
            let seq = self.workload.emitted();
            self.buffer.push_back(Self::record(&instr, seq));
            self.left -= 1;
        }
    }
}

impl Component for OddFetch {
    fn init(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.refill();
        Ok(())
    }

    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        for lane in 0..self.sent(ctx) {
            ctx.set_output(self.out, lane as u32, self.buffer[lane].clone());
        }
        Ok(())
    }

    fn end_of_timestep(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let sent = self.sent(ctx);
        self.buffer.drain(..sent);
        self.refill();
        Ok(())
    }
}

fn odd_layout_registry() -> ComponentRegistry {
    let mut registry = lss_corelib::registry();
    registry.register("test/odd_fetch.tar", |spec| {
        Ok(Box::new(OddFetch {
            out: spec.port_index("out")?,
            credit_in: spec.port_index("credit_in")?,
            workload: Workload::new(5, Mix::default(), 16),
            left: spec.int_param_or("n_instrs", 40)? as u64,
            buffer: VecDeque::new(),
        }) as Box<dyn Component>)
    });
    registry
}

/// Odd-layout records through decode → queue → issue → FU → commit.
fn odd_layout_pipeline() -> Netlist {
    let src = format!(
        r#"
        module odd_fetch {{
            parameter n_instrs = 40:int;
            outport out:{INSTR_TYPE_LSS};
            inport credit_in:int;
            tar_file = "test/odd_fetch.tar";
        }};
        instance src:odd_fetch;
        instance dec:decode;
        instance iq:queue;
        iq.depth = 4;
        instance win:issue;
        win.window = 8;
        win.width = 2;
        win.classes = "8,3,7";
        instance fu_int:fu;
        instance fu_fp:fu;
        instance fu_mem:fu;
        fu_int.pipelined = 1;
        instance c:commit;

        LSS_connect_bus(src.out, dec.in, 2);
        dec.credit -> src.credit_in;
        LSS_connect_bus(dec.out, iq.in, 2);
        iq.credit -> dec.credit_in;
        LSS_connect_bus(iq.out, win.in, 2);
        win.credit -> iq.credit_in;
        win.out[0] -> fu_int.in;
        win.out[1] -> fu_fp.in;
        win.out[2] -> fu_mem.in;
        fu_int.credit -> win.fu_credit[0];
        fu_fp.credit -> win.fu_credit[1];
        fu_mem.credit -> win.fu_credit[2];
        fu_int.done -> c.in[0];
        fu_fp.done -> c.in[1];
        fu_mem.done -> c.in[2];
        fu_int.done -> win.complete[0];
        fu_fp.done -> win.complete[1];
        fu_mem.done -> win.complete[2];
        "#
    );
    compile_source(&src, &CompileOptions::default())
        .expect("odd-layout pipeline compiles")
        .netlist
}

#[test]
fn non_canonical_records_agree_three_ways_and_keep_their_layout() {
    let netlist = odd_layout_pipeline();
    let registry = odd_layout_registry();
    three_way_with(&netlist, &registry, "odd-layout pipeline", 120).unwrap();
    // Every instruction commits, and commit sees the layout fetch sent.
    let mut sim = build_with(&netlist, &registry, Scheduler::Static);
    let mut seen_seq = false;
    for _ in 0..120 {
        sim.step().unwrap();
        for lane in 0..2 {
            if let Some(d) = sim.peek("fu_int", "done", lane) {
                seen_seq |= d.field("seq").is_some();
            }
        }
    }
    assert_eq!(sim.rtv("c", "committed"), Some(Datum::Int(40)));
    assert!(seen_seq, "the FU sent a re-encoded record");
}

#[test]
fn decode_forwards_the_record_unless_it_rewrites_lat() {
    let netlist = odd_layout_pipeline();
    let registry = odd_layout_registry();
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = build_with(&netlist, &registry, scheduler);
        let (mut forwarded, mut rewritten) = (0, 0);
        for _ in 0..60 {
            sim.step().unwrap();
            for lane in 0..2 {
                let (Some(sent), Some(decoded)) =
                    (sim.peek("src", "out", lane), sim.peek("dec", "out", lane))
                else {
                    continue;
                };
                let (Datum::Struct(a), Datum::Struct(b)) = (&sent, &decoded) else {
                    panic!("not records: {sent} / {decoded}");
                };
                let instr = Instr::from_datum(&sent).unwrap();
                let lat = instr.op_class().latency();
                if instr.lat == lat {
                    assert!(Arc::ptr_eq(a, b), "{scheduler:?}: {decoded} was copied");
                    forwarded += 1;
                } else {
                    // Copy on write: the upstream record keeps its `lat`,
                    // the copy keeps the layout.
                    assert!(!Arc::ptr_eq(a, b));
                    assert_eq!(sent.field("lat"), Some(&Datum::Int(9)));
                    assert_eq!(decoded.field("lat"), Some(&Datum::Int(lat)));
                    let names = |r: &[(Arc<str>, Datum)]| -> Vec<String> {
                        r.iter().map(|(n, _)| n.to_string()).collect()
                    };
                    assert_eq!(names(a), names(b));
                    assert_eq!(
                        Instr::from_datum(&decoded),
                        Some(Instr { lat, ..instr }),
                        "{scheduler:?}"
                    );
                    rewritten += 1;
                }
            }
        }
        assert!(forwarded > 0 && rewritten > 0, "{forwarded}/{rewritten}");
    }
}
