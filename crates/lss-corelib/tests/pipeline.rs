//! Full-stack corelib tests: LSS source (corelib + a small CPU model) →
//! elaboration → type inference → simulator → cycle-accurate runs.

use lss_ast::{parse, DiagnosticBag, SourceMap};
use lss_corelib::{corelib_source, registry};
use lss_interp::{elaborate, infer, ElabOptions, Unit};
use lss_netlist::Netlist;
use lss_sim::{build, Scheduler, SimOptions, Simulator};
use lss_types::{Datum, SolverConfig};

fn compile_model(src: &str) -> Netlist {
    let corelib = corelib_source();
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("corelib.lss", corelib);
    let model_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, corelib, &mut diags);
    let model = parse(model_file, src, &mut diags);
    assert!(!diags.has_errors(), "parse:\n{}", diags.render(&sources));
    let units = [
        Unit {
            program: &lib,
            library: true,
        },
        Unit {
            program: &model,
            library: false,
        },
    ];
    let typed = elaborate(&units, &ElabOptions::default(), &mut diags).and_then(|out| {
        let mut netlist = out.netlist;
        infer(&mut netlist, &SolverConfig::default(), &mut diags).map(|_| netlist)
    });
    typed.unwrap_or_else(|| panic!("compile:\n{}", diags.render(&sources)))
}

fn simulator(src: &str, scheduler: Scheduler) -> Simulator {
    let netlist = compile_model(src);
    build(
        &netlist,
        &registry(),
        SimOptions {
            scheduler,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("build: {e}"))
}

/// Runs until the commit counter at `commit_path` reaches `n`, returning
/// the cycle count.
fn run_until_committed(sim: &mut Simulator, commit_path: &str, n: i64, max_cycles: u64) -> u64 {
    while sim.cycle() < max_cycles {
        sim.step()
            .unwrap_or_else(|e| panic!("cycle {}: {e}", sim.cycle()));
        if let Some(Datum::Int(c)) = sim.rtv(commit_path, "committed") {
            if c >= n {
                return sim.cycle();
            }
        }
    }
    panic!(
        "model did not commit {n} instructions in {max_cycles} cycles (committed: {:?})",
        sim.rtv(commit_path, "committed")
    );
}

/// A small 2-wide out-of-order CPU built purely from corelib parts.
fn mini_cpu(n_instrs: u64, in_order: bool, with_bp: bool, with_cache: bool) -> String {
    let bp_wiring = if with_bp {
        r#"
        instance pred:bp;
        pred.entries = 512;
        LSS_connect_bus(f.bp_lookup, pred.lookup, 2);
        LSS_connect_bus(pred.pred, f.bp_pred, 2);
        LSS_connect_bus(f.bp_update, pred.update, 2);
        "#
    } else {
        ""
    };
    let cache_wiring = if with_cache {
        r#"
        instance l1:cache;
        l1.lines = 128;
        l1.assoc = 2;
        l1.miss_penalty = 2;
        instance mem:memory;
        mem.lat = 30;
        fu_mem.mem_req -> l1.req;
        l1.resp -> fu_mem.mem_resp;
        l1.lower_req -> mem.req;
        mem.resp -> l1.lower_resp;
        "#
    } else {
        ""
    };
    format!(
        r#"
        instance f:fetch;
        f.n_instrs = {n_instrs};
        f.seed = 11;
        instance q1:queue;
        q1.depth = 4;
        instance dec:decode;
        instance q2:queue;
        q2.depth = 4;
        instance win:issue;
        win.window = 16;
        win.width = 2;
        win.in_order = {in_order};
        win.classes = "8,3,7";
        instance fu_int:fu;
        instance fu_fp:fu;
        instance fu_mem:fu;
        instance c:commit;

        LSS_connect_bus(f.out, q1.in, 2);
        q1.credit -> f.credit_in;
        LSS_connect_bus(q1.out, dec.in, 2);
        dec.credit -> q1.credit_in;
        LSS_connect_bus(dec.out, q2.in, 2);
        q2.credit -> dec.credit_in;
        LSS_connect_bus(q2.out, win.in, 2);
        win.credit -> q2.credit_in;

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
        {bp_wiring}
        {cache_wiring}
        "#,
        in_order = in_order as u8,
    )
}

#[test]
fn corelib_source_compiles_standalone() {
    // The library alone (no model) must compile: no instances, no errors.
    let n = compile_model("");
    assert!(n.instances.is_empty());
}

#[test]
fn mini_cpu_elaborates_with_sensible_structure() {
    let n = compile_model(&mini_cpu(100, false, true, true));
    // fetch, 2 queues, decode, issue, 3 FUs, commit, bp, cache, memory.
    assert_eq!(n.instances.len(), 12);
    let stats = lss_netlist::reuse_stats(&n);
    assert_eq!(stats.connections, n.connections.len());
    assert!(stats.connections >= 30, "got {}", stats.connections);
    assert!((stats.pct_instances_from_library - 100.0).abs() < 1e-9);
    // Use-based specialization fired: cache saw its lower level...
    let l1 = n.find("l1").unwrap();
    assert_eq!(l1.params["has_lower"], Datum::Int(1));
    // ...and memory's widths were inferred.
    assert_eq!(n.find("mem").unwrap().port("req").unwrap().width, 1);
}

#[test]
fn mini_cpu_runs_to_completion_and_reports_cpi() {
    let mut sim = simulator(&mini_cpu(300, false, true, true), Scheduler::Static);
    let cycles = run_until_committed(&mut sim, "c", 300, 50_000);
    let committed = sim.rtv("c", "committed").unwrap().as_int().unwrap();
    assert!(committed >= 300);
    let cpi = cycles as f64 / committed as f64;
    assert!(
        (0.5..20.0).contains(&cpi),
        "CPI {cpi} out of plausible range ({cycles} cycles / {committed} instrs)"
    );
    // Sanity: every fetched instruction eventually commits (no loss).
    let fetched = sim.rtv("f", "fetched").unwrap().as_int().unwrap();
    assert_eq!(fetched, 300);
}

#[test]
fn out_of_order_beats_in_order() {
    let mut ooo = simulator(&mini_cpu(400, false, false, false), Scheduler::Static);
    let ooo_cycles = run_until_committed(&mut ooo, "c", 400, 100_000);
    let mut ino = simulator(&mini_cpu(400, true, false, false), Scheduler::Static);
    let ino_cycles = run_until_committed(&mut ino, "c", 400, 100_000);
    assert!(
        ooo_cycles < ino_cycles,
        "out-of-order ({ooo_cycles} cycles) should beat in-order ({ino_cycles} cycles)"
    );
}

#[test]
fn branch_predictor_improves_cpi() {
    // A frontend-bound configuration: branchy code, a painful mispredict
    // penalty, and a backend wide enough to never be the bottleneck.
    let frontend_bound = |with_bp: bool| {
        let bp_wiring = if with_bp {
            r#"
            instance pred:bp;
            LSS_connect_bus(f.bp_lookup, pred.lookup, 2);
            LSS_connect_bus(pred.pred, f.bp_pred, 2);
            LSS_connect_bus(f.bp_update, pred.update, 2);
            "#
        } else {
            ""
        };
        format!(
            r#"
            instance f:fetch;
            f.n_instrs = 2500;
            f.seed = 5;
            f.mix_branch = 30;
            f.penalty = 10;
            instance q1:queue;
            q1.depth = 4;
            instance win:issue;
            win.window = 16;
            win.width = 2;
            instance fu0:fu;
            instance fu1:fu;
            fu0.pipelined = 1;
            fu1.pipelined = 1;
            instance c:commit;
            LSS_connect_bus(f.out, q1.in, 2);
            q1.credit -> f.credit_in;
            LSS_connect_bus(q1.out, win.in, 2);
            win.credit -> q1.credit_in;
            win.out[0] -> fu0.in;
            win.out[1] -> fu1.in;
            fu0.credit -> win.fu_credit[0];
            fu1.credit -> win.fu_credit[1];
            fu0.done -> c.in[0];
            fu1.done -> c.in[1];
            fu0.done -> win.complete[0];
            fu1.done -> win.complete[1];
            {bp_wiring}
            "#
        )
    };
    let mut with = simulator(&frontend_bound(true), Scheduler::Static);
    let with_cycles = run_until_committed(&mut with, "c", 2500, 400_000);
    let mut without = simulator(&frontend_bound(false), Scheduler::Static);
    let without_cycles = run_until_committed(&mut without, "c", 2500, 400_000);
    let m_with = with.rtv("f", "mispredicts").unwrap().as_int().unwrap();
    let m_without = without.rtv("f", "mispredicts").unwrap().as_int().unwrap();
    // The 2-bit predictor learns the biased branch sites; always-not-taken
    // mispredicts every taken branch (~60% of them).
    assert!(
        m_with * 2 < m_without,
        "predictor mispredicts ({m_with}) should be well under not-taken ({m_without})"
    );
    assert!(
        with_cycles < without_cycles,
        "predictor ({with_cycles} cycles) should beat not-taken ({without_cycles} cycles)"
    );
}

#[test]
fn cache_reduces_memory_stalls_vs_uncached() {
    // Uncached: memory latency 30 directly.
    let uncached = r#"
        instance fu_mem:fu;
        instance mem:memory;
        mem.lat = 30;
        fu_mem.mem_req -> mem.req;
        mem.resp -> fu_mem.mem_resp;
    "#;
    let cached = r#"
        instance fu_mem:fu;
        instance l1:cache;
        l1.lines = 4096;
        l1.assoc = 4;
        instance mem:memory;
        mem.lat = 30;
        fu_mem.mem_req -> l1.req;
        l1.resp -> fu_mem.mem_resp;
        l1.lower_req -> mem.req;
        mem.resp -> l1.lower_resp;
    "#;
    let driver = |memsys: &str| {
        format!(
            r#"
            instance f:fetch;
            f.n_instrs = 500;
            f.mix_ialu = 0; f.mix_imul = 0; f.mix_fp = 0; f.mix_branch = 0;
            f.mix_load = 100; f.mix_store = 0;
            f.mem_footprint = 256;
            instance q1:queue;
            q1.depth = 4;
            instance win:issue;
            win.window = 8;
            win.width = 1;
            win.classes = "7";
            instance c:commit;
            {memsys}
            LSS_connect_bus(f.out, q1.in, 1);
            q1.credit -> f.credit_in;
            LSS_connect_bus(q1.out, win.in, 1);
            win.credit -> q1.credit_in;
            win.out[0] -> fu_mem.in;
            fu_mem.credit -> win.fu_credit[0];
            fu_mem.done -> c.in[0];
            fu_mem.done -> win.complete[0];
            "#
        )
    };
    let mut slow = simulator(&driver(uncached), Scheduler::Static);
    let slow_cycles = run_until_committed(&mut slow, "c", 500, 200_000);
    let mut fast = simulator(&driver(cached), Scheduler::Static);
    let fast_cycles = run_until_committed(&mut fast, "c", 500, 200_000);
    assert!(
        (fast_cycles as f64) < slow_cycles as f64 * 0.6,
        "cache ({fast_cycles}) should be well under uncached ({slow_cycles})"
    );
}

#[test]
fn schedulers_agree_on_the_mini_cpu() {
    let src = mini_cpu(200, false, true, true);
    let mut st = simulator(&src, Scheduler::Static);
    let st_cycles = run_until_committed(&mut st, "c", 200, 50_000);
    let mut dy = simulator(&src, Scheduler::Dynamic);
    let dy_cycles = run_until_committed(&mut dy, "c", 200, 50_000);
    assert_eq!(
        st_cycles, dy_cycles,
        "both schedulers must be cycle-equivalent"
    );
    assert_eq!(st.rtv("c", "branches"), dy.rtv("c", "branches"));
    assert!(
        dy.stats().comp_evals > st.stats().comp_evals,
        "dynamic should re-evaluate more ({} vs {})",
        dy.stats().comp_evals,
        st.stats().comp_evals
    );
}

#[test]
fn delayn_from_corelib_runs() {
    let src = r#"
        instance gen:source;
        instance chain:delayn;
        chain.n = 4;
        instance hole:sink;
        gen.out -> chain.in;
        chain.out -> hole.in;
    "#;
    let mut sim = simulator(src, Scheduler::Static);
    sim.run(6).unwrap();
    // Counter value c emerges after 4 cycles of delay; at completed cycle 6
    // the chain outputs the value from cycle 1 (source emits cycle number).
    assert_eq!(sim.peek("chain.delays[3]", "out", 0), Some(Datum::Int(1)));
    assert_eq!(sim.rtv("hole", "count").unwrap().as_int().unwrap(), 6);
}

#[test]
fn funnel_arbitrates_with_custom_policy() {
    // Three sources into one sink through the Figure 12 funnel, with a
    // rotating arbitration policy supplied as BSL.
    let src = r#"
        instance s0:source;
        instance s1:source;
        instance s2:source;
        s1.start = 100;
        s2.start = 200;
        instance fn1:funnel;
        instance hole:sink;
        fn1.arbitration_policy = "return cycle;";
        s0.out -> fn1.in;
        s1.out -> fn1.in;
        s2.out -> fn1.in;
        fn1.out -> hole.in;
        s0.out :: int;
    "#;
    let mut sim = simulator(src, Scheduler::Static);
    sim.run(3).unwrap();
    // One value per cycle reaches the sink; the rotating policy walks the
    // sources: cycle0→s0 (0), cycle1→s1 (101), cycle2→s2 (202).
    assert_eq!(sim.rtv("hole", "count").unwrap().as_int().unwrap(), 3);
    assert_eq!(sim.peek("fn1.arb", "out", 0), Some(Datum::Int(202)));
}

#[test]
fn probe_and_collectors_observe_the_pipeline() {
    let src = format!(
        r#"
        {}
        instance p:probe;
        fu_int.done -> p.in;
        collector c : commit = "n = n + 1;";
        collector f : out_fire = "sent = sent + 1;";
        "#,
        mini_cpu(100, false, false, false)
    );
    let mut sim = simulator(&src, Scheduler::Static);
    let _ = run_until_committed(&mut sim, "c", 100, 50_000);
    assert_eq!(
        sim.collector_stat("c", "commit", "n"),
        Some(Datum::Int(100))
    );
    // fetch emitted 100 instrs on lane fan-out (101 port instances fired:
    // 100 to q1 plus the probe lane sees the lane-0 values only).
    let sent = sim
        .collector_stat("f", "out_fire", "sent")
        .unwrap()
        .as_int()
        .unwrap();
    assert!(sent >= 100, "fetch fired {sent} times");
    let seen = sim.rtv("p", "seen").unwrap().as_int().unwrap();
    assert!(seen > 0);
}

#[test]
fn regfile_and_alu_compute() {
    // Two reads feed an overloaded ALU (resolved to int by connectivity);
    // the result writes back to register 3 each cycle.
    let src = r#"
        instance rf:regfile;
        rf.nregs = 8;
        instance addr0:source;
        instance addr1:source;
        addr0.start = 1;
        addr1.start = 2;
        instance wa:source;
        wa.start = 3;
        instance x:alu;
        addr0.out -> rf.rd_addr[0];
        addr1.out -> rf.rd_addr[1];
        rf.rd_data[0] -> x.a;
        rf.rd_data[1] -> x.b;
        wa.out -> rf.wr_addr;
        x.res -> rf.wr_data;
        rf.rd_data[0] :: int;
    "#;
    // Sources count up each cycle, so addresses move; registers start 0.
    let mut sim = simulator(src, Scheduler::Static);
    sim.run(2).unwrap();
    assert_eq!(sim.peek("x", "res", 0), Some(Datum::Int(0)));
    let n = compile_model(src);
    // Use-based widths: 2 read ports, 1 write port.
    let rf = n.find("rf").unwrap();
    assert_eq!(rf.port("rd_addr").unwrap().width, 2);
    assert_eq!(rf.port("rd_data").unwrap().width, 2); // alu a, b
    assert_eq!(rf.port("wr_addr").unwrap().width, 1);
    assert_eq!(rf.port("rd_data").unwrap().ty, Some(lss_types::Ty::Int));
}

#[test]
fn float_alu_overload_selected_by_float_source() {
    let src = r#"
        module fsrc { outport out:float; tar_file = "corelib/source.tar"; };
        instance s:fsrc;
        instance x:alu;
        instance hole:sink;
        s.out -> x.a;
        s.out -> x.b;
        x.res -> hole.in;
    "#;
    let n = compile_model(src);
    assert_eq!(
        n.find("x").unwrap().port("res").unwrap().ty,
        Some(lss_types::Ty::Float)
    );
    let mut sim = simulator(src, Scheduler::Static);
    sim.run(1).unwrap();
    assert_eq!(sim.peek("x", "res", 0), Some(Datum::Float(0.0)));
}

#[test]
fn bp_btb_presence_is_use_inferred() {
    let with_btb = compile_model(
        r#"
        module tgt_sink { inport in:int; tar_file = "corelib/sink.tar"; };
        instance f:fetch;
        instance pred:bp;
        instance ts:tgt_sink;
        LSS_connect_bus(f.bp_lookup, pred.lookup, 1);
        LSS_connect_bus(pred.pred, f.bp_pred, 1);
        LSS_connect_bus(f.bp_update, pred.update, 1);
        pred.branch_target -> ts.in;
        "#,
    );
    assert_eq!(
        with_btb.find("pred").unwrap().params["has_btb"],
        Datum::Int(1)
    );
    let without_btb = compile_model(
        r#"
        instance f:fetch;
        instance pred:bp;
        LSS_connect_bus(f.bp_lookup, pred.lookup, 1);
        LSS_connect_bus(pred.pred, f.bp_pred, 1);
        LSS_connect_bus(f.bp_update, pred.update, 1);
        "#,
    );
    assert_eq!(
        without_btb.find("pred").unwrap().params["has_btb"],
        Datum::Int(0)
    );
}

#[test]
fn cache_hit_miss_events_are_observable() {
    let src = r#"
        instance gen:source;
        instance l1:cache;
        l1.lines = 2;
        l1.assoc = 1;
        l1.block = 4;
        instance hole:sink;
        gen.out -> l1.req;
        l1.resp -> hole.in;
        collector l1 : hit = "hits = hits + 1;";
        collector l1 : miss = "misses = misses + 1;";
    "#;
    // The counter source strides one word per cycle: every access is a new
    // block (block=4 bytes = 1 word... addresses are 0,1,2: same block of 4
    // bytes!). Block 4 with addresses 0..n: block id = addr/4.
    let mut sim = simulator(src, Scheduler::Static);
    sim.run(16).unwrap();
    let hits = sim
        .collector_stat("l1", "hit", "hits")
        .unwrap()
        .as_int()
        .unwrap();
    let misses = sim
        .collector_stat("l1", "miss", "misses")
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(hits + misses, 16);
    // Sequential byte addresses within 4-byte blocks: 3 hits per miss.
    assert_eq!(misses, 4);
    assert_eq!(hits, 12);
}
