//! End-to-end elaboration tests reproducing the paper's figures.

use lss_ast::{parse, DiagnosticBag, SourceMap};
use lss_interp::{elaborate, infer, ElabOptions, Unit};
use lss_netlist::{InstanceKind, Netlist};
use lss_types::{SolverConfig, Ty};

/// The leaf modules the figures rely on.
const CORE: &str = r#"
module delay {
    parameter initial_state = 0:int;
    inport in:int;
    outport out:int;
    tar_file = "corelib/delay.tar";
};
module source {
    outport out:'a;
    tar_file = "corelib/source.tar";
};
module sink {
    inport in:'a;
    tar_file = "corelib/sink.tar";
};
"#;

fn compile_ok(src: &str) -> Netlist {
    try_compile(src).unwrap_or_else(|e| panic!("compile failed:\n{e}"))
}

fn try_compile(src: &str) -> Result<Netlist, String> {
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("core.lss", CORE);
    let user_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, CORE, &mut diags);
    let user = parse(user_file, src, &mut diags);
    if diags.has_errors() {
        return Err(diags.render(&sources));
    }
    let units = [
        Unit {
            program: &lib,
            library: true,
        },
        Unit {
            program: &user,
            library: false,
        },
    ];
    let typed = elaborate(&units, &ElabOptions::default(), &mut diags).and_then(|out| {
        let mut netlist = out.netlist;
        infer(&mut netlist, &SolverConfig::default(), &mut diags).map(|_| netlist)
    });
    typed.ok_or_else(|| diags.render(&sources))
}

fn expect_error(src: &str, needle: &str) {
    let err = try_compile(src).expect_err("expected a compile error");
    assert!(
        err.contains(needle),
        "expected error containing `{needle}`, got:\n{err}"
    );
}

// ---------------------------------------------------------------------------
// Figures 5 & 6: leaf module declaration, instantiation, parameterization.
// ---------------------------------------------------------------------------

#[test]
fn figure6_parameterization_and_defaults() {
    let n = compile_ok(
        r#"
        instance d1:delay;
        instance d2:delay;
        d1.initial_state = 1;
        d1.out -> d2.in;
        "#,
    );
    assert_eq!(n.instances.len(), 2);
    let d1 = n.find("d1").unwrap();
    let d2 = n.find("d2").unwrap();
    assert_eq!(d1.params["initial_state"], lss_types::Datum::Int(1));
    // d2 falls back to the default declared in Figure 5.
    assert_eq!(d2.params["initial_state"], lss_types::Datum::Int(0));
    assert!(matches!(&d1.kind, InstanceKind::Leaf { tar_file } if tar_file == "corelib/delay.tar"));
    // Types are ints from the delay declaration.
    assert_eq!(d1.port("out").unwrap().ty, Some(Ty::Int));
    assert_eq!(d2.port("in").unwrap().ty, Some(Ty::Int));
    // Widths: one connection each.
    assert_eq!(d1.port("out").unwrap().width, 1);
    assert_eq!(d2.port("in").unwrap().width, 1);
    assert_eq!(d1.port("in").unwrap().width, 0);
}

#[test]
fn parameter_assignment_after_instantiation_is_deferred() {
    // The whole point of §6.2: the assignment on the line *after* the
    // instantiation still reaches the constructor.
    let n = compile_ok(
        r#"
        instance d1:delay;
        d1.initial_state = 41;
        d1.initial_state = 42; // last write wins
        "#,
    );
    assert_eq!(
        n.find("d1").unwrap().params["initial_state"],
        lss_types::Datum::Int(42)
    );
}

// ---------------------------------------------------------------------------
// Figures 2, 8, 9: the parametric n-stage delay chain.
// ---------------------------------------------------------------------------

const DELAYN: &str = r#"
module delayn {
    parameter n:int;
    inport in: 'a;
    outport out: 'a;
    var delays:instance ref[];
    delays = new instance[n](delay, "delays");
    var i:int;
    in -> delays[0].in;
    for (i = 1; i < n; i = i + 1) {
        delays[i-1].out -> delays[i].in;
    }
    delays[n-1].out -> out;
};
"#;

#[test]
fn figure9_three_stage_delay_pipeline() {
    let n = compile_ok(&format!(
        r#"
        {DELAYN}
        instance gen:source;
        instance hole:sink;
        instance delay3:delayn;
        delay3.n = 3;
        gen.out -> delay3.in;
        delay3.out -> hole.in;
        "#
    ));
    // gen, hole, delay3, and three sub-delays.
    assert_eq!(n.instances.len(), 6);
    let delay3 = n.find("delay3").unwrap();
    assert!(!delay3.is_leaf());
    assert_eq!(delay3.params["n"], lss_types::Datum::Int(3));
    for i in 0..3 {
        let d = n.find(&format!("delay3.delays[{i}]")).unwrap();
        assert_eq!(d.parent, Some(delay3.id));
        assert!(d.is_leaf());
    }
    // Structural type inference: 'a on delayn and on source/sink all
    // resolve to int because the inner delays require int (§4.4).
    assert_eq!(delay3.port("in").unwrap().ty, Some(Ty::Int));
    assert_eq!(
        n.find("gen").unwrap().port("out").unwrap().ty,
        Some(Ty::Int)
    );
    assert_eq!(
        n.find("hole").unwrap().port("in").unwrap().ty,
        Some(Ty::Int)
    );
    // Flattening produces the 4-wire leaf chain of Figure 2.
    let wires = n.flatten();
    assert_eq!(wires.len(), 4);
    let path = |id| n.instance(id).path.clone();
    assert!(wires
        .iter()
        .any(|w| path(w.src.inst) == "gen" && path(w.dst.inst) == "delay3.delays[0]"));
    assert!(wires
        .iter()
        .any(|w| path(w.src.inst) == "delay3.delays[2]" && path(w.dst.inst) == "hole"));
}

#[test]
fn delayn_length_is_parametric() {
    for len in [1usize, 2, 7] {
        let n = compile_ok(&format!(
            r#"
            {DELAYN}
            instance gen:source;
            instance hole:sink;
            instance chain:delayn;
            chain.n = {len};
            gen.out -> chain.in;
            chain.out -> hole.in;
            "#
        ));
        assert_eq!(n.instances.len(), 3 + len);
        assert_eq!(n.flatten().len(), 1 + len);
    }
}

// ---------------------------------------------------------------------------
// Figures 10 & 11: multi-connection buses and use-based width inference.
// ---------------------------------------------------------------------------

#[test]
fn figure11_widths_inferred_without_explicit_parameter() {
    // The use-based-specialization version: no `width` parameter at all;
    // the module reads `in.width`.
    let n = compile_ok(
        r#"
        module busdelayn {
            parameter n:int;
            inport in: 'a;
            outport out: 'a;
            var delays:instance ref[];
            delays = new instance[n](busdelay, "delays");
            var i:int;
            LSS_connect_bus(in, delays[0].in, in.width);
            for (i = 1; i < n; i = i + 1) {
                LSS_connect_bus(delays[i-1].out, delays[i].in, in.width);
            }
            LSS_connect_bus(delays[n-1].out, out, in.width);
        };
        module busdelay {
            inport in: 'a;
            outport out: 'a;
            tar_file = "corelib/delay.tar";
        };
        module many_source {
            outport out: 'a;
            tar_file = "corelib/source.tar";
        };
        module many_sink {
            inport in: 'a;
            tar_file = "corelib/sink.tar";
        };
        instance gen:many_source;
        instance hole:many_sink;
        instance d3:busdelayn;
        d3.n = 3;
        LSS_connect_bus(gen.out, d3.in, 5);
        LSS_connect_bus(d3.out, hole.in, 5);
        gen.out :: int;
        "#,
    );
    let d3 = n.find("d3").unwrap();
    // Width 5 inferred purely from the five external connections.
    assert_eq!(d3.port("in").unwrap().width, 5);
    assert_eq!(d3.port("out").unwrap().width, 5);
    assert!(
        n.elab.width_reads > 0,
        "module body must have read in.width"
    );
    // All five lanes flattened end-to-end: (3+1) stages * 5 lanes = 20 wires.
    assert_eq!(n.flatten().len(), 20);
}

// ---------------------------------------------------------------------------
// Figure 12: use-based specialization exporting additional parameters.
// ---------------------------------------------------------------------------

const FUNNEL: &str = r#"
module arbiter {
    parameter policy: userpoint(reqs:int, count:int => int);
    inport in:'a;
    outport out:'a;
    tar_file = "corelib/arbiter.tar";
};
module funnel {
    inport in: 'a;
    outport out: 'a;
    if (out.width < in.width) {
        parameter arbitration_policy: userpoint(reqs:int, count:int => int);
        instance arb:arbiter;
        arb.policy = arbitration_policy;
        LSS_connect_bus(in, arb.in, in.width);
        LSS_connect_bus(arb.out, out, out.width);
    } else {
        LSS_connect_bus(in, out, in.width);
    }
};
"#;

#[test]
fn figure12_parameter_exported_only_when_arbitration_needed() {
    // Narrowing use: 3 producers, 1 consumer — policy is required.
    let n = compile_ok(&format!(
        r#"
        {FUNNEL}
        module src3 {{ outport out:int; tar_file = "corelib/source.tar"; }};
        module snk1 {{ inport in:int; tar_file = "corelib/sink.tar"; }};
        instance a:src3;
        instance f:funnel;
        instance z:snk1;
        f.arbitration_policy = "return reqs;";
        LSS_connect_bus(a.out, f.in, 3);
        f.out -> z.in;
        "#
    ));
    let f = n.find("f").unwrap();
    assert_eq!(f.port("in").unwrap().width, 3);
    assert_eq!(f.port("out").unwrap().width, 1);
    // The arbiter exists and carries the forwarded userpoint code.
    let arb = n.find("f.arb").unwrap();
    assert_eq!(arb.userpoints[0].code, "return reqs;");
}

#[test]
fn figure12_no_arbiter_when_widths_match() {
    // Pass-through use: no arbitration, the policy must NOT be required.
    let n = compile_ok(&format!(
        r#"
        {FUNNEL}
        module src1 {{ outport out:int; tar_file = "corelib/source.tar"; }};
        module snk1 {{ inport in:int; tar_file = "corelib/sink.tar"; }};
        instance a:src1;
        instance f:funnel;
        instance z:snk1;
        a.out -> f.in;
        f.out -> z.in;
        "#
    ));
    assert!(
        n.find("f.arb").is_none(),
        "no arbiter should be instantiated"
    );
    assert_eq!(n.flatten().len(), 1, "funnel passes straight through");
}

#[test]
fn figure12_missing_policy_is_an_error_only_when_needed() {
    expect_error(
        &format!(
            r#"
            {FUNNEL}
            module src3 {{ outport out:int; tar_file = "corelib/source.tar"; }};
            module snk1 {{ inport in:int; tar_file = "corelib/sink.tar"; }};
            instance a:src3;
            instance f:funnel;
            instance z:snk1;
            LSS_connect_bus(a.out, f.in, 3);
            f.out -> z.in;
            "#
        ),
        "has no value and no default",
    );
}

// ---------------------------------------------------------------------------
// Use-based specialization: the branch-target-buffer example (§6.1).
// ---------------------------------------------------------------------------

#[test]
fn btb_structure_inferred_from_port_connectivity() {
    let bp = r#"
        module btb_store { inport q:int; outport t:int; tar_file = "corelib/btb.tar"; };
        module branch_pred {
            inport lookup:int;
            outport prediction:int;
            outport branch_target:int;
            tar_file = "corelib/bp.tar";
            if (branch_target.width > 0) {
                // BTB behavior requested: this leaf customizes itself.
                parameter has_btb = 1:int;
            } else {
                parameter has_btb = 0:int;
            }
        };
    "#;
    let with = compile_ok(&format!(
        r#"
        {bp}
        module fe {{ inport pc_in:int; outport pc:int; inport tgt:int; tar_file = "corelib/fe.tar"; }};
        instance b:branch_pred;
        instance f:fe;
        f.pc -> b.lookup;
        b.prediction -> f.pc_in;
        b.branch_target -> f.tgt;
        "#
    ));
    assert_eq!(
        with.find("b").unwrap().params["has_btb"],
        lss_types::Datum::Int(1)
    );

    let without = compile_ok(&format!(
        r#"
        {bp}
        module fe2 {{ inport pc_in:int; outport pc:int; tar_file = "corelib/fe.tar"; }};
        instance b:branch_pred;
        instance f:fe2;
        f.pc -> b.lookup;
        b.prediction -> f.pc_in;
        "#
    ));
    assert_eq!(
        without.find("b").unwrap().params["has_btb"],
        lss_types::Datum::Int(0)
    );
}

// ---------------------------------------------------------------------------
// Component overloading via disjunctive types (§4.4).
// ---------------------------------------------------------------------------

#[test]
fn overloaded_alu_selected_by_connectivity() {
    let n = compile_ok(
        r#"
        module alu {
            inport a: int|float;
            inport b: int|float;
            outport res: int|float;
            tar_file = "corelib/alu.tar";
        };
        module fregfile { outport rd:float; inport wr:float; tar_file = "corelib/rf.tar"; };
        instance rf:fregfile;
        instance ex:alu;
        rf.rd -> ex.a;
        rf.rd -> ex.b;
        ex.res -> rf.wr;
        "#,
    );
    let ex = n.find("ex").unwrap();
    // Connecting the float register file selects the float implementation.
    assert_eq!(ex.port("a").unwrap().ty, Some(Ty::Float));
    assert_eq!(ex.port("b").unwrap().ty, Some(Ty::Float));
    assert_eq!(ex.port("res").unwrap().ty, Some(Ty::Float));
    // Fan-out: rf.rd drove two connections, so its width is 2.
    assert_eq!(n.find("rf").unwrap().port("rd").unwrap().width, 2);
}

#[test]
fn incompatible_overload_is_a_type_error() {
    expect_error(
        r#"
        module alu { inport a: int|float; tar_file = "t"; };
        module bgen { outport out:bool; tar_file = "t"; };
        instance g:bgen;
        instance ex:alu;
        g.out -> ex.a;
        "#,
        "type inference failed",
    );
}

// ---------------------------------------------------------------------------
// Explicit type instantiations and the Table 2 counters.
// ---------------------------------------------------------------------------

#[test]
fn explicit_instantiations_are_counted() {
    let n = compile_ok(
        r#"
        instance gen:source;
        instance hole:sink;
        gen.out -> hole.in : int;
        instance gen2:source;
        instance hole2:sink;
        gen2.out -> hole2.in;
        gen2.out :: float;
        "#,
    );
    assert_eq!(n.elab.explicit_type_instantiations, 2);
    assert_eq!(
        n.find("gen").unwrap().port("out").unwrap().ty,
        Some(Ty::Int)
    );
    assert_eq!(
        n.find("gen2").unwrap().port("out").unwrap().ty,
        Some(Ty::Float)
    );
    assert_eq!(
        n.find("hole2").unwrap().port("in").unwrap().ty,
        Some(Ty::Float)
    );
    assert!(n.find("gen2").unwrap().port("out").unwrap().explicit);
}

#[test]
fn underconstrained_connected_ports_require_annotation() {
    expect_error(
        r#"
        instance gen:source;
        instance hole:sink;
        gen.out -> hole.in;
        "#,
        "add explicit type instantiations",
    );
}

#[test]
fn unconnected_polymorphic_ports_are_fine() {
    // Unconnected-port semantics (§4.2): gen is simply unused.
    let n = compile_ok("instance gen:source;");
    assert_eq!(n.find("gen").unwrap().port("out").unwrap().width, 0);
}

// ---------------------------------------------------------------------------
// Events, collectors, runtime variables.
// ---------------------------------------------------------------------------

#[test]
fn events_runtime_vars_and_collectors_are_recorded() {
    let n = compile_ok(
        r#"
        module counter {
            inport in:int;
            runtime var total:int = 0;
            event overflowed(int);
            tar_file = "corelib/counter.tar";
        };
        instance gen:source;
        instance c:counter;
        gen.out -> c.in;
        collector c : overflowed = "ovf = ovf + 1";
        collector c : in_fire = "fires = fires + 1";
        "#,
    );
    let c = n.find("c").unwrap();
    assert_eq!(c.runtime_vars.len(), 1);
    assert_eq!(c.runtime_vars[0].init, lss_types::Datum::Int(0));
    assert_eq!(c.events.len(), 1);
    assert_eq!(n.collectors.len(), 2);
    assert_eq!(n.name(n.collectors[1].event), "in_fire");
}

#[test]
fn collector_on_unknown_event_is_an_error() {
    expect_error(
        r#"
        instance gen:source;
        collector gen : no_such_event = "x";
        "#,
        "has no event",
    );
}

// ---------------------------------------------------------------------------
// Error paths from the paper's A = ∅ checks.
// ---------------------------------------------------------------------------

#[test]
fn assignment_to_undeclared_parameter_is_an_error() {
    expect_error(
        r#"
        instance d:delay;
        d.no_such_param = 3;
        "#,
        "has no parameter named `no_such_param`",
    );
}

#[test]
fn connection_to_undeclared_port_is_an_error() {
    expect_error(
        r#"
        instance d1:delay;
        instance d2:delay;
        d1.out -> d2.no_such_port;
        "#,
        "unknown port",
    );
}

#[test]
fn wrong_direction_connection_is_an_error() {
    expect_error(
        r#"
        instance d1:delay;
        instance d2:delay;
        d1.in -> d2.in;
        "#,
        "cannot be a connection source",
    );
}

#[test]
fn double_driver_is_an_error() {
    expect_error(
        r#"
        instance d1:delay;
        instance d2:delay;
        instance d3:delay;
        d1.out[0] -> d3.in[0];
        d2.out[0] -> d3.in[0];
        "#,
        "driven by more than one connection",
    );
}

#[test]
fn unknown_module_lists_alternatives() {
    expect_error("instance x:delya;", "unknown module `delya`");
}

#[test]
fn parameter_type_mismatch_is_an_error() {
    expect_error(
        r#"
        instance d:delay;
        d.initial_state = "seven";
        "#,
        "expects int",
    );
}

#[test]
fn self_instantiation_hits_depth_cap_by_default() {
    // With default options the depth cap (256) fires long before the
    // 100k instance budget, so the failure is fast and names LSS404.
    let mut sources = SourceMap::new();
    let src = "module looper { instance inner:looper; };\ninstance top:looper;";
    let file = sources.add_file("loop.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    assert!(!diags.has_errors());
    let start = std::time::Instant::now();
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &ElabOptions::default(),
        &mut diags,
    );
    assert!(out.is_none());
    let rendered = diags.render(&sources);
    assert!(
        rendered.contains("error[LSS404]") && rendered.contains("depth limit of 256"),
        "want a coded depth diagnostic, got:\n{rendered}"
    );
    assert!(
        rendered.contains("--max-depth"),
        "hint missing:\n{rendered}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "depth cap must fire quickly"
    );
}

#[test]
fn expired_deadline_aborts_elaboration_with_lss401() {
    let mut sources = SourceMap::new();
    let src = "var x:int = 0;\nwhile (true) { x = x + 1; }";
    let file = sources.add_file("spin.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    let opts = ElabOptions {
        budget: lss_types::BudgetCaps {
            deadline: Some(std::time::Duration::from_millis(20)),
            ..Default::default()
        }
        .start(),
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &opts,
        &mut diags,
    );
    assert!(out.is_none());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "deadline must abort the loop promptly"
    );
    let rendered = diags.render(&sources);
    assert!(
        rendered.contains("error[LSS401]") && rendered.contains("wall-clock deadline"),
        "want a coded deadline diagnostic, got:\n{rendered}"
    );
}

#[test]
fn netlist_size_cap_reports_lss407() {
    let mut sources = SourceMap::new();
    let mut src =
        String::from(r#"module leaf { inport in:int; outport out:int; tar_file = "x.tar"; };"#);
    for i in 0..16 {
        src.push_str(&format!("\ninstance n{i}:leaf;"));
    }
    let src = src.as_str();
    let file = sources.add_file("wide.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render(&sources));
    let opts = ElabOptions {
        budget: lss_types::BudgetCaps {
            max_netlist_items: Some(20),
            ..Default::default()
        }
        .start(),
        ..Default::default()
    };
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &opts,
        &mut diags,
    );
    assert!(out.is_none());
    let rendered = diags.render(&sources);
    assert!(
        rendered.contains("error[LSS407]") && rendered.contains("netlist size budget"),
        "want a coded netlist-size diagnostic, got:\n{rendered}"
    );
}

#[test]
fn recursive_instantiation_is_caught() {
    let mut sources = SourceMap::new();
    let src = "module looper { instance inner:looper; };\ninstance top:looper;";
    let file = sources.add_file("loop.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    assert!(!diags.has_errors());
    let opts = ElabOptions {
        max_instances: 100,
        ..Default::default()
    };
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &opts,
        &mut diags,
    );
    assert!(out.is_none());
    let rendered = diags.render(&sources);
    assert!(
        rendered.contains("error[LSS403]") && rendered.contains("instance budget of 100"),
        "want a coded instance-budget diagnostic, got:\n{rendered}"
    );
    assert!(
        rendered.contains("--max-instances"),
        "hint missing:\n{rendered}"
    );
}

#[test]
fn infinite_loop_is_caught() {
    let mut sources = SourceMap::new();
    let src = "var x:int = 0;\nwhile (true) { x = x + 1; }";
    let file = sources.add_file("spin.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    let opts = ElabOptions {
        max_steps: 10_000,
        ..Default::default()
    };
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &opts,
        &mut diags,
    );
    assert!(out.is_none());
    let rendered = diags.render(&sources);
    assert!(
        rendered.contains("error[LSS402]") && rendered.contains("step budget of 10000"),
        "want a coded step-budget diagnostic, got:\n{rendered}"
    );
}

// ---------------------------------------------------------------------------
// The §6.2 machine trace (Figure 13).
// ---------------------------------------------------------------------------

#[test]
fn figure13_machine_step_order() {
    let src = format!(
        r#"
        {CORE}
        {DELAYN}
        instance gen:source;
        instance hole:sink;
        instance delay3:delayn;
        delay3.n = 3;
        gen.out -> delay3.in;
        delay3.out -> hole.in;
        gen.out :: int;
        "#
    );
    let mut sources = SourceMap::new();
    let file = sources.add_file("fig13.lss", src.as_str());
    let mut diags = DiagnosticBag::new();
    let program = parse(file, &src, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render(&sources));
    let opts = ElabOptions {
        trace: true,
        ..Default::default()
    };
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &opts,
        &mut diags,
    )
    .unwrap_or_else(|| panic!("{}", diags.render(&sources)));
    let trace = out.trace;
    let pos = |needle: &str| {
        trace
            .iter()
            .position(|t| t.contains(needle))
            .unwrap_or_else(|| panic!("`{needle}` not in trace:\n{}", trace.join("\n")))
    };
    // 1-4. The interpreter records the three pushes, then the assignment and
    //      connections, all before any pop.
    assert!(pos("push gen:source") < pos("push hole:sink"));
    assert!(pos("push hole:sink") < pos("push delay3:delayn"));
    assert!(pos("record-assign delay3.n = 3") > pos("push delay3:delayn"));
    assert!(pos("record-connect gen.out[0] -> delay3.in[0]") < pos("pop delay3"));
    // 5. Top-level done: the stack pops LIFO, delay3 first (Figure 13a).
    assert!(pos("pop delay3") < pos("pop hole"));
    assert!(pos("pop hole") < pos("pop gen"));
    // 6-7. Inside delay3's body: parameter from the record, then ports with
    //      inferred widths (Figure 13b's evaluation context).
    assert!(pos("param delay3.n = 3 (recorded)") < pos("port delay3.in width=1"));
    // 8. delay3's children are pushed during its body and popped right after.
    assert!(pos("push delay3.delays[0]:delay") > pos("pop delay3"));
    assert!(pos("pop delay3.delays[2]") < pos("pop hole"));
    // Sub-delay parameters fall back to their defaults.
    assert!(trace
        .iter()
        .any(|t| t.contains("param delay3.delays[0].initial_state = 0 (default)")));
}

// ---------------------------------------------------------------------------
// Misc language behavior.
// ---------------------------------------------------------------------------

#[test]
fn fun_helpers_compute_at_compile_time() {
    let n = compile_ok(
        r#"
        fun fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        instance d:delay;
        d.initial_state = fib(10);
        "#,
    );
    assert_eq!(
        n.find("d").unwrap().params["initial_state"],
        lss_types::Datum::Int(55)
    );
}

#[test]
fn fun_bodies_cannot_contain_structure() {
    expect_error(
        r#"
        fun bad() { instance d:delay; return 0; }
        var x:int = bad();
        "#,
        "structural",
    );
}

#[test]
fn module_meta_marks_trivial_wrappers() {
    let n = compile_ok(
        r#"
        module wrap2 {
            inport in:int;
            outport out:int;
            instance a:delay;
            instance b:delay;
            in -> a.in;
            a.out -> b.in;
            b.out -> out;
        };
        instance gen:source;
        instance hole:sink;
        instance w:wrap2;
        gen.out -> w.in;
        w.out -> hole.in;
        "#,
    );
    let meta = &n.modules[&n.sym("wrap2").unwrap()];
    assert!(meta.hierarchical);
    assert!(meta.trivial, "parameterless wrapper should be trivial");
    let delay_meta = &n.modules[&n.sym("delay").unwrap()];
    assert!(!delay_meta.hierarchical);
    assert!(delay_meta.from_library);
}

#[test]
fn print_and_assert_builtins() {
    let mut sources = SourceMap::new();
    let src = r#"
        var xs:int[] = [1, 2, 3];
        xs[1] = 20;
        print("sum:", xs[0] + xs[1] + xs[2]);
        assert(len(xs) == 3, "len");
        assert(str(4) == "4");
        assert(min(2, 3) == 2 && max(2, 3) == 3);
        assert(abs(0 - 5) == 5);
        assert(to_int(3.9) == 3 && to_float(2) == 2.0);
    "#;
    let file = sources.add_file("t.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render(&sources));
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &ElabOptions::default(),
        &mut diags,
    )
    .unwrap_or_else(|| panic!("{}", diags.render(&sources)));
    assert_eq!(out.prints, vec!["sum: 24"]);
}

#[test]
fn reuse_stats_smoke() {
    let n = compile_ok(&format!(
        r#"
        {DELAYN}
        instance gen:source;
        instance hole:sink;
        instance chain:delayn;
        chain.n = 4;
        gen.out -> chain.in;
        chain.out -> hole.in;
        "#
    ));
    let stats = lss_netlist::reuse_stats(&n);
    assert_eq!(stats.instances, 7);
    assert_eq!(stats.leaf_modules, 3); // source, sink, delay
    assert_eq!(stats.hierarchical_modules, 1); // delayn
    assert_eq!(stats.connections, 7);
    // source/sink/delayn each have polymorphic interfaces: without
    // inference, gen (1 var) + hole (1) + chain (1) = 3 explicit
    // instantiations would be needed; delay's ports are ground int.
    assert_eq!(stats.explicit_types_without_inference, 3);
    assert_eq!(stats.explicit_types_with_inference, 0);
    // 73%-style library fraction: 6 of 7 instances come from CORE modules
    // (delayn is user code but its delays are library).
    assert!((stats.pct_instances_from_library - 6.0 / 7.0 * 100.0).abs() < 1e-9);
}
