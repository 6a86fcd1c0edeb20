//! Additional evaluation-semantics tests: deep hierarchy, helper
//! functions, control flow, and less-traveled error paths.

use lss_ast::{parse, DiagnosticBag, SourceMap};
use lss_interp::{elaborate, infer, ElabOptions, Unit};
use lss_netlist::Netlist;
use lss_types::{Datum, SolverConfig, Ty};

const LEAF: &str = r#"
module wire1 {
    inport in:'a;
    outport out:'a;
    tar_file = "test/wire.tar";
};
module gen1 {
    parameter v = 0:int;
    outport out:int;
    tar_file = "test/gen.tar";
};
module eat1 {
    inport in:'a;
    tar_file = "test/eat.tar";
};
"#;

fn compile_ok(src: &str) -> Netlist {
    try_compile(src).unwrap_or_else(|e| panic!("compile failed:\n{e}"))
}

fn try_compile(src: &str) -> Result<Netlist, String> {
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("leaf.lss", LEAF);
    let user_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, LEAF, &mut diags);
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
    assert!(err.contains(needle), "expected `{needle}` in:\n{err}");
}

#[test]
fn three_level_hierarchy_elaborates_and_flattens() {
    let n = compile_ok(
        r#"
        module pair {
            inport in:'a;
            outport out:'a;
            instance a:wire1;
            instance b:wire1;
            in -> a.in;
            a.out -> b.in;
            b.out -> out;
        };
        module quad {
            inport in:'a;
            outport out:'a;
            instance x:pair;
            instance y:pair;
            in -> x.in;
            x.out -> y.in;
            y.out -> out;
        };
        module oct {
            inport in:'a;
            outport out:'a;
            instance p:quad;
            instance q:quad;
            in -> p.in;
            p.out -> q.in;
            q.out -> out;
        };
        instance g:gen1;
        instance o:oct;
        instance e:eat1;
        g.out -> o.in;
        o.out -> e.in;
        "#,
    );
    // g + e + oct(1) + 2*quad(1) + 4*pair(1) + 8*wire = 17.
    assert_eq!(n.instances.len(), 17);
    assert!(n.find("o.p.x.a").is_some());
    // Flattened: g -> 8 wires -> e = 9 leaf-to-leaf hops.
    assert_eq!(n.flatten().len(), 9);
    // Types propagated through three levels of pass-through ports.
    assert_eq!(
        n.find("o.q.y.b").unwrap().port("out").unwrap().ty,
        Some(Ty::Int)
    );
}

#[test]
fn fun_helpers_compose_with_structure() {
    let n = compile_ok(
        r#"
        fun clamp(x, lo, hi) {
            if (x < lo) { return lo; }
            if (x > hi) { return hi; }
            return x;
        }
        module row {
            parameter count:int;
            inport in:'a;
            outport out:'a;
            var n:int = clamp(count, 1, 4);
            var cells:instance ref[];
            cells = new instance[n](wire1, "cells");
            var i:int;
            in -> cells[0].in;
            for (i = 1; i < n; i = i + 1) {
                cells[i-1].out -> cells[i].in;
            }
            cells[n-1].out -> out;
        };
        instance g:gen1;
        instance r:row;
        r.count = 99;
        instance e:eat1;
        g.out -> r.in;
        r.out -> e.in;
        "#,
    );
    // clamp(99, 1, 4) = 4 cells.
    assert_eq!(n.instances.len(), 7);
    assert!(n.find("r.cells[3]").is_some());
}

#[test]
fn while_loops_and_arrays_drive_structure() {
    let n = compile_ok(
        r#"
        module fanout {
            parameter widths = "":string;
            inport in:'a;
            outport out:'a;
            var targets:int[] = [2, 3, 1];
            var total:int = 0;
            var i:int = 0;
            while (i < len(targets)) {
                total = total + targets[i];
                i = i + 1;
            }
            var cells:instance ref[];
            cells = new instance[total](wire1, "cells");
            in -> cells[0].in;
            for (i = 1; i < total; i = i + 1) {
                cells[i-1].out -> cells[i].in;
            }
            cells[total-1].out -> out;
        };
        instance g:gen1;
        instance f:fanout;
        instance e:eat1;
        g.out -> f.in;
        f.out -> e.in;
        "#,
    );
    assert_eq!(n.instances.len(), 3 + 6);
}

#[test]
fn ternary_and_string_concat_in_parameters() {
    let n = compile_ok(
        r#"
        module cfg {
            parameter mode = "fast":string;
            parameter speed:int;
            outport out:int;
            tar_file = "test/gen.tar";
        };
        instance c:cfg;
        var fast:bool = true;
        c.mode = "very-" + (fast ? "fast" : "slow");
        c.speed = fast ? 10 : 1;
        "#,
    );
    let c = n.find("c").unwrap();
    assert_eq!(c.params["mode"], Datum::Str("very-fast".into()));
    assert_eq!(c.params["speed"], Datum::Int(10));
}

#[test]
fn nested_instance_arrays_get_distinct_paths() {
    let n = compile_ok(
        r#"
        module bank {
            parameter n:int;
            var lanes:instance ref[];
            lanes = new instance[n](gen1, "lanes");
            var i:int;
            for (i = 0; i < n; i = i + 1) {
                lanes[i].v = i * 10;
            }
        };
        instance b0:bank;
        instance b1:bank;
        b0.n = 2;
        b1.n = 3;
        "#,
    );
    assert_eq!(n.find("b0.lanes[1]").unwrap().params["v"], Datum::Int(10));
    assert_eq!(n.find("b1.lanes[2]").unwrap().params["v"], Datum::Int(20));
    assert!(n.find("b0.lanes[2]").is_none());
}

#[test]
fn error_assigning_to_fun_or_module_names() {
    expect_error("fun f() { return 1; }\nvar f:int = 0;", "already declared");
}

#[test]
fn error_on_duplicate_port_and_parameter_names() {
    expect_error(
        "module m { parameter x = 1:int; inport x:int; };\ninstance i:m;",
        "already declared",
    );
}

#[test]
fn error_on_negative_instance_array_length() {
    expect_error(
        r#"
        module m { var xs:instance ref[]; xs = new instance[0 - 2](wire1, "xs"); };
        instance i:m;
        "#,
        "negative",
    );
}

#[test]
fn error_on_index_out_of_bounds() {
    expect_error(
        "var xs:int[] = [1, 2];\nvar y:int = xs[5];",
        "out of bounds",
    );
}

#[test]
fn error_on_reading_subinstance_parameters() {
    expect_error("instance g:gen1;\nvar x:int = g.v;", "write-only");
}

#[test]
fn error_on_connecting_grandchild_ports() {
    expect_error(
        r#"
        module inner { instance w:wire1; };
        instance i:inner;
        instance g:gen1;
        g.out -> i.w.in;
        "#,
        "write-only", // i.w is evaluated as a field read of a sub-instance
    );
}

#[test]
fn error_on_return_at_top_level() {
    expect_error("return 3;", "outside of a fun body");
}

#[test]
fn error_on_string_plus_misuse() {
    expect_error("var x:int = 3 + \"a\";", "cannot apply");
}

#[test]
fn empty_module_is_a_valid_hierarchical_instance() {
    let n = compile_ok("module nothing { };\ninstance x:nothing;");
    assert_eq!(n.instances.len(), 1);
    assert!(!n.find("x").unwrap().is_leaf());
}

#[test]
fn trace_disabled_by_default() {
    let mut sources = SourceMap::new();
    let src = "module m { };\ninstance x:m;";
    let file = sources.add_file("t.lss", src);
    let mut diags = DiagnosticBag::new();
    let program = parse(file, src, &mut diags);
    let out = elaborate(
        &[Unit {
            program: &program,
            library: false,
        }],
        &ElabOptions::default(),
        &mut diags,
    )
    .unwrap();
    assert!(out.trace.is_empty());
}

#[test]
fn connection_annotations_must_be_consistent() {
    expect_error(
        r#"
        module ig { outport out:int; tar_file = "t"; };
        instance a:ig;
        instance b:eat1;
        a.out -> b.in : float;
        "#,
        "type inference failed",
    );
}

#[test]
fn width_reads_count_into_elab_stats() {
    let n = compile_ok(
        r#"
        module probe_width {
            inport in:'a;
            parameter got:int;
            tar_file = "test/eat.tar";
        };
        module wrap {
            inport in:'a;
            instance p:probe_width;
            p.got = in.width;
            LSS_connect_bus(in, p.in, in.width);
        };
        instance g:gen1;
        instance w:wrap;
        g.out -> w.in;
        "#,
    );
    assert!(n.elab.width_reads >= 1);
    assert_eq!(n.find("w.p").unwrap().params["got"], Datum::Int(1));
}

#[test]
fn collector_declared_inside_hierarchical_module() {
    let n = compile_ok(
        r#"
        module watched {
            inport in:'a;
            instance e:eat1;
            in -> e.in;
            collector e : in_fire = "n = n + 1;";
        };
        instance g:gen1;
        instance w:watched;
        g.out -> w.in;
        "#,
    );
    assert_eq!(n.collectors.len(), 1);
    assert_eq!(n.instance(n.collectors[0].inst).path, "w.e");
    assert_eq!(n.name(n.collectors[0].event), "in_fire");
}

#[test]
fn lss_connect_bus_arity_and_index_errors() {
    expect_error(
        "instance a:gen1;\ninstance b:eat1;\nLSS_connect_bus(a.out, b.in);",
        "takes (src, dst, count)",
    );
    expect_error(
        "instance a:gen1;\ninstance b:eat1;\nLSS_connect_bus(a.out[0], b.in, 1);",
        "must not carry explicit indices",
    );
}

#[test]
fn self_port_used_before_declaration_is_an_error() {
    expect_error(
        r#"
        module m {
            instance e:eat1;
            in -> e.in;
            inport in:'a;
        };
        instance g:gen1;
        instance x:m;
        g.out -> x.in;
        "#,
        "is not a port of this module",
    );
}

#[test]
fn connect_annotation_is_one_instantiation_for_both_ports() {
    let n = compile_ok(
        r#"
        instance a:gen1;
        instance wq:wire1;
        instance b:eat1;
        a.out -> wq.in;
        wq.out -> b.in : int;
        "#,
    );
    assert_eq!(n.elab.explicit_type_instantiations, 1);
    assert!(n.find("wq").unwrap().port("out").unwrap().explicit);
    assert!(n.find("b").unwrap().port("in").unwrap().explicit);
}

#[test]
fn module_level_funs_shadow_global_ones() {
    let n = compile_ok(
        r#"
        fun pick() { return 1; }
        module m {
            fun pick() { return 7; }
            instance g:gen1;
            g.v = pick();
        };
        instance outer:gen1;
        outer.v = pick();
        instance x:m;
        "#,
    );
    assert_eq!(n.find("x.g").unwrap().params["v"], Datum::Int(7));
    assert_eq!(n.find("outer").unwrap().params["v"], Datum::Int(1));
}

#[test]
fn runtime_var_initializer_is_type_checked() {
    expect_error(
        r#"
        module bad {
            runtime var count:int = "zero";
            tar_file = "t";
        };
        instance b:bad;
        "#,
        "expected int",
    );
}

#[test]
fn events_with_multiple_arg_types() {
    let n = compile_ok(
        r#"
        module emitter {
            event sample(int, float, string);
            tar_file = "t";
        };
        instance e:emitter;
        "#,
    );
    let events = &n.find("e").unwrap().events;
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].args, vec![Ty::Int, Ty::Float, Ty::String]);
}
