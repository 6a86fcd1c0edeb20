//! Diagnostic-quality tests: errors must carry precise source locations,
//! source excerpts, and actionable wording — the compiler half of
//! "encouraging construction and use" of components.

use lss_ast::{parse, DiagnosticBag, SourceMap};
use lss_interp::{elaborate, infer, ElabOptions, Unit};
use lss_types::SolverConfig;

const LIB: &str = r#"
module delay {
    parameter initial_state = 0:int;
    inport in:int;
    outport out:int;
    tar_file = "corelib/delay.tar";
};
"#;

/// Compiles and returns the rendered diagnostics (must fail).
fn diag_of(src: &str) -> String {
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("lib.lss", LIB);
    let model_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, LIB, &mut diags);
    let model = parse(model_file, src, &mut diags);
    if !diags.has_errors() {
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
            infer(&mut netlist, &SolverConfig::default(), &mut diags)
        });
        assert!(typed.is_none(), "expected a failure for:\n{src}");
    }
    diags.render(&sources)
}

/// Asserts the rendered diagnostic points at `file:line:col` and shows the
/// offending line with a caret.
fn assert_located(rendered: &str, location: &str, excerpt: &str) {
    assert!(
        rendered.contains(location),
        "expected location `{location}` in:\n{rendered}"
    );
    assert!(
        rendered.contains(excerpt),
        "expected excerpt `{excerpt}` in:\n{rendered}"
    );
    assert!(rendered.contains('^'), "expected a caret in:\n{rendered}");
}

#[test]
fn unknown_module_points_at_the_instantiation() {
    let r = diag_of("instance d:delya;\n");
    assert_located(&r, "model.lss:1:1", "instance d:delya;");
    assert!(r.contains("unknown module `delya`"));
    assert!(
        r.contains("known modules include"),
        "should list alternatives:\n{r}"
    );
}

#[test]
fn unknown_parameter_points_at_the_assignment_line() {
    let r = diag_of("instance d:delay;\nd.initial_stat = 3;\n");
    assert_located(&r, "model.lss:2:1", "d.initial_stat = 3;");
    assert!(r.contains("no parameter named `initial_stat`"));
}

#[test]
fn type_mismatch_names_both_types() {
    let r = diag_of("instance d:delay;\nd.initial_state = \"zero\";\n");
    assert!(r.contains("expects int"), "{r}");
    assert!(r.contains("got string"), "{r}");
    assert_located(&r, "model.lss:2:1", "d.initial_state");
}

#[test]
fn bad_connection_direction_explains_roles() {
    let r = diag_of("instance a:delay;\ninstance b:delay;\nb.out -> a.out;\n");
    assert!(r.contains("cannot be a connection destination"), "{r}");
    assert!(r.contains("a.out"), "{r}");
}

#[test]
fn inference_conflict_cites_the_connection() {
    let r = diag_of(
        "module fgen { outport out:float; tar_file = \"t\"; };\n\
         instance g:fgen;\ninstance d:delay;\ng.out -> d.in;\n",
    );
    assert!(r.contains("type inference failed"), "{r}");
    // The blamed constraint cites its origin — either the connection or
    // one of the conflicting port declarations, depending on solve order.
    assert!(
        r.contains("connection g.out -> d.in")
            || r.contains("port g.out")
            || r.contains("port d.in"),
        "must cite an origin:\n{r}"
    );
    assert!(r.contains("float") && r.contains("int"), "{r}");
}

#[test]
fn parse_error_recovery_reports_multiple_errors() {
    let mut sources = SourceMap::new();
    let src = "instance a delay;\ninstance b:;\ninstance c:delay\n";
    let file = sources.add_file("multi.lss", src);
    let mut diags = DiagnosticBag::new();
    let _ = parse(file, src, &mut diags);
    assert!(diags.has_errors());
    assert!(
        diags.len() >= 3,
        "recovery should surface all three errors, got {}:\n{}",
        diags.len(),
        diags.render(&sources)
    );
}

#[test]
fn assertion_failures_carry_user_message() {
    let r = diag_of("assert(1 == 2, \"widths must match\");\n");
    assert!(r.contains("assertion failed: widths must match"), "{r}");
}

#[test]
fn division_by_zero_is_located() {
    let r = diag_of("var x:int = 0;\nvar y:int = 4 / x;\n");
    assert!(r.contains("division by zero"), "{r}");
    assert_located(&r, "model.lss:2:13", "4 / x");
}

#[test]
fn notes_attach_secondary_locations() {
    // Duplicate module declarations produce an error plus a note at the
    // first declaration.
    let mut sources = SourceMap::new();
    let src = "module delay { };";
    let lib_file = sources.add_file("lib.lss", LIB);
    let model_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, LIB, &mut diags);
    let model = parse(model_file, src, &mut diags);
    let result = lss_interp::elaborate(
        &[
            Unit {
                program: &lib,
                library: true,
            },
            Unit {
                program: &model,
                library: false,
            },
        ],
        &lss_interp::ElabOptions::default(),
        &mut diags,
    );
    assert!(result.is_none());
    let r = diags.render(&sources);
    assert!(r.contains("declared twice"), "{r}");
    assert!(r.contains("note: previous declaration here"), "{r}");
    assert!(
        r.contains("lib.lss:2:8"),
        "note must locate the original:\n{r}"
    );
}
