//! `lssc` — the LSS compiler and simulator driver.
//!
//! ```text
//! lssc [OPTIONS] FILE.lss...
//! lssc build [OPTIONS] FILE.lss...
//! lssc check [OPTIONS] FILE.lss...
//! lssc fuzz [OPTIONS]
//! lssc difftest [OPTIONS] FILE.lss...
//!
//! build options:
//!   --jobs N           compile up to N files in parallel (default: the
//!                      number of available cores)
//!   --lib FILE         add FILE as a library source to every file's build
//!   --no-corelib       do not preload the corelib
//!   --timings          print one JSON line of per-stage timings per file
//!   --no-cache         bypass the netlist cache
//!   --cache-dir DIR    cache location (default: $LSS_CACHE_DIR, else
//!                      target/lss-cache)
//!   --naive-inference  solve types without the paper's heuristics
//!
//! `build` compiles each FILE as an independent session (libraries are
//! shared), prints one summary line per file in input order, and exits 1
//! if any file fails. Warm builds replay the elaborated netlist from the
//! content-addressed cache without re-running elaboration or inference.
//!
//! check options:
//!   --model A..F       analyze a built-in Table 3 model instead of files
//!   --lib FILE         add FILE as a library source
//!   --no-corelib       do not preload the corelib
//!   --format FMT       text (default), json (one object per line), or sarif
//!   --deny SEL         also fail on SEL (a code like LSS203 or a family
//!                      like LSS2xx); repeatable
//!   --allow SEL        suppress SEL entirely; repeatable, beats --deny
//!   --output FILE      write the report to FILE instead of stdout
//!   --list-codes       print the diagnostic catalog and exit
//!   --no-cache / --cache-dir DIR   as for build
//!   --naive-inference  solve types without the paper's heuristics
//!
//! `check` exits 1 when any finding is denied (on the deny list or
//! `Error`-severity and not allowed), 0 otherwise.
//!
//! fuzz options:
//!   --seed N           master seed for the run (default 1)
//!   --iters N          number of generated programs (default 100)
//!   --max-insts N      instance budget per generated program (default 12)
//!   --cycles N         max stimulus length per program (default 8)
//!   --out DIR          where minimized repros go (default target/verify)
//!   --types-only       run only the exhaustive type-solver oracle
//!   --sim-only         run only the reference-simulator oracle
//!   --adversarial      crash-fuzz with hostile inputs (mutated bytes,
//!                      shuffled tokens, malformed programs) instead of
//!                      the semantic oracles; checks that the compiler
//!                      never panics, terminates within --deadline-ms
//!                      (default 2000), and locates every parse error
//!   --protocols        plant protocol bugs (credit over-issue, role
//!                      flips, deadlocking custom automata) and check
//!                      that the LSS105/LSS107 static pass and the
//!                      runtime protocol monitor agree on every program
//!   --mutate M         inject a known bug for exercising the harness,
//!                      not for real verification: `reversed` and
//!                      `single-pass` break the reference scheduler;
//!                      `stale-commit` and `skip-barrier` break the
//!                      static scheduler's kernel stage commits
//!
//! `fuzz` generates random well-formed programs, checks the heuristic type
//! solver against exhaustive disjunct enumeration and the static scheduler
//! against a naive fixpoint reference (plus the kernel-free dynamic
//! scheduler as a third cross-checked simulator), minimizes any
//! discrepancy with delta debugging, writes the repro under --out, and
//! exits 1.
//!
//! difftest options:
//!   --cycles N         cycles to run the simulators (default 16)
//!   --mutate M         as for fuzz
//!
//! `difftest` replays .lss files (e.g. the checked-in corpus under
//! tests/corpus/) through the same compile + simulate + compare pipeline —
//! static scheduler vs dynamic scheduler vs naive reference — and exits 1
//! on the first discrepancy.
//!
//! Options:
//!   --lib FILE         add FILE as a library source (counts as "from library")
//!   --no-corelib       do not preload the corelib
//!   --model A..F       compile one of the built-in Table 3 models instead of files
//!   --run N            simulate N cycles after compiling
//!   --run-model        run a built-in model to completion and report CPI
//!   --scheduler S      static (default) or dynamic: the static scheduler
//!                      lowers hot corelib behaviors to per-SCC kernels
//!                      over the flat state arena and executes independent
//!                      condensation stages with barrier-committed writes;
//!                      dynamic is the SystemC-style worklist baseline
//!   --batch N          with --run: simulate N lanes of the same netlist
//!                      in lockstep, seeded 0..N-1, and print per-lane
//!                      summaries (lane k is byte-identical to a solo
//!                      run with --seed k)
//!   --emit-lss         pretty-print the parsed sources in canonical form
//!   --dump-tree        print the instance hierarchy
//!   --dump-dot         print the flattened wire graph as GraphViz dot
//!   --emit netlist-json|netlist-bin   print the netlist as JSON, or write
//!                      it to --output FILE (binary needs --output)
//!   --watch PREFIX     log every value fired by instances under PREFIX
//!   --vcd FILE         write the watched firings as a VCD waveform
//!   --wave             print the watched firings as an ASCII waveform
//!   --lint             run the static analysis passes and print findings;
//!                      exits 1 if any finding is denied (same gate as
//!                      `lssc check`)
//!   --stats            print Table 2 reuse statistics; after --run or
//!                      --run-model, also engine statistics and the
//!                      static-schedule summary
//!   --timings          print one JSON line of per-stage timings
//!   --no-cache / --cache-dir DIR   as for build
//!   --naive-inference  solve types without the paper's heuristics
//!
//! Resource-budget options (accepted by the default command, `build`, and
//! `check`; each maps to one `LSS4xx` diagnostic, see docs/ROBUSTNESS.md):
//!   --deadline-ms N    wall-clock budget for the whole compile (LSS401)
//!   --max-steps N      elaboration statement fuel (LSS402)
//!   --max-instances N  instance cap (LSS403)
//!   --max-depth N      module-instantiation depth cap (LSS404)
//!   --solver-steps N   type-inference unification-step cap (LSS405)
//!   --expansion-cap N  disjunct-combination cap per scheme (LSS406)
//!   --max-netlist N    elaborated netlist size cap (LSS407)
//!
//! Exit codes: 0 success, 1 findings or compile error, 2 usage error,
//! 3 resource budget exhausted (an `LSS4xx` diagnostic was emitted),
//! 4 internal compiler error (a crash report lands under `target/ice/`).
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use liberty::{AnalysisConfig, Driver, DriverError, Quota, Scheduler, StageTimings};
use lss_analyze::{to_jsonl, to_sarif_located, to_text_located, Code};
use lss_netlist::{dump, reuse_stats};

/// Renders the engine counters after a run, plus the static-schedule shape
/// and kernel coverage when the simulator is at hand.
fn print_sim_stats(stats: &liberty::SimStats, sim: Option<&liberty::Simulator>) {
    println!("sim stats:");
    println!("  cycles             {}", stats.cycles);
    println!("  comp_evals         {}", stats.comp_evals);
    println!("  events_dispatched  {}", stats.events_dispatched);
    println!("  port_firings       {}", stats.port_firings);
    if let Some(sim) = sim {
        let schedule = sim.static_schedule();
        println!(
            "schedule: {} components in {} topo levels, {} combinational cycle blocks",
            schedule.len(),
            schedule.steps.len(),
            schedule.cycle_blocks()
        );
        let (kernels, leaves) = (sim.kernel_count(), sim.component_count());
        println!(
            "kernels: {kernels} of {leaves} leaves lowered, {} dyn; stages: {}",
            leaves - kernels,
            sim.stage_count()
        );
    }
}

/// The session flags the default command, `build` and `check` share:
/// context sources (`--lib`, `--no-corelib`), the cache (`--no-cache`,
/// `--cache-dir`), `--naive-inference`, and the eight quota flags, each
/// of which maps to one `LSS4xx` diagnostic (see docs/ROBUSTNESS.md).
#[derive(Default)]
struct SessionFlags {
    libs: Vec<String>,
    no_corelib: bool,
    no_cache: bool,
    cache_dir: Option<PathBuf>,
    naive: bool,
    quota: Quota,
}

impl SessionFlags {
    /// Consumes `arg` (and its value from `args`) if it is a session flag;
    /// returns `false` for anything else, leaving `args` untouched.
    fn try_parse(&mut self, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match arg {
            "--lib" => self.libs.push(args.next().unwrap_or_else(|| usage())),
            "--no-corelib" => self.no_corelib = true,
            "--no-cache" => self.no_cache = true,
            "--cache-dir" => self.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--naive-inference" => self.naive = true,
            _ => return quota_flag(&mut self.quota, arg, args),
        }
        true
    }

    /// Resolves the flags once per invocation: the cache directory (exit
    /// 2 when a file is in the way) and the library texts (exit 1 when
    /// one is unreadable).
    fn resolve(self) -> Result<Session, ExitCode> {
        let cache_dir =
            lss_driver::cache::resolve_dir(self.no_cache, self.cache_dir).map_err(|e| {
                eprintln!("{e}");
                ExitCode::from(2)
            })?;
        let mut libs = Vec::new();
        for lib in self.libs {
            match std::fs::read_to_string(&lib) {
                Ok(text) => libs.push((lib, text)),
                Err(e) => {
                    eprintln!("cannot read {lib}: {e}");
                    return Err(ExitCode::from(1));
                }
            }
        }
        Ok(Session {
            corelib: !self.no_corelib,
            cache_dir,
            naive: self.naive,
            quota: self.quota,
            libs,
        })
    }

    /// Resolves the flags and opens the one session of a single-build
    /// command; an unknown `model` exits 2.
    fn open(self, model: Option<char>) -> Result<Driver, ExitCode> {
        self.resolve()?.driver(model).map_err(|e| {
            eprintln!("{e}");
            ExitCode::from(2)
        })
    }
}

/// Resolved [`SessionFlags`]: configures one fresh [`Driver`] per build.
struct Session {
    corelib: bool,
    cache_dir: Option<PathBuf>,
    naive: bool,
    quota: Quota,
    libs: Vec<(String, String)>,
}

impl Session {
    /// A configured driver holding the Table 3 `model` (if any), then the
    /// libraries; the caller adds its own targets last.
    fn driver(&self, model: Option<char>) -> Result<Driver, String> {
        let mut driver = if self.corelib {
            Driver::with_corelib()
        } else {
            Driver::new()
        };
        driver.set_cache_dir(self.cache_dir.clone());
        if self.naive {
            // Before the quota, which may cap the solver it replaces.
            driver.options.solver = liberty::SolverConfig::naive().with_budget(50_000_000);
        }
        driver.set_quota(&self.quota);
        if let Some(id) = model {
            lss_models::add_model(&mut driver, id)?;
        }
        for (name, text) in &self.libs {
            driver.add_library(name, text);
        }
        Ok(driver)
    }
}

/// [`Quota::parse_flag`] with a bad value as a usage error (exit 2).
fn quota_flag(quota: &mut Quota, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
    quota.parse_flag(arg, args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

/// Parses a `--model` value: exactly one letter, canonically uppercase.
fn parse_model(arg: Option<String>) -> char {
    let arg = arg.unwrap_or_default();
    let mut chars = arg.chars();
    match (chars.next(), chars.next()) {
        (Some(id), None) => id.to_ascii_uppercase(),
        _ => {
            eprintln!("--model needs one letter (A-F), got `{arg}`");
            usage()
        }
    }
}

/// Maps a pipeline failure to the documented exit code: 3 when a resource
/// budget ran out (the diagnostics carry an `LSS4xx` code), 1 otherwise.
fn failure_exit(e: &DriverError) -> ExitCode {
    if e.is_budget_exhausted() {
        ExitCode::from(3)
    } else {
        ExitCode::from(1)
    }
}

/// One `--timings` JSON line: cache outcome plus per-stage milliseconds.
/// Stages that never ran (a cache hit skips elaborate/infer entirely) are
/// absent from the line, not reported as zero. Multi-file projects add a
/// `modules` array with each unit's own cache outcome, so incremental
/// rebuilds can be asserted from the outside.
fn timings_json(
    file: &str,
    cache: &str,
    timings: &StageTimings,
    modules: &[lss_driver::ModuleBuild],
) -> String {
    let mut line = format!(
        "{{\"file\": \"{}\", \"cache\": \"{cache}\"",
        lss_netlist::json::escape(file)
    );
    for (stage, duration) in timings.stages() {
        if duration.is_zero() {
            continue;
        }
        line.push_str(&format!(
            ", \"{stage}_ms\": {:.3}",
            duration.as_secs_f64() * 1e3
        ));
    }
    if !modules.is_empty() {
        let entries: Vec<String> = modules
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"cache\": \"{}\"}}",
                    lss_netlist::json::escape(&m.name),
                    m.outcome.name()
                )
            })
            .collect();
        line.push_str(&format!(", \"modules\": [{}]", entries.join(", ")));
    }
    line.push_str(&format!(
        ", \"total_ms\": {:.3}}}",
        timings.total().as_secs_f64() * 1e3
    ));
    line
}

/// Prints non-fatal driver notices (cache fallbacks) to stderr.
fn print_warnings(driver: &Driver) {
    for warning in driver.warnings() {
        eprintln!("warning: {warning}");
    }
}

struct Options {
    files: Vec<String>,
    session: SessionFlags,
    model: Option<char>,
    run: Option<u64>,
    run_model: bool,
    scheduler: Scheduler,
    /// `--batch N`: lockstep lanes seeded `0..N-1` (requires `--run`).
    batch: Option<usize>,
    emit_lss: bool,
    dump_tree: bool,
    dump_dot: bool,
    /// `--emit netlist-bin|netlist-json`: persist the compiled netlist.
    emit: Option<EmitKind>,
    /// `--output FILE` for `--emit` (required for the binary format).
    output: Option<String>,
    stats: bool,
    lint: bool,
    timings: bool,
    watch: Vec<String>,
    vcd: Option<String>,
    wave: bool,
}

/// Netlist serialization formats reachable from `--emit`.
#[derive(Clone, Copy, PartialEq)]
enum EmitKind {
    /// The compact binary format (`lss_netlist::to_binary`).
    NetlistBin,
    /// The diff-friendly JSON format (`lss_netlist::to_json`).
    NetlistJson,
}

fn usage() -> ! {
    eprintln!(
        "usage: lssc [--lib FILE]... [--no-corelib] [--model A-F] [--run N] [--run-model]\n\
         \x20           [--scheduler static|dynamic] [--batch N] [--dump-tree]\n\
         \x20           [--dump-dot] [--stats] [--watch PREFIX]... [--vcd FILE] [--wave]\n\
         \x20           [--emit netlist-bin|netlist-json] [--output FILE]\n\
         \x20           [--timings] [--no-cache] [--cache-dir DIR]\n\
         \x20           [--naive-inference] [BUDGET-FLAGS] TARGET...\n\
         \x20           (TARGET: FILE.lss, a project root file whose imports are\n\
         \x20            loaded with it, a directory with lss.toml, or the manifest)\n\
         \x20      lssc build [--jobs N] [--lib FILE]... [--no-corelib] [--timings]\n\
         \x20           [--no-cache] [--cache-dir DIR] [--naive-inference]\n\
         \x20           [BUDGET-FLAGS] FILE.lss...\n\
         \x20      lssc check [--lib FILE]... [--no-corelib] [--model A-F]\n\
         \x20           [--format text|json|sarif] [--deny SEL]... [--allow SEL]...\n\
         \x20           [--no-cache] [--cache-dir DIR] [--output FILE] [--list-codes]\n\
         \x20           [--naive-inference] [BUDGET-FLAGS] FILE.lss...\n\
         \x20      lssc fuzz [--seed N] [--iters N] [--max-insts N] [--cycles N]\n\
         \x20           [--out DIR] [--types-only | --sim-only] [--adversarial]\n\
         \x20           [--protocols]\n\
         \x20           [--deadline-ms N]\n\
         \x20           [--mutate reversed|single-pass|stale-commit|skip-barrier]\n\
         \x20      lssc difftest [--cycles N]\n\
         \x20           [--mutate reversed|single-pass|stale-commit|skip-barrier]\n\
         \x20           FILE.lss...\n\
         \x20      lssc client (--connect SOCKET | --tcp ADDR) [--model A-F]\n\
         \x20           [--lib FILE]... [--cycles N] [--no-retry] [BUDGET-FLAGS]\n\
         \x20           VERB [FILE.lss...]\n\
         \x20           (VERB: ping, stats, shutdown, compile, check, simulate,\n\
         \x20            difftest, chaos FAULT; talks to a running lssd)\n\
         BUDGET-FLAGS: [--deadline-ms N] [--max-steps N] [--max-instances N]\n\
         \x20           [--max-depth N] [--solver-steps N] [--expansion-cap N]\n\
         \x20           [--max-netlist N] [--max-cycles N]\n\
         exit codes: 0 ok, 1 findings/compile error, 2 usage,\n\
         \x20           3 resource budget exhausted, 4 internal compiler error"
    );
    std::process::exit(2);
}

/// Output format for `lssc check`.
enum CheckFormat {
    Text,
    Json,
    Sarif,
}

struct CheckOptions {
    files: Vec<String>,
    session: SessionFlags,
    model: Option<char>,
    format: CheckFormat,
    config: AnalysisConfig,
    output: Option<String>,
}

/// Expands a `--deny` / `--allow` selector, exiting with usage on nonsense.
fn parse_selector(flag: &str, arg: Option<String>) -> Vec<Code> {
    let Some(sel) = arg else {
        eprintln!("{flag} needs a code (LSS102) or family (LSS1xx)");
        usage();
    };
    match Code::parse_selector(&sel) {
        Some(codes) => codes,
        None => {
            eprintln!("unknown code selector `{sel}` (try --list-codes)");
            usage();
        }
    }
}

fn list_codes() {
    println!("{:<8} {:<9} {:<26} description", "code", "severity", "name");
    for code in Code::ALL {
        println!(
            "{:<8} {:<9} {:<26} {}",
            code.id(),
            code.default_severity(),
            code.name(),
            code.title()
        );
    }
}

fn parse_check_args(args: impl Iterator<Item = String>) -> CheckOptions {
    let mut opts = CheckOptions {
        files: Vec::new(),
        session: SessionFlags::default(),
        model: None,
        format: CheckFormat::Text,
        config: AnalysisConfig::default(),
        output: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => opts.model = Some(parse_model(args.next())),
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = CheckFormat::Text,
                Some("json") => opts.format = CheckFormat::Json,
                Some("sarif") => opts.format = CheckFormat::Sarif,
                _ => usage(),
            },
            "--deny" => {
                let codes = parse_selector("--deny", args.next());
                opts.config = std::mem::take(&mut opts.config).deny(codes);
            }
            "--allow" => {
                let codes = parse_selector("--allow", args.next());
                opts.config = std::mem::take(&mut opts.config).allow(codes);
            }
            "--output" => match args.next() {
                Some(f) => opts.output = Some(f),
                None => usage(),
            },
            "--list-codes" => {
                list_codes();
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other if opts.session.try_parse(other, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() && opts.model.is_none() {
        usage();
    }
    opts
}

/// The `lssc check` subcommand: compile, run the pass suite, render, gate.
fn run_check(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_check_args(args);
    let mut driver = match opts.session.open(opts.model) {
        Ok(driver) => driver,
        Err(code) => return code,
    };
    for file in &opts.files {
        match std::fs::read_to_string(file) {
            Ok(text) => driver.add_source(file, &text),
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let analyzed = match driver.analyze(&opts.config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return failure_exit(&e);
        }
    };
    print_warnings(&driver);

    let analysis = &analyzed.analysis;
    let report = match opts.format {
        CheckFormat::Text => to_text_located(&analysis.findings, Some(driver.sources())),
        CheckFormat::Json => to_jsonl(&analysis.findings),
        CheckFormat::Sarif => to_sarif_located(&analysis.findings, Some(driver.sources())),
    };
    match &opts.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(1);
            }
        }
        None => print!("{report}"),
    }
    let (errors, warnings, infos) = analysis.counts();
    eprintln!(
        "check: {} finding(s) ({errors} error(s), {warnings} warning(s), {infos} info(s)), \
         {} denied",
        analysis.findings.len(),
        analysis.denied
    );
    if analysis.denied > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

struct BuildOptions {
    files: Vec<String>,
    session: SessionFlags,
    jobs: usize,
    timings: bool,
}

fn parse_build_args(args: impl Iterator<Item = String>) -> BuildOptions {
    let mut opts = BuildOptions {
        files: Vec::new(),
        session: SessionFlags::default(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        timings: false,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.jobs = n,
                _ => usage(),
            },
            "--timings" => opts.timings = true,
            "--help" | "-h" => usage(),
            other if opts.session.try_parse(other, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        usage();
    }
    opts
}

/// Per-file result of a batch build, reassembled in input order.
struct BuildReport {
    summary: Result<String, String>,
    timings: Option<String>,
    warnings: Vec<String>,
    /// True when the failure was budget exhaustion (drives exit code 3).
    budget_exhausted: bool,
}

/// Compiles one build target — a single `.lss` file, a project root whose
/// `import` closure is loaded with it, a directory holding an `lss.toml`,
/// or the manifest itself — in its own driver session.
fn build_one(file: &str, session: &Session, timings: bool) -> BuildReport {
    let loaded = session
        .driver(None)
        .and_then(|mut driver| driver.add_root_file(file).map(|()| driver));
    let mut driver = match loaded {
        Ok(driver) => driver,
        Err(e) => {
            return BuildReport {
                summary: Err(e),
                timings: None,
                warnings: Vec::new(),
                budget_exhausted: false,
            }
        }
    };
    let mut budget_exhausted = false;
    let mut modules = Vec::new();
    let (summary, cache_name) = match driver.elaborate() {
        Ok(elaborated) => {
            modules = elaborated.modules.clone();
            (
                Ok(format!(
                    "{file}: ok ({} instances, {} connections, cache {})",
                    elaborated.netlist.instances.len(),
                    elaborated.netlist.connections.len(),
                    elaborated.cache.name()
                )),
                elaborated.cache.name(),
            )
        }
        Err(e) => {
            budget_exhausted = e.is_budget_exhausted();
            (
                Err(format!("{file}: error in stage `{}`\n{e}", e.stage)),
                "none",
            )
        }
    };
    BuildReport {
        summary,
        timings: timings.then(|| timings_json(file, cache_name, driver.timings(), &modules)),
        warnings: driver.warnings().to_vec(),
        budget_exhausted,
    }
}

/// The `lssc build` subcommand: batch-compile files over a thread pool.
fn run_build(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_build_args(args);
    let session = match opts.session.resolve() {
        Ok(session) => session,
        Err(code) => return code,
    };

    let reports: Vec<Mutex<Option<BuildReport>>> =
        opts.files.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = opts.jobs.min(opts.files.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = opts.files.get(i) else {
                    break;
                };
                let report = build_one(file, &session, opts.timings);
                *reports[i].lock().unwrap() = Some(report);
            });
        }
    });

    let mut failed = 0usize;
    let mut any_budget = false;
    for slot in &reports {
        let report = slot.lock().unwrap().take().expect("worker filled slot");
        for warning in &report.warnings {
            eprintln!("warning: {warning}");
        }
        match report.summary {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("{line}");
                failed += 1;
                any_budget |= report.budget_exhausted;
            }
        }
        if let Some(line) = report.timings {
            println!("{line}");
        }
    }
    eprintln!(
        "build: {} file(s), {} failed, {} job(s)",
        opts.files.len(),
        failed,
        workers
    );
    // Budget exhaustion is the more specific failure: if any file hit a
    // cap, the batch exits 3 so callers know a bigger budget may fix it.
    if any_budget {
        ExitCode::from(3)
    } else if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses a `--mutate` value, exiting with usage on nonsense. Reference
/// mutations (`reversed`, `single-pass`) and compiled-engine mutations
/// (`stale-commit`, `skip-barrier`) share the flag; exactly one side of
/// the pair is non-`None`.
fn parse_mutation(arg: Option<String>) -> (lss_verify::Mutation, lss_verify::KernelMutation) {
    match arg.as_deref() {
        Some("reversed") => (
            lss_verify::Mutation::ReversedSinglePass,
            lss_verify::KernelMutation::None,
        ),
        Some("single-pass") => (
            lss_verify::Mutation::ForwardSinglePass,
            lss_verify::KernelMutation::None,
        ),
        Some(other) => match lss_verify::KernelMutation::parse(other) {
            Some(k) => (lss_verify::Mutation::None, k),
            None => {
                eprintln!(
                    "--mutate needs `reversed`, `single-pass`, `stale-commit`, or `skip-barrier`"
                );
                usage();
            }
        },
        None => {
            eprintln!(
                "--mutate needs `reversed`, `single-pass`, `stale-commit`, or `skip-barrier`"
            );
            usage();
        }
    }
}

struct FuzzCliOptions {
    seed: u64,
    iters: u64,
    max_insts: usize,
    cycles: Option<u64>,
    out: PathBuf,
    types_only: bool,
    sim_only: bool,
    adversarial: bool,
    protocols: bool,
    deadline_ms: u64,
    mutation: lss_verify::Mutation,
    kernel_mutation: lss_verify::KernelMutation,
}

fn parse_fuzz_args(args: impl Iterator<Item = String>) -> FuzzCliOptions {
    let mut opts = FuzzCliOptions {
        seed: 1,
        iters: 100,
        max_insts: lss_verify::GenConfig::default().max_insts,
        cycles: None,
        out: PathBuf::from("target/verify"),
        types_only: false,
        sim_only: false,
        adversarial: false,
        protocols: false,
        deadline_ms: 2000,
        mutation: lss_verify::Mutation::None,
        kernel_mutation: lss_verify::KernelMutation::None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.seed = n,
                None => usage(),
            },
            "--iters" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.iters = n,
                _ => usage(),
            },
            "--max-insts" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 2 => opts.max_insts = n,
                _ => usage(),
            },
            "--cycles" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.cycles = Some(n),
                _ => usage(),
            },
            "--out" => match args.next() {
                Some(d) => opts.out = PathBuf::from(d),
                None => usage(),
            },
            "--types-only" => opts.types_only = true,
            "--sim-only" => opts.sim_only = true,
            "--adversarial" => opts.adversarial = true,
            "--protocols" => opts.protocols = true,
            "--deadline-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.deadline_ms = n,
                _ => usage(),
            },
            "--mutate" => (opts.mutation, opts.kernel_mutation) = parse_mutation(args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    if opts.types_only && opts.sim_only {
        eprintln!("--types-only and --sim-only are mutually exclusive");
        usage();
    }
    opts
}

/// The `lssc fuzz --adversarial` mode: hostile inputs against the
/// robustness contract (no panics, bounded wall-clock, located errors).
fn run_adversarial_cmd(opts: &FuzzCliOptions) -> ExitCode {
    let cfg = lss_verify::AdversarialConfig {
        seed: opts.seed,
        iters: opts.iters,
        deadline: std::time::Duration::from_millis(opts.deadline_ms),
        out_dir: opts.out.clone(),
    };
    let report = lss_verify::run_adversarial(&cfg, |line| eprintln!("{line}"));
    eprintln!(
        "fuzz --adversarial: seed {} — {} hostile input(s), {} compiled, {} rejected, \
         {} budget stop(s), {} contract violation(s)",
        cfg.seed,
        report.iters,
        report.compiled,
        report.rejected,
        report.budget_stops,
        report.findings.len()
    );
    for finding in &report.findings {
        eprintln!(
            "violation at iter {}: {} — {}",
            finding.iter, finding.kind, finding.detail
        );
        eprintln!(
            "  minimized {} -> {} byte(s){}",
            finding.original_len,
            finding.minimized_len,
            finding
                .repro
                .as_ref()
                .map(|p| format!("; repro: {}", p.display()))
                .unwrap_or_default()
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `lssc fuzz --protocols` mode: planted protocol bugs checked for
/// static-pass/runtime-monitor agreement.
fn run_protocol_fuzz_cmd(opts: &FuzzCliOptions) -> ExitCode {
    let cfg = lss_verify::ProtocolFuzzConfig {
        seed: opts.seed,
        iters: opts.iters,
        gen: lss_verify::GenConfig {
            max_insts: opts.max_insts,
            ..lss_verify::GenConfig::default()
        },
    };
    let report = lss_verify::run_protocol_fuzz(&cfg, |line| eprintln!("{line}"));
    eprintln!(
        "fuzz --protocols: seed {} — {} program(s), {} base clean, \
         {} static flag(s), {} runtime flag(s), {} disagreement(s)",
        cfg.seed,
        report.iters,
        report.base_clean,
        report.static_flagged,
        report.runtime_flagged,
        report.findings.len()
    );
    for finding in &report.findings {
        eprintln!("disagreement: {finding}");
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `lssc fuzz` subcommand: generate, check both oracles, minimize.
fn run_fuzz_cmd(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_fuzz_args(args);
    if opts.adversarial {
        return run_adversarial_cmd(&opts);
    }
    if opts.protocols {
        return run_protocol_fuzz_cmd(&opts);
    }
    let mut gen = lss_verify::GenConfig {
        max_insts: opts.max_insts,
        ..lss_verify::GenConfig::default()
    };
    if let Some(cycles) = opts.cycles {
        gen.max_cycles = cycles;
    }
    let cfg = lss_verify::FuzzConfig {
        seed: opts.seed,
        iters: opts.iters,
        gen,
        check_types: !opts.sim_only,
        check_sim: !opts.types_only,
        check_projects: !opts.types_only,
        mutation: opts.mutation,
        kernel_mutation: opts.kernel_mutation,
        out_dir: opts.out,
    };
    let report = lss_verify::run_fuzz(&cfg, |line| eprintln!("{line}"));
    eprintln!(
        "fuzz: seed {} — {} program(s), {} compiled, {} type check(s), \
         {} differential sim cycle(s), {} project split check(s), {} finding(s)",
        cfg.seed,
        report.iters,
        report.compiled,
        report.type_checks,
        report.sim_cycles,
        report.project_checks,
        report.findings.len()
    );
    for finding in &report.findings {
        eprintln!(
            "finding at iter {} (item seed {}): {}",
            finding.iter, finding.item_seed, finding.discrepancy
        );
        if let Some(path) = &finding.repro {
            eprintln!(
                "  minimized {} -> {} instance(s); repro: {}",
                finding.original_insts,
                finding.minimized_insts,
                path.display()
            );
        }
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

struct DifftestOptions {
    files: Vec<String>,
    cycles: u64,
    mutation: lss_verify::Mutation,
    kernel_mutation: lss_verify::KernelMutation,
}

fn parse_difftest_args(args: impl Iterator<Item = String>) -> DifftestOptions {
    let mut opts = DifftestOptions {
        files: Vec::new(),
        cycles: 16,
        mutation: lss_verify::Mutation::None,
        kernel_mutation: lss_verify::KernelMutation::None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cycles" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.cycles = n,
                _ => usage(),
            },
            "--mutate" => (opts.mutation, opts.kernel_mutation) = parse_mutation(args.next()),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        usage();
    }
    opts
}

/// The `lssc difftest` subcommand: replay .lss files through the
/// differential pipeline.
fn run_difftest(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = parse_difftest_args(args);
    let diff = lss_verify::DiffOptions {
        cycles: opts.cycles,
        mutation: opts.mutation,
        kernel_mutation: opts.kernel_mutation,
    };
    let mut failed = 0usize;
    for file in &opts.files {
        let mut path = std::path::Path::new(file).to_path_buf();
        // A directory without a manifest replays via its top.lss (the
        // layout minimized multi-file repros are written in).
        if path.is_dir() && !path.join("lss.toml").is_file() && path.join("top.lss").is_file() {
            path = path.join("top.lss");
        }
        // Project roots (directories, manifests, or files with imports)
        // go through the multi-file loader so their closure is followed.
        let project = path.is_dir()
            || path.file_name().is_some_and(|n| n == "lss.toml")
            || std::fs::read_to_string(&path)
                .map(|t| t.lines().any(|l| l.trim_start().starts_with("import ")))
                .unwrap_or(false);
        let result = if project {
            lss_verify::difftest_root(&path, &diff)
        } else {
            match std::fs::read_to_string(&path) {
                Ok(text) => lss_verify::difftest_source(file, &text, &diff),
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    failed += 1;
                    continue;
                }
            }
        };
        match result {
            Ok(None) => println!("{file}: ok ({} cycles, traces agree)", opts.cycles),
            Ok(Some(d)) => {
                eprintln!("{file}: {d}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("{file}: harness error: {e}");
                failed += 1;
            }
        }
    }
    eprintln!("difftest: {} file(s), {} failed", opts.files.len(), failed);
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `lssc client`: the thin-client mode talking to a running `lssd`.
/// Same exit-code contract as one-shot compilation (0 ok, 1 error or
/// discrepancy, 2 usage, 3 budget exhausted, 4 daemon-side ICE), so
/// scripts can swap `lssc FILE` for `lssc client ... compile FILE`
/// without changing their error handling. Shed requests (`busy` after
/// all retries) exit 75, the conventional "temporary failure; retry".
fn run_client(args: impl Iterator<Item = String>) -> ExitCode {
    let mut endpoint: Option<lssd::Endpoint> = None;
    let mut quota = Quota::default();
    let mut libs: Vec<String> = Vec::new();
    let mut cycles: Option<u64> = None;
    let mut retry = true;
    let mut dump_netlist = false;
    let mut model: Option<char> = None;
    let mut verb: Option<lssd::Verb> = None;
    let mut fault: Option<String> = None;
    let mut files: Vec<String> = Vec::new();

    let mut args = args;
    while let Some(arg) = args.next() {
        if quota_flag(&mut quota, &arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(path) => endpoint = Some(lssd::Endpoint::Unix(path.into())),
                None => usage(),
            },
            "--tcp" => match args.next() {
                Some(addr) => endpoint = Some(lssd::Endpoint::Tcp(addr)),
                None => usage(),
            },
            "--lib" => match args.next() {
                Some(file) => libs.push(file),
                None => usage(),
            },
            "--cycles" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => cycles = Some(n),
                None => usage(),
            },
            "--model" => model = Some(parse_model(args.next())),
            "--no-retry" => retry = false,
            "--netlist" => dump_netlist = true,
            other if verb.is_none() => match lssd::Verb::parse(other) {
                Some(v) => verb = Some(v),
                None => usage(),
            },
            other if verb == Some(lssd::Verb::Chaos) && fault.is_none() => {
                fault = Some(other.to_string());
            }
            other if !other.starts_with('-') => files.push(other.to_string()),
            _ => usage(),
        }
    }
    let (Some(endpoint), Some(verb)) = (endpoint, verb) else {
        usage();
    };

    let mut request = lssd::Request::new(verb);
    request.model = model;
    request.fault = fault;
    if let Some(n) = cycles {
        request.cycles = n;
    }
    request.quota = quota;
    for (dest, names) in [(&mut request.libs, &libs), (&mut request.sources, &files)] {
        for name in names {
            match std::fs::read_to_string(name) {
                Ok(text) => dest.push((name.clone(), text)),
                Err(e) => {
                    eprintln!("cannot read {name}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let mut client = match lssd::Client::connect(&endpoint) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to lssd: {e}");
            return ExitCode::from(1);
        }
    };
    let sent = if retry {
        client.request_with_retry(&request)
    } else {
        client.request(&request)
    };
    let response = match sent {
        Ok(value) => value,
        Err(e) => {
            eprintln!("client error: {e}");
            return ExitCode::from(1);
        }
    };

    let status = response
        .get("status")
        .and_then(lss_netlist::jsonval::JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    if let Some(error) = response
        .get("error")
        .and_then(lss_netlist::jsonval::JsonValue::as_str)
    {
        eprintln!("{status}: {error}");
    }
    if dump_netlist {
        // The raw netlist JSON, byte-identical to `--emit netlist-json`
        // from a one-shot build (pinned by the chaos suite and ci.sh).
        if let Some(netlist) = response
            .get("netlist")
            .and_then(lss_netlist::jsonval::JsonValue::as_str)
        {
            print!("{netlist}");
        }
    } else if let lss_netlist::jsonval::JsonValue::Object(members) = &response {
        for (key, value) in members {
            if key == "netlist" {
                if let Some(text) = value.as_str() {
                    println!("netlist: {} bytes (print with --netlist)", text.len());
                }
                continue;
            }
            match value {
                lss_netlist::jsonval::JsonValue::Str(s) => println!("{key}: {s}"),
                other => println!("{key}: {other}"),
            }
        }
    }

    match status.as_str() {
        "ok" => {
            // `difftest` disagreement and `check` findings are failures
            // even though the daemon served them fine.
            let disagree = response
                .get("agree")
                .is_some_and(|v| matches!(v, lss_netlist::jsonval::JsonValue::Bool(false)));
            let findings = response
                .get("errors")
                .and_then(lss_netlist::jsonval::JsonValue::as_i64)
                .unwrap_or(0);
            if disagree || findings > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        "budget" => ExitCode::from(3),
        "ice" => ExitCode::from(4),
        "bad-request" => ExitCode::from(2),
        "busy" => ExitCode::from(75),
        _ => ExitCode::from(1),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options {
        files: Vec::new(),
        session: SessionFlags::default(),
        model: None,
        run: None,
        run_model: false,
        scheduler: Scheduler::Static,
        batch: None,
        emit_lss: false,
        dump_tree: false,
        dump_dot: false,
        emit: None,
        output: None,
        stats: false,
        lint: false,
        timings: false,
        watch: Vec::new(),
        vcd: None,
        wave: false,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => opts.model = Some(parse_model(args.next())),
            "--run" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.run = Some(n),
                None => usage(),
            },
            "--run-model" => opts.run_model = true,
            "--scheduler" => match args.next().as_deref() {
                Some("static") => opts.scheduler = Scheduler::Static,
                Some("dynamic") => opts.scheduler = Scheduler::Dynamic,
                _ => usage(),
            },
            "--batch" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => opts.batch = Some(n),
                _ => usage(),
            },
            "--emit-lss" => opts.emit_lss = true,
            "--emit" => match args.next().as_deref() {
                Some("netlist-bin") => opts.emit = Some(EmitKind::NetlistBin),
                Some("netlist-json") => opts.emit = Some(EmitKind::NetlistJson),
                _ => {
                    eprintln!("--emit needs `netlist-bin` or `netlist-json`");
                    usage();
                }
            },
            "--output" => match args.next() {
                Some(f) => opts.output = Some(f),
                None => usage(),
            },
            "--dump-tree" => opts.dump_tree = true,
            "--dump-dot" => opts.dump_dot = true,
            "--stats" => opts.stats = true,
            "--lint" => opts.lint = true,
            "--timings" => opts.timings = true,
            "--watch" => match args.next() {
                Some(p) => opts.watch.push(p),
                None => usage(),
            },
            "--vcd" => match args.next() {
                Some(f) => opts.vcd = Some(f),
                None => usage(),
            },
            "--wave" => opts.wave = true,
            "--help" | "-h" => usage(),
            other if opts.session.try_parse(other, &mut args) => {}
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() && opts.model.is_none() {
        usage();
    }
    if opts.batch.is_some() && opts.run.is_none() {
        eprintln!("--batch needs --run N (lockstep lanes simulate a fixed cycle count)");
        usage();
    }
    opts
}

/// Where ICE crash reports land: `$LSS_ICE_DIR` (set by tests) or
/// `target/ice/` relative to the working directory.
fn ice_dir() -> PathBuf {
    std::env::var_os("LSS_ICE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/ice"))
}

/// Builds the replayable crash report: version, full command line, panic
/// message and backtrace, plus inline copies of every `.lss` source named
/// on the command line so the report reproduces without the working tree.
fn ice_report(message: &str, location: &str) -> String {
    let argv: Vec<String> = std::env::args().collect();
    let mut report = format!(
        "lssc internal compiler error (ICE)\nversion: {}\ncommand: {}\npanic: {message}\n",
        env!("CARGO_PKG_VERSION"),
        argv.join(" ")
    );
    if !location.is_empty() {
        report.push_str(&format!("at: {location}\n"));
    }
    report.push_str(&format!(
        "backtrace:\n{}\n",
        std::backtrace::Backtrace::force_capture()
    ));
    for arg in argv.iter().skip(1).filter(|a| a.ends_with(".lss")) {
        match std::fs::read_to_string(arg) {
            Ok(text) => report.push_str(&format!("--- source: {arg} ---\n{text}\n")),
            Err(e) => report.push_str(&format!("--- source: {arg} (unreadable: {e}) ---\n")),
        }
    }
    report
}

/// Installs the panic hook that writes an ICE report. The hook fires
/// before the `catch_unwind` boundary in `main` maps the panic to exit
/// code 4. (The adversarial fuzzer temporarily silences this hook while
/// it feeds the compiler inputs that are *supposed* to be survivable.)
fn install_ice_hook() {
    std::panic::set_hook(Box::new(|info| {
        use std::io::Write as _;

        let message = lssd::payload_str(info.payload());
        // A panic raised while *printing* (stdout/stderr closed under us,
        // e.g. `lssc ... | head`) is not a compiler bug: no report, no
        // banner. Attempting to print here would panic again and abort
        // the process before `catch_unwind` can map it to exit code 4.
        if is_broken_pipe(&message) {
            return;
        }
        let location = info.location().map(|l| l.to_string()).unwrap_or_default();
        let dir = ice_dir();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = dir.join(format!("ice-{}-{nanos}.txt", std::process::id()));
        let wrote = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ice_report(&message, &location)));
        // `write!` + ignored results, not `eprintln!`: the hook must never
        // panic, whatever state stderr is in.
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "error: internal compiler error: {message}");
        if !location.is_empty() {
            let _ = writeln!(err, "  at {location}");
        }
        let _ = match wrote {
            Ok(()) => writeln!(
                err,
                "note: this is a bug in lssc, not in your specification; \
                 a replayable crash report was written to {}",
                path.display()
            ),
            Err(e) => writeln!(
                err,
                "note: could not write the crash report to {}: {e}",
                path.display()
            ),
        };
    }));
}

fn main() -> ExitCode {
    install_ice_hook();
    let outcome = std::panic::catch_unwind(|| {
        // Deliberate, test-only crash proving the ICE boundary end to end
        // (report written, exit code 4) without a real compiler bug.
        if std::env::var_os("LSS_TEST_ICE").is_some_and(|v| v == "1") {
            panic!("deliberate internal error (LSS_TEST_ICE=1)");
        }
        real_main()
    });
    match outcome {
        Ok(code) => code,
        // A print panic from a closed stdout/stderr is the reader going
        // away, not an ICE: exit like a SIGPIPE death (128 + 13), the code
        // shell pipelines already expect from `lssc ... | head`.
        Err(payload) if is_broken_pipe(&lssd::payload_str(&*payload)) => ExitCode::from(141),
        Err(_) => ExitCode::from(4),
    }
}

/// Recognizes the runtime's EPIPE print panics (`println!`/`eprintln!`
/// against a closed pipe), which must never be reported as compiler bugs.
fn is_broken_pipe(message: &str) -> bool {
    message.contains("Broken pipe") || message.contains("failed printing to")
}

fn real_main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("check") => {
            argv.next();
            return run_check(argv);
        }
        Some("build") => {
            argv.next();
            return run_build(argv);
        }
        Some("fuzz") => {
            argv.next();
            return run_fuzz_cmd(argv);
        }
        Some("difftest") => {
            argv.next();
            return run_difftest(argv);
        }
        Some("client") => {
            argv.next();
            return run_client(argv);
        }
        _ => {}
    }
    let opts = parse_args(argv);
    let mut driver = match opts.session.open(opts.model) {
        Ok(driver) => driver,
        Err(code) => return code,
    };
    driver.sim_options.scheduler = opts.scheduler;
    let timings_name = opts
        .model
        .map_or_else(|| opts.files[0].clone(), |id| format!("model_{id}"));
    for file in &opts.files {
        // A target may be a plain file, a project root with imports, a
        // directory with an `lss.toml`, or the manifest itself.
        if let Err(e) = driver.add_root_file(file) {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    }

    if opts.emit_lss {
        // Canonical pretty-printing of the user's sources (not the corelib).
        for file in &opts.files {
            let text = std::fs::read_to_string(file).unwrap_or_default();
            let mut sources = liberty::ast::SourceMap::new();
            let id = sources.add_file(file.as_str(), text.as_str());
            let mut diags = liberty::ast::DiagnosticBag::new();
            let program = liberty::ast::parse(id, &text, &mut diags);
            if diags.has_errors() {
                eprintln!("{}", diags.render(&sources));
                return ExitCode::from(1);
            }
            print!("{}", liberty::ast::pretty::program_to_string(&program));
        }
    }

    let compiled = match driver.elaborate() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return failure_exit(&e);
        }
    };
    print_warnings(&driver);
    eprintln!(
        "compiled: {} instances, {} connections, {} type constraints \
         ({} unification steps, {} branches)",
        compiled.netlist.instances.len(),
        compiled.netlist.connections.len(),
        compiled.netlist.constraints.len(),
        compiled.solve_stats.unify_steps,
        compiled.solve_stats.branches,
    );
    for line in &compiled.prints {
        println!("{line}");
    }

    if opts.dump_tree {
        print!("{}", dump::tree(&compiled.netlist));
    }
    if opts.dump_dot {
        print!("{}", dump::dot(&compiled.netlist));
    }
    match opts.emit {
        Some(EmitKind::NetlistBin) => {
            let Some(out) = &opts.output else {
                eprintln!("--emit netlist-bin needs --output FILE (binary data)");
                return ExitCode::from(2);
            };
            let bytes = lss_netlist::to_binary(&compiled.netlist);
            if let Err(e) = std::fs::write(out, &bytes) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::from(1);
            }
            eprintln!(
                "wrote {out} ({} bytes, format {})",
                bytes.len(),
                lss_netlist::BIN_FORMAT
            );
        }
        Some(EmitKind::NetlistJson) => match &opts.output {
            Some(out) => {
                if let Err(e) = std::fs::write(out, lss_netlist::to_json(&compiled.netlist)) {
                    eprintln!("cannot write {out}: {e}");
                    return ExitCode::from(1);
                }
                eprintln!("wrote {out}");
            }
            None => print!("{}", lss_netlist::to_json(&compiled.netlist)),
        },
        None => {}
    }
    let mut lint_denied = 0;
    if opts.lint {
        // Same semantics as `lssc check --format text` with the default
        // configuration: denied findings make the exit code nonzero.
        let analyzed = match driver.analyze(&AnalysisConfig::default()) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                return failure_exit(&e);
            }
        };
        if analyzed.analysis.is_clean() {
            println!("lint: clean");
        } else {
            print!(
                "{}",
                to_text_located(&analyzed.analysis.findings, Some(driver.sources()))
            );
        }
        lint_denied = analyzed.analysis.denied;
    }
    if opts.stats {
        let stats = reuse_stats(&compiled.netlist);
        println!("{}", lss_netlist::header());
        println!("{}", lss_netlist::format_row("model", &stats));
    }

    if opts.run_model {
        match lss_models::runner::run_to_completion(&compiled.netlist, opts.scheduler, 10_000_000) {
            Ok(stats) => {
                println!(
                    "ran {} cycles, committed {} instructions, CPI {:.3}, {} mispredicts",
                    stats.cycles, stats.committed, stats.cpi, stats.mispredicts
                );
                for (key, table) in &stats.collectors {
                    let kv: Vec<String> = table.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    println!("  collector {key}: {}", kv.join(" "));
                }
                if opts.stats {
                    print_sim_stats(&stats.sim, None);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        }
    } else if let (Some(cycles), Some(lanes)) = (opts.run, opts.batch) {
        // Lockstep batch: one netlist, N lanes seeded 0..N-1. Lane k's
        // trace is byte-identical to a solo run with seed k.
        let seeds: Vec<i64> = (0..lanes as i64).collect();
        let mut batch = match liberty::build_batch(
            &compiled.netlist,
            driver.registry(),
            driver.sim_options.clone(),
            &seeds,
        ) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        };
        if let Err(e) = batch.run(cycles) {
            eprintln!("batch simulation failed: {e}");
            return ExitCode::from(if e.budget_code().is_some() { 3 } else { 1 });
        }
        println!("batch: {lanes} lane(s), {cycles} cycles each");
        for k in 0..batch.lane_count() {
            let stats = batch.lane(k).stats();
            println!(
                "  lane {k} (seed {}): {} component evaluations, {} port firings",
                batch.seeds()[k],
                stats.comp_evals,
                stats.port_firings
            );
        }
    } else if let Some(cycles) = opts.run {
        let mut sim = match driver.simulator(&compiled.netlist) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        };
        for prefix in &opts.watch {
            sim.watch(prefix.clone());
        }
        if let Err(e) = sim.run(cycles) {
            eprintln!("simulation failed: {e}");
            // A budget-tagged stop (LSS408 cycle cap, LSS401 deadline) is
            // resource exhaustion, not a model failure: exit 3, like the
            // compile-time budgets.
            return ExitCode::from(if e.budget_code().is_some() { 3 } else { 1 });
        }
        let stats = sim.stats();
        println!(
            "simulated {} cycles ({} component evaluations, {} port firings)",
            stats.cycles, stats.comp_evals, stats.port_firings
        );
        if opts.stats {
            print_sim_stats(&stats, Some(&sim));
        }
        for (path, event, table) in sim.collector_reports() {
            let kv: Vec<String> = table.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("  collector {path}/{event}: {}", kv.join(" "));
        }
        if opts.wave {
            print!("{}", liberty::sim::to_ascii(sim.firing_log(), 200));
        } else {
            for record in sim.firing_log() {
                println!(
                    "  cycle {:>6} {}.{}[{}] = {}",
                    record.cycle, record.path, record.port, record.lane, record.value
                );
            }
        }
        if let Some(path) = &opts.vcd {
            let vcd = liberty::sim::to_vcd(sim.firing_log(), "1ns");
            if let Err(e) = std::fs::write(path, vcd) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            eprintln!("wrote {path}");
        }
    }
    if opts.timings {
        println!(
            "{}",
            timings_json(
                &timings_name,
                compiled.cache.name(),
                driver.timings(),
                &compiled.modules
            )
        );
    }
    if lint_denied > 0 {
        eprintln!("lint: {lint_denied} finding(s) denied");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
