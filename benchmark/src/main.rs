//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload sim_table3|compile_cold|service_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload untraced and then traced, for the same length each,
//! and prints the per-layer metrics plus the tracing overhead. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use lss_benchmark::compile_cold::CompileCold;
use lss_benchmark::service_mix::{self, Daemon, ServiceMix};
use lss_benchmark::sim_table3::SimTable3;
use lss_benchmark::{
    calibration_kernel, peak_rss_mb, quantile, remainder_and_coverage, Limit, Phase, REF_KERNEL_MS,
    WINDOWS, WORKLOADS,
};

/// Set-up is repeated this many times in child processes; `setup_s` is
/// the median.
const SETUP_PROBES: usize = 21;

/// Traced layers must cover at least this share of an operation's wall
/// time on the single-client workloads.
const MIN_COVERAGE_PCT: f64 = 95.0;

/// Every per-layer metric, with its unit. A workload that does not reach
/// a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("ast.parse_ms", "ms"),
    ("interp.elaborate_ms", "ms"),
    ("interp.infer_ms", "ms"),
    ("interp.instances", "count"),
    ("types.unify_steps", "count"),
    ("analyze.run_ms", "ms"),
    ("analyze.findings", "count"),
    ("driver.load_ms", "ms"),
    ("driver.teardown_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.step_us_per_cycle", "us"),
    ("sim.evals_per_cycle", "count"),
    ("sim.port_firings_per_cycle", "count"),
    ("sim.events_per_cycle", "count"),
    ("sim.kips", "kips"),
    ("sim.kips.A", "kips"),
    ("sim.kips.B", "kips"),
    ("sim.kips.C", "kips"),
    ("sim.kips.D", "kips"),
    ("sim.kips.E", "kips"),
    ("sim.kips.F", "kips"),
    ("driver.cache_key_us", "us"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("netlist.to_json_ms", "ms"),
    ("netlist.response_kb", "KB"),
    ("lssd.rtt_ms.compile", "ms"),
    ("lssd.rtt_ms.check", "ms"),
    ("lssd.rtt_ms.simulate", "ms"),
    ("lssd.rtt_ms.fresh", "ms"),
    ("lssd.encode_us", "us"),
    ("lssd.decode_ms", "ms"),
    ("lssd.respond_ms", "ms"),
    ("lssd.transport_ms", "ms"),
    ("lssd.hot_hit_ratio", "ratio"),
    ("lssd.hot_entries", "count"),
    ("lssd.shed", "count"),
    ("lssd.budget_stops", "count"),
    ("lssd.panics", "count"),
    ("driver.remainder_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
        print_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--setup-probe" => args.setup_probe = true,
            "--print-expected" => args.print_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.print_expected && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// A set-up workload.
enum Workload {
    Sim(SimTable3),
    Compile(CompileCold),
    Service(ServiceMix),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "sim_table3" => Workload::Sim(SimTable3::setup(seed)?),
            "compile_cold" => Workload::Compile(CompileCold::setup(seed)?),
            _ => Workload::Service(ServiceMix::setup(seed)),
        })
    }

    fn run(&self, limit: Limit, traced: bool) -> Phase {
        match self {
            Workload::Sim(w) => w.run(limit, traced),
            Workload::Compile(w) => w.run(limit, traced),
            Workload::Service(w) => w.run(limit, traced),
        }
    }

    fn cleanup(&self) {
        if let Workload::Service(w) = self {
            let _ = std::fs::remove_dir_all(w.work());
            // The shared parent goes too once no other run is using it.
            if let Some(parent) = w.work().parent() {
                let _ = std::fs::remove_dir(parent);
            }
        }
    }
}

/// Runs set-up in a child process `SETUP_PROBES` times and returns the
/// median of the seconds each child's set-up took, at reference speed (a
/// calibration kernel runs after each probe). Process creation is left
/// out: it is the operating system's cost, and on a loaded machine it
/// swings far more than set-up does.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut times, mut cal) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_PROBES {
        let mut child = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("setup probe: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let status = child.wait().map_err(|e| e.to_string())?;
        let took = line
            .strip_prefix("ready ")
            .and_then(|t| t.trim().parse::<f64>().ok());
        match took {
            Some(t) if read.is_ok() && status.success() => times.push(t),
            _ => return Err(format!("setup probe failed ({status})")),
        }
        cal.push(calibration_kernel());
    }
    Ok(quantile(&times, 0.5) / (quantile(&cal, 0.5) / REF_KERNEL_MS))
}

/// The child side of [`setup_seconds`]: set up, including the daemon and
/// its client connections for `service_mix`, report the seconds that
/// took, tear down. The daemon's empty cache directory is made first,
/// outside the timed set-up.
fn setup_probe(args: &Args) -> Result<(), String> {
    let cache_dir = if args.workload == "service_mix" {
        Some(service_mix::fresh_cache_dir(&service_mix::work_dir())?)
    } else {
        None
    };
    let started = Instant::now();
    let w = Workload::setup(&args.workload, args.seed)?;
    let mut daemon = None;
    if let Some(dir) = cache_dir {
        let d = Daemon::start(dir)?;
        let clients: Vec<_> = (0..service_mix::CLIENTS)
            .map(|_| lssd::Client::connect(&d.endpoint()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        daemon = Some((d, clients));
    }
    let took = started.elapsed().as_secs_f64();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {took}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    if let Some((d, clients)) = daemon {
        drop(clients);
        d.stop()?;
    }
    w.cleanup();
    Ok(())
}

/// Prints `expected/*.tsv` rows for the fixed inputs (maintenance aid:
/// regenerate and review when a model or corpus file changes on purpose).
fn print_expected() -> Result<(), String> {
    println!("# model cycles committed mispredicts");
    for m in lss_models::models() {
        let netlist = lss_models::compile_model(m)?.netlist;
        let max = lss_benchmark::sim_table3::MAX_CYCLES;
        let run = lss_models::runner::run_to_completion_opts(&netlist, Default::default(), max)?;
        println!(
            "{} {} {} {}",
            m.id, run.cycles, run.committed, run.mispredicts
        );
    }
    println!("# input instances connections findings");
    for input in lss_benchmark::compile_cold::pool(0)
        .iter()
        .filter(|i| !i.generated)
    {
        let f = lss_benchmark::compile_cold::compile_driver(input)?;
        println!(
            "{} {} {} {}",
            input.key, f.instances, f.connections, f.findings
        );
    }
    Ok(())
}

fn per_layer(w: &Workload, untraced: &Phase, traced: &Phase) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Times and rates at reference speed, each scaled by the slowdown of
    // the phase it was measured in.
    let (su, st) = (untraced.overall_slowdown(), traced.overall_slowdown());
    let totals = traced.tracer.totals();
    let ms = |layer: &str| totals.get(layer).map_or(0.0, |t| t.ms_per_op()) / st;
    for (metric, layer) in [
        ("ast.parse_ms", "ast.parse"),
        ("interp.elaborate_ms", "interp.elaborate"),
        ("interp.infer_ms", "interp.infer"),
        ("analyze.run_ms", "analyze.run"),
        ("sim.build_ms", "sim.build"),
        ("cache.load_ms", "cache.load"),
        ("cache.store_ms", "cache.store"),
        ("netlist.to_json_ms", "netlist.to_json"),
        ("lssd.decode_ms", "lssd.decode"),
        ("lssd.respond_ms", "lssd.respond"),
        ("driver.load_ms", "driver.load"),
        ("driver.teardown_ms", "driver.teardown"),
    ] {
        m.insert(metric, ms(layer));
    }
    for (metric, layer) in [
        ("driver.cache_key_us", "driver.cache_key"),
        ("lssd.encode_us", "lssd.encode"),
    ] {
        m.insert(metric, ms(layer) * 1e3);
    }
    if let Some(t) = totals.get("sim.step") {
        m.insert(
            "sim.step_us_per_cycle",
            t.ns as f64 / 1e3 / t.items.max(1) as f64 / st,
        );
    }
    // Exact counts and daemon counters come from the untraced phase.
    for (k, v) in &untraced.values {
        m.insert(k, *v);
    }
    let base = untraced.ops_per_s();
    m.insert(
        "trace.overhead_pct",
        100.0 * (base - traced.ops_per_s()) / base.max(1e-9),
    );
    match w {
        Workload::Sim(s) => {
            let (geo, per_model) = s.kips(untraced);
            m.insert("sim.kips", geo * su);
            for (id, k) in per_model {
                let name = [
                    "sim.kips.A",
                    "sim.kips.B",
                    "sim.kips.C",
                    "sim.kips.D",
                    "sim.kips.E",
                    "sim.kips.F",
                ][(id as u8 - b'A') as usize];
                m.insert(name, k * su);
            }
        }
        Workload::Compile(_) => {}
        Workload::Service(_) => {
            for kind in ["compile", "check", "simulate", "fresh"] {
                let (ns, n) = untraced.op_time.get(kind).copied().unwrap_or((0, 0));
                let name = match kind {
                    "compile" => "lssd.rtt_ms.compile",
                    "check" => "lssd.rtt_ms.check",
                    "simulate" => "lssd.rtt_ms.simulate",
                    _ => "lssd.rtt_ms.fresh",
                };
                m.insert(name, ns as f64 / 1e6 / n.max(1) as f64 / su);
            }
            let v = |k: &str| traced.values.get(k).copied().unwrap_or(0.0);
            m.insert(
                "lssd.transport_ms",
                v("transport_ns") / 1e6 / traced.attempted.max(1) as f64 / st,
            );
            m.insert(
                "netlist.response_kb",
                v("frame_bytes") / 1024.0 / v("frames").max(1.0),
            );
        }
    }
    if !matches!(w, Workload::Service(_)) {
        let (remainder, coverage) = remainder_and_coverage(traced);
        m.insert("driver.remainder_ms", remainder);
        m.insert("trace.coverage_pct", coverage);
    }
    m
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn run(args: &Args) -> Result<(), String> {
    let setup_s = if args.trace {
        0.0
    } else {
        setup_seconds(args)?
    };
    let w = Workload::setup(&args.workload, args.seed)?;
    let limit = Limit::Time(Duration::from_secs_f64(args.seconds));
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, mut failed, mut errors);
    if args.trace {
        let untraced = w.run(limit, false);
        let traced = w.run(limit, true);
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed;
        errors = untraced.errors.clone();
        errors.extend(traced.errors.iter().cloned());
        let values = per_layer(&w, &untraced, &traced);
        if let Some(&c) = values.get("trace.coverage_pct") {
            if c < MIN_COVERAGE_PCT {
                failed += 1;
                errors.push(format!(
                    "traced layers cover {c:.1}% of op time, below {MIN_COVERAGE_PCT}%"
                ));
            }
        }
        for (name, unit) in PER_LAYER {
            metrics.push((
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            ));
        }
    } else {
        let phase = w.run(limit, false);
        attempted = phase.attempted;
        failed = phase.failed;
        errors = phase.errors.clone();
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.push(("ops_per_s".into(), phase.ops_per_s(), "1/s"));
        metrics.push(("latency_p50_ms".into(), phase.latency_ms(0.5), "ms"));
        metrics.push(("latency_p90_ms".into(), phase.latency_ms(0.9), "ms"));
        eprintln!(
            "latency samples: {} over {WINDOWS} windows of {:.2} s; machine ran {:.3}x slower than reference",
            phase.latencies.len(),
            phase.elapsed.as_secs_f64() / WINDOWS as f64,
            phase.overall_slowdown()
        );
    }
    w.cleanup();
    for e in &errors {
        eprintln!("FAILED: {e}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:28} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| json_metric(n, *v, u))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.print_expected {
            print_expected()
        } else if args.setup_probe {
            setup_probe(&args)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
