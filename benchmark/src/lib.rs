//! The repository benchmark: three seeded, closed-loop workloads over the
//! LSS toolchain, each checked for correct outputs, plus a traced run that
//! times the calls into every layer's public functions from outside the
//! program. `README.md` in this directory explains why each workload
//! exists and which end-to-end metric each per-layer metric should move.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod compile_cold;
pub mod expected;
pub mod service_mix;
pub mod sim_table3;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim_table3", "compile_cold", "service_mix"];

/// Equal windows a phase is cut into for its throughput and latency
/// medians.
pub const WINDOWS: usize = 10;

/// How long a measured phase runs: a wall-clock length (the benchmark) or
/// an exact operation count (the determinism tests).
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Stop issuing operations once this much reference-speed time (see
    /// [`Speed`]) has passed.
    Time(Duration),
    /// Issue exactly this many operations (per client for `service_mix`).
    Ops(usize),
}

impl Limit {
    /// Whether a loop that has issued `done` operations over `elapsed`
    /// reference-speed time should stop.
    pub fn reached(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Limit::Time(t) => elapsed >= t,
            Limit::Ops(n) => done >= n,
        }
    }
}

/// Nominal milliseconds of one [`calibration_kernel`] on an unloaded
/// machine. Reported times are scaled to this reference speed.
pub const REF_KERNEL_MS: f64 = 3.3;

/// Measured time between two calibration kernels.
pub const CAL_EVERY: Duration = Duration::from_millis(100);

/// A fixed piece of work in the benchmark's own code, timed between
/// operations to measure how fast the machine is running right now.
/// Returns its duration in milliseconds.
///
/// Outside load on the box slows memory-heavy code far more than
/// register-only code. The kernel is mostly sorting, hashing and
/// formatting (the allocation-heavy mix the toolchain does) plus a
/// register-only loop sized so that, in a regression of per-window
/// throughput on kernel time, `sim_table3` and `compile_cold` slow down
/// in proportion to the kernel (exponent 0.97–1.03; the mix alone gave
/// 0.82–0.85, which over-corrected).
pub fn calibration_kernel() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let mut rng = Rng::new(7, 7);
    let mut acc = std::hint::black_box(x);
    for _ in 0..4 {
        let mut v: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
        v.sort_unstable();
        let map: std::collections::HashMap<u64, usize> = v
            .iter()
            .take(4_000)
            .enumerate()
            .map(|(i, x)| (*x, i))
            .collect();
        let text: Vec<String> = v.iter().take(2_000).map(|x| format!("{x:x}")).collect();
        acc = acc
            .wrapping_add(v[v.len() / 2])
            .wrapping_add(map.len() as u64)
            .wrapping_add(text.iter().map(|t| t.len() as u64).sum::<u64>());
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Calibration samples, and the run length they imply: measured time
/// converted to reference-speed time with the recent slowdown, so a run
/// does about the same work however loaded the machine is.
#[derive(Debug)]
pub struct Speed {
    sensitivity: f64,
    recent: Vec<f64>,
    reference: f64,
    last: f64,
    /// Every sample: (measured seconds, slowdown).
    pub samples: Vec<(f64, f64)>,
}

impl Speed {
    /// Samples the current slowdown estimate is the median of.
    const RECENT: usize = 5;

    /// A workload whose throughput moves as the `sensitivity`-th power of
    /// the calibration kernel's time.
    pub fn new(sensitivity: f64) -> Speed {
        Speed {
            sensitivity,
            recent: Vec::new(),
            reference: 0.0,
            last: 0.0,
            samples: Vec::new(),
        }
    }

    /// The current slowdown estimate (1 before the first sample).
    pub fn slowdown(&self) -> f64 {
        if self.recent.is_empty() {
            return 1.0;
        }
        quantile(&self.recent, 0.5)
    }

    /// Reference-speed seconds at `measured` seconds.
    pub fn reference_at(&self, measured: f64) -> f64 {
        self.reference + (measured - self.last) / self.slowdown()
    }

    /// Records a kernel time of `ms` taken at `measured` seconds.
    pub fn record(&mut self, measured: f64, ms: f64) {
        self.reference = self.reference_at(measured);
        self.last = measured;
        let slowdown = (ms / REF_KERNEL_MS).powf(self.sensitivity);
        self.samples.push((measured, slowdown));
        self.recent.push(slowdown);
        if self.recent.len() > Self::RECENT {
            self.recent.remove(0);
        }
    }
}

/// A single-client phase's clock: measured time is wall time minus pauses
/// (result checks and calibration); a calibration kernel runs every
/// [`CAL_EVERY`] of measured time.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    paused: Duration,
    next_cal: Duration,
    speed: Speed,
}

impl Clock {
    /// Starts measuring now.
    pub fn start() -> Clock {
        Clock {
            start: Instant::now(),
            paused: Duration::ZERO,
            next_cal: Duration::ZERO,
            speed: Speed::new(1.0),
        }
    }

    /// Measured time so far.
    pub fn now(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    /// Reference-speed time so far: what the run length is counted in.
    pub fn reference(&self) -> Duration {
        Duration::from_secs_f64(self.speed.reference_at(self.now().as_secs_f64()))
    }

    /// Runs `f` outside the measured time.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed();
        out
    }

    /// Runs the calibration kernel (outside the measured time) when one
    /// is due. Call between operations.
    pub fn tick(&mut self) {
        let now = self.now();
        if now >= self.next_cal {
            let ms = self.pause(calibration_kernel);
            self.speed.record(now.as_secs_f64(), ms);
            self.next_cal = now + CAL_EVERY;
        }
    }

    /// Records this clock's measured time and calibration into `phase`.
    pub fn finish(self, phase: &mut Phase) {
        phase.elapsed = self.now();
        phase.calibration = self.speed.samples;
    }
}

/// The repository checkout the benchmark was built from: inputs are read
/// from it and scratch files go under `benchmark/work/`.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// A scratch directory unique to this process, inside the checkout.
pub fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{tag}-{}", std::process::id()))
}

/// SplitMix64: the benchmark's own generator, so the operation streams do
/// not change when a library's generator does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// One timed call into a layer, attributed to the operation that made it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation index within its client's stream.
    pub op: u32,
    /// Layer metric this span feeds (e.g. `ast.parse`).
    pub layer: &'static str,
    /// Duration in nanoseconds.
    pub ns: u64,
    /// Work items inside the span (cycles for `sim.step`, else 1).
    pub items: u64,
}

/// In-memory span recorder. Disabled, [`Tracer::time`] is a plain call.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Every span recorded so far, in order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its duration under `layer` when tracing.
    pub fn time<T>(&mut self, op: u32, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(op, layer, start.elapsed(), 1);
        out
    }

    /// Records an already measured span.
    pub fn record(&mut self, op: u32, layer: &'static str, d: Duration, items: u64) {
        if self.on {
            self.spans.push(Span {
                op,
                layer,
                ns: d.as_nanos() as u64,
                items,
            });
        }
    }

    /// Per-layer totals: (nanoseconds, items, distinct operations).
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.layer).or_default();
            t.ns += s.ns;
            t.items += s.items;
            if t.last_op != Some(s.op) {
                t.ops += 1;
                t.last_op = Some(s.op);
            }
        }
        out
    }

    /// Appends another recorder's spans (one per client thread).
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Aggregate of one layer's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    /// Total nanoseconds.
    pub ns: u64,
    /// Total work items.
    pub items: u64,
    /// Distinct operations that entered the layer.
    pub ops: u64,
    last_op: Option<u32>,
}

impl LayerTotal {
    /// Mean milliseconds per operation that entered the layer (0 if none).
    pub fn ms_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / 1e6 / self.ops as f64
        }
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Measured wall time of the phase.
    pub elapsed: Duration,
    /// Latency samples: (seconds into the phase at completion,
    /// milliseconds). Operations, or rounds for `sim_table3`.
    pub latencies: Vec<(f64, f64)>,
    /// Completion times (seconds into the phase) of the operations that
    /// succeeded.
    pub completed: Vec<f64>,
    /// Calibration samples: (seconds into the phase, slowdown).
    pub calibration: Vec<(f64, f64)>,
    /// The operation stream as issued, one key per operation (per client
    /// stream, clients concatenated in order).
    pub stream: Vec<String>,
    /// Wall time per operation keyed by input, to set traced layers
    /// against the untraced run: input key → (total ns, operations).
    pub op_time: BTreeMap<String, (u64, u64)>,
    /// Traced layer spans (empty when untraced).
    pub tracer: Tracer,
    /// Workload-specific per-layer values (exact counts, ratios, daemon
    /// counters), by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Phase {
    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records one operation's wall time under its input key.
    pub fn time_op(&mut self, key: &str, d: Duration) {
        let e = self.op_time.entry(key.to_string()).or_default();
        e.0 += d.as_nanos() as u64;
        e.1 += 1;
    }

    fn window(&self, t: f64) -> usize {
        let width = self.elapsed.as_secs_f64().max(1e-9) / WINDOWS as f64;
        ((t / width) as usize).min(WINDOWS - 1)
    }

    /// How much slower than the reference speed the machine ran over the
    /// whole phase (1 without calibration samples).
    pub fn overall_slowdown(&self) -> f64 {
        let all: Vec<f64> = self.calibration.iter().map(|&(_, s)| s).collect();
        if all.is_empty() {
            1.0
        } else {
            quantile(&all, 0.5)
        }
    }

    /// How much slower than the reference speed the machine ran: the
    /// median calibration slowdown per window (the whole phase's median
    /// where a window has no sample; 1 without any calibration).
    pub fn slowdown(&self) -> [f64; WINDOWS] {
        let overall = self.overall_slowdown();
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for &(t, s) in &self.calibration {
            per[self.window(t)].push(s);
        }
        let mut out = [overall; WINDOWS];
        for (o, w) in out.iter_mut().zip(&per) {
            if !w.is_empty() {
                *o = quantile(w, 0.5);
            }
        }
        out
    }

    /// Completed operations per second at reference speed: the median
    /// over [`WINDOWS`] equal windows of the phase.
    pub fn ops_per_s(&self) -> f64 {
        let width = self.elapsed.as_secs_f64().max(1e-9) / WINDOWS as f64;
        let mut counts = [0usize; WINDOWS];
        for &t in &self.completed {
            counts[self.window(t)] += 1;
        }
        let slow = self.slowdown();
        let rates: Vec<f64> = counts
            .iter()
            .zip(slow)
            .map(|(&c, s)| c as f64 / width * s)
            .collect();
        quantile(&rates, 0.5)
    }

    /// The `q`-quantile latency in ms at reference speed: the median over
    /// [`WINDOWS`] equal windows of each window's quantile.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for &(t, ms) in &self.latencies {
            per[self.window(t)].push(ms);
        }
        let slow = self.slowdown();
        let stats: Vec<f64> = per
            .iter()
            .zip(slow)
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, s)| quantile(w, q) / s)
            .collect();
        quantile(&stats, 0.5)
    }

    /// Folds another client's phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latencies.extend(other.latencies);
        self.completed.extend(other.completed);
        self.calibration.extend(other.calibration);
        self.stream.extend(other.stream);
        for (k, (ns, n)) in other.op_time {
            let e = self.op_time.entry(k).or_default();
            e.0 += ns;
            e.1 += n;
        }
        self.tracer.merge(other.tracer);
        for (k, v) in other.values {
            *self.values.entry(k).or_default() += v;
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values (0 if any is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Traced-layer accounting for the single-client workloads: returns
/// `(remainder ms per op at reference speed, traced layers as % of op
/// wall time)`. Both come from the traced phase alone (op wall time minus
/// the layer spans inside it), so neither the tracing overhead nor a
/// change of machine speed between the two phases lands in them.
pub fn remainder_and_coverage(traced: &Phase) -> (f64, f64) {
    let layers: u64 = traced.tracer.spans.iter().map(|s| s.ns).sum();
    let (wall, ops) = traced
        .op_time
        .values()
        .fold((0u64, 0u64), |(w, n), (ns, k)| (w + ns, n + k));
    let remainder_ms = wall.saturating_sub(layers) as f64 / 1e6 / ops.max(1) as f64;
    (
        remainder_ms / traced.overall_slowdown(),
        100.0 * layers as f64 / wall.max(1) as f64,
    )
}
