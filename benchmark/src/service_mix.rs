//! `service_mix`: `lssd` in-process on loopback TCP with
//! `ServerConfig::default()` and a fresh disk cache, driven by two
//! closed-loop clients on one connection each.
//!
//! The seeded mix: `compile` of a Table 3 model (served from the hot map
//! after its first request), `check` of a model (bypasses the hot map,
//! reads the disk cache, analyzes), short `simulate` requests, and about
//! 15% `compile` of freshly generated sources (hot-map miss, disk store,
//! hot-map insert).
//!
//! Every response is checked: compile netlists byte-equal to an
//! in-process `to_json`, `simulate` counters equal to an in-process run,
//! `check` counts and report equal to an in-process analysis, and the
//! daemon's `stats` must report zero panics. The references are computed
//! after the measured window.
//!
//! The traced phase replaces `Client::request` with the same frame calls
//! timed one by one, and after each response repeats the server's layer
//! calls in-process (outside the round trip) to time them; what is left
//! of the round trip is the transport remainder.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lss_analyze::{AnalysisConfig, PassManager};
use lss_ast::DiagnosticBag;
use lss_driver::{cache, Driver};
use lss_netlist::jsonval::{parse_json, JsonValue};
use lss_netlist::Netlist;
use lss_sim::SimOptions;
use lssd::{
    read_frame, write_frame, Client, DrainHandle, Endpoint, Request, Server, ServerConfig, Verb,
};

use crate::compile_cold;
use crate::{calibration_kernel, Limit, Phase, Rng, Speed, Tracer, CAL_EVERY};

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// How this workload's throughput moves with the calibration kernel's
/// time: regressing per-window throughput on kernel time over 40
/// one-second windows gave an exponent of 0.54–0.61 (the daemon's
/// sockets, files and thread hand-offs are less sensitive to outside
/// memory load than the kernel), where `sim_table3` and `compile_cold`
/// gave 0.97–1.03.
pub const SENSITIVITY: f64 = 0.6;
/// Simulate request lengths, in cycles.
pub const SIM_CYCLES: [u64; 3] = [200, 300, 400];

/// The request kinds, each with its share of the mix in percent.
pub const MIX: [(&str, usize); 4] = [
    ("compile", 35),
    ("check", 25),
    ("simulate", 25),
    ("fresh", 15),
];

/// One drawn request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `compile` of a Table 3 model.
    Compile(char),
    /// `check` of a Table 3 model.
    Check(char),
    /// `simulate` of a Table 3 model for some cycles.
    Simulate(char, u64),
    /// `compile` of a generated program: `(unique tag, generator seed)`.
    Fresh(String, u64),
}

impl Op {
    /// The request kind (a [`MIX`] name).
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Compile(_) => "compile",
            Op::Check(_) => "check",
            Op::Simulate(..) => "simulate",
            Op::Fresh(..) => "fresh",
        }
    }

    /// A stable description for the operation stream.
    pub fn key(&self) -> String {
        match self {
            Op::Compile(m) => format!("compile/{m}"),
            Op::Check(m) => format!("check/{m}"),
            Op::Simulate(m, c) => format!("simulate/{m}/{c}"),
            Op::Fresh(tag, seed) => format!("fresh/{tag}/{seed}"),
        }
    }

    /// The `(name, text)` sources a fresh compile sends.
    fn fresh_sources(tag: &str, seed: u64) -> Vec<(String, String)> {
        let text = format!("// {tag}\n{}", compile_cold::generated_source(seed));
        vec![("fresh.lss".to_string(), text)]
    }

    /// The wire request.
    pub fn request(&self) -> Request {
        match self {
            Op::Compile(m) => Request {
                model: Some(*m),
                ..Request::new(Verb::Compile)
            },
            Op::Check(m) => Request {
                model: Some(*m),
                ..Request::new(Verb::Check)
            },
            Op::Simulate(m, cycles) => Request {
                model: Some(*m),
                cycles: *cycles,
                ..Request::new(Verb::Simulate)
            },
            Op::Fresh(tag, seed) => Request {
                sources: Op::fresh_sources(tag, *seed),
                ..Request::new(Verb::Compile)
            },
        }
    }

    /// The sources the server compiles for this request, in its order.
    fn sources(&self) -> Vec<(String, String)> {
        match self {
            Op::Compile(m) | Op::Check(m) | Op::Simulate(m, _) => vec![
                ("cpu_lib.lss".to_string(), lss_models::cpu_lib().to_string()),
                (
                    format!("model_{m}.lss"),
                    lss_models::model(*m)
                        .expect("Table 3 model")
                        .source
                        .to_string(),
                ),
            ],
            Op::Fresh(tag, seed) => Op::fresh_sources(tag, *seed),
        }
    }

    /// A driver session like the server's for this request (no cache).
    fn driver(&self) -> Driver {
        let mut driver = Driver::with_corelib();
        for (name, text) in self.sources() {
            driver.add_source(&name, &text);
        }
        driver
    }
}

/// Client `client`'s seeded request stream.
pub fn stream(seed: u64, client: usize) -> impl Iterator<Item = Op> {
    let mut rng = Rng::new(seed, 0x5e55 + client as u64);
    let ids: Vec<char> = lss_models::models().iter().map(|m| m.id).collect();
    let mut n = 0u64;
    std::iter::from_fn(move || {
        let mut r = rng.below(100);
        let kind = MIX
            .iter()
            .find(|(_, share)| {
                let hit = r < *share;
                r = r.saturating_sub(*share);
                hit
            })
            .map_or("fresh", |(k, _)| *k);
        let model = ids[rng.below(ids.len())];
        n += 1;
        Some(match kind {
            "compile" => Op::Compile(model),
            "check" => Op::Check(model),
            "simulate" => Op::Simulate(model, SIM_CYCLES[rng.below(SIM_CYCLES.len())]),
            _ => Op::Fresh(format!("fresh {seed:x}-{client}-{n}"), rng.next_u64() >> 16),
        })
    })
}

/// Makes an empty disk-cache directory under `work`. Directory creation
/// is scratch-space preparation, kept out of the measured set-up: on a
/// busy disk it swings by milliseconds.
///
/// # Errors
///
/// An uncreatable directory.
pub fn fresh_cache_dir(work: &Path) -> Result<PathBuf, String> {
    let cache_dir = work.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    Ok(cache_dir)
}

/// A running in-process daemon.
pub struct Daemon {
    addr: String,
    drain: DrainHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Binds `ServerConfig::default()` (loopback, ephemeral port) with the
    /// disk cache in `cache_dir` (see [`fresh_cache_dir`]) and serves on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(cache_dir: PathBuf) -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.tcp_addr().ok_or("no TCP address")?.to_string();
        let drain = server.drain_handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Ok(Daemon {
            addr,
            drain,
            thread,
            cache_dir,
        })
    }

    /// The daemon's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.addr.clone())
    }

    /// The `stats` verb's numeric counters.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn stats(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut client = Client::connect(&self.endpoint()).map_err(|e| e.to_string())?;
        let value = client.request(&Request::new(Verb::Stats))?;
        let mut out = BTreeMap::new();
        for key in [
            "served",
            "shed",
            "budget_stops",
            "panics",
            "hot_hits",
            "hot_entries",
        ] {
            let n = value
                .get(key)
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| format!("stats has no `{key}`"))?;
            out.insert(key.to_string(), n as f64);
        }
        Ok(out)
    }

    /// Drains the daemon, waits for its thread and removes its cache.
    ///
    /// # Errors
    ///
    /// The daemon's own error, or a panic on its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.drain.drain();
        let served = match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Err(e))) => Err(format!("daemon: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_string()),
            _ => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        served
    }
}

/// What one client saw, kept for checking after the window.
#[derive(Default)]
struct Seen {
    /// First compile response's netlist per model, and responses seen.
    compile: BTreeMap<char, (String, u64)>,
    /// First check response's counts and report hash per model.
    check: BTreeMap<char, ((Vec<i64>, u64), u64)>,
    /// First simulate response's counters per (model, cycles).
    simulate: BTreeMap<(char, u64), (Vec<i64>, u64)>,
    /// Every fresh compile: (tag, generator seed, netlist hash).
    fresh: Vec<(String, u64, u64)>,
}

fn int_fields(value: &JsonValue, keys: &[&str]) -> Vec<i64> {
    keys.iter()
        .map(|k| value.get(k).and_then(JsonValue::as_i64).unwrap_or(-1))
        .collect()
}

const CHECK_FIELDS: [&str; 5] = ["findings", "errors", "warnings", "infos", "denied"];
const SIM_FIELDS: [&str; 3] = ["cycles", "comp_evals", "port_firings"];

/// Records `first` for `key` (or checks it against an earlier one).
fn first_of<K: Ord, V: PartialEq>(
    map: &mut BTreeMap<K, (V, u64)>,
    key: K,
    value: V,
) -> Result<(), String> {
    match map.get_mut(&key) {
        Some((seen, n)) => {
            *n += 1;
            if *seen == value {
                Ok(())
            } else {
                Err("response differs from an earlier one for the same input".into())
            }
        }
        None => {
            map.insert(key, (value, 1));
            Ok(())
        }
    }
}

/// Folds one client's first responses into another's.
fn merge_firsts<K: Ord + std::fmt::Debug, V: PartialEq>(
    into: &mut BTreeMap<K, (V, u64)>,
    from: BTreeMap<K, (V, u64)>,
    what: &str,
    errors: &mut Vec<String>,
) {
    for (key, (value, n)) in from {
        match into.get_mut(&key) {
            Some((seen, count)) => {
                *count += n;
                if *seen != value {
                    errors.push(format!(
                        "{what} {key:?}: the clients saw different responses"
                    ));
                }
            }
            None => {
                into.insert(key, (value, n));
            }
        }
    }
}

impl Seen {
    /// Checks one `ok` response against earlier ones and keeps what the
    /// post-window check needs.
    fn record(&mut self, op: &Op, value: &JsonValue) -> Result<(), String> {
        let status = lssd::server::status_of(value);
        if status != "ok" {
            let error = value.get("error").and_then(JsonValue::as_str).unwrap_or("");
            return Err(format!("status `{status}`: {error}"));
        }
        let netlist = || {
            value
                .get("netlist")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "compile response has no netlist".to_string())
        };
        match op {
            Op::Compile(m) => first_of(&mut self.compile, *m, netlist()?.to_string()),
            Op::Check(m) => {
                let report = value
                    .get("report")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                let counts = (
                    int_fields(value, &CHECK_FIELDS),
                    cache::fnv1a64(report.as_bytes()),
                );
                first_of(&mut self.check, *m, counts)
            }
            Op::Simulate(m, c) => {
                first_of(&mut self.simulate, (*m, *c), int_fields(value, &SIM_FIELDS))
            }
            Op::Fresh(tag, seed) => {
                let hash = cache::fnv1a64(netlist()?.as_bytes());
                self.fresh.push((tag.clone(), *seed, hash));
                Ok(())
            }
        }
    }

    fn absorb(&mut self, other: Seen) -> Vec<String> {
        let mut errors = Vec::new();
        merge_firsts(&mut self.compile, other.compile, "compile", &mut errors);
        merge_firsts(&mut self.check, other.check, "check", &mut errors);
        merge_firsts(&mut self.simulate, other.simulate, "simulate", &mut errors);
        self.fresh.extend(other.fresh);
        errors
    }

    /// Compares everything seen with one-shot in-process results; returns
    /// one message per wrong response.
    fn verify(&self) -> Vec<String> {
        let mut wrong = Vec::new();
        let mut bad = |what: String, n: u64| {
            for _ in 0..n {
                wrong.push(what.clone());
            }
        };
        for (m, (json, n)) in &self.compile {
            match Op::Compile(*m).driver().elaborate() {
                Ok(e) if lss_netlist::to_json(&e.netlist) == *json => {}
                Ok(_) => bad(
                    format!("compile/{m}: netlist differs from in-process to_json"),
                    *n,
                ),
                Err(e) => bad(format!("compile/{m}: in-process compile failed: {e}"), *n),
            }
        }
        for (m, (v, n)) in &self.check {
            match Op::Check(*m).driver().analyze(&AnalysisConfig::default()) {
                Ok(a) => {
                    let (errors, warnings, infos) = a.analysis.counts();
                    let want = vec![
                        a.analysis.findings.len() as i64,
                        errors as i64,
                        warnings as i64,
                        infos as i64,
                        a.analysis.denied as i64,
                    ];
                    let report = lss_analyze::to_jsonl(&a.analysis.findings);
                    if *v != (want, cache::fnv1a64(report.as_bytes())) {
                        bad(format!("check/{m}: differs from in-process analysis"), *n);
                    }
                }
                Err(e) => bad(format!("check/{m}: in-process analyze failed: {e}"), *n),
            }
        }
        for ((m, cycles), (v, n)) in &self.simulate {
            let mut driver = Op::Simulate(*m, *cycles).driver();
            let got = driver
                .build_simulator()
                .map_err(|e| e.to_string())
                .and_then(|mut s| {
                    s.run(*cycles).map_err(|e| e.to_string())?;
                    let st = s.stats();
                    Ok(vec![
                        st.cycles as i64,
                        st.comp_evals as i64,
                        st.port_firings as i64,
                    ])
                });
            match got {
                Ok(want) if want == *v => {}
                Ok(want) => bad(
                    format!("simulate/{m}/{cycles}: {v:?}, in-process {want:?}"),
                    *n,
                ),
                Err(e) => bad(
                    format!("simulate/{m}/{cycles}: in-process run failed: {e}"),
                    *n,
                ),
            }
        }
        for (tag, seed, hash) in &self.fresh {
            match Op::Fresh(tag.clone(), *seed).driver().elaborate() {
                Ok(e) if cache::fnv1a64(lss_netlist::to_json(&e.netlist).as_bytes()) == *hash => {}
                Ok(_) => bad(format!("{tag}: netlist differs from in-process to_json"), 1),
                Err(e) => bad(format!("{tag}: in-process compile failed: {e}"), 1),
            }
        }
        wrong
    }
}

/// The traced client: `Client::request`'s encode and decode calls, each
/// timed apart from the socket.
struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    fn connect(addr: &str) -> Result<RawClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(RawClient { stream })
    }

    /// One round trip, recording `lssd.encode` (`Request::render` +
    /// `write_frame` into a buffer) and `lssd.decode` (`read_frame` of the
    /// received bytes + JSON parse). Sending and receiving the bytes is
    /// transport. Returns the response and its frame size in bytes.
    fn request(
        &mut self,
        request: &Request,
        op: u32,
        tracer: &mut Tracer,
    ) -> Result<(JsonValue, usize), String> {
        let frame = tracer.time(op, "lssd.encode", || {
            let mut frame = Vec::new();
            write_frame(&mut frame, request.render().as_bytes()).map(|()| frame)
        });
        let io = |e: std::io::Error| format!("transport: {e}");
        self.stream.write_all(&frame.map_err(io)?).map_err(io)?;
        let mut received = vec![0u8; 4];
        self.stream.read_exact(&mut received).map_err(io)?;
        let len = u32::from_be_bytes(received[..4].try_into().expect("4 bytes")) as usize;
        received.resize(4 + len, 0);
        self.stream.read_exact(&mut received[4..]).map_err(io)?;
        tracer.time(op, "lssd.decode", || {
            let body = read_frame(&mut received.as_slice(), Duration::from_secs(60), &|| false)
                .map_err(|e| format!("bad frame: {e}"))?;
            let text = String::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
            let value = parse_json(&text).map_err(|e| format!("unparseable response: {e}"))?;
            Ok((value, received.len()))
        })
    }
}

/// In-process copies of the server's work, for the replicas.
struct Replicas<'a> {
    /// Where the replica's fresh compiles store (never the daemon's).
    store_dir: PathBuf,
    daemon_cache: &'a Path,
    netlists: BTreeMap<char, Arc<Netlist>>,
}

impl Replicas<'_> {
    fn netlist(&mut self, m: char) -> Result<Arc<Netlist>, String> {
        if let Some(n) = self.netlists.get(&m) {
            return Ok(Arc::clone(n));
        }
        let e = Op::Compile(m)
            .driver()
            .finish()
            .map_err(|e| e.to_string())?;
        let n = Arc::new(e.netlist);
        self.netlists.insert(m, Arc::clone(&n));
        Ok(n)
    }

    /// Repeats the server's layer calls for `op`, timed into `tracer`:
    /// the session (`driver.load`), its cache key, then per verb the hot
    /// hit, the disk-cache read and analysis, the simulator run, or the
    /// full miss path, and the response body.
    fn replay(&mut self, op: &Op, id: u32, tracer: &mut Tracer) -> Result<(), String> {
        let mut driver = tracer.time(id, "driver.load", || op.driver());
        let key = tracer.time(id, "driver.cache_key", || driver.cache_key());
        let registry = driver.registry();
        match op {
            Op::Compile(m) => {
                let netlist = self.netlist(*m)?;
                respond_compile(&netlist, id, tracer);
            }
            Op::Check(m) => {
                let build = tracer
                    .time(id, "cache.load", || cache::load(self.daemon_cache, key))?
                    .ok_or_else(|| format!("check/{m}: no disk-cache entry after the request"))?;
                let analysis = tracer.time(id, "analyze.run", || {
                    let comb = lss_sim::comb_info(&build.netlist, registry);
                    PassManager::with_default_passes().run(
                        &build.netlist,
                        &comb,
                        &AnalysisConfig::default(),
                    )
                });
                tracer.time(id, "lssd.respond", || {
                    lssd::proto::response("ok")
                        .num("findings", analysis.findings.len() as u64)
                        .str("report", &lss_analyze::to_jsonl(&analysis.findings))
                        .finish()
                });
                tracer.time(id, "driver.teardown", || drop((analysis, build)));
            }
            Op::Simulate(m, cycles) => {
                let netlist = self.netlist(*m)?;
                let mut sim = tracer
                    .time(id, "sim.build", || {
                        lss_sim::build(&netlist, registry, SimOptions::default())
                    })
                    .map_err(|e| e.to_string())?;
                let start = Instant::now();
                sim.run(*cycles).map_err(|e| e.to_string())?;
                tracer.record(id, "sim.step", start.elapsed(), *cycles);
                tracer.time(id, "driver.teardown", || drop(sim));
            }
            Op::Fresh(..) => {
                // A miss probes the key a second time inside `elaborate`.
                tracer.time(id, "driver.cache_key", || driver.cache_key());
                let _ = tracer.time(id, "cache.load", || cache::load(&self.store_dir, key));
                let parsed = tracer.time(id, "ast.parse", || driver.parse());
                let mut netlist =
                    compile_cold::elaborate_parsed(&parsed, &driver.options.elab, id, tracer)?;
                let mut memo = cache::DiskMemo::new(self.store_dir.clone());
                let mut bag = DiagnosticBag::new();
                let solver = &driver.options.solver;
                let stats = tracer
                    .time(id, "interp.infer", || {
                        lss_interp::infer_with_memo(&mut netlist, solver, &mut bag, Some(&mut memo))
                    })
                    .ok_or("type inference failed")?;
                tracer.time(id, "cache.store", || {
                    cache::store(&self.store_dir, key, &netlist, &stats, &[])
                })?;
                respond_compile(&netlist, id, tracer);
                tracer.time(id, "driver.teardown", || drop((netlist, parsed)));
            }
        }
        tracer.time(id, "driver.teardown", || drop(driver));
        Ok(())
    }
}

/// The server's compile response: `to_json`, then the response object.
fn respond_compile(netlist: &Netlist, id: u32, tracer: &mut Tracer) {
    let json = tracer.time(id, "netlist.to_json", || lss_netlist::to_json(netlist));
    tracer.time(id, "lssd.respond", || {
        lssd::proto::response("ok")
            .str("cache", "hot")
            .num("instances", netlist.instances.len() as u64)
            .num("connections", netlist.connections.len() as u64)
            .str_array("prints", &[])
            .str("netlist", &json)
            .finish()
    });
}

/// Lets the calibration thread park both clients between requests, so
/// the calibration kernel runs on an otherwise idle machine and its time
/// is left out of the measured time.
struct PauseGate {
    start: Instant,
    state: Mutex<GateState>,
    changed: Condvar,
}

struct GateState {
    pause: bool,
    parked: usize,
    done: usize,
    paused: Duration,
    speed: Speed,
}

impl PauseGate {
    fn new() -> PauseGate {
        PauseGate {
            start: Instant::now(),
            state: Mutex::new(GateState {
                pause: false,
                parked: 0,
                done: 0,
                paused: Duration::ZERO,
                speed: Speed::new(SENSITIVITY),
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Measured time: wall time minus calibration pauses.
    fn now(&self) -> Duration {
        self.start.elapsed() - self.lock().paused
    }

    /// Reference-speed time: what the run length is counted in.
    fn reference(&self) -> Duration {
        let st = self.lock();
        let measured = (self.start.elapsed() - st.paused).as_secs_f64();
        Duration::from_secs_f64(st.speed.reference_at(measured))
    }

    /// A client between requests: waits out a pending calibration.
    fn checkpoint(&self) {
        let mut st = self.lock();
        if st.pause {
            st.parked += 1;
            self.changed.notify_all();
            st = self
                .changed
                .wait_while(st, |st| st.pause)
                .unwrap_or_else(|p| p.into_inner());
            st.parked -= 1;
        }
    }

    fn client_done(&self) {
        self.lock().done += 1;
        self.changed.notify_all();
    }

    /// Every [`CAL_EVERY`], parks the clients and runs the calibration
    /// kernel; returns the samples once every client has finished.
    fn calibrate(&self) -> Vec<(f64, f64)> {
        loop {
            let st = self.lock();
            let (mut st, _) = self
                .changed
                .wait_timeout_while(st, CAL_EVERY, |st| st.done < CLIENTS)
                .unwrap_or_else(|p| p.into_inner());
            if st.done == CLIENTS {
                return std::mem::take(&mut st.speed.samples);
            }
            st.pause = true;
            let st = self
                .changed
                .wait_while(st, |st| st.parked + st.done < CLIENTS)
                .unwrap_or_else(|p| p.into_inner());
            let at = (self.start.elapsed() - st.paused).as_secs_f64();
            drop(st);
            let t = Instant::now();
            let ms = calibration_kernel();
            let mut st = self.lock();
            st.paused += t.elapsed();
            st.speed.record(at, ms);
            st.pause = false;
            drop(st);
            self.changed.notify_all();
        }
    }
}

/// This process's scratch directory for daemon caches.
pub fn work_dir() -> PathBuf {
    crate::work_dir("service_mix")
}

/// The set-up workload.
pub struct ServiceMix {
    seed: u64,
    work: PathBuf,
}

impl ServiceMix {
    /// Parses the corelib (once per process, shared with the daemon's
    /// sessions).
    pub fn setup(seed: u64) -> ServiceMix {
        Driver::with_corelib().parse();
        ServiceMix {
            seed,
            work: work_dir(),
        }
    }

    /// The scratch directory (the caller removes it).
    pub fn work(&self) -> &Path {
        &self.work
    }

    /// Starts a fresh daemon, runs both clients until `limit`, collects
    /// `stats`, stops the daemon, then checks every response.
    pub fn run(&self, limit: Limit, traced: bool) -> Phase {
        let mut phase = Phase::default();
        let daemon = match fresh_cache_dir(&self.work).and_then(Daemon::start) {
            Ok(d) => d,
            Err(e) => {
                phase.attempted = 1;
                phase.fail(e);
                return phase;
            }
        };
        let gate = PauseGate::new();
        let results: Vec<(Phase, Seen)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (daemon, gate) = (&daemon, &gate);
                    s.spawn(move || {
                        let out = self.client(c, daemon, limit, traced, gate);
                        gate.client_done();
                        out
                    })
                })
                .collect();
            phase.calibration = gate.calibrate();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut seen = Seen::default();
        for (p, s) in results {
            phase.absorb(p);
            for e in seen.absorb(s) {
                phase.fail(e);
            }
        }
        match daemon.stats() {
            Ok(stats) => {
                if stats["panics"] != 0.0 {
                    phase.fail(format!("daemon reports {} panics", stats["panics"]));
                }
                let probes = phase
                    .stream
                    .iter()
                    .filter(|k| !k.starts_with("check/"))
                    .count();
                phase.values.insert(
                    "lssd.hot_hit_ratio",
                    stats["hot_hits"] / probes.max(1) as f64,
                );
                phase
                    .values
                    .insert("lssd.hot_entries", stats["hot_entries"]);
                phase.values.insert("lssd.shed", stats["shed"]);
                phase
                    .values
                    .insert("lssd.budget_stops", stats["budget_stops"]);
                phase.values.insert("lssd.panics", stats["panics"]);
            }
            Err(e) => phase.fail(format!("stats: {e}")),
        }
        if let Err(e) = daemon.stop() {
            phase.fail(e);
        }
        for e in seen.verify() {
            phase.fail(e);
        }
        phase
    }

    /// One closed-loop client. Its phase's `elapsed` is its own window.
    fn client(
        &self,
        c: usize,
        daemon: &Daemon,
        limit: Limit,
        traced: bool,
        gate: &PauseGate,
    ) -> (Phase, Seen) {
        let mut phase = Phase {
            tracer: Tracer::new(traced),
            ..Phase::default()
        };
        let mut seen = Seen::default();
        let mut plain = None;
        let mut raw = None;
        let connected = if traced {
            RawClient::connect(&daemon.addr).map(|r| raw = Some(r))
        } else {
            Client::connect(&daemon.endpoint())
                .map(|cl| plain = Some(cl))
                .map_err(|e| e.to_string())
        };
        if let Err(e) = connected {
            phase.attempted = 1;
            phase.fail(format!("client {c}: connect: {e}"));
            return (phase, seen);
        }
        let store_dir = self.work.join(format!("replica-{c}"));
        let _ = std::fs::create_dir_all(&store_dir);
        let mut replicas = Replicas {
            store_dir: store_dir.clone(),
            daemon_cache: &daemon.cache_dir,
            netlists: BTreeMap::new(),
        };
        let (mut transport_ns, mut frame_bytes, mut frames) = (0f64, 0f64, 0f64);
        for op in stream(self.seed, c) {
            gate.checkpoint();
            if limit.reached(phase.attempted as usize, gate.reference()) {
                break;
            }
            let id = phase.attempted as u32;
            phase.attempted += 1;
            phase.stream.push(op.key());
            let request = op.request();
            let t0 = Instant::now();
            let sent = match (&mut plain, &mut raw) {
                (Some(client), _) => client.request(&request).map(|v| (v, 0)),
                (_, Some(client)) => client.request(&request, id, &mut phase.tracer),
                _ => unreachable!("one client is connected"),
            };
            let rtt = t0.elapsed();
            let at = gate.now().as_secs_f64();
            phase.time_op(op.kind(), rtt);
            phase.latencies.push((at, rtt.as_secs_f64() * 1e3));
            let (value, size) = match sent {
                Ok(v) => v,
                Err(e) => {
                    phase.fail(format!("{}: {e}", op.key()));
                    continue;
                }
            };
            if let Err(e) = seen.record(&op, &value) {
                phase.fail(format!("{}: {e}", op.key()));
                continue;
            }
            phase.completed.push(at);
            if traced {
                if let Err(e) = replicas.replay(&op, id, &mut phase.tracer) {
                    phase.fail(format!("{}: replica: {e}", op.key()));
                }
                // This op's spans (encode, decode, replayed server work)
                // sit at the tail; the rest of the round trip is socket,
                // queue and scheduling.
                let work: u64 = phase
                    .tracer
                    .spans
                    .iter()
                    .rev()
                    .take_while(|s| s.op == id)
                    .map(|s| s.ns)
                    .sum();
                transport_ns += rtt.as_nanos() as f64 - work as f64;
                if matches!(op, Op::Compile(_) | Op::Fresh(..)) {
                    frame_bytes += size as f64;
                    frames += 1.0;
                }
            }
        }
        phase.elapsed = gate.now();
        let _ = std::fs::remove_dir_all(&store_dir);
        if traced {
            phase.values.insert("transport_ns", transport_ns);
            phase.values.insert("frame_bytes", frame_bytes);
            phase.values.insert("frames", frames);
        }
        (phase, seen)
    }
}
