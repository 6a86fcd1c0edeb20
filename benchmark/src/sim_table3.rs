//! `sim_table3`: the six Table 3 models, compiled once during set-up, then
//! rebuilt and run to completion over and over in a seeded order.
//!
//! An operation builds a simulator with `SimOptions::default()` and steps
//! it until every fetched instruction has committed, so the idle cycles
//! after the trace drains are never measured. A round is one pass over
//! A–F in a seeded shuffled order; latency is per round, because the six
//! models differ too much in length for a per-run percentile to be steady.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lss_netlist::Netlist;
use lss_sim::{ComponentRegistry, SimOptions, SimStats, Simulator};

use crate::{geomean, Clock, Limit, Phase, Rng, Tracer};

/// A run that has not committed its trace by now is a failure.
pub const MAX_CYCLES: u64 = 200_000;

/// One compiled model and what its run must produce.
struct Model {
    id: char,
    netlist: Netlist,
    commit: Vec<String>,
    fetch: Vec<String>,
    target: i64,
    expect: Vec<i64>,
}

/// What running one model to completion produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Cycles until the last fetched instruction committed.
    pub cycles: u64,
    /// Instructions committed, summed over commit units.
    pub committed: i64,
    /// Mispredicts, summed over fetch units.
    pub mispredicts: i64,
    /// Engine counters.
    pub stats: SimStats,
}

/// The set-up workload.
pub struct SimTable3 {
    seed: u64,
    registry: ComponentRegistry,
    models: Vec<Model>,
}

/// Leaf instance paths of `module` in `netlist`.
fn leaves_of(netlist: &Netlist, module: &str) -> Vec<String> {
    let sym = netlist.sym(module);
    netlist
        .leaves()
        .filter(|i| Some(i.module) == sym)
        .map(|i| i.path.clone())
        .collect()
}

fn sum_rtv(sim: &Simulator, paths: &[String], name: &str) -> i64 {
    paths
        .iter()
        .map(|p| sim.rtv(p, name).and_then(|d| d.as_int()).unwrap_or(0))
        .sum()
}

impl SimTable3 {
    /// Compiles A–F and loads their expected results.
    ///
    /// # Errors
    ///
    /// A model that fails to compile, has no fetch/commit units, or has
    /// no row in `expected/sim_table3.tsv`.
    pub fn setup(seed: u64) -> Result<SimTable3, String> {
        let expected = crate::expected::sim_table3();
        let mut models = Vec::new();
        for m in lss_models::models() {
            let netlist = lss_models::compile_model(m)
                .map_err(|e| format!("model {}: {e}", m.id))?
                .netlist;
            let commit = leaves_of(&netlist, "commit");
            let fetch = leaves_of(&netlist, "fetch");
            let fetch_sym = netlist.sym("fetch");
            let target = netlist
                .leaves()
                .filter(|i| Some(i.module) == fetch_sym)
                .filter_map(|i| i.params.get("n_instrs").and_then(|d| d.as_int()))
                .sum();
            if commit.is_empty() || fetch.is_empty() {
                return Err(format!("model {} has no fetch/commit units", m.id));
            }
            let expect = expected
                .get(&m.id.to_string())
                .cloned()
                .ok_or_else(|| format!("model {} has no expected row", m.id))?;
            models.push(Model {
                id: m.id,
                netlist,
                commit,
                fetch,
                target,
                expect,
            });
        }
        Ok(SimTable3 {
            seed,
            registry: lss_corelib::registry(),
            models,
        })
    }

    /// Builds model `idx` and runs it to completion, recording
    /// `sim.build` and `sim.step` spans under `op`.
    ///
    /// # Errors
    ///
    /// Build or step failures, and runs that do not finish.
    pub fn run_model(&self, idx: usize, op: u32, tracer: &mut Tracer) -> Result<Run, String> {
        let m = &self.models[idx];
        let mut sim = tracer
            .time(op, "sim.build", || {
                lss_sim::build(&m.netlist, &self.registry, SimOptions::default())
            })
            .map_err(|e| format!("model {}: build: {e}", m.id))?;
        let traced = tracer.on();
        let mut stepping = Duration::ZERO;
        loop {
            let stepped = if traced {
                let start = Instant::now();
                let r = sim.step();
                stepping += start.elapsed();
                r
            } else {
                sim.step()
            };
            stepped.map_err(|e| format!("model {} cycle {}: {e}", m.id, sim.cycle()))?;
            if sum_rtv(&sim, &m.commit, "committed") >= m.target {
                break;
            }
            if sim.cycle() >= MAX_CYCLES {
                return Err(format!(
                    "model {} did not finish in {MAX_CYCLES} cycles",
                    m.id
                ));
            }
        }
        tracer.record(op, "sim.step", stepping, sim.cycle());
        Ok(Run {
            cycles: sim.cycle(),
            committed: sum_rtv(&sim, &m.commit, "committed"),
            mispredicts: sum_rtv(&sim, &m.fetch, "mispredicts"),
            stats: sim.stats(),
        })
    }

    /// Runs rounds of A–F in seeded order until `limit`.
    pub fn run(&self, limit: Limit, traced: bool) -> Phase {
        let mut phase = Phase {
            tracer: Tracer::new(traced),
            ..Phase::default()
        };
        let mut rng = Rng::new(self.seed, 0x5173);
        let mut counters: BTreeMap<char, SimStats> = BTreeMap::new();
        let mut clock = Clock::start();
        'rounds: loop {
            let mut round_ms = 0.0;
            for idx in rng.permutation(self.models.len()) {
                clock.tick();
                if limit.reached(phase.attempted as usize, clock.reference()) {
                    break 'rounds;
                }
                let m = &self.models[idx];
                let op = phase.attempted as u32;
                phase.attempted += 1;
                phase.stream.push(m.id.to_string());
                let t0 = Instant::now();
                let result = self.run_model(idx, op, &mut phase.tracer);
                let took = t0.elapsed();
                let at = clock.now().as_secs_f64();
                phase.time_op(&m.id.to_string(), took);
                round_ms += took.as_secs_f64() * 1e3;
                match result {
                    Ok(run) => {
                        let got = [run.cycles as i64, run.committed, run.mispredicts];
                        if got[..] == m.expect[..] {
                            phase.completed.push(at);
                        } else {
                            phase.fail(format!(
                                "model {}: [cycles, committed, mispredicts] = {got:?}, expected {:?}",
                                m.id, m.expect
                            ));
                        }
                        counters.insert(m.id, run.stats);
                    }
                    Err(e) => phase.fail(e),
                }
            }
            phase.latencies.push((clock.now().as_secs_f64(), round_ms));
        }
        clock.finish(&mut phase);
        // Exact engine counters: the mean over models of each model's
        // per-cycle ratio, so the figure does not depend on the mix.
        let per_cycle = |f: fn(&SimStats) -> u64| {
            counters
                .values()
                .map(|s| f(s) as f64 / s.cycles.max(1) as f64)
                .sum::<f64>()
                / counters.len().max(1) as f64
        };
        phase
            .values
            .insert("sim.evals_per_cycle", per_cycle(|s| s.comp_evals));
        phase
            .values
            .insert("sim.port_firings_per_cycle", per_cycle(|s| s.port_firings));
        phase
            .values
            .insert("sim.events_per_cycle", per_cycle(|s| s.events_dispatched));
        phase
    }

    /// Committed simulated instructions per host second, in thousands,
    /// per model and as a geometric mean, from a phase's op times.
    pub fn kips(&self, phase: &Phase) -> (f64, Vec<(char, f64)>) {
        let per_model: Vec<(char, f64)> = self
            .models
            .iter()
            .map(|m| {
                let (ns, n) = phase
                    .op_time
                    .get(&m.id.to_string())
                    .copied()
                    .unwrap_or((0, 0));
                let kips = if ns == 0 {
                    0.0
                } else {
                    m.expect[1] as f64 * n as f64 / (ns as f64 / 1e9) / 1e3
                };
                (m.id, kips)
            })
            .collect();
        let values: Vec<f64> = per_model.iter().map(|&(_, k)| k).collect();
        (geomean(&values), per_model)
    }
}
