//! `compile_cold`: a seeded stream of cold compiles, one fresh `Driver`
//! per operation and no disk cache, the way `lssc check --no-cache` runs.
//!
//! An operation runs parse → elaborate + infer → analyze → simulator
//! build. The traced phase makes the same calls one layer at a time, in
//! the order the driver makes them, so every layer's share of a cold
//! compile is timed from outside the program.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lss_analyze::{AnalysisConfig, PassManager};
use lss_ast::DiagnosticBag;
use lss_driver::{Driver, Parsed};
use lss_interp::{ElabOptions, Unit};
use lss_netlist::{LinkUnit, Netlist};
use lss_sim::SimOptions;
use lss_verify::GenConfig;

use crate::{repo_root, Clock, Limit, Phase, Rng, Tracer};

/// Generated programs in the pool, drawn from the workload seed. Enough
/// of them that their spread of sizes, and so the latency percentiles,
/// barely depends on the seed.
pub const GENERATED: usize = 32;

/// Percent of operations drawn from each group of the pool: the
/// whole-processor models, the other fixed inputs, and the generated
/// programs. The shares keep both latency percentiles inside a group of
/// inputs rather than on the gap between two, where a percentile flips
/// from run to run.
pub const SHARES: [usize; 3] = [35, 45, 20];

/// Whether `input` is a whole-processor model.
pub fn is_large(input: &Input) -> bool {
    input.key.starts_with("table3/")
        || input.key == "project/model_a"
        || input.key == "project/model_e"
}

/// Where an input's sources come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// In-memory `(name, text)` sources, added with `Driver::add_source`.
    Mem(Vec<(String, String)>),
    /// A root file or project directory, added with
    /// `Driver::add_root_file` (imports are followed, project mode links).
    Root(PathBuf),
}

/// One compile input of the pool.
#[derive(Debug, Clone)]
pub struct Input {
    /// Stable name, e.g. `table3/A` or `gen/1234`.
    pub key: String,
    /// The sources.
    pub source: Source,
    /// Checked by the type oracle instead of an expected row.
    pub generated: bool,
}

/// The observable outcome of one compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// Netlist instances.
    pub instances: usize,
    /// Netlist connections.
    pub connections: usize,
    /// Analysis findings.
    pub findings: usize,
    /// Unification steps of type inference.
    pub unify_steps: u64,
}

fn sorted_entries(dir: &Path, keep: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| keep(p))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

fn is_lss(p: &Path) -> bool {
    p.is_file() && p.extension().is_some_and(|x| x == "lss")
}

fn file_stem(p: &Path) -> String {
    p.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// The seeded source of the pool's generated programs.
pub fn generated_source(seed: u64) -> String {
    lss_verify::generate(seed, &GenConfig::default()).render()
}

/// The input pool for `seed`: Table 3 models with `cpu_lib`, the example
/// files, the multi-file projects, the corpus files, and [`GENERATED`]
/// generated programs.
pub fn pool(seed: u64) -> Vec<Input> {
    let root = repo_root();
    let mut pool = Vec::new();
    for m in lss_models::models() {
        pool.push(Input {
            key: format!("table3/{}", m.id),
            source: Source::Mem(vec![
                ("cpu_lib.lss".into(), lss_models::cpu_lib().into()),
                ("model.lss".into(), m.source.into()),
            ]),
            generated: false,
        });
    }
    for p in sorted_entries(&root.join("examples/lss"), is_lss) {
        pool.push(Input {
            key: format!("examples/{}", file_stem(&p)),
            source: Source::Root(p),
            generated: false,
        });
    }
    for p in sorted_entries(&root.join("examples/lss"), |p| p.join("lss.toml").is_file()) {
        pool.push(Input {
            key: format!("project/{}", file_stem(&p)),
            source: Source::Root(p),
            generated: false,
        });
    }
    for p in sorted_entries(&root.join("tests/corpus"), |p| p.join("top.lss").is_file()) {
        pool.push(Input {
            key: format!("project/{}", file_stem(&p)),
            source: Source::Root(p.join("top.lss")),
            generated: false,
        });
    }
    for p in sorted_entries(&root.join("tests/corpus"), is_lss) {
        pool.push(Input {
            key: format!("corpus/{}", file_stem(&p)),
            source: Source::Root(p),
            generated: false,
        });
    }
    let mut rng = Rng::new(seed, 0x6e6e);
    for _ in 0..GENERATED {
        let gen_seed = rng.next_u64() >> 16;
        pool.push(Input {
            key: format!("gen/{gen_seed}"),
            source: Source::Mem(vec![("gen.lss".into(), generated_source(gen_seed))]),
            generated: true,
        });
    }
    pool
}

/// A driver session holding `input`'s sources.
///
/// # Errors
///
/// An unreadable root file or manifest.
pub fn driver_for(input: &Input) -> Result<Driver, String> {
    let mut driver = Driver::with_corelib();
    match &input.source {
        Source::Mem(units) => {
            for (name, text) in units {
                driver.add_source(name, text);
            }
        }
        Source::Root(path) => driver.add_root_file(path)?,
    }
    Ok(driver)
}

/// One cold compile through a fresh `Driver`: the untraced operation.
///
/// # Errors
///
/// The first failing stage's rendered diagnostics.
pub fn compile_driver(input: &Input) -> Result<Facts, String> {
    let mut driver = driver_for(input)?;
    let analyzed = driver
        .analyze(&AnalysisConfig::default())
        .map_err(|e| e.to_string())?;
    let sim = driver
        .simulator(&analyzed.elaborated.netlist)
        .map_err(|e| e.to_string())?;
    let netlist = &analyzed.elaborated.netlist;
    let facts = Facts {
        instances: netlist.instances.len(),
        connections: netlist.connections.len(),
        findings: analyzed.analysis.findings.len(),
        unify_steps: analyzed.elaborated.solve_stats.unify_steps,
    };
    drop((sim, analyzed, driver));
    Ok(facts)
}

/// `Driver::elaborate`'s elaboration of a parsed session, timed as
/// `interp.elaborate`: one `elaborate` call, or in project mode (any unit
/// declares an `import`) one `elaborate_scoped` per project file against
/// its import closure, then `lss_netlist::link`.
///
/// # Errors
///
/// An elaboration or link failure.
pub fn elaborate_parsed(
    parsed: &Parsed,
    opts: &ElabOptions,
    op: u32,
    tracer: &mut Tracer,
) -> Result<Netlist, String> {
    let units: Vec<Unit<'_>> = parsed
        .units
        .iter()
        .map(|u| Unit {
            program: u.program(),
            library: u.library,
        })
        .collect();
    let mut bag = DiagnosticBag::new();
    if parsed.units.iter().all(|u| u.program().imports.is_empty()) {
        return tracer
            .time(op, "interp.elaborate", || {
                lss_interp::elaborate(&units, opts, &mut bag)
            })
            .map(|out| out.netlist)
            .ok_or_else(|| "elaboration failed".to_string());
    }
    // Project mode: unit 0 is the corelib context; every other unit is a
    // project file, named by the path its importer resolved.
    let index: HashMap<&str, usize> = parsed
        .units
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, u)| (u.name.as_str(), i))
        .collect();
    let deps: Vec<Vec<usize>> = parsed
        .units
        .iter()
        .map(|u| {
            let parent = Path::new(&u.name).parent().unwrap_or(Path::new(""));
            u.program()
                .imports
                .iter()
                .filter_map(|i| {
                    index.get(
                        parent
                            .join(i.path.rel_path())
                            .display()
                            .to_string()
                            .as_str(),
                    )
                })
                .copied()
                .collect()
        })
        .collect();
    let unit_opts = ElabOptions {
        allow_deferred: true,
        ..opts.clone()
    };
    let mut link_units = Vec::new();
    for u in 1..units.len() {
        let decl: Vec<Unit<'_>> = std::iter::once(0)
            .chain(import_closure(&deps, u))
            .map(|i| Unit {
                program: units[i].program,
                library: units[i].library,
            })
            .collect();
        let full = [Unit {
            program: units[u].program,
            library: units[u].library,
        }];
        let out = tracer
            .time(op, "interp.elaborate", || {
                lss_interp::elaborate_scoped(&decl, &full, &unit_opts, &mut bag)
            })
            .ok_or_else(|| "elaboration failed".to_string())?;
        link_units.push(LinkUnit {
            netlist: out.netlist,
            deferred: out.deferred,
        });
    }
    tracer
        .time(op, "interp.elaborate", || lss_netlist::link(link_units))
        .map_err(|e| e.message)
}

/// The driver's import closure of unit `root`: dependencies in
/// post-order, excluding `root`.
fn import_closure(deps: &[Vec<usize>], root: usize) -> Vec<usize> {
    fn visit(deps: &[Vec<usize>], idx: usize, seen: &mut [bool], order: &mut Vec<usize>) {
        for &dep in &deps[idx] {
            if !seen[dep] {
                seen[dep] = true;
                visit(deps, dep, seen, order);
                order.push(dep);
            }
        }
    }
    let mut order = Vec::new();
    visit(deps, root, &mut vec![false; deps.len()], &mut order);
    order
}

/// One cold compile, layer by layer: the traced operation. The same
/// public calls [`compile_driver`] makes through the driver, each timed:
/// session set-up (`driver.load`), `Driver::cache_key`, `Driver::parse`,
/// elaboration, inference, analysis, simulator build, and the session's
/// teardown.
///
/// # Errors
///
/// The first failing layer's message.
pub fn compile_traced(input: &Input, op: u32, tracer: &mut Tracer) -> Result<Facts, String> {
    let mut driver = tracer.time(op, "driver.load", || driver_for(input))?;
    tracer.time(op, "driver.cache_key", || driver.cache_key());
    let parsed = tracer.time(op, "ast.parse", || driver.parse());
    if parsed.has_errors() {
        return Err(format!("parse errors: {:?}", parsed.diagnostics));
    }
    let mut netlist = elaborate_parsed(&parsed, &driver.options.elab, op, tracer)?;
    let mut bag = DiagnosticBag::new();
    let solver = &driver.options.solver;
    let stats = tracer
        .time(op, "interp.infer", || {
            lss_interp::infer_with_memo(&mut netlist, solver, &mut bag, None)
        })
        .ok_or_else(|| "type inference failed".to_string())?;
    let registry = driver.registry();
    let analysis = tracer.time(op, "analyze.run", || {
        let comb = lss_sim::comb_info(&netlist, registry);
        PassManager::with_default_passes().run(&netlist, &comb, &AnalysisConfig::default())
    });
    let sim = tracer
        .time(op, "sim.build", || {
            lss_sim::build(&netlist, registry, SimOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let facts = Facts {
        instances: netlist.instances.len(),
        connections: netlist.connections.len(),
        findings: analysis.findings.len(),
        unify_steps: stats.unify_steps,
    };
    tracer.time(op, "driver.teardown", || {
        drop((sim, analysis, netlist, parsed, driver))
    });
    Ok(facts)
}

/// Checks a generated input's inferred types against the brute-force
/// oracle. Runs outside the timed operations.
///
/// # Errors
///
/// A compile failure or an oracle disagreement.
pub fn oracle_check(input: &Input) -> Result<(), String> {
    let mut driver = driver_for(input)?;
    let elaborated = driver.elaborate().map_err(|e| e.to_string())?;
    match lss_verify::check_types(&elaborated.netlist.constraints, &driver.options.solver) {
        None => Ok(()),
        Some(d) => Err(format!("{}: type oracle disagrees: {d}", input.key)),
    }
}

/// The set-up workload.
pub struct CompileCold {
    seed: u64,
    pool: Vec<Input>,
    /// Pool indices of each [`SHARES`] group.
    groups: [Vec<usize>; 3],
    expected: BTreeMap<String, Vec<i64>>,
}

impl CompileCold {
    /// Builds the pool, parses the corelib once (the driver's shared
    /// copy), and loads the expected rows.
    ///
    /// # Errors
    ///
    /// A fixed input without an expected row.
    pub fn setup(seed: u64) -> Result<CompileCold, String> {
        Driver::with_corelib().parse();
        let expected = crate::expected::compile_cold();
        let pool = pool(seed);
        if let Some(missing) = pool
            .iter()
            .find(|i| !i.generated && !expected.contains_key(&i.key))
        {
            return Err(format!("{} has no expected row", missing.key));
        }
        let group_of = |i: &Input| match (is_large(i), i.generated) {
            (true, _) => 0,
            (false, false) => 1,
            (false, true) => 2,
        };
        let groups = [0, 1, 2].map(|g| {
            (0..pool.len())
                .filter(|&i| group_of(&pool[i]) == g)
                .collect()
        });
        Ok(CompileCold {
            seed,
            pool,
            groups,
            expected,
        })
    }

    /// Draws a pool index: a group by [`SHARES`], then an input of the
    /// group uniformly.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let mut r = rng.below(100);
        let g = SHARES
            .iter()
            .position(|&share| {
                let hit = r < share;
                r = r.saturating_sub(share);
                hit
            })
            .unwrap_or(SHARES.len() - 1);
        let group = &self.groups[g];
        group[rng.below(group.len())]
    }

    /// Runs the seeded stream until `limit`. Verification of each
    /// distinct input's first result is excluded from the measured time.
    pub fn run(&self, limit: Limit, traced: bool) -> Phase {
        let mut phase = Phase {
            tracer: Tracer::new(traced),
            ..Phase::default()
        };
        let mut rng = Rng::new(self.seed, 0xc01d);
        let mut first: BTreeMap<usize, Facts> = BTreeMap::new();
        let mut clock = Clock::start();
        loop {
            clock.tick();
            if limit.reached(phase.attempted as usize, clock.reference()) {
                break;
            }
            let idx = self.draw(&mut rng);
            let input = &self.pool[idx];
            let op = phase.attempted as u32;
            phase.attempted += 1;
            phase.stream.push(input.key.clone());
            let t0 = Instant::now();
            let result = if traced {
                compile_traced(input, op, &mut phase.tracer)
            } else {
                compile_driver(input)
            };
            let took = t0.elapsed();
            let at = clock.now().as_secs_f64();
            phase.time_op(&input.key, took);
            phase.latencies.push((at, took.as_secs_f64() * 1e3));
            let checked = clock.pause(|| {
                result.and_then(|facts| self.verify(input, facts, first.get(&idx)).map(|()| facts))
            });
            match checked {
                Ok(facts) => {
                    phase.completed.push(at);
                    first.entry(idx).or_insert(facts);
                }
                Err(e) => phase.fail(format!("{}: {e}", input.key)),
            }
        }
        clock.finish(&mut phase);
        let total = |f: fn(&Facts) -> f64| first.values().map(f).sum::<f64>();
        phase
            .values
            .insert("interp.instances", total(|f| f.instances as f64));
        phase
            .values
            .insert("types.unify_steps", total(|f| f.unify_steps as f64));
        phase
            .values
            .insert("analyze.findings", total(|f| f.findings as f64));
        phase
    }

    /// Checks one result: against the expected row for fixed inputs, the
    /// type oracle for a generated input's first compile, and the first
    /// result of the same input for every later compile.
    fn verify(&self, input: &Input, facts: Facts, first: Option<&Facts>) -> Result<(), String> {
        if let Some(f) = first {
            return if *f == facts {
                Ok(())
            } else {
                Err(format!(
                    "result {facts:?} differs from the first compile's {f:?}"
                ))
            };
        }
        if input.generated {
            return oracle_check(input);
        }
        let got = [
            facts.instances as i64,
            facts.connections as i64,
            facts.findings as i64,
        ];
        let want = &self.expected[&input.key];
        if got[..] == want[..] {
            Ok(())
        } else {
            Err(format!(
                "[instances, connections, findings] = {got:?}, expected {want:?}"
            ))
        }
    }
}
