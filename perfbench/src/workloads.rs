//! The three workloads: how each is set up, run untraced on the shared
//! pool, replayed single-threaded under the tracer, and checked.
//!
//! | workload | what a run does |
//! |---|---|
//! | `extended` | `Sweep::run` of the `extended` preset over the 113-loop small corpus |
//! | `shard-certify` | 4 shards of `full` over `small`: render, write, read + merge, read + certify |
//! | `farm-job` | one farm job (`full`, standard, take 200) through `api::route`, one worker loop |

use crate::trace::Tracer;
use ncdrf::corpus::{assign_weights, kernels, Corpus, STANDARD_SEED};
use ncdrf::exec::Pool;
use ncdrf::machine::Machine;
use ncdrf::{
    CacheStats, ModelId, PartialSweep, Render, ReportFormat, Session, SweepReport, SweepShard,
};
use ncdrf_farm::{FarmConfig, LeaseOffer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `extended` preset: spill descent plus II escalation.
    Extended,
    /// The CI flow: shard, write, read, merge, certify.
    ShardCertify,
    /// A farm job from submit to report.
    FarmJob,
}

/// Every workload with its command-line name.
pub const ALL: [(&str, Workload); 3] = [
    ("extended", Workload::Extended),
    ("shard-certify", Workload::ShardCertify),
    ("farm-job", Workload::FarmJob),
];

/// Shards the `shard-certify` flow produces, as the CI matrix does.
const SHARDS: u32 = 4;

/// The job `farm-job` submits.
const FARM_SPEC: &str = r#"{"grid":"full","corpus":"standard","take":200}"#;
const FARM_TAKE: usize = 200;

/// Lease samples the traced farm replay collects, so that the 90th
/// percentile keeps ten samples beyond it.
const FARM_SAMPLES: u64 = 100;

/// The worker name the benchmark's farm worker claims leases under.
const WORKER: &str = "perfbench-worker";

/// Exact work counts of one run, by name.
pub type Counts = BTreeMap<&'static str, u64>;

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// Work counts every run of this workload must reproduce exactly,
    /// whatever the seed: the grid's size, the work the session caches
    /// report, and (where the seed does not reach the inputs) the bytes
    /// rendered and parsed.
    pub fn pinned_counts(self) -> &'static [(&'static str, u64)] {
        match self {
            Workload::Extended => &[
                ("cells", 113),
                ("sched_runs", 113),
                ("cache_hits", 1516),
                ("spill_steps", 4508),
                ("traj_hits", 0),
                ("traj_resumes", 149),
            ],
            Workload::ShardCertify => &[
                ("cells", 226),
                ("artifacts", 4),
                ("render_bytes", 481_171),
                ("parse_bytes", 943_384),
                ("certify_cells", 226),
                ("certify_faults", 0),
                ("sched_runs", 226),
                ("cache_hits", 2695),
                ("spill_steps", 1573),
                ("traj_hits", 0),
                ("traj_resumes", 28),
            ],
            Workload::FarmJob => &[
                ("cells", 400),
                ("leases", 50),
                ("render_bytes", 1_003_210),
                ("offer_bytes", 189_931),
                ("sched_runs", 400),
                ("cache_hits", 4784),
                ("spill_steps", 2220),
                ("traj_hits", 0),
                ("traj_resumes", 42),
            ],
        }
    }
}

/// What one run of a workload produced: the output the check compares
/// and the work counts the guard compares.
#[derive(Debug)]
pub struct Outcome {
    /// The user-visible result bytes (a rendered report).
    pub output: String,
    /// Exact work counts.
    pub counts: Counts,
}

/// The expected result of a workload, computed sequentially outside the
/// timed region.
pub struct Reference {
    /// The rendered report every run must reproduce byte for byte.
    pub output: String,
    /// The sequential report, for checking the replay's aggregates.
    pub report: SweepReport,
}

/// State built before the first timed call: the corpus, the shared pool
/// and (for runs that write artifacts) a fresh temporary directory.
pub struct Setup {
    workload: Workload,
    seed: u64,
    corpus: Corpus,
    pool: Arc<Pool>,
    workers: usize,
    tmp: PathBuf,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The small corpus's loops, weighted from `seed`.
///
/// The loop set is always the one `STANDARD_SEED` generates, so every
/// seed asks for the same scheduling work; the seed draws the loops'
/// execution weights, which change every cycle and traffic figure in the
/// report. The default seed reproduces `Corpus::small()` exactly.
pub fn weighted_small(seed: u64) -> Corpus {
    let total = kernels::all().len() + 60;
    let loops = Corpus::sized("small", total, STANDARD_SEED)
        .loops()
        .to_vec();
    Corpus::from_loops("small", assign_weights(loops, seed ^ 0x5741_4E44))
}

fn grid_name(w: Workload) -> &'static str {
    match w {
        Workload::Extended => "extended",
        _ => "full",
    }
}

fn build_corpus(w: Workload, seed: u64) -> Corpus {
    match w {
        Workload::Extended => weighted_small(seed),
        Workload::ShardCertify => Corpus::small(),
        Workload::FarmJob => Corpus::standard().take(FARM_TAKE),
    }
}

/// A pool with `workers` threads, spawned now rather than on first use.
fn spawned_pool(workers: usize) -> Arc<Pool> {
    let pool = Arc::new(Pool::with_workers(workers));
    pool.run(workers, |_| ());
    pool
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Builds a workload's set-up state: corpus, a pool of `workers`
/// threads, and a fresh, empty temporary directory under `tmp`.
pub fn setup(w: Workload, seed: u64, workers: usize, tmp: &Path) -> Result<Setup, String> {
    let corpus = build_corpus(w, seed);
    let pool = spawned_pool(workers);
    fresh_dir(tmp)?;
    Ok(Setup {
        workload: w,
        seed,
        corpus,
        pool,
        workers,
        tmp: tmp.to_owned(),
    })
}

impl Setup {
    /// Worker threads of the shared pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn sweep(&self) -> ncdrf::Sweep<'_> {
        ncdrf::preset_sweep(&self.corpus, grid_name(self.workload)).expect("the preset grids exist")
    }

    /// One untraced run on the shared pool. `iteration` names the run's
    /// own temporary directory.
    pub fn run(&self, iteration: usize) -> Result<Outcome, String> {
        match self.workload {
            Workload::Extended => self.run_grid(),
            Workload::ShardCertify => {
                let mut tr = Tracer::new(false);
                self.shard_certify(&mut tr, &self.pool, &format!("run-{iteration}"))
            }
            Workload::FarmJob => {
                let mut tr = Tracer::new(false);
                farm_round(&mut tr, &self.pool, 0, false)
            }
        }
    }

    fn run_grid(&self) -> Result<Outcome, String> {
        let sweep = self.sweep().pool(Arc::clone(&self.pool));
        let report = sweep.run().map_err(err)?;
        let output = report.render(ReportFormat::Json);
        let mut counts = Counts::new();
        counts.insert("cells", sweep.signature().total_tasks() as u64);
        counts.insert("render_bytes", output.len() as u64);
        add_cache_stats(&mut counts, report.scheduling);
        Ok(Outcome { output, counts })
    }

    /// The sequential reference: `Sweep::run_sequential` of the same
    /// grid, rendered as the workload renders its output.
    pub fn reference(&self) -> Result<Reference, String> {
        let report = self.sweep().run_sequential().map_err(err)?;
        let output = match self.workload {
            Workload::Extended => report.render(ReportFormat::Json),
            Workload::ShardCertify | Workload::FarmJob => PartialSweep {
                report: report.clone(),
                errors: Vec::new(),
            }
            .render(ReportFormat::Json),
        };
        Ok(Reference { output, report })
    }

    /// The workload's calls replayed on the calling thread, each call
    /// into a layer wrapped in a span of `tr`. The replay rebuilds its
    /// own corpus (the `corpus.build` span) and checks its result
    /// against `reference`.
    pub fn replay(&self, tr: &mut Tracer, reference: &Reference) -> Result<(), String> {
        let single = spawned_pool(1);
        tr.span("replay", None, |tr| {
            let corpus = tr.span("corpus.build", None, |_| {
                build_corpus(self.workload, self.seed)
            });
            match self.workload {
                Workload::Extended => {
                    replay_grid(tr, &corpus, grid_name(self.workload), &reference.report)
                }
                Workload::ShardCertify => {
                    let out = self.shard_certify(tr, &single, "replay")?;
                    check_output(&out.output, &reference.output)
                }
                Workload::FarmJob => {
                    // The grid the job's leases split, call by call: the
                    // per-layer split of the work inside `evaluate_lease`.
                    replay_grid(tr, &corpus, grid_name(self.workload), &reference.report)?;
                    let (mut samples, mut round) = (0, 0);
                    while samples < FARM_SAMPLES {
                        let out = farm_round(tr, &single, round, true)?;
                        check_output(&out.output, &reference.output)?;
                        samples += out.counts["leases"];
                        round += 1;
                    }
                    Ok(())
                }
            }
        })
    }

    /// The CI flow on `small`/`full`: produce 4 shards (in a seed-chosen
    /// order), render and write them, read and parse them back, merge
    /// and render the merged report, then read and parse each shard
    /// again and certify it. Asserts the exact artifact set on disk.
    fn shard_certify(
        &self,
        tr: &mut Tracer,
        pool: &Arc<Pool>,
        dir: &str,
    ) -> Result<Outcome, String> {
        let dir = self.tmp.join(dir);
        fresh_dir(&dir)?;
        let sweep = self.sweep().pool(Arc::clone(pool));
        let mut counts = Counts::new();
        let mut expected: Vec<PathBuf> = Vec::new();
        for index in shard_order(self.seed) {
            let shard = tr.span("sweep.shard", Some(u64::from(index)), |_| {
                sweep.shard(index, SHARDS)
            });
            let shard = shard.map_err(err)?;
            let json = tr.span("report.render", Some(u64::from(index)), |tr| {
                let json = shard.render(ReportFormat::Json);
                tr.attr("bytes", json.len() as u64);
                json
            });
            bump(&mut counts, "render_bytes", json.len() as u64);
            let path = dir.join(format!("shard-{index}-of-{SHARDS}.json"));
            tr.span("artifact.write", Some(u64::from(index)), |_| {
                ncdrf::write_artifact(&path, &json)
            })
            .map_err(err)?;
            expected.push(path);
        }
        expected.sort();
        let mut found: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(err)?
            .map(|e| e.map(|e| e.path()).map_err(err))
            .collect::<Result<_, _>>()?;
        found.sort();
        if found != expected {
            return Err(format!(
                "artifact set {found:?} is not the {SHARDS} shards written"
            ));
        }
        counts.insert("artifacts", found.len() as u64);

        // Merge, as `shard_runner merge` does: read every shard, merge,
        // render the merged report.
        let mut shards = Vec::new();
        for path in &found {
            let (shard, bytes) = read_and_parse(tr, path)?;
            bump(&mut counts, "parse_bytes", bytes);
            shards.push(shard);
        }
        let merged = tr
            .span("merge", None, |_| SweepShard::merge(&shards))
            .map_err(err)?;
        let output = tr.span("report.render", None, |tr| {
            let json = merged.render(ReportFormat::Json);
            tr.attr("bytes", json.len() as u64);
            json
        });
        bump(&mut counts, "render_bytes", output.len() as u64);
        add_cache_stats(&mut counts, merged.report.scheduling);
        drop(shards);

        // Certify, as `ncdrf_analyze certify` does: read each artifact
        // again and re-derive every cell under the certifier.
        for path in &found {
            let (shard, bytes) = read_and_parse(tr, path)?;
            bump(&mut counts, "parse_bytes", bytes);
            bump(&mut counts, "cells", shard.cell_count() as u64);
            let faults = tr.span("certify", None, |tr| {
                let faults =
                    ncdrf::certify_shard(&shard, Arc::new(ncdrf_certify::ScheduleCertifier));
                if let Ok(f) = &faults {
                    tr.attr("cells", shard.cell_count() as u64);
                    tr.attr("faults", f.len() as u64);
                }
                faults
            });
            let faults = faults.map_err(err)?;
            bump(&mut counts, "certify_cells", shard.cell_count() as u64);
            bump(&mut counts, "certify_faults", faults.len() as u64);
        }
        std::fs::remove_dir_all(&dir).map_err(err)?;
        if counts["certify_faults"] != 0 {
            return Err(format!(
                "certification found {} faulty cells",
                counts["certify_faults"]
            ));
        }
        Ok(Outcome { output, counts })
    }
}

/// Shard indices in a seed-chosen order: the merge must not care in
/// which order artifacts were produced.
fn shard_order(seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..SHARDS).collect();
    let mut x = seed;
    for i in (1..order.len()).rev() {
        // splitmix64 step
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        order.swap(i, (z % (i as u64 + 1)) as usize);
    }
    order
}

/// Reads an artifact (`artifact.read`) and parses it (`report.parse`):
/// the two halves of `ncdrf::read_shard`, split so each has its span.
fn read_and_parse(tr: &mut Tracer, path: &Path) -> Result<(SweepShard, u64), String> {
    let json = tr
        .span("artifact.read", None, |_| std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let bytes = json.len() as u64;
    let shard = tr.span("report.parse", None, |tr| {
        tr.attr("bytes", bytes);
        ncdrf::parse_sweep_shard(&json)
    });
    Ok((
        shard.map_err(|e| format!("{}: {e}", path.display()))?,
        bytes,
    ))
}

fn bump(counts: &mut Counts, key: &'static str, by: u64) {
    *counts.entry(key).or_insert(0) += by;
}

fn add_cache_stats(counts: &mut Counts, s: CacheStats) {
    counts.insert("sched_runs", s.misses);
    counts.insert("cache_hits", s.hits);
    counts.insert("spill_steps", s.spill_steps);
    counts.insert("traj_resumes", s.traj_resumes);
    counts.insert("traj_hits", s.traj_hits);
}

/// Sends one request to the farm, failing on any non-2xx reply.
fn request(
    tr: &mut Tracer,
    span: &str,
    item: Option<u64>,
    farm: &ncdrf_farm::Farm,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let (status, reply) = tr.span(span, item, |tr| {
        let r = ncdrf_farm::api::route(farm, method, path, body, 0);
        tr.attr("status", u64::from(r.0));
        r
    });
    if !(200..300).contains(&status) {
        return Err(format!("{method} {path} refused with {status}: {reply}"));
    }
    Ok((status, reply))
}

/// The string member `key` of a flat JSON object reply.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// One farm job from submit to report on a fresh in-process farm: a
/// single worker loop claims a lease, evaluates it on `pool`, renders
/// and delivers the artifact and polls the job status, until no lease is
/// left; then fetches the report. With `probe`, each lease also times a
/// grid rebuild of its own (`farm.grid_rebuild`).
fn farm_round(
    tr: &mut Tracer,
    pool: &Arc<Pool>,
    round: u64,
    probe: bool,
) -> Result<Outcome, String> {
    tr.span("replay.job", Some(round), |tr| {
        let farm = ncdrf_farm::Farm::new(FarmConfig::default());
        let (_, receipt) = request(tr, "farm.submit", None, &farm, "POST", "/jobs", FARM_SPEC)?;
        let job = json_str(&receipt, "job")
            .ok_or_else(|| format!("submit receipt without a job id: {receipt}"))?
            .to_owned();
        let mut counts = Counts::new();
        let mut leases = 0u64;
        loop {
            let (status, body) = request(tr, "farm.claim", None, &farm, "POST", "/leases", WORKER)?;
            if status == 204 {
                break;
            }
            let offer = tr.span("farm.offer_parse", None, |_| LeaseOffer::from_json(&body))?;
            let lease = Some(offer.lease);
            tr.span("replay.lease", lease, |tr| -> Result<(), String> {
                if probe {
                    // Prices the grid rebuild `evaluate_lease` does, by
                    // running one more beside it.
                    tr.span("farm.grid_rebuild", lease, |_| {
                        ncdrf::rebuild_grid(&offer.signature).map(drop)
                    })
                    .map_err(err)?;
                }
                let shard = tr.span("farm.evaluate_lease", lease, |_| {
                    ncdrf_farm::evaluate_lease(&offer, Some(Arc::clone(pool)))
                })?;
                let artifact = tr.span("report.render", lease, |tr| {
                    let json = shard.render(ReportFormat::Json);
                    tr.attr("bytes", json.len() as u64);
                    json
                });
                bump(&mut counts, "render_bytes", artifact.len() as u64);
                bump(&mut counts, "offer_bytes", body.len() as u64);
                let path = format!("/leases/{}/artifact", offer.lease);
                request(tr, "farm.deliver", lease, &farm, "POST", &path, &artifact)?;
                request(
                    tr,
                    "farm.status",
                    lease,
                    &farm,
                    "GET",
                    &format!("/jobs/{job}"),
                    "",
                )?;
                Ok(())
            })?;
            leases += 1;
        }
        let (_, output) = request(
            tr,
            "farm.report",
            None,
            &farm,
            "GET",
            &format!("/jobs/{job}/report"),
            "",
        )?;
        let status = farm.status(&job).map_err(err)?;
        counts.insert("cells", status.cells as u64);
        counts.insert("leases", leases);
        bump(&mut counts, "render_bytes", output.len() as u64);
        add_cache_stats(&mut counts, status.scheduling.unwrap_or_default());
        Ok(Outcome { output, counts })
    })
}

/// Per-`(machine, model, budget)` integer aggregates the replay checks
/// against the sequential report: cycles, accesses, loops spilled.
type Aggregates = BTreeMap<(String, ModelId, u32), (u128, u128, usize)>;

/// Replays a grid's cells as `Sweep::run_sequential` evaluates them, one
/// session per machine, timing each call into a layer: the base schedule
/// (`sched.base`), the swap pass (`swap`), per-model analyses
/// (`regalloc.analyze`) and budgeted evaluations (`spill.evaluate`, with
/// budgets descending as the sweep orders them). The base and swapped
/// schedules are fetched first so that the later calls find them cached
/// and each span holds one layer's work.
fn replay_grid(
    tr: &mut Tracer,
    corpus: &Corpus,
    grid: &str,
    reference: &SweepReport,
) -> Result<(), String> {
    let sig = ncdrf::preset_sweep(corpus, grid)
        .expect("the preset grids exist")
        .signature();
    let machines: Vec<Machine> = sig
        .machines
        .iter()
        .map(|m| ncdrf::machine_from_name(&m.name).ok_or_else(|| format!("machine `{}`", m.name)))
        .collect::<Result<_, _>>()?;
    let swaps = sig.models.iter().any(|m| m.spec().swaps());
    let mut budgets: Vec<u32> = sig.budgets.clone();
    budgets.sort_by(|a, b| b.cmp(a));
    let n = corpus.len();
    let mut aggregates = Aggregates::new();
    let mut stats = CacheStats::default();
    for (mi, machine) in machines.iter().enumerate() {
        let session = Session::new(machine.clone());
        for (li, l) in corpus.iter().enumerate() {
            let cell = Some((mi * n + li) as u64);
            tr.span("replay.cell", cell, |tr| -> Result<(), String> {
                let base = tr
                    .span("sched.base", cell, |_| session.base(l))
                    .map_err(err)?;
                let swapped = if swaps {
                    Some(
                        tr.span("swap", cell, |_| session.swapped_base(l))
                            .map_err(err)?,
                    )
                } else {
                    None
                };
                if !sig.points.is_empty() {
                    for &m in &sig.models {
                        tr.span("regalloc.analyze", cell, |_| session.analyze(l, m))
                            .map_err(err)?;
                    }
                }
                for &budget in &budgets {
                    let evaluate = |tr: &mut Tracer, m: ModelId, ideal_mem_ops: usize| {
                        let base_ii = match (&swapped, m.spec().swaps()) {
                            (Some(s), true) => s.sched.ii(),
                            _ => base.sched.ii(),
                        };
                        tr.span("spill.evaluate", cell, |tr| {
                            let e = session.evaluate(l, m, budget);
                            if let Ok(e) = &e {
                                tr.attr("fits", u64::from(e.fits));
                                tr.attr("ii_raised", u64::from(e.ii > base_ii));
                                tr.attr(
                                    "mem_ops_added",
                                    e.mem_ops.saturating_sub(ideal_mem_ops) as u64,
                                );
                            }
                            e
                        })
                        .map_err(err)
                    };
                    let ideal = evaluate(tr, ModelId::IDEAL, l.memory_ops())?;
                    for &m in &sig.models {
                        let e = if m == ModelId::IDEAL {
                            ideal.clone()
                        } else {
                            evaluate(tr, m, ideal.mem_ops)?
                        };
                        let a = aggregates
                            .entry((machine.name().to_owned(), m, budget))
                            .or_insert((0, 0, 0));
                        a.0 += e.cycles();
                        a.1 += e.accesses();
                        a.2 += usize::from(e.spilled > 0);
                    }
                }
                Ok(())
            })?;
        }
        stats.absorb(session.cache_stats());
    }
    check_aggregates(&aggregates, reference)?;
    // The replay's own lookups add cache hits; every other counter must
    // match the sequential run exactly.
    let r = reference.scheduling;
    let same = |a: u64, b: u64, what: &str| {
        if a == b {
            Ok(())
        } else {
            Err(format!("replay {what} {a} != sequential {b}"))
        }
    };
    same(stats.misses, r.misses, "schedule runs")?;
    same(stats.spill_steps, r.spill_steps, "spill steps")?;
    same(stats.traj_resumes, r.traj_resumes, "trajectory resumes")?;
    same(stats.traj_hits, r.traj_hits, "trajectory hits")
}

fn check_aggregates(replay: &Aggregates, reference: &SweepReport) -> Result<(), String> {
    if replay.len() != reference.outcomes.len() {
        return Err(format!(
            "replay produced {} outcomes, the sequential report {}",
            replay.len(),
            reference.outcomes.len()
        ));
    }
    for o in &reference.outcomes {
        let key = (o.config.clone(), o.model, o.registers);
        let got = replay.get(&key).copied();
        if got != Some((o.cycles, o.accesses, o.loops_spilled)) {
            return Err(format!(
                "replay outcome {key:?} = {got:?}, sequential = {:?}",
                (o.cycles, o.accesses, o.loops_spilled)
            ));
        }
    }
    Ok(())
}

/// Compares a run's output with the reference byte for byte, naming the
/// first differing byte.
pub fn check_output(actual: &str, reference: &str) -> Result<(), String> {
    if actual == reference {
        return Ok(());
    }
    let at = actual
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(actual.len().min(reference.len()));
    let context = |s: &str| {
        s.get(at.saturating_sub(20)..(at + 20).min(s.len()))
            .unwrap_or("")
            .to_owned()
    };
    Err(format!(
        "output differs from the sequential reference at byte {at} of {} (reference {} bytes): \
         got `{}`, expected `{}`",
        actual.len(),
        reference.len(),
        context(actual),
        context(reference)
    ))
}

/// Compares a run's counts with the workload's pinned counts and with
/// the first run's, naming the first mismatch.
pub fn check_counts(w: Workload, first: &Counts, counts: &Counts) -> Result<(), String> {
    for &(key, want) in w.pinned_counts() {
        let got = counts.get(key).copied();
        if got != Some(want) {
            return Err(format!("work count `{key}` is {got:?}, pinned at {want}"));
        }
    }
    if counts != first {
        return Err(format!(
            "work counts {counts:?} differ from the first run's {first:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> String {
        let corpus = Corpus::small().take(3);
        let sweep = ncdrf::preset_sweep(&corpus, "fig89").unwrap().workers(1);
        sweep.run().unwrap().render(ReportFormat::Json)
    }

    #[test]
    fn the_output_check_accepts_the_reference_and_rejects_a_corrupted_report() {
        let reference = tiny_report();
        assert!(check_output(&reference, &reference).is_ok());

        // Flip one digit in the middle of the report.
        let at = reference
            .char_indices()
            .skip(reference.len() / 2)
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .unwrap();
        let mut bytes = reference.clone().into_bytes();
        bytes[at] = if bytes[at] == b'9' {
            b'8'
        } else {
            bytes[at] + 1
        };
        let corrupted = String::from_utf8(bytes).unwrap();
        let e = check_output(&corrupted, &reference).unwrap_err();
        assert!(e.contains(&format!("byte {at}")), "{e}");

        // A truncated report is refused too.
        let truncated = &reference[..reference.len() - 1];
        assert!(check_output(truncated, &reference).is_err());
    }

    #[test]
    fn the_count_guard_rejects_different_work() {
        let mut counts: Counts = Workload::FarmJob.pinned_counts().iter().copied().collect();
        counts.insert("unpinned", 10);
        assert!(check_counts(Workload::FarmJob, &counts, &counts).is_ok());
        let mut other = counts.clone();
        other.insert("unpinned", 11);
        assert!(check_counts(Workload::FarmJob, &counts, &other).is_err());
        let mut fewer = counts.clone();
        fewer.insert("leases", 49);
        assert!(check_counts(Workload::FarmJob, &fewer, &fewer).is_err());
    }

    #[test]
    fn the_default_seed_reproduces_the_small_corpus() {
        assert_eq!(weighted_small(STANDARD_SEED), Corpus::small());
        let other = weighted_small(7);
        let names = |c: &Corpus| c.iter().map(|l| l.name().to_owned()).collect::<Vec<_>>();
        assert_eq!(names(&other), names(&Corpus::small()));
        assert_ne!(other, Corpus::small());
    }

    #[test]
    fn shard_orders_are_permutations() {
        for seed in 0..50 {
            let mut order = shard_order(seed);
            order.sort_unstable();
            assert_eq!(order, (0..SHARDS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn json_str_reads_a_flat_member() {
        let body = r#"{"job":"job-1","cells":400,"state":"queued"}"#;
        assert_eq!(json_str(body, "job"), Some("job-1"));
        assert_eq!(json_str(body, "state"), Some("queued"));
        assert_eq!(json_str(body, "missing"), None);
    }
}
