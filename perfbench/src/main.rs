//! The repository benchmark: one command, three workloads, every metric
//! printed by name and unit, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <extended|shard-certify|farm-job> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root; scratch files go under `.perfbench/`.
//! With `--trace 0` the run warms up (untimed set-ups and one untimed
//! run), then for `--seconds` repeatedly sets the workload up three times
//! and runs it once on a pool of `min(nproc, 2)` workers, timing both;
//! then it computes the sequential reference and checks every run's
//! output and work counts against it. With `--trace 1` it runs the workload once untraced, then
//! replays its calls single-threaded four times — untraced, traced,
//! traced, untraced — writes the first traced replay's spans to
//! `.perfbench/trace/<workload>-seed<n>.tsv` and derives the per-layer
//! metrics from that file. The last stdout line is the JSON result.

// Timing is this program's job: the workspace's ban on direct clock
// reads (`clippy.toml`) keeps the library deterministic, not its benchmark.
#![allow(clippy::disallowed_methods)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux layout");

mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use metrics::{RunResult, TraceContext, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{check_counts, check_output, Counts, Outcome, Workload};

const USAGE: &str = "usage: perfbench --workload <extended|shard-certify|farm-job> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed before each timed run; `setup_s` is the median over all
/// of them, so set-up is sampled across the whole measurement rather
/// than in one burst. They are dropped at once: every run uses the first
/// set-up's pool, so its worker threads (and their allocator arenas) stay
/// the same from run to run.
const SETUPS_PER_RUN: usize = 3;

/// Untimed set-ups that warm the fresh process up before any is timed.
const WARM_UP_SETUPS: usize = 6;

/// Timed runs per measurement at least, however short `--seconds`.
const MIN_RUNS: usize = 3;

/// Pool workers: the host's parallelism, capped so that hosts of
/// different sizes run the same pool.
const MAX_WORKERS: usize = 2;

/// Where the benchmark keeps its scratch files, under the working
/// directory.
const SCRATCH: &str = ".perfbench";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = measure(&args);
    let _ = std::fs::remove_dir_all(tmp_dir());
    // Only succeeds once no other run's directory is left in it.
    let _ = std::fs::remove_dir(Path::new(SCRATCH).join("tmp"));
    match result {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// This process's temporary directory, removed when the run ends.
fn tmp_dir() -> PathBuf {
    Path::new(SCRATCH)
        .join("tmp")
        .join(std::process::id().to_string())
}

/// Sets the workload up `n` times, keeping the last, and appends each
/// set-up's time to `times`.
fn set_up(args: &Args, n: usize, times: &mut Vec<f64>) -> Result<workloads::Setup, String> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_WORKERS);
    let tmp = tmp_dir();
    let mut kept = None;
    for _ in 0..n {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(workloads::setup(args.workload, args.seed, workers, &tmp)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(kept.expect("at least one set-up"))
}

fn measure(args: &Args) -> Result<RunResult, String> {
    let setup = set_up(args, WARM_UP_SETUPS, &mut Vec::new())?;
    eprintln!(
        "perfbench: {} seed {} on {} workers",
        args.name,
        args.seed,
        setup.workers()
    );
    if args.trace {
        traced(args, &setup)
    } else {
        untraced(args, setup)
    }
}

/// One timed run: wall and CPU seconds around `Setup::run`.
fn timed_run(setup: &workloads::Setup, i: usize) -> (Result<Outcome, String>, f64, f64) {
    let cpu0 = sys::cpu_s();
    let t = Instant::now();
    let outcome = setup.run(i);
    let wall = t.elapsed().as_secs_f64();
    (outcome, wall, sys::cpu_s() - cpu0)
}

/// Checks runs against the reference: output bytes, pinned counts, and
/// counts equal to the first run's. Returns the failed-run count.
fn check_runs(w: Workload, runs: &[Result<Outcome, String>], reference: Result<&str, &str>) -> u64 {
    let first: Option<&Counts> = runs.iter().find_map(|r| r.as_ref().ok()).map(|o| &o.counts);
    if let Some(counts) = first {
        let line: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("work: {}", line.join(" "));
    }
    let mut failed = 0;
    for (i, run) in runs.iter().enumerate() {
        let verdict = run.as_ref().map_err(Clone::clone).and_then(|o| {
            let reference = reference.map_err(|e| format!("no reference: {e}"))?;
            check_output(&o.output, reference)?;
            check_counts(w, first.expect("a run succeeded"), &o.counts)
        });
        if let Err(e) = verdict {
            eprintln!("perfbench: run {i} failed: {e}");
            failed += 1;
        }
    }
    failed
}

fn untraced(args: &Args, setup: workloads::Setup) -> Result<RunResult, String> {
    let budget = Duration::from_secs(args.seconds);
    // One untimed warm-up run (still checked) lets allocator and page
    // cache state settle before timing starts.
    let (warm_up, _, _) = timed_run(&setup, 0);
    let mut runs = vec![warm_up];
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        drop(set_up(args, SETUPS_PER_RUN, &mut setups)?);
        let (outcome, wall, cpu) = timed_run(&setup, runs.len());
        runs.push(outcome);
        walls.push(wall);
        cpus.push(cpu);
        let elapsed = start.elapsed();
        if (elapsed >= budget && walls.len() >= MIN_RUNS) || elapsed >= 4 * budget {
            break;
        }
    }
    let peak_rss_mb = sys::peak_rss_mb()?;
    let reference = setup.reference();
    let failed = check_runs(
        args.workload,
        &runs,
        reference
            .as_ref()
            .map(|r| r.output.as_str())
            .map_err(String::as_str),
    );
    let cells = runs
        .iter()
        .find_map(|r| r.as_ref().ok())
        .map_or(0, |o| o.counts.get("cells").copied().unwrap_or(0));
    let wall_s = stats::median(&walls);
    eprintln!(
        "perfbench: {} timed runs, wall {walls:.3?} s, cpu {cpus:.3?} s, set-ups {setups:.4?} s",
        walls.len()
    );
    let values = [
        stats::median(&setups),
        wall_s,
        cells as f64 / wall_s,
        stats::median(&cpus),
        peak_rss_mb,
    ];
    Ok(RunResult {
        correct: failed == 0,
        attempted: runs.len() as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
    })
}

fn trace_path(args: &Args) -> PathBuf {
    Path::new(SCRATCH)
        .join("trace")
        .join(format!("{}-seed{}.tsv", args.name, args.seed))
}

fn traced(args: &Args, setup: &workloads::Setup) -> Result<RunResult, String> {
    let (run, wall, cpu) = timed_run(setup, 0);
    let busy_ratio = cpu / (wall * setup.workers() as f64);
    let reference = setup.reference();
    let mut failed = check_runs(
        args.workload,
        std::slice::from_ref(&run),
        reference
            .as_ref()
            .map(|r| r.output.as_str())
            .map_err(String::as_str),
    );
    let reference = reference?;

    let mut replay = |enabled: bool| {
        let mut tr = trace::Tracer::new(enabled);
        let t = Instant::now();
        let checked = setup.replay(&mut tr, &reference);
        let wall = t.elapsed().as_secs_f64();
        if let Err(e) = checked {
            eprintln!("perfbench: replay (tracing {enabled}) failed: {e}");
            failed += 1;
        }
        (tr, wall)
    };
    // Untraced, traced, traced, untraced: a drift in host speed over the
    // four replays cancels out of the overhead.
    let (_, plain_a) = replay(false);
    let (tr, traced_a) = replay(true);
    let (_, traced_b) = replay(true);
    let (_, plain_b) = replay(false);
    let overhead_s = (traced_a + traced_b - plain_a - plain_b) / 2.0;
    eprintln!(
        "perfbench: pooled run {wall:.3} s; replays {plain_a:.3} / {traced_a:.3} / {traced_b:.3} / \
         {plain_b:.3} s (untraced / traced / traced / untraced)"
    );

    let path = trace_path(args);
    trace::write_spans(&path, tr.spans())?;
    let spans = trace::read_spans(&path)?;
    let counts = run.as_ref().map(|o| o.counts.clone()).unwrap_or_default();
    let ctx = TraceContext {
        counts: &counts,
        busy_ratio,
        overhead_s,
    };
    let values = metrics::per_layer(&spans, &ctx).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        failed += 1;
        vec![0.0; PER_LAYER.len()]
    });
    Ok(RunResult {
        correct: failed == 0,
        // The pooled run and the four replays.
        attempted: 5,
        failed,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
    })
}
