//! The repository benchmark: time-to-subset, quality and memory of the
//! subset-selection stack on three workloads, each isolating one layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline-50k|dataflow-50k|ltm-10k --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds the workload's inputs from `--seed` at least
//! [`SETUP_REPS`] times and for at least [`SETUP_SECONDS`], runs the
//! workload's job once untimed as a warm-up, then repeats it for
//! `--seconds` (at least [`MIN_REPS`] times), checking every job's output
//! outside the timed region. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced and
//! `SUBMOD_TRACE=full` jobs and reports the per-layer metrics of the
//! traced ones plus the tracing overhead. The last line of standard
//! output is one JSON object. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use submod_obs::TraceMode;
use workload::{Inputs, Workload};

pub type Error = Box<dyn std::error::Error>;

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups repeat until they have taken this long (cheap set-ups get
/// more samples).
const SETUP_SECONDS: f64 = 3.0;
/// Fewest timed jobs per run (per trace mode in a traced run).
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The process's scratch directory (graph store, spills, journals),
/// under the working directory; removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<ScratchDir> {
        let path = Path::new(".bench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-metric medians over a list of metric maps with the same keys.
fn median_map(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = maps.first() {
        for name in first.keys() {
            let values: Vec<f64> = maps.iter().map(|m| m[name]).collect();
            out.insert(name.clone(), median(&values));
        }
    }
    out
}

/// `VmHWM` (the process's peak resident set) from `/proc/self/status`.
fn peak_rss_kib() -> Result<u64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Resets `VmHWM` to the process's current resident set.
fn reset_peak_rss() -> Result<(), Error> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}").into())
}

fn set_tracing(on: bool) {
    submod_obs::set_mode(if on { TraceMode::Full } else { TraceMode::Off });
}

fn run(args: &Args) -> Result<(), Error> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let threads = workload.pool_threads(nproc);
    submod_exec::set_num_threads(threads);
    let scratch = ScratchDir::create()?;
    let dir = scratch.0.as_path();

    // Set-up, repeated; the last inputs are kept.
    let mut setup_secs = Vec::new();
    let mut setup_layers = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let setup_started = Instant::now();
    while setup_secs.len() < SETUP_REPS || setup_started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(inputs.take());
        set_tracing(args.trace);
        submod_obs::reset();
        let start = Instant::now();
        let built = workload::setup(workload, args.seed, dir)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        set_tracing(false);
        if args.trace {
            let facts = layers::PhaseFacts { dim: built.dim(), ..Default::default() };
            setup_layers.push(layers::phase_metrics(
                &submod_obs::snapshot(),
                &submod_obs::take_spans(),
                facts,
            ));
        }
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    // `peak_rss_mib` covers the kept inputs and the jobs, not the earlier
    // set-ups.
    reset_peak_rss()?;

    let mut reference = None;
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut job_layers = Vec::new();
    let mut quality = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut started = Instant::now();
    loop {
        let enough_time = started.elapsed().as_secs_f64() >= args.seconds;
        let enough_reps =
            untraced_secs.len() >= MIN_REPS && (!args.trace || traced_secs.len() >= MIN_REPS);
        // Jobs that keep failing end the run once its time is up.
        if enough_time && (enough_reps || failed >= MIN_REPS as u64) {
            break;
        }
        // The first job warms the allocator and the pool and is checked
        // but not timed; after it, a traced run alternates untraced and
        // traced jobs.
        let warmup = attempted == 0;
        let traced = args.trace && !warmup && attempted.is_multiple_of(2);
        attempted += 1;
        set_tracing(traced);
        submod_obs::reset();
        let start = Instant::now();
        let result = workload::job(&inputs, dir);
        let secs = start.elapsed().as_secs_f64();
        set_tracing(false);
        if warmup {
            started = Instant::now();
        }
        let snap = submod_obs::snapshot();
        let spans = submod_obs::take_spans();

        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: job {attempted} failed: {e}");
                failed += 1;
                continue;
            }
        };
        if reference.is_none() {
            reference = Some(workload::reference(&inputs, workload::job_graph(&inputs, &out))?);
            // Nor the in-memory reference computations.
            reset_peak_rss()?;
        }
        let reference = reference.as_mut().expect("set above");
        let retries = snap.counters.get("faults.retries").copied().unwrap_or(0);
        let failures = workload::check(&inputs, reference, &out, retries);
        if !failures.is_empty() {
            eprintln!("perfbench: job {attempted} is incorrect: {}", failures.join("; "));
            failed += 1;
            continue;
        }
        quality.push(workload::quality_ratio(reference, &out));
        if warmup {
            continue;
        }
        if traced {
            traced_secs.push(secs);
            let facts = layers::PhaseFacts {
                dim: inputs.dim(),
                decided_fraction: out
                    .bounding
                    .as_ref()
                    .map_or(0.0, |b| b.decision_fraction(inputs.n())),
                worker_peak_bytes: out.pipeline.map_or(0, |m| m.peak_worker_bytes),
            };
            job_layers.push(layers::phase_metrics(&snap, &spans, facts));
        } else {
            untraced_secs.push(secs);
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let setup = median_map(&setup_layers);
        let job = median_map(&job_layers);
        let merged = layers::merge_phases(&setup, &job, workload == Workload::Pipeline50k);
        for (name, unit) in layers::METRICS {
            metrics.push((name.to_string(), merged.get(name).copied().unwrap_or(0.0), unit));
        }
        for span in layers::SELF_TIME_SPANS {
            let name = format!("{span}.self_s");
            let value = merged.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value, "s"));
        }
        let overhead = if traced_secs.is_empty() || untraced_secs.is_empty() {
            0.0
        } else {
            median(&traced_secs) / median(&untraced_secs) - 1.0
        };
        metrics.push(("obs.trace_overhead".into(), overhead, "ratio"));
    } else {
        metrics.push(("setup_s".into(), median(&setup_secs), "s"));
        let time = if untraced_secs.is_empty() { 0.0 } else { median(&untraced_secs) };
        metrics.push(("time_to_subset_s".into(), time, "s"));
        let ratio = if quality.is_empty() { 0.0 } else { median(&quality) };
        metrics.push(("quality_ratio".into(), ratio, "ratio"));
        metrics.push(("peak_rss_mib".into(), peak_rss_kib()? as f64 / 1024.0, "MiB"));
    }

    println!(
        "perfbench workload={} seed={} threads={threads} nproc={nproc} kernels={} trace={} \
         n={} jobs={attempted} failed={failed} untraced={} traced={}",
        workload.name(),
        args.seed,
        submod_kernels::backend().name(),
        if args.trace { "full" } else { "off" },
        inputs.n(),
        untraced_secs.len(),
        traced_secs.len(),
    );
    println!("  setups_s = {setup_secs:.3?}");
    println!("  jobs_s = {untraced_secs:.3?} traced_jobs_s = {traced_secs:.3?}");
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; every ratio above guards its
            // denominator, so this only keeps the line parseable.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
