//! The SimProf benchmark: one process, three workloads, end-to-end and
//! per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload matrix_paper|fleet_tiny|reanalyze_paper \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run sets up repeatedly (reporting
//! the median), then runs closed-loop passes of the workload until the
//! passes have taken `--seconds`, checks every output, and prints one
//! JSON line last on stdout: the end-to-end metrics with `--trace 0`, or
//! the per-layer metrics of one extra traced pass with `--trace 1`. A
//! human-readable report goes to stderr. Scratch files live under
//! `.simbench/` and are removed at exit; a traced run leaves its spans in
//! `.simbench/spans-<workload>-seed<N>.jsonl`. Any failed check makes the
//! exit code 1.

mod fleet;
mod layers;
mod matrix;
mod reanalyze;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use simprof_obs::TrackingAllocator;

use layers::{breakdown, Tracer};
use util::{median, quantile, PeakWindow};

/// Real heap figures for `peak_heap_mb`.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Set-up repeats at least this often, and until the repeats have taken
/// [`SETUP_MIN_SECONDS`]; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// One timed job.
pub struct Job {
    pub secs: f64,
    /// Sampling units the job delivered.
    pub units: u64,
    /// Instructions of the simulated job the units come from.
    pub instrs: u64,
    /// Digest of everything the job produced; must repeat in every pass.
    pub digest: u64,
    pub problems: Vec<String>,
}

/// One closed-loop pass over a workload's job list.
pub struct Pass {
    pub wall: f64,
    pub jobs: Vec<Job>,
}

/// Result-quality figures, computed after the timed phase.
pub struct Quality {
    pub cpi_err_pct: f64,
    pub points_at_5pct: f64,
    pub store_bytes_per_unit: f64,
    pub problems: Vec<String>,
}

/// One traced pass.
pub struct TracedRun {
    pub tracer: Tracer,
    pub wall: f64,
    /// Untraced wall time of the same schedule, when it is not the timed
    /// passes' median.
    pub baseline_wall: Option<f64>,
    /// Per job, comparable with the first timed pass's digests.
    pub digests: Vec<u64>,
    /// Work counts and service figures, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
}

impl Default for TracedRun {
    fn default() -> Self {
        Self {
            tracer: Tracer::new(),
            wall: 0.0,
            baseline_wall: None,
            digests: Vec::new(),
            counts: BTreeMap::new(),
            problems: Vec::new(),
        }
    }
}

impl TracedRun {
    /// Adds `v` to the count named `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Lazy set-up; called repeatedly, each call a full redo.
    fn setup(&mut self) -> Result<(), String>;
    /// Passes after which the job list repeats: pass `i` must reproduce
    /// the outputs of pass `i % period`.
    fn period(&self) -> usize {
        1
    }
    /// One timed pass. Untimed bookkeeping sits between
    /// `peak.pause()` and `peak.resume()`.
    fn pass(&mut self, index: usize, peak: &mut PeakWindow) -> Result<Pass, String>;
    fn quality(&mut self, passes: &[Pass]) -> Result<Quality, String>;
    fn traced(&mut self, passes: &[Pass]) -> Result<TracedRun, String>;
}

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    /// Usable cores; job workers plus pool threads stay within it.
    pub nproc: usize,
    /// Scratch directory of this run, removed at exit.
    pub work: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("invalid --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("invalid --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace `{other}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        nproc,
        work: format!(".simbench/work-{}-{}", args.workload, std::process::id()),
    };
    let code = match std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("create {}: {e}", ctx.work))
        .and_then(|()| run(&args, &ctx))
    {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simbench: {e}");
            1
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::process::exit(code);
}

fn run(args: &Args, ctx: &Ctx) -> Result<i32, String> {
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "matrix_paper" => Box::new(matrix::Matrix::new(ctx)),
        "fleet_tiny" => Box::new(fleet::Fleet::new(ctx)),
        "reanalyze_paper" => Box::new(reanalyze::Reanalyze::new(ctx)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (matrix_paper, fleet_tiny, reanalyze_paper)"
            ))
        }
    };
    eprintln!("simbench {} seed {} on {} cores", args.workload, ctx.seed, ctx.nproc);

    // Set up repeatedly: a single set-up of a fraction of a second is at
    // the mercy of one scheduling hiccup.
    let mut setup = Vec::new();
    while setup.len() < SETUP_MIN_REPS || setup.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let t = Instant::now();
        wl.setup()?;
        setup.push(t.elapsed().as_secs_f64());
    }

    // The timed phase: whole passes until they have taken `--seconds`,
    // and at least one full cycle of the workload's inputs.
    let period = wl.period();
    let mut peak = PeakWindow::default();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < period || passes.iter().map(|p| p.wall).sum::<f64>() < args.seconds {
        peak.resume();
        let pass = wl.pass(passes.len(), &mut peak)?;
        peak.pause();
        passes.push(pass);
    }

    let mut problems: Vec<String> = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        for (j, job) in pass.jobs.iter().enumerate() {
            problems.extend(job.problems.iter().map(|p| format!("pass {i} job {j}: {p}")));
            if job.digest != passes[i % period].jobs[j].digest {
                problems.push(format!(
                    "pass {i} job {j}: output digest differs from pass {}",
                    i % period
                ));
            }
        }
    }
    let quality = wl.quality(&passes)?;
    problems.extend(quality.problems.iter().cloned());

    let jobs: Vec<&Job> = passes.iter().flat_map(|p| &p.jobs).collect();
    let job_secs: Vec<f64> = jobs.iter().map(|j| j.secs).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let total_wall: f64 = walls.iter().sum();
    let units: u64 = jobs.iter().map(|j| j.units).sum();
    let instrs: u64 = jobs.iter().map(|j| j.instrs).sum();
    let mut attempted = jobs.len();

    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&setup), "s"),
        ("wall_s", median(&walls), "s"),
        ("units_per_s", units as f64 / total_wall, "1/s"),
        ("sim_minstr_per_s", instrs as f64 * 1e-6 / total_wall, "Minstr/s"),
        ("job_p50_s", median(&job_secs), "s"),
        ("job_p90_s", quantile(&job_secs, 0.9), "s"),
        ("peak_heap_mb", peak.max_bytes() as f64 / (1u64 << 20) as f64, "MiB"),
        ("cpi_err_pct", quality.cpi_err_pct, "%"),
        ("points_at_5pct", quality.points_at_5pct, "count"),
        ("store_bytes_per_unit", quality.store_bytes_per_unit, "bytes"),
    ];
    let ms = |v: &[f64]| v.iter().map(|s| (s * 1e3).round() as u64).collect::<Vec<_>>();
    eprintln!(
        "timed phase: {} jobs, {:.2} s; pass walls {:?} ms; setup runs {:?} ms",
        jobs.len(),
        total_wall,
        ms(&walls),
        ms(&setup)
    );

    let mut metrics = e2e.clone();
    if args.trace {
        let traced = wl.traced(&passes)?;
        attempted += traced.digests.len();
        problems.extend(traced.problems.iter().cloned());
        for (j, d) in traced.digests.iter().enumerate() {
            if passes[0].jobs.get(j).map(|job| job.digest) != Some(*d) {
                problems.push(format!("traced job {j}: output differs from the production path"));
            }
        }
        let spans_path = format!(".simbench/spans-{}-seed{}.jsonl", args.workload, ctx.seed);
        traced.tracer.write_jsonl(&spans_path)?;
        metrics = per_layer(&traced, median(&walls));
        print_layers(&traced, &spans_path);
    }

    let failed = problems.len().min(attempted);
    for p in &problems {
        eprintln!("FAILED CHECK: {p}");
    }
    print_e2e(&e2e, failed, attempted, job_secs.len());

    let correct = problems.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { v.to_string() } else { "null".into() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// The `--trace 1` metrics, named after the crates they time.
fn per_layer(t: &TracedRun, untraced_wall: f64) -> Vec<(&'static str, f64, &'static str)> {
    let bd = breakdown(&t.tracer.spans);
    let layer = |name: &str| bd.layers.get(name).copied().unwrap_or_default();
    let count = |name: &str| t.counts.get(name).copied().unwrap_or(0.0);
    let baseline = t.baseline_wall.unwrap_or(untraced_wall);
    vec![
        ("workloads.build_s", layer("workloads").self_s, "s"),
        ("workloads.builds", layer("workloads").calls as f64, "count"),
        ("engine.run_s", layer("engine").self_s, "s"),
        ("engine.minstr", count("engine.minstr"), "Minstr"),
        ("profiler.listener_s", layer("profiler").self_s, "s"),
        ("profiler.units", count("profiler.units"), "count"),
        ("trace.write_s", layer("trace.write").self_s, "s"),
        ("trace.raw_bytes", count("trace.raw_bytes"), "bytes"),
        ("trace.stored_bytes", count("trace.stored_bytes"), "bytes"),
        ("trace.read_s", layer("trace.read").self_s, "s"),
        ("trace.read_units", count("trace.read_units"), "count"),
        ("core.features_s", layer("core.features").self_s, "s"),
        ("stats.dist_cache_s", layer("stats.dist_cache").self_s, "s"),
        ("stats.choose_k_s", layer("stats.choose_k").self_s, "s"),
        ("stats.k_swept", count("stats.k_swept"), "count"),
        ("core.sampling_s", layer("core.sampling").self_s, "s"),
        ("service.run_p50_s", count("service.run_p50_s"), "s"),
        ("service.queue_p50_s", count("service.queue_p50_s"), "s"),
        ("service.self_s", count("service.self_s"), "s"),
        ("service.jobs_failed", count("service.jobs_failed"), "count"),
        ("service.validate_s", count("service.validate_s"), "s"),
        ("unattributed_frac", bd.unattributed.iter().copied().fold(0.0, f64::max), "frac"),
        ("trace_overhead_pct", (t.wall - baseline) / baseline * 100.0, "%"),
    ]
}

fn print_e2e(e2e: &[(&str, f64, &str)], failed: usize, attempted: usize, jobs: usize) {
    eprintln!("end-to-end:");
    for (name, v, unit) in e2e {
        eprintln!("  {name:<22} {v:>14.6} {unit}");
    }
    eprintln!("  {:<22} {:>14.6} frac", "failed_frac", failed as f64 / attempted.max(1) as f64);
    eprintln!("  (job_p50_s/job_p90_s over {jobs} jobs; {} lie beyond p90)", jobs / 10);
}

fn print_layers(t: &TracedRun, spans_path: &str) {
    let bd = breakdown(&t.tracer.spans);
    let job_wall: f64 = bd.job_wall_s.iter().sum();
    eprintln!(
        "traced pass: {} jobs, {:.3} s ({} spans in {spans_path})",
        bd.job_wall_s.len(),
        t.wall,
        t.tracer.spans.len()
    );
    eprintln!("  {:<18} {:>10} {:>10} {:>10} {:>8}", "layer", "busy_s", "self_s", "calls", "share");
    for (name, l) in &bd.layers {
        eprintln!(
            "  {name:<18} {:>10.4} {:>10.4} {:>10} {:>7.1}%",
            l.busy_s,
            l.self_s,
            l.calls,
            l.self_s / job_wall.max(1e-12) * 100.0
        );
    }
    for (name, v) in &t.counts {
        eprintln!("  {name:<24} {v}");
    }
    let over = bd.unattributed.iter().filter(|&&u| u > 0.05).count();
    eprintln!(
        "  unattributed per job: median {:.4}, max {:.4}; {over} of {} jobs above the 5% target",
        median(&bd.unattributed),
        bd.unattributed.iter().copied().fold(0.0, f64::max),
        bd.unattributed.len()
    );
}
