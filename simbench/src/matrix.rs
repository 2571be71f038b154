//! `matrix_paper`: the twelve Table I workloads at paper scale, one after
//! another, each the way `simprof run` does it: profile, analyze, select
//! 20 points, estimate, size the sample for ±5 %. Loads workload build,
//! engine, profiler and stats; writes no trace.

use std::time::Instant;

use simprof_core::{validate_trace, Analysis, Estimate, SimProf, SimProfConfig, SimulationPoints};
use simprof_profiler::MemStream;
use simprof_stats::split_seed;
use simprof_trace::{TraceMeta, TraceWriter};
use simprof_workloads::{RunOutput, WorkloadConfig, WorkloadId};

use crate::layers::{analyze_traced, profile_traced, sample_traced, TimedStream, Tracer};
use crate::util::{check_sampling, mean_err_pct, median, sample, Digest, PeakWindow};
use crate::{Ctx, Job, Pass, Quality, TracedRun, Workload};

/// Input seeds the passes cycle through. Twelve traces are a small
/// sample of the inputs; two input sets halve how much the result
/// figures depend on the one seed a run is given.
const INPUTS: usize = 2;

pub struct Matrix {
    seed: u64,
    nproc: usize,
    /// Per job of the first cycle: (CPI error %, points for ±5 %, stored
    /// bytes).
    first: Vec<(f64, f64, u64)>,
}

impl Matrix {
    pub fn new(ctx: &Ctx) -> Self {
        Self { seed: ctx.seed, nproc: ctx.nproc, first: Vec::new() }
    }

    /// The configuration of pass `index`.
    fn config(&self, index: usize) -> WorkloadConfig {
        WorkloadConfig::paper(split_seed(self.seed, (index % INPUTS) as u64) >> 16)
    }
}

/// A job's analysis and its sampling outputs.
type Sampled = (Analysis, SimulationPoints, Estimate, usize);

/// `simprof run -w <w> --scale paper --seed <seed>`, minus printing.
fn run_job(w: WorkloadId, cfg: &WorkloadConfig) -> (RunOutput, Result<Sampled, String>) {
    let out = w.run_full(cfg);
    let analyzed = SimProf::new(SimProfConfig { seed: cfg.seed, ..Default::default() })
        .analyze(&out.trace)
        .map_err(|e| format!("{}: analyze: {e}", w.label()))
        .map(|a| {
            let (points, est, need) = sample(&a, cfg.seed);
            (a, points, est, need)
        });
    (out, analyzed)
}

/// Bytes the default trace writer stores for `out`, encoded in memory.
fn stored_bytes(w: WorkloadId, cfg: &WorkloadConfig, out: &RunOutput) -> Result<u64, String> {
    let meta = TraceMeta {
        label: w.label(),
        seed: cfg.seed,
        scale: "paper".into(),
        unit_instrs: cfg.profiler.unit_instrs,
        snapshot_instrs: cfg.profiler.snapshot_instrs,
        core: cfg.profiler.core,
    };
    let mut writer = TraceWriter::in_memory(&meta)?;
    for u in &out.trace.units {
        writer.push(u);
    }
    writer.finish(&out.registry)?;
    Ok(writer.into_bytes().len() as u64)
}

impl Workload for Matrix {
    fn setup(&mut self) -> Result<(), String> {
        rayon::set_threads(self.nproc);
        // One warm-up job spawns the worker pool and warms the allocator.
        let (_, analyzed) =
            run_job(WorkloadId::all()[0], &WorkloadConfig::paper(split_seed(self.seed, 0x3A)));
        analyzed.map(|_| ())
    }

    fn period(&self) -> usize {
        INPUTS
    }

    fn pass(&mut self, index: usize, peak: &mut PeakWindow) -> Result<Pass, String> {
        let cfg = self.config(index);
        let mut jobs = Vec::new();
        for w in WorkloadId::all() {
            let t = Instant::now();
            let (out, analyzed) = run_job(w, &cfg);
            let secs = t.elapsed().as_secs_f64();
            peak.pause();
            let mut problems = Vec::new();
            if let Err(e) = validate_trace(&out.trace) {
                problems.push(format!("{}: invalid trace: {e}", w.label()));
            }
            let mut digest = Digest::new();
            digest.units(&out.trace.units);
            match &analyzed {
                Ok((a, points, est, need)) => {
                    problems.extend(check_sampling(points, est, a.cpis.len()));
                    digest.analysis(a, points, est, *need);
                    if index < INPUTS {
                        let bytes = stored_bytes(w, &cfg, &out)?;
                        self.first.push((mean_err_pct(a, cfg.seed), *need as f64, bytes));
                    }
                }
                Err(e) => problems.push(e.clone()),
            }
            jobs.push(Job {
                secs,
                units: out.trace.units.len() as u64,
                instrs: out.total_instrs,
                digest: digest.finish(),
                problems,
            });
            drop(out);
            peak.resume();
        }
        Ok(Pass { wall: jobs.iter().map(|j| j.secs).sum(), jobs })
    }

    fn quality(&mut self, passes: &[Pass]) -> Result<Quality, String> {
        let n = self.first.len().max(1) as f64;
        let units: u64 = passes[..INPUTS].iter().flat_map(|p| &p.jobs).map(|j| j.units).sum();
        Ok(Quality {
            cpi_err_pct: self.first.iter().map(|f| f.0).sum::<f64>() / n,
            points_at_5pct: self.first.iter().map(|f| f.1).sum::<f64>() / n,
            store_bytes_per_unit: self.first.iter().map(|f| f.2).sum::<u64>() as f64
                / units.max(1) as f64,
            problems: Vec::new(),
        })
    }

    fn traced(&mut self, passes: &[Pass]) -> Result<TracedRun, String> {
        let cfg = self.config(0);
        let mut tr = Tracer::new();
        let mut run = TracedRun::default();
        // The untraced baseline: the timed passes on the same inputs.
        let same_inputs: Vec<f64> = passes.iter().step_by(INPUTS).map(|p| p.wall).collect();
        run.baseline_wall = Some(median(&same_inputs));
        for (j, w) in WorkloadId::all().into_iter().enumerate() {
            let t = Instant::now();
            tr.begin_job(j as u32);
            let p = profile_traced(&mut tr, w, &cfg, Vec::new());
            let mut stream = TimedStream::new(MemStream::new(&p.trace));
            let analyzed = analyze_traced(&mut tr, cfg.seed, &mut stream, "core.mem_read");
            let sampled = analyzed.map(|(a, swept)| {
                let (points, est, need) = sample_traced(&mut tr, &a, cfg.seed);
                (a, swept, points, est, need)
            });
            tr.end_job();
            run.wall += t.elapsed().as_secs_f64();
            run.count("engine.minstr", p.total_instrs as f64 * 1e-6);
            run.count("profiler.units", p.trace.units.len() as f64);
            let mut digest = Digest::new();
            digest.units(&p.trace.units);
            match sampled {
                Ok((a, swept, points, est, need)) => {
                    run.count("stats.k_swept", swept as f64);
                    digest.analysis(&a, &points, &est, need);
                }
                Err(e) => run.problems.push(format!("traced {}: {e}", w.label())),
            }
            run.digests.push(digest.finish());
        }
        run.tracer = tr;
        Ok(run)
    }
}
