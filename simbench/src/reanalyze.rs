//! `reanalyze_paper`: paper-scale traces written once at set-up, then
//! analyzed again and again from disk, the way `simprof select` reads a
//! saved trace: stream it through the two-pass analysis, select 20
//! points, estimate, size the sample for ±5 %. Loads the trace reader,
//! core features and stats; never builds or simulates a workload. Jobs
//! run `nproc` at a time, each on one thread.

use std::time::Instant;

use simprof_core::{SimProf, SimProfConfig};
use simprof_profiler::{SharedSink, UnitSink};
use simprof_stats::split_seed;
use simprof_trace::{read_trace, Codec, TraceMeta, TraceReader, TraceWriter};
use simprof_workloads::{WorkloadConfig, WorkloadId};

use crate::layers::{analyze_traced, sample_traced, TimedStream, Tracer};
use crate::util::{check_sampling, mean_err_pct, on_workers, sample, Digest, PeakWindow};
use crate::{Ctx, Job, Pass, Quality, TracedRun, Workload};

/// Workload seeds per workload: 12 × 4 traces. The slowest analyses
/// (grep's) set `job_p90_s`, and their cost varies with the input, so the
/// tail needs several inputs per workload to be a property of the
/// pipeline rather than of one seed.
const TRACE_SEEDS: u64 = 4;
/// Pipeline seeds each trace is analyzed under: 48 × 3 jobs per pass.
const PIPELINE_SEEDS: u64 = 3;

struct TraceFile {
    path: String,
    /// Instructions of the simulated job the trace came from.
    instrs: u64,
    /// Digest of the units `run_full` produced, to check the disk copy.
    units_digest: u64,
}

pub struct Reanalyze {
    seed: u64,
    nproc: usize,
    dir: String,
    traces: Vec<TraceFile>,
}

impl Reanalyze {
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            seed: ctx.seed,
            nproc: ctx.nproc,
            dir: format!("{}/traces", ctx.work),
            traces: Vec::new(),
        }
    }

    fn pipeline_seed(&self, j: u64) -> u64 {
        split_seed(self.seed, 0x91 + j)
    }

    /// The jobs of one pass: (trace index, pipeline seed).
    fn jobs(&self) -> Vec<(usize, u64)> {
        (0..self.traces.len())
            .flat_map(|t| (0..PIPELINE_SEEDS).map(move |j| (t, j)))
            .map(|(t, j)| (t, self.pipeline_seed(j)))
            .collect()
    }
}

/// Writes one paper-scale trace the way `simprof profile -o` does.
fn write_trace(
    w: WorkloadId,
    seed: u64,
    codec: Option<Codec>,
    path: &str,
) -> Result<TraceFile, String> {
    let cfg = WorkloadConfig::paper(seed);
    let meta = TraceMeta {
        label: w.label(),
        seed,
        scale: "paper".into(),
        unit_instrs: cfg.profiler.unit_instrs,
        snapshot_instrs: cfg.profiler.snapshot_instrs,
        core: cfg.profiler.core,
    };
    let writer = match codec {
        None => TraceWriter::create(path, &meta)?,
        Some(c) => TraceWriter::create_compressed(path, &meta, c)?,
    };
    let shared = SharedSink::new(writer);
    let sinks: Vec<Box<dyn UnitSink>> = vec![Box::new(shared.clone())];
    let out = w.run_full_with_sinks(&cfg, sinks);
    shared.lock().finish(&out.registry)?;
    Ok(TraceFile {
        path: path.to_owned(),
        instrs: out.total_instrs,
        units_digest: Digest::new().units(&out.trace.units).finish(),
    })
}

impl Reanalyze {
    /// One job: the trace streamed from disk through the analysis and the
    /// sampling, timed from open to `required_size`.
    fn job(&self, t: usize, seed: u64) -> Job {
        let tf = &self.traces[t];
        let start = Instant::now();
        let sampled = TraceReader::open(&tf.path).and_then(|mut reader| {
            let a = SimProf::new(SimProfConfig { seed, ..Default::default() })
                .analyze_stream(&mut reader)
                .map_err(|e| e.to_string())?;
            let (points, est, need) = sample(&a, seed);
            Ok((a, points, est, need))
        });
        let secs = start.elapsed().as_secs_f64();
        match sampled {
            Ok((a, points, est, need)) => Job {
                secs,
                units: a.cpis.len() as u64,
                instrs: tf.instrs,
                digest: Digest::new().analysis(&a, &points, &est, need).finish(),
                problems: check_sampling(&points, &est, a.cpis.len()),
            },
            Err(e) => Job {
                secs,
                units: 0,
                instrs: 0,
                digest: 0,
                problems: vec![format!("{}: {e}", tf.path)],
            },
        }
    }

    /// One pass of every job on `workers` one-thread workers.
    fn run_pass(&self, workers: usize) -> Pass {
        let jobs = self.jobs();
        let t = Instant::now();
        let jobs = on_workers(workers, jobs.len(), |i| self.job(jobs[i].0, jobs[i].1));
        Pass { wall: t.elapsed().as_secs_f64(), jobs }
    }
}

impl Workload for Reanalyze {
    fn setup(&mut self) -> Result<(), String> {
        // Every job is one-threaded and `nproc` run at once: a parallel
        // pool waits at each barrier for its slowest thread, which on a
        // shared host turned every stolen time slice into a stall.
        rayon::set_threads(1);
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("create {}: {e}", self.dir))?;
        // 12 workloads × 4 seeds; each workload gets two default (v2) and
        // two LZ-compressed (v3) traces.
        let mut todo = Vec::new();
        for (i, w) in WorkloadId::all().into_iter().enumerate() {
            for s in 0..TRACE_SEEDS {
                let seed = split_seed(self.seed, 0x7E + s) >> 16;
                let codec = [None, Some(Codec::Lz)][(i + s as usize) % 2];
                todo.push((w, seed, codec, format!("{}/{}-{s}.sptrc", self.dir, w.label())));
            }
        }
        self.traces = on_workers(self.nproc, todo.len(), |i| {
            let (w, seed, codec, path) = &todo[i];
            write_trace(*w, *seed, *codec, path)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        // One warm-up analysis.
        let warm = self.job(0, self.pipeline_seed(0));
        warm.problems.into_iter().next().map_or(Ok(()), Err)
    }

    fn pass(&mut self, _index: usize, _peak: &mut PeakWindow) -> Result<Pass, String> {
        Ok(self.run_pass(self.nproc))
    }

    fn quality(&mut self, passes: &[Pass]) -> Result<Quality, String> {
        // The streamed analysis from disk must equal, bit for bit, the
        // in-memory analysis of the same trace: every trace is checked
        // under one of its pipeline seeds, taken in turn. Those in-memory
        // analyses also give the result-quality figures.
        let mut problems = Vec::new();
        let (mut bytes, mut err, mut need) = (0, 0.0, 0.0);
        for (t, tf) in self.traces.iter().enumerate() {
            bytes += std::fs::metadata(&tf.path).map_err(|e| format!("{}: {e}", tf.path))?.len();
            let (trace, _) = read_trace(&tf.path)?;
            if Digest::new().units(&trace.units).finish() != tf.units_digest {
                problems.push(format!("{}: units read back differ from the run", tf.path));
            }
            let j = t as u64 % PIPELINE_SEEDS;
            let seed = self.pipeline_seed(j);
            let a = SimProf::new(SimProfConfig { seed, ..Default::default() })
                .analyze(&trace)
                .map_err(|e| format!("{}: {e}", tf.path))?;
            let (points, est, n) = sample(&a, seed);
            let digest = Digest::new().analysis(&a, &points, &est, n).finish();
            if digest != passes[0].jobs[t * PIPELINE_SEEDS as usize + j as usize].digest {
                problems.push(format!(
                    "{} seed {seed}: streamed analysis differs from in-memory analysis",
                    tf.path
                ));
            }
            err += mean_err_pct(&a, seed);
            need += n as f64;
        }
        let traces = self.traces.len().max(1) as f64;
        let units: u64 =
            passes[0].jobs.iter().step_by(PIPELINE_SEEDS as usize).map(|j| j.units).sum();
        Ok(Quality {
            cpi_err_pct: err / traces,
            points_at_5pct: need / traces,
            store_bytes_per_unit: bytes as f64 / units.max(1) as f64,
            problems,
        })
    }

    fn traced(&mut self, _passes: &[Pass]) -> Result<TracedRun, String> {
        // The untraced baseline at the traced pass's schedule: one worker.
        let mut run =
            TracedRun { baseline_wall: Some(self.run_pass(1).wall), ..Default::default() };
        let mut tr = Tracer::new();
        for (j, (t, seed)) in self.jobs().into_iter().enumerate() {
            let path = &self.traces[t].path;
            let start = Instant::now();
            tr.begin_job(j as u32);
            let reader = tr.span("trace.open", |_| TraceReader::open(path))?;
            let mut stream = TimedStream::new(reader);
            let sampled =
                analyze_traced(&mut tr, seed, &mut stream, "trace.read").map(|(a, swept)| {
                    let (points, est, need) = sample_traced(&mut tr, &a, seed);
                    (a, swept, points, est, need)
                });
            tr.end_job();
            run.wall += start.elapsed().as_secs_f64();
            run.count("trace.read_units", stream.units as f64);
            match sampled {
                Ok((a, swept, points, est, need)) => {
                    run.count("stats.k_swept", swept as f64);
                    run.digests.push(Digest::new().analysis(&a, &points, &est, need).finish());
                }
                Err(e) => {
                    run.problems.push(format!("traced {path}: {e}"));
                    run.digests.push(0);
                }
            }
        }
        run.tracer = tr;
        Ok(run)
    }
}
