//! `fleet_tiny`: 240 tiny-scale profiling jobs served by one
//! `JobRunner::run` into a fresh `TraceStore`, the way `simprof serve`
//! runs a jobs file. Loads the service, workload build, engine, profiler
//! and the trace writer with both codecs; runs no analysis.

use std::time::Instant;

use simprof_core::{SimProf, SimProfConfig};
use simprof_engine::MethodRegistry;
use simprof_profiler::SharedSink;
use simprof_service::{
    shard_payload_bytes, JobOutcome, JobRunner, JobSpec, ShardRecord, TraceStore,
};
use simprof_sim::Machine;
use simprof_stats::split_seed;
use simprof_trace::{read_trace, Codec, TraceMeta, TraceReader, TraceWriter};
use simprof_workloads::WorkloadId;

use crate::layers::{profile_traced, Acc, TimedSink, Tracer};
use crate::util::{mean_err_pct, median, Digest, PeakWindow, REL_ERR, Z};
use crate::{Ctx, Job, Pass, Quality, TracedRun, Workload};

/// Jobs per pass.
const JOBS: usize = 240;
/// Shards compared unit for unit against a solo `run_full`, per run.
const SOLO_SAMPLE: usize = 12;

pub struct Fleet {
    seed: u64,
    nproc: usize,
    work: String,
    specs: Vec<JobSpec>,
    /// Simulated instructions of each spec's job, filled after pass 0.
    instrs: Vec<u64>,
    /// Stored shard bytes of pass 0.
    first_bytes: u64,
    /// Runner-clock queue time of every timed job, in s.
    queue_s: Vec<f64>,
    jobs_failed: usize,
    problems: Vec<String>,
}

/// The fleet: workloads in Table I order, codecs default / raw / lz in
/// turn, three tenants, a distinct seed per job.
fn fleet_specs(seed: u64) -> Vec<JobSpec> {
    let workloads = WorkloadId::all();
    (0..JOBS)
        .map(|i| {
            let mut spec = JobSpec::new(&format!("job-{i:03}"), &workloads[i % 12].label());
            spec.seed = Some(split_seed(seed, i as u64) >> 16);
            spec.scale = Some("tiny".into());
            spec.codec = [None, Some("raw"), Some("lz")][i % 3].map(str::to_owned);
            spec.tenant = Some(format!("tenant-{}", (i / 3) % 3));
            spec
        })
        .collect()
}

fn shard_digest(store: &TraceStore, id: &str) -> Result<u64, String> {
    let path = store.shard_path(id);
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(Digest::new().add(&bytes).finish())
}

fn fresh_store(root: &str) -> Result<TraceStore, String> {
    let _ = std::fs::remove_dir_all(root);
    TraceStore::create(root)
}

impl Fleet {
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            seed: ctx.seed,
            nproc: ctx.nproc,
            work: ctx.work.clone(),
            specs: fleet_specs(ctx.seed),
            instrs: Vec::new(),
            first_bytes: 0,
            queue_s: Vec::new(),
            jobs_failed: 0,
            problems: Vec::new(),
        }
    }

    fn store_root(&self, name: &str) -> String {
        format!("{}/{name}", self.work)
    }

    /// Instructions each spec's job simulates (built, not run).
    fn job_instrs(&self) -> Result<Vec<u64>, String> {
        self.specs
            .iter()
            .map(|spec| {
                let w = spec.resolve_workload()?;
                let cfg = spec.workload_config()?;
                let mut machine = Machine::new(cfg.machine);
                let mut registry = MethodRegistry::new();
                Ok(w.benchmark.build(w.framework, &cfg, &mut machine, &mut registry).total_instrs())
            })
            .collect()
    }
}

impl Workload for Fleet {
    fn setup(&mut self) -> Result<(), String> {
        // Job workers use every core, so the analysis pool gets none.
        rayon::set_threads(1);
        // A warm-up fleet, one job per workload: code, allocator and
        // file system are warm before the first timed pass.
        let root = self.store_root("setup");
        let runner = JobRunner::new(fresh_store(&root)?).with_max_concurrent(self.nproc);
        let warm: Vec<JobSpec> = self.specs[..12].to_vec();
        for r in runner.run(&warm) {
            r?;
        }
        runner.store().write_index()?;
        std::fs::remove_dir_all(&root).map_err(|e| format!("remove {root}: {e}"))
    }

    fn pass(&mut self, index: usize, peak: &mut PeakWindow) -> Result<Pass, String> {
        let root = self.store_root(&format!("pass-{index}"));
        let runner = JobRunner::new(fresh_store(&root)?).with_max_concurrent(self.nproc);
        let t = Instant::now();
        let results = runner.run(&self.specs);
        runner.store().write_index()?;
        let wall = t.elapsed().as_secs_f64();
        peak.pause();
        if self.instrs.is_empty() {
            self.instrs = self.job_instrs()?;
        }
        let check = TraceStore::validate(&root)?;
        if !check.clean() {
            self.problems.push(format!("pass {index}: store check: {:?}", check.problems));
        }
        let mut jobs = Vec::with_capacity(results.len());
        for (i, r) in results.iter().enumerate() {
            jobs.push(match r {
                Ok(o) => {
                    self.queue_s.push(o.queue_us as f64 * 1e-6);
                    if index == 0 {
                        self.first_bytes += o.trace_bytes;
                    }
                    Job {
                        secs: o.run_us as f64 * 1e-6,
                        units: o.units,
                        instrs: self.instrs[i],
                        digest: shard_digest(runner.store(), &o.id)?,
                        problems: Vec::new(),
                    }
                }
                Err(e) => {
                    self.jobs_failed += 1;
                    Job { secs: 0.0, units: 0, instrs: 0, digest: 0, problems: vec![e.clone()] }
                }
            });
        }
        if index > 0 {
            std::fs::remove_dir_all(&root).map_err(|e| format!("remove {root}: {e}"))?;
        }
        peak.resume();
        Ok(Pass { wall, jobs })
    }

    fn quality(&mut self, passes: &[Pass]) -> Result<Quality, String> {
        let root = self.store_root("pass-0");
        let store = TraceStore::create(&root)?;
        let mut problems = std::mem::take(&mut self.problems);

        // A seeded sample of shards against solo runs, unit for unit.
        for k in 0..SOLO_SAMPLE {
            let i = (split_seed(self.seed, 0x5A + k as u64) as usize % (JOBS / SOLO_SAMPLE))
                * SOLO_SAMPLE
                + k;
            let spec = &self.specs[i];
            let solo = spec.resolve_workload()?.run_full(&spec.workload_config()?);
            let shard = store.shard_path(&spec.id);
            let (stored, _) = read_trace(&shard.to_string_lossy())?;
            if stored.units != solo.trace.units {
                problems.push(format!("{}: shard differs from a solo run_full", spec.id));
            }
        }

        // Result quality of the stored traces, read back and analyzed.
        let (mut err, mut need) = (0.0, 0.0);
        for spec in &self.specs {
            let path = store.shard_path(&spec.id).to_string_lossy().into_owned();
            let mut reader = TraceReader::open(&path)?;
            let a = SimProf::new(SimProfConfig { seed: spec.seed(), ..Default::default() })
                .analyze_stream(&mut reader)
                .map_err(|e| format!("{}: analyze: {e}", spec.id))?;
            err += mean_err_pct(&a, spec.seed());
            need += a.required_size(Z, REL_ERR) as f64;
        }
        let units: u64 = passes[0].jobs.iter().map(|j| j.units).sum();
        Ok(Quality {
            cpi_err_pct: err / JOBS as f64,
            points_at_5pct: need / JOBS as f64,
            store_bytes_per_unit: self.first_bytes as f64 / units.max(1) as f64,
            problems,
        })
    }

    fn traced(&mut self, passes: &[Pass]) -> Result<TracedRun, String> {
        let mut run = TracedRun::default();

        // The untraced baseline at the replay's schedule: one worker.
        let solo_root = self.store_root("solo");
        let solo = JobRunner::new(fresh_store(&solo_root)?).with_max_concurrent(1);
        let t = Instant::now();
        let solo_results = solo.run(&self.specs);
        solo.store().write_index()?;
        run.baseline_wall = Some(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let check = TraceStore::validate(&solo_root)?;
        run.count("service.validate_s", t.elapsed().as_secs_f64());
        if !check.clean() {
            run.problems.push(format!("solo store check: {:?}", check.problems));
        }
        let solo_outcomes: Vec<&JobOutcome> = solo_results
            .iter()
            .filter_map(|r| r.as_ref().map_err(|e| run.problems.push(e.clone())).ok())
            .collect();
        let failed = self.jobs_failed + (solo_results.len() - solo_outcomes.len());
        run.count("service.jobs_failed", failed as f64);
        let run_s: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.jobs)
            .filter(|j| j.problems.is_empty())
            .map(|j| j.secs)
            .collect();
        run.count("service.run_p50_s", median(&run_s));
        run.count("service.queue_p50_s", median(&self.queue_s));

        // Every spec replayed solo through the decomposed, timed path.
        let store = fresh_store(&self.store_root("replay"))?;
        let mut tr = Tracer::new();
        let mut self_s = Vec::new();
        for (j, spec) in self.specs.iter().enumerate() {
            let t = Instant::now();
            tr.begin_job(j as u32);
            let root = tr.spans.len() - 1;
            let (instrs, units) = replay(&mut tr, &store, spec)?;
            tr.end_job();
            run.wall += t.elapsed().as_secs_f64();
            let (stored, raw) = shard_payload_bytes(&store, &spec.id)?;
            run.count("trace.stored_bytes", stored as f64);
            run.count("trace.raw_bytes", raw as f64);
            run.count("engine.minstr", instrs as f64 * 1e-6);
            run.count("profiler.units", units as f64);
            let layer_ns: u64 = tr.spans[root..]
                .iter()
                .filter(|s| s.parent == Some(root) && !s.name.starts_with("service."))
                .map(|s| s.busy_ns)
                .sum();
            if let Some(o) = solo_outcomes.iter().find(|o| o.id == spec.id) {
                self_s.push(o.run_us as f64 * 1e-6 - layer_ns as f64 * 1e-9);
            }
            run.digests.push(shard_digest(&store, &spec.id)?);
        }
        run.count("service.self_s", median(&self_s));
        run.tracer = tr;
        Ok(run)
    }
}

/// One spec through the service's job sequence (`JobRunner::run_one`),
/// each layer call timed: resolve the spec, open the shard, profile into
/// it, seal it and admit it. Returns the job's simulated instructions and
/// its sampling units.
fn replay(tr: &mut Tracer, store: &TraceStore, spec: &JobSpec) -> Result<(u64, u64), String> {
    let (w, cfg, codec) = tr.span("service.validate", |_| -> Result<_, String> {
        spec.validate_id()?;
        Ok((spec.resolve_workload()?, spec.workload_config()?, spec.resolve_codec()?))
    })?;
    let meta = TraceMeta {
        label: spec.workload.clone(),
        seed: spec.seed(),
        scale: spec.scale_name().to_owned(),
        unit_instrs: cfg.profiler.unit_instrs,
        snapshot_instrs: cfg.profiler.snapshot_instrs,
        core: cfg.profiler.core,
    };
    let path = store.shard_path(&spec.id).to_string_lossy().into_owned();
    let writer = tr.span("trace.create", |_| match codec {
        None => TraceWriter::create(&path, &meta),
        Some(c) => TraceWriter::create_compressed(&path, &meta, c),
    })?;
    let shared =
        SharedSink::new(TimedSink { inner: writer, acc: Acc::default(), flush: Acc::default() });
    let p = profile_traced(tr, w, &cfg, vec![Box::new(shared.clone())]);
    {
        let sink = shared.lock();
        tr.aggregate("trace.write", tr.last("profiler.listener"), &sink.acc);
        tr.aggregate("trace.write", tr.last("profiler.finish"), &sink.flush);
    }
    let footer = tr.span("trace.finish", |_| shared.lock().inner.finish(&p.registry))?;
    tr.span("service.admit", |_| -> Result<(), String> {
        let bytes = std::fs::metadata(&path).map_err(|e| format!("stat {path}: {e}"))?.len();
        store.admit(ShardRecord {
            job: spec.id.clone(),
            tenant: spec.tenant().to_owned(),
            file: store.shard_rel(&spec.id),
            bytes,
            units: footer.unit_count,
            layout_version: if codec.is_some() { 3 } else { 2 },
            codec: codec.unwrap_or(Codec::Raw).name().to_owned(),
        })
    })?;
    Ok((p.total_instrs, p.trace.units.len() as u64))
}
