//! The traced run: an in-memory span recorder, timing wrappers around the
//! layers' public traits, and the decomposed job paths that call each
//! layer through them.
//!
//! The decomposed paths repeat, step for step, what
//! `WorkloadId::run_full` and `SimProf::analyze_stream` do internally, so
//! every layer boundary is a call the benchmark can time. Each traced job
//! is checked against the production path it copies (same trace, same k,
//! same assignments, same shard bytes), which catches this copy drifting
//! from the crates.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use simprof_core::{
    homogeneity, phase_stats, phase_weights, Analysis, Estimate, FeatureStats, PhaseModel,
    SimProfConfig, SimulationPoints,
};
use simprof_engine::{ExecListener, FaultEvent, MethodId, MethodRegistry, OpClass, Scheduler};
use simprof_profiler::{ProfileTrace, SamplingManager, SamplingUnit, UnitSink, UnitStream};
use simprof_sim::{CoreId, Machine};
use simprof_stats::{choose_k, choose_k_with_cache, split_seed, DistCache, Matrix};
use simprof_workloads::{WorkloadConfig, WorkloadId};

use crate::util::{POINTS, REL_ERR, Z};

/// One recorded span. Fine-grained calls (one per scheduler quantum or
/// per unit) are recorded as one aggregate span per job: `start`/`end`
/// bound the first and last call, `busy_ns` sums the calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// Records spans in memory; they are written out once the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), job: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens the root span of job `job`.
    pub fn begin_job(&mut self, job: u32) {
        assert!(self.stack.is_empty(), "a job span is already open");
        self.job = job;
        self.open("job");
    }

    pub fn end_job(&mut self) {
        self.close();
        assert!(self.stack.is_empty(), "unclosed spans at the end of a job");
    }

    fn open(&mut self, name: &'static str) {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let i = self.stack.pop().expect("close without open");
        let now = self.ns(Instant::now());
        let s = &mut self.spans[i];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Records an aggregate span for the calls `acc` timed, as a child of
    /// span `parent` (or of the open span when `None`). Returns its index.
    pub fn aggregate(&mut self, name: &'static str, parent: Option<usize>, acc: &Acc) -> usize {
        let (start, end) = match (acc.first, acc.last) {
            (Some(a), Some(b)) => (self.ns(a), self.ns(b)),
            _ => {
                let now = self.ns(Instant::now());
                (now, now)
            }
        };
        self.spans.push(Span {
            name,
            job: self.job,
            parent: parent.or(self.stack.last().copied()),
            start_ns: start,
            end_ns: end,
            busy_ns: acc.busy_ns,
            calls: acc.calls,
        });
        self.spans.len() - 1
    }

    /// Index of the most recently closed span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &str) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        );
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
                 \"busy_ns\":{},\"calls\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )
            .map_err(|e| format!("write {path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("write {path}: {e}"))
    }
}

/// Busy time and call count of one wrapped, frequently called function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    first: Option<Instant>,
    last: Option<Instant>,
    busy_ns: u64,
    calls: u64,
}

impl Acc {
    fn record(&mut self, start: Instant) {
        let end = Instant::now();
        self.first.get_or_insert(start);
        self.last = Some(end);
        self.busy_ns += end.saturating_duration_since(start).as_nanos() as u64;
        self.calls += 1;
    }
}

/// An [`ExecListener`] wrapper timing every callback of `inner`.
pub struct TimedListener<L> {
    pub inner: L,
    pub acc: Acc,
}

impl<L: ExecListener> ExecListener for TimedListener<L> {
    fn on_progress(&mut self, core: CoreId, instrs: u64, stack: &[MethodId], m: &Machine) {
        let t = Instant::now();
        self.inner.on_progress(core, instrs, stack, m);
        self.acc.record(t);
    }

    fn on_stage_end(&mut self, stage: &str, m: &Machine) {
        let t = Instant::now();
        self.inner.on_stage_end(stage, m);
        self.acc.record(t);
    }

    fn on_fault(&mut self, event: &FaultEvent, m: &Machine) {
        let t = Instant::now();
        self.inner.on_fault(event, m);
        self.acc.record(t);
    }
}

/// A [`UnitSink`] wrapper timing every unit `inner` accepts (`acc`) and
/// the end-of-run flush (`flush`).
#[derive(Debug)]
pub struct TimedSink<S> {
    pub inner: S,
    pub acc: Acc,
    pub flush: Acc,
}

impl<S: UnitSink> UnitSink for TimedSink<S> {
    fn accept(&mut self, unit: &SamplingUnit) {
        let t = Instant::now();
        self.inner.accept(unit);
        self.acc.record(t);
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        self.inner.on_fault(event);
    }

    fn finish(&mut self) {
        let t = Instant::now();
        self.inner.finish();
        self.flush.record(t);
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }

    fn stop_requested(&self) -> bool {
        self.inner.stop_requested()
    }
}

/// A [`UnitStream`] wrapper timing every read and rewind of `inner`.
pub struct TimedStream<S> {
    pub inner: S,
    pub acc: Acc,
    pub units: u64,
}

impl<S: UnitStream> TimedStream<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, acc: Acc::default(), units: 0 }
    }
}

impl<S: UnitStream> UnitStream for TimedStream<S> {
    fn unit_instrs(&self) -> u64 {
        self.inner.unit_instrs()
    }

    fn snapshot_instrs(&self) -> u64 {
        self.inner.snapshot_instrs()
    }

    fn core(&self) -> usize {
        self.inner.core()
    }

    fn rewind(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.rewind();
        self.acc.record(t);
        r
    }

    fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String> {
        let t = Instant::now();
        let r = self.inner.next_unit();
        self.acc.record(t);
        if matches!(r, Ok(Some(_))) {
            self.units += 1;
        }
        r
    }
}

/// What a decomposed profile run returns, like `RunOutput`.
pub struct Profiled {
    pub trace: ProfileTrace,
    pub registry: MethodRegistry,
    pub total_instrs: u64,
}

/// `WorkloadId::run_full_with_sinks`, one layer call at a time: build the
/// job, wire the JVM GC noise exactly as the catalog does, and schedule it
/// with a timed listener around the sampling manager. Opens
/// `workloads.build`, `engine.run` (with an aggregate `profiler.listener`
/// child) and `profiler.finish`; the caller's sinks are attached to the
/// manager before the run, as in the catalog.
pub fn profile_traced(
    tr: &mut Tracer,
    w: WorkloadId,
    cfg: &WorkloadConfig,
    sinks: Vec<Box<dyn UnitSink>>,
) -> Profiled {
    let mut machine = Machine::new(cfg.machine);
    let mut registry = MethodRegistry::new();
    let job = tr.span("workloads.build", |_| {
        w.benchmark.build(w.framework, cfg, &mut machine, &mut registry)
    });
    // The catalog's GC-noise wiring (`profile_job_with_sinks`), copied:
    // the traced-equals-production check fails if the two drift apart.
    let mut sched = cfg.sched;
    if cfg.gc_noise_ppm > 0 {
        let gc = registry.intern("jvm.GCTaskThread.run", OpClass::Framework);
        sched.gc = Some(simprof_engine::sched::GcModel {
            method: gc,
            probability_ppm: cfg.gc_noise_ppm,
            pause_cycles: 800,
            seed: cfg.sub_seed(0x6C),
        });
    }
    let mut manager = SamplingManager::new(cfg.profiler);
    for sink in sinks {
        manager.add_sink(sink);
    }
    let mut listener = TimedListener { inner: manager, acc: Acc::default() };
    tr.span("engine.run", |tr| {
        Scheduler::new(sched).run(&mut machine, &job, &mut listener);
        tr.aggregate("profiler.listener", None, &listener.acc);
    });
    let trace = tr.span("profiler.finish", |_| listener.inner.finish());
    Profiled { trace, registry, total_instrs: job.total_instrs() }
}

/// `SimProf::analyze_stream` (default configuration at `seed`), one layer
/// call at a time. Opens `core.features` (both passes, with an aggregate
/// child named `read_span` for the stream's reads), `stats.dist_cache`,
/// `stats.choose_k` and `core.summarize`. Returns the analysis and the
/// number of k values the sweep scored.
pub fn analyze_traced<S: UnitStream>(
    tr: &mut Tracer,
    seed: u64,
    stream: &mut TimedStream<S>,
    read_span: &'static str,
) -> Result<(Analysis, usize), String> {
    let config = SimProfConfig { seed, ..Default::default() };
    if stream.unit_instrs() == 0 {
        return Err("trace declares a zero sampling-unit size".into());
    }
    let (space, projected, cpis) = tr.span("core.features", |tr| {
        let out = two_passes(stream, config.top_k);
        tr.aggregate(read_span, None, &stream.acc);
        out
    })?;
    let n = projected.rows();
    let selection = if n < 3 || config.k_max.min(n) < 2 {
        // `choose_k` short-circuits to one phase without a distance cache.
        tr.span("stats.choose_k", |_| {
            choose_k(
                &projected,
                config.k_max,
                config.silhouette_threshold,
                config.min_structure,
                config.seed,
            )
        })
    } else {
        let cache = tr.span("stats.dist_cache", |_| DistCache::build(&projected));
        tr.span("stats.choose_k", |_| {
            choose_k_with_cache(
                &projected,
                &cache,
                config.k_max,
                config.silhouette_threshold,
                config.min_structure,
                config.seed,
            )
        })
    };
    let swept = selection.scores.len();
    let analysis = tr.span("core.summarize", |_| {
        let model = PhaseModel {
            space,
            centers: selection.result.centers,
            assignments: selection.result.assignments,
            k_scores: selection.scores,
        };
        let k = model.k();
        let stats = phase_stats(&cpis, &model.assignments, k);
        let weights = phase_weights(&model.assignments, k);
        let cov = homogeneity(&cpis, &model.assignments);
        Analysis { config, model, cpis, stats, weights, cov }
    });
    Ok((analysis, swept))
}

/// `util::sample`, one span per call: `core.select`, `core.estimate`,
/// `core.required_size`.
pub fn sample_traced(
    tr: &mut Tracer,
    a: &Analysis,
    seed: u64,
) -> (SimulationPoints, Estimate, usize) {
    let points = tr.span("core.select", |_| a.select_points(POINTS, split_seed(seed, 0x5E1E)));
    let est = tr.span("core.estimate", |_| a.estimate(&points, Z));
    let need = tr.span("core.required_size", |_| a.required_size(Z, REL_ERR));
    (points, est, need)
}

type Fitted = (simprof_core::FeatureSpace, Matrix, Vec<f64>);

/// Pass 1 (sufficient statistics and CPIs) and pass 2 (projection), as in
/// `SimProf::analyze_stream`.
fn two_passes<S: UnitStream>(stream: &mut S, top_k: usize) -> Result<Fitted, String> {
    stream.rewind()?;
    let mut stats = FeatureStats::new();
    let mut cpis = Vec::new();
    while let Some(unit) = stream.next_unit()? {
        if unit.counters.instructions == 0 {
            return Err(format!("sampling unit {} retired zero instructions", unit.id));
        }
        stats.push(unit);
        cpis.push(unit.cpi());
    }
    if cpis.is_empty() {
        return Err("profile trace contains no sampling units".into());
    }
    let space = stats.into_space(top_k);
    stream.rewind()?;
    let mut projected = Matrix::zeros(cpis.len(), space.dim());
    let mut i = 0;
    while let Some(unit) = stream.next_unit()? {
        if i >= cpis.len() {
            return Err("stream yielded more units on pass 2 than on pass 1".into());
        }
        space.project_unit_into(unit, projected.row_mut(i));
        i += 1;
    }
    if i != cpis.len() {
        return Err(format!("stream yielded {i} units on pass 2, {} on pass 1", cpis.len()));
    }
    Ok((space, projected, cpis))
}

/// The layer a span's self time is charged to (`None`: the job root).
pub fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "workloads.build" => "workloads",
        "engine.run" => "engine",
        "profiler.listener" | "profiler.finish" => "profiler",
        "trace.create" | "trace.write" | "trace.finish" => "trace.write",
        "trace.open" | "trace.read" => "trace.read",
        "core.features" | "core.mem_read" => "core.features",
        "stats.dist_cache" => "stats.dist_cache",
        "stats.choose_k" => "stats.choose_k",
        "core.summarize" | "core.select" | "core.estimate" | "core.required_size" => {
            "core.sampling"
        }
        "service.validate" | "service.admit" => "service",
        _ => return None,
    })
}

/// Per-layer totals over a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub busy_s: f64,
    pub self_s: f64,
    pub calls: u64,
}

/// Summary of a traced run's spans.
pub struct Breakdown {
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Wall time of every job root span, in job order.
    pub job_wall_s: Vec<f64>,
    /// Per job: the share of its root span no child span covers.
    pub unattributed: Vec<f64>,
}

/// Folds spans into per-layer busy and self time. A span's self time is
/// its busy time minus its children's busy time.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_busy[p] += s.busy_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut job_wall_s = Vec::new();
    let mut unattributed = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.busy_ns.saturating_sub(child_busy[i]);
        match layer_of(s.name) {
            Some(layer) => {
                let t = layers.entry(layer).or_default();
                t.busy_s += s.busy_ns as f64 * 1e-9;
                t.self_s += self_ns as f64 * 1e-9;
                t.calls += s.calls;
            }
            None if s.name == "job" => {
                job_wall_s.push(s.busy_ns as f64 * 1e-9);
                unattributed.push(self_ns as f64 / s.busy_ns.max(1) as f64);
            }
            None => {}
        }
    }
    Breakdown { layers, job_wall_s, unattributed }
}
