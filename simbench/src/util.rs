//! Small shared pieces: order statistics, output digests, heap windows.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

use simprof_core::{Analysis, Estimate, SimulationPoints};
use simprof_profiler::SamplingUnit;
use simprof_stats::split_seed;

/// Sampling-point budget of every job (the paper's 20 points).
pub const POINTS: usize = 20;
/// z-score of every confidence interval (the paper's 99.7 %).
pub const Z: f64 = 3.0;
/// Relative error `points_at_5pct` sizes the sample for.
pub const REL_ERR: f64 = 0.05;

/// Runs `f(0)`, …, `f(n - 1)` on `workers` threads in a closed loop: a
/// worker takes the next index as soon as it is free. Results come back
/// in index order.
pub fn on_workers<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // A work counter only: it publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("benchmark worker panicked")).collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A deterministic 64-bit digest. `DefaultHasher::new()` uses
/// fixed keys, so digests repeat across runs of one binary, which is all
/// the in-process comparisons need.
pub struct Digest(DefaultHasher);

impl Digest {
    pub fn new() -> Self {
        Self(DefaultHasher::new())
    }

    pub fn add<T: Hash + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.hash(&mut self.0);
        self
    }

    pub fn f64s(&mut self, v: &[f64]) -> &mut Self {
        for x in v {
            x.to_bits().hash(&mut self.0);
        }
        self
    }

    pub fn units(&mut self, units: &[SamplingUnit]) -> &mut Self {
        for u in units {
            self.add(&u.id).add(&u.snapshots).add(&u.truncated).add(&u.dropped_snapshots);
            for &(m, n) in &u.histogram {
                self.add(&m.index()).add(&n);
            }
            let c = &u.counters;
            self.add(&[
                c.instructions,
                c.cycles,
                c.accesses,
                c.l1_misses,
                c.l2_misses,
                c.llc_misses,
                c.io_stall_cycles,
            ]);
            self.add(&u.slices);
        }
        self
    }

    /// Covers everything a job's analysis decides: per-unit CPIs, chosen
    /// k, every assignment, the point ids, the estimate's bits and the
    /// required sample size.
    pub fn analysis(
        &mut self,
        a: &Analysis,
        points: &SimulationPoints,
        est: &Estimate,
        need: usize,
    ) -> &mut Self {
        self.f64s(&a.cpis).add(&a.k()).add(&a.model.assignments).add(&points.points);
        self.f64s(&[est.mean_cpi, est.se]).add(&need)
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Tracks the process heap high-water mark over the timed work only:
/// [`pause`](PeakWindow::pause) before untimed bookkeeping, then
/// [`resume`](PeakWindow::resume).
#[derive(Default)]
pub struct PeakWindow {
    max: usize,
}

impl PeakWindow {
    pub fn resume(&mut self) {
        simprof_obs::alloc::reset_peak();
    }

    pub fn pause(&mut self) {
        self.max = self.max.max(simprof_obs::alloc::peak_alloc_bytes());
    }

    pub fn max_bytes(&self) -> usize {
        self.max
    }
}

/// The sampling half of `simprof run` / `simprof select`, after the
/// analysis: 20 points, their estimate, and the sample size for ±5 %.
pub fn sample(a: &Analysis, seed: u64) -> (SimulationPoints, Estimate, usize) {
    let points = a.select_points(POINTS, split_seed(seed, 0x5E1E));
    let est = a.estimate(&points, Z);
    let need = a.required_size(Z, REL_ERR);
    (points, est, need)
}

/// Point selections averaged into one job's CPI error.
pub const ERR_DRAWS: u64 = 64;

/// Mean relative error (%) of the 20-point estimate against the
/// full-trace oracle over [`ERR_DRAWS`] seeded point selections, the
/// first being the job's own. One selection's error is a single random
/// draw; the mean is what a change to the pipeline can move.
pub fn mean_err_pct(a: &Analysis, seed: u64) -> f64 {
    let oracle = a.oracle_cpi();
    let total: f64 = (0..ERR_DRAWS)
        .map(|r| {
            let points = a.select_points(POINTS, split_seed(seed, 0x5E1E + r));
            (a.estimate(&points, Z).mean_cpi - oracle).abs() / oracle * 100.0
        })
        .sum();
    total / ERR_DRAWS as f64
}

/// Checks a job's sampling outputs: the allocation spends exactly the
/// budget and the estimate is finite.
pub fn check_sampling(points: &SimulationPoints, est: &Estimate, units: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let budget = POINTS.min(units);
    let spent: usize = points.allocation.iter().sum();
    if spent != budget || points.len() != budget {
        problems.push(format!(
            "allocation spends {spent} ({} points) of a {budget}-point budget",
            points.len()
        ));
    }
    if !est.mean_cpi.is_finite() || !est.se.is_finite() {
        problems.push(format!("non-finite estimate {} ± {}", est.mean_cpi, est.se));
    }
    problems
}
