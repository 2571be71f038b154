//! Regression test: `reset_peak()` re-bases the process peak-allocation
//! high-water mark under the real global allocator, so a run measured
//! after it reports only its own peak, not a previous run's. Benchmark
//! harnesses rely on this between back-to-back measured passes.
//!
//! This binary installs [`TrackingAllocator`] globally (it is the only
//! test in the file, so nothing else perturbs the counters).

use simprof_obs::{current_alloc_bytes, peak_alloc_bytes, reset_peak, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn reset_peak_rebaselines_the_global_peak() {
    const SPIKE: usize = 8 << 20;

    // Leave a large high-water mark from "the previous run".
    let spike = std::hint::black_box(vec![0u8; SPIKE]);
    drop(spike);
    assert!(
        peak_alloc_bytes() >= current_alloc_bytes() + SPIKE,
        "spike must register as the peak before the reset"
    );

    reset_peak();
    let baseline = current_alloc_bytes();
    assert!(
        peak_alloc_bytes() < baseline + SPIKE / 2,
        "reset_peak() must re-base the peak: got {} over a baseline of {}",
        peak_alloc_bytes(),
        baseline
    );

    // Later allocations still raise the peak normally.
    let work = std::hint::black_box(vec![0u8; SPIKE / 4]);
    assert!(peak_alloc_bytes() >= baseline + SPIKE / 4);
    drop(work);
}
