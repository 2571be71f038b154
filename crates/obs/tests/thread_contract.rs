//! Which threads record into a context: the one it is installed on, and
//! the pool workers of a parallel region that thread submits. A bare
//! `std::thread` has no installed context, so its hooks record nothing.
//!
//! This lives in an integration test because the pool (the `rayon` shim)
//! links `simprof-obs` itself: a unit test's copy of the crate would not
//! share the pool's context stack.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use simprof_obs::{counter_add, span, ObsContext, SpanNode};

/// Every node named `name` in `nodes`' subtrees.
fn collect<'a>(nodes: &'a [SpanNode], name: &str, out: &mut Vec<&'a SpanNode>) {
    for n in nodes {
        if n.name == name {
            out.push(n);
        }
        collect(&n.children, name, out);
    }
}

#[test]
fn bare_threads_record_nothing_and_pool_workers_record_into_the_submitter() {
    // Eight items over two participants are eight one-item chunks.
    const ITEMS: u64 = 8;
    rayon::set_threads(2);
    let arrived = AtomicUsize::new(0);
    let ctx = ObsContext::new();
    {
        let _installed = ctx.install();
        let _driver = span!("driver");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!simprof_obs::enabled(), "nothing is installed on a bare thread");
                let _w = span!("bare_thread_task");
                counter_add("bare.items", 1);
            });
        });
        let squares: Vec<u64> = (0..ITEMS)
            .into_par_iter()
            .map(|i| {
                let _item = span!("region.item");
                counter_add("region.items", 1);
                // Items 0 and 1 wait for each other, so whichever
                // participant holds one cannot take the other: one of them
                // runs on the pool worker.
                if i < 2 {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while arrived.load(Ordering::SeqCst) < 2 {
                        assert!(Instant::now() < deadline, "items 0 and 1 never overlapped");
                        std::thread::yield_now();
                    }
                }
                i * i
            })
            .collect();
        assert_eq!(squares.len() as u64, ITEMS);
    }
    rayon::set_threads(0);
    let report = ctx.finish_report();

    assert!(report.find_span("bare_thread_task").is_none(), "bare thread leaked a span");
    assert!(!report.metrics.counters.contains_key("bare.items"), "bare thread leaked a count");

    assert_eq!(report.metrics.counters["region.items"], ITEMS, "every item counted once");
    let driver = report.find_span("driver").expect("driver span").thread;
    let worker = report.find_span("parallel.worker").expect("pool worker recorded here");
    assert_ne!(worker.thread, driver, "the worker span is on its own thread");
    let mut items = Vec::new();
    collect(&report.spans, "region.item", &mut items);
    assert_eq!(items.len() as u64, ITEMS, "every item span lands in the submitter's context");
    assert!(items.iter().any(|n| n.thread != driver), "an item ran on the pool worker");
}
