//! The run report: one versioned JSON document per observed run.
//!
//! A [`RunReport`] carries everything a context collected — the span tree
//! and the metric snapshot — plus caller-attached *sections* (free-form
//! JSON values keyed by name: the phase summary, the Eq. 1 allocation
//! table, the estimate). The document is versioned so downstream tooling
//! (CI schema checks, trend dashboards) can evolve without guessing.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;

/// Version of the report schema emitted by [`RunReport::assemble`].
///
/// Version history: 1 = span tree + counters/gauges/min-max histograms;
/// 2 = histogram summaries gained p50/p95/p99 and the metrics snapshot
/// gained the `timeseries` map (both ignorable by v1 readers; v1
/// documents load under v2 via `serde(default)`).
pub const REPORT_VERSION: u32 = 2;

/// One node of the span tree: a completed span and the spans it enclosed
/// on the same thread, in entry order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// The span's label.
    pub name: String,
    /// Small sequential id of the thread the span ran on.
    pub thread: usize,
    /// Microseconds from the context's first span to this span's entry.
    pub start_us: u64,
    /// Wall-clock the span covered, in microseconds (monotonic).
    pub elapsed_us: u64,
    /// Directly enclosed spans, in entry order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first search for the first node named `name` (self included).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The versioned run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`REPORT_VERSION`] for documents this build emits).
    pub version: u32,
    /// The producing tool, for provenance (`simprof-obs`).
    pub generator: String,
    /// Root spans (one subtree per top-level span; worker threads' spans
    /// root at their own thread), in entry order.
    pub spans: Vec<SpanNode>,
    /// The context's metric snapshot.
    pub metrics: MetricsSnapshot,
    /// Caller-attached document sections (phase summary, allocation
    /// table, …), keyed by section name.
    pub sections: BTreeMap<String, serde_json::Value>,
}

impl RunReport {
    /// Builds the report skeleton from a drained context. Start offsets
    /// are re-based so the earliest span starts at 0.
    pub(crate) fn assemble(records: Vec<SpanRecord>, metrics: MetricsSnapshot) -> Self {
        Self {
            version: REPORT_VERSION,
            generator: "simprof-obs".to_owned(),
            spans: build_tree(records),
            metrics,
            sections: BTreeMap::new(),
        }
    }

    /// Attaches (or replaces) a named section; returns `self` for chaining.
    pub fn with_section(mut self, name: &str, value: serde_json::Value) -> Self {
        self.sections.insert(name.to_owned(), value);
        self
    }

    /// Depth-first search across all root spans for a node named `name`.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// Total wall-clock attributed to each thread's root spans, in
    /// microseconds, keyed by thread id (rendered as a string for JSON).
    pub fn thread_totals_us(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.thread.to_string()).or_insert(0) += s.elapsed_us;
        }
        totals
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).map(|s| s + "\n").unwrap_or_default()
    }
}

/// Nests completed records into trees by parent link. Records whose parent
/// never completed (still open when the context finished) become roots. Sibling order is entry order (span ids are
/// assigned at entry).
fn build_tree(mut records: Vec<SpanRecord>) -> Vec<SpanNode> {
    records.sort_by_key(|r| r.id);
    let base_us = records.iter().map(|r| r.start_us).min().unwrap_or(0);
    let present: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();

    // children_of[parent_id] = record ids, in entry order.
    let mut children_of: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (idx, r) in records.iter().enumerate() {
        match r.parent {
            Some(p) if present.contains(&p) => children_of.entry(p).or_default().push(idx),
            _ => roots.push(idx),
        }
    }

    fn build(
        idx: usize,
        records: &[SpanRecord],
        children_of: &BTreeMap<u64, Vec<usize>>,
        base_us: u64,
    ) -> SpanNode {
        let r = &records[idx];
        let children = children_of
            .get(&r.id)
            .map(|ids| ids.iter().map(|&i| build(i, records, children_of, base_us)).collect())
            .unwrap_or_default();
        SpanNode {
            name: r.name.clone(),
            thread: r.thread,
            start_us: r.start_us - base_us,
            elapsed_us: r.elapsed_us,
            children,
        }
    }

    roots.into_iter().map(|idx| build(idx, &records, &children_of, base_us)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, name: &str, start_us: u64) -> SpanRecord {
        SpanRecord { id, parent, name: name.to_owned(), thread: 0, start_us, elapsed_us: 5 }
    }

    #[test]
    fn tree_nests_by_parent_and_rebases_time() {
        let records = vec![
            record(2, Some(1), "child_a", 110),
            record(3, Some(1), "child_b", 120),
            record(1, None, "root", 100),
        ];
        let report = RunReport::assemble(records, MetricsSnapshot::default());
        assert_eq!(report.spans.len(), 1);
        let root = &report.spans[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.start_us, 0, "earliest span re-based to zero");
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["child_a", "child_b"], "siblings in entry order");
        assert_eq!(root.children[0].start_us, 10);
    }

    #[test]
    fn orphaned_spans_become_roots() {
        // Parent id 9 never completed: the child must surface, not vanish.
        let records = vec![record(4, Some(9), "orphan", 50)];
        let report = RunReport::assemble(records, MetricsSnapshot::default());
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "orphan");
    }

    #[test]
    fn report_serde_roundtrip_with_sections() {
        let records = vec![record(1, None, "top", 0)];
        let report = RunReport::assemble(records, MetricsSnapshot::default())
            .with_section(
                "allocation",
                serde_json::json!([serde_json::json!({"phase": 0, "n_h": 3})]),
            )
            .with_section("note", serde_json::json!("hello"));
        let text = report.to_json_pretty();
        assert!(text.ends_with('\n'));
        let back: RunReport = serde_json::from_str(text.trim_end()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.version, REPORT_VERSION);
        assert!(back.sections.contains_key("allocation"));
    }

    #[test]
    fn thread_totals_sum_roots_per_thread() {
        let mut a = record(1, None, "a", 0);
        a.thread = 0;
        let mut b = record(2, None, "b", 0);
        b.thread = 1;
        let mut c = record(3, None, "c", 0);
        c.thread = 1;
        let report = RunReport::assemble(vec![a, b, c], MetricsSnapshot::default());
        let totals = report.thread_totals_us();
        assert_eq!(totals["0"], 5);
        assert_eq!(totals["1"], 10);
    }
}
