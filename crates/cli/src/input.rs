//! Trace input: every trace-consuming command opens its `.sptrc` file
//! through [`TraceInput`], which reads the header and the footer (O(1) in
//! trace length) and leaves the units on disk until a command streams or
//! materializes them.
//!
//! Analysis routed through [`TraceInput::analyze`] is **bit-identical** to
//! analyzing the in-memory [`ProfileTrace`] directly, because both run the
//! same two-pass streaming pipeline — the file just streams from disk, one
//! chunk at a time.

use simprof_core::{Analysis, SimProf};
use simprof_engine::MethodRegistry;
use simprof_profiler::ProfileTrace;
use simprof_trace::{read_trace, TraceReader};

/// An opened trace file.
#[derive(Debug)]
pub struct TraceInput {
    /// Workload label (`wc_sp`, …).
    pub label: String,
    /// Seed the profiled run used.
    pub seed: u64,
    /// Scale preset name ("paper" / "tiny").
    pub scale: String,
    /// Method names/classes for the trace's method ids.
    pub registry: MethodRegistry,
    path: String,
    unit_count: u64,
}

impl TraceInput {
    /// Opens `path`, reading its header and footer.
    pub fn open(path: &str) -> Result<Self, String> {
        let mut reader = TraceReader::open(path)?;
        let footer = reader.footer()?;
        let meta = reader.meta().clone();
        Ok(Self {
            label: meta.label,
            seed: meta.seed,
            scale: meta.scale,
            registry: footer.registry,
            path: path.to_owned(),
            unit_count: footer.unit_count,
        })
    }

    /// Number of sampling units (from the footer — no unit scan needed).
    pub fn unit_count(&self) -> u64 {
        self.unit_count
    }

    /// Runs the analysis pipeline, streaming the units from disk.
    pub fn analyze(&self, pipeline: &SimProf) -> Result<Analysis, String> {
        let mut reader = TraceReader::open(&self.path)?;
        pipeline.analyze_stream(&mut reader).map_err(|e| format!("analyze: {e}"))
    }

    /// Materializes the whole trace — for commands that genuinely need
    /// every unit in memory (replay, export, baseline comparison).
    pub fn read_trace(&self) -> Result<ProfileTrace, String> {
        Ok(read_trace(&self.path)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_trace::{TraceMeta, TraceWriter};
    use simprof_workloads::{Benchmark, Framework, WorkloadConfig};

    #[test]
    fn opens_and_analyzes_like_the_in_memory_trace() {
        let cfg = WorkloadConfig::tiny(11);
        let out = Benchmark::Grep.run_full(Framework::Spark, &cfg);
        let path = std::env::temp_dir().join("simprof_input_chunked.sptrc");
        let path = path.to_str().unwrap();

        let meta = TraceMeta {
            label: "grep_sp".into(),
            seed: 11,
            scale: "tiny".into(),
            unit_instrs: out.trace.unit_instrs,
            snapshot_instrs: out.trace.snapshot_instrs,
            core: out.trace.core,
        };
        let mut w = TraceWriter::create(path, &meta).unwrap().with_chunk_units(16);
        for u in &out.trace.units {
            w.push(u);
        }
        w.finish(&out.registry).unwrap();

        let input = TraceInput::open(path).unwrap();
        assert_eq!(input.label, "grep_sp");
        assert_eq!(input.seed, 11);
        assert_eq!(input.unit_count(), out.trace.units.len() as u64);
        assert_eq!(input.registry.len(), out.registry.len());

        let sp = SimProf::default();
        let a = sp.analyze(&out.trace).unwrap();
        let b = input.analyze(&sp).unwrap();
        assert_eq!(a.cpis, b.cpis);
        assert_eq!(a.model.assignments, b.model.assignments);
        assert_eq!(a.model.space, b.model.space);
        assert_eq!(a.stats, b.stats);

        // Materializing the file reproduces the trace exactly.
        assert_eq!(input.read_trace().unwrap(), out.trace);

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(TraceInput::open("/nonexistent/simprof.whatever").is_err());
    }
}
