//! Cross-commit golden digests for the workload build layer.
//!
//! The builders in `simprof-workloads` may be rewritten for speed, but every
//! job they produce must stay bit-identical: same sampling units, same
//! method registry, same task and instruction counts. This test pins one
//! 64-bit digest per job for all twelve workloads at tiny scale under two
//! seeds. The pinned values were produced by the builders before any of
//! them was optimised, so a mismatch here means a builder changed the job,
//! not just its speed.
//!
//! The digest covers, in order: every unit's id, snapshot count, histogram,
//! counters, slices and fault flags; the registry's method names and classes
//! in id order; `total_tasks`; `total_instrs`. It deliberately avoids
//! `format!("{:?}", registry)`, whose `HashMap` iteration order differs from
//! run to run.

use simprof::engine::MethodId;
use simprof::workloads::{RunOutput, WorkloadConfig, WorkloadId};

/// FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(out: &RunOutput) -> u64 {
    let mut h = Fnv::new();
    let t = &out.trace;
    h.u64(t.unit_instrs);
    h.u64(t.snapshot_instrs);
    h.u64(t.core as u64);
    h.u64(t.units.len() as u64);
    for u in &t.units {
        h.u64(u.id);
        h.u64(u64::from(u.snapshots));
        h.u64(u.histogram.len() as u64);
        for &(m, n) in &u.histogram {
            h.u64(u64::from(m.0));
            h.u64(u64::from(n));
        }
        let c = &u.counters;
        for v in [
            c.instructions,
            c.cycles,
            c.accesses,
            c.l1_misses,
            c.l2_misses,
            c.llc_misses,
            c.io_stall_cycles,
        ] {
            h.u64(v);
        }
        h.u64(u.slices.len() as u64);
        for &(i, c) in &u.slices {
            h.u64(i);
            h.u64(c);
        }
        h.u64(u64::from(u.truncated));
        h.u64(u64::from(u.dropped_snapshots));
    }
    h.u64(out.registry.len() as u64);
    for i in 0..out.registry.len() {
        let id = MethodId(i as u32);
        h.str(out.registry.name(id));
        h.str(out.registry.class(id).label());
    }
    h.u64(out.total_tasks as u64);
    h.u64(out.total_instrs);
    h.0
}

/// `(label, digest at tiny(7), digest at tiny(1234))`, in
/// [`WorkloadId::all`] order.
const GOLDEN: [(&str, u64, u64); 12] = [
    ("sort_hp", 0x618e901a05a4f6e2, 0x9b31d747b7faafcf),
    ("sort_sp", 0x1bdddd4d9fca7eb5, 0xfb15e5eabce44e80),
    ("wc_hp", 0xcfe4fa3aa14f0b1c, 0x3b31fc6a8ab3dd81),
    ("wc_sp", 0x72c1a18c0de9d61b, 0x5fa64b875d73b0f2),
    ("grep_hp", 0xd9fc5245431e2ac1, 0x00f8d202ffe47c5b),
    ("grep_sp", 0x02f1365ce7b6e619, 0x8be61a5246d8fa0e),
    ("bayes_hp", 0x968d5e68a8350e85, 0xd637e8bc8e75e6f5),
    ("bayes_sp", 0xc2793294ea88893e, 0x5a4fc04200da7e9a),
    ("cc_hp", 0xa29df2cc80f9961d, 0xb203239ce5de85b3),
    ("cc_sp", 0x501228d652114ca4, 0xccc470098af770a6),
    ("rank_hp", 0x592671f1445b62cd, 0xc9138fbbe09be3c2),
    ("rank_sp", 0xc956b4880f3588e6, 0xfedc698c22a8fabf),
];

#[test]
fn every_job_matches_its_golden_digest() {
    let cfgs = [WorkloadConfig::tiny(7), WorkloadConfig::tiny(1234)];
    let mut actual = Vec::new();
    for w in WorkloadId::all() {
        let d: Vec<u64> = cfgs.iter().map(|cfg| digest(&w.run_full(cfg))).collect();
        actual.push((w.label(), d[0], d[1]));
    }
    let table: String =
        actual.iter().map(|(l, a, b)| format!("    (\"{l}\", {a:#018x}, {b:#018x}),\n")).collect();
    let expected: Vec<(String, u64, u64)> =
        GOLDEN.iter().map(|&(l, a, b)| (l.to_owned(), a, b)).collect();
    assert_eq!(actual, expected, "job digests changed; the builders now produce:\n{table}");
}
