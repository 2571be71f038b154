//! Property tests for the durability layer (DESIGN.md §14): for any
//! generated trace and any single-byte flip or truncation offset,
//!
//! * reading never panics,
//! * a streamed unit is never *silently* wrong — the frame CRC catches
//!   every flip before the unit reaches the caller, so whatever prefix a
//!   reader yields matches the original bit-for-bit,
//! * after a flip or a truncation, salvage recovers exactly the units of
//!   the chunk frames that are fully intact, and re-sealing them
//!   (`trace-repair`) round-trips bit-identically through the reader,
//! * the same chaos seed produces a bit-identical salvage outcome.
//!
//! The expected-recovery oracle walks the *uncorrupted* bytes with
//! layout knowledge (frame = `kind | codec | stored len u32 LE | stored |
//! crc32`) so the tests pin the format, not the implementation under test.
//! Every property runs for both codecs: raw frames, and LZ frames whose
//! CRC covers the compressed bytes.

use std::io::Cursor;

use proptest::prelude::*;

use simprof_engine::{MethodId, MethodRegistry, OpClass};
use simprof_profiler::trace::SamplingUnit;
use simprof_sim::Counters;
use simprof_trace::{
    salvage_bytes, ChaosPlan, ChaosWriter, Codec, RetryPolicy, Salvage, TraceMeta, TraceReader,
    TraceWriter,
};

fn mk_unit(id: u64) -> SamplingUnit {
    SamplingUnit {
        id,
        histogram: vec![(MethodId((id % 4) as u32), 2 + (id % 3) as u32), (MethodId(9), 1)],
        snapshots: 4,
        counters: Counters {
            instructions: 900 + 7 * id,
            cycles: 1400 + 11 * id,
            ..Default::default()
        },
        slices: vec![(10 * id, 10 * id + 5)],
        truncated: id % 5 == 0,
        dropped_snapshots: (id % 3) as u32,
    }
}

fn mk_meta() -> TraceMeta {
    TraceMeta {
        label: "corrupt".into(),
        seed: 9,
        scale: "tiny".into(),
        unit_instrs: 900,
        snapshot_instrs: 90,
        core: 0,
    }
}

fn mk_registry() -> MethodRegistry {
    let mut reg = MethodRegistry::new();
    reg.intern("Mapper.map", OpClass::Map);
    reg.intern("Reducer.reduce", OpClass::Reduce);
    reg
}

/// Seals `units` into in-memory trace bytes under `codec`.
fn seal(units: &[SamplingUnit], chunk: usize, codec: Codec) -> Vec<u8> {
    let mut w =
        TraceWriter::in_memory_compressed(&mk_meta(), codec).unwrap().with_chunk_units(chunk);
    for u in units {
        w.push(u);
    }
    w.finish(&mk_registry()).unwrap();
    w.into_bytes()
}

/// Walks an *uncorrupted* sealed trace frame by frame using only layout
/// knowledge. Returns `(kind, start, end)` per frame, ending at the footer
/// frame (the 12-byte trailer follows the last entry).
fn frame_map(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut frames = Vec::new();
    let mut at = 8; // past the magic
    loop {
        let kind = bytes[at];
        let len = u32::from_le_bytes([bytes[at + 2], bytes[at + 3], bytes[at + 4], bytes[at + 5]])
            as usize;
        let end = at + 6 + len + 4; // kind + codec + len + stored + crc32
        frames.push((kind, at, end));
        if kind == b'F' {
            return frames;
        }
        at = end;
    }
}

/// The units salvage must recover when every chunk frame whose byte
/// range satisfies `intact` survives and every other chunk is lost.
/// Chunks hold `chunk` units each (tail chunk partial), in id order.
fn expected_units(
    all: &[SamplingUnit],
    chunk: usize,
    frames: &[(u8, usize, usize)],
    intact: impl Fn(usize, usize) -> bool,
) -> Vec<SamplingUnit> {
    let mut expected = Vec::new();
    let mut next = 0usize;
    for &(kind, start, end) in frames {
        if kind != b'U' {
            continue;
        }
        let take = (all.len() - next).min(chunk);
        if intact(start, end) {
            expected.extend_from_slice(&all[next..next + take]);
        }
        next += take;
    }
    expected
}

/// Streams units out of possibly-damaged bytes, asserting the yielded
/// prefix matches `all` element for element; errors terminate the stream
/// but must never panic and never yield a wrong unit first.
fn assert_stream_is_honest_prefix(bytes: &[u8], all: &[SamplingUnit]) {
    if let Ok(mut r) = TraceReader::from_reader(Cursor::new(bytes.to_vec()), "<corrupt>") {
        let mut i = 0usize;
        loop {
            match r.next_unit() {
                Ok(Some(u)) => {
                    prop_assert!(i < all.len(), "reader yielded more units than were written");
                    prop_assert_eq!(u, &all[i], "unit {} differs from the original", i);
                    i += 1;
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
        // The footer path must also fail cleanly, never panic.
        let _ = r.footer();
    }
}

/// Re-seals a salvage under `codec` (`trace-repair`'s rewrite) and
/// requires the repaired file to be clean and to stream back exactly the
/// salvaged units.
fn check_repair(codec: Codec, s: &Salvage) {
    let mut w = TraceWriter::in_memory_compressed(&s.meta, codec).unwrap();
    for u in &s.units {
        w.push(u);
    }
    let sealed = w.finish(&s.footer.registry).unwrap();
    prop_assert_eq!(sealed.unit_count, s.report.recovered_units);
    let repaired = w.into_bytes();
    prop_assert!(salvage_bytes(&repaired, "<repaired>").unwrap().report.clean);
    let mut r = TraceReader::from_reader(Cursor::new(repaired), "<repaired>").unwrap();
    prop_assert_eq!(r.footer().unwrap().unit_count, s.units.len() as u64);
    let mut back = Vec::new();
    while let Some(u) = r.next_unit().unwrap() {
        back.push(u.clone());
    }
    prop_assert_eq!(&back, &s.units);
}

/// One single-bit flip at `fpos` (mod length): streaming yields an
/// honest prefix, salvage recovers exactly the chunks the flip did not
/// touch, and the salvage repairs clean. Under LZ the CRC over the
/// *stored* bytes rejects a damaged frame before the decompressor sees it.
fn check_flip(codec: Codec, n: u64, chunk: usize, fpos: usize, bit: u32) {
    let all: Vec<SamplingUnit> = (0..n).map(mk_unit).collect();
    let bytes = seal(&all, chunk, codec);
    let f = fpos % bytes.len();
    let mut corrupt = bytes.clone();
    corrupt[f] ^= 1u8 << bit;

    assert_stream_is_honest_prefix(&corrupt, &all);

    let res = salvage_bytes(&corrupt, "<flip>");
    if f < 8 {
        // A flipped magic byte makes the file unidentifiable (or names a
        // retired layout, which is no longer read).
        prop_assert!(res.is_err());
    } else {
        let s = res.unwrap();
        let frames = frame_map(&bytes);
        let expected = expected_units(&all, chunk, &frames, |start, end| !(f >= start && f < end));
        prop_assert_eq!(&s.units, &expected);
        prop_assert_eq!(s.report.recovered_units, expected.len() as u64);
        prop_assert!(!s.report.clean, "a flipped byte can never leave the file clean");
        check_repair(codec, &s);
    }
}

/// One truncation at `tpos` (mod length + 1) — including mid-magic,
/// mid-frame and pre-footer — salvages exactly the fully intact chunk
/// prefix, and the salvage repairs clean.
fn check_truncation(codec: Codec, n: u64, chunk: usize, tpos: usize) {
    let all: Vec<SamplingUnit> = (0..n).map(mk_unit).collect();
    let bytes = seal(&all, chunk, codec);
    let t = tpos % (bytes.len() + 1);
    let cut = &bytes[..t];

    assert_stream_is_honest_prefix(cut, &all);

    let s = salvage_bytes(cut, "<cut>").unwrap();
    let frames = frame_map(&bytes);
    let expected = expected_units(&all, chunk, &frames, |_, end| end <= t);
    prop_assert_eq!(&s.units, &expected);
    prop_assert_eq!(s.report.recovered_units, expected.len() as u64);
    prop_assert_eq!(s.report.clean, t == bytes.len());
    prop_assert_eq!(s.report.file_bytes, t as u64);
    check_repair(codec, &s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_byte_flip_never_panics_never_lies(
        n in 0u64..18,
        chunk in 1usize..6,
        fpos in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        check_flip(Codec::Raw, n, chunk, fpos, bit);
    }

    #[test]
    fn truncation_recovers_exactly_the_intact_chunk_prefix(
        n in 0u64..18,
        chunk in 1usize..6,
        tpos in 0usize..1_000_000,
    ) {
        check_truncation(Codec::Raw, n, chunk, tpos);
    }

    #[test]
    fn lz_single_byte_flip_never_panics_never_lies(
        n in 0u64..18,
        chunk in 1usize..6,
        fpos in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        check_flip(Codec::Lz, n, chunk, fpos, bit);
    }

    #[test]
    fn lz_truncation_recovers_exactly_the_intact_chunk_prefix(
        n in 0u64..18,
        chunk in 1usize..6,
        tpos in 0usize..1_000_000,
    ) {
        check_truncation(Codec::Lz, n, chunk, tpos);
    }
}

/// The acceptance criterion, pinned exhaustively: a small trace truncated
/// at *every* byte offset is openable via salvage.
fn sweep_every_truncation_offset(codec: Codec) {
    let all: Vec<SamplingUnit> = (0..7).map(mk_unit).collect();
    let bytes = seal(&all, 2, codec);
    let frames = frame_map(&bytes);
    for t in 0..=bytes.len() {
        let s = salvage_bytes(&bytes[..t], "<sweep>")
            .unwrap_or_else(|e| panic!("truncation at offset {t} must salvage: {e}"));
        let expected = expected_units(&all, 2, &frames, |_, end| end <= t);
        assert_eq!(s.units, expected, "offset {t}");
        assert_eq!(s.report.recovered_units, expected.len() as u64, "offset {t}");
        assert_eq!(s.report.clean, t == bytes.len(), "offset {t}");
    }
}

#[test]
fn every_truncation_offset_salvages() {
    sweep_every_truncation_offset(Codec::Raw);
}

#[test]
fn every_lz_truncation_offset_salvages() {
    sweep_every_truncation_offset(Codec::Lz);
}

/// The same chaos seed replays the same faults, so the whole
/// write-under-chaos → salvage → repair pipeline is bit-identical
/// between runs.
#[test]
fn same_chaos_seed_yields_bit_identical_salvage() {
    fn run(seed: u64) -> Option<(Salvage, Vec<u8>)> {
        let all: Vec<SamplingUnit> = (0..24).map(mk_unit).collect();
        let plan =
            ChaosPlan { bit_flip_ppm: 120_000, truncate_at: Some(1700), ..ChaosPlan::none(seed) };
        let chaos = ChaosWriter::new(Cursor::new(Vec::new()), plan);
        let mut w = TraceWriter::from_writer(chaos, "<chaos>", &mk_meta(), Codec::Raw)
            .ok()?
            .with_chunk_units(3)
            .with_retry(RetryPolicy { max_retries: 4, backoff_ms: 0 });
        for u in &all {
            w.push(u);
        }
        // Flips are silent and truncation lies about durability, so
        // finish may well "succeed" — exactly the crash being simulated.
        let _ = w.finish(&mk_registry());
        let chaos = w.into_writer();
        let counts = chaos.counts();
        assert!(
            counts.bit_flips > 0 || counts.dropped_bytes > 0,
            "chaos plan must actually inject faults"
        );
        let bytes = chaos.into_inner().into_inner();
        let s = salvage_bytes(&bytes, "<chaos>").ok()?;
        let mut w = TraceWriter::in_memory(&s.meta).unwrap();
        for u in &s.units {
            w.push(u);
        }
        w.finish(&s.footer.registry).ok()?;
        Some((s, w.into_bytes()))
    }

    // Some seeds flip the magic itself (legitimately unsalvageable);
    // pick the first seed that salvages and pin its determinism.
    let seed = (0..32)
        .find(|&s| run(s).is_some())
        .expect("at least one seed in 0..32 must produce a salvageable file");
    let (s1, repaired1) = run(seed).unwrap();
    let (s2, repaired2) = run(seed).unwrap();
    assert_eq!(s1, s2, "salvage outcome must be bit-identical for the same seed");
    assert_eq!(repaired1, repaired2, "repair output must be bit-identical for the same seed");
    assert!(s1.report.recovered_units > 0, "the chosen seed should recover something");
}
