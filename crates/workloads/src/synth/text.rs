//! Zipfian text synthesis.
//!
//! Word frequencies in natural-language corpora follow Zipf's law; the
//! BigDataBench text synthesizer preserves this when scaling seed inputs.
//! [`TextSynth`] draws words from a synthetic vocabulary with
//! `P(rank r) ∝ 1 / r^s`, producing corpora whose distinct-word growth and
//! skew drive the hash-combine and sort behaviour of the text benchmarks.
//! [`LabeledCorpus`] adds per-class vocabulary bias for NaiveBayes.

use rand::RngExt;

use simprof_stats::{seeded, split_seed, SeedRng};

/// Seeded Zipfian text generator.
#[derive(Debug, Clone)]
pub struct TextSynth {
    /// Vocabulary size.
    pub vocab: usize,
    /// Zipf exponent (1.0 ≈ natural language).
    pub exponent: f64,
    /// Words per line.
    pub words_per_line: usize,
    /// Cumulative distribution over ranks.
    cdf: Vec<f64>,
    /// Guide table over `buckets = len − 1` equal slices of `[0, 1]`:
    /// `guide[b]` counts the CDF entries below `b / buckets`, so a draw in
    /// slice `b` starts its scan next to its answer.
    guide: Vec<u32>,
    words: Vec<String>,
}

/// Guide-table buckets per vocabulary word.
const GUIDE_PER_WORD: usize = 4;

impl TextSynth {
    /// Builds a generator with a `vocab`-word synthetic vocabulary.
    pub fn new(vocab: usize, exponent: f64, words_per_line: usize, seed: u64) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        let mut weights: Vec<f64> = (1..=vocab).map(|r| 1.0 / (r as f64).powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        let buckets = GUIDE_PER_WORD * vocab;
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut i = 0;
        for b in 0..=buckets {
            let edge = b as f64 / buckets as f64;
            while i < vocab && weights[i] < edge {
                i += 1;
            }
            guide.push(u32::try_from(i).expect("vocabulary size fits in u32"));
        }
        let words = Self::make_words(vocab, seed);
        Self { vocab, exponent, words_per_line, cdf: weights, guide, words }
    }

    /// Synthesizes a vocabulary of distinct pronounceable-ish words.
    fn make_words(vocab: usize, seed: u64) -> Vec<String> {
        const C: &[u8] = b"bcdfghjklmnprstvz";
        const V: &[u8] = b"aeiou";
        let mut rng = seeded(split_seed(seed, 0x7E47));
        let mut out = Vec::with_capacity(vocab);
        let mut seen = std::collections::HashSet::new();
        while out.len() < vocab {
            let syllables = 1 + rng.random_range(0..3usize);
            let mut w = String::new();
            for _ in 0..=syllables {
                w.push(C[rng.random_range(0..C.len())] as char);
                w.push(V[rng.random_range(0..V.len())] as char);
            }
            if seen.insert(w.clone()) {
                out.push(w);
            }
        }
        out
    }

    fn draw_rank(&self, rng: &mut SeedRng) -> usize {
        self.rank_of(rng.random())
    }

    /// The rank a uniform draw `x` selects: exactly
    /// `cdf.partition_point(|&c| c < x).min(vocab − 1)`, found in O(1)
    /// expected steps. The guide table gives a start index near the answer;
    /// a short scan down, then up, settles on the first CDF entry `≥ x`.
    /// Both scans only compare against the CDF, so the result does not
    /// depend on how `x` was rounded into its bucket.
    fn rank_of(&self, x: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let b = ((x * buckets as f64) as usize).min(buckets);
        let mut i = self.guide[b] as usize;
        while i > 0 && self.cdf[i - 1] >= x {
            i -= 1;
        }
        while i < self.cdf.len() && self.cdf[i] < x {
            i += 1;
        }
        i.min(self.vocab - 1)
    }

    /// Draws one word.
    pub fn word<'a>(&'a self, rng: &mut SeedRng) -> &'a str {
        &self.words[self.draw_rank(rng)]
    }

    /// The vocabulary word at Zipf rank `rank` (0 = most frequent). Used by
    /// grep to pick a needle of known rarity.
    pub fn word_at(&self, rank: usize) -> &str {
        &self.words[rank.min(self.vocab - 1)]
    }

    /// Generates lines totalling approximately `bytes` of text.
    ///
    /// One sequential pass: each line is assembled in a scratch buffer as
    /// its words are drawn, then copied out at its exact length; generation
    /// stops once the lines, each counted with its newline, reach `bytes`.
    pub fn lines(&self, bytes: usize, seed: u64) -> Vec<String> {
        let mut rng = seeded(split_seed(seed, 0x11E5));
        let mut lines = Vec::new();
        let mut line = String::new();
        let mut produced = 0usize;
        while produced < bytes {
            line.clear();
            for i in 0..self.words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                line.push_str(&self.words[self.draw_rank(&mut rng)]);
            }
            produced += line.len() + 1;
            lines.push(line.clone());
        }
        lines
    }
}

/// The text-input catalog for the text-workload input-sensitivity study —
/// the paper's stated future work (§IV-E: "for WordCount, the inputs with
/// different frequencies of words should be used"). Each variant changes
/// the corpus statistic that drives WordCount's memory behaviour: word-
/// frequency skew (the Zipf exponent) or vocabulary size (the hash-map
/// footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextInput {
    /// The training input: natural-language-like skew (s = 1.0, 4 K words).
    Base,
    /// Heavier skew — a few words dominate (s = 1.3).
    Skewed,
    /// Flatter frequencies (s = 0.7): the hot set is much larger.
    Flat,
    /// Small vocabulary (1 K words): the whole map is cache resident.
    SmallVocab,
    /// Large vocabulary (16 K words): the map far exceeds the LLC.
    LargeVocab,
    /// Longer lines (30 words): scan-to-probe ratio shifts.
    LongLines,
}

impl TextInput {
    /// All inputs, training input first.
    pub const ALL: [TextInput; 6] = [
        TextInput::Base,
        TextInput::Skewed,
        TextInput::Flat,
        TextInput::SmallVocab,
        TextInput::LargeVocab,
        TextInput::LongLines,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            TextInput::Base => "Base",
            TextInput::Skewed => "Skewed",
            TextInput::Flat => "Flat",
            TextInput::SmallVocab => "SmallVocab",
            TextInput::LargeVocab => "LargeVocab",
            TextInput::LongLines => "LongLines",
        }
    }

    /// `(vocab, zipf exponent, words per line)` of the variant.
    pub fn params(self) -> (usize, f64, usize) {
        match self {
            TextInput::Base => (4_000, 1.0, 10),
            TextInput::Skewed => (4_000, 1.3, 10),
            TextInput::Flat => (4_000, 0.7, 10),
            TextInput::SmallVocab => (1_000, 1.0, 10),
            TextInput::LargeVocab => (16_000, 1.0, 10),
            TextInput::LongLines => (4_000, 1.0, 30),
        }
    }

    /// Synthesizes `bytes` of this input.
    pub fn lines(self, bytes: usize, seed: u64) -> Vec<String> {
        let (vocab, exponent, wpl) = self.params();
        TextSynth::new(vocab, exponent, wpl, split_seed(seed, 0x7E87 + self as u64))
            .lines(bytes, split_seed(seed, 0x11E5 + self as u64))
    }
}

/// A labelled corpus for NaiveBayes: each document belongs to one of
/// `classes` classes, and each class biases a disjoint slice of the
/// vocabulary so the classes are actually learnable.
#[derive(Debug, Clone)]
pub struct LabeledCorpus {
    /// Documents as `(class, line)` pairs.
    pub docs: Vec<(usize, String)>,
    /// Number of classes.
    pub classes: usize,
}

impl LabeledCorpus {
    /// Generates `bytes` of labelled documents over `classes` classes.
    pub fn generate(synth: &TextSynth, classes: usize, bytes: usize, seed: u64) -> Self {
        assert!(classes > 0);
        let mut rng = seeded(split_seed(seed, 0xBA7E5));
        let mut docs = Vec::new();
        let mut line = String::new();
        let mut produced = 0usize;
        let marker_stride = synth.vocab.div_ceil(classes).max(1);
        while produced < bytes {
            let class = rng.random_range(0..classes);
            line.clear();
            for i in 0..synth.words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                // Every third word is drawn from the class's marker slice of
                // the vocabulary, the rest from the global distribution.
                if i % 3 == 0 {
                    let idx = class * marker_stride + rng.random_range(0..marker_stride);
                    line.push_str(&synth.words[idx.min(synth.vocab - 1)]);
                } else {
                    line.push_str(synth.word(&mut rng));
                }
            }
            produced += line.len() + 1;
            docs.push((class, line.clone()));
        }
        Self { docs, classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn lines_reach_requested_bytes() {
        let s = TextSynth::new(500, 1.0, 8, 1);
        let lines = s.lines(10_000, 2);
        let total: usize = lines.iter().map(|l| l.len() + 1).sum();
        assert!(total >= 10_000);
        assert!(total < 12_000, "should not wildly overshoot: {total}");
    }

    #[test]
    fn zipf_skew_present() {
        let s = TextSynth::new(1000, 1.0, 10, 3);
        let lines = s.lines(200_000, 4);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for l in &lines {
            for w in l.split_whitespace() {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Top word should be far more frequent than the median word.
        assert!(
            freqs[0] > 20 * freqs[freqs.len() / 2],
            "{} vs {}",
            freqs[0],
            freqs[freqs.len() / 2]
        );
        // But the distribution has a long tail of distinct words.
        assert!(counts.len() > 300, "{}", counts.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TextSynth::new(200, 1.0, 6, 7).lines(5_000, 9);
        let b = TextSynth::new(200, 1.0, 6, 7).lines(5_000, 9);
        let c = TextSynth::new(200, 1.0, 6, 7).lines(5_000, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Every `(vocab, exponent)` the benchmark builders and
    /// [`TextInput::ALL`] synthesize with.
    fn used_params() -> Vec<(usize, f64)> {
        // sort, wc, grep, bayes (see `benchmarks/`).
        let mut params = vec![(6_000, 1.05), (4_000, 1.0), (5_000, 1.0)];
        params.extend(TextInput::ALL.iter().map(|i| (i.params().0, i.params().1)));
        params
    }

    #[test]
    fn guide_table_draw_equals_binary_search() {
        // Neighbouring f64s of a positive finite value.
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        for (vocab, exponent) in used_params() {
            let s = TextSynth::new(vocab, exponent, 1, 1);
            let reference = |x: f64| s.cdf.partition_point(|&c| c < x).min(vocab - 1);
            let buckets = s.guide.len() - 1;
            let mut probes = vec![0.0, 1.0, down(1.0)];
            for b in 1..=buckets {
                let edge = b as f64 / buckets as f64;
                probes.extend([down(edge), edge, up(edge)]);
            }
            for &c in &s.cdf {
                probes.extend([down(c), c, up(c)]);
            }
            // The clamp: draws at or past the last CDF entry.
            let last = *s.cdf.last().unwrap();
            probes.extend([last, up(last), up(up(last))]);
            let mut rng = seeded(9);
            probes.extend((0..20_000).map(|_| rng.random::<f64>()));
            for x in &probes {
                assert_eq!(s.rank_of(*x), reference(*x), "vocab {vocab}, s {exponent}, x {x:e}");
            }
            // The scans make the draw exact from any start index, so a
            // guide entry off by a few ranks either way changes nothing.
            for shift in [-3i64, 2] {
                let mut off = s.clone();
                for g in &mut off.guide {
                    *g = (i64::from(*g) + shift).clamp(0, vocab as i64) as u32;
                }
                for x in &probes {
                    assert_eq!(off.rank_of(*x), reference(*x), "shift {shift}, x {x:e}");
                }
            }
        }
    }

    #[test]
    fn vocabulary_is_distinct() {
        let s = TextSynth::new(300, 1.0, 5, 11);
        let set: std::collections::HashSet<&String> = s.words.iter().collect();
        assert_eq!(set.len(), 300);
    }

    #[test]
    fn text_inputs_differ_in_their_driving_statistic() {
        use std::collections::HashSet;
        let distinct = |input: TextInput| {
            let lines = input.lines(400_000, 3);
            lines.iter().flat_map(|l| l.split_whitespace()).collect::<HashSet<_>>().len()
        };
        let base = distinct(TextInput::Base);
        assert!(distinct(TextInput::SmallVocab) < base / 2);
        assert!(
            distinct(TextInput::LargeVocab) as f64 > base as f64 * 1.5,
            "{} vs {}",
            distinct(TextInput::LargeVocab),
            base
        );
        assert!(distinct(TextInput::Skewed) < base, "heavier skew → fewer distinct words seen");
    }

    #[test]
    fn labeled_corpus_classes_learnable() {
        let s = TextSynth::new(600, 1.0, 9, 5);
        let c = LabeledCorpus::generate(&s, 3, 60_000, 6);
        assert_eq!(c.classes, 3);
        assert!(c.docs.len() > 100);
        // Every class appears.
        for class in 0..3 {
            assert!(c.docs.iter().any(|&(cl, _)| cl == class));
        }
        // A class-0 marker word (vocab slice [0, 200)) that is globally rare
        // (rank 150) appears more often in class-0 docs than class-1 docs.
        let marker = &s.words[150];
        let count = |class: usize| {
            c.docs
                .iter()
                .filter(|&&(cl, _)| cl == class)
                .flat_map(|(_, l)| l.split_whitespace())
                .filter(|w| w == marker)
                .count()
        };
        assert!(count(0) >= count(1), "{} vs {}", count(0), count(1));
    }
}
