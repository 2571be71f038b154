//! NaiveBayes — train a multinomial classifier on a labelled corpus, then
//! classify held-out documents (BigDataBench's machine-learning workload).
//!
//! Training is a WordCount-shaped aggregation over `(class, word)` pairs;
//! classification is a scoring scan whose per-token model lookups are random
//! probes over the whole model table — a second, distinctly
//! memory-behaviour-different phase. On Hadoop the two steps are two
//! chained MapReduce jobs (four stages); on Spark, three stages of one job.

use std::collections::HashMap;

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{ops, Job, MethodRegistry, OpClass, Stage, Task, WorkItem};
use simprof_sim::{AccessPattern, Machine, Region};

use super::{
    fnv1a, hdfs_write_item, mark_shuffle_fetch, overlap_stall, partition_ranges, route, spill_item,
};
use crate::config::WorkloadConfig;
use crate::synth::text::{LabeledCorpus, TextSynth};

/// Number of document classes.
pub const CLASSES: usize = 4;
// Training aggregates `(class, word)` keys, which sort like the shuffled
// `"class:word"` strings only while every class is a single digit.
const _: () = assert!(CLASSES < 10, "class keys must stay single-digit");
const ENTRY_BYTES: u64 = 56;
const BATCH: usize = 4_096;
/// Instructions per token scored during classification.
const SCORE_PER_TOKEN: u64 = CLASSES as u64 * 18;

fn corpus(cfg: &WorkloadConfig) -> LabeledCorpus {
    let synth = TextSynth::new(5_000, 1.0, 9, cfg.sub_seed(0xBA1E5));
    LabeledCorpus::generate(&synth, CLASSES, cfg.text_bytes / 2, cfg.sub_seed(5))
}

/// The trained model: per word hash, the Laplace-smoothed per-class
/// log-likelihoods derived from the `(class, word-hash)` counts and the
/// per-class totals.
#[derive(Debug, Clone)]
pub struct BayesModel {
    /// Distinct `(class, word-hash)` pairs seen in training.
    entries: usize,
    /// Per-class log prior.
    priors: [f64; CLASSES],
    /// Per-class smoothed log-likelihood of a word never seen in training.
    unseen: [f64; CLASSES],
    /// `word-hash → per-class smoothed log-likelihood` for every trained
    /// word hash: one lookup scores a token for all classes.
    table: HashMap<u64, [f64; CLASSES]>,
}

impl BayesModel {
    /// Trains the model on labelled documents: counts per word hash and
    /// class, then turns each count row into smoothed log-likelihoods.
    fn train(docs: &[(usize, String)]) -> Self {
        let mut counts: HashMap<u64, [i64; CLASSES]> = HashMap::new();
        let mut class_tokens = [0i64; CLASSES];
        let mut class_docs = [0i64; CLASSES];
        for &(class, ref line) in docs {
            class_docs[class] += 1;
            for w in line.split_whitespace() {
                counts.entry(fnv1a(w)).or_insert([0; CLASSES])[class] += 1;
                class_tokens[class] += 1;
            }
        }
        let entries = counts.values().flatten().filter(|&&n| n > 0).count();
        let total_docs = class_docs.iter().sum::<i64>().max(1);
        let vocab = entries as f64 + 1.0;
        let denom: [f64; CLASSES] = std::array::from_fn(|c| class_tokens[c] as f64 + vocab);
        let loglik = |c: usize, count: i64| ((count as f64 + 1.0) / denom[c]).ln();
        let priors =
            std::array::from_fn(|c| (class_docs[c].max(1) as f64 / total_docs as f64).ln());
        let unseen = std::array::from_fn(|c| loglik(c, 0));
        let table = counts
            .into_iter()
            .map(|(hash, row)| (hash, std::array::from_fn(|c| loglik(c, row[c]))))
            .collect();
        Self { entries, priors, unseen, table }
    }

    /// Per-class log-likelihood of a document (maximum-likelihood scores
    /// with Laplace smoothing): the prior, then one smoothed term per token
    /// in document order.
    fn scores(&self, doc: &str) -> [f64; CLASSES] {
        let mut scores = self.priors;
        for w in doc.split_whitespace() {
            let row = self.table.get(&fnv1a(w)).unwrap_or(&self.unseen);
            for (s, l) in scores.iter_mut().zip(row) {
                *s += l;
            }
        }
        scores
    }

    /// Classifies a document by maximum log-likelihood with Laplace
    /// smoothing.
    pub fn classify(&self, doc: &str) -> usize {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (c, &score) in self.scores(doc).iter().enumerate() {
            if score > best.1 {
                best = (c, score);
            }
        }
        best.0
    }

    /// Model table size (distinct `(class, word)` entries).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The shuffled key of a `(class, word)` training pair: `"class:word"`.
fn shuffle_key((class, word): (usize, &str)) -> String {
    format!("{class}:{word}")
}

/// Classification items for one partition of documents: a streaming scan
/// plus random model probes, and the real predicted labels.
#[allow(clippy::too_many_arguments)]
fn classify_items(
    docs: &[(usize, String)],
    model: &BayesModel,
    model_region: Region,
    scan_path: Vec<simprof_engine::MethodId>,
    probe_path: Vec<simprof_engine::MethodId>,
    in_region: Region,
    read_stall: u64,
    seed: u64,
) -> (Vec<usize>, Vec<WorkItem>) {
    let tokens: u64 = docs.iter().map(|(_, l)| l.split_whitespace().count() as u64).sum();
    let bytes: u64 = docs.iter().map(|(_, l)| l.len() as u64 + 1).sum();
    let predictions: Vec<usize> = docs.iter().map(|(_, l)| model.classify(l)).collect();
    let items = vec![
        WorkItem::compute(
            scan_path,
            bytes * 2,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            in_region,
            seed,
        )
        .with_io_stall(read_stall),
        WorkItem::compute(
            probe_path,
            tokens * SCORE_PER_TOKEN,
            ops::costs::HASH_APKI,
            AccessPattern::Zipf,
            model_region,
            seed ^ 1,
        ),
    ];
    (predictions, items)
}

/// Builds the Spark NaiveBayes job: train map, train reduce, classify.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let sm = SparkMethods::intern(reg);
    let emit_fn = reg.intern("org.bigdatabench.bayes.LabeledTokenFn.apply", OpClass::Map);
    let agg_fn = reg.intern("org.bigdatabench.bayes.CountAggFn.apply", OpClass::Reduce);
    let train_fn = reg.intern("org.bigdatabench.bayes.NaiveBayes.train", OpClass::Reduce);
    let predict_fn = reg.intern("org.bigdatabench.bayes.NaiveBayesModel.predict", OpClass::Map);

    let corpus = corpus(cfg);
    let model = BayesModel::train(&corpus.docs);
    let model_region = machine.alloc(model.len() as u64 * ENTRY_BYTES);
    let ranges = partition_ranges(corpus.docs.len(), cfg.partitions);

    // Stage 0: tokenize + map-side combine of (class:word, 1).
    let mut reducer_inputs: Vec<Vec<((usize, &str), i64)>> = vec![Vec::new(); cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let docs = &corpus.docs[lo..hi];
        let seed = cfg.sub_seed(1100 + p as u64);
        let bytes: u64 = docs.iter().map(|(_, l)| l.len() as u64 + 1).sum();
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let lines: Vec<String> = docs.iter().map(|(c, l)| format!("{c} {l}")).collect();
        let (tokens, tok_item) =
            ops::tokenize(&lines, vec![sm.map_partitions_with_index, emit_fn], in_region, seed);
        items.push(tok_item.with_io_stall(cfg.hdfs.read_stall(bytes)));
        let pairs = docs.iter().flat_map(|&(class, ref line)| {
            line.split_whitespace().map(move |w| ((class, w), 1i64))
        });
        let (combined, combine_items) = ops::hash_combine(
            pairs,
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![sm.combine_values_by_key, sm.append_only_map_change_value],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        items.extend(combine_items);
        let _ = tokens;
        let out = combined.len() as u64 * 18;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out,
            vec![sm.shuffle_writer_write, sm.serialize_object],
            seed,
        ));
        for (k, v) in combined {
            reducer_inputs[route(&shuffle_key(k), cfg.reducers)].push((k, v));
        }
        map_tasks.push(Task::new(sm.shuffle_map_base(), items));
    }

    // Stage 1: aggregate counts and finalize the model.
    let mut agg_tasks = Vec::with_capacity(cfg.reducers);
    for (r, pairs) in reducer_inputs.into_iter().enumerate() {
        let seed = cfg.sub_seed(1200 + r as u64);
        let mut items = Vec::new();
        let fetch_bytes = pairs.len() as u64 * 18;
        let fetch_stall = cfg.shuffle_fetch_stall(fetch_bytes);
        let (final_counts, combine_items) = ops::hash_combine(
            pairs,
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![sm.combine_combiners_by_key, agg_fn],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        let mut combine_items = combine_items;
        overlap_stall(&mut combine_items, fetch_stall);
        mark_shuffle_fetch(&mut combine_items, fetch_bytes);
        items.extend(combine_items);
        // Likelihood computation over this reducer's share of the model.
        items.push(WorkItem::compute(
            vec![train_fn],
            final_counts.len() as u64 * 40,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            model_region,
            seed,
        ));
        let out = final_counts.len() as u64 * 20;
        items.push(hdfs_write_item(&cfg.hdfs, machine, out, vec![sm.dfs_write], seed));
        agg_tasks.push(Task::new(sm.result_base(), items));
    }

    // Stage 2: classify every document against the trained model.
    let mut classify_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let docs = &corpus.docs[lo..hi];
        let seed = cfg.sub_seed(1300 + p as u64);
        let bytes: u64 = docs.iter().map(|(_, l)| l.len() as u64 + 1).sum();
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let read_stall = cfg.hdfs.read_stall(bytes);
        let (_preds, score_items) = classify_items(
            docs,
            &model,
            model_region,
            vec![sm.map_partitions_with_index, emit_fn],
            vec![sm.map_partitions_with_index, predict_fn],
            in_region,
            read_stall,
            seed,
        );
        items.extend(score_items);
        items.push(hdfs_write_item(
            &cfg.hdfs,
            machine,
            (hi - lo) as u64 * 4,
            vec![sm.dfs_write],
            seed,
        ));
        classify_tasks.push(Task::new(sm.result_base(), items));
    }

    Job::new(vec![
        Stage::new("bayes-sp-stage0", map_tasks),
        Stage::new("bayes-sp-stage1", agg_tasks),
        Stage::new("bayes-sp-stage2", classify_tasks),
    ])
}

/// Builds the Hadoop NaiveBayes job: two chained MR jobs (train, classify).
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.bayes.LabeledTokenMapper.map", OpClass::Map);
    let reducer_m = reg.intern("org.bigdatabench.bayes.CountSumReducer.reduce", OpClass::Reduce);
    let score_mapper = reg.intern("org.bigdatabench.bayes.ScoreMapper.map", OpClass::Map);

    let corpus = corpus(cfg);
    let model = BayesModel::train(&corpus.docs);
    let model_region = machine.alloc(model.len() as u64 * ENTRY_BYTES);
    let ranges = partition_ranges(corpus.docs.len(), cfg.partitions);

    // --- Job 1: train ---
    let mut runs_per_reducer: Vec<Vec<Vec<u64>>> = vec![Vec::new(); cfg.reducers];
    let mut count_per_reducer: Vec<usize> = vec![0; cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let docs = &corpus.docs[lo..hi];
        let seed = cfg.sub_seed(1400 + p as u64);
        let bytes: u64 = docs.iter().map(|(_, l)| l.len() as u64 + 1).sum();
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let lines: Vec<String> = docs.iter().map(|(c, l)| format!("{c} {l}")).collect();
        let (_tokens, tok_item) =
            ops::tokenize(&lines, vec![mapper, hm.map_output_buffer_collect], in_region, seed);
        items.push(tok_item.with_io_stall(cfg.hdfs.read_stall(bytes)));
        // Spill sort over emitted (class:word) key hashes, with the real
        // bounded-buffer multi-spill pipeline.
        let key_hashes: Vec<u64> = docs
            .iter()
            .flat_map(|&(class, ref line)| {
                line.split_whitespace().map(move |w| fnv1a(w) ^ (class as u64) << 56)
            })
            .collect();
        items.extend(super::map_side_sort_spill(
            key_hashes,
            &cfg.hdfs,
            machine,
            vec![hm.sort_and_spill, hm.quick_sort],
            vec![hm.sort_and_spill, hm.ifile_writer_append],
            vec![hm.merger_merge],
            seed,
        ));
        // Combine.
        let pairs = docs.iter().flat_map(|&(class, ref line)| {
            line.split_whitespace().map(move |w| ((class, w), 1i64))
        });
        let (combined, combine_items) = ops::hash_combine(
            pairs,
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![hm.combiner_combine, reducer_m],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        items.extend(combine_items);
        let out = combined.len() as u64 * 18;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out,
            vec![hm.codec_compress, hm.ifile_writer_append],
            seed,
        ));
        let mut per_r: Vec<Vec<u64>> = vec![Vec::new(); cfg.reducers];
        for (k, _) in combined {
            let k = shuffle_key(k);
            let r = route(&k, cfg.reducers);
            per_r[r].push(fnv1a(&k));
            count_per_reducer[r] += 1;
        }
        for (r, mut run) in per_r.into_iter().enumerate() {
            run.sort_unstable();
            runs_per_reducer[r].push(run);
        }
        map_tasks.push(Task::new(hm.map_base(), items));
    }

    let mut reduce_tasks = Vec::with_capacity(cfg.reducers);
    for (r, runs) in runs_per_reducer.into_iter().enumerate() {
        let seed = cfg.sub_seed(1500 + r as u64);
        let mut items = Vec::new();
        let fetch_bytes = count_per_reducer[r] as u64 * 18;
        let merge_region = machine.alloc(fetch_bytes.max(64));
        let (_m, mut merge_items) =
            ops::kway_merge(&runs, 16, merge_region, vec![hm.merger_merge], seed);
        overlap_stall(&mut merge_items, cfg.shuffle_fetch_stall(fetch_bytes));
        mark_shuffle_fetch(&mut merge_items, fetch_bytes);
        items.extend(merge_items);
        items.push(WorkItem::compute(
            vec![reducer_m],
            count_per_reducer[r] as u64 * 30,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            merge_region,
            seed,
        ));
        items.push(hdfs_write_item(
            &cfg.hdfs,
            machine,
            count_per_reducer[r] as u64 * 20,
            vec![hm.dfs_write],
            seed,
        ));
        reduce_tasks.push(Task::new(hm.reduce_base(), items));
    }

    // --- Job 2: classify ---
    let mut classify_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let docs = &corpus.docs[lo..hi];
        let seed = cfg.sub_seed(1600 + p as u64);
        let bytes: u64 = docs.iter().map(|(_, l)| l.len() as u64 + 1).sum();
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let read_stall = cfg.hdfs.read_stall(bytes);
        let (_preds, score_items) = classify_items(
            docs,
            &model,
            model_region,
            vec![score_mapper, hm.map_output_buffer_collect],
            vec![score_mapper],
            in_region,
            read_stall,
            seed,
        );
        items.extend(score_items);
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            (hi - lo) as u64 * 4,
            vec![hm.ifile_writer_append],
            seed,
        ));
        classify_tasks.push(Task::new(hm.map_base(), items));
    }

    // Tiny collect wave for the classification counts.
    let seed = cfg.sub_seed(1700);
    let collect = vec![Task::new(
        hm.reduce_base(),
        vec![
            {
                let bytes = corpus.docs.len() as u64 * 4;
                let region = machine.alloc(bytes.max(64));
                WorkItem::io(
                    vec![hm.fetcher_copy],
                    bytes / 6 + 1,
                    cfg.shuffle_fetch_stall(bytes),
                    region,
                    seed,
                )
                .with_shuffle_bytes(bytes)
            },
            hdfs_write_item(&cfg.hdfs, machine, CLASSES as u64 * 16, vec![hm.dfs_write], seed),
        ],
    )];

    Job::new(vec![
        Stage::new("bayes-hp-train-map", map_tasks),
        Stage::new("bayes-hp-train-reduce", reduce_tasks),
        Stage::new("bayes-hp-classify-map", classify_tasks),
        Stage::new("bayes-hp-classify-reduce", collect),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    #[test]
    fn model_learns_classes() {
        let cfg = WorkloadConfig::tiny(23);
        let corpus = corpus(&cfg);
        let model = BayesModel::train(&corpus.docs);
        assert!(!model.is_empty());
        // Training-set accuracy should beat chance (25 %) comfortably —
        // the class-marker vocabulary makes classes learnable.
        let correct = corpus.docs.iter().filter(|&&(c, ref l)| model.classify(l) == c).count();
        let acc = correct as f64 / corpus.docs.len() as f64;
        assert!(acc > 0.5, "accuracy {acc}");
    }

    /// The scoring formula the table replaced, written out: per class, the
    /// log prior plus one Laplace-smoothed term per token, with the
    /// `(class, word-hash)` counts and the totals recounted from the
    /// training documents.
    fn reference_scorer(docs: &[(usize, String)]) -> impl Fn(&str) -> [f64; CLASSES] {
        let mut counts: HashMap<(usize, u64), i64> = HashMap::new();
        let mut class_tokens = [0i64; CLASSES];
        let mut class_docs = [0i64; CLASSES];
        for &(class, ref line) in docs {
            class_docs[class] += 1;
            for w in line.split_whitespace() {
                *counts.entry((class, fnv1a(w))).or_insert(0) += 1;
                class_tokens[class] += 1;
            }
        }
        let total_docs: i64 = class_docs.iter().sum::<i64>().max(1);
        let vocab = counts.len() as f64 + 1.0;
        move |doc| {
            std::array::from_fn(|c| {
                let prior = (class_docs[c].max(1) as f64 / total_docs as f64).ln();
                let denom = class_tokens[c] as f64 + vocab;
                let mut score = prior;
                for w in doc.split_whitespace() {
                    let count = counts.get(&(c, fnv1a(w))).copied().unwrap_or(0);
                    score += ((count as f64 + 1.0) / denom).ln();
                }
                score
            })
        }
    }

    #[test]
    fn table_scores_equal_the_reference_formula_bit_for_bit() {
        let cfg = WorkloadConfig::tiny(23);
        let corpus = corpus(&cfg);
        let model = BayesModel::train(&corpus.docs);
        let reference = reference_scorer(&corpus.docs);
        let unseen = ["", "qqq", "qqq zzz", &format!("qqq {}", corpus.docs[0].1)];
        let docs = corpus.docs.iter().map(|(_, l)| l.as_str()).chain(unseen);
        for doc in docs {
            let expected = reference(doc);
            let got = model.scores(doc);
            assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "doc {doc:?}");
            // The label is the first class with the strictly highest score.
            let mut best = 0;
            for c in 1..CLASSES {
                if expected[c] > expected[best] {
                    best = c;
                }
            }
            assert_eq!(model.classify(doc), best, "doc {doc:?}");
        }
    }

    #[test]
    fn spark_has_three_stages() {
        let cfg = WorkloadConfig::tiny(23);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = spark(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 3);
    }

    #[test]
    fn hadoop_has_two_chained_jobs() {
        let cfg = WorkloadConfig::tiny(23);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = hadoop(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 4);
        // Classification probes the model randomly.
        let scorer = reg.lookup("org.bigdatabench.bayes.ScoreMapper.map").unwrap();
        let probe = job.stages[2]
            .tasks
            .iter()
            .flat_map(|t| &t.items)
            .find(|i| i.path == vec![scorer])
            .expect("score item");
        assert_eq!(probe.pattern, AccessPattern::Zipf);
    }
}
