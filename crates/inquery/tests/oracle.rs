//! An independent reference ranker for bag-of-words queries.
//!
//! The oracle shares no code with the engine's ranking path: it reads the
//! raw document texts into a `HashMap` of postings (no records, codec or
//! cursors), writes the belief formula out from `belief.rs`'s module
//! documentation, sums in the order `rank_daat_pruned` documents
//! (ascending list index, then the absent mass) and fully sorts. The
//! document-at-a-time ranker must match it document for document and score
//! bit for bit, however much its max-score pruning skips.

use std::collections::HashMap;

use proptest::prelude::*;

use poir_inquery::query::daat::{rank_daat_pruned, DaatStats};
use poir_inquery::{
    BeliefParams, Dictionary, DocTable, IndexBuilder, InvertedFileStore, MemoryStore, RecordBytes,
    Result, ScoredDoc, StopWords,
};

/// Words in the generated collections; low indices are drawn far more
/// often, so the commonest lists outgrow `BLOCK_SIZE` and take the blocked
/// record layout.
const VOCABULARY: u32 = 60;

/// The reference: postings and lengths straight from the texts.
struct Oracle {
    postings: HashMap<String, Vec<(u32, u32)>>,
    lens: Vec<u32>,
}

impl Oracle {
    fn new(texts: &[String]) -> Oracle {
        let mut postings: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        let mut lens = Vec::new();
        for (doc, text) in texts.iter().enumerate() {
            let words: Vec<&str> = text.split(' ').filter(|w| !w.is_empty()).collect();
            lens.push(words.len() as u32);
            let mut tfs: HashMap<&str, u32> = HashMap::new();
            for w in words {
                *tfs.entry(w).or_default() += 1;
            }
            for (w, tf) in tfs {
                postings.entry(w.to_string()).or_default().push((doc as u32, tf));
            }
        }
        Oracle { postings, lens }
    }

    /// `belief.rs`: T = tf / (tf + 0.5 + 1.5 · (dl / avg_dl)),
    /// I = ln((N + 0.5) / df) / ln(N + 1) clamped at zero,
    /// belief = d + (1 - d) · T · I with d = 0.4.
    fn belief(&self, tf: u32, dl: u32, df: u32) -> f64 {
        let n = self.lens.len() as f64;
        let avg_dl = self.lens.iter().map(|&l| l as u64).sum::<u64>() as f64 / n;
        let dl_ratio = if avg_dl > 0.0 { dl as f64 / avg_dl } else { 1.0 };
        let t = tf as f64 / (tf as f64 + 0.5 + 1.5 * dl_ratio);
        let i = (((n + 0.5) / df as f64).ln() / (n + 1.0).ln()).max(0.0);
        let d = 0.4;
        d + (1.0 - d) * t * i
    }

    fn rank(&self, bag: &[(f64, String)], k: usize) -> Vec<(u32, u64)> {
        let total: f64 = bag.iter().map(|(w, _)| w).sum();
        let known: Vec<(f64, &Vec<(u32, u32)>)> =
            bag.iter().filter_map(|(w, t)| self.postings.get(t).map(|p| (*w, p))).collect();
        let mut scored = Vec::new();
        for doc in 0..self.lens.len() as u32 {
            let mut sum = 0.0;
            let mut matched_weight = 0.0;
            for (w, list) in &known {
                if let Some(&(_, tf)) = list.iter().find(|&&(d, _)| d == doc) {
                    sum += w * self.belief(tf, self.lens[doc as usize], list.len() as u32);
                    matched_weight += w;
                }
            }
            if matched_weight > 0.0 {
                sum += (total - matched_weight) * 0.4;
                scored.push((doc, sum / total));
            }
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.into_iter().take(k).map(|(doc, score)| (doc, score.to_bits())).collect()
    }
}

/// The engine's side: the texts indexed into a [`MemoryStore`], plus the
/// total encoded record bytes.
fn engine(texts: &[String]) -> (MemoryStore, Dictionary, DocTable, usize) {
    let mut builder = IndexBuilder::new(StopWords::none());
    for (i, text) in texts.iter().enumerate() {
        builder.add_document(&format!("D{i}"), text);
    }
    let idx = builder.finish();
    let mut store = MemoryStore::new();
    let mut dict = idx.dictionary;
    let mut total = 0;
    for (term, bytes) in idx.records {
        total += bytes.len();
        let r = store.add(bytes);
        dict.entry_mut(term).store_ref = r;
    }
    (store, dict, idx.documents, total)
}

fn bits(ranked: Vec<ScoredDoc>) -> Vec<(u32, u64)> {
    ranked.into_iter().map(|s| (s.doc.0, s.score.to_bits())).collect()
}

/// A weighted bag from `(weight, term)` literals.
fn bag(terms: &[(f64, &str)]) -> Vec<(f64, String)> {
    terms.iter().map(|&(w, t)| (w, t.to_string())).collect()
}

/// Ranks `bag` with the pruned ranker and checks it against the oracle
/// for every `k` in `ks`, returning the summed work-avoidance counters.
fn check_against_oracle<S: InvertedFileStore>(
    oracle: &Oracle,
    store: &mut S,
    dict: &Dictionary,
    docs: &DocTable,
    bag: &[(f64, String)],
    ks: &[usize],
) -> DaatStats {
    let mut total = DaatStats::default();
    // One full sort serves every k: the oracle ranks all documents.
    let expected = oracle.rank(bag, usize::MAX);
    for &k in ks {
        let (pruned, stats) =
            rank_daat_pruned(store, dict, docs, BeliefParams::default(), bag, k).unwrap();
        let want = &expected[..k.min(expected.len())];
        assert_eq!(bits(pruned), want, "k={k} bag={bag:?}");
        total.postings_skipped += stats.postings_skipped;
        total.blocks_skipped += stats.blocks_skipped;
    }
    total
}

#[test]
fn pruned_matches_the_reference_on_a_small_corpus() {
    let texts: Vec<String> =
        ["w0 w1 w2 w0", "w1 w1 w3", "w0 w3 w4 w1", "w5 w6 w7"].map(String::from).to_vec();
    let oracle = Oracle::new(&texts);
    let (mut store, dict, docs, _) = engine(&texts);
    for terms in [
        bag(&[(1.0, "w0"), (1.0, "w1"), (1.0, "w3")]),
        bag(&[(3.0, "w0"), (1.0, "w1"), (2.0, "w4")]),
        bag(&[(1.0, "w0"), (5.0, "unknown")]),
        bag(&[(1.0, "w1")]),
    ] {
        check_against_oracle(&oracle, &mut store, &dict, &docs, &terms, &[1, 2, 3, 10]);
    }
}

/// 1,500 documents: `w0` in every one (1-7 times), `w1` in every other,
/// `w2` in every 151st and `w3`..`w6` as filler, so every list but `w2`'s
/// takes the blocked record layout with a multi-entry skip directory.
fn blocked_texts() -> Vec<String> {
    (0..1500u32)
        .map(|i| {
            let mut words = vec!["w0"; (i % 7 + 1) as usize];
            if i % 2 == 0 {
                words.push("w1");
            }
            if i % 151 == 0 {
                words.push("w2");
            }
            words.extend(["w3", "w4", "w5", "w6"].iter().take((i % 5) as usize));
            words.join(" ")
        })
        .collect()
}

#[test]
fn pruned_matches_the_reference_on_blocked_records() {
    let texts = blocked_texts();
    let oracle = Oracle::new(&texts);
    let (mut store, dict, docs, _) = engine(&texts);
    let mut skipped = 0u64;
    for terms in [
        bag(&[(1.0, "w2"), (1.0, "w0")]),
        bag(&[(1.0, "w1"), (2.0, "w2"), (1.0, "w6")]),
        bag(&[(1.0, "w0"), (1.0, "w1")]),
    ] {
        let stats =
            check_against_oracle(&oracle, &mut store, &dict, &docs, &terms, &[1, 3, 10, 50]);
        skipped += stats.postings_skipped + stats.blocks_skipped;
    }
    assert!(skipped > 0, "blocked corpus with small k must skip postings");
}

/// A store double that serves byte ranges, counting the calls and the
/// bytes handed out, so tests can see the lazy-fetch path at work.
struct RangeStore {
    inner: MemoryStore,
    range_reads: u64,
    bytes_served: u64,
}

impl InvertedFileStore for RangeStore {
    fn fetch(&mut self, store_ref: u64) -> Result<RecordBytes> {
        self.inner.fetch(store_ref)
    }
    fn fetch_range(&mut self, store_ref: u64, start: u64, len: usize) -> Result<RecordBytes> {
        self.range_reads += 1;
        let bytes = self.inner.fetch(store_ref)?;
        let from = (start.min(bytes.len() as u64)) as usize;
        let to = from.saturating_add(len).min(bytes.len());
        self.bytes_served += (to - from) as u64;
        Ok(bytes.slice(from, to))
    }
    fn supports_range_read(&self) -> bool {
        true
    }
    fn record_lookups(&self) -> u64 {
        self.inner.record_lookups()
    }
}

#[test]
fn pruned_range_reads_fetch_blocks_lazily() {
    let texts = blocked_texts();
    let oracle = Oracle::new(&texts);
    let (inner, dict, docs, total_bytes) = engine(&texts);
    let mut ranged = RangeStore { inner, range_reads: 0, bytes_served: 0 };
    let terms = bag(&[(2.0, "w2"), (1.0, "w0")]);
    let stats = check_against_oracle(&oracle, &mut ranged, &dict, &docs, &terms, &[5]);
    assert!(ranged.range_reads >= 2, "prefix plus at least one block read");
    assert!(stats.blocks_skipped > 0, "seeks must bypass whole blocks");
    assert!(
        ranged.bytes_served < total_bytes as u64,
        "lazy fetch must move fewer bytes than the whole records ({} vs {total_bytes})",
        ranged.bytes_served
    );
}

/// Documents of 0..30 words; word `x * x / VOCABULARY` for uniform `x`,
/// so `w0` lands in most documents.
fn collection() -> impl Strategy<Value = Vec<String>> {
    let word = (0..VOCABULARY).prop_map(|x| format!("w{}", x * x / VOCABULARY));
    let doc = proptest::collection::vec(word, 0..30).prop_map(|words| words.join(" "));
    proptest::collection::vec(doc, 250..400)
}

/// Weighted bags of 1..12 terms; indices past the vocabulary name terms
/// no document holds. Weights are exact binary fractions.
fn bags() -> impl Strategy<Value = Vec<Vec<(f64, String)>>> {
    let term = (0..4usize, 0..VOCABULARY + 6).prop_map(|(w, t)| {
        let weight = [0.5, 1.0, 2.0, 3.0][w];
        let name = if t < VOCABULARY { format!("w{t}") } else { format!("unknown{t}") };
        (weight, name)
    });
    proptest::collection::vec(proptest::collection::vec(term, 1..12), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn daat_rankers_match_the_reference_bit_for_bit(texts in collection(), bags in bags()) {
        let oracle = Oracle::new(&texts);
        let (mut store, dict, docs, _) = engine(&texts);
        prop_assert!(
            oracle.postings.get("w0").is_some_and(|p| p.len() > poir_inquery::BLOCK_SIZE as usize),
            "the commonest list must take the blocked layout"
        );
        let params = BeliefParams::default();
        for bag in &bags {
            for k in [1, 10, 100] {
                let expected = oracle.rank(bag, k);
                let (pruned, _) = rank_daat_pruned(&mut store, &dict, &docs, params, bag, k).unwrap();
                prop_assert_eq!(&bits(pruned), &expected, "rank_daat_pruned k={} bag={:?}", k, bag);
            }
        }
    }
}
