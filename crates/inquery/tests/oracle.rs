//! An independent reference ranker for bag-of-words queries.
//!
//! The oracle shares no code with the engine's ranking path: it reads the
//! raw document texts into a `HashMap` of postings (no records, codec or
//! cursors), writes the belief formula out from `belief.rs`'s module
//! documentation, sums in the order `rank_daat` documents (ascending list
//! index, then the absent mass) and fully sorts. Both document-at-a-time
//! rankers must match it document for document and score bit for bit.

use std::collections::HashMap;

use proptest::prelude::*;

use poir_inquery::query::daat::{rank_daat, rank_daat_pruned};
use poir_inquery::{BeliefParams, Dictionary, DocTable, IndexBuilder, MemoryStore, StopWords};

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

fn engine(texts: &[String]) -> (MemoryStore, Dictionary, DocTable) {
    let mut builder = IndexBuilder::new(StopWords::none());
    for (i, text) in texts.iter().enumerate() {
        builder.add_document(&format!("D{i}"), text);
    }
    let idx = builder.finish();
    let mut store = MemoryStore::new();
    let mut dict = idx.dictionary;
    for (term, bytes) in idx.records {
        let r = store.add(bytes);
        dict.entry_mut(term).store_ref = r;
    }
    (store, dict, idx.documents)
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
        let (mut store, dict, docs) = engine(&texts);
        prop_assert!(
            oracle.postings.get("w0").is_some_and(|p| p.len() > poir_inquery::BLOCK_SIZE as usize),
            "the commonest list must take the blocked layout"
        );
        let params = BeliefParams::default();
        for bag in &bags {
            for k in [1, 10, 100] {
                let expected = oracle.rank(bag, k);
                let bits = |r: Vec<poir_inquery::ScoredDoc>| -> Vec<(u32, u64)> {
                    r.into_iter().map(|s| (s.doc.0, s.score.to_bits())).collect()
                };
                let full = bits(rank_daat(&mut store, &dict, &docs, params, bag, k).unwrap());
                prop_assert_eq!(&full, &expected, "rank_daat k={} bag={:?}", k, bag);
                let (pruned, _) = rank_daat_pruned(&mut store, &dict, &docs, params, bag, k).unwrap();
                prop_assert_eq!(&bits(pruned), &expected, "rank_daat_pruned k={} bag={:?}", k, bag);
            }
        }
    }
}
