//! An independent reference ranker for bag-of-words and structured queries.
//!
//! The oracle shares no code with the engine's ranking paths: it reads the
//! raw document texts into `HashMap`s of postings and word positions (no
//! records, codec or cursors), writes the belief formula and the operator
//! combinators out from `belief.rs`'s module documentation, and fully
//! sorts. For bag-of-words queries it sums in the order `rank_daat_pruned`
//! documents (ascending list index, then the absent mass); the
//! document-at-a-time ranker must match it document for document and score
//! bit for bit, however much its max-score pruning skips. For query trees
//! (`#sum #and #or #not #max #wsum #phrase #uwN`) the term-at-a-time
//! `Evaluator` must match it the same way.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use poir_inquery::query::daat::{rank_daat_pruned, DaatStats};
use poir_inquery::{
    BeliefParams, Dictionary, DocTable, Evaluator, IndexBuilder, InvertedFileStore, MemoryStore,
    QueryNode, RecordBytes, Result, ScoredDoc, StopWords,
};

/// Words in the generated collections; low indices are drawn far more
/// often, so the commonest lists outgrow `BLOCK_SIZE` and take the blocked
/// record layout.
const VOCABULARY: u32 = 60;

/// The reference: postings, word positions and lengths straight from the
/// texts.
struct Oracle {
    postings: HashMap<String, Vec<(u32, u32)>>,
    /// Each word's positions in each document holding it, by word order.
    positions: HashMap<String, HashMap<u32, Vec<u32>>>,
    lens: Vec<u32>,
}

impl Oracle {
    fn new(texts: &[String]) -> Oracle {
        let mut postings: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        let mut positions: HashMap<String, HashMap<u32, Vec<u32>>> = HashMap::new();
        let mut lens = Vec::new();
        for (doc, text) in texts.iter().enumerate() {
            let words: Vec<&str> = text.split(' ').filter(|w| !w.is_empty()).collect();
            lens.push(words.len() as u32);
            let mut tfs: HashMap<&str, u32> = HashMap::new();
            for (at, &w) in words.iter().enumerate() {
                *tfs.entry(w).or_default() += 1;
                let by_doc = positions.entry(w.to_string()).or_default();
                by_doc.entry(doc as u32).or_default().push(at as u32);
            }
            for (w, tf) in tfs {
                postings.entry(w.to_string()).or_default().push((doc as u32, tf));
            }
        }
        Oracle { postings, positions, lens }
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

/// A query tree with each leaf resolved to its evidence: the belief of
/// every document the leaf matches.
enum Resolved {
    Leaf(HashMap<u32, f64>),
    And(Vec<Resolved>),
    Or(Vec<Resolved>),
    Sum(Vec<Resolved>),
    Max(Vec<Resolved>),
    WSum(Vec<(f64, Resolved)>),
    Not(Box<Resolved>),
}

/// The default belief `d`.
const DEFAULT: f64 = 0.4;

impl Oracle {
    /// Where `word` occurs in `doc` (empty when it does not).
    fn at(&self, word: &str, doc: u32) -> &[u32] {
        self.positions.get(word).and_then(|d| d.get(&doc)).map_or(&[], Vec::as_slice)
    }

    /// A leaf's evidence from per-document occurrence counts: a synthetic
    /// term whose df is the number of documents with a count above zero.
    fn leaf(&self, counts: impl Fn(u32) -> u32) -> Resolved {
        let tfs: Vec<(u32, u32)> = (0..self.lens.len() as u32)
            .map(|doc| (doc, counts(doc)))
            .filter(|&(_, tf)| tf > 0)
            .collect();
        let df = tfs.len() as u32;
        Resolved::Leaf(
            tfs.into_iter()
                .map(|(doc, tf)| (doc, self.belief(tf, self.lens[doc as usize], df)))
                .collect(),
        )
    }

    /// Occurrences of `terms` at consecutive positions in `doc`.
    fn phrase_count(&self, terms: &[String], doc: u32) -> u32 {
        let starts = self.at(&terms[0], doc);
        let matches = |&p: &&u32| {
            terms.iter().enumerate().all(|(j, t)| self.at(t, doc).contains(&(p + j as u32)))
        };
        starts.iter().filter(matches).count() as u32
    }

    /// Disjoint windows of `size` positions holding every one of `terms`
    /// in `doc`: the window starting earliest ends where the last term's
    /// first occurrence at or after that start lies, and the next window
    /// starts after it.
    fn window_count(&self, terms: &[String], size: u32, doc: u32) -> u32 {
        let len = self.lens[doc as usize];
        let (mut count, mut start) = (0, 0);
        while start < len {
            // Each term's first occurrence at or after `start`.
            let firsts: Option<Vec<u32>> = terms
                .iter()
                .map(|t| self.at(t, doc).iter().copied().find(|&p| p >= start))
                .collect();
            let Some(firsts) = firsts else { break };
            let end = firsts.into_iter().max().unwrap();
            if end - start < size {
                count += 1;
                start = end + 1;
            } else {
                start += 1;
            }
        }
        count
    }

    fn resolve(&self, q: &QueryNode) -> Resolved {
        let all = |c: &[QueryNode]| c.iter().map(|c| self.resolve(c)).collect();
        match q {
            QueryNode::Term(t) => self.leaf(|doc| self.at(t, doc).len() as u32),
            QueryNode::Phrase(terms) => self.leaf(|doc| self.phrase_count(terms, doc)),
            QueryNode::Window { size, terms } => {
                self.leaf(|doc| self.window_count(terms, *size, doc))
            }
            QueryNode::And(c) => Resolved::And(all(c)),
            QueryNode::Or(c) => Resolved::Or(all(c)),
            QueryNode::Sum(c) => Resolved::Sum(all(c)),
            QueryNode::Max(c) => Resolved::Max(all(c)),
            QueryNode::WSum(c) => {
                Resolved::WSum(c.iter().map(|(w, c)| (*w, self.resolve(c))).collect())
            }
            QueryNode::Not(c) => Resolved::Not(Box::new(self.resolve(c))),
        }
    }

    /// Ranks `query` over every document, fully sorted.
    fn rank_tree(&self, query: &QueryNode) -> Vec<(u32, u64)> {
        let tree = self.resolve(query);
        let mut matched = BTreeSet::new();
        tree.matches(&mut matched);
        let mut scored: Vec<(u32, f64)> = matched.into_iter().map(|d| (d, tree.at(d))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.into_iter().map(|(doc, score)| (doc, score.to_bits())).collect()
    }
}

impl Resolved {
    /// The union of the leaves' matching documents.
    fn matches(&self, out: &mut BTreeSet<u32>) {
        match self {
            Resolved::Leaf(m) => out.extend(m.keys()),
            Resolved::And(c) | Resolved::Or(c) | Resolved::Sum(c) | Resolved::Max(c) => {
                c.iter().for_each(|c| c.matches(out))
            }
            Resolved::WSum(c) => c.iter().for_each(|(_, c)| c.matches(out)),
            Resolved::Not(c) => c.matches(out),
        }
    }

    /// The node's belief in `doc`, from `belief.rs`: `#and` the product,
    /// `#or` 1 − ∏(1 − pᵢ), `#not` 1 − p, `#sum` the mean, `#wsum` the
    /// weighted mean, `#max` the maximum, each over the children in order.
    fn at(&self, doc: u32) -> f64 {
        match self {
            Resolved::Leaf(m) => m.get(&doc).copied().unwrap_or(DEFAULT),
            Resolved::And(c) => {
                let mut p = 1.0;
                for c in c {
                    p *= c.at(doc);
                }
                p
            }
            Resolved::Or(c) => {
                let mut q = 1.0;
                for c in c {
                    q *= 1.0 - c.at(doc);
                }
                1.0 - q
            }
            Resolved::Sum(c) => {
                let mut s = 0.0;
                for c in c {
                    s += c.at(doc);
                }
                s / c.len() as f64
            }
            Resolved::Max(c) => {
                let mut m: f64 = 0.0;
                for c in c {
                    m = m.max(c.at(doc));
                }
                m
            }
            Resolved::WSum(c) => {
                let (mut total, mut s) = (0.0, 0.0);
                for (w, _) in c {
                    total += w;
                }
                for (w, c) in c {
                    s += w * c.at(doc);
                }
                s / total
            }
            Resolved::Not(c) => 1.0 - c.at(doc),
        }
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

/// A word of the collection's skewed vocabulary, or (past it) one no
/// document holds. The collection has no stop words and no one-letter
/// words, so no phrase term is a positional wildcard.
fn tree_word() -> impl Strategy<Value = String> {
    (0..VOCABULARY + 4).prop_map(|x| {
        if x < VOCABULARY {
            format!("w{}", x * x / VOCABULARY)
        } else {
            format!("unknown{x}")
        }
    })
}

/// Query trees of at most `depth` levels over every operator, with terms,
/// phrases and unordered windows as leaves.
fn query_tree(depth: u32) -> BoxedStrategy<QueryNode> {
    let leaf = prop_oneof![
        3 => tree_word().prop_map(QueryNode::Term),
        1 => proptest::collection::vec(tree_word(), 1..4).prop_map(QueryNode::Phrase),
        1 => (1u32..9, proptest::collection::vec(tree_word(), 1..4))
            .prop_map(|(size, terms)| QueryNode::Window { size, terms }),
    ];
    if depth <= 1 {
        return leaf.boxed();
    }
    let inner = query_tree(depth - 1);
    let children = || proptest::collection::vec(inner.clone(), 1..5);
    let weighted = proptest::collection::vec((0..4usize, inner.clone()), 1..5);
    prop_oneof![
        1 => leaf,
        1 => children().prop_map(QueryNode::Sum),
        1 => children().prop_map(QueryNode::And),
        1 => children().prop_map(QueryNode::Or),
        1 => children().prop_map(QueryNode::Max),
        1 => inner.clone().prop_map(|c| QueryNode::Not(Box::new(c))),
        1 => weighted.prop_map(|c| {
            QueryNode::WSum(c.into_iter().map(|(w, c)| ([0.5, 1.0, 2.0, 3.0][w], c)).collect())
        }),
    ]
    .boxed()
}

#[test]
fn evaluator_matches_the_reference_on_a_small_corpus() {
    let texts: Vec<String> =
        ["w0 w1 w2 w0 w1", "w1 w1 w3", "w0 w3 w4 w1 w0", "w5 w6 w7 w0"].map(String::from).to_vec();
    let oracle = Oracle::new(&texts);
    let (mut store, dict, docs, _) = engine(&texts);
    let stop = StopWords::none();
    let words = |w: &[&str]| w.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    let term = |w: &str| QueryNode::Term(w.to_string());
    for query in [
        QueryNode::Sum(vec![term("w0"), term("w1"), term("w9")]),
        QueryNode::And(vec![term("w0"), QueryNode::Not(Box::new(term("w3")))]),
        QueryNode::Or(vec![QueryNode::Phrase(words(&["w0", "w1"])), term("w5")]),
        QueryNode::Max(vec![QueryNode::Window { size: 3, terms: words(&["w1", "w0"]) }]),
        QueryNode::WSum(vec![(2.0, term("w3")), (1.0, QueryNode::Phrase(words(&["w1", "w1"])))]),
    ] {
        let mut ev = Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
        let ranked = bits(ev.rank(&query, usize::MAX).unwrap());
        assert_eq!(ranked, oracle.rank_tree(&query), "{query:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn evaluator_matches_the_reference_on_query_trees(
        texts in collection(),
        queries in proptest::collection::vec(query_tree(3), 1..4),
    ) {
        let oracle = Oracle::new(&texts);
        let (mut store, dict, docs, _) = engine(&texts);
        let stop = StopWords::none();
        for query in &queries {
            let expected = oracle.rank_tree(query);
            for k in [1, 10, 100, usize::MAX] {
                let mut ev =
                    Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
                let ranked = bits(ev.rank(query, k).unwrap());
                prop_assert_eq!(
                    &ranked[..],
                    &expected[..k.min(expected.len())],
                    "k={} query={:?}",
                    k,
                    query
                );
            }
        }
    }
}
