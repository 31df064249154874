//! Term-at-a-time query evaluation.
//!
//! "During retrieval, INQUERY performs 'term-at-a-time' processing of
//! evidence. That is, it reads the complete record for one term, and merges
//! the evidence from that term with the evidence it is accumulating for
//! each document. Then it processes the next term." (Section 3.1)
//!
//! Each query node evaluates to a [`ScoreList`]: the documents with
//! non-default belief plus the default belief shared by every other
//! document. Operator nodes merge their children's score lists with the
//! belief combinators in [`crate::belief`]; leaf nodes fetch one complete
//! inverted record through the pluggable [`InvertedFileStore`].

use std::collections::HashMap;

use crate::belief::{BeliefParams, CollectionStats, ListIdf};
use crate::dict::Dictionary;
use crate::documents::DocTable;
use crate::error::{InqueryError, Result};
use crate::postings::{DocId, InvertedRecord};
use crate::query::ast::QueryNode;
use crate::store::InvertedFileStore;
use crate::text::StopWords;

/// Beliefs for the documents that have evidence, plus the shared default.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreList {
    /// Belief of every document not present in `entries`.
    pub default: f64,
    /// `(doc, belief)` pairs, ascending by document id.
    pub entries: Vec<(DocId, f64)>,
}

impl ScoreList {
    /// A list where every document has the same belief.
    pub fn uniform(default: f64) -> Self {
        ScoreList { default, entries: Vec::new() }
    }
}

/// A ranked result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDoc {
    /// The document.
    pub doc: DocId,
    /// Its final belief.
    pub score: f64,
}

/// Term-at-a-time evaluator over a pluggable inverted-file store.
pub struct Evaluator<'a, S: InvertedFileStore + ?Sized> {
    store: &'a mut S,
    dict: &'a Dictionary,
    docs: &'a DocTable,
    stop: &'a StopWords,
    stats: CollectionStats,
    params: BeliefParams,
    records_fetched: u64,
    bytes_fetched: u64,
    dict_lookups: u64,
}

impl<'a, S: InvertedFileStore + ?Sized> Evaluator<'a, S> {
    /// Creates an evaluator for one query session.
    pub fn new(
        store: &'a mut S,
        dict: &'a Dictionary,
        docs: &'a DocTable,
        stop: &'a StopWords,
        params: BeliefParams,
    ) -> Self {
        let stats = CollectionStats { num_docs: docs.len() as u32, avg_doc_len: docs.avg_len() };
        Evaluator {
            store,
            dict,
            docs,
            stop,
            stats,
            params,
            records_fetched: 0,
            bytes_fetched: 0,
            dict_lookups: 0,
        }
    }

    /// Complete inverted records fetched so far.
    pub fn records_fetched(&self) -> u64 {
        self.records_fetched
    }

    /// Compressed record bytes fetched so far.
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched
    }

    /// Dictionary lookups performed during evaluation so far.
    pub fn dict_lookups(&self) -> u64 {
        self.dict_lookups
    }

    /// The reservation pass: scan the query tree and pin whatever evidence
    /// is already resident (Section 3.3). Call before [`Evaluator::evaluate`];
    /// pair with [`Evaluator::release_reservations`].
    pub fn reserve(&mut self, query: &QueryNode) {
        let refs: Vec<u64> = query
            .leaf_terms()
            .into_iter()
            .filter_map(|t| self.dict.lookup(t))
            .map(|id| self.dict.entry(id).store_ref)
            .collect();
        self.store.reserve(&refs);
    }

    /// Releases reservations placed by [`Evaluator::reserve`].
    pub fn release_reservations(&mut self) {
        self.store.release_reservations();
    }

    fn fetch_record(&mut self, term: &str) -> Result<Option<InvertedRecord>> {
        self.dict_lookups += 1;
        let Some(id) = self.dict.lookup(term) else { return Ok(None) };
        let bytes = self.store.fetch(self.dict.entry(id).store_ref)?;
        self.records_fetched += 1;
        self.bytes_fetched += bytes.len() as u64;
        let record = InvertedRecord::decode(&bytes).ok_or_else(|| {
            InqueryError::BadRecord(format!("record for term {term:?} failed to decode"))
        })?;
        Ok(Some(record))
    }

    /// Belief of `tf` occurrences in `doc`, for a list whose idf factor
    /// was built once with [`BeliefParams::list_idf`].
    fn belief(&self, tf: u32, doc: DocId, idf: ListIdf) -> f64 {
        self.params.belief(tf, self.params.len_term(self.docs.info(doc).len, &self.stats), idf)
    }

    /// Evaluates a query tree into a score list.
    pub fn evaluate(&mut self, query: &QueryNode) -> Result<ScoreList> {
        match query {
            QueryNode::Term(t) => self.eval_term(t),
            QueryNode::And(children) => {
                let lists = self.eval_children(children)?;
                Ok(combine(&lists, |b| BeliefParams::and(b.iter().copied())))
            }
            QueryNode::Or(children) => {
                let lists = self.eval_children(children)?;
                Ok(combine(&lists, |b| BeliefParams::or(b.iter().copied())))
            }
            QueryNode::Sum(children) => {
                let lists = self.eval_children(children)?;
                Ok(combine(&lists, BeliefParams::sum))
            }
            QueryNode::Max(children) => {
                let lists = self.eval_children(children)?;
                Ok(combine(&lists, |b| BeliefParams::max(b.iter().copied())))
            }
            QueryNode::Not(child) => {
                let inner = self.evaluate(child)?;
                Ok(ScoreList {
                    default: BeliefParams::not(inner.default),
                    entries: inner
                        .entries
                        .into_iter()
                        .map(|(d, b)| (d, BeliefParams::not(b)))
                        .collect(),
                })
            }
            QueryNode::WSum(children) => {
                let mut lists = Vec::with_capacity(children.len());
                let mut weights = Vec::with_capacity(children.len());
                for (w, child) in children {
                    weights.push(*w);
                    lists.push(self.evaluate(child)?);
                }
                Ok(combine(&lists, |beliefs| {
                    let weighted: Vec<(f64, f64)> =
                        weights.iter().copied().zip(beliefs.iter().copied()).collect();
                    BeliefParams::wsum(&weighted)
                }))
            }
            QueryNode::Phrase(terms) => self.eval_proximity(terms, None),
            QueryNode::Window { size, terms } => self.eval_proximity(terms, Some(*size)),
        }
    }

    fn eval_children(&mut self, children: &[QueryNode]) -> Result<Vec<ScoreList>> {
        children.iter().map(|c| self.evaluate(c)).collect()
    }

    fn eval_term(&mut self, term: &str) -> Result<ScoreList> {
        let default = self.params.default_belief;
        let Some(record) = self.fetch_record(term)? else {
            return Ok(ScoreList::uniform(default));
        };
        let idf = self.params.list_idf(record.df(), &self.stats);
        let entries =
            record.postings.iter().map(|p| (p.doc, self.belief(p.tf, p.doc, idf))).collect();
        Ok(ScoreList { default, entries })
    }

    /// Evaluates `#phrase` (window `None`) or `#uwN` (window `Some(n)`).
    ///
    /// The synthetic term's occurrences are counted per document, its
    /// document frequency is the number of matching documents, and beliefs
    /// are computed exactly as for an ordinary term (INQUERY treats
    /// proximity operators as evidence sources).
    fn eval_proximity(&mut self, terms: &[String], window: Option<u32>) -> Result<ScoreList> {
        // For #phrase, stop words contribute a position offset but no
        // posting list (the index does not store them); the remaining terms
        // must appear at their exact relative offsets.
        let mut needed: Vec<(usize, &str)> = Vec::new();
        for (offset, t) in terms.iter().enumerate() {
            if window.is_none() && (t.len() < 2 || self.stop.contains(t)) {
                continue; // positional wildcard inside a phrase
            }
            needed.push((offset, t));
        }
        if needed.is_empty() {
            return Ok(ScoreList::uniform(self.params.default_belief));
        }
        let mut records = Vec::with_capacity(needed.len());
        for (offset, term) in &needed {
            match self.fetch_record(term)? {
                Some(r) => records.push((*offset, r)),
                // A genuinely unknown content word: the phrase matches
                // nothing anywhere.
                None => return Ok(ScoreList::uniform(self.params.default_belief)),
            }
        }
        // Intersect documents across all needed terms.
        let mut doc_tf: Vec<(DocId, u32)> = Vec::new();
        let first_docs: Vec<DocId> = records[0].1.postings.iter().map(|p| p.doc).collect();
        'docs: for doc in first_docs {
            let mut position_sets: Vec<(usize, &[u32])> = Vec::with_capacity(records.len());
            for (offset, record) in &records {
                match record.postings.binary_search_by_key(&doc, |p| p.doc) {
                    Ok(i) => position_sets.push((*offset, &record.postings[i].positions)),
                    Err(_) => continue 'docs,
                }
            }
            let count = match window {
                None => phrase_matches(&position_sets),
                Some(size) => window_matches(&position_sets, size),
            };
            if count > 0 {
                doc_tf.push((doc, count));
            }
        }
        let idf = self.params.list_idf(doc_tf.len() as u32, &self.stats);
        let default = self.params.default_belief;
        let entries =
            doc_tf.into_iter().map(|(doc, tf)| (doc, self.belief(tf, doc, idf))).collect();
        Ok(ScoreList { default, entries })
    }

    /// Evaluates and ranks: documents with evidence, best belief first
    /// (ties broken by document id for determinism). "Document ranking is a
    /// sorting problem" (Section 3.1).
    pub fn rank(&mut self, query: &QueryNode, k: usize) -> Result<Vec<ScoredDoc>> {
        let list = self.evaluate(query)?;
        Ok(rank_score_list(list, k))
    }
}

/// Ranks an evaluated score list: documents with evidence, best belief
/// first, ties broken by document id, truncated to `k`. Split out of
/// [`Evaluator::rank`] so callers can time evaluation and ranking as
/// separate phases.
pub fn rank_score_list(list: ScoreList, k: usize) -> Vec<ScoredDoc> {
    let mut scored: Vec<ScoredDoc> =
        list.entries.into_iter().map(|(doc, score)| ScoredDoc { doc, score }).collect();
    scored.sort_unstable_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.doc.cmp(&b.doc))
    });
    scored.truncate(k);
    scored
}

/// Counts exact phrase occurrences: an anchor position `p` matches when
/// every term with phrase offset `o` has a position `p + o`.
fn phrase_matches(position_sets: &[(usize, &[u32])]) -> u32 {
    let (base_offset, base_positions) = position_sets[0];
    let mut count = 0u32;
    'anchor: for &p in base_positions {
        let anchor = p as i64 - base_offset as i64;
        if anchor < 0 {
            continue;
        }
        for &(offset, positions) in &position_sets[1..] {
            let want = (anchor + offset as i64) as u32;
            if positions.binary_search(&want).is_err() {
                continue 'anchor;
            }
        }
        count += 1;
    }
    count
}

/// Counts non-overlapping unordered windows of at most `size` positions
/// containing one occurrence of every term (minimal-cover sweep).
fn window_matches(position_sets: &[(usize, &[u32])], size: u32) -> u32 {
    let k = position_sets.len();
    let mut pointers = vec![0usize; k];
    let mut count = 0u32;
    loop {
        let mut min_pos = u32::MAX;
        let mut max_pos = 0u32;
        let mut min_idx = 0usize;
        for (i, &(_, positions)) in position_sets.iter().enumerate() {
            let Some(&p) = positions.get(pointers[i]) else { return count };
            if p < min_pos {
                min_pos = p;
                min_idx = i;
            }
            max_pos = max_pos.max(p);
        }
        if max_pos - min_pos < size {
            count += 1;
            // Non-overlapping: every pointer advances past this window.
            for (i, &(_, positions)) in position_sets.iter().enumerate() {
                while pointers[i] < positions.len() && positions[pointers[i]] <= max_pos {
                    pointers[i] += 1;
                }
            }
        } else {
            pointers[min_idx] += 1;
        }
    }
}

/// Merges child score lists document-wise with `f` applied to the per-child
/// belief vector.
fn combine(lists: &[ScoreList], f: impl Fn(&[f64]) -> f64) -> ScoreList {
    let defaults: Vec<f64> = lists.iter().map(|l| l.default).collect();
    let mut acc: HashMap<DocId, Vec<f64>> = HashMap::new();
    for (i, list) in lists.iter().enumerate() {
        for &(doc, belief) in &list.entries {
            acc.entry(doc).or_insert_with(|| defaults.clone())[i] = belief;
        }
    }
    let mut entries: Vec<(DocId, f64)> =
        acc.into_iter().map(|(doc, beliefs)| (doc, f(&beliefs))).collect();
    entries.sort_unstable_by_key(|&(doc, _)| doc);
    ScoreList { default: f(&defaults), entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::store::MemoryStore;

    /// Builds a tiny collection in a memory store and returns the pieces an
    /// evaluator needs.
    fn corpus() -> (MemoryStore, Dictionary, DocTable, StopWords) {
        let stop = StopWords::default();
        let mut b = IndexBuilder::new(stop.clone());
        b.add_document("D0", "persistent object store performance");
        b.add_document("D1", "object oriented database systems and the object model");
        b.add_document("D2", "information retrieval with inverted file index structures");
        b.add_document("D3", "the persistent object store supports information retrieval");
        b.add_document("D4", "btree index file structures");
        let idx = b.finish();
        let mut store = MemoryStore::new();
        let mut dict = idx.dictionary;
        for (term, bytes) in idx.records {
            let r = store.add(bytes);
            dict.entry_mut(term).store_ref = r;
        }
        (store, dict, idx.documents, stop)
    }

    fn eval(query: &str) -> Vec<ScoredDoc> {
        let (mut store, dict, docs, stop) = corpus();
        let q = crate::query::parser::parse_query(query, &stop).unwrap();
        let mut ev = Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
        ev.rank(&q, 10).unwrap()
    }

    #[test]
    fn single_term_ranks_matching_docs() {
        let ranked = eval("object");
        let docs: Vec<u32> = ranked.iter().map(|s| s.doc.0).collect();
        assert!(docs.contains(&0) && docs.contains(&1) && docs.contains(&3));
        assert_eq!(docs.len(), 3);
        // D1 has tf=2 but is longer; all scores must be above the default.
        assert!(ranked.iter().all(|s| s.score > 0.4));
    }

    #[test]
    fn unknown_term_matches_nothing() {
        assert!(eval("zebra").is_empty());
    }

    #[test]
    fn sum_prefers_docs_matching_more_terms() {
        let ranked = eval("persistent object store");
        assert!(!ranked.is_empty());
        // D0 and D3 contain all three; they must outrank D1 (only "object").
        let top2: Vec<u32> = ranked.iter().take(2).map(|s| s.doc.0).collect();
        assert!(top2.contains(&0));
        assert!(top2.contains(&3));
    }

    #[test]
    fn and_rewards_conjunction() {
        let ranked = eval("#and(information retrieval)");
        let top = ranked.first().unwrap();
        assert!(top.doc.0 == 2 || top.doc.0 == 3);
        // Docs with both terms beat the baseline product of defaults.
        assert!(top.score > 0.4 * 0.4);
    }

    #[test]
    fn or_includes_any_match() {
        let ranked = eval("#or(btree mneme)");
        assert_eq!(ranked.len(), 1, "only D4 mentions btree; mneme is unknown");
        assert_eq!(ranked[0].doc.0, 4);
    }

    #[test]
    fn not_inverts_scores() {
        let (mut store, dict, docs, stop) = corpus();
        let q = crate::query::parser::parse_query("#not(object)", &stop).unwrap();
        let mut ev = Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
        let list = ev.evaluate(&q).unwrap();
        assert!((list.default - 0.6).abs() < 1e-12);
        // Docs containing "object" now score below the default.
        assert!(list.entries.iter().all(|&(_, b)| b < 0.6));
    }

    #[test]
    fn phrase_requires_adjacency() {
        let ranked = eval("#phrase(object store)");
        let docs: Vec<u32> = ranked.iter().map(|s| s.doc.0).collect();
        assert_eq!(docs, vec![0, 3], "only D0/D3 contain 'object store' adjacently");
        // D1 contains both words but never adjacent.
        assert!(!docs.contains(&1));
    }

    #[test]
    fn phrase_spans_stop_words() {
        // D3: "the persistent object store supports information retrieval"
        // "store supports information" has no stop words; test one WITH:
        // "retrieval with inverted" in D2 ("with" is a stop word).
        let ranked = eval("#phrase(retrieval with inverted)");
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].doc.0, 2);
    }

    #[test]
    fn window_matches_within_size() {
        // D2: information(0) retrieval(1) ... index(5): within a window of
        // 8 but not of 2.
        let wide = eval("#uw8(information index)");
        assert_eq!(wide.len(), 1);
        assert_eq!(wide[0].doc.0, 2);
        let narrow = eval("#uw2(information index)");
        assert!(narrow.is_empty());
    }

    #[test]
    fn wsum_weights_shift_ranking() {
        // Weight "btree" heavily: D4 must win over the object-store docs.
        let ranked = eval("#wsum(10 btree 1 object)");
        assert_eq!(ranked.first().unwrap().doc.0, 4);
        // And inverted weights flip it.
        let ranked = eval("#wsum(1 btree 10 object)");
        assert_ne!(ranked.first().unwrap().doc.0, 4);
    }

    #[test]
    fn max_takes_strongest_evidence() {
        let ranked = eval("#max(btree object)");
        let docs: Vec<u32> = ranked.iter().map(|s| s.doc.0).collect();
        for d in [0, 1, 3, 4] {
            assert!(docs.contains(&d));
        }
    }

    #[test]
    fn term_at_a_time_fetches_each_record_once_per_occurrence() {
        let (mut store, dict, docs, stop) = corpus();
        let q =
            crate::query::parser::parse_query("#sum(object #and(object store))", &stop).unwrap();
        let mut ev = Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
        ev.rank(&q, 5).unwrap();
        // "object" appears twice in the tree → fetched twice (no caching at
        // this layer; that is the store's job, per the paper).
        assert_eq!(ev.records_fetched(), 3);
        assert!(ev.bytes_fetched() > 0);
        let _ = ev;
        assert_eq!(store.record_lookups(), 3);
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let a = eval("information retrieval");
        let b = eval("information retrieval");
        assert_eq!(a, b);
    }

    #[test]
    fn combine_fills_missing_children_with_defaults() {
        let a = ScoreList { default: 0.4, entries: vec![(DocId(1), 0.8)] };
        let b = ScoreList { default: 0.5, entries: vec![(DocId(2), 0.9)] };
        let merged = combine(&[a, b], BeliefParams::sum);
        assert_eq!(merged.entries.len(), 2);
        assert!((merged.entries[0].1 - (0.8 + 0.5) / 2.0).abs() < 1e-12);
        assert!((merged.entries[1].1 - (0.4 + 0.9) / 2.0).abs() < 1e-12);
        assert!((merged.default - 0.45).abs() < 1e-12);
    }

    #[test]
    fn window_count_is_non_overlapping() {
        // positions: a = [0, 10, 20], b = [1, 11, 21] → 3 disjoint windows.
        let a = [0u32, 10, 20];
        let b = [1u32, 11, 21];
        assert_eq!(window_matches(&[(0, &a), (1, &b)], 3), 3);
        // Overlap case: a = [0], b = [1, 2]: one window only.
        let a = [0u32];
        let b = [1u32, 2];
        assert_eq!(window_matches(&[(0, &a), (1, &b)], 3), 1);
    }

    #[test]
    fn phrase_match_counting() {
        // "x y x y" positions: x = [0, 2], y = [1, 3] → "x y" occurs twice.
        let x = [0u32, 2];
        let y = [1u32, 3];
        assert_eq!(phrase_matches(&[(0, &x), (1, &y)]), 2);
        // Anchor underflow: y-first phrase offsets.
        let sets = [(1usize, &y[..]), (0usize, &x[..])];
        assert_eq!(phrase_matches(&sets), 2);
    }
}
