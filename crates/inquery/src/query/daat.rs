//! Document-at-a-time evaluation — the paper's scalability extension.
//!
//! "A 'document-at-a-time' approach, which gathered all of the evidence for
//! one document before proceeding to the next, might scale better to large
//! collections. However, it would be cumbersome with the current custom
//! B-tree package." (Section 3.1)
//!
//! With records fetched through the store abstraction this mode is no
//! longer cumbersome: all query-term records are opened as streaming
//! [`BlockCursor`]s and merged by document id, holding only one decoded
//! posting per term instead of whole accumulator maps. It applies to
//! bag-of-words queries (`#sum`/`#wsum` over terms), which is what the
//! paper's natural-language query sets produce.

use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::belief::{BeliefParams, CollectionStats, ListIdf};
use crate::dict::Dictionary;
use crate::documents::DocTable;
use crate::error::{InqueryError, Result};
use crate::postings::{BlockCursor, DocId, SkipBlock};
use crate::query::ast::QueryNode;
use crate::query::eval::ScoredDoc;
use crate::store::{InvertedFileStore, RecordBytes};

/// Safety margin for floating-point upper-bound comparisons. Bounds are
/// computed in a different operation order than exact scores, so two
/// mathematically ordered values can disagree by a few ulps; the margin
/// (10^6 ulps at score scale) makes skips strictly conservative.
const PRUNE_EPS: f64 = 1e-9;

/// Bytes fetched up front per term record on the range-read protocol —
/// one device transfer block, which covers every small- and medium-pool
/// record whole and a blocked record's header plus skip directory.
pub const RANGE_PREFIX: usize = 8192;

/// Records at most this long are fetched whole even on stores with cheap
/// range reads: the lazy protocol's prefix-plus-chunk reads land unaligned
/// to device blocks, so on a record the pruner ends up consuming almost
/// entirely it costs *more* device I/O than one whole-record fetch. Only
/// genuinely long records — where skipped tail blocks translate into whole
/// device transfers never issued — repay the range protocol.
pub const LAZY_MIN: usize = 4 * RANGE_PREFIX;

/// Work-avoidance counters reported by [`rank_daat_pruned`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaatStats {
    /// Postings decoded (doc/tf actually read).
    pub postings_decoded: u64,
    /// Postings bypassed without decoding via cursor seeks.
    pub postings_skipped: u64,
    /// Whole blocks bypassed via the skip directory.
    pub blocks_skipped: u64,
    /// Cursor seeks that moved (at least one block jumped).
    pub cursor_seeks: u64,
    /// Posting payload bytes actually decoded by the cursors.
    pub bytes_decoded: u64,
    /// Posting blocks decoded from the v2 bit-packed representation.
    pub blocks_bitpacked: u64,
    /// Packed blocks served from the store's decoded-block cache.
    pub block_cache_hits: u64,
    /// Packed blocks decoded despite an attached decoded-block cache.
    pub block_cache_misses: u64,
}

/// Flattens a query into `(weight, term)` pairs if it is a bag-of-words
/// query (a bare term, `#sum` of terms, or `#wsum` of terms).
pub fn flatten_bag(query: &QueryNode) -> Option<Vec<(f64, String)>> {
    match query {
        QueryNode::Term(t) => Some(vec![(1.0, t.clone())]),
        QueryNode::Sum(children) => children
            .iter()
            .map(|c| match c {
                QueryNode::Term(t) => Some((1.0, t.clone())),
                _ => None,
            })
            .collect(),
        QueryNode::WSum(children) => children
            .iter()
            .map(|(w, c)| match c {
                QueryNode::Term(t) => Some((*w, t.clone())),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// One term's record bytes, fetched lazily at skip-block granularity over
/// the store's range-read path. Complete lists hold the whole record —
/// kept in whatever form the store returned, so a zero-copy shared slice
/// stays shared for the life of the query; partial lists hold an owned
/// zero-filled buffer with the prefix and any ensured blocks copied in.
struct LazyList {
    bytes: RecordBytes,
    /// Per-skip-block "bytes present" flags; empty when `complete`.
    fetched: Vec<bool>,
    complete: bool,
    prefix_len: usize,
    store_ref: u64,
}

impl LazyList {
    /// Fetches a term record — whole, or prefix-first when the store can
    /// serve cheap range reads — and opens its cursor.
    fn fetch_open<S: InvertedFileStore + ?Sized>(
        store: &mut S,
        store_ref: u64,
    ) -> Result<(LazyList, BlockCursor, u32, u32)> {
        let open_err = || InqueryError::BadRecord("cursor open failed".into());
        // Short records (per the store's free length hint) take the single
        // whole-record fetch: below LAZY_MIN the range protocol cannot win.
        let short = store.record_len_hint(store_ref).is_some_and(|len| len <= LAZY_MIN as u64);
        if short || !store.supports_range_read() {
            let bytes = store.fetch(store_ref)?;
            let (cursor, df, _cf, max_tf) = BlockCursor::open(&bytes).ok_or_else(open_err)?;
            let list =
                LazyList { bytes, fetched: Vec::new(), complete: true, prefix_len: 0, store_ref };
            return Ok((list, cursor, df, max_tf));
        }
        let prefix = store.fetch_range(store_ref, 0, RANGE_PREFIX)?;
        if prefix.len() < RANGE_PREFIX {
            // The record ended inside the prefix: it is complete.
            let (cursor, df, _cf, max_tf) = BlockCursor::open(&prefix).ok_or_else(open_err)?;
            let list = LazyList {
                bytes: prefix,
                fetched: Vec::new(),
                complete: true,
                prefix_len: 0,
                store_ref,
            };
            return Ok((list, cursor, df, max_tf));
        }
        // The record continues past the prefix. Blocked records tell us
        // their exact length through the skip directory, letting later
        // blocks be fetched individually; anything else (an unblocked
        // record that still outgrew the prefix, or a directory too large
        // for one prefix) falls back to fetching the rest eagerly.
        if let Some((cursor, df, _cf, max_tf)) = BlockCursor::open(&prefix) {
            if let Some(total) = cursor.total_len() {
                if total > prefix.len() {
                    let prefix_len = prefix.len();
                    let mut bytes = prefix.into_vec();
                    bytes.resize(total, 0);
                    let fetched =
                        cursor.blocks().iter().map(|b| b.offset + b.len <= prefix_len).collect();
                    let list = LazyList {
                        bytes: RecordBytes::Owned(bytes),
                        fetched,
                        complete: false,
                        prefix_len,
                        store_ref,
                    };
                    return Ok((list, cursor, df, max_tf));
                }
                let list = LazyList {
                    bytes: prefix,
                    fetched: Vec::new(),
                    complete: true,
                    prefix_len: 0,
                    store_ref,
                };
                return Ok((list, cursor, df, max_tf));
            }
        }
        // Continuation read (start > 0): does not count another lookup.
        let mut bytes = prefix.into_vec();
        let rest = store.fetch_range(store_ref, bytes.len() as u64, usize::MAX)?;
        bytes.extend_from_slice(&rest);
        let (cursor, df, _cf, max_tf) = BlockCursor::open(&bytes).ok_or_else(open_err)?;
        let list = LazyList {
            bytes: RecordBytes::Owned(bytes),
            fetched: Vec::new(),
            complete: true,
            prefix_len: 0,
            store_ref,
        };
        Ok((list, cursor, df, max_tf))
    }

    /// Makes skip block `b`'s bytes present, range-reading only the part
    /// the prefix did not already cover. Posting blocks are far smaller
    /// than a device block, so the read is rounded up to [`RANGE_PREFIX`]
    /// bytes (clamped to the record) and every posting block it fully
    /// covers is marked fetched — sequential decode then costs about the
    /// same device I/O as a whole-record fetch, while seeks past the
    /// covered span still skip physical reads entirely.
    fn ensure_block<S: InvertedFileStore + ?Sized>(
        &mut self,
        store: &mut S,
        blocks: &[SkipBlock],
        b: usize,
    ) -> Result<()> {
        let blk = blocks[b];
        let start = blk.offset.max(self.prefix_len);
        let end = (start + RANGE_PREFIX).max(blk.offset + blk.len).min(self.bytes.len());
        if end > start {
            let chunk = store.fetch_range(self.store_ref, start as u64, end - start)?;
            if chunk.len() < end - start {
                return Err(InqueryError::BadRecord(format!(
                    "range read returned {} of {} bytes",
                    chunk.len(),
                    end - start
                )));
            }
            self.bytes.to_mut()[start..end].copy_from_slice(&chunk[..end - start]);
        }
        self.fetched[b] = true;
        // Later blocks that landed entirely inside the chunk are present
        // too (blocks are contiguous, so covering their end covers them).
        for (i, later) in blocks.iter().enumerate().skip(b + 1) {
            if later.offset + later.len > end {
                break;
            }
            self.fetched[i] = true;
        }
        Ok(())
    }
}

/// Head document of an exhausted list in [`rank_daat_pruned`]: it sorts
/// after every candidate, so an exhausted list never matches or leads.
const END: u32 = u32::MAX;

/// Advances one list's cursor, ensuring the current block's bytes are
/// present first. Returns the next `(doc, tf)`, or `(END, 0)` at the end.
fn advance_list<S: InvertedFileStore + ?Sized>(
    store: &mut S,
    list: &mut LazyList,
    cursor: &mut BlockCursor,
    stats: &mut DaatStats,
) -> Result<(u32, u32)> {
    if cursor.remaining() == 0 {
        return Ok((END, 0));
    }
    if !list.complete {
        if let Some(b) = cursor.current_block_index() {
            if !list.fetched[b] {
                list.ensure_block(store, cursor.blocks(), b)?;
            }
        }
    }
    match cursor.next_doc_tf(&list.bytes) {
        Some((doc, tf)) => {
            stats.postings_decoded += 1;
            Ok((doc.0, tf))
        }
        None => Err(InqueryError::BadRecord("posting decode failed".into())),
    }
}

/// Ranks a bag-of-words query document-at-a-time with max-score pruning.
/// Produces the same scores as the term-at-a-time evaluator on the same
/// query, up to floating-point summation order.
///
/// With `W` the sum of all weights (unknown terms included), a document's
/// score is `(Σ w_i · belief_i + (W − Σ w_i) · d) / W`, both sums running
/// over the lists that hold the document in ascending list index (query
/// order, unknown terms skipped), and `d` the default belief. Every
/// document in at least one known term's list is a candidate; results are
/// sorted by score descending, then document id ascending, and cut to `k`.
///
/// Pruning decides only which candidates are scored, never a score:
/// candidate documents are generated only from the lists whose belief
/// upper bound can still lift a document into the top k, cursor seeks
/// bypass whole posting blocks via the skip directory, and every document
/// that survives the bounds is scored in exactly the order above. The
/// independent reference in `tests/oracle.rs` checks the result bit for
/// bit.
pub fn rank_daat_pruned<S: InvertedFileStore + ?Sized>(
    store: &mut S,
    dict: &Dictionary,
    docs: &DocTable,
    params: BeliefParams,
    terms: &[(f64, String)],
    k: usize,
) -> Result<(Vec<ScoredDoc>, DaatStats)> {
    let mut stats = DaatStats::default();
    if k == 0 {
        return Ok((Vec::new(), stats));
    }
    let collection = CollectionStats { num_docs: docs.len() as u32, avg_doc_len: docs.avg_len() };
    let default = params.default_belief;

    // Fetch every known term's record in query order (one store lookup
    // per term, as in term-at-a-time); unknown terms keep their weight in
    // the normalisation. df is the dictionary's collection-wide count (the
    // record header's df is shard-local on a sharded index); max_tf stays
    // the record header's, which on a shard caps the postings actually in
    // the record — a tighter, still-sound pruning bound.
    let mut weights: Vec<f64> = Vec::new();
    let mut lists: Vec<LazyList> = Vec::new();
    let mut cursors: Vec<BlockCursor> = Vec::new();
    let mut idfs: Vec<ListIdf> = Vec::new();
    let mut max_tfs: Vec<u32> = Vec::new();
    let mut unknown_weight = 0.0f64;
    let block_cache = store.decoded_block_cache();
    let store_epoch = store.store_epoch();
    for (w, term) in terms {
        let Some(id) = dict.lookup(term) else {
            unknown_weight += *w;
            continue;
        };
        let store_ref = dict.entry(id).store_ref;
        let (list, mut cursor, _df, max_tf) = LazyList::fetch_open(store, store_ref)?;
        if let Some(cache) = &block_cache {
            // Cache hits only short-circuit the doc/tf unpack; position
            // bytes and lazy range reads behave exactly as uncached
            // (advance_list still ensures block bytes first), so I/O
            // accounting stays deterministic.
            cursor.attach_cache(Arc::clone(cache), store_epoch, store_ref);
        }
        weights.push(*w);
        lists.push(list);
        cursors.push(cursor);
        idfs.push(params.list_idf(dict.entry(id).df, &collection));
        max_tfs.push(max_tf);
    }
    let total_weight: f64 = weights.iter().sum::<f64>() + unknown_weight;
    if total_weight == 0.0 || weights.is_empty() {
        return Ok((Vec::new(), stats));
    }
    let n = weights.len();

    // Record-level upper bounds on each term's score contribution above
    // the all-absent baseline: belief is monotone increasing in tf and
    // decreasing in document length, so evaluating at (max_tf, min_len)
    // bounds every posting. Negative weights cannot raise a score above
    // baseline, so their delta clamps to zero.
    let min_len_term = params.len_term(docs.min_len(), &collection);
    let deltas: Vec<f64> = (0..n)
        .map(|i| {
            let ub = params.belief(max_tfs[i], min_len_term, idfs[i]);
            (weights[i] * (ub - default)).max(0.0)
        })
        .collect();

    // Lists in descending upper-bound order; tail[j] bounds the total
    // contribution of lists ord[j..].
    let mut ord: Vec<usize> = (0..n).collect();
    ord.sort_unstable_by(|&a, &b| {
        deltas[b].partial_cmp(&deltas[a]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut tail = vec![0.0f64; n + 1];
    for j in (0..n).rev() {
        tail[j] = tail[j + 1] + deltas[ord[j]];
    }

    // Current head posting per list, fetched in query order.
    let mut heads: Vec<(u32, u32)> = Vec::with_capacity(n);
    for i in 0..n {
        heads.push(advance_list(store, &mut lists[i], &mut cursors[i], &mut stats)?);
    }
    // From here on the per-list state the candidate loop reads is kept in
    // bound order: position j holds list ord[j], so the essential lists are
    // the prefix [..m] and each per-candidate pass over them is one
    // contiguous scan. `lists` and `cursors` stay in query order and are
    // reached through ord[j].
    let weights: Vec<f64> = ord.iter().map(|&i| weights[i]).collect();
    let idfs: Vec<ListIdf> = ord.iter().map(|&i| idfs[i]).collect();
    let deltas: Vec<f64> = ord.iter().map(|&i| deltas[i]).collect();
    let mut head_doc: Vec<u32> = ord.iter().map(|&i| heads[i].0).collect();
    let mut head_tf: Vec<u32> = ord.iter().map(|&i| heads[i].1).collect();

    // Top-k heap: peek() is the worst kept candidate (lowest score, then
    // largest doc — the one the final sort would drop first).
    struct Candidate {
        score: f64,
        doc: DocId,
    }
    impl PartialEq for Candidate {
        fn eq(&self, other: &Self) -> bool {
            self.score == other.score && self.doc == other.doc
        }
    }
    impl Eq for Candidate {}
    impl PartialOrd for Candidate {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Candidate {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .score
                .partial_cmp(&self.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.doc.cmp(&other.doc))
        }
    }
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    let mut theta = f64::NEG_INFINITY;

    // Number of essential lists (positions [..m]); lists past m cannot
    // lift a document over theta on their own and only get probed.
    let mut m = n;
    let stop_at: Vec<f64> =
        tail[..n].iter().map(|t| default + t / total_weight + PRUNE_EPS).collect();
    let recompute_m = |theta: f64| -> usize { (0..n).find(|&j| stop_at[j] <= theta).unwrap_or(n) };

    // Per-candidate buffers, reused: the essential positions at the
    // candidate (ascending), and the matching lists as (query-order index,
    // weight, belief).
    let mut at_cand: Vec<usize> = vec![0; n];
    let mut matched: Vec<(usize, f64, f64)> = Vec::with_capacity(n);
    loop {
        // Candidate: smallest head document among essential lists.
        let cand = head_doc[..m].iter().copied().fold(END, u32::min);
        if cand == END {
            break;
        }
        let len_term = params.len_term(docs.info(DocId(cand)).len, &collection);

        // Exact contributions from matching essential lists, record-level
        // bounds for the non-essential rest. Each posting's belief is
        // computed once: the bound uses it here, the final sum reuses it.
        let mut hits = 0;
        for (j, &d) in head_doc[..m].iter().enumerate() {
            at_cand[hits] = j;
            hits += (d == cand) as usize;
        }
        matched.clear();
        let mut bound = 0.0f64;
        for &j in &at_cand[..hits] {
            let belief = params.belief(head_tf[j], len_term, idfs[j]);
            matched.push((ord[j], weights[j], belief));
            bound += weights[j] * (belief - default);
        }
        for &d in &deltas[m..] {
            bound += d;
        }

        let mut alive = default + bound / total_weight + PRUNE_EPS > theta;
        if alive {
            // Probe non-essential lists in descending bound order,
            // replacing each record-level bound first with its block-max
            // refinement and then with the exact contribution. A stale
            // head (left behind while the list was non-essential) settles
            // the list without touching the cursor: at `cand` it is the
            // exact contribution, past `cand` (or exhausted) the list
            // cannot match.
            for j in m..n {
                bound -= deltas[j];
                if head_doc[j] < cand {
                    let (list, cursor) = (&mut lists[ord[j]], &mut cursors[ord[j]]);
                    let seek = cursor.seek(cand);
                    stats.blocks_skipped += seek.blocks_skipped;
                    stats.postings_skipped += seek.postings_skipped;
                    if seek.blocks_skipped > 0 {
                        stats.cursor_seeks += 1;
                    }
                    // Block-max refinement: the current block caps tf,
                    // which may rule the document out without touching
                    // its bytes.
                    let refined = match cursor.current_block_max_tf() {
                        Some(block_max) => {
                            let ub = params.belief(block_max, min_len_term, idfs[j]);
                            (weights[j] * (ub - default)).max(0.0).min(deltas[j])
                        }
                        None if cursor.remaining() == 0 => 0.0,
                        None => deltas[j],
                    };
                    if default + (bound + refined) / total_weight + PRUNE_EPS <= theta {
                        alive = false;
                        break;
                    }
                    // Decode within the block until we reach or pass cand.
                    while head_doc[j] < cand {
                        (head_doc[j], head_tf[j]) = advance_list(store, list, cursor, &mut stats)?;
                    }
                }
                if head_doc[j] == cand {
                    let belief = params.belief(head_tf[j], len_term, idfs[j]);
                    matched.push((ord[j], weights[j], belief));
                    bound += weights[j] * (belief - default);
                }
                if default + bound / total_weight + PRUNE_EPS <= theta {
                    alive = false;
                    break;
                }
            }
        }

        if alive {
            // Full evaluation in the documented FP order: contributions in
            // ascending list index, then the absent mass.
            matched.sort_unstable_by_key(|&(i, _, _)| i);
            let mut weighted_sum = 0.0f64;
            for &(_, w, belief) in &matched {
                weighted_sum += w * belief;
            }
            let absent_weight: f64 = total_weight - matched.iter().map(|&(_, w, _)| w).sum::<f64>();
            weighted_sum += absent_weight * default;
            let score = weighted_sum / total_weight;
            if heap.len() < k {
                heap.push(Candidate { score, doc: DocId(cand) });
                if heap.len() == k {
                    theta = heap.peek().map(|c| c.score).unwrap_or(f64::NEG_INFINITY);
                    m = recompute_m(theta);
                }
            } else if score > theta {
                heap.pop();
                heap.push(Candidate { score, doc: DocId(cand) });
                theta = heap.peek().map(|c| c.score).unwrap_or(f64::NEG_INFINITY);
                m = recompute_m(theta);
            }
        }

        // Advance every list still essential that is positioned at cand
        // (theta may have shrunk m; the probes touched only lists past the
        // old m).
        for &j in at_cand[..hits].iter().take_while(|&&j| j < m) {
            let i = ord[j];
            (head_doc[j], head_tf[j]) =
                advance_list(store, &mut lists[i], &mut cursors[i], &mut stats)?;
        }
    }

    for cursor in &cursors {
        stats.bytes_decoded += cursor.bytes_decoded();
        stats.blocks_bitpacked += cursor.blocks_bitpacked();
        stats.block_cache_hits += cursor.cache_hits();
        stats.block_cache_misses += cursor.cache_misses();
    }

    let mut results: Vec<ScoredDoc> =
        heap.into_iter().map(|c| ScoredDoc { doc: c.doc, score: c.score }).collect();
    results.sort_unstable_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.doc.cmp(&b.doc))
    });
    Ok((results, stats))
}

/// Merges per-shard top-`k` lists into the global top-`k`.
///
/// Each shard covers a disjoint document-id range and scores with the
/// collection-wide statistics, so a document's score is independent of
/// which shard holds it and any document in the global top-`k` is also in
/// its own shard's top-`k` (there are at most `k - 1` documents anywhere
/// that beat it). Concatenating per-shard lists therefore contains the
/// global answer, and sorting with the evaluator's exact comparator —
/// score descending, then document id ascending — reproduces the
/// unsharded ranking bit for bit, ties included.
pub fn merge_topk(shard_results: Vec<Vec<ScoredDoc>>, k: usize) -> Vec<ScoredDoc> {
    let mut all: Vec<ScoredDoc> = shard_results.into_iter().flatten().collect();
    all.sort_unstable_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.doc.cmp(&b.doc))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::query::eval::Evaluator;
    use crate::query::parser::parse_query;
    use crate::store::MemoryStore;
    use crate::text::StopWords;

    fn corpus() -> (MemoryStore, Dictionary, DocTable, StopWords) {
        let stop = StopWords::default();
        let mut b = IndexBuilder::new(stop.clone());
        b.add_document("D0", "alpha beta gamma alpha");
        b.add_document("D1", "beta beta delta");
        b.add_document("D2", "alpha delta epsilon beta");
        b.add_document("D3", "zeta eta theta");
        let idx = b.finish();
        let mut store = MemoryStore::new();
        let mut dict = idx.dictionary;
        for (term, bytes) in idx.records {
            let r = store.add(bytes);
            dict.entry_mut(term).store_ref = r;
        }
        (store, dict, idx.documents, stop)
    }

    fn rank(
        store: &mut MemoryStore,
        dict: &Dictionary,
        docs: &DocTable,
        terms: &[(f64, String)],
        k: usize,
    ) -> Vec<ScoredDoc> {
        rank_daat_pruned(store, dict, docs, BeliefParams::default(), terms, k).unwrap().0
    }

    #[test]
    fn flatten_accepts_bags_and_rejects_structure() {
        let stop = StopWords::default();
        let bag = parse_query("alpha beta gamma", &stop).unwrap();
        assert_eq!(flatten_bag(&bag).unwrap().len(), 3);
        let weighted = parse_query("#wsum(2 alpha 1 beta)", &stop).unwrap();
        let flat = flatten_bag(&weighted).unwrap();
        assert_eq!(flat[0], (2.0, "alpha".into()));
        let single = parse_query("alpha", &stop).unwrap();
        assert_eq!(flatten_bag(&single).unwrap(), vec![(1.0, "alpha".into())]);
        let structured = parse_query("#and(alpha beta)", &stop).unwrap();
        assert!(flatten_bag(&structured).is_none());
        let nested = parse_query("#sum(alpha #and(beta gamma))", &stop).unwrap();
        assert!(flatten_bag(&nested).is_none());
    }

    #[test]
    fn daat_matches_taat_scores() {
        let (mut store, dict, docs, stop) = corpus();
        for query in [
            "alpha beta delta",
            "#wsum(3 alpha 1 beta 2 epsilon)",
            "alpha",
            // Unknown terms must dilute DAAT exactly as they dilute TAAT.
            "alpha unknownword beta",
            "#wsum(1 alpha 5 missingterm)",
        ] {
            let q = parse_query(query, &stop).unwrap();
            let taat = {
                let mut ev =
                    Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
                ev.rank(&q, 10).unwrap()
            };
            let daat = rank(&mut store, &dict, &docs, &flatten_bag(&q).unwrap(), 10);
            assert_eq!(taat.len(), daat.len(), "query {query:?}");
            for (a, b) in taat.iter().zip(daat.iter()) {
                assert_eq!(a.doc, b.doc, "query {query:?}");
                assert!((a.score - b.score).abs() < 1e-9, "query {query:?}");
            }
        }
    }

    #[test]
    fn daat_handles_unknown_terms() {
        let (mut store, dict, docs, _stop) = corpus();
        let terms = [(1.0, "unknown".into()), (1.0, "alpha".into())];
        let ranked = rank(&mut store, &dict, &docs, &terms, 10);
        assert!(!ranked.is_empty());
        // Every ranked doc contains alpha.
        for s in &ranked {
            assert!([0u32, 2].contains(&s.doc.0));
        }
    }

    #[test]
    fn daat_empty_query_returns_nothing() {
        let (mut store, dict, docs, _stop) = corpus();
        assert!(rank(&mut store, &dict, &docs, &[], 10).is_empty());
    }

    #[test]
    fn daat_respects_k() {
        let (mut store, dict, docs, _stop) = corpus();
        assert_eq!(rank(&mut store, &dict, &docs, &[(1.0, "beta".into())], 2).len(), 2);
    }

    #[test]
    fn pruned_empty_cases() {
        let (mut store, dict, docs, _stop) = corpus();
        let (r, _) = rank_daat_pruned(
            &mut store,
            &dict,
            &docs,
            BeliefParams::default(),
            &[(1.0, "alpha".into())],
            0,
        )
        .unwrap();
        assert!(r.is_empty(), "k = 0 returns nothing");
    }

    #[test]
    fn merge_topk_reproduces_single_list_ordering() {
        let s = |doc: u32, score: f64| ScoredDoc { doc: DocId(doc), score };
        // Ties on score must break by ascending doc id, across shards.
        let shard_a = vec![s(4, 0.9), s(0, 0.5), s(2, 0.5)];
        let shard_b = vec![s(1, 0.9), s(3, 0.5)];
        let merged = merge_topk(vec![shard_a, shard_b], 4);
        let docs: Vec<u32> = merged.iter().map(|r| r.doc.0).collect();
        assert_eq!(docs, vec![1, 4, 0, 2], "score desc, then doc asc, truncated to k");
        assert!(merge_topk(vec![], 5).is_empty());
        assert_eq!(merge_topk(vec![vec![s(7, 1.0)], vec![]], 0).len(), 0);
    }
}
