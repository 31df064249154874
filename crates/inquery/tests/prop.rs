//! Property tests for the IR engine: codec round-trips, record splices
//! against decode-modify-encode, parser robustness, belief-combination
//! invariants, and ranking determinism.

use std::sync::Arc;

use proptest::prelude::*;

use poir_inquery::{
    codec, parse_query, porter, splice_append, splice_remove, BeliefParams, BlockCache,
    BlockCursor, DocId, Evaluator, IndexBuilder, InvertedRecord, MemoryStore, Posting, QueryNode,
    StopWords, BLOCK_SIZE,
};

fn posting_strategy() -> impl Strategy<Value = Vec<Posting>> {
    // Ascending doc ids with 1..=4 ascending positions each.
    postings_with(proptest::collection::btree_set(0u32..100_000, 0..60))
}

/// Like [`posting_strategy`] but always past [`BLOCK_SIZE`] documents, so
/// every record gets the blocked layout with a multi-entry skip directory.
fn blocked_posting_strategy() -> impl Strategy<Value = Vec<Posting>> {
    let span = BLOCK_SIZE as usize;
    postings_with(proptest::collection::btree_set(0u32..100_000, span + 1..4 * span))
}

fn postings_with(
    docs: impl Strategy<Value = std::collections::BTreeSet<u32>>,
) -> impl Strategy<Value = Vec<Posting>> {
    docs.prop_flat_map(|docs| {
        let docs: Vec<u32> = docs.into_iter().collect();
        proptest::collection::vec(proptest::collection::btree_set(0u32..10_000, 1..5), docs.len())
            .prop_map(move |pos_sets| {
                docs.iter()
                    .zip(pos_sets)
                    .map(|(&doc, positions)| {
                        let positions: Vec<u32> = positions.into_iter().collect();
                        Posting { doc: DocId(doc), tf: positions.len() as u32, positions }
                    })
                    .collect()
            })
    })
}

/// Records for the splice properties: `df` around the 128-posting boundary
/// and across one to four blocks, doc gaps up to a per-record cap (so doc
/// widths differ between records), tfs all 1 (zero tf width) or 1..6, and
/// cf left alone, set to exactly `u32::MAX + 1`, or pushed far above it.
fn splice_record() -> impl Strategy<Value = InvertedRecord> {
    let df = prop_oneof![0usize..8, 120usize..136, 250usize..260, 380usize..390];
    (df, 1u32..10_000_000, any::<bool>(), 0u8..3).prop_flat_map(
        |(df, max_gap, unit_tf, cf_mode)| {
            proptest::collection::vec((1..=max_gap, 1u32..6, 0u32..1_000), df).prop_map(
                move |draws| {
                    let mut doc = 0u32;
                    let postings = draws
                        .iter()
                        .enumerate()
                        .map(|(i, &(gap, tf, start))| {
                            doc = if i == 0 { gap - 1 } else { doc + gap };
                            let tf = if unit_tf { 1 } else { tf };
                            let positions = (0..tf).map(|j| start + j * 3).collect();
                            Posting { doc: DocId(doc), tf, positions }
                        })
                        .collect();
                    let mut record = InvertedRecord::from_postings(postings);
                    if record.df() > 0 {
                        match cf_mode {
                            1 => record.cf = u32::MAX as u64 + 1,
                            2 => record.cf += 5_000_000_000,
                            _ => {}
                        }
                    }
                    record
                },
            )
        },
    )
}

/// The update path before splicing: decode, push one posting, encode.
fn recode_append(record: &InvertedRecord, doc: u32, positions: &[u32]) -> InvertedRecord {
    let mut r = record.clone();
    let tf = positions.len() as u32;
    r.cf += tf as u64;
    r.max_tf = r.max_tf.max(tf);
    r.postings.push(Posting { doc: DocId(doc), tf, positions: positions.to_vec() });
    r
}

/// The update path before splicing: decode, remove posting `i`, encode.
fn recode_remove(record: &InvertedRecord, i: usize) -> InvertedRecord {
    let mut r = record.clone();
    let removed = r.postings.remove(i);
    r.cf = r.cf.saturating_sub(removed.tf as u64);
    r.max_tf = r.postings.iter().map(|p| p.tf).max().unwrap_or(0);
    r
}

/// Splices on a damaged record: never a panic, and corruption the splice
/// does not read is carried into its output, never laundered into a record
/// that decodes. When the input still decodes, the output decodes to what
/// decode-modify would give (max_tf aside on removal, which the splice takes
/// from the kept blocks' directory entries).
fn check_damaged(bytes: &[u8], append: u32, remove: DocId) {
    let decoded = InvertedRecord::decode(bytes);
    let mut out = Vec::new();
    if splice_append(bytes, DocId(append), &[1, 4], &mut out).is_some() {
        let got = InvertedRecord::decode(&out);
        match &decoded {
            None => assert_eq!(got, None, "append laundered a corrupt record"),
            Some(r) => assert_eq!(got, Some(recode_append(r, append, &[1, 4]))),
        }
    }
    if let Some(Some(_)) = splice_remove(bytes, remove, &mut out) {
        let got = InvertedRecord::decode(&out);
        match &decoded {
            None => assert_eq!(got, None, "remove laundered a corrupt record"),
            Some(r) if r.postings.windows(2).all(|w| w[0].doc < w[1].doc) => {
                let i = r.postings.iter().position(|p| p.doc == remove).unwrap();
                let want = recode_remove(r, i);
                // An empty list whose header cf exceeds 32 bits has no
                // encoding that decodes, recoded or spliced.
                if want.df() > 0 || want.cf <= u32::MAX as u64 {
                    let got = got.expect("a decodable record stays decodable");
                    assert_eq!((got.cf, got.postings), (want.cf, want.postings));
                }
            }
            Some(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn splice_append_is_byte_identical_to_recode(
        record in splice_record(),
        gap in 1u32..20_000_000,
        tf in 1u32..40,
        start in 0u32..100_000,
    ) {
        // New gaps beyond the record's cap and tfs up to 40 grow the last
        // block's widths; records at 128 postings cross into blocks; full
        // last blocks open a new one.
        let bytes = record.encode();
        let last = record.postings.last().map_or(0, |p| p.doc.0);
        let doc = last + gap;
        let positions: Vec<u32> = (0..tf).map(|j| start + 2 * j).collect();
        let mut out = Vec::new();
        prop_assert_eq!(splice_append(&bytes, DocId(doc), &positions, &mut out), Some(()));
        prop_assert_eq!(&out, &recode_append(&record, doc, &positions).encode());
        if !record.postings.is_empty() {
            prop_assert_eq!(splice_append(&bytes, DocId(last), &positions, &mut out), None);
        }
    }

    #[test]
    fn splice_remove_is_byte_identical_to_recode(
        record in splice_record(),
        block in 0usize..3,
        at in 0usize..3,
    ) {
        // The first, a middle and the last posting of the first, a middle
        // and the last block; records at 129 postings fall back to v1;
        // merged gaps widen a block, a removed top tf narrows it.
        let bytes = record.encode();
        let mut out = Vec::new();
        let df = record.postings.len();
        if df == 0 {
            prop_assert_eq!(splice_remove(&bytes, DocId(0), &mut out), Some(None));
            return;
        }
        let blocks = df.div_ceil(BLOCK_SIZE as usize);
        let first = [0, blocks / 2, blocks - 1][block] * BLOCK_SIZE as usize;
        let n = (df - first).min(BLOCK_SIZE as usize);
        let i = first + [0, n / 2, n - 1][at];
        let p = &record.postings[i];
        prop_assert_eq!(splice_remove(&bytes, p.doc, &mut out), Some(Some(p.tf)));
        prop_assert_eq!(&out, &recode_remove(&record, i).encode());
        // A document the list does not hold leaves it alone.
        let missing = DocId(record.postings[df - 1].doc.0 + 1);
        prop_assert_eq!(splice_remove(&bytes, missing, &mut out), Some(None));
    }

    #[test]
    fn splices_refuse_damaged_records_without_panicking(
        record in splice_record(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let bytes = record.encode();
        let next = record.postings.last().map_or(0, |p| p.doc.0 + 1);
        let victim = record.postings.first().map_or(DocId(0), |p| p.doc);
        // Every strict prefix is refused.
        let truncated = &bytes[..cut % bytes.len()];
        let mut out = Vec::new();
        prop_assert_eq!(splice_append(truncated, DocId(next), &[1], &mut out), None);
        prop_assert_eq!(splice_remove(truncated, victim, &mut out), None);
        let mut mutated = bytes.clone();
        for (at, x) in flips {
            let len = mutated.len();
            mutated[at % len] ^= x;
        }
        check_damaged(&mutated, next, victim);
        check_damaged(&garbage, next, victim);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inverted_records_round_trip(postings in posting_strategy()) {
        let record = InvertedRecord::from_postings(postings);
        let bytes = record.encode();
        prop_assert_eq!(InvertedRecord::decode(&bytes), Some(record.clone()));
        // Header-only decode agrees — cf at full width, never truncated.
        let (df, cf, max_tf) = InvertedRecord::decode_header(&bytes).unwrap();
        prop_assert_eq!(df, record.df());
        prop_assert_eq!(cf, record.cf);
        prop_assert_eq!(max_tf, record.max_tf);
    }

    #[test]
    fn blocked_records_round_trip(postings in blocked_posting_strategy()) {
        let record = InvertedRecord::from_postings(postings.clone());
        let bytes = record.encode();
        prop_assert_eq!(InvertedRecord::decode(&bytes), Some(record.clone()));
        let (mut cur, df, _cf, max_tf) = BlockCursor::open(&bytes).unwrap();
        prop_assert_eq!(df as usize, postings.len());
        prop_assert_eq!(max_tf, record.max_tf);
        prop_assert_eq!(cur.blocks().len(), postings.len().div_ceil(BLOCK_SIZE as usize));
        // The skip directory spans exactly the encoded record.
        prop_assert_eq!(cur.total_len(), Some(bytes.len()));
        let mut streamed = Vec::new();
        while let Some(p) = cur.next(&bytes) {
            streamed.push(p);
        }
        prop_assert_eq!(streamed, postings);
    }

    #[test]
    fn cursor_seek_agrees_with_linear_scan(
        postings in blocked_posting_strategy(),
        target in 0u32..120_000,
    ) {
        let bytes = InvertedRecord::from_postings(postings.clone()).encode();
        let (mut cur, df, _, _) = BlockCursor::open(&bytes).unwrap();
        let summary = cur.seek(target);
        // Seeking is block-granular: it may leave the cursor before
        // `target`, but must never jump past a qualifying posting. The
        // postings at or after `target` match a pure linear scan exactly.
        let mut decoded = 0u64;
        let mut seeked = Vec::new();
        while let Some((d, tf)) = cur.next_doc_tf(&bytes) {
            decoded += 1;
            if d.0 >= target {
                seeked.push((d.0, tf));
            }
        }
        let expected: Vec<(u32, u32)> =
            postings.iter().filter(|p| p.doc.0 >= target).map(|p| (p.doc.0, p.tf)).collect();
        prop_assert_eq!(seeked, expected);
        // Every posting is either bypassed by the seek or decoded after it.
        prop_assert_eq!(decoded + summary.postings_skipped, df as u64);
        prop_assert!(summary.blocks_skipped as usize <= postings.len().div_ceil(BLOCK_SIZE as usize));
    }

    #[test]
    fn bit_packing_agrees_with_vbyte(values in proptest::collection::vec(any::<u32>(), 1..300)) {
        // Reference path: the v1 vbyte codec.
        let mut vb = Vec::new();
        for &v in &values {
            codec::encode_vbyte(v, &mut vb);
        }
        let mut pos = 0usize;
        let mut via_vbyte = Vec::with_capacity(values.len());
        for _ in 0..values.len() {
            via_vbyte.push(codec::decode_vbyte(&vb, &mut pos).unwrap());
        }
        // Packed path at the tightest width covering the batch.
        let width = values.iter().copied().map(codec::bit_width).max().unwrap();
        let mut packed = Vec::new();
        codec::pack_bits(&values, width, &mut packed);
        prop_assert_eq!(packed.len(), codec::packed_len(values.len(), width));
        let mut unpacked = Vec::new();
        prop_assert!(codec::unpack_bits(&packed, values.len(), width, &mut unpacked).is_some());
        prop_assert_eq!(unpacked, via_vbyte);
    }

    #[test]
    fn packed_blocks_round_trip_extreme_gap_and_tf_distributions(
        pairs in proptest::collection::vec(
            (1u32..16_000_000, 1u32..40),
            BLOCK_SIZE as usize + 1..2 * BLOCK_SIZE as usize,
        ),
    ) {
        // Doc gaps up to 2^24 and tfs up to 40 drive the per-block widths
        // across their whole range; every record here is long enough to
        // take the v2 bit-packed layout.
        let mut doc = 0u32;
        let postings: Vec<Posting> = pairs
            .into_iter()
            .map(|(gap, tf)| {
                doc += gap;
                Posting { doc: DocId(doc), tf, positions: (0..tf).collect() }
            })
            .collect();
        let record = InvertedRecord::from_postings(postings.clone());
        let bytes = record.encode();
        prop_assert_eq!(InvertedRecord::decode(&bytes), Some(record));
        let (mut cur, df, _, _) = BlockCursor::open(&bytes).unwrap();
        prop_assert_eq!(df as usize, postings.len());
        let mut streamed = Vec::new();
        while let Some(p) = cur.next(&bytes) {
            streamed.push(p);
        }
        prop_assert_eq!(streamed, postings);
        prop_assert!(cur.blocks_bitpacked() > 0, "long records must use packed blocks");
    }

    #[test]
    fn block_cache_hits_are_bit_identical_to_fresh_decodes(
        pairs in proptest::collection::vec(
            (1u32..16_000_000, 1u32..40),
            BLOCK_SIZE as usize + 1..3 * BLOCK_SIZE as usize,
        ),
    ) {
        // Arbitrary gap/tf distributions sweep the packed widths; the
        // cached decode must reproduce the uncached stream bit for bit.
        let mut doc = 0u32;
        let postings: Vec<Posting> = pairs
            .into_iter()
            .map(|(gap, tf)| {
                doc += gap;
                Posting { doc: DocId(doc), tf, positions: (0..tf).collect() }
            })
            .collect();
        let bytes = InvertedRecord::from_postings(postings).encode();
        let stream = |cur: &mut BlockCursor| {
            let mut out = Vec::new();
            while let Some((d, tf)) = cur.next_doc_tf(&bytes) {
                out.push((d.0, tf));
            }
            out
        };
        let (mut plain, ..) = BlockCursor::open(&bytes).unwrap();
        let fresh = stream(&mut plain);
        let cache = Arc::new(BlockCache::new(1 << 20));
        // Pass 1 records ghosts, pass 2 admits, pass 3 is served from
        // cache — every pass must agree with the uncached decode.
        for pass in 0..3 {
            let (mut cur, ..) = BlockCursor::open(&bytes).unwrap();
            cur.attach_cache(Arc::clone(&cache), 7, 42);
            prop_assert_eq!(stream(&mut cur), fresh.clone(), "pass {}", pass);
            if pass == 2 {
                prop_assert!(cur.cache_hits() > 0, "third pass must hit");
                prop_assert_eq!(cur.cache_hits() + cur.cache_misses(), plain.blocks_bitpacked());
            }
        }
        prop_assert!(cache.stats().hits > 0);
        // Full-posting decode (positions included) also agrees on a hit.
        let (mut via_cache, ..) = BlockCursor::open(&bytes).unwrap();
        via_cache.attach_cache(Arc::clone(&cache), 7, 42);
        let (mut uncached, ..) = BlockCursor::open(&bytes).unwrap();
        while let Some(p) = uncached.next(&bytes) {
            prop_assert_eq!(via_cache.next(&bytes), Some(p));
        }
        prop_assert_eq!(via_cache.next(&bytes), None);
    }

    #[test]
    fn block_cache_byte_bound_is_never_exceeded(
        offers in proptest::collection::vec((0u64..40, 0u32..6, 1usize..=128), 50..400),
        capacity_kib in 8usize..64,
    ) {
        let capacity = capacity_kib * 1024;
        let cache = Arc::new(BlockCache::new(capacity));
        for (object, block, n) in offers {
            let key = poir_inquery::BlockKey { epoch: 1, object, block };
            let make = || {
                Arc::new(poir_inquery::DecodedBlock {
                    docs: (0..n as u32).collect(),
                    tfs: vec![1; n],
                })
            };
            cache.offer_with(key, make);
            cache.offer_with(key, make); // force past the ghost filter
            let stats = cache.stats();
            prop_assert!(
                stats.bytes <= cache.capacity(),
                "{} resident bytes exceed the {} bound",
                stats.bytes,
                cache.capacity()
            );
        }
        let stats = cache.stats();
        prop_assert!(stats.admits > 0);
        prop_assert_eq!(stats.capacity, cache.capacity());
    }

    #[test]
    fn corrupt_skip_directories_never_panic(
        postings in blocked_posting_strategy(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        cut in any::<usize>(),
    ) {
        let bytes = InvertedRecord::from_postings(postings).encode();
        // Truncation: decode must reject, cursors must stop cleanly.
        let truncated = &bytes[..cut % bytes.len()];
        let _ = InvertedRecord::decode(truncated);
        if let Some((mut cur, _, _, _)) = BlockCursor::open(truncated) {
            cur.seek(50_000);
            while cur.next_doc_tf(truncated).is_some() {}
        }
        // Arbitrary byte flips anywhere (header, directory, body).
        let mut mutated = bytes.clone();
        for (pos, val) in &mutations {
            let at = pos % mutated.len();
            mutated[at] ^= val;
        }
        let _ = InvertedRecord::decode(&mutated);
        if let Some((mut cur, _, _, _)) = BlockCursor::open(&mutated) {
            cur.seek(1_000);
            while cur.next_doc_tf(&mutated).is_some() {}
        }
        // Corruption pinned into the header + skip directory region, where
        // the v2 bit-width fields live: oversized widths (0xFF) must be
        // rejected, never trusted into an out-of-bounds unpack.
        let mut bad_widths = bytes.clone();
        let dir_region = bad_widths.len().min(100);
        for (pos, _) in &mutations {
            bad_widths[pos % dir_region] = 0xFF;
        }
        let _ = InvertedRecord::decode(&bad_widths);
        if let Some((mut cur, _, _, _)) = BlockCursor::open(&bad_widths) {
            cur.seek(50_000);
            while cur.next_doc_tf(&bad_widths).is_some() {}
        }
    }

    #[test]
    fn record_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = InvertedRecord::decode(&bytes); // may be None, must not panic
        let _ = InvertedRecord::decode_header(&bytes);
    }

    #[test]
    fn parser_never_panics(input in "[ -~]{0,120}") {
        let stop = StopWords::default();
        let _ = parse_query(&input, &stop); // Ok or Err, never a panic
    }

    /// Queries assembled from the language's own pieces — every operator
    /// (valid and malformed), words, stop words, numbers and stray
    /// parentheses — reach the nesting and word-list paths that random
    /// printable text almost never does. Every parse must return.
    #[test]
    fn parser_returns_on_operator_soup(
        pieces in proptest::collection::vec((0usize..24, any::<bool>()), 0..24),
    ) {
        const PIECES: [&str; 24] = [
            "#and(", "#or(", "#not(", "#sum(", "#max(", "#wsum(", "#phrase(", "#uw3(",
            "#uw0(", "#uw(", "#bogus(", "#", "(", ")", ")", "alpha", "beta", "the", "of",
            "2", "0.5", "-1", "1e400", "B-tree's",
        ];
        let mut query = String::new();
        for (i, spaced) in pieces {
            query.push_str(PIECES[i]);
            if spaced {
                query.push(' ');
            }
        }
        let _ = parse_query(&query, &StopWords::default()); // Ok or Err, never a panic
    }

    #[test]
    fn parser_accepts_generated_well_formed_queries(
        words in proptest::collection::vec("[a-z]{3,8}", 1..8),
        op in 0usize..4,
    ) {
        let stop = StopWords::none();
        let body = words.join(" ");
        let query = match op {
            0 => body.clone(),
            1 => format!("#and({body})"),
            2 => format!("#or({body})"),
            _ => format!("#max({body})"),
        };
        let parsed = parse_query(&query, &stop).unwrap();
        let mut leaves = parsed.leaf_terms();
        leaves.sort_unstable();
        leaves.dedup();
        let mut expected: Vec<&str> = words.iter().map(String::as_str).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(leaves, expected);
    }

    #[test]
    fn belief_combinators_obey_bounds(
        beliefs in proptest::collection::vec(0.0f64..=1.0, 1..6),
        weights in proptest::collection::vec(0.01f64..10.0, 6),
    ) {
        let min = beliefs.iter().copied().fold(1.0, f64::min);
        let max = beliefs.iter().copied().fold(0.0, f64::max);
        let and = BeliefParams::and(beliefs.iter().copied());
        let or = BeliefParams::or(beliefs.iter().copied());
        let sum = BeliefParams::sum(&beliefs);
        let weighted: Vec<(f64, f64)> =
            weights.iter().copied().zip(beliefs.iter().copied()).collect();
        let wsum = BeliefParams::wsum(&weighted);
        prop_assert!(and <= min + 1e-12, "#and must not exceed its weakest child");
        prop_assert!(or >= max - 1e-12, "#or must dominate its strongest child");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&and));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&or));
        prop_assert!(sum >= min - 1e-12 && sum <= max + 1e-12, "mean stays inside the hull");
        prop_assert!(wsum >= min - 1e-12 && wsum <= max + 1e-12);
        prop_assert_eq!(BeliefParams::max(beliefs.iter().copied()), max);
    }

    #[test]
    fn term_beliefs_are_probabilities(
        tf in 0u32..10_000,
        doc_len in 1u32..100_000,
        df in 0u32..5_000,
        num_docs in 1u32..5_000,
    ) {
        let stats = poir_inquery::CollectionStats {
            num_docs,
            avg_doc_len: 120.0,
        };
        let b = BeliefParams::default().term_belief(tf, doc_len, df.min(num_docs), &stats);
        prop_assert!((0.0..=1.0).contains(&b), "belief {b}");
        if tf > 0 && df > 0 && df.min(num_docs) < num_docs {
            prop_assert!(b >= 0.4, "present terms never score below the default");
        }
    }

    #[test]
    fn ranking_is_sorted_and_deterministic(
        docs in proptest::collection::vec("[a-z]{3,6}( [a-z]{3,6}){2,10}", 2..12),
        query_words in proptest::collection::vec("[a-z]{3,6}", 1..4),
    ) {
        let stop = StopWords::none();
        let mut builder = IndexBuilder::new(stop.clone());
        for (i, text) in docs.iter().enumerate() {
            builder.add_document(&format!("D{i}"), text);
        }
        let idx = builder.finish();
        let mut store = MemoryStore::new();
        let mut dict = idx.dictionary;
        for (term, bytes) in idx.records {
            let r = store.add(bytes);
            dict.entry_mut(term).store_ref = r;
        }
        let query = QueryNode::Sum(
            query_words.iter().map(|w| QueryNode::Term(w.clone())).collect(),
        );
        let run = |store: &mut MemoryStore| {
            let mut ev = Evaluator::new(store, &dict, &idx.documents, &stop, BeliefParams::default());
            ev.rank(&query, 100).unwrap()
        };
        let a = run(&mut store);
        let b = run(&mut store);
        prop_assert_eq!(&a, &b, "ranking must be deterministic");
        for w in a.windows(2) {
            prop_assert!(
                w[0].score > w[1].score
                    || (w[0].score == w[1].score && w[0].doc < w[1].doc),
                "descending score with doc-id tie-break"
            );
        }
        for s in &a {
            prop_assert!((0.0..=1.0).contains(&s.score));
        }
    }

    #[test]
    fn stemmer_never_panics_and_stays_ascii(word in "[a-z]{0,30}") {
        let stemmed = porter::stem(&word);
        prop_assert!(stemmed.len() <= word.len().max(1) + 1);
        prop_assert!(stemmed.bytes().all(|b| b.is_ascii_lowercase()) || stemmed.is_empty());
    }

    #[test]
    fn stemmed_and_unstemmed_indexes_agree_on_exact_words(
        words in proptest::collection::vec("[a-z]{4,9}", 3..10),
    ) {
        // Any document word, queried in its exact surface form, must be
        // findable under both analyzers (stemming maps query and document
        // occurrences identically).
        for stop in [StopWords::none(), StopWords::none().with_stemming()] {
            let mut builder = IndexBuilder::new(stop.clone());
            builder.add_document("D0", &words.join(" "));
            let idx = builder.finish();
            for w in &words {
                if let Some(term) = stop.index_form(w) {
                    prop_assert!(
                        idx.dictionary.lookup(&term).is_some(),
                        "word {w} (term {term}) missing under stemming={}",
                        stop.stemming()
                    );
                }
            }
        }
    }
}
