//! Batch index creation.
//!
//! "Creation occurs once when a document collection is first indexed by the
//! IR system, although it may be considered a special case of modification
//! where a number of document additions are batched together. ... Indexing a
//! large collection can be very expensive because it is dominated by a
//! sorting problem, where the inverted list entries for every term
//! appearance in the collection are sorted by term identifier and document
//! identifier." (Section 2)
//!
//! [`IndexBuilder`] accumulates postings per term while documents stream
//! in; [`IndexBuilder::finish`] performs the term-id sort and emits the
//! compressed records together with the populated hash dictionary and
//! document table. The result is backend-agnostic: the same [`Index`] is
//! loaded into the B-tree file or the Mneme store.

use std::collections::HashMap;

use crate::codec::encode_vbyte;
use crate::dict::{Dictionary, TermId};
use crate::documents::DocTable;
use crate::postings::{
    encode_header, encode_v2_directory, interleave_vbyte_postings, pack_block, DocId,
    InvertedRecord, BLOCK_SIZE,
};
use crate::text::{tokenize, StopWords};

/// Per-term accumulation state: completed [`BLOCK_SIZE`] posting blocks are
/// kept *already bit-packed*, so building a multi-million-token collection
/// costs roughly its compressed index size in memory; only the currently
/// filling block (at most 128 postings) stays raw, because its bit widths
/// are unknown until it completes — and because short records are emitted
/// in the v1 all-vbyte layout, which needs the raw arrays back.
#[derive(Default)]
struct TermAccumulator {
    /// Bit-packed v2 body of every completed block.
    body: Vec<u8>,
    /// Skip-directory data for each completed block:
    /// `(last doc id, block byte length, block-max tf, doc width, tf width)`.
    blocks: Vec<(u32, usize, u32, u32, u32)>,
    /// The filling block's doc gaps (first value absolute for the record's
    /// first posting; gaps run continuously across block boundaries).
    cur_gaps: Vec<u32>,
    /// The filling block's tf−1 values (the packed representation).
    cur_tfs_m1: Vec<u32>,
    /// The filling block's vbyte-coded position-gap streams, posting-major.
    cur_pos: Vec<u8>,
    /// Largest tf inside the currently filling block.
    block_max_tf: u32,
    last_doc: u32,
    df: u32,
    max_tf: u32,
}

impl TermAccumulator {
    /// Bit-packs the filling block onto `body` and records its directory
    /// entry. Called when a posting arrives for a full block (never at
    /// exactly [`BLOCK_SIZE`] postings, so records that end there can
    /// still be emitted in the v1 layout) and at finish for the partial
    /// final block.
    fn flush_block(&mut self) {
        let start = self.body.len();
        let (doc_width, tf_width) =
            pack_block(&self.cur_gaps, &self.cur_tfs_m1, &self.cur_pos, &mut self.body);
        self.blocks.push((
            self.last_doc,
            self.body.len() - start,
            self.block_max_tf,
            doc_width,
            tf_width,
        ));
        self.cur_gaps.clear();
        self.cur_tfs_m1.clear();
        self.cur_pos.clear();
        self.block_max_tf = 0;
    }
}

/// Streaming index builder.
pub struct IndexBuilder {
    stop: StopWords,
    dict: Dictionary,
    docs: DocTable,
    postings: Vec<TermAccumulator>,
    /// Scratch: per-document term → positions map, reused across documents.
    scratch: HashMap<TermId, Vec<u32>>,
}

impl IndexBuilder {
    /// Creates a builder using the given stop-word list.
    pub fn new(stop: StopWords) -> Self {
        IndexBuilder {
            stop,
            dict: Dictionary::new(),
            docs: DocTable::new(),
            postings: Vec::new(),
            scratch: HashMap::new(),
        }
    }

    /// Number of documents added so far.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Tokenizes and indexes one document, returning its ordinal id.
    pub fn add_document(&mut self, name: &str, text: &str) -> DocId {
        // Token count before stop-word removal approximates document length
        // (positions already index the raw token stream).
        let raw_tokens =
            text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|t| !t.is_empty()).count();
        let doc = self.docs.push(name.to_string(), raw_tokens as u32);
        // Gather per-term positions for this document.
        self.scratch.clear();
        for (token, pos) in tokenize(text, &self.stop) {
            let id = self.dict.intern(&token);
            if id.0 as usize >= self.postings.len() {
                self.postings.resize_with(id.0 as usize + 1, TermAccumulator::default);
            }
            self.scratch.entry(id).or_default().push(pos);
        }
        for (&term, positions) in &self.scratch {
            let tf = positions.len() as u32;
            let entry = self.dict.entry_mut(term);
            entry.df += 1;
            entry.cf += tf as u64;
            let acc = &mut self.postings[term.0 as usize];
            // Pack on overflow: the previous block is closed only when a
            // posting arrives for the next one.
            if acc.cur_gaps.len() == BLOCK_SIZE as usize {
                acc.flush_block();
            }
            // Append this document's posting to the filling block: doc gap
            // (absolute for the first posting), tf−1, then position gaps.
            let gap = if acc.df == 0 { doc.0 } else { doc.0 - acc.last_doc };
            acc.cur_gaps.push(gap);
            acc.cur_tfs_m1.push(tf - 1);
            let mut prev = 0u32;
            for (j, &p) in positions.iter().enumerate() {
                encode_vbyte(if j == 0 { p } else { p - prev }, &mut acc.cur_pos);
                prev = p;
            }
            acc.last_doc = doc.0;
            acc.df += 1;
            acc.max_tf = acc.max_tf.max(tf);
            acc.block_max_tf = acc.block_max_tf.max(tf);
        }
        doc
    }

    /// Sorts, compresses, and emits the finished index.
    pub fn finish(self) -> Index {
        let IndexBuilder { dict, docs, postings, .. } = self;
        // The sort the paper says dominates index construction is implicit
        // here: accumulators are already ordered by term identifier, and
        // postings within each record arrived in document-id order.
        let records: Vec<(TermId, Vec<u8>)> = postings
            .into_iter()
            .enumerate()
            .map(|(i, mut acc)| {
                let term = TermId(i as u32);
                let cf = dict.entry(term).cf;
                let mut record = Vec::with_capacity(16 + acc.body.len() + acc.cur_pos.len());
                encode_header(acc.df, cf, acc.max_tf, &mut record);
                if acc.df > BLOCK_SIZE {
                    // Bit-packed v2 layout: close the final block, then
                    // emit the directory and the packed body (matches
                    // InvertedRecord::encode byte for byte — pack_block is
                    // shared).
                    acc.flush_block();
                    encode_v2_directory(&acc.blocks, 0, &mut record);
                    record.extend_from_slice(&acc.body);
                } else {
                    interleave_vbyte_postings(
                        &acc.cur_gaps,
                        &acc.cur_tfs_m1,
                        &acc.cur_pos,
                        &mut record,
                    );
                }
                (term, record)
            })
            .collect();
        debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
        Index { dictionary: dict, documents: docs, records }
    }
}

/// A finished, backend-agnostic index.
#[derive(Clone)]
pub struct Index {
    /// The populated hash dictionary (term → id, statistics).
    pub dictionary: Dictionary,
    /// The document table.
    pub documents: DocTable,
    /// Compressed inverted records, sorted by term id.
    pub records: Vec<(TermId, Vec<u8>)>,
}

impl Index {
    /// Sizes of every inverted record in bytes — the data behind Figure 1.
    pub fn record_sizes(&self) -> Vec<usize> {
        self.records.iter().map(|(_, r)| r.len()).collect()
    }

    /// Total bytes of compressed inverted records.
    pub fn total_record_bytes(&self) -> u64 {
        self.records.iter().map(|(_, r)| r.len() as u64).sum()
    }

    /// Contiguous document-id ranges carving `num_docs` documents into
    /// `shards` near-equal horizontal slices: shard `s` owns
    /// `[s·D/N, (s+1)·D/N)`. Matches the corpus-side split in
    /// `poir-collections`.
    pub fn shard_ranges(num_docs: usize, shards: usize) -> Vec<std::ops::Range<u32>> {
        let n = shards.max(1);
        (0..n).map(|s| (s * num_docs / n) as u32..((s + 1) * num_docs / n) as u32).collect()
    }

    /// Splits the index into `shards` horizontal shards over contiguous,
    /// disjoint document-id ranges.
    ///
    /// Every shard keeps a full clone of the dictionary (collection-wide
    /// df/cf; store references are rebound when the shard's records load
    /// into a backend) and of the document table, so per-shard evaluation
    /// scores every document with the same global statistics the unsharded
    /// index uses. Each inverted record is re-encoded holding only the
    /// postings inside the shard's range, at the *global* document ids; a
    /// term absent from a shard keeps a genuine empty record so the shard
    /// backend still assigns it a valid store reference.
    pub fn split_shards(&self, shards: usize) -> Vec<Index> {
        if shards <= 1 {
            return vec![self.clone()];
        }
        let ranges = Self::shard_ranges(self.documents.len(), shards);
        let mut shard_records: Vec<Vec<(TermId, Vec<u8>)>> =
            vec![Vec::with_capacity(self.records.len()); shards];
        for (term, bytes) in &self.records {
            let rec = InvertedRecord::decode(bytes)
                .unwrap_or_else(|| panic!("index record {term:?} must decode"));
            // Postings ascend by doc id and the ranges tile [0, num_docs),
            // so one forward scan deals every posting to its shard.
            let mut postings = rec.postings.into_iter().peekable();
            for (s, range) in ranges.iter().enumerate() {
                let mut slice = Vec::new();
                while postings.peek().is_some_and(|p| p.doc.0 < range.end) {
                    slice.push(postings.next().expect("peeked"));
                }
                shard_records[s].push((*term, InvertedRecord::from_postings(slice).encode()));
            }
        }
        shard_records
            .into_iter()
            .map(|records| Index {
                dictionary: self.dictionary.clone(),
                documents: self.documents.clone(),
                records,
            })
            .collect()
    }

    /// Fraction of records no larger than `threshold` bytes (the paper's
    /// "approximately 50% of the inverted lists are 12 bytes or less").
    pub fn fraction_at_most(&self, threshold: usize) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let n = self.records.iter().filter(|(_, r)| r.len() <= threshold).count();
        n as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::InvertedRecord;

    fn tiny_index() -> Index {
        let mut b = IndexBuilder::new(StopWords::default());
        b.add_document("D0", "the quick brown fox jumps over the lazy dog");
        b.add_document("D1", "the quick red fox");
        b.add_document("D2", "dogs and foxes and dogs again dog dog");
        b.finish()
    }

    #[test]
    fn dictionary_statistics_are_correct() {
        let idx = tiny_index();
        let fox = idx.dictionary.lookup("fox").unwrap();
        assert_eq!(idx.dictionary.entry(fox).df, 2);
        assert_eq!(idx.dictionary.entry(fox).cf, 2);
        let dog = idx.dictionary.lookup("dog").unwrap();
        assert_eq!(idx.dictionary.entry(dog).df, 2, "dog in D0 and D2");
        assert_eq!(
            idx.dictionary.entry(dog).cf,
            3,
            "1 in D0 + 2 in D2 (no stemming: dogs is distinct)"
        );
        assert!(idx.dictionary.lookup("the").is_none(), "stop words are not indexed");
    }

    #[test]
    fn records_decode_with_correct_postings() {
        let idx = tiny_index();
        let quick = idx.dictionary.lookup("quick").unwrap();
        let (_, bytes) = idx.records.iter().find(|(t, _)| *t == quick).unwrap();
        let rec = InvertedRecord::decode(bytes).unwrap();
        assert_eq!(rec.df(), 2);
        assert_eq!(rec.postings[0].doc, DocId(0));
        assert_eq!(rec.postings[0].positions, vec![1]);
        assert_eq!(rec.postings[1].doc, DocId(1));
    }

    #[test]
    fn records_are_sorted_by_term_id() {
        let idx = tiny_index();
        assert!(idx.records.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(idx.records.len(), idx.dictionary.len());
    }

    #[test]
    fn document_table_lengths() {
        let idx = tiny_index();
        assert_eq!(idx.documents.len(), 3);
        assert_eq!(idx.documents.info(DocId(0)).len, 9);
        assert_eq!(idx.documents.info(DocId(0)).name, "D0");
    }

    #[test]
    fn size_helpers() {
        let idx = tiny_index();
        let sizes = idx.record_sizes();
        assert_eq!(sizes.len(), idx.records.len());
        assert_eq!(sizes.iter().map(|&s| s as u64).sum::<u64>(), idx.total_record_bytes());
        assert_eq!(idx.fraction_at_most(usize::MAX), 1.0);
        assert_eq!(idx.fraction_at_most(0), 0.0);
    }

    #[test]
    fn empty_collection() {
        let idx = IndexBuilder::new(StopWords::default()).finish();
        assert_eq!(idx.records.len(), 0);
        assert_eq!(idx.fraction_at_most(12), 0.0);
    }

    #[test]
    fn blocked_records_match_canonical_encoding() {
        // Past BLOCK_SIZE documents, the builder must stream out the same
        // blocked layout InvertedRecord::encode produces.
        let mut b = IndexBuilder::new(StopWords::none());
        for i in 0..300u32 {
            let text = "word ".repeat((i % 5 + 1) as usize);
            b.add_document(&format!("D{i}"), &text);
        }
        let idx = b.finish();
        let word = idx.dictionary.lookup("word").unwrap();
        let (_, bytes) = idx.records.iter().find(|(t, _)| *t == word).unwrap();
        let rec = InvertedRecord::decode(bytes).expect("blocked record decodes");
        assert_eq!(rec.df(), 300);
        assert_eq!(&rec.encode(), bytes, "builder bytes == canonical encoding");
    }

    #[test]
    fn shard_ranges_tile_the_collection() {
        let ranges = Index::shard_ranges(10, 4);
        assert_eq!(ranges, vec![0..2, 2..5, 5..7, 7..10]);
        assert_eq!(Index::shard_ranges(3, 1), vec![0..3]);
        assert_eq!(Index::shard_ranges(2, 4), vec![0..0, 0..1, 1..1, 1..2]);
        assert_eq!(Index::shard_ranges(0, 2), vec![0..0, 0..0]);
    }

    #[test]
    fn split_shards_partitions_postings_and_keeps_global_statistics() {
        let mut b = IndexBuilder::new(StopWords::none());
        for i in 0..200u32 {
            let mut text = "word ".repeat((i % 3 + 1) as usize);
            if i % 2 == 0 {
                text.push_str("even ");
            }
            if i < 50 {
                text.push_str("early ");
            }
            b.add_document(&format!("D{i}"), &text);
        }
        let idx = b.finish();
        for n in [2, 3, 4] {
            let shards = idx.split_shards(n);
            assert_eq!(shards.len(), n);
            let ranges = Index::shard_ranges(idx.documents.len(), n);
            for (term, bytes) in &idx.records {
                let global = InvertedRecord::decode(bytes).unwrap();
                let mut reassembled = Vec::new();
                for (shard, range) in shards.iter().zip(&ranges) {
                    let (_, sbytes) = &shard.records[term.0 as usize];
                    let rec = InvertedRecord::decode(sbytes).expect("shard record decodes");
                    assert!(
                        rec.postings.iter().all(|p| range.contains(&p.doc.0)),
                        "shard postings stay inside the shard's doc range"
                    );
                    reassembled.extend(rec.postings);
                }
                assert_eq!(reassembled, global.postings, "n={n}: concat of shards == global");
            }
            for shard in &shards {
                assert_eq!(shard.dictionary.len(), idx.dictionary.len());
                assert_eq!(shard.documents.len(), idx.documents.len());
                let word = shard.dictionary.lookup("early").unwrap();
                assert_eq!(shard.dictionary.entry(word).df, 50, "dictionary df stays global");
            }
        }
        // "early" lives only in the first quarter: later shards hold a
        // genuine (decodable) empty record for it.
        let shards = idx.split_shards(4);
        let early = idx.dictionary.lookup("early").unwrap();
        let (_, bytes) = &shards[3].records[early.0 as usize];
        let rec = InvertedRecord::decode(bytes).unwrap();
        assert_eq!(rec.df(), 0);
        assert!(rec.postings.is_empty());
    }

    #[test]
    fn repeated_document_terms_make_one_posting() {
        let mut b = IndexBuilder::new(StopWords::none());
        b.add_document("D0", "echo echo echo");
        let idx = b.finish();
        let echo = idx.dictionary.lookup("echo").unwrap();
        let rec = InvertedRecord::decode(&idx.records[echo.0 as usize].1).unwrap();
        assert_eq!(rec.df(), 1);
        assert_eq!(rec.postings[0].tf, 3);
        assert_eq!(rec.postings[0].positions, vec![0, 1, 2]);
    }
}
