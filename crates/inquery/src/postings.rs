//! Inverted-list record format.
//!
//! "There is one record per term. A record has a header containing summary
//! statistics about the term, followed by a listing of the documents, and
//! the locations within each document, where the term occurs. The record is
//! stored as a vector of integers in a compressed format." (Section 3.1)
//!
//! Two encodings share the wire format (version is self-describing):
//!
//! **v1** — the all-vbyte layout, written for short records
//! (`df <= BLOCK_SIZE` with a `u32`-range cf); a v1 header declaring a
//! longer list is corrupt:
//!
//! ```text
//! header:   df, cf, max_tf                       (vbyte)
//! postings: df × [ doc-gap, tf, tf × position-gap ]
//! ```
//!
//! **v2** — bit-packed blocks, written whenever `df > BLOCK_SIZE` (and for
//! the rare short record whose cf exceeds `u32::MAX`). The header starts
//! with a vbyte 0 — impossible as a v1 `df` except for the exactly-3-byte
//! empty record — followed by the version and a full-width cf:
//!
//! ```text
//! header:    0x80, version=2, df, cf-hi, cf-lo, max_tf     (vbyte)
//! directory: ceil(df / BLOCK_SIZE) ×
//!              [ last-doc-gap, byte-len, block-max-tf,
//!                doc-width, tf-width ]                      (vbyte)
//! block:     packed doc-gaps  (doc-width bits each, LE u64 words)
//!            packed tf-1      (tf-width bits each, LE u64 words)
//!            df_block × [ tf × position-gap ]               (vbyte)
//! ```
//!
//! `last-doc-gap` delta-codes each block's largest document id against the
//! previous block's, `byte-len` is the encoded size of the whole block,
//! and `block-max-tf` caps the tf of any posting inside. `doc-width` and
//! `tf-width` are the block's fixed bit widths: the packed arrays decode
//! word-at-a-time into scratch buffers ([`crate::codec::unpack_bits`]),
//! with no per-integer branching. Term frequencies are stored minus one
//! (every posting has at least one occurrence), so an all-`tf=1` block
//! packs its tf array into zero bytes. Doc gaps run continuously across
//! block boundaries, so a cursor that seeks to block *i* re-bases on block
//! *i−1*'s last doc. The directory length is derived from `df`, never
//! stored. A v2 record with `df <= BLOCK_SIZE` carries no directory and
//! keeps the v1 posting stream after its extended header.
//!
//! Document ids and within-document positions are delta-coded, which gives
//! the ~60% compression the paper reports on posting-heavy records.
//!
//! **Splicing.** Incremental update never decodes a record into
//! [`Posting`]s. [`splice_append`] adds a posting for a document newer than
//! every one in the list: it re-emits the header, copies the v1 posting
//! stream (or every directory entry and block but the last) verbatim, and
//! re-packs only the last block, or opens a new one when the last is full.
//! [`splice_remove`] copies every block before the one holding the
//! document and re-packs the suffix from raw arrays (doc gaps, tf−1 values,
//! position bytes), because blocks are fixed 128-posting chunks from the
//! head of the list. A record that crosses `df` 128 ↔ 129 is re-packed
//! whole. The invariant: for every record [`InvertedRecord::encode`] (or the
//! index builder) wrote, a splice is byte-identical to `decode`, push or
//! remove one posting, `encode` — both pack blocks and write directory
//! entries through the same code, and the bytes a splice copies are the
//! bytes `encode` would have re-emitted.

use std::sync::Arc;

use crate::block_cache::{BlockCache, BlockKey, DecodedBlock};
use crate::codec::{bit_width, decode_vbyte, encode_vbyte, pack_bits, packed_len, unpack_bits};

/// Postings per skip block in the blocked record layout.
pub const BLOCK_SIZE: u32 = 128;

/// The self-describing version number of the bit-packed record format.
const FORMAT_V2: u32 = 2;

/// One entry of a blocked record's skip directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipBlock {
    /// Largest document id in the block.
    pub last_doc: u32,
    /// Byte offset of the block's first posting within the record.
    pub offset: usize,
    /// Encoded length of the block's postings in bytes.
    pub len: usize,
    /// Largest within-document tf in the block.
    pub max_tf: u32,
    /// Bit width of the block's packed doc gaps.
    pub doc_width: u32,
    /// Bit width of the block's packed tf−1 values (0 for an all-`tf=1`
    /// block).
    pub tf_width: u32,
}

/// A document's ordinal id within its collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// One document's entry in an inverted list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// Number of occurrences in the document.
    pub tf: u32,
    /// Ascending word positions of each occurrence.
    pub positions: Vec<u32>,
}

/// A fully decoded inverted record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InvertedRecord {
    /// Collection frequency (total occurrences).
    pub cf: u64,
    /// Largest within-document tf (used for belief normalisation caps).
    pub max_tf: u32,
    /// Per-document postings, ascending by document id.
    pub postings: Vec<Posting>,
}

impl InvertedRecord {
    /// Document frequency.
    pub fn df(&self) -> u32 {
        self.postings.len() as u32
    }

    /// Builds a record from postings (which must be ascending by doc).
    pub fn from_postings(postings: Vec<Posting>) -> Self {
        debug_assert!(postings.windows(2).all(|w| w[0].doc < w[1].doc));
        let cf = postings.iter().map(|p| p.tf as u64).sum();
        let max_tf = postings.iter().map(|p| p.tf).max().unwrap_or(0);
        InvertedRecord { cf, max_tf, postings }
    }

    /// Serializes to the compressed on-disk form: the legacy v1 layout for
    /// short records, bit-packed v2 blocks when `df > BLOCK_SIZE` (or when
    /// cf needs more than 32 bits).
    pub fn encode(&self) -> Vec<u8> {
        let df = self.df();
        let mut out = Vec::with_capacity(8 + 4 * self.postings.len());
        encode_header(df, self.cf, self.max_tf, &mut out);
        let mut prev_doc = 0u32;
        if df <= BLOCK_SIZE {
            for p in &self.postings {
                debug_assert_eq!(p.positions.len(), p.tf as usize);
                encode_vbyte(p.doc.0 - prev_doc, &mut out);
                encode_vbyte(p.tf, &mut out);
                encode_positions(&p.positions, &mut out);
                prev_doc = p.doc.0;
            }
            return out;
        }
        // Blocked layout: pack the body block by block to learn each
        // block's directory entry, then emit the directory ahead of it.
        let mut body = Vec::with_capacity(4 * self.postings.len());
        let mut directory = Vec::with_capacity(self.postings.len().div_ceil(BLOCK_SIZE as usize));
        let mut block = RawRun::with_capacity(BLOCK_SIZE as usize);
        for chunk in self.postings.chunks(BLOCK_SIZE as usize) {
            block.clear();
            let doc_before = prev_doc;
            for p in chunk {
                debug_assert!(p.tf >= 1, "v2 blocks store tf-1; every posting needs tf >= 1");
                debug_assert_eq!(p.positions.len(), p.tf as usize);
                block.push_positions(p.doc.0 - prev_doc, &p.positions);
                prev_doc = p.doc.0;
            }
            directory.push(block.pack(0, chunk.len(), doc_before, &mut body));
        }
        encode_v2_directory(&directory, 0, &mut out);
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a record written by [`InvertedRecord::encode`] (either
    /// format version): [`InvertedRecord::decode_each`] collected into
    /// [`Posting`]s.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut postings = Vec::new();
        let mut scratch = Vec::new();
        let (_, cf, max_tf) = Self::decode_each(bytes, &mut scratch, |doc, tf, positions| {
            postings.push(Posting { doc, tf, positions: positions.to_vec() });
        })?;
        Some(InvertedRecord { cf, max_tf, postings })
    }

    /// Streams a record's postings to `f` as `(doc, tf, positions)`, in
    /// document order, decoding every posting's positions into the one
    /// reused `positions` buffer, and returns the header `(df, cf, max_tf)`
    /// once the whole record has checked out. The only record validation:
    /// [`InvertedRecord::decode`] is a wrapper over it.
    ///
    /// Untrusted input is refused with `None`: a `df` larger than the
    /// record, position gaps that overflow a `u32`, and a `tf` larger than
    /// the record; in v1, trailing bytes; in v2, a skip directory that does
    /// not span exactly the record and a position stream that does not end
    /// exactly at its block boundary. `f` may have seen a prefix of the
    /// postings by the time a violation shows.
    pub fn decode_each(
        bytes: &[u8],
        positions: &mut Vec<u32>,
        mut f: impl FnMut(DocId, u32, &[u32]),
    ) -> Option<(u32, u64, u32)> {
        let (mut cur, df, cf, max_tf) = BlockCursor::open(bytes)?;
        // A posting costs at least 3 bytes in v1 and at least one position
        // byte in v2, so a declared df larger than the record is corrupt.
        if (df as usize) > bytes.len() {
            return None;
        }
        if cur.packed {
            let last = cur.blocks.last()?;
            if last.offset.checked_add(last.len)? != bytes.len() {
                return None;
            }
        }
        for i in 0..df {
            let (doc, tf) = cur.next_into(bytes, positions)?;
            f(doc, tf, positions);
            let block_boundary = (i + 1) % BLOCK_SIZE == 0 || i + 1 == df;
            if cur.packed && block_boundary && cur.pos_ptr != cur.pos_end {
                return None; // slack bytes inside the block's position region
            }
        }
        if !cur.packed && cur.pos != bytes.len() {
            return None; // trailing garbage
        }
        Some((df, cf, max_tf))
    }

    /// Decodes only the `(df, cf, max_tf)` header (either format version).
    pub fn decode_header(bytes: &[u8]) -> Option<(u32, u64, u32)> {
        let mut pos = 0usize;
        let (df, cf, max_tf, _) = parse_header(bytes, &mut pos)?;
        Some((df, cf, max_tf))
    }
}

/// Parses a record header of either version, returning
/// `(df, cf, max_tf, is_v2)`. A leading vbyte 0 signals the v2 extended
/// header — every v2 record has `df > 0`, and the only v1 record starting
/// with 0 is the empty record, whose "version" field (really its cf) is
/// either not 2 or is followed by `df = 0`; both fall back to v1.
fn parse_header(bytes: &[u8], pos: &mut usize) -> Option<(u32, u64, u32, bool)> {
    let first = decode_vbyte(bytes, pos)?;
    if first == 0 {
        let mark = *pos;
        if decode_vbyte(bytes, pos) == Some(FORMAT_V2) {
            if let Some(df) = decode_vbyte(bytes, pos) {
                if df > 0 {
                    // Committed: a v1 empty record is exactly three vbytes,
                    // so a parsed df > 0 here cannot be v1.
                    let cf_hi = decode_vbyte(bytes, pos)? as u64;
                    let cf_lo = decode_vbyte(bytes, pos)? as u64;
                    let max_tf = decode_vbyte(bytes, pos)?;
                    return Some((df, (cf_hi << 32) | cf_lo, max_tf, true));
                }
            }
        }
        // The leading 0 was a v1 empty record's df.
        *pos = mark;
        let cf = decode_vbyte(bytes, pos)? as u64;
        let max_tf = decode_vbyte(bytes, pos)?;
        return Some((0, cf, max_tf, false));
    }
    let cf = decode_vbyte(bytes, pos)? as u64;
    let max_tf = decode_vbyte(bytes, pos)?;
    Some((first, cf, max_tf, false))
}

/// Emits a record header: the three-vbyte v1 header for a short record
/// whose cf fits 32 bits, otherwise the v2 extended header — sentinel 0,
/// version, df, cf split into two vbyte halves (full 64-bit round-trip),
/// max_tf.
pub(crate) fn encode_header(df: u32, cf: u64, max_tf: u32, out: &mut Vec<u8>) {
    if df <= BLOCK_SIZE && cf <= u32::MAX as u64 {
        encode_vbyte(df, out);
        encode_vbyte(cf as u32, out);
        encode_vbyte(max_tf, out);
        return;
    }
    encode_vbyte(0, out);
    encode_vbyte(FORMAT_V2, out);
    encode_vbyte(df, out);
    encode_vbyte((cf >> 32) as u32, out);
    encode_vbyte(cf as u32, out);
    encode_vbyte(max_tf, out);
}

/// One v2 skip-directory entry:
/// `(last_doc, len, block_max_tf, doc_width, tf_width)`.
pub(crate) type DirEntry = (u32, usize, u32, u32, u32);

/// Emits v2 skip-directory entries for blocks that follow a block ending
/// at `prev_last` (0 at the head of a record, making the first last-doc
/// absolute).
pub(crate) fn encode_v2_directory(directory: &[DirEntry], mut prev_last: u32, out: &mut Vec<u8>) {
    for &(last_doc, len, block_max_tf, doc_width, tf_width) in directory {
        encode_vbyte(last_doc - prev_last, out);
        prev_last = last_doc;
        debug_assert!(len <= u32::MAX as usize);
        encode_vbyte(len as u32, out);
        encode_vbyte(block_max_tf, out);
        encode_vbyte(doc_width, out);
        encode_vbyte(tf_width, out);
    }
}

/// Packs one block's raw arrays into the v2 wire form — packed doc gaps,
/// packed tf−1 values, then the already-vbyte-coded position streams —
/// returning the chosen `(doc_width, tf_width)`. Shared by
/// [`InvertedRecord::encode`], the splices and the index builder so all
/// three emit byte-identical blocks.
pub(crate) fn pack_block(
    gaps: &[u32],
    tfs_m1: &[u32],
    pos_stream: &[u8],
    out: &mut Vec<u8>,
) -> (u32, u32) {
    let doc_width = bit_width(gaps.iter().copied().max().unwrap_or(0));
    let tf_width = bit_width(tfs_m1.iter().copied().max().unwrap_or(0));
    pack_bits(gaps, doc_width, out);
    pack_bits(tfs_m1, tf_width, out);
    out.extend_from_slice(pos_stream);
    (doc_width, tf_width)
}

/// Re-interleaves raw per-posting arrays into the v1 posting stream
/// `doc-gap, tf, positions...` — the index builder keeps the filling block
/// as raw arrays (so completed blocks can be packed) and uses this to emit
/// short records in the v1 layout. `pos_stream` holds each posting's
/// position gaps back to back; vbyte terminators (high bit set) delimit
/// the individual integers.
pub(crate) fn interleave_vbyte_postings(
    gaps: &[u32],
    tfs_m1: &[u32],
    pos_stream: &[u8],
    out: &mut Vec<u8>,
) {
    let mut cursor = 0usize;
    for (&gap, &tf_m1) in gaps.iter().zip(tfs_m1) {
        encode_vbyte(gap, out);
        let tf = tf_m1 + 1;
        encode_vbyte(tf, out);
        let start = cursor;
        for _ in 0..tf {
            while pos_stream[cursor] & 0x80 == 0 {
                cursor += 1;
            }
            cursor += 1; // past the final byte of this vbyte
        }
        out.extend_from_slice(&pos_stream[start..cursor]);
    }
    debug_assert_eq!(cursor, pos_stream.len());
}

/// Appends ascending `positions` as vbyte gaps (the first one absolute).
fn encode_positions(positions: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for &q in positions {
        encode_vbyte(q - prev, out);
        prev = q;
    }
}

/// Steps `*pos` past one posting's `tf` position gaps, rejecting (as
/// decode does) a stream that ends early or whose positions overflow a
/// `u32`. Allocates nothing.
fn skip_positions(bytes: &[u8], pos: &mut usize, tf: u32) -> Option<()> {
    let mut at = 0u32;
    for _ in 0..tf {
        at = at.checked_add(decode_vbyte(bytes, pos)?)?;
    }
    Some(())
}

/// A run of consecutive postings held as the raw arrays blocks are packed
/// from — doc gaps, tf−1 values, vbyte position bytes — so encoding and
/// splicing never materialise a [`Posting`].
#[derive(Debug, Default)]
struct RawRun {
    /// Doc gaps; the first is against the last doc before the run (0 at
    /// the head of a record, making it absolute).
    gaps: Vec<u32>,
    tfs_m1: Vec<u32>,
    /// Every posting's position gaps, vbyte-coded, back to back.
    pos: Vec<u8>,
    /// End of each posting's position bytes within `pos`.
    pos_ends: Vec<usize>,
}

/// The leading blocks of a blocked record that a splice keeps verbatim:
/// their directory entries, their bodies, and the last doc they reach.
struct Kept<'a> {
    dir: &'a [u8],
    body: &'a [u8],
    last_doc: u32,
}

impl Kept<'_> {
    /// Nothing kept: the run is the whole record.
    const NONE: Kept<'static> = Kept { dir: &[], body: &[], last_doc: 0 };
}

impl RawRun {
    fn with_capacity(postings: usize) -> Self {
        RawRun {
            gaps: Vec::with_capacity(postings),
            tfs_m1: Vec::with_capacity(postings),
            pos: Vec::with_capacity(4 * postings),
            pos_ends: Vec::with_capacity(postings),
        }
    }

    fn len(&self) -> usize {
        self.gaps.len()
    }

    fn clear(&mut self) {
        self.gaps.clear();
        self.tfs_m1.clear();
        self.pos.clear();
        self.pos_ends.clear();
    }

    /// Appends a posting whose position gaps are already vbyte-coded.
    fn push(&mut self, gap: u32, tf: u32, pos: &[u8]) {
        self.gaps.push(gap);
        self.tfs_m1.push(tf - 1);
        self.pos.extend_from_slice(pos);
        self.pos_ends.push(self.pos.len());
    }

    /// Appends a posting from its ascending positions (tf = their count).
    fn push_positions(&mut self, gap: u32, positions: &[u32]) {
        self.gaps.push(gap);
        self.tfs_m1.push((positions.len() as u32).saturating_sub(1));
        encode_positions(positions, &mut self.pos);
        self.pos_ends.push(self.pos.len());
    }

    /// Index of the posting for `doc`, summing gaps from `base`.
    fn find(&self, base: u32, doc: u32) -> Option<usize> {
        let mut at = base;
        for (i, &gap) in self.gaps.iter().enumerate() {
            at = at.checked_add(gap)?;
            if at >= doc {
                return (at == doc).then_some(i);
            }
        }
        None
    }

    /// Removes posting `i`, folding its doc gap into the next posting's,
    /// and returns its tf.
    fn remove(&mut self, i: usize) -> u32 {
        let gap = self.gaps.remove(i);
        if let Some(next) = self.gaps.get_mut(i) {
            *next += gap; // sums to the next doc id, which fits a u32
        }
        let start = if i == 0 { 0 } else { self.pos_ends[i - 1] };
        let end = self.pos_ends.remove(i);
        self.pos.drain(start..end);
        for e in &mut self.pos_ends[i..] {
            *e -= end - start;
        }
        self.tfs_m1.remove(i) + 1
    }

    /// Largest tf in the run (0 when empty).
    fn max_tf(&self) -> u32 {
        self.tfs_m1.iter().max().map_or(0, |&m| m + 1)
    }

    /// Appends block `b` of a blocked record, validating it as the cursor
    /// and decode do: the packed arrays fit, the doc gaps sum to the
    /// directory's last doc, no tf exceeds the block max, positions fit a
    /// `u32`, and the position bytes fill the block exactly.
    fn read_block(
        &mut self,
        bytes: &[u8],
        blocks: &[SkipBlock],
        b: usize,
        df: u32,
        scratch: &mut Vec<u32>,
    ) -> Option<()> {
        let blk = blocks[b];
        let n = if b + 1 < blocks.len() {
            BLOCK_SIZE as usize
        } else {
            df as usize - b * BLOCK_SIZE as usize
        };
        // Positions must not run past the block.
        let bytes = bytes.get(..blk.offset.checked_add(blk.len)?)?;
        let docs_bytes = packed_len(n, blk.doc_width);
        let tfs_bytes = packed_len(n, blk.tf_width);
        let packed = bytes.get(blk.offset..)?;
        unpack_bits(packed, n, blk.doc_width, scratch)?;
        let mut doc = if b == 0 { 0 } else { blocks[b - 1].last_doc };
        for &gap in scratch.iter() {
            doc = doc.checked_add(gap)?;
        }
        if doc != blk.last_doc {
            return None;
        }
        self.gaps.extend_from_slice(scratch);
        unpack_bits(packed.get(docs_bytes..)?, n, blk.tf_width, scratch)?;
        if scratch.iter().any(|&t| t >= blk.max_tf) {
            return None; // tf = t + 1 would exceed the block max
        }
        self.tfs_m1.extend_from_slice(scratch);
        let start = blk.offset + docs_bytes + tfs_bytes;
        let base = self.pos.len();
        self.pos.extend_from_slice(bytes.get(start..)?);
        let mut at = start;
        for &t in scratch.iter() {
            skip_positions(bytes, &mut at, t + 1)?;
            self.pos_ends.push(base + at - start);
        }
        (at == bytes.len()).then_some(())
    }

    /// Packs postings `s..e` (non-empty) as one block onto `out`, given
    /// the doc before `s`, and returns the block's directory entry.
    fn pack(&self, s: usize, e: usize, doc_before: u32, out: &mut Vec<u8>) -> DirEntry {
        let start = out.len();
        let pos_start = if s == 0 { 0 } else { self.pos_ends[s - 1] };
        let (gaps, tfs_m1) = (&self.gaps[s..e], &self.tfs_m1[s..e]);
        let pos = &self.pos[pos_start..self.pos_ends[e - 1]];
        let (doc_width, tf_width) = pack_block(gaps, tfs_m1, pos, out);
        let last_doc = doc_before + gaps.iter().sum::<u32>();
        let max_tf = tfs_m1.iter().max().map_or(0, |&m| m + 1);
        (last_doc, out.len() - start, max_tf, doc_width, tf_width)
    }

    /// Writes a whole record of `df` postings: `kept` (blocks copied
    /// verbatim) followed by this run. A blocked record cuts the run into
    /// blocks of [`BLOCK_SIZE`] from its head; a short one (nothing kept)
    /// writes it as the v1 posting stream.
    fn write_record(&self, df: u32, cf: u64, max_tf: u32, kept: Kept<'_>, out: &mut Vec<u8>) {
        encode_header(df, cf, max_tf, out);
        if df <= BLOCK_SIZE {
            debug_assert!(kept.dir.is_empty() && kept.body.is_empty());
            interleave_vbyte_postings(&self.gaps, &self.tfs_m1, &self.pos, out);
            return;
        }
        // The run is a block or two on the update path: pack it aside to
        // learn its directory entries, which precede the kept body.
        let mut packed = Vec::with_capacity(self.pos.len() + 8 * self.len());
        let mut directory = Vec::new();
        let mut doc = kept.last_doc;
        for s in (0..self.len()).step_by(BLOCK_SIZE as usize) {
            let e = (s + BLOCK_SIZE as usize).min(self.len());
            let entry = self.pack(s, e, doc, &mut packed);
            doc = entry.0;
            directory.push(entry);
        }
        out.reserve(kept.dir.len() + 5 * 5 * directory.len() + kept.body.len() + packed.len());
        out.extend_from_slice(kept.dir);
        encode_v2_directory(&directory, kept.last_doc, out);
        out.extend_from_slice(kept.body);
        out.extend_from_slice(&packed);
    }
}

/// Walks the v1 posting stream of `df` postings at `*pos`, validating it
/// as decode does, and hands each posting's doc gap, tf and position bytes
/// to `each`. Returns the last doc id (0 for an empty stream). Allocates
/// nothing; rejects a posting with tf 0, which no writer emits.
fn walk_stream<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    df: u32,
    mut each: impl FnMut(u32, u32, &'a [u8]),
) -> Option<u32> {
    let mut doc = 0u32;
    for _ in 0..df {
        let gap = decode_vbyte(bytes, pos)?;
        doc = doc.checked_add(gap)?;
        let tf = decode_vbyte(bytes, pos)?;
        if tf == 0 {
            return None;
        }
        let start = *pos;
        skip_positions(bytes, pos, tf)?;
        each(gap, tf, &bytes[start..*pos]);
    }
    Some(doc)
}

/// A blocked record's header fields and parsed, length-checked skip
/// directory, with where the directory starts.
struct Blocked {
    df: u32,
    cf: u64,
    max_tf: u32,
    dir_start: usize,
    blocks: Vec<SkipBlock>,
}

impl Blocked {
    /// The first `keep` blocks' directory entries and bodies, verbatim.
    fn kept<'a>(&self, bytes: &'a [u8], keep: usize) -> Option<Kept<'a>> {
        let mut dir_end = self.dir_start;
        for _ in 0..keep * 5 {
            decode_vbyte(bytes, &mut dir_end)?;
        }
        let body_end = self.blocks.get(keep).map_or(bytes.len(), |b| b.offset);
        Some(Kept {
            dir: &bytes[self.dir_start..dir_end],
            body: &bytes[self.blocks[0].offset..body_end],
            last_doc: keep.checked_sub(1).map_or(0, |k| self.blocks[k].last_doc),
        })
    }
}

/// A record as the splices see it: its header and either the byte offset
/// of its v1 posting stream or its parsed skip directory.
enum Layout {
    Short { df: u32, cf: u64, max_tf: u32, body: usize },
    Blocked(Blocked),
}

fn parse_layout(bytes: &[u8]) -> Option<Layout> {
    let mut pos = 0usize;
    let (df, cf, max_tf, v2) = parse_header(bytes, &mut pos)?;
    if df <= BLOCK_SIZE {
        return Some(Layout::Short { df, cf, max_tf, body: pos });
    }
    if !v2 {
        return None; // only v2 writes blocked records
    }
    let dir_start = pos;
    let blocks = parse_skip_directory(bytes, &mut pos, df)?;
    let last = blocks.last()?;
    if last.offset.checked_add(last.len)? != bytes.len() {
        return None;
    }
    Some(Layout::Blocked(Blocked { df, cf, max_tf, dir_start, blocks }))
}

/// The encoding of a record with no postings (`df`, `cf` and `max_tf` all
/// 0): what [`splice_append`] grows a brand-new term's record from.
pub const EMPTY_RECORD: &[u8] = &[0x80, 0x80, 0x80];

/// Appends a posting for `doc`, at ascending `positions` (tf is their
/// count), to the encoded record `bytes`, writing the new record to `out`
/// (cleared first). The header gains `df + 1`, `cf + tf` and
/// `max(max_tf, tf)`; see the module doc's "Splicing" for what is copied
/// and what is re-packed.
///
/// Returns `None`, and leaves `out` unspecified, when the record is
/// corrupt where the splice reads it, when `doc` does not follow the
/// list's last document, or when `positions` is empty or descending.
pub fn splice_append(bytes: &[u8], doc: DocId, positions: &[u32], out: &mut Vec<u8>) -> Option<()> {
    let tf = u32::try_from(positions.len()).ok().filter(|&tf| tf > 0)?;
    if positions.windows(2).any(|w| w[1] < w[0]) {
        return None;
    }
    out.clear();
    match parse_layout(bytes)? {
        Layout::Short { df, cf, max_tf, body } => {
            let (new_df, new_cf) = (df + 1, cf.checked_add(tf as u64)?);
            // At BLOCK_SIZE postings the list turns blocked: re-pack whole.
            let repack = new_df > BLOCK_SIZE;
            let mut run = RawRun::default();
            let mut pos = body;
            let last = walk_stream(bytes, &mut pos, df, |gap, t, p| {
                if repack {
                    run.push(gap, t, p);
                }
            })?;
            if pos != bytes.len() || (df > 0 && doc.0 <= last) {
                return None;
            }
            if repack {
                run.push_positions(doc.0 - last, positions);
                run.write_record(new_df, new_cf, max_tf.max(tf), Kept::NONE, out);
            } else {
                encode_header(new_df, new_cf, max_tf.max(tf), out);
                out.extend_from_slice(&bytes[body..]);
                encode_vbyte(doc.0 - last, out);
                encode_vbyte(tf, out);
                encode_positions(positions, out);
            }
        }
        Layout::Blocked(rec) => {
            let (new_df, new_cf) = (rec.df.checked_add(1)?, rec.cf.checked_add(tf as u64)?);
            let last = rec.blocks.len() - 1;
            let last_doc = rec.blocks[last].last_doc;
            if doc.0 <= last_doc {
                return None;
            }
            // Re-pack the last block with the posting appended; when the
            // block was full, the run re-packs it to the same bytes and the
            // posting opens a block of its own.
            let mut run = RawRun::default();
            run.read_block(bytes, &rec.blocks, last, rec.df, &mut Vec::new())?;
            run.push_positions(doc.0 - last_doc, positions);
            let kept = rec.kept(bytes, last)?;
            run.write_record(new_df, new_cf, rec.max_tf.max(tf), kept, out);
        }
    }
    Some(())
}

/// Removes `doc`'s posting from the encoded record `bytes`, writing the
/// new record to `out` (cleared first). The header gains `df − 1`,
/// `cf − tf` (saturating) and the largest remaining tf; see the module
/// doc's "Splicing" for what is copied and what is re-packed.
///
/// Returns `Some(Some(tf))` with the removed posting's tf,
/// `Some(None)` when the list holds no posting for `doc` (and `out` is
/// unspecified), or `None` when the record is corrupt where the splice
/// reads it.
pub fn splice_remove(bytes: &[u8], doc: DocId, out: &mut Vec<u8>) -> Option<Option<u32>> {
    out.clear();
    match parse_layout(bytes)? {
        Layout::Short { df, cf, body, .. } => {
            let mut run = RawRun::default();
            let mut pos = body;
            walk_stream(bytes, &mut pos, df, |gap, tf, p| run.push(gap, tf, p))?;
            if pos != bytes.len() {
                return None;
            }
            let Some(i) = run.find(0, doc.0) else { return Some(None) };
            let tf = run.remove(i);
            run.write_record(df - 1, cf.saturating_sub(tf as u64), run.max_tf(), Kept::NONE, out);
            Some(Some(tf))
        }
        Layout::Blocked(rec) => {
            let k = rec.blocks.partition_point(|b| b.last_doc < doc.0);
            if k == rec.blocks.len() {
                return Some(None);
            }
            // At BLOCK_SIZE + 1 postings the list leaves the blocked
            // layout: re-pack whole. Otherwise every block from the one
            // holding `doc` shifts by a posting and is re-packed.
            let first = if rec.df == BLOCK_SIZE + 1 { 0 } else { k };
            let mut run = RawRun::default();
            let mut scratch = Vec::with_capacity(BLOCK_SIZE as usize);
            for b in first..rec.blocks.len() {
                run.read_block(bytes, &rec.blocks, b, rec.df, &mut scratch)?;
            }
            let kept = rec.kept(bytes, first)?;
            let Some(i) = run.find(kept.last_doc, doc.0) else { return Some(None) };
            let tf = run.remove(i);
            let max_tf = rec.blocks[..first].iter().map(|b| b.max_tf).fold(run.max_tf(), u32::max);
            run.write_record(rec.df - 1, rec.cf.saturating_sub(tf as u64), max_tf, kept, out);
            Some(Some(tf))
        }
    }
}

/// Parses a blocked record's skip directory (the cursor already consumed
/// the header). Offsets come back rebased onto the record, pointing at
/// each block's first posting byte.
fn parse_skip_directory(bytes: &[u8], pos: &mut usize, df: u32) -> Option<Vec<SkipBlock>> {
    let num_blocks = df.div_ceil(BLOCK_SIZE) as usize;
    // Each directory entry costs at least 5 bytes, so an entry count the
    // bytes cannot possibly hold is corrupt — and pre-allocation must
    // never trust the raw value.
    if num_blocks.checked_mul(5)? > bytes.len() {
        return None;
    }
    let mut blocks = Vec::with_capacity(num_blocks);
    let mut prev_last = 0u32;
    let mut offset = 0usize;
    for i in 0..num_blocks {
        let gap = decode_vbyte(bytes, pos)?;
        if i > 0 && gap == 0 {
            return None; // block last-docs must strictly ascend
        }
        let last_doc = if i == 0 { gap } else { prev_last.checked_add(gap)? };
        prev_last = last_doc;
        let len = decode_vbyte(bytes, pos)? as usize;
        if len == 0 {
            return None; // a block holds at least one posting
        }
        let max_tf = decode_vbyte(bytes, pos)?;
        let doc_width = decode_vbyte(bytes, pos)?;
        let tf_width = decode_vbyte(bytes, pos)?;
        if doc_width > 32 || tf_width > 32 {
            return None; // widths are bits of a u32
        }
        let n = if i + 1 < num_blocks {
            BLOCK_SIZE as usize
        } else {
            df as usize - i * BLOCK_SIZE as usize
        };
        // The packed arrays plus at least one position byte per posting
        // must fit the declared block length.
        if packed_len(n, doc_width).checked_add(packed_len(n, tf_width))?.checked_add(n)? > len {
            return None;
        }
        blocks.push(SkipBlock { last_doc, offset, len, max_tf, doc_width, tf_width });
        offset = offset.checked_add(len)?;
    }
    // Rebase offsets onto the record: postings start where the directory ends.
    let postings_start = *pos;
    for b in &mut blocks {
        b.offset = b.offset.checked_add(postings_start)?;
    }
    Some(blocks)
}

/// How much work a [`BlockCursor::seek`] bypassed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeekSummary {
    /// Block boundaries jumped without decoding.
    pub blocks_skipped: u64,
    /// Postings bypassed without decoding.
    pub postings_skipped: u64,
}

/// Cursor state detached from the record bytes, so callers that fetch a
/// record incrementally (range reads) can keep one cursor while the byte
/// buffer grows. Every decoding method takes the byte slice the cursor was
/// opened on — or any longer prefix-compatible slice of the same record.
#[derive(Debug, Clone)]
pub struct BlockCursor {
    pos: usize,
    df: u32,
    remaining: u32,
    prev_doc: u32,
    first: bool,
    /// Whether the record is a v2 blocked record with bit-packed blocks.
    packed: bool,
    blocks: Vec<SkipBlock>,
    /// Scratch: the loaded block's absolute doc ids (packed records only).
    docs: Vec<u32>,
    /// Scratch: the loaded block's tf values (packed records only).
    tfs: Vec<u32>,
    /// Block index currently decoded into the scratch buffers
    /// (`usize::MAX` when none is).
    loaded: usize,
    /// Byte cursor into the loaded block's position streams.
    pos_ptr: usize,
    /// One past the loaded block's last byte.
    pos_end: usize,
    /// Postings of the loaded block whose position streams `pos_ptr` has
    /// passed.
    pos_read: usize,
    bytes_decoded: u64,
    blocks_bitpacked: u64,
    /// Attached decoded-block cache, when the owning store maintains one.
    cache: Option<CacheHandle>,
    cache_hits: u64,
    cache_misses: u64,
}

/// A cursor's attachment to a shared decoded-block cache: the cache itself
/// plus the key prefix identifying this cursor's record in it.
#[derive(Debug, Clone)]
struct CacheHandle {
    cache: Arc<BlockCache>,
    /// The owning store's epoch at attach time (see [`BlockKey::epoch`]).
    epoch: u64,
    /// Backend object id of the record this cursor walks.
    object: u64,
}

impl BlockCursor {
    /// Opens a cursor, consuming the header (and skip directory, when the
    /// record is blocked). `bytes` may be a prefix of the full record as
    /// long as it covers the header and directory.
    pub fn open(bytes: &[u8]) -> Option<(Self, u32, u64, u32)> {
        let mut pos = 0usize;
        let (df, cf, max_tf, v2) = parse_header(bytes, &mut pos)?;
        let packed = df > BLOCK_SIZE;
        if packed && !v2 {
            return None; // only v2 writes blocked records
        }
        let blocks = if packed { parse_skip_directory(bytes, &mut pos, df)? } else { Vec::new() };
        let cursor = BlockCursor {
            pos,
            df,
            remaining: df,
            prev_doc: 0,
            first: true,
            packed,
            blocks,
            docs: Vec::new(),
            tfs: Vec::new(),
            loaded: usize::MAX,
            pos_ptr: 0,
            pos_end: 0,
            pos_read: 0,
            bytes_decoded: 0,
            blocks_bitpacked: 0,
            cache: None,
            cache_hits: 0,
            cache_misses: 0,
        };
        Some((cursor, df, cf, max_tf))
    }

    /// Attaches a decoded-block cache. `epoch` and `object` form the cache
    /// key's record half; the caller (the store that owns the cache) must
    /// bump `epoch` whenever the record's bytes can have changed.
    pub fn attach_cache(&mut self, cache: Arc<BlockCache>, epoch: u64, object: u64) {
        self.cache = Some(CacheHandle { cache, epoch, object });
    }

    /// Packed blocks this cursor served from the attached cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Packed blocks this cursor decoded despite an attached cache.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Encoded bytes this cursor has decoded so far (packed arrays, vbyte
    /// postings, and position streams it actually touched).
    pub fn bytes_decoded(&self) -> u64 {
        self.bytes_decoded
    }

    /// Bit-packed blocks this cursor has word-decoded into scratch.
    pub fn blocks_bitpacked(&self) -> u64 {
        self.blocks_bitpacked
    }

    /// Postings not yet consumed.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Document frequency of the underlying record.
    pub fn df(&self) -> u32 {
        self.df
    }

    /// The skip directory (empty for unblocked records).
    pub fn blocks(&self) -> &[SkipBlock] {
        &self.blocks
    }

    /// Total encoded record length implied by the skip directory (`None`
    /// for unblocked records, whose length the directory cannot tell).
    pub fn total_len(&self) -> Option<usize> {
        self.blocks.last().map(|b| b.offset + b.len)
    }

    /// Index of the block holding the next posting.
    fn current_block(&self) -> usize {
        ((self.df - self.remaining) / BLOCK_SIZE) as usize
    }

    /// Index of the block holding the next posting (`None` for unblocked
    /// or exhausted cursors).
    pub fn current_block_index(&self) -> Option<usize> {
        if self.blocks.is_empty() || self.remaining == 0 {
            return None;
        }
        Some(self.current_block())
    }

    /// Block-max tf of the block holding the next posting (`None` for
    /// unblocked or exhausted cursors).
    pub fn current_block_max_tf(&self) -> Option<u32> {
        if self.blocks.is_empty() || self.remaining == 0 {
            return None;
        }
        self.blocks.get(self.current_block()).map(|b| b.max_tf)
    }

    /// Jumps forward to the first block that could contain `target`,
    /// bypassing every block whose last doc precedes it. Never decodes a
    /// posting and never moves backward; a no-op on unblocked records.
    pub fn seek(&mut self, target: u32) -> SeekSummary {
        if self.blocks.is_empty() || self.remaining == 0 {
            return SeekSummary::default();
        }
        let cur = self.current_block();
        let mut t = cur;
        while t < self.blocks.len() && self.blocks[t].last_doc < target {
            t += 1;
        }
        if t == cur {
            return SeekSummary::default();
        }
        if t == self.blocks.len() {
            // Every remaining document precedes `target`: exhaust the cursor.
            let skipped = self.remaining as u64;
            let last = &self.blocks[t - 1];
            self.pos = last.offset + last.len;
            self.prev_doc = last.last_doc;
            self.first = false;
            self.remaining = 0;
            return SeekSummary { blocks_skipped: (t - cur) as u64, postings_skipped: skipped };
        }
        let consumed = self.df - self.remaining;
        let skipped = (t as u32 * BLOCK_SIZE - consumed) as u64;
        self.pos = self.blocks[t].offset;
        self.prev_doc = self.blocks[t - 1].last_doc;
        self.first = false;
        self.remaining = self.df - t as u32 * BLOCK_SIZE;
        SeekSummary { blocks_skipped: (t - cur) as u64, postings_skipped: skipped }
    }

    /// Decodes the next posting, or `None` at the end.
    pub fn next(&mut self, bytes: &[u8]) -> Option<Posting> {
        let mut positions = Vec::new();
        let (doc, tf) = self.next_into(bytes, &mut positions)?;
        Some(Posting { doc, tf, positions })
    }

    /// Decodes the next posting's doc and tf, replacing the contents of
    /// `positions` with its ascending word positions, or `None` at the end.
    /// A caller that reuses one buffer allocates nothing per posting.
    pub fn next_into(&mut self, bytes: &[u8], positions: &mut Vec<u32>) -> Option<(DocId, u32)> {
        positions.clear();
        if self.packed {
            let (doc, tf, i) = self.packed_doc_tf(bytes)?;
            if (tf as usize) > bytes.len() {
                return None; // corrupt: more positions declared than bytes
            }
            // Fast-forward the position stream past postings whose
            // positions were never read (next_doc_tf never touches them).
            while self.pos_read < i {
                for _ in 0..self.tfs[self.pos_read] {
                    decode_vbyte(bytes, &mut self.pos_ptr)?;
                }
                self.pos_read += 1;
            }
            let start = self.pos_ptr;
            positions.reserve(tf as usize);
            let mut prev = 0u32;
            for j in 0..tf {
                let pgap = decode_vbyte(bytes, &mut self.pos_ptr)?;
                prev = if j == 0 { pgap } else { prev.checked_add(pgap)? };
                positions.push(prev);
            }
            if self.pos_ptr > self.pos_end {
                return None; // stream ran past the block boundary
            }
            self.pos_read = i + 1;
            self.bytes_decoded += (self.pos_ptr - start) as u64;
            self.remaining -= 1;
            return Some((doc, tf));
        }
        let start = self.pos;
        let (doc, tf) = self.next_doc_header(bytes)?;
        positions.reserve(tf as usize);
        let mut prev = 0u32;
        for j in 0..tf {
            let pgap = decode_vbyte(bytes, &mut self.pos)?;
            prev = if j == 0 { pgap } else { prev.checked_add(pgap)? };
            positions.push(prev);
        }
        self.bytes_decoded += (self.pos - start) as u64;
        self.remaining -= 1;
        Some((doc, tf))
    }

    /// Decodes the next posting's doc and tf, skipping its positions
    /// without allocating — the document-at-a-time scoring hot path. On
    /// packed records this is a pair of array reads: positions are not
    /// even scanned past, because the packed block keeps them out of line.
    #[inline]
    pub fn next_doc_tf(&mut self, bytes: &[u8]) -> Option<(DocId, u32)> {
        if self.packed {
            let (doc, tf, _) = self.packed_doc_tf(bytes)?;
            self.remaining -= 1;
            return Some((doc, tf));
        }
        let start = self.pos;
        let (doc, tf) = self.next_doc_header(bytes)?;
        for _ in 0..tf {
            decode_vbyte(bytes, &mut self.pos)?;
        }
        self.bytes_decoded += (self.pos - start) as u64;
        self.remaining -= 1;
        Some((doc, tf))
    }

    /// Looks up the next posting's `(doc, tf, index-in-block)` from the
    /// scratch buffers, loading its block first if needed. Does not
    /// consume the posting (`remaining` is the caller's).
    #[inline]
    fn packed_doc_tf(&mut self, bytes: &[u8]) -> Option<(DocId, u32, usize)> {
        if self.remaining == 0 {
            return None;
        }
        let consumed = (self.df - self.remaining) as usize;
        let b = consumed / BLOCK_SIZE as usize;
        let i = consumed % BLOCK_SIZE as usize;
        if self.loaded != b {
            self.load_block(b, bytes)?;
        }
        Some((DocId(self.docs[i]), self.tfs[i], i))
    }

    /// Word-decodes block `b`'s packed arrays into the scratch buffers:
    /// doc gaps are unpacked then prefix-summed into absolute ids, tf−1
    /// values are unpacked then bumped. Validates the block against its
    /// directory entry (last doc and block-max tf) so corruption surfaces
    /// as `None`, never as a panic.
    fn load_block(&mut self, b: usize, bytes: &[u8]) -> Option<()> {
        let blk = *self.blocks.get(b)?;
        let n = if b + 1 < self.blocks.len() {
            BLOCK_SIZE as usize
        } else {
            self.df as usize - b * BLOCK_SIZE as usize
        };
        let end = blk.offset.checked_add(blk.len)?;
        if end > bytes.len() {
            return None;
        }
        let docs_bytes = packed_len(n, blk.doc_width);
        let tfs_bytes = packed_len(n, blk.tf_width);
        if docs_bytes.checked_add(tfs_bytes)? > blk.len {
            return None;
        }
        if let Some(handle) = &self.cache {
            let key = BlockKey { epoch: handle.epoch, object: handle.object, block: b as u32 };
            if let Some(cached) = handle.cache.get(&key) {
                // Cross-check against the directory before trusting the
                // entry; a mismatch (impossible short of a key collision)
                // falls through to a fresh decode.
                if cached.docs.len() == n
                    && cached.tfs.len() == n
                    && cached.docs.last().copied() == Some(blk.last_doc)
                {
                    self.docs.clear();
                    self.docs.extend_from_slice(&cached.docs);
                    self.tfs.clear();
                    self.tfs.extend_from_slice(&cached.tfs);
                    self.pos_ptr = blk.offset + docs_bytes + tfs_bytes;
                    self.pos_end = end;
                    self.pos_read = 0;
                    self.loaded = b;
                    self.cache_hits += 1;
                    // No bytes_decoded / blocks_bitpacked bump: nothing
                    // was decoded — that asymmetry is what the cache buys.
                    return Some(());
                }
            }
        }
        let region = &bytes[blk.offset..end];
        unpack_bits(&region[..docs_bytes], n, blk.doc_width, &mut self.docs)?;
        unpack_bits(&region[docs_bytes..docs_bytes + tfs_bytes], n, blk.tf_width, &mut self.tfs)?;
        let mut prev = if b == 0 { 0u32 } else { self.blocks[b - 1].last_doc };
        let mut max_tf = 0u32;
        for (d, t) in self.docs.iter_mut().zip(self.tfs.iter_mut()) {
            prev = prev.checked_add(*d)?;
            *d = prev;
            let tf = t.checked_add(1)?;
            *t = tf;
            max_tf = max_tf.max(tf);
        }
        if prev != blk.last_doc || max_tf > blk.max_tf {
            return None; // directory disagrees with the data
        }
        self.pos_ptr = blk.offset + docs_bytes + tfs_bytes;
        self.pos_end = end;
        self.pos_read = 0;
        self.loaded = b;
        self.bytes_decoded += (docs_bytes + tfs_bytes) as u64;
        self.blocks_bitpacked += 1;
        if let Some(handle) = &self.cache {
            self.cache_misses += 1;
            let key = BlockKey { epoch: handle.epoch, object: handle.object, block: b as u32 };
            let (docs, tfs) = (&self.docs, &self.tfs);
            handle.cache.offer_with(key, || {
                Arc::new(DecodedBlock { docs: docs.clone(), tfs: tfs.clone() })
            });
        }
        Some(())
    }

    /// Decodes `doc-gap, tf` without consuming the posting (positions and
    /// the `remaining` decrement are the caller's). v1 records only.
    fn next_doc_header(&mut self, bytes: &[u8]) -> Option<(DocId, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let gap = decode_vbyte(bytes, &mut self.pos)?;
        let doc = if self.first { gap } else { self.prev_doc.checked_add(gap)? };
        self.first = false;
        self.prev_doc = doc;
        let tf = decode_vbyte(bytes, &mut self.pos)?;
        if (tf as usize) > bytes.len() {
            return None; // corrupt: more positions declared than bytes exist
        }
        Some((DocId(doc), tf))
    }
}

/// Streaming decoder over an encoded record — lets document-at-a-time
/// evaluation advance each term's cursor without materialising whole lists.
/// A borrow-holding convenience wrapper over [`BlockCursor`].
pub struct PostingsCursor<'a> {
    bytes: &'a [u8],
    inner: BlockCursor,
}

impl<'a> PostingsCursor<'a> {
    /// Opens a cursor, returning it with the header already consumed.
    pub fn open(bytes: &'a [u8]) -> Option<(Self, u32, u64, u32)> {
        let (inner, df, cf, max_tf) = BlockCursor::open(bytes)?;
        Some((PostingsCursor { bytes, inner }, df, cf, max_tf))
    }

    /// Postings not yet consumed.
    pub fn remaining(&self) -> u32 {
        self.inner.remaining()
    }

    /// The skip directory (empty for unblocked records).
    pub fn blocks(&self) -> &[SkipBlock] {
        self.inner.blocks()
    }

    /// Jumps forward past blocks that cannot contain `target`; see
    /// [`BlockCursor::seek`].
    pub fn seek(&mut self, target: u32) -> SeekSummary {
        self.inner.seek(target)
    }

    /// Decodes the next posting, or `None` at the end.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Posting> {
        self.inner.next(self.bytes)
    }

    /// Decodes the next posting's doc and tf without allocating.
    pub fn next_doc_tf(&mut self) -> Option<(DocId, u32)> {
        self.inner.next_doc_tf(self.bytes)
    }

    /// Attaches a decoded-block cache; see [`BlockCursor::attach_cache`].
    pub fn attach_cache(&mut self, cache: Arc<BlockCache>, epoch: u64, object: u64) {
        self.inner.attach_cache(cache, epoch, object);
    }

    /// Packed blocks served from the attached cache.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits()
    }

    /// Packed blocks decoded despite an attached cache.
    pub fn cache_misses(&self) -> u64 {
        self.inner.cache_misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedRecord {
        InvertedRecord::from_postings(vec![
            Posting { doc: DocId(3), tf: 2, positions: vec![5, 17] },
            Posting { doc: DocId(4), tf: 1, positions: vec![0] },
            Posting { doc: DocId(1000), tf: 3, positions: vec![2, 3, 900] },
        ])
    }

    #[test]
    fn from_postings_computes_stats() {
        let r = sample();
        assert_eq!(r.df(), 3);
        assert_eq!(r.cf, 6);
        assert_eq!(r.max_tf, 3);
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample();
        let bytes = r.encode();
        assert_eq!(InvertedRecord::decode(&bytes), Some(r));
    }

    #[test]
    fn header_only_decode() {
        let bytes = sample().encode();
        assert_eq!(InvertedRecord::decode_header(&bytes), Some((3, 6, 3)));
    }

    #[test]
    fn empty_record_round_trips() {
        let r = InvertedRecord::from_postings(vec![]);
        let bytes = r.encode();
        assert_eq!(bytes.len(), 3);
        assert_eq!(InvertedRecord::decode(&bytes), Some(r));
    }

    #[test]
    fn single_occurrence_records_are_tiny() {
        // "approximately 50% of the inverted lists are 12 bytes or less" —
        // the single-occurrence records that dominate a Zipf vocabulary
        // must fit the small object pool.
        for doc in [0u32, 100, 10_000, 500_000] {
            let r = InvertedRecord::from_postings(vec![Posting {
                doc: DocId(doc),
                tf: 1,
                positions: vec![50],
            }]);
            let bytes = r.encode();
            assert!(bytes.len() <= 12, "doc {doc}: {} bytes", bytes.len());
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = sample().encode();
        assert_eq!(InvertedRecord::decode(&bytes[..bytes.len() - 1]), None);
        let mut padded = bytes.clone();
        padded.push(0x81);
        assert_eq!(InvertedRecord::decode(&padded), None);
        assert_eq!(InvertedRecord::decode(&[]), None);
    }

    #[test]
    fn cursor_streams_the_same_postings() {
        let r = sample();
        let bytes = r.encode();
        let (mut cursor, df, cf, max_tf) = PostingsCursor::open(&bytes).unwrap();
        assert_eq!((df, cf, max_tf), (3, 6, 3));
        let mut streamed = Vec::new();
        while let Some(p) = cursor.next() {
            streamed.push(p);
        }
        assert_eq!(streamed, r.postings);
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.next(), None);
    }

    fn long_record(df: u32) -> InvertedRecord {
        InvertedRecord::from_postings(
            (0..df)
                .map(|d| Posting {
                    doc: DocId(d * 7 + 3),
                    tf: 1 + d % 4,
                    positions: (0..(1 + d % 4)).map(|j| j * 5 + d % 11).collect(),
                })
                .collect(),
        )
    }

    #[test]
    fn blocked_records_round_trip() {
        for df in [129u32, 256, 300, 1000] {
            let r = long_record(df);
            let bytes = r.encode();
            assert_eq!(InvertedRecord::decode(&bytes), Some(r), "df {df}");
        }
    }

    #[test]
    fn block_size_boundary_stays_unblocked() {
        // Exactly BLOCK_SIZE postings must keep the legacy layout: the
        // cursor sees no skip directory.
        let r = long_record(BLOCK_SIZE);
        let bytes = r.encode();
        let (cursor, ..) = PostingsCursor::open(&bytes).unwrap();
        assert!(cursor.blocks().is_empty());
        assert_eq!(InvertedRecord::decode(&bytes), Some(r));
    }

    #[test]
    fn skip_directory_describes_every_block() {
        let r = long_record(300);
        let bytes = r.encode();
        let (cursor, df, ..) = PostingsCursor::open(&bytes).unwrap();
        let blocks = cursor.blocks();
        assert_eq!(df, 300);
        assert_eq!(blocks.len(), 3); // ceil(300 / 128)
        assert_eq!(blocks[0].last_doc, r.postings[127].doc.0);
        assert_eq!(blocks[1].last_doc, r.postings[255].doc.0);
        assert_eq!(blocks[2].last_doc, r.postings[299].doc.0);
        assert_eq!(blocks.last().unwrap().offset + blocks.last().unwrap().len, bytes.len());
        for b in blocks {
            assert!(b.max_tf >= 1 && b.max_tf <= r.max_tf);
        }
    }

    #[test]
    fn seek_lands_on_the_same_posting_as_linear_scan() {
        let r = long_record(500);
        let bytes = r.encode();
        for target_idx in [0usize, 127, 128, 129, 300, 499] {
            let target = r.postings[target_idx].doc.0;
            let (mut cursor, ..) = PostingsCursor::open(&bytes).unwrap();
            let summary = cursor.seek(target);
            let mut found = None;
            while let Some(p) = cursor.next() {
                if p.doc.0 >= target {
                    found = Some(p);
                    break;
                }
            }
            assert_eq!(found.as_ref(), Some(&r.postings[target_idx]), "target idx {target_idx}");
            if target_idx >= 2 * BLOCK_SIZE as usize {
                assert!(summary.blocks_skipped > 0, "seek to idx {target_idx} skipped nothing");
                assert!(summary.postings_skipped > 0);
            }
        }
    }

    #[test]
    fn seek_past_the_end_exhausts_the_cursor() {
        let r = long_record(200);
        let bytes = r.encode();
        let (mut cursor, ..) = PostingsCursor::open(&bytes).unwrap();
        let summary = cursor.seek(u32::MAX);
        assert_eq!(summary.postings_skipped, 200);
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn next_doc_tf_matches_next() {
        let r = long_record(260);
        let bytes = r.encode();
        let (mut full, ..) = PostingsCursor::open(&bytes).unwrap();
        let (mut slim, ..) = PostingsCursor::open(&bytes).unwrap();
        while let Some(p) = full.next() {
            assert_eq!(slim.next_doc_tf(), Some((p.doc, p.tf)));
        }
        assert_eq!(slim.next_doc_tf(), None);
    }

    #[test]
    fn corrupt_skip_directories_are_rejected() {
        let r = long_record(200);
        let bytes = r.encode();
        assert!(InvertedRecord::decode(&bytes).is_some());
        // Truncation anywhere in the record must fail, not panic.
        for cut in [1usize, 3, 5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(InvertedRecord::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // Flipping any single byte must never produce a decode that
        // disagrees with the framing (decode may still fail or succeed,
        // but must not panic) — directory fields are covered explicitly.
        for i in 0..bytes.len().min(64) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            let _ = InvertedRecord::decode(&bad); // must not panic
        }
    }

    /// One v1 posting: doc gap, tf, position gaps.
    fn encode_posting(p: &Posting, first: &mut bool, prev_doc: &mut u32, out: &mut Vec<u8>) {
        encode_vbyte(if *first { p.doc.0 } else { p.doc.0 - *prev_doc }, out);
        *first = false;
        *prev_doc = p.doc.0;
        encode_vbyte(p.tf, out);
        encode_positions(&p.positions, out);
    }

    /// The all-vbyte blocked layout no writer emits: the input of the
    /// rejection test and the size baseline the packed layout must beat.
    fn encode_v1_blocked(r: &InvertedRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_vbyte(r.df(), &mut out);
        encode_vbyte(r.cf.min(u32::MAX as u64) as u32, &mut out);
        encode_vbyte(r.max_tf, &mut out);
        let mut body = Vec::new();
        let mut directory = Vec::new();
        let mut prev_doc = 0u32;
        let mut first = true;
        for chunk in r.postings.chunks(BLOCK_SIZE as usize) {
            let start = body.len();
            let mut block_max_tf = 0u32;
            for p in chunk {
                encode_posting(p, &mut first, &mut prev_doc, &mut body);
                block_max_tf = block_max_tf.max(p.tf);
            }
            directory.push((chunk[chunk.len() - 1].doc.0, body.len() - start, block_max_tf));
        }
        let mut prev_last = 0u32;
        for (i, &(last_doc, len, block_max_tf)) in directory.iter().enumerate() {
            encode_vbyte(if i == 0 { last_doc } else { last_doc - prev_last }, &mut out);
            prev_last = last_doc;
            encode_vbyte(len as u32, &mut out);
            encode_vbyte(block_max_tf, &mut out);
        }
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn large_cf_round_trips_full_width() {
        // Regression: encode used to clamp cf to u32::MAX silently.
        let mut r = sample();
        r.cf = 5_000_000_000; // > u32::MAX
        let bytes = r.encode();
        assert_eq!(InvertedRecord::decode(&bytes), Some(r.clone()));
        let (df, cf, max_tf) = InvertedRecord::decode_header(&bytes).unwrap();
        assert_eq!((df, cf, max_tf), (3, 5_000_000_000, 3));
        let (_, cdf, ccf, _) = BlockCursor::open(&bytes).unwrap();
        assert_eq!((cdf, ccf), (3, 5_000_000_000));
        // And through a blocked record, at the far end of the range.
        let mut long = long_record(300);
        long.cf = u64::MAX;
        let bytes = long.encode();
        assert_eq!(InvertedRecord::decode(&bytes), Some(long));
    }

    #[test]
    fn v1_header_on_a_blocked_record_is_rejected() {
        // A v1 header with df > BLOCK_SIZE is corrupt input to both entry
        // points, whatever follows it: a well-formed v1 blocked body, an
        // unblocked v1 posting stream of that length, or nothing.
        for df in [BLOCK_SIZE + 1, 300] {
            let r = long_record(df);
            let v1 = encode_v1_blocked(&r);
            assert_ne!(v1, r.encode(), "the encoder writes v2 blocks");
            assert_eq!(InvertedRecord::decode_header(&v1), Some((df, r.cf, r.max_tf)));
            let mut header = Vec::new();
            for field in [df, r.cf as u32, r.max_tf] {
                encode_vbyte(field, &mut header);
            }
            let mut unblocked = header.clone();
            let (mut first, mut prev_doc) = (true, 0u32);
            for p in &r.postings {
                encode_posting(p, &mut first, &mut prev_doc, &mut unblocked);
            }
            for bytes in [&v1, &unblocked, &header] {
                assert_eq!(InvertedRecord::decode(bytes), None, "df {df}");
                assert!(BlockCursor::open(bytes).is_none(), "df {df}");
            }
        }
    }

    #[test]
    fn v2_blocked_records_carry_the_version_sentinel() {
        let bytes = long_record(300).encode();
        assert_eq!(bytes[0], 0x80, "vbyte 0 sentinel");
        assert_eq!(bytes[1], 0x82, "format version 2");
        let (mut cur, ..) = BlockCursor::open(&bytes).unwrap();
        for b in cur.blocks() {
            assert!(b.doc_width >= 1 && b.doc_width <= 32);
            assert!(b.tf_width <= 32);
        }
        while cur.next_doc_tf(&bytes).is_some() {}
        assert_eq!(cur.blocks_bitpacked(), 3);
        assert!(cur.bytes_decoded() > 0);
    }

    #[test]
    fn packed_blocks_beat_the_vbyte_layout_on_size() {
        let r = long_record(1000);
        assert!(
            r.encode().len() < encode_v1_blocked(&r).len(),
            "bit-packed blocks must not bloat dense records"
        );
    }

    #[test]
    fn mixed_next_and_next_doc_tf_stay_consistent() {
        // Interleaving position-reading and position-skipping consumption
        // exercises the packed cursor's lazy position fast-forward.
        let r = long_record(300);
        let bytes = r.encode();
        let (mut cur, ..) = BlockCursor::open(&bytes).unwrap();
        for (i, p) in r.postings.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(cur.next(&bytes).as_ref(), Some(p), "posting {i}");
            } else {
                assert_eq!(cur.next_doc_tf(&bytes), Some((p.doc, p.tf)), "posting {i}");
            }
        }
        assert_eq!(cur.next(&bytes), None);
    }

    /// What the update path produced before splicing: decode, modify, encode.
    fn recode_append(bytes: &[u8], doc: u32, positions: &[u32]) -> Vec<u8> {
        let mut r = InvertedRecord::decode(bytes).unwrap();
        let tf = positions.len() as u32;
        r.cf += tf as u64;
        r.max_tf = r.max_tf.max(tf);
        r.postings.push(Posting { doc: DocId(doc), tf, positions: positions.to_vec() });
        r.encode()
    }

    #[test]
    fn empty_record_constant_is_the_encoding_of_no_postings() {
        assert_eq!(InvertedRecord::default().encode(), EMPTY_RECORD);
        let mut out = Vec::new();
        splice_append(EMPTY_RECORD, DocId(9), &[4, 6], &mut out).unwrap();
        assert_eq!(out, recode_append(EMPTY_RECORD, 9, &[4, 6]));
    }

    #[test]
    fn appends_match_recode_across_every_layout_transition() {
        // Grow one list from empty past three blocks: v1, the 128 -> 129
        // re-pack, partial and full last blocks, new blocks.
        let mut bytes = EMPTY_RECORD.to_vec();
        let mut out = Vec::new();
        for d in 0..400u32 {
            let positions: Vec<u32> = (0..1 + d % 3).map(|j| j * 9 + d % 7).collect();
            let doc = d * 5 + 1;
            splice_append(&bytes, DocId(doc), &positions, &mut out).unwrap();
            assert_eq!(out, recode_append(&bytes, doc, &positions), "append #{d}");
            std::mem::swap(&mut bytes, &mut out);
        }
        assert_eq!(InvertedRecord::decode(&bytes).unwrap().df(), 400);
        // Out of order, empty or descending positions: refused.
        assert!(splice_append(&bytes, DocId(3), &[1], &mut out).is_none());
        assert!(splice_append(&bytes, DocId(10_000), &[], &mut out).is_none());
        assert!(splice_append(&bytes, DocId(10_000), &[5, 2], &mut out).is_none());
    }

    #[test]
    fn removals_match_recode_and_shrink_back_to_v1() {
        let mut bytes = long_record(300).encode();
        let mut out = Vec::new();
        // Remove from the middle, the head and the tail until one remains.
        let mut docs: Vec<u32> = (0..300).map(|d| d * 7 + 3).collect();
        while docs.len() > 1 {
            let i = [docs.len() / 2, 0, docs.len() - 1][docs.len() % 3];
            let doc = docs.remove(i);
            let mut r = InvertedRecord::decode(&bytes).unwrap();
            let removed = r.postings.remove(i);
            r.cf -= removed.tf as u64;
            r.max_tf = r.postings.iter().map(|p| p.tf).max().unwrap_or(0);
            assert_eq!(splice_remove(&bytes, DocId(doc), &mut out), Some(Some(removed.tf)));
            assert_eq!(out, r.encode(), "remove doc {doc} at df {}", docs.len() + 1);
            std::mem::swap(&mut bytes, &mut out);
        }
        assert_eq!(splice_remove(&bytes, DocId(4), &mut out), Some(None), "absent doc");
    }

    #[test]
    fn splices_reject_truncated_records() {
        for df in [3u32, 128, 129, 300] {
            let bytes = long_record(df).encode();
            let mut out = Vec::new();
            for cut in 0..bytes.len() {
                let t = &bytes[..cut];
                assert_eq!(splice_append(t, DocId(u32::MAX), &[1], &mut out), None, "{df} {cut}");
                assert_eq!(splice_remove(t, DocId(3), &mut out), None, "{df} {cut}");
            }
        }
    }

    #[test]
    fn compression_beats_raw_integers() {
        // A dense 1000-document list: compressed size must be well under
        // the raw u32 representation (the paper reports ~60% compression).
        let postings: Vec<Posting> = (0..1000)
            .map(|d| Posting { doc: DocId(d * 3), tf: 1, positions: vec![d % 200] })
            .collect();
        let r = InvertedRecord::from_postings(postings);
        let encoded = r.encode();
        let raw = 1000 * 3 * 4; // doc, tf, position as raw u32s
        assert!((encoded.len() as f64) < raw as f64 * 0.45, "{} vs raw {raw}", encoded.len());
    }
}
