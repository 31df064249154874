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
        let df = self.postings.len() as u32;
        let mut out = Vec::with_capacity(8 + self.postings.len() * 4);
        if df <= BLOCK_SIZE && self.cf <= u32::MAX as u64 {
            encode_vbyte(df, &mut out);
            encode_vbyte(self.cf as u32, &mut out);
            encode_vbyte(self.max_tf, &mut out);
            let mut prev_doc = 0u32;
            let mut first = true;
            for p in &self.postings {
                encode_posting(p, &mut first, &mut prev_doc, &mut out);
            }
            return out;
        }
        encode_v2_header(df, self.cf, self.max_tf, &mut out);
        if df <= BLOCK_SIZE {
            // An over-u32 cf on a short list: extended header, v1 postings.
            let mut prev_doc = 0u32;
            let mut first = true;
            for p in &self.postings {
                encode_posting(p, &mut first, &mut prev_doc, &mut out);
            }
            return out;
        }
        // Blocked layout: pack the posting body first to learn each
        // block's byte length and widths, then emit the directory ahead.
        let mut body = Vec::with_capacity(self.postings.len() * 4);
        let mut directory = Vec::with_capacity(self.postings.len().div_ceil(BLOCK_SIZE as usize));
        let mut gaps = Vec::with_capacity(BLOCK_SIZE as usize);
        let mut tfs_m1 = Vec::with_capacity(BLOCK_SIZE as usize);
        let mut pos_stream = Vec::new();
        let mut prev_doc = 0u32;
        let mut first = true;
        for chunk in self.postings.chunks(BLOCK_SIZE as usize) {
            gaps.clear();
            tfs_m1.clear();
            pos_stream.clear();
            let mut block_max_tf = 0u32;
            for p in chunk {
                gaps.push(if first { p.doc.0 } else { p.doc.0 - prev_doc });
                first = false;
                prev_doc = p.doc.0;
                debug_assert!(p.tf >= 1, "v2 blocks store tf-1; every posting needs tf >= 1");
                tfs_m1.push(p.tf.saturating_sub(1));
                block_max_tf = block_max_tf.max(p.tf);
                debug_assert_eq!(p.positions.len(), p.tf as usize);
                let mut prev_pos = 0u32;
                for (j, &q) in p.positions.iter().enumerate() {
                    encode_vbyte(if j == 0 { q } else { q - prev_pos }, &mut pos_stream);
                    prev_pos = q;
                }
            }
            let start = body.len();
            let (doc_width, tf_width) = pack_block(&gaps, &tfs_m1, &pos_stream, &mut body);
            directory.push((
                chunk[chunk.len() - 1].doc.0,
                body.len() - start,
                block_max_tf,
                doc_width,
                tf_width,
            ));
        }
        encode_v2_directory(&directory, &mut out);
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a record written by [`InvertedRecord::encode`] (either
    /// format version).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let (df, cf, max_tf, _) = parse_header(bytes, &mut pos)?;
        // Untrusted input: a posting costs at least 3 bytes in v1 and at
        // least one position byte in v2, so a declared df larger than the
        // record is corrupt — and pre-allocation must never trust the raw
        // value.
        if (df as usize) > bytes.len() {
            return None;
        }
        if df > BLOCK_SIZE {
            // Only v2 writes blocked records; the cursor behind
            // `decode_packed` rejects a long list under a v1 header.
            return Self::decode_packed(bytes, df, cf, max_tf);
        }
        let mut postings = Vec::with_capacity(df as usize);
        let mut prev_doc = 0u32;
        for i in 0..df {
            let gap = decode_vbyte(bytes, &mut pos)?;
            let doc = if i == 0 { gap } else { prev_doc.checked_add(gap)? };
            prev_doc = doc;
            let tf = decode_vbyte(bytes, &mut pos)?;
            if (tf as usize) > bytes.len() {
                return None;
            }
            let mut positions = Vec::with_capacity(tf as usize);
            let mut prev_pos = 0u32;
            for j in 0..tf {
                let pgap = decode_vbyte(bytes, &mut pos)?;
                let p = if j == 0 { pgap } else { prev_pos.checked_add(pgap)? };
                prev_pos = p;
                positions.push(p);
            }
            postings.push(Posting { doc: DocId(doc), tf, positions });
        }
        if pos != bytes.len() {
            return None; // trailing garbage
        }
        Some(InvertedRecord { cf, max_tf, postings })
    }

    /// Decodes a v2 blocked record by streaming a [`BlockCursor`] over it,
    /// with whole-record strictness the cursor alone does not enforce: the
    /// directory must span exactly the record, and every block's position
    /// stream must end exactly at its block boundary.
    fn decode_packed(bytes: &[u8], df: u32, cf: u64, max_tf: u32) -> Option<Self> {
        let (mut cur, ..) = BlockCursor::open(bytes)?;
        let last = cur.blocks.last()?;
        if last.offset.checked_add(last.len)? != bytes.len() {
            return None;
        }
        let mut postings = Vec::with_capacity(df as usize);
        for i in 0..df {
            postings.push(cur.next(bytes)?);
            let block_boundary = (i + 1) % BLOCK_SIZE == 0 || i + 1 == df;
            if block_boundary && cur.pos_ptr != cur.pos_end {
                return None; // slack bytes inside the block's position region
            }
        }
        Some(InvertedRecord { cf, max_tf, postings })
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

/// Emits the v2 extended header: sentinel 0, version, df, cf split into
/// two vbyte halves (full 64-bit round-trip), max_tf.
pub(crate) fn encode_v2_header(df: u32, cf: u64, max_tf: u32, out: &mut Vec<u8>) {
    encode_vbyte(0, out);
    encode_vbyte(FORMAT_V2, out);
    encode_vbyte(df, out);
    encode_vbyte((cf >> 32) as u32, out);
    encode_vbyte(cf as u32, out);
    encode_vbyte(max_tf, out);
}

/// Emits the v2 skip directory from
/// `(last_doc, len, block_max_tf, doc_width, tf_width)` entries.
pub(crate) fn encode_v2_directory(directory: &[(u32, usize, u32, u32, u32)], out: &mut Vec<u8>) {
    let mut prev_last = 0u32;
    for (i, &(last_doc, len, block_max_tf, doc_width, tf_width)) in directory.iter().enumerate() {
        encode_vbyte(if i == 0 { last_doc } else { last_doc - prev_last }, out);
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
/// [`InvertedRecord::encode`] and the index builder so both emit
/// byte-identical blocks.
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

fn encode_posting(p: &Posting, first: &mut bool, prev_doc: &mut u32, out: &mut Vec<u8>) {
    let gap = if *first { p.doc.0 } else { p.doc.0 - *prev_doc };
    *first = false;
    *prev_doc = p.doc.0;
    encode_vbyte(gap, out);
    encode_vbyte(p.tf, out);
    debug_assert_eq!(p.positions.len(), p.tf as usize);
    let mut prev_pos = 0u32;
    for (j, &pos) in p.positions.iter().enumerate() {
        let pgap = if j == 0 { pos } else { pos - prev_pos };
        prev_pos = pos;
        encode_vbyte(pgap, out);
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
            let mut positions = Vec::with_capacity(tf as usize);
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
            return Some(Posting { doc, tf, positions });
        }
        let start = self.pos;
        let (doc, tf) = self.next_doc_header(bytes)?;
        let mut positions = Vec::with_capacity(tf as usize);
        let mut prev = 0u32;
        for j in 0..tf {
            let pgap = decode_vbyte(bytes, &mut self.pos)?;
            prev = if j == 0 { pgap } else { prev.checked_add(pgap)? };
            positions.push(prev);
        }
        self.bytes_decoded += (self.pos - start) as u64;
        self.remaining -= 1;
        Some(Posting { doc, tf, positions })
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
