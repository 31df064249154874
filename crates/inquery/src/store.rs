//! The inverted-file store abstraction.
//!
//! INQUERY's query processor only needs one operation from its index
//! subsystem: fetch the complete record for a term ("it reads the complete
//! record for one term, and merges the evidence", Section 3.1). The
//! [`InvertedFileStore`] trait captures exactly that boundary — the
//! subsystem the paper swaps between a custom B-tree package and the Mneme
//! persistent object store (both implementations live in `poir-core`).
//!
//! The store is addressed by the opaque `store_ref` each backend deposited
//! in the hash dictionary at index-build time (Section 3.3).

use std::sync::Arc;

use poir_storage::RecordBytes;

use crate::error::Result;

/// A pluggable inverted-file backend.
pub trait InvertedFileStore {
    /// Fetches the encoded inverted record behind `store_ref`.
    fn fetch(&mut self, store_ref: u64) -> Result<RecordBytes>;

    /// Fetches many records at once, one result per reference, by looping
    /// over [`InvertedFileStore::fetch`] (so each reference counts as a
    /// record lookup).
    ///
    /// No backend overrides it and no evaluation path calls it; it stays
    /// only because the repo benchmark's store wrapper implements it.
    fn fetch_batch(&mut self, store_refs: &[u64]) -> Vec<Result<RecordBytes>> {
        store_refs.iter().map(|&r| self.fetch(r)).collect()
    }

    /// Advisory prefetch hook; does nothing.
    ///
    /// No backend overrides it and no evaluation path calls it; it stays
    /// only because the repo benchmark's store wrapper implements it.
    fn prefetch(&mut self, _store_refs: &[u64]) {}

    /// Fetches part of the record behind `store_ref`: `len` bytes starting
    /// at byte `start`. Returns fewer bytes when the record ends before
    /// `start + len`; backends may also return *more* than requested (up
    /// to the whole record) when a partial read is not cheaper. Backends
    /// overriding this count a call with `start == 0` as a record lookup
    /// and continuation calls (`start > 0`) as none, keeping the "A"
    /// statistic's denominator comparable with whole-record fetching.
    ///
    /// The default implementation fetches the whole record and slices it,
    /// which is never cheaper — callers should consult
    /// [`InvertedFileStore::supports_range_read`] before choosing the
    /// range protocol over [`InvertedFileStore::fetch`].
    fn fetch_range(&mut self, store_ref: u64, start: u64, len: usize) -> Result<RecordBytes> {
        let bytes = self.fetch(store_ref)?;
        if start == 0 && len >= bytes.len() {
            return Ok(bytes);
        }
        let from = (start.min(bytes.len() as u64)) as usize;
        let to = from.saturating_add(len).min(bytes.len());
        Ok(bytes.slice(from, to))
    }

    /// Whether [`InvertedFileStore::fetch_range`] can serve a byte range
    /// with less device I/O than a whole-record fetch for at least some
    /// records. `false` (the default) means the range protocol degrades
    /// to whole-record fetches and callers should not bother.
    fn supports_range_read(&self) -> bool {
        false
    }

    /// A free (no-I/O) upper bound on the record's encoded length, when the
    /// backend can answer from in-memory metadata — the Mneme store reads
    /// it off a huge-pool object's segment address. `None` (the default)
    /// means the length is unknown without fetching; callers deciding
    /// between whole-record and range fetching must then probe.
    fn record_len_hint(&self, _store_ref: u64) -> Option<u64> {
        None
    }

    /// Pre-evaluation reservation pass: pin whatever is already resident
    /// for the given references (Section 3.3's query-tree scan). The
    /// default implementation does nothing.
    fn reserve(&mut self, _store_refs: &[u64]) {}

    /// Releases reservations placed by [`InvertedFileStore::reserve`].
    fn release_reservations(&mut self) {}

    /// The decoded-block cache this backend maintains, if any. Evaluators
    /// attach it to every packed cursor they open so re-referenced blocks
    /// skip bit-unpacking. `None` (the default) disables tier 2 entirely.
    fn decoded_block_cache(&self) -> Option<Arc<crate::block_cache::BlockCache>> {
        None
    }

    /// The cache-invalidation epoch for this backend's records: any
    /// mutation that can change record bytes must move it to a value never
    /// used before. Backends sharing one [`crate::BlockCache`] must also
    /// disambiguate themselves within it (the Mneme store folds a
    /// process-unique store id into the high bits). Meaningless unless
    /// [`InvertedFileStore::decoded_block_cache`] returns `Some`.
    fn store_epoch(&self) -> u64 {
        0
    }

    /// Number of record fetches served so far (the denominator of the
    /// paper's "A" statistic).
    fn record_lookups(&self) -> u64;
}

/// A trivial memory-resident store, used by unit tests and as the indexing
/// staging area. Records sit behind `Arc`s so fetches are zero-copy shared
/// slices, exactly like a cache-hit on the Mneme backend.
#[derive(Debug, Default)]
pub struct MemoryStore {
    records: Vec<Arc<Vec<u8>>>,
    lookups: u64,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a record, returning the reference to hand to the dictionary.
    pub fn add(&mut self, record: Vec<u8>) -> u64 {
        self.records.push(Arc::new(record));
        (self.records.len() - 1) as u64
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl InvertedFileStore for MemoryStore {
    fn fetch(&mut self, store_ref: u64) -> Result<RecordBytes> {
        self.lookups += 1;
        self.records
            .get(store_ref as usize)
            .map(|rec| RecordBytes::from(Arc::clone(rec)))
            .ok_or_else(|| {
                crate::error::InqueryError::BadRecord(format!("no record at reference {store_ref}"))
            })
    }

    fn record_lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_round_trips() {
        let mut s = MemoryStore::new();
        let a = s.add(vec![1, 2, 3]);
        let b = s.add(vec![4]);
        assert_eq!(s.fetch(a).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.fetch(b).unwrap(), vec![4]);
        assert_eq!(s.record_lookups(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn missing_reference_is_an_error() {
        let mut s = MemoryStore::new();
        assert!(s.fetch(0).is_err());
        assert_eq!(s.record_lookups(), 1, "failed fetches still count as lookups");
    }

    #[test]
    fn default_reservation_hooks_are_noops() {
        let mut s = MemoryStore::new();
        s.reserve(&[1, 2, 3]);
        s.prefetch(&[1, 2, 3]);
        s.release_reservations();
        assert!(s.is_empty());
        assert_eq!(s.record_lookups(), 0, "prefetch must not count lookups");
    }

    #[test]
    fn default_fetch_batch_matches_fetch() {
        let mut s = MemoryStore::new();
        let a = s.add(vec![1, 2, 3]);
        let b = s.add(vec![4]);
        let results = s.fetch_batch(&[b, a, 99]);
        assert_eq!(results[0].as_ref().unwrap(), &vec![4]);
        assert_eq!(results[1].as_ref().unwrap(), &vec![1, 2, 3]);
        assert!(results[2].is_err());
        assert_eq!(s.record_lookups(), 3, "default batch counts every reference");
    }

    #[test]
    fn memory_fetches_share_rather_than_copy() {
        let mut s = MemoryStore::new();
        let r = s.add(vec![7u8; 64]);
        let a = s.fetch(r).unwrap();
        let b = s.fetch(r).unwrap();
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(
            a.as_slice().as_ptr(),
            b.as_slice().as_ptr(),
            "both fetches must view the same backing buffer"
        );
    }

    #[test]
    fn record_bytes_slicing_is_zero_copy() {
        let shared = RecordBytes::from(Arc::new(vec![0u8, 1, 2, 3, 4, 5, 6, 7]));
        let base = shared.as_slice().as_ptr();
        let mid = shared.slice(2, 6);
        assert_eq!(mid, [2u8, 3, 4, 5]);
        assert_eq!(mid.as_slice().as_ptr(), unsafe { base.add(2) });
        // Clamped out-of-range slicing never panics.
        let tail = mid.slice(3, 99);
        assert_eq!(tail, [5u8]);
        let owned = RecordBytes::Owned(vec![9u8, 8, 7]).slice(1, 2);
        assert_eq!(owned, [8u8]);
    }

    #[test]
    fn record_bytes_into_vec_and_cow() {
        // Sole holder of a whole buffer: into_vec reclaims without copying.
        let v = RecordBytes::from(Arc::new(vec![1u8, 2, 3])).into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        // A second holder forces the copy.
        let arc = Arc::new(vec![4u8, 5]);
        let held = Arc::clone(&arc);
        assert_eq!(RecordBytes::from(arc).into_vec(), vec![4, 5]);
        assert_eq!(*held, vec![4, 5], "original buffer is untouched");
        // to_mut converts shared to owned in place and allows mutation.
        let mut rb = RecordBytes::shared(held, 0, 2);
        rb.to_mut().push(6);
        assert!(!rb.is_shared());
        assert_eq!(rb, [4u8, 5, 6]);
    }
}
