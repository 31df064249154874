//! Object location: compact multi-level hash tables over logical segments.
//!
//! "Mneme locates objects based on their logical segments using compact
//! multi-level hash tables. This lookup mechanism requires slightly more
//! computation, but the reduced table size allows the auxiliary tables to
//! remain permanently cached after their first access." (Section 4.3)
//!
//! Level one is a fixed directory of buckets (held in the file header
//! region); level two is one serialized bucket per directory entry, holding
//! the entries of every logical segment that hashes to it. The file layer
//! reads a bucket the first time any of its logical segments is touched and
//! keeps it in memory for the life of the file — the paper's "permanently
//! cached" behaviour (about 512 Kbytes total for TIPSTER).
//!
//! A logical segment's entry maps slots to physical segments with a run
//! list: run *(s, addr)* says "slots ≥ s (until the next run) live in the
//! segment at *addr*". Sequential id allocation makes runs short — one run
//! per physical segment that holds part of the logical segment. Objects
//! relocated by updates are recorded as per-slot exceptions.

use std::collections::HashMap;

use crate::error::{MnemeError, Result};
use crate::id::{LogicalSegment, PoolId};
use crate::segment::SegmentAddr;

/// Location information for one logical segment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LsegEntry {
    /// The pool whose objects populate this logical segment.
    pub pool: PoolId,
    /// `(first_slot, segment)` runs, sorted by `first_slot`.
    runs: Vec<(u8, SegmentAddr)>,
    /// Relocated slots overriding the runs, sorted by slot.
    exceptions: Vec<(u8, SegmentAddr)>,
}

impl LsegEntry {
    /// Creates an empty entry for objects of `pool`.
    pub fn new(pool: PoolId) -> Self {
        LsegEntry { pool, runs: Vec::new(), exceptions: Vec::new() }
    }

    /// The physical segment holding `slot`, if any.
    pub fn segment_for(&self, slot: u8) -> Option<SegmentAddr> {
        if let Ok(i) = self.exceptions.binary_search_by_key(&slot, |e| e.0) {
            return Some(self.exceptions[i].1);
        }
        match self.runs.binary_search_by_key(&slot, |r| r.0) {
            Ok(i) => Some(self.runs[i].1),
            Err(0) => None,
            Err(i) => Some(self.runs[i - 1].1),
        }
    }

    /// Registers that slots from `first_slot` onward live in `addr`.
    ///
    /// Runs must be appended in ascending slot order (the allocation order).
    pub fn push_run(&mut self, first_slot: u8, addr: SegmentAddr) {
        if let Some(&(last_slot, last_addr)) = self.runs.last() {
            assert!(first_slot > last_slot, "runs must be appended in slot order");
            if last_addr == addr {
                return; // same segment continues; no new run needed
            }
        }
        self.runs.push((first_slot, addr));
    }

    /// Records that `slot` was relocated to `addr` (or updates an existing
    /// relocation).
    pub fn set_exception(&mut self, slot: u8, addr: SegmentAddr) {
        match self.exceptions.binary_search_by_key(&slot, |e| e.0) {
            Ok(i) => self.exceptions[i].1 = addr,
            Err(i) => self.exceptions.insert(i, (slot, addr)),
        }
    }

    /// Every distinct physical segment referenced by this entry.
    pub fn segments(&self) -> Vec<SegmentAddr> {
        let mut out: Vec<SegmentAddr> =
            self.runs.iter().chain(self.exceptions.iter()).map(|&(_, a)| a).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the entry references no physical segments.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.exceptions.is_empty()
    }

    /// The `(first_slot, segment)` runs, in slot order. The first slot of a
    /// run is always an allocated object (runs are pushed at creation).
    pub fn runs(&self) -> &[(u8, SegmentAddr)] {
        &self.runs
    }

    /// The per-slot relocation exceptions, in slot order.
    pub fn exceptions(&self) -> &[(u8, SegmentAddr)] {
        &self.exceptions
    }

    fn encoded_len(&self) -> usize {
        4 + 1 + 2 + 2 + (self.runs.len() + self.exceptions.len()) * 13
    }

    fn encode(&self, lseg: u32, out: &mut Vec<u8>) {
        out.extend_from_slice(&lseg.to_le_bytes());
        out.push(self.pool.0);
        out.extend_from_slice(&(self.runs.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.exceptions.len() as u16).to_le_bytes());
        for &(slot, addr) in self.runs.iter().chain(self.exceptions.iter()) {
            out.push(slot);
            out.extend_from_slice(&addr.offset.to_le_bytes());
            out.extend_from_slice(&addr.len.to_le_bytes());
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<(u32, LsegEntry)> {
        let need = |pos: usize, n: usize, len: usize| -> Result<()> {
            if pos + n > len {
                Err(MnemeError::Corrupt("truncated location bucket".into()))
            } else {
                Ok(())
            }
        };
        need(*pos, 9, buf.len())?;
        let lseg = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap());
        let pool = PoolId(buf[*pos + 4]);
        let n_runs = u16::from_le_bytes(buf[*pos + 5..*pos + 7].try_into().unwrap()) as usize;
        let n_exc = u16::from_le_bytes(buf[*pos + 7..*pos + 9].try_into().unwrap()) as usize;
        *pos += 9;
        need(*pos, (n_runs + n_exc) * 13, buf.len())?;
        let read_list = |n: usize, pos: &mut usize| {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let slot = buf[*pos];
                let offset = u64::from_le_bytes(buf[*pos + 1..*pos + 9].try_into().unwrap());
                let len = u32::from_le_bytes(buf[*pos + 9..*pos + 13].try_into().unwrap());
                v.push((slot, SegmentAddr { offset, len }));
                *pos += 13;
            }
            v
        };
        let runs = read_list(n_runs, pos);
        let exceptions = read_list(n_exc, pos);
        Ok((lseg, LsegEntry { pool, runs, exceptions }))
    }
}

/// State of one directory bucket.
#[derive(Debug, Clone)]
enum BucketState {
    /// Present on disk but not yet read.
    Unloaded,
    /// Resident; will stay resident for the life of the file.
    Loaded(HashMap<u32, LsegEntry>),
}

/// The in-memory face of the multi-level location tables.
#[derive(Debug)]
pub struct LocationTable {
    buckets: Vec<BucketState>,
}

impl LocationTable {
    /// Table for a freshly created file: every bucket exists and is empty.
    pub fn new_empty(num_buckets: u32) -> Self {
        assert!(num_buckets > 0);
        LocationTable {
            buckets: (0..num_buckets).map(|_| BucketState::Loaded(HashMap::new())).collect(),
        }
    }

    /// Table for a reopened file: buckets load lazily on first touch.
    pub fn new_unloaded(num_buckets: u32) -> Self {
        assert!(num_buckets > 0);
        LocationTable { buckets: (0..num_buckets).map(|_| BucketState::Unloaded).collect() }
    }

    /// Number of directory buckets.
    pub fn num_buckets(&self) -> u32 {
        self.buckets.len() as u32
    }

    /// Directory hash: which bucket holds `lseg`.
    pub fn bucket_of(&self, lseg: LogicalSegment) -> u32 {
        lseg.0 % self.num_buckets()
    }

    /// Whether the bucket is resident.
    pub fn is_loaded(&self, bucket: u32) -> bool {
        matches!(self.buckets[bucket as usize], BucketState::Loaded(_))
    }

    /// Installs a bucket read from disk.
    pub fn load_bucket(&mut self, bucket: u32, bytes: &[u8]) -> Result<()> {
        let mut map = HashMap::new();
        if bytes.len() < 4 {
            return Err(MnemeError::Corrupt("location bucket shorter than header".into()));
        }
        let count = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let mut pos = 4;
        for _ in 0..count {
            let (lseg, entry) = LsegEntry::decode(bytes, &mut pos)?;
            map.insert(lseg, entry);
        }
        self.buckets[bucket as usize] = BucketState::Loaded(map);
        Ok(())
    }

    /// Serializes a (loaded) bucket for writing to disk.
    ///
    /// # Panics
    /// Panics if the bucket is not loaded — the file layer loads every
    /// bucket before flushing the tables.
    pub fn serialize_bucket(&self, bucket: u32) -> Vec<u8> {
        let BucketState::Loaded(map) = &self.buckets[bucket as usize] else {
            panic!("bucket {bucket} not loaded");
        };
        let mut entries: Vec<(&u32, &LsegEntry)> = map.iter().collect();
        entries.sort_by_key(|(lseg, _)| **lseg);
        let mut out =
            Vec::with_capacity(4 + entries.iter().map(|(_, e)| e.encoded_len()).sum::<usize>());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (lseg, entry) in entries {
            entry.encode(*lseg, &mut out);
        }
        out
    }

    /// Read access to an entry. The bucket must already be loaded.
    pub fn entry(&self, lseg: LogicalSegment) -> Result<Option<&LsegEntry>> {
        match &self.buckets[self.bucket_of(lseg) as usize] {
            BucketState::Loaded(map) => Ok(map.get(&lseg.0)),
            BucketState::Unloaded => {
                Err(MnemeError::Corrupt(format!("bucket for lseg {} not loaded", lseg.0)))
            }
        }
    }

    /// Mutable access to an entry, creating it (for `pool`) if absent.
    /// The bucket must already be loaded.
    pub fn entry_mut(&mut self, lseg: LogicalSegment, pool: PoolId) -> Result<&mut LsegEntry> {
        let bucket = self.bucket_of(lseg) as usize;
        match &mut self.buckets[bucket] {
            BucketState::Loaded(map) => {
                Ok(map.entry(lseg.0).or_insert_with(|| LsegEntry::new(pool)))
            }
            BucketState::Unloaded => {
                Err(MnemeError::Corrupt(format!("bucket for lseg {} not loaded", lseg.0)))
            }
        }
    }

    /// All logical segments recorded in loaded buckets.
    pub fn loaded_lsegs(&self) -> Vec<LogicalSegment> {
        let mut out = Vec::new();
        for b in &self.buckets {
            if let BucketState::Loaded(map) = b {
                out.extend(map.keys().map(|&l| LogicalSegment(l)));
            }
        }
        out.sort_unstable();
        out
    }

    /// Indices of buckets not yet resident.
    pub fn unloaded_buckets(&self) -> Vec<u32> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b, BucketState::Unloaded))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(offset: u64) -> SegmentAddr {
        SegmentAddr { offset, len: 4096 }
    }

    #[test]
    fn runs_resolve_slots() {
        let mut e = LsegEntry::new(PoolId(1));
        e.push_run(0, addr(100));
        e.push_run(40, addr(200));
        e.push_run(200, addr(300));
        assert_eq!(e.segment_for(0), Some(addr(100)));
        assert_eq!(e.segment_for(39), Some(addr(100)));
        assert_eq!(e.segment_for(40), Some(addr(200)));
        assert_eq!(e.segment_for(199), Some(addr(200)));
        assert_eq!(e.segment_for(254), Some(addr(300)));
        assert_eq!(e.segments().len(), 3);
    }

    #[test]
    fn empty_entry_resolves_nothing() {
        let e = LsegEntry::new(PoolId(0));
        assert!(e.is_empty());
        assert_eq!(e.segment_for(0), None);
        assert_eq!(e.segment_for(254), None);
    }

    #[test]
    fn run_starting_past_slot_resolves_none() {
        let mut e = LsegEntry::new(PoolId(0));
        e.push_run(10, addr(1));
        assert_eq!(e.segment_for(9), None);
        assert_eq!(e.segment_for(10), Some(addr(1)));
    }

    #[test]
    fn duplicate_consecutive_segment_is_coalesced() {
        let mut e = LsegEntry::new(PoolId(0));
        e.push_run(0, addr(1));
        e.push_run(100, addr(1)); // same segment: coalesced
        assert_eq!(e.segments().len(), 1);
        e.push_run(150, addr(2));
        assert_eq!(e.segments().len(), 2);
    }

    #[test]
    fn exceptions_override_runs() {
        let mut e = LsegEntry::new(PoolId(2));
        e.push_run(0, addr(1));
        e.set_exception(7, addr(9));
        assert_eq!(e.segment_for(7), Some(addr(9)));
        assert_eq!(e.segment_for(6), Some(addr(1)));
        e.set_exception(7, addr(11)); // update existing
        assert_eq!(e.segment_for(7), Some(addr(11)));
    }

    #[test]
    fn bucket_serialization_round_trips() {
        let mut t = LocationTable::new_empty(4);
        for lseg in [0u32, 4, 8, 1, 5] {
            let entry = t.entry_mut(LogicalSegment(lseg), PoolId((lseg % 3) as u8)).unwrap();
            entry.push_run(0, addr(lseg as u64 * 1000));
            if lseg % 2 == 0 {
                entry.set_exception(3, addr(77));
            }
        }
        // Buckets 0 and 1 have entries; round-trip each into a fresh table.
        let mut t2 = LocationTable::new_unloaded(4);
        for b in 0..4 {
            let bytes = t.serialize_bucket(b);
            t2.load_bucket(b, &bytes).unwrap();
        }
        for lseg in [0u32, 4, 8, 1, 5] {
            assert_eq!(
                t2.entry(LogicalSegment(lseg)).unwrap(),
                t.entry(LogicalSegment(lseg)).unwrap(),
                "lseg {lseg} mismatch"
            );
        }
        assert_eq!(t2.loaded_lsegs(), t.loaded_lsegs());
    }

    #[test]
    fn unloaded_bucket_access_is_an_error() {
        let t = LocationTable::new_unloaded(2);
        assert!(t.entry(LogicalSegment(0)).is_err());
        assert_eq!(t.unloaded_buckets(), vec![0, 1]);
        assert!(!t.is_loaded(0));
    }

    #[test]
    fn corrupt_buckets_are_rejected() {
        let mut t = LocationTable::new_unloaded(1);
        assert!(t.load_bucket(0, &[]).is_err());
        // Declares 1 entry but provides none.
        assert!(t.load_bucket(0, &1u32.to_le_bytes()).is_err());
        // Declares runs it does not contain.
        let mut bad = 1u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&7u32.to_le_bytes()); // lseg
        bad.push(0); // pool
        bad.extend_from_slice(&5u16.to_le_bytes()); // 5 runs
        bad.extend_from_slice(&0u16.to_le_bytes());
        assert!(t.load_bucket(0, &bad).is_err());
    }

    #[test]
    fn empty_bucket_round_trips() {
        let t = LocationTable::new_empty(1);
        let bytes = t.serialize_bucket(0);
        let mut t2 = LocationTable::new_unloaded(1);
        t2.load_bucket(0, &bytes).unwrap();
        assert!(t2.loaded_lsegs().is_empty());
    }

    #[test]
    #[should_panic(expected = "runs must be appended in slot order")]
    fn out_of_order_runs_panic() {
        let mut e = LsegEntry::new(PoolId(0));
        e.push_run(10, addr(1));
        e.push_run(5, addr(2));
    }
}
