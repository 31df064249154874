//! The paper's contribution: inverted records in the Mneme object store.
//!
//! "The Mneme version of the inverted index was created by allocating an
//! object for each inverted list record in the B-tree file. The Mneme
//! identifier assigned to the object was stored in the INQUERY hash
//! dictionary entry for the associated term." (Section 3.3)
//!
//! The three-group partition of Section 3.3:
//!
//! * lists of **≤ 12 bytes** (≈50% of all lists) → the small object pool,
//!   16-byte slots, one whole logical segment per 4 Kbyte physical segment;
//! * lists **larger than 4 Kbytes** → the large object pool, one object per
//!   physical segment;
//! * the rest → the medium object pool, packed into 8 Kbyte segments
//!   (tuned to the disk I/O block size).
//!
//! Each pool attaches to a separate LRU buffer so "the global buffer space
//! \[is\] divided between the object pools based on expected access patterns
//! and memory requirements"; the query processor reserves already-resident
//! objects before evaluation.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use poir_inquery::{BlockCache, Dictionary, InvertedFileStore, RecordBytes, TermId};
use poir_mneme::{BufferPolicy, MnemeFile, ObjectId, PoolConfig, PoolId, PoolKindConfig};
use poir_storage::FileHandle;
use poir_telemetry::{Event, Recorder};

use crate::buffer_sizing::BufferSizes;
use crate::error::{CoreError, Result};

/// Pool id of the small object pool.
pub const SMALL_POOL: PoolId = PoolId(0);
/// Pool id of the medium object pool.
pub const MEDIUM_POOL: PoolId = PoolId(1);
/// Pool id of the large object pool.
pub const LARGE_POOL: PoolId = PoolId(2);

/// Largest record placed in the small pool ("12 bytes or less").
pub const SMALL_MAX: usize = 12;
/// Records strictly larger than this go to the large pool ("larger than
/// 4 Kbytes").
pub const LARGE_MIN: usize = 4096;

/// Build-time options for the Mneme inverted file.
#[derive(Debug, Clone)]
pub struct MnemeOptions {
    /// Medium-pool physical segment size ("based on the disk I/O block
    /// size").
    pub medium_segment: usize,
    /// Location-table directory buckets (0 = derive from record count).
    pub num_buckets: u32,
}

impl Default for MnemeOptions {
    fn default() -> Self {
        MnemeOptions { medium_segment: 8192, num_buckets: 0 }
    }
}

/// Which pool a record of `len` bytes belongs to, with the paper's 4 KB
/// medium/large boundary.
pub fn pool_for(len: usize) -> PoolId {
    pool_for_with(len, LARGE_MIN)
}

/// Which pool a record of `len` bytes belongs to, with an explicit
/// medium/large boundary.
pub fn pool_for_with(len: usize, large_min: usize) -> PoolId {
    if len <= SMALL_MAX {
        SMALL_POOL
    } else if len > large_min {
        LARGE_POOL
    } else {
        MEDIUM_POOL
    }
}

fn pool_configs(medium_segment: usize) -> Vec<PoolConfig> {
    vec![
        PoolConfig { id: SMALL_POOL, kind: PoolKindConfig::Small },
        PoolConfig {
            id: MEDIUM_POOL,
            kind: PoolKindConfig::Packed { segment_size: medium_segment as u32 },
        },
        PoolConfig { id: LARGE_POOL, kind: PoolKindConfig::SegmentPerObject },
    ]
}

/// Allocates process-unique store ids, folded into the high half of the
/// decoded-block-cache epoch so one [`BlockCache`] shared across shard
/// workers never aliases equal object ids from different physical stores.
static STORE_IDS: AtomicU32 = AtomicU32::new(1);

/// The Mneme-backed inverted file.
pub struct MnemeInvertedFile {
    file: MnemeFile,
    /// Record-lookup counter, shared with every [`SharedMnemeView`] so the
    /// "A" statistic aggregates across parallel query threads.
    lookups: AtomicU64,
    largest_record: usize,
    /// Records above this size go to the large pool. Usually [`LARGE_MIN`];
    /// lower when the medium segment is too small to hold 4 KB objects
    /// (segment-size ablations).
    large_min: usize,
    recorder: Recorder,
    /// Tier-2 decoded-block cache, shared with every cursor the evaluators
    /// open against this store (`None` = disabled).
    block_cache: Option<Arc<BlockCache>>,
    /// Local mutation epoch: bumped by every record mutation so cached
    /// decoded blocks from older record versions become unreachable.
    epoch: AtomicU64,
    /// This store's process-unique id (see [`STORE_IDS`]).
    store_id: u32,
}

impl std::fmt::Debug for MnemeInvertedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MnemeInvertedFile")
            .field("lookups", &self.lookups)
            .field("largest_record", &self.largest_record)
            .finish_non_exhaustive()
    }
}

impl MnemeInvertedFile {
    /// Loads the index records into a fresh Mneme file, partitioning them
    /// into the three pools and depositing each object id in the dictionary.
    pub fn build(
        handle: FileHandle,
        options: MnemeOptions,
        records: &[(TermId, Vec<u8>)],
        dict: &mut Dictionary,
    ) -> Result<Self> {
        let num_buckets = if options.num_buckets > 0 {
            options.num_buckets
        } else {
            // Aim for ~64 logical segments per bucket; records/255 lsegs.
            ((records.len() as u32 / 255 / 64) + 1).next_power_of_two().max(16)
        };
        let mut file =
            MnemeFile::create(handle, &pool_configs(options.medium_segment), num_buckets)?;
        // The medium pool cannot hold objects beyond its segment payload;
        // shrink the boundary when an ablation uses tiny segments.
        let large_min = LARGE_MIN.min(options.medium_segment - 28);
        let mut largest = 0usize;
        for (term, bytes) in records {
            largest = largest.max(bytes.len());
            let id = file.create_object(pool_for_with(bytes.len(), large_min), bytes)?;
            dict.entry_mut(*term).store_ref = id.raw() as u64;
        }
        file.flush()?;
        Ok(Self::new(file, largest, large_min))
    }

    fn new(file: MnemeFile, largest_record: usize, large_min: usize) -> Self {
        MnemeInvertedFile {
            file,
            lookups: AtomicU64::new(0),
            largest_record,
            large_min,
            recorder: Recorder::disabled(),
            block_cache: None,
            epoch: AtomicU64::new(0),
            store_id: STORE_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Opens an existing Mneme inverted file. `largest_record` (persisted by
    /// the engine alongside the dictionary) drives buffer sizing.
    pub fn open(handle: FileHandle, largest_record: usize) -> Result<Self> {
        let file = MnemeFile::open(handle)?;
        let large_min =
            file.pool_max_object_len(MEDIUM_POOL)?.map_or(LARGE_MIN, |m| LARGE_MIN.min(m));
        Ok(Self::new(file, largest_record, large_min))
    }

    /// Attaches a telemetry recorder to the store and the underlying Mneme
    /// file (per-pool buffer refs/hits/misses/evictions/reservations).
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.file.attach_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Size in bytes of the collection's largest inverted record.
    pub fn largest_record(&self) -> usize {
        self.largest_record
    }

    /// Attaches per-pool LRU buffers of the given capacities (zeros = the
    /// "Mneme, no cache" configuration).
    pub fn attach_buffers(&mut self, sizes: BufferSizes) -> Result<()> {
        self.attach_buffers_with(sizes, BufferPolicy::Lru)
    }

    /// Attaches per-pool buffers of the given capacities under an explicit
    /// replacement policy (the paper's LRU, clock, or scan-resistant
    /// S3-FIFO).
    pub fn attach_buffers_with(&mut self, sizes: BufferSizes, policy: BufferPolicy) -> Result<()> {
        self.file.attach_buffer(SMALL_POOL, policy.build(sizes.small))?;
        self.file.attach_buffer(MEDIUM_POOL, policy.build(sizes.medium))?;
        self.file.attach_buffer(LARGE_POOL, policy.build(sizes.large))?;
        Ok(())
    }

    /// Attaches a tier-2 decoded-block cache; evaluators pick it up through
    /// [`InvertedFileStore::decoded_block_cache`] on every cursor they
    /// open. One cache may be shared across stores (shard workers): the
    /// store id folded into the epoch keeps their keys disjoint.
    pub fn attach_block_cache(&mut self, cache: Arc<BlockCache>) {
        self.block_cache = Some(cache);
    }

    /// The attached decoded-block cache, if any.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// Records an out-of-band mutation: bumps the store epoch so every
    /// epoch-keyed cache entry (decoded blocks, query results) computed
    /// against the current contents becomes unreachable. The record
    /// mutators call this implicitly; shared-view deployments (the query
    /// service) expose it as their cache-invalidation hook.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-pool buffer reference/hit statistics (Table 6), ordered small,
    /// medium, large.
    pub fn buffer_stats(&self) -> Result<[poir_mneme::BufferStats; 3]> {
        Ok([
            self.file.buffer_stats(SMALL_POOL)?,
            self.file.buffer_stats(MEDIUM_POOL)?,
            self.file.buffer_stats(LARGE_POOL)?,
        ])
    }

    /// Resets the buffer statistics (between query sets).
    pub fn reset_buffer_stats(&self) {
        self.file.reset_buffer_stats();
    }

    /// Total file size in bytes (Table 1's "Mneme Size").
    pub fn file_size(&self) -> Result<u64> {
        Ok(self.file.file_size()?)
    }

    /// Bytes of permanently cached auxiliary (location) tables.
    pub fn aux_table_bytes(&self) -> u64 {
        self.file.aux_table_bytes()
    }

    /// Flushes all dirty state.
    pub fn flush(&mut self) -> Result<()> {
        Ok(self.file.flush()?)
    }

    /// Direct access to the underlying Mneme file (ablations, GC).
    pub fn mneme(&mut self) -> &mut MnemeFile {
        &mut self.file
    }

    fn object_id(store_ref: u64) -> Result<ObjectId> {
        ObjectId::from_raw(store_ref as u32).ok_or(CoreError::DanglingRef(store_ref))
    }

    /// Replaces a record, migrating it between pools when its new size
    /// crosses a pool boundary. Returns the (possibly new) store reference
    /// the dictionary must hold.
    pub fn update_record(&mut self, store_ref: u64, bytes: &[u8]) -> Result<u64> {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let id = Self::object_id(store_ref)?;
        let current = self.file.pool_of(id)?;
        let target = pool_for_with(bytes.len(), self.large_min);
        if current == target {
            self.file.update(id, bytes)?;
            return Ok(store_ref);
        }
        self.file.delete(id)?;
        let new_id = self.file.create_object(target, bytes)?;
        Ok(new_id.raw() as u64)
    }

    /// Inserts a brand-new record (a term first seen by an incremental
    /// document addition), returning its store reference.
    pub fn insert_record(&mut self, bytes: &[u8]) -> Result<u64> {
        // Deleted object ids can be reused, so creation also invalidates.
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let id = self.file.create_object(pool_for_with(bytes.len(), self.large_min), bytes)?;
        Ok(id.raw() as u64)
    }

    /// Deletes a record (an update undoing its insert of a new term's
    /// record). The slot is tombstoned, like every other freed object.
    pub fn delete_record(&mut self, store_ref: u64) -> Result<()> {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(self.file.delete(Self::object_id(store_ref)?)?)
    }
}

/// The owned store reads through the same path as its shared views: each
/// call builds a [`SharedMnemeView`] (six borrowed words) and delegates, so
/// the Mneme read path is written once.
impl InvertedFileStore for MnemeInvertedFile {
    fn fetch(&mut self, store_ref: u64) -> poir_inquery::Result<RecordBytes> {
        self.shared_view().fetch(store_ref)
    }

    fn fetch_range(
        &mut self,
        store_ref: u64,
        start: u64,
        len: usize,
    ) -> poir_inquery::Result<RecordBytes> {
        self.shared_view().fetch_range(store_ref, start, len)
    }

    fn supports_range_read(&self) -> bool {
        self.shared_view().supports_range_read()
    }

    fn record_len_hint(&self, store_ref: u64) -> Option<u64> {
        self.shared_view().record_len_hint(store_ref)
    }

    fn reserve(&mut self, store_refs: &[u64]) {
        self.shared_view().reserve(store_refs);
    }

    fn release_reservations(&mut self) {
        self.shared_view().release_reservations();
    }

    fn decoded_block_cache(&self) -> Option<Arc<BlockCache>> {
        self.shared_view().decoded_block_cache()
    }

    fn store_epoch(&self) -> u64 {
        self.shared_view().store_epoch()
    }

    fn record_lookups(&self) -> u64 {
        self.shared_view().record_lookups()
    }
}

/// A read-only view of a [`MnemeInvertedFile`] usable from multiple threads
/// at once: the Mneme read path takes `&self`, so any number of views can
/// fetch concurrently. Lookup counts feed the owner's shared counter.
#[derive(Clone, Copy)]
pub struct SharedMnemeView<'a> {
    file: &'a MnemeFile,
    lookups: &'a AtomicU64,
    recorder: &'a Recorder,
    block_cache: Option<&'a Arc<BlockCache>>,
    epoch: &'a AtomicU64,
    store_id: u32,
}

impl MnemeInvertedFile {
    /// A concurrently usable read-only store view (see [`SharedMnemeView`]).
    pub fn shared_view(&self) -> SharedMnemeView<'_> {
        SharedMnemeView {
            file: &self.file,
            lookups: &self.lookups,
            recorder: &self.recorder,
            block_cache: self.block_cache.as_ref(),
            epoch: &self.epoch,
            store_id: self.store_id,
        }
    }
}

impl InvertedFileStore for SharedMnemeView<'_> {
    fn fetch(&mut self, store_ref: u64) -> poir_inquery::Result<RecordBytes> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.recorder.incr(Event::RecordLookup);
        let id = MnemeInvertedFile::object_id(store_ref)?;
        let bytes = self.file.get(id).map_err(CoreError::from)?;
        self.recorder.incr(Event::RecordDecoded);
        self.recorder.add(Event::RecordBytesDecoded, bytes.len() as u64);
        Ok(bytes)
    }

    /// Opening reads (`start == 0`) count one record lookup exactly like a
    /// whole fetch; continuation reads (`start > 0`) count none, keeping
    /// the "A" statistic's denominator comparable across fetch protocols.
    /// Pools without a physical range path (small, medium) fall back to
    /// the whole record — returning more than asked, which the trait
    /// contract permits.
    fn fetch_range(
        &mut self,
        store_ref: u64,
        start: u64,
        len: usize,
    ) -> poir_inquery::Result<RecordBytes> {
        if start == 0 {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.recorder.incr(Event::RecordLookup);
        }
        let id = MnemeInvertedFile::object_id(store_ref)?;
        match self.file.get_range(id, start, len).map_err(CoreError::from)? {
            Some(bytes) => {
                self.recorder.incr(Event::RangeRead);
                if start == 0 {
                    self.recorder.incr(Event::RecordDecoded);
                }
                self.recorder.add(Event::RecordBytesDecoded, bytes.len() as u64);
                Ok(bytes)
            }
            None => {
                let bytes = self.file.get(id).map_err(CoreError::from)?;
                if start == 0 {
                    self.recorder.incr(Event::RecordDecoded);
                    self.recorder.add(Event::RecordBytesDecoded, bytes.len() as u64);
                    Ok(bytes)
                } else {
                    let from = (start.min(bytes.len() as u64)) as usize;
                    let to = from.saturating_add(len).min(bytes.len());
                    Ok(bytes.slice(from, to))
                }
            }
        }
    }

    fn supports_range_read(&self) -> bool {
        true
    }

    fn record_len_hint(&self, store_ref: u64) -> Option<u64> {
        let id = MnemeInvertedFile::object_id(store_ref).ok()?;
        self.file.object_len_hint(id)
    }

    fn reserve(&mut self, store_refs: &[u64]) {
        let ids: Vec<ObjectId> =
            store_refs.iter().filter_map(|&r| ObjectId::from_raw(r as u32)).collect();
        self.file.reserve(&ids);
    }

    fn release_reservations(&mut self) {
        self.file.release_reservations();
    }

    fn decoded_block_cache(&self) -> Option<Arc<BlockCache>> {
        self.block_cache.map(Arc::clone)
    }

    /// The cache-key epoch: the store's process-unique id in the high 32
    /// bits, its local mutation counter in the low 32.
    fn store_epoch(&self) -> u64 {
        ((self.store_id as u64) << 32) | (self.epoch.load(Ordering::Relaxed) & 0xFFFF_FFFF)
    }

    fn record_lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poir_storage::Device;

    fn sample_records() -> (Dictionary, Vec<(TermId, Vec<u8>)>) {
        let mut dict = Dictionary::new();
        let mut records = Vec::new();
        for i in 0..400u32 {
            let id = dict.intern(&format!("term{i}"));
            // Mix of small (≤12), medium, and large (>4096) records.
            let len = match i % 4 {
                0 => i as usize % 13,
                1 | 2 => 100 + (i as usize * 7) % 3000,
                _ => 5000 + (i as usize * 31) % 20_000,
            };
            records.push((id, vec![(i % 251) as u8; len]));
        }
        (dict, records)
    }

    /// The sample records loaded into a fresh store on a fresh device.
    fn built_store() -> (MnemeInvertedFile, Dictionary, Vec<(TermId, Vec<u8>)>) {
        let (mut dict, records) = sample_records();
        let handle = Device::with_defaults().create_file();
        let store =
            MnemeInvertedFile::build(handle, MnemeOptions::default(), &records, &mut dict).unwrap();
        (store, dict, records)
    }

    #[test]
    fn partition_rules_match_the_paper() {
        assert_eq!(pool_for(0), SMALL_POOL);
        assert_eq!(pool_for(12), SMALL_POOL);
        assert_eq!(pool_for(13), MEDIUM_POOL);
        assert_eq!(pool_for(4096), MEDIUM_POOL);
        assert_eq!(pool_for(4097), LARGE_POOL);
        assert_eq!(pool_for(2_000_000), LARGE_POOL);
    }

    #[test]
    fn build_then_fetch_every_record() {
        let (mut store, dict, records) = built_store();
        for (term, bytes) in &records {
            let r = dict.entry(*term).store_ref;
            assert_eq!(&store.fetch(r).unwrap(), bytes);
        }
        assert_eq!(store.record_lookups(), 400);
        assert!(store.largest_record() >= 5000);
    }

    #[test]
    fn records_land_in_their_pools() {
        let (mut store, dict, records) = built_store();
        for (term, bytes) in &records {
            let id = ObjectId::from_raw(dict.entry(*term).store_ref as u32).unwrap();
            assert_eq!(store.mneme().pool_of(id).unwrap(), pool_for(bytes.len()));
        }
    }

    #[test]
    fn caching_hits_on_repeated_fetches() {
        let dev = Device::with_defaults();
        let (mut dict, records) = sample_records();
        let handle = dev.create_file();
        let largest;
        {
            let store = MnemeInvertedFile::build(
                handle.clone(),
                MnemeOptions::default(),
                &records,
                &mut dict,
            )
            .unwrap();
            largest = store.largest_record();
        }
        let mut store = MnemeInvertedFile::open(handle, largest).unwrap();
        store.attach_buffers(crate::buffer_sizing::paper_heuristic(largest, 8192)).unwrap();
        let some_large = records.iter().find(|(_, b)| b.len() > LARGE_MIN).unwrap();
        let r = dict.entry(some_large.0).store_ref;
        store.fetch(r).unwrap();
        store.fetch(r).unwrap();
        store.fetch(r).unwrap();
        let [_, _, large] = store.buffer_stats().unwrap();
        assert_eq!(large.refs, 3);
        assert_eq!(large.hits, 2);
        store.reset_buffer_stats();
        assert_eq!(store.buffer_stats().unwrap()[2].refs, 0);
    }

    #[test]
    fn update_within_pool_keeps_the_reference() {
        let (mut store, dict, records) = built_store();
        let (term, _) = records.iter().find(|(_, b)| b.len() > 100 && b.len() < 4000).unwrap();
        let r = dict.entry(*term).store_ref;
        let new_bytes = vec![9u8; 200];
        let r2 = store.update_record(r, &new_bytes).unwrap();
        assert_eq!(r, r2);
        assert_eq!(store.fetch(r2).unwrap(), new_bytes);
    }

    #[test]
    fn update_across_pools_migrates() {
        let (mut store, dict, records) = built_store();
        let (term, _) = records.iter().find(|(_, b)| b.len() <= 12).unwrap();
        let r = dict.entry(*term).store_ref;
        // A small record grows past the small pool's 12-byte limit.
        let grown = vec![5u8; 500];
        let r2 = store.update_record(r, &grown).unwrap();
        assert_ne!(r, r2, "cross-pool growth must produce a new object");
        assert_eq!(store.fetch(r2).unwrap(), grown);
        assert!(store.fetch(r).is_err(), "old object was deleted");
        // And back down into the small pool.
        let shrunk = vec![1u8; 4];
        let r3 = store.update_record(r2, &shrunk).unwrap();
        assert_ne!(r2, r3);
        assert_eq!(store.fetch(r3).unwrap(), shrunk);
    }

    #[test]
    fn inserted_records_are_fetchable() {
        let (mut store, ..) = built_store();
        let r = store.insert_record(&[3u8; 50]).unwrap();
        assert_eq!(store.fetch(r).unwrap(), vec![3u8; 50]);
    }

    #[test]
    fn fetch_range_serves_large_records_partially() {
        let (mut store, dict, records) = built_store();
        assert!(store.supports_range_read());
        let (term, bytes) = records.iter().find(|(_, b)| b.len() > LARGE_MIN).unwrap();
        let r = dict.entry(*term).store_ref;
        let before = store.record_lookups();
        let prefix = store.fetch_range(r, 0, 8192).unwrap();
        assert_eq!(&prefix[..], &bytes[..8192.min(bytes.len())]);
        assert_eq!(store.record_lookups(), before + 1, "opening range counts one lookup");
        let mid = store.fetch_range(r, 100, 50).unwrap();
        assert_eq!(&mid[..], &bytes[100..150]);
        assert_eq!(store.record_lookups(), before + 1, "continuation counts no lookup");
        // Small and medium pools fall back to the whole record.
        let (term, small) = records.iter().find(|(_, b)| !b.is_empty() && b.len() <= 12).unwrap();
        let whole = store.fetch_range(dict.entry(*term).store_ref, 0, 4).unwrap();
        assert_eq!(&whole, small, "small pool serves the whole record");
    }

    #[test]
    fn reopen_after_flush() {
        let dev = Device::with_defaults();
        let handle = dev.create_file();
        let (mut dict, records) = sample_records();
        let largest;
        {
            let mut store = MnemeInvertedFile::build(
                handle.clone(),
                MnemeOptions::default(),
                &records,
                &mut dict,
            )
            .unwrap();
            largest = store.largest_record();
            store.flush().unwrap();
        }
        let mut store = MnemeInvertedFile::open(handle, largest).unwrap();
        for (term, bytes) in records.iter().rev().take(30) {
            assert_eq!(&store.fetch(dict.entry(*term).store_ref).unwrap(), bytes);
        }
        assert!(store.file_size().unwrap() > 0);
        assert!(store.aux_table_bytes() > 0);
    }
}
