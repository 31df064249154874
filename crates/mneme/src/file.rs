//! A Mneme file: objects, pools, physical segments, and location tables.
//!
//! "Objects are grouped into files supported by the operating system. An
//! object's identifier is unique only within the object's file." (Section
//! 3.2). A [`MnemeFile`] owns:
//!
//! * the pool set it was created with (persisted in the header),
//! * one segment buffer per pool ("Each object pool was attached to a
//!   separate buffer, allowing the global buffer space to be divided
//!   between the object pools", Section 3.3),
//! * the multi-level location tables ([`crate::table`]), loaded lazily and
//!   then retained — the paper's permanently-cached auxiliary tables,
//! * the id allocator handing out logical segments to pools.
//!
//! ## On-disk layout
//!
//! ```text
//! [ header block (8 KB) ][ physical segments ... ][ directory ][ buckets ]
//! ```
//!
//! The header records where the data region ends and where the serialized
//! location tables begin. Tables are rewritten at every [`MnemeFile::flush`];
//! between flushes the on-disk tables may be stale (see [`crate::recovery`]
//! for the redo-log extension that closes this window).
//!
//! ## Concurrency
//!
//! The read path ([`MnemeFile::get`], [`MnemeFile::get_range`],
//! [`MnemeFile::reserve`], …) takes `&self`: the
//! location tables sit behind a reader-writer lock (write-acquired only for
//! lazy bucket loads) and each pool's buffer and building segment behind its
//! own mutex, so concurrent readers of *different* pools never contend.
//! Lock order is always meta before pool, and no read-path operation holds
//! two pool locks at once, so the read path cannot deadlock. Mutations
//! (create/update/delete/flush) keep `&mut self` and access the same state
//! through `get_mut`, paying no locking cost.
//!
//! ```
//! use poir_mneme::{MnemeFile, PoolConfig, PoolId, PoolKindConfig};
//! use poir_storage::Device;
//!
//! let device = Device::with_defaults();
//! let pools = [PoolConfig {
//!     id: PoolId(0),
//!     kind: PoolKindConfig::Packed { segment_size: 8192 },
//! }];
//! let mut file = MnemeFile::create(device.create_file(), &pools, 16).unwrap();
//! let id = file.create_object(PoolId(0), b"a chunk of contiguous bytes").unwrap();
//! assert_eq!(file.get(id).unwrap(), b"a chunk of contiguous bytes");
//! file.flush().unwrap();
//! ```

use std::ops::Range;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use poir_storage::{FileHandle, RecordBytes};
use poir_telemetry::trace::{LOCK_META_READ, LOCK_META_WRITE, LOCK_POOL};
use poir_telemetry::{PoolEvent, Recorder, TraceOp};

use crate::buffer::{Buffer, BufferStats, LruBuffer};
use crate::error::{MnemeError, Result};
use crate::id::{LogicalSegment, ObjectId, PoolId, MAX_LOGICAL_SEGMENTS, SLOTS_PER_SEGMENT};
use crate::pool::{AppendOutcome, LocateResult, Pool, PoolConfig, SEGMENT_HEADER_LEN};
use crate::segment::{SegmentAddr, SegmentImage, SegmentKind};
use crate::table::LocationTable;

const MAGIC: &[u8; 4] = b"MNEM";
const VERSION: u16 = 1;
/// The header occupies one full device block so data segments start aligned.
const HEADER_LEN: u64 = 8192;
/// Byte offset where pool configurations begin within the header.
const POOLS_OFFSET: usize = 40;
/// Bytes per on-disk directory entry: bucket offset (u64) + length (u32).
const DIR_ENTRY_LEN: usize = 12;

struct PoolState {
    pool: Box<dyn Pool>,
    buffer: Box<dyn Buffer>,
    current_lseg: Option<LogicalSegment>,
    next_slot: u32,
    building: Option<(SegmentAddr, SegmentImage)>,
}

/// Table-and-allocator state shared by every pool, guarded as one unit.
struct Meta {
    table: LocationTable,
    /// Per-bucket on-disk location `(offset, len)`; empty lengths mean the
    /// bucket has never been written.
    directory: Vec<(u64, u32)>,
    data_end: u64,
    next_lseg: u32,
    /// Whether there are logical changes not yet committed by a flush.
    dirty: bool,
    /// Bytes occupied by the serialized location tables at the last flush —
    /// the "auxiliary table" size (about 512 Kbytes for TIPSTER).
    aux_bytes: u64,
    /// Payload bytes orphaned by relocating updates and deletions.
    garbage_bytes: u64,
}

/// One Mneme file holding objects in pools.
pub struct MnemeFile {
    handle: FileHandle,
    configs: Vec<PoolConfig>,
    pools: Vec<Mutex<PoolState>>,
    meta: RwLock<Meta>,
    /// Telemetry recorder for per-pool buffer events (disabled by default).
    recorder: Recorder,
}

impl std::fmt::Debug for MnemeFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("MnemeFile");
        d.field("pools", &self.pools.len());
        if let Some(meta) = self.meta.try_read() {
            d.field("data_end", &meta.data_end).field("next_lseg", &meta.next_lseg);
        }
        d.finish_non_exhaustive()
    }
}

fn load_bucket_into(handle: &FileHandle, meta: &mut Meta, bucket: u32) -> Result<()> {
    let (offset, len) = meta.directory[bucket as usize];
    if len == 0 {
        // Never written: install an empty bucket.
        meta.table.load_bucket(bucket, &0u32.to_le_bytes())?;
    } else {
        let bytes = handle.read(offset, len as usize)?;
        meta.table.load_bucket(bucket, &bytes)?;
    }
    Ok(())
}

fn ensure_bucket_loaded(handle: &FileHandle, meta: &mut Meta, lseg: LogicalSegment) -> Result<()> {
    let bucket = meta.table.bucket_of(lseg);
    if meta.table.is_loaded(bucket) {
        return Ok(());
    }
    load_bucket_into(handle, meta, bucket)
}

/// Reads every not-yet-resident location bucket into memory.
fn load_all_buckets(handle: &FileHandle, meta: &mut Meta) -> Result<()> {
    for bucket in meta.table.unloaded_buckets() {
        load_bucket_into(handle, meta, bucket)?;
    }
    Ok(())
}

/// Allocates file space for a new physical segment. Segments append at
/// `data_end`; flushed location tables live *before* `data_end` (the table
/// region is copy-on-write — each flush writes a fresh region and bumps
/// `data_end` past it), so appends never clobber valid tables.
fn allocate_segment(meta: &mut Meta, len: usize) -> SegmentAddr {
    let addr = SegmentAddr { offset: meta.data_end, len: len as u32 };
    meta.data_end += len as u64;
    addr
}

/// Allocates the next object id for a pool, starting a new logical segment
/// when the current one is exhausted.
fn allocate_id(handle: &FileHandle, meta: &mut Meta, ps: &mut PoolState) -> Result<ObjectId> {
    if ps.current_lseg.is_none() || ps.next_slot >= SLOTS_PER_SEGMENT {
        if meta.next_lseg >= MAX_LOGICAL_SEGMENTS {
            return Err(MnemeError::IdSpaceExhausted);
        }
        let lseg = LogicalSegment(meta.next_lseg);
        meta.next_lseg += 1;
        ensure_bucket_loaded(handle, meta, lseg)?;
        meta.table.entry_mut(lseg, ps.pool.id())?;
        ps.current_lseg = Some(lseg);
        ps.next_slot = 0;
    }
    let id = ObjectId::new(ps.current_lseg.unwrap(), ps.next_slot as u8);
    ps.next_slot += 1;
    Ok(id)
}

/// Writes a segment image back to its address: only the runs that differ
/// from what the file holds there, or the whole image if the file holds
/// nothing there yet ([`SegmentImage::changed_runs`]).
fn save_segment(handle: &FileHandle, addr: SegmentAddr, image: &mut SegmentImage) -> Result<()> {
    debug_assert_eq!(image.len(), addr.len as usize);
    for run in image.changed_runs() {
        handle.write(addr.offset + run.start as u64, &image.bytes()[run])?;
    }
    image.mark_clean();
    Ok(())
}

fn save_evicted(handle: &FileHandle, evicted: Vec<(SegmentAddr, SegmentImage)>) -> Result<()> {
    for (addr, mut image) in evicted {
        if image.is_dirty() {
            save_segment(handle, addr, &mut image)?;
        }
    }
    Ok(())
}

/// Mirrors a `Buffer::record_ref` call into the telemetry recorder, and
/// traces the reference against the referenced segment.
fn note_ref(recorder: &Recorder, pool: PoolId, addr: SegmentAddr, hit: bool) {
    let pool = pool.0 as usize;
    recorder.pool_incr(pool, PoolEvent::Ref);
    recorder.pool_incr(pool, if hit { PoolEvent::Hit } else { PoolEvent::Miss });
    recorder.trace(
        if hit { TraceOp::BufferHit } else { TraceOp::BufferMiss },
        addr.offset,
        Some(pool),
        addr.len as u64,
        Duration::ZERO,
    );
}

/// Records segments evicted from a pool's buffer, one trace record per
/// evicted segment so eviction ages stay derivable from the trace.
fn note_evictions(recorder: &Recorder, pool: PoolId, evicted: &[(SegmentAddr, SegmentImage)]) {
    if evicted.is_empty() {
        return;
    }
    let pool = pool.0 as usize;
    recorder.pool_add(pool, PoolEvent::Eviction, evicted.len() as u64);
    if recorder.is_tracing() {
        for (addr, _) in evicted {
            recorder.trace(
                TraceOp::BufferEvict,
                addr.offset,
                Some(pool),
                addr.len as u64,
                Duration::ZERO,
            );
        }
    }
}

/// Seals a pool's building segment: it becomes a regular segment served
/// through the pool's buffer (written out when evicted or flushed).
fn seal_building(handle: &FileHandle, recorder: &Recorder, ps: &mut PoolState) -> Result<()> {
    if let Some((addr, image)) = ps.building.take() {
        let evicted = ps.buffer.insert(addr, image);
        note_evictions(recorder, ps.pool.id(), &evicted);
        save_evicted(handle, evicted)?;
    }
    Ok(())
}

/// Runs `f` against the segment at `addr`, serving it from the pool's
/// building segment, its buffer, or the file (in that order). One object
/// reference is recorded against the pool's buffer.
fn with_segment_in<R>(
    handle: &FileHandle,
    recorder: &Recorder,
    ps: &mut PoolState,
    addr: SegmentAddr,
    f: impl FnOnce(&dyn Pool, &mut SegmentImage) -> R,
) -> Result<R> {
    let pool_id = ps.pool.id();
    if let Some((baddr, image)) = ps.building.as_mut() {
        if *baddr == addr {
            ps.buffer.record_ref(true);
            note_ref(recorder, pool_id, addr, true);
            return Ok(f(ps.pool.as_ref(), image));
        }
    }
    if ps.buffer.is_resident(addr) {
        ps.buffer.record_ref(true);
        note_ref(recorder, pool_id, addr, true);
        let image = ps.buffer.lookup(addr).expect("resident segment");
        return Ok(f(ps.pool.as_ref(), image));
    }
    ps.buffer.record_ref(false);
    note_ref(recorder, pool_id, addr, false);
    let mut image = SegmentImage::from_disk(handle.read(addr.offset, addr.len as usize)?);
    let result = f(ps.pool.as_ref(), &mut image);
    let evicted = ps.buffer.insert(addr, image);
    note_evictions(recorder, pool_id, &evicted);
    save_evicted(handle, evicted)?;
    Ok(result)
}

/// Read-only variant of [`with_segment_in`]. On a buffer hit the promotion
/// bookkeeping happens in one O(1) [`Buffer::touch`] call, after which the
/// image is borrowed *shared* via [`Buffer::probe`] for the duration of
/// `f` — the exclusive part of the access no longer extends across the
/// whole segment read, and the buffer's replacement state is not mutably
/// borrowed while the caller extracts bytes.
fn with_segment_read<R>(
    handle: &FileHandle,
    recorder: &Recorder,
    ps: &mut PoolState,
    addr: SegmentAddr,
    f: impl FnOnce(&dyn Pool, &SegmentImage) -> R,
) -> Result<R> {
    let pool_id = ps.pool.id();
    if let Some((baddr, image)) = ps.building.as_ref() {
        if *baddr == addr {
            ps.buffer.record_ref(true);
            note_ref(recorder, pool_id, addr, true);
            return Ok(f(ps.pool.as_ref(), image));
        }
    }
    if ps.buffer.touch(addr) {
        ps.buffer.record_ref(true);
        note_ref(recorder, pool_id, addr, true);
        let image = ps.buffer.probe(addr).expect("resident segment");
        return Ok(f(ps.pool.as_ref(), image));
    }
    ps.buffer.record_ref(false);
    note_ref(recorder, pool_id, addr, false);
    let image = SegmentImage::from_disk(handle.read(addr.offset, addr.len as usize)?);
    let result = f(ps.pool.as_ref(), &image);
    let evicted = ps.buffer.insert(addr, image);
    note_evictions(recorder, pool_id, &evicted);
    save_evicted(handle, evicted)?;
    Ok(result)
}

/// `id`'s payload range in `seg`, the whole or a prefix of a segment of
/// `seg_len` bytes, or the error a read of it reports. A range the header
/// places past the segment's end is [`MnemeError::Corrupt`].
fn locate_in(pool: &dyn Pool, seg: &[u8], seg_len: usize, id: ObjectId) -> Result<Range<usize>> {
    match pool.locate(seg, id) {
        LocateResult::Found(r) if r.end <= seg_len => Ok(r),
        LocateResult::Found(_) | LocateResult::Corrupt => Err(MnemeError::Corrupt(format!(
            "object {id:?}: segment header does not fit its {seg_len} bytes"
        ))),
        LocateResult::Deleted => Err(MnemeError::ObjectDeleted(id)),
        LocateResult::Absent => Err(MnemeError::NoSuchObject(id)),
    }
}

/// Extracts `id`'s payload from a located segment image as a zero-copy
/// shared slice of the image's buffer.
fn extract_object(pool: &dyn Pool, seg: &SegmentImage, id: ObjectId) -> Result<RecordBytes> {
    let r = locate_in(pool, seg.bytes(), seg.len(), id)?;
    Ok(RecordBytes::shared(seg.share(), r.start, r.end))
}

/// Moves `id` out of the segment it outgrew: writes `data` into a fresh
/// relocation segment at the end of the data region (one size class of
/// headroom, [`Pool::relocation_segment`]) and shadows the slot with a
/// location-table exception. The old copy, `old_len` bytes, is garbage.
fn relocate(
    handle: &FileHandle,
    recorder: &Recorder,
    meta: &mut Meta,
    ps: &mut PoolState,
    id: ObjectId,
    data: &[u8],
    old_len: usize,
) -> Result<()> {
    meta.garbage_bytes += old_len as u64;
    let mut image = ps.pool.relocation_segment(id, data.len());
    let outcome = ps.pool.try_append(&mut image, id, data);
    debug_assert_eq!(outcome, AppendOutcome::Appended, "fresh segment must accept its object");
    let new_addr = allocate_segment(meta, image.len());
    let evicted = ps.buffer.insert(new_addr, image);
    note_evictions(recorder, ps.pool.id(), &evicted);
    save_evicted(handle, evicted)?;
    ensure_bucket_loaded(handle, meta, id.segment())?;
    meta.table.entry_mut(id.segment(), ps.pool.id())?.set_exception(id.slot(), new_addr);
    Ok(())
}

/// Resolves `id` against already-loaded tables.
fn resolve_in(meta: &Meta, configs: &[PoolConfig], id: ObjectId) -> Result<(usize, SegmentAddr)> {
    let entry = meta.table.entry(id.segment())?.ok_or(MnemeError::NoSuchObject(id))?;
    let pool_id = entry.pool;
    let addr = entry.segment_for(id.slot()).ok_or(MnemeError::NoSuchObject(id))?;
    let idx =
        configs.iter().position(|c| c.id == pool_id).ok_or(MnemeError::NoSuchPool(pool_id))?;
    Ok((idx, addr))
}

impl MnemeFile {
    /// Creates a new Mneme file with the given pools on `handle` (which must
    /// be empty). `num_buckets` sizes the location-table directory.
    pub fn create(handle: FileHandle, configs: &[PoolConfig], num_buckets: u32) -> Result<Self> {
        assert!(!configs.is_empty(), "a Mneme file needs at least one pool");
        assert!(num_buckets > 0, "at least one directory bucket is required");
        assert!(
            POOLS_OFFSET + configs.len() * 8 <= HEADER_LEN as usize,
            "too many pools for the header block"
        );
        for (i, c) in configs.iter().enumerate() {
            for other in &configs[..i] {
                assert_ne!(c.id, other.id, "pool ids must be unique");
            }
        }
        let mut file = MnemeFile {
            handle,
            configs: configs.to_vec(),
            pools: configs.iter().map(|c| Mutex::new(Self::fresh_pool_state(c))).collect(),
            meta: RwLock::new(Meta {
                table: LocationTable::new_empty(num_buckets),
                directory: vec![(0, 0); num_buckets as usize],
                data_end: HEADER_LEN,
                next_lseg: 0,
                dirty: true,
                aux_bytes: 0,
                garbage_bytes: 0,
            }),
            recorder: Recorder::disabled(),
        };
        file.write_header()?;
        Ok(file)
    }

    /// Opens an existing Mneme file, reconstructing its pools from the
    /// header. Reads the header and directory eagerly; location-table
    /// buckets load on first touch and stay resident.
    pub fn open(handle: FileHandle) -> Result<Self> {
        let header = handle.read(0, HEADER_LEN as usize)?;
        if &header[0..4] != MAGIC {
            return Err(MnemeError::Corrupt("bad magic".into()));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(MnemeError::Corrupt(format!("unsupported version {version}")));
        }
        let num_pools = u16::from_le_bytes(header[6..8].try_into().unwrap()) as usize;
        let data_end = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let next_lseg = u32::from_le_bytes(header[16..20].try_into().unwrap());
        let num_buckets = u32::from_le_bytes(header[20..24].try_into().unwrap());
        let dir_offset = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let dir_len = u32::from_le_bytes(header[32..36].try_into().unwrap());
        if num_buckets == 0 || num_pools == 0 {
            return Err(MnemeError::Corrupt("empty pool set or directory".into()));
        }
        let mut configs = Vec::with_capacity(num_pools);
        for i in 0..num_pools {
            let start = POOLS_OFFSET + i * 8;
            let raw: [u8; 8] = header[start..start + 8].try_into().unwrap();
            configs.push(
                PoolConfig::decode(&raw)
                    .ok_or_else(|| MnemeError::Corrupt(format!("bad pool config {i}")))?,
            );
        }
        let directory = if dir_offset == 0 {
            vec![(0u64, 0u32); num_buckets as usize]
        } else {
            if dir_len as usize != num_buckets as usize * DIR_ENTRY_LEN {
                return Err(MnemeError::Corrupt("directory length mismatch".into()));
            }
            let raw = handle.read(dir_offset, dir_len as usize)?;
            raw.chunks_exact(DIR_ENTRY_LEN)
                .map(|c| {
                    (
                        u64::from_le_bytes(c[0..8].try_into().unwrap()),
                        u32::from_le_bytes(c[8..12].try_into().unwrap()),
                    )
                })
                .collect::<Vec<_>>()
        };
        let aux_bytes = directory_bytes(num_buckets)
            + directory.iter().map(|&(_, len)| len as u64).sum::<u64>();
        Ok(MnemeFile {
            handle,
            pools: configs.iter().map(|c| Mutex::new(Self::fresh_pool_state(c))).collect(),
            configs,
            meta: RwLock::new(Meta {
                table: LocationTable::new_unloaded(num_buckets),
                directory,
                data_end,
                next_lseg,
                dirty: false,
                aux_bytes,
                garbage_bytes: 0,
            }),
            recorder: Recorder::disabled(),
        })
    }

    /// Attaches a telemetry recorder: buffer references, evictions, and
    /// reservations are recorded per pool from now on.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn fresh_pool_state(config: &PoolConfig) -> PoolState {
        PoolState {
            pool: config.build(),
            // Pools start with a zero-capacity buffer: nothing is cached
            // across accesses until a sized buffer is attached.
            buffer: Box::new(LruBuffer::new(0)),
            current_lseg: None,
            next_slot: SLOTS_PER_SEGMENT,
            building: None,
        }
    }

    /// The pool ids configured in this file, in declaration order.
    pub fn pool_ids(&self) -> Vec<PoolId> {
        self.configs.iter().map(|c| c.id).collect()
    }

    /// Largest object accepted by `pool`, if bounded.
    pub fn pool_max_object_len(&self, pool: PoolId) -> Result<Option<usize>> {
        Ok(self.pools[self.pool_index(pool)?].lock().pool.max_object_len())
    }

    fn pool_index(&self, pool: PoolId) -> Result<usize> {
        self.configs.iter().position(|c| c.id == pool).ok_or(MnemeError::NoSuchPool(pool))
    }

    /// Read-acquires the meta lock, tracing the wait as a lock-wait span.
    /// Uncontended acquisitions show up as ~0-length slices, which is the
    /// point: the trace proves the acquisition happened and measures any
    /// contention on it.
    fn lock_meta_read(&self) -> RwLockReadGuard<'_, Meta> {
        let traced = self.recorder.trace_start();
        let guard = self.meta.read();
        self.recorder.trace_end(traced, TraceOp::LockWait, LOCK_META_READ, None, 0);
        guard
    }

    /// Write-acquires the meta lock, tracing the wait.
    fn lock_meta_write(&self) -> RwLockWriteGuard<'_, Meta> {
        let traced = self.recorder.trace_start();
        let guard = self.meta.write();
        self.recorder.trace_end(traced, TraceOp::LockWait, LOCK_META_WRITE, None, 0);
        guard
    }

    /// Acquires one pool's mutex, tracing the wait against that pool.
    fn lock_pool(&self, pool_idx: usize) -> MutexGuard<'_, PoolState> {
        let traced = self.recorder.trace_start();
        let guard = self.pools[pool_idx].lock();
        self.recorder.trace_end(traced, TraceOp::LockWait, LOCK_POOL, Some(pool_idx), 0);
        guard
    }

    fn write_header(&mut self) -> Result<()> {
        self.write_header_with_directory(0, 0)
    }

    /// Writes the complete header in a single block write — the commit
    /// point of a flush. A zero `dir_offset` means "no tables on disk".
    fn write_header_with_directory(&mut self, dir_offset: u64, dir_len: u32) -> Result<()> {
        let meta = self.meta.get_mut();
        let mut header = vec![0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&(self.configs.len() as u16).to_le_bytes());
        header[8..16].copy_from_slice(&meta.data_end.to_le_bytes());
        header[16..20].copy_from_slice(&meta.next_lseg.to_le_bytes());
        header[20..24].copy_from_slice(&meta.table.num_buckets().to_le_bytes());
        header[24..32].copy_from_slice(&dir_offset.to_le_bytes());
        header[32..36].copy_from_slice(&dir_len.to_le_bytes());
        for (i, c) in self.configs.iter().enumerate() {
            let start = POOLS_OFFSET + i * 8;
            header[start..start + 8].copy_from_slice(&c.encode());
        }
        self.handle.write(0, &header)?;
        Ok(())
    }

    /// Creates a new object with `data` in `pool`, returning its id.
    pub fn create_object(&mut self, pool: PoolId, data: &[u8]) -> Result<ObjectId> {
        let pool_idx = self.pool_index(pool)?;
        let MnemeFile { handle, pools, meta, recorder, .. } = self;
        let meta = meta.get_mut();
        let ps = pools[pool_idx].get_mut();
        meta.dirty = true;
        if let Some(max) = ps.pool.max_object_len() {
            if data.len() > max {
                return Err(MnemeError::ObjectTooLarge { len: data.len(), max });
            }
        }
        let id = allocate_id(handle, meta, ps)?;
        let addr = loop {
            if ps.building.is_none() {
                let image = ps.pool.new_segment(id, data.len());
                let addr = allocate_segment(meta, image.len());
                ps.building = Some((addr, image));
            }
            let (addr, image) = ps.building.as_mut().unwrap();
            match ps.pool.try_append(image, id, data) {
                AppendOutcome::Appended => break *addr,
                AppendOutcome::Full => seal_building(handle, recorder, ps)?,
            }
        };
        ensure_bucket_loaded(handle, meta, id.segment())?;
        let entry = meta.table.entry_mut(id.segment(), pool)?;
        entry.push_run(id.slot(), addr);
        Ok(id)
    }

    /// The id the next [`MnemeFile::create_object`] call for `pool` will
    /// return, or `None` when a fresh logical segment will be started.
    pub(crate) fn next_id_hint(&self, pool: PoolId) -> Result<Option<ObjectId>> {
        let ps = self.pools[self.pool_index(pool)?].lock();
        Ok(match ps.current_lseg {
            Some(lseg) if ps.next_slot < SLOTS_PER_SEGMENT => {
                Some(ObjectId::new(lseg, ps.next_slot as u8))
            }
            _ => None,
        })
    }

    /// Moves `pool`'s allocation cursor so the next created object receives
    /// exactly `id`. Used by log replay ([`crate::recovery`]) to reproduce
    /// the pre-crash id sequence. The current building segment is sealed
    /// because objects before the cursor may already live on disk.
    pub(crate) fn force_allocation_cursor(&mut self, pool: PoolId, id: ObjectId) -> Result<()> {
        let pool_idx = self.pool_index(pool)?;
        let MnemeFile { handle, pools, meta, recorder, .. } = self;
        let meta = meta.get_mut();
        let ps = pools[pool_idx].get_mut();
        seal_building(handle, recorder, ps)?;
        ensure_bucket_loaded(handle, meta, id.segment())?;
        meta.table.entry_mut(id.segment(), pool)?;
        meta.next_lseg = meta.next_lseg.max(id.segment().0 + 1);
        ps.current_lseg = Some(id.segment());
        ps.next_slot = id.slot() as u32;
        Ok(())
    }

    /// Forces `id`'s payload to `data` regardless of the slot's current
    /// state — live, tombstoned, or shadowed. Used by log replay
    /// ([`crate::recovery`]): dirty-segment evictions can leak
    /// post-checkpoint tombstones into checkpointed segments, so a replayed
    /// create/update may find its object spuriously deleted. The old copy
    /// (live or tombstoned) stays dead and a fresh single-object segment
    /// shadows the slot via an exception entry, exactly like a relocating
    /// [`MnemeFile::update`].
    pub(crate) fn resurrect(&mut self, id: ObjectId, data: &[u8]) -> Result<()> {
        let MnemeFile { handle, configs, pools, meta, recorder } = self;
        let meta = meta.get_mut();
        meta.dirty = true;
        ensure_bucket_loaded(handle, meta, id.segment())?;
        let (pool_idx, addr) = resolve_in(meta, configs, id)?;
        let ps = pools[pool_idx].get_mut();
        if let Some(max) = ps.pool.max_object_len() {
            if data.len() > max {
                return Err(MnemeError::ObjectTooLarge { len: data.len(), max });
            }
        }
        let old_len = with_segment_in(handle, recorder, ps, addr, |pool, seg| {
            match pool.locate(seg.bytes(), id) {
                LocateResult::Found(r) => {
                    pool.delete(seg, id);
                    r.len()
                }
                _ => 0,
            }
        })?;
        relocate(handle, recorder, meta, ps, id, data, old_len)
    }

    /// Resolves an object id to its pool and physical segment, loading the
    /// id's location bucket if needed. Takes the meta lock only; the fast
    /// path (bucket already resident) is a shared read acquisition.
    fn resolve(&self, id: ObjectId) -> Result<(usize, SegmentAddr)> {
        let traced = self.recorder.trace_start();
        let result = self.resolve_untraced(id);
        self.recorder.trace_end(traced, TraceOp::HashProbe, id.raw() as u64, None, 0);
        result
    }

    fn resolve_untraced(&self, id: ObjectId) -> Result<(usize, SegmentAddr)> {
        {
            let meta = self.lock_meta_read();
            if meta.table.is_loaded(meta.table.bucket_of(id.segment())) {
                return resolve_in(&meta, &self.configs, id);
            }
        }
        // Double-checked: reacquire exclusively and load the bucket. Another
        // thread may have loaded it between the two acquisitions; then the
        // ensure call is a no-op.
        let mut meta = self.lock_meta_write();
        ensure_bucket_loaded(&self.handle, &mut meta, id.segment())?;
        resolve_in(&meta, &self.configs, id)
    }

    /// Reads an object's payload. Building-segment and buffer-resident
    /// objects are served as zero-copy shared slices of the cached segment
    /// image; only buffer misses transfer bytes.
    pub fn get(&self, id: ObjectId) -> Result<RecordBytes> {
        let traced = self.recorder.trace_start();
        let (pool_idx, addr) = self.resolve(id)?;
        let mut ps = self.lock_pool(pool_idx);
        let payload =
            with_segment_read(&self.handle, &self.recorder, &mut ps, addr, |pool, seg| {
                extract_object(pool, seg, id)
            })??;
        drop(ps);
        self.recorder.trace_end(
            traced,
            TraceOp::PoolFetch,
            id.raw() as u64,
            Some(pool_idx),
            payload.len() as u64,
        );
        Ok(payload)
    }

    /// Reads `len` bytes of an object's payload starting at byte `start`,
    /// transferring only the device blocks the range touches.
    ///
    /// Only pools that store one object per physical segment (the huge
    /// pool's [`SegmentKind::SingleObject`] layout) can map a payload range
    /// onto a device range; every other pool returns `Ok(None)` and the
    /// caller falls back to [`MnemeFile::get`]. Building-segment and
    /// buffer-resident objects are sliced in memory and count a buffer hit;
    /// disk-served ranges count a buffer miss but are *not* admitted to the
    /// buffer — a partial segment image could later be mistaken for the
    /// whole object.
    ///
    /// Opening reads (`start == 0`) validate the segment header and clamp
    /// to the live payload length. Continuation reads (`start > 0`) trust
    /// the resolve step and clamp to the segment's capacity, so a caller
    /// that ranges past a payload shortened by an in-place update may see
    /// stale capacity bytes — callers derive ranges from the record itself,
    /// which cannot point past its own end.
    pub fn get_range(&self, id: ObjectId, start: u64, len: usize) -> Result<Option<RecordBytes>> {
        let traced = self.recorder.trace_start();
        let (pool_idx, addr) = self.resolve(id)?;
        let mut ps = self.lock_pool(pool_idx);
        let ps = &mut *ps;
        if ps.pool.kind() != SegmentKind::SingleObject {
            return Ok(None);
        }
        let pool_id = ps.pool.id();
        let slice_image = |pool: &dyn Pool, seg: &SegmentImage| -> Result<RecordBytes> {
            let r = locate_in(pool, seg.bytes(), seg.len(), id)?;
            let from = (start.min(r.len() as u64)) as usize;
            let to = from.saturating_add(len).min(r.len());
            Ok(RecordBytes::shared(seg.share(), r.start + from, r.start + to))
        };
        let payload = if let Some((baddr, image)) = ps.building.as_ref().filter(|(b, _)| *b == addr)
        {
            debug_assert_eq!(*baddr, addr);
            ps.buffer.record_ref(true);
            note_ref(&self.recorder, pool_id, addr, true);
            slice_image(ps.pool.as_ref(), image)?
        } else if ps.buffer.touch(addr) {
            ps.buffer.record_ref(true);
            note_ref(&self.recorder, pool_id, addr, true);
            let image = ps.buffer.probe(addr).expect("resident segment");
            slice_image(ps.pool.as_ref(), image)?
        } else {
            ps.buffer.record_ref(false);
            note_ref(&self.recorder, pool_id, addr, false);
            let capacity = (addr.len as usize).saturating_sub(SEGMENT_HEADER_LEN);
            if start == 0 {
                // One contiguous read of header plus prefix; the header
                // tells us the object is live and how long it really is.
                let want = len.min(capacity);
                let bytes = self.handle.read(addr.offset, SEGMENT_HEADER_LEN + want)?;
                let r = locate_in(ps.pool.as_ref(), &bytes, addr.len as usize, id)?;
                let end = r.end.min(bytes.len());
                RecordBytes::from(bytes[r.start.min(end)..end].to_vec())
            } else {
                let from = (start as usize).min(capacity);
                let take = len.min(capacity - from);
                if take == 0 {
                    RecordBytes::from(Vec::new())
                } else {
                    RecordBytes::from(
                        self.handle.read(addr.offset + (SEGMENT_HEADER_LEN + from) as u64, take)?,
                    )
                }
            }
        };
        self.recorder.trace_end(
            traced,
            TraceOp::RangeRead,
            id.raw() as u64,
            Some(pool_idx),
            payload.len() as u64,
        );
        Ok(Some(payload))
    }

    /// An upper bound on an object's payload length, read off its segment
    /// address alone — no payload I/O and no buffer accounting. `None` for
    /// shared-segment pools (an object's extent there is only known from
    /// the segment contents) and for objects still in the building segment.
    pub fn object_len_hint(&self, id: ObjectId) -> Option<u64> {
        let (pool_idx, addr) = self.resolve_untraced(id).ok()?;
        let ps = self.lock_pool(pool_idx);
        if ps.pool.kind() != SegmentKind::SingleObject
            || ps.building.as_ref().is_some_and(|(b, _)| *b == addr)
        {
            return None;
        }
        Some((addr.len as u64).saturating_sub(SEGMENT_HEADER_LEN as u64))
    }

    /// Reads an object's payload length without copying the payload.
    pub fn object_len(&self, id: ObjectId) -> Result<usize> {
        let (pool_idx, addr) = self.resolve(id)?;
        let mut ps = self.lock_pool(pool_idx);
        with_segment_read(&self.handle, &self.recorder, &mut ps, addr, |pool, seg| {
            locate_in(pool, seg.bytes(), seg.len(), id).map(|r| r.len())
        })?
    }

    /// The pool an object belongs to.
    pub fn pool_of(&self, id: ObjectId) -> Result<PoolId> {
        let (pool_idx, _) = self.resolve(id)?;
        Ok(self.configs[pool_idx].id)
    }

    /// Overwrites an object's payload. Updates happen in place when the new
    /// payload fits its segment; otherwise the old copy is tombstoned and
    /// the object moves to a fresh segment at the end of the data region,
    /// one size class larger than it needs, recorded as a location-table
    /// exception. The appends that follow a move then fit in place, and a
    /// write-back writes only the bytes an update changed, so an append
    /// costs about the bytes it appends plus the headers it touches.
    pub fn update(&mut self, id: ObjectId, data: &[u8]) -> Result<()> {
        let MnemeFile { handle, configs, pools, meta, recorder } = self;
        let meta = meta.get_mut();
        meta.dirty = true;
        ensure_bucket_loaded(handle, meta, id.segment())?;
        let (pool_idx, addr) = resolve_in(meta, configs, id)?;
        let ps = pools[pool_idx].get_mut();
        if let Some(max) = ps.pool.max_object_len() {
            if data.len() > max {
                return Err(MnemeError::ObjectTooLarge { len: data.len(), max });
            }
        }
        // In place, or tombstone the old copy for a move (one reference).
        let moved = with_segment_in(handle, recorder, ps, addr, |pool, seg| {
            let old = locate_in(pool, seg.bytes(), seg.len(), id)?;
            if pool.try_update_in_place(seg, id, data) {
                return Ok(None);
            }
            pool.delete(seg, id);
            Ok::<_, MnemeError>(Some(old.len()))
        })??;
        match moved {
            Some(old_len) => relocate(handle, recorder, meta, ps, id, data, old_len),
            None => Ok(()),
        }
    }

    /// Deletes an object. The slot is tombstoned; its bytes count toward
    /// [`MnemeFile::garbage_bytes`] and are not reclaimed.
    pub fn delete(&mut self, id: ObjectId) -> Result<()> {
        let MnemeFile { handle, configs, pools, meta, recorder } = self;
        let meta = meta.get_mut();
        meta.dirty = true;
        ensure_bucket_loaded(handle, meta, id.segment())?;
        let (pool_idx, addr) = resolve_in(meta, configs, id)?;
        let ps = pools[pool_idx].get_mut();
        let freed = with_segment_in(handle, recorder, ps, addr, |pool, seg| {
            let r = locate_in(pool, seg.bytes(), seg.len(), id)?;
            pool.delete(seg, id);
            Ok::<_, MnemeError>(r.len())
        })??;
        meta.garbage_bytes += freed as u64;
        Ok(())
    }

    /// Pins the segments of any of `ids` that are already resident, so query
    /// evaluation cannot evict them — the paper's pre-evaluation query-tree
    /// reservation pass. Non-resident objects are *not* faulted in.
    pub fn reserve(&self, ids: &[ObjectId]) {
        let meta = self.lock_meta_read();
        for &id in ids {
            // Never perform I/O here: if the bucket is unloaded the segment
            // cannot be resident either.
            if !meta.table.is_loaded(meta.table.bucket_of(id.segment())) {
                continue;
            }
            let Ok(Some(entry)) = meta.table.entry(id.segment()) else { continue };
            let pool_id = entry.pool;
            let Some(addr) = entry.segment_for(id.slot()) else { continue };
            let Ok(pool_idx) = self.pool_index(pool_id) else { continue };
            if self.lock_pool(pool_idx).buffer.reserve(addr) {
                self.recorder.pool_incr(pool_id.0 as usize, PoolEvent::Reservation);
            }
        }
    }

    /// Releases every reservation placed by [`MnemeFile::reserve`].
    pub fn release_reservations(&self) {
        for pool_idx in 0..self.pools.len() {
            self.lock_pool(pool_idx).buffer.release_reservations();
        }
    }

    /// Attaches a buffer to a pool, replacing (and saving the contents of)
    /// the previous one.
    pub fn attach_buffer(&mut self, pool: PoolId, buffer: Box<dyn Buffer>) -> Result<()> {
        let pool_idx = self.pool_index(pool)?;
        let ps = self.pools[pool_idx].get_mut();
        let mut old = std::mem::replace(&mut ps.buffer, buffer);
        save_evicted(&self.handle, old.drain())?;
        Ok(())
    }

    /// Reference/hit counters of a pool's buffer (Table 6).
    pub fn buffer_stats(&self, pool: PoolId) -> Result<BufferStats> {
        Ok(self.pools[self.pool_index(pool)?].lock().buffer.stats())
    }

    /// Resets every pool buffer's counters.
    pub fn reset_buffer_stats(&self) {
        for ps in &self.pools {
            ps.lock().buffer.reset_stats();
        }
    }

    /// Writes all dirty state (building segments, buffered segments,
    /// location tables, header) to the file and truncates it to its exact
    /// size. Buffers are cold afterwards.
    pub fn flush(&mut self) -> Result<()> {
        if !self.meta.get_mut().dirty {
            return Ok(());
        }
        for pool_idx in 0..self.pools.len() {
            // Seal building segments by writing them directly; they stay
            // retrievable through their registered location runs.
            let ps = self.pools[pool_idx].get_mut();
            if let Some((addr, mut image)) = ps.building.take() {
                save_segment(&self.handle, addr, &mut image)?;
            }
            let drained = ps.buffer.drain();
            save_evicted(&self.handle, drained)?;
        }
        // Every bucket must be resident to rewrite the tables. The table
        // region is copy-on-write: it is appended after the data and
        // `data_end` moves past it, so the previous generation of tables
        // stays readable until this flush's header write commits the new
        // one (crashes mid-flush recover against the old generation).
        let meta = self.meta.get_mut();
        load_all_buckets(&self.handle, meta)?;
        let num_buckets = meta.table.num_buckets();
        let dir_offset = meta.data_end;
        let dir_len = num_buckets as usize * DIR_ENTRY_LEN;
        let mut bucket_blobs = Vec::with_capacity(num_buckets as usize);
        let mut cursor = dir_offset + dir_len as u64;
        let mut directory_bytes_out = Vec::with_capacity(dir_len);
        for b in 0..num_buckets {
            let blob = meta.table.serialize_bucket(b);
            directory_bytes_out.extend_from_slice(&cursor.to_le_bytes());
            directory_bytes_out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            meta.directory[b as usize] = (cursor, blob.len() as u32);
            cursor += blob.len() as u64;
            bucket_blobs.push(blob);
        }
        self.handle.write(dir_offset, &directory_bytes_out)?;
        let mut offset = dir_offset + dir_len as u64;
        for blob in &bucket_blobs {
            self.handle.write(offset, blob)?;
            offset += blob.len() as u64;
        }
        meta.aux_bytes = offset - dir_offset;
        self.handle.truncate(offset)?;
        // Future appends go after the tables; commit via one header write.
        meta.data_end = offset;
        self.write_header_with_directory(dir_offset, dir_len as u32)?;
        self.handle.sync()?;
        self.meta.get_mut().dirty = false;
        Ok(())
    }

    /// Total size of the file in bytes (Table 1's "Mneme Size" column).
    pub fn file_size(&self) -> Result<u64> {
        Ok(self.handle.len()?)
    }

    /// Bytes of serialized location tables at the last flush.
    pub fn aux_table_bytes(&self) -> u64 {
        self.meta.read().aux_bytes
    }

    /// Payload bytes orphaned by updates/deletes since open.
    pub fn garbage_bytes(&self) -> u64 {
        self.meta.read().garbage_bytes
    }

    /// The storage handle backing this file.
    pub fn handle(&self) -> &FileHandle {
        &self.handle
    }

    /// Summary statistics of the file's current state.
    pub fn stats(&mut self) -> Result<FileStats> {
        let inventory = self.segment_inventory()?;
        let mut per_pool: Vec<PoolStats> = self
            .pool_ids()
            .into_iter()
            .map(|id| PoolStats { pool: id, segments: 0, live_objects: 0, payload_bytes: 0 })
            .collect();
        for (pool_id, addr) in inventory {
            let live = self.segment_live_objects(pool_id, addr)?;
            if let Some(ps) = per_pool.iter_mut().find(|p| p.pool == pool_id) {
                ps.segments += 1;
                ps.live_objects += live.len() as u64;
                ps.payload_bytes += live.iter().map(|(_, r)| r.len() as u64).sum::<u64>();
            }
        }
        let meta = self.meta.get_mut();
        Ok(FileStats {
            file_bytes: self.handle.len()?,
            aux_table_bytes: meta.aux_bytes,
            garbage_bytes: meta.garbage_bytes,
            pools: per_pool,
        })
    }

    /// Enumerates the ids of every live object. Loads all buckets and scans
    /// every physical segment — intended for validation and tests, not queries.
    pub fn live_object_ids(&mut self) -> Result<Vec<ObjectId>> {
        let segments = self.segment_inventory()?;
        let mut out = Vec::new();
        for (pool_id, addr) in segments {
            let pool_idx = self.pool_index(pool_id)?;
            let ps = self.pools[pool_idx].get_mut();
            let live = with_segment_read(&self.handle, &self.recorder, ps, addr, |pool, seg| {
                pool.live_objects(seg.bytes())
            })??;
            // An object relocated by update() is live in its new segment and
            // tombstoned in the old, so no dedup is needed — but an object
            // whose exception points elsewhere must not be double-counted if
            // the old copy was not tombstoned. delete()/update() always
            // tombstone, so simply collect.
            out.extend(live.into_iter().map(|(id, _)| id));
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

impl MnemeFile {
    /// Every `(pool, segment)` pair referenced by the location tables,
    /// deduplicated. Loads all buckets.
    pub(crate) fn segment_inventory(&mut self) -> Result<Vec<(PoolId, SegmentAddr)>> {
        let meta = self.meta.get_mut();
        load_all_buckets(&self.handle, meta)?;
        let mut out = Vec::new();
        for lseg in meta.table.loaded_lsegs() {
            let entry = meta.table.entry(lseg)?.expect("listed lseg exists");
            for addr in entry.segments() {
                out.push((entry.pool, addr));
            }
        }
        out.sort_unstable_by_key(|&(pool, addr)| (addr, pool));
        out.dedup();
        Ok(out)
    }

    /// The segment-kind byte of the segment at `addr`, straight from disk.
    pub(crate) fn segment_header_kind(
        &mut self,
        addr: SegmentAddr,
    ) -> Result<Option<crate::segment::SegmentKind>> {
        let byte = self.handle.read(addr.offset, 1)?;
        Ok(crate::segment::SegmentKind::from_u8(byte[0]))
    }

    /// The segment kind pool `pool` writes.
    pub(crate) fn pool_kind(&self, pool: PoolId) -> Result<crate::segment::SegmentKind> {
        let config =
            self.configs.iter().find(|c| c.id == pool).ok_or(MnemeError::NoSuchPool(pool))?;
        Ok(crate::validate::kind_of_config(&config.kind))
    }

    /// Live objects of the segment at `addr` (which belongs to `pool`).
    pub(crate) fn segment_live_objects(
        &mut self,
        pool: PoolId,
        addr: SegmentAddr,
    ) -> Result<Vec<(ObjectId, std::ops::Range<usize>)>> {
        let pool_idx = self.pool_index(pool)?;
        let ps = self.pools[pool_idx].get_mut();
        with_segment_read(&self.handle, &self.recorder, ps, addr, |p, seg| {
            p.live_objects(seg.bytes())
        })?
    }

    /// Where the tables place `id`, or `None` when unmapped.
    pub(crate) fn locate_for_validation(&mut self, id: ObjectId) -> Result<Option<SegmentAddr>> {
        let meta = self.meta.get_mut();
        ensure_bucket_loaded(&self.handle, meta, id.segment())?;
        Ok(meta.table.entry(id.segment())?.and_then(|e| e.segment_for(id.slot())))
    }

    /// Looks `id` up inside the specific segment at `addr`.
    pub(crate) fn locate_in_segment(
        &mut self,
        pool: PoolId,
        addr: SegmentAddr,
        id: ObjectId,
    ) -> Result<LocateResult> {
        let pool_idx = self.pool_index(pool)?;
        let ps = self.pools[pool_idx].get_mut();
        with_segment_read(&self.handle, &self.recorder, ps, addr, |p, seg| {
            p.locate(seg.bytes(), id)
        })
    }

    /// The head object of every run and every exception across all loaded
    /// logical segments — ids guaranteed to have been allocated.
    pub(crate) fn run_heads(&mut self) -> Result<Vec<(ObjectId, SegmentAddr)>> {
        let meta = self.meta.get_mut();
        load_all_buckets(&self.handle, meta)?;
        let mut out = Vec::new();
        for lseg in meta.table.loaded_lsegs() {
            let entry = meta.table.entry(lseg)?.expect("listed lseg exists");
            for &(slot, addr) in entry.runs().iter().chain(entry.exceptions()) {
                out.push((ObjectId::new(lseg, slot), addr));
            }
        }
        Ok(out)
    }
}

/// Bytes consumed by an on-disk directory of `num_buckets` entries.
fn directory_bytes(num_buckets: u32) -> u64 {
    num_buckets as u64 * DIR_ENTRY_LEN as u64
}

/// Per-pool occupancy summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// The pool.
    pub pool: PoolId,
    /// Physical segments the pool owns.
    pub segments: usize,
    /// Live objects in those segments.
    pub live_objects: u64,
    /// Total live payload bytes.
    pub payload_bytes: u64,
}

/// Whole-file occupancy summary (see [`MnemeFile::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStats {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Bytes of serialized location tables at the last flush.
    pub aux_table_bytes: u64,
    /// Payload bytes orphaned by updates/deletes since open.
    pub garbage_bytes: u64,
    /// Per-pool breakdown, in declaration order.
    pub pools: Vec<PoolStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use poir_storage::Device;

    fn packed_file(segment_size: u32) -> MnemeFile {
        let device = Device::with_defaults();
        MnemeFile::create(
            device.create_file(),
            &[PoolConfig {
                id: PoolId(0),
                kind: crate::pool::PoolKindConfig::Packed { segment_size },
            }],
            8,
        )
        .unwrap()
    }

    #[test]
    fn file_is_sync_for_shared_readers() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<MnemeFile>();
    }

    #[test]
    fn concurrent_shared_gets_see_consistent_data() {
        let mut file = packed_file(512);
        let payloads: Vec<Vec<u8>> = (0..80u8).map(|i| vec![i; 64]).collect();
        let ids: Vec<ObjectId> =
            payloads.iter().map(|p| file.create_object(PoolId(0), p).unwrap()).collect();
        file.flush().unwrap();
        file.attach_buffers_for_test();
        let file = &file;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..4usize {
                let ids = &ids;
                let payloads = &payloads;
                handles.push(scope.spawn(move || {
                    for round in 0..5 {
                        for i in (t..ids.len()).step_by(4) {
                            let got = file.get(ids[i]).unwrap();
                            assert_eq!(got, payloads[i], "thread {t} round {round}");
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    impl MnemeFile {
        fn attach_buffers_for_test(&mut self) {
            for id in self.pool_ids() {
                self.attach_buffer(id, Box::new(LruBuffer::new(32 * 1024))).unwrap();
            }
        }
    }

    fn huge_file() -> MnemeFile {
        let device = Device::with_defaults();
        MnemeFile::create(
            device.create_file(),
            &[PoolConfig { id: PoolId(0), kind: crate::pool::PoolKindConfig::SegmentPerObject }],
            8,
        )
        .unwrap()
    }

    #[test]
    fn get_range_on_packed_pool_declines() {
        let mut file = packed_file(512);
        let id = file.create_object(PoolId(0), b"small record").unwrap();
        assert_eq!(file.get_range(id, 0, 4).unwrap(), None);
    }

    #[test]
    fn get_range_slices_huge_objects() {
        let mut file = huge_file();
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let id = file.create_object(PoolId(0), &payload).unwrap();
        // Building-segment service, before any flush.
        assert_eq!(file.get_range(id, 0, 100).unwrap().unwrap(), &payload[..100]);
        file.flush().unwrap();
        file.attach_buffer(PoolId(0), Box::new(LruBuffer::new(0))).unwrap();
        // Opening read clamps to the requested prefix.
        assert_eq!(file.get_range(id, 0, 8192).unwrap().unwrap(), &payload[..8192]);
        // Continuation read lands mid-payload.
        assert_eq!(file.get_range(id, 10_000, 500).unwrap().unwrap(), &payload[10_000..10_500]);
        // Ranges past the end come back truncated, not padded.
        let tail = file.get_range(id, 39_900, 8192).unwrap().unwrap();
        assert_eq!(tail, &payload[39_900..]);
        // A range read of one block transfers fewer device blocks than a
        // whole-object fetch.
        let device = file.handle().device().clone();
        device.chill();
        let before = device.stats().snapshot();
        file.get_range(id, 16_384, 1024).unwrap().unwrap();
        let partial = device.stats().snapshot().since(&before);
        let before = device.stats().snapshot();
        file.get(id).unwrap();
        let whole = device.stats().snapshot().since(&before);
        assert!(
            partial.io_inputs < whole.io_inputs,
            "range read moved {} blocks, whole fetch {}",
            partial.io_inputs,
            whole.io_inputs
        );
    }

    #[test]
    fn get_range_reports_deleted_objects() {
        let mut file = huge_file();
        let payload = vec![7u8; 20_000];
        let id = file.create_object(PoolId(0), &payload).unwrap();
        file.flush().unwrap();
        file.delete(id).unwrap();
        file.flush().unwrap();
        assert!(matches!(file.get_range(id, 0, 64), Err(MnemeError::ObjectDeleted(_))));
    }
}
