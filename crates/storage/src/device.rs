//! The simulated I/O device: files + OS cache + accounting.
//!
//! A [`Device`] plays the role of the paper's evaluation platform. Every
//! read issued by an index backend is treated as one system call against the
//! simulated kernel: the request is counted, its bytes are counted, and each
//! 8 Kbyte block it touches either hits the simulated ULTRIX buffer cache or
//! is transferred from "disk" (incrementing the I/O-input counter that
//! `getrusage` reported on the real platform).
//!
//! Handles are cheap to clone and thread-safe; a single device is shared by
//! the dictionary, the B-tree file, and the Mneme files of one experiment so
//! the counters aggregate exactly like a process-wide `getrusage` call.

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use poir_telemetry::{Event, Recorder, TraceOp};

use crate::backend::{ByteStore, FileBackend, InMemoryBackend};
use crate::cache::OsCache;
use crate::cost::CostModel;
use crate::error::{Result, StorageError};
use crate::fault::{
    FaultKind, FaultOp, FaultPlan, FaultRule, FaultSchedule, FaultState, FaultStats,
};
use crate::stats::IoStats;
use crate::DEFAULT_BLOCK_SIZE;

/// Identifier of a file living on a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Construction-time parameters of a [`Device`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Disk transfer block size in bytes. The paper's platform moves 8 Kbyte
    /// blocks; changing this is only useful for ablation studies.
    pub block_size: usize,
    /// Capacity of the simulated operating-system buffer cache, in blocks.
    /// The default models a few Mbytes of ULTRIX buffer cache.
    pub os_cache_blocks: usize,
    /// Per-event costs used to convert counters into simulated time.
    pub cost_model: CostModel,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            // 512 blocks * 8 KB = 4 MB of kernel buffer cache.
            os_cache_blocks: 512,
            cost_model: CostModel::default(),
        }
    }
}

struct DeviceInner {
    files: Vec<Option<Box<dyn ByteStore>>>,
    cache: OsCache,
    /// Deterministic fault injection. `None` (the common case) costs one
    /// branch per operation; an installed [`FaultPlan`] is consulted on
    /// every read/write/sync before any accounting happens.
    faults: Option<Box<FaultState>>,
    /// Fault counters accumulated by plans that have since been cleared,
    /// so [`Device::fault_stats`] stays monotonic across installs.
    retired_fault_stats: FaultStats,
    /// Telemetry recorder, mirroring every [`IoStats`] update (plus
    /// OS-cache hit/miss events) so reports derived from telemetry match
    /// `IoSnapshot` deltas exactly. Disabled (no-op) by default.
    recorder: Recorder,
}

impl DeviceInner {
    /// Emits the trace slice for one fired fault ([`FaultStats`] counts it).
    fn note_fault(&mut self, file: FileId, bytes: u64) {
        self.recorder.trace(
            TraceOp::FaultInjected,
            file.0 as u64,
            None,
            bytes,
            std::time::Duration::ZERO,
        );
    }
}

/// Bytes of a read that survive a short-read fault: the prefix up to the
/// first block boundary, and always strictly less than the request.
fn short_read_len(offset: u64, len: usize, block: u64) -> usize {
    if len == 0 {
        return 0;
    }
    let first_boundary = (offset / block + 1) * block;
    let delivered = (first_boundary - offset) as usize;
    if delivered >= len {
        0
    } else {
        delivered
    }
}

/// Bytes of a write that survive a torn-write fault: the largest
/// block-aligned proper prefix (possibly empty).
fn torn_write_len(offset: u64, len: usize, block: u64) -> usize {
    if len == 0 {
        return 0;
    }
    let end = offset + len as u64;
    let last_boundary = (end - 1) / block * block;
    if last_boundary <= offset {
        0
    } else {
        (last_boundary - offset) as usize
    }
}

/// Reads a store's full content, for durable-image tracking.
fn snapshot_store(store: &mut dyn ByteStore) -> Vec<u8> {
    let len = store.len() as usize;
    let mut buf = vec![0u8; len];
    if len > 0 {
        let _ = store.read_at(0, &mut buf);
    }
    buf
}

/// Fires a power cut: rolls every file of the device back to its last
/// durable (synced) image, drops the stale OS cache, and poisons the
/// device until the fault plan is cleared. `current` is the file whose
/// store is temporarily checked out of the file table.
fn fire_power_cut(
    inner: &mut DeviceInner,
    current: FileId,
    store: &mut dyn ByteStore,
) -> StorageError {
    let images = {
        let fs = inner.faults.as_mut().expect("power cut fired without an installed plan");
        fs.poisoned = true;
        std::mem::take(&mut fs.durable)
    };
    for idx in 0..inner.files.len() {
        let image: &[u8] = images.get(idx).map(Vec::as_slice).unwrap_or(&[]);
        let target: &mut dyn ByteStore = if idx == current.0 as usize {
            &mut *store
        } else {
            match inner.files[idx].as_mut() {
                Some(s) => s.as_mut(),
                None => continue,
            }
        };
        // Restoration must not fail the simulation; a real power cut does
        // not report errors either.
        let _ = target.truncate(0);
        if !image.is_empty() {
            let _ = target.write_at(0, image);
        }
    }
    if let Some(fs) = inner.faults.as_mut() {
        fs.durable = images;
    }
    inner.cache.clear();
    StorageError::Poisoned
}

/// A simulated disk plus operating-system cache.
///
/// ```
/// use poir_storage::Device;
/// let device = Device::with_defaults();
/// let file = device.create_file();
/// file.write(0, b"hello").unwrap();
/// device.chill(); // purge the simulated OS cache (the paper's chill file)
/// assert_eq!(file.read(0, 5).unwrap(), b"hello");
/// assert_eq!(device.stats().io_inputs(), 1, "one 8 KB block came from disk");
/// ```
pub struct Device {
    inner: Mutex<DeviceInner>,
    stats: Arc<IoStats>,
    config: DeviceConfig,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("block_size", &self.config.block_size)
            .field("os_cache_blocks", &self.config.os_cache_blocks)
            .finish_non_exhaustive()
    }
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Arc<Self> {
        assert!(config.block_size > 0, "block size must be positive");
        Arc::new(Device {
            inner: Mutex::new(DeviceInner {
                files: Vec::new(),
                cache: OsCache::new(config.os_cache_blocks),
                faults: None,
                retired_fault_stats: FaultStats::default(),
                recorder: Recorder::disabled(),
            }),
            stats: Arc::new(IoStats::new()),
            config,
        })
    }

    /// Creates a device with the default (paper-platform) configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(DeviceConfig::default())
    }

    /// The shared I/O counters for this device.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> CostModel {
        self.config.cost_model
    }

    /// The device's transfer block size.
    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    /// OS-cache hit/miss counts `(hits, misses)` so far.
    pub fn os_cache_counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.cache.hits(), inner.cache.misses())
    }

    /// Attaches a telemetry recorder. Every subsequent `IoStats` update is
    /// mirrored into it at the same call site, alongside per-block OS-cache
    /// hit/miss events.
    pub fn attach_recorder(&self, recorder: Recorder) {
        self.inner.lock().recorder = recorder;
    }

    /// A clone of the currently attached telemetry recorder (disabled
    /// unless one was attached).
    pub fn recorder(&self) -> Recorder {
        self.inner.lock().recorder.clone()
    }

    /// Creates a new, empty in-memory file.
    pub fn create_file(self: &Arc<Self>) -> FileHandle {
        self.register(Box::new(InMemoryBackend::new()))
    }

    /// Creates (or opens) a file backed by the real file at `path`.
    pub fn create_file_at(self: &Arc<Self>, path: &Path) -> Result<FileHandle> {
        Ok(self.register(Box::new(FileBackend::open(path)?)))
    }

    fn register(self: &Arc<Self>, mut store: Box<dyn ByteStore>) -> FileHandle {
        let mut inner = self.inner.lock();
        let id = FileId(inner.files.len() as u32);
        // A file registered while a power-cut rule is armed contributes its
        // current content as the durable image: data that existed before
        // the simulated machine came up survives the cut.
        let image = match inner.faults.as_ref() {
            Some(fs) if fs.track_durable => Some(snapshot_store(store.as_mut())),
            _ => None,
        };
        if let (Some(image), Some(fs)) = (image, inner.faults.as_mut()) {
            fs.durable.push(image);
        }
        inner.files.push(Some(store));
        FileHandle { device: Arc::clone(self), id }
    }

    /// Purges the simulated OS buffer cache — equivalent to the paper's
    /// 32 Mbyte "chill file" read between runs.
    pub fn chill(&self) {
        self.inner.lock().cache.clear();
    }

    /// Installs a deterministic fault-injection plan, replacing any
    /// previous one. When the plan contains a [`FaultKind::PowerCut`]
    /// rule, the current content of every file is captured as its durable
    /// image (refreshed on each successful `sync`), so a fired cut can
    /// roll the device back to exactly what a real disk would have kept.
    ///
    /// Fault counters accumulate across installs; see
    /// [`Device::fault_stats`].
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let mut inner = self.inner.lock();
        let prior = inner.faults.take().map(|f| f.stats()).unwrap_or(inner.retired_fault_stats);
        let mut state = FaultState::new(plan, prior);
        if state.track_durable {
            let mut images = Vec::with_capacity(inner.files.len());
            for slot in inner.files.iter_mut() {
                images.push(match slot {
                    Some(store) => snapshot_store(store.as_mut()),
                    None => Vec::new(),
                });
            }
            state.durable = images;
        }
        inner.retired_fault_stats = prior;
        inner.faults = Some(Box::new(state));
    }

    /// Removes the installed fault plan (if any) and un-poisons the
    /// device. Counters already accumulated stay visible through
    /// [`Device::fault_stats`].
    pub fn clear_fault_plan(&self) {
        let mut inner = self.inner.lock();
        if let Some(state) = inner.faults.take() {
            inner.retired_fault_stats = state.stats();
        }
    }

    /// Lifetime fault-injection counters (across every plan ever
    /// installed on this device).
    pub fn fault_stats(&self) -> FaultStats {
        let inner = self.inner.lock();
        inner.faults.as_ref().map(|f| f.stats()).unwrap_or(inner.retired_fault_stats)
    }

    /// After `reads` further read system calls, every read fails with
    /// [`StorageError::InjectedFault`]. Pass `None` to disarm.
    ///
    /// Deprecated: thin shim over [`Device::install_fault_plan`] kept for
    /// older tests; new code should install a [`FaultPlan`] (which can
    /// also scope the fault to one file, schedule it from a seed, or pick
    /// a different fault kind). Calling this replaces any installed plan.
    pub fn inject_read_fault_after(&self, reads: Option<u64>) {
        match reads {
            Some(n) => self.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
                FaultOp::Read,
                FaultKind::Eio,
                FaultSchedule::AfterOps { skip: n },
            ))),
            None => self.clear_fault_plan(),
        }
    }

    fn with_file<R>(
        &self,
        id: FileId,
        f: impl FnOnce(&mut DeviceInner, &mut Box<dyn ByteStore>) -> Result<R>,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        // Temporarily take the store out so we can pass &mut DeviceInner too.
        let mut store = inner
            .files
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(StorageError::UnknownFile(id.0))?;
        let result = f(&mut inner, &mut store);
        inner.files[id.0 as usize] = Some(store);
        result
    }

    fn read_at(&self, id: FileId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let block = self.config.block_size as u64;
        let mut panic_pending = false;
        let result = self.with_file(id, |inner, store| {
            // Fault gate first, before any accounting: a faulted operation
            // is not a completed system call.
            if inner.faults.is_some() {
                let decision = {
                    let fs = inner.faults.as_mut().expect("checked is_some");
                    if fs.poisoned {
                        return Err(StorageError::Poisoned);
                    }
                    fs.decide(id, FaultOp::Read)
                };
                if let Some(kind) = decision {
                    inner.note_fault(id, buf.len() as u64);
                    return Err(match kind {
                        FaultKind::Eio | FaultKind::TornWrite => StorageError::InjectedFault,
                        FaultKind::ShortRead => {
                            let delivered = short_read_len(offset, buf.len(), block);
                            if delivered > 0 {
                                store.read_at(offset, &mut buf[..delivered])?;
                            }
                            StorageError::ShortRead {
                                requested: buf.len() as u64,
                                delivered: delivered as u64,
                            }
                        }
                        FaultKind::PowerCut => fire_power_cut(inner, id, store.as_mut()),
                        FaultKind::Panic => {
                            panic_pending = true;
                            StorageError::InjectedFault
                        }
                    });
                }
            }
            let traced = inner.recorder.trace_start();
            self.stats.record_read(buf.len() as u64);
            inner.recorder.incr(Event::FileAccess);
            inner.recorder.add(Event::BytesRead, buf.len() as u64);
            if !buf.is_empty() {
                let first = offset / block;
                let last = (offset + buf.len() as u64 - 1) / block;
                let mut disk_blocks = 0;
                for b in first..=last {
                    if !inner.cache.access((id.0, b)) {
                        disk_blocks += 1;
                        inner.cache.insert((id.0, b));
                    }
                }
                if disk_blocks > 0 {
                    self.stats.record_io_inputs(disk_blocks);
                }
                inner.recorder.add(Event::OsCacheHit, (last - first + 1) - disk_blocks);
                inner.recorder.add(Event::OsCacheMiss, disk_blocks);
                inner.recorder.add(Event::IoInput, disk_blocks);
            }
            let result = store.read_at(offset, buf);
            inner.recorder.trace_end(traced, TraceOp::DeviceRead, offset, None, buf.len() as u64);
            result
        });
        if panic_pending {
            panic!("injected panic fault (poir-storage failpoint)");
        }
        result
    }

    fn read_at_vectored(&self, id: FileId, ranges: &[(u64, u32)]) -> Result<Vec<Vec<u8>>> {
        let block = self.config.block_size as u64;
        let mut panic_pending = false;
        let result = self.with_file(id, |inner, store| {
            if inner.faults.is_some() {
                let decision = {
                    let fs = inner.faults.as_mut().expect("checked is_some");
                    if fs.poisoned {
                        return Err(StorageError::Poisoned);
                    }
                    fs.decide(id, FaultOp::Read)
                };
                if let Some(kind) = decision {
                    let total: u64 = ranges.iter().map(|&(_, len)| len as u64).sum();
                    inner.note_fault(id, total);
                    return Err(match kind {
                        FaultKind::Eio | FaultKind::TornWrite => StorageError::InjectedFault,
                        // A gathered read delivers all ranges or none; a
                        // short read on it delivers none.
                        FaultKind::ShortRead => {
                            StorageError::ShortRead { requested: total, delivered: 0 }
                        }
                        FaultKind::PowerCut => fire_power_cut(inner, id, store.as_mut()),
                        FaultKind::Panic => {
                            panic_pending = true;
                            StorageError::InjectedFault
                        }
                    });
                }
            }
            // One gathered system call, like preadv: a single file access
            // whose byte count is the sum of all requested ranges.
            let traced = inner.recorder.trace_start();
            let total: u64 = ranges.iter().map(|&(_, len)| len as u64).sum();
            self.stats.record_read(total);
            inner.recorder.incr(Event::FileAccess);
            inner.recorder.add(Event::BytesRead, total);
            let mut disk_blocks = 0;
            let mut touched = 0;
            for &(offset, len) in ranges {
                if len == 0 {
                    continue;
                }
                let first = offset / block;
                let last = (offset + len as u64 - 1) / block;
                touched += last - first + 1;
                for b in first..=last {
                    if !inner.cache.access((id.0, b)) {
                        disk_blocks += 1;
                        inner.cache.insert((id.0, b));
                    }
                }
            }
            if disk_blocks > 0 {
                self.stats.record_io_inputs(disk_blocks);
            }
            inner.recorder.add(Event::OsCacheHit, touched - disk_blocks);
            inner.recorder.add(Event::OsCacheMiss, disk_blocks);
            inner.recorder.add(Event::IoInput, disk_blocks);
            let mut out = Vec::with_capacity(ranges.len());
            for &(offset, len) in ranges {
                let mut buf = vec![0u8; len as usize];
                store.read_at(offset, &mut buf)?;
                out.push(buf);
            }
            let start = ranges.first().map_or(0, |&(offset, _)| offset);
            inner.recorder.trace_end(traced, TraceOp::DeviceRead, start, None, total);
            Ok(out)
        });
        if panic_pending {
            panic!("injected panic fault (poir-storage failpoint)");
        }
        result
    }

    fn write_at(&self, id: FileId, offset: u64, data: &[u8]) -> Result<()> {
        let block = self.config.block_size as u64;
        let mut panic_pending = false;
        let result = self.with_file(id, |inner, store| {
            if inner.faults.is_some() {
                let decision = {
                    let fs = inner.faults.as_mut().expect("checked is_some");
                    if fs.poisoned {
                        return Err(StorageError::Poisoned);
                    }
                    fs.decide(id, FaultOp::Write)
                };
                if let Some(kind) = decision {
                    inner.note_fault(id, data.len() as u64);
                    return Err(match kind {
                        FaultKind::Eio | FaultKind::ShortRead => StorageError::InjectedFault,
                        FaultKind::TornWrite => {
                            let written = torn_write_len(offset, data.len(), block);
                            if written > 0 {
                                store.write_at(offset, &data[..written])?;
                            }
                            StorageError::TornWrite {
                                requested: data.len() as u64,
                                written: written as u64,
                            }
                        }
                        FaultKind::PowerCut => fire_power_cut(inner, id, store.as_mut()),
                        FaultKind::Panic => {
                            panic_pending = true;
                            StorageError::InjectedFault
                        }
                    });
                }
            }
            let traced = inner.recorder.trace_start();
            self.stats.record_write(data.len() as u64);
            inner.recorder.incr(Event::FileWrite);
            inner.recorder.add(Event::BytesWritten, data.len() as u64);
            if !data.is_empty() {
                let first = offset / block;
                let last = (offset + data.len() as u64 - 1) / block;
                self.stats.record_io_outputs(last - first + 1);
                inner.recorder.add(Event::IoOutput, last - first + 1);
                // A UNIX buffer cache keeps written blocks resident.
                for b in first..=last {
                    inner.cache.insert((id.0, b));
                }
            }
            let result = store.write_at(offset, data);
            inner.recorder.trace_end(traced, TraceOp::DeviceWrite, offset, None, data.len() as u64);
            result
        });
        if panic_pending {
            panic!("injected panic fault (poir-storage failpoint)");
        }
        result
    }

    fn len(&self, id: FileId) -> Result<u64> {
        self.with_file(id, |_, store| Ok(store.len()))
    }

    fn truncate(&self, id: FileId, len: u64) -> Result<()> {
        let block = self.config.block_size as u64;
        self.with_file(id, |inner, store| {
            if inner.faults.as_ref().is_some_and(|f| f.poisoned) {
                return Err(StorageError::Poisoned);
            }
            let old_len = store.len();
            store.truncate(len)?;
            if len < old_len {
                let first_dead = len / block;
                let last_dead = old_len.saturating_sub(1) / block;
                for b in first_dead..=last_dead {
                    inner.cache.invalidate((id.0, b));
                }
            }
            Ok(())
        })
    }

    fn sync(&self, id: FileId) -> Result<()> {
        let mut panic_pending = false;
        let result = self.with_file(id, |inner, store| {
            if inner.faults.is_some() {
                let decision = {
                    let fs = inner.faults.as_mut().expect("checked is_some");
                    if fs.poisoned {
                        return Err(StorageError::Poisoned);
                    }
                    fs.decide(id, FaultOp::Sync)
                };
                if let Some(kind) = decision {
                    inner.note_fault(id, 0);
                    return Err(match kind {
                        FaultKind::Eio | FaultKind::ShortRead | FaultKind::TornWrite => {
                            StorageError::InjectedFault
                        }
                        FaultKind::PowerCut => fire_power_cut(inner, id, store.as_mut()),
                        FaultKind::Panic => {
                            panic_pending = true;
                            StorageError::InjectedFault
                        }
                    });
                }
            }
            store.sync()?;
            // A completed sync is the durability barrier the power-cut
            // model rolls back to: refresh this file's durable image.
            if inner.faults.as_ref().is_some_and(|f| f.track_durable) {
                let image = snapshot_store(store.as_mut());
                let fs = inner.faults.as_mut().expect("checked is_some");
                let idx = id.0 as usize;
                if fs.durable.len() <= idx {
                    fs.durable.resize_with(idx + 1, Vec::new);
                }
                fs.durable[idx] = image;
            }
            Ok(())
        });
        if panic_pending {
            panic!("injected panic fault (poir-storage failpoint)");
        }
        result
    }
}

/// A handle to one file on a [`Device`]. Clones share the same file.
#[derive(Debug, Clone)]
pub struct FileHandle {
    device: Arc<Device>,
    id: FileId,
}

impl FileHandle {
    /// The id of this file on its device.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// The device this file lives on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Current length of the file in bytes.
    pub fn len(&self) -> Result<u64> {
        self.device.len(self.id)
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Reads exactly `buf.len()` bytes starting at `offset`.
    ///
    /// Counts as one file access (system call) regardless of length.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.device.read_at(self.id, offset, buf)
    }

    /// Reads `len` bytes starting at `offset` into a fresh vector.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// Reads a contiguous run of `lens.len()` adjacent chunks starting at
    /// `start` in one system call, returning one buffer per chunk.
    ///
    /// This is the coalesced-batch primitive: a run of physically adjacent
    /// segments is transferred with a single file access instead of one
    /// access per segment.
    pub fn read_run(&self, start: u64, lens: &[u32]) -> Result<Vec<Vec<u8>>> {
        let mut ranges = Vec::with_capacity(lens.len());
        let mut offset = start;
        for &len in lens {
            ranges.push((offset, len));
            offset += len as u64;
        }
        self.device.read_at_vectored(self.id, &ranges)
    }

    /// Writes `data` at `offset`, extending the file if needed.
    ///
    /// Counts as one write system call.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.device.write_at(self.id, offset, data)
    }

    /// Appends `data` at the end of the file, returning the offset it was
    /// written at.
    pub fn append(&self, data: &[u8]) -> Result<u64> {
        let offset = self.len()?;
        self.write(offset, data)?;
        Ok(offset)
    }

    /// Shrinks or extends the file to exactly `len` bytes.
    pub fn truncate(&self, len: u64) -> Result<()> {
        self.device.truncate(self.id, len)
    }

    /// Forces the file to durable storage.
    pub fn sync(&self) -> Result<()> {
        self.device.sync(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device() -> Arc<Device> {
        Device::new(DeviceConfig {
            block_size: 16,
            os_cache_blocks: 4,
            cost_model: CostModel::free(),
        })
    }

    #[test]
    fn read_counts_one_syscall_and_blocks() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[7u8; 64]).unwrap();
        let before = dev.stats().snapshot();
        let data = f.read(0, 40).unwrap(); // spans blocks 0..=2
        assert_eq!(data, vec![7u8; 40]);
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.file_accesses, 1);
        assert_eq!(d.bytes_read, 40);
        // Blocks were cached by the write, so no disk inputs.
        assert_eq!(d.io_inputs, 0);
    }

    #[test]
    fn chill_forces_disk_transfers() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[1u8; 64]).unwrap();
        dev.chill();
        let before = dev.stats().snapshot();
        f.read(0, 40).unwrap();
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.io_inputs, 3, "blocks 0,1,2 must come from disk after chill");
        // A second read of the same range is now cache-resident.
        let before = dev.stats().snapshot();
        f.read(0, 40).unwrap();
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.io_inputs, 0);
    }

    #[test]
    fn cache_capacity_bounds_residency() {
        let dev = small_device(); // 4-block cache
        let f = dev.create_file();
        f.write(0, &[2u8; 160]).unwrap(); // 10 blocks
        dev.chill();
        f.read(0, 160).unwrap(); // brings in 10 blocks; only last 4 stay
        let before = dev.stats().snapshot();
        f.read(0, 16).unwrap(); // block 0 was evicted
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.io_inputs, 1);
        let before = dev.stats().snapshot();
        f.read(144, 16).unwrap(); // block 9... evicted by block 0 reload? LRU order: 7,8,9,0
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.io_inputs, 0, "block 9 should still be resident");
    }

    #[test]
    fn writes_count_outputs_and_populate_cache() {
        let dev = small_device();
        let f = dev.create_file();
        let before = dev.stats().snapshot();
        f.write(0, &[3u8; 33]).unwrap(); // blocks 0..=2
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.file_writes, 1);
        assert_eq!(d.bytes_written, 33);
        assert_eq!(d.io_outputs, 3);
        let before = dev.stats().snapshot();
        f.read(0, 33).unwrap();
        assert_eq!(dev.stats().snapshot().since(&before).io_inputs, 0);
    }

    #[test]
    fn append_returns_old_end() {
        let dev = small_device();
        let f = dev.create_file();
        assert_eq!(f.append(b"abc").unwrap(), 0);
        assert_eq!(f.append(b"def").unwrap(), 3);
        assert_eq!(f.read(0, 6).unwrap(), b"abcdef");
        assert_eq!(f.len().unwrap(), 6);
        assert!(!f.is_empty().unwrap());
    }

    #[test]
    fn handles_are_independent_files() {
        let dev = small_device();
        let a = dev.create_file();
        let b = dev.create_file();
        assert_ne!(a.id(), b.id());
        a.write(0, b"aaaa").unwrap();
        b.write(0, b"bb").unwrap();
        assert_eq!(a.len().unwrap(), 4);
        assert_eq!(b.len().unwrap(), 2);
    }

    #[test]
    fn truncate_invalidates_dead_blocks() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[5u8; 64]).unwrap();
        f.truncate(10).unwrap();
        assert_eq!(f.len().unwrap(), 10);
        // Growing again zero-fills.
        f.truncate(20).unwrap();
        let tail = f.read(10, 10).unwrap();
        assert_eq!(tail, vec![0u8; 10]);
    }

    #[test]
    fn injected_fault_fires_after_budget() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[9u8; 32]).unwrap();
        dev.inject_read_fault_after(Some(2));
        assert!(f.read(0, 4).is_ok());
        assert!(f.read(0, 4).is_ok());
        assert!(matches!(f.read(0, 4), Err(StorageError::InjectedFault)));
        dev.inject_read_fault_after(None);
        assert!(f.read(0, 4).is_ok());
    }

    #[test]
    fn short_read_fault_delivers_block_prefix() {
        let dev = small_device(); // 16-byte blocks
        let f = dev.create_file();
        f.write(0, &(0u8..64).collect::<Vec<_>>()).unwrap();
        dev.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::ShortRead,
            FaultSchedule::Nth { n: 0 },
        )));
        let mut buf = [0xFFu8; 40];
        // Read starting at 8: the first block boundary is 16, so 8 bytes arrive.
        let err = dev.read_at(f.id(), 8, &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::ShortRead { requested: 40, delivered: 8 }));
        assert_eq!(&buf[..8], &(8u8..16).collect::<Vec<_>>()[..]);
        assert_eq!(buf[8], 0xFF, "bytes past the cut must be untouched");
        // The rule fired once; subsequent reads succeed.
        assert!(f.read(0, 4).is_ok());
        assert_eq!(dev.fault_stats().short_reads, 1);
    }

    #[test]
    fn torn_write_fault_applies_aligned_prefix() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[0u8; 64]).unwrap();
        dev.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::TornWrite,
            FaultSchedule::Nth { n: 0 },
        )));
        // Write 8..40 (spans boundary at 16 and 32): prefix up to 32 survives.
        let err = f.write(8, &[9u8; 32]).unwrap_err();
        assert!(matches!(err, StorageError::TornWrite { requested: 32, written: 24 }));
        let data = f.read(0, 64).unwrap();
        assert_eq!(&data[8..32], &[9u8; 24][..]);
        assert_eq!(&data[32..40], &[0u8; 8][..], "torn-off suffix never hit the file");
        assert_eq!(dev.fault_stats().torn_writes, 1);
    }

    #[test]
    fn power_cut_drops_unsynced_writes_and_poisons() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, b"durable!").unwrap();
        f.sync().unwrap();
        dev.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::PowerCut,
            FaultSchedule::Nth { n: 1 },
        )));
        f.write(8, b"volatile").unwrap(); // survives until the cut fires
        let err = f.write(16, b"never").unwrap_err();
        assert!(matches!(err, StorageError::Poisoned));
        // Every further data operation fails until the plan is cleared.
        assert!(matches!(f.read(0, 4), Err(StorageError::Poisoned)));
        assert!(matches!(f.sync(), Err(StorageError::Poisoned)));
        assert!(matches!(f.truncate(0), Err(StorageError::Poisoned)));
        dev.clear_fault_plan();
        // Only the synced image survived the cut.
        assert_eq!(f.len().unwrap(), 8);
        assert_eq!(f.read(0, 8).unwrap(), b"durable!");
        assert_eq!(dev.fault_stats().power_cuts, 1);
    }

    #[test]
    fn sync_refreshes_the_durable_image() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, b"first").unwrap();
        dev.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::PowerCut,
            FaultSchedule::Nth { n: 0 },
        )));
        // Content at install time is the initial durable image; a sync
        // while the plan is armed moves the image forward.
        f.write(5, b" second").unwrap();
        f.sync().unwrap();
        f.write(12, b" third").unwrap();
        assert!(matches!(f.read(0, 1), Err(StorageError::Poisoned)));
        dev.clear_fault_plan();
        assert_eq!(f.read(0, 12).unwrap(), b"first second");
        assert_eq!(f.len().unwrap(), 12, "post-sync write was dropped");
    }

    #[test]
    fn panic_fault_panics_without_wedging_the_device() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[1u8; 16]).unwrap();
        dev.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::Panic,
            FaultSchedule::Nth { n: 0 },
        )));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = f.read(0, 4);
        }));
        assert!(caught.is_err(), "the injected panic must propagate");
        // The file table was restored before the panic: the device works.
        assert_eq!(f.read(0, 4).unwrap(), vec![1u8; 4]);
        assert_eq!(dev.fault_stats().panics, 1);
    }

    #[test]
    fn seeded_chaos_is_replayable_end_to_end() {
        let run = |seed: u64| -> Vec<bool> {
            let dev = small_device();
            let f = dev.create_file();
            f.write(0, &[3u8; 64]).unwrap();
            dev.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
                FaultOp::Read,
                FaultKind::Eio,
                FaultSchedule::Seeded { seed, per_mille: 300 },
            )));
            (0..100).map(|_| f.read(0, 8).is_err()).collect()
        };
        assert_eq!(run(7), run(7), "identical (seed, plan) replays identically");
        assert_ne!(run(7), run(8), "different seeds explore different schedules");
    }

    #[test]
    fn fault_stats_survive_plan_clears() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[0u8; 16]).unwrap();
        dev.inject_read_fault_after(Some(0));
        assert!(f.read(0, 4).is_err());
        dev.inject_read_fault_after(None);
        assert_eq!(dev.fault_stats().eio, 1);
        dev.inject_read_fault_after(Some(0));
        assert!(f.read(0, 4).is_err());
        dev.clear_fault_plan();
        assert_eq!(dev.fault_stats().eio, 2, "counters accumulate across plans");
        assert_eq!(dev.fault_stats().total_fired(), 2);
    }

    #[test]
    fn read_run_counts_one_syscall() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &(0u8..=255).collect::<Vec<_>>()).unwrap();
        dev.chill();
        let before = dev.stats().snapshot();
        let parts = f.read_run(16, &[16, 8, 24]).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], (16u8..32).collect::<Vec<_>>());
        assert_eq!(parts[1], (32u8..40).collect::<Vec<_>>());
        assert_eq!(parts[2], (40u8..64).collect::<Vec<_>>());
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.file_accesses, 1, "a run is one gathered system call");
        assert_eq!(d.bytes_read, 48);
        assert_eq!(d.io_inputs, 3, "bytes 16..64 span blocks 1,2,3");
        // Re-reading the same run hits the OS cache entirely.
        let before = dev.stats().snapshot();
        f.read_run(16, &[16, 8, 24]).unwrap();
        let d = dev.stats().snapshot().since(&before);
        assert_eq!((d.file_accesses, d.io_inputs), (1, 0));
    }

    #[test]
    fn read_vectored_respects_fault_injection() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, &[1u8; 64]).unwrap();
        dev.inject_read_fault_after(Some(1));
        assert!(f.read_run(0, &[16, 16]).is_ok());
        assert!(matches!(f.read_run(0, &[16, 16]), Err(StorageError::InjectedFault)));
    }

    #[test]
    fn unknown_file_is_reported() {
        let dev = small_device();
        let f = dev.create_file();
        // Forge a handle with a bad id by creating on another device.
        let other = small_device();
        let g = other.create_file();
        other.create_file();
        drop(g);
        // Read past end of existing file reports OutOfBounds not panic.
        assert!(matches!(f.read(100, 4), Err(StorageError::OutOfBounds { .. })));
    }

    #[test]
    fn empty_read_is_a_syscall_but_no_blocks() {
        let dev = small_device();
        let f = dev.create_file();
        f.write(0, b"x").unwrap();
        let before = dev.stats().snapshot();
        let v = f.read(0, 0).unwrap();
        assert!(v.is_empty());
        let d = dev.stats().snapshot().since(&before);
        assert_eq!(d.file_accesses, 1);
        assert_eq!(d.io_inputs, 0);
    }
}
