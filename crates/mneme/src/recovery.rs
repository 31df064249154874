//! Write-ahead redo logging — the paper's future-work durability service.
//!
//! "The current version of Mneme is a prototype and does not provide all of
//! the services one might expect from a mature data management system, such
//! as concurrency control and transaction support. ... We expect that the
//! addition of these services would not introduce excessive overhead or
//! change the results reported above. For future work we plan to implement
//! some of the standard data management services not currently provided by
//! Mneme and verify the above claim." (Section 6)
//!
//! [`RecoverableFile`] wraps a [`MnemeFile`] and logs every mutation to a
//! separate redo log *before* applying it. A [`RecoverableFile::checkpoint`]
//! flushes the data file and truncates the log; after a crash,
//! [`RecoverableFile::recover`] reopens the data file (whose on-disk state
//! is the last checkpoint) and replays the log. Torn tail records are
//! detected by a per-record checksum and discarded.
//!
//! The `ablation_recovery` bench measures the overhead of logging on the
//! paper's read-dominated workload, validating the "no excessive overhead"
//! claim: lookups never touch the log.

use poir_storage::{FileHandle, RecordBytes};

use crate::error::{MnemeError, Result};
use crate::file::MnemeFile;
use crate::id::{ObjectId, PoolId};

const OP_CREATE: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;

/// FNV-1a, used as the log record checksum (self-contained; no external
/// dependency).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// A Mneme file with write-ahead redo logging.
pub struct RecoverableFile {
    inner: MnemeFile,
    log: FileHandle,
    log_end: u64,
}

impl RecoverableFile {
    /// Wraps a fresh or checkpoint-consistent file with an empty log.
    pub fn new(inner: MnemeFile, log: FileHandle) -> Result<Self> {
        log.truncate(0)?;
        Ok(RecoverableFile { inner, log, log_end: 0 })
    }

    /// Reopens `data` (at its last checkpoint) and replays the redo log,
    /// reproducing every mutation that was logged after that checkpoint.
    /// Replay stops at the first torn or corrupt record.
    ///
    /// Replay is **idempotent** and **self-correcting**. Two kinds of
    /// already-applied state can greet a replayed record:
    ///
    /// * a crash between [`Self::checkpoint`]'s data flush and its log
    ///   truncation leaves the data file at the *new* checkpoint with the
    ///   full log still present — every record is already durable;
    /// * dirty-segment evictions between checkpoints write mutated
    ///   segment images back over their checkpointed bytes, so individual
    ///   objects can be *ahead* of the checkpoint (updated in place, or
    ///   tombstoned by a relocation or delete that ran after the
    ///   checkpoint).
    ///
    /// Both are safe because every mutation syncs its log record before
    /// touching the data file (see `append_record`): any leaked
    /// data write is covered by a durable log record, so replaying the
    /// surviving log always revisits every leaked object. Each record
    /// classifies the object's current state and forces it to the logged
    /// payload — resurrecting spuriously-tombstoned objects — so the
    /// recovered file is exactly the state at the last durable record.
    pub fn recover(data: FileHandle, log: FileHandle) -> Result<Self> {
        let mut inner = MnemeFile::open(data)?;
        let log_len = log.len()?;
        let mut pos = 0u64;
        while pos < log_len {
            let Some((record, next)) = read_record(&log, pos, log_len)? else { break };
            match record {
                Record::Create { pool, id, data } => match probe(&inner, id)? {
                    // Already created by a flushed-but-unacknowledged
                    // checkpoint; rewrite so the payload tracks the log
                    // (a later logged update will move it forward again).
                    Probe::Live => inner.update(id, &data)?,
                    // Either the create *and* a later delete are already
                    // durable, or a post-checkpoint tombstone leaked into
                    // the checkpointed segment. Indistinguishable — force
                    // the logged payload back; if a delete truly follows,
                    // its own record re-deletes downstream.
                    Probe::Deleted => inner.resurrect(id, &data)?,
                    Probe::Absent => {
                        if inner.next_id_hint(pool)? != Some(id) {
                            inner.force_allocation_cursor(pool, id)?;
                        }
                        let created = inner.create_object(pool, &data)?;
                        if created != id {
                            return Err(MnemeError::Corrupt(format!(
                                "replay allocated {created:?}, log says {id:?}"
                            )));
                        }
                    }
                },
                Record::Update { id, data } => match probe(&inner, id)? {
                    Probe::Live => inner.update(id, &data)?,
                    // A later logged delete already reached the data file,
                    // or a leaked tombstone shadows the object; either way
                    // the log is authoritative from here on.
                    Probe::Deleted => inner.resurrect(id, &data)?,
                    Probe::Absent => {
                        return Err(MnemeError::Corrupt(format!(
                            "log updates {id:?}, which the data file never saw"
                        )))
                    }
                },
                Record::Delete { id } => match probe(&inner, id)? {
                    Probe::Live => inner.delete(id)?,
                    Probe::Deleted => {}
                    Probe::Absent => {
                        return Err(MnemeError::Corrupt(format!(
                            "log deletes {id:?}, which the data file never saw"
                        )))
                    }
                },
            }
            pos = next;
        }
        // The replayed tail becomes durable at the next checkpoint; keep the
        // log as-is so a crash during recovery is harmless.
        Ok(RecoverableFile { inner, log, log_end: pos })
    }

    /// Read access to the wrapped file (reads are not logged).
    pub fn file(&mut self) -> &mut MnemeFile {
        &mut self.inner
    }

    /// Appends one record and syncs the log — the write-ahead rule. The
    /// sync must land *before* the mutation touches the data file: applying
    /// an op can evict dirty segments, overwriting checkpointed bytes in
    /// place, and [`Self::recover`] can only repair such leaks for ops
    /// whose log records survived the crash.
    fn append_record(&mut self, op: u8, pool: u8, id: u32, data: &[u8]) -> Result<()> {
        let mut rec = Vec::with_capacity(14 + data.len());
        rec.push(op);
        rec.push(pool);
        rec.extend_from_slice(&id.to_le_bytes());
        rec.extend_from_slice(&(data.len() as u32).to_le_bytes());
        rec.extend_from_slice(data);
        let sum = fnv1a(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        self.log.write(self.log_end, &rec)?;
        self.log.sync()?;
        self.log_end += rec.len() as u64;
        Ok(())
    }

    /// Creates an object, logging it first.
    pub fn create_object(&mut self, pool: PoolId, data: &[u8]) -> Result<ObjectId> {
        // The id the create will be assigned is deterministic; log it before
        // applying so the log always leads the data file.
        let hint = self.inner.next_id_hint(pool)?;
        match hint {
            Some(id) => {
                self.append_record(OP_CREATE, pool.0, id.raw(), data)?;
                let created = self.inner.create_object(pool, data)?;
                debug_assert_eq!(created, id);
                Ok(created)
            }
            None => {
                // A fresh logical segment will be allocated; create first,
                // then log the assigned id, then make the log durable before
                // acknowledging. (The data write is idempotent on replay.)
                let created = self.inner.create_object(pool, data)?;
                self.append_record(OP_CREATE, pool.0, created.raw(), data)?;
                Ok(created)
            }
        }
    }

    /// Updates an object, logging it first.
    pub fn update(&mut self, id: ObjectId, data: &[u8]) -> Result<()> {
        self.append_record(OP_UPDATE, 0, id.raw(), data)?;
        self.inner.update(id, data)
    }

    /// Deletes an object, logging it first.
    pub fn delete(&mut self, id: ObjectId) -> Result<()> {
        self.append_record(OP_DELETE, 0, id.raw(), &[])?;
        self.inner.delete(id)
    }

    /// Reads an object (never touches the log).
    pub fn get(&mut self, id: ObjectId) -> Result<RecordBytes> {
        self.inner.get(id)
    }

    /// Makes all logged mutations durable in the data file and truncates the
    /// log.
    ///
    /// Ordering is load-bearing: the data file must be durably flushed
    /// *before* the log shrinks, otherwise a crash between the two would
    /// leave mutations in neither place. `flush` early-returns when the
    /// file is clean, so the data handle is synced explicitly — covering
    /// the case where replayed-or-logged records exist but the in-memory
    /// state was already flushed.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.inner.flush()?;
        self.inner.handle().sync()?;
        self.log.truncate(0)?;
        self.log.sync()?;
        self.log_end = 0;
        Ok(())
    }

    /// Unwraps the inner file (checkpointing first).
    pub fn into_inner(mut self) -> Result<MnemeFile> {
        self.checkpoint()?;
        Ok(self.inner)
    }
}

enum Record {
    Create { pool: PoolId, id: ObjectId, data: Vec<u8> },
    Update { id: ObjectId, data: Vec<u8> },
    Delete { id: ObjectId },
}

/// What the data file currently knows about an object, used to classify
/// log records during idempotent replay.
enum Probe {
    /// The object exists with some payload.
    Live,
    /// The object existed and carries a delete tombstone.
    Deleted,
    /// The data file has never seen this id.
    Absent,
}

fn probe(inner: &MnemeFile, id: ObjectId) -> Result<Probe> {
    match inner.get(id) {
        Ok(_) => Ok(Probe::Live),
        Err(MnemeError::ObjectDeleted(_)) => Ok(Probe::Deleted),
        Err(MnemeError::NoSuchObject(_)) => Ok(Probe::Absent),
        Err(e) => Err(e),
    }
}

/// Reads one record at `pos`; returns `None` for a torn/corrupt tail.
fn read_record(log: &FileHandle, pos: u64, log_len: u64) -> Result<Option<(Record, u64)>> {
    if pos + 10 > log_len {
        return Ok(None);
    }
    let head = log.read(pos, 10)?;
    let op = head[0];
    let pool = head[1];
    let raw_id = u32::from_le_bytes(head[2..6].try_into().unwrap());
    let data_len = u32::from_le_bytes(head[6..10].try_into().unwrap()) as u64;
    let total = 10 + data_len + 4;
    if pos + total > log_len {
        return Ok(None);
    }
    let body = log.read(pos, (10 + data_len) as usize)?;
    let stored_sum = u32::from_le_bytes(log.read(pos + 10 + data_len, 4)?.try_into().unwrap());
    if fnv1a(&body) != stored_sum {
        return Ok(None);
    }
    let Some(id) = ObjectId::from_raw(raw_id) else {
        return Ok(None);
    };
    let data = body[10..].to_vec();
    let record = match op {
        OP_CREATE => Record::Create { pool: PoolId(pool), id, data },
        OP_UPDATE => Record::Update { id, data },
        OP_DELETE => Record::Delete { id },
        _ => return Ok(None),
    };
    Ok(Some((record, pos + total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, PoolKindConfig};
    use poir_storage::Device;

    fn configs() -> Vec<PoolConfig> {
        vec![
            PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
            PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 512 } },
            PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
        ]
    }

    fn fresh(dev: &std::sync::Arc<Device>) -> (RecoverableFile, FileHandle, FileHandle) {
        let data = dev.create_file();
        let log = dev.create_file();
        let inner = MnemeFile::create(data.clone(), &configs(), 8).unwrap();
        (RecoverableFile::new(inner, log.clone()).unwrap(), data, log)
    }

    #[test]
    fn mutations_after_checkpoint_survive_a_crash() {
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let a = rf.create_object(PoolId(1), b"before checkpoint").unwrap();
        rf.checkpoint().unwrap();
        let b = rf.create_object(PoolId(1), b"after checkpoint").unwrap();
        rf.update(a, b"before checkpoint, updated").unwrap();
        let c = rf.create_object(PoolId(0), b"small").unwrap();
        rf.delete(c).unwrap();
        assert!(log.len().unwrap() > 0);
        drop(rf); // crash: no checkpoint

        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        assert_eq!(recovered.get(a).unwrap(), b"before checkpoint, updated");
        assert_eq!(recovered.get(b).unwrap(), b"after checkpoint");
        assert!(matches!(recovered.get(c), Err(MnemeError::ObjectDeleted(_))));
    }

    #[test]
    fn replay_reproduces_exact_ids() {
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let mut ids = Vec::new();
        for i in 0..600u32 {
            // Interleave pools so logical segments interleave too.
            let pool = PoolId((i % 3) as u8);
            let payload = vec![i as u8; (i % 10) as usize + 1];
            ids.push((rf.create_object(pool, &payload).unwrap(), payload));
        }
        drop(rf);
        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        for (id, payload) in &ids {
            assert_eq!(&recovered.get(*id).unwrap(), payload);
        }
    }

    #[test]
    fn torn_tail_record_is_ignored() {
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let a = rf.create_object(PoolId(1), b"intact").unwrap();
        rf.create_object(PoolId(1), b"this record will be torn").unwrap();
        drop(rf);
        // Tear the final record's checksum.
        let len = log.len().unwrap();
        log.truncate(len - 2).unwrap();
        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        assert_eq!(recovered.get(a).unwrap(), b"intact");
        // The torn create never happened; a new create proceeds normally.
        let b = recovered.create_object(PoolId(1), b"fresh").unwrap();
        assert_eq!(recovered.get(b).unwrap(), b"fresh");
    }

    #[test]
    fn checkpoint_truncates_log_and_reads_skip_it() {
        let dev = Device::with_defaults();
        let (mut rf, _data, log) = fresh(&dev);
        let a = rf.create_object(PoolId(2), &vec![9u8; 5000]).unwrap();
        assert!(log.len().unwrap() >= 5000);
        rf.checkpoint().unwrap();
        assert_eq!(log.len().unwrap(), 0);
        let before = log.len().unwrap();
        rf.get(a).unwrap();
        assert_eq!(log.len().unwrap(), before, "reads never touch the log");
    }

    #[test]
    fn crash_between_data_flush_and_log_truncate_replays_idempotently() {
        // Simulates checkpoint() dying between its two halves: the data
        // file is durably at the *new* checkpoint, but the log was never
        // truncated, so recovery replays records that are already applied.
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let a = rf.create_object(PoolId(1), b"will be updated").unwrap();
        let b = rf.create_object(PoolId(1), b"will be deleted").unwrap();
        rf.update(a, b"updated once").unwrap();
        rf.delete(b).unwrap();
        let c = rf.create_object(PoolId(0), b"small").unwrap();
        let d = rf.create_object(PoolId(2), &vec![4u8; 3000]).unwrap();
        // First half of checkpoint only: flush data, leave the log intact.
        rf.file().flush().unwrap();
        assert!(log.len().unwrap() > 0, "log must still hold every record");
        drop(rf);

        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        assert_eq!(recovered.get(a).unwrap(), b"updated once");
        assert!(matches!(recovered.get(b), Err(MnemeError::ObjectDeleted(_))));
        assert_eq!(recovered.get(c).unwrap(), b"small");
        assert_eq!(recovered.get(d).unwrap(), vec![4u8; 3000]);
        let report = recovered.file().validate().unwrap();
        assert!(report.is_clean(), "problems: {:?}", report.problems);
        // New allocations continue past the replayed ids.
        let e = recovered.create_object(PoolId(1), b"fresh").unwrap();
        assert!(![a, b, c, d].contains(&e));
    }

    #[test]
    fn leaked_tombstone_from_dirty_eviction_is_resurrected() {
        // Post-checkpoint relocations tombstone the old copy inside the
        // *checkpointed* segment image; with a small buffer that dirty
        // image is evicted and written back in place, so after a crash the
        // data file says "deleted" for an object the log says is live.
        // Replay must resurrect it from the logged payload.
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let o0 = rf.create_object(PoolId(1), &[0u8; 28]).unwrap();
        rf.update(o0, &[1u8; 53]).unwrap();
        let o1 = rf.create_object(PoolId(1), &[2u8; 101]).unwrap();
        rf.update(o1, &[3u8; 23]).unwrap();
        let o2 = rf.create_object(PoolId(1), &[4u8; 100]).unwrap();
        let o3 = rf.create_object(PoolId(1), &[5u8; 15]).unwrap();
        rf.delete(o2).unwrap();
        rf.checkpoint().unwrap();
        rf.update(o1, &[6u8; 69]).unwrap();
        rf.update(o1, &[7u8; 59]).unwrap();
        let o4 = rf.create_object(PoolId(1), &[8u8; 83]).unwrap();
        // Too large for o1's segment even though o1 is its last payload
        // (which grows in place into the free space behind it): relocates.
        rf.update(o1, &[9u8; 400]).unwrap();
        rf.update(o3, &[10u8; 35]).unwrap();
        drop(rf);
        // The tombstone really leaked: a plain open (= the checkpoint plus
        // any in-place leaks) sees o1 deleted even though the log replays
        // it to 400 bytes.
        let leaked = MnemeFile::open(data.clone()).unwrap();
        assert!(matches!(leaked.get(o1), Err(MnemeError::ObjectDeleted(_))));
        drop(leaked);

        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        assert_eq!(recovered.get(o0).unwrap(), vec![1u8; 53]);
        assert_eq!(recovered.get(o1).unwrap(), vec![9u8; 400]);
        assert!(matches!(recovered.get(o2), Err(MnemeError::ObjectDeleted(_))));
        assert_eq!(recovered.get(o3).unwrap(), vec![10u8; 35]);
        assert_eq!(recovered.get(o4).unwrap(), vec![8u8; 83]);
        let report = recovered.file().validate().unwrap();
        assert!(report.is_clean(), "problems: {:?}", report.problems);
    }

    #[test]
    fn recover_from_empty_log_is_a_plain_open() {
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let a = rf.create_object(PoolId(1), b"persisted").unwrap();
        rf.checkpoint().unwrap();
        drop(rf);
        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        assert_eq!(recovered.get(a).unwrap(), b"persisted");
    }

    #[test]
    fn into_inner_checkpoints() {
        let dev = Device::with_defaults();
        let (mut rf, data, log) = fresh(&dev);
        let a = rf.create_object(PoolId(1), b"x").unwrap();
        let inner = rf.into_inner().unwrap();
        assert_eq!(inner.get(a).unwrap(), b"x");
        assert_eq!(log.len().unwrap(), 0);
        drop(inner);
        let reopened = MnemeFile::open(data).unwrap();
        assert_eq!(reopened.get(a).unwrap(), b"x");
    }
}
