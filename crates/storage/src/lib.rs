//! Simulated storage substrate for the EDBT'94 INQUERY + Mneme reproduction.
//!
//! The paper's evaluation platform was a DECstation 5000/240 running ULTRIX
//! with a 1.35 GB RZ58 SCSI disk. Its key measurements (Table 5) are:
//!
//! * **I** — the number of 8 Kbyte blocks actually read from disk
//!   (`getrusage` I/O inputs, i.e. ULTRIX file-buffer-cache misses),
//! * **A** — file accesses (read system calls) per inverted-list lookup,
//! * **B** — total Kbytes requested from the file by the application.
//!
//! This crate provides a deterministic stand-in for that platform: a
//! [`Device`] that stores file contents (in memory or in real temporary
//! files), transfers data in fixed-size blocks through a simulated operating
//! system page cache ([`OsCache`]), counts every event in [`IoStats`], and
//! converts event counts into simulated "system CPU + I/O" time with a
//! configurable [`CostModel`].
//!
//! Both index backends (the custom B-tree package in `poir-btree` and the
//! Mneme object store in `poir-mneme`) perform *all* persistent I/O through
//! [`FileHandle`]s obtained from a shared [`Device`], so the three-way
//! comparison in the paper's Tables 3-5 is reproducible bit-for-bit.
//!
//! The paper purged the ULTRIX file cache between runs by reading a 32 Mbyte
//! "chill file"; [`Device::chill`] performs the equivalent purge.

mod backend;
mod bytes;
mod cache;
mod cost;
mod device;
mod error;
mod fault;
mod stats;

pub use backend::{ByteStore, FileBackend, InMemoryBackend};
pub use bytes::RecordBytes;
pub use cache::OsCache;
pub use cost::{CostModel, SimTime};
pub use device::{Device, DeviceConfig, FileHandle, FileId};
pub use error::{Result, StorageError};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultRule, FaultSchedule, FaultStats};
pub use stats::{IoSnapshot, IoStats};

/// The disk transfer block size used throughout the paper's evaluation.
///
/// "Each disk access causes 8 Kbytes to be read from disk" (Section 4.3).
pub const DEFAULT_BLOCK_SIZE: usize = 8192;
