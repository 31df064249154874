//! # Mneme — a persistent object store
//!
//! A from-scratch Rust implementation of the Mneme persistent object store
//! as described in Moss, *Design of the Mneme persistent object store*
//! (ACM TOIS 8(2), 1990) and used by Brown, Callan, Moss & Croft,
//! *Supporting Full-Text Information Retrieval with a Persistent Object
//! Store* (EDBT 1994), Section 3.2.
//!
//! The basic services are "storage and retrieval of objects, where an object
//! is a chunk of contiguous bytes that has been assigned a unique
//! identifier. Mneme has no notion of type or class for objects."
//!
//! Key concepts, each in its own module:
//!
//! * [`id`] — 28-bit file-local object ids; 255-object logical segments.
//! * [`pool`] — pools define segment size, object layout, location, and
//!   creation policy; the extensibility mechanism. Built-ins:
//!   [`SmallPool`], [`PackedPool`], [`HugePool`].
//! * [`segment`] — physical segments, the unit of disk transfer.
//! * [`buffer`] — the extensible buffering mechanism; [`LruBuffer`]
//!   implements LRU with the paper's reservation optimization, and
//!   [`S3FifoBuffer`] is the alternative organization the paper invites
//!   (scan-resistant S3-FIFO).
//! * [`table`] — compact multi-level hash location tables, permanently
//!   cached after first access.
//! * [`mod@file`] — a Mneme file combining all of the above.
//! * [`recovery`] — redo-log + checkpoint durability (the paper's
//!   future-work item, validating that recovery services do not change the
//!   performance picture).
//! * [`validate`] — an integrity check of the tables and every segment.
//!
//! All I/O flows through [`poir_storage`], so every experiment measures the
//! same simulated platform as the baseline B-tree package.

pub mod buffer;
pub mod error;
pub mod file;
pub mod huge_pool;
pub mod id;
pub mod packed_pool;
pub mod pool;
pub mod recovery;
pub mod s3fifo;
pub mod segment;
pub mod small_pool;
pub mod table;
pub mod validate;

pub use buffer::{Buffer, BufferPolicy, BufferStats, LruBuffer};
pub use error::{MnemeError, Result};
pub use file::{FileStats, MnemeFile, PoolStats};
pub use huge_pool::HugePool;
pub use id::{LogicalSegment, ObjectId, PoolId, SLOTS_PER_SEGMENT};
pub use packed_pool::PackedPool;
pub use pool::{AppendOutcome, LocateResult, Pool, PoolConfig, PoolKindConfig};
pub use s3fifo::S3FifoBuffer;
pub use segment::{SegmentAddr, SegmentImage, SegmentKind};
pub use small_pool::SmallPool;
pub use validate::ValidationReport;
