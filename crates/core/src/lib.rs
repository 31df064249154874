//! # The integrated system: INQUERY + Mneme
//!
//! This crate is the paper's primary contribution (Brown, Callan, Moss &
//! Croft, EDBT 1994, Section 3.3): the INQUERY retrieval engine with its
//! inverted file index served either by the original custom B-tree package
//! or by the Mneme persistent object store.
//!
//! * [`btree_store`] — the [`BTreeInvertedFile`] baseline adaptor,
//! * [`mneme_store`] — the [`MnemeInvertedFile`] with the three-group
//!   object partition (≤12 B → small pool; >4 KB → own segment; rest packed
//!   into 8 KB segments) and per-pool buffers,
//! * [`buffer_sizing`] — the Table 2 buffer-size heuristics,
//! * [`engine`] — the [`Engine`] facade: build/open an index, run queries,
//!   measure query sets the way the paper does, and (extension) add or
//!   remove documents incrementally through the object store,
//! * `pipeline` (crate-private) — the one evaluation pipeline [`Engine`],
//!   [`ShardedEngine`], [`QueryService`] and the batch runners drive, with
//!   its deadline / retry / degrade rule.

// Driver docs link to the crate-private `pipeline` module's rule.
#![allow(rustdoc::private_intra_doc_links)]

pub mod btree_store;
pub mod buffer_sizing;
pub mod builder;
pub mod engine;
pub mod error;
pub mod mneme_store;
mod pipeline;
pub mod result_cache;
pub mod service;
pub mod shard;

pub use btree_store::BTreeInvertedFile;
pub use buffer_sizing::{paper_heuristic, BufferSizes};
pub use builder::EngineBuilder;
pub use engine::{
    BackendKind, Degraded, Engine, ExecMode, ParallelSetReport, QueryRequest, QueryResponse,
    QuerySetReport, RankedResult, ShardTiming,
};
pub use error::{CoreError, Result};
pub use mneme_store::{
    pool_for, pool_for_with, MnemeInvertedFile, MnemeOptions, SharedMnemeView, LARGE_MIN, SMALL_MAX,
};
pub use poir_telemetry::{
    Attribution, BufferResidencyReport, LatencyBreakdown, LatencySummary, MetricsRegistry,
    MetricsReport, QueryTrace, RegistrySnapshot, SlowQueryRecord, TelemetryOptions, TraceOp,
    TraceRecord, Tracer, WindowRates,
};
pub use result_cache::{ResultCache, ResultCacheStats, ResultKey};
pub use service::{
    PendingQuery, QueryService, RetryPolicy, ServiceConfig, ServiceStats, ShardHealth,
};
pub use shard::{ShardSpec, ShardedEngine};
