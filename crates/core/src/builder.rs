//! Typed construction for [`Engine`].
//!
//! The engine's original positional constructors grew one argument per
//! feature and pushed every optional knob (buffer sizes, reservation,
//! execution mode, telemetry) into post-construction setter calls.
//! [`EngineBuilder`] replaced them (the positional shims are gone) with
//! named, typed options:
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use poir_core::{BackendKind, Engine, ExecMode};
//! # use poir_storage::Device;
//! # use poir_telemetry::TelemetryOptions;
//! # fn demo(device: &Arc<Device>, index: poir_inquery::Index) -> poir_core::Result<()> {
//! let mut engine = Engine::builder(device)
//!     .backend(BackendKind::MnemeCache)
//!     .exec_mode(ExecMode::BatchedPrefetch)
//!     .telemetry(TelemetryOptions::full())
//!     .build(index)?;
//! # Ok(())
//! # }
//! ```
//!
//! Defaults reproduce the paper's primary configuration: Mneme with the
//! Table 2 buffer heuristic, serial execution, reservation enabled, and
//! telemetry off (zero overhead).

use std::sync::Arc;

use poir_inquery::{BlockCache, Index};
use poir_mneme::BufferPolicy;
use poir_storage::{Device, FileHandle};
use poir_telemetry::TelemetryOptions;

use poir_telemetry::Recorder;

use crate::buffer_sizing::BufferSizes;
use crate::engine::{BackendKind, Engine, ExecMode};
use crate::error::Result;
use crate::service::{QueryService, ServiceConfig};
use crate::shard::{ShardSpec, ShardedEngine};

/// Builder for [`Engine`]; see the module docs for defaults.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    pub(crate) device: Arc<Device>,
    pub(crate) backend: BackendKind,
    pub(crate) exec_mode: ExecMode,
    pub(crate) buffers: Option<BufferSizes>,
    pub(crate) telemetry: TelemetryOptions,
    pub(crate) sharding: ShardSpec,
    pub(crate) shared_recorder: Option<Recorder>,
    pub(crate) service: ServiceConfig,
    pub(crate) buffer_policy: BufferPolicy,
    pub(crate) block_cache_bytes: usize,
    pub(crate) shared_block_cache: Option<Arc<BlockCache>>,
}

impl EngineBuilder {
    pub(crate) fn new(device: &Arc<Device>) -> EngineBuilder {
        EngineBuilder {
            device: Arc::clone(device),
            backend: BackendKind::MnemeCache,
            exec_mode: ExecMode::Serial,
            buffers: None,
            telemetry: TelemetryOptions::off(),
            sharding: ShardSpec::default(),
            shared_recorder: None,
            service: ServiceConfig::default(),
            buffer_policy: BufferPolicy::Lru,
            block_cache_bytes: 0,
            shared_block_cache: None,
        }
    }

    /// Storage configuration (ignored by [`EngineBuilder::open`], which
    /// reads the backend from the persisted metadata).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Default I/O scheduling mode for [`Engine::run_query_set`].
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Explicit per-pool buffer sizes for [`BackendKind::MnemeCache`]
    /// (default: the Table 2 heuristic from the collection's largest
    /// record). Ignored by the other backends.
    pub fn buffers(mut self, sizes: BufferSizes) -> Self {
        self.buffers = Some(sizes);
        self
    }

    /// Telemetry switches (default: [`TelemetryOptions::off`]).
    pub fn telemetry(mut self, options: TelemetryOptions) -> Self {
        self.telemetry = options;
        self
    }

    /// Horizontal sharding for [`EngineBuilder::build_sharded`] (default:
    /// [`ShardSpec::default`], one shard and one worker — the paper's
    /// unsharded configuration). Ignored by [`EngineBuilder::build`] and
    /// [`EngineBuilder::open`].
    pub fn sharding(mut self, spec: ShardSpec) -> Self {
        self.sharding = spec;
        self
    }

    /// Replacement policy for the Mneme segment buffers (default:
    /// [`BufferPolicy::Lru`], the paper's configuration). `S3Fifo` is the
    /// scan-resistant option for mixed point/scan workloads. Ignored by
    /// the non-Mneme backends.
    pub fn buffer_policy(mut self, policy: BufferPolicy) -> Self {
        self.buffer_policy = policy;
        self
    }

    /// Byte budget for the decoded-block cache (tier 2 of the cache
    /// hierarchy): decoded `(docs, tfs)` block pairs keyed by store epoch,
    /// object, and block index. Default 0 disables it. With
    /// [`EngineBuilder::build_sharded`] one cache is shared by all shards.
    pub fn block_cache_bytes(mut self, bytes: usize) -> Self {
        self.block_cache_bytes = bytes;
        self
    }

    /// Serving configuration for [`EngineBuilder::build_service`]: queue
    /// capacity plus the observability knobs (slow-query threshold,
    /// breakdown window, stats sampling). Ignored by the other build
    /// methods.
    pub fn service_config(mut self, config: ServiceConfig) -> Self {
        self.service = config;
        self
    }

    /// Loads a finished [`Index`] into a fresh inverted file of the chosen
    /// backend.
    pub fn build(self, index: Index) -> Result<Engine> {
        Engine::from_builder_build(self, index)
    }

    /// Builds the sharded engine (see [`EngineBuilder::build_sharded`])
    /// and starts a [`QueryService`] over it with this builder's
    /// [`ServiceConfig`].
    pub fn build_service(self, index: Index) -> Result<QueryService> {
        let config = self.service.clone();
        let engine = self.build_sharded(index)?;
        QueryService::start_with(engine, config)
    }

    /// Partitions `index` into the configured number of shards (see
    /// [`EngineBuilder::sharding`]) and builds one engine per shard, all on
    /// this builder's device and sharing one telemetry recorder. With the
    /// default one-shard spec this is [`EngineBuilder::build`] behind the
    /// [`ShardedEngine`] facade.
    pub fn build_sharded(self, index: Index) -> Result<ShardedEngine> {
        let spec = self.sharding;
        // One recorder for every shard: each shard engine attaching its own
        // would overwrite the device's recorder and split counter deltas
        // across instances (the double-count / vanishing-counter bug).
        let recorder =
            self.shared_recorder.clone().unwrap_or_else(|| Engine::recorder_for(&self.telemetry));
        // Likewise one decoded-block cache across shards: the byte budget
        // is a process-wide bound, and keys already carry a per-store id
        // so shard entries cannot alias.
        let block_cache = self.shared_block_cache.clone().or_else(|| {
            (self.block_cache_bytes > 0).then(|| Arc::new(BlockCache::new(self.block_cache_bytes)))
        });
        let mut shards = Vec::with_capacity(spec.shards);
        for shard_index in index.split_shards(spec.shards) {
            let builder = EngineBuilder {
                shared_recorder: Some(recorder.clone()),
                shared_block_cache: block_cache.clone(),
                ..self.clone()
            };
            shards.push(builder.build(shard_index)?);
        }
        Ok(ShardedEngine::from_shards(spec, shards))
    }

    /// Reopens an engine saved by [`Engine::save`]. The backend kind and
    /// largest-record size come from the persisted metadata; the builder
    /// supplies everything else (buffers, telemetry, execution mode, ...).
    pub fn open(self, store_handle: FileHandle, meta: &FileHandle) -> Result<Engine> {
        Engine::from_builder_open(self, store_handle, meta)
    }
}
