//! The integrated system: INQUERY over a pluggable inverted-file backend.
//!
//! [`Engine`] wires together the hash dictionary, document table, belief
//! functions, query processor, and one of the three storage configurations
//! the paper compares (Section 4):
//!
//! * [`BackendKind::BTree`] — the original custom B-tree package,
//! * [`BackendKind::MnemeNoCache`] — Mneme with zero-capacity buffers
//!   ("no user space main memory caching of inverted list records"),
//! * [`BackendKind::MnemeCache`] — Mneme with the Table 2 buffer sizes.
//!
//! [`Engine::run_query_set`] reproduces the paper's measurement procedure:
//! purge the simulated OS cache (the "chill file"), process the whole query
//! set in batch mode, and report wall-clock, system + I/O time, and the
//! Table 5 I/O statistics.

use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use poir_btree::BTreeConfig;
use poir_inquery::query::daat;
use poir_inquery::{
    BeliefParams, BlockCache, Dictionary, DocId, DocTable, Evaluator, Index, InvertedFileStore,
    RecordBytes, StopWords, TermId,
};
use poir_mneme::BufferStats;
use poir_storage::{Device, FileHandle, IoSnapshot, SimTime};
use poir_telemetry::{LatencyBreakdown, MetricsReport, Phase, QueryTrace, Recorder, Tracer};

use crate::btree_store::BTreeInvertedFile;
use crate::buffer_sizing::{paper_heuristic, BufferSizes};
use crate::builder::EngineBuilder;
use crate::error::{CoreError, Result};
use crate::mneme_store::{MnemeInvertedFile, MnemeOptions};
use crate::pipeline::{self, Driver, ShardView};
use crate::service::RetryPolicy;
use crate::shard::ShardRuntime;

/// How [`Engine::run_query_set_mode`] schedules record I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Term-at-a-time: one store fetch per leaf term during evaluation
    /// (the paper's original procedure).
    Serial,
    /// Document-at-a-time evaluation (Section 3.1 extension) with
    /// max-score top-k pruning: one cursor per term, merged by ascending
    /// document id; terms whose belief upper bound cannot lift a document
    /// into the current top `k` are probed lazily, skipping posting blocks
    /// via the skip directory and — on stores with
    /// [`range-read`](poir_inquery::InvertedFileStore::fetch_range)
    /// support — fetching only the blocks it actually decodes. Structured
    /// queries fall back to the serial term-at-a-time pipeline.
    DaatPruned,
}

impl std::fmt::Display for ExecMode {
    /// Stable CLI/JSON name; round-trips through [`ExecMode::from_str`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecMode::Serial => "serial",
            ExecMode::DaatPruned => "daat_pruned",
        })
    }
}

impl FromStr for ExecMode {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<ExecMode> {
        match s.replace('-', "_").as_str() {
            "serial" => Ok(ExecMode::Serial),
            "daat_pruned" | "pruned" => Ok(ExecMode::DaatPruned),
            _ => Err(CoreError::UnknownName { kind: "execution mode", value: s.to_string() }),
        }
    }
}

/// The three storage configurations of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Custom B-tree keyed file (the baseline).
    BTree,
    /// Mneme persistent object store, no record caching.
    MnemeNoCache,
    /// Mneme with the Table 2 per-pool buffer sizes.
    MnemeCache,
}

impl BackendKind {
    /// Display label used in the reproduction tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::BTree => "B-Tree",
            BackendKind::MnemeNoCache => "Mneme, No Cache",
            BackendKind::MnemeCache => "Mneme, Cache",
        }
    }

    /// All three configurations in the paper's column order.
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::BTree, BackendKind::MnemeNoCache, BackendKind::MnemeCache]
    }
}

impl std::fmt::Display for BackendKind {
    /// Stable CLI/JSON name; round-trips through [`BackendKind::from_str`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::BTree => "btree",
            BackendKind::MnemeNoCache => "mneme_nocache",
            BackendKind::MnemeCache => "mneme_cache",
        })
    }
}

impl FromStr for BackendKind {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<BackendKind> {
        match s.replace('-', "_").as_str() {
            "btree" | "b_tree" => Ok(BackendKind::BTree),
            "mneme_nocache" | "mneme_no_cache" => Ok(BackendKind::MnemeNoCache),
            "mneme_cache" | "mneme" => Ok(BackendKind::MnemeCache),
            _ => Err(CoreError::UnknownName { kind: "backend", value: s.to_string() }),
        }
    }
}

enum StoreImpl {
    BTree(BTreeInvertedFile),
    Mneme(MnemeInvertedFile),
}

impl StoreImpl {
    fn as_store(&mut self) -> &mut dyn InvertedFileStore {
        match self {
            StoreImpl::BTree(s) => s,
            StoreImpl::Mneme(s) => s,
        }
    }

    /// Attaches a telemetry recorder to the store and its substrate
    /// (B-tree node cache or Mneme pool buffers).
    fn attach_recorder(&mut self, recorder: Recorder) {
        match self {
            StoreImpl::BTree(s) => s.attach_recorder(recorder),
            StoreImpl::Mneme(s) => s.attach_recorder(recorder),
        }
    }

    /// Inverted-record lookups performed so far.
    fn record_lookups(&self) -> u64 {
        match self {
            StoreImpl::BTree(s) => InvertedFileStore::record_lookups(s),
            StoreImpl::Mneme(s) => InvertedFileStore::record_lookups(s),
        }
    }

    /// Per-pool buffer statistics (small, medium, large); `None` for the
    /// unbuffered B-tree backend.
    fn buffer_stats(&self) -> Result<Option<[BufferStats; 3]>> {
        match self {
            StoreImpl::BTree(_) => Ok(None),
            StoreImpl::Mneme(s) => s.buffer_stats().map(Some),
        }
    }

    /// Resets buffer statistics between query sets (no-op when unbuffered).
    fn reset_buffer_stats(&self) {
        if let StoreImpl::Mneme(s) = self {
            s.reset_buffer_stats();
        }
    }

    /// Total on-disk size in bytes.
    fn file_size(&self) -> Result<u64> {
        match self {
            StoreImpl::BTree(s) => Ok(s.file_size()),
            StoreImpl::Mneme(s) => s.file_size(),
        }
    }
}

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResult {
    /// Ordinal document id.
    pub doc: DocId,
    /// External document name.
    pub name: String,
    /// Final belief.
    pub score: f64,
}

/// A typed query request — the one argument of [`Engine::execute`],
/// [`crate::ShardedEngine::execute`], and the query service, replacing the
/// ad-hoc `run_one*` call patterns.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query text (structured or bag-of-words).
    pub text: String,
    /// How many results to return.
    pub k: usize,
    /// Execution-mode override; `None` uses the executor's default.
    pub mode: Option<ExecMode>,
    /// Deadline budget, measured from submission (the service) or from
    /// `execute` entry (the engines) and checked between shards and after
    /// the merge; an expired budget yields
    /// [`CoreError::DeadlineExceeded`] with partial results.
    pub deadline: Option<Duration>,
    /// Caller-chosen stable id, propagated through trace records, the
    /// latency breakdown, and the slow-query flight recorder so a slow
    /// entry can be joined against the Perfetto trace export. `None`
    /// falls back to the executor's own numbering (the service uses its
    /// sequence number).
    pub id: Option<u32>,
}

impl QueryRequest {
    /// A request for the top `k` hits of `text` with no mode override and
    /// no deadline.
    pub fn new(text: impl Into<String>, k: usize) -> Self {
        QueryRequest { text: text.into(), k, mode: None, deadline: None, id: None }
    }

    /// Overrides the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Sets the deadline budget.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Sets the stable query id.
    pub fn id(mut self, id: u32) -> Self {
        self.id = Some(id);
        self
    }
}

/// How long one shard spent evaluating a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    /// Shard ordinal.
    pub shard: usize,
    /// Host microseconds the shard's evaluation took.
    pub micros: u64,
    /// Hits the shard contributed to the merge candidate set.
    pub hits: usize,
}

/// A typed query response: the hits plus per-shard timings and the
/// request's telemetry delta.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The merged top-k ranking.
    pub hits: Vec<RankedResult>,
    /// Per-shard evaluation timings (one entry on an unsharded engine).
    pub shards: Vec<ShardTiming>,
    /// Per-phase timings and telemetry event deltas for this query (event
    /// counters are zero unless telemetry is enabled; on a shared-recorder
    /// service they are set-level, not per-query).
    pub trace: QueryTrace,
    /// Host microseconds the request waited in the service's admission
    /// queue (zero when executed directly).
    pub queue_micros: u64,
    /// The execution mode that actually ran (the request's override or
    /// the executor's resolved default).
    pub mode: ExecMode,
    /// Where the request's end-to-end time went (queue / eval / merge /
    /// other); the service folds this into its p99 attribution.
    pub breakdown: LatencyBreakdown,
    /// Present when one or more shards failed and the response was served
    /// from the shards that survived. `None` on a complete response.
    pub degraded: Option<Degraded>,
    /// Whether the response was served from the service's query-result
    /// cache instead of a fresh evaluation. The ranking is the stored
    /// output of a real evaluation, bit-identical to what re-evaluating
    /// would produce under the same store epoch.
    pub cached: bool,
}

/// Degradation summary for a response served without every shard: the
/// typed partial that per-shard failure isolation produces instead of
/// failing the whole request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degraded {
    /// Indices of the shards whose evaluation failed after bounded
    /// retries; their documents are absent from `hits`.
    pub missing_shards: Vec<usize>,
    /// Shard-evaluation retries this request consumed across all shards.
    pub retries: u32,
}

/// Measurements from processing one query set — the raw data behind
/// Tables 3, 4, 5, and 6.
#[derive(Debug, Clone)]
pub struct QuerySetReport {
    /// Number of queries processed.
    pub queries: usize,
    /// Real (host) time spent in parsing, evaluation, and ranking.
    pub engine_time: Duration,
    /// Simulated system CPU + I/O time (Table 4).
    pub sys_io_time: SimTime,
    /// I/O counter deltas for the run (Table 5's raw data).
    pub io: IoSnapshot,
    /// Inverted-record lookups performed.
    pub record_lookups: u64,
    /// Per-pool buffer stats (Table 6) — Mneme backends only.
    pub buffer_stats: Option<[BufferStats; 3]>,
    /// Telemetry-derived metrics and per-query traces; present when the
    /// engine was built with telemetry enabled.
    pub metrics: Option<MetricsReport>,
}

impl QuerySetReport {
    /// Simulated wall-clock seconds: engine time plus system + I/O time
    /// (Table 3).
    pub fn wall_clock_secs(&self) -> f64 {
        self.engine_time.as_secs_f64() + self.sys_io_time.as_secs_f64()
    }

    /// Table 5 column "I": blocks actually read from disk.
    pub fn io_inputs(&self) -> u64 {
        self.io.io_inputs
    }

    /// Table 5 column "A": average file accesses per record lookup.
    pub fn accesses_per_lookup(&self) -> f64 {
        if self.record_lookups == 0 {
            0.0
        } else {
            self.io.file_accesses as f64 / self.record_lookups as f64
        }
    }

    /// Table 5 column "B": total Kbytes read from the files.
    pub fn kbytes_read(&self) -> u64 {
        self.io.kbytes_read()
    }
}

/// Measurements and results from a parallel query-set run
/// (see [`Engine::run_query_set_parallel`]).
#[derive(Debug, Clone)]
pub struct ParallelSetReport {
    /// The usual per-set measurements (I/O counters cover all threads).
    pub report: QuerySetReport,
    /// Worker threads used.
    pub threads: usize,
    /// Each query's ranking, in query order.
    pub rankings: Vec<Vec<RankedResult>>,
}

impl ParallelSetReport {
    /// Simulated wall-clock seconds: real engine time plus the simulated
    /// system + I/O time divided across threads — each worker drives its
    /// own I/O channel, so device time overlaps instead of serializing.
    pub fn wall_clock_secs(&self) -> f64 {
        self.report.engine_time.as_secs_f64()
            + self.report.sys_io_time.as_secs_f64() / self.threads as f64
    }

    /// Queries per simulated wall-clock second.
    pub fn qps(&self) -> f64 {
        let wall = self.wall_clock_secs();
        if wall == 0.0 {
            0.0
        } else {
            self.report.queries as f64 / wall
        }
    }
}

/// The integrated IR system.
pub struct Engine {
    device: Arc<Device>,
    backend: BackendKind,
    dict: Dictionary,
    docs: DocTable,
    stop: StopWords,
    params: BeliefParams,
    store: StoreImpl,
    store_handle: FileHandle,
    reserve_enabled: bool,
    exec_mode: ExecMode,
    recorder: Recorder,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend.label())
            .field("terms", &self.dict.len())
            .field("docs", &self.docs.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a typed [`EngineBuilder`] on `device`. The defaults
    /// reproduce the paper's primary configuration: Mneme with the Table 2
    /// buffer heuristic, serial execution, reservation enabled, telemetry
    /// off.
    pub fn builder(device: &Arc<Device>) -> EngineBuilder {
        EngineBuilder::new(device)
    }

    /// Builds the engine's recorder from the builder's telemetry options:
    /// disabled, counting, or counting plus a structured tracer.
    pub(crate) fn recorder_for(options: &poir_telemetry::TelemetryOptions) -> Recorder {
        if !options.enabled {
            return Recorder::disabled();
        }
        let recorder = Recorder::enabled();
        if options.trace_capacity > 0 {
            recorder.with_tracer(Arc::new(Tracer::new(options.trace_capacity)))
        } else {
            recorder
        }
    }

    pub(crate) fn from_builder_build(b: EngineBuilder, index: Index) -> Result<Engine> {
        let Index { mut dictionary, documents, records } = index;
        let handle = b.device.create_file();
        let store = match b.backend {
            BackendKind::BTree => StoreImpl::BTree(BTreeInvertedFile::build(
                handle.clone(),
                BTreeConfig::default(),
                &records,
                &mut dictionary,
            )?),
            BackendKind::MnemeNoCache | BackendKind::MnemeCache => {
                StoreImpl::Mneme(MnemeInvertedFile::build(
                    handle.clone(),
                    MnemeOptions::default(),
                    &records,
                    &mut dictionary,
                )?)
            }
        };
        let backend = b.backend;
        Self::assemble(b, backend, dictionary, documents, store, handle)
    }

    /// The shared tail of build and open: attaches the builder's caches
    /// (explicit or Table 2 buffers on the cached backend, the decoded-block
    /// cache) and its recorder to the store, and assembles the engine.
    fn assemble(
        b: EngineBuilder,
        backend: BackendKind,
        dict: Dictionary,
        docs: DocTable,
        mut store: StoreImpl,
        store_handle: FileHandle,
    ) -> Result<Engine> {
        if let StoreImpl::Mneme(s) = &mut store {
            if backend == BackendKind::MnemeCache {
                let sizes = b.buffers.unwrap_or_else(|| paper_heuristic(s.largest_record(), 8192));
                s.attach_buffers_with(sizes, b.buffer_policy)?;
            }
            if let Some(cache) = b.shared_block_cache.clone() {
                s.attach_block_cache(cache);
            } else if b.block_cache_bytes > 0 {
                s.attach_block_cache(Arc::new(BlockCache::new(b.block_cache_bytes)));
            }
        }
        // Shard engines built onto one device must share one recorder —
        // each engine attaching a fresh recorder would overwrite the
        // device's, and per-shard counter deltas would double-count or
        // vanish. The sharded builder injects the shared instance here.
        let recorder =
            b.shared_recorder.clone().unwrap_or_else(|| Self::recorder_for(&b.telemetry));
        if recorder.is_enabled() {
            b.device.attach_recorder(recorder.clone());
            store.attach_recorder(recorder.clone());
        }
        Ok(Engine {
            device: b.device,
            backend,
            dict,
            docs,
            stop: StopWords::default(),
            params: BeliefParams::default(),
            store,
            store_handle,
            reserve_enabled: true,
            exec_mode: b.exec_mode,
            recorder,
        })
    }

    /// Enables or disables the pre-evaluation reservation pass (on by
    /// default; the off setting exists for the ablation study).
    pub fn set_reservation_enabled(&mut self, enabled: bool) {
        self.reserve_enabled = enabled;
    }

    /// The default I/O scheduling mode used by [`Engine::run_query_set`].
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// The engine's telemetry recorder (disabled unless the engine was
    /// built with [`poir_telemetry::TelemetryOptions::enabled`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Whether telemetry is being collected.
    pub fn telemetry_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The structured tracer, when the engine was built with
    /// [`poir_telemetry::TelemetryOptions::tracing`].
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.recorder.tracer()
    }

    /// The active backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The hash dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The document table.
    pub fn documents(&self) -> &DocTable {
        &self.docs
    }

    /// The stop-word list queries are parsed with.
    pub fn stop_words(&self) -> &StopWords {
        &self.stop
    }

    /// Counters from the decoded-block cache, when one is attached
    /// ([`EngineBuilder::block_cache_bytes`] on a Mneme backend).
    pub fn block_cache_stats(&self) -> Option<poir_inquery::BlockCacheStats> {
        match &self.store {
            StoreImpl::Mneme(s) => s.block_cache().map(|c| c.stats()),
            StoreImpl::BTree(_) => None,
        }
    }

    /// The store's combined mutation epoch (store id in the high bits;
    /// every incremental update bumps the low bits). The result cache keys
    /// its entries on this value, so any mutation invalidates them. The
    /// archival B-tree backend cannot mutate and reports a constant 0.
    pub fn store_epoch(&self) -> u64 {
        match &self.store {
            StoreImpl::Mneme(s) => InvertedFileStore::store_epoch(s),
            StoreImpl::BTree(_) => 0,
        }
    }

    /// Decomposes the engine into the read path a query-service worker
    /// pool shares (Mneme backends only — workers fetch through
    /// [`MnemeInvertedFile::shared_view`], which the B-tree store lacks).
    pub(crate) fn into_parts(self) -> Result<ShardRuntime> {
        let Engine { dict, docs, stop, params, store, .. } = self;
        let StoreImpl::Mneme(store) = store else {
            return Err(CoreError::Unsupported("the query service on the B-tree backend"));
        };
        Ok(ShardRuntime { dict, docs, stop, params, store })
    }

    /// The simulated device everything runs on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The handle of the inverted-file store (for reopening).
    pub fn store_handle(&self) -> &FileHandle {
        &self.store_handle
    }

    /// Size of the inverted file on disk (Table 1's size columns).
    pub fn store_file_size(&mut self) -> Result<u64> {
        self.store.file_size()
    }

    /// Overrides the Mneme buffer sizes (Figure 3's sweep). Errors on the
    /// B-tree backend.
    pub fn set_buffer_sizes(&mut self, sizes: BufferSizes) -> Result<()> {
        match &mut self.store {
            StoreImpl::Mneme(s) => s.attach_buffers(sizes),
            StoreImpl::BTree(_) => {
                Err(CoreError::Unsupported("buffer sizing on the B-tree backend"))
            }
        }
    }

    /// The Table 2 buffer sizes this collection would use.
    pub fn paper_buffer_sizes(&self) -> Result<BufferSizes> {
        match &self.store {
            StoreImpl::Mneme(s) => Ok(paper_heuristic(s.largest_record(), 8192)),
            StoreImpl::BTree(_) => {
                Err(CoreError::Unsupported("buffer sizing on the B-tree backend"))
            }
        }
    }

    /// Parses and runs one query term-at-a-time, returning the top `k`
    /// documents. Thin wrapper over [`Engine::execute`] in serial mode.
    pub fn query(&mut self, text: &str, k: usize) -> Result<Vec<RankedResult>> {
        Ok(self.execute(&QueryRequest::new(text, k).mode(ExecMode::Serial))?.hits)
    }

    /// Explains the belief `text` assigns to one document, node by node.
    pub fn explain(&mut self, text: &str, doc: DocId) -> Result<poir_inquery::query::Explanation> {
        let parsed = poir_inquery::parse_query(text, &self.stop)?;
        let store = self.store.as_store();
        let mut ev = Evaluator::new(store, &self.dict, &self.docs, &self.stop, self.params);
        Ok(ev.explain(&parsed, doc)?)
    }

    /// Runs a bag-of-words query document-at-a-time (the Section 3.1
    /// extension). Errors when the query is not a flat `#sum`/`#wsum`
    /// (unlike [`Engine::execute`], which falls back to term-at-a-time).
    pub fn query_daat(&mut self, text: &str, k: usize) -> Result<Vec<RankedResult>> {
        let parsed = poir_inquery::parse_query(text, &self.stop)?;
        if daat::flatten_bag(&parsed).is_none() {
            return Err(CoreError::Unsupported("document-at-a-time on structured queries"));
        }
        Ok(self.execute(&QueryRequest::new(text, k).mode(ExecMode::DaatPruned))?.hits)
    }

    /// Processes a query set in batch mode, reproducing the paper's
    /// measurement procedure (Section 4.2): chill the OS cache, process all
    /// queries, report times and I/O statistics. Uses the engine's default
    /// [`ExecMode`] (serial unless configured otherwise by the builder).
    pub fn run_query_set<S: AsRef<str>>(
        &mut self,
        queries: &[S],
        k: usize,
    ) -> Result<QuerySetReport> {
        self.run_query_set_mode(queries, k, self.exec_mode).map(|(report, _)| report)
    }

    /// Runs one query with per-phase timing, returning the ranking and its
    /// [`QueryTrace`]. Phase durations are always measured; the trace's
    /// event counters are zero unless the engine was built with telemetry
    /// enabled. Thin wrapper over [`Engine::execute`].
    pub fn query_traced(
        &mut self,
        text: &str,
        k: usize,
    ) -> Result<(Vec<RankedResult>, QueryTrace)> {
        let resp = self.execute(&QueryRequest::new(text, k))?;
        Ok((resp.hits, resp.trace))
    }

    /// Runs one typed [`QueryRequest`] through the evaluation
    /// [`pipeline`] — the one code path the engines, the
    /// service and the batch runners share.
    ///
    /// The request's `mode` (default: the engine's configured
    /// [`ExecMode`]) picks the I/O schedule; its `deadline`, measured from
    /// entry, and transient storage faults are handled by the pipeline's
    /// [deadline, retry and degrade rule](crate::pipeline) (one shard: an
    /// over-budget query returns [`CoreError::DeadlineExceeded`] carrying
    /// the computed hits; a fault that outlasts the retries is the
    /// request's error). The response always carries per-phase timings;
    /// its telemetry event delta is zero unless the engine was built with
    /// telemetry enabled.
    pub fn execute(&mut self, req: &QueryRequest) -> Result<QueryResponse> {
        execute_on(std::slice::from_mut(self), req)
    }

    /// [`Engine::run_query_set`] with an explicit I/O scheduling mode,
    /// additionally returning each query's ranking (for cross-mode equality
    /// checks).
    pub fn run_query_set_mode<S: AsRef<str>>(
        &mut self,
        queries: &[S],
        k: usize,
        mode: ExecMode,
    ) -> Result<(QuerySetReport, Vec<Vec<RankedResult>>)> {
        run_set_on(std::slice::from_mut(self), queries, k, Some(mode))
    }

    /// Processes a query set on `threads` scoped worker threads sharing one
    /// read-only store view (Mneme backends only — the B-tree store has no
    /// concurrent read path).
    ///
    /// Queries are dealt round-robin across threads; each thread drives the
    /// [`pipeline`] in [`ExecMode::Serial`] against
    /// [`MnemeInvertedFile::shared_view`], whose fetches take `&self` and
    /// synchronize on per-pool buffer locks (so, as on every shared view,
    /// without reservation). Rankings come back in query order. Timing and
    /// I/O statistics are measured exactly as in the serial modes;
    /// [`ParallelSetReport::wall_clock_secs`] divides the simulated I/O time
    /// across threads (striped I/O channels).
    pub fn run_query_set_parallel<S: AsRef<str> + Sync>(
        &mut self,
        queries: &[S],
        k: usize,
        threads: usize,
    ) -> Result<ParallelSetReport> {
        let threads = threads.max(1);
        let run = |engines: &mut [Engine]| {
            let Engine { store, dict, docs, stop, params, recorder, .. } = &engines[0];
            let StoreImpl::Mneme(store) = store else {
                return Err(CoreError::Unsupported(
                    "parallel query execution on the B-tree backend",
                ));
            };
            let driver = &Driver {
                default_mode: ExecMode::Serial,
                origin: Instant::now(),
                retry: direct_retry(),
                reserve: false,
                timed: recorder.is_enabled(),
                recorder,
                stop,
                params: *params,
            };
            let per_thread: Vec<Result<Vec<_>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut view = store.shared_view();
                            let mut views = [ShardView { store: &mut view, dict, docs }];
                            (t..queries.len())
                                .step_by(threads)
                                .map(|qi| {
                                    let req = QueryRequest::new(queries[qi].as_ref(), k);
                                    let ev =
                                        pipeline::evaluate(&mut views, &req, qi as u32, driver);
                                    Ok((qi, ev.trace.phase_micros, ev.scored?))
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("query thread panicked")).collect()
            });
            let mut phases = [0; Phase::COUNT];
            for (_, micros, _) in per_thread.iter().flatten().flatten() {
                add_phases(&mut phases, micros);
            }
            // Per-query event deltas need a serial loop; a parallel run
            // reports set-level counters and phase totals only.
            Ok((per_thread, Vec::new(), phases))
        };
        let (report, per_thread) = measure_set(std::slice::from_mut(self), queries.len(), run)?;
        let mut rankings = vec![Vec::new(); queries.len()];
        for thread in per_thread {
            for (qi, _, scored) in thread? {
                rankings[qi] = pipeline::name_hits(&self.docs, scored);
            }
        }
        Ok(ParallelSetReport { report, threads, rankings })
    }

    /// Incrementally adds a document to the collection — the dynamic-update
    /// service the paper's conclusions call for, enabled by the object
    /// store (Mneme backends only; the archival B-tree configuration
    /// requires re-indexing, as in the original INQUERY).
    ///
    /// Each touched record is rewritten by [`poir_inquery::splice_append`],
    /// byte-identical to decoding, pushing the posting and re-encoding. The
    /// update is all or nothing: the document-table entry, the dictionary
    /// statistics and any new terms are committed only after the last
    /// record is written, and an error part-way puts every record already
    /// written back (see [`Engine::remove_document`]).
    pub fn add_document(&mut self, name: &str, text: &str) -> Result<DocId> {
        let Engine { store, dict, docs, stop, .. } = self;
        let StoreImpl::Mneme(store) = store else {
            return Err(CoreError::Unsupported("incremental update on the B-tree backend"));
        };
        let raw_tokens =
            text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|t| !t.is_empty()).count();
        // The id the document table hands out at commit.
        let doc = DocId(docs.len() as u32);
        // Ascending term order, not hash order: which record relocates to
        // end-of-file first decides the file's size and bytes written.
        let mut by_term: std::collections::BTreeMap<String, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (token, pos) in poir_inquery::tokenize(text, stop) {
            by_term.entry(token).or_default().push(pos);
        }
        let mut rewrites = Vec::with_capacity(by_term.len());
        let mut spliced = Vec::new();
        let written = by_term.iter().try_for_each(|(token, positions)| {
            append_posting(store, dict, &mut rewrites, token, doc, positions, &mut spliced)
        });
        if let Err(e) = written {
            return Err(roll_back(store, dict, rewrites, e));
        }
        // Commit. New terms intern in ascending order, as they always have.
        for r in rewrites {
            let id = r.prior.map_or_else(|| dict.intern(r.token), |(id, _)| id);
            let entry = dict.entry_mut(id);
            entry.store_ref = r.store_ref;
            entry.df += 1;
            entry.cf += r.tf as u64;
        }
        let pushed = docs.push(name.to_string(), raw_tokens as u32);
        debug_assert_eq!(pushed, doc);
        Ok(doc)
    }

    /// Incrementally removes a document, given its original text (the
    /// deletion side of dynamic update). Mneme backends only.
    ///
    /// Each touched record is rewritten by [`poir_inquery::splice_remove`];
    /// a record that does not decode where the splice reads it is a
    /// [`CoreError::CorruptRecord`]. Like [`Engine::add_document`] the
    /// update is all or nothing: dictionary statistics change only after the
    /// last record is written, and on an error every record already written
    /// is rewritten from the bytes fetched for it (a new term's record is
    /// deleted). A restore that itself fails leaves that record as the
    /// update wrote it; the caller sees the update's own error either way.
    ///
    /// Records are rewritten through [`poir_mneme::MnemeFile::update`],
    /// which writes back only the bytes a splice changed. A record that
    /// outgrows its segment moves to the end of the data region with one
    /// size class of headroom, and the space it leaves is reclaimed only
    /// by an explicit [`poir_mneme::gc::compact`] pass, which no engine
    /// path runs.
    pub fn remove_document(&mut self, doc: DocId, text: &str) -> Result<()> {
        let Engine { store, dict, stop, .. } = self;
        let StoreImpl::Mneme(store) = store else {
            return Err(CoreError::Unsupported("incremental update on the B-tree backend"));
        };
        let mut terms: Vec<String> = poir_inquery::tokenize(text, stop).map(|(t, _)| t).collect();
        terms.sort_unstable();
        terms.dedup();
        let mut rewrites = Vec::with_capacity(terms.len());
        let mut spliced = Vec::new();
        let written = terms.iter().try_for_each(|token| {
            remove_posting(store, dict, &mut rewrites, token, doc, &mut spliced)
        });
        if let Err(e) = written {
            return Err(roll_back(store, dict, rewrites, e));
        }
        for r in rewrites {
            let (id, _) = r.prior.expect("removal rewrites existing terms");
            let entry = dict.entry_mut(id);
            entry.store_ref = r.store_ref;
            entry.df = entry.df.saturating_sub(1);
            entry.cf = entry.cf.saturating_sub(r.tf as u64);
        }
        Ok(())
    }

    /// Flushes the inverted file and writes the dictionary + document table
    /// + engine metadata to `meta`.
    pub fn save(&mut self, meta: &FileHandle) -> Result<()> {
        match &mut self.store {
            StoreImpl::BTree(s) => s.flush()?,
            StoreImpl::Mneme(s) => s.flush()?,
        }
        let dict_bytes = self.dict.to_bytes();
        let docs_bytes = self.docs.to_bytes();
        let largest = match &self.store {
            StoreImpl::Mneme(s) => s.largest_record() as u64,
            StoreImpl::BTree(_) => 0,
        };
        let mut out = Vec::with_capacity(32 + dict_bytes.len() + docs_bytes.len());
        out.extend_from_slice(b"IQME");
        out.push(match self.backend {
            BackendKind::BTree => 1,
            BackendKind::MnemeNoCache => 2,
            BackendKind::MnemeCache => 3,
        });
        out.extend_from_slice(&largest.to_le_bytes());
        out.extend_from_slice(&(dict_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&dict_bytes);
        out.extend_from_slice(&docs_bytes);
        meta.truncate(0)?;
        meta.write(0, &out)?;
        meta.sync()?;
        Ok(())
    }

    pub(crate) fn from_builder_open(
        b: EngineBuilder,
        store_handle: FileHandle,
        meta: &FileHandle,
    ) -> Result<Engine> {
        let bytes = meta.read(0, meta.len()? as usize)?;
        if bytes.len() < 21 || &bytes[0..4] != b"IQME" {
            return Err(CoreError::CorruptMetadata("missing IQME header"));
        }
        let backend = match bytes[4] {
            1 => BackendKind::BTree,
            2 => BackendKind::MnemeNoCache,
            3 => BackendKind::MnemeCache,
            _ => return Err(CoreError::CorruptMetadata("unknown backend tag")),
        };
        let largest = u64::from_le_bytes(bytes[5..13].try_into().unwrap()) as usize;
        let dict_len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
        if bytes.len() < 21 + dict_len {
            return Err(CoreError::CorruptMetadata("truncated dictionary"));
        }
        let dict = Dictionary::from_bytes(&bytes[21..21 + dict_len])
            .ok_or(CoreError::CorruptMetadata("dictionary failed to decode"))?;
        let docs = DocTable::from_bytes(&bytes[21 + dict_len..])
            .ok_or(CoreError::CorruptMetadata("document table failed to decode"))?;
        let store = match backend {
            BackendKind::BTree => StoreImpl::BTree(BTreeInvertedFile::open(
                store_handle.clone(),
                BTreeConfig::default().cache_nodes,
            )?),
            BackendKind::MnemeNoCache | BackendKind::MnemeCache => {
                StoreImpl::Mneme(MnemeInvertedFile::open(store_handle.clone(), largest)?)
            }
        };
        Self::assemble(b, backend, dict, docs, store, store_handle)
    }
}

/// One record an update has written, held until the update commits (to
/// apply its dictionary change) or fails (to put the record back).
struct Rewrite<'t> {
    token: &'t str,
    /// Where the record lives now.
    store_ref: u64,
    /// Occurrences of the term in the document added or removed.
    tf: u32,
    /// The term's id and its record as fetched before the update; `None`
    /// for a term this update introduces, which is interned only at commit.
    prior: Option<(TermId, RecordBytes)>,
}

fn corrupt(token: &str) -> CoreError {
    CoreError::CorruptRecord(format!("record for {token:?}"))
}

/// Writes `token`'s record with `doc`'s posting appended (a fresh record
/// for a term the dictionary lacks) and queues the write in `rewrites`.
fn append_posting<'t>(
    store: &mut MnemeInvertedFile,
    dict: &Dictionary,
    rewrites: &mut Vec<Rewrite<'t>>,
    token: &'t str,
    doc: DocId,
    positions: &[u32],
    spliced: &mut Vec<u8>,
) -> Result<()> {
    let tf = positions.len() as u32;
    let Some(id) = dict.lookup(token) else {
        // Tokenizer positions are ascending and never empty.
        poir_inquery::splice_append(poir_inquery::EMPTY_RECORD, doc, positions, spliced)
            .expect("a fresh record takes any posting");
        let store_ref = store.insert_record(spliced)?;
        rewrites.push(Rewrite { token, store_ref, tf, prior: None });
        return Ok(());
    };
    let store_ref = dict.entry(id).store_ref;
    let before = store.fetch(store_ref)?;
    poir_inquery::splice_append(&before, doc, positions, spliced).ok_or_else(|| corrupt(token))?;
    let r = Rewrite { token, store_ref, tf, prior: Some((id, before)) };
    rewrite(store, rewrites, r, spliced)
}

/// Writes `token`'s record with `doc`'s posting removed and queues the
/// write in `rewrites`; a term or list without `doc` is left alone.
fn remove_posting<'t>(
    store: &mut MnemeInvertedFile,
    dict: &Dictionary,
    rewrites: &mut Vec<Rewrite<'t>>,
    token: &'t str,
    doc: DocId,
    spliced: &mut Vec<u8>,
) -> Result<()> {
    let Some(id) = dict.lookup(token) else { return Ok(()) };
    let store_ref = dict.entry(id).store_ref;
    let before = store.fetch(store_ref)?;
    let removed =
        poir_inquery::splice_remove(&before, doc, spliced).ok_or_else(|| corrupt(token))?;
    let Some(tf) = removed else { return Ok(()) };
    let r = Rewrite { token, store_ref, tf, prior: Some((id, before)) };
    rewrite(store, rewrites, r, spliced)
}

/// Writes `spliced` over the record `r` names and queues `r` for commit or
/// undo. A write that fails is queued too, under its old reference: it may
/// have moved the record part-way, so the undo restores it with the rest.
fn rewrite<'t>(
    store: &mut MnemeInvertedFile,
    rewrites: &mut Vec<Rewrite<'t>>,
    mut r: Rewrite<'t>,
    spliced: &[u8],
) -> Result<()> {
    let written = store.update_record(r.store_ref, spliced);
    if let Ok(new_ref) = written {
        r.store_ref = new_ref;
    }
    rewrites.push(r);
    written.map(drop)
}

/// Undoes a failed update's writes, newest first, and hands back its
/// error: a rewritten record gets its fetched bytes again (re-inserted if
/// the failed write left no object to update, with the dictionary
/// following wherever the store puts it), and a new term's record is
/// deleted.
fn roll_back(
    store: &mut MnemeInvertedFile,
    dict: &mut Dictionary,
    rewrites: Vec<Rewrite<'_>>,
    error: CoreError,
) -> CoreError {
    for r in rewrites.into_iter().rev() {
        let Some((id, before)) = r.prior else {
            let _ = store.delete_record(r.store_ref);
            continue;
        };
        let restored =
            store.update_record(r.store_ref, &before).or_else(|_| store.insert_record(&before));
        if let Ok(store_ref) = restored {
            dict.entry_mut(id).store_ref = store_ref;
        }
    }
    error
}

/// The engines' retry policy: the default budget, immediately — the
/// direct path has no backoff clock of its own.
fn direct_retry() -> RetryPolicy {
    RetryPolicy { backoff: Duration::ZERO, ..RetryPolicy::default() }
}

/// Splits shard engines (one, for an unsharded [`Engine`]) into the
/// pipeline's per-shard read views plus the values an engine driver
/// supplies. Stop words, belief parameters, mode, reservation and the
/// recorder are builder-wide, so the first engine's stand for all.
fn drive(engines: &mut [Engine], timed: bool) -> (Vec<ShardView<'_>>, Driver<'_>) {
    let mut driver = None;
    let views = engines
        .iter_mut()
        .map(|e| {
            driver.get_or_insert_with(|| Driver {
                default_mode: e.exec_mode,
                origin: Instant::now(),
                retry: direct_retry(),
                reserve: e.reserve_enabled,
                timed,
                recorder: &e.recorder,
                stop: &e.stop,
                params: e.params,
            });
            ShardView { store: e.store.as_store(), dict: &e.dict, docs: &e.docs }
        })
        .collect();
    (views, driver.expect("an engine driver has at least one shard"))
}

/// One typed request over `engines` as shards: the body of
/// [`Engine::execute`] and [`crate::ShardedEngine::execute`].
pub(crate) fn execute_on(engines: &mut [Engine], req: &QueryRequest) -> Result<QueryResponse> {
    let (mut views, driver) = drive(engines, true);
    let ev = pipeline::evaluate(&mut views, req, req.id.unwrap_or(0), &driver);
    pipeline::respond(ev, views[0].docs, 0, driver.origin)
}

/// Adds one evaluation's phase table into a set's running totals.
fn add_phases(total: &mut [u64; Phase::COUNT], micros: &[u64; Phase::COUNT]) {
    for (t, m) in total.iter_mut().zip(micros) {
        *t += m;
    }
}

/// The paper's measurement procedure (Section 4.2) around one batch run —
/// the one wrapper behind all three batch runners: chill the OS cache,
/// snapshot every counter, time `run`, report the deltas (how they
/// aggregate across shards: [`crate::ShardedEngine::run_query_set`]).
/// `run` returns its per-query traces and its summed phase table.
fn measure_set<R>(
    engines: &mut [Engine],
    queries: usize,
    run: impl FnOnce(&mut [Engine]) -> Result<(R, Vec<QueryTrace>, [u64; Phase::COUNT])>,
) -> Result<(QuerySetReport, R)> {
    let lookups =
        |engines: &[Engine]| -> u64 { engines.iter().map(|e| e.store.record_lookups()).sum() };
    let device = Arc::clone(&engines[0].device);
    let recorder = engines[0].recorder.clone();
    device.chill();
    for engine in engines.iter() {
        engine.store.reset_buffer_stats();
    }
    let lookups_before = lookups(engines);
    let io_before = device.stats().snapshot();
    let tel_before = recorder.snapshot();
    let start = Instant::now();
    let (out, traces, phase_micros) = run(engines)?;
    let engine_time = start.elapsed();
    let io = device.stats().snapshot().since(&io_before);
    // Saturating: a caller resetting store counters between runs must read
    // as "no lookups", not underflow.
    let record_lookups = lookups(engines).saturating_sub(lookups_before);
    let buffer_stats = match engines {
        [engine] => engine.store.buffer_stats()?,
        _ => None,
    };
    let sys_io_time = device.cost_model().charge(&io);
    // The telemetry report: raw counter deltas, the phase totals and
    // per-query traces, and the set's cost-model charge.
    let metrics = recorder.is_enabled().then(|| MetricsReport {
        queries,
        delta: recorder.snapshot().since(&tel_before),
        phase_micros,
        traces,
        engine_micros: engine_time.as_micros() as u64,
        sim_io_micros: sys_io_time.as_micros(),
    });
    let report = QuerySetReport {
        queries,
        engine_time,
        sys_io_time,
        io,
        record_lookups,
        buffer_stats,
        metrics,
    };
    Ok((report, out))
}

/// One measured batch over `engines` as shards: the body of
/// [`Engine::run_query_set_mode`] and
/// [`crate::ShardedEngine::run_query_set`].
pub(crate) fn run_set_on<S: AsRef<str>>(
    engines: &mut [Engine],
    queries: &[S],
    k: usize,
    mode: Option<ExecMode>,
) -> Result<(QuerySetReport, Vec<Vec<RankedResult>>)> {
    // Parsing stays inside the timed region: "timing was begun just before
    // query processing started", and parsing is part of query processing.
    let (report, rankings) = measure_set(engines, queries.len(), |engines| {
        // With telemetry off the pipeline takes no timestamps, so the
        // measured path stays free of observation overhead.
        let timed = engines[0].recorder.is_enabled();
        let (mut views, driver) = drive(engines, timed);
        let mut traces = Vec::new();
        let mut phases = [0; Phase::COUNT];
        let mut rankings = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let req =
                QueryRequest { text: q.as_ref().to_string(), k, mode, deadline: None, id: None };
            let ev = pipeline::evaluate(&mut views, &req, qi as u32, &driver);
            rankings.push(ev.scored?);
            if timed {
                add_phases(&mut phases, &ev.trace.phase_micros);
                traces.push(ev.trace);
            }
        }
        Ok((rankings, traces, phases))
    })?;
    let docs = &engines[0].docs;
    Ok((report, rankings.into_iter().map(|r| pipeline::name_hits(docs, r)).collect()))
}
