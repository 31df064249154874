//! The sharded query service: a bounded admission queue in front of a
//! fixed worker pool.
//!
//! [`QueryService`] owns the shards of a [`ShardedEngine`] (decomposed
//! into their shared-view parts) and serves typed
//! [`QueryRequest`]s from a bounded queue:
//!
//! * **Admission control** — the queue has a fixed capacity; a request
//!   arriving at a full queue is rejected immediately with
//!   [`CoreError::Overloaded`] instead of queueing without bound
//!   (reject-when-full load shedding).
//! * **Deadlines** — a request's budget is measured from submission. An
//!   already-expired request is dropped at dequeue without evaluation;
//!   after that the pipeline's
//!   [deadline, retry and degrade rule](crate::pipeline) applies (checked
//!   between shards and after the merge, transient faults retried under
//!   [`ServiceConfig::retry`], failed shards degraded). An expired budget
//!   yields [`CoreError::DeadlineExceeded`] carrying the hits computed so
//!   far.
//! * **Fixed worker pool** — `workers` threads (see
//!   [`ShardSpec`]) drive the evaluation [`pipeline`]
//!   concurrently over each shard store's lock-synchronized
//!   [`shared_view`](crate::MnemeInvertedFile::shared_view); Mneme
//!   backends only, like the parallel batch path.
//!
//! Every admission decision is counted once, by the service's registry
//! (`admitted` / `rejected` / `expired`), and a tracing recorder gets one
//! `queue_wait` slice per dequeued request.
//!
//! On top of the counters sits the serving observatory (PR 8): a
//! [`MetricsRegistry`] of windowed counters/gauges/histograms (queue
//! depth, admitted/rejected/expired, in-flight workers, per-shard eval,
//! merge, deadline slack), a [`BreakdownRing`] feeding p99 tail-latency
//! attribution, a [`FlightRecorder`] retaining the N slowest requests
//! (with their trace slices when tracing is on), and a
//! [`QueryService::stats`] snapshot — optionally sampled periodically to
//! a JSONL file (plus a Prometheus text exposition on shutdown) by a
//! background thread configured through [`ServiceConfig`].

use std::fs::OpenOptions;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use poir_inquery::{BlockCacheStats, InvertedFileStore};
use poir_telemetry::trace::tag_query;
use poir_telemetry::{
    Attribution, BreakdownRing, Counter, FlightRecorder, Gauge, Histogram, LatencyBreakdown,
    LatencySummary, MetricsRegistry, Recorder, RegistrySnapshot, SlowQueryRecord, SlowShard,
    TraceOp, WindowRates,
};

use crate::engine::{ExecMode, QueryRequest, QueryResponse};
use crate::error::{CoreError, Result};
use crate::pipeline::{self, Driver, ShardView};
use crate::result_cache::{ResultCache, ResultCacheStats, ResultKey};
use crate::shard::{ShardRuntime, ShardSpec, ShardedEngine};

/// Bounded-retry policy for transient storage faults during shard
/// evaluation (see [`CoreError::is_transient_fault`]). The backoff is
/// deterministic — `backoff * attempt` — so a chaos run is replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per shard per request beyond the first attempt.
    pub max_retries: u32,
    /// Base backoff; attempt `n` sleeps `backoff * n` before retrying.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, backoff: Duration::from_micros(100) }
    }
}

/// Serving-side configuration for [`QueryService::start_with`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission queue capacity (min 1; reject-when-full).
    pub queue_capacity: usize,
    /// Bounded retry for transient storage faults during evaluation.
    pub retry: RetryPolicy,
    /// End-to-end microseconds past which a request enters the slow-query
    /// flight recorder.
    pub slow_threshold_micros: u64,
    /// Slowest requests the flight recorder retains.
    pub slow_capacity: usize,
    /// Recent requests the latency-breakdown ring retains (the p99
    /// attribution window).
    pub breakdown_window: usize,
    /// When set, a background sampler appends one stats JSON line per
    /// interval to this file, plus a final line and a Prometheus text
    /// exposition (`<path>.prom`) at shutdown.
    pub stats_out: Option<PathBuf>,
    /// Sampling interval for `stats_out`.
    pub stats_interval: Duration,
    /// Entry capacity of the query-result cache (tier 3 of the cache
    /// hierarchy): repeated requests under an unchanged store epoch are
    /// answered without touching any shard. 0 (the default) disables it.
    pub result_cache_entries: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 32,
            retry: RetryPolicy::default(),
            slow_threshold_micros: 10_000,
            slow_capacity: 32,
            breakdown_window: 4096,
            stats_out: None,
            stats_interval: Duration::from_secs(1),
            result_cache_entries: 0,
        }
    }
}

/// The service's windowed metrics and observability state. Registered
/// once at startup; every handle is lock-free on the hot path.
struct ServiceMetrics {
    registry: MetricsRegistry,
    queue_depth: Gauge,
    in_flight: Gauge,
    admitted: Counter,
    rejected: Counter,
    expired: Counter,
    completed: Counter,
    failed: Counter,
    degraded: Counter,
    shard_retries: Counter,
    worker_panics: Counter,
    result_cache_hits: Counter,
    result_cache_misses: Counter,
    queue_wait: Histogram,
    eval: Vec<Histogram>,
    merge: Histogram,
    request: Histogram,
    deadline_slack: Histogram,
    breakdowns: BreakdownRing,
    flight: FlightRecorder,
}

impl ServiceMetrics {
    fn new(shards: usize, config: &ServiceConfig) -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        ServiceMetrics {
            queue_depth: registry.gauge("queue_depth"),
            in_flight: registry.gauge("in_flight"),
            admitted: registry.counter("admitted"),
            rejected: registry.counter("rejected"),
            expired: registry.counter("expired"),
            completed: registry.counter("completed"),
            failed: registry.counter("failed"),
            degraded: registry.counter("degraded"),
            shard_retries: registry.counter("shard_retries"),
            worker_panics: registry.counter("worker_panics"),
            result_cache_hits: registry.counter("result_cache_hits"),
            result_cache_misses: registry.counter("result_cache_misses"),
            queue_wait: registry.histogram("queue_wait_micros"),
            eval: (0..shards)
                .map(|i| registry.histogram(&format!("shard{i}_eval_micros")))
                .collect(),
            merge: registry.histogram("merge_micros"),
            request: registry.histogram("request_micros"),
            deadline_slack: registry.histogram("deadline_slack_micros"),
            breakdowns: BreakdownRing::new(config.breakdown_window),
            flight: FlightRecorder::new(config.slow_capacity, config.slow_threshold_micros),
            registry,
        }
    }
}

/// Per-shard failure accounting, updated lock-free by the workers.
#[derive(Default)]
struct ShardHealthState {
    /// Requests where this shard failed past the retry budget.
    failures: AtomicU64,
    /// Transient-fault retries attempted against this shard.
    retries: AtomicU64,
    /// Failures since this shard last evaluated cleanly.
    consecutive_failures: AtomicU64,
}

/// One shard's health in a [`ServiceStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// `false` while the shard's most recent evaluation failed.
    pub healthy: bool,
    /// Lifetime requests where this shard failed past the retry budget.
    pub failures: u64,
    /// Lifetime transient-fault retries against this shard.
    pub retries: u64,
    /// Failures since the shard last evaluated cleanly.
    pub consecutive_failures: u64,
}

impl ShardHealth {
    fn to_json(&self) -> String {
        format!(
            "{{\"shard\": {}, \"healthy\": {}, \"failures\": {}, \"retries\": {}, \
             \"consecutive_failures\": {}}}",
            self.shard, self.healthy, self.failures, self.retries, self.consecutive_failures
        )
    }
}

/// State shared between the service handle and its workers.
struct ServiceShared {
    shards: Vec<ShardRuntime>,
    recorder: Recorder,
    capacity: usize,
    /// Per-shard failure accounting, index-aligned with `shards`.
    health: Vec<ShardHealthState>,
    /// Tier-3 query-result cache (None when disabled by configuration).
    result_cache: Option<ResultCache>,
    metrics: ServiceMetrics,
    config: ServiceConfig,
    started: Instant,
}

/// One admitted request in flight through the worker pool.
struct Job {
    request: QueryRequest,
    submitted: Instant,
    seq: u32,
    reply: mpsc::Sender<Result<QueryResponse>>,
}

/// Handle to a submitted request; redeem with [`PendingQuery::wait`].
#[derive(Debug)]
pub struct PendingQuery {
    seq: u32,
    rx: Receiver<Result<QueryResponse>>,
}

impl PendingQuery {
    /// Blocks until the worker pool finishes this request.
    pub fn wait(self) -> Result<QueryResponse> {
        self.rx.recv().unwrap_or(Err(CoreError::ServiceStopped))
    }

    /// The service-assigned sequence number (the `queue_wait` trace
    /// object).
    pub fn sequence(&self) -> u32 {
        self.seq
    }
}

/// A running query service; see the module docs.
pub struct QueryService {
    shared: Arc<ServiceShared>,
    spec: ShardSpec,
    seq: AtomicU32,
    /// `None` once [`QueryService::shutdown`] has run; dropping the
    /// sender is what lets blocked workers drain and exit.
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The stats sampler thread (when `stats_out` is configured);
    /// dropping the sender tells it to write the final snapshot and exit.
    sampler: Mutex<Option<(mpsc::Sender<()>, JoinHandle<()>)>>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("spec", &self.spec)
            .field("capacity", &self.shared.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl QueryService {
    /// Starts the worker pool over `engine`'s shards with a bounded
    /// admission queue of `queue_capacity` requests (min 1). Mneme
    /// backends only — workers fetch through each shard store's
    /// [`shared_view`](crate::MnemeInvertedFile::shared_view).
    pub fn start(engine: ShardedEngine, queue_capacity: usize) -> Result<QueryService> {
        Self::start_with(engine, ServiceConfig { queue_capacity, ..ServiceConfig::default() })
    }

    /// [`QueryService::start`] with the full serving configuration:
    /// admission capacity plus the observability knobs (slow-query
    /// threshold and capacity, breakdown window, stats sampling).
    pub fn start_with(engine: ShardedEngine, config: ServiceConfig) -> Result<QueryService> {
        let capacity = config.queue_capacity.max(1);
        let (spec, shards, recorder) = engine.into_parts()?;
        let metrics = ServiceMetrics::new(shards.len(), &config);
        let health = (0..shards.len()).map(|_| ShardHealthState::default()).collect();
        let result_cache = (config.result_cache_entries > 0)
            .then(|| ResultCache::new(config.result_cache_entries));
        let shared = Arc::new(ServiceShared {
            shards,
            recorder,
            capacity,
            health,
            result_cache,
            metrics,
            config,
            started: Instant::now(),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..spec.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared, &rx))
            })
            .collect();
        let sampler = shared.config.stats_out.clone().map(|path| {
            let shared = Arc::clone(&shared);
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            let handle =
                std::thread::spawn(move || Self::sampler_loop(&shared, spec, &path, &stop_rx));
            (stop_tx, handle)
        });
        Ok(QueryService {
            shared,
            spec,
            seq: AtomicU32::new(0),
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            sampler: Mutex::new(sampler),
        })
    }

    /// Appends one stats snapshot per interval to `path`; on shutdown
    /// writes a final snapshot line plus the Prometheus text exposition
    /// to `<path>.prom`. Write errors are deliberately swallowed — the
    /// observer must never take down the server.
    fn sampler_loop(
        shared: &Arc<ServiceShared>,
        spec: ShardSpec,
        path: &std::path::Path,
        stop_rx: &Receiver<()>,
    ) {
        let append = |line: &str| {
            if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
                let _ = writeln!(f, "{line}");
            }
        };
        while let Err(mpsc::RecvTimeoutError::Timeout) =
            stop_rx.recv_timeout(shared.config.stats_interval)
        {
            append(&stats_of(shared, spec).to_json());
        }
        // Final snapshot: workers are already joined at shutdown, so this
        // line sees the service's final counters even if no interval
        // elapsed during a short run.
        let stats = stats_of(shared, spec);
        append(&stats.to_json());
        let mut prom = path.as_os_str().to_os_string();
        prom.push(".prom");
        let _ = std::fs::write(prom, stats.prometheus_text());
    }

    /// The sharding layout the service runs.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The admission queue's capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Requests currently admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        // A worker may dequeue before the submitter's increment lands, so
        // the gauge can dip below zero for an instant.
        self.shared.metrics.queue_depth.value().max(0) as usize
    }

    /// The shared telemetry recorder (per-query I/O and decode counters
    /// land here; service outcomes are counted by [`QueryService::stats`]).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The serving configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Typed snapshot of the service's own metrics: lifetime counters,
    /// windowed rates, exact latency percentiles over the breakdown
    /// window, p99 attribution, and slow-query flight-recorder state.
    pub fn stats(&self) -> ServiceStats {
        stats_of(&self.shared, self.spec)
    }

    /// Counters from the query-result cache (`None` when
    /// [`ServiceConfig::result_cache_entries`] is 0).
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        self.shared.result_cache.as_ref().map(|c| c.stats())
    }

    /// Counters from the decoded-block cache, when the shard stores carry
    /// one (a single instance shared across shards by the builder).
    pub fn block_cache_stats(&self) -> Option<BlockCacheStats> {
        self.shared.shards.iter().find_map(|s| s.store.block_cache().map(|c| c.stats()))
    }

    /// Invalidates the epoch-keyed serving caches (query results and
    /// decoded blocks) by bumping every shard store's mutation epoch —
    /// the operational hook for out-of-band index updates.
    pub fn invalidate_caches(&self) {
        for s in &self.shared.shards {
            s.store.bump_epoch();
        }
    }

    /// The flight recorder's retained slow queries, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.shared.metrics.flight.snapshot()
    }

    /// The retained slow queries as JSONL, one record per line.
    pub fn slow_queries_jsonl(&self) -> String {
        self.shared.metrics.flight.dump_jsonl()
    }

    /// Submits a request without blocking. A full queue rejects with
    /// [`CoreError::Overloaded`]; a stopped service with
    /// [`CoreError::ServiceStopped`].
    pub fn try_submit(&self, request: QueryRequest) -> Result<PendingQuery> {
        let tx = self.tx.lock().expect("service sender mutex poisoned");
        let Some(tx) = tx.as_ref() else {
            return Err(CoreError::ServiceStopped);
        };
        let (reply, rx) = mpsc::channel();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let job = Job { request, submitted: Instant::now(), seq, reply };
        match tx.try_send(job) {
            Ok(()) => {
                self.shared.metrics.queue_depth.inc();
                self.shared.metrics.admitted.inc();
                Ok(PendingQuery { seq, rx })
            }
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.rejected.inc();
                Err(CoreError::Overloaded { capacity: self.shared.capacity })
            }
            Err(TrySendError::Disconnected(_)) => Err(CoreError::ServiceStopped),
        }
    }

    /// Submits and waits: [`QueryService::try_submit`] then
    /// [`PendingQuery::wait`].
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse> {
        self.try_submit(request)?.wait()
    }

    /// Stops accepting requests, lets the workers drain the queue, and
    /// joins them. Idempotent and safe to call concurrently; requests
    /// already admitted still complete and their [`PendingQuery`]s
    /// resolve.
    pub fn shutdown(&self) {
        // Dropping the sender unblocks every worker's `recv` once the
        // queue is empty — the drain-then-exit protocol.
        self.tx.lock().expect("service sender mutex poisoned").take();
        let workers: Vec<JoinHandle<()>> =
            self.workers.lock().expect("service worker mutex poisoned").drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // Workers are drained, so the sampler's final snapshot sees the
        // service's final counters.
        if let Some((stop_tx, handle)) =
            self.sampler.lock().expect("service sampler mutex poisoned").take()
        {
            drop(stop_tx);
            let _ = handle.join();
        }
    }

    fn worker_loop(shared: &ServiceShared, rx: &Mutex<Receiver<Job>>) {
        loop {
            // Hold the receiver lock only while dequeueing; processing
            // happens with the lock released so the pool stays concurrent.
            let job = {
                let guard = rx.lock().expect("service receiver mutex poisoned");
                match guard.recv() {
                    Ok(job) => job,
                    Err(_) => return,
                }
            };
            shared.metrics.queue_depth.dec();
            // The stable query id joins trace records, the latency
            // breakdown, and the slow-query log; the service sequence
            // number is the fallback when the caller didn't pick one.
            let qid = job.request.id.unwrap_or(job.seq);
            let _tag = tag_query(qid);
            let queue_wait = job.submitted.elapsed();
            let queue_micros = queue_wait.as_micros() as u64;
            shared.recorder.trace(TraceOp::QueueWait, qid as u64, None, 0, queue_wait);
            shared.metrics.queue_wait.record(queue_micros);
            // An already-expired request is dropped without evaluation —
            // its worker time would be pure waste under overload.
            if let Some(budget) = job.request.deadline {
                if queue_wait > budget {
                    shared.metrics.expired.inc();
                    let _ = job.reply.send(Err(CoreError::DeadlineExceeded {
                        budget,
                        elapsed: queue_wait,
                        partial: Vec::new(),
                    }));
                    continue;
                }
            }
            // Tier-3 lookup: a repeated request under an unchanged store
            // epoch is answered from the result cache without touching a
            // single shard. The epoch is read once, before evaluation, so
            // a concurrent invalidation can only make the entry we store
            // unreachable — never serve a stale one.
            let epoch = store_epoch(shared);
            let cache_key = shared.result_cache.as_ref().and_then(|_| {
                let mode = pipeline::resolve_mode(
                    job.request.mode,
                    ExecMode::DaatPruned,
                    shared.shards.len(),
                );
                mode.ok().map(|mode| ResultKey {
                    query: job.request.text.trim().to_string(),
                    k: job.request.k,
                    mode: mode as u8,
                    shards: shared.shards.len(),
                })
            });
            if let (Some(cache), Some(key)) = (shared.result_cache.as_ref(), cache_key.as_ref()) {
                if let Some(mut resp) = cache.get(key, epoch) {
                    // The ranking is the stored evaluation's, bit for bit;
                    // the timing fields describe *this* request.
                    resp.queue_micros = queue_micros;
                    resp.breakdown = LatencyBreakdown::from_parts(
                        qid,
                        queue_micros,
                        0,
                        0,
                        job.submitted.elapsed().as_micros() as u64,
                    );
                    shared.metrics.result_cache_hits.inc();
                    shared.metrics.completed.inc();
                    shared.metrics.request.record(resp.breakdown.total_micros());
                    shared.metrics.breakdowns.push(resp.breakdown);
                    shared.recorder.trace(TraceOp::ResultCache, 1, None, 0, Duration::ZERO);
                    let _ = job.reply.send(Ok(resp));
                    continue;
                }
                shared.metrics.result_cache_misses.inc();
                shared.recorder.trace(TraceOp::ResultCache, 0, None, 1, Duration::ZERO);
            }
            shared.metrics.in_flight.inc();
            // A panicking evaluation must not take the worker (and with
            // it a slice of pool capacity) down: catch it, surface a
            // typed error to the caller, and keep draining the queue.
            // Unwind safety: evaluation only reads the shared state, and
            // the parking_lot locks inside the mneme store don't poison.
            let result =
                catch_unwind(AssertUnwindSafe(|| Self::evaluate(shared, &job, queue_micros)))
                    .unwrap_or_else(|payload| {
                        shared.metrics.worker_panics.inc();
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        Err(CoreError::WorkerPanicked { message })
                    });
            shared.metrics.in_flight.dec();
            match &result {
                Ok(resp) => {
                    Self::record_completion(shared, &job, resp);
                    // Only clean, complete answers are cacheable: a
                    // degraded response would pin its missing shards into
                    // every future hit.
                    if resp.degraded.is_none() {
                        if let (Some(cache), Some(key)) = (shared.result_cache.as_ref(), cache_key)
                        {
                            cache.insert(key, epoch, resp.clone());
                        }
                    }
                }
                Err(CoreError::DeadlineExceeded { .. }) => shared.metrics.expired.inc(),
                Err(_) => {
                    shared.metrics.failed.inc();
                }
            }
            // A dropped PendingQuery just discards the response.
            let _ = job.reply.send(result);
        }
    }

    /// Folds one completed request into the windowed registry, the
    /// breakdown ring, and (past the threshold) the flight recorder.
    fn record_completion(shared: &ServiceShared, job: &Job, resp: &QueryResponse) {
        let m = &shared.metrics;
        m.completed.inc();
        if resp.degraded.is_some() {
            m.degraded.inc();
        }
        for t in &resp.shards {
            if let Some(h) = m.eval.get(t.shard) {
                h.record(t.micros);
            }
        }
        m.merge.record(resp.breakdown.merge_micros);
        let total = resp.breakdown.total_micros();
        m.request.record(total);
        if let Some(budget) = job.request.deadline {
            m.deadline_slack.record((budget.as_micros() as u64).saturating_sub(total));
        }
        m.breakdowns.push(resp.breakdown);
        if total >= m.flight.threshold_micros() {
            let trace = shared
                .recorder
                .tracer()
                .map(|t| t.records_for_query(resp.breakdown.query_id))
                .unwrap_or_default();
            m.flight.offer(SlowQueryRecord {
                query_id: resp.breakdown.query_id,
                seq: job.seq,
                mode: resp.mode.to_string(),
                k: job.request.k,
                breakdown: resp.breakdown,
                shards: resp
                    .shards
                    .iter()
                    .map(|t| SlowShard { shard: t.shard, micros: t.micros, hits: t.hits })
                    .collect(),
                trace,
            });
        }
    }

    /// Evaluates one request: the worker-pool driver of the evaluation
    /// [`pipeline`]. Shards are read through shared views —
    /// so never reserved, see the pipeline docs — the deadline runs from
    /// submission, retries follow [`ServiceConfig::retry`], and shard
    /// health and the retry counter are derived from the per-shard
    /// outcomes, which the pipeline reports even when the request fails.
    fn evaluate(shared: &ServiceShared, job: &Job, queue_micros: u64) -> Result<QueryResponse> {
        let mut stores: Vec<_> = shared.shards.iter().map(|s| s.store.shared_view()).collect();
        let mut views: Vec<ShardView<'_>> = stores
            .iter_mut()
            .zip(&shared.shards)
            .map(|(store, s)| ShardView { store, dict: &s.dict, docs: &s.docs })
            .collect();
        let driver = Driver {
            default_mode: ExecMode::DaatPruned,
            origin: job.submitted,
            retry: shared.config.retry,
            reserve: false,
            timed: true,
            recorder: &shared.recorder,
            stop: &shared.shards[0].stop,
            params: shared.shards[0].params,
        };
        let qid = job.request.id.unwrap_or(job.seq);
        let ev = pipeline::evaluate(&mut views, &job.request, qid, &driver);
        for outcome in &ev.shards {
            let health = &shared.health[outcome.timing.shard];
            if outcome.retries > 0 {
                health.retries.fetch_add(outcome.retries as u64, Ordering::Relaxed);
                shared.metrics.shard_retries.add(outcome.retries as u64);
            }
            if outcome.failed {
                health.failures.fetch_add(1, Ordering::Relaxed);
                health.consecutive_failures.fetch_add(1, Ordering::Relaxed);
            } else {
                health.consecutive_failures.store(0, Ordering::Relaxed);
            }
        }
        pipeline::respond(ev, &shared.shards[0].docs, queue_micros, job.submitted)
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sum of the shard stores' combined epochs — changes whenever any shard
/// store mutates (each combined epoch only grows, so the sum is monotone
/// and never revisits a value).
fn store_epoch(shared: &ServiceShared) -> u64 {
    shared.shards.iter().map(|s| InvertedFileStore::store_epoch(&s.store)).sum()
}

/// Typed snapshot of a running service's own metrics — the return type
/// of [`QueryService::stats`] and the line format of `--stats-out`.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Seconds since the service started.
    pub uptime_secs: f64,
    /// Shards the service evaluates against.
    pub shards: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Requests admitted but not yet dequeued (instantaneous).
    pub queue_depth: i64,
    /// Requests being evaluated right now (instantaneous).
    pub in_flight: i64,
    /// Lifetime requests admitted.
    pub admitted: u64,
    /// Lifetime requests rejected at admission (queue full).
    pub rejected: u64,
    /// Lifetime requests expired (at dequeue or mid-evaluation).
    pub expired: u64,
    /// Lifetime requests completed successfully.
    pub completed: u64,
    /// Lifetime requests failed with a non-deadline error.
    pub failed: u64,
    /// Lifetime responses that completed with one or more shards missing.
    pub degraded: u64,
    /// Lifetime transient-fault retries across all shards.
    pub shard_retries: u64,
    /// Lifetime worker panics caught (the worker survived each one).
    pub worker_panics: u64,
    /// Per-shard failure accounting, index-aligned with the shards.
    pub shard_health: Vec<ShardHealth>,
    /// Admission rate over the rolling windows.
    pub admitted_rate: WindowRates,
    /// Completion rate over the rolling windows (the server-side QPS).
    pub completed_rate: WindowRates,
    /// Exact end-to-end latency percentiles over the breakdown window.
    pub latency: LatencySummary,
    /// Where the p99 spends its time (`None` before any completion).
    pub attribution: Option<Attribution>,
    /// Flight-recorder admission threshold.
    pub slow_threshold_micros: u64,
    /// Slow queries currently retained by the flight recorder.
    pub slow_retained: usize,
    /// Slow queries ever observed past the threshold.
    pub slow_observed: u64,
    /// Query-result cache counters (`None` when the cache is disabled).
    pub result_cache: Option<ResultCacheStats>,
    /// Decoded-block cache counters (`None` when no cache is attached).
    pub block_cache: Option<BlockCacheStats>,
    /// The shared telemetry recorder's epoch (0 when telemetry is off).
    pub epoch: u64,
    /// Every windowed metric, in registration order.
    pub registry: RegistrySnapshot,
}

impl ServiceStats {
    /// One JSON object on a single line (the `--stats-out` line format;
    /// stable keys, no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"uptime_secs\": {:.3}, \"shards\": {}, \"workers\": {}, \
             \"queue_capacity\": {}, \"queue_depth\": {}, \"in_flight\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"expired\": {}, \"completed\": {}, \
             \"failed\": {}, \"degraded\": {}, \"shard_retries\": {}, \"worker_panics\": {}",
            self.uptime_secs,
            self.shards,
            self.workers,
            self.queue_capacity,
            self.queue_depth,
            self.in_flight,
            self.admitted,
            self.rejected,
            self.expired,
            self.completed,
            self.failed,
            self.degraded,
            self.shard_retries,
            self.worker_panics
        ));
        let health: Vec<String> = self.shard_health.iter().map(ShardHealth::to_json).collect();
        s.push_str(&format!(", \"shard_health\": [{}]", health.join(", ")));
        let rates = |r: &WindowRates| {
            format!("{{\"s1\": {:.3}, \"s10\": {:.3}, \"s60\": {:.3}}}", r.s1, r.s10, r.s60)
        };
        s.push_str(&format!(", \"admitted_rate\": {}", rates(&self.admitted_rate)));
        s.push_str(&format!(", \"completed_rate\": {}", rates(&self.completed_rate)));
        s.push_str(&format!(", \"latency\": {}", self.latency.to_json()));
        s.push_str(&format!(
            ", \"p99_attribution\": {}",
            self.attribution.as_ref().map_or("null".to_string(), |a| a.to_json())
        ));
        s.push_str(&format!(
            ", \"slow\": {{\"threshold_micros\": {}, \"retained\": {}, \"observed\": {}}}",
            self.slow_threshold_micros, self.slow_retained, self.slow_observed
        ));
        s.push_str(&format!(
            ", \"result_cache\": {}",
            self.result_cache.as_ref().map_or("null".to_string(), |c| format!(
                "{{\"hits\": {}, \"misses\": {}, \"evicts\": {}, \"entries\": {}, \
                 \"capacity\": {}, \"hit_rate\": {:.4}}}",
                c.hits,
                c.misses,
                c.evicts,
                c.entries,
                c.capacity,
                c.hit_rate()
            ))
        ));
        s.push_str(&format!(
            ", \"block_cache\": {}",
            self.block_cache.as_ref().map_or("null".to_string(), |c| format!(
                "{{\"hits\": {}, \"misses\": {}, \"admits\": {}, \"evicts\": {}, \
                 \"bytes\": {}, \"entries\": {}, \"capacity\": {}, \"hit_rate\": {:.4}}}",
                c.hits,
                c.misses,
                c.admits,
                c.evicts,
                c.bytes,
                c.entries,
                c.capacity,
                c.hit_rate()
            ))
        ));
        s.push_str(&format!(", \"epoch\": {}", self.epoch));
        s.push_str(&format!(", \"metrics\": {}}}", self.registry.to_json()));
        s
    }

    /// Prometheus text exposition of every windowed metric (prefix
    /// `poir_service_`) plus the uptime gauge.
    pub fn prometheus_text(&self) -> String {
        let mut s = self.registry.prometheus_text("poir_service_");
        s.push_str(&format!(
            "# TYPE poir_service_uptime_seconds gauge\npoir_service_uptime_seconds {:.3}\n",
            self.uptime_secs
        ));
        // The result-cache counters already live in the registry; the
        // block cache is shared store state, exported here by value.
        if let Some(c) = &self.block_cache {
            s.push_str(&format!(
                "# TYPE poir_service_block_cache_hits counter\n\
                 poir_service_block_cache_hits {}\n\
                 # TYPE poir_service_block_cache_misses counter\n\
                 poir_service_block_cache_misses {}\n\
                 # TYPE poir_service_block_cache_bytes gauge\n\
                 poir_service_block_cache_bytes {}\n",
                c.hits, c.misses, c.bytes
            ));
        }
        s
    }
}

/// Builds a [`ServiceStats`] from the shared state (also used by the
/// sampler thread, which has no `QueryService` handle).
fn stats_of(shared: &ServiceShared, spec: ShardSpec) -> ServiceStats {
    let m = &shared.metrics;
    ServiceStats {
        uptime_secs: shared.started.elapsed().as_secs_f64(),
        shards: shared.shards.len(),
        workers: spec.workers,
        queue_capacity: shared.capacity,
        queue_depth: m.queue_depth.value(),
        in_flight: m.in_flight.value(),
        admitted: m.admitted.total(),
        rejected: m.rejected.total(),
        expired: m.expired.total(),
        completed: m.completed.total(),
        failed: m.failed.total(),
        degraded: m.degraded.total(),
        shard_retries: m.shard_retries.total(),
        worker_panics: m.worker_panics.total(),
        shard_health: shared
            .health
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let consecutive = h.consecutive_failures.load(Ordering::Relaxed);
                ShardHealth {
                    shard: i,
                    healthy: consecutive == 0,
                    failures: h.failures.load(Ordering::Relaxed),
                    retries: h.retries.load(Ordering::Relaxed),
                    consecutive_failures: consecutive,
                }
            })
            .collect(),
        admitted_rate: m.admitted.rates(),
        completed_rate: m.completed.rates(),
        latency: m.breakdowns.summary(),
        attribution: m.breakdowns.p99_attribution(),
        slow_threshold_micros: m.flight.threshold_micros(),
        slow_retained: m.flight.len(),
        slow_observed: m.flight.observed(),
        result_cache: shared.result_cache.as_ref().map(|c| c.stats()),
        block_cache: shared.shards.iter().find_map(|s| s.store.block_cache().map(|c| c.stats())),
        epoch: shared.recorder.epoch(),
        registry: m.registry.snapshot(),
    }
}
