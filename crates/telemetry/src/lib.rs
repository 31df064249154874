//! Zero-dependency telemetry for the POIR engine stack.
//!
//! Every layer of the stack accepts a [`Recorder`] handle: the simulated
//! device records file accesses, transfer-block inputs, and OS-cache
//! hits/misses; the Mneme buffer manager records per-pool buffer
//! references, evictions, and reservations; the B-tree records node
//! descents and node-cache traffic; and the evaluation pipeline records
//! dictionary lookups and decode work. A disabled recorder (the default)
//! is a `None` inside a clonable handle — every record call is a single
//! branch, so code can be instrumented unconditionally without
//! measurable cost.
//!
//! Each counted event has one owner. The recorder owns what the storage
//! and evaluation layers do per query:
//!
//! * [`Event`] — global monotonic counters. The I/O events mirror the
//!   storage crate's `IoStats` exactly (they are recorded at the same
//!   call sites), which is what lets [`MetricsReport`] reproduce the
//!   paper's Table 5 I/A/B statistics purely from telemetry.
//! * [`PoolEvent`] — per-buffer-pool counters, indexed by pool id.
//!
//! Service admission, retries, degraded responses and result-cache
//! outcomes are counted once, by the service's [`MetricsRegistry`];
//! decoded-block cache and fault-injection outcomes by their own stats
//! types. Query [`Phase`] times live in each [`QueryTrace`]'s phase
//! table, and a set's [`MetricsReport`] sums them.
//!
//! Snapshots ([`TelemetrySnapshot`]) are plain value types with a
//! saturating [`TelemetrySnapshot::since`], mirroring `IoSnapshot`.
//! [`QueryTrace`] captures one query's phase times and I/O deltas;
//! [`MetricsReport`] aggregates a query set and exports JSON for the
//! bench bins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod metrics;
pub mod trace;

pub use metrics::{
    Attribution, BreakdownRing, Counter, FlightRecorder, Gauge, Histogram, LatencyBreakdown,
    LatencySummary, MetricSnapshot, MetricValue, MetricsRegistry, RegistrySnapshot,
    SlowQueryRecord, SlowShard, WindowRates,
};
pub use trace::{BufferResidencyReport, PoolResidency, TraceOp, TraceRecord, Tracer};

/// Global monotonic counters.
///
/// The first eight mirror `poir_storage::IoStats` field-for-field and are
/// recorded by the device at the exact same call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Event {
    /// Read system calls against the device (Table 5's per-lookup "A" numerator).
    FileAccess,
    /// Write system calls against the device.
    FileWrite,
    /// Bytes read from the device (Table 5's "B", reported in Kbytes).
    BytesRead,
    /// Bytes written to the device.
    BytesWritten,
    /// Transfer blocks faulted in from disk (Table 5's "I").
    IoInput,
    /// Transfer blocks written out to disk.
    IoOutput,
    /// Transfer blocks served from the simulated OS file cache.
    OsCacheHit,
    /// Transfer blocks that missed the OS file cache.
    OsCacheMiss,
    /// Inverted-list record lookups served by a store backend.
    RecordLookup,
    /// Internal node reads while descending the B-tree.
    BTreeNodeDescent,
    /// Internal nodes served from the B-tree node cache.
    BTreeCacheHit,
    /// Internal nodes that missed the B-tree node cache.
    BTreeCacheMiss,
    /// Dictionary (term -> store ref) lookups during query evaluation.
    DictLookup,
    /// Inverted-list records decoded during query evaluation.
    RecordDecoded,
    /// Bytes of inverted-list records decoded during query evaluation.
    RecordBytesDecoded,
    /// Individual postings decoded by a cursor during query evaluation.
    PostingsDecoded,
    /// Postings skipped over (never decoded) by cursor seeks.
    PostingsSkipped,
    /// Whole posting blocks bypassed via the skip directory.
    BlocksSkipped,
    /// Partial (byte-range) record fetches served below the store trait.
    RangeRead,
    /// Bytes of posting payload actually decoded by cursors (bit-packed
    /// blocks plus vbyte streams; excludes bytes skipped via the directory).
    BytesDecoded,
    /// Posting blocks decoded from the v2 bit-packed representation.
    BlocksBitpacked,
}

impl Event {
    /// Number of event kinds (array dimension).
    pub const COUNT: usize = 21;

    /// All events, in declaration order.
    pub const ALL: [Event; Event::COUNT] = [
        Event::FileAccess,
        Event::FileWrite,
        Event::BytesRead,
        Event::BytesWritten,
        Event::IoInput,
        Event::IoOutput,
        Event::OsCacheHit,
        Event::OsCacheMiss,
        Event::RecordLookup,
        Event::BTreeNodeDescent,
        Event::BTreeCacheHit,
        Event::BTreeCacheMiss,
        Event::DictLookup,
        Event::RecordDecoded,
        Event::RecordBytesDecoded,
        Event::PostingsDecoded,
        Event::PostingsSkipped,
        Event::BlocksSkipped,
        Event::RangeRead,
        Event::BytesDecoded,
        Event::BlocksBitpacked,
    ];

    /// Stable snake_case name used in JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Event::FileAccess => "file_accesses",
            Event::FileWrite => "file_writes",
            Event::BytesRead => "bytes_read",
            Event::BytesWritten => "bytes_written",
            Event::IoInput => "io_inputs",
            Event::IoOutput => "io_outputs",
            Event::OsCacheHit => "os_cache_hits",
            Event::OsCacheMiss => "os_cache_misses",
            Event::RecordLookup => "record_lookups",
            Event::BTreeNodeDescent => "btree_node_descents",
            Event::BTreeCacheHit => "btree_cache_hits",
            Event::BTreeCacheMiss => "btree_cache_misses",
            Event::DictLookup => "dict_lookups",
            Event::RecordDecoded => "records_decoded",
            Event::RecordBytesDecoded => "record_bytes_decoded",
            Event::PostingsDecoded => "postings_decoded",
            Event::PostingsSkipped => "postings_skipped",
            Event::BlocksSkipped => "blocks_skipped",
            Event::RangeRead => "range_reads",
            Event::BytesDecoded => "bytes_decoded",
            Event::BlocksBitpacked => "blocks_bitpacked",
        }
    }
}

/// Per-buffer-pool counters, indexed by the Mneme pool id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PoolEvent {
    /// Buffer references (hits + misses).
    Ref,
    /// References satisfied from the pool's buffer.
    Hit,
    /// References that had to read the segment from the device.
    Miss,
    /// Segments evicted to admit new ones.
    Eviction,
    /// Segments pinned by query reservation.
    Reservation,
}

impl PoolEvent {
    /// Number of pool event kinds (array dimension).
    pub const COUNT: usize = 5;

    /// All pool events, in declaration order.
    pub const ALL: [PoolEvent; PoolEvent::COUNT] = [
        PoolEvent::Ref,
        PoolEvent::Hit,
        PoolEvent::Miss,
        PoolEvent::Eviction,
        PoolEvent::Reservation,
    ];

    /// Stable snake_case name used in JSON export.
    pub fn name(self) -> &'static str {
        match self {
            PoolEvent::Ref => "refs",
            PoolEvent::Hit => "hits",
            PoolEvent::Miss => "misses",
            PoolEvent::Eviction => "evictions",
            PoolEvent::Reservation => "reservations",
        }
    }
}

/// Pools tracked per recorder. Mneme uses three (small/medium/large);
/// extra ids are clamped into the last slot rather than dropped.
pub const MAX_POOLS: usize = 4;

/// Query pipeline phases timed by the engine ([`QueryTrace::phase_micros`]
/// is indexed by them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Query text -> belief network parse.
    Parse,
    /// Buffer reservation (pinning) of the query's lists.
    Reserve,
    /// Belief evaluation: dictionary lookups, record fetches, scoring.
    Evaluate,
    /// Sorting and truncating the scored documents.
    Rank,
}

impl Phase {
    /// Number of phases (array dimension).
    pub const COUNT: usize = 4;

    /// All phases, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Parse, Phase::Reserve, Phase::Evaluate, Phase::Rank];

    /// Stable snake_case name used in JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Reserve => "reserve",
            Phase::Evaluate => "evaluate",
            Phase::Rank => "rank",
        }
    }
}

/// Histogram buckets: bucket `i` holds whole-microsecond durations in
/// `[2^(i-1), 2^i - 1]` (bucket 0 holds 0); the last bucket is unbounded.
pub const HISTOGRAM_BUCKETS: usize = 22;

pub(crate) fn bucket_for(micros: u64) -> usize {
    let bits = 64 - micros.leading_zeros() as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

#[derive(Default)]
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl AtomicHistogram {
    pub(crate) fn record(&self, micros: u64) {
        self.buckets[bucket_for(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Power-of-two microsecond buckets; see [`HISTOGRAM_BUCKETS`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations in microseconds.
    pub sum_micros: u64,
}

impl HistogramSnapshot {
    /// Mean observed duration in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile, reported as the containing bucket's upper
    /// bound in microseconds (0 when empty). The power-of-two buckets
    /// make this an upper bound with at most 2x slack — good enough for
    /// dashboards; exact percentiles come from sample rings.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }
}

// Epochs distinguish recorders so snapshot diffs can detect a baseline
// taken against a *different* recorder (epoch 0 = the disabled recorder,
// treated as a wildcard so `TelemetrySnapshot::default()` baselines keep
// working).
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

#[derive(Default)]
struct Inner {
    epoch: u64,
    events: [AtomicU64; Event::COUNT],
    pools: [[AtomicU64; PoolEvent::COUNT]; MAX_POOLS],
}

/// Cheap-to-clone telemetry handle. Disabled by default; every record
/// call on a disabled recorder is a single `Option` branch.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("tracing", &self.is_tracing())
            .finish()
    }
}

impl Recorder {
    /// A recorder that accumulates counters.
    pub fn enabled() -> Recorder {
        let inner = Inner { epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed), ..Inner::default() };
        Recorder { inner: Some(Arc::new(inner)), tracer: None }
    }

    /// A recorder that drops everything (same as `Recorder::default()`).
    pub fn disabled() -> Recorder {
        Recorder { inner: None, tracer: None }
    }

    /// This recorder, additionally appending a [`TraceRecord`] per traced
    /// operation into `tracer`.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Recorder {
        self.tracer = Some(tracer);
        self
    }

    /// Whether record calls accumulate anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This recorder's epoch id: a process-unique nonzero value for an
    /// enabled recorder, 0 for a disabled one. Snapshots carry it so a
    /// diff against a snapshot of a *different* recorder is detectable
    /// (see [`TelemetrySnapshot::epoch_compatible`]).
    pub fn epoch(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.epoch)
    }

    /// Whether traced operations append [`TraceRecord`]s.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// `Some(Instant::now())` when tracing, else `None`. Call sites use
    /// this to time an operation only when a tracer will consume it:
    ///
    /// ```ignore
    /// let t = recorder.trace_start();
    /// // ... the operation ...
    /// recorder.trace_end(t, TraceOp::DeviceRead, offset, None, bytes);
    /// ```
    #[inline]
    pub fn trace_start(&self) -> Option<Instant> {
        if self.tracer.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Appends a trace record spanning from `start` (a
    /// [`Recorder::trace_start`] result) to now. A no-op when `start` is
    /// `None` or no tracer is attached.
    #[inline]
    pub fn trace_end(
        &self,
        start: Option<Instant>,
        op: TraceOp,
        object: u64,
        pool: Option<usize>,
        bytes: u64,
    ) {
        if let (Some(start), Some(tracer)) = (start, &self.tracer) {
            let pool = pool.map_or(trace::NO_POOL, |p| p.min(u8::MAX as usize) as u8);
            tracer.record(op, object, pool, bytes, start.elapsed().as_micros() as u64);
        }
    }

    /// Appends a trace record with an explicit duration (use
    /// [`Duration::ZERO`] for point events). A no-op without a tracer.
    #[inline]
    pub fn trace(&self, op: TraceOp, object: u64, pool: Option<usize>, bytes: u64, dur: Duration) {
        if let Some(tracer) = &self.tracer {
            let pool = pool.map_or(trace::NO_POOL, |p| p.min(u8::MAX as usize) as u8);
            tracer.record(op, object, pool, bytes, dur.as_micros() as u64);
        }
    }

    /// Adds `n` to a global counter.
    #[inline]
    pub fn add(&self, event: Event, n: u64) {
        if let Some(inner) = &self.inner {
            inner.events[event as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to a global counter.
    #[inline]
    pub fn incr(&self, event: Event) {
        self.add(event, 1);
    }

    /// Adds `n` to a per-pool counter. Pool ids beyond [`MAX_POOLS`]
    /// clamp into the last slot.
    #[inline]
    pub fn pool_add(&self, pool: usize, event: PoolEvent, n: u64) {
        if let Some(inner) = &self.inner {
            inner.pools[pool.min(MAX_POOLS - 1)][event as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to a per-pool counter.
    #[inline]
    pub fn pool_incr(&self, pool: usize, event: PoolEvent) {
        self.pool_add(pool, event, 1);
    }

    /// Point-in-time copy of every counter (all zeros when disabled).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        if let Some(inner) = &self.inner {
            snap.epoch = inner.epoch;
            for (out, c) in snap.events.iter_mut().zip(&inner.events) {
                *out = c.load(Ordering::Relaxed);
            }
            for (pool_out, pool) in snap.pools.iter_mut().zip(&inner.pools) {
                for (out, c) in pool_out.iter_mut().zip(pool) {
                    *out = c.load(Ordering::Relaxed);
                }
            }
        }
        snap
    }
}

/// Point-in-time copy of every recorder counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Epoch of the recorder the snapshot was taken from (0 = disabled
    /// recorder or a hand-built baseline; compatible with everything).
    pub epoch: u64,
    /// Global counters, indexed by [`Event`].
    pub events: [u64; Event::COUNT],
    /// Per-pool counters, indexed by pool id then [`PoolEvent`].
    pub pools: [[u64; PoolEvent::COUNT]; MAX_POOLS],
}

impl TelemetrySnapshot {
    /// Value of one global counter.
    pub fn get(&self, event: Event) -> u64 {
        self.events[event as usize]
    }

    /// Value of one per-pool counter.
    pub fn pool(&self, pool: usize, event: PoolEvent) -> u64 {
        self.pools[pool.min(MAX_POOLS - 1)][event as usize]
    }

    /// Whether a delta between the two snapshots is meaningful: same
    /// epoch, or either side is epoch 0 (disabled recorder / hand-built
    /// baseline, compatible with everything).
    pub fn epoch_compatible(&self, other: &TelemetrySnapshot) -> bool {
        self.epoch == other.epoch || self.epoch == 0 || other.epoch == 0
    }

    /// Saturating element-wise difference `self - earlier` (mirrors
    /// `IoSnapshot::since`).
    ///
    /// Debug builds assert the snapshots come from the same recorder;
    /// release builds saturate silently.
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        debug_assert!(
            self.epoch_compatible(earlier),
            "telemetry snapshots come from different recorders (epoch {} vs {})",
            self.epoch,
            earlier.epoch
        );
        let mut out = TelemetrySnapshot {
            epoch: if self.epoch != 0 { self.epoch } else { earlier.epoch },
            ..TelemetrySnapshot::default()
        };
        for (i, v) in out.events.iter_mut().enumerate() {
            *v = self.events[i].saturating_sub(earlier.events[i]);
        }
        for (p, pool) in out.pools.iter_mut().enumerate() {
            for (i, v) in pool.iter_mut().enumerate() {
                *v = self.pools[p][i].saturating_sub(earlier.pools[p][i]);
            }
        }
        out
    }
}

/// Typed telemetry switches for engine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryOptions {
    /// Master switch: record counters and per-query traces at all.
    pub enabled: bool,
    /// Structured trace ring-buffer capacity in records; 0 (the default)
    /// disables the trace log. Requires `enabled`.
    pub trace_capacity: usize,
}

impl TelemetryOptions {
    /// Telemetry off (the default; zero overhead).
    pub fn off() -> TelemetryOptions {
        TelemetryOptions { enabled: false, trace_capacity: 0 }
    }

    /// Counters and per-query traces on.
    pub fn full() -> TelemetryOptions {
        TelemetryOptions { enabled: true, trace_capacity: 0 }
    }

    /// Everything [`TelemetryOptions::full`] records, plus a structured
    /// trace log holding up to `capacity` [`TraceRecord`]s.
    pub fn tracing(capacity: usize) -> TelemetryOptions {
        TelemetryOptions { enabled: true, trace_capacity: capacity }
    }
}

/// Telemetry captured for a single query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// Index of the query within its set.
    pub query: usize,
    /// Results returned after ranking.
    pub results: usize,
    /// Microseconds spent in each phase, indexed by [`Phase`].
    pub phase_micros: [u64; Phase::COUNT],
    /// Counter deltas attributable to this query, indexed by [`Event`].
    pub events: [u64; Event::COUNT],
}

impl QueryTrace {
    /// Delta of one global counter during this query.
    pub fn get(&self, event: Event) -> u64 {
        self.events[event as usize]
    }

    /// Microseconds spent in one phase.
    pub fn phase_micros(&self, phase: Phase) -> u64 {
        self.phase_micros[phase as usize]
    }

    /// Total microseconds across all phases.
    pub fn total_micros(&self) -> u64 {
        self.phase_micros.iter().sum()
    }

    /// JSON object for this trace (stable keys; no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!("{{\"query\": {}, \"results\": {}", self.query, self.results));
        s.push_str(", \"phase_micros\": {");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", phase.name(), self.phase_micros[i]));
        }
        s.push_str("}, \"io\": {");
        for (i, event) in Event::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", event.name(), self.events[i]));
        }
        s.push_str("}}");
        s
    }
}

/// Aggregated telemetry for a whole query set: the counter delta over
/// the run, the summed phase table, per-query traces, and enough derived
/// accessors to rebuild the paper's Table 5 row (I, A, B) without
/// consulting `IoStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Queries executed.
    pub queries: usize,
    /// Counter deltas over the query set.
    pub delta: TelemetrySnapshot,
    /// Each query's [`QueryTrace::phase_micros`] summed over the set,
    /// indexed by [`Phase`]. Every query times every phase once, so each
    /// phase's observation count is `queries`.
    pub phase_micros: [u64; Phase::COUNT],
    /// Per-query traces (empty for parallel runs, where per-query
    /// attribution is not meaningful).
    pub traces: Vec<QueryTrace>,
    /// Engine (CPU) time for the set, microseconds.
    pub engine_micros: u64,
    /// Cost-model charge for the set's I/O, microseconds.
    pub sim_io_micros: u64,
}

impl MetricsReport {
    /// Table 5 "I": transfer blocks read from disk.
    pub fn io_inputs(&self) -> u64 {
        self.delta.get(Event::IoInput)
    }

    /// Read system calls issued against the device.
    pub fn file_accesses(&self) -> u64 {
        self.delta.get(Event::FileAccess)
    }

    /// Inverted-list record lookups served.
    pub fn record_lookups(&self) -> u64 {
        self.delta.get(Event::RecordLookup)
    }

    /// Table 5 "A": file accesses per record lookup.
    pub fn accesses_per_lookup(&self) -> f64 {
        if self.record_lookups() == 0 {
            0.0
        } else {
            self.file_accesses() as f64 / self.record_lookups() as f64
        }
    }

    /// Bytes read from the device.
    pub fn bytes_read(&self) -> u64 {
        self.delta.get(Event::BytesRead)
    }

    /// Table 5 "B": Kbytes read from the device.
    pub fn kbytes_read(&self) -> u64 {
        self.bytes_read() / 1024
    }

    /// OS-cache hit rate over transfer-block touches.
    pub fn os_cache_hit_rate(&self) -> f64 {
        let hits = self.delta.get(Event::OsCacheHit);
        let total = hits + self.delta.get(Event::OsCacheMiss);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Simulated wall-clock seconds: engine time plus cost-model I/O time.
    pub fn wall_clock_secs(&self) -> f64 {
        (self.engine_micros + self.sim_io_micros) as f64 / 1e6
    }

    /// JSON object for the whole report (stable keys; no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + 256 * self.traces.len());
        s.push_str(&format!(
            "{{\n  \"queries\": {},\n  \"engine_micros\": {},\n  \"sim_io_micros\": {},\n",
            self.queries, self.engine_micros, self.sim_io_micros
        ));
        s.push_str(&format!(
            "  \"table5\": {{\"io_inputs\": {}, \"accesses_per_lookup\": {:.4}, \"kbytes_read\": {}}},\n",
            self.io_inputs(),
            self.accesses_per_lookup(),
            self.kbytes_read()
        ));
        s.push_str("  \"counters\": {");
        for (i, event) in Event::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", event.name(), self.delta.events[i]));
        }
        s.push_str("},\n  \"pools\": [");
        for pool in 0..MAX_POOLS {
            if pool > 0 {
                s.push_str(", ");
            }
            s.push('{');
            for (i, event) in PoolEvent::ALL.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {}", event.name(), self.delta.pools[pool][i]));
            }
            s.push('}');
        }
        s.push_str("],\n  \"phases\": {");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let sum = self.phase_micros[i];
            let mean = if self.queries == 0 { 0.0 } else { sum as f64 / self.queries as f64 };
            s.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum_micros\": {sum}, \"mean_micros\": {mean:.1}}}",
                phase.name(),
                self.queries
            ));
        }
        s.push_str("},\n  \"traces\": [");
        for (i, trace) in self.traces.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&trace.to_json());
        }
        s.push_str("]\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.incr(Event::FileAccess);
        r.pool_incr(0, PoolEvent::Hit);
        assert_eq!(r.snapshot(), TelemetrySnapshot::default());
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let r = Recorder::enabled();
        r.add(Event::BytesRead, 100);
        let before = r.snapshot();
        r.add(Event::BytesRead, 50);
        r.incr(Event::IoInput);
        r.pool_add(2, PoolEvent::Eviction, 3);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.get(Event::BytesRead), 50);
        assert_eq!(delta.get(Event::IoInput), 1);
        assert_eq!(delta.pool(2, PoolEvent::Eviction), 3);
        assert_eq!(delta.get(Event::FileAccess), 0);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::enabled();
        let c = r.clone();
        c.incr(Event::RecordLookup);
        assert_eq!(r.snapshot().get(Event::RecordLookup), 1);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(2), 2);
        assert_eq!(bucket_for(3), 2);
        assert_eq!(bucket_for(4), 3);
        assert_eq!(bucket_for(7), 3);
        assert_eq!(bucket_for(8), 4);
        assert_eq!(bucket_for(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = AtomicHistogram::default();
        h.record(5);
        h.record(7);
        let h = h.snapshot();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_micros, 12);
        assert_eq!(h.buckets[3], 2); // [4, 7]
        assert!((h.mean_micros() - 6.0).abs() < 1e-9);
    }

    /// `Event`, `PoolEvent` and `Phase` are hand-kept tables: each `ALL`
    /// must list every variant once, in discriminant order, under a
    /// unique snake_case export name.
    #[test]
    fn event_pool_and_phase_tables_are_consistent() {
        fn check(names: &[(usize, &str)], count: usize) {
            assert_eq!(names.len(), count, "ALL.len() != COUNT");
            let mut seen = std::collections::HashSet::new();
            for (i, &(index, name)) in names.iter().enumerate() {
                assert_eq!(index, i, "ALL[{i}] ({name}) out of discriminant order");
                assert!(seen.insert(name), "duplicate export name {name}");
                assert!(
                    !name.is_empty()
                        && !name.starts_with('_')
                        && !name.ends_with('_')
                        && !name.contains("__")
                        && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                    "{name} is not snake_case"
                );
            }
        }
        let events: Vec<_> = Event::ALL.iter().map(|&e| (e as usize, e.name())).collect();
        check(&events, Event::COUNT);
        let pools: Vec<_> = PoolEvent::ALL.iter().map(|&e| (e as usize, e.name())).collect();
        check(&pools, PoolEvent::COUNT);
        let phases: Vec<_> = Phase::ALL.iter().map(|&p| (p as usize, p.name())).collect();
        check(&phases, Phase::COUNT);
    }

    #[test]
    fn report_derives_table5_statistics() {
        let r = Recorder::enabled();
        r.add(Event::IoInput, 40);
        r.add(Event::FileAccess, 30);
        r.add(Event::RecordLookup, 20);
        r.add(Event::BytesRead, 4096 * 25);
        let mut phase_micros = [0; Phase::COUNT];
        phase_micros[Phase::Evaluate as usize] = 25;
        let report = MetricsReport {
            queries: 10,
            delta: r.snapshot(),
            phase_micros,
            traces: Vec::new(),
            engine_micros: 1_000,
            sim_io_micros: 9_000,
        };
        assert_eq!(report.io_inputs(), 40);
        assert!((report.accesses_per_lookup() - 1.5).abs() < 1e-9);
        assert_eq!(report.kbytes_read(), 100);
        assert!((report.wall_clock_secs() - 0.01).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"io_inputs\": 40"));
        assert!(json.contains("\"accesses_per_lookup\": 1.5000"));
        assert!(json.contains("\"kbytes_read\": 100"));
        assert!(json
            .contains("\"evaluate\": {\"count\": 10, \"sum_micros\": 25, \"mean_micros\": 2.5}"));
        assert!(
            json.contains("\"parse\": {\"count\": 10, \"sum_micros\": 0, \"mean_micros\": 0.0}")
        );
    }

    #[test]
    fn epochs_distinguish_recorders() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        assert_ne!(a.epoch(), 0);
        assert_ne!(a.epoch(), b.epoch(), "every enabled recorder gets its own epoch");
        assert_eq!(a.clone().epoch(), a.epoch(), "clones share the epoch");
        assert_eq!(Recorder::disabled().epoch(), 0);
        assert_eq!(a.snapshot().epoch, a.epoch());

        // Same recorder: the diff keeps the epoch.
        let before = a.snapshot();
        a.add(Event::IoInput, 2);
        assert!(a.snapshot().epoch_compatible(&before));
        let delta = a.snapshot().since(&before);
        assert_eq!(delta.get(Event::IoInput), 2);
        assert_eq!(delta.epoch, a.epoch());

        // Epoch 0 is a wildcard: hand-built baselines keep working.
        assert!(a.snapshot().epoch_compatible(&TelemetrySnapshot::default()));
        let delta = a.snapshot().since(&TelemetrySnapshot::default());
        assert_eq!(delta.epoch, a.epoch());

        // Different recorders are incompatible.
        assert!(!a.snapshot().epoch_compatible(&b.snapshot()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different recorders")]
    fn since_asserts_on_cross_recorder_diff_in_debug() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        let _ = a.snapshot().since(&b.snapshot());
    }

    #[test]
    fn histogram_quantiles_report_bucket_upper_bounds() {
        assert_eq!(HistogramSnapshot::default().quantile_micros(0.99), 0);
        let h = AtomicHistogram::default();
        for _ in 0..98 {
            h.record(3); // bucket [2, 3]
        }
        h.record(100); // bucket [64, 127]
        h.record(5000); // bucket [4096, 8191]
        let h = h.snapshot();
        assert_eq!(h.quantile_micros(0.50), 4);
        assert_eq!(h.quantile_micros(0.99), 128);
        assert_eq!(h.quantile_micros(1.0), 8192);
    }

    #[test]
    fn trace_json_has_phase_and_io_keys() {
        let mut t = QueryTrace { query: 3, results: 7, ..QueryTrace::default() };
        t.phase_micros[Phase::Evaluate as usize] = 42;
        t.events[Event::IoInput as usize] = 5;
        let json = t.to_json();
        assert!(json.contains("\"query\": 3"));
        assert!(json.contains("\"evaluate\": 42"));
        assert!(json.contains("\"io_inputs\": 5"));
    }
}
