//! Structured trace log: a sharded, bounded ring buffer of per-operation
//! [`TraceRecord`]s, plus exporters.
//!
//! Where the counter side of this crate answers "how many", the trace
//! answers "which object, which pool, which thread, and when": every
//! device read, pool fetch, buffer hit/miss/evict, hash-table probe,
//! B-tree descent, and lock acquisition on the parallel read path can
//! emit one fixed-size record into a [`Tracer`]. Records carry a
//! monotonic timestamp (microseconds since the tracer's epoch), the
//! recording thread's track id, the query being evaluated (if any), an
//! object/segment id, a pool index, a byte count, and a duration.
//!
//! The buffer is sharded by thread: each shard is a plain bounded ring
//! behind its own `std::sync::Mutex`, and a thread always writes to the
//! shard picked by its track id, so shard mutexes are effectively
//! uncontended and per-thread record order equals shard append order.
//! When a shard fills, the oldest record is dropped and counted in
//! [`Tracer::dropped`] — tracing never blocks or grows without bound.
//!
//! Exporters:
//!
//! * [`Tracer::chrome_trace_json`] — Chrome `trace_event` JSON that loads
//!   in Perfetto / `chrome://tracing`, one track per thread, with query
//!   phases and I/O as nested slices.
//! * [`Tracer::access_log_jsonl`] — a flat JSONL access log, one record
//!   per line, for grep/jq-style analysis.
//! * [`BufferResidencyReport::from_records`] — per-pool residency and
//!   eviction-age statistics plus hottest-N objects, derived purely from
//!   the trace.

use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Operation kinds a [`TraceRecord`] can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceOp {
    /// One read system call against the device (`object` = file offset).
    DeviceRead,
    /// One write system call against the device (`object` = file offset).
    DeviceWrite,
    /// One record fetched through a store (`object` = object/store ref).
    PoolFetch,
    /// A buffer reference served from the pool (`object` = segment offset).
    BufferHit,
    /// A buffer reference that had to load its segment (`object` = segment offset).
    BufferMiss,
    /// A segment evicted from a pool buffer (`object` = segment offset).
    BufferEvict,
    /// One persistent-hash-table probe resolving an object id.
    HashProbe,
    /// One internal-node descent step in the B-tree (`object` = node page).
    BTreeDescent,
    /// Time spent acquiring a lock on the shared read path; `object` is
    /// one of [`LOCK_META_READ`]/[`LOCK_META_WRITE`]/[`LOCK_POOL`].
    LockWait,
    /// One whole query (`object` = query index).
    Query,
    /// One query pipeline phase (`object` = `Phase as u64`).
    QueryPhase,
    /// Per-query aggregate of posting cursor seeks that jumped blocks via
    /// the skip directory (`object` = seeks performed, `bytes` = postings
    /// bypassed).
    CursorSeek,
    /// A partial (byte-range) segment read below the store trait
    /// (`object` = object/store ref, `bytes` = bytes returned).
    RangeRead,
    /// Per-query aggregate of posting-block decodes (`object` = blocks
    /// decoded from the bit-packed representation, `bytes` = posting
    /// payload bytes decoded).
    BlockDecode,
    /// Time a request spent in the query service's admission queue before
    /// a worker dequeued it (`object` = service sequence number).
    QueueWait,
    /// A storage fault fired by an installed fault plan (`object` = file
    /// id, `bytes` = bytes the faulted operation requested).
    FaultInjected,
    /// Per-query aggregate of decoded-block cache consultations
    /// (`object` = hits, `bytes` = misses).
    BlockCache,
    /// One result-cache consultation (`object` = 1 on a hit, 0 on a miss).
    ResultCache,
}

/// `object` value for a [`TraceOp::LockWait`] on the Mneme meta `RwLock`
/// taken for reading.
pub const LOCK_META_READ: u64 = 0;
/// `object` value for a [`TraceOp::LockWait`] on the Mneme meta `RwLock`
/// taken for writing.
pub const LOCK_META_WRITE: u64 = 1;
/// `object` value for a [`TraceOp::LockWait`] on a per-pool buffer mutex
/// (the pool index is in the record's `pool` field).
pub const LOCK_POOL: u64 = 2;

impl TraceOp {
    /// Number of operation kinds.
    pub const COUNT: usize = 18;

    /// All operation kinds, in declaration order.
    pub const ALL: [TraceOp; TraceOp::COUNT] = [
        TraceOp::DeviceRead,
        TraceOp::DeviceWrite,
        TraceOp::PoolFetch,
        TraceOp::BufferHit,
        TraceOp::BufferMiss,
        TraceOp::BufferEvict,
        TraceOp::HashProbe,
        TraceOp::BTreeDescent,
        TraceOp::LockWait,
        TraceOp::Query,
        TraceOp::QueryPhase,
        TraceOp::CursorSeek,
        TraceOp::RangeRead,
        TraceOp::BlockDecode,
        TraceOp::QueueWait,
        TraceOp::FaultInjected,
        TraceOp::BlockCache,
        TraceOp::ResultCache,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceOp::DeviceRead => "device_read",
            TraceOp::DeviceWrite => "device_write",
            TraceOp::PoolFetch => "pool_fetch",
            TraceOp::BufferHit => "buffer_hit",
            TraceOp::BufferMiss => "buffer_miss",
            TraceOp::BufferEvict => "buffer_evict",
            TraceOp::HashProbe => "hash_probe",
            TraceOp::BTreeDescent => "btree_descent",
            TraceOp::LockWait => "lock_wait",
            TraceOp::Query => "query",
            TraceOp::QueryPhase => "query_phase",
            TraceOp::CursorSeek => "cursor_seek",
            TraceOp::RangeRead => "range_read",
            TraceOp::BlockDecode => "block_decode",
            TraceOp::QueueWait => "queue_wait",
            TraceOp::FaultInjected => "fault_injected",
            TraceOp::BlockCache => "block_cache",
            TraceOp::ResultCache => "result_cache",
        }
    }

    /// Chrome trace category for this operation.
    fn category(self) -> &'static str {
        match self {
            TraceOp::DeviceRead
            | TraceOp::DeviceWrite
            | TraceOp::RangeRead
            | TraceOp::FaultInjected => "io",
            TraceOp::PoolFetch
            | TraceOp::BufferHit
            | TraceOp::BufferMiss
            | TraceOp::BufferEvict => "buffer",
            TraceOp::HashProbe | TraceOp::BTreeDescent => "index",
            TraceOp::LockWait => "lock",
            TraceOp::Query
            | TraceOp::QueryPhase
            | TraceOp::CursorSeek
            | TraceOp::BlockDecode
            | TraceOp::QueueWait
            | TraceOp::BlockCache
            | TraceOp::ResultCache => "query",
        }
    }
}

/// Sentinel `query` value: the record was emitted outside any query.
pub const NO_QUERY: u32 = u32::MAX;
/// Sentinel `pool` value: the operation has no associated buffer pool.
pub const NO_POOL: u8 = u8::MAX;

/// One traced operation. Fixed-size and `Copy` so shard rings stay flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Microseconds since the tracer's epoch at which the operation began.
    pub ts_micros: u64,
    /// Duration of the operation in microseconds (0 for point events).
    pub dur_micros: u64,
    /// Track id of the recording thread (dense, assigned on first record).
    pub thread: u32,
    /// Query index the operation belongs to, or [`NO_QUERY`].
    pub query: u32,
    /// What happened.
    pub op: TraceOp,
    /// Object / segment / offset identifier (meaning depends on `op`).
    pub object: u64,
    /// Buffer pool index, or [`NO_POOL`].
    pub pool: u8,
    /// Bytes moved by the operation (0 when not applicable).
    pub bytes: u64,
}

impl TraceRecord {
    /// One JSON object for this record — the line format of
    /// [`Tracer::access_log_jsonl`], also embedded in slow-query dumps.
    /// `pool`/`query` are `null` when absent.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ts_micros\": {}, \"dur_micros\": {}, \"thread\": {}, \"query\": {}, \
             \"op\": \"{}\", \"object\": {}, \"pool\": {}, \"bytes\": {}}}",
            self.ts_micros,
            self.dur_micros,
            self.thread,
            if self.query == NO_QUERY { "null".to_string() } else { self.query.to_string() },
            self.op.name(),
            self.object,
            if self.pool == NO_POOL { "null".to_string() } else { self.pool.to_string() },
            self.bytes,
        )
    }
}

// Thread track ids are process-wide so a thread keeps one identity across
// tracers; the cell caches the assignment after the first record.
static NEXT_THREAD_TAG: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_TAG: Cell<u32> = const { Cell::new(u32::MAX) };
    static CURRENT_QUERY: Cell<u32> = const { Cell::new(NO_QUERY) };
}

fn thread_tag() -> u32 {
    THREAD_TAG.with(|t| {
        let tag = t.get();
        if tag != u32::MAX {
            return tag;
        }
        let tag = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
        t.set(tag);
        tag
    })
}

/// The query index the current thread is evaluating ([`NO_QUERY`] outside
/// a query). Stamped onto every record the thread emits.
pub fn current_query() -> u32 {
    CURRENT_QUERY.with(Cell::get)
}

/// Tags the current thread as evaluating query `query` until the guard
/// drops (restoring the previous tag, so tags nest).
pub fn tag_query(query: u32) -> QueryTag {
    let previous = CURRENT_QUERY.with(|c| c.replace(query));
    QueryTag { previous }
}

/// Guard returned by [`tag_query`].
pub struct QueryTag {
    previous: u32,
}

impl Drop for QueryTag {
    fn drop(&mut self) {
        CURRENT_QUERY.with(|c| c.set(self.previous));
    }
}

const TRACE_SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    ring: VecDeque<TraceRecord>,
}

/// A bounded, sharded ring buffer of [`TraceRecord`]s.
///
/// `capacity` is the total record budget, split evenly across
/// `TRACE_SHARDS` shards (minimum one record per shard). Threads map to
/// shards by track id, so with up to 16 tracing threads each shard mutex
/// is private to one thread.
pub struct Tracer {
    epoch: Instant,
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &(self.shard_capacity * TRACE_SHARDS))
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// A tracer holding at most (roughly) `capacity` records.
    pub fn new(capacity: usize) -> Tracer {
        let shard_capacity = capacity.div_ceil(TRACE_SHARDS).max(1);
        Tracer {
            epoch: Instant::now(),
            shards: (0..TRACE_SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds elapsed since the tracer's epoch.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Appends one record; the timestamp is computed here as
    /// `now - dur_micros`, so callers time the operation and report only
    /// its duration. Oldest records are dropped (and counted) when the
    /// recording thread's shard is full.
    pub fn record(&self, op: TraceOp, object: u64, pool: u8, bytes: u64, dur_micros: u64) {
        let thread = thread_tag();
        let record = TraceRecord {
            ts_micros: self.now_micros().saturating_sub(dur_micros),
            dur_micros,
            thread,
            query: current_query(),
            op,
            object,
            pool,
            bytes,
        };
        let mut shard = self.shards[thread as usize % TRACE_SHARDS].lock().unwrap();
        if shard.ring.len() == self.shard_capacity {
            shard.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.ring.push_back(record);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().ring.len()).sum()
    }

    /// Whether the tracer holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped because a shard ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discards all records (the epoch is kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().ring.clear();
        }
    }

    /// All records, globally sorted by start timestamp (stable, so any
    /// per-thread subsequence is timestamp-ordered too).
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().ring.iter().copied());
        }
        out.sort_by_key(|r| r.ts_micros);
        out
    }

    /// The records tagged with query `query`, sorted by start timestamp —
    /// the trace slice a slow-query flight-recorder entry retains.
    pub fn records_for_query(&self, query: u32) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().ring.iter().filter(|r| r.query == query).copied());
        }
        out.sort_by_key(|r| r.ts_micros);
        out
    }

    /// Chrome `trace_event` JSON (the "JSON array format" with a
    /// `traceEvents` wrapper), loadable in Perfetto or `chrome://tracing`.
    /// Every record becomes one complete ("X") slice on its thread's
    /// track; thread-name metadata events label the tracks.
    pub fn chrome_trace_json(&self) -> String {
        let records = self.records();
        let mut threads: Vec<u32> = records.iter().map(|r| r.thread).collect();
        threads.sort_unstable();
        threads.dedup();

        let mut s = String::with_capacity(64 + records.len() * 160);
        s.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        for thread in &threads {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {thread}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"thread {thread}\"}}}}"
            ));
        }
        for r in &records {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{",
                r.thread,
                r.ts_micros,
                r.dur_micros,
                r.op.name(),
                r.op.category()
            ));
            s.push_str(&format!("\"object\": {}, \"bytes\": {}", r.object, r.bytes));
            if r.pool != NO_POOL {
                s.push_str(&format!(", \"pool\": {}", r.pool));
            }
            if r.query != NO_QUERY {
                s.push_str(&format!(", \"query\": {}", r.query));
            }
            s.push_str("}}");
        }
        s.push_str("\n]}\n");
        s
    }

    /// Flat JSONL access log: one JSON object per record per line, in
    /// global timestamp order. `pool`/`query` are `null` when absent.
    pub fn access_log_jsonl(&self) -> String {
        let records = self.records();
        let mut s = String::with_capacity(records.len() * 140);
        for r in &records {
            s.push_str(&r.to_json());
            s.push('\n');
        }
        s
    }

    /// Buffer residency statistics derived from the current records.
    pub fn residency_report(&self, top_n: usize) -> BufferResidencyReport {
        BufferResidencyReport::from_records(&self.records(), top_n)
    }
}

/// Residency statistics for one buffer pool, rebuilt from the trace.
#[derive(Debug, Clone, Default)]
pub struct PoolResidency {
    /// Pool index.
    pub pool: u8,
    /// Buffer references (hits + misses) seen in the trace.
    pub refs: u64,
    /// References served from the buffer.
    pub hits: u64,
    /// References that admitted their segment (misses).
    pub misses: u64,
    /// Segments evicted.
    pub evictions: u64,
    /// Distinct segments referenced.
    pub distinct_segments: u64,
    /// Segments admitted and never evicted within the trace window.
    pub resident_at_end: u64,
    /// Time from a segment's last admission to its eviction, as a
    /// power-of-two-microsecond histogram.
    pub eviction_age: HistogramSnapshot,
}

/// Per-pool residency, eviction-age, and hot-object statistics derived
/// purely from a trace (no live engine state needed).
#[derive(Debug, Clone, Default)]
pub struct BufferResidencyReport {
    /// One entry per pool index seen in the trace, ascending.
    pub pools: Vec<PoolResidency>,
    /// Hottest objects by [`TraceOp::PoolFetch`] count:
    /// `(pool, object, fetches)`, descending, at most `top_n` entries.
    pub hottest: Vec<(u8, u64, u64)>,
}

impl BufferResidencyReport {
    /// Builds the report from trace records (any order; the hit/miss/
    /// evict interleaving per pool uses timestamp order).
    pub fn from_records(records: &[TraceRecord], top_n: usize) -> BufferResidencyReport {
        let mut sorted: Vec<&TraceRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.ts_micros);

        let mut pools: HashMap<u8, PoolResidency> = HashMap::new();
        // (pool, segment) -> timestamp of the segment's last admission.
        let mut admitted: HashMap<(u8, u64), u64> = HashMap::new();
        let mut seen: HashMap<(u8, u64), ()> = HashMap::new();
        let mut fetches: HashMap<(u8, u64), u64> = HashMap::new();

        for r in &sorted {
            match r.op {
                TraceOp::BufferHit | TraceOp::BufferMiss | TraceOp::BufferEvict => {
                    let entry = pools.entry(r.pool).or_insert_with(|| PoolResidency {
                        pool: r.pool,
                        ..PoolResidency::default()
                    });
                    match r.op {
                        TraceOp::BufferHit => {
                            entry.refs += 1;
                            entry.hits += 1;
                        }
                        TraceOp::BufferMiss => {
                            entry.refs += 1;
                            entry.misses += 1;
                            admitted.insert((r.pool, r.object), r.ts_micros);
                        }
                        TraceOp::BufferEvict => {
                            entry.evictions += 1;
                            if let Some(at) = admitted.remove(&(r.pool, r.object)) {
                                let age = r.ts_micros.saturating_sub(at);
                                entry.eviction_age.buckets
                                    [crate::bucket_for(age).min(HISTOGRAM_BUCKETS - 1)] += 1;
                                entry.eviction_age.count += 1;
                                entry.eviction_age.sum_micros += age;
                            }
                        }
                        _ => unreachable!(),
                    }
                    if r.op != TraceOp::BufferEvict {
                        seen.insert((r.pool, r.object), ());
                    }
                }
                TraceOp::PoolFetch => {
                    *fetches.entry((r.pool, r.object)).or_insert(0) += 1;
                }
                _ => {}
            }
        }

        for &(pool, _) in seen.keys() {
            if let Some(entry) = pools.get_mut(&pool) {
                entry.distinct_segments += 1;
            }
        }
        for &(pool, _) in admitted.keys() {
            if let Some(entry) = pools.get_mut(&pool) {
                entry.resident_at_end += 1;
            }
        }

        let mut pools: Vec<PoolResidency> = pools.into_values().collect();
        pools.sort_by_key(|p| p.pool);

        let mut hottest: Vec<(u8, u64, u64)> =
            fetches.into_iter().map(|((pool, object), n)| (pool, object, n)).collect();
        hottest.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.cmp(&b.0)));
        hottest.truncate(top_n);

        BufferResidencyReport { pools, hottest }
    }

    /// Plain-text rendering for terminal output.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("buffer residency (from trace)\n");
        s.push_str(
            "  pool       refs       hits     misses  evictions   distinct   resident  mean_evict_age_ms\n",
        );
        for p in &self.pools {
            s.push_str(&format!(
                "  {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>18.3}\n",
                p.pool,
                p.refs,
                p.hits,
                p.misses,
                p.evictions,
                p.distinct_segments,
                p.resident_at_end,
                p.eviction_age.mean_micros() / 1e3,
            ));
        }
        if !self.hottest.is_empty() {
            s.push_str("  hottest objects by fetch count:\n");
            for (pool, object, n) in &self.hottest {
                let pool = if *pool == NO_POOL { "-".to_string() } else { pool.to_string() };
                s.push_str(&format!("    pool {pool:>2}  object {object:>12}  fetches {n}\n"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_bounded_and_drop_oldest() {
        let tracer = Tracer::new(16); // 1 per shard
        for i in 0..5 {
            tracer.record(TraceOp::DeviceRead, i, NO_POOL, 100, 0);
        }
        // Single thread -> single shard with capacity 1.
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.dropped(), 4);
        assert_eq!(tracer.records()[0].object, 4);
    }

    #[test]
    fn timestamps_never_underflow_and_sort_per_thread() {
        let tracer = Tracer::new(1024);
        tracer.record(TraceOp::LockWait, LOCK_META_READ, NO_POOL, 0, u64::MAX);
        tracer.record(TraceOp::DeviceRead, 7, 1, 8192, 0);
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_micros, 0, "saturated start");
        assert!(records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn query_tags_nest_and_restore() {
        assert_eq!(current_query(), NO_QUERY);
        {
            let _outer = tag_query(3);
            assert_eq!(current_query(), 3);
            {
                let _inner = tag_query(9);
                assert_eq!(current_query(), 9);
            }
            assert_eq!(current_query(), 3);
        }
        assert_eq!(current_query(), NO_QUERY);
    }

    #[test]
    fn records_for_query_filters_and_sorts() {
        let tracer = Tracer::new(64);
        tracer.record(TraceOp::DeviceRead, 1, NO_POOL, 0, 0);
        {
            let _q = tag_query(5);
            tracer.record(TraceOp::QueueWait, 5, NO_POOL, 0, 3);
            tracer.record(TraceOp::PoolFetch, 9, 0, 64, 0);
        }
        {
            let _q = tag_query(6);
            tracer.record(TraceOp::PoolFetch, 10, 0, 64, 0);
        }
        let slice = tracer.records_for_query(5);
        assert_eq!(slice.len(), 2);
        assert!(slice.iter().all(|r| r.query == 5));
        assert!(slice.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
        assert!(tracer.records_for_query(1234).is_empty());
    }

    #[test]
    fn chrome_export_has_metadata_and_slices() {
        let tracer = Tracer::new(64);
        let _q = tag_query(2);
        tracer.record(TraceOp::DeviceRead, 4096, NO_POOL, 8192, 12);
        tracer.record(TraceOp::BufferMiss, 99, 1, 0, 0);
        let json = tracer.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"device_read\""));
        assert!(json.contains("\"query\": 2"));
        assert!(json.contains("\"pool\": 1"));
    }

    #[test]
    fn jsonl_emits_one_line_per_record() {
        let tracer = Tracer::new(64);
        tracer.record(TraceOp::HashProbe, 5, NO_POOL, 0, 1);
        tracer.record(TraceOp::PoolFetch, 5, 0, 64, 2);
        let log = tracer.access_log_jsonl();
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("\"op\": \"hash_probe\""));
        assert!(log.contains("\"pool\": null"));
        assert!(log.contains("\"pool\": 0"));
    }

    #[test]
    fn residency_report_tracks_admissions_evictions_and_heat() {
        let mk = |op, object, pool, ts| TraceRecord {
            ts_micros: ts,
            dur_micros: 0,
            thread: 0,
            query: NO_QUERY,
            op,
            object,
            pool,
            bytes: 0,
        };
        let records = vec![
            mk(TraceOp::BufferMiss, 10, 0, 0),
            mk(TraceOp::BufferHit, 10, 0, 5),
            mk(TraceOp::BufferMiss, 20, 0, 6),
            mk(TraceOp::BufferEvict, 10, 0, 9),
            mk(TraceOp::PoolFetch, 77, 0, 1),
            mk(TraceOp::PoolFetch, 77, 0, 2),
            mk(TraceOp::PoolFetch, 88, 0, 3),
        ];
        let report = BufferResidencyReport::from_records(&records, 1);
        assert_eq!(report.pools.len(), 1);
        let p = &report.pools[0];
        assert_eq!((p.refs, p.hits, p.misses, p.evictions), (3, 1, 2, 1));
        assert_eq!(p.distinct_segments, 2);
        assert_eq!(p.resident_at_end, 1, "segment 20 still resident");
        assert_eq!(p.eviction_age.count, 1);
        assert_eq!(p.eviction_age.sum_micros, 9);
        assert_eq!(report.hottest, vec![(0, 77, 2)]);
        assert!(report.render().contains("hottest objects"));
    }
}
