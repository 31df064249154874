//! The structured trace log must be a faithful, bounded record of engine
//! activity: timestamps never underflow, per-thread slices are ordered,
//! snapshot diffs saturate instead of wrapping, and a traced engine run
//! produces the slices the exporters promise (device reads, query spans,
//! lock waits, one track per worker thread).

use std::sync::Arc;

use proptest::prelude::*;

use poir::collections::{self, generate_queries, SyntheticCollection};
use poir::core::{BackendKind, Engine, ExecMode, TelemetryOptions};
use poir::inquery::{Index, IndexBuilder, StopWords};
use poir::storage::{CostModel, Device, DeviceConfig};
use poir::telemetry::trace::NO_POOL;
use poir::telemetry::{TelemetrySnapshot, TraceOp, Tracer};

// --- snapshot diff saturation (counter wrap / reset) ---------------------

#[test]
fn telemetry_snapshot_since_saturates_componentwise() {
    let mut earlier = TelemetrySnapshot::default();
    let mut later = TelemetrySnapshot::default();
    // Mixed directions: some counters moved forward, some "backward"
    // (as after a reset); each component saturates independently.
    earlier.events[0] = 50;
    later.events[0] = 10; // backward: clamps to 0
    earlier.events[1] = 10;
    later.events[1] = 50; // forward: 40
    earlier.pools[2][0] = u64::MAX;
    later.pools[2][0] = 5; // backward at the extreme: clamps to 0
    let diff = later.since(&earlier);
    assert_eq!(diff.events[0], 0);
    assert_eq!(diff.events[1], 40);
    assert_eq!(diff.pools[2][0], 0);
}

// --- trace-record structural properties ----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever durations are recorded — including durations far larger
    /// than the tracer's lifetime, which would drive `start = now - dur`
    /// negative — every record's timestamp saturates instead of
    /// underflowing and the emitted sequence is timestamp-ordered per
    /// thread.
    #[test]
    fn recorded_slices_are_ordered_and_never_underflow(
        ops in proptest::collection::vec(
            (0usize..11, any::<u64>(), 0u64..1_000_000_000_000, any::<u64>()),
            1..200,
        )
    ) {
        let tracer = Tracer::new(4096);
        for (op_idx, object, dur, bytes) in &ops {
            tracer.record(TraceOp::ALL[*op_idx], *object, NO_POOL, *bytes, *dur);
        }
        let records = tracer.records();
        prop_assert_eq!(records.len() as u64 + tracer.dropped(), ops.len() as u64);
        // Single-threaded caller: one thread tag, globally ordered.
        for pair in records.windows(2) {
            prop_assert!(pair[0].ts_micros <= pair[1].ts_micros, "slices out of order");
        }
        for r in &records {
            // ts = now - dur saturated at zero; a huge duration must not
            // wrap the start time past "now".
            prop_assert!(
                r.ts_micros.saturating_add(r.dur_micros) >= r.dur_micros,
                "timestamp underflowed"
            );
        }
    }
}

#[test]
fn ring_buffer_drops_oldest_under_pressure_without_losing_count() {
    let tracer = Tracer::new(64);
    for i in 0..10_000u64 {
        tracer.record(TraceOp::DeviceRead, i, NO_POOL, 1, 0);
    }
    let records = tracer.records();
    assert!(!records.is_empty());
    assert!(records.len() <= 10_000);
    assert_eq!(records.len() as u64 + tracer.dropped(), 10_000);
    // The survivors are the most recent writes.
    assert!(records.iter().any(|r| r.object >= 9_000));
}

// --- end-to-end: traced engine runs --------------------------------------

fn cacm_fixture() -> (Index, Vec<String>) {
    let paper = collections::cacm();
    let scaled = paper.clone().scale(0.05);
    let collection = SyntheticCollection::new(scaled.spec.clone());
    let mut builder = IndexBuilder::new(StopWords::default());
    for doc in collection.documents() {
        builder.add_document(&doc.name, &doc.text);
    }
    let index = builder.finish();
    let queries =
        generate_queries(&collection, &paper.query_sets[0]).into_iter().map(|q| q.text).collect();
    (index, queries)
}

fn tracing_engine(index: &Index, backend: BackendKind) -> Engine {
    let device = Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 128,
        cost_model: CostModel::default(),
    });
    Engine::builder(&device)
        .backend(backend)
        .telemetry(TelemetryOptions::tracing(1 << 20))
        .build(index.clone())
        .unwrap()
}

fn count_op(tracer: &Tracer, op: TraceOp) -> usize {
    tracer.records().iter().filter(|r| r.op == op).count()
}

#[test]
fn serial_run_traces_every_device_read_and_query() {
    let (index, queries) = cacm_fixture();
    let mut engine = tracing_engine(&index, BackendKind::MnemeCache);
    let (report, _) = engine.run_query_set_mode(&queries, 20, ExecMode::Serial).unwrap();
    let tracer = engine.tracer().expect("tracing engine has a tracer").clone();
    assert_eq!(tracer.dropped(), 0, "capacity must hold the whole run");
    // One slice per read system call against the device.
    assert!(report.io.file_accesses > 0);
    assert_eq!(count_op(&tracer, TraceOp::DeviceRead) as u64, report.io.file_accesses);
    // One Query slice per query, each with its phase children.
    assert_eq!(count_op(&tracer, TraceOp::Query), queries.len());
    assert!(count_op(&tracer, TraceOp::QueryPhase) >= queries.len());
    // The cached Mneme path exercises buffers and the object table.
    assert!(count_op(&tracer, TraceOp::PoolFetch) > 0);
    assert!(count_op(&tracer, TraceOp::HashProbe) > 0);
    assert!(count_op(&tracer, TraceOp::LockWait) > 0, "read path records lock acquisitions");

    // Exporters agree with the record list.
    let chrome = tracer.chrome_trace_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"device_read\""));
    assert!(chrome.contains("\"ph\": \"X\""));
    let jsonl = tracer.access_log_jsonl();
    assert_eq!(jsonl.lines().count(), tracer.len());
    assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));

    // Residency report sees the same admissions the trace recorded.
    let residency = tracer.residency_report(5);
    assert!(!residency.pools.is_empty());
    assert!(residency.pools.iter().any(|p| p.refs > 0));
    assert!(!residency.hottest.is_empty());
}

#[test]
fn btree_backend_traces_descents() {
    let (index, queries) = cacm_fixture();
    let mut engine = tracing_engine(&index, BackendKind::BTree);
    engine.run_query_set_mode(&queries, 20, ExecMode::Serial).unwrap();
    let tracer = engine.tracer().unwrap().clone();
    assert!(count_op(&tracer, TraceOp::BTreeDescent) > 0);
    assert!(count_op(&tracer, TraceOp::PoolFetch) > 0, "record fetches traced");
}

#[test]
fn parallel_run_produces_one_track_per_worker_with_lock_waits() {
    let (index, queries) = cacm_fixture();
    let mut engine = tracing_engine(&index, BackendKind::MnemeCache);
    let parallel = engine.run_query_set_parallel(&queries, 20, 2).unwrap();
    assert_eq!(parallel.rankings.len(), queries.len());
    let tracer = engine.tracer().unwrap().clone();
    let records = tracer.records();

    let threads: std::collections::BTreeSet<u32> = records.iter().map(|r| r.thread).collect();
    assert!(threads.len() >= 2, "expected >=2 worker tracks, saw {threads:?}");
    assert!(records.iter().any(|r| r.op == TraceOp::LockWait), "lock waits on the shared path");
    // Query slices from both workers, tagged with real query indices.
    let tagged: std::collections::BTreeSet<u32> =
        records.iter().filter(|r| r.op == TraceOp::Query).map(|r| r.object as u32).collect();
    assert_eq!(tagged.len(), queries.len(), "every query traced exactly once");
    // Per-thread timestamp ordering survives the multi-shard merge.
    for &t in &threads {
        let ts: Vec<u64> = records.iter().filter(|r| r.thread == t).map(|r| r.ts_micros).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "thread {t} slices out of order");
    }
    // Both exporters carry both tracks.
    let chrome = tracer.chrome_trace_json();
    assert!(chrome.contains("\"lock_wait\""));
    let _ = Arc::new(tracer); // exporters take &self; tracer is shareable
}
