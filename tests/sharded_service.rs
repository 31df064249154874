//! Sharded query service: cross-shard equivalence, admission control,
//! deadlines, and telemetry aggregation.
//!
//! The load-bearing property is bit-identity — splitting the collection
//! into N shards, evaluating each with the global statistics, and merging
//! the per-shard top-k must reproduce the unsharded `DaatPruned` ranking
//! exactly (scores compared by bit pattern), on every storage backend.

use std::sync::Arc;
use std::time::Duration;

use poir::core::{
    BackendKind, CoreError, Engine, ExecMode, QueryRequest, QueryService, ServiceConfig,
    ServiceStats, ShardSpec,
};
use poir::inquery::{Index, IndexBuilder, StopWords};
use poir::storage::{
    CostModel, Device, DeviceConfig, FaultKind, FaultOp, FaultPlan, FaultRule, FaultSchedule,
};
use poir::telemetry::{Event, MetricValue, TelemetryOptions};

fn build_index(num_docs: usize) -> Index {
    let mut b = IndexBuilder::new(StopWords::default());
    for d in 0..num_docs {
        let mut text = String::new();
        for t in 0..60 {
            let rank = (d * 31 + t * 17) % 211;
            text.push_str(&format!("w{rank} "));
            if (d + t) % 7 == 0 {
                text.push_str(&format!("rare{d} ", d = d % 37));
            }
        }
        if d % 5 == 0 {
            text.push_str("object store performance ");
        }
        b.add_document(&format!("DOC-{d:04}"), &text);
    }
    b.finish()
}

fn device() -> Arc<Device> {
    Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 128,
        cost_model: CostModel::default(),
    })
}

const BAG_QUERIES: &[&str] =
    &["w3 w17 w50", "w100 rare5", "#wsum(3 w7 1 w9 2 rare11)", "w1 w2 w3 w4 w5", "rare0 w200"];

/// The service's accounting after a drained run of `submitted`
/// submissions. Each outcome has one owner — the registry, the shard
/// health table, the result cache — and these invariants tie them
/// together: every submission was admitted or rejected, every admitted
/// request completed, expired or failed, nothing is queued or running,
/// the retry counter is the per-shard sum, and the registry's
/// result-cache counters are the cache's own.
fn assert_drained_accounting(service: &QueryService, submitted: u64) -> ServiceStats {
    let stats = service.stats();
    assert_eq!(stats.admitted + stats.rejected, submitted, "{stats:?}");
    assert_eq!(stats.admitted, stats.completed + stats.expired + stats.failed, "{stats:?}");
    assert_eq!((stats.queue_depth, stats.in_flight), (0, 0));
    assert_eq!(service.queue_depth(), 0);
    let per_shard: u64 = stats.shard_health.iter().map(|h| h.retries).sum();
    assert_eq!(stats.shard_retries, per_shard);
    let counter = |name: &str| match stats.registry.get(name) {
        Some(MetricValue::Counter { total, .. }) => *total,
        other => panic!("{name} missing or not a counter: {other:?}"),
    };
    let (hits, misses) = stats.result_cache.as_ref().map_or((0, 0), |c| (c.hits, c.misses));
    assert_eq!((counter("result_cache_hits"), counter("result_cache_misses")), (hits, misses));
    stats
}

/// A ranking as exactly comparable tuples (score bit patterns included).
fn keyed(hits: &[poir::core::RankedResult]) -> Vec<(u32, String, u64)> {
    hits.iter().map(|r| (r.doc.0, r.name.clone(), r.score.to_bits())).collect()
}

#[test]
fn sharded_topk_is_bit_identical_to_unsharded_on_all_backends() {
    let index = build_index(300);
    for backend in BackendKind::all() {
        let mut unsharded =
            Engine::builder(&device()).backend(backend).build(index.clone()).unwrap();
        let (_, reference) =
            unsharded.run_query_set_mode(BAG_QUERIES, 10, ExecMode::DaatPruned).unwrap();
        assert!(reference.iter().any(|r| !r.is_empty()), "queries must match documents");
        for shards in [1usize, 2, 4] {
            let mut sharded = Engine::builder(&device())
                .backend(backend)
                .exec_mode(ExecMode::DaatPruned)
                .sharding(ShardSpec::new(shards, shards))
                .build_sharded(index.clone())
                .unwrap();
            assert_eq!(sharded.num_shards(), shards);
            // Per-query execute path.
            for (qi, q) in BAG_QUERIES.iter().enumerate() {
                let resp = sharded.execute(&QueryRequest::new(*q, 10)).unwrap();
                assert_eq!(
                    keyed(&resp.hits),
                    keyed(&reference[qi]),
                    "{backend:?} N={shards} diverged on {q:?} (execute)"
                );
                assert_eq!(resp.shards.len(), shards);
            }
            // Batch path.
            let (_, rankings) = sharded.run_query_set(BAG_QUERIES, 10).unwrap();
            for (qi, ranking) in rankings.iter().enumerate() {
                assert_eq!(
                    keyed(ranking),
                    keyed(&reference[qi]),
                    "{backend:?} N={shards} diverged on query {qi} (batch)"
                );
            }
        }
    }
}

#[test]
fn sharded_engine_rejects_structured_queries_and_taat_modes() {
    let index = build_index(80);
    let mut sharded =
        Engine::builder(&device()).sharding(ShardSpec::new(2, 2)).build_sharded(index).unwrap();
    let err = sharded.execute(&QueryRequest::new("#and(w3 w17)", 5)).unwrap_err();
    assert!(matches!(err, CoreError::Unsupported(_)), "structured query must be typed-rejected");
    let err = sharded.execute(&QueryRequest::new("w3 w17", 5).mode(ExecMode::Serial)).unwrap_err();
    assert!(matches!(err, CoreError::Unsupported(_)), "TAAT mode must be typed-rejected");
}

#[test]
fn service_reproduces_sharded_rankings_and_reports_queue_wait() {
    let index = build_index(200);
    let mut sharded = Engine::builder(&device())
        .exec_mode(ExecMode::DaatPruned)
        .sharding(ShardSpec::new(4, 2))
        .build_sharded(index.clone())
        .unwrap();
    let mut reference = Vec::new();
    for q in BAG_QUERIES {
        reference.push(sharded.execute(&QueryRequest::new(*q, 10)).unwrap().hits);
    }
    let service_engine =
        Engine::builder(&device()).sharding(ShardSpec::new(4, 2)).build_sharded(index).unwrap();
    let service = QueryService::start(service_engine, 8).unwrap();
    for (qi, q) in BAG_QUERIES.iter().enumerate() {
        let resp = service.query(QueryRequest::new(*q, 10)).unwrap();
        assert_eq!(keyed(&resp.hits), keyed(&reference[qi]), "service diverged on {q:?}");
        assert_eq!(resp.shards.len(), 4);
    }
    // Structured queries stay typed errors through the queue too.
    assert!(matches!(
        service.query(QueryRequest::new("#and(w3 w17)", 5)),
        Err(CoreError::Unsupported(_))
    ));
    service.shutdown();
    assert!(matches!(
        service.try_submit(QueryRequest::new("w3", 5)),
        Err(CoreError::ServiceStopped)
    ));
}

#[test]
fn full_queue_rejects_with_overloaded_and_admitted_requests_complete() {
    let index = build_index(150);
    let engine =
        Engine::builder(&device()).sharding(ShardSpec::new(1, 1)).build_sharded(index).unwrap();
    let service = QueryService::start(engine, 2).unwrap();
    assert_eq!(service.capacity(), 2);
    // One worker, capacity 2: a burst of non-blocking submissions must
    // overflow the queue faster than the worker drains it.
    let mut pending = Vec::new();
    let mut rejected = 0usize;
    for i in 0..200 {
        let q = BAG_QUERIES[i % BAG_QUERIES.len()];
        match service.try_submit(QueryRequest::new(q, 10)) {
            Ok(p) => pending.push(p),
            Err(CoreError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected > 0, "a 200-burst against a 2-slot queue must shed load");
    assert!(!pending.is_empty(), "some requests must be admitted");
    let admitted = pending.len();
    for p in pending {
        let resp = p.wait().expect("admitted request must complete");
        assert!(!resp.hits.is_empty());
    }
    // Counter bookkeeping: every submission was either admitted or
    // rejected, and the registry counted each exactly once.
    let stats = assert_drained_accounting(&service, 200);
    assert_eq!(stats.admitted, admitted as u64);
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.completed, admitted as u64);
}

#[test]
fn deadline_between_shards_returns_partial_results() {
    let index = build_index(200);
    let mut sharded =
        Engine::builder(&device()).sharding(ShardSpec::new(2, 2)).build_sharded(index).unwrap();
    // "w0" appears throughout the collection, so shard 0 (the only shard
    // guaranteed to complete under a zero budget) has hits to return.
    let req = QueryRequest::new("w0 w1 w2", 10).deadline(Duration::ZERO);
    match sharded.execute(&req) {
        Err(CoreError::DeadlineExceeded { budget, elapsed, partial }) => {
            assert_eq!(budget, Duration::ZERO);
            assert!(elapsed > Duration::ZERO);
            assert!(!partial.is_empty(), "shard 0 always completes; partial must carry its hits");
            // Partial hits come only from shard 0's document range.
            let max_doc = partial.iter().map(|r| r.doc.0).max().unwrap();
            assert!(max_doc < 100, "partial hit {max_doc} outside shard 0's range");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn expired_deadline_at_dequeue_is_rejected_without_evaluation() {
    let index = build_index(100);
    let engine =
        Engine::builder(&device()).sharding(ShardSpec::new(2, 1)).build_sharded(index).unwrap();
    let service = QueryService::start(engine, 4).unwrap();
    let err = service.query(QueryRequest::new("w3 w17", 10).deadline(Duration::ZERO)).unwrap_err();
    match err {
        CoreError::DeadlineExceeded { partial, .. } => {
            assert!(partial.is_empty(), "an expired request must be dropped before evaluation");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    let stats = assert_drained_accounting(&service, 1);
    assert_eq!((stats.expired, stats.completed), (1, 0));
}

#[test]
fn concurrent_submit_and_shutdown_neither_deadlocks_nor_loses_admitted_work() {
    let index = build_index(120);
    let engine =
        Engine::builder(&device()).sharding(ShardSpec::new(2, 2)).build_sharded(index).unwrap();
    let service = QueryService::start(engine, 4).unwrap();
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut outcomes = (0usize, 0usize, 0usize); // ok, shed, stopped
                    for i in 0..50 {
                        let q = BAG_QUERIES[(t + i) % BAG_QUERIES.len()];
                        match service.try_submit(QueryRequest::new(q, 5)) {
                            Ok(p) => match p.wait() {
                                Ok(_) => outcomes.0 += 1,
                                Err(CoreError::ServiceStopped) => outcomes.2 += 1,
                                Err(e) => panic!("admitted request failed: {e}"),
                            },
                            Err(CoreError::Overloaded { .. }) => outcomes.1 += 1,
                            Err(CoreError::ServiceStopped) => outcomes.2 += 1,
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        // Shut down from two racing threads while submissions are in
        // flight: shutdown must be idempotent and admitted requests must
        // still resolve (drain-then-exit).
        let s1 = scope.spawn(|| service.shutdown());
        let s2 = scope.spawn(|| service.shutdown());
        s1.join().unwrap();
        s2.join().unwrap();
        let mut total_ok = 0;
        for s in submitters {
            let (ok, _shed, _stopped) = s.join().unwrap();
            total_ok += ok;
        }
        // At least the requests admitted before shutdown completed; the
        // exact split depends on the race, but nothing may hang or error
        // in an untyped way (the panics above).
        assert!(total_ok <= 4 * 50);
    });
    assert!(matches!(
        service.try_submit(QueryRequest::new("w3", 5)),
        Err(CoreError::ServiceStopped)
    ));
}

#[test]
fn service_stats_report_counters_and_attribution() {
    let index = build_index(200);
    let engine =
        Engine::builder(&device()).sharding(ShardSpec::new(2, 2)).build_sharded(index).unwrap();
    // A 1-microsecond slow threshold puts every request in the flight
    // recorder, so the observatory surfaces are all populated.
    let config = ServiceConfig {
        queue_capacity: 8,
        slow_threshold_micros: 1,
        slow_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = QueryService::start_with(engine, config).unwrap();
    let rounds = 4;
    for i in 0..rounds * BAG_QUERIES.len() {
        let q = BAG_QUERIES[i % BAG_QUERIES.len()];
        service.query(QueryRequest::new(q, 10).id(i as u32)).unwrap();
    }
    let total = (rounds * BAG_QUERIES.len()) as u64;
    let stats = service.stats();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queue_capacity, 8);
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);
    // Synchronous submission: nothing queued or running at snapshot time.
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(stats.uptime_secs > 0.0);
    assert!(stats.admitted_rate.s60 > 0.0, "recent completions show in the windowed rate");
    let latency = &stats.latency;
    assert_eq!(latency.count as u64, total);
    assert!(latency.p50_micros <= latency.p99_micros && latency.p99_micros <= latency.max_micros);
    // The tail attribution's components sum to the reported p99 exactly —
    // the breakdown IS the p99 request's, not an average of histograms.
    let attr = stats.attribution.as_ref().expect("attribution after completions");
    assert_eq!(attr.samples as u64, total);
    assert_eq!(attr.breakdown.total_micros(), attr.p99_micros);
    assert_eq!(
        attr.breakdown.queue_micros
            + attr.breakdown.eval_micros
            + attr.breakdown.merge_micros
            + attr.breakdown.other_micros,
        attr.p99_micros
    );
    assert!(attr.tail_count >= 1);
    // Flight recorder saw everything, retained up to capacity.
    assert_eq!(stats.slow_threshold_micros, 1);
    assert_eq!(stats.slow_observed, total);
    assert_eq!(stats.slow_retained, 8);
    assert_eq!(service.slow_queries().len(), 8);
    // Both export formats carry the registry.
    let json = stats.to_json();
    assert!(json.contains("\"p99_attribution\""));
    assert!(json.contains("\"metrics\""));
    let prom = stats.prometheus_text();
    assert!(prom.contains("# TYPE poir_service_completed counter"));
    assert!(prom.contains("poir_service_request_micros_bucket"));
    service.shutdown();
}

#[test]
fn query_id_joins_trace_and_slow_log() {
    let index = build_index(150);
    let engine = Engine::builder(&device())
        .telemetry(TelemetryOptions::tracing(4096))
        .sharding(ShardSpec::new(2, 2))
        .build_sharded(index)
        .unwrap();
    let config = ServiceConfig { slow_threshold_micros: 1, ..ServiceConfig::default() };
    let service = QueryService::start_with(engine, config).unwrap();
    let resp = service.query(QueryRequest::new("w3 w17 rare5", 10).id(777)).unwrap();
    assert_eq!(resp.breakdown.query_id, 777);
    // The slow-query record carries the caller's id and the trace slice
    // extracted for it — every record tagged with the same id, queue wait
    // included.
    let slow = service.slow_queries();
    let record = slow.iter().find(|r| r.query_id == 777).expect("slow log has the request");
    assert_eq!(record.breakdown.query_id, 777);
    assert!(!record.trace.is_empty(), "tracing was on; the slice must be attached");
    assert!(record.trace.iter().all(|r| r.query == 777));
    assert!(record.trace.iter().any(|r| r.op == poir::telemetry::TraceOp::QueueWait));
    assert!(record.trace.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    // The same slice is reachable straight from the tracer.
    let tracer = service.recorder().tracer().expect("tracing enabled").clone();
    let records = tracer.records_for_query(777);
    assert!(!records.is_empty());
    assert!(records.iter().all(|r| r.query == 777));
    // And the JSONL dump names the id.
    assert!(service.slow_queries_jsonl().contains("\"query_id\": 777"));
    service.shutdown();
}

#[test]
fn shard_storage_faults_degrade_to_partial_results_and_recover() {
    let index = build_index(200);
    let dev = device();
    let engine = Engine::builder(&dev)
        .backend(BackendKind::MnemeNoCache)
        .sharding(ShardSpec::new(2, 2))
        .build_sharded(index)
        .unwrap();
    // The service consumes the engine, so the fault target (shard 1's
    // store file) must be captured first.
    let faulty_store = engine.shard_store_handle(1).id();
    let service = QueryService::start(engine, 8).unwrap();
    // Reference rankings with healthy storage.
    let mut reference = Vec::new();
    for q in BAG_QUERIES {
        let resp = service.query(QueryRequest::new(*q, 10)).unwrap();
        assert!(resp.degraded.is_none(), "healthy storage must not degrade");
        reference.push(resp.hits);
    }

    // Every read against shard 1's store now fails with EIO; shard 0 is
    // untouched, so requests must degrade to its half of the collection
    // instead of failing outright.
    dev.install_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultOp::Read, FaultKind::Eio, FaultSchedule::AfterOps { skip: 0 })
                .on_file(faulty_store),
        ),
    );
    let resp = service.query(QueryRequest::new("w3 w17 w50", 10)).unwrap();
    let degraded = resp.degraded.as_ref().expect("response must be marked degraded");
    assert_eq!(degraded.missing_shards, vec![1]);
    assert!(degraded.retries >= 1, "the retry budget is spent before the shard is dropped");
    assert!(!resp.hits.is_empty(), "shard 0 still answers");
    let max_doc = resp.hits.iter().map(|r| r.doc.0).max().unwrap();
    assert!(max_doc < 100, "hit {max_doc} outside shard 0's document range");
    assert!(dev.fault_stats().eio >= 1, "the injected faults actually fired");

    let stats = assert_drained_accounting(&service, BAG_QUERIES.len() as u64 + 1);
    assert!(stats.degraded >= 1);
    assert!(stats.shard_retries >= 1);
    assert_eq!(stats.worker_panics, 0);
    assert!(stats.shard_health[0].healthy, "shard 0 never failed");
    let sick = &stats.shard_health[1];
    assert!(!sick.healthy, "shard 1's latest evaluation failed");
    assert!(sick.failures >= 1 && sick.retries >= 1 && sick.consecutive_failures >= 1);

    // Fault clears: rankings return bit-identical and health recovers.
    dev.clear_fault_plan();
    for (qi, q) in BAG_QUERIES.iter().enumerate() {
        let resp = service.query(QueryRequest::new(*q, 10)).unwrap();
        assert!(resp.degraded.is_none());
        assert_eq!(keyed(&resp.hits), keyed(&reference[qi]), "post-recovery diverged on {q:?}");
    }
    let stats = assert_drained_accounting(&service, 2 * BAG_QUERIES.len() as u64 + 1);
    assert!(stats.shard_health[1].healthy, "clean evaluation must reset health");
    service.shutdown();
}

#[test]
fn worker_panic_is_caught_counted_and_the_pool_survives() {
    let index = build_index(150);
    let dev = device();
    let engine = Engine::builder(&dev)
        .backend(BackendKind::MnemeNoCache)
        .sharding(ShardSpec::new(2, 2))
        .build_sharded(index)
        .unwrap();
    let store = engine.shard_store_handle(0).id();
    let service = QueryService::start(engine, 4).unwrap();
    // The next read against shard 0's store panics, exactly once. The
    // fault fires after the device lock is released, so only the worker's
    // stack unwinds — the store itself stays usable.
    dev.install_fault_plan(
        FaultPlan::new().rule(
            FaultRule::new(FaultOp::Read, FaultKind::Panic, FaultSchedule::Nth { n: 0 })
                .on_file(store)
                .max_fires(1),
        ),
    );
    match service.query(QueryRequest::new("w3 w17", 10)) {
        Err(CoreError::WorkerPanicked { message }) => {
            assert!(!message.is_empty(), "the panic payload is surfaced to the caller");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(dev.fault_stats().panics, 1);
    let stats = service.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.failed, 1);
    // The worker caught the unwind and kept draining: the same pool
    // serves the next request in full.
    dev.clear_fault_plan();
    let resp = service.query(QueryRequest::new("w3 w17", 10)).unwrap();
    assert!(!resp.hits.is_empty());
    assert!(resp.degraded.is_none());
    service.shutdown();
}

#[test]
fn sharded_telemetry_aggregates_without_double_counting() {
    let index = build_index(200);
    let mut sharded = Engine::builder(&device())
        .telemetry(TelemetryOptions::full())
        .sharding(ShardSpec::new(4, 4))
        .build_sharded(index)
        .unwrap();
    let (report, rankings) = sharded.run_query_set(BAG_QUERIES, 10).unwrap();
    assert_eq!(report.queries, BAG_QUERIES.len());
    assert_eq!(rankings.len(), BAG_QUERIES.len());
    let metrics = report.metrics.expect("telemetry-enabled run reports metrics");
    // The shards share one recorder: the event delta must equal the sum
    // of the shards' monotone store counters — equality fails both if
    // events are double-counted (several recorders attached) and if a
    // shard's events vanish (counters split across instances).
    assert_eq!(metrics.delta.get(Event::RecordLookup), report.record_lookups);
    assert!(report.record_lookups > 0);
    // Each query fetches its terms' records once per shard.
    let mut unsharded = Engine::builder(&device())
        .telemetry(TelemetryOptions::full())
        .build(build_index(200))
        .unwrap();
    let (base_report, _) =
        unsharded.run_query_set_mode(BAG_QUERIES, 10, ExecMode::DaatPruned).unwrap();
    assert!(report.record_lookups >= base_report.record_lookups);
}

/// What a driver answered, reduced to what must agree across drivers.
#[derive(Debug, PartialEq)]
enum Outcome {
    Hits(Vec<(u32, String, u64)>),
    Unsupported,
    DeadlineExceeded(Vec<(u32, String, u64)>),
}

fn outcome(result: Result<poir::core::QueryResponse, CoreError>) -> (Outcome, Option<ExecMode>) {
    match result {
        Ok(resp) => (Outcome::Hits(keyed(&resp.hits)), Some(resp.mode)),
        Err(CoreError::Unsupported(_)) => (Outcome::Unsupported, None),
        Err(CoreError::DeadlineExceeded { partial, .. }) => {
            (Outcome::DeadlineExceeded(keyed(&partial)), None)
        }
        Err(other) => panic!("unexpected error variant: {other}"),
    }
}

/// The cross-driver differential: `Engine::execute` (one shard only),
/// `ShardedEngine::execute` and `QueryService::query` run one evaluation
/// pipeline, so the same request must produce the same hits (doc, name,
/// score bits) or the same error variant from each, and the mode that ran
/// must be the override when the request carries one and the driver's
/// documented default otherwise. The engines are built with `Daat` as
/// their default — bit-identical to the service's `DaatPruned`, but a
/// different name, so a driver reporting the wrong default is visible.
#[test]
fn every_driver_agrees_on_every_request_shape() {
    let index = build_index(240);
    for shards in [1usize, 4] {
        let builder = || Engine::builder(&device()).exec_mode(ExecMode::Daat);
        let mut engine = (shards == 1).then(|| builder().build(index.clone()).unwrap());
        let mut sharded =
            builder().sharding(ShardSpec::new(shards, 2)).build_sharded(index.clone()).unwrap();
        let service =
            builder().sharding(ShardSpec::new(shards, 2)).build_service(index.clone()).unwrap();
        let engine_default = if shards == 1 { ExecMode::Daat } else { ExecMode::DaatPruned };

        // (request, needs the term-at-a-time tree walk)
        let mut cases: Vec<(QueryRequest, bool)> =
            BAG_QUERIES.iter().map(|q| (QueryRequest::new(*q, 10), false)).collect();
        cases.push((QueryRequest::new("nosuchterm", 10), false));
        cases.push((QueryRequest::new("w3 nosuchterm w17", 10), false));
        cases.push((QueryRequest::new("w3 w17 w50", 0), false));
        cases.push((QueryRequest::new("#and(w3 w17)", 10), true));
        for mode in
            [ExecMode::Serial, ExecMode::BatchedPrefetch, ExecMode::Daat, ExecMode::DaatPruned]
        {
            let taat = matches!(mode, ExecMode::Serial | ExecMode::BatchedPrefetch);
            cases.push((QueryRequest::new("w3 w17 w50", 10).mode(mode), taat));
        }

        for (req, tree) in &cases {
            let context = format!("N={shards} {req:?}");
            let (from_sharded, sharded_mode) = outcome(sharded.execute(req));
            let (from_service, service_mode) = outcome(service.query(req.clone()));
            assert_eq!(from_sharded, from_service, "{context}: sharded engine vs service");
            if *tree && shards > 1 {
                assert_eq!(from_sharded, Outcome::Unsupported, "{context}");
                continue;
            }
            let Outcome::Hits(hits) = &from_sharded else {
                panic!("{context}: expected a ranking, got {from_sharded:?}");
            };
            let expect_hits = req.k > 0 && req.text != "nosuchterm";
            assert_eq!(!hits.is_empty(), expect_hits, "{context}");
            assert_eq!(sharded_mode, Some(req.mode.unwrap_or(engine_default)), "{context}");
            assert_eq!(service_mode, Some(req.mode.unwrap_or(ExecMode::DaatPruned)), "{context}");
            if let Some(engine) = engine.as_mut() {
                let (from_engine, engine_mode) = outcome(engine.execute(req));
                assert_eq!(from_engine, from_sharded, "{context}: engine vs sharded engine");
                assert_eq!(engine_mode, Some(req.mode.unwrap_or(ExecMode::Daat)), "{context}");
            }
        }

        // One deadline rule, three origins: the engines measure from
        // `execute` entry and always finish shard 0 (one shard: the full
        // ranking; four: shard 0's partial), the service measures from
        // submission and drops an expired request at dequeue.
        let full = keyed(&sharded.execute(&QueryRequest::new("w0 w1 w2", 10)).unwrap().hits);
        let expired = QueryRequest::new("w0 w1 w2", 10).deadline(Duration::ZERO);
        let (from_sharded, _) = outcome(sharded.execute(&expired));
        let Outcome::DeadlineExceeded(partial) = &from_sharded else {
            panic!("N={shards}: expected DeadlineExceeded, got {from_sharded:?}");
        };
        assert!(!partial.is_empty(), "N={shards}: shard 0 always completes");
        if shards == 1 {
            assert_eq!(partial, &full, "one shard: the partial is the full ranking");
            let (from_engine, _) = outcome(engine.as_mut().unwrap().execute(&expired));
            assert_eq!(from_engine, from_sharded, "engine vs one-shard sharded engine");
        } else {
            let shard0_docs = 240 / shards as u32;
            assert!(partial.iter().all(|(doc, ..)| *doc < shard0_docs), "N={shards}: {partial:?}");
        }
        let (from_service, _) = outcome(service.query(expired));
        assert_eq!(from_service, Outcome::DeadlineExceeded(Vec::new()), "N={shards}: service");
        service.shutdown();
    }
}

/// Decode telemetry is recorded once, by the pipeline, whichever driver
/// runs: the same requests through `ShardedEngine::execute` and through
/// `QueryService::query` on equally built instances must move the
/// work-avoidance and dictionary counters by the same amounts (the service
/// path used to drop them all), and the service's trace must carry the
/// aggregate decode slices.
#[test]
fn service_records_the_same_decode_telemetry_as_the_sharded_engine() {
    // 750 documents per shard put the common terms well past one
    // 128-posting block, so records are bit-packed and pruning has blocks
    // to skip.
    let index = build_index(1500);
    let builder = || {
        Engine::builder(&device())
            .telemetry(TelemetryOptions::tracing(1 << 16))
            .sharding(ShardSpec::new(2, 2))
    };
    let mut sharded = builder().build_sharded(index.clone()).unwrap();
    let service = builder().build_service(index).unwrap();
    let requests: Vec<QueryRequest> = BAG_QUERIES
        .iter()
        .flat_map(|q| [QueryRequest::new(*q, 3), QueryRequest::new(*q, 10).mode(ExecMode::Daat)])
        .collect();

    let before = sharded.recorder().snapshot();
    for req in &requests {
        sharded.execute(req).unwrap();
    }
    let direct = sharded.recorder().snapshot().since(&before);
    let before = service.recorder().snapshot();
    for req in &requests {
        service.query(req.clone()).unwrap();
    }
    let served = service.recorder().snapshot().since(&before);

    for event in [
        Event::PostingsDecoded,
        Event::PostingsSkipped,
        Event::BlocksSkipped,
        Event::BytesDecoded,
        Event::BlocksBitpacked,
        Event::DictLookup,
    ] {
        assert_eq!(served.get(event), direct.get(event), "{event:?} differs between drivers");
    }
    assert!(direct.get(Event::PostingsDecoded) > 0);
    assert!(direct.get(Event::BlocksBitpacked) > 0, "index too small for bit-packed blocks");
    assert!(direct.get(Event::DictLookup) > 0);
    let tracer = service.recorder().tracer().expect("tracing enabled");
    let ops: Vec<_> = tracer.records().iter().map(|r| r.op).collect();
    assert!(ops.contains(&poir::telemetry::TraceOp::BlockDecode), "no block_decode slice");
    service.shutdown();
}
