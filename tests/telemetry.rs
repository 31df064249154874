//! The telemetry subsystem must be a second, independent witness of the
//! paper's measurements: for every backend and execution mode, the Table 5
//! statistics (I = I/O inputs, A = accesses per lookup, B = Kbytes read)
//! derived purely from the `MetricsReport` must equal the `IoSnapshot`
//! deltas the engine measures through `IoStats` — exactly, not
//! approximately. The report's cost-model time is the `sys_io_time`
//! charge itself, and its phase totals are the per-query phase tables
//! summed.

use poir::collections::{self, generate_queries, SyntheticCollection};
use poir::core::{BackendKind, Engine, ExecMode, MetricsReport, QuerySetReport, TelemetryOptions};
use poir::inquery::{Index, IndexBuilder, StopWords};
use poir::storage::{CostModel, Device, DeviceConfig};
use poir::telemetry::{Event, Phase};

fn device() -> std::sync::Arc<Device> {
    Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 128,
        cost_model: CostModel::default(),
    })
}

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

fn telemetry_engine(index: &Index, backend: BackendKind) -> Engine {
    Engine::builder(&device())
        .backend(backend)
        .telemetry(TelemetryOptions::full())
        .build(index.clone())
        .unwrap()
}

/// The exact-match contract between the two measurement paths.
fn assert_metrics_match(report: &QuerySetReport, context: &str) -> MetricsReport {
    let metrics = report.metrics.clone().unwrap_or_else(|| panic!("{context}: metrics missing"));
    assert_eq!(metrics.io_inputs(), report.io.io_inputs, "{context}: I diverged");
    assert_eq!(metrics.file_accesses(), report.io.file_accesses, "{context}: accesses diverged");
    assert_eq!(metrics.bytes_read(), report.io.bytes_read, "{context}: bytes diverged");
    assert_eq!(metrics.kbytes_read(), report.io.kbytes_read(), "{context}: B diverged");
    assert_eq!(
        metrics.delta.get(Event::IoOutput),
        report.io.io_outputs,
        "{context}: outputs diverged"
    );
    assert_eq!(metrics.record_lookups(), report.record_lookups, "{context}: lookups diverged");
    assert!(
        (metrics.accesses_per_lookup() - report.accesses_per_lookup()).abs() < 1e-12,
        "{context}: A diverged"
    );
    assert_eq!(
        metrics.sim_io_micros,
        report.sys_io_time.as_micros(),
        "{context}: cost-model time diverged"
    );
    metrics
}

#[test]
fn serial_and_batched_counters_match_iostats_on_every_backend() {
    let (index, queries) = cacm_fixture();
    for backend in BackendKind::all() {
        for mode in
            [ExecMode::Serial, ExecMode::BatchedPrefetch, ExecMode::Daat, ExecMode::DaatPruned]
        {
            let mut engine = telemetry_engine(&index, backend);
            let (report, rankings) = engine.run_query_set_mode(&queries, 20, mode).unwrap();
            let context = format!("{backend} / {mode}");
            let metrics = assert_metrics_match(&report, &context);
            assert!(metrics.io_inputs() > 0, "{context}: no I/O recorded");
            assert!(metrics.record_lookups() > 0, "{context}: no lookups recorded");
            assert_eq!(metrics.traces.len(), queries.len(), "{context}: one trace per query");
            assert_eq!(rankings.len(), queries.len());
            // In a serial loop nothing records between per-query snapshots,
            // so the per-query deltas must sum to the set-level delta.
            for event in [Event::RecordLookup, Event::FileAccess, Event::DictLookup] {
                let per_query: u64 = metrics.traces.iter().map(|t| t.get(event)).sum();
                assert_eq!(per_query, metrics.delta.get(event), "{context}: {event:?} sum");
            }
            // The set's phase totals are the per-query phase tables summed,
            // and the JSON counts one observation per query.
            for phase in Phase::ALL {
                let per_query: u64 = metrics.traces.iter().map(|t| t.phase_micros(phase)).sum();
                assert_eq!(metrics.phase_micros[phase as usize], per_query, "{context}: {phase:?}");
            }
            let count = format!("\"evaluate\": {{\"count\": {}, ", queries.len());
            assert!(metrics.to_json().contains(&count), "{context}: phase count");
        }
    }
}

#[test]
fn parallel_counters_match_iostats() {
    let (index, queries) = cacm_fixture();
    for threads in [2usize, 4] {
        let mut engine = telemetry_engine(&index, BackendKind::MnemeCache);
        let parallel = engine.run_query_set_parallel(&queries, 20, threads).unwrap();
        let metrics = assert_metrics_match(&parallel.report, &format!("parallel_{threads}"));
        assert!(metrics.io_inputs() > 0);
        // Parallel runs report set-level counters and phase totals only.
        assert!(metrics.traces.is_empty());
        assert!(metrics.phase_micros[Phase::Evaluate as usize] > 0, "phase totals summed");
        assert!(metrics.delta.get(Event::DictLookup) > 0, "dict lookups aggregate across threads");
    }
}

#[test]
fn btree_backend_records_descents_and_mneme_records_pool_events() {
    let (index, queries) = cacm_fixture();

    let mut btree = telemetry_engine(&index, BackendKind::BTree);
    let report = btree.run_query_set(&queries, 20).unwrap();
    let metrics = report.metrics.unwrap();
    assert!(metrics.delta.get(Event::BTreeNodeDescent) > 0, "no B-tree descents recorded");

    let mut mneme = telemetry_engine(&index, BackendKind::MnemeCache);
    let report = mneme.run_query_set(&queries, 20).unwrap();
    let metrics = report.metrics.unwrap();
    let refs: u64 = (0..3).map(|p| metrics.delta.pool(p, poir::telemetry::PoolEvent::Ref)).sum();
    assert!(refs > 0, "no pool buffer references recorded");
    assert_eq!(metrics.delta.get(Event::BTreeNodeDescent), 0, "Mneme run touched the B-tree");
}

#[test]
fn disabled_telemetry_reports_no_metrics() {
    let (index, queries) = cacm_fixture();
    let mut engine =
        Engine::builder(&device()).backend(BackendKind::MnemeCache).build(index).unwrap();
    assert!(!engine.telemetry_enabled());
    let report = engine.run_query_set(&queries, 20).unwrap();
    assert!(report.metrics.is_none());
    assert!(report.io.io_inputs > 0, "measurement itself still works");
}

#[test]
fn builder_defaults_reproduce_the_paper_preset() {
    let (index, queries) = cacm_fixture();

    // Defaults: Mneme cached, serial execution, telemetry off.
    let mut defaulted = Engine::builder(&device()).build(index.clone()).unwrap();
    assert_eq!(defaulted.backend(), BackendKind::MnemeCache);
    assert_eq!(defaulted.exec_mode(), ExecMode::Serial);
    assert!(!defaulted.telemetry_enabled());

    // The default buffer sizes are the Table 2 heuristic: building with
    // those sizes passed explicitly must reproduce the exact same I/O.
    let sizes = defaulted.paper_buffer_sizes().unwrap();
    let mut explicit = Engine::builder(&device())
        .backend(BackendKind::MnemeCache)
        .buffers(sizes)
        .exec_mode(ExecMode::Serial)
        .build(index)
        .unwrap();
    let default_report = defaulted.run_query_set(&queries, 20).unwrap();
    let explicit_report = explicit.run_query_set(&queries, 20).unwrap();
    assert_eq!(default_report.io, explicit_report.io);
    assert_eq!(default_report.record_lookups, explicit_report.record_lookups);
}

#[test]
fn query_traced_returns_phase_timings_and_json() {
    let (index, queries) = cacm_fixture();
    let mut engine = telemetry_engine(&index, BackendKind::MnemeCache);
    let (ranked, trace) = engine.query_traced(&queries[0], 10).unwrap();
    assert_eq!(trace.results, ranked.len());
    assert!(trace.get(Event::RecordLookup) > 0);
    assert_eq!(trace.phase_micros.len(), Phase::COUNT);
    let json = trace.to_json();
    for key in ["\"query\"", "\"results\"", "\"phase_micros\"", "\"io\""] {
        assert!(json.contains(key), "trace JSON missing {key}: {json}");
    }
}

#[test]
fn pruned_daat_records_decode_counters() {
    // A corpus where every query term appears in far more than 128
    // documents, so its inverted records carry bit-packed (v2) blocks.
    let mut builder = IndexBuilder::new(StopWords::default());
    for d in 0..400 {
        let mut text = String::from("common ");
        for t in 0..10 {
            text.push_str(&format!("w{} ", (d * 13 + t * 7) % 23));
        }
        builder.add_document(&format!("D{d}"), &text);
    }
    let index = builder.finish();
    let mut engine = telemetry_engine(&index, BackendKind::MnemeCache);
    let (report, rankings) =
        engine.run_query_set_mode(&["common w1 w2"], 10, ExecMode::DaatPruned).unwrap();
    assert_eq!(rankings.len(), 1);
    let metrics = report.metrics.unwrap();
    assert!(metrics.delta.get(Event::BytesDecoded) > 0, "no decoded bytes recorded");
    assert!(metrics.delta.get(Event::BlocksBitpacked) > 0, "no bit-packed blocks recorded");
    // Decoded payload can never exceed the record bytes fetched.
    assert!(
        metrics.delta.get(Event::BytesDecoded) <= metrics.delta.get(Event::RecordBytesDecoded),
        "decoded {} > fetched {}",
        metrics.delta.get(Event::BytesDecoded),
        metrics.delta.get(Event::RecordBytesDecoded)
    );
}

#[test]
fn backend_and_mode_names_round_trip() {
    for backend in BackendKind::all() {
        let s = backend.to_string();
        assert_eq!(s.parse::<BackendKind>().unwrap(), backend, "{s}");
    }
    for mode in [ExecMode::Serial, ExecMode::BatchedPrefetch, ExecMode::Daat, ExecMode::DaatPruned]
    {
        let s = mode.to_string();
        assert_eq!(s.parse::<ExecMode>().unwrap(), mode, "{s}");
    }
    assert!("warp_drive".parse::<BackendKind>().is_err());
    assert!("quantum".parse::<ExecMode>().is_err());
}
