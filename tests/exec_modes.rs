//! Cross-mode equivalence: serial and parallel query execution must
//! produce byte-identical rankings, pruned document-at-a-time must agree
//! with them up to floating-point association order, and its range reads
//! must cut the I/O of long records.

use poir::collections::{self, generate_queries, SyntheticCollection};
use poir::core::{BackendKind, Engine, ExecMode};
use poir::inquery::{IndexBuilder, StopWords};
use poir::storage::{CostModel, Device, DeviceConfig};

fn device() -> std::sync::Arc<Device> {
    Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 256,
        cost_model: CostModel::default(),
    })
}

fn cacm_fixture() -> (poir::inquery::Index, Vec<String>) {
    let paper = collections::cacm();
    let scaled = paper.clone().scale(0.1);
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

fn fresh_engine(index: &poir::inquery::Index) -> Engine {
    Engine::builder(&device()).backend(BackendKind::MnemeCache).build(index.clone()).unwrap()
}

/// Rankings as exactly comparable tuples (score bit patterns included).
fn keyed(rankings: &[Vec<poir::core::RankedResult>]) -> Vec<Vec<(u32, String, u64)>> {
    rankings
        .iter()
        .map(|q| q.iter().map(|r| (r.doc.0, r.name.clone(), r.score.to_bits())).collect())
        .collect()
}

#[test]
fn all_three_modes_rank_identically() {
    let (index, queries) = cacm_fixture();

    let mut serial_engine = fresh_engine(&index);
    let (serial_report, serial_rankings) =
        serial_engine.run_query_set_mode(&queries, 10, ExecMode::Serial).unwrap();

    let mut pruned_engine = fresh_engine(&index);
    let (pruned_report, pruned_rankings) =
        pruned_engine.run_query_set_mode(&queries, 10, ExecMode::DaatPruned).unwrap();

    let mut parallel_engine = fresh_engine(&index);
    let parallel = parallel_engine.run_query_set_parallel(&queries, 10, 4).unwrap();

    assert!(!serial_rankings.is_empty());
    assert!(serial_rankings.iter().any(|r| !r.is_empty()), "queries must match documents");
    // Parallel runs serial per thread: byte-identical.
    assert_eq!(
        keyed(&serial_rankings),
        keyed(&parallel.rankings),
        "parallel execution changed a ranking"
    );
    // Pruned DAAT: the same documents in the same order.
    assert_agrees_with_taat(&serial_rankings, &pruned_rankings, "daat_pruned");

    // Identical work: every mode performed the same record lookups.
    assert_eq!(serial_report.record_lookups, pruned_report.record_lookups);
    assert_eq!(serial_report.record_lookups, parallel.report.record_lookups);
}

/// Asserts `pruned` ranks the same documents as the term-at-a-time
/// `taat`, with scores equal up to floating-point association order.
fn assert_agrees_with_taat(
    taat: &[Vec<poir::core::RankedResult>],
    pruned: &[Vec<poir::core::RankedResult>],
    context: &str,
) {
    assert_eq!(taat.len(), pruned.len(), "{context}");
    for (qi, (a, b)) in taat.iter().zip(pruned.iter()).enumerate() {
        assert_eq!(a.len(), b.len(), "{context}: query {qi}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.doc, y.doc, "{context}: query {qi}");
            assert!(
                (x.score - y.score).abs() < 1e-9,
                "{context}: query {qi}: {} vs {}",
                x.score,
                y.score
            );
        }
    }
}

#[test]
fn pruned_daat_matches_taat_on_every_backend() {
    let (index, queries) = cacm_fixture();
    for backend in BackendKind::all() {
        let build = || Engine::builder(&device()).backend(backend).build(index.clone()).unwrap();

        let (_, taat) = build().run_query_set_mode(&queries, 10, ExecMode::Serial).unwrap();
        let (_, pruned) = build().run_query_set_mode(&queries, 10, ExecMode::DaatPruned).unwrap();

        // Bit-identity of the pruned scores is checked against the
        // independent oracle (poir-inquery's tests/oracle.rs); here
        // document-at-a-time agrees with term-at-a-time up to
        // floating-point association order.
        assert_agrees_with_taat(&taat, &pruned, backend.label());
    }
}

/// A collection with one very long inverted record ("common", every
/// document) and a short high-signal one ("needle", clustered in the first
/// tenth of the collection). With `k <= needle's df`, max-score pruning
/// stops consuming the common list early and probes it by seeking, so the
/// huge-pool range-read path fetches only a prefix plus a handful of
/// posting blocks instead of the whole multi-segment record.
fn long_record_index() -> poir::inquery::Index {
    let mut b = IndexBuilder::new(StopWords::none());
    for i in 0..30_000u32 {
        let mut text = "common ".repeat((i % 7 + 1) as usize);
        if i % 300 == 0 && i < 3_000 {
            text.push_str("needle");
        }
        b.add_document(&format!("D{i}"), &text);
    }
    b.finish()
}

#[test]
fn pruned_daat_range_reads_reduce_io_on_long_records() {
    use poir::core::TelemetryOptions;
    use poir::telemetry::Event;

    let index = long_record_index();
    let queries = ["needle common"];
    let run = |mode: ExecMode| {
        let mut engine = Engine::builder(&device())
            .backend(BackendKind::MnemeNoCache)
            .telemetry(TelemetryOptions::full())
            .build(index.clone())
            .unwrap();
        engine.run_query_set_mode(&queries, 5, mode).unwrap()
    };

    let (serial_report, serial_rankings) = run(ExecMode::Serial);
    let (pruned_report, pruned_rankings) = run(ExecMode::DaatPruned);

    assert_eq!(pruned_rankings[0].len(), 5);
    assert_agrees_with_taat(&serial_rankings, &pruned_rankings, "long record");

    let metrics = pruned_report.metrics.as_ref().unwrap();
    assert!(metrics.delta.get(Event::PostingsSkipped) > 0, "no postings skipped");
    assert!(metrics.delta.get(Event::BlocksSkipped) > 0, "no blocks skipped");
    assert!(metrics.delta.get(Event::RangeRead) > 0, "huge-pool range reads not used");
    // Term-at-a-time fetches whole records.
    let serial_metrics = serial_report.metrics.as_ref().unwrap();
    assert_eq!(serial_metrics.delta.get(Event::RangeRead), 0);
    // "common" has df 30 000; pruning must not have consumed it all.
    assert!(
        metrics.delta.get(Event::PostingsDecoded) < 30_000,
        "pruning decoded the whole long list: {}",
        metrics.delta.get(Event::PostingsDecoded)
    );
    // The point of the range-read path: I (I/O inputs) drops because only
    // the touched physical segments of the long record are read.
    assert!(
        pruned_report.io.io_inputs < serial_report.io.io_inputs,
        "range reads did not reduce I/O inputs: pruned {} vs serial {}",
        pruned_report.io.io_inputs,
        serial_report.io.io_inputs
    );
    assert!(pruned_report.io.bytes_read < serial_report.io.bytes_read);
}

#[test]
fn parallel_execution_rejects_the_btree_backend() {
    let (index, queries) = cacm_fixture();
    let mut engine = Engine::builder(&device()).backend(BackendKind::BTree).build(index).unwrap();
    assert!(engine.run_query_set_parallel(&queries, 10, 2).is_err());
}
