//! Serving-path cache hierarchy: integration behaviour across the three
//! tiers — buffer replacement policy, decoded-block cache, query-result
//! cache. The invariant under test everywhere: caches change timing, never
//! rankings.

use std::sync::Arc;

use poir_core::{BackendKind, Engine, ExecMode, QueryRequest, ServiceConfig, ShardSpec};
use poir_inquery::{Index, IndexBuilder, StopWords};
use poir_mneme::BufferPolicy;
use poir_storage::{CostModel, Device, DeviceConfig};
use poir_telemetry::MetricValue;

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

/// Lifetime record count of a shard-eval histogram in the service registry
/// — the direct witness that a request did (or did not) evaluate shards.
fn eval_count(stats: &poir_core::ServiceStats, shard: usize) -> u64 {
    match stats.registry.get(&format!("shard{shard}_eval_micros")) {
        Some(MetricValue::Histogram { lifetime, .. }) => lifetime.count,
        other => panic!("shard{shard}_eval_micros missing or wrong kind: {other:?}"),
    }
}

fn assert_same_ranking(a: &poir_core::QueryResponse, b: &poir_core::QueryResponse) {
    assert_eq!(a.hits.len(), b.hits.len());
    for (x, y) in a.hits.iter().zip(b.hits.iter()) {
        assert_eq!(x.doc, y.doc);
        assert_eq!(x.name, y.name);
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "scores must be bit-identical");
    }
}

#[test]
fn service_result_cache_hit_skips_shard_evaluation() {
    let dev = device();
    let service = Engine::builder(&dev)
        .sharding(ShardSpec::new(2, 2))
        .service_config(ServiceConfig { result_cache_entries: 8, ..ServiceConfig::default() })
        .build_service(build_index(200))
        .unwrap();
    let q = || QueryRequest::new("w3 w17 w50", 10);

    let first = service.query(q()).unwrap();
    assert!(!first.cached, "first evaluation cannot be a cache hit");
    let after_first = service.stats();
    let evals_after_first: Vec<u64> = (0..2).map(|s| eval_count(&after_first, s)).collect();
    assert!(evals_after_first.iter().all(|&c| c > 0), "first request evaluated every shard");

    let second = service.query(q()).unwrap();
    assert!(second.cached, "repeat under an unchanged epoch must hit");
    assert_same_ranking(&first, &second);
    let after_second = service.stats();
    for (s, &evals) in evals_after_first.iter().enumerate() {
        assert_eq!(eval_count(&after_second, s), evals, "a cache hit must not evaluate shard {s}");
    }
    let cache = after_second.result_cache.expect("cache configured");
    assert_eq!((cache.hits, cache.misses), (1, 1));
    // The registry counts the same two outcomes, once each.
    let counter = |name: &str| match after_second.registry.get(name) {
        Some(MetricValue::Counter { total, .. }) => *total,
        other => panic!("{name} missing or not a counter: {other:?}"),
    };
    assert_eq!((counter("result_cache_hits"), counter("result_cache_misses")), (1, 1));
    assert!(cache.hit_rate() > 0.0);
    assert_eq!(after_second.completed, 2, "hits still count as completions");
    service.shutdown();
}

#[test]
fn service_epoch_bump_invalidates_result_cache() {
    let dev = device();
    let service = Engine::builder(&dev)
        .sharding(ShardSpec::new(2, 2))
        .service_config(ServiceConfig { result_cache_entries: 8, ..ServiceConfig::default() })
        .build_service(build_index(200))
        .unwrap();
    let q = || QueryRequest::new("w7 rare11", 10);

    let first = service.query(q()).unwrap();
    assert!(!first.cached);
    assert!(service.query(q()).unwrap().cached, "warm entry hits");

    service.invalidate_caches();
    let after_bump = service.query(q()).unwrap();
    assert!(!after_bump.cached, "epoch bump must invalidate the entry");
    assert_same_ranking(&first, &after_bump);
    let stats = service.result_cache_stats().unwrap();
    assert!(stats.evicts >= 1, "the stale entry is dropped on lookup");
    assert!(service.query(q()).unwrap().cached, "fresh entry under the new epoch hits again");
    service.shutdown();
}

#[test]
fn service_distinct_requests_do_not_share_entries() {
    let dev = device();
    let service = Engine::builder(&dev)
        .service_config(ServiceConfig { result_cache_entries: 8, ..ServiceConfig::default() })
        .build_service(build_index(120))
        .unwrap();
    assert!(!service.query(QueryRequest::new("w3 w17", 10)).unwrap().cached);
    // Same text, different k: a different key, so a miss.
    assert!(!service.query(QueryRequest::new("w3 w17", 5)).unwrap().cached);
    // Same text and k, different mode: also a miss.
    let mut serial = QueryRequest::new("w3 w17", 10);
    serial.mode = Some(ExecMode::Serial);
    assert!(!service.query(serial).unwrap().cached);
    // Whitespace-normalized repeat of the first request: a hit.
    assert!(service.query(QueryRequest::new("  w3 w17  ", 10)).unwrap().cached);
    service.shutdown();
}

#[test]
fn block_cache_rankings_are_bit_identical_and_hit_on_repeats() {
    // Big enough that common terms exceed BLOCK_SIZE = 128 postings and
    // get the blocked bit-packed layout the cache keys on.
    let index = build_index(700);
    let dev_plain = device();
    let mut plain = Engine::builder(&dev_plain)
        .backend(BackendKind::MnemeCache)
        .exec_mode(ExecMode::DaatPruned)
        .build(build_index(700))
        .unwrap();
    let dev_cached = device();
    let mut cached = Engine::builder(&dev_cached)
        .backend(BackendKind::MnemeCache)
        .exec_mode(ExecMode::DaatPruned)
        .block_cache_bytes(4 << 20)
        .build(index)
        .unwrap();
    assert!(plain.block_cache_stats().is_none());
    assert!(cached.block_cache_stats().is_some());

    let queries = ["w3 w17 w50", "w7 w9 rare11", "w100 rare5", "w5 w6 w7"];
    // Three passes: the first decodes cold, the second re-references
    // ghosts into residency (admission-on-second-reference), the third
    // hits. Pruned document-at-a-time is the block-cursor path.
    for _ in 0..3 {
        for q in &queries {
            let mut req = QueryRequest::new(*q, 20);
            req.mode = Some(ExecMode::DaatPruned);
            let a = plain.execute(&req).unwrap();
            let b = cached.execute(&req).unwrap();
            assert_same_ranking(&a, &b);
        }
    }
    let stats = cached.block_cache_stats().unwrap();
    assert!(stats.hits > 0, "repeated queries must hit the decoded-block cache: {stats:?}");
    assert!(stats.bytes <= stats.capacity, "byte bound respected: {stats:?}");
}

#[test]
fn buffer_policies_agree_on_rankings() {
    let reference: Vec<_> = {
        let dev = device();
        let mut e = Engine::builder(&dev).build(build_index(150)).unwrap();
        e.query("w3 w17 w50", 20).unwrap()
    };
    for policy in [BufferPolicy::Lru, BufferPolicy::S3Fifo] {
        let dev = device();
        let mut e = Engine::builder(&dev).buffer_policy(policy).build(build_index(150)).unwrap();
        let got = e.query("w3 w17 w50", 20).unwrap();
        assert_eq!(got.len(), reference.len(), "{policy:?}");
        for (a, b) in reference.iter().zip(got.iter()) {
            assert_eq!(a.doc, b.doc, "{policy:?}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{policy:?}");
        }
    }
}

#[test]
fn engine_mutation_bumps_store_epoch() {
    let dev = device();
    let mut e = Engine::builder(&dev).build(build_index(50)).unwrap();
    let before = e.store_epoch();
    e.add_document("NEW-DOC", "object store performance w3").unwrap();
    let after = e.store_epoch();
    assert!(after > before, "add_document must advance the epoch ({before} -> {after})");
    assert_eq!(after >> 32, before >> 32, "store id (high bits) is stable");
}
