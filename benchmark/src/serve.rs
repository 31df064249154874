//! The three service workloads (`serve_long`, `serve_short`,
//! `serve_zipf`): a 2-shard, 2-worker `QueryService` under a closed loop.
//! They differ only in their request sequence.

use std::sync::atomic::AtomicUsize;
use std::time::Instant;

use poir_core::{QueryRequest, TelemetryOptions};
use poir_inquery::query::daat::DaatStats;
use poir_inquery::{Index, InvertedFileStore};
use poir_storage::IoSnapshot;
use poir_telemetry::PoolEvent;

use crate::check::{digest, Checker, Tally};
use crate::inputs::{Plan, Requests};
use crate::load::{counted_pass, direct_phase, timed_phase, Phase};
use crate::report::Report;
use crate::setup::{self, Instance, SERVICE_SHARDS};
use crate::stats::{percentile, ratio};
use crate::trace::{build_pipeline, Breakdown, StoreCounts, Tracer};
use crate::{probes, trace};

/// The count pass: the sequence's first requests from one client against
/// a fresh instance. Returns the device I/O delta and each ranking's
/// digest.
pub fn count_pass(
    instance: &Instance,
    plan: &Plan,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> (IoSnapshot, Vec<u64>) {
    let before = instance.device.stats().snapshot();
    let (_, digests) = counted_pass(instance.service(), plan.count_requests(), checker, tally);
    (instance.device.stats().snapshot().since(&before), digests)
}

/// Client threads of the `loaded` phase: four per worker, so the
/// admission queue (capacity 32) never runs empty and never refuses.
/// Workers that never wait for a caller to wake up make the phase's
/// throughput a measure of the service's CPU cost per request, which
/// repeats; with one or two callers the workers sleep between requests
/// and the result follows the sandbox's thread wake-up latency, which
/// drifts by tens of percent (README, "Noise").
pub const LOADED_CLIENTS: usize = 8;

/// Warm-up, then phase `loaded`: `LOADED_CLIENTS` client threads blocking
/// on `QueryService::query`. Returns the phase and the sequence positions
/// used.
pub fn loaded_phase(
    instance: &Instance,
    plan: &Plan,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> (Phase, usize) {
    let service = instance.service();
    let cursor = AtomicUsize::new(0);
    let w = plan.window_secs();
    // Half a window of warm-up: buffers and the simulated OS cache fill,
    // worker threads have run.
    timed_phase(service, &cursor, LOADED_CLIENTS, 1, w / 2.0, checker, tally);
    let phase = timed_phase(service, &cursor, LOADED_CLIENTS, plan.windows, w, checker, tally);
    (phase, cursor.into_inner())
}

/// The per-layer run's service phases on a fresh instance: a count pass
/// (which also warms it), then phase `1c` (one client thread), then phase
/// `2c` (two, against the two workers), each `windows` windows of
/// `window_secs`.
fn one_and_two_callers(
    instance: &Instance,
    plan: &Plan,
    window_secs: f64,
    checker: &Checker<'_>,
    tally: &mut Tally,
) -> (Phase, Phase) {
    let service = instance.service();
    count_pass(instance, plan, checker, tally);
    let cursor = AtomicUsize::new(plan.count_requests());
    let one = timed_phase(service, &cursor, 1, plan.windows, window_secs, checker, tally);
    let two = timed_phase(service, &cursor, 2, plan.windows, window_secs, checker, tally);
    (one, two)
}

pub fn describe_phase(name: &str, phase: &Phase) {
    let windows: Vec<String> = phase.window_qps.iter().map(|q| format!("{q:.0}")).collect();
    println!(
        "# phase {name}: {} requests, window req/s [{}], p50 {:.3} ms, p99 {:.3} ms",
        phase.samples(),
        windows.join(" "),
        phase.latency_ms(50.0),
        phase.latency_ms(99.0)
    );
}

/// Replays the count-pass requests through a hand-assembled pipeline on
/// one thread. Returns what the pass observed.
struct Replay {
    secs: f64,
    /// Host seconds of each request.
    request_secs: Vec<f64>,
    digests: Vec<u64>,
    io: IoSnapshot,
    /// Simulated OS-cache (hits, misses) during the replay.
    os_cache: (u64, u64),
    tracer: Tracer,
    counts: StoreCounts,
    stats: DaatStats,
    pipeline: trace::Pipeline,
    store_build_secs: f64,
}

fn replay(
    shard_indexes: &[Index],
    requests: &Requests,
    plan: &Plan,
    spans: bool,
) -> poir_core::Result<Replay> {
    let (mut pipeline, store_build_secs) = build_pipeline(shard_indexes);
    let mut tracer = Tracer::new(spans);
    let mut counts = StoreCounts::default();
    let mut stats = DaatStats::default();
    let before = pipeline.device.stats().snapshot();
    let os_before = pipeline.device.os_cache_counters();
    let n = plan.count_requests();
    let mut digests = Vec::with_capacity(n);
    let mut request_secs = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        let sent = Instant::now();
        let hits = pipeline.request(
            &mut tracer,
            &mut counts,
            &mut stats,
            i as u32,
            requests.text(i),
            plan.workload.k(),
        )?;
        request_secs.push(sent.elapsed().as_secs_f64());
        digests.push(digest(&hits));
    }
    let secs = start.elapsed().as_secs_f64();
    let io = pipeline.device.stats().snapshot().since(&before);
    let os_after = pipeline.device.os_cache_counters();
    let os_cache = (os_after.0 - os_before.0, os_after.1 - os_before.1);
    Ok(Replay {
        secs,
        request_secs,
        digests,
        io,
        os_cache,
        tracer,
        counts,
        stats,
        pipeline,
        store_build_secs,
    })
}

/// `bench.trace_overhead_share`: the traced replay against the same
/// replay with spans off. Both are replayed at least twice (fresh pipeline
/// each time) and compared request by request on each request's fastest
/// pass: interference only ever slows a request down.
fn trace_overhead(
    traced: &Replay,
    shard_indexes: &[Index],
    requests: &Requests,
    plan: &Plan,
    report: &mut Report,
) {
    let fastest = |best: &mut Vec<f64>, pass: &[f64]| {
        for (b, p) in best.iter_mut().zip(pass) {
            *b = b.min(*p);
        }
    };
    let mut traced_secs = traced.request_secs.clone();
    let mut plain_secs = vec![f64::MAX; traced_secs.len()];
    let mut spent = traced.secs;
    for pair in 0..3 {
        if pair > 0 {
            let again = replay(shard_indexes, requests, plan, true).expect("replayed once");
            fastest(&mut traced_secs, &again.request_secs);
            spent += again.secs;
        }
        let plain = replay(shard_indexes, requests, plan, false).expect("replayed once");
        fastest(&mut plain_secs, &plain.request_secs);
        spent += plain.secs;
        // Two pairs at least; a third when the replays are short.
        if pair >= 1 && spent > plan.seconds / 8.0 {
            break;
        }
    }
    let (traced_secs, plain_secs): (f64, f64) = (traced_secs.iter().sum(), plain_secs.iter().sum());
    report.set_with(
        "bench.trace_overhead_share",
        traced_secs / plain_secs - 1.0,
        format!(
            "= {traced_secs:.4} s traced / {plain_secs:.4} s untraced - 1, each request's fastest pass"
        ),
    );
}

/// Self time per layer from the replay's spans, and counts at the same
/// boundaries and below them.
fn report_replay(traced: &Replay, n: f64, report: &mut Report, tally: &mut Tally) {
    let breakdown = Breakdown::of(&traced.tracer.spans);
    if breakdown.self_times_add_up {
        tally.pass();
    } else {
        tally.fail("span self times do not add up to their request spans".into());
    }
    let us = |ns: u64| ns as f64 / 1e3 / n;
    for (name, t) in breakdown.names() {
        println!(
            "# span {name}: {} calls, {:.2} us/request, self {:.2} us/request",
            t.count,
            us(t.dur_ns),
            us(t.self_ns)
        );
    }
    let request_ns = breakdown.get("request").dur_ns as f64;
    let store = breakdown.prefix("core.store.");
    let rank = breakdown.get("inquery.daat.rank");
    report.set("inquery.parser.us", us(breakdown.get("inquery.parser").self_ns));
    report.set("core.store.fetch_us", us(store.dur_ns));
    report.set_ratio("core.store.fetch_share", store.dur_ns as f64, request_ns);
    report.set("inquery.daat.rank_us", us(rank.dur_ns));
    report.set("inquery.daat.self_us", us(rank.self_ns));
    report.set_ratio("inquery.daat.self_share", rank.self_ns as f64, request_ns);
    report.set("inquery.daat.merge_us", us(breakdown.get("inquery.daat.merge").dur_ns));
    report.set("core.engine.names_us", us(breakdown.get("core.engine.names").dur_ns));

    let counts = &traced.counts;
    report.set_ratio("core.store.fetches_per_request", counts.fetches as f64, n);
    report.set_ratio("core.store.range_fetches_per_request", counts.range_fetches as f64, n);
    report.set_ratio("core.store.kb_per_request", counts.bytes as f64 / 1024.0, n);
    report.set_ratio(
        "inquery.postings.postings_per_request",
        traced.stats.postings_decoded as f64,
        n,
    );
    let mut pools = [(0u64, 0u64); 3];
    let mut lookups = 0u64;
    for shard in &traced.pipeline.shards {
        lookups += shard.store.shared_view().record_lookups();
        for (total, s) in pools.iter_mut().zip(shard.store.buffer_stats().expect("buffer stats")) {
            total.0 += s.hits;
            total.1 += s.refs;
        }
    }
    for (name, (hits, refs)) in ["small", "medium", "large"].iter().zip(pools) {
        report.set_ratio(&format!("mneme.buffer_hit_rate.{name}"), hits as f64, refs as f64);
    }
    let (os_hits, os_misses) = traced.os_cache;
    report.set_ratio("storage.accesses_per_lookup", traced.io.file_accesses as f64, lookups as f64);
    report.set_ratio("storage.io_inputs_per_request", traced.io.io_inputs as f64, n);
    report.set_ratio("storage.kb_read_per_request", traced.io.bytes_read as f64 / 1024.0, n);
    report.set_ratio("storage.os_cache_hit_rate", os_hits as f64, (os_hits + os_misses) as f64);
    let (decode_ns, postings) =
        probes::decode_ns_per_posting(&traced.pipeline, &counts.whole_fetches, 4096);
    report.set_with(
        "inquery.postings.decode_ns_per_posting",
        decode_ns,
        format!("over {postings} postings"),
    );
}

/// The service at one and two callers, telemetry off (the default) and
/// then on.
fn report_service(
    plan: &Plan,
    index: &Index,
    window_secs: f64,
    direct_p50: f64,
    checker: &Checker<'_>,
    report: &mut Report,
    tally: &mut Tally,
) {
    let t = Instant::now();
    let instance = setup::service(index.clone(), TelemetryOptions::off());
    report.set("core.service.start_s", t.elapsed().as_secs_f64());
    let (one, two) = one_and_two_callers(&instance, plan, window_secs, checker, tally);
    describe_phase("1c", &one);
    describe_phase("2c", &two);
    let service_p50 = one.latency_ms(50.0) * 1e3;
    report.set_with(
        "core.service.overhead_us",
        service_p50 - direct_p50,
        format!("= service 1c p50 {service_p50:.1} us - direct p50 {direct_p50:.1} us, both warm"),
    );
    report.set("core.service.qps_1c", one.qps());
    report.set_with("core.service.p50_1c_us", service_p50, format!("{} samples", one.samples()));
    report.set("core.service.p99_1c_us", one.latency_ms(99.0) * 1e3);
    report.set("core.service.qps_2c", two.qps());
    report.set("core.service.p99_2c_us", two.latency_ms(99.0) * 1e3);
    report.set_ratio("core.service.scaling_2c", two.qps(), one.qps());
    report.set("core.service.queue_wait_p50_us", percentile(&two.queue_us, 50.0));
    report.set("core.service.queue_wait_p99_us", percentile(&two.queue_us, 99.0));
    report.set("core.service.eval_mean_us", two.eval_us_mean);
    report.set("core.service.merge_mean_us", two.merge_us_mean);
    let stats = instance.service().stats();
    report.set("core.service.rejected", stats.rejected as f64);
    report.set("core.service.expired", stats.expired as f64);
    report.set("core.service.degraded", stats.degraded as f64);
    report.set("core.service.shard_retries", stats.shard_retries as f64);
    report.set("core.service.worker_panics", stats.worker_panics as f64);
    let (hits, lookups) = stats.result_cache.map_or((0, 0), |c| (c.hits, c.hits + c.misses));
    report.set_ratio("core.result_cache.hit_rate", hits as f64, lookups as f64);
    let (hits, lookups) = stats.block_cache.map_or((0, 0), |c| (c.hits, c.hits + c.misses));
    report.set_ratio("inquery.block_cache.hit_rate", hits as f64, lookups as f64);
    drop(instance);

    let instance = setup::service(index.clone(), TelemetryOptions::full());
    let (_, two_on) = one_and_two_callers(&instance, plan, window_secs, checker, tally);
    // Throughput with both workers busy, not one caller's latency: the
    // latter follows the sandbox's wake-up latency (README, "Noise").
    report.set_with(
        "telemetry.on_overhead_share",
        two.qps() / two_on.qps() - 1.0,
        format!(
            "= 2c {:.1} req/s off / {:.1} req/s with TelemetryOptions::full() - 1",
            two.qps(),
            two_on.qps()
        ),
    );
    // Evictions are only counted by the recorder, so they come from the
    // telemetry-on instance.
    let snapshot = instance.service().recorder().snapshot();
    let evictions: u64 = (0..3).map(|pool| snapshot.pool(pool, PoolEvent::Eviction)).sum();
    let completed = instance.service().stats().completed;
    report.set_with(
        "mneme.buffer_evictions_per_request",
        ratio(evictions as f64, completed as f64),
        format!("= {evictions} / {completed} on the telemetry-on service"),
    );
}

/// The per-layer run of a service workload.
pub fn per_layer(
    plan: &Plan,
    index: &Index,
    requests: &Requests,
    report: &mut Report,
    tally: &mut Tally,
    trace_path: Option<&std::path::Path>,
) {
    let k = plan.workload.k();
    let checker = Checker::new(requests, k);
    // Half-length windows: this run also pays for the replays.
    let window_secs = plan.window_secs() / 2.0;

    // The traced pipeline.
    let shard_indexes = index.split_shards(SERVICE_SHARDS.shards);
    let traced = match replay(&shard_indexes, requests, plan, true) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(format!("traced replay: {e}"));
            return;
        }
    };
    trace_overhead(&traced, &shard_indexes, requests, plan, report);
    drop(shard_indexes);
    report.set("core.store.build_s", traced.store_build_secs);

    // The product's own path over the same requests, from a fresh device;
    // then, warm, a timed phase for its steady-state latency.
    let (device, mut direct) =
        setup::sharded(index.clone(), SERVICE_SHARDS, TelemetryOptions::off());
    let before = device.stats().snapshot();
    let direct_digests: Vec<u64> = (0..plan.count_requests())
        .map(|i| {
            let result = direct.execute(&QueryRequest::new(requests.text(i), k));
            result.map(|r| digest(&r.hits)).unwrap_or(0)
        })
        .collect();
    let direct_io = device.stats().snapshot().since(&before);
    let (warm, _) = direct_phase(
        &mut direct,
        plan.count_requests(),
        plan.windows.div_ceil(2),
        window_secs,
        &checker,
        tally,
    );
    drop(direct);
    let direct_p50 = warm.latency_ms(50.0) * 1e3;
    report.set("core.shard.execute_p50_us", direct_p50);

    // Decomposition self-check: the traced pipeline is the product's
    // default path only if it ranks and reads exactly like it.
    if traced.digests == direct_digests && traced.io == direct_io {
        tally.pass();
    } else {
        tally.fail(format!(
            "decomposition self-check: traced pipeline and ShardedEngine::execute disagree \
             (rankings equal: {}, io {:?} vs {:?})",
            traced.digests == direct_digests,
            traced.io,
            direct_io
        ));
    }
    println!("# self-check io delta over {} requests: {:?}", plan.count_requests(), traced.io);

    report_replay(&traced, plan.count_requests() as f64, report, tally);
    if let Some(path) = trace_path {
        match std::fs::write(path, trace::chrome_trace(&traced.tracer.spans, 200)) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => tally.fail(format!("writing {}: {e}", path.display())),
        }
    }
    drop(traced);

    report_service(plan, index, window_secs, direct_p50, &checker, report, tally);
}
