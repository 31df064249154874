//! Sustained-load latency harness for the sharded query service.
//!
//! Closed-loop load generation: `clients` threads each keep exactly one
//! request in flight against a [`poir_core::QueryService`], drawing query texts
//! round-robin from the workload's set until the level's query budget is
//! spent. Each level reports completed/rejected counts, throughput, and
//! the p50/p95/p99 latency of successful requests, all in **host** time
//! (submission to response, queue wait included) — unlike the QPS family,
//! which runs on simulated wall-clock, this family measures the real
//! concurrency behaviour of the admission queue and worker pool.
//!
//! The level ladder deliberately crosses the queue capacity: with the
//! default 32-slot queue, the 64-client level keeps more requests waiting
//! than the queue admits, so the rejection counters exercise the
//! [`Overloaded`](poir_core::CoreError::Overloaded) path under real load.
//!
//! Since PR 8 the harness also asserts on the **server's own metrics**:
//! every level diffs [`poir_core::QueryService::stats`] around its
//! window, so the
//! run carries a server-reported QPS next to the client-side measurement
//! (the regress gate holds them within 15% of each other), plus the
//! final [`ServiceStats`] snapshot (p99 attribution included) and the
//! slow-query flight-recorder dump.
//!
//! The `loadgen` binary prints the ladder and emits the JSON family the
//! `regress` gate compares (one-sided; see `regress`'s docs for why
//! host-time figures get a generous tolerance).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use poir_core::{
    BackendKind, CoreError, Engine, QueryRequest, ServiceConfig, ServiceStats, ShardSpec,
    TelemetryOptions,
};
use poir_storage::{FaultKind, FaultOp, FaultPlan, FaultRule, FaultSchedule, FaultStats};

use crate::paper_device;
use crate::throughput::{Workload, TOP_K};

/// Default concurrency ladder; crosses [`DEFAULT_QUEUE_CAPACITY`] at the
/// top so rejections appear.
pub const DEFAULT_LEVELS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Default admission-queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 32;

/// Default sharding layout for the committed baseline: 4 shards, 4
/// workers.
pub const DEFAULT_SHARDS: usize = 4;

/// Default queries per concurrency level.
pub const DEFAULT_QUERIES_PER_LEVEL: usize = 200;

/// Default slow-query flight-recorder threshold for the harness,
/// microseconds.
pub const DEFAULT_SLOW_THRESHOLD_MICROS: u64 = 10_000;

/// Chaos-mode configuration: a seeded [`FaultPlan`] installed on the
/// service's device so the ladder runs against injected storage faults.
/// Fully deterministic given the seed — a chaos failure is replayable.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Seed for the per-rule fault streams.
    pub seed: u64,
    /// Per-mille probability of an injected EIO per device read.
    pub eio_per_mille: u32,
    /// Per-mille probability of an injected short read per device read.
    pub short_read_per_mille: u32,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions { seed: 0x5EED, eio_per_mille: 20, short_read_per_mille: 10 }
    }
}

impl ChaosOptions {
    /// The fault plan these options describe: two seeded Bernoulli rules
    /// (EIO and short read on any device read) plus one deterministic
    /// early short read, so even a tiny smoke run observes at least one
    /// injected fault.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new()
            .rule(FaultRule::new(
                FaultOp::Read,
                FaultKind::Eio,
                FaultSchedule::Seeded { seed: self.seed, per_mille: self.eio_per_mille },
            ))
            .rule(FaultRule::new(
                FaultOp::Read,
                FaultKind::ShortRead,
                FaultSchedule::Seeded {
                    seed: self.seed.wrapping_add(1),
                    per_mille: self.short_read_per_mille,
                },
            ))
            .rule(
                FaultRule::new(FaultOp::Read, FaultKind::ShortRead, FaultSchedule::Nth { n: 2 })
                    .max_fires(1),
            )
    }
}

/// Harness configuration: the service layout plus the observability
/// knobs forwarded into [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct LatencyOptions {
    /// Sharding layout (shards x workers).
    pub spec: ShardSpec,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Query budget per concurrency level.
    pub queries_per_level: usize,
    /// End-to-end microseconds past which a request enters the slow-query
    /// flight recorder.
    pub slow_threshold_micros: u64,
    /// Slowest requests the flight recorder retains.
    pub slow_capacity: usize,
    /// When set, the service's background sampler appends stats JSON
    /// lines here (plus `<path>.prom` at shutdown).
    pub stats_out: Option<String>,
    /// Sampling interval for `stats_out`, milliseconds.
    pub stats_interval_millis: u64,
    /// When set, run the ladder under injected storage faults.
    pub chaos: Option<ChaosOptions>,
    /// Query-result cache capacity, entries (0 disables — the committed
    /// baseline's configuration, so the ladder measures evaluation, not
    /// cache hits).
    pub result_cache_entries: usize,
    /// Decoded-block cache byte budget, shared across shards (0 disables
    /// — the committed baseline's configuration).
    pub block_cache_bytes: usize,
}

impl Default for LatencyOptions {
    fn default() -> Self {
        LatencyOptions {
            spec: ShardSpec::new(DEFAULT_SHARDS, DEFAULT_SHARDS),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            queries_per_level: DEFAULT_QUERIES_PER_LEVEL,
            slow_threshold_micros: DEFAULT_SLOW_THRESHOLD_MICROS,
            slow_capacity: 32,
            stats_out: None,
            stats_interval_millis: 1000,
            chaos: None,
            result_cache_entries: 0,
            block_cache_bytes: 0,
        }
    }
}

impl LatencyOptions {
    /// The [`ServiceConfig`] these options describe.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            queue_capacity: self.queue_capacity,
            retry: poir_core::RetryPolicy::default(),
            slow_threshold_micros: self.slow_threshold_micros,
            slow_capacity: self.slow_capacity,
            breakdown_window: 4096,
            stats_out: self.stats_out.clone().map(Into::into),
            stats_interval: Duration::from_millis(self.stats_interval_millis.max(1)),
            result_cache_entries: self.result_cache_entries,
        }
    }
}

/// One concurrency level's measurements.
pub struct LatencyLevel {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests that completed with a ranking.
    pub completed: usize,
    /// Requests rejected at admission ([`CoreError::Overloaded`]).
    pub rejected: usize,
    /// Completed requests whose response was degraded (missing shards);
    /// always 0 outside chaos mode.
    pub degraded: usize,
    /// Requests that failed with a non-deadline, non-overload error;
    /// always 0 outside chaos mode (a failure panics the harness there).
    pub failed: usize,
    /// Completed requests per host second.
    pub qps: f64,
    /// Median submit-to-response latency, microseconds.
    pub p50_micros: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: u64,
    /// Completions this level according to the **server's** lifetime
    /// counter delta (must agree with `completed`).
    pub server_completed: u64,
    /// `server_completed` over the level's wall time — the server-side
    /// QPS the regress gate compares against `qps`.
    pub server_qps: f64,
}

/// A complete load-generation run: the concurrency ladder plus its
/// headline figures.
pub struct LatencyRun {
    /// Shards the service ran.
    pub shards: usize,
    /// Worker threads in the service pool.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Query budget per level.
    pub queries_per_level: usize,
    /// The ladder, in ascending client order.
    pub levels: Vec<LatencyLevel>,
    /// Throughput of the single-client level (serial replay through the
    /// service).
    pub serial_qps: f64,
    /// Best throughput across the ladder.
    pub saturation_qps: f64,
    /// `saturation_qps / serial_qps` — the scale-free speedup the regress
    /// gate holds at ≥ 1.
    pub saturation_over_serial: f64,
    /// Best **server-reported** throughput across the ladder; the regress
    /// gate holds it within 15% of `saturation_qps`.
    pub server_saturation_qps: f64,
    /// The service's final stats snapshot (taken after the ladder, before
    /// shutdown).
    pub stats: ServiceStats,
    /// The slow-query flight recorder's JSONL dump.
    pub slow_jsonl: String,
    /// The chaos configuration the run used, if any.
    pub chaos: Option<ChaosOptions>,
    /// The device's fault-injection counters after the ladder (chaos
    /// runs only).
    pub fault_stats: Option<FaultStats>,
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the closed-loop ladder against a fresh sharded service.
///
/// One service instance serves every level (its buffer state stays warm
/// across the ladder, like a long-running server's would); each level
/// spends `queries_per_level` submissions. A rejected submission counts
/// against the level's budget and is not retried — the client moves on,
/// as a load-shedding caller would.
///
/// Every request carries a run-unique stable id, so flight-recorder
/// entries and trace records can be joined back to the submission.
pub fn run_latency(workload: &Workload, opts: &LatencyOptions, levels: &[usize]) -> LatencyRun {
    let device = paper_device();
    // Chaos runs bypass the Mneme buffer pools: a fully-buffered store
    // would absorb every read and the installed read faults could never
    // fire against the device.
    let backend =
        if opts.chaos.is_some() { BackendKind::MnemeNoCache } else { BackendKind::MnemeCache };
    let service = Engine::builder(&device)
        .backend(backend)
        .telemetry(TelemetryOptions::off())
        .sharding(opts.spec)
        .service_config(opts.service_config())
        .block_cache_bytes(opts.block_cache_bytes)
        .build_service(workload.index.clone())
        .expect("service build");
    // The plan goes in only after the build, so index construction runs
    // clean and every injected fault lands on the serving path.
    if let Some(chaos) = &opts.chaos {
        device.install_fault_plan(chaos.fault_plan());
    }
    let next_id = AtomicU32::new(0);
    let mut out = Vec::with_capacity(levels.len());
    for &clients in levels {
        let clients = clients.max(1);
        let next = AtomicUsize::new(0);
        let before = service.stats();
        let start = Instant::now();
        let chaos_on = opts.chaos.is_some();
        let per_client: Vec<(Vec<u64>, usize, usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut latencies = Vec::new();
                        let mut rejected = 0usize;
                        let mut degraded = 0usize;
                        let mut failed = 0usize;
                        loop {
                            let qi = next.fetch_add(1, Ordering::Relaxed);
                            if qi >= opts.queries_per_level {
                                break;
                            }
                            let text = &workload.queries[qi % workload.queries.len()];
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            let t = Instant::now();
                            match service.query(QueryRequest::new(text.clone(), TOP_K).id(id)) {
                                Ok(resp) => {
                                    latencies.push(t.elapsed().as_micros() as u64);
                                    if resp.degraded.is_some() {
                                        degraded += 1;
                                    }
                                }
                                Err(CoreError::Overloaded { .. }) => {
                                    rejected += 1;
                                    std::thread::yield_now();
                                }
                                // Under chaos an injected fault can defeat
                                // the retry budget on every shard; the
                                // client records the failure and moves on.
                                Err(_) if chaos_on => failed += 1,
                                Err(e) => panic!("loadgen query failed: {e}"),
                            }
                        }
                        (latencies, rejected, degraded, failed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let after = service.stats();
        let mut latencies: Vec<u64> =
            per_client.iter().flat_map(|(l, ..)| l.iter().copied()).collect();
        let rejected: usize = per_client.iter().map(|(_, r, _, _)| r).sum();
        let degraded: usize = per_client.iter().map(|(_, _, d, _)| d).sum();
        let failed: usize = per_client.iter().map(|(_, _, _, f)| f).sum();
        latencies.sort_unstable();
        let completed = latencies.len();
        let server_completed = after.completed.saturating_sub(before.completed);
        out.push(LatencyLevel {
            clients,
            completed,
            rejected,
            degraded,
            failed,
            qps: if wall > 0.0 { completed as f64 / wall } else { 0.0 },
            p50_micros: percentile(&latencies, 50.0),
            p95_micros: percentile(&latencies, 95.0),
            p99_micros: percentile(&latencies, 99.0),
            server_completed,
            server_qps: if wall > 0.0 { server_completed as f64 / wall } else { 0.0 },
        });
    }
    let stats = service.stats();
    let slow_jsonl = service.slow_queries_jsonl();
    let fault_stats = opts.chaos.as_ref().map(|_| {
        let fs = device.fault_stats();
        device.clear_fault_plan();
        fs
    });
    service.shutdown();
    let serial_qps = out.iter().find(|l| l.clients == 1).map_or(0.0, |l| l.qps);
    let saturation_qps = out.iter().map(|l| l.qps).fold(0.0, f64::max);
    let server_saturation_qps = out.iter().map(|l| l.server_qps).fold(0.0, f64::max);
    LatencyRun {
        shards: opts.spec.shards,
        workers: opts.spec.workers,
        queue_capacity: opts.queue_capacity,
        queries_per_level: opts.queries_per_level,
        levels: out,
        serial_qps,
        saturation_qps,
        saturation_over_serial: if serial_qps > 0.0 { saturation_qps / serial_qps } else { 0.0 },
        server_saturation_qps,
        stats,
        slow_jsonl,
        chaos: opts.chaos,
        fault_stats,
    }
}

impl LatencyRun {
    /// The `"latency"` member of `BENCH_throughput.json`, indented two
    /// spaces to sit inside the top-level object. The PR 8 additions
    /// (per-level server figures, `server_saturation_qps`, the embedded
    /// `stats` object) are purely additive — older baselines that lack
    /// them still parse.
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                format!(
                    concat!(
                        "      {{\n",
                        "        \"clients\": {},\n",
                        "        \"completed\": {},\n",
                        "        \"rejected\": {},\n",
                        "        \"degraded\": {},\n",
                        "        \"failed\": {},\n",
                        "        \"qps\": {:.3},\n",
                        "        \"p50_micros\": {},\n",
                        "        \"p95_micros\": {},\n",
                        "        \"p99_micros\": {},\n",
                        "        \"server_completed\": {},\n",
                        "        \"server_qps\": {:.3}\n",
                        "      }}"
                    ),
                    l.clients,
                    l.completed,
                    l.rejected,
                    l.degraded,
                    l.failed,
                    l.qps,
                    l.p50_micros,
                    l.p95_micros,
                    l.p99_micros,
                    l.server_completed,
                    l.server_qps,
                )
            })
            .collect();
        let chaos_json = match (&self.chaos, &self.fault_stats) {
            (Some(c), Some(fs)) => format!(
                concat!(
                    "{{\"seed\": {}, \"eio_per_mille\": {}, \"short_read_per_mille\": {}, ",
                    "\"faults\": {{\"eio\": {}, \"short_reads\": {}, \"torn_writes\": {}, ",
                    "\"power_cuts\": {}, \"panics\": {}, \"ops_matched\": {}}}}}"
                ),
                c.seed,
                c.eio_per_mille,
                c.short_read_per_mille,
                fs.eio,
                fs.short_reads,
                fs.torn_writes,
                fs.power_cuts,
                fs.panics,
                fs.ops_matched,
            ),
            _ => "null".to_string(),
        };
        format!(
            concat!(
                "{{\n",
                "    \"shards\": {},\n",
                "    \"workers\": {},\n",
                "    \"queue_capacity\": {},\n",
                "    \"queries_per_level\": {},\n",
                "    \"top_k\": {},\n",
                "    \"serial_qps\": {:.3},\n",
                "    \"saturation_qps\": {:.3},\n",
                "    \"saturation_over_serial\": {:.3},\n",
                "    \"server_saturation_qps\": {:.3},\n",
                "    \"chaos\": {},\n",
                "    \"stats\": {},\n",
                "    \"levels\": [\n{}\n    ]\n",
                "  }}"
            ),
            self.shards,
            self.workers,
            self.queue_capacity,
            self.queries_per_level,
            TOP_K,
            self.serial_qps,
            self.saturation_qps,
            self.saturation_over_serial,
            self.server_saturation_qps,
            chaos_json,
            self.stats.to_json(),
            levels.join(",\n"),
        )
    }

    /// Renders the human-readable ladder the `loadgen` binary prints,
    /// followed by the server-side summary: saturation agreement, p99
    /// attribution, and flight-recorder occupancy.
    pub fn render_table(&self) -> String {
        let chaos = self.chaos.is_some();
        let mut out = if chaos {
            format!(
                "{:<8} {:>10} {:>9} {:>9} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
                "clients",
                "completed",
                "rejected",
                "degraded",
                "failed",
                "QPS",
                "srv QPS",
                "p50(us)",
                "p95(us)",
                "p99(us)"
            )
        } else {
            format!(
                "{:<8} {:>10} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
                "clients",
                "completed",
                "rejected",
                "QPS",
                "srv QPS",
                "p50(us)",
                "p95(us)",
                "p99(us)"
            )
        };
        for l in &self.levels {
            if chaos {
                out.push_str(&format!(
                    "{:<8} {:>10} {:>9} {:>9} {:>7} {:>12.1} {:>12.1} {:>10} {:>10} {:>10}\n",
                    l.clients,
                    l.completed,
                    l.rejected,
                    l.degraded,
                    l.failed,
                    l.qps,
                    l.server_qps,
                    l.p50_micros,
                    l.p95_micros,
                    l.p99_micros,
                ));
            } else {
                out.push_str(&format!(
                    "{:<8} {:>10} {:>9} {:>12.1} {:>12.1} {:>10} {:>10} {:>10}\n",
                    l.clients,
                    l.completed,
                    l.rejected,
                    l.qps,
                    l.server_qps,
                    l.p50_micros,
                    l.p95_micros,
                    l.p99_micros,
                ));
            }
        }
        out.push_str(&format!(
            "serial {:.1} QPS, saturation {:.1} QPS ({:.2}x) on {} shards / {} workers, \
             queue capacity {}\n",
            self.serial_qps,
            self.saturation_qps,
            self.saturation_over_serial,
            self.shards,
            self.workers,
            self.queue_capacity,
        ));
        out.push_str(&format!(
            "server: saturation {:.1} QPS, completed {}, rejected {}, expired {}\n",
            self.server_saturation_qps,
            self.stats.completed,
            self.stats.rejected,
            self.stats.expired,
        ));
        if let Some(a) = &self.stats.attribution {
            out.push_str(&format!(
                "p99 attribution ({} us total): queue {} us, eval {} us, merge {} us, \
                 other {} us ({} tail samples)\n",
                a.p99_micros,
                a.breakdown.queue_micros,
                a.breakdown.eval_micros,
                a.breakdown.merge_micros,
                a.breakdown.other_micros,
                a.tail_count,
            ));
        }
        out.push_str(&format!(
            "slow queries: {} retained of {} observed past {} us",
            self.stats.slow_retained, self.stats.slow_observed, self.stats.slow_threshold_micros,
        ));
        if let (Some(c), Some(fs)) = (&self.chaos, &self.fault_stats) {
            let completed: usize = self.levels.iter().map(|l| l.completed).sum();
            let degraded: usize = self.levels.iter().map(|l| l.degraded).sum();
            let failed: usize = self.levels.iter().map(|l| l.failed).sum();
            let rate = if completed > 0 { 100.0 * degraded as f64 / completed as f64 } else { 0.0 };
            out.push_str(&format!(
                "\nchaos (seed {:#x}): {} faults injected ({} eio, {} short reads) over {} \
                 matched ops; degraded {}/{} completions ({:.1}%), {} failed, {} shard retries, \
                 {} worker panics",
                c.seed,
                fs.total_fired(),
                fs.eio,
                fs.short_reads,
                fs.ops_matched,
                degraded,
                completed,
                rate,
                failed,
                self.stats.shard_retries,
                self.stats.worker_panics,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    fn tiny_ladder_completes_and_scales_counts() {
        let workload = crate::throughput::prepare_workload(0.02);
        let opts = LatencyOptions {
            spec: ShardSpec::new(2, 2),
            queue_capacity: 8,
            queries_per_level: 12,
            ..LatencyOptions::default()
        };
        let run = run_latency(&workload, &opts, &[1, 4]);
        assert_eq!(run.levels.len(), 2);
        for l in &run.levels {
            // Closed-loop clients never outnumber the queue here, so no
            // rejections; every submission completes.
            assert_eq!(l.completed, 12);
            assert_eq!(l.rejected, 0);
            assert!(l.qps > 0.0);
            assert!(l.p50_micros <= l.p95_micros && l.p95_micros <= l.p99_micros);
            // The server's own counter delta must agree exactly with the
            // client-side completion count for a drained level.
            assert_eq!(l.server_completed, 12);
            assert!(l.server_qps > 0.0);
        }
        assert!(run.serial_qps > 0.0);
        assert!(run.saturation_qps >= run.serial_qps);
        assert!(run.server_saturation_qps > 0.0);
        assert_eq!(run.stats.completed, 24);
        assert_eq!(run.stats.admitted, 24);
        let json = run.to_json();
        let doc = crate::json::Json::parse(&json).expect("latency json parses");
        assert_eq!(doc.get("shards").and_then(crate::json::Json::as_u64), Some(2));
        assert_eq!(doc.get("levels").and_then(crate::json::Json::as_arr).unwrap().len(), 2);
        assert!(doc.get("stats").and_then(|s| s.get("completed")).is_some());
    }

    /// The server's p99 attribution against the client-measured
    /// end-to-end p99, under 8 closed-loop clients on a 2x2 service (so
    /// requests queue and queue wait shows up in the breakdown).
    ///
    /// The two p99s are different wall-clock measurements: the gap between
    /// them is the reply-channel send plus the client thread's wake-up,
    /// which in a shared sandbox swings by several percent from run to run
    /// (a two-sided 5% bound failed 2 runs in 4). What holds by
    /// construction is the order: each request's server-side total runs
    /// from `Job::submitted` to the breakdown, strictly inside the client's
    /// `Instant` interval around `query`, and both sides take the
    /// nearest-rank p99 of the same 80 requests — so the server's p99
    /// cannot exceed the client's.
    #[test]
    fn p99_attribution_is_bounded_by_client_p99() {
        let workload = crate::throughput::prepare_workload(0.02);
        let opts = LatencyOptions {
            spec: ShardSpec::new(2, 2),
            queue_capacity: 16,
            queries_per_level: 80,
            slow_threshold_micros: 1,
            ..LatencyOptions::default()
        };
        let run = run_latency(&workload, &opts, &[8]);
        let level = &run.levels[0];
        assert_eq!(level.completed, 80);
        let attr = run.stats.attribution.expect("attribution after completions");
        assert_eq!(attr.samples, 80);
        // Components sum to the server-side p99 exactly, by construction.
        assert_eq!(attr.breakdown.total_micros(), attr.p99_micros);
        // And the server-side p99 is bounded by the client-side one.
        assert!(
            attr.p99_micros <= level.p99_micros,
            "server p99 attribution {} exceeds client p99 {}",
            attr.p99_micros,
            level.p99_micros
        );
        // Queue wait dominates under 8 clients on 2 workers.
        assert!(attr.breakdown.queue_micros > 0);
        // Every request beat the 1 us slow threshold, so the flight
        // recorder saw all 80 and retained its capacity.
        assert_eq!(run.stats.slow_observed, 80);
        assert_eq!(run.stats.slow_retained, opts.slow_capacity.min(80));
        assert_eq!(run.slow_jsonl.lines().count(), run.stats.slow_retained);
    }
}
