//! Repeated-query (Zipfian) serving family: measures the cache hierarchy.
//!
//! Real query logs are heavily skewed — a small set of head queries
//! accounts for most of the traffic. This family replays a deterministic
//! Zipfian trace over the workload's query set through two otherwise
//! identical [`QueryService`](poir_core::QueryService) instances:
//!
//! * **baseline** — every cache tier off (the configuration every other
//!   family measures), and
//! * **cached** — the full hierarchy on: S3-FIFO segment buffers,
//!   a shared decoded-block cache, and the query-result cache.
//!
//! QPS uses the same simulated wall-clock convention as the throughput
//! family (host time plus the cost-model charge for the arm's device
//! I/O), so a result-cache hit is rewarded for the I/O it *didn't* do.
//! Both arms must produce bit-identical rankings for every trace entry —
//! the hierarchy's core invariant is that caches change timing, never
//! rankings.
//!
//! The run also replays the same trace's term-fetch sequence against each
//! segment-buffer replacement policy (LRU, S3-FIFO) and reports
//! per-policy buffer hit rates, the tier-1 ablation table.

use std::time::Instant;

use poir_core::{
    paper_heuristic, BackendKind, Engine, MnemeInvertedFile, MnemeOptions, QueryRequest,
    ServiceConfig, ShardSpec,
};
use poir_inquery::{parse_query, InvertedFileStore, StopWords};
use poir_mneme::{BufferPolicy, PoolId};

use crate::paper_device;
use crate::throughput::{Workload, TOP_K};

/// Result-cache capacity (entries) for the cached arm.
pub const RESULT_CACHE_ENTRIES: usize = 512;

/// Decoded-block cache byte budget for the cached arm.
pub const BLOCK_CACHE_BYTES: usize = 8 << 20;

/// Zipf exponent of the repeated-query trace (s = 1.0, the classic
/// head-heavy web-query shape).
pub const ZIPF_S: f64 = 1.0;

/// Trace length as a multiple of the distinct-query count.
pub const REPEAT_FACTOR: usize = 8;

/// Speedup floor the regression gate enforces: the cached arm must be at
/// least this much faster than the no-cache baseline.
pub const SPEEDUP_FLOOR: f64 = 1.3;

/// One replacement policy's buffer behaviour under the repeated trace.
pub struct PolicyHitRate {
    /// Policy name ("lru", "s3fifo").
    pub policy: String,
    /// Segment-buffer references during the replay.
    pub refs: u64,
    /// Buffer hits.
    pub hits: u64,
    /// `hits / refs`.
    pub hit_rate: f64,
}

/// The repeated-query family's measurements.
pub struct RepeatedQueryRun {
    /// Entries in the replayed trace.
    pub trace_len: usize,
    /// Distinct queries the Zipfian draw selects from.
    pub distinct_queries: usize,
    /// Zipf exponent used for the draw.
    pub zipf_s: f64,
    /// Baseline (no caches) queries per second of simulated wall-clock.
    pub baseline_qps: f64,
    /// Cached-arm queries per second of simulated wall-clock.
    pub cached_qps: f64,
    /// `cached_qps / baseline_qps` — gated at [`SPEEDUP_FLOOR`].
    pub speedup: f64,
    /// Result-cache hit rate observed by the cached arm.
    pub result_cache_hit_rate: f64,
    /// Decoded-block cache hit rate observed by the cached arm.
    pub block_cache_hit_rate: f64,
    /// Whether the two arms' rankings were bit-identical, entry by entry.
    pub identical_rankings: bool,
    /// Per-policy segment-buffer hit rates on the same trace.
    pub policies: Vec<PolicyHitRate>,
}

/// Deterministic 64-bit LCG (Knuth MMIX constants); good enough to drive
/// a Zipfian table lookup and fully reproducible across runs.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Top 53 bits -> [0, 1).
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The Zipfian trace: `len` draws over `[0, distinct)` with probability
/// proportional to `1 / (rank + 1)^s`.
fn zipf_trace(distinct: usize, len: usize, s: f64, seed: u64) -> Vec<usize> {
    let mut cumulative = Vec::with_capacity(distinct);
    let mut total = 0.0;
    for rank in 0..distinct {
        total += 1.0 / ((rank + 1) as f64).powf(s);
        cumulative.push(total);
    }
    let mut rng = Lcg(seed);
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            cumulative.partition_point(|&c| c < u).min(distinct - 1)
        })
        .collect()
}

struct ArmResult {
    qps: f64,
    rankings: Vec<Vec<(u32, u64)>>,
    result_cache_hit_rate: f64,
    block_cache_hit_rate: f64,
}

/// Replays `trace` through a two-shard service, caches on or off, and
/// measures simulated-wall-clock QPS plus the cache hit rates.
fn run_arm(workload: &Workload, trace: &[usize], caches_on: bool) -> ArmResult {
    let device = paper_device();
    let mut builder = Engine::builder(&device)
        .backend(BackendKind::MnemeCache)
        .sharding(ShardSpec::new(2, 2))
        .service_config(ServiceConfig {
            result_cache_entries: if caches_on { RESULT_CACHE_ENTRIES } else { 0 },
            ..ServiceConfig::default()
        });
    if caches_on {
        builder = builder.buffer_policy(BufferPolicy::S3Fifo).block_cache_bytes(BLOCK_CACHE_BYTES);
    }
    let service = builder.build_service(workload.index.clone()).expect("service start");
    let before = device.stats().snapshot();
    let start = Instant::now();
    let mut rankings = Vec::with_capacity(trace.len());
    for &qi in trace {
        let response =
            service.query(QueryRequest::new(workload.queries[qi].as_str(), TOP_K)).expect("query");
        rankings.push(
            response.hits.iter().map(|r| (r.doc.0, r.score.to_bits())).collect::<Vec<(u32, u64)>>(),
        );
    }
    let host_secs = start.elapsed().as_secs_f64();
    let io = device.stats().snapshot().since(&before);
    let wall = host_secs + device.cost_model().charge(&io).as_secs_f64();
    let result_cache_hit_rate = service.result_cache_stats().map_or(0.0, |s| s.hit_rate());
    let block_cache_hit_rate = service.block_cache_stats().map_or(0.0, |s| s.hit_rate());
    service.shutdown();
    ArmResult {
        qps: if wall > 0.0 { trace.len() as f64 / wall } else { 0.0 },
        rankings,
        result_cache_hit_rate,
        block_cache_hit_rate,
    }
}

/// Per-policy segment-buffer hit rates: the trace's term fetches replayed
/// against a fresh store per policy, paper-heuristic buffer sizes.
fn policy_table(workload: &Workload, trace: &[usize]) -> Vec<PolicyHitRate> {
    let stop = StopWords::default();
    let term_trace: Vec<Vec<poir_inquery::TermId>> = trace
        .iter()
        .filter_map(|&qi| parse_query(&workload.queries[qi], &stop).ok())
        .map(|parsed| {
            parsed
                .leaf_terms()
                .into_iter()
                .filter_map(|t| workload.index.dictionary.lookup(t))
                .collect()
        })
        .collect();
    let largest = workload.index.record_sizes().into_iter().max().unwrap_or(1);
    let sizes = paper_heuristic(largest, 8192);
    [BufferPolicy::Lru, BufferPolicy::S3Fifo]
        .into_iter()
        .map(|policy| {
            let device = paper_device();
            let mut dict = workload.index.dictionary.clone();
            let mut store = MnemeInvertedFile::build(
                device.create_file(),
                MnemeOptions::default(),
                &workload.index.records,
                &mut dict,
            )
            .expect("build store");
            let file = store.mneme();
            file.attach_buffer(PoolId(0), policy.build(sizes.small)).expect("small");
            file.attach_buffer(PoolId(1), policy.build(sizes.medium)).expect("medium");
            file.attach_buffer(PoolId(2), policy.build(sizes.large)).expect("large");
            device.chill();
            for terms in &term_trace {
                for &id in terms {
                    store.fetch(dict.entry(id).store_ref).expect("fetch");
                }
            }
            let stats = store.buffer_stats().expect("buffer stats");
            let refs: u64 = stats.iter().map(|s| s.refs).sum();
            let hits: u64 = stats.iter().map(|s| s.hits).sum();
            PolicyHitRate {
                policy: policy.to_string(),
                refs,
                hits,
                hit_rate: hits as f64 / refs.max(1) as f64,
            }
        })
        .collect()
}

/// Runs the full family: Zipfian trace, baseline and cached arms,
/// bit-identity check, per-policy buffer table.
pub fn run_repeated(workload: &Workload) -> RepeatedQueryRun {
    let distinct = workload.queries.len().clamp(1, 40);
    let trace = zipf_trace(distinct, distinct * REPEAT_FACTOR, ZIPF_S, 0x9E3779B97F4A7C15);
    let baseline = run_arm(workload, &trace, false);
    let cached = run_arm(workload, &trace, true);
    let identical_rankings = baseline.rankings == cached.rankings;
    RepeatedQueryRun {
        trace_len: trace.len(),
        distinct_queries: distinct,
        zipf_s: ZIPF_S,
        baseline_qps: baseline.qps,
        cached_qps: cached.qps,
        speedup: if baseline.qps > 0.0 { cached.qps / baseline.qps } else { 0.0 },
        result_cache_hit_rate: cached.result_cache_hit_rate,
        block_cache_hit_rate: cached.block_cache_hit_rate,
        identical_rankings,
        policies: policy_table(workload, &trace),
    }
}

impl RepeatedQueryRun {
    /// The `"repeated_query"` JSON object for `BENCH_throughput.json`.
    pub fn to_json(&self) -> String {
        let policies: Vec<String> = self
            .policies
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "      {{\"policy\": \"{}\", \"refs\": {}, \"hits\": {}, ",
                        "\"hit_rate\": {:.4}}}"
                    ),
                    p.policy, p.refs, p.hits, p.hit_rate
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "    \"trace_len\": {},\n",
                "    \"distinct_queries\": {},\n",
                "    \"zipf_s\": {},\n",
                "    \"baseline_qps\": {:.3},\n",
                "    \"cached_qps\": {:.3},\n",
                "    \"speedup\": {:.3},\n",
                "    \"result_cache_hit_rate\": {:.4},\n",
                "    \"block_cache_hit_rate\": {:.4},\n",
                "    \"identical_rankings\": {},\n",
                "    \"buffer_policies\": [\n{}\n    ]\n",
                "  }}"
            ),
            self.trace_len,
            self.distinct_queries,
            self.zipf_s,
            self.baseline_qps,
            self.cached_qps,
            self.speedup,
            self.result_cache_hit_rate,
            self.block_cache_hit_rate,
            self.identical_rankings,
            policies.join(",\n"),
        )
    }

    /// Human-readable summary for the bench binaries.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "repeated-query trace: {} entries over {} distinct (zipf s={})\n",
            self.trace_len, self.distinct_queries, self.zipf_s
        );
        out.push_str(&format!(
            "baseline {:.1} QPS -> cached {:.1} QPS ({:.2}x), result-cache {:.1}% / \
             block-cache {:.1}% hits, identical rankings: {}\n",
            self.baseline_qps,
            self.cached_qps,
            self.speedup,
            self.result_cache_hit_rate * 100.0,
            self.block_cache_hit_rate * 100.0,
            self.identical_rankings,
        ));
        out.push_str(&format!("{:>10} {:>8} {:>8} {:>8}\n", "policy", "refs", "hits", "rate"));
        for p in &self.policies {
            out.push_str(&format!(
                "{:>10} {:>8} {:>8} {:>8.3}\n",
                p.policy, p.refs, p.hits, p.hit_rate
            ));
        }
        out
    }
}
