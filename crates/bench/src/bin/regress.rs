//! Performance-regression gate against the committed throughput baseline.
//!
//! Reruns the exact [`poir_bench::throughput`] procedure (same collection
//! scale, same query set, same modes, telemetry off) and compares every
//! mode against `BENCH_throughput.json`:
//!
//! * **QPS** must lie within `--tolerance` (default ±10%) of the baseline —
//!   the headline throughput gate. QPS here is simulated wall-clock
//!   (engine time + cost-model I/O charge). Serial runs are nearly
//!   deterministic; parallel runs are not — the shared OS-cache state
//!   depends on worker interleaving, so I (and with it QPS) moves a few
//!   percent run to run.
//! * **A** (file accesses per record lookup) must lie within the same
//!   tolerance — any drift there is a behavioural change in the access
//!   path, not noise.
//! * **I** (blocks input) and **lookups** are compared exactly and
//!   reported, but only warn: they gate via A and QPS.
//! * **Decode kernel** — postings decoded per engine-second on a
//!   counter-instrumented `daat_pruned` pass — must not fall more than
//!   `--tolerance` below the baseline (one-sided: faster never fails).
//!   This isolates the block codec + cursor path from I/O behaviour.
//! * **Repeated queries** — the cache hierarchy must earn its keep: on a
//!   Zipfian repeated-query trace the fully-cached service must beat the
//!   no-cache service by ≥ 1.3x QPS with bit-identical rankings and
//!   non-zero hit rates on both the result and decoded-block caches
//!   (one-sided floors; both arms are fresh, so host speed cancels).
//! * **Server agreement** — the service's own metrics must report a
//!   saturation QPS within 15% of the client-side loadgen measurement of
//!   the same run (fresh vs fresh, so host speed cancels; this gates the
//!   observability plumbing itself).
//! * Serial and `parallel_4` must additionally pass the 2% trace-overhead
//!   budget. To keep that strict gate immune to the parallel I/O noise
//!   above, it compares QPS recomputed at the *baseline's* I/O charge:
//!   `queries / (fresh engine time + baseline sys-I/O time / threads)`.
//!   The only thing that moves that number is engine (CPU) time — which
//!   is exactly where disabled-tracing overhead would show up, since the
//!   measured run has tracing off and every hook costs one `Option`
//!   branch. The budget is one-sided: a run whose engine got *faster*
//!   never fails it.
//!
//! ```text
//! cargo run --release -p poir-bench --bin regress -- \
//!     [--baseline PATH] [--tolerance F] [--trace-out PATH] [--out PATH]
//! ```
//!
//! Exits 0 when every gate passes, 1 on a regression, 2 on usage or
//! baseline-parse errors. `--trace-out` additionally runs one traced pass
//! and writes the Chrome trace + JSONL log (CI uploads these as artifacts);
//! the traced pass happens after measurement and never affects the gate.

use poir_bench::json::Json;
use poir_bench::latency::{run_latency, LatencyOptions, LatencyRun};
use poir_bench::repeated::{run_repeated, RepeatedQueryRun, SPEEDUP_FLOOR};
use poir_bench::throughput::{
    export_trace, prepare_workload, run_throughput, run_traced, DecodeThroughput, ThroughputRun,
};
use poir_core::{ShardSpec, TelemetryOptions};

const TRACE_CAPACITY: usize = 1 << 20;
/// Trace-disabled overhead budget on serial and parallel_4 QPS.
const OVERHEAD_TOLERANCE: f64 = 0.02;
/// One-sided latency-ladder budgets. These figures are pure host time
/// under thread scheduling — far noisier than the simulated-clock QPS
/// family — so the gates are generous: they catch a service that stopped
/// scaling (an accidentally serialized pool, a lock storm), not
/// percent-level drift. p99 may grow to 3x the baseline; saturation
/// throughput may fall to half. The scale-free `saturation_over_serial`
/// ratio is gated at ≥ 1 regardless — concurrency must never lose to the
/// single-client replay.
const LATENCY_P99_TOLERANCE: f64 = 2.0;
const LATENCY_QPS_TOLERANCE: f64 = 0.5;
/// Server-agreement gate: the service's own windowed-metrics saturation
/// QPS must agree with the client-side loadgen measurement within this
/// fraction. Fresh-vs-fresh (both figures come from the same run), so it
/// is immune to host speed — it catches the observatory itself drifting:
/// a completion counter that double-counts, a sampler window that loses
/// events, a wall-clock mismatch between the two measurements.
const SERVER_QPS_AGREEMENT: f64 = 0.15;

struct BaselineMode {
    name: String,
    threads: usize,
    qps: f64,
    sys_io_secs: f64,
    accesses_per_lookup: f64,
    io_inputs: u64,
    record_lookups: u64,
}

struct BaselineDecode {
    postings_decoded: u64,
    postings_per_engine_sec: f64,
}

struct BaselineRepeated {
    speedup: f64,
    result_cache_hit_rate: f64,
    block_cache_hit_rate: f64,
}

struct BaselineLatency {
    shards: usize,
    workers: usize,
    queue_capacity: usize,
    queries_per_level: usize,
    /// `(clients, p99_micros)` per ladder level, ascending.
    levels: Vec<(usize, u64)>,
    saturation_qps: f64,
    saturation_over_serial: f64,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn load_baseline(
    path: &str,
) -> (f64, Vec<BaselineMode>, BaselineDecode, BaselineLatency, BaselineRepeated) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("reading baseline {path}: {e}")));
    let doc = Json::parse(&text).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
    let scale =
        doc.get("scale").and_then(Json::as_f64).unwrap_or_else(|| die("baseline lacks \"scale\""));
    let modes = doc
        .get("modes")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| die("baseline lacks \"modes\""))
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| die(&format!("baseline mode lacks {key:?}")))
            };
            BaselineMode {
                name: m
                    .get("mode")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| die("baseline mode lacks \"mode\""))
                    .to_string(),
                threads: field("threads") as usize,
                qps: field("qps"),
                sys_io_secs: field("sys_io_secs"),
                accesses_per_lookup: field("accesses_per_lookup"),
                io_inputs: field("io_inputs") as u64,
                record_lookups: field("record_lookups") as u64,
            }
        })
        .collect();
    let decode = doc
        .get("decode_throughput")
        .map(|d| {
            let field = |key: &str| {
                d.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| die(&format!("baseline decode_throughput lacks {key:?}")))
            };
            BaselineDecode {
                postings_decoded: field("postings_decoded") as u64,
                postings_per_engine_sec: field("postings_per_engine_sec"),
            }
        })
        .unwrap_or_else(|| die("baseline lacks \"decode_throughput\" — regenerate it"));
    let latency = doc
        .get("latency")
        .map(|l| {
            let field = |key: &str| {
                l.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| die(&format!("baseline latency lacks {key:?}")))
            };
            let levels = l
                .get("levels")
                .and_then(Json::as_arr)
                .unwrap_or_else(|| die("baseline latency lacks \"levels\""))
                .iter()
                .map(|level| {
                    let get = |key: &str| {
                        level.get(key).and_then(Json::as_u64).unwrap_or_else(|| {
                            die(&format!("baseline latency level lacks {key:?}"))
                        })
                    };
                    (get("clients") as usize, get("p99_micros"))
                })
                .collect();
            BaselineLatency {
                shards: field("shards") as usize,
                workers: field("workers") as usize,
                queue_capacity: field("queue_capacity") as usize,
                queries_per_level: field("queries_per_level") as usize,
                levels,
                saturation_qps: field("saturation_qps"),
                saturation_over_serial: field("saturation_over_serial"),
            }
        })
        .unwrap_or_else(|| die("baseline lacks \"latency\" — regenerate it"));
    let repeated = doc
        .get("repeated_query")
        .map(|r| {
            let field = |key: &str| {
                r.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| die(&format!("baseline repeated_query lacks {key:?}")))
            };
            BaselineRepeated {
                speedup: field("speedup"),
                result_cache_hit_rate: field("result_cache_hit_rate"),
                block_cache_hit_rate: field("block_cache_hit_rate"),
            }
        })
        .unwrap_or_else(|| die("baseline lacks \"repeated_query\" — regenerate it"));
    (scale, modes, decode, latency, repeated)
}

/// Relative deviation of `fresh` from `base` (0 when both are 0).
fn rel(fresh: f64, base: f64) -> f64 {
    if base == 0.0 {
        if fresh == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (fresh - base).abs() / base
    }
}

fn compare(run: &ThroughputRun, baseline: &[BaselineMode], tolerance: f64) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:>12} {:>12} {:>8} {:>9} {:>9} {:>7} {:>9}  verdict",
        "mode", "qps(base)", "qps(fresh)", "dev%", "A(base)", "A(fresh)", "dev%", "ovhd%"
    );
    for base in baseline {
        let Some(fresh) = run.modes.iter().find(|m| m.name == base.name) else {
            println!("{:<18} missing from fresh run", base.name);
            ok = false;
            continue;
        };
        let qps_dev = rel(fresh.qps, base.qps);
        let a_fresh = fresh.report.accesses_per_lookup();
        let a_dev = rel(a_fresh, base.accesses_per_lookup);
        // Strict modes: QPS at the baseline's I/O charge isolates engine
        // (CPU) time, which is where instrumentation overhead would land.
        let strict = base.name == "serial" || base.name == "parallel_4";
        // One-sided: only a shortfall below the baseline QPS counts.
        let overhead_dev = if strict {
            let wall = fresh.report.engine_time.as_secs_f64()
                + base.sys_io_secs / base.threads.max(1) as f64;
            (base.qps - run.queries as f64 / wall) / base.qps
        } else {
            0.0
        };
        let pass = qps_dev <= tolerance && a_dev <= tolerance && overhead_dev <= OVERHEAD_TOLERANCE;
        println!(
            "{:<18} {:>12.2} {:>12.2} {:>7.2}% {:>9.4} {:>9.4} {:>6.2}% {:>8}  {}",
            base.name,
            base.qps,
            fresh.qps,
            qps_dev * 100.0,
            base.accesses_per_lookup,
            a_fresh,
            a_dev * 100.0,
            if strict { format!("{:.2}%", overhead_dev * 100.0) } else { "-".to_string() },
            if pass { "ok" } else { "REGRESSION" },
        );
        if fresh.report.io_inputs() != base.io_inputs {
            let cause = if fresh.threads > 1 {
                "parallel cache interleaving; gated via A and QPS"
            } else {
                "deterministic counter moved"
            };
            println!(
                "  note: io_inputs {} vs baseline {} ({cause})",
                fresh.report.io_inputs(),
                base.io_inputs
            );
        }
        if fresh.report.record_lookups != base.record_lookups {
            println!(
                "  note: record_lookups {} vs baseline {} (workload changed?)",
                fresh.report.record_lookups, base.record_lookups
            );
        }
        ok &= pass;
    }
    ok
}

/// Decode-kernel gate: postings decoded per engine-second must not fall
/// more than `tolerance` below the baseline. One-sided — the numerator is
/// deterministic for the workload but the denominator is host CPU time,
/// and a decoder that got *faster* must never fail the build.
fn compare_decode(fresh: &DecodeThroughput, base: &BaselineDecode, tolerance: f64) -> bool {
    let drop = if base.postings_per_engine_sec > 0.0 {
        (base.postings_per_engine_sec - fresh.postings_per_engine_sec)
            / base.postings_per_engine_sec
    } else {
        0.0
    };
    let pass = drop <= tolerance;
    println!(
        "{:<18} {:>12.2} {:>12.2} {:>7.2}% (postings decoded / engine-sec, in M; \
         one-sided)  {}",
        "decode_kernel",
        base.postings_per_engine_sec / 1e6,
        fresh.postings_per_engine_sec / 1e6,
        drop * 100.0,
        if pass { "ok" } else { "REGRESSION" },
    );
    if fresh.postings_decoded != base.postings_decoded {
        println!(
            "  note: postings_decoded {} vs baseline {} (pruning behaviour changed?)",
            fresh.postings_decoded, base.postings_decoded
        );
    }
    pass
}

/// Latency-ladder gate, all one-sided (see the tolerance constants):
/// p99 at the gate level (16 clients, or the ladder's top level when 16
/// is absent) must not exceed `(1 + LATENCY_P99_TOLERANCE)x` the
/// baseline; saturation throughput must not fall below
/// `(1 - LATENCY_QPS_TOLERANCE)x`; and the scale-free saturation/serial
/// ratio must stay ≥ 1.
fn compare_latency(fresh: &LatencyRun, base: &BaselineLatency) -> bool {
    let gate_clients = base
        .levels
        .iter()
        .map(|&(c, _)| c)
        .find(|&c| c == 16)
        .or_else(|| base.levels.iter().map(|&(c, _)| c).max())
        .expect("baseline latency has levels");
    let base_p99 =
        base.levels.iter().find(|&&(c, _)| c == gate_clients).map(|&(_, p)| p).unwrap_or(0);
    let fresh_p99 =
        fresh.levels.iter().find(|l| l.clients == gate_clients).map_or(u64::MAX, |l| l.p99_micros);
    let p99_pass = fresh_p99 as f64 <= base_p99 as f64 * (1.0 + LATENCY_P99_TOLERANCE);
    let qps_pass = fresh.saturation_qps >= base.saturation_qps * (1.0 - LATENCY_QPS_TOLERANCE);
    let ratio_pass = fresh.saturation_over_serial >= 1.0;
    println!(
        "{:<18} p99@{}c {}us vs {}us (<= {:.0}%), saturation {:.1} vs {:.1} QPS \
         (>= {:.0}%), saturation/serial {:.2}x vs {:.2}x (>= 1)  {}",
        "latency_ladder",
        gate_clients,
        fresh_p99,
        base_p99,
        (1.0 + LATENCY_P99_TOLERANCE) * 100.0,
        fresh.saturation_qps,
        base.saturation_qps,
        (1.0 - LATENCY_QPS_TOLERANCE) * 100.0,
        fresh.saturation_over_serial,
        base.saturation_over_serial,
        if p99_pass && qps_pass && ratio_pass { "ok" } else { "REGRESSION" },
    );
    p99_pass && qps_pass && ratio_pass
}

/// Repeated-query cache-hierarchy gate, one-sided floors on the fresh
/// run: the cached arm must beat the no-cache baseline arm by at least
/// [`SPEEDUP_FLOOR`], both cache tiers must actually hit under the
/// Zipfian trace, and the cached rankings must be bit-identical to the
/// uncached ones. The committed baseline's figures are printed for
/// context only — both arms are fresh, so host speed cancels and the
/// speedup needs no cross-host tolerance.
fn compare_repeated(fresh: &RepeatedQueryRun, base: &BaselineRepeated) -> bool {
    let speedup_pass = fresh.speedup >= SPEEDUP_FLOOR;
    let hits_pass = fresh.result_cache_hit_rate > 0.0 && fresh.block_cache_hit_rate > 0.0;
    let pass = speedup_pass && hits_pass && fresh.identical_rankings;
    println!(
        "{:<18} speedup {:.2}x vs {:.2}x base (>= {:.1}x), result-cache {:.0}% \
         (base {:.0}%), block-cache {:.0}% (base {:.0}%), identical rankings {}  {}",
        "repeated_query",
        fresh.speedup,
        base.speedup,
        SPEEDUP_FLOOR,
        fresh.result_cache_hit_rate * 100.0,
        base.result_cache_hit_rate * 100.0,
        fresh.block_cache_hit_rate * 100.0,
        base.block_cache_hit_rate * 100.0,
        fresh.identical_rankings,
        if pass { "ok" } else { "REGRESSION" },
    );
    pass
}

/// Server-agreement gate: the saturation throughput the service reports
/// from its own lifetime counters must match the client-side measurement
/// of the same run within [`SERVER_QPS_AGREEMENT`]. Both numbers are
/// fresh, so this gates the metrics plumbing, not the host.
fn compare_server_agreement(fresh: &LatencyRun) -> bool {
    let dev = rel(fresh.server_saturation_qps, fresh.saturation_qps);
    let pass = dev <= SERVER_QPS_AGREEMENT;
    println!(
        "{:<18} server {:.1} vs client {:.1} QPS at saturation, dev {:.2}% (<= {:.0}%)  {}",
        "server_metrics",
        fresh.server_saturation_qps,
        fresh.saturation_qps,
        dev * 100.0,
        SERVER_QPS_AGREEMENT * 100.0,
        if pass { "ok" } else { "REGRESSION" },
    );
    pass
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = "BENCH_throughput.json".to_string();
    let mut tolerance = 0.10f64;
    let mut trace_out: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = p.clone(),
                None => die("--baseline needs a path"),
            },
            "--tolerance" => {
                match it.next().and_then(|v| v.parse().ok()).filter(|&v: &f64| v > 0.0) {
                    Some(v) => tolerance = v,
                    None => die("--tolerance needs a positive fraction (e.g. 0.10)"),
                }
            }
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => die("--trace-out needs a path"),
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => die("--out needs a path"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: regress [--baseline PATH] [--tolerance F] \
                     [--trace-out PATH] [--out PATH]"
                );
                return;
            }
            other => die(&format!("unknown arg {other:?}")),
        }
    }

    let (scale, baseline, baseline_decode, baseline_latency, baseline_repeated) =
        load_baseline(&baseline_path);
    if baseline.is_empty() {
        die("baseline has no modes");
    }
    eprintln!(
        "# regression gate vs {baseline_path}: scale {scale}, tolerance ±{:.0}% \
         (serial/parallel_4 engine-time overhead held under {:.0}%)",
        tolerance * 100.0,
        OVERHEAD_TOLERANCE * 100.0
    );
    let workload = prepare_workload(scale);
    let mut run = run_throughput(&workload, TelemetryOptions::off());
    // Rerun the ladder exactly as the baseline recorded it (same sharding,
    // queue, levels, and per-level budget) so the gate compares like with
    // like.
    let latency = run_latency(
        &workload,
        &LatencyOptions {
            spec: ShardSpec::new(baseline_latency.shards, baseline_latency.workers),
            queue_capacity: baseline_latency.queue_capacity,
            queries_per_level: baseline_latency.queries_per_level,
            ..LatencyOptions::default()
        },
        &baseline_latency.levels.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
    );

    let repeated = run_repeated(&workload);

    let mut ok = compare(&run, &baseline, tolerance);
    ok &= compare_decode(&run.decode, &baseline_decode, tolerance);
    ok &= compare_latency(&latency, &baseline_latency);
    ok &= compare_server_agreement(&latency);
    ok &= compare_repeated(&repeated, &baseline_repeated);
    run.latency = Some(latency);
    run.repeated = Some(repeated);
    if !run.identical_rankings {
        eprintln!("ERROR: rankings diverged across execution modes");
        std::process::exit(1);
    }
    if let Some(path) = &out_path {
        std::fs::write(path, run.to_json())
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("# wrote fresh results to {path}");
    }
    if let Some(path) = &trace_out {
        eprintln!("# traced pass (serial + parallel_2, ring capacity {TRACE_CAPACITY})");
        let tracer = run_traced(&workload, TRACE_CAPACITY, 2);
        export_trace(&tracer, path).expect("write trace");
    }
    if ok {
        println!("perf gate: PASS");
    } else {
        println!("perf gate: FAIL");
        std::process::exit(1);
    }
}
