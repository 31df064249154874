//! Query throughput across execution modes on a TIPSTER-shaped collection.
//!
//! Runs the same query set four ways on the cached Mneme configuration —
//! serial, pruned document-at-a-time, and parallel on 2 and 4 threads —
//! and writes `BENCH_throughput.json` with queries-per-second plus the
//! Table 5 I/O deltas (I = blocks input, A = file accesses per record lookup,
//! B = Kbytes read) of each mode relative to serial.
//!
//! ```text
//! cargo run --release -p poir-bench --bin throughput -- \
//!     [--scale F] [--out PATH] [--trace-out PATH]
//! ```
//!
//! The measurement procedure itself lives in [`poir_bench::throughput`] so
//! the `regress` gate reruns it identically. `--trace-out PATH` performs an
//! additional traced pass (serial plus parallel, tracing telemetry on) after
//! the measured runs and writes a Perfetto-loadable Chrome trace to `PATH`
//! and a flat JSONL access log alongside it; the measured runs themselves
//! always execute with telemetry off.

use poir_bench::latency::{run_latency, LatencyOptions, DEFAULT_LEVELS};
use poir_bench::repeated::run_repeated;
use poir_bench::throughput::{export_trace, prepare_workload, run_throughput, run_traced};
use poir_core::TelemetryOptions;

/// Ring-buffer capacity for the optional traced pass.
const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.05f64;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0.0) {
                Some(v) => scale = v,
                None => {
                    eprintln!("error: --scale needs a positive number");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("error: --trace-out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "usage: throughput [--scale F] [--out PATH] [--trace-out PATH] \
                     (unknown arg {other:?})"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!("# generating + indexing TIPSTER at scale {scale}");
    let workload = prepare_workload(scale);
    eprintln!("# {} queries, top-{}", workload.queries.len(), poir_bench::throughput::TOP_K);

    let mut run = run_throughput(&workload, TelemetryOptions::off());
    println!("{}", run.render_table());

    let opts = LatencyOptions::default();
    eprintln!(
        "# sustained-load ladder ({} shards, queue {}, {} queries/level)",
        opts.spec.shards, opts.queue_capacity, opts.queries_per_level
    );
    let latency = run_latency(&workload, &opts, &DEFAULT_LEVELS);
    println!("{}", latency.render_table());
    run.latency = Some(latency);

    eprintln!("# repeated-query cache-hierarchy family (Zipfian trace)");
    let repeated = run_repeated(&workload);
    println!("{}", repeated.render_table());
    let repeated_ok = repeated.identical_rankings;
    run.repeated = Some(repeated);

    std::fs::write(&out_path, run.to_json()).expect("write json");
    eprintln!("# wrote {out_path}");

    if let Some(path) = trace_out {
        eprintln!("# traced pass (serial + parallel_2, ring capacity {TRACE_CAPACITY})");
        let tracer = run_traced(&workload, TRACE_CAPACITY, 2);
        export_trace(&tracer, &path).expect("write trace");
    }

    if !run.identical_rankings {
        eprintln!("ERROR: rankings diverged across execution modes");
        std::process::exit(1);
    }
    if !repeated_ok {
        eprintln!("ERROR: cached rankings diverged from the no-cache baseline");
        std::process::exit(1);
    }
}
