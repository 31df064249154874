//! Reproduces every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p poir-bench --bin reproduce -- all
//! cargo run --release -p poir-bench --bin reproduce -- table3 table5 --scale 0.25
//! ```
//!
//! Targets: `table1` `table2` `table3` `table4` `table5` `table6`
//! `fig1` `fig2` `fig3` `effectiveness` `all`.
//!
//! `--scale F` shrinks every collection's document count by `F`
//! (default 1.0 = the DESIGN.md §4 sizes).
//!
//! `--metrics-json PATH` enables telemetry on every engine, cross-checks
//! the telemetry-derived Table 5 statistics against the device's `IoStats`
//! deltas (they must match exactly), and writes every query set's
//! `MetricsReport` — counters, per-pool buffer events, phase totals,
//! per-query traces — to `PATH` as JSON. On divergence it prints the
//! full per-counter diff (every mirrored telemetry/IoStats pair, matching
//! and not) before aborting.
//!
//! `--trace-out PATH` runs an extra traced pass — the TIPSTER throughput
//! workload at the same `--scale`, serial then parallel on 2 threads, on a
//! tracing engine — and writes a Perfetto-loadable Chrome trace to `PATH`
//! plus a flat JSONL access log alongside it. The reproduction runs
//! themselves are unaffected.

use std::collections::BTreeSet;

use poir_bench::throughput::{export_trace, prepare_workload, run_traced};
use poir_bench::{fig1_points, fig2_points, fig3_sweep, print, run_all, RunConfig};
use poir_core::{BackendKind, TelemetryOptions};
use poir_inquery::StopWords;
use poir_telemetry::Event;

/// Ring-buffer capacity for the `--trace-out` pass.
const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut targets: BTreeSet<String> = BTreeSet::new();
    let mut scale = 1.0f64;
    let mut metrics_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive number"));
            }
            "--metrics-json" => {
                i += 1;
                metrics_json = Some(
                    args.get(i).cloned().unwrap_or_else(|| die("--metrics-json needs a path")),
                );
            }
            "--trace-out" => {
                i += 1;
                trace_out =
                    Some(args.get(i).cloned().unwrap_or_else(|| die("--trace-out needs a path")));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [table1..table6 fig1..fig3 effectiveness all] \
                     [--scale F] [--metrics-json PATH] [--trace-out PATH]"
                );
                return;
            }
            t => {
                targets.insert(t.to_string());
            }
        }
        i += 1;
    }
    if targets.is_empty() || targets.contains("all") {
        targets = [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig1",
            "fig2",
            "fig3",
            "effectiveness",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let telemetry =
        if metrics_json.is_some() { TelemetryOptions::full() } else { TelemetryOptions::off() };
    let cfg = RunConfig { scale, top_k: 100, telemetry };
    eprintln!(
        "# reproducing {:?} at scale {scale} (this generates, indexes, and queries all four collections)",
        targets
    );

    let needs_suite = targets.iter().any(|t| t != "fig3") || metrics_json.is_some();
    let results = if needs_suite { run_all(&cfg) } else { Vec::new() };

    for t in &targets {
        match t.as_str() {
            "table1" => println!("{}", print::table1(&results)),
            "table2" => println!("{}", print::table2(&results)),
            "table3" => println!("{}", print::table3(&results)),
            "table4" => println!("{}", print::table4(&results)),
            "table5" => println!("{}", print::table5(&results)),
            "table6" => println!("{}", print::table6(&results)),
            "effectiveness" => println!("{}", print::effectiveness(&results)),
            "fig1" => {
                // The paper plots Figure 1 for the Legal collection.
                let legal = results
                    .iter()
                    .find(|r| r.label == "Legal")
                    .unwrap_or_else(|| die("fig1 needs the Legal collection"));
                println!("{}", print::fig1(&legal.label, &fig1_points(&legal.record_sizes)));
            }
            "fig2" => {
                // The paper plots Figure 2 for Legal Query Set 2.
                let legal = results
                    .iter()
                    .find(|r| r.label == "Legal")
                    .unwrap_or_else(|| die("fig2 needs the Legal collection"));
                let qs2 = &legal.query_sets[1];
                // Rebuild the index cheaply for record sizes: reuse stored sizes
                // via the suite's own fig2 pathway.
                let scaled = poir_collections::legal().scale(cfg.scale);
                let collection = poir_collections::SyntheticCollection::new(scaled.spec.clone());
                let (index, _) = poir_bench::build_index(&collection);
                let points = fig2_points(&index, &qs2.queries, &StopWords::default());
                println!("{}", print::fig2(&qs2.label, &points));
            }
            "fig3" => {
                // The paper sweeps the TIPSTER large-object buffer.
                let sweep = fig3_sweep(&poir_collections::tipster(), &cfg, 10);
                println!("{}", print::fig3("TIPSTER Query Set 1", &sweep));
            }
            other => eprintln!("# unknown target {other:?} skipped"),
        }
    }

    if let Some(path) = metrics_json {
        write_metrics_json(&path, scale, &results);
    }

    if let Some(path) = trace_out {
        eprintln!(
            "# traced pass: TIPSTER throughput workload at scale {scale}, \
             serial + parallel_2, ring capacity {TRACE_CAPACITY}"
        );
        let workload = prepare_workload(scale);
        let tracer = run_traced(&workload, TRACE_CAPACITY, 2);
        export_trace(&tracer, &path).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    }
}

/// Serializes every query set's telemetry to JSON, after verifying the
/// telemetry-derived Table 5 statistics (I, A, B) equal the `IoStats`
/// deltas the report measured independently.
fn write_metrics_json(path: &str, scale: f64, results: &[poir_bench::CollectionResults]) {
    let mut collections = Vec::new();
    for coll in results {
        let mut sets = Vec::new();
        for qs in &coll.query_sets {
            let mut backends = Vec::new();
            for (backend, report) in BackendKind::all().iter().zip(&qs.reports) {
                let metrics = report.metrics.as_ref().unwrap_or_else(|| {
                    die("telemetry was enabled but the report carries no metrics")
                });
                // Every counter the telemetry layer mirrors from IoStats,
                // plus the engine-side lookup count. On any divergence the
                // whole table prints (matching rows included) so the shape
                // of the drift is visible, not just its first symptom.
                let pairs: [(&str, u64, u64); 7] = [
                    (
                        "file_accesses",
                        metrics.delta.get(Event::FileAccess),
                        report.io.file_accesses,
                    ),
                    ("file_writes", metrics.delta.get(Event::FileWrite), report.io.file_writes),
                    ("bytes_read", metrics.delta.get(Event::BytesRead), report.io.bytes_read),
                    (
                        "bytes_written",
                        metrics.delta.get(Event::BytesWritten),
                        report.io.bytes_written,
                    ),
                    ("io_inputs", metrics.delta.get(Event::IoInput), report.io.io_inputs),
                    ("io_outputs", metrics.delta.get(Event::IoOutput), report.io.io_outputs),
                    (
                        "record_lookups",
                        metrics.delta.get(Event::RecordLookup),
                        report.record_lookups,
                    ),
                ];
                if pairs.iter().any(|&(_, t, io)| t != io) {
                    eprintln!(
                        "telemetry mismatch for {} / {} / {}:",
                        coll.label, qs.label, backend
                    );
                    eprintln!(
                        "  {:<16} {:>14} {:>14} {:>10}",
                        "counter", "telemetry", "iostats", "delta"
                    );
                    for (name, telem, io) in pairs {
                        eprintln!(
                            "  {:<16} {:>14} {:>14} {:>10}  {}",
                            name,
                            telem,
                            io,
                            telem as i64 - io as i64,
                            if telem == io { "ok" } else { "MISMATCH" },
                        );
                    }
                    die("telemetry counters diverged from IoStats");
                }
                backends.push(format!(
                    "{{\"backend\":\"{backend}\",\"metrics\":{}}}",
                    metrics.to_json()
                ));
            }
            sets.push(format!(
                "{{\"label\":{:?},\"backends\":[{}]}}",
                qs.label,
                backends.join(",")
            ));
        }
        collections.push(format!(
            "{{\"label\":{:?},\"query_sets\":[{}]}}",
            coll.label,
            sets.join(",")
        ));
    }
    let json = format!("{{\"scale\":{scale},\"collections\":[{}]}}\n", collections.join(","));
    std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    eprintln!("# telemetry counters match IoStats exactly; wrote {path}");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
