//! The throughput measurement procedure shared by the `throughput` and
//! `regress` binaries.
//!
//! Both binaries must run the *identical* procedure — same collection,
//! same query set, same engine configuration, same execution modes — or
//! the regression gate would compare apples to oranges. The procedure
//! lives here; the binaries only parse flags and decide what to do with
//! the [`ThroughputRun`].
//!
//! QPS is measured against simulated wall-clock: real engine time plus the
//! cost-model charge for the run's device I/O. Parallel runs divide the
//! device time across threads (each worker drives its own I/O channel), so
//! the speedup reflects overlapped I/O, not host parallelism.

use std::sync::Arc;

use poir_collections::{generate_queries, tipster, SyntheticCollection};
use poir_core::{
    BackendKind, Engine, ExecMode, QuerySetReport, RankedResult, TelemetryOptions, Tracer,
};
use poir_inquery::{Index, IndexBuilder, StopWords};
use poir_telemetry::Event;

use crate::paper_device;

/// Documents retrieved per query, fixed across the whole procedure.
pub const TOP_K: usize = 100;

/// The collection and query set the throughput procedure runs against.
pub struct Workload {
    /// Collection label ("TIPSTER").
    pub collection: String,
    /// Documents indexed.
    pub num_docs: usize,
    /// Scale factor the collection was generated at.
    pub scale: f64,
    /// The built index, shared by every engine the procedure constructs.
    pub index: Index,
    /// Query texts.
    pub queries: Vec<String>,
}

/// Generates and indexes the TIPSTER-shaped workload at `scale`.
pub fn prepare_workload(scale: f64) -> Workload {
    let paper = tipster().scale(scale);
    let collection = SyntheticCollection::new(paper.spec.clone());
    let mut builder = IndexBuilder::new(StopWords::default());
    for doc in collection.documents() {
        builder.add_document(&doc.name, &doc.text);
    }
    let index = builder.finish();
    let queries: Vec<String> =
        generate_queries(&collection, &paper.query_sets[0]).into_iter().map(|q| q.text).collect();
    Workload {
        collection: paper.spec.name.clone(),
        num_docs: paper.spec.num_docs,
        scale,
        index,
        queries,
    }
}

/// One execution mode's measurements.
pub struct ModeResult {
    /// Mode label ("serial", "batched_prefetch", "daat", "daat_pruned",
    /// "parallel_2", "parallel_4").
    pub name: String,
    /// Worker threads used (1 for the serial modes).
    pub threads: usize,
    /// Queries per second of simulated wall-clock.
    pub qps: f64,
    /// Simulated wall-clock for the whole set, seconds.
    pub wall_clock_secs: f64,
    /// The underlying query-set report (I/A/B counters, timings).
    pub report: QuerySetReport,
    /// Per-query rankings, for cross-mode consistency checks.
    pub rankings: Vec<Vec<RankedResult>>,
}

/// Decode-kernel throughput, measured on a counter-instrumented
/// `daat_pruned` pass: postings actually decoded per second of engine
/// (CPU) time. The posting counts are deterministic for a given workload,
/// so this family isolates the codec + cursor kernel from I/O behaviour —
/// a slower block decoder moves it even when QPS hides behind the
/// simulated I/O charge.
pub struct DecodeThroughput {
    /// Postings decoded by the pruned evaluator.
    pub postings_decoded: u64,
    /// Posting payload bytes run through the cursors' decoders.
    pub bytes_decoded: u64,
    /// Blocks decoded from the v2 bit-packed representation.
    pub blocks_bitpacked: u64,
    /// Engine (CPU) seconds for the instrumented pass.
    pub engine_secs: f64,
    /// The gated figure: `postings_decoded / engine_secs`.
    pub postings_per_engine_sec: f64,
}

/// A complete throughput run: every mode, measured on fresh engines.
pub struct ThroughputRun {
    /// Workload identification, echoed into the JSON.
    pub collection: String,
    /// Documents indexed.
    pub num_docs: usize,
    /// Collection scale factor.
    pub scale: f64,
    /// Number of queries in the set.
    pub queries: usize,
    /// Mode measurements, serial first.
    pub modes: Vec<ModeResult>,
    /// Whether every mode produced byte-identical rankings.
    pub identical_rankings: bool,
    /// `parallel_4` QPS over serial QPS.
    pub parallel_4_speedup: f64,
    /// Decode-kernel throughput (separate instrumented pass).
    pub decode: DecodeThroughput,
    /// Sustained-load latency ladder (separate service pass; `None` until
    /// the caller runs [`crate::latency::run_latency`] and attaches it).
    pub latency: Option<crate::latency::LatencyRun>,
    /// Repeated-query cache-hierarchy family (separate service pass;
    /// `None` until the caller runs [`crate::repeated::run_repeated`] and
    /// attaches it).
    pub repeated: Option<crate::repeated::RepeatedQueryRun>,
}

fn fresh_engine(index: &Index, telemetry: TelemetryOptions) -> Engine {
    Engine::builder(&paper_device())
        .backend(BackendKind::MnemeCache)
        .telemetry(telemetry)
        .build(index.clone())
        .expect("engine build")
}

fn ranking_key(rankings: &[Vec<RankedResult>]) -> Vec<Vec<(u32, u64)>> {
    rankings.iter().map(|q| q.iter().map(|r| (r.doc.0, r.score.to_bits())).collect()).collect()
}

/// How many independent decode passes [`measure_decode`] takes; the
/// fastest one is reported.
const DECODE_PASSES: usize = 3;

/// Measures [`DecodeThroughput`]: extra `daat_pruned` passes on fresh
/// engines with [`TelemetryOptions::full`] telemetry (one relaxed atomic
/// add per event, one kept trace per query). These passes never feed the
/// QPS figures, so their small instrumentation cost is shared by baseline
/// and fresh runs alike.
///
/// Unlike the QPS families, this pass is a single short run, so one
/// scheduler hiccup can swing the figure by >10% — enough to trip the
/// regression gate on an otherwise untouched kernel. Decoded-posting
/// counts are deterministic across passes, so best-of-N is simply the
/// pass with the least engine time: the standard way to estimate a
/// kernel's capability under external noise.
fn measure_decode(workload: &Workload, queries: &[&str]) -> DecodeThroughput {
    let mut best: Option<DecodeThroughput> = None;
    for _ in 0..DECODE_PASSES {
        let mut engine = fresh_engine(&workload.index, TelemetryOptions::full());
        let (report, _) =
            engine.run_query_set_mode(queries, TOP_K, ExecMode::DaatPruned).expect("decode pass");
        let metrics = report.metrics.expect("telemetry-on run reports metrics");
        let engine_secs = report.engine_time.as_secs_f64();
        let postings_decoded = metrics.delta.get(Event::PostingsDecoded);
        let pass = DecodeThroughput {
            postings_decoded,
            bytes_decoded: metrics.delta.get(Event::BytesDecoded),
            blocks_bitpacked: metrics.delta.get(Event::BlocksBitpacked),
            engine_secs,
            postings_per_engine_sec: if engine_secs > 0.0 {
                postings_decoded as f64 / engine_secs
            } else {
                0.0
            },
        };
        match &best {
            Some(b) if b.postings_per_engine_sec >= pass.postings_per_engine_sec => {}
            _ => best = Some(pass),
        }
    }
    best.expect("at least one decode pass")
}

/// Runs the full procedure: serial, batched prefetch, and parallel on 2
/// and 4 threads, each on a fresh engine and a fresh device so the I/O
/// counters are independent.
///
/// `telemetry` is applied to every engine; the committed baseline and the
/// regression gate both use [`TelemetryOptions::off`] so the measured
/// path carries zero instrumentation overhead.
pub fn run_throughput(workload: &Workload, telemetry: TelemetryOptions) -> ThroughputRun {
    let queries: Vec<&str> = workload.queries.iter().map(|q| q.as_str()).collect();
    let mut modes: Vec<ModeResult> = Vec::new();
    // JSON mode names come from ExecMode's Display impl, which round-trips
    // through FromStr ("serial", "batched_prefetch", "daat", "daat_pruned").
    for mode in [ExecMode::Serial, ExecMode::BatchedPrefetch, ExecMode::Daat, ExecMode::DaatPruned]
    {
        let mut engine = fresh_engine(&workload.index, telemetry);
        let (report, rankings) =
            engine.run_query_set_mode(&queries, TOP_K, mode).expect("query set");
        let wall = report.wall_clock_secs();
        modes.push(ModeResult {
            name: mode.to_string(),
            threads: 1,
            qps: queries.len() as f64 / wall,
            wall_clock_secs: wall,
            report,
            rankings,
        });
    }
    for threads in [2usize, 4usize] {
        let mut engine = fresh_engine(&workload.index, telemetry);
        let parallel =
            engine.run_query_set_parallel(&queries, TOP_K, threads).expect("parallel run");
        modes.push(ModeResult {
            name: format!("parallel_{threads}"),
            threads,
            qps: parallel.qps(),
            wall_clock_secs: parallel.wall_clock_secs(),
            report: parallel.report,
            rankings: parallel.rankings,
        });
    }

    // Two equivalence families: the term-at-a-time modes (serial, batched,
    // parallel) must be byte-identical to each other, and pruned DAAT must
    // be byte-identical to unpruned DAAT. Across families only the
    // floating-point association order differs, so scores match to ~1e-12
    // but not bit for bit.
    let serial_key = ranking_key(&modes[0].rankings);
    let daat_key = ranking_key(&modes.iter().find(|m| m.name == "daat").unwrap().rankings);
    let identical_rankings = modes.iter().all(|m| match m.name.as_str() {
        "daat" | "daat_pruned" => ranking_key(&m.rankings) == daat_key,
        _ => ranking_key(&m.rankings) == serial_key,
    });
    let serial_qps = modes[0].qps;
    let parallel_4_speedup =
        modes.iter().find(|m| m.threads == 4).map_or(0.0, |m| m.qps / serial_qps);

    let decode = measure_decode(workload, &queries);

    ThroughputRun {
        collection: workload.collection.clone(),
        num_docs: workload.num_docs,
        scale: workload.scale,
        queries: workload.queries.len(),
        modes,
        identical_rankings,
        parallel_4_speedup,
        decode,
        latency: None,
        repeated: None,
    }
}

fn json_mode(m: &ModeResult, serial: &QuerySetReport) -> String {
    let r = &m.report;
    format!(
        concat!(
            "    {{\n",
            "      \"mode\": \"{}\",\n",
            "      \"threads\": {},\n",
            "      \"qps\": {:.3},\n",
            "      \"wall_clock_secs\": {:.6},\n",
            "      \"engine_secs\": {:.6},\n",
            "      \"sys_io_secs\": {:.6},\n",
            "      \"record_lookups\": {},\n",
            "      \"io_inputs\": {},\n",
            "      \"file_accesses\": {},\n",
            "      \"accesses_per_lookup\": {:.4},\n",
            "      \"kbytes_read\": {},\n",
            "      \"delta_vs_serial\": {{\n",
            "        \"io_inputs\": {},\n",
            "        \"accesses_per_lookup\": {:.4},\n",
            "        \"kbytes_read\": {}\n",
            "      }}\n",
            "    }}"
        ),
        m.name,
        m.threads,
        m.qps,
        m.wall_clock_secs,
        r.engine_time.as_secs_f64(),
        r.sys_io_time.as_secs_f64(),
        r.record_lookups,
        r.io_inputs(),
        r.io.file_accesses,
        r.accesses_per_lookup(),
        r.kbytes_read(),
        r.io_inputs() as i64 - serial.io_inputs() as i64,
        r.accesses_per_lookup() - serial.accesses_per_lookup(),
        r.kbytes_read() as i64 - serial.kbytes_read() as i64,
    )
}

impl ThroughputRun {
    /// The `BENCH_throughput.json` document for this run.
    pub fn to_json(&self) -> String {
        let serial = &self.modes[0].report;
        let modes_json: Vec<String> = self.modes.iter().map(|m| json_mode(m, serial)).collect();
        let latency_json = match &self.latency {
            Some(l) => format!("  \"latency\": {},\n", l.to_json()),
            None => String::new(),
        };
        let repeated_json = match &self.repeated {
            Some(r) => format!("  \"repeated_query\": {},\n", r.to_json()),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\n",
                "  \"collection\": \"{}\",\n",
                "  \"num_docs\": {},\n",
                "  \"scale\": {},\n",
                "  \"queries\": {},\n",
                "  \"top_k\": {},\n",
                "  \"identical_rankings\": {},\n",
                "  \"parallel_4_speedup_vs_serial\": {:.3},\n",
                "  \"decode_throughput\": {{\n",
                "    \"mode\": \"daat_pruned\",\n",
                "    \"postings_decoded\": {},\n",
                "    \"bytes_decoded\": {},\n",
                "    \"blocks_bitpacked\": {},\n",
                "    \"engine_secs\": {:.6},\n",
                "    \"postings_per_engine_sec\": {:.0}\n",
                "  }},\n",
                "{}",
                "{}",
                "  \"modes\": [\n{}\n  ]\n",
                "}}\n"
            ),
            self.collection,
            self.num_docs,
            self.scale,
            self.queries,
            TOP_K,
            self.identical_rankings,
            self.parallel_4_speedup,
            self.decode.postings_decoded,
            self.decode.bytes_decoded,
            self.decode.blocks_bitpacked,
            self.decode.engine_secs,
            self.decode.postings_per_engine_sec,
            latency_json,
            repeated_json,
            modes_json.join(",\n"),
        )
    }

    /// Renders the human-readable mode table the `throughput` binary prints.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<18} {:>8} {:>12} {:>8} {:>8} {:>8} {:>8}\n",
            "mode", "threads", "QPS", "I", "A", "B(KB)", "lookups"
        );
        for m in &self.modes {
            out.push_str(&format!(
                "{:<18} {:>8} {:>12.2} {:>8} {:>8.3} {:>8} {:>8}\n",
                m.name,
                m.threads,
                m.qps,
                m.report.io_inputs(),
                m.report.accesses_per_lookup(),
                m.report.kbytes_read(),
                m.report.record_lookups,
            ));
        }
        out.push_str(&format!("identical rankings across modes: {}\n", self.identical_rankings));
        out.push_str(&format!("parallel_4 speedup over serial: {:.2}x\n", self.parallel_4_speedup));
        out.push_str(&format!(
            "decode kernel: {:.1}M postings/engine-sec ({} decoded, {} bit-packed blocks)",
            self.decode.postings_per_engine_sec / 1e6,
            self.decode.postings_decoded,
            self.decode.blocks_bitpacked,
        ));
        out
    }
}

/// Runs a traced pass over the workload — one serial instrumented run and
/// one parallel run — on a single tracing engine, and returns its tracer.
///
/// The serial pass produces nested query/phase/I-O slices on one track;
/// the parallel pass adds one track per worker thread with lock-wait
/// spans on the shared Mneme read path. Both accumulate into the same
/// ring buffer so one export shows both shapes.
pub fn run_traced(workload: &Workload, capacity: usize, threads: usize) -> Arc<Tracer> {
    let queries: Vec<&str> = workload.queries.iter().map(|q| q.as_str()).collect();
    let mut engine = fresh_engine(&workload.index, TelemetryOptions::tracing(capacity));
    engine.run_query_set_mode(&queries, TOP_K, ExecMode::Serial).expect("traced serial run");
    engine.run_query_set_parallel(&queries, TOP_K, threads).expect("traced parallel run");
    engine.tracer().cloned().expect("tracing engine has a tracer")
}

/// Writes the Chrome trace (at `path`) and the flat JSONL access log (at
/// `path` with its extension swapped to `.jsonl`), prints where they went
/// and the buffer-residency report, and returns the JSONL path.
pub fn export_trace(tracer: &Tracer, path: &str) -> std::io::Result<String> {
    let jsonl_path = match path.rsplit_once('.') {
        Some((stem, _)) => format!("{stem}.jsonl"),
        None => format!("{path}.jsonl"),
    };
    std::fs::write(path, tracer.chrome_trace_json())?;
    std::fs::write(&jsonl_path, tracer.access_log_jsonl())?;
    eprintln!(
        "# wrote {} trace records ({} dropped) to {path} (Chrome trace) and {jsonl_path} (JSONL)",
        tracer.len(),
        tracer.dropped(),
    );
    eprintln!("{}", tracer.residency_report(10).render());
    Ok(jsonl_path)
}
