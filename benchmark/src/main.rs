//! The repo benchmark: four host-time workloads through `QueryService` and
//! `Engine`, measured from outside through the crates' public functions.
//! See README.md for the workloads, the metrics, and how to read a run.
//!
//! `poir-benchmark --workload W --seed S --seconds T --trace 0|1`
//! runs one workload once. `--trace 0` is the end-to-end run (no spans);
//! `--trace 1` is the separate per-layer run. Every metric is printed as
//! `name unit value`; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed`, and `metrics`.

mod check;
mod inputs;
mod load;
mod probes;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod update;

use std::path::PathBuf;
use std::process::ExitCode;

use poir_collections::{Document, SyntheticCollection};
use poir_core::{BufferSizes, TelemetryOptions};
use poir_inquery::Index;

use check::{compare_with_reference, Checker, Tally};
use inputs::{
    Plan, Requests, Workload, COUNT_REQUESTS, FULL_SCALE, REPLAY_REQUESTS, SAMPLE_REQUESTS,
    SMOKE_SCALE,
};
use report::{Report, END_TO_END, PER_LAYER};
use setup::{Instance, Stopwatch};
use stats::{median, percentile, ratio};
use trace::Tracer;

/// The committed input fingerprints; see `inputs::expected_fingerprint`.
const FINGERPRINTS: &str = include_str!("../inputs.fingerprint");

struct Args {
    plan: Plan,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: poir-benchmark --workload <{}> [--seed N] [--seconds T] [--trace 0|1] \
         [--smoke] [--out DIR]\n       poir-benchmark --list-metrics",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list-metrics" => return Ok(None),
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--traced" => trace = true,
            "--smoke" => smoke = true,
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && (1.0..=60.0).contains(&seconds)) {
        return Err(format!("--seconds must be between 1 and 60, not {seconds}"));
    }
    // One-second windows; `--smoke` runs one half-second window per phase
    // at a fiftieth of the collection.
    let count = if trace { REPLAY_REQUESTS } else { COUNT_REQUESTS };
    let plan = if smoke {
        Plan { workload, seed, seconds: 1.0, scale: SMOKE_SCALE, windows: 1, count }
    } else {
        let windows = ((seconds / 2.0).round() as usize).max(1);
        Plan { workload, seed, seconds, scale: FULL_SCALE, windows, count }
    };
    Ok(Some(Args { plan, trace, out_dir }))
}

/// One full set-up. The stopwatch runs only inside the laps: what the
/// benchmark does for itself between them (hashing, cloning) is not the
/// system's set-up time.
struct SetUp {
    watch: Stopwatch,
    instance: Instance,
    docs: Option<Vec<Document>>,
    index: Option<Index>,
}

fn set_up(
    plan: &Plan,
    collection: &SyntheticCollection,
    keep_docs: bool,
    keep_index: bool,
) -> SetUp {
    let mut watch = Stopwatch::default();
    let docs = watch.lap("generate", || setup::generate(collection));
    let index = watch.lap("index", || setup::index(&docs));
    let docs = keep_docs.then_some(docs);
    let kept = keep_index.then(|| index.clone());
    let instance = watch.lap("build", || setup::instance(plan.workload, index));
    SetUp { watch, instance, docs, index: kept }
}

/// Sizes printed with every run: the collection against the program's
/// own caches.
fn describe_sizes(docs: &[Document], index: &Index, store_bytes: Option<u64>) {
    let largest = index.records.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    let buffers: BufferSizes = poir_core::paper_heuristic(largest, 8192);
    println!(
        "# collection: {} docs, {:.1} MB text, {} records, {:.1} MB record bytes{}",
        docs.len(),
        setup::text_bytes(docs) as f64 / 1e6,
        index.records.len(),
        index.total_record_bytes() as f64 / 1e6,
        store_bytes.map_or(String::new(), |b| format!(", {:.1} MB store", b as f64 / 1e6))
    );
    println!(
        "# caches: Table-2 buffers {} B / {} B / {} B (unsharded sizing), simulated OS cache {} KB, \
         available_parallelism {}",
        buffers.small,
        buffers.medium,
        buffers.large,
        512 * 8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

/// Fails the run when the generated inputs are not the committed ones.
fn check_fingerprint(
    plan: &Plan,
    docs: &[Document],
    requests: &Requests,
    adds: &[Document],
    tally: &mut Tally,
) {
    let got = inputs::fingerprint(docs, requests, adds);
    println!("input_fingerprint {got:016x}");
    if plan.scale != FULL_SCALE {
        return;
    }
    match inputs::expected_fingerprint(FINGERPRINTS, plan) {
        Some(want) if want == got => tally.pass(),
        Some(want) => tally.fail(format!(
            "INPUT DRIFT: seed {} {} generates {got:016x}, benchmark/inputs.fingerprint records \
             {want:016x}; crates/collections (or the benchmark's input code) changed, and results \
             are not comparable with earlier runs",
            plan.seed,
            plan.workload.name()
        )),
        None => println!("# no committed fingerprint for seed {} at {} s", plan.seed, plan.seconds),
    }
}

fn end_to_end(plan: &Plan, report: &mut Report, tally: &mut Tally) {
    let workload = plan.workload;
    let k = workload.k();
    let collection = SyntheticCollection::new(inputs::collection_spec(plan.seed, plan.scale));
    // The whole set-up runs three times per run; `setup_s` is the median.
    let mut setup_secs = Vec::with_capacity(3);

    // First instance: the count pass, from a fresh device and store.
    let mut first = set_up(plan, &collection, true, true);
    setup_secs.push(first.watch.total());
    let docs = first.docs.take().expect("kept");
    let index = first.index.take().expect("kept");
    let text_bytes = setup::text_bytes(&docs);
    let requests = inputs::requests(plan, &collection);
    let adds = if workload.is_service() { Vec::new() } else { inputs::documents_to_add(plan) };
    check_fingerprint(plan, &docs, &requests, &adds, tally);
    describe_sizes(&docs, &index, Some(first.instance.store_bytes()));
    drop(docs);
    println!("# requests: {} in sequence, {} distinct texts", requests.len(), requests.distinct());
    let checker = Checker::new(&requests, k);
    let (count_io, digests) = if workload.is_service() {
        serve::count_pass(&first.instance, plan, &checker, tally)
    } else {
        let device = first.instance.device.clone();
        update::count_pass(first.instance.engine(), &device, &requests, plan, tally)
    };
    let cost = first.instance.device.cost_model().charge(&count_io);
    drop(first);
    report.set_with(
        "sim_io_ms_per_query",
        cost.as_micros() as f64 / 1e3 / plan.count_requests() as f64,
        format!("cost-model time of {count_io:?} over {} requests", plan.count_requests()),
    );

    // The reference: `ShardedEngine::execute` on an instance of its own.
    // The sample is compared against it; on the service workloads it then
    // serves phase `1c`, one caller on the synchronous API.
    let (_, mut reference) =
        setup::sharded(index, setup::shard_spec(workload), TelemetryOptions::off());
    let sample = &digests[..SAMPLE_REQUESTS.min(digests.len())];
    let rankings = compare_with_reference(&mut reference, &requests, k, sample, tally);
    println!("rankings_fingerprint {rankings:016x}");
    if workload.is_service() {
        let (one, _) = load::direct_phase(
            &mut reference,
            sample.len(),
            plan.windows,
            plan.window_secs(),
            &checker,
            tally,
        );
        serve::describe_phase("1c", &one);
        report.set("qps_1c", one.qps());
        report.set_with("p50_ms", one.latency_ms(50.0), format!("{} samples", one.samples()));
        report.set("p99_ms", one.latency_ms(99.0));
    }
    drop(reference);

    // Second instance: built and dropped, for the set-up median only.
    setup_secs.push(set_up(plan, &collection, false, false).watch.total());

    // Third instance: phase `loaded` (the whole script on `update_mix`).
    let mut main = set_up(plan, &collection, false, false);
    setup_secs.push(main.watch.total());
    let mut updated_text_bytes = 0;
    if workload.is_service() {
        let (loaded, sent) = serve::loaded_phase(&main.instance, plan, &checker, tally);
        serve::describe_phase("loaded", &loaded);
        println!(
            "# sequence positions used: {sent} of {} (wraps: {})",
            requests.len(),
            sent / requests.len()
        );
        report.set("qps_loaded", loaded.qps());
        report.set_with(
            "p99_loaded_ms",
            loaded.latency_ms(99.0),
            format!("{} samples", loaded.samples()),
        );
    } else {
        let device = main.instance.device.clone();
        let out = update::run_script(
            main.instance.engine(),
            &device,
            &requests,
            &adds,
            plan,
            tally,
            &mut Tracer::new(false),
        );
        describe_update(&out);
        updated_text_bytes = out.update_text_bytes;
        report.set("qps_1c", out.qps_read());
        report.set_with(
            "p50_ms",
            percentile(&out.read_ms, 50.0),
            format!("{} samples", out.read_ms.len()),
        );
        report.set("p99_ms", percentile(&out.read_ms, 99.0));
        report.set("qps_loaded", out.qps_mixed());
        report.set_with(
            "p99_loaded_ms",
            percentile(&out.mixed_query_ms, 99.0),
            format!("{} samples", out.mixed_query_ms.len()),
        );
    }
    let store_bytes = main.instance.store_bytes();
    let written = main.instance.device.stats().bytes_written();
    report.set_ratio("store_bytes_per_text_byte", store_bytes as f64, text_bytes as f64);
    report.set_ratio(
        "write_bytes_per_text_byte",
        written as f64,
        (text_bytes + updated_text_bytes) as f64,
    );
    drop(main);
    println!("# set-up runs: {setup_secs:.3?} s");
    report.set("setup_s", median(setup_secs));
    report.set("peak_rss_mb", report::peak_rss_mb());
}

fn describe_update(out: &update::Outcome) {
    let updates = out.update_ms();
    println!(
        "# read: {} queries; mixed: {} queries, {} adds, {} removes; update p50 {:.2} ms, p90 {:.2} ms",
        out.read_ms.len(),
        out.mixed_query_ms.len(),
        out.add_ms.len(),
        out.remove_ms.len(),
        percentile(&updates, 50.0),
        percentile(&updates, 90.0)
    );
    println!(
        "# updates wrote {} B to the device for {} B of document text: write amplification {:.0}x",
        out.update_io.bytes_written,
        out.update_text_bytes,
        ratio(out.update_io.bytes_written as f64, out.update_text_bytes as f64)
    );
}

fn per_layer(plan: &Plan, report: &mut Report, tally: &mut Tally, out_dir: Option<&PathBuf>) {
    let workload = plan.workload;
    let collection = SyntheticCollection::new(inputs::collection_spec(plan.seed, plan.scale));
    let mut watch = Stopwatch::default();
    let docs = watch.lap("generate", || setup::generate(&collection));
    let index = watch.lap("index", || setup::index(&docs));
    report.set("collections.generate_s", watch.get("generate"));
    report.set("inquery.index.build_s", watch.get("index"));
    report.set_ratio("inquery.index.docs_per_s", docs.len() as f64, watch.get("index"));
    let requests = inputs::requests(plan, &collection);
    let adds = if workload.is_service() { Vec::new() } else { inputs::documents_to_add(plan) };
    check_fingerprint(plan, &docs, &requests, &adds, tally);
    describe_sizes(&docs, &index, None);
    drop(docs);

    let (ns, lookups) = probes::dict_lookup_ns(&index.dictionary, &requests, plan.count_requests());
    report.set_with("inquery.dict.ns_per_lookup", ns, format!("over {lookups} lookups"));
    report.set("storage.read_8k_us", probes::read_8k_us());
    report.set("storage.read_scaling_2t", probes::read_scaling_2t());

    let trace_path = out_dir.map(|d| d.join(format!("{}.trace.json", workload.name())));
    if workload.is_service() {
        serve::per_layer(plan, &index, &requests, report, tally, trace_path.as_deref());
    } else {
        update_per_layer(plan, index, &requests, &adds, report, tally, trace_path.as_deref());
    }
    report.rest_not_applicable();
}

#[allow(clippy::too_many_arguments)]
fn update_per_layer(
    plan: &Plan,
    index: Index,
    requests: &Requests,
    adds: &[Document],
    report: &mut Report,
    tally: &mut Tally,
    trace_path: Option<&std::path::Path>,
) {
    report.set("core.engine.terms_per_update", probes::terms_per_doc(adds));
    report.set(
        "inquery.postings.recode_us_per_update",
        probes::recode_us_per_update(&index, &adds[..adds.len().min(10)]),
    );
    let n = plan.count_requests() as f64;

    // Count pass on a fresh engine: what the reads cost the device.
    let mut fresh = setup::engine(index.clone());
    let device = fresh.device.clone();
    let (io, _) = update::count_pass(fresh.engine(), &device, requests, plan, tally);
    let (os_hits, os_misses) = device.os_cache_counters();
    report.set_ratio("storage.io_inputs_per_request", io.io_inputs as f64, n);
    report.set_ratio("storage.kb_read_per_request", io.bytes_read as f64 / 1024.0, n);
    report.set_ratio("storage.os_cache_hit_rate", os_hits as f64, (os_hits + os_misses) as f64);
    drop(fresh);

    // The script, one span per product call.
    let t = std::time::Instant::now();
    let mut instance = setup::engine(index);
    report.set("core.store.build_s", t.elapsed().as_secs_f64());
    let device = instance.device.clone();
    let mut tracer = Tracer::new(true);
    let out =
        update::run_script(instance.engine(), &device, requests, adds, plan, tally, &mut tracer);
    describe_update(&out);
    let updates = out.updates() as f64;
    let update_ms = out.update_ms();
    report.set("core.engine.add_us", stats::mean(&out.add_ms) * 1e3);
    report.set("core.engine.remove_us", stats::mean(&out.remove_ms) * 1e3);
    report.set_with(
        "core.engine.update_p50_ms",
        percentile(&update_ms, 50.0),
        format!("{updates} samples"),
    );
    report.set("core.engine.update_p90_ms", percentile(&update_ms, 90.0));
    report.set_ratio("core.engine.updates_per_s", updates, update_ms.iter().sum::<f64>() / 1e3);
    let io = out.update_io;
    report.set_ratio(
        "storage.write_amp_updates",
        io.bytes_written as f64,
        out.update_text_bytes as f64,
    );
    report.set_ratio("storage.kb_written_per_update", io.bytes_written as f64 / 1024.0, updates);
    report.set_ratio("storage.file_writes_per_update", io.file_writes as f64, updates);
    report.set_ratio("storage.io_outputs_per_update", io.io_outputs as f64, updates);
    report.set_ratio("storage.kb_read_per_update", io.bytes_read as f64 / 1024.0, updates);
    report.set_ratio(
        "mneme.file_growth_kb_per_update",
        out.file_growth_bytes as f64 / 1024.0,
        updates,
    );
    report.set("inquery.eval.taat_us", out.taat_us);
    report.set("inquery.eval.structured_us", out.structured_us);
    if let Some(path) = trace_path {
        match std::fs::write(path, trace::chrome_trace(&tracer.spans, u32::MAX)) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => tally.fail(format!("writing {}: {e}", path.display())),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            report::list_metrics();
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}");
            return usage();
        }
    };
    let plan = &args.plan;
    println!(
        "# workload {} seed {} seconds {} scale {} mode {}",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        plan.scale,
        if args.trace { "per-layer (--trace 1)" } else { "end-to-end (--trace 0)" }
    );
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let mut tally = Tally::default();
    let mut report = Report::new(if args.trace { PER_LAYER } else { END_TO_END });
    if args.trace {
        per_layer(plan, &mut report, &mut tally, args.out_dir.as_ref());
    } else {
        end_to_end(plan, &mut report, &mut tally);
    }
    for message in &tally.messages {
        eprintln!("FAILED: {message}");
    }
    let correct = tally.failed == 0;
    println!(
        "fail_share ratio {}   # = {} / {}",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    let json = report.finish(&tally, correct);
    if let Some(dir) = &args.out_dir {
        let mode = if args.trace { "layers" } else { "e2e" };
        let path = dir.join(format!("{}.{mode}.json", plan.workload.name()));
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
