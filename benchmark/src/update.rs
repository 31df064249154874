//! `update_mix`: the unsharded `Engine` (Mneme, default execution mode =
//! term-at-a-time) on one thread, running a fixed script. The same
//! `core.store`/`mneme`/`storage` layers the service reads through are
//! written here beside the reads, and the term-at-a-time and proximity
//! evaluators (which the service never runs) answer the queries. A
//! read-path gain that costs writes, or the reverse, shows here.
//!
//! The script is count-bounded, not time-bounded, so every count it
//! produces repeats exactly: phase `read` is `plan.reads()` queries, phase
//! `mixed` is `plan.cycles()` cycles of one `add_document` and six
//! queries, with a `remove_document` of the oldest added document every
//! fourth cycle. `--seconds` scales the counts (see `Plan::cycles`).

use std::time::Instant;

use poir_collections::Document;
use poir_core::{Engine, QueryRequest};
use poir_inquery::{DocId, StopWords};
use poir_storage::{Device, IoSnapshot};

use crate::check::{digest, well_formed, Tally};
use crate::inputs::{Plan, Requests, UPDATE_CYCLES_PER_WINDOW};
use crate::stats::{mean, median, sort};
use crate::trace::Tracer;

/// Throughput windows of the `read` phase.
const READ_WINDOWS: usize = 6;

fn add(a: &mut IoSnapshot, d: &IoSnapshot) {
    a.io_inputs += d.io_inputs;
    a.io_outputs += d.io_outputs;
    a.file_accesses += d.file_accesses;
    a.file_writes += d.file_writes;
    a.bytes_read += d.bytes_read;
    a.bytes_written += d.bytes_written;
}

/// One timed `Engine::execute`; returns latency in ms.
fn query(
    engine: &mut Engine,
    requests: &Requests,
    i: usize,
    k: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (f64, u64) {
    let request = QueryRequest::new(requests.text(i), k);
    tracer.set_request(i as u32);
    let span = tracer.open("core.engine.execute");
    let t = Instant::now();
    let result = engine.execute(&request);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    match result {
        Ok(resp) => {
            tally.record(well_formed(&resp, k).map_err(|m| format!("query {i}: {m}")));
            (ms, digest(&resp.hits))
        }
        Err(e) => {
            tally.fail(format!("query {i}: {e}"));
            (ms, 0)
        }
    }
}

/// The count pass: the `read` phase's first requests on a fresh engine.
/// Returns the device I/O delta and each ranking's digest.
pub fn count_pass(
    engine: &mut Engine,
    device: &Device,
    requests: &Requests,
    plan: &Plan,
    tally: &mut Tally,
) -> (IoSnapshot, Vec<u64>) {
    let before = device.stats().snapshot();
    let mut tracer = Tracer::new(false);
    let digests = (0..plan.count_requests())
        .map(|i| query(engine, requests, i, plan.workload.k(), tally, &mut tracer).1)
        .collect();
    (device.stats().snapshot().since(&before), digests)
}

/// Everything the script measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub read_window_qps: Vec<f64>,
    /// Latencies of the `read` phase, ascending.
    pub read_ms: Vec<f64>,
    /// Mean latency of the bag-of-words (even) and `#phrase` (odd) reads.
    pub taat_us: f64,
    pub structured_us: f64,
    pub mixed_window_qps: Vec<f64>,
    /// Query latencies of the `mixed` phase, ascending.
    pub mixed_query_ms: Vec<f64>,
    pub add_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    /// Device I/O during `add_document` / `remove_document` calls only.
    pub update_io: IoSnapshot,
    /// Document-text bytes added or removed.
    pub update_text_bytes: u64,
    pub file_growth_bytes: u64,
}

impl Outcome {
    pub fn updates(&self) -> usize {
        self.add_ms.len() + self.remove_ms.len()
    }

    /// Adds and removes together, ascending.
    pub fn update_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.add_ms.iter().chain(&self.remove_ms).copied().collect();
        sort(&mut all);
        all
    }

    pub fn qps_read(&self) -> f64 {
        median(self.read_window_qps.clone())
    }

    pub fn qps_mixed(&self) -> f64 {
        median(self.mixed_window_qps.clone())
    }
}

/// A query made of the three rarest index terms of `text`, by the
/// engine's current document frequencies.
fn rarest_terms_query(engine: &Engine, text: &str) -> String {
    let stop = StopWords::default();
    let dict = engine.dictionary();
    let mut terms: Vec<(u32, String)> = poir_inquery::text::terms(text, &stop)
        .into_iter()
        .map(|t| (dict.lookup(&t).map_or(0, |id| dict.entry(id).df), t))
        .collect();
    terms.sort();
    terms.dedup();
    terms.into_iter().take(3).map(|(_, t)| t).collect::<Vec<_>>().join(" ")
}

/// Runs the script on `engine`. `tracer` records one span per product
/// call when enabled.
pub fn run_script(
    engine: &mut Engine,
    device: &Device,
    requests: &Requests,
    adds: &[Document],
    plan: &Plan,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Outcome {
    let k = plan.workload.k();
    let mut out = Outcome::default();
    let file_before = engine.store_file_size().expect("store file size");

    // Phase `read`.
    let reads = plan.reads();
    let per_window = reads.div_ceil(READ_WINDOWS);
    let (mut bag_ms, mut phrase_ms) = (Vec::new(), Vec::new());
    let mut window_start = Instant::now();
    let mut window_queries = 0usize;
    for i in 0..reads {
        let (ms, _) = query(engine, requests, i, k, tally, tracer);
        out.read_ms.push(ms);
        // Even positions are bags of words, odd ones carry a #phrase.
        if i.is_multiple_of(2) { &mut bag_ms } else { &mut phrase_ms }.push(ms);
        window_queries += 1;
        if (i + 1) % per_window == 0 || i + 1 == reads {
            out.read_window_qps.push(window_queries as f64 / window_start.elapsed().as_secs_f64());
            window_start = Instant::now();
            window_queries = 0;
        }
    }
    sort(&mut out.read_ms);
    out.taat_us = mean(&bag_ms) * 1e3;
    out.structured_us = mean(&phrase_ms) * 1e3;

    // Phase `mixed`.
    let mut next = reads;
    let mut added: Vec<(DocId, &Document)> = Vec::new();
    let mut removed: Vec<&Document> = Vec::new();
    for (cycle, doc) in adds.iter().enumerate() {
        let before = device.stats().snapshot();
        let span = tracer.open("core.engine.add_document");
        let t = Instant::now();
        let result = engine.add_document(&doc.name, &doc.text);
        out.add_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        add(&mut out.update_io, &device.stats().snapshot().since(&before));
        out.update_text_bytes += doc.text.len() as u64;
        match result {
            Ok(id) => {
                tally.pass();
                added.push((id, doc));
            }
            Err(e) => tally.fail(format!("add_document {}: {e}", doc.name)),
        }
        for _ in 0..6 {
            out.mixed_query_ms.push(query(engine, requests, next, k, tally, tracer).0);
            next += 1;
            window_queries += 1;
        }
        if cycle % 4 == 3 && removed.len() < added.len() {
            let (id, doc) = added[removed.len()];
            let before = device.stats().snapshot();
            let span = tracer.open("core.engine.remove_document");
            let t = Instant::now();
            let result = engine.remove_document(id, &doc.text);
            out.remove_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.close(span);
            add(&mut out.update_io, &device.stats().snapshot().since(&before));
            out.update_text_bytes += doc.text.len() as u64;
            tally.record(result.map_err(|e| format!("remove_document {}: {e}", doc.name)));
            removed.push(doc);
        }
        if (cycle + 1) % UPDATE_CYCLES_PER_WINDOW == 0 || cycle + 1 == adds.len() {
            out.mixed_window_qps.push(window_queries as f64 / window_start.elapsed().as_secs_f64());
            window_start = Instant::now();
            window_queries = 0;
        }
    }
    sort(&mut out.mixed_query_ms);
    out.file_growth_bytes =
        engine.store_file_size().expect("store file size").saturating_sub(file_before);

    // Every added document must now be found by its own rarest terms, and
    // every removed one must not be.
    for (i, &(id, doc)) in added.iter().enumerate() {
        let text = rarest_terms_query(engine, &doc.text);
        let found =
            engine.execute(&QueryRequest::new(text, k)).map(|r| r.hits.iter().any(|h| h.doc == id));
        let want = i >= removed.len();
        match found {
            Ok(found) if found == want => tally.pass(),
            Ok(_) if want => tally.fail(format!("added document {} is not retrievable", doc.name)),
            Ok(_) => tally.fail(format!("removed document {} is still retrieved", doc.name)),
            Err(e) => tally.fail(format!("probe query for {}: {e}", doc.name)),
        }
    }
    out
}
