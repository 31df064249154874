//! The traced run. The end-to-end run records no spans; this separate run
//! assembles the serving pipeline from the product's public parts and
//! replays requests through it on one thread, with a span around every
//! call into a layer. Spans are kept in memory and written at exit.
//!
//! Layers below the store boundary (`mneme`, `storage`) cannot be split by
//! span from outside the product: they get counts here and probes in
//! `probes.rs`.

use std::sync::Arc;
use std::time::Instant;

use poir_core::{paper_heuristic, MnemeInvertedFile, MnemeOptions, RankedResult};
use poir_inquery::query::daat::{self, DaatStats};
use poir_inquery::{
    parse_query, BeliefParams, BlockCache, Dictionary, DocTable, Index, InvertedFileStore,
    RecordBytes, StopWords,
};
use poir_storage::Device;

const NO_SPAN: u32 = u32::MAX;

/// One timed call: name, start, end, the span that caused it, and the
/// request it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread. Disabled, it takes no
/// timestamps: the same pipeline code then measures tracing's own cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close in the order they nest");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }
}

/// Counts taken at the store boundary, where the spans are.
#[derive(Debug, Default, Clone)]
pub struct StoreCounts {
    pub fetches: u64,
    pub range_fetches: u64,
    pub bytes: u64,
    /// `(shard, store_ref)` of every whole-record fetch, in order: the
    /// decode probe replays these.
    pub whole_fetches: Vec<(usize, u64)>,
}

/// The benchmark's `InvertedFileStore`: forwards every call to the
/// product's store view, inside a span.
struct TimedStore<'a, S: InvertedFileStore> {
    inner: S,
    shard: usize,
    tracer: &'a mut Tracer,
    counts: &'a mut StoreCounts,
}

impl<S: InvertedFileStore> InvertedFileStore for TimedStore<'_, S> {
    fn fetch(&mut self, store_ref: u64) -> poir_inquery::Result<RecordBytes> {
        let inner = &mut self.inner;
        let out = self.tracer.span("core.store.fetch", || inner.fetch(store_ref));
        self.counts.fetches += 1;
        self.counts.whole_fetches.push((self.shard, store_ref));
        if let Ok(b) = &out {
            self.counts.bytes += b.len() as u64;
        }
        out
    }

    fn fetch_batch(&mut self, store_refs: &[u64]) -> Vec<poir_inquery::Result<RecordBytes>> {
        let inner = &mut self.inner;
        let out = self.tracer.span("core.store.fetch_batch", || inner.fetch_batch(store_refs));
        self.counts.fetches += store_refs.len() as u64;
        for (r, b) in store_refs.iter().zip(&out) {
            self.counts.whole_fetches.push((self.shard, *r));
            if let Ok(b) = b {
                self.counts.bytes += b.len() as u64;
            }
        }
        out
    }

    fn prefetch(&mut self, store_refs: &[u64]) {
        let inner = &mut self.inner;
        self.tracer.span("core.store.prefetch", || inner.prefetch(store_refs));
    }

    fn fetch_range(
        &mut self,
        store_ref: u64,
        start: u64,
        len: usize,
    ) -> poir_inquery::Result<RecordBytes> {
        let inner = &mut self.inner;
        let out =
            self.tracer.span("core.store.fetch_range", || inner.fetch_range(store_ref, start, len));
        self.counts.range_fetches += 1;
        if let Ok(b) = &out {
            self.counts.bytes += b.len() as u64;
        }
        out
    }

    fn supports_range_read(&self) -> bool {
        self.inner.supports_range_read()
    }

    fn record_len_hint(&self, store_ref: u64) -> Option<u64> {
        self.inner.record_len_hint(store_ref)
    }

    fn reserve(&mut self, store_refs: &[u64]) {
        let inner = &mut self.inner;
        self.tracer.span("core.store.reserve", || inner.reserve(store_refs));
    }

    fn release_reservations(&mut self) {
        let inner = &mut self.inner;
        self.tracer.span("core.store.reserve", || inner.release_reservations());
    }

    fn decoded_block_cache(&self) -> Option<Arc<BlockCache>> {
        self.inner.decoded_block_cache()
    }

    fn store_epoch(&self) -> u64 {
        self.inner.store_epoch()
    }

    fn record_lookups(&self) -> u64 {
        self.inner.record_lookups()
    }
}

pub struct PipelineShard {
    pub dict: Dictionary,
    pub docs: DocTable,
    pub store: MnemeInvertedFile,
}

/// The default serving path, assembled by hand: what
/// `ShardedEngine::execute` does for a bag-of-words request under the
/// builder's defaults (Mneme with the Table 2 buffers, reservation on,
/// pruned document-at-a-time ranking). The decomposition self-check holds
/// it to that: same rankings, same `IoSnapshot` delta.
pub struct Pipeline {
    pub device: Arc<Device>,
    pub shards: Vec<PipelineShard>,
    stop: StopWords,
    params: BeliefParams,
}

/// Store build time is reported as a layer metric, so it is returned.
pub fn build_pipeline(shard_indexes: &[Index]) -> (Pipeline, f64) {
    let device = Device::with_defaults();
    let mut build_secs = 0.0;
    let shards = shard_indexes
        .iter()
        .map(|index| {
            let mut dict = index.dictionary.clone();
            let t = Instant::now();
            let mut store = MnemeInvertedFile::build(
                device.create_file(),
                MnemeOptions::default(),
                &index.records,
                &mut dict,
            )
            .expect("mneme store build");
            build_secs += t.elapsed().as_secs_f64();
            store
                .attach_buffers(paper_heuristic(store.largest_record(), 8192))
                .expect("attach buffers");
            PipelineShard { dict, docs: index.documents.clone(), store }
        })
        .collect();
    let pipeline =
        Pipeline { device, shards, stop: StopWords::default(), params: BeliefParams::default() };
    (pipeline, build_secs)
}

impl Pipeline {
    /// One request through every layer, each call in a span.
    pub fn request(
        &mut self,
        tracer: &mut Tracer,
        counts: &mut StoreCounts,
        stats: &mut DaatStats,
        id: u32,
        text: &str,
        k: usize,
    ) -> poir_core::Result<Vec<RankedResult>> {
        tracer.set_request(id);
        let request = tracer.open("request");
        let parse = tracer.open("inquery.parser");
        let bag = parse_query(text, &self.stop).map(|q| daat::flatten_bag(&q));
        tracer.close(parse);
        let bag =
            bag?.ok_or(poir_core::CoreError::Unsupported("structured query in the replay"))?;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let rank = tracer.open("inquery.daat.rank");
            let refs: Vec<u64> = bag
                .iter()
                .filter_map(|(_, term)| shard.dict.lookup(term))
                .map(|id| shard.dict.entry(id).store_ref)
                .collect();
            let mut store = TimedStore {
                inner: shard.store.shared_view(),
                shard: i,
                tracer: &mut *tracer,
                counts: &mut *counts,
            };
            store.reserve(&refs);
            let ranked =
                daat::rank_daat_pruned(&mut store, &shard.dict, &shard.docs, self.params, &bag, k);
            store.release_reservations();
            tracer.close(rank);
            let (scored, s) = ranked?;
            add_stats(stats, &s);
            per_shard.push(scored);
        }
        let merged = tracer.span("inquery.daat.merge", || daat::merge_topk(per_shard, k));
        let docs = &self.shards[0].docs;
        let hits = tracer.span("core.engine.names", || {
            merged
                .into_iter()
                .map(|s| RankedResult {
                    doc: s.doc,
                    name: docs.info(s.doc).name.clone(),
                    score: s.score,
                })
                .collect()
        });
        tracer.close(request);
        Ok(hits)
    }
}

fn add_stats(total: &mut DaatStats, s: &DaatStats) {
    total.postings_decoded += s.postings_decoded;
    total.postings_skipped += s.postings_skipped;
    total.blocks_skipped += s.blocks_skipped;
    total.cursor_seeks += s.cursor_seeks;
    total.bytes_decoded += s.bytes_decoded;
    total.blocks_bitpacked += s.blocks_bitpacked;
    total.block_cache_hits += s.block_cache_hits;
    total.block_cache_misses += s.block_cache_misses;
}

/// Per-name totals over a set of spans. A span's self time is its
/// duration minus its children's.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

pub struct Breakdown {
    names: Vec<(&'static str, NameTotals)>,
    /// Whether, for every request, the self times of its spans add up to
    /// the request span exactly.
    pub self_times_add_up: bool,
}

/// Time each span's children cover, index-aligned with `spans`.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    child_ns
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let child_ns = child_ns(spans);
        let mut names: Vec<(&'static str, NameTotals)> = Vec::new();
        // Self time summed per root, to compare with the root's duration.
        let mut root_of = vec![NO_SPAN; spans.len()];
        let mut self_per_root = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.dur_ns() - child_ns[i];
            let root = if s.parent == NO_SPAN { i as u32 } else { root_of[s.parent as usize] };
            root_of[i] = root;
            self_per_root[root as usize] += self_ns;
            let entry = match names.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => t,
                None => {
                    names.push((s.name, NameTotals::default()));
                    &mut names.last_mut().expect("just pushed").1
                }
            };
            entry.count += 1;
            entry.dur_ns += s.dur_ns();
            entry.self_ns += self_ns;
        }
        let self_times_add_up = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == NO_SPAN)
            .all(|(i, s)| self_per_root[i] == s.dur_ns());
        Breakdown { names, self_times_add_up }
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.names.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
    }

    /// Totals over every name starting with `prefix`.
    pub fn prefix(&self, prefix: &str) -> NameTotals {
        let mut out = NameTotals::default();
        for (_, t) in self.names.iter().filter(|(n, _)| n.starts_with(prefix)) {
            out.count += t.count;
            out.dur_ns += t.dur_ns;
            out.self_ns += t.self_ns;
        }
        out
    }

    pub fn names(&self) -> impl Iterator<Item = &(&'static str, NameTotals)> {
        self.names.iter()
    }
}

/// Chrome trace-event JSON (load in Perfetto or chrome://tracing): one
/// complete ("X") event per span of the first `max_requests` requests,
/// with the request id, the parent span, and the self time as arguments.
pub fn chrome_trace(spans: &[Span], max_requests: u32) -> String {
    let child_ns = child_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let mut first = true;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.request < max_requests) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = if s.parent == NO_SPAN { -1 } else { s.parent as i64 };
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"poir\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \
             \"request\": {}, \"self_us\": {:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.request,
            (s.dur_ns() - child_ns[i]) as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}
