//! The evaluation pipeline: how one request is evaluated across shards.
//!
//! The paper runs one query processor unchanged over a swappable
//! inverted-file layer; this module is that one processor. Every driver —
//! [`Engine`](crate::Engine), [`ShardedEngine`](crate::ShardedEngine), the
//! [`QueryService`](crate::QueryService) workers, the batch runners —
//! hands [`evaluate`] a slice of [`ShardView`]s plus the [`Driver`] values
//! it already holds; [`respond`] turns the [`Evaluation`] into a
//! [`QueryResponse`]. Phase times land in the evaluation's own
//! [`QueryTrace`]; counters and trace slices go straight to the driver's
//! [`Recorder`] (disabled = one branch), once, whichever driver runs.
//! DESIGN.md §19 has the stages and the driver values in full.
//!
//! # The deadline, retry and degrade rule
//!
//! * **Deadline** — the budget is measured from [`Driver::origin`] and
//!   checked *between shards* and *after the merge*. Shard 0 always
//!   completes, so an expired budget yields
//!   [`CoreError::DeadlineExceeded`] carrying a deterministic partial: the
//!   merge of the shards that finished in time (after the merge, the full
//!   ranking).
//! * **Retry** — a shard evaluation that raises a transient storage fault
//!   ([`CoreError::is_transient_fault`]) is re-run up to
//!   [`RetryPolicy::max_retries`] times, sleeping `backoff * attempt`
//!   before each re-run.
//! * **Degrade** — a shard that still fails is left out of the merge and
//!   reported in [`Degraded`]. Only when *every* shard fails does the
//!   request fail, with the last shard's error.

use std::time::{Duration, Instant};

use poir_inquery::query::daat::{self, DaatStats};
use poir_inquery::query::QueryNode;
use poir_inquery::{
    rank_score_list, BeliefParams, Dictionary, DocTable, Evaluator, InvertedFileStore, ScoredDoc,
    StopWords,
};
use poir_telemetry::trace::tag_query;
use poir_telemetry::{Event, LatencyBreakdown, Phase, QueryTrace, Recorder, TraceOp};

use crate::engine::{Degraded, ExecMode, QueryRequest, QueryResponse, RankedResult, ShardTiming};
use crate::error::{CoreError, Result};
use crate::service::RetryPolicy;

/// One shard's read path: its store behind the swappable
/// [`InvertedFileStore`] boundary, its dictionary (global statistics,
/// shard-local store references) and the collection-wide document table.
pub(crate) struct ShardView<'a> {
    pub(crate) store: &'a mut dyn InvertedFileStore,
    pub(crate) dict: &'a Dictionary,
    pub(crate) docs: &'a DocTable,
}

/// What differs between drivers — five values each already holds — plus
/// the builder-wide recorder, stop words and belief parameters.
pub(crate) struct Driver<'a> {
    /// A single shard's mode when the request carries no override.
    pub(crate) default_mode: ExecMode,
    /// The instant deadline budgets are measured from.
    pub(crate) origin: Instant,
    pub(crate) retry: RetryPolicy,
    /// Pin resident evidence before ranking. Never on a shared view:
    /// `MnemeFile::release_reservations` is file-global, so concurrent
    /// workers would drop each other's pins.
    pub(crate) reserve: bool,
    /// Take timestamps: phase timings, trace slices, per-query event
    /// deltas. Off, evaluation reads no clock.
    pub(crate) timed: bool,
    pub(crate) recorder: &'a Recorder,
    pub(crate) stop: &'a StopWords,
    pub(crate) params: BeliefParams,
}

/// How one shard fared in one request.
pub(crate) struct ShardOutcome {
    /// Wall time including retries and backoff (0 when untimed).
    pub(crate) timing: ShardTiming,
    pub(crate) retries: u32,
    /// Failed past the retry budget: absent from the merge.
    pub(crate) failed: bool,
}

/// What [`evaluate`] learned, as plain data. The ranking is a `Result`
/// inside the struct so the per-shard outcomes survive a failed request
/// (the service's shard health needs them most then).
pub(crate) struct Evaluation {
    /// The mode that ran (the driver's default if resolution failed).
    pub(crate) mode: ExecMode,
    /// One entry per shard attempted, in shard order.
    pub(crate) shards: Vec<ShardOutcome>,
    pub(crate) merge_micros: u64,
    /// Phase timings and the recorder's event delta (zero when untimed).
    pub(crate) trace: QueryTrace,
    /// The merged top `k`, unnamed.
    pub(crate) scored: Result<Vec<ScoredDoc>>,
}

/// Picks (and validates) the execution mode of a request over `shards`
/// shards.
///
/// Without an override a single shard runs `default` and a sharded
/// collection runs [`ExecMode::DaatPruned`]. Sharded evaluation must be
/// document-at-a-time: the term-at-a-time
/// [`Evaluator`](poir_inquery::Evaluator) reads document frequencies from
/// each shard's stored records, which hold shard-local counts — its beliefs
/// would silently diverge from the unsharded ranking. The DAAT mode scores
/// from the dictionary's global statistics, so it is exact; anything else
/// is a typed error rather than a wrong answer.
pub(crate) fn resolve_mode(
    requested: Option<ExecMode>,
    default: ExecMode,
    shards: usize,
) -> Result<ExecMode> {
    match (requested, shards > 1) {
        (Some(m), false) => Ok(m),
        (None, false) => Ok(default),
        (None | Some(ExecMode::DaatPruned), true) => Ok(ExecMode::DaatPruned),
        (Some(ExecMode::Serial), true) => {
            Err(CoreError::Unsupported("term-at-a-time execution on a sharded engine"))
        }
    }
}

/// Names every scored document from the (collection-wide) document table.
pub(crate) fn name_hits(docs: &DocTable, scored: Vec<ScoredDoc>) -> Vec<RankedResult> {
    scored
        .into_iter()
        .map(|s| RankedResult { doc: s.doc, name: docs.info(s.doc).name.clone(), score: s.score })
        .collect()
}

/// Evaluates one request across `shards`: resolves the mode, parses once,
/// ranks each shard — a flat bag of terms under a document-at-a-time mode
/// through per-term cursors, anything else by the term-at-a-time walk of
/// the query tree, exact on one shard only — under the module's deadline /
/// retry / degrade rule, and merges the per-shard top `k`.
pub(crate) fn evaluate(
    shards: &mut [ShardView<'_>],
    req: &QueryRequest,
    qid: u32,
    d: &Driver<'_>,
) -> Evaluation {
    // Tag the thread so every trace record emitted below — device reads,
    // buffer refs, lock waits — carries this query's id.
    let _tag = d.timed.then(|| tag_query(qid));
    let span = d.timed.then(|| d.recorder.trace_start()).flatten();
    let before = (d.timed && d.recorder.is_enabled()).then(|| d.recorder.snapshot());
    let mut ev = Evaluation {
        mode: d.default_mode,
        shards: Vec::with_capacity(shards.len()),
        merge_micros: 0,
        trace: QueryTrace { query: qid as usize, ..QueryTrace::default() },
        scored: Ok(Vec::new()),
    };
    ev.scored = run(shards, req, d, &mut ev);
    if d.timed {
        d.recorder.trace_end(span, TraceOp::Query, qid as u64, None, 0);
    }
    if let Some(before) = before {
        ev.trace.events = d.recorder.snapshot().since(&before).events;
    }
    ev.trace.results = ev.scored.as_ref().map_or(0, Vec::len);
    ev
}

/// Builds the typed response: names the hits, keeps the timings of the
/// shards that answered, reports the others as [`Degraded`], and splits
/// the time since `origin` into queue / eval / merge with everything else
/// (parse, naming, scheduling gaps) in the residual.
pub(crate) fn respond(
    ev: Evaluation,
    docs: &DocTable,
    queue_micros: u64,
    origin: Instant,
) -> Result<QueryResponse> {
    let Evaluation { mode, shards, merge_micros, trace, scored } = ev;
    let hits = name_hits(docs, scored?);
    let missing_shards: Vec<usize> =
        shards.iter().filter(|s| s.failed).map(|s| s.timing.shard).collect();
    let degraded = (!missing_shards.is_empty())
        .then(|| Degraded { missing_shards, retries: shards.iter().map(|s| s.retries).sum() });
    let shards: Vec<ShardTiming> = shards.iter().filter(|s| !s.failed).map(|s| s.timing).collect();
    let breakdown = LatencyBreakdown::from_parts(
        trace.query as u32,
        queue_micros,
        shards.iter().map(|t| t.micros).sum(),
        merge_micros,
        origin.elapsed().as_micros() as u64,
    );
    Ok(QueryResponse {
        hits,
        shards,
        trace,
        queue_micros,
        mode,
        breakdown,
        degraded,
        cached: false,
    })
}

/// Per-phase stopwatch over the evaluation's phase table. Untimed, it
/// reads no clock.
struct PhaseClock<'a> {
    timed: bool,
    recorder: &'a Recorder,
    micros: &'a mut [u64; Phase::COUNT],
}

impl PhaseClock<'_> {
    fn start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// Charges the time since `start` to `phase`. The trace slice is
    /// emitted right as the phase ends so its start timestamp (now -
    /// duration) nests the I/O it contains.
    fn stop(&mut self, phase: Phase, start: Option<Instant>) -> u64 {
        let Some(start) = start else { return 0 };
        let micros = start.elapsed().as_micros() as u64;
        self.micros[phase as usize] += micros;
        let dur = Duration::from_micros(micros);
        self.recorder.trace(TraceOp::QueryPhase, phase as u64, None, 0, dur);
        micros
    }
}

/// `Some((budget, elapsed))` once the request's budget, measured from the
/// driver's origin, has run out.
fn overrun(req: &QueryRequest, d: &Driver<'_>) -> Option<(Duration, Duration)> {
    let (budget, elapsed) = (req.deadline?, d.origin.elapsed());
    (elapsed > budget).then_some((budget, elapsed))
}

fn run(
    shards: &mut [ShardView<'_>],
    req: &QueryRequest,
    d: &Driver<'_>,
    ev: &mut Evaluation,
) -> Result<Vec<ScoredDoc>> {
    ev.mode = resolve_mode(req.mode, d.default_mode, shards.len())?;
    let (mode, k) = (ev.mode, req.k);
    let mut clock =
        PhaseClock { timed: d.timed, recorder: d.recorder, micros: &mut ev.trace.phase_micros };
    let t = clock.start();
    let parsed = poir_inquery::parse_query(&req.text, d.stop)?;
    clock.stop(Phase::Parse, t);
    // The document-at-a-time mode bypasses the Evaluator on flat
    // bag-of-words queries; structured queries fall back to the
    // term-at-a-time walk of the query tree.
    let bag = match mode {
        ExecMode::DaatPruned => daat::flatten_bag(&parsed),
        ExecMode::Serial => None,
    };
    if bag.is_none() && shards.len() > 1 {
        return Err(CoreError::Unsupported("structured queries on a sharded engine"));
    }
    let mut per_shard: Vec<Vec<ScoredDoc>> = Vec::with_capacity(shards.len());
    let mut last_err = None;
    for (i, shard) in shards.iter_mut().enumerate() {
        if i > 0 {
            if let Some((budget, elapsed)) = overrun(req, d) {
                // Every shard holds the collection-wide document table.
                let partial = name_hits(shard.docs, daat::merge_topk(per_shard, k));
                return Err(CoreError::DeadlineExceeded { budget, elapsed, partial });
            }
        }
        let t = clock.start();
        let mut retries = 0u32;
        let ranked = loop {
            let attempt = match &bag {
                Some(bag) => rank_bag(shard, bag, k, d, &mut clock),
                None => rank_tree(shard, &parsed, k, d, &mut clock),
            };
            match attempt {
                Err(e) if retries < d.retry.max_retries && e.is_transient_fault() => {
                    retries += 1;
                    std::thread::sleep(d.retry.backoff * retries);
                }
                done => break done,
            }
        };
        let micros = t.map_or(0, |t| t.elapsed().as_micros() as u64);
        let hits = ranked.as_ref().map_or(0, Vec::len);
        let timing = ShardTiming { shard: i, micros, hits };
        ev.shards.push(ShardOutcome { timing, retries, failed: ranked.is_err() });
        match ranked {
            Ok(scored) => per_shard.push(scored),
            Err(e) => last_err = Some(e),
        }
    }
    if per_shard.is_empty() {
        // Every shard failed: no partial answer to degrade to.
        return Err(last_err.unwrap_or(CoreError::Unsupported("evaluation over zero shards")));
    }
    let t = clock.start();
    let merged = daat::merge_topk(per_shard, k);
    ev.merge_micros = clock.stop(Phase::Rank, t);
    if let Some((budget, elapsed)) = overrun(req, d) {
        let partial = name_hits(shards[0].docs, merged);
        return Err(CoreError::DeadlineExceeded { budget, elapsed, partial });
    }
    Ok(merged)
}

/// One document-at-a-time attempt on one shard (a retryable unit).
fn rank_bag(
    shard: &mut ShardView<'_>,
    bag: &[(f64, String)],
    k: usize,
    d: &Driver<'_>,
    clock: &mut PhaseClock<'_>,
) -> Result<Vec<ScoredDoc>> {
    if d.reserve {
        let t = clock.start();
        let refs: Vec<u64> = bag
            .iter()
            .filter_map(|(_, term)| shard.dict.lookup(term))
            .map(|id| shard.dict.entry(id).store_ref)
            .collect();
        shard.store.reserve(&refs);
        clock.stop(Phase::Reserve, t);
    }
    let t = clock.start();
    let ranked =
        daat::rank_daat_pruned(&mut *shard.store, shard.dict, shard.docs, d.params, bag, k).map(
            |(scored, stats)| {
                record_daat_stats(d.recorder, &stats);
                scored
            },
        );
    if d.reserve {
        shard.store.release_reservations();
    }
    // The cursor merge fetches, decodes, and ranks in one pass, so the
    // whole loop is charged to Evaluate.
    clock.stop(Phase::Evaluate, t);
    let scored = ranked?;
    d.recorder.add(Event::DictLookup, bag.len() as u64);
    Ok(scored)
}

/// One term-at-a-time attempt on the single shard (a retryable unit).
fn rank_tree(
    shard: &mut ShardView<'_>,
    parsed: &QueryNode,
    k: usize,
    d: &Driver<'_>,
    clock: &mut PhaseClock<'_>,
) -> Result<Vec<ScoredDoc>> {
    let mut ev = Evaluator::new(&mut *shard.store, shard.dict, shard.docs, d.stop, d.params);
    if d.reserve {
        let t = clock.start();
        ev.reserve(parsed);
        clock.stop(Phase::Reserve, t);
    }
    let t = clock.start();
    let list = ev.evaluate(parsed);
    clock.stop(Phase::Evaluate, t);
    let dict_lookups = ev.dict_lookups();
    if d.reserve {
        ev.release_reservations();
    }
    let list = list?;
    d.recorder.add(Event::DictLookup, dict_lookups);
    let t = clock.start();
    let scored = rank_score_list(list, k);
    clock.stop(Phase::Rank, t);
    Ok(scored)
}

/// Folds one pruned ranking's work-avoidance counters into the recorder,
/// with one aggregate trace slice per (query, shard) and counter family.
fn record_daat_stats(recorder: &Recorder, stats: &DaatStats) {
    recorder.add(Event::PostingsDecoded, stats.postings_decoded);
    recorder.add(Event::PostingsSkipped, stats.postings_skipped);
    recorder.add(Event::BlocksSkipped, stats.blocks_skipped);
    recorder.add(Event::BytesDecoded, stats.bytes_decoded);
    recorder.add(Event::BlocksBitpacked, stats.blocks_bitpacked);
    let slice = |op, object, bytes| recorder.trace(op, object, None, bytes, Duration::ZERO);
    if stats.bytes_decoded > 0 {
        // object = bit-packed blocks decoded, bytes = payload bytes decoded.
        slice(TraceOp::BlockDecode, stats.blocks_bitpacked, stats.bytes_decoded);
    }
    if stats.block_cache_hits + stats.block_cache_misses > 0 {
        // object = decoded-block cache hits, bytes = misses.
        slice(TraceOp::BlockCache, stats.block_cache_hits, stats.block_cache_misses);
    }
    if stats.cursor_seeks > 0 {
        // object = seeks that jumped blocks, bytes = postings bypassed.
        slice(TraceOp::CursorSeek, stats.cursor_seeks, stats.postings_skipped);
    }
}
