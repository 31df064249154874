//! Everything the benchmark feeds the product, derived from `--seed`: the
//! collection, the request sequences, the documents `update_mix` adds.
//! The same seed gives the same inputs; the product only ever sees the
//! generated documents and query texts.

use std::collections::HashSet;

use poir_collections::{
    generate_queries, tipster, CollectionSpec, Document, QuerySetSpec, QueryStyle,
    SyntheticCollection, Zipf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mix, Fnv};

/// Collection scale of a full run: `tipster().scale(0.2)` = 12,000
/// documents. The issue asked for 0.5 (30,000 documents); three set-ups
/// of that size plus the measured phases do not fit the driver's cap of
/// ~36 s per run (see README, "Sizes").
pub const FULL_SCALE: f64 = 0.2;
/// Collection scale of `--smoke`.
pub const SMOKE_SCALE: f64 = 0.02;
/// Requests of the end-to-end run's count pass.
pub const COUNT_REQUESTS: usize = 1000;
/// Requests of the per-layer run's replays and count passes: it runs six
/// of them, so each is half as long.
pub const REPLAY_REQUESTS: usize = 500;
/// Requests compared bit-exactly against `ShardedEngine::execute`.
pub const SAMPLE_REQUESTS: usize = 200;
/// Distinct query texts `serve_zipf` draws from.
pub const ZIPF_DISTINCT: usize = 4000;
/// Requests after which `serve_zipf` re-deals the popularity ranks over
/// the texts. Within an epoch the draw is Zipf(1.0): the top text gets one
/// request in nine. Across epochs every text takes its turn in the hot
/// set, so a run's cost does not hang on which handful of queries one
/// seed happened to make popular.
pub const ZIPF_EPOCH: usize = 100;
/// `update_mix` add/query cycles per second of `--seconds`: 168 cycles at
/// 12 s, about 12 s of work at the commit that added the benchmark. (The
/// issue's 100 cycles give 600 queries per phase; a p99 needs 1,000 to
/// have ten samples beyond it.)
pub const UPDATE_CYCLES_PER_SECOND: f64 = 14.0;
/// Cycles per throughput window of `update_mix`'s `mixed` phase; a
/// multiple of four, so every window holds the same number of removes.
pub const UPDATE_CYCLES_PER_WINDOW: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeLong,
    ServeShort,
    ServeZipf,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeLong, Workload::ServeShort, Workload::ServeZipf, Workload::UpdateMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLong => "serve_long",
            Workload::ServeShort => "serve_short",
            Workload::ServeZipf => "serve_zipf",
            Workload::UpdateMix => "update_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_service(self) -> bool {
        self != Workload::UpdateMix
    }

    /// Results asked for per request.
    pub fn k(self) -> usize {
        match self {
            Workload::ServeShort => 10,
            _ => 100,
        }
    }

    /// Stream id for sub-seed derivation; never reuse a number.
    fn stream(self) -> u64 {
        match self {
            Workload::ServeLong => 1,
            Workload::ServeShort => 2,
            Workload::ServeZipf => 3,
            Workload::UpdateMix => 4,
        }
    }
}

/// The run's shape: what `--seed`, `--seconds`, and `--smoke` fix.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    /// Equal measurement windows per service phase.
    pub windows: usize,
    /// Requests in a count pass ([`COUNT_REQUESTS`] or [`REPLAY_REQUESTS`]).
    pub count: usize,
}

impl Plan {
    /// Length of one measurement window: each of the two phases gets half
    /// of `--seconds`.
    pub fn window_secs(&self) -> f64 {
        self.seconds / 2.0 / self.windows as f64
    }

    /// `update_mix`: add/query cycles of the `mixed` phase, a whole number
    /// of throughput windows.
    pub fn cycles(&self) -> usize {
        let windows = (UPDATE_CYCLES_PER_SECOND * self.seconds / UPDATE_CYCLES_PER_WINDOW as f64)
            .round() as usize;
        windows.max(1) * UPDATE_CYCLES_PER_WINDOW
    }

    /// `update_mix`: `Engine::execute` calls of the `read` phase.
    pub fn reads(&self) -> usize {
        6 * self.cycles()
    }

    /// Requests in the count pass.
    pub fn count_requests(&self) -> usize {
        match self.workload {
            Workload::UpdateMix => self.reads().min(self.count),
            _ => self.count,
        }
    }
}

/// The collection of a run: TIPSTER's shape at `scale`, reseeded.
pub fn collection_spec(seed: u64, scale: f64) -> CollectionSpec {
    let mut spec = tipster().scale(scale).spec;
    spec.seed = mix(seed, 0);
    spec
}

/// A deterministic request sequence: `texts` visited in `order` (identity
/// when `order` is empty). Indexing wraps; callers count wraps.
#[derive(Debug)]
pub struct Requests {
    texts: Vec<String>,
    order: Vec<u32>,
}

impl Requests {
    pub fn len(&self) -> usize {
        if self.order.is_empty() {
            self.texts.len()
        } else {
            self.order.len()
        }
    }

    /// Which distinct text position `i` of the sequence sends.
    pub fn text_id(&self, i: usize) -> usize {
        let j = i % self.len();
        if self.order.is_empty() {
            j
        } else {
            self.order[j] as usize
        }
    }

    pub fn text(&self, i: usize) -> &str {
        &self.texts[self.text_id(i)]
    }

    pub fn distinct(&self) -> usize {
        self.texts.len()
    }

    fn hash_into(&self, h: &mut Fnv) {
        for t in &self.texts {
            h.bytes(t.as_bytes());
        }
        for &o in &self.order {
            h.word(o as u64);
        }
    }
}

fn query_texts(
    collection: &SyntheticCollection,
    style: QueryStyle,
    mean_terms: usize,
    count: usize,
    seed: u64,
) -> Vec<String> {
    let spec = QuerySetSpec {
        name: "benchmark".into(),
        style,
        num_queries: count,
        mean_terms,
        reuse_rate: 0.35,
        seed,
    };
    generate_queries(collection, &spec).into_iter().map(|q| q.text).collect()
}

/// Keeps the first occurrence of every text, in order.
fn distinct(texts: Vec<String>) -> Vec<String> {
    let mut seen: HashSet<String> = HashSet::with_capacity(texts.len());
    texts.into_iter().filter(|t| seen.insert(t.clone())).collect()
}

/// The request sequence of `plan.workload`.
///
/// Time-bounded phases consume a prefix whose length depends on how fast
/// the product is, so the pools are sized generously (per second of
/// `--seconds`): a run that exhausts one wraps and reports it.
pub fn requests(plan: &Plan, collection: &SyntheticCollection) -> Requests {
    let seed = mix(plan.seed, plan.workload.stream());
    let nl = QueryStyle::NaturalLanguage;
    let per_second = |n: f64| (n * plan.seconds).ceil() as usize;
    match plan.workload {
        // 12-37 terms (mean 25): the TIPSTER query-set shape.
        Workload::ServeLong => Requests {
            texts: distinct(query_texts(collection, nl, 25, per_second(3_000.0), seed)),
            order: Vec::new(),
        },
        // 2-4 terms.
        Workload::ServeShort => Requests {
            texts: distinct(query_texts(collection, nl, 3, per_second(30_000.0), seed)),
            order: Vec::new(),
        },
        Workload::ServeZipf => {
            let mut texts = distinct(query_texts(collection, nl, 25, ZIPF_DISTINCT + 64, seed));
            texts.truncate(ZIPF_DISTINCT);
            let zipf = Zipf::new(texts.len(), 1.0);
            let mut rng = StdRng::seed_from_u64(mix(seed, 1));
            let mut offset = 0;
            let order = (0..per_second(6_000.0))
                .map(|i| {
                    if i % ZIPF_EPOCH == 0 {
                        offset = rng.gen_range(0..texts.len());
                    }
                    ((zipf.sample(&mut rng) + offset) % texts.len()) as u32
                })
                .collect();
            Requests { texts, order }
        }
        // Alternating bag-of-words and `#sum(... #phrase(a b))`.
        Workload::UpdateMix => {
            let n = plan.reads() + 6 * plan.cycles();
            let bags = query_texts(collection, nl, 8, n.div_ceil(2), seed);
            let phrases =
                query_texts(collection, QueryStyle::PhraseEnriched, 8, n / 2, mix(seed, 1));
            let mut texts = Vec::with_capacity(n);
            let (mut b, mut p) = (bags.into_iter(), phrases.into_iter());
            for i in 0..n {
                texts.push(if i % 2 == 0 { b.next() } else { p.next() }.expect("sized above"));
            }
            Requests { texts, order: Vec::new() }
        }
    }
}

/// The documents `update_mix` adds: drawn from a second collection of the
/// same shape, so their terms mostly exist in the index already and a few
/// (the hapax tail) are new.
pub fn documents_to_add(plan: &Plan) -> Vec<Document> {
    let mut spec = collection_spec(plan.seed, plan.scale);
    spec.name = "ADD".into();
    spec.seed = mix(plan.seed, 100);
    let source = SyntheticCollection::new(spec);
    (0..plan.cycles()).map(|i| source.document(i)).collect()
}

fn hash_documents(docs: &[Document], h: &mut Fnv) {
    for d in docs {
        h.bytes(d.name.as_bytes());
        h.bytes(d.text.as_bytes());
    }
}

/// One number covering everything the product will be fed in this run.
pub fn fingerprint(docs: &[Document], requests: &Requests, adds: &[Document]) -> u64 {
    let mut h = Fnv::default();
    hash_documents(docs, &mut h);
    requests.hash_into(&mut h);
    hash_documents(adds, &mut h);
    h.finish()
}

/// The committed fingerprints (`benchmark/inputs.fingerprint`): lines of
/// `<seed> <seconds> <workload> <hex>`. Returns the expected value for this
/// plan, if one is recorded.
pub fn expected_fingerprint(file: &str, plan: &Plan) -> Option<u64> {
    file.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut f = line.split_whitespace();
        let seed: u64 = f.next()?.parse().ok()?;
        let seconds: f64 = f.next()?.parse().ok()?;
        let workload = f.next()?;
        let hash = u64::from_str_radix(f.next()?, 16).ok()?;
        (seed == plan.seed && seconds == plan.seconds && workload == plan.workload.name())
            .then_some(hash)
    })
}
