//! The correctness gate. Every response of a measured phase is checked
//! for shape; a fixed sample is compared bit-exactly against
//! `ShardedEngine::execute` on a separately built instance; texts that
//! repeat must always get the same ranking. Failures count against
//! `attempted` and fail the run.

use std::sync::atomic::{AtomicU64, Ordering};

use poir_core::{QueryRequest, QueryResponse, RankedResult, Result, ShardedEngine};

use crate::inputs::Requests;
use crate::stats::Fnv;

/// Attempts, failures, and the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }

    pub fn record(&mut self, outcome: std::result::Result<(), String>) {
        match outcome {
            Ok(()) => self.pass(),
            Err(m) => self.fail(m),
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}

/// Hash of a ranking's `(doc, score.to_bits())` pairs, never 0.
pub fn digest(hits: &[RankedResult]) -> u64 {
    let mut h = Fnv::default();
    for hit in hits {
        h.word(hit.doc.0 as u64);
        h.word(hit.score.to_bits());
    }
    h.word(hits.len() as u64);
    h.finish().max(1)
}

/// Shape check of one response: complete (not degraded), at most `k`
/// hits, finite scores in ranking order (score descending, doc ascending).
pub fn well_formed(resp: &QueryResponse, k: usize) -> std::result::Result<(), String> {
    if let Some(d) = &resp.degraded {
        return Err(format!("degraded response, shards {:?} missing", d.missing_shards));
    }
    if resp.hits.len() > k {
        return Err(format!("{} hits for k = {k}", resp.hits.len()));
    }
    for pair in resp.hits.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let ordered = a.score > b.score || (a.score == b.score && a.doc < b.doc);
        if !ordered || !a.score.is_finite() || !b.score.is_finite() {
            return Err(format!(
                "hits out of order: ({}, {}) before ({}, {})",
                a.doc.0, a.score, b.doc.0, b.score
            ));
        }
    }
    Ok(())
}

/// Checks responses as client threads receive them.
pub struct Checker<'a> {
    requests: &'a Requests,
    k: usize,
    /// First digest seen per distinct text, when texts repeat (0 = none
    /// yet). A later response with another digest is a wrong result: the
    /// collection does not change while a service workload runs.
    first_seen: Vec<AtomicU64>,
}

impl<'a> Checker<'a> {
    pub fn new(requests: &'a Requests, k: usize) -> Self {
        let repeats = requests.distinct() < requests.len();
        let first_seen = if repeats {
            (0..requests.distinct()).map(|_| AtomicU64::new(0)).collect()
        } else {
            Vec::new()
        };
        Checker { requests, k, first_seen }
    }

    pub fn requests(&self) -> &'a Requests {
        self.requests
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Verdict on the response to sequence position `i`.
    pub fn check(
        &self,
        i: usize,
        result: &Result<QueryResponse>,
    ) -> std::result::Result<(), String> {
        let resp = result.as_ref().map_err(|e| format!("request {i}: {e}"))?;
        well_formed(resp, self.k).map_err(|m| format!("request {i}: {m}"))?;
        if let Some(slot) = self.first_seen.get(self.requests.text_id(i)) {
            let d = digest(&resp.hits);
            let first = match slot.compare_exchange(0, d, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => d,
                Err(existing) => existing,
            };
            if first != d {
                return Err(format!("request {i}: ranking differs from this text's first answer"));
            }
        }
        Ok(())
    }
}

/// Runs the first `digests.len()` requests through `reference` and
/// compares each ranking's digest with the one the workload's own target
/// produced. Returns the `rankings_fingerprint` over the reference's
/// rankings.
pub fn compare_with_reference(
    reference: &mut ShardedEngine,
    requests: &Requests,
    k: usize,
    digests: &[u64],
    tally: &mut Tally,
) -> u64 {
    let mut fingerprint = Fnv::default();
    for (i, &got) in digests.iter().enumerate() {
        match reference.execute(&QueryRequest::new(requests.text(i), k)) {
            Ok(resp) => {
                let want = digest(&resp.hits);
                fingerprint.word(want);
                if want == got {
                    tally.pass();
                } else {
                    tally.fail(format!("request {i}: ranking differs from ShardedEngine::execute"));
                }
            }
            Err(e) => tally.fail(format!("reference request {i}: {e}")),
        }
    }
    fingerprint.finish()
}
