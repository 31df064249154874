//! Crash-consistency harness for the recoverable Mneme store.
//!
//! Enumerates crash points across a deterministic build/checkpoint/update
//! script over a [`RecoverableFile`], simulates a crash at each point in
//! several ways (plain drop, drop after an un-acknowledged data flush, a
//! torn log tail, and a device-level power cut), recovers, and asserts
//! that the recovered store (a) passes [`MnemeFile::validate`] clean and
//! (b) ranks a fixed query workload **bit-identically** to the no-crash
//! reference run at the matching operation prefix.
//!
//! Everything is derived from one seed: the op script, the payloads
//! (encoded [`InvertedRecord`]s), the torn-tail cuts, and the power-cut
//! placements. A failing `(seed, ops)` pair replays exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use poir_inquery::postings::{InvertedRecord, Posting};
use poir_inquery::DocId;
use poir_mneme::recovery::RecoverableFile;
use poir_mneme::{MnemeError, MnemeFile, ObjectId, PoolConfig, PoolId, PoolKindConfig};
use poir_storage::{Device, FaultKind, FaultOp, FaultPlan, FaultRule, FaultSchedule, FileHandle};

/// Harness configuration; every field feeds the deterministic generator.
#[derive(Debug, Clone, Copy)]
pub struct CrashOptions {
    /// Seed for the script, payloads, torn-tail cuts, and power cuts.
    pub seed: u64,
    /// Distinct logical terms (object slots) the script mutates.
    pub terms: usize,
    /// Mutating operations in the script (checkpoints included).
    pub ops: usize,
    /// A checkpoint lands every this-many ops.
    pub checkpoint_every: usize,
    /// Check every `stride`-th crash point (1 = every op boundary).
    pub stride: usize,
    /// Ranking depth compared bit-for-bit.
    pub k: usize,
    /// Device-level power-cut runs on top of the crash-point grid.
    pub power_cuts: usize,
}

impl Default for CrashOptions {
    fn default() -> Self {
        CrashOptions {
            seed: 0xC0FFEE,
            terms: 16,
            ops: 72,
            checkpoint_every: 12,
            stride: 1,
            k: 10,
            power_cuts: 4,
        }
    }
}

/// Outcome of one harness run.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Crash points exercised (each with every crash kind).
    pub crash_points: usize,
    /// Successful recoveries asserted (all kinds, power cuts included).
    pub recoveries: usize,
    /// Torn-tail runs where the crash struck mid-append of the crash
    /// point's own record, so recovery landed one op short.
    pub torn_tails_shortened: usize,
    /// Power-cut runs where the fault actually fired.
    pub power_cuts_fired: usize,
    /// Human-readable descriptions of every failed assertion.
    pub failures: Vec<String>,
}

impl CrashReport {
    /// True when every assertion held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-object JSON summary.
    pub fn to_json(&self) -> String {
        let fails: Vec<String> = self.failures.iter().map(|f| format!("{f:?}")).collect();
        format!(
            "{{\"crash_points\": {}, \"recoveries\": {}, \"torn_tails_shortened\": {}, \
             \"power_cuts_fired\": {}, \"failures\": [{}]}}",
            self.crash_points,
            self.recoveries,
            self.torn_tails_shortened,
            self.power_cuts_fired,
            fails.join(", ")
        )
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn seed_state(seed: u64) -> u64 {
    let s = seed ^ 0x9E37_79B9_7F4A_7C15;
    if s == 0 {
        0x2545_F491_4F6C_DD1D
    } else {
        s
    }
}

/// One script step, resolved to a creation-order object index.
#[derive(Debug, Clone)]
enum ScriptOp {
    Create { obj: usize, pool: PoolId, data: Vec<u8> },
    Update { obj: usize, data: Vec<u8> },
    Delete { obj: usize },
    Checkpoint,
}

/// What the reference run says an object holds after some prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ObjState {
    Live(Vec<u8>),
    Deleted,
}

/// Object states by creation order — the model the recovered store is
/// compared against.
type Snapshot = Vec<ObjState>;

/// A deterministic posting-list payload for `(term, version)`.
fn payload(rng: &mut u64, term: usize) -> Vec<u8> {
    let num_docs = 1 + (xorshift(rng) % 24) as usize;
    let mut docs: Vec<u32> = (0..num_docs).map(|_| (xorshift(rng) % 500) as u32).collect();
    docs.sort_unstable();
    docs.dedup();
    let postings: Vec<Posting> = docs
        .into_iter()
        .map(|d| {
            let tf = 1 + (xorshift(rng) % 4) as u32;
            let positions: Vec<u32> = (0..tf).map(|p| p * 7 + (term as u32 % 5)).collect();
            Posting { doc: DocId(d), tf, positions }
        })
        .collect();
    InvertedRecord::from_postings(postings).encode()
}

/// Postings of the growing term's record when created; each update of it
/// appends [`GROW_STEP`] more. The record starts in the large-object pool
/// under 4 KB and crosses it within a few updates: each update that
/// outgrows its segment relocates it with headroom, and the next ones
/// write their tails in place — the writes a crash can tear in an
/// incrementally updated index.
const GROW_BASE: u32 = 1400;
/// Postings each update appends to the growing term's record.
const GROW_STEP: u32 = 64;

/// The growing term's record after `updates` updates: one posting per doc
/// `0..GROW_BASE + updates·GROW_STEP`, so each version extends the last.
fn growing_payload(updates: usize) -> Vec<u8> {
    let docs = GROW_BASE + updates as u32 * GROW_STEP;
    let postings = (0..docs)
        .map(|d| {
            let tf = 1 + d % 3;
            Posting { doc: DocId(d), tf, positions: (0..tf).map(|p| p * 5 + d % 7).collect() }
        })
        .collect();
    InvertedRecord::from_postings(postings).encode()
}

/// Generates the op script and the per-prefix shadow snapshots:
/// `snapshots[i]` is the model state after `i` ops. Term 0 is the growing
/// term: it is never deleted, and every update appends a tail to its
/// record ([`growing_payload`]).
fn generate(opts: &CrashOptions) -> (Vec<ScriptOp>, Vec<Snapshot>) {
    let mut rng = seed_state(opts.seed);
    let mut script = Vec::with_capacity(opts.ops);
    let mut snapshots = Vec::with_capacity(opts.ops + 1);
    // term -> current creation-order index (None = absent or deleted).
    let mut term_obj: Vec<Option<usize>> = vec![None; opts.terms.max(1)];
    let mut grown = 0usize;
    let mut objects: Snapshot = Vec::new();
    snapshots.push(objects.clone());
    for i in 0..opts.ops {
        let op = if opts.checkpoint_every > 0 && (i + 1) % opts.checkpoint_every == 0 {
            ScriptOp::Checkpoint
        } else {
            let term = (xorshift(&mut rng) % opts.terms.max(1) as u64) as usize;
            match term_obj[term] {
                None => {
                    let mut data = payload(&mut rng, term);
                    if term == 0 {
                        data = growing_payload(0);
                    }
                    let pool = if data.len() > 300 { PoolId(2) } else { PoolId(1) };
                    let obj = objects.len();
                    term_obj[term] = Some(obj);
                    objects.push(ObjState::Live(data.clone()));
                    ScriptOp::Create { obj, pool, data }
                }
                Some(obj) => {
                    if xorshift(&mut rng) % 10 < 7 || term == 0 {
                        let mut data = payload(&mut rng, term);
                        if term == 0 {
                            grown += 1;
                            data = growing_payload(grown);
                        }
                        objects[obj] = ObjState::Live(data.clone());
                        ScriptOp::Update { obj, data }
                    } else {
                        term_obj[term] = None;
                        objects[obj] = ObjState::Deleted;
                        ScriptOp::Delete { obj }
                    }
                }
            }
        };
        script.push(op);
        snapshots.push(objects.clone());
    }
    (script, snapshots)
}

fn pool_configs() -> Vec<PoolConfig> {
    vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 512 } },
        PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
    ]
}

/// A fresh recoverable store on `device`, returning crash-surviving
/// clones of the data and log handles.
fn fresh_store(device: &Arc<Device>) -> (RecoverableFile, FileHandle, FileHandle) {
    let data = device.create_file();
    let log = device.create_file();
    let (dc, lc) = (data.clone(), log.clone());
    let inner = MnemeFile::create(data, &pool_configs(), 8).expect("mneme create");
    let rf = RecoverableFile::new(inner, log).expect("recoverable new");
    (rf, dc, lc)
}

/// Applies `script[..upto]`, pushing each created id onto `ids`.
/// Returns the index of the op that failed, if any.
fn apply_prefix(
    rf: &mut RecoverableFile,
    script: &[ScriptOp],
    upto: usize,
    ids: &mut Vec<ObjectId>,
) -> Result<(), (usize, MnemeError)> {
    for (i, op) in script[..upto].iter().enumerate() {
        let r = match op {
            ScriptOp::Create { obj, pool, data } => match rf.create_object(*pool, data) {
                Ok(id) => {
                    debug_assert_eq!(*obj, ids.len(), "creation order must be stable");
                    ids.push(id);
                    Ok(())
                }
                Err(e) => Err(e),
            },
            ScriptOp::Update { obj, data } => rf.update(ids[*obj], data),
            ScriptOp::Delete { obj } => rf.delete(ids[*obj]),
            ScriptOp::Checkpoint => rf.checkpoint(),
        };
        if let Err(e) = r {
            return Err((i, e));
        }
    }
    Ok(())
}

/// True when the recovered file holds exactly the model state `snap`
/// (live payloads byte-equal, deletions tombstoned, later objects never
/// seen). `ids` is the full creation-order id list from the reference
/// run; objects beyond `snap.len()` must be absent.
fn matches_snapshot(file: &mut MnemeFile, snap: &Snapshot, ids: &[ObjectId]) -> bool {
    for (n, id) in ids.iter().enumerate() {
        let got = file.get(*id);
        let ok = match snap.get(n) {
            Some(ObjState::Live(data)) => {
                matches!(&got, Ok(bytes) if bytes.as_slice() == data.as_slice())
            }
            Some(ObjState::Deleted) => matches!(got, Err(MnemeError::ObjectDeleted(_))),
            None => {
                matches!(got, Err(MnemeError::NoSuchObject(_)) | Err(MnemeError::ObjectDeleted(_)))
            }
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Top-`k` ranking over a model state with a fixed scoring formula:
/// every live record is a query term, belief `0.4 + 0.6·tf/(tf+1)`
/// weighted by `1/(1+df)`. Ties break on ascending doc id. Returns
/// `(doc, score bits)` pairs — bit-exact comparison material.
fn rank_snapshot(snap: &Snapshot, k: usize) -> Vec<(u32, u64)> {
    let mut scores: BTreeMap<u32, f64> = BTreeMap::new();
    for st in snap {
        let ObjState::Live(data) = st else { continue };
        let rec = InvertedRecord::decode(data).expect("harness payloads decode");
        let df = rec.df() as f64;
        for p in &rec.postings {
            let tf = p.tf as f64;
            let belief = (0.4 + 0.6 * tf / (tf + 1.0)) / (1.0 + df);
            *scores.entry(p.doc.0).or_insert(0.0) += belief;
        }
    }
    let mut ranked: Vec<(u32, f64)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked.into_iter().map(|(d, s)| (d, s.to_bits())).collect()
}

/// Ranking computed through the recovered store itself (decode via
/// `get`), proving the serving read path sees the recovered bytes.
fn rank_recovered(
    file: &mut MnemeFile,
    count: usize,
    ids: &[ObjectId],
    k: usize,
) -> Vec<(u32, u64)> {
    let mut snap: Snapshot = Vec::with_capacity(count);
    for id in &ids[..count] {
        match file.get(*id) {
            Ok(bytes) => snap.push(ObjState::Live(bytes.into_vec())),
            Err(_) => snap.push(ObjState::Deleted),
        }
    }
    rank_snapshot(&snap, k)
}

/// After recovery, checks validation cleanliness, state equality against
/// one of the candidate prefixes, and ranking bit-identity at the
/// matched prefix. Returns the matched prefix or an error description.
fn check_recovery(
    rf: &mut RecoverableFile,
    snapshots: &[Snapshot],
    ids: &[ObjectId],
    candidates: std::ops::RangeInclusive<usize>,
    k: usize,
    what: &str,
) -> Result<usize, String> {
    let report = rf.file().validate().map_err(|e| format!("{what}: validate errored: {e}"))?;
    if !report.is_clean() {
        return Err(format!("{what}: validation problems: {:?}", report.problems));
    }
    // Scan from the latest candidate down — the common case is the full
    // prefix surviving.
    for p in candidates.clone().rev() {
        if matches_snapshot(rf.file(), &snapshots[p], ids) {
            let want = rank_snapshot(&snapshots[p], k);
            let got = rank_recovered(rf.file(), snapshots[p].len(), ids, k);
            if want != got {
                return Err(format!(
                    "{what}: prefix {p} state matches but ranking diverges: {want:?} vs {got:?}"
                ));
            }
            return Ok(p);
        }
    }
    Err(format!("{what}: recovered state matches no prefix in {candidates:?}"))
}

/// Runs the full harness: the crash-point grid (drop, flush-then-drop,
/// torn tail at every `stride`-th op boundary) plus `power_cuts`
/// device-level power-cut runs.
pub fn run_crash_harness(opts: &CrashOptions) -> CrashReport {
    let mut report = CrashReport::default();
    let (script, snapshots) = generate(opts);

    // Reference run: no crash; learns the deterministic id assignment.
    let mut ids: Vec<ObjectId> = Vec::new();
    {
        let device = Device::with_defaults();
        let (mut rf, _, _) = fresh_store(&device);
        if let Err((i, e)) = apply_prefix(&mut rf, &script, script.len(), &mut ids) {
            report.failures.push(format!("reference run failed at op {i}: {e}"));
            return report;
        }
    }

    let mut cut_rng = seed_state(opts.seed ^ 0xDEAD_BEEF);
    let stride = opts.stride.max(1);
    for i in (1..=script.len()).step_by(stride) {
        report.crash_points += 1;
        // Crash kind 1: plain drop — unflushed data-file state is lost,
        // the log has everything since the last checkpoint.
        {
            let device = Device::with_defaults();
            let (mut rf, data, log) = fresh_store(&device);
            let mut run_ids = Vec::new();
            if let Err((j, e)) = apply_prefix(&mut rf, &script, i, &mut run_ids) {
                report.failures.push(format!("drop@{i}: op {j} failed: {e}"));
                continue;
            }
            drop(rf);
            match RecoverableFile::recover(data, log) {
                Ok(mut rec) => {
                    match check_recovery(
                        &mut rec,
                        &snapshots,
                        &ids,
                        i..=i,
                        opts.k,
                        &format!("drop@{i}"),
                    ) {
                        Ok(_) => report.recoveries += 1,
                        Err(e) => report.failures.push(e),
                    }
                }
                Err(e) => report.failures.push(format!("drop@{i}: recover failed: {e}")),
            }
        }
        // Crash kind 2: data flushed (as checkpoint's first half would)
        // but the log never truncated — the idempotent-replay path.
        {
            let device = Device::with_defaults();
            let (mut rf, data, log) = fresh_store(&device);
            let mut run_ids = Vec::new();
            if apply_prefix(&mut rf, &script, i, &mut run_ids).is_err() {
                report.failures.push(format!("flush-drop@{i}: prefix apply failed"));
                continue;
            }
            if let Err(e) = rf.file().flush() {
                report.failures.push(format!("flush-drop@{i}: flush failed: {e}"));
                continue;
            }
            drop(rf);
            match RecoverableFile::recover(data, log) {
                Ok(mut rec) => {
                    match check_recovery(
                        &mut rec,
                        &snapshots,
                        &ids,
                        i..=i,
                        opts.k,
                        &format!("flush-drop@{i}"),
                    ) {
                        Ok(_) => report.recoveries += 1,
                        Err(e) => report.failures.push(e),
                    }
                }
                Err(e) => report.failures.push(format!("flush-drop@{i}: recover failed: {e}")),
            }
        }
        // Crash kind 3: torn log tail. The log is synced before every
        // mutation touches the data file (the write-ahead rule), so the
        // only record a real crash can tear is the one being appended when
        // the machine died — an op that never reached the data file.
        // Seeded sub-variants: the crash strikes either while appending
        // the *next* op's record (full prefix survives, garbage tail) or
        // mid-append of op `i` itself (ops `1..i` applied, op `i`'s
        // record torn — recovery lands one op short). Garbage stays under
        // the 14-byte minimum record length so it can never parse as a
        // complete record.
        {
            let device = Device::with_defaults();
            let (mut rf, data, log) = fresh_store(&device);
            let mut run_ids = Vec::new();
            let mid_append = xorshift(&mut cut_rng) & 1 == 1 && i > 0;
            let applied = if mid_append { i - 1 } else { i };
            if apply_prefix(&mut rf, &script, applied, &mut run_ids).is_err() {
                report.failures.push(format!("torn@{i}: prefix apply failed"));
                continue;
            }
            drop(rf);
            let len = log.len().unwrap_or(0);
            let garbage_len = 1 + (xorshift(&mut cut_rng) % 13) as usize;
            let garbage: Vec<u8> = (0..garbage_len).map(|_| xorshift(&mut cut_rng) as u8).collect();
            if let Err(e) = log.write(len, &garbage) {
                report.failures.push(format!("torn@{i}: tail write failed: {e}"));
                continue;
            }
            match RecoverableFile::recover(data, log) {
                Ok(mut rec) => match check_recovery(
                    &mut rec,
                    &snapshots,
                    &ids,
                    applied..=applied,
                    opts.k,
                    &format!("torn@{i} applied {applied} tail {garbage_len}B"),
                ) {
                    Ok(_) => {
                        report.recoveries += 1;
                        if mid_append {
                            report.torn_tails_shortened += 1;
                        }
                    }
                    Err(e) => report.failures.push(e),
                },
                Err(e) => report.failures.push(format!("torn@{i}: recover failed: {e}")),
            }
        }
    }

    // Power-cut runs: a device-level fault drops every write since the
    // last durability barrier and poisons the device; after clearing the
    // plan (the "reboot"), recovery must land on a legal earlier prefix.
    let mut pc_rng = seed_state(opts.seed ^ 0x5EED_CAFE);
    for w in 0..opts.power_cuts {
        let device = Device::with_defaults();
        let (mut rf, data, log) = fresh_store(&device);
        // The plan arms only after setup, so file creation runs clean.
        let nth = xorshift(&mut pc_rng) % (script.len() as u64 * 2);
        device.install_fault_plan(FaultPlan::new().rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::PowerCut,
            FaultSchedule::Nth { n: nth },
        )));
        let mut run_ids = Vec::new();
        let fired = match apply_prefix(&mut rf, &script, script.len(), &mut run_ids) {
            Ok(()) => None,
            Err((j, _)) => Some(j),
        };
        drop(rf);
        device.clear_fault_plan();
        // The op that observed the cut may still replay to completion:
        // its log record syncs *before* the mutation touches the data
        // file, so a cut during the data write leaves a durable record
        // behind — recovery can legally land one op past the failure.
        let upper = fired.map(|j| (j + 1).min(script.len())).unwrap_or(script.len());
        if fired.is_some() {
            report.power_cuts_fired += 1;
        }
        match RecoverableFile::recover(data, log) {
            Ok(mut rec) => match check_recovery(
                &mut rec,
                &snapshots,
                &ids,
                0..=upper,
                opts.k,
                &format!("powercut#{w} nth {nth}"),
            ) {
                Ok(_) => report.recoveries += 1,
                Err(e) => report.failures.push(e),
            },
            Err(e) => report.failures.push(format!("powercut#{w}: recover failed: {e}")),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_is_bit_identical_at_every_crash_point() {
        let opts = CrashOptions {
            ops: 24,
            terms: 6,
            checkpoint_every: 8,
            stride: 2,
            power_cuts: 2,
            ..CrashOptions::default()
        };
        let report = run_crash_harness(&opts);
        assert!(report.passed(), "failures: {:#?}", report.failures);
        assert_eq!(report.crash_points, 12);
        // Every crash point recovered three ways, plus the power cuts.
        assert_eq!(report.recoveries, 12 * 3 + 2);
    }

    #[test]
    fn growing_term_crosses_4k_by_appending_tails() {
        let first = growing_payload(0);
        assert!(first.len() > 300 && first.len() < 4096, "{} bytes", first.len());
        let mut prev = first;
        let mut crossed = false;
        for updates in 1..=8 {
            let next = growing_payload(updates);
            assert!(next.len() > prev.len());
            crossed |= next.len() > 4096;
            prev = next;
        }
        assert!(crossed, "8 updates reach only {} bytes", prev.len());
        // The script updates it more than once at the CI grid's settings.
        let opts = CrashOptions {
            seed: 3735928559,
            ops: 32,
            terms: 8,
            checkpoint_every: 8,
            ..CrashOptions::default()
        };
        let (script, _) = generate(&opts);
        let grower = script.iter().find_map(|op| match op {
            ScriptOp::Create { obj, data, .. } if *data == growing_payload(0) => Some(*obj),
            _ => None,
        });
        let grower = grower.expect("the script creates the growing term");
        let updates = script
            .iter()
            .filter(|op| matches!(op, ScriptOp::Update { obj, .. } if *obj == grower))
            .count();
        assert!(updates >= 2, "growing term updated {updates} times");
        assert!(!script.iter().any(|op| matches!(op, ScriptOp::Delete { obj } if *obj == grower)));
    }

    #[test]
    fn generator_is_deterministic() {
        let opts = CrashOptions::default();
        let (s1, snap1) = generate(&opts);
        let (s2, snap2) = generate(&opts);
        assert_eq!(snap1, snap2);
        assert_eq!(s1.len(), s2.len());
        assert_eq!(snap1.len(), opts.ops + 1);
        // Checkpoints land where configured.
        assert!(matches!(s1[opts.checkpoint_every - 1], ScriptOp::Checkpoint));
    }
}
