//! Deterministic fault injection: seeded failpoints for the simulated device.
//!
//! A [`FaultPlan`] is a list of [`FaultRule`]s installed on a
//! [`crate::Device`]. Each rule matches a subset of device operations
//! (optionally one file, one operation kind) and decides — from a purely
//! deterministic schedule — whether the matched operation fails and how.
//! Because every schedule is either a counter or a seeded xorshift stream,
//! any failure run is replayable from `(seed, plan)` alone: the same plan on
//! the same workload fires the same faults in the same order.
//!
//! Fault kinds model the classic storage failure taxonomy:
//!
//! * [`FaultKind::Eio`] — the operation fails outright (an `EIO` analogue).
//! * [`FaultKind::ShortRead`] — a read delivers only a block-aligned prefix.
//! * [`FaultKind::TornWrite`] — a write applies only a block-aligned prefix.
//! * [`FaultKind::PowerCut`] — every write since the last `sync` is dropped
//!   (on **all** files of the device) and the device is poisoned: further
//!   operations fail with [`crate::StorageError::Poisoned`] until the plan
//!   is cleared, mimicking a machine that stays down until it is rebooted.
//! * [`FaultKind::Panic`] — the operation panics after releasing the device
//!   lock, for exercising `catch_unwind` worker isolation above.

use crate::device::FileId;

/// Which device operation a [`FaultRule`] matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Reads.
    Read,
    /// Writes (appends included).
    Write,
    /// Durability barriers ([`crate::FileHandle::sync`]).
    Sync,
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation fails with [`crate::StorageError::InjectedFault`].
    Eio,
    /// A read delivers only the prefix up to the first block boundary and
    /// fails with [`crate::StorageError::ShortRead`]. On non-read
    /// operations this degrades to [`FaultKind::Eio`].
    ShortRead,
    /// A write applies only its largest block-aligned proper prefix and
    /// fails with [`crate::StorageError::TornWrite`]. On non-write
    /// operations this degrades to [`FaultKind::Eio`].
    TornWrite,
    /// All writes not yet covered by a `sync` are dropped on every file of
    /// the device, and the device is poisoned until the plan is cleared.
    PowerCut,
    /// The operation panics (after the device lock is released and the
    /// file table is restored, so the device itself stays usable).
    Panic,
}

/// When a matching rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// The first `skip` matching operations succeed; every matching
    /// operation after that fires.
    AfterOps {
        /// Number of matching operations to let through first.
        skip: u64,
    },
    /// Exactly the `n`-th matching operation fires (0-based), once.
    Nth {
        /// 0-based index of the matching operation that fires.
        n: u64,
    },
    /// Seeded Bernoulli trial: each matching operation fires with
    /// probability `per_mille / 1000`, drawn from a per-rule xorshift64
    /// stream. Deterministic given the seed and the match sequence.
    Seeded {
        /// Seed of this rule's private xorshift64 stream.
        seed: u64,
        /// Firing probability in thousandths (0 = never, 1000 = always).
        per_mille: u32,
    },
}

/// One failpoint: a matcher, a fault kind, and a deterministic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Only operations on this file match (`None` = any file).
    pub file: Option<FileId>,
    /// Only this operation kind matches.
    pub op: FaultOp,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// When the rule fires, over the sequence of matching operations.
    pub schedule: FaultSchedule,
    /// Maximum number of times this rule may fire (`None` = unlimited).
    pub max_fires: Option<u64>,
}

impl FaultRule {
    /// A rule matching `op` on any file, firing `kind` per `schedule`.
    pub fn new(op: FaultOp, kind: FaultKind, schedule: FaultSchedule) -> Self {
        FaultRule { file: None, op, kind, schedule, max_fires: None }
    }

    /// Restricts the rule to one file.
    pub fn on_file(mut self, file: FileId) -> Self {
        self.file = Some(file);
        self
    }

    /// Caps how many times the rule may fire.
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }
}

/// A deterministic fault-injection plan: rules consulted in declaration
/// order on every matching operation; the first rule that fires wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The failpoints, in priority order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Whether any rule can fire a [`FaultKind::PowerCut`] (the device
    /// must then track durable images of every file).
    pub fn has_power_cut(&self) -> bool {
        self.rules.iter().any(|r| r.kind == FaultKind::PowerCut)
    }
}

/// Lifetime fault-injection counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations failed with [`crate::StorageError::InjectedFault`].
    pub eio: u64,
    /// Reads cut short at a block boundary.
    pub short_reads: u64,
    /// Writes torn at a block boundary.
    pub torn_writes: u64,
    /// Power cuts fired (each poisons the device until cleared).
    pub power_cuts: u64,
    /// Injected panics.
    pub panics: u64,
    /// Operations that matched at least one rule, fired or not.
    pub ops_matched: u64,
}

impl FaultStats {
    /// Total faults fired, over all kinds.
    pub fn total_fired(&self) -> u64 {
        self.eio + self.short_reads + self.torn_writes + self.power_cuts + self.panics
    }
}

/// One xorshift64 step (Marsaglia); the state must be nonzero.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Maps an arbitrary user seed onto a valid (nonzero) xorshift state.
fn seed_to_state(seed: u64) -> u64 {
    let mixed = seed ^ 0x9E37_79B9_7F4A_7C15;
    if mixed == 0 {
        0x2545_F491_4F6C_DD1D
    } else {
        mixed
    }
}

/// Runtime state of one installed rule.
#[derive(Debug, Clone)]
pub(crate) struct RuleState {
    rule: FaultRule,
    /// Matching operations seen so far (the schedule's sequence index).
    matched: u64,
    /// Times this rule has fired.
    fired: u64,
    /// Private xorshift stream for [`FaultSchedule::Seeded`].
    rng: u64,
}

impl RuleState {
    fn new(rule: FaultRule) -> Self {
        let rng = match rule.schedule {
            FaultSchedule::Seeded { seed, .. } => seed_to_state(seed),
            _ => 1,
        };
        RuleState { rule, matched: 0, fired: 0, rng }
    }
}

/// Runtime state of an installed [`FaultPlan`] (lives inside the device's
/// existing mutex; a disarmed device pays only an `Option` check).
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    rules: Vec<RuleState>,
    stats: FaultStats,
    /// Set by a fired [`FaultKind::PowerCut`]; cleared only with the plan.
    pub(crate) poisoned: bool,
    /// Last-synced byte image per file id, tracked while a power-cut rule
    /// is armed. Indices parallel the device's file table.
    pub(crate) durable: Vec<Vec<u8>>,
    /// Whether `durable` is being maintained (plan contains a power cut).
    pub(crate) track_durable: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, prior_stats: FaultStats) -> Self {
        let track_durable = plan.has_power_cut();
        FaultState {
            rules: plan.rules.into_iter().map(RuleState::new).collect(),
            stats: prior_stats,
            poisoned: false,
            durable: Vec::new(),
            track_durable,
        }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides whether `op` on `file` faults, advancing every matching
    /// rule's schedule. The first rule that fires wins.
    pub(crate) fn decide(&mut self, file: FileId, op: FaultOp) -> Option<FaultKind> {
        let mut fired = None;
        for rs in &mut self.rules {
            if rs.rule.op != op {
                continue;
            }
            if let Some(f) = rs.rule.file {
                if f != file {
                    continue;
                }
            }
            if let Some(max) = rs.rule.max_fires {
                if rs.fired >= max {
                    continue;
                }
            }
            let seq = rs.matched;
            rs.matched += 1;
            self.stats.ops_matched += 1;
            if fired.is_some() {
                // A higher-priority rule already fired for this op; later
                // rules still consume their sequence slot so their
                // schedules stay aligned with the operation stream.
                continue;
            }
            let fire = match rs.rule.schedule {
                FaultSchedule::AfterOps { skip } => seq >= skip,
                FaultSchedule::Nth { n } => seq == n,
                FaultSchedule::Seeded { per_mille, .. } => {
                    (xorshift64(&mut rs.rng) % 1000) < per_mille as u64
                }
            };
            if fire {
                rs.fired += 1;
                fired = Some(rs.rule.kind);
            }
        }
        if let Some(kind) = fired {
            match kind {
                FaultKind::Eio => self.stats.eio += 1,
                FaultKind::ShortRead => self.stats.short_reads += 1,
                FaultKind::TornWrite => self.stats.torn_writes += 1,
                FaultKind::PowerCut => self.stats.power_cuts += 1,
                FaultKind::Panic => self.stats.panics += 1,
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decide_n(state: &mut FaultState, n: usize) -> Vec<Option<FaultKind>> {
        (0..n).map(|_| state.decide(FileId(0), FaultOp::Read)).collect()
    }

    #[test]
    fn after_ops_fires_forever_past_the_budget() {
        let plan = FaultPlan::new().rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::Eio,
            FaultSchedule::AfterOps { skip: 2 },
        ));
        let mut st = FaultState::new(plan, FaultStats::default());
        let got = decide_n(&mut st, 5);
        assert_eq!(
            got,
            vec![None, None, Some(FaultKind::Eio), Some(FaultKind::Eio), Some(FaultKind::Eio)]
        );
        assert_eq!(st.stats().eio, 3);
        assert_eq!(st.stats().ops_matched, 5);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::new().rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::ShortRead,
            FaultSchedule::Nth { n: 1 },
        ));
        let mut st = FaultState::new(plan, FaultStats::default());
        let got = decide_n(&mut st, 4);
        assert_eq!(got, vec![None, Some(FaultKind::ShortRead), None, None]);
    }

    #[test]
    fn seeded_stream_is_replayable() {
        let rule = FaultRule::new(
            FaultOp::Read,
            FaultKind::Eio,
            FaultSchedule::Seeded { seed: 42, per_mille: 250 },
        );
        let mut a = FaultState::new(FaultPlan::new().rule(rule), FaultStats::default());
        let mut b = FaultState::new(FaultPlan::new().rule(rule), FaultStats::default());
        let run_a = decide_n(&mut a, 200);
        let run_b = decide_n(&mut b, 200);
        assert_eq!(run_a, run_b, "same (seed, plan) must fire identically");
        let fired = run_a.iter().filter(|d| d.is_some()).count();
        assert!(fired > 20 && fired < 90, "~25% of 200 trials, got {fired}");
    }

    #[test]
    fn file_and_op_matchers_filter() {
        let plan = FaultPlan::new().rule(
            FaultRule::new(FaultOp::Write, FaultKind::Eio, FaultSchedule::AfterOps { skip: 0 })
                .on_file(FileId(3)),
        );
        let mut st = FaultState::new(plan, FaultStats::default());
        assert_eq!(st.decide(FileId(3), FaultOp::Read), None, "wrong op");
        assert_eq!(st.decide(FileId(2), FaultOp::Write), None, "wrong file");
        assert_eq!(st.decide(FileId(3), FaultOp::Write), Some(FaultKind::Eio));
        assert_eq!(st.stats().ops_matched, 1);
    }

    #[test]
    fn max_fires_caps_a_rule() {
        let plan = FaultPlan::new().rule(
            FaultRule::new(FaultOp::Read, FaultKind::Eio, FaultSchedule::AfterOps { skip: 0 })
                .max_fires(2),
        );
        let mut st = FaultState::new(plan, FaultStats::default());
        let got = decide_n(&mut st, 4);
        assert_eq!(got, vec![Some(FaultKind::Eio), Some(FaultKind::Eio), None, None]);
    }

    #[test]
    fn first_firing_rule_wins_but_later_schedules_advance() {
        let plan = FaultPlan::new()
            .rule(FaultRule::new(FaultOp::Read, FaultKind::Eio, FaultSchedule::Nth { n: 0 }))
            .rule(FaultRule::new(FaultOp::Read, FaultKind::ShortRead, FaultSchedule::Nth { n: 1 }));
        let mut st = FaultState::new(plan, FaultStats::default());
        assert_eq!(st.decide(FileId(0), FaultOp::Read), Some(FaultKind::Eio));
        assert_eq!(
            st.decide(FileId(0), FaultOp::Read),
            Some(FaultKind::ShortRead),
            "second rule's sequence advanced during the first op"
        );
    }

    #[test]
    fn power_cut_plans_track_durable_images() {
        let eio = FaultPlan::new().rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::Eio,
            FaultSchedule::Nth { n: 0 },
        ));
        assert!(!eio.has_power_cut());
        let cut = FaultPlan::new().rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::PowerCut,
            FaultSchedule::Nth { n: 3 },
        ));
        assert!(cut.has_power_cut());
        assert!(FaultState::new(cut, FaultStats::default()).track_durable);
    }
}
