//! Crash-consistency smoke: the crash harness on a fixed seed and a
//! reduced grid, with the same options as the `crashtest` command in CI's
//! chaos job, so `cargo test` checks recovery on every run.

use poir_bench::crash::{run_crash_harness, CrashOptions};

#[test]
fn crash_harness_recovers_every_crash_point() {
    let opts = CrashOptions {
        seed: 3_735_928_559,
        ops: 32,
        terms: 8,
        checkpoint_every: 8,
        stride: 4,
        power_cuts: 2,
        k: 5,
    };
    let report = run_crash_harness(&opts);
    assert!(report.failures.is_empty(), "{:#?}", report.failures);
    // 32 ops at stride 4 = 8 crash points; each is exercised by three
    // crash kinds, plus the standalone power-cut runs.
    assert_eq!(report.crash_points, 8, "{report:?}");
    assert_eq!(report.recoveries, 8 * 3 + report.power_cuts_fired, "{report:?}");
    assert!(report.power_cuts_fired >= 1, "{report:?}");
}
