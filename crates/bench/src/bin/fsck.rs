//! Offline integrity checker for Mneme store files.
//!
//! ```text
//! cargo run --release -p poir-bench --bin fsck -- [--recover-log LOG] STORE
//! ```
//!
//! Opens `STORE` (a Mneme data file on the host filesystem) and runs
//! [`MnemeFile::validate`]: location tables walked, every referenced
//! segment bounds- and overlap-checked, headers parsed, live objects
//! cross-checked against the tables. With `--recover-log LOG` the store is
//! opened through [`RecoverableFile::recover`] first, so a redo log left
//! by a crash is replayed before the check (the store file is modified the
//! way a normal recovery would modify it).
//!
//! Prints a triage summary; every problem found goes to stderr. Exits 0
//! when the store is clean, 1 when validation found problems, 2 on usage
//! or open errors. `--selftest` builds a sample store on real host files,
//! verifies it validates clean, then corrupts a segment header and
//! verifies the damage is reported — a self-contained smoke of both exit
//! paths.

use poir_mneme::recovery::RecoverableFile;
use poir_mneme::{MnemeFile, PoolConfig, PoolId, PoolKindConfig};
use poir_storage::Device;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Builds a throwaway store on host files, validates it clean, smashes a
/// segment header byte, and checks the corruption is detected.
fn selftest() -> ! {
    let dir = std::env::temp_dir().join(format!("poir-fsck-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("creating {dir:?}: {e}")));
    let store_path = dir.join("sample.mneme");
    let pools = vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 4096 } },
        PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
    ];
    let device = Device::with_defaults();
    let handle = device
        .create_file_at(&store_path)
        .unwrap_or_else(|e| die(&format!("creating sample store: {e}")));
    let mut file =
        MnemeFile::create(handle.clone(), &pools, 8).unwrap_or_else(|e| die(&format!("{e}")));
    // The first object's segment lands right after the 8 KB file header.
    file.create_object(PoolId(2), &vec![7u8; 4000]).unwrap_or_else(|e| die(&format!("{e}")));
    for i in 0..200u32 {
        let pool = PoolId(if i % 5 == 0 { 0 } else { 1 });
        let len = if pool == PoolId(0) { (i % 12) as usize } else { 20 + (i as usize % 300) };
        file.create_object(pool, &vec![(i % 251) as u8; len])
            .unwrap_or_else(|e| die(&format!("{e}")));
    }
    file.flush().unwrap_or_else(|e| die(&format!("{e}")));
    let clean = file.validate().unwrap_or_else(|e| die(&format!("{e}")));
    if !clean.is_clean() {
        die(&format!("selftest: fresh sample store not clean: {:?}", clean.problems));
    }
    println!(
        "selftest: clean pass ok ({} segments, {} live objects)",
        clean.segments_checked, clean.live_objects
    );
    handle.write(8192, &[0xEE]).unwrap_or_else(|e| die(&format!("{e}")));
    let mut reopened = MnemeFile::open(handle).unwrap_or_else(|e| die(&format!("{e}")));
    let damaged = reopened.validate().unwrap_or_else(|e| die(&format!("{e}")));
    std::fs::remove_dir_all(&dir).ok();
    if damaged.is_clean() {
        eprintln!("selftest: corrupted segment header went undetected");
        std::process::exit(1);
    }
    println!("selftest: corruption detected ({} problem(s))", damaged.problems.len());
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store_path: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--recover-log" => match it.next() {
                Some(p) => log_path = Some(p.clone()),
                None => die("--recover-log needs a path"),
            },
            "--selftest" => selftest(),
            "--help" | "-h" => {
                eprintln!("usage: fsck [--recover-log LOG] STORE | fsck --selftest");
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown arg {other:?}")),
            other => match store_path {
                None => store_path = Some(other.to_string()),
                Some(_) => die("exactly one STORE path expected"),
            },
        }
    }
    let Some(store_path) = store_path else { die("a STORE path is required") };

    let device = Device::with_defaults();
    let store = device
        .create_file_at(std::path::Path::new(&store_path))
        .unwrap_or_else(|e| die(&format!("opening {store_path}: {e}")));

    let report = match &log_path {
        Some(log_path) => {
            let log = device
                .create_file_at(std::path::Path::new(log_path))
                .unwrap_or_else(|e| die(&format!("opening {log_path}: {e}")));
            let replayed = log.len().unwrap_or(0);
            let mut rf = RecoverableFile::recover(store, log)
                .unwrap_or_else(|e| die(&format!("recovering {store_path}: {e}")));
            eprintln!("# replayed redo log {log_path} ({replayed} bytes)");
            rf.file().validate()
        }
        None => {
            let mut file = MnemeFile::open(store)
                .unwrap_or_else(|e| die(&format!("opening {store_path}: {e}")));
            file.validate()
        }
    }
    .unwrap_or_else(|e| die(&format!("validation errored: {e}")));

    println!(
        "{store_path}: {} segments checked, {} live objects, {} problem(s)",
        report.segments_checked,
        report.live_objects,
        report.problems.len()
    );
    if !report.is_clean() {
        for p in &report.problems {
            eprintln!("PROBLEM: {p}");
        }
        std::process::exit(1);
    }
}
