//! A tour of the Mneme persistent object store used directly — pools,
//! buffers, reservations, persistence, crash recovery.
//!
//! ```text
//! cargo run --release --example object_store_tour
//! ```
//!
//! Everything here also persists to real files: the simulated device can be
//! backed by the host filesystem (`Device::create_file_at`), which is what
//! this example does in a temporary directory.

use poir::mneme::{
    recovery::RecoverableFile, LruBuffer, MnemeFile, PoolConfig, PoolId, PoolKindConfig,
};
use poir::storage::Device;

fn main() {
    let dir = std::env::temp_dir().join(format!("poir-tour-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let device = Device::with_defaults();

    // --- pools -----------------------------------------------------------
    // A file is created with a pool set; each pool owns its segment layout.
    let pools = vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 8192 } },
        PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
    ];
    let handle = device.create_file_at(&dir.join("store.mneme")).expect("file");
    let mut file = MnemeFile::create(handle.clone(), &pools, 32).expect("create");

    let tiny = file.create_object(PoolId(0), b"12 bytes max").expect("small");
    let medium = file.create_object(PoolId(1), &vec![0xAB; 2000]).expect("medium");
    let large = file.create_object(PoolId(2), &vec![0xCD; 200_000]).expect("large");
    println!("created {tiny:?} (small pool), {medium:?} (medium), {large:?} (large)");

    // --- buffers and reservation -----------------------------------------
    // Attach an LRU buffer to the large pool, touch the object, reserve it,
    // and watch the hit statistics.
    file.attach_buffer(PoolId(2), Box::new(LruBuffer::new(1 << 20))).expect("buffer");
    file.get(large).expect("get");
    file.reserve(&[large]);
    file.get(large).expect("get");
    file.release_reservations();
    let stats = file.buffer_stats(PoolId(2)).expect("stats");
    println!(
        "large-pool buffer: {} refs, {} hits (rate {:.2})",
        stats.refs,
        stats.hits,
        stats.hit_rate()
    );

    // --- persistence -------------------------------------------------------
    file.flush().expect("flush");
    drop(file);
    let reopened = MnemeFile::open(handle).expect("open");
    assert_eq!(reopened.get(tiny).expect("get"), b"12 bytes max");
    println!("reopened the store from disk; objects intact");

    // --- crash recovery ----------------------------------------------------
    // Wrap a file with a redo log, mutate, "crash", recover.
    let data = device.create_file_at(&dir.join("recoverable.mneme")).expect("file");
    let log = device.create_file_at(&dir.join("recoverable.log")).expect("file");
    let inner = MnemeFile::create(data.clone(), &pools, 16).expect("create");
    let mut recoverable = RecoverableFile::new(inner, log.clone()).expect("wrap");
    let a = recoverable.create_object(PoolId(1), b"logged before the crash").expect("create");
    drop(recoverable); // crash: no checkpoint ran
    let mut recovered = RecoverableFile::recover(data, log).expect("recover");
    println!(
        "recovered after crash: {:?} -> {:?}",
        a,
        String::from_utf8_lossy(&recovered.get(a).expect("get"))
    );

    // --- the I/O ledger ----------------------------------------------------
    let snapshot = device.stats().snapshot();
    println!(
        "device totals: {} reads / {} writes / {} disk block inputs / {} KB read",
        snapshot.file_accesses,
        snapshot.file_writes,
        snapshot.io_inputs,
        snapshot.kbytes_read()
    );
    std::fs::remove_dir_all(&dir).ok();
}
