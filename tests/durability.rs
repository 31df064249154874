//! Durability integration: engines persisted to real host files survive
//! process-style restarts; the recovery log replays across the whole stack.

use poir::core::{BackendKind, Engine};
use poir::inquery::{IndexBuilder, StopWords};
use poir::mneme::recovery::RecoverableFile;
use poir::mneme::{MnemeFile, PoolConfig, PoolId, PoolKindConfig};
use poir::storage::Device;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("poir-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_index() -> poir::inquery::Index {
    let mut b = IndexBuilder::new(StopWords::default());
    for i in 0..200 {
        b.add_document(
            &format!("D{i:03}"),
            &format!("alpha bravo charlie delta item{} group{} payload", i, i % 7),
        );
    }
    b.finish()
}

#[test]
fn engine_survives_restart_on_real_files() {
    let dir = temp_dir("engine");
    for backend in BackendKind::all() {
        let store_path = dir.join(format!("{}.store", backend.label().replace([' ', ','], "")));
        let meta_path = dir.join(format!("{}.meta", backend.label().replace([' ', ','], "")));
        let expected;
        {
            let dev = Device::with_defaults();
            let store = dev.create_file_at(&store_path).unwrap();
            // Build on an in-memory file, then copy bytes onto the real one
            // through the engine's own save path.
            let mut engine = Engine::builder(&dev).backend(backend).build(small_index()).unwrap();
            expected = engine.query("alpha item5", 5).unwrap();
            // Persist the store bytes to the real file.
            let len = engine.store_handle().len().unwrap();
            let bytes = engine.store_handle().read(0, len as usize).unwrap();
            store.write(0, &bytes).unwrap();
            let meta = dev.create_file_at(&meta_path).unwrap();
            engine.save(&meta).unwrap();
        }
        // "Restart": a fresh device, real files reopened from disk.
        {
            let dev = Device::with_defaults();
            let store = dev.create_file_at(&store_path).unwrap();
            let meta = dev.create_file_at(&meta_path).unwrap();
            let mut engine = Engine::builder(&dev).open(store, &meta).unwrap();
            assert_eq!(engine.backend(), backend);
            let got = engine.query("alpha item5", 5).unwrap();
            assert_eq!(expected, got, "backend {}", backend.label());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_log_replays_on_real_files() {
    let dir = temp_dir("recovery");
    let data_path = dir.join("data.mneme");
    let log_path = dir.join("redo.log");
    let pools = vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 4096 } },
    ];
    let (a, b);
    {
        let dev = Device::with_defaults();
        let data = dev.create_file_at(&data_path).unwrap();
        let log = dev.create_file_at(&log_path).unwrap();
        let inner = MnemeFile::create(data, &pools, 8).unwrap();
        let mut rf = RecoverableFile::new(inner, log).unwrap();
        a = rf.create_object(PoolId(1), b"checkpointed").unwrap();
        rf.checkpoint().unwrap();
        b = rf.create_object(PoolId(1), b"only in the log").unwrap();
        rf.update(a, b"checkpointed, then updated").unwrap();
        // Crash: rf dropped without checkpoint; the log file persists.
    }
    {
        let dev = Device::with_defaults();
        let data = dev.create_file_at(&data_path).unwrap();
        let log = dev.create_file_at(&log_path).unwrap();
        let mut recovered = RecoverableFile::recover(data, log).unwrap();
        assert_eq!(recovered.get(a).unwrap(), b"checkpointed, then updated");
        assert_eq!(recovered.get(b).unwrap(), b"only in the log");
    }
    std::fs::remove_dir_all(&dir).ok();
}

mod torn_log_fuzz {
    //! Property tests for redo-log torn tails. The log is synced before
    //! every mutation touches the data file (the write-ahead rule), so
    //! the only realistic crash damage is a garbage/partial record at the
    //! tail — recovery must land on exactly the applied op stream. A
    //! corrupted record mid-log (media damage) must stop replay at the
    //! checksum, never panic, and leave a structurally valid store.

    use poir::mneme::recovery::RecoverableFile;
    use poir::mneme::{MnemeError, MnemeFile, ObjectId, PoolConfig, PoolId, PoolKindConfig};
    use poir::storage::{Device, FileHandle};
    use proptest::prelude::*;

    /// Raw fuzz material: `(kind, target, len)` interpreted against the
    /// live object set as it evolves.
    fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u16)>> {
        proptest::collection::vec((any::<u8>(), any::<u8>(), 1u16..=1000), 1..40)
    }

    fn pools() -> Vec<PoolConfig> {
        vec![
            PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 4096 } },
            PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
        ]
    }

    /// Applies the interpreted op stream, returning the created ids and
    /// the model state (payload or tombstone) per creation index.
    #[allow(clippy::type_complexity)]
    fn apply(
        rf: &mut RecoverableFile,
        ops: &[(u8, u8, u16)],
    ) -> (Vec<ObjectId>, Vec<Option<Vec<u8>>>) {
        let mut ids = Vec::new();
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for (n, &(kind, target, len)) in ops.iter().enumerate() {
            let len = len as usize;
            let live: Vec<usize> = (0..model.len()).filter(|&i| model[i].is_some()).collect();
            let k = kind % 10;
            if k <= 4 || (k <= 7 && live.is_empty()) {
                let pool = if len > 600 { PoolId(2) } else { PoolId(1) };
                let data = vec![(n % 251) as u8; len];
                let id = rf.create_object(pool, &data).expect("create");
                ids.push(id);
                model.push(Some(data));
            } else if k <= 6 {
                let obj = live[target as usize % live.len()];
                let data = vec![(n % 251) as u8; len];
                rf.update(ids[obj], &data).expect("update");
                model[obj] = Some(data);
            } else if k == 7 {
                let obj = live[target as usize % live.len()];
                rf.delete(ids[obj]).expect("delete");
                model[obj] = None;
            } else {
                rf.checkpoint().expect("checkpoint");
            }
        }
        (ids, model)
    }

    fn assert_matches_model(
        rec: &mut RecoverableFile,
        ids: &[ObjectId],
        model: &[Option<Vec<u8>>],
    ) {
        for (i, id) in ids.iter().enumerate() {
            match &model[i] {
                Some(data) => {
                    let got = rec.get(*id).expect("live object");
                    assert_eq!(got.as_slice(), data.as_slice(), "object {i}");
                }
                None => assert!(
                    matches!(rec.get(*id), Err(MnemeError::ObjectDeleted(_))),
                    "object {i} should be tombstoned"
                ),
            }
        }
    }

    fn fresh(dev: &std::sync::Arc<Device>) -> (RecoverableFile, FileHandle, FileHandle) {
        let data = dev.create_file();
        let log = dev.create_file();
        let inner = MnemeFile::create(data.clone(), &pools(), 8).unwrap();
        (RecoverableFile::new(inner, log.clone()).unwrap(), data, log)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A garbage tail shorter than the 14-byte minimum record is the
        /// partial record of an op that never applied; recovery must
        /// discard it and reproduce the applied stream exactly.
        #[test]
        fn garbage_tail_recovers_to_exact_state(
            ops in ops_strategy(),
            garbage in proptest::collection::vec(any::<u8>(), 1..13),
        ) {
            let dev = Device::with_defaults();
            let (mut rf, data, log) = fresh(&dev);
            let (ids, model) = apply(&mut rf, &ops);
            drop(rf);
            let end = log.len().unwrap();
            log.write(end, &garbage).unwrap();
            let mut rec = RecoverableFile::recover(data, log).unwrap();
            assert_matches_model(&mut rec, &ids, &model);
            let report = rec.file().validate().unwrap();
            prop_assert!(report.is_clean(), "problems: {:?}", report.problems);
        }

        /// A flipped bit anywhere in the log must be caught by the record
        /// checksum: recovery stops there without panicking and the store
        /// stays structurally valid.
        #[test]
        fn bit_flip_in_log_is_detected_not_propagated(
            ops in ops_strategy(),
            flip_pos in any::<u64>(),
            flip_bit in 0u8..8,
        ) {
            let dev = Device::with_defaults();
            let (mut rf, data, log) = fresh(&dev);
            let _ = apply(&mut rf, &ops);
            drop(rf);
            let len = log.len().unwrap();
            if len == 0 {
                return; // op stream was all checkpoints; nothing to flip
            }
            let pos = flip_pos % len;
            let byte = log.read(pos, 1).unwrap()[0];
            log.write(pos, &[byte ^ (1 << flip_bit)]).unwrap();
            let mut rec = RecoverableFile::recover(data, log).unwrap();
            let report = rec.file().validate().unwrap();
            prop_assert!(report.is_clean(), "problems: {:?}", report.problems);
        }
    }
}

#[test]
fn storage_faults_surface_as_errors_not_corruption() {
    let dev = Device::with_defaults();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::MnemeNoCache).build(small_index()).unwrap();
    // Warm nothing; inject a fault after a few reads mid-query-set.
    dev.inject_read_fault_after(Some(3));
    let queries = vec!["alpha bravo charlie delta"; 4];
    let result = engine.run_query_set(&queries, 10);
    assert!(result.is_err(), "the injected fault must propagate");
    dev.inject_read_fault_after(None);
    // The engine remains usable after the transient fault clears.
    let ok = engine.query("alpha", 5).unwrap();
    assert!(!ok.is_empty());
}
