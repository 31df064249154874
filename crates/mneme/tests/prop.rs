//! Property tests: a Mneme file must behave like a map from object id to
//! byte string under arbitrary create/get/update/delete/flush/reopen
//! sequences, across all three pool layouts and any buffer size.

use proptest::prelude::*;

use poir_mneme::{LruBuffer, MnemeError, MnemeFile, ObjectId, PoolConfig, PoolId, PoolKindConfig};
use poir_storage::{CostModel, Device, DeviceConfig};

#[derive(Debug, Clone)]
enum Op {
    Create { pool: u8, len: u16 },
    Get { nth: u16 },
    Update { nth: u16, len: u16 },
    Delete { nth: u16 },
    Flush,
    Reopen,
    AttachBuffers { capacity: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..3, 0u16..2000).prop_map(|(pool, len)| Op::Create { pool, len }),
        4 => (0u16..500).prop_map(|nth| Op::Get { nth }),
        2 => (0u16..500, 0u16..2000).prop_map(|(nth, len)| Op::Update { nth, len }),
        1 => (0u16..500).prop_map(|nth| Op::Delete { nth }),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
        1 => (0u32..100_000).prop_map(|capacity| Op::AttachBuffers { capacity }),
    ]
}

fn pools() -> Vec<PoolConfig> {
    vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 2048 } },
        PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mneme_file_matches_map_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let dev = Device::new(DeviceConfig {
            block_size: 512,
            os_cache_blocks: 8,
            cost_model: CostModel::free(),
        });
        let handle = dev.create_file();
        let mut file = MnemeFile::create(handle.clone(), &pools(), 4).unwrap();
        // Model: id -> Some(bytes) live, None deleted.
        let mut model: Vec<(ObjectId, Option<Vec<u8>>)> = Vec::new();
        let mut fill = 0u8;

        for op in ops {
            match op {
                Op::Create { pool, len } => {
                    fill = fill.wrapping_add(1);
                    let len = if pool == 0 { (len % 13) as usize } else { len as usize };
                    let data = vec![fill; len];
                    let id = file.create_object(PoolId(pool), &data).unwrap();
                    for (existing, _) in &model {
                        prop_assert_ne!(*existing, id, "ids must never repeat");
                    }
                    model.push((id, Some(data)));
                }
                Op::Get { nth } => {
                    if model.is_empty() { continue; }
                    let (id, expected) = &model[nth as usize % model.len()];
                    match expected {
                        Some(data) => prop_assert_eq!(&file.get(*id).unwrap(), data),
                        None => prop_assert!(matches!(
                            file.get(*id),
                            Err(MnemeError::ObjectDeleted(_))
                        )),
                    }
                }
                Op::Update { nth, len } => {
                    if model.is_empty() { continue; }
                    let slot = nth as usize % model.len();
                    let id = model[slot].0;
                    fill = fill.wrapping_add(1);
                    let pool = file.pool_of(id).unwrap();
                    let len = if pool == PoolId(0) { (len % 13) as usize } else { len as usize };
                    let data = vec![fill; len];
                    match (&model[slot].1, file.update(id, &data)) {
                        (Some(_), Ok(())) => model[slot].1 = Some(data),
                        (None, Err(MnemeError::ObjectDeleted(_))) => {}
                        (state, result) => {
                            prop_assert!(false, "update mismatch: model {state:?}, got {result:?}");
                        }
                    }
                }
                Op::Delete { nth } => {
                    if model.is_empty() { continue; }
                    let slot = nth as usize % model.len();
                    let id = model[slot].0;
                    match (&model[slot].1, file.delete(id)) {
                        (Some(_), Ok(())) => model[slot].1 = None,
                        (None, Err(MnemeError::ObjectDeleted(_))) => {}
                        (state, result) => {
                            prop_assert!(false, "delete mismatch: model {state:?}, got {result:?}");
                        }
                    }
                }
                Op::Flush => file.flush().unwrap(),
                Op::Reopen => {
                    file.flush().unwrap();
                    drop(file);
                    file = MnemeFile::open(handle.clone()).unwrap();
                }
                Op::AttachBuffers { capacity } => {
                    for pool in [PoolId(0), PoolId(1), PoolId(2)] {
                        file.attach_buffer(pool, Box::new(LruBuffer::new(capacity as usize)))
                            .unwrap();
                    }
                }
            }
        }
        // Final sweep: every live object still reads back correctly.
        for (id, expected) in &model {
            match expected {
                Some(data) => prop_assert_eq!(&file.get(*id).unwrap(), data),
                None => prop_assert!(matches!(file.get(*id), Err(MnemeError::ObjectDeleted(_)))),
            }
        }
        // live_object_ids agrees with the model.
        let live: Vec<ObjectId> =
            model.iter().filter(|(_, d)| d.is_some()).map(|(id, _)| *id).collect();
        let mut live_sorted = live.clone();
        live_sorted.sort_unstable();
        prop_assert_eq!(file.live_object_ids().unwrap(), live_sorted);
    }

    #[test]
    fn buffer_stats_refs_equal_object_accesses(
        capacity in 0usize..50_000,
        accesses in proptest::collection::vec(0usize..40, 1..120),
    ) {
        let dev = Device::with_defaults();
        let handle = dev.create_file();
        let mut ids = Vec::new();
        {
            let mut f = MnemeFile::create(handle.clone(), &pools(), 4).unwrap();
            for i in 0..40u32 {
                ids.push(f.create_object(PoolId(1), &[i as u8; 100]).unwrap());
            }
            f.flush().unwrap();
        }
        let mut f = MnemeFile::open(handle).unwrap();
        f.attach_buffer(PoolId(1), Box::new(LruBuffer::new(capacity))).unwrap();
        for &a in &accesses {
            f.get(ids[a]).unwrap();
        }
        let stats = f.buffer_stats(PoolId(1)).unwrap();
        prop_assert_eq!(stats.refs, accesses.len() as u64);
        prop_assert!(stats.hits <= stats.refs);
        if capacity == 0 {
            prop_assert_eq!(stats.hits, 0, "zero-capacity buffers never hit");
        }
    }

    /// Model check of the id/slot arithmetic used everywhere.
    #[test]
    fn object_id_raw_round_trip(raw in 0u32..(1 << 28)) {
        match ObjectId::from_raw(raw) {
            Some(id) => {
                prop_assert_eq!(id.raw(), raw);
                prop_assert!((id.slot() as u32) < 255);
                prop_assert_eq!((id.segment().0 << 8) | id.slot() as u32, raw);
            }
            None => prop_assert_eq!(raw & 0xFF, 255),
        }
    }
}
