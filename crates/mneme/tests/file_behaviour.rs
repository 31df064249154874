//! Behavioural tests of the full Mneme file layer: pools, buffers,
//! location tables, persistence, and I/O accounting.

use std::sync::Arc;

use poir_mneme::{LruBuffer, MnemeError, MnemeFile, ObjectId, PoolConfig, PoolId, PoolKindConfig};
use poir_storage::{CostModel, Device, DeviceConfig};

fn paper_pools() -> Vec<PoolConfig> {
    vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 8192 } },
        PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
    ]
}

fn device() -> Arc<Device> {
    Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 64,
        cost_model: CostModel::free(),
    })
}

#[test]
fn three_pool_round_trip() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let small = f.create_object(PoolId(0), b"tiny!").unwrap();
    let medium = f.create_object(PoolId(1), &vec![42u8; 1000]).unwrap();
    let large = f.create_object(PoolId(2), &vec![7u8; 100_000]).unwrap();

    assert_eq!(f.get(small).unwrap(), b"tiny!");
    assert_eq!(f.get(medium).unwrap(), vec![42u8; 1000]);
    assert_eq!(f.get(large).unwrap(), vec![7u8; 100_000]);
    assert_eq!(f.object_len(large).unwrap(), 100_000);
    assert_eq!(f.pool_of(small).unwrap(), PoolId(0));
    assert_eq!(f.pool_of(medium).unwrap(), PoolId(1));
    assert_eq!(f.pool_of(large).unwrap(), PoolId(2));
}

#[test]
fn small_pool_rejects_oversized_objects() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    assert!(matches!(
        f.create_object(PoolId(0), &[0u8; 13]),
        Err(MnemeError::ObjectTooLarge { len: 13, max: 12 })
    ));
}

#[test]
fn objects_survive_flush_and_reopen() {
    let dev = device();
    let handle = dev.create_file();
    let mut ids = Vec::new();
    {
        let mut f = MnemeFile::create(handle.clone(), &paper_pools(), 16).unwrap();
        for i in 0..1000u32 {
            let pool = PoolId((i % 3) as u8);
            let len = match pool.0 {
                0 => (i % 13) as usize,          // 0..=12 bytes
                1 => 20 + (i % 500) as usize,    // medium
                _ => 5000 + (i % 3000) as usize, // large
            };
            let data = vec![(i % 251) as u8; len];
            ids.push((f.create_object(pool, &data).unwrap(), data));
        }
        f.flush().unwrap();
    }
    let f = MnemeFile::open(handle).unwrap();
    for (id, data) in &ids {
        assert_eq!(&f.get(*id).unwrap(), data, "object {id:?}");
    }
    assert_eq!(f.pool_ids(), vec![PoolId(0), PoolId(1), PoolId(2)]);
}

#[test]
fn unflushed_objects_are_readable_through_building_segments() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let id = f.create_object(PoolId(1), b"not yet flushed").unwrap();
    assert_eq!(f.get(id).unwrap(), b"not yet flushed");
}

#[test]
fn more_than_255_objects_span_logical_segments() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let mut ids = Vec::new();
    for i in 0..700u32 {
        ids.push(f.create_object(PoolId(0), &[i as u8; 4]).unwrap());
    }
    // 700 objects need 3 logical segments.
    let segs: std::collections::HashSet<_> = ids.iter().map(|id| id.segment()).collect();
    assert_eq!(segs.len(), 3);
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(f.get(*id).unwrap(), [i as u8; 4]);
    }
}

#[test]
fn interleaved_pools_use_disjoint_logical_segments() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let a = f.create_object(PoolId(0), b"a").unwrap();
    let b = f.create_object(PoolId(1), b"b").unwrap();
    let c = f.create_object(PoolId(0), b"c").unwrap();
    assert_eq!(a.segment(), c.segment(), "same pool refills its segment");
    assert_ne!(a.segment(), b.segment(), "pools never share a logical segment");
}

#[test]
fn update_in_place_and_relocation() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let id = f.create_object(PoolId(1), &[1u8; 100]).unwrap();
    // Pad the segment so a grown object cannot fit in place.
    for _ in 0..20 {
        f.create_object(PoolId(1), &vec![0u8; 380]).unwrap();
    }
    // Shrink: in place.
    f.update(id, &[2u8; 50]).unwrap();
    assert_eq!(f.get(id).unwrap(), vec![2u8; 50]);
    assert_eq!(f.garbage_bytes(), 0);
    // Grow beyond the segment: relocated via an exception entry.
    f.update(id, &vec![3u8; 4000]).unwrap();
    assert_eq!(f.get(id).unwrap(), vec![3u8; 4000]);
    assert!(f.garbage_bytes() > 0);
    // Relocated objects survive flush + reopen.
    f.flush().unwrap();
    let handle = f.handle().clone();
    drop(f);
    let f = MnemeFile::open(handle).unwrap();
    assert_eq!(f.get(id).unwrap(), vec![3u8; 4000]);
}

#[test]
fn delete_semantics() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let id = f.create_object(PoolId(1), b"doomed").unwrap();
    let neighbour = f.create_object(PoolId(1), b"survivor").unwrap();
    f.delete(id).unwrap();
    assert!(matches!(f.get(id), Err(MnemeError::ObjectDeleted(_))));
    assert!(matches!(f.delete(id), Err(MnemeError::ObjectDeleted(_))));
    assert!(matches!(f.update(id, b"x"), Err(MnemeError::ObjectDeleted(_))));
    assert_eq!(f.get(neighbour).unwrap(), b"survivor");
    // Never-created ids are absent, not deleted.
    let bogus = ObjectId::from_raw(0x000F_FF00).unwrap();
    assert!(matches!(f.get(bogus), Err(MnemeError::NoSuchObject(_))));
}

#[test]
fn buffer_hit_rates_follow_access_pattern() {
    let dev = device();
    let handle = dev.create_file();
    let mut ids = Vec::new();
    {
        let mut f = MnemeFile::create(handle.clone(), &paper_pools(), 16).unwrap();
        for i in 0..50u32 {
            ids.push(f.create_object(PoolId(2), &vec![i as u8; 6000]).unwrap());
        }
        f.flush().unwrap();
    }
    let mut f = MnemeFile::open(handle).unwrap();
    // Generous buffer: repeated accesses to the same object must hit.
    f.attach_buffer(PoolId(2), Box::new(LruBuffer::new(1 << 20))).unwrap();
    for _ in 0..3 {
        for id in ids.iter().take(10) {
            f.get(*id).unwrap();
        }
    }
    let stats = f.buffer_stats(PoolId(2)).unwrap();
    assert_eq!(stats.refs, 30);
    assert_eq!(stats.hits, 20, "first pass misses, later passes hit");
    f.reset_buffer_stats();
    assert_eq!(f.buffer_stats(PoolId(2)).unwrap().refs, 0);
}

#[test]
fn zero_capacity_buffer_rereads_every_access() {
    let dev = device();
    let handle = dev.create_file();
    let id;
    {
        let mut f = MnemeFile::create(handle.clone(), &paper_pools(), 16).unwrap();
        id = f.create_object(PoolId(1), &vec![1u8; 500]).unwrap();
        f.flush().unwrap();
    }
    let f = MnemeFile::open(handle).unwrap();
    let before = dev.stats().snapshot();
    f.get(id).unwrap();
    f.get(id).unwrap();
    f.get(id).unwrap();
    let delta = dev.stats().snapshot().since(&before);
    // Three object reads: one segment read each, plus one location bucket
    // read on the first access only (aux tables stay cached).
    assert_eq!(delta.file_accesses, 4);
    let stats = f.buffer_stats(PoolId(1)).unwrap();
    assert_eq!(stats.refs, 3);
    assert_eq!(stats.hits, 0);
}

#[test]
fn reservation_pins_resident_segments() {
    let dev = device();
    let handle = dev.create_file();
    let mut ids = Vec::new();
    {
        let mut f = MnemeFile::create(handle.clone(), &paper_pools(), 16).unwrap();
        for i in 0..6u32 {
            ids.push(f.create_object(PoolId(2), &vec![i as u8; 8000]).unwrap());
        }
        f.flush().unwrap();
    }
    let mut f = MnemeFile::open(handle).unwrap();
    // Buffer fits exactly one 8 KB segment (plus header).
    f.attach_buffer(PoolId(2), Box::new(LruBuffer::new(9000))).unwrap();
    f.get(ids[0]).unwrap(); // ids[0] resident
    f.reserve(&ids[0..1]);
    f.get(ids[1]).unwrap(); // would evict ids[0] without the reservation
    f.get(ids[0]).unwrap(); // must still be a hit
    let stats = f.buffer_stats(PoolId(2)).unwrap();
    assert_eq!(stats.refs, 3);
    assert_eq!(stats.hits, 1, "the reserved segment survived");
    f.release_reservations();
    f.get(ids[2]).unwrap();
    f.get(ids[0]).unwrap(); // evicted now
    assert_eq!(f.buffer_stats(PoolId(2)).unwrap().hits, 1);
}

#[test]
fn aux_tables_are_read_once_then_cached() {
    let dev = device();
    let handle = dev.create_file();
    let mut ids = Vec::new();
    {
        let mut f = MnemeFile::create(handle.clone(), &paper_pools(), 4).unwrap();
        for i in 0..1000u32 {
            ids.push(f.create_object(PoolId(0), &[i as u8; 3]).unwrap());
        }
        f.flush().unwrap();
    }
    let f = MnemeFile::open(handle).unwrap();
    let before = dev.stats().snapshot();
    for id in &ids {
        f.get(*id).unwrap();
    }
    let delta = dev.stats().snapshot().since(&before);
    // 1000 smalls live in 4 logical segments = 4 physical segments; the
    // zero-capacity default buffer re-reads segments per access (1000), and
    // at most 4 bucket loads happen — never one per access.
    assert!(delta.file_accesses <= 1000 + 4, "accesses: {}", delta.file_accesses);
    assert!(delta.file_accesses >= 1000);
    assert!(f.aux_table_bytes() > 0);
}

#[test]
fn empty_objects_round_trip() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    let a = f.create_object(PoolId(0), b"").unwrap();
    let b = f.create_object(PoolId(1), b"").unwrap();
    let c = f.create_object(PoolId(2), b"").unwrap();
    for id in [a, b, c] {
        assert_eq!(f.get(id).unwrap(), Vec::<u8>::new());
        assert_eq!(f.object_len(id).unwrap(), 0);
    }
}

#[test]
fn open_rejects_garbage() {
    let dev = device();
    let handle = dev.create_file();
    handle.write(0, &vec![0xAAu8; 8192]).unwrap();
    assert!(matches!(MnemeFile::open(handle), Err(MnemeError::Corrupt(_))));
    // A valid file whose one-object-per-segment pool config (the third,
    // at header offset 40 + 2 * 8) has its byte 2 set: that byte once
    // flagged embedded reference tables and is always written as 0.
    let handle = dev.create_file();
    MnemeFile::create(handle.clone(), &paper_pools(), 16).unwrap().flush().unwrap();
    let flag = 40 + 2 * 8 + 2;
    assert_eq!(handle.read(flag, 1).unwrap(), [0u8]);
    handle.write(flag, &[1]).unwrap();
    assert!(matches!(MnemeFile::open(handle), Err(MnemeError::Corrupt(_))));
}

#[test]
fn file_size_matches_handle_length() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    for i in 0..100u32 {
        f.create_object(PoolId(1), &[i as u8; 200]).unwrap();
    }
    f.flush().unwrap();
    let size = f.file_size().unwrap();
    assert!(size > 8192 + 100 * 200, "size {size} must cover header + data");
    assert_eq!(size, f.handle().len().unwrap());
}

#[test]
fn live_object_ids_reflects_creates_and_deletes() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 8).unwrap();
    let mut expected = Vec::new();
    for i in 0..60u32 {
        let id = f.create_object(PoolId((i % 3) as u8), &[1u8; 12]).unwrap();
        if i % 5 == 0 {
            f.delete(id).unwrap();
        } else {
            expected.push(id);
        }
    }
    expected.sort_unstable();
    assert_eq!(f.live_object_ids().unwrap(), expected);
}

#[test]
fn file_stats_summarise_pool_occupancy() {
    let dev = device();
    let mut f = MnemeFile::create(dev.create_file(), &paper_pools(), 16).unwrap();
    for i in 0..100u32 {
        f.create_object(PoolId(0), &[i as u8; 8]).unwrap();
    }
    for i in 0..20u32 {
        f.create_object(PoolId(1), &vec![i as u8; 1000]).unwrap();
    }
    let big = f.create_object(PoolId(2), &vec![1u8; 50_000]).unwrap();
    f.delete(big).unwrap();
    f.flush().unwrap();
    let stats = f.stats().unwrap();
    assert_eq!(stats.pools.len(), 3);
    assert_eq!(stats.pools[0].live_objects, 100);
    assert_eq!(stats.pools[0].payload_bytes, 800);
    assert_eq!(stats.pools[1].live_objects, 20);
    assert_eq!(stats.pools[1].payload_bytes, 20_000);
    assert_eq!(stats.pools[2].live_objects, 0, "the large object was deleted");
    assert_eq!(stats.garbage_bytes, 50_000);
    assert!(stats.file_bytes > 20_800);
    assert!(stats.aux_table_bytes > 0);
    // 100 smalls fit one 4 KB segment; 20 KB of mediums need 3 segments.
    assert_eq!(stats.pools[0].segments, 1);
    assert_eq!(stats.pools[1].segments, 3);
}
