//! The update path writes what changed: a relocated object gets one size
//! class of headroom, a dirty segment writes back only the bytes that
//! differ from the file's copy, and segment headers from the file are
//! bounds-checked rather than trusted.

use std::collections::HashMap;

use proptest::prelude::*;

use poir_mneme::pool::{relocation_capacity, SEGMENT_HEADER_LEN};
use poir_mneme::{LruBuffer, MnemeError, MnemeFile, ObjectId, PoolConfig, PoolId, PoolKindConfig};
use poir_storage::{CostModel, Device, DeviceConfig, FileHandle};

/// Size of the packed pool's build segments, and of every buffer: one
/// packed segment, so almost every update evicts and writes back.
const PACKED: usize = 1024;

fn pools() -> Vec<PoolConfig> {
    vec![
        PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
        PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: PACKED as u32 } },
        PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
    ]
}

fn device() -> std::sync::Arc<Device> {
    Device::new(DeviceConfig { block_size: 512, os_cache_blocks: 8, cost_model: CostModel::free() })
}

fn attach_one_segment_buffers(file: &mut MnemeFile) {
    for pool in [PoolId(0), PoolId(1), PoolId(2)] {
        file.attach_buffer(pool, Box::new(LruBuffer::new(PACKED))).unwrap();
    }
}

/// Largest payload `pool` accepts in this file.
fn max_len(pool: u8) -> usize {
    match pool {
        0 => 12,
        1 => PACKED - SEGMENT_HEADER_LEN - 12,
        _ => 9000,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create { pool: u8, len: u16 },
    Update { nth: u16, edit: Edit },
    Delete { nth: u16 },
    Flush,
    Reopen,
}

#[derive(Debug, Clone)]
enum Edit {
    /// Grow by a tail of this many bytes, as a posting append does.
    Append(u16),
    /// Shrink to this many bytes.
    Truncate(u16),
    /// Rewrite the byte at this position, as a header statistic update does.
    Poke(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let edit = prop_oneof![
        5 => (0u16..400).prop_map(Edit::Append),
        1 => (0u16..3000).prop_map(Edit::Truncate),
        2 => any::<u16>().prop_map(Edit::Poke),
    ];
    prop_oneof![
        3 => (0u8..3, 0u16..3000).prop_map(|(pool, len)| Op::Create { pool, len }),
        8 => (0u16..500, edit).prop_map(|(nth, edit)| Op::Update { nth, edit }),
        1 => (0u16..500).prop_map(|nth| Op::Delete { nth }),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

/// Checks every object against the model: live ones byte-equal, deleted
/// ones reported deleted.
fn check_model(file: &MnemeFile, model: &HashMap<ObjectId, Option<Vec<u8>>>) {
    for (id, expected) in model {
        match expected {
            Some(data) => prop_assert_eq!(&file.get(*id).unwrap(), data, "object {:?}", id),
            None => prop_assert!(matches!(file.get(*id), Err(MnemeError::ObjectDeleted(_)))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random creates, growing and shrinking updates and deletes over all
    /// three pools, with one-segment buffers and flushes and reopens at
    /// random points, read back exactly what a map holds.
    #[test]
    fn updates_match_a_map_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let dev = device();
        let handle = dev.create_file();
        let mut file = MnemeFile::create(handle.clone(), &pools(), 4).unwrap();
        attach_one_segment_buffers(&mut file);
        let mut model: HashMap<ObjectId, Option<Vec<u8>>> = HashMap::new();
        let mut order: Vec<(ObjectId, u8)> = Vec::new();
        let mut fill = 0u8;
        for op in ops {
            fill = fill.wrapping_add(1);
            let pick = |nth: u16| (!order.is_empty()).then(|| order[nth as usize % order.len()]);
            match op {
                Op::Create { pool, len } => {
                    let data = vec![fill; len as usize % (max_len(pool) + 1)];
                    let id = file.create_object(PoolId(pool), &data).unwrap();
                    prop_assert!(model.insert(id, Some(data)).is_none(), "ids never repeat");
                    order.push((id, pool));
                }
                Op::Update { nth, edit } => {
                    let Some((id, pool)) = pick(nth) else { continue };
                    let Some(Some(mut data)) = model.get(&id).cloned() else {
                        let result = file.update(id, b"");
                        prop_assert!(matches!(result, Err(MnemeError::ObjectDeleted(_))));
                        continue;
                    };
                    match edit {
                        Edit::Append(len) => {
                            let room = max_len(pool) - data.len();
                            data.extend(std::iter::repeat_n(fill, len as usize % (room + 1)));
                        }
                        Edit::Truncate(keep) => data.truncate(keep as usize),
                        Edit::Poke(_) if data.is_empty() => continue,
                        Edit::Poke(at) => {
                            let at = at as usize % data.len();
                            data[at] = data[at].wrapping_add(fill | 1);
                        }
                    }
                    file.update(id, &data).unwrap();
                    model.insert(id, Some(data));
                }
                Op::Delete { nth } => {
                    let Some((id, _)) = pick(nth) else { continue };
                    match (model[&id].is_some(), file.delete(id)) {
                        (true, Ok(())) => { model.insert(id, None); }
                        (false, Err(MnemeError::ObjectDeleted(_))) => {}
                        (live, result) => {
                            prop_assert!(false, "delete: live {live}, got {result:?}");
                        }
                    }
                }
                Op::Flush => {
                    file.flush().unwrap();
                    check_model(&file, &model);
                }
                Op::Reopen => {
                    file.flush().unwrap();
                    drop(file);
                    file = MnemeFile::open(handle.clone()).unwrap();
                    attach_one_segment_buffers(&mut file);
                    check_model(&file, &model);
                }
            }
        }
        check_model(&file, &model);
        let report = file.validate().unwrap();
        prop_assert!(report.is_clean(), "problems: {:?}", report.problems);
        // The flushed file, reopened cold, holds the same objects.
        let file = MnemeFile::open(handle).unwrap();
        check_model(&file, &model);
    }

    /// Random bytes flipped anywhere in a flushed file's segments never
    /// make a read or a validation panic: each either succeeds or returns
    /// an error, and validation reports what it cannot parse.
    #[test]
    fn flipped_segment_bytes_never_panic(
        flips in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..24),
    ) {
        let dev = device();
        let handle = dev.create_file();
        let mut ids = Vec::new();
        {
            let mut file = MnemeFile::create(handle.clone(), &pools(), 4).unwrap();
            for i in 0..30u32 {
                let pool = (i % 3) as u8;
                let len = (i as usize * 37) % (max_len(pool) + 1);
                ids.push(file.create_object(PoolId(pool), &vec![i as u8; len]).unwrap());
            }
            // A relocated object and a tombstone among them.
            file.update(ids[2], &vec![7u8; 5000]).unwrap();
            file.delete(ids[4]).unwrap();
            file.flush().unwrap();
        }
        let (start, end) = segment_region(&handle);
        for (at, xor) in flips {
            let at = start + at as u64 % (end - start);
            let byte = handle.read(at, 1).unwrap()[0];
            handle.write(at, &[byte ^ xor.max(1)]).unwrap();
        }
        let mut file = MnemeFile::open(handle).unwrap();
        for &id in &ids {
            let _ = file.get(id);
            let _ = file.get_range(id, 0, 100);
            let _ = file.get_range(id, 64, 4000);
            let _ = file.object_len(id);
        }
        let _ = file.validate();
    }
}

/// The byte range `[first segment, location tables)` of a flushed file:
/// its header records where the tables start.
fn segment_region(handle: &FileHandle) -> (u64, u64) {
    let header = handle.read(0, 64).unwrap();
    let dir_offset = u64::from_le_bytes(header[24..32].try_into().unwrap());
    (8192, dir_offset)
}

fn huge_only() -> (std::sync::Arc<Device>, FileHandle, MnemeFile) {
    let dev = device();
    let handle = dev.create_file();
    let pools = [PoolConfig { id: PoolId(0), kind: PoolKindConfig::SegmentPerObject }];
    let file = MnemeFile::create(handle.clone(), &pools, 4).unwrap();
    (dev, handle, file)
}

/// Bytes in which the little-endian encodings of two length words differ,
/// first differing byte to last: the run a length change writes.
fn length_word_run(old: u32, new: u32) -> u64 {
    let (a, b) = (old.to_le_bytes(), new.to_le_bytes());
    let diff: Vec<usize> = (0..4).filter(|&i| a[i] != b[i]).collect();
    diff.last().map_or(0, |&last| (last - diff[0] + 1) as u64)
}

#[test]
fn appends_within_headroom_write_only_their_tail_and_length() {
    let (dev, handle, mut file) = huge_only();
    let mut data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let id = file.create_object(PoolId(0), &data).unwrap();
    file.flush().unwrap();
    let built = file.file_size().unwrap();

    // The first append outgrows the exact-size build segment: the object
    // moves to a segment one size class larger, written whole, and the
    // old segment's header is rewritten as a tombstone.
    let before = dev.stats().snapshot();
    data.extend_from_slice(&[1u8; 16]);
    file.update(id, &data).unwrap();
    let moved = dev.stats().snapshot().since(&before);
    let capacity = file.object_len_hint(id).unwrap();
    assert_eq!(
        capacity as usize + SEGMENT_HEADER_LEN,
        relocation_capacity(SEGMENT_HEADER_LEN + 10_016)
    );
    // Tombstone: count (byte 2) and length word (bytes 4..8), one run.
    assert_eq!(moved.bytes_written, 6 + capacity + SEGMENT_HEADER_LEN as u64);
    let relocated = handle.len().unwrap();
    assert_eq!(relocated, built + capacity + SEGMENT_HEADER_LEN as u64);

    // Then k appends inside the headroom: each writes its 8 new bytes and
    // the bytes of the length word that changed, nothing else.
    let k = 10;
    let before = dev.stats().snapshot();
    let mut expected = 0;
    for step in 0..k {
        let old_len = data.len() as u32;
        data.extend_from_slice(&[step as u8 + 2; 8]);
        file.update(id, &data).unwrap();
        expected += 8 + length_word_run(old_len, data.len() as u32);
    }
    let appends = dev.stats().snapshot().since(&before);
    assert_eq!(appends.bytes_written, expected);
    assert_eq!(appends.file_writes, 2 * k as u64, "one header run and one tail run each");
    assert_eq!(handle.len().unwrap(), relocated, "appends within headroom never grow the file");
    assert_eq!(file.get(id).unwrap(), data);
    file.flush().unwrap();
    assert_eq!(MnemeFile::open(handle).unwrap().get(id).unwrap(), data);
}

#[test]
fn corrupt_packed_entry_count_is_reported_not_panicked_on() {
    let dev = device();
    let handle = dev.create_file();
    let id = {
        let mut file = MnemeFile::create(handle.clone(), &pools(), 4).unwrap();
        let id = file.create_object(PoolId(1), b"a medium object").unwrap();
        file.flush().unwrap();
        id
    };
    // The only segment starts right after the 8 KB file header; its entry
    // count lives in header bytes 12..14.
    handle.write(8192 + 12, &0xFFFFu16.to_le_bytes()).unwrap();
    let mut file = MnemeFile::open(handle).unwrap();
    assert!(matches!(file.get(id), Err(MnemeError::Corrupt(_))));
    assert!(matches!(file.object_len(id), Err(MnemeError::Corrupt(_))));
    let report = file.validate().unwrap();
    assert!(!report.is_clean());
    assert!(report.problems.iter().any(|p| p.contains("8192+")), "{:?}", report.problems);
}

#[test]
fn huge_length_word_past_the_segment_is_reported_not_panicked_on() {
    let (_dev, handle, mut file) = huge_only();
    let id = file.create_object(PoolId(0), &[5u8; 3000]).unwrap();
    file.flush().unwrap();
    drop(file);
    // The length word (header bytes 4..8) claims more than the segment.
    handle.write(8192 + 4, &4000u32.to_le_bytes()).unwrap();
    let mut file = MnemeFile::open(handle).unwrap();
    assert!(matches!(file.get(id), Err(MnemeError::Corrupt(_))));
    // A prefix read sees the header, not the whole segment, and still
    // refuses a length past the segment's end.
    assert!(matches!(file.get_range(id, 0, 100), Err(MnemeError::Corrupt(_))));
    let report = file.validate().unwrap();
    assert!(!report.is_clean());
    assert!(report.problems.iter().any(|p| p.contains("payload length")), "{:?}", report.problems);
}
