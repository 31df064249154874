//! The large object pool: one object per physical segment.
//!
//! "A number of inverted lists are so large, it is not reasonable to cluster
//! them with other objects in the same physical segment. Instead, these
//! lists are allocated in their own physical segment. All inverted lists
//! larger than 4 Kbytes were allocated in this fashion in a large object
//! pool." (Section 3.3)
//!
//! Physical segments are "of arbitrary size" (Section 3.2), so each segment
//! the build path writes is exactly `HEADER + payload` bytes. An object
//! relocated by an update that outgrew its segment gets one size class of
//! headroom ([`crate::pool::relocation_capacity`]). The pool-specific header
//! word stores the payload length, allowing in-place updates that shrink (or
//! grow within the allocated capacity) without touching the location tables.

use std::ops::Range;

use crate::error::Result;
use crate::id::{ObjectId, PoolId};
use crate::pool::{
    corrupt, header_word, relocation_capacity, set_header_count, set_header_word, write_header,
    AppendOutcome, LocateResult, Pool, SEGMENT_HEADER_LEN,
};
use crate::segment::{SegmentImage, SegmentKind};

/// Payload length sentinel marking a deleted object.
const LEN_DELETED: u32 = u32::MAX;

/// The large object pool policy.
#[derive(Debug, Clone)]
pub struct HugePool {
    id: PoolId,
}

impl HugePool {
    /// Creates the policy for pool `id`.
    pub fn new(id: PoolId) -> Self {
        HugePool { id }
    }

    fn stored_id(seg: &[u8]) -> u32 {
        u32::from_le_bytes(seg[8..12].try_into().unwrap())
    }

    fn segment(&self, first: ObjectId, len: usize) -> SegmentImage {
        let mut bytes = vec![0u8; len];
        write_header(&mut bytes, SegmentKind::SingleObject, self.id, 0, 0, first);
        SegmentImage::new_dirty(bytes)
    }
}

impl Pool for HugePool {
    fn id(&self) -> PoolId {
        self.id
    }

    fn kind(&self) -> SegmentKind {
        SegmentKind::SingleObject
    }

    fn max_object_len(&self) -> Option<usize> {
        None
    }

    fn new_segment(&self, first: ObjectId, first_len: usize) -> SegmentImage {
        self.segment(first, SEGMENT_HEADER_LEN + first_len)
    }

    fn relocation_segment(&self, id: ObjectId, len: usize) -> SegmentImage {
        self.segment(id, relocation_capacity(SEGMENT_HEADER_LEN + len))
    }

    fn try_append(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> AppendOutcome {
        if crate::pool::header_count(seg.bytes()) != 0 || Self::stored_id(seg.bytes()) != id.raw() {
            return AppendOutcome::Full;
        }
        if seg.len() < SEGMENT_HEADER_LEN + data.len() {
            return AppendOutcome::Full;
        }
        let bytes = seg.bytes_mut();
        bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + data.len()].copy_from_slice(data);
        set_header_word(bytes, data.len() as u32);
        set_header_count(bytes, 1);
        AppendOutcome::Appended
    }

    fn locate(&self, seg: &[u8], id: ObjectId) -> LocateResult {
        if seg.len() < SEGMENT_HEADER_LEN {
            return LocateResult::Corrupt;
        }
        if Self::stored_id(seg) != id.raw() {
            return LocateResult::Absent;
        }
        let len = header_word(seg);
        if len == LEN_DELETED {
            return LocateResult::Deleted;
        }
        if crate::pool::header_count(seg) == 0 {
            return LocateResult::Absent;
        }
        LocateResult::Found(SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + len as usize)
    }

    fn try_update_in_place(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> bool {
        match self.locate(seg.bytes(), id) {
            LocateResult::Found(_) => {}
            _ => return false,
        }
        let capacity = seg.len() - SEGMENT_HEADER_LEN;
        if data.len() > capacity {
            return false;
        }
        let bytes = seg.bytes_mut();
        bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + data.len()].copy_from_slice(data);
        set_header_word(bytes, data.len() as u32);
        true
    }

    fn delete(&self, seg: &mut SegmentImage, id: ObjectId) -> bool {
        match self.locate(seg.bytes(), id) {
            LocateResult::Found(_) => {
                let bytes = seg.bytes_mut();
                set_header_word(bytes, LEN_DELETED);
                set_header_count(bytes, 0);
                true
            }
            _ => false,
        }
    }

    fn live_objects(&self, seg: &[u8]) -> Result<Vec<(ObjectId, Range<usize>)>> {
        if seg.len() < SEGMENT_HEADER_LEN {
            return Err(corrupt("truncated header", seg));
        }
        if crate::pool::header_count(seg) == 0 || header_word(seg) == LEN_DELETED {
            return Ok(Vec::new());
        }
        let range = SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + header_word(seg) as usize;
        if range.end > seg.len() {
            return Err(corrupt(&format!("payload length {}", range.len()), seg));
        }
        let id = ObjectId::from_raw(Self::stored_id(seg))
            .ok_or_else(|| corrupt("invalid object id", seg))?;
        Ok(vec![(id, range)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LogicalSegment;

    fn oid(slot: u8) -> ObjectId {
        ObjectId::new(LogicalSegment(2), slot)
    }

    #[test]
    fn one_object_per_segment() {
        let p = HugePool::new(PoolId(2));
        let data = vec![0x5A; 10_000];
        let mut seg = p.new_segment(oid(0), data.len());
        assert_eq!(seg.len(), SEGMENT_HEADER_LEN + 10_000);
        assert_eq!(p.try_append(&mut seg, oid(0), &data), AppendOutcome::Appended);
        assert_eq!(p.try_append(&mut seg, oid(1), b"more"), AppendOutcome::Full);
        match p.locate(seg.bytes(), oid(0)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], &data[..]),
            o => panic!("{o:?}"),
        }
        assert_eq!(p.locate(seg.bytes(), oid(1)), LocateResult::Absent);
        assert_eq!(p.live_objects(seg.bytes()).unwrap().len(), 1);
    }

    #[test]
    fn append_requires_matching_id() {
        let p = HugePool::new(PoolId(2));
        let mut seg = p.new_segment(oid(0), 4);
        assert_eq!(p.try_append(&mut seg, oid(5), b"data"), AppendOutcome::Full);
    }

    #[test]
    fn update_within_capacity_and_shrink() {
        let p = HugePool::new(PoolId(2));
        let mut seg = p.new_segment(oid(3), 8);
        p.try_append(&mut seg, oid(3), b"12345678");
        assert!(p.try_update_in_place(&mut seg, oid(3), b"abc"));
        match p.locate(seg.bytes(), oid(3)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"abc"),
            o => panic!("{o:?}"),
        }
        // Growing back up to original capacity works...
        assert!(p.try_update_in_place(&mut seg, oid(3), b"ABCDEFGH"));
        // ...but exceeding it does not.
        assert!(!p.try_update_in_place(&mut seg, oid(3), b"ABCDEFGHI"));
    }

    #[test]
    fn delete_then_queries_report_deleted() {
        let p = HugePool::new(PoolId(2));
        let mut seg = p.new_segment(oid(3), 4);
        p.try_append(&mut seg, oid(3), b"live");
        assert!(p.delete(&mut seg, oid(3)));
        assert!(!p.delete(&mut seg, oid(3)));
        assert_eq!(p.locate(seg.bytes(), oid(3)), LocateResult::Deleted);
        assert!(p.live_objects(seg.bytes()).unwrap().is_empty());
        assert!(!p.try_update_in_place(&mut seg, oid(3), b"x"));
    }

    #[test]
    fn empty_object_is_storable() {
        let p = HugePool::new(PoolId(2));
        let mut seg = p.new_segment(oid(0), 0);
        assert_eq!(p.try_append(&mut seg, oid(0), b""), AppendOutcome::Appended);
        match p.locate(seg.bytes(), oid(0)) {
            LocateResult::Found(r) => assert!(r.is_empty()),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn relocated_objects_get_one_size_class_of_headroom() {
        let p = HugePool::new(PoolId(2));
        let mut seg = p.relocation_segment(oid(1), 10_000);
        // (16 + 10,000) × 9/8 = 11,268, rounded up to 64 B.
        assert_eq!(seg.len(), 11_328);
        assert_eq!(p.try_append(&mut seg, oid(1), &[1u8; 10_000]), AppendOutcome::Appended);
        assert!(p.try_update_in_place(&mut seg, oid(1), &[1u8; 11_312]));
        assert!(!p.try_update_in_place(&mut seg, oid(1), &[1u8; 11_313]));
    }

    #[test]
    fn length_word_past_the_segment_is_corrupt() {
        let p = HugePool::new(PoolId(2));
        let mut seg = p.new_segment(oid(3), 8);
        p.try_append(&mut seg, oid(3), b"12345678");
        set_header_word(seg.bytes_mut(), 9);
        assert!(p.live_objects(seg.bytes()).is_err());
        assert_eq!(p.locate(&seg.bytes()[..10], oid(3)), LocateResult::Corrupt);
    }
}
