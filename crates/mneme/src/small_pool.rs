//! The small object pool: 16-byte slots, 255 objects per 4 Kbyte segment.
//!
//! "In all of the test collections, approximately 50% of the inverted lists
//! are 12 bytes or less. By allocating a 16 byte object (4 bytes for a size
//! field) for every inverted list less than or equal to 12 bytes, we can
//! conveniently fit a whole logical segment (255 objects) in one 4 Kbyte
//! physical segment. This greatly simplifies both the indexing strategy used
//! to locate these objects in the file and the buffer management strategy
//! for these segments." (Section 3.3)
//!
//! Because slot position is a pure function of the object id, the segment
//! needs no object table: slot `s` lives at `HEADER + 16*s`, its first four
//! bytes are the payload length, and two length sentinels mark
//! never-allocated and deleted slots.

use std::ops::Range;

use crate::error::Result;
use crate::id::{ObjectId, PoolId};
use crate::pool::{
    corrupt, header_count, set_header_count, write_header, AppendOutcome, LocateResult, Pool,
    SEGMENT_HEADER_LEN,
};
use crate::segment::{SegmentImage, SegmentKind};

/// Bytes per slot: a 4-byte size field plus up to 12 payload bytes.
pub const SLOT_LEN: usize = 16;

/// Largest payload a small object can hold.
pub const MAX_SMALL_OBJECT: usize = SLOT_LEN - 4;

/// Total physical segment size: header + 255 slots, padded to 4 Kbytes.
pub const SMALL_SEGMENT_LEN: usize = 4096;

const LEN_UNALLOCATED: u32 = u32::MAX;
const LEN_DELETED: u32 = u32::MAX - 1;

/// The small object pool policy.
#[derive(Debug, Clone)]
pub struct SmallPool {
    id: PoolId,
}

impl SmallPool {
    /// Creates the policy for pool `id`.
    pub fn new(id: PoolId) -> Self {
        SmallPool { id }
    }

    fn slot_range(slot: u8) -> Range<usize> {
        let start = SEGMENT_HEADER_LEN + slot as usize * SLOT_LEN;
        start..start + SLOT_LEN
    }

    fn slot_len(seg: &[u8], slot: u8) -> u32 {
        let r = Self::slot_range(slot);
        u32::from_le_bytes(seg[r.start..r.start + 4].try_into().unwrap())
    }

    fn write_slot(seg: &mut [u8], slot: u8, data: &[u8]) {
        let r = Self::slot_range(slot);
        seg[r.start..r.start + 4].copy_from_slice(&(data.len() as u32).to_le_bytes());
        seg[r.start + 4..r.start + 4 + data.len()].copy_from_slice(data);
        // Zero the slack so segments are deterministic byte-for-byte.
        seg[r.start + 4 + data.len()..r.end].fill(0);
    }
}

impl Pool for SmallPool {
    fn id(&self) -> PoolId {
        self.id
    }

    fn kind(&self) -> SegmentKind {
        SegmentKind::FixedSlots
    }

    fn max_object_len(&self) -> Option<usize> {
        Some(MAX_SMALL_OBJECT)
    }

    fn new_segment(&self, first: ObjectId, _first_len: usize) -> SegmentImage {
        let mut bytes = vec![0u8; SMALL_SEGMENT_LEN];
        write_header(&mut bytes, SegmentKind::FixedSlots, self.id, 0, 0, first);
        // Mark every slot unallocated.
        for slot in 0..crate::id::SLOTS_PER_SEGMENT as u8 {
            let r = Self::slot_range(slot);
            bytes[r.start..r.start + 4].copy_from_slice(&LEN_UNALLOCATED.to_le_bytes());
        }
        SegmentImage::new_dirty(bytes)
    }

    fn try_append(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> AppendOutcome {
        assert!(data.len() <= MAX_SMALL_OBJECT, "caller must respect max_object_len");
        let slot = id.slot();
        if Self::slot_len(seg.bytes(), slot) != LEN_UNALLOCATED {
            return AppendOutcome::Full;
        }
        let bytes = seg.bytes_mut();
        Self::write_slot(bytes, slot, data);
        let count = header_count(bytes) + 1;
        set_header_count(bytes, count);
        AppendOutcome::Appended
    }

    fn locate(&self, seg: &[u8], id: ObjectId) -> LocateResult {
        if seg.len() < SMALL_SEGMENT_LEN {
            return LocateResult::Corrupt;
        }
        match Self::slot_len(seg, id.slot()) {
            LEN_UNALLOCATED => LocateResult::Absent,
            LEN_DELETED => LocateResult::Deleted,
            len if len as usize > MAX_SMALL_OBJECT => LocateResult::Corrupt,
            len => {
                let r = Self::slot_range(id.slot());
                LocateResult::Found(r.start + 4..r.start + 4 + len as usize)
            }
        }
    }

    fn try_update_in_place(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> bool {
        if data.len() > MAX_SMALL_OBJECT {
            return false;
        }
        match Self::slot_len(seg.bytes(), id.slot()) {
            LEN_UNALLOCATED | LEN_DELETED => false,
            _ => {
                Self::write_slot(seg.bytes_mut(), id.slot(), data);
                true
            }
        }
    }

    fn delete(&self, seg: &mut SegmentImage, id: ObjectId) -> bool {
        let slot = id.slot();
        match Self::slot_len(seg.bytes(), slot) {
            LEN_UNALLOCATED | LEN_DELETED => false,
            _ => {
                let bytes = seg.bytes_mut();
                let r = Self::slot_range(slot);
                bytes[r.start..r.start + 4].copy_from_slice(&LEN_DELETED.to_le_bytes());
                let count = header_count(bytes).saturating_sub(1);
                set_header_count(bytes, count);
                true
            }
        }
    }

    fn live_objects(&self, seg: &[u8]) -> Result<Vec<(ObjectId, Range<usize>)>> {
        if seg.len() < SMALL_SEGMENT_LEN {
            return Err(corrupt("truncated slot array", seg));
        }
        let first = ObjectId::from_raw(u32::from_le_bytes(seg[8..12].try_into().unwrap()))
            .ok_or_else(|| corrupt("invalid first object id", seg))?;
        let lseg = first.segment();
        let mut out = Vec::new();
        for slot in 0..crate::id::SLOTS_PER_SEGMENT as u8 {
            let len = Self::slot_len(seg, slot);
            if len == LEN_UNALLOCATED || len == LEN_DELETED {
                continue;
            }
            if len as usize > MAX_SMALL_OBJECT {
                return Err(corrupt(&format!("slot {slot} length {len}"), seg));
            }
            let r = Self::slot_range(slot);
            out.push((ObjectId::new(lseg, slot), r.start + 4..r.start + 4 + len as usize));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LogicalSegment;

    fn pool() -> SmallPool {
        SmallPool::new(PoolId(0))
    }

    fn oid(slot: u8) -> ObjectId {
        ObjectId::new(LogicalSegment(7), slot)
    }

    #[test]
    fn segment_is_exactly_4k_and_holds_255_objects() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 3);
        assert_eq!(seg.len(), 4096);
        for slot in 0..255u16 {
            let data = [slot as u8; 12];
            assert_eq!(p.try_append(&mut seg, oid(slot as u8), &data), AppendOutcome::Appended);
        }
        assert_eq!(header_count(seg.bytes()), 255);
        assert_eq!(p.live_objects(seg.bytes()).unwrap().len(), 255);
    }

    #[test]
    fn append_then_locate_round_trips() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(9), b"hello");
        match p.locate(seg.bytes(), oid(9)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"hello"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.locate(seg.bytes(), oid(10)), LocateResult::Absent);
    }

    #[test]
    fn empty_payload_is_allowed() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(0), b"");
        match p.locate(seg.bytes(), oid(0)) {
            LocateResult::Found(r) => assert!(r.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn double_append_to_same_slot_reports_full() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        assert_eq!(p.try_append(&mut seg, oid(4), b"a"), AppendOutcome::Appended);
        assert_eq!(p.try_append(&mut seg, oid(4), b"b"), AppendOutcome::Full);
    }

    #[test]
    fn update_in_place_overwrites_and_respects_limits() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(3), b"abcdef");
        assert!(p.try_update_in_place(&mut seg, oid(3), b"xy"));
        match p.locate(seg.bytes(), oid(3)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"xy"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!p.try_update_in_place(&mut seg, oid(3), &[0u8; 13]), "13 bytes exceeds slot");
        assert!(!p.try_update_in_place(&mut seg, oid(8), b"q"), "absent object");
    }

    #[test]
    fn delete_marks_slot_and_updates_count() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(1), b"abc");
        p.try_append(&mut seg, oid(2), b"def");
        assert!(p.delete(&mut seg, oid(1)));
        assert!(!p.delete(&mut seg, oid(1)), "double delete is false");
        assert_eq!(p.locate(seg.bytes(), oid(1)), LocateResult::Deleted);
        assert_eq!(header_count(seg.bytes()), 1);
        let live = p.live_objects(seg.bytes()).unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, oid(2));
    }

    #[test]
    fn max_payload_fits_exactly() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        let data = [0xAB; MAX_SMALL_OBJECT];
        assert_eq!(p.try_append(&mut seg, oid(250), &data), AppendOutcome::Appended);
        match p.locate(seg.bytes(), oid(250)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], &data),
            other => panic!("unexpected {other:?}"),
        }
    }
}
