//! The medium ("packed") object pool: slotted segments.
//!
//! "The remaining inverted lists form the third group of objects and were
//! allocated in a medium object pool. These objects are packed into 8 Kbyte
//! physical segments. The physical segment size is based on the disk I/O
//! block size and a desire to keep the segments relatively small so as to
//! reduce the number of unused objects retrieved with each segment."
//! (Section 3.3)
//!
//! The layout is a classic slotted page: object payloads grow forward from
//! the header, a table of `(id, offset, len)` entries grows backward from
//! the segment end. Entries stay sorted by id because the file layer
//! allocates ids sequentially, so lookup is a binary search.
//!
//! The build path packs objects into segments of the pool's configured
//! size. An object relocated by an update that outgrew its segment gets a
//! segment of its own, one size class larger than it needs
//! ([`crate::pool::relocation_capacity`]); every offset is therefore taken
//! from the segment's own length, never from the configured size.

use std::ops::Range;

use crate::error::Result;
use crate::id::{ObjectId, PoolId};
use crate::pool::{
    corrupt, header_count, header_word, relocation_capacity, set_header_count, set_header_word,
    write_header, AppendOutcome, LocateResult, Pool, SEGMENT_HEADER_LEN,
};
use crate::segment::{SegmentImage, SegmentKind};

/// Bytes per object-table entry: id (4) + offset (4) + length (4).
const ENTRY_LEN: usize = 12;

/// Length sentinel marking a deleted entry.
const LEN_DELETED: u32 = u32::MAX;

/// The medium object pool policy.
#[derive(Debug, Clone)]
pub struct PackedPool {
    id: PoolId,
    segment_size: usize,
}

impl PackedPool {
    /// Creates a packed pool writing segments of `segment_size` bytes.
    ///
    /// # Panics
    /// Panics if the segment is too small to hold the header, one table
    /// entry, and at least one payload byte.
    pub fn new(id: PoolId, segment_size: usize) -> Self {
        assert!(
            segment_size > SEGMENT_HEADER_LEN + ENTRY_LEN,
            "segment size {segment_size} cannot hold any object"
        );
        assert!(segment_size <= u32::MAX as usize, "segment size must fit in 32 bits");
        PackedPool { id, segment_size }
    }

    /// The segment size the build path packs objects into.
    pub fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// Largest payload that fits in an otherwise empty segment.
    pub fn max_payload(&self) -> usize {
        self.segment_size - SEGMENT_HEADER_LEN - ENTRY_LEN
    }

    /// A segment of `len` bytes holding no objects yet.
    fn empty_segment(&self, first: ObjectId, len: usize) -> SegmentImage {
        let mut bytes = vec![0u8; len];
        write_header(&mut bytes, SegmentKind::Packed, self.id, 0, SEGMENT_HEADER_LEN as u32, first);
        Self::set_entries(&mut bytes, 0);
        SegmentImage::new_dirty(bytes)
    }

    /// Entry `index` of the table at the end of `seg` (entry 0 last).
    fn entry_range(seg: &[u8], index: usize) -> Range<usize> {
        let end = seg.len() - index * ENTRY_LEN;
        end - ENTRY_LEN..end
    }

    fn read_entry(seg: &[u8], index: usize) -> (u32, u32, u32) {
        let e = &seg[Self::entry_range(seg, index)];
        (
            u32::from_le_bytes(e[0..4].try_into().unwrap()),
            u32::from_le_bytes(e[4..8].try_into().unwrap()),
            u32::from_le_bytes(e[8..12].try_into().unwrap()),
        )
    }

    fn write_entry(seg: &mut [u8], index: usize, id: u32, offset: u32, len: u32) {
        let r = Self::entry_range(seg, index);
        let e = &mut seg[r];
        e[0..4].copy_from_slice(&id.to_le_bytes());
        e[4..8].copy_from_slice(&offset.to_le_bytes());
        e[8..12].copy_from_slice(&len.to_le_bytes());
    }

    /// Total number of table entries (live + deleted), kept in bytes
    /// [12..14] of the header's reserved area. `None` when the header is
    /// truncated or the table would not fit beside it.
    fn entries(seg: &[u8]) -> Option<usize> {
        let n = u16::from_le_bytes(seg.get(12..14)?.try_into().unwrap()) as usize;
        (SEGMENT_HEADER_LEN + n * ENTRY_LEN <= seg.len()).then_some(n)
    }

    fn set_entries(seg: &mut [u8], n: usize) {
        seg[12..14].copy_from_slice(&(n as u16).to_le_bytes());
    }

    /// Binary search over the (id-sorted) entry table of `n` entries.
    fn find_entry(seg: &[u8], n: usize, id: ObjectId) -> Option<usize> {
        let raw = id.raw();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (eid, _, _) = Self::read_entry(seg, mid);
            match eid.cmp(&raw) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Where the payload area ends and the entry table starts; `None`
    /// when the header's payload end lies outside the space between them.
    fn layout(seg: &[u8]) -> Option<(usize, usize)> {
        let n = Self::entries(seg)?;
        let payload_end = header_word(seg) as usize;
        let table_start = seg.len() - n * ENTRY_LEN;
        (SEGMENT_HEADER_LEN..=table_start)
            .contains(&payload_end)
            .then_some((payload_end, table_start))
    }

    fn free_space(seg: &[u8]) -> usize {
        Self::layout(seg).map_or(0, |(payload_end, table_start)| table_start - payload_end)
    }
}

impl Pool for PackedPool {
    fn id(&self) -> PoolId {
        self.id
    }

    fn kind(&self) -> SegmentKind {
        SegmentKind::Packed
    }

    fn max_object_len(&self) -> Option<usize> {
        Some(self.max_payload())
    }

    fn new_segment(&self, first: ObjectId, _first_len: usize) -> SegmentImage {
        self.empty_segment(first, self.segment_size)
    }

    /// A relocated object gets a packed segment of its own size class
    /// instead of a whole build-size segment.
    fn relocation_segment(&self, id: ObjectId, len: usize) -> SegmentImage {
        let exact = SEGMENT_HEADER_LEN + ENTRY_LEN + len;
        self.empty_segment(id, relocation_capacity(exact).min(self.segment_size))
    }

    fn try_append(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> AppendOutcome {
        assert!(data.len() <= self.max_payload(), "caller must respect max_object_len");
        if Self::free_space(seg.bytes()) < data.len() + ENTRY_LEN {
            return AppendOutcome::Full;
        }
        let n = Self::entries(seg.bytes()).expect("free space implies a sound table");
        if n > 0 {
            let (last_id, _, _) = Self::read_entry(seg.bytes(), n - 1);
            assert!(last_id < id.raw(), "objects must be appended in ascending id order");
        }
        let bytes = seg.bytes_mut();
        let offset = header_word(bytes) as usize;
        bytes[offset..offset + data.len()].copy_from_slice(data);
        set_header_word(bytes, (offset + data.len()) as u32);
        Self::write_entry(bytes, n, id.raw(), offset as u32, data.len() as u32);
        Self::set_entries(bytes, n + 1);
        let count = header_count(bytes) + 1;
        set_header_count(bytes, count);
        AppendOutcome::Appended
    }

    fn locate(&self, seg: &[u8], id: ObjectId) -> LocateResult {
        let Some(n) = Self::entries(seg) else { return LocateResult::Corrupt };
        match Self::find_entry(seg, n, id) {
            None => LocateResult::Absent,
            Some(i) => {
                let (_, offset, len) = Self::read_entry(seg, i);
                if len == LEN_DELETED {
                    LocateResult::Deleted
                } else {
                    LocateResult::Found(offset as usize..offset as usize + len as usize)
                }
            }
        }
    }

    fn try_update_in_place(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> bool {
        let Some((payload_end, table_start)) = Self::layout(seg.bytes()) else { return false };
        let n = (seg.len() - table_start) / ENTRY_LEN;
        let Some(i) = Self::find_entry(seg.bytes(), n, id) else { return false };
        let (eid, offset, len) = Self::read_entry(seg.bytes(), i);
        let (start, end) = (offset as usize, offset as usize + len as usize);
        if len == LEN_DELETED || start < SEGMENT_HEADER_LEN || end > payload_end {
            return false;
        }
        // Shrink or same size overwrites in place; so does growth of the
        // last payload into the free space behind it. Other growth moves
        // the payload to the free space's start.
        let is_last = end == payload_end;
        let new_offset =
            if data.len() <= len as usize || is_last && table_start - start >= data.len() {
                start
            } else if table_start - payload_end >= data.len() {
                payload_end
            } else {
                return false;
            };
        let bytes = seg.bytes_mut();
        bytes[new_offset..new_offset + data.len()].copy_from_slice(data);
        if new_offset != start || is_last {
            set_header_word(bytes, (new_offset + data.len()) as u32);
        }
        Self::write_entry(bytes, i, eid, new_offset as u32, data.len() as u32);
        true
    }

    fn delete(&self, seg: &mut SegmentImage, id: ObjectId) -> bool {
        let Some(n) = Self::entries(seg.bytes()) else { return false };
        let Some(i) = Self::find_entry(seg.bytes(), n, id) else { return false };
        let (eid, offset, len) = Self::read_entry(seg.bytes(), i);
        if len == LEN_DELETED {
            return false;
        }
        let bytes = seg.bytes_mut();
        Self::write_entry(bytes, i, eid, offset, LEN_DELETED);
        let count = header_count(bytes).saturating_sub(1);
        set_header_count(bytes, count);
        true
    }

    fn live_objects(&self, seg: &[u8]) -> Result<Vec<(ObjectId, Range<usize>)>> {
        let (payload_end, _) =
            Self::layout(seg).ok_or_else(|| corrupt("packed header or entry table", seg))?;
        let n = Self::entries(seg).expect("layout checked the table");
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (id, offset, len) = Self::read_entry(seg, i);
            if len == LEN_DELETED {
                continue;
            }
            let range = offset as usize..offset as usize + len as usize;
            let id = ObjectId::from_raw(id)
                .filter(|_| range.start >= SEGMENT_HEADER_LEN && range.end <= payload_end);
            out.push((id.ok_or_else(|| corrupt(&format!("packed entry {i}"), seg))?, range));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LogicalSegment;

    fn pool() -> PackedPool {
        PackedPool::new(PoolId(1), 256)
    }

    fn oid(n: u32) -> ObjectId {
        ObjectId::new(LogicalSegment(n / 255), (n % 255) as u8)
    }

    #[test]
    fn append_locate_round_trip() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 10);
        assert_eq!(p.try_append(&mut seg, oid(0), b"first"), AppendOutcome::Appended);
        assert_eq!(p.try_append(&mut seg, oid(1), b"second!"), AppendOutcome::Appended);
        match p.locate(seg.bytes(), oid(0)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"first"),
            o => panic!("{o:?}"),
        }
        match p.locate(seg.bytes(), oid(1)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"second!"),
            o => panic!("{o:?}"),
        }
        assert_eq!(p.locate(seg.bytes(), oid(2)), LocateResult::Absent);
    }

    #[test]
    fn fills_until_capacity_then_reports_full() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        let mut appended = 0u32;
        loop {
            let data = [appended as u8; 20];
            match p.try_append(&mut seg, oid(appended), &data) {
                AppendOutcome::Appended => appended += 1,
                AppendOutcome::Full => break,
            }
        }
        // 256 - 16 header = 240; each object costs 20 + 12 = 32 → 7 objects.
        assert_eq!(appended, 7);
        assert_eq!(p.live_objects(seg.bytes()).unwrap().len(), 7);
        // The segment stays internally consistent after being full.
        for i in 0..7 {
            match p.locate(seg.bytes(), oid(i)) {
                LocateResult::Found(r) => assert_eq!(seg.bytes()[r.start], i as u8),
                o => panic!("{o:?}"),
            }
        }
    }

    #[test]
    fn max_payload_object_fits_alone() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), p.max_payload());
        let data = vec![7u8; p.max_payload()];
        assert_eq!(p.try_append(&mut seg, oid(0), &data), AppendOutcome::Appended);
        assert_eq!(p.try_append(&mut seg, oid(1), b""), AppendOutcome::Full);
    }

    #[test]
    #[should_panic(expected = "ascending id order")]
    fn out_of_order_append_is_rejected() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(5), b"x");
        p.try_append(&mut seg, oid(3), b"y");
    }

    #[test]
    fn update_shrink_and_grow_in_place() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(0), b"abcdef");
        p.try_append(&mut seg, oid(1), b"tail");
        // Shrink.
        assert!(p.try_update_in_place(&mut seg, oid(0), b"ab"));
        match p.locate(seg.bytes(), oid(0)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"ab"),
            o => panic!("{o:?}"),
        }
        // Grow: relocated to payload end within the segment.
        assert!(p.try_update_in_place(&mut seg, oid(0), b"0123456789"));
        match p.locate(seg.bytes(), oid(0)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"0123456789"),
            o => panic!("{o:?}"),
        }
        // The neighbour is untouched.
        match p.locate(seg.bytes(), oid(1)) {
            LocateResult::Found(r) => assert_eq!(&seg.bytes()[r], b"tail"),
            o => panic!("{o:?}"),
        }
        // Grow beyond free space fails.
        let huge = vec![1u8; p.max_payload()];
        assert!(!p.try_update_in_place(&mut seg, oid(0), &huge));
        // Updating an absent object fails.
        assert!(!p.try_update_in_place(&mut seg, oid(9), b"zz"));
    }

    #[test]
    fn delete_hides_object_but_keeps_neighbours() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        for i in 0..3 {
            p.try_append(&mut seg, oid(i), &[i as u8; 8]);
        }
        assert!(p.delete(&mut seg, oid(1)));
        assert!(!p.delete(&mut seg, oid(1)));
        assert_eq!(p.locate(seg.bytes(), oid(1)), LocateResult::Deleted);
        assert!(!p.try_update_in_place(&mut seg, oid(1), b"x"), "deleted object not updatable");
        let live = p.live_objects(seg.bytes()).unwrap();
        assert_eq!(live.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![oid(0), oid(2)]);
        assert_eq!(header_count(seg.bytes()), 2);
    }

    #[test]
    fn ids_spanning_logical_segments_still_sort() {
        let p = PackedPool::new(PoolId(1), 4096);
        let mut seg = p.new_segment(oid(253), 0);
        // Crosses the boundary between lseg 0 (slots 253,254) and lseg 1.
        for n in 253..260 {
            assert_eq!(p.try_append(&mut seg, oid(n), &[n as u8]), AppendOutcome::Appended);
        }
        for n in 253..260 {
            match p.locate(seg.bytes(), oid(n)) {
                LocateResult::Found(r) => assert_eq!(seg.bytes()[r.start], n as u8),
                o => panic!("{o:?}"),
            }
        }
    }

    #[test]
    fn relocation_segments_are_one_size_class_not_build_size() {
        let p = PackedPool::new(PoolId(1), 8192);
        let seg = p.relocation_segment(oid(0), 100);
        // 16 header + 12 entry + 100 payload = 128, ×9/8 = 144, up to 64 B.
        assert_eq!(seg.len(), 192);
        assert_eq!(p.relocation_segment(oid(0), p.max_payload()).len(), 8192);
        assert_eq!(p.new_segment(oid(0), 100).len(), 8192, "the build path keeps its size");
    }

    #[test]
    fn last_object_grows_in_place_within_its_segment() {
        let p = PackedPool::new(PoolId(1), 8192);
        let mut seg = p.relocation_segment(oid(4), 100);
        assert_eq!(p.try_append(&mut seg, oid(4), &[1u8; 100]), AppendOutcome::Appended);
        let mut grown = vec![1u8; 100];
        grown.extend_from_slice(&[2u8; 40]);
        assert!(p.try_update_in_place(&mut seg, oid(4), &grown));
        assert_eq!(p.locate(seg.bytes(), oid(4)), LocateResult::Found(16..156));
        assert_eq!(header_word(seg.bytes()), 156);
        // Past the segment's headroom the object must move.
        assert!(!p.try_update_in_place(&mut seg, oid(4), &[3u8; 200]));
        assert_eq!(p.live_objects(seg.bytes()).unwrap(), vec![(oid(4), 16..156)]);
    }

    #[test]
    fn corrupt_tables_are_reported_not_panicked_on() {
        let p = pool();
        let mut seg = p.new_segment(oid(0), 0);
        p.try_append(&mut seg, oid(0), b"payload");
        // An entry count the segment cannot hold.
        let mut bytes = seg.bytes().to_vec();
        bytes[12..14].copy_from_slice(&0xFFFFu16.to_le_bytes());
        assert_eq!(p.locate(&bytes, oid(0)), LocateResult::Corrupt);
        assert!(p.live_objects(&bytes).is_err());
        // An entry pointing past the payload area.
        let mut bytes = seg.bytes().to_vec();
        let at = bytes.len() - ENTRY_LEN + 4;
        bytes[at..at + 4].copy_from_slice(&5000u32.to_le_bytes());
        assert!(p.live_objects(&bytes).is_err());
        // A payload end past the table.
        let mut bytes = seg.bytes().to_vec();
        set_header_word(&mut bytes, 9999);
        assert!(p.live_objects(&bytes).is_err());
        let mut image = SegmentImage::from_disk(bytes);
        assert!(!p.try_update_in_place(&mut image, oid(0), b"x"));
        // Too short to hold a header at all.
        assert_eq!(p.locate(&[2, 1, 0], oid(0)), LocateResult::Corrupt);
    }

    #[test]
    #[should_panic(expected = "cannot hold any object")]
    fn rejects_degenerate_segment_size() {
        PackedPool::new(PoolId(1), 20);
    }
}
