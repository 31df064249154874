//! The pool abstraction: Mneme's primary extensibility mechanism.
//!
//! "Objects are also logically grouped into pools, where a pool defines a
//! number of management policies for the objects contained in the pool, such
//! as how large the physical segments are, how the objects are laid out in a
//! physical segment, how objects are located within a file, and how objects
//! are created." (Section 3.2)
//!
//! A [`Pool`] implementation owns the byte layout of its physical segments;
//! the file layer ([`crate::MnemeFile`]) only ever manipulates segments
//! through this trait. Three built-in pools implement the paper's
//! three-group partition of inverted lists:
//!
//! * [`crate::SmallPool`] — 16-byte fixed slots, one whole logical segment
//!   (255 objects) per 4 Kbyte physical segment;
//! * [`crate::PackedPool`] — medium objects packed into slotted segments of
//!   a configured build size (default 8 Kbyte);
//! * [`crate::HugePool`] — one object per physical segment.
//!
//! Segments the build path creates have exact sizes. An object an update
//! moves out of a segment it outgrew gets one size class of headroom
//! ([`relocation_capacity`], [`Pool::relocation_segment`]).

use std::ops::Range;

use crate::error::{MnemeError, Result};
use crate::id::{ObjectId, PoolId};
use crate::segment::{SegmentImage, SegmentKind};

/// Fixed common header at the start of every physical segment.
///
/// Layout (little-endian):
/// ```text
/// [0]      segment kind (SegmentKind)
/// [1]      pool id
/// [2..4]   live object count (u16)
/// [4..8]   pool-specific word (packed: payload end; huge: object length)
/// [8..12]  raw id of the first object placed in the segment
/// [12..16] reserved (zero)
/// ```
pub const SEGMENT_HEADER_LEN: usize = 16;

/// The segment length a relocated object gets: `exact` bytes (payload plus
/// the pool's per-object overhead) raised by one geometric size class,
/// ×9/8, and rounded up to 64 bytes. Only relocations use it; the build
/// path allocates exact sizes.
///
/// The class was chosen on `update_mix` (scale 0.2, seed 1): from ×9/8 to
/// ×2 the relocations stay within 0.1% (13,246 vs 13,235; within 0.6% over
/// a script three times as long), almost all of them a record's first
/// append after the build, while a larger class only adds padding: store
/// bytes per text byte 0.99 at ×9/8, 1.02 at ×5/4, 1.22 at ×2, and 10.2
/// with no headroom (28,538 relocations).
pub fn relocation_capacity(exact: usize) -> usize {
    (exact + exact / 8).next_multiple_of(64)
}

/// [`MnemeError::Corrupt`] for a segment whose header does not fit its
/// length.
pub(crate) fn corrupt(what: &str, seg: &[u8]) -> MnemeError {
    MnemeError::Corrupt(format!("{what} in a {}-byte segment", seg.len()))
}

/// Result of attempting to place an object into a segment image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The object was written into the segment.
    Appended,
    /// The segment has no room (or no free slot) for this object; the caller
    /// must start a new segment.
    Full,
}

/// Result of looking an object up inside a segment image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocateResult {
    /// Byte range of the object's payload within the segment.
    Found(Range<usize>),
    /// The slot exists but the object was deleted.
    Deleted,
    /// The object was never stored in this segment.
    Absent,
    /// The segment's header or object table is inconsistent with its
    /// length, so the object cannot be located.
    Corrupt,
}

/// Management policies for one group of objects.
///
/// All methods operate on segment *images*; pools never perform I/O
/// themselves — that separation is what lets the file layer route segments
/// through per-pool buffers.
pub trait Pool: Send {
    /// This pool's identifier within its file.
    fn id(&self) -> PoolId;

    /// The segment layout this pool writes.
    fn kind(&self) -> SegmentKind;

    /// Largest object this pool accepts, if bounded.
    fn max_object_len(&self) -> Option<usize>;

    /// Creates a fresh segment image ready to receive `first` (whose payload
    /// will be `first_len` bytes — only the single-object pool needs it).
    /// This is the build path's segment: the pool's own size, no headroom.
    fn new_segment(&self, first: ObjectId, first_len: usize) -> SegmentImage;

    /// Creates a segment for object `id` moved out of its old segment by an
    /// update that outgrew it: room for `len` payload bytes plus one size
    /// class of headroom ([`relocation_capacity`]), so the appends that
    /// follow update it in place. Defaults to [`Pool::new_segment`], for
    /// pools whose segments all have one size.
    fn relocation_segment(&self, id: ObjectId, len: usize) -> SegmentImage {
        self.new_segment(id, len)
    }

    /// Attempts to write `data` as object `id` into `seg`.
    ///
    /// Objects must be appended in ascending id order within a segment; the
    /// file layer's sequential id allocation guarantees this.
    fn try_append(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> AppendOutcome;

    /// Finds object `id` inside `seg`. Never panics on corrupt bytes. A
    /// [`LocateResult::Found`] range comes from the segment header and may
    /// extend past `seg` when the header is corrupt or `seg` is a prefix of
    /// the segment; callers bound it by the segment length.
    fn locate(&self, seg: &[u8], id: ObjectId) -> LocateResult;

    /// Overwrites object `id` in place if the new payload fits; returns
    /// `false` when the object must be relocated instead.
    fn try_update_in_place(&self, seg: &mut SegmentImage, id: ObjectId, data: &[u8]) -> bool;

    /// Marks object `id` deleted. Returns whether it was present and live.
    fn delete(&self, seg: &mut SegmentImage, id: ObjectId) -> bool;

    /// Lists the live objects in a segment (id and payload range, inside
    /// `seg`). A header or object table inconsistent with the segment's
    /// length is [`MnemeError::Corrupt`].
    fn live_objects(&self, seg: &[u8]) -> Result<Vec<(ObjectId, Range<usize>)>>;
}

/// Serializable description of a pool, stored in the file header so a file
/// reopens with the pools it was created with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Pool identifier, unique within the file.
    pub id: PoolId,
    /// Layout policy.
    pub kind: PoolKindConfig,
}

/// The layout policy choices for built-in pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKindConfig {
    /// 16-byte slots (4-byte size field + up to 12 data bytes), 255 per
    /// 4 Kbyte segment.
    Small,
    /// Objects packed into fixed segments of the given size.
    Packed { segment_size: u32 },
    /// One object per segment.
    SegmentPerObject,
}

impl PoolConfig {
    /// Encodes to the 8-byte header representation.
    pub(crate) fn encode(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0] = self.id.0;
        match self.kind {
            PoolKindConfig::Small => out[1] = 1,
            PoolKindConfig::Packed { segment_size } => {
                out[1] = 2;
                out[2..6].copy_from_slice(&segment_size.to_le_bytes());
            }
            // Byte 2 stays 0: it once flagged embedded reference tables,
            // and `decode` refuses any other value.
            PoolKindConfig::SegmentPerObject => out[1] = 3,
        }
        out
    }

    /// Decodes the 8-byte header representation.
    pub(crate) fn decode(raw: &[u8; 8]) -> Option<PoolConfig> {
        let id = PoolId(raw[0]);
        let kind = match raw[1] {
            1 => PoolKindConfig::Small,
            2 => PoolKindConfig::Packed {
                segment_size: u32::from_le_bytes(raw[2..6].try_into().unwrap()),
            },
            3 if raw[2] == 0 => PoolKindConfig::SegmentPerObject,
            _ => return None,
        };
        Some(PoolConfig { id, kind })
    }

    /// Instantiates the pool this configuration describes.
    pub fn build(&self) -> Box<dyn Pool> {
        match self.kind {
            PoolKindConfig::Small => Box::new(crate::small_pool::SmallPool::new(self.id)),
            PoolKindConfig::Packed { segment_size } => {
                Box::new(crate::packed_pool::PackedPool::new(self.id, segment_size as usize))
            }
            PoolKindConfig::SegmentPerObject => Box::new(crate::huge_pool::HugePool::new(self.id)),
        }
    }
}

/// Writes the common segment header into a fresh buffer.
pub(crate) fn write_header(
    buf: &mut [u8],
    kind: SegmentKind,
    pool: PoolId,
    count: u16,
    word: u32,
    first: ObjectId,
) {
    buf[0] = kind as u8;
    buf[1] = pool.0;
    buf[2..4].copy_from_slice(&count.to_le_bytes());
    buf[4..8].copy_from_slice(&word.to_le_bytes());
    buf[8..12].copy_from_slice(&first.raw().to_le_bytes());
    buf[12..16].fill(0);
}

/// Reads the live-object count from a segment header.
pub(crate) fn header_count(seg: &[u8]) -> u16 {
    u16::from_le_bytes(seg[2..4].try_into().unwrap())
}

/// Adjusts the live-object count in a segment header.
pub(crate) fn set_header_count(seg: &mut [u8], count: u16) {
    seg[2..4].copy_from_slice(&count.to_le_bytes());
}

/// Reads the pool-specific header word.
pub(crate) fn header_word(seg: &[u8]) -> u32 {
    u32::from_le_bytes(seg[4..8].try_into().unwrap())
}

/// Writes the pool-specific header word.
pub(crate) fn set_header_word(seg: &mut [u8], word: u32) {
    seg[4..8].copy_from_slice(&word.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LogicalSegment;

    #[test]
    fn pool_config_round_trips() {
        let configs = [
            PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
            PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 8192 } },
            PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
        ];
        for c in &configs {
            assert_eq!(PoolConfig::decode(&c.encode()).as_ref(), Some(c));
        }
        assert_eq!(PoolConfig::decode(&[0, 9, 0, 0, 0, 0, 0, 0]), None);
        // The one-object-per-segment config keeps its flag byte at 0.
        assert_eq!(configs[2].encode(), [2, 3, 0, 0, 0, 0, 0, 0]);
        assert_eq!(PoolConfig::decode(&[3, 3, 1, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn header_fields_round_trip() {
        let mut buf = vec![0u8; SEGMENT_HEADER_LEN];
        let first = ObjectId::new(LogicalSegment(77), 3);
        write_header(&mut buf, SegmentKind::Packed, PoolId(2), 42, 1234, first);
        assert_eq!(buf[0], SegmentKind::Packed as u8);
        assert_eq!(buf[1], 2);
        assert_eq!(header_count(&buf), 42);
        assert_eq!(header_word(&buf), 1234);
        set_header_count(&mut buf, 43);
        set_header_word(&mut buf, 99);
        assert_eq!(header_count(&buf), 43);
        assert_eq!(header_word(&buf), 99);
    }

    #[test]
    fn build_constructs_matching_pool() {
        let c = PoolConfig { id: PoolId(5), kind: PoolKindConfig::Packed { segment_size: 4096 } };
        let p = c.build();
        assert_eq!(p.id(), PoolId(5));
        assert_eq!(p.kind(), SegmentKind::Packed);
    }
}
