//! Object identifiers and logical-segment arithmetic.
//!
//! Mneme assigns each object "a unique identifier ... unique only within
//! the object's file" and bounds the number of simultaneously accessible
//! objects by the 2^28 globally unique identifiers (Section 3.2). Object
//! lookup is "facilitated by logical segments, which contain 255 objects
//! logically grouped together to assist in identification, indexing, and
//! location".
//!
//! We encode a file-local id in 28 bits as `(logical segment << 8) | slot`
//! where `slot` ranges over `0..255` (value 255 is reserved so a byte of
//! all ones never denotes a live slot). This gives 2^20 logical segments of
//! 255 objects each per file.

/// Number of object slots in one logical segment.
pub const SLOTS_PER_SEGMENT: u32 = 255;

/// Number of logical segments in one file (20 bits).
pub const MAX_LOGICAL_SEGMENTS: u32 = 1 << 20;

/// A file-local object identifier (28 bits used).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(u32);

impl std::fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectId({}:{})", self.segment().0, self.slot())
    }
}

impl ObjectId {
    /// Builds an id from a logical segment and a slot.
    ///
    /// # Panics
    /// Panics if `slot >= 255` or the segment is out of range.
    pub fn new(segment: LogicalSegment, slot: u8) -> Self {
        assert!((slot as u32) < SLOTS_PER_SEGMENT, "slot {slot} out of range");
        assert!(segment.0 < MAX_LOGICAL_SEGMENTS, "segment out of range");
        ObjectId((segment.0 << 8) | slot as u32)
    }

    /// Reconstructs an id from its raw 28-bit representation, validating the
    /// slot field.
    pub fn from_raw(raw: u32) -> Option<Self> {
        let id = ObjectId(raw);
        if raw >> 28 != 0 && raw != u32::MAX {
            return None;
        }
        if raw == u32::MAX || (raw & 0xFF) >= SLOTS_PER_SEGMENT {
            return None;
        }
        Some(id)
    }

    /// The raw 28-bit representation.
    pub fn raw(&self) -> u32 {
        self.0
    }

    /// The logical segment this object belongs to.
    pub fn segment(&self) -> LogicalSegment {
        LogicalSegment(self.0 >> 8)
    }

    /// The slot within the logical segment (`0..255`).
    pub fn slot(&self) -> u8 {
        (self.0 & 0xFF) as u8
    }
}

/// Index of a logical segment within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalSegment(pub u32);

/// Identifier of a pool within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PoolId(pub u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trips_segment_and_slot() {
        let seg = LogicalSegment(12345);
        for slot in [0u8, 1, 100, 254] {
            let id = ObjectId::new(seg, slot);
            assert_eq!(id.segment(), seg);
            assert_eq!(id.slot(), slot);
            assert_eq!(ObjectId::from_raw(id.raw()), Some(id));
        }
    }

    #[test]
    #[should_panic(expected = "slot 255 out of range")]
    fn slot_255_is_reserved() {
        ObjectId::new(LogicalSegment(0), 255);
    }

    #[test]
    #[should_panic(expected = "segment out of range")]
    fn segment_must_fit_20_bits() {
        ObjectId::new(LogicalSegment(MAX_LOGICAL_SEGMENTS), 0);
    }

    #[test]
    fn from_raw_rejects_invalid() {
        assert!(ObjectId::from_raw(0x00FF).is_none()); // slot 255
        assert!(ObjectId::from_raw(u32::MAX).is_none()); // sentinel
        assert!(ObjectId::from_raw(1 << 29).is_none()); // beyond 28 bits
        assert!(ObjectId::from_raw(0).is_some());
    }

    #[test]
    fn id_space_is_2_to_28() {
        let top = ObjectId::new(LogicalSegment(MAX_LOGICAL_SEGMENTS - 1), 254);
        assert!(top.raw() < (1 << 28));
    }
}
