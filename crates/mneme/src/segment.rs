//! Physical segments: the unit of transfer between disk and main memory.
//!
//! "Objects are physically grouped into physical segments within a file. A
//! physical segment is the unit of transfer between disk and main memory and
//! is of arbitrary size." (Section 3.2). The layout of objects *within* a
//! segment is pool-specific (Section 3.2: "object format is determined by
//! the pool"); this module only defines the segment's identity on disk and
//! its in-memory image.

/// Location of a physical segment within a Mneme file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentAddr {
    /// Byte offset of the segment within the file.
    pub offset: u64,
    /// Length of the segment in bytes.
    pub len: u32,
}

/// An in-memory image of one physical segment.
///
/// Images are produced by pools ([`crate::pool::Pool::new_segment`]),
/// mutated through pool methods, cached in [`crate::buffer`] buffers
/// and written back to the file when dirty.
///
/// The bytes sit behind an `Arc` so the read path can hand out zero-copy
/// payload slices ([`crate::ObjectBytes`]) that outlive buffer eviction.
/// Mutation is copy-on-write: [`SegmentImage::bytes_mut`] clones the
/// buffer only when an outstanding reader still shares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentImage {
    bytes: std::sync::Arc<Vec<u8>>,
    dirty: bool,
}

impl SegmentImage {
    /// Wraps freshly initialised segment bytes (marked dirty: it has never
    /// been written to the file).
    pub fn new_dirty(bytes: Vec<u8>) -> Self {
        SegmentImage { bytes: std::sync::Arc::new(bytes), dirty: true }
    }

    /// Wraps bytes read from the file (clean).
    pub fn from_disk(bytes: Vec<u8>) -> Self {
        SegmentImage { bytes: std::sync::Arc::new(bytes), dirty: false }
    }

    /// Read-only view of the segment bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A reference-counted handle on the segment buffer, for carving out
    /// zero-copy payload slices.
    pub fn share(&self) -> std::sync::Arc<Vec<u8>> {
        std::sync::Arc::clone(&self.bytes)
    }

    /// Mutable view; marks the segment dirty. Copy-on-write: clones the
    /// buffer if a shared payload slice still holds it.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        self.dirty = true;
        std::sync::Arc::make_mut(&mut self.bytes)
    }

    /// Segment length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether the image differs from its on-disk copy.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the image clean after it has been written back.
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Consumes the image, returning its bytes (copying only when a shared
    /// payload slice still holds the buffer).
    pub fn into_bytes(self) -> Vec<u8> {
        std::sync::Arc::try_unwrap(self.bytes).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Discriminates the built-in pool layouts inside segment headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SegmentKind {
    /// Fixed 16-byte slots, 255 per segment (small object pool).
    FixedSlots = 1,
    /// Variable objects packed into a fixed-size slotted segment.
    Packed = 2,
    /// Exactly one object per segment.
    SingleObject = 3,
}

impl SegmentKind {
    /// Parses the discriminant byte.
    pub fn from_u8(v: u8) -> Option<SegmentKind> {
        match v {
            1 => Some(SegmentKind::FixedSlots),
            2 => Some(SegmentKind::Packed),
            3 => Some(SegmentKind::SingleObject),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_tracking_follows_mutation() {
        let mut img = SegmentImage::from_disk(vec![0; 8]);
        assert!(!img.is_dirty());
        let _ = img.bytes(); // reads do not dirty
        assert!(!img.is_dirty());
        img.bytes_mut()[0] = 1;
        assert!(img.is_dirty());
        img.mark_clean();
        assert!(!img.is_dirty());
        assert_eq!(img.len(), 8);
        assert!(!img.is_empty());
    }

    #[test]
    fn new_images_start_dirty() {
        let img = SegmentImage::new_dirty(vec![1, 2, 3]);
        assert!(img.is_dirty());
        assert_eq!(img.into_bytes(), vec![1, 2, 3]);
    }

    #[test]
    fn segment_kind_round_trips() {
        for k in [SegmentKind::FixedSlots, SegmentKind::Packed, SegmentKind::SingleObject] {
            assert_eq!(SegmentKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(SegmentKind::from_u8(0), None);
        assert_eq!(SegmentKind::from_u8(9), None);
    }
}
