//! Physical segments: the unit of transfer between disk and main memory.
//!
//! "Objects are physically grouped into physical segments within a file. A
//! physical segment is the unit of transfer between disk and main memory and
//! is of arbitrary size." (Section 3.2). The layout of objects *within* a
//! segment is pool-specific (Section 3.2: "object format is determined by
//! the pool"); this module only defines the segment's identity on disk and
//! its in-memory image.

use std::ops::Range;
use std::sync::Arc;

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
/// payload slices ([`poir_storage::RecordBytes`]) that outlive buffer eviction.
/// Mutation is copy-on-write: [`SegmentImage::bytes_mut`] clones the
/// buffer when a reader or the image's own copy of the file's bytes still
/// shares it.
///
/// The image keeps the bytes the file holds at its address, as last read
/// or written, so a write-back writes only the runs that differ from them
/// ([`SegmentImage::changed_runs`]). A clean image shares one buffer with
/// that copy; only a dirty one holds two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentImage {
    bytes: Arc<Vec<u8>>,
    /// The file's bytes at this segment's address; `None` until the
    /// segment is first written.
    on_disk: Option<Arc<Vec<u8>>>,
}

/// Changed runs of a segment closer than this many bytes are written as
/// one: a write call costs more than the few unchanged bytes between them.
pub const WRITE_GAP: usize = 64;

impl SegmentImage {
    /// Wraps freshly initialised segment bytes (dirty: the file holds
    /// nothing at its address yet, so its first write-back is whole).
    pub fn new_dirty(bytes: Vec<u8>) -> Self {
        SegmentImage { bytes: Arc::new(bytes), on_disk: None }
    }

    /// Wraps bytes read from the file (clean).
    pub fn from_disk(bytes: Vec<u8>) -> Self {
        let bytes = Arc::new(bytes);
        SegmentImage { on_disk: Some(Arc::clone(&bytes)), bytes }
    }

    /// Read-only view of the segment bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A reference-counted handle on the segment buffer, for carving out
    /// zero-copy payload slices.
    pub fn share(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.bytes)
    }

    /// Mutable view; marks the segment dirty. Copy-on-write: clones the
    /// buffer if a shared payload slice or the file's copy still holds it.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.bytes)
    }

    /// Segment length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether the image may differ from its on-disk copy: it was never
    /// written, or it was mutably borrowed since it was last read or
    /// written.
    pub fn is_dirty(&self) -> bool {
        !self.on_disk.as_ref().is_some_and(|d| Arc::ptr_eq(d, &self.bytes))
    }

    /// The byte ranges a write-back must write, ascending: every run that
    /// differs from the file's copy, runs closer than [`WRITE_GAP`] merged.
    /// The whole image when the file holds no copy yet. Writing these
    /// ranges leaves the file holding exactly [`SegmentImage::bytes`].
    pub fn changed_runs(&self) -> Vec<Range<usize>> {
        let new = &self.bytes[..];
        let old = match &self.on_disk {
            Some(old) if old.len() == new.len() => &old[..],
            _ => return std::iter::once(0..new.len()).collect(),
        };
        let mut runs: Vec<Range<usize>> = Vec::new();
        let mut pos = 0;
        while let Some(skip) = first_difference(&old[pos..], &new[pos..]) {
            let start = pos + skip;
            let len = old[start..].iter().zip(&new[start..]).take_while(|(a, b)| a != b).count();
            let end = start + len;
            match runs.last_mut() {
                Some(last) if start - last.end < WRITE_GAP => last.end = end,
                _ => runs.push(start..end),
            }
            pos = end;
        }
        runs
    }

    /// Records that the file now holds the image's bytes (after a
    /// write-back of [`SegmentImage::changed_runs`]).
    pub fn mark_clean(&mut self) {
        self.on_disk = Some(Arc::clone(&self.bytes));
    }

    /// Consumes the image, returning its bytes (copying only when a shared
    /// payload slice or the file's copy still holds the buffer).
    pub fn into_bytes(self) -> Vec<u8> {
        drop(self.on_disk);
        Arc::try_unwrap(self.bytes).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Index of the first byte where `a` and `b` differ, comparing 64-byte
/// chunks first.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    const CHUNK: usize = 64;
    let mut base = 0;
    for (ca, cb) in a.chunks(CHUNK).zip(b.chunks(CHUNK)) {
        if ca != cb {
            return ca.iter().zip(cb).position(|(x, y)| x != y).map(|i| base + i);
        }
        base += CHUNK;
    }
    None
}

/// Discriminates the built-in pool layouts inside segment headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SegmentKind {
    /// Fixed 16-byte slots, 255 per segment (small object pool).
    FixedSlots = 1,
    /// Variable objects packed into a slotted segment.
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
        assert_eq!(img.changed_runs(), vec![0..3]);
        assert_eq!(img.into_bytes(), vec![1, 2, 3]);
    }

    #[test]
    fn changed_runs_cover_only_what_differs() {
        let mut img = SegmentImage::from_disk(vec![0; 1000]);
        assert!(img.changed_runs().is_empty());
        img.bytes_mut()[5] = 1;
        img.bytes_mut()[7] = 1; // within the gap: merged with byte 5
        img.bytes_mut()[500..510].fill(9);
        img.bytes_mut()[999] = 2;
        assert_eq!(img.changed_runs(), vec![5..8, 500..510, 999..1000]);
        img.mark_clean();
        assert!(img.changed_runs().is_empty());
        // A mutation that restores the file's bytes writes nothing.
        img.bytes_mut()[500] = 9;
        assert!(img.is_dirty());
        assert!(img.changed_runs().is_empty());
    }

    proptest::proptest! {
        #[test]
        fn writing_changed_runs_reproduces_the_image(
            old in proptest::collection::vec(0u8..4, 0..600),
            edits in proptest::collection::vec((0usize..600, 0u8..4), 0..40),
        ) {
            let mut img = SegmentImage::from_disk(old.clone());
            for (at, v) in edits {
                if at < old.len() {
                    img.bytes_mut()[at] = v;
                }
            }
            let runs = img.changed_runs();
            let mut file = old.clone();
            for r in &runs {
                file[r.clone()].copy_from_slice(&img.bytes()[r.clone()]);
            }
            proptest::prop_assert_eq!(&file[..], img.bytes());
            for pair in runs.windows(2) {
                proptest::prop_assert!(pair[1].start >= pair[0].end + WRITE_GAP);
            }
            // Runs start and end on bytes that changed.
            for r in &runs {
                proptest::prop_assert!(img.bytes()[r.start] != old[r.start]);
                proptest::prop_assert!(img.bytes()[r.end - 1] != old[r.end - 1]);
            }
        }
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
