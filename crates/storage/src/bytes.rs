//! Zero-copy fetched bytes.
//!
//! A read path whose cache already holds a buffer (Mneme's segment images,
//! an in-memory record store) can hand out a sub-slice of that
//! reference-counted buffer instead of copying it into a fresh `Vec`.
//! [`RecordBytes`] carries either form; callers treat both uniformly as
//! `&[u8]` (the type derefs to a slice). A shared slice stays valid for as
//! long as the value lives, even if the cache evicts or mutates the buffer
//! in the meantime (mutation is copy-on-write against outstanding readers).

use std::sync::Arc;

/// Bytes of one fetched object or record (or a range of one), in whatever
/// ownership form the read path could produce cheapest.
#[derive(Debug, Clone)]
pub enum RecordBytes {
    /// A private copy the caller exclusively owns (direct device reads and
    /// sliced fallbacks).
    Owned(Vec<u8>),
    /// The sub-slice `buf[start..end]` of a buffer shared with a cache —
    /// produced without copying payload bytes.
    Shared {
        /// The shared backing buffer (a cached segment image, usually).
        buf: Arc<Vec<u8>>,
        /// First payload byte within `buf`.
        start: usize,
        /// One past the last payload byte within `buf`.
        end: usize,
    },
}

impl RecordBytes {
    /// Wraps the sub-slice `buf[start..end]` without copying.
    pub fn shared(buf: Arc<Vec<u8>>, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= buf.len());
        RecordBytes::Shared { buf, start, end }
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            RecordBytes::Owned(v) => v,
            RecordBytes::Shared { buf, start, end } => &buf[*start..*end],
        }
    }

    /// Re-slices to `self[from..to]` (clamped) without copying: an owned
    /// buffer moves behind an `Arc`, a shared slice just restrides.
    pub fn slice(self, from: usize, to: usize) -> RecordBytes {
        match self {
            RecordBytes::Owned(v) => {
                let end = to.min(v.len());
                let start = from.min(end);
                RecordBytes::Shared { buf: Arc::new(v), start, end }
            }
            RecordBytes::Shared { buf, start, end } => {
                let new_end = start.saturating_add(to).min(end);
                let new_start = start.saturating_add(from).min(new_end);
                RecordBytes::Shared { buf, start: new_start, end: new_end }
            }
        }
    }

    /// An exclusively owned `Vec`, copying only when the bytes are still
    /// shared with another holder or are a proper sub-slice.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            RecordBytes::Owned(v) => v,
            RecordBytes::Shared { buf, start, end } => {
                if start == 0 && end == buf.len() {
                    Arc::try_unwrap(buf).unwrap_or_else(|shared| shared.to_vec())
                } else {
                    buf[start..end].to_vec()
                }
            }
        }
    }

    /// Mutable access to the bytes, converting a shared slice into an
    /// owned copy first (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<u8> {
        if matches!(self, RecordBytes::Shared { .. }) {
            let owned = std::mem::replace(self, RecordBytes::Owned(Vec::new())).into_vec();
            *self = RecordBytes::Owned(owned);
        }
        match self {
            RecordBytes::Owned(v) => v,
            RecordBytes::Shared { .. } => unreachable!("just converted to Owned"),
        }
    }

    /// Whether the bytes are a zero-copy view of a shared buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self, RecordBytes::Shared { .. })
    }
}

impl std::ops::Deref for RecordBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for RecordBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for RecordBytes {
    fn from(v: Vec<u8>) -> Self {
        RecordBytes::Owned(v)
    }
}

impl From<Arc<Vec<u8>>> for RecordBytes {
    fn from(buf: Arc<Vec<u8>>) -> Self {
        let end = buf.len();
        RecordBytes::Shared { buf, start: 0, end }
    }
}

impl PartialEq for RecordBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for RecordBytes {}
impl PartialEq<[u8]> for RecordBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for RecordBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for RecordBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for RecordBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for RecordBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_slices_view_the_backing_buffer() {
        let buf = Arc::new(vec![1u8, 2, 3, 4, 5]);
        let bytes = RecordBytes::shared(Arc::clone(&buf), 1, 4);
        assert!(bytes.is_shared());
        assert_eq!(bytes, [2u8, 3, 4]);
        assert_eq!(bytes.as_slice().as_ptr(), unsafe { buf.as_slice().as_ptr().add(1) });
    }

    #[test]
    fn into_vec_avoids_the_copy_when_sole_whole_holder() {
        let whole = RecordBytes::shared(Arc::new(vec![9u8; 8]), 0, 8);
        assert_eq!(whole.into_vec(), vec![9u8; 8]);
        let buf = Arc::new(vec![1u8, 2, 3]);
        let partial = RecordBytes::shared(Arc::clone(&buf), 0, 2);
        assert_eq!(partial.into_vec(), vec![1, 2]);
        assert_eq!(*buf, vec![1, 2, 3]);
    }
}
