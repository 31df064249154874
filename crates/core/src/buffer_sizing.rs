//! The paper's buffer-sizing heuristics (Table 2).
//!
//! "The large object buffer size was 3 times the size of the largest
//! inverted list in the collection. ... For the three larger collections,
//! the medium object buffer size was 9% of the size of the large object
//! buffer. This allocation was based on object access behavior observed
//! during query processing, where the number of accesses to medium objects
//! equaled roughly 9% of the number of accesses to large objects. For the
//! CACM collection, 9% of the large object buffer would not have been large
//! enough to hold a single medium object segment. Therefore, we made the
//! medium object buffer large enough to hold 3 medium object segments. ...
//! The small object buffer was simply made large enough to hold 3 small
//! object segments." (Section 4.2)

use poir_mneme::small_pool::SMALL_SEGMENT_LEN;

/// Per-pool buffer capacities in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSizes {
    /// Small object pool buffer.
    pub small: usize,
    /// Medium object pool buffer.
    pub medium: usize,
    /// Large object pool buffer.
    pub large: usize,
}

impl BufferSizes {
    /// Everything zero — the "Mneme, no cache" configuration.
    pub const NONE: BufferSizes = BufferSizes { small: 0, medium: 0, large: 0 };

    /// Total buffer memory.
    pub fn total(&self) -> usize {
        self.small.saturating_add(self.medium).saturating_add(self.large)
    }
}

/// The fraction of large-object accesses observed as medium-object accesses.
pub const MEDIUM_ACCESS_RATIO: f64 = 0.09;

/// Number of segments the small and fallback-medium buffers hold.
pub const SEGMENTS_HELD: usize = 3;

/// Computes Table 2's buffer sizes from the collection's largest inverted
/// list and the medium pool's physical segment size. A list too large to
/// triple in a `usize` gets a large buffer of `usize::MAX`: unbounded.
pub fn paper_heuristic(largest_list_bytes: usize, medium_segment_bytes: usize) -> BufferSizes {
    let large = largest_list_bytes.saturating_mul(3);
    let nine_percent = (large as f64 * MEDIUM_ACCESS_RATIO) as usize;
    let medium = if nine_percent < medium_segment_bytes {
        SEGMENTS_HELD * medium_segment_bytes
    } else {
        nine_percent
    };
    let small = SEGMENTS_HELD * SMALL_SEGMENT_LEN;
    BufferSizes { small, medium, large }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_collections_get_nine_percent_medium() {
        // A TIPSTER-like largest list (the paper's were megabytes).
        let sizes = paper_heuristic(2_600_000, 8192);
        assert_eq!(sizes.large, 7_800_000);
        assert_eq!(sizes.medium, 702_000);
        assert_eq!(sizes.small, 3 * 4096);
    }

    #[test]
    fn cacm_like_collections_fall_back_to_three_segments() {
        // CACM's largest list was small: 9% of 3× would not hold one 8 KB
        // segment.
        let sizes = paper_heuristic(8_000, 8192);
        assert_eq!(sizes.large, 24_000);
        // 9% of 24 KB = 2.16 KB < 8 KB → 3 segments.
        assert_eq!(sizes.medium, 3 * 8192);
    }

    #[test]
    fn boundary_exactly_one_segment() {
        // 9% equal to the segment size uses the percentage rule.
        let largest = (8192.0f64 / 0.09 / 3.0).ceil() as usize;
        let sizes = paper_heuristic(largest, 8192);
        assert!(sizes.medium >= 8192);
    }

    #[test]
    fn an_untriplable_largest_list_saturates() {
        let sizes = paper_heuristic(usize::MAX / 2, 8192);
        assert_eq!(sizes.large, usize::MAX);
        assert!(sizes.medium >= 8192);
        assert_eq!(sizes.total(), usize::MAX);
    }

    #[test]
    fn none_is_zero() {
        assert_eq!(BufferSizes::NONE.total(), 0);
        let sizes = paper_heuristic(100_000, 8192);
        assert_eq!(sizes.total(), sizes.small + sizes.medium + sizes.large);
    }
}
