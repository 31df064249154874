//! The extensible buffering mechanism.
//!
//! "Support for sophisticated buffer management is provided by an extensible
//! buffering mechanism. Buffers may be defined by supplying a number of
//! standard buffer operations (e.g., allocate and free) in a system defined
//! format. How these operations are implemented determines the policies used
//! to manage the buffer. A pool attaches to a buffer in order to make use of
//! the buffer." (Section 3.2)
//!
//! [`Buffer`] is the "system defined format"; [`LruBuffer`] implements the
//! policy the paper used: "least recently used (LRU) with a slight
//! optimization" — the optimization being query-tree *reservation* of
//! already-resident segments before evaluation begins (Section 3.3).
//!
//! Dirty segments evicted by a buffer are handed back to the caller, which
//! plays the role of the pool's "modified segment save routine" call-back.

use std::collections::HashMap;

use crate::segment::{SegmentAddr, SegmentImage};

/// Reference/hit counters for one buffer — the raw data behind Table 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Object accesses routed through this buffer.
    pub refs: u64,
    /// Accesses satisfied by a resident segment.
    pub hits: u64,
}

impl BufferStats {
    /// Hit rate as the paper reports it (0 when there were no references).
    pub fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.hits as f64 / self.refs as f64
        }
    }
}

/// The standard buffer operations a pool is written against.
pub trait Buffer: Send {
    /// Returns the resident segment at `addr`, promoting it in the
    /// replacement order. Needed only by mutating paths — read paths use
    /// [`Buffer::touch`] + [`Buffer::probe`] so the promotion bookkeeping
    /// and the (potentially long) read of the image are decoupled.
    fn lookup(&mut self, addr: SegmentAddr) -> Option<&mut SegmentImage>;

    /// Promotion bookkeeping only: marks `addr` as just-referenced in the
    /// replacement order and reports whether it is resident. Splitting this
    /// from [`Buffer::probe`] lets read paths finish the exclusive part of
    /// the access in O(1) instead of holding a `&mut` borrow across the
    /// whole segment read.
    fn touch(&mut self, addr: SegmentAddr) -> bool;

    /// Shared, non-promoting access to the resident segment at `addr` — the
    /// read-path counterpart of [`Buffer::lookup`].
    fn probe(&self, addr: SegmentAddr) -> Option<&SegmentImage>;

    /// Whether `addr` is resident (no promotion, no stats).
    fn is_resident(&self, addr: SegmentAddr) -> bool;

    /// Makes `image` resident at `addr`, evicting as needed. Evicted
    /// segments are returned so the caller can save the dirty ones — the
    /// "modified segment save" call-back. Other segments are evicted first,
    /// but if the buffer is still over capacity the just-inserted segment
    /// itself is evicted (so a zero-capacity buffer caches nothing at all,
    /// and a segment larger than the whole buffer is never cached — callers
    /// must extract what they need *before* inserting).
    fn insert(
        &mut self,
        addr: SegmentAddr,
        image: SegmentImage,
    ) -> Vec<(SegmentAddr, SegmentImage)>;

    /// Removes and returns the segment at `addr`, if resident.
    fn remove(&mut self, addr: SegmentAddr) -> Option<SegmentImage>;

    /// Pins `addr` if resident so it cannot be evicted until
    /// [`Buffer::release_reservations`]. Returns whether a pin was placed.
    fn reserve(&mut self, addr: SegmentAddr) -> bool;

    /// Clears all reservations placed by [`Buffer::reserve`].
    fn release_reservations(&mut self);

    /// Removes every resident segment (used at flush/close time).
    fn drain(&mut self) -> Vec<(SegmentAddr, SegmentImage)>;

    /// Records one object access and whether it hit. Kept separate from
    /// [`Buffer::lookup`] because a single object access may involve no
    /// lookup at all once its segment is known resident.
    fn record_ref(&mut self, hit: bool);

    /// Current counters.
    fn stats(&self) -> BufferStats;

    /// Resets counters (between query sets).
    fn reset_stats(&mut self);
}

/// Which replacement policy a pool's buffer should use.
///
/// The paper's extensible buffering mechanism exists so "other store and
/// buffer organizations" can be investigated; this enum names the two
/// organizations the repo ships and lets callers select one per pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BufferPolicy {
    /// The paper's policy: strict LRU ([`LruBuffer`]).
    #[default]
    Lru,
    /// Scan-resistant S3-FIFO ([`crate::S3FifoBuffer`]).
    S3Fifo,
}

impl BufferPolicy {
    /// Builds a buffer of `capacity` bytes implementing this policy.
    pub fn build(self, capacity: usize) -> Box<dyn Buffer> {
        match self {
            BufferPolicy::Lru => Box::new(LruBuffer::new(capacity)),
            BufferPolicy::S3Fifo => Box::new(crate::S3FifoBuffer::new(capacity)),
        }
    }
}

impl std::fmt::Display for BufferPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BufferPolicy::Lru => "lru",
            BufferPolicy::S3Fifo => "s3fifo",
        })
    }
}

impl std::str::FromStr for BufferPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lru" => Ok(BufferPolicy::Lru),
            "s3fifo" | "s3-fifo" => Ok(BufferPolicy::S3Fifo),
            other => Err(format!("unknown buffer policy: {other} (expected lru|s3fifo)")),
        }
    }
}

const NIL: usize = usize::MAX;

struct Node {
    addr: SegmentAddr,
    image: Option<SegmentImage>,
    pinned: bool,
    prev: usize,
    next: usize,
}

/// Byte-capacity LRU buffer with reservation support.
pub struct LruBuffer {
    capacity: usize,
    map: HashMap<SegmentAddr, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    resident_bytes: usize,
    stats: BufferStats,
}

impl std::fmt::Debug for LruBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruBuffer")
            .field("capacity", &self.capacity)
            .field("resident_segments", &self.map.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

impl LruBuffer {
    /// Creates a buffer of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        LruBuffer {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
            stats: BufferStats::default(),
        }
    }

    /// Bytes of segment data currently resident.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn evict_node(&mut self, idx: usize) -> (SegmentAddr, SegmentImage) {
        self.unlink(idx);
        let addr = self.nodes[idx].addr;
        let image = self.nodes[idx].image.take().expect("resident node has image");
        self.map.remove(&addr);
        self.free.push(idx);
        self.resident_bytes -= image.len();
        (addr, image)
    }

    /// Evicts unpinned LRU segments until within capacity. `last_resort` is
    /// evicted only after every other unpinned segment — it is the segment
    /// whose insertion triggered enforcement.
    fn enforce_capacity(&mut self, last_resort: usize) -> Vec<(SegmentAddr, SegmentImage)> {
        let mut evicted = Vec::new();
        while self.resident_bytes > self.capacity {
            // Walk from the LRU end to find an evictable node.
            let mut cur = self.tail;
            while cur != NIL && (cur == last_resort || self.nodes[cur].pinned) {
                cur = self.nodes[cur].prev;
            }
            if cur == NIL {
                // Only the newcomer and pinned segments remain. Evict the
                // newcomer itself unless it is pinned.
                if !self.nodes[last_resort].pinned
                    && self.map.contains_key(&self.nodes[last_resort].addr)
                {
                    evicted.push(self.evict_node(last_resort));
                }
                break;
            }
            evicted.push(self.evict_node(cur));
        }
        evicted
    }
}

impl Buffer for LruBuffer {
    fn lookup(&mut self, addr: SegmentAddr) -> Option<&mut SegmentImage> {
        let idx = self.map.get(&addr).copied()?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.nodes[idx].image.as_mut()
    }

    fn touch(&mut self, addr: SegmentAddr) -> bool {
        let Some(idx) = self.map.get(&addr).copied() else {
            return false;
        };
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        true
    }

    fn probe(&self, addr: SegmentAddr) -> Option<&SegmentImage> {
        let idx = self.map.get(&addr).copied()?;
        self.nodes[idx].image.as_ref()
    }

    fn is_resident(&self, addr: SegmentAddr) -> bool {
        self.map.contains_key(&addr)
    }

    fn insert(
        &mut self,
        addr: SegmentAddr,
        image: SegmentImage,
    ) -> Vec<(SegmentAddr, SegmentImage)> {
        // Replace any existing image at this address.
        let mut evicted = Vec::new();
        if let Some(idx) = self.map.get(&addr).copied() {
            let old = self.nodes[idx].image.replace(image);
            if let Some(old) = old {
                self.resident_bytes -= old.len();
            }
            self.resident_bytes += self.nodes[idx].image.as_ref().unwrap().len();
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            evicted.extend(self.enforce_capacity(idx));
            return evicted;
        }
        self.resident_bytes += image.len();
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] =
                    Node { addr, image: Some(image), pinned: false, prev: NIL, next: NIL };
                i
            }
            None => {
                self.nodes.push(Node {
                    addr,
                    image: Some(image),
                    pinned: false,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(addr, idx);
        evicted.extend(self.enforce_capacity(idx));
        evicted
    }

    fn remove(&mut self, addr: SegmentAddr) -> Option<SegmentImage> {
        let idx = self.map.get(&addr).copied()?;
        Some(self.evict_node(idx).1)
    }

    fn reserve(&mut self, addr: SegmentAddr) -> bool {
        match self.map.get(&addr).copied() {
            Some(idx) => {
                self.nodes[idx].pinned = true;
                true
            }
            None => false,
        }
    }

    fn release_reservations(&mut self) {
        for node in &mut self.nodes {
            node.pinned = false;
        }
    }

    fn drain(&mut self) -> Vec<(SegmentAddr, SegmentImage)> {
        let mut out = Vec::with_capacity(self.map.len());
        while self.tail != NIL {
            let idx = self.tail;
            out.push(self.evict_node(idx));
        }
        debug_assert_eq!(self.resident_bytes, 0);
        out
    }

    fn record_ref(&mut self, hit: bool) {
        self.stats.refs += 1;
        if hit {
            self.stats.hits += 1;
        }
    }

    fn stats(&self) -> BufferStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(offset: u64) -> SegmentAddr {
        SegmentAddr { offset, len: 0 }
    }

    fn image(len: usize, fill: u8) -> SegmentImage {
        SegmentImage::from_disk(vec![fill; len])
    }

    #[test]
    fn lookup_hits_resident_segments() {
        let mut b = LruBuffer::new(100);
        b.insert(addr(0), image(10, 1));
        assert!(b.lookup(addr(0)).is_some());
        assert!(b.lookup(addr(8)).is_none());
        assert!(b.is_resident(addr(0)));
        assert_eq!(b.resident_bytes(), 10);
    }

    #[test]
    fn byte_capacity_evicts_lru() {
        let mut b = LruBuffer::new(25);
        assert!(b.insert(addr(0), image(10, 0)).is_empty());
        assert!(b.insert(addr(1), image(10, 1)).is_empty());
        b.lookup(addr(0)); // promote 0; 1 is now LRU
        let evicted = b.insert(addr(2), image(10, 2));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, addr(1));
        assert!(b.is_resident(addr(0)));
        assert!(b.is_resident(addr(2)));
        assert_eq!(b.resident_bytes(), 20);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut b = LruBuffer::new(0);
        let evicted = b.insert(addr(0), image(10, 0));
        assert_eq!(evicted.len(), 1, "zero-capacity buffer bounces the newcomer");
        assert_eq!(evicted[0].0, addr(0));
        assert!(!b.is_resident(addr(0)));
        assert_eq!(b.resident_bytes(), 0);
    }

    #[test]
    fn oversized_segment_is_not_cached() {
        let mut b = LruBuffer::new(15);
        b.insert(addr(0), image(10, 0));
        let evicted = b.insert(addr(1), image(100, 1));
        // Both the old resident and the oversized newcomer are evicted.
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].0, addr(0));
        assert_eq!(evicted[1].0, addr(1));
        assert!(!b.is_resident(addr(1)));
        assert_eq!(b.resident_bytes(), 0);
    }

    #[test]
    fn pinned_segments_survive_eviction_pressure() {
        let mut b = LruBuffer::new(20);
        b.insert(addr(0), image(10, 0));
        b.insert(addr(1), image(10, 1));
        assert!(b.reserve(addr(0)));
        assert!(!b.reserve(addr(9)), "reserving an absent segment is a no-op");
        // addr(0) is LRU but pinned; addr(1) gets evicted instead.
        let evicted = b.insert(addr(2), image(10, 2));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, addr(1));
        assert!(b.is_resident(addr(0)));
        b.release_reservations();
        let evicted = b.insert(addr(3), image(10, 3));
        assert_eq!(evicted[0].0, addr(0), "after release the old pin is evictable");
    }

    #[test]
    fn pinned_residents_bounce_unpinned_newcomers() {
        let mut b = LruBuffer::new(10);
        b.insert(addr(0), image(10, 0));
        b.reserve(addr(0));
        let evicted = b.insert(addr(1), image(10, 1));
        // addr(0) is pinned, so the newcomer itself is bounced.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, addr(1));
        assert!(b.is_resident(addr(0)));
        assert_eq!(b.resident_bytes(), 10);
    }

    #[test]
    fn released_pins_become_evictable_again() {
        let mut b = LruBuffer::new(10);
        b.insert(addr(0), image(10, 0));
        b.reserve(addr(0));
        b.release_reservations();
        let evicted = b.insert(addr(1), image(10, 1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, addr(0));
        assert!(b.is_resident(addr(1)));
    }

    #[test]
    fn dirty_images_round_trip_through_eviction() {
        let mut b = LruBuffer::new(10);
        let mut img = image(10, 7);
        img.bytes_mut()[0] = 99;
        assert!(img.is_dirty());
        b.insert(addr(0), img);
        let evicted = b.insert(addr(1), image(10, 1));
        assert_eq!(evicted.len(), 1);
        assert!(evicted[0].1.is_dirty(), "dirty flag must survive for save call-back");
        assert_eq!(evicted[0].1.bytes()[0], 99);
    }

    #[test]
    fn reinsert_replaces_image_and_adjusts_bytes() {
        let mut b = LruBuffer::new(100);
        b.insert(addr(0), image(10, 0));
        b.insert(addr(0), image(30, 1));
        assert_eq!(b.resident_bytes(), 30);
        assert_eq!(b.lookup(addr(0)).unwrap().bytes()[0], 1);
    }

    #[test]
    fn drain_returns_everything() {
        let mut b = LruBuffer::new(100);
        for i in 0..5 {
            b.insert(addr(i), image(10, i as u8));
        }
        let drained = b.drain();
        assert_eq!(drained.len(), 5);
        assert_eq!(b.resident_bytes(), 0);
        assert!(!b.is_resident(addr(0)));
    }

    #[test]
    fn remove_specific_segment() {
        let mut b = LruBuffer::new(100);
        b.insert(addr(0), image(10, 0));
        b.insert(addr(1), image(10, 1));
        let removed = b.remove(addr(0)).unwrap();
        assert_eq!(removed.bytes()[0], 0);
        assert!(b.remove(addr(0)).is_none());
        assert_eq!(b.resident_bytes(), 10);
    }

    #[test]
    fn stats_track_refs_and_hits() {
        let mut b = LruBuffer::new(100);
        b.record_ref(true);
        b.record_ref(false);
        b.record_ref(true);
        let s = b.stats();
        assert_eq!(s, BufferStats { refs: 3, hits: 2 });
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        b.reset_stats();
        assert_eq!(b.stats().refs, 0);
        assert_eq!(BufferStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut b = LruBuffer::new(10);
        for i in 0..50 {
            b.insert(addr(i), image(10, i as u8));
        }
        assert!(b.nodes.len() <= 3, "arena must not grow without bound");
    }
}
