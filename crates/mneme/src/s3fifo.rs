//! A scan-resistant buffer policy: S3-FIFO (small / main / ghost queues).
//!
//! The paper's buffering mechanism is deliberately extensible — "How these
//! operations are implemented determines the policies used to manage the
//! buffer" (Section 3.2) — and its conclusions invite investigating "other
//! store and buffer organizations". [`S3FifoBuffer`] is the organization
//! that matters most for an IR workload: posting-list scans touch long runs
//! of segments exactly once, and under LRU every such scan flushes the hot
//! working set (the high-frequency terms of the Zipfian query mix) out of
//! the buffer.
//!
//! S3-FIFO fixes that with three structures:
//!
//! * a **small** probationary FIFO (~10% of capacity) where every new
//!   segment lands first;
//! * a **main** FIFO holding segments that proved themselves by being
//!   re-referenced while probationary (or by returning soon after
//!   eviction);
//! * a bounded **ghost** history of recently evicted probationary
//!   addresses — metadata only, no segment bytes — so a segment that
//!   returns shortly after eviction is admitted straight into main.
//!
//! One-shot scan segments enter small, are never re-referenced, and are
//! evicted from small without ever displacing main. Hot segments collect
//! reference counts and migrate to main, where eviction gives second
//! chances (decrementing the count) before letting go.
//!
//! Byte-capacity, pinning (query-tree reservation, Section 3.3), dirty
//! hand-back, and the newcomer-bounce edge semantics all match
//! [`crate::LruBuffer`] so the policies are drop-in interchangeable.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::buffer::{Buffer, BufferStats};
use crate::segment::{SegmentAddr, SegmentImage};

const NIL: usize = usize::MAX;

/// Saturating cap on the per-segment re-reference counter. Small on
/// purpose: it bounds how long a once-hot segment can linger in main after
/// going cold (each main-queue second chance costs one decrement).
const FREQ_MAX: u8 = 3;

/// Fraction of capacity (as a divisor) given to the probationary queue.
const SMALL_FRACTION: usize = 10;

struct Node {
    addr: SegmentAddr,
    image: Option<SegmentImage>,
    pinned: bool,
    freq: u8,
    in_main: bool,
    prev: usize,
    next: usize,
}

/// Byte-capacity scan-resistant S3-FIFO buffer with reservation support.
pub struct S3FifoBuffer {
    capacity: usize,
    /// Byte budget of the probationary queue (~capacity / 10).
    small_target: usize,
    map: HashMap<SegmentAddr, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    small_head: usize,
    small_tail: usize,
    main_head: usize,
    main_tail: usize,
    small_bytes: usize,
    resident_bytes: usize,
    /// FIFO of addresses recently evicted from the probationary queue.
    ghost: VecDeque<SegmentAddr>,
    ghost_set: HashSet<SegmentAddr>,
    stats: BufferStats,
}

impl std::fmt::Debug for S3FifoBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S3FifoBuffer")
            .field("capacity", &self.capacity)
            .field("resident_segments", &self.map.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("small_bytes", &self.small_bytes)
            .field("ghost_len", &self.ghost_set.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl S3FifoBuffer {
    /// Creates a buffer of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        S3FifoBuffer {
            capacity,
            small_target: capacity / SMALL_FRACTION,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            small_head: NIL,
            small_tail: NIL,
            main_head: NIL,
            main_tail: NIL,
            small_bytes: 0,
            resident_bytes: 0,
            ghost: VecDeque::new(),
            ghost_set: HashSet::new(),
            stats: BufferStats::default(),
        }
    }

    /// Buffer capacity in bytes.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of segment data currently resident.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next, in_main) =
            (self.nodes[idx].prev, self.nodes[idx].next, self.nodes[idx].in_main);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if in_main {
            self.main_head = next;
        } else {
            self.small_head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if in_main {
            self.main_tail = prev;
        } else {
            self.small_tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize, to_main: bool) {
        let head = if to_main { self.main_head } else { self.small_head };
        self.nodes[idx].in_main = to_main;
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = head;
        if head != NIL {
            self.nodes[head].prev = idx;
        }
        if to_main {
            self.main_head = idx;
            if self.main_tail == NIL {
                self.main_tail = idx;
            }
        } else {
            self.small_head = idx;
            if self.small_tail == NIL {
                self.small_tail = idx;
            }
        }
    }

    fn evict_node(&mut self, idx: usize) -> (SegmentAddr, SegmentImage) {
        let in_main = self.nodes[idx].in_main;
        self.unlink(idx);
        let addr = self.nodes[idx].addr;
        let image = self.nodes[idx].image.take().expect("resident node has image");
        self.map.remove(&addr);
        self.free.push(idx);
        self.resident_bytes -= image.len();
        if !in_main {
            self.small_bytes -= image.len();
        }
        (addr, image)
    }

    /// Records `addr` in the ghost history, trimming to a bound proportional
    /// to the number of resident segments (metadata stays O(residents)).
    fn remember_ghost(&mut self, addr: SegmentAddr) {
        if self.ghost_set.insert(addr) {
            self.ghost.push_back(addr);
        }
        let bound = (2 * self.map.len()).max(16);
        while self.ghost.len() > bound {
            if let Some(old) = self.ghost.pop_front() {
                self.ghost_set.remove(&old);
            }
        }
    }

    /// Consumes a ghost entry for `addr`, reporting whether one existed.
    fn take_ghost(&mut self, addr: SegmentAddr) -> bool {
        if self.ghost_set.remove(&addr) {
            self.ghost.retain(|a| *a != addr);
            true
        } else {
            false
        }
    }

    /// Walks a queue from its tail looking for a node that is neither
    /// pinned nor the protected newcomer.
    fn tail_candidate(&self, mut cur: usize, last_resort: usize) -> usize {
        while cur != NIL && (cur == last_resort || self.nodes[cur].pinned) {
            cur = self.nodes[cur].prev;
        }
        cur
    }

    /// Evicts until within capacity. Probationary segments are evicted
    /// first while the small queue is over its target; re-referenced
    /// probationary segments are promoted to main instead of evicted, and
    /// main evictions give second chances by decrementing the reference
    /// count. `last_resort` (the newcomer) is evicted only when nothing
    /// else is evictable.
    fn enforce_capacity(&mut self, last_resort: usize) -> Vec<(SegmentAddr, SegmentImage)> {
        let mut evicted = Vec::new();
        // Promotions (≤ residents) and second chances (≤ FREQ_MAX ×
        // residents) strictly consume a finite budget between evictions, so
        // the loop terminates; the spin bound is a belt-and-braces bail.
        let mut spins = 0usize;
        while self.resident_bytes > self.capacity {
            spins += 1;
            let bail = spins > (FREQ_MAX as usize + 2) * self.map.len() + 4;
            // Prefer the probationary queue while it is over its target (or
            // main is empty); otherwise evict from main, falling back to the
            // other queue when the preferred one has no evictable node.
            let prefer_small = self.small_tail != NIL
                && (self.small_bytes > self.small_target || self.main_tail == NIL);
            let mut from_small = prefer_small;
            let mut cur = if prefer_small {
                self.tail_candidate(self.small_tail, last_resort)
            } else {
                self.tail_candidate(self.main_tail, last_resort)
            };
            if cur == NIL {
                from_small = !prefer_small;
                cur = if from_small {
                    self.tail_candidate(self.small_tail, last_resort)
                } else {
                    self.tail_candidate(self.main_tail, last_resort)
                };
            }
            if cur == NIL || bail {
                // Nothing evictable anywhere: bounce the newcomer itself
                // unless it is pinned.
                if !self.nodes[last_resort].pinned
                    && self.map.contains_key(&self.nodes[last_resort].addr)
                {
                    evicted.push(self.evict_node(last_resort));
                }
                break;
            }
            if from_small {
                if self.nodes[cur].freq > 0 {
                    // Re-referenced while probationary: promote to main.
                    let len =
                        self.nodes[cur].image.as_ref().expect("resident node has image").len();
                    self.unlink(cur);
                    self.small_bytes -= len;
                    self.push_front(cur, true);
                } else {
                    // One-hit wonder: evict and remember the address.
                    let (addr, image) = self.evict_node(cur);
                    self.remember_ghost(addr);
                    evicted.push((addr, image));
                }
            } else if self.nodes[cur].freq > 0 {
                // Second chance.
                self.nodes[cur].freq -= 1;
                self.unlink(cur);
                self.push_front(cur, true);
            } else {
                evicted.push(self.evict_node(cur));
            }
        }
        evicted
    }
}

impl Buffer for S3FifoBuffer {
    fn lookup(&mut self, addr: SegmentAddr) -> Option<&mut SegmentImage> {
        let idx = self.map.get(&addr).copied()?;
        self.nodes[idx].freq = (self.nodes[idx].freq + 1).min(FREQ_MAX);
        self.nodes[idx].image.as_mut()
    }

    fn touch(&mut self, addr: SegmentAddr) -> bool {
        match self.map.get(&addr).copied() {
            Some(idx) => {
                self.nodes[idx].freq = (self.nodes[idx].freq + 1).min(FREQ_MAX);
                true
            }
            None => false,
        }
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
        // Replace any existing image at this address in place.
        if let Some(idx) = self.map.get(&addr).copied() {
            let old = self.nodes[idx].image.replace(image);
            if let Some(old) = &old {
                self.resident_bytes -= old.len();
                if !self.nodes[idx].in_main {
                    self.small_bytes -= old.len();
                }
            }
            let new_len = self.nodes[idx].image.as_ref().unwrap().len();
            self.resident_bytes += new_len;
            if !self.nodes[idx].in_main {
                self.small_bytes += new_len;
            }
            self.nodes[idx].freq = (self.nodes[idx].freq + 1).min(FREQ_MAX);
            return self.enforce_capacity(idx);
        }
        // A returning segment (ghost hit) is admitted straight into main;
        // a cold one starts in the probationary queue.
        let to_main = self.take_ghost(addr);
        self.resident_bytes += image.len();
        if !to_main {
            self.small_bytes += image.len();
        }
        let node = Node {
            addr,
            image: Some(image),
            pinned: false,
            freq: 0,
            in_main: to_main,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(idx, to_main);
        self.map.insert(addr, idx);
        self.enforce_capacity(idx)
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
        while self.small_tail != NIL {
            let idx = self.small_tail;
            out.push(self.evict_node(idx));
        }
        while self.main_tail != NIL {
            let idx = self.main_tail;
            out.push(self.evict_node(idx));
        }
        debug_assert_eq!(self.resident_bytes, 0);
        debug_assert_eq!(self.small_bytes, 0);
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
    fn lookup_probe_and_touch_hit_residents() {
        let mut b = S3FifoBuffer::new(100);
        b.insert(addr(0), image(10, 1));
        assert!(b.lookup(addr(0)).is_some());
        assert!(b.lookup(addr(8)).is_none());
        assert!(b.probe(addr(0)).is_some());
        assert!(b.probe(addr(8)).is_none());
        assert!(b.touch(addr(0)));
        assert!(!b.touch(addr(8)));
        assert!(b.is_resident(addr(0)));
        assert_eq!(b.resident_bytes(), 10);
        assert_eq!(b.capacity(), 100);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut b = S3FifoBuffer::new(0);
        let evicted = b.insert(addr(0), image(10, 0));
        assert_eq!(evicted.len(), 1, "zero-capacity buffer bounces the newcomer");
        assert_eq!(evicted[0].0, addr(0));
        assert!(!b.is_resident(addr(0)));
        assert_eq!(b.resident_bytes(), 0);
    }

    #[test]
    fn oversized_segment_is_not_cached() {
        let mut b = S3FifoBuffer::new(15);
        b.insert(addr(0), image(10, 0));
        let evicted = b.insert(addr(1), image(100, 1));
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].0, addr(0));
        assert_eq!(evicted[1].0, addr(1));
        assert!(!b.is_resident(addr(1)));
        assert_eq!(b.resident_bytes(), 0);
    }

    #[test]
    fn pinned_segments_survive_eviction_pressure() {
        let mut b = S3FifoBuffer::new(20);
        b.insert(addr(0), image(10, 0));
        b.insert(addr(1), image(10, 1));
        assert!(b.reserve(addr(0)));
        assert!(!b.reserve(addr(9)), "reserving an absent segment is a no-op");
        let evicted = b.insert(addr(2), image(10, 2));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, addr(1));
        assert!(b.is_resident(addr(0)));
        b.release_reservations();
        let evicted = b.insert(addr(3), image(10, 3));
        assert!(
            evicted.iter().any(|(a, _)| *a == addr(0)),
            "after release the old pin is evictable"
        );
    }

    #[test]
    fn pinned_residents_bounce_unpinned_newcomers() {
        let mut b = S3FifoBuffer::new(10);
        b.insert(addr(0), image(10, 0));
        b.reserve(addr(0));
        let evicted = b.insert(addr(1), image(10, 1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, addr(1));
        assert!(b.is_resident(addr(0)));
        assert_eq!(b.resident_bytes(), 10);
    }

    #[test]
    fn dirty_images_round_trip_through_eviction() {
        let mut b = S3FifoBuffer::new(10);
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
        let mut b = S3FifoBuffer::new(100);
        b.insert(addr(0), image(10, 0));
        b.insert(addr(0), image(30, 1));
        assert_eq!(b.resident_bytes(), 30);
        assert_eq!(b.lookup(addr(0)).unwrap().bytes()[0], 1);
    }

    #[test]
    fn drain_returns_everything() {
        let mut b = S3FifoBuffer::new(1000);
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
        let mut b = S3FifoBuffer::new(100);
        b.insert(addr(0), image(10, 0));
        b.insert(addr(1), image(10, 1));
        let removed = b.remove(addr(0)).unwrap();
        assert_eq!(removed.bytes()[0], 0);
        assert!(b.remove(addr(0)).is_none());
        assert_eq!(b.resident_bytes(), 10);
    }

    #[test]
    fn stats_track_refs_and_hits() {
        let mut b = S3FifoBuffer::new(100);
        b.record_ref(true);
        b.record_ref(false);
        b.record_ref(true);
        assert_eq!(b.stats(), BufferStats { refs: 3, hits: 2 });
        b.reset_stats();
        assert_eq!(b.stats().refs, 0);
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut b = S3FifoBuffer::new(10);
        for i in 0..50 {
            b.insert(addr(i), image(10, i as u8));
        }
        assert!(b.nodes.len() <= 3, "arena must not grow without bound");
    }

    #[test]
    fn byte_bound_never_exceeded_under_churn() {
        let mut b = S3FifoBuffer::new(100);
        for round in 0..20u64 {
            for i in 0..10u64 {
                b.insert(addr(i * 7 + round), image(10 + (i as usize % 3) * 5, i as u8));
                assert!(b.resident_bytes() <= 100, "byte bound violated");
            }
        }
    }

    #[test]
    fn re_referenced_segments_are_promoted_to_main() {
        let mut b = S3FifoBuffer::new(100); // small target = 10 bytes
        b.insert(addr(0), image(10, 0));
        b.touch(addr(0)); // freq > 0: survives probation
                          // Push enough one-shot segments through to overflow the buffer.
        for i in 1..=10u64 {
            b.insert(addr(i), image(10, i as u8));
        }
        assert!(b.is_resident(addr(0)), "re-referenced segment must be promoted, not evicted");
        let idx = b.map[&addr(0)];
        assert!(b.nodes[idx].in_main, "promotion lands in the main queue");
    }

    #[test]
    fn one_shot_scan_does_not_evict_hot_set() {
        // Hot set: 4 segments of 10 bytes, referenced repeatedly. The scan
        // is 40 one-shot segments. Under LRU the scan flushes the hot set;
        // S3-FIFO keeps it.
        let mut b = S3FifoBuffer::new(100);
        for i in 0..4u64 {
            b.insert(addr(i), image(10, i as u8));
            b.touch(addr(i));
        }
        // Warm the hot set into main.
        for i in 100..110u64 {
            b.insert(addr(i), image(10, 0));
        }
        for i in 0..4u64 {
            assert!(b.is_resident(addr(i)), "hot segment {i} evicted during warmup");
            b.touch(addr(i));
        }
        // The scan: one-shot segments, never re-referenced.
        for i in 1000..1040u64 {
            b.insert(addr(i), image(10, 0));
        }
        for i in 0..4u64 {
            assert!(b.is_resident(addr(i)), "hot segment {i} evicted by one-shot scan");
        }

        // Contrast: LRU loses the entire hot set to the same trace.
        let mut lru = crate::LruBuffer::new(100);
        for i in 0..4u64 {
            lru.insert(addr(i), image(10, i as u8));
            lru.touch(addr(i));
        }
        for i in 1000..1040u64 {
            lru.insert(addr(i), image(10, 0));
        }
        for i in 0..4u64 {
            assert!(!lru.is_resident(addr(i)), "LRU baseline unexpectedly kept the hot set");
        }
    }

    #[test]
    fn ghost_hit_readmits_straight_to_main() {
        let mut b = S3FifoBuffer::new(100);
        b.insert(addr(0), image(10, 0));
        // Evict addr(0) from probation with a scan.
        for i in 1..=10u64 {
            b.insert(addr(i), image(10, i as u8));
        }
        assert!(!b.is_resident(addr(0)));
        assert!(b.ghost_set.contains(&addr(0)), "probationary eviction recorded in ghost");
        // Reinsertion after a ghost hit bypasses probation.
        b.insert(addr(0), image(10, 0));
        let idx = b.map[&addr(0)];
        assert!(b.nodes[idx].in_main, "ghost hit admits straight into main");
        assert!(!b.ghost_set.contains(&addr(0)), "ghost entry is consumed");
    }

    #[test]
    fn ghost_history_is_bounded() {
        let mut b = S3FifoBuffer::new(50);
        for i in 0..500u64 {
            b.insert(addr(i), image(10, i as u8));
        }
        let bound = (2 * b.map.len()).max(16);
        assert!(b.ghost.len() <= bound, "ghost history must stay O(residents)");
        assert_eq!(b.ghost.len(), b.ghost_set.len());
    }

    #[test]
    fn works_as_a_mneme_pool_buffer() {
        use crate::pool::{PoolConfig, PoolKindConfig};
        use crate::{MnemeFile, PoolId};
        let dev = poir_storage::Device::with_defaults();
        let handle = dev.create_file();
        let mut ids = Vec::new();
        {
            let mut f = MnemeFile::create(
                handle.clone(),
                &[PoolConfig { id: PoolId(0), kind: PoolKindConfig::SegmentPerObject }],
                8,
            )
            .unwrap();
            for i in 0..10u32 {
                ids.push(f.create_object(PoolId(0), &vec![i as u8; 5000]).unwrap());
            }
            f.flush().unwrap();
        }
        let mut f = MnemeFile::open(handle).unwrap();
        f.attach_buffer(PoolId(0), Box::new(S3FifoBuffer::new(1 << 20))).unwrap();
        for _ in 0..3 {
            for id in &ids {
                f.get(*id).unwrap();
            }
        }
        let stats = f.buffer_stats(PoolId(0)).unwrap();
        assert_eq!(stats.refs, 30);
        assert_eq!(stats.hits, 20, "all repeat passes hit under s3fifo too");
    }

    #[test]
    fn buffer_policy_parses_and_builds() {
        use crate::buffer::BufferPolicy;
        for (s, want) in [
            ("lru", BufferPolicy::Lru),
            ("s3fifo", BufferPolicy::S3Fifo),
            ("s3-fifo", BufferPolicy::S3Fifo),
        ] {
            let p: BufferPolicy = s.parse().unwrap();
            assert_eq!(p, want);
            // Built at 64 bytes: a 64-byte segment fits, a 65-byte one
            // bounces.
            assert!(p.build(64).insert(addr(0), image(64, 1)).is_empty(), "{s}");
            assert_eq!(p.build(64).insert(addr(0), image(65, 1)).len(), 1, "{s}");
        }
        assert!("arc".parse::<BufferPolicy>().is_err());
        assert_eq!(BufferPolicy::S3Fifo.to_string(), "s3fifo");
        assert_eq!(BufferPolicy::default(), BufferPolicy::Lru);
    }
}
