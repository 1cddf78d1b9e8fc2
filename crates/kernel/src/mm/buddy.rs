//! A buddy allocator over physical frames.
//!
//! This is the mini-OS analog of Linux's `alloc_pages()`. Perspective's
//! integration point (§6.1) is exactly here: every allocation carries the
//! cgroup of the requesting context, and the allocator reports ownership to
//! the configured [`AllocSink`] so the DSV of the
//! corresponding direct-map pages stays current.

use crate::context::CgroupId;
use crate::sink::{AllocSink, Owner};
use std::collections::{BTreeSet, HashMap};

/// Largest supported order (2^10 frames = 4 MiB blocks).
pub const MAX_ORDER: u8 = 10;

/// Buddy allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Block splits performed.
    pub splits: u64,
    /// Buddy merges performed.
    pub merges: u64,
    /// Allocation failures (out of memory).
    pub failures: u64,
}

impl persp_uarch::MetricsSource for BuddyAllocator {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        reg.set(format!("{prefix}.allocs"), self.stats.allocs);
        reg.set(format!("{prefix}.frees"), self.stats.frees);
        reg.set(format!("{prefix}.splits"), self.stats.splits);
        reg.set(format!("{prefix}.merges"), self.stats.merges);
        reg.set(format!("{prefix}.failures"), self.stats.failures);
        reg.set(format!("{prefix}.free_frames"), self.free_frames());
        reg.set(format!("{prefix}.num_frames"), self.num_frames);
    }
}

/// The buddy allocator.
#[derive(Debug)]
pub struct BuddyAllocator {
    num_frames: u64,
    free_lists: Vec<BTreeSet<u64>>,
    allocated: HashMap<u64, (u8, Owner)>,
    stats: BuddyStats,
}

impl BuddyAllocator {
    /// Manage `num_frames` physical frames, initially all free.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero.
    pub fn new(num_frames: u64) -> Self {
        assert!(num_frames > 0, "cannot manage zero frames");
        let mut free_lists = vec![BTreeSet::new(); (MAX_ORDER + 1) as usize];
        // Seed with maximal aligned blocks.
        let mut frame = 0;
        while frame < num_frames {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if frame % size == 0 && frame + size <= num_frames {
                    break;
                }
                order -= 1;
            }
            free_lists[order as usize].insert(frame);
            frame += 1u64 << order;
        }
        BuddyAllocator {
            num_frames,
            free_lists,
            allocated: HashMap::new(),
            stats: BuddyStats::default(),
        }
    }

    /// Total managed frames.
    pub fn num_frames(&self) -> u64 {
        self.num_frames
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_lists
            .iter()
            .enumerate()
            .map(|(order, set)| set.len() as u64 * (1u64 << order))
            .sum()
    }

    /// Allocate a block of `2^order` frames on behalf of `owner`,
    /// reporting ownership to `sink`. Returns the first frame number.
    pub fn alloc(&mut self, order: u8, owner: Owner, sink: &mut dyn AllocSink) -> Option<u64> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest order with a free block.
        let mut from = None;
        for o in order..=MAX_ORDER {
            if let Some(&frame) = self.free_lists[o as usize].iter().next() {
                from = Some((o, frame));
                break;
            }
        }
        let Some((mut o, frame)) = from else {
            self.stats.failures += 1;
            return None;
        };
        self.free_lists[o as usize].remove(&frame);
        // Split down to the requested order.
        while o > order {
            o -= 1;
            let buddy = frame + (1u64 << o);
            self.free_lists[o as usize].insert(buddy);
            self.stats.splits += 1;
        }
        self.allocated.insert(frame, (order, owner));
        self.stats.allocs += 1;
        sink.assign_frames(frame, 1 << order, owner);
        Some(frame)
    }

    /// Convenience: allocate for a cgroup.
    pub fn alloc_for_cgroup(
        &mut self,
        order: u8,
        cgroup: CgroupId,
        sink: &mut dyn AllocSink,
    ) -> Option<u64> {
        self.alloc(order, Owner::Cgroup(cgroup), sink)
    }

    /// Free a previously allocated block; merges with free buddies.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not the start of a live allocation
    /// (double-free / bad-pointer detection).
    pub fn free(&mut self, frame: u64, sink: &mut dyn AllocSink) {
        let (order, _owner) = self
            .allocated
            .remove(&frame)
            .unwrap_or_else(|| panic!("free of unallocated frame {frame}"));
        sink.release_frames(frame, 1 << order);
        self.stats.frees += 1;
        // Merge upward.
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            if !self.free_lists[order as usize].remove(&buddy) {
                break;
            }
            self.stats.merges += 1;
            frame = frame.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(frame);
    }

    /// Owner of the allocation containing nothing but `frame` as its first
    /// frame, if live.
    pub fn owner_of(&self, frame: u64) -> Option<Owner> {
        self.allocated.get(&frame).map(|&(_, o)| o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, RecordingSink};

    #[test]
    fn alloc_free_round_trip() {
        let mut b = BuddyAllocator::new(1024);
        let mut sink = NullSink;
        assert_eq!(b.free_frames(), 1024);
        let f = b.alloc(0, Owner::Shared, &mut sink).unwrap();
        assert_eq!(b.free_frames(), 1023);
        b.free(f, &mut sink);
        assert_eq!(b.free_frames(), 1024);
    }

    #[test]
    fn split_and_merge_restore_invariant() {
        let mut b = BuddyAllocator::new(1 << MAX_ORDER);
        let mut sink = NullSink;
        let frames: Vec<u64> = (0..8)
            .map(|_| b.alloc(0, Owner::Shared, &mut sink).unwrap())
            .collect();
        assert!(b.stats().splits > 0);
        for f in frames {
            b.free(f, &mut sink);
        }
        assert_eq!(b.free_frames(), 1 << MAX_ORDER);
        // Everything merged back into one maximal block.
        assert_eq!(b.free_lists[MAX_ORDER as usize].len(), 1);
        assert!(b.stats().merges > 0);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mut b = BuddyAllocator::new(256);
        let mut sink = NullSink;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let f = b.alloc(1, Owner::Shared, &mut sink).unwrap(); // 2 frames each
            assert!(seen.insert(f));
            assert!(seen.insert(f + 1) || !seen.contains(&(f + 1)));
        }
    }

    #[test]
    fn out_of_memory_returns_none() {
        let mut b = BuddyAllocator::new(2);
        let mut sink = NullSink;
        assert!(b.alloc(0, Owner::Shared, &mut sink).is_some());
        assert!(b.alloc(0, Owner::Shared, &mut sink).is_some());
        assert!(b.alloc(0, Owner::Shared, &mut sink).is_none());
        assert_eq!(b.stats().failures, 1);
    }

    #[test]
    fn ownership_is_reported_to_sink() {
        let mut b = BuddyAllocator::new(64);
        let mut sink = RecordingSink::default();
        let f = b.alloc_for_cgroup(2, 9, &mut sink).unwrap();
        assert_eq!(sink.frame_assigns, vec![(f, 4, Owner::Cgroup(9))]);
        assert_eq!(b.owner_of(f), Some(Owner::Cgroup(9)));
        b.free(f, &mut sink);
        assert_eq!(sink.frame_releases, vec![(f, 4)]);
        assert_eq!(b.owner_of(f), None);
    }

    #[test]
    #[should_panic(expected = "free of unallocated frame")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(16);
        let mut sink = NullSink;
        let f = b.alloc(0, Owner::Shared, &mut sink).unwrap();
        b.free(f, &mut sink);
        b.free(f, &mut sink);
    }

    #[test]
    fn non_power_of_two_frame_counts_are_seeded_fully() {
        let b = BuddyAllocator::new(1000);
        assert_eq!(b.free_frames(), 1000);
    }
}
