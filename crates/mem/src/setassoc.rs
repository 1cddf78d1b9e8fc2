//! Flat storage for every set-associative structure: the caches, the TLB
//! and Perspective's ISV/DSVMT metadata caches.
//!
//! A [`SetAssoc`] keeps all `sets * ways` entries in one contiguous
//! allocation (set `i` is the slice `i * ways .. (i + 1) * ways`), so
//! building even the 2 MB L2 is a single allocation. Each user keeps its
//! own entry type, lookup and counters; what they share is the geometry
//! and the one LRU victim rule, [`SetAssoc::victim`].

use std::fmt;

/// What the victim rule reads from an entry.
pub trait Way {
    /// Whether the way holds a live entry.
    fn valid(&self) -> bool;
    /// Stamp of the entry's last (committed) use; lowest = LRU victim.
    /// Live entries are stamped from 1 up.
    fn lru(&self) -> u64;
}

/// Hit rate in `[0, 1]` of a structure's lookups; `1.0` when there
/// were none.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// `sets * ways` entries of type `E` in one allocation.
pub struct SetAssoc<E> {
    ways: usize,
    set_mask: u64,
    slots: Vec<E>,
}

/// The geometry only: a cache's entries are too many to print.
impl<E> fmt::Debug for SetAssoc<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssoc")
            .field("sets", &(self.set_mask + 1))
            .field("ways", &self.ways)
            .finish_non_exhaustive()
    }
}

impl<E: Way + Clone> SetAssoc<E> {
    /// `sets` sets of `ways` copies of `empty`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or `sets` is not a power of two.
    pub fn new(sets: usize, ways: usize, empty: E) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        SetAssoc {
            ways,
            set_mask: (sets - 1) as u64,
            slots: vec![empty; sets * ways],
        }
    }

    /// Split a block number (an address shifted right by the block size)
    /// into its set index and the tag stored above the index bits.
    pub fn locate(&self, block: u64) -> (usize, u64) {
        (
            (block & self.set_mask) as usize,
            block >> self.set_mask.count_ones(),
        )
    }

    /// The ways of set `i`.
    pub fn set(&self, i: usize) -> &[E] {
        &self.slots[i * self.ways..(i + 1) * self.ways]
    }

    /// The ways of set `i`, mutably.
    pub fn set_mut(&mut self, i: usize) -> &mut [E] {
        &mut self.slots[i * self.ways..(i + 1) * self.ways]
    }

    /// The first live way of set `i` that `hit` accepts.
    pub fn find(&mut self, i: usize, hit: impl Fn(&E) -> bool) -> Option<&mut E> {
        self.set_mut(i).iter_mut().find(|e| e.valid() && hit(e))
    }

    /// Every entry of every set, mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, E> {
        self.slots.iter_mut()
    }

    /// The way of set `i` an allocation replaces: the first invalid way,
    /// else the live way with the lowest LRU stamp (the first such way
    /// on a tie).
    pub fn victim(&mut self, i: usize) -> &mut E {
        self.set_mut(i)
            .iter_mut()
            .min_by_key(|e| if e.valid() { e.lru() } else { 0 })
            .expect("a set is never empty")
    }
}
