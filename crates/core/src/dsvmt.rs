//! The Data Speculation View Metadata Table (DSVMT) — §6.2.
//!
//! Perspective stores per-context DSV bits in "a three-level tree
//! structure supporting the three contemporary page sizes (4KB, 2MB,
//! 1GB)", accessed in parallel to the TLB, inspired by TDX's metadata
//! tables. Interior entries can terminate the walk early for huge
//! regions (a 1 GiB direct-map chunk owned by one tenant needs one L1
//! entry, not 262 144 leaf bits), which is what keeps the metadata
//! footprint and the walk latency small.
//!
//! This module is the *software/memory side* of the mechanism: the tree a
//! miss in the [`TaggedMetadataCache`](crate::hwcache::TaggedMetadataCache)
//! walks. It is kept per context and synchronized from the
//! [`DsvTable`](crate::dsv::DsvTable) ownership metadata.

use persp_kernel::context::CgroupId;
use persp_kernel::layout::frame_to_va;
use persp_kernel::sink::{AllocSink, Owner};
use persp_uarch::Asid;
use std::collections::HashMap;

/// Level of the tree at which a walk terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WalkLevel {
    /// 1 GiB granule (level-1 entry).
    Huge1G,
    /// 2 MiB granule (level-2 entry).
    Huge2M,
    /// 4 KiB leaf.
    Page4K,
}

impl WalkLevel {
    /// Bytes covered by an entry at this level.
    pub fn span_bytes(self) -> u64 {
        match self {
            WalkLevel::Huge1G => 1 << 30,
            WalkLevel::Huge2M => 1 << 21,
            WalkLevel::Page4K => 1 << 12,
        }
    }
}

/// Result of a DSVMT walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Is the page inside the context's DSV?
    pub in_view: bool,
    /// The level that answered.
    pub level: WalkLevel,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// Every 4 KiB page under this entry shares one bit (early
    /// termination).
    Uniform(bool),
    /// Mixed ownership below: descend.
    Split,
}

/// One context's three-level metadata tree.
///
/// Entries default to *outside the view* — the conservative answer
/// Perspective requires for memory with no recorded provenance (§6.1).
#[derive(Debug, Default)]
pub struct DsvmtTree {
    l1: HashMap<u64, Node>, // va >> 30
    l2: HashMap<u64, Node>, // va >> 21
    l3: HashMap<u64, bool>, // va >> 12
    stats: DsvmtStats,
}

/// Walk statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsvmtStats {
    /// Total walks.
    pub walks: u64,
    /// Walks terminated at the 1 GiB level.
    pub terminated_1g: u64,
    /// Walks terminated at the 2 MiB level.
    pub terminated_2m: u64,
    /// Walks reaching a 4 KiB leaf.
    pub reached_leaf: u64,
}

impl DsvmtTree {
    /// An empty tree (everything conservatively outside the view).
    pub fn new() -> Self {
        Self::default()
    }

    /// Walk the tree for `va`.
    pub fn walk(&mut self, va: u64) -> WalkResult {
        self.stats.walks += 1;
        match self.l1.get(&(va >> 30)) {
            None => {
                self.stats.terminated_1g += 1;
                WalkResult {
                    in_view: false,
                    level: WalkLevel::Huge1G,
                }
            }
            Some(Node::Uniform(bit)) => {
                self.stats.terminated_1g += 1;
                WalkResult {
                    in_view: *bit,
                    level: WalkLevel::Huge1G,
                }
            }
            Some(Node::Split) => match self.l2.get(&(va >> 21)) {
                None => {
                    self.stats.terminated_2m += 1;
                    WalkResult {
                        in_view: false,
                        level: WalkLevel::Huge2M,
                    }
                }
                Some(Node::Uniform(bit)) => {
                    self.stats.terminated_2m += 1;
                    WalkResult {
                        in_view: *bit,
                        level: WalkLevel::Huge2M,
                    }
                }
                Some(Node::Split) => {
                    self.stats.reached_leaf += 1;
                    let bit = self.l3.get(&(va >> 12)).copied().unwrap_or(false);
                    WalkResult {
                        in_view: bit,
                        level: WalkLevel::Page4K,
                    }
                }
            },
        }
    }

    /// Set the view bit for a `[va, va + bytes)` range, using the largest
    /// granules that fit (the OS-side update path on allocation events).
    pub fn set_range(&mut self, va: u64, bytes: u64, in_view: bool) {
        let mut cur = va & !0xfff;
        let end = va.checked_add(bytes).expect("range overflow");
        while cur < end {
            if cur.is_multiple_of(1 << 30) && end - cur >= (1 << 30) {
                self.l1.insert(cur >> 30, Node::Uniform(in_view));
                // Drop any stale finer-grained entries under this granule.
                self.prune_below_1g(cur);
                cur += 1 << 30;
            } else if cur.is_multiple_of(1 << 21) && end - cur >= (1 << 21) {
                self.split_l1(cur);
                self.l2.insert(cur >> 21, Node::Uniform(in_view));
                self.prune_below_2m(cur);
                cur += 1 << 21;
            } else {
                self.split_l1(cur);
                self.split_l2(cur);
                self.l3.insert(cur >> 12, in_view);
                cur += 1 << 12;
            }
        }
    }

    fn split_l1(&mut self, va: u64) {
        let key = va >> 30;
        match self.l1.get(&key) {
            Some(Node::Split) => {}
            Some(Node::Uniform(bit)) => {
                // Push the uniform bit down one level before splitting.
                let bit = *bit;
                self.l1.insert(key, Node::Split);
                for i in 0..(1u64 << 9) {
                    self.l2.insert((key << 9) + i, Node::Uniform(bit));
                }
            }
            None => {
                self.l1.insert(key, Node::Split);
            }
        }
    }

    fn split_l2(&mut self, va: u64) {
        let key = va >> 21;
        match self.l2.get(&key) {
            Some(Node::Split) => {}
            Some(Node::Uniform(bit)) => {
                let bit = *bit;
                self.l2.insert(key, Node::Split);
                for i in 0..(1u64 << 9) {
                    self.l3.insert((key << 9) + i, bit);
                }
            }
            None => {
                self.l2.insert(key, Node::Split);
            }
        }
    }

    fn prune_below_1g(&mut self, va: u64) {
        // Invariant: no entry exists below a Uniform node. Stale finer
        // entries would be resurrected by a later push-down split, so
        // both levels are pruned eagerly (O(map size), not O(span)).
        let key = va >> 30;
        self.l2.retain(|k, _| (k >> 9) != key);
        self.l3.retain(|k, _| (k >> 18) != key);
    }

    fn prune_below_2m(&mut self, va: u64) {
        let key = va >> 21;
        self.l3.retain(|k, _| (k >> 9) != key);
    }

    /// Entries stored per level `(l1, l2, l3)` — the metadata-footprint
    /// metric the huge-granule design optimizes.
    pub fn footprint(&self) -> (usize, usize, usize) {
        (self.l1.len(), self.l2.len(), self.l3.len())
    }

    /// Walk statistics.
    pub fn stats(&self) -> DsvmtStats {
        self.stats
    }
}

impl persp_uarch::MetricsSource for DsvmtTree {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        reg.set(format!("{prefix}.walks"), self.stats.walks);
        reg.set(format!("{prefix}.terminated_1g"), self.stats.terminated_1g);
        reg.set(format!("{prefix}.terminated_2m"), self.stats.terminated_2m);
        reg.set(format!("{prefix}.reached_leaf"), self.stats.reached_leaf);
        let (l1, l2, l3) = self.footprint();
        reg.set(format!("{prefix}.entries_1g"), l1 as u64);
        reg.set(format!("{prefix}.entries_2m"), l2 as u64);
        reg.set(format!("{prefix}.entries_4k"), l3 as u64);
    }
}

/// Per-context trees, updated from DSV ownership events.
#[derive(Debug, Default)]
pub struct DsvmtForest {
    trees: HashMap<Asid, DsvmtTree>,
}

impl DsvmtForest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tree of a context (created on first use).
    pub fn tree(&mut self, asid: Asid) -> &mut DsvmtTree {
        self.trees.entry(asid).or_default()
    }

    /// Number of contexts with trees.
    pub fn contexts(&self) -> usize {
        self.trees.len()
    }
}

/// A hardware-facing mirror of DSV ownership: one [`DsvmtTree`] per
/// context, kept current from the same allocation-event stream the
/// [`DsvTable`](crate::dsv::DsvTable) consumes (tee the kernel sink with
/// [`TeeSink`](persp_kernel::sink::TeeSink)). This is the in-memory
/// structure a DSVMT-cache miss would walk in hardware; the flat policy
/// model queries the table directly, and the consistency tests assert
/// the two always agree.
#[derive(Debug, Default)]
pub struct DsvmtMirror {
    forest: DsvmtForest,
    contexts: HashMap<Asid, CgroupId>,
    by_cgroup: HashMap<CgroupId, Vec<Asid>>,
    /// Shared ranges seen so far, replayed into late-registered contexts.
    shared_log: Vec<(u64, u64)>,
}

impl DsvmtMirror {
    /// An empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walk the tree of `asid` for `va`.
    pub fn walk(&mut self, asid: Asid, va: u64) -> WalkResult {
        self.forest.tree(asid).walk(va)
    }

    /// Per-level metadata footprint summed over all contexts.
    pub fn total_footprint(&mut self) -> (usize, usize, usize) {
        let mut sum = (0, 0, 0);
        let asids: Vec<Asid> = self.contexts.keys().copied().collect();
        for asid in asids {
            let (a, b, c) = self.forest.tree(asid).footprint();
            sum.0 += a;
            sum.1 += b;
            sum.2 += c;
        }
        sum
    }

    fn set_everywhere(&mut self, va: u64, bytes: u64, in_view: bool) {
        let asids: Vec<Asid> = self.contexts.keys().copied().collect();
        for asid in asids {
            self.forest.tree(asid).set_range(va, bytes, in_view);
        }
    }

    fn set_for_cgroup(&mut self, cgroup: CgroupId, va: u64, bytes: u64, in_view: bool) {
        if let Some(asids) = self.by_cgroup.get(&cgroup) {
            for &asid in &asids.clone() {
                self.forest.tree(asid).set_range(va, bytes, in_view);
            }
        }
    }
}

impl AllocSink for DsvmtMirror {
    fn register_context(&mut self, asid: u16, cgroup: CgroupId) {
        self.contexts.insert(asid, cgroup);
        self.by_cgroup.entry(cgroup).or_default().push(asid);
        // Replay boot-time shared regions into the new context's tree.
        for &(va, bytes) in &self.shared_log.clone() {
            self.forest.tree(asid).set_range(va, bytes, true);
        }
    }

    fn assign_frames(&mut self, first_frame: u64, count: u64, owner: Owner) {
        let va = frame_to_va(first_frame);
        let bytes = count * 4096;
        match owner {
            Owner::Shared => {
                self.shared_log.push((va, bytes));
                self.set_everywhere(va, bytes, true);
            }
            Owner::Cgroup(c) => self.set_for_cgroup(c, va, bytes, true),
            Owner::Unknown => {}
        }
    }

    fn release_frames(&mut self, first_frame: u64, count: u64) {
        // Conservative: released memory leaves every view.
        self.set_everywhere(frame_to_va(first_frame), count * 4096, false);
    }

    fn assign_va_range(&mut self, va: u64, bytes: u64, owner: Owner) {
        match owner {
            Owner::Shared => {
                self.shared_log.push((va, bytes));
                self.set_everywhere(va, bytes, true);
            }
            Owner::Cgroup(c) => self.set_for_cgroup(c, va, bytes, true),
            Owner::Unknown => {}
        }
    }

    fn release_va_range(&mut self, va: u64, bytes: u64) {
        self.set_everywhere(va, bytes, false);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn stale_leaves_are_not_resurrected_by_push_down() {
        // Regression: a leaf written before a uniform 1 GiB overwrite
        // must not survive to override a later push-down split.
        let mut t = DsvmtTree::new();
        t.set_range(0, 1 << 12, true); // leaf l3[0] = true
        t.set_range(0, 1 << 30, false); // whole region out of view
        t.set_range(1 << 12, 1 << 12, true); // splits back down to leaves
        let r = t.walk(0);
        assert!(!r.in_view, "page 0 was overwritten by the 1 GiB clear");
        assert!(t.walk(1 << 12).in_view);
    }

    use super::*;

    #[test]
    fn empty_tree_is_conservatively_outside() {
        let mut t = DsvmtTree::new();
        let r = t.walk(0xFFFF_9000_0000_0000);
        assert!(!r.in_view);
        assert_eq!(r.level, WalkLevel::Huge1G, "short-circuits at the top");
    }

    #[test]
    fn page_grain_set_and_walk() {
        let mut t = DsvmtTree::new();
        t.set_range(0x1000, 0x2000, true); // two 4K pages
        assert!(t.walk(0x1000).in_view);
        assert!(t.walk(0x2fff).in_view);
        assert!(!t.walk(0x3000).in_view);
        assert_eq!(t.walk(0x1000).level, WalkLevel::Page4K);
    }

    #[test]
    fn huge_ranges_use_coarse_granules() {
        let mut t = DsvmtTree::new();
        // A 1 GiB-aligned, 1 GiB range: exactly one L1 entry.
        t.set_range(1 << 30, 1 << 30, true);
        let (l1, l2, l3) = t.footprint();
        assert_eq!((l1, l2, l3), (1, 0, 0), "one uniform L1 entry suffices");
        let r = t.walk((1 << 30) + 0x1234);
        assert!(r.in_view);
        assert_eq!(r.level, WalkLevel::Huge1G);
    }

    #[test]
    fn mixed_granularity_composes() {
        let mut t = DsvmtTree::new();
        // 2 MiB-aligned 2 MiB chunk, then punch a 4 KiB hole.
        t.set_range(1 << 21, 1 << 21, true);
        assert_eq!(t.walk((1 << 21) + 0x5000).level, WalkLevel::Huge2M);
        t.set_range((1 << 21) + 0x5000, 0x1000, false);
        assert!(
            !t.walk((1 << 21) + 0x5000).in_view,
            "the hole is out of view"
        );
        assert!(t.walk((1 << 21) + 0x4000).in_view, "neighbors keep the bit");
        assert!(t.walk((1 << 21) + 0x6000).in_view);
    }

    #[test]
    fn unaligned_range_spans_levels() {
        let mut t = DsvmtTree::new();
        // 4 KiB before a 2 MiB boundary through 2 MiB + 8 KiB after it.
        let base = (1 << 21) - 0x1000;
        t.set_range(base, 0x1000 + (1 << 21) + 0x2000, true);
        assert!(t.walk(base).in_view);
        assert!(t.walk(1 << 21).in_view);
        assert!(t.walk((2 << 21) + 0x1000).in_view);
        assert!(!t.walk((2 << 21) + 0x2000).in_view);
    }

    #[test]
    fn revoking_a_range_flips_bits() {
        let mut t = DsvmtTree::new();
        t.set_range(0x10_0000, 0x4000, true);
        t.set_range(0x10_0000, 0x4000, false);
        assert!(!t.walk(0x10_0000).in_view);
        assert!(!t.walk(0x10_3000).in_view);
    }

    #[test]
    fn walk_stats_accumulate_by_level() {
        let mut t = DsvmtTree::new();
        t.set_range(1 << 30, 1 << 30, true);
        t.set_range(0x1000, 0x1000, true);
        t.walk(1 << 30); // 1G termination
        t.walk(0x1000); // leaf
        t.walk(0xDEAD_0000_0000); // miss at top
        let s = t.stats();
        assert_eq!(s.walks, 3);
        assert_eq!(s.terminated_1g, 2);
        assert_eq!(s.reached_leaf, 1);
    }

    #[test]
    fn forest_isolates_contexts() {
        let mut f = DsvmtForest::new();
        f.tree(1).set_range(0x1000, 0x1000, true);
        assert!(f.tree(1).walk(0x1000).in_view);
        assert!(
            !f.tree(2).walk(0x1000).in_view,
            "other context sees nothing"
        );
        assert_eq!(f.contexts(), 2);
    }

    #[test]
    fn mirror_tracks_ownership_per_context() {
        let mut m = DsvmtMirror::new();
        m.register_context(1, 10);
        m.register_context(2, 20);
        m.assign_frames(100, 1, Owner::Cgroup(10));
        assert!(m.walk(1, frame_to_va(100)).in_view);
        assert!(!m.walk(2, frame_to_va(100)).in_view, "foreign stays out");
        m.release_frames(100, 1);
        assert!(!m.walk(1, frame_to_va(100)).in_view, "release dissolves");
    }

    #[test]
    fn mirror_replays_shared_regions_to_late_contexts() {
        let mut m = DsvmtMirror::new();
        m.assign_va_range(0xFFFF_8400_0000_0000, 1 << 21, Owner::Shared);
        m.register_context(5, 50);
        assert!(
            m.walk(5, 0xFFFF_8400_0000_1234).in_view,
            "boot-time shared data visible to contexts created later"
        );
    }

    #[test]
    fn splitting_preserves_uniform_bits() {
        let mut t = DsvmtTree::new();
        t.set_range(0, 1 << 30, true); // uniform 1G
                                       // Punching a hole forces splits; everything else must stay set.
        t.set_range(0x40_0000, 0x1000, false);
        assert!(!t.walk(0x40_0000).in_view);
        assert!(t.walk(0x3F_F000).in_view);
        assert!(t.walk(0x41_0000).in_view);
        assert!(
            t.walk(0x2000_0000).in_view,
            "distant page under the old granule"
        );
    }
}
