//! The slab allocator — standard (Linux-like) and Perspective's secure
//! variant.
//!
//! Linux's slab packs small allocations from *mutually distrusting*
//! contexts into the same pages (even the same cache line), which defeats
//! page-granular ownership tracking (§5.2). Perspective's **secure slab
//! allocator** (§6.1) keeps, for each object size class, *separate page
//! lists per cgroup*, eliminating collocation at page granularity.
//!
//! Both variants are implemented behind one type so the evaluation can
//! compare fragmentation (§9.2 "Memory Fragmentation") and count the
//! page-level domain-reassignment operations (§9.2 "Domain Reassignment").

use crate::context::CgroupId;
use crate::layout::{frame_to_va, va_to_frame, PAGE_SIZE};
use crate::mm::buddy::BuddyAllocator;
use crate::sink::{AllocSink, Owner};
use std::collections::HashMap;

/// kmalloc size classes, as in Linux (8 B up to one page).
pub const SIZE_CLASSES: [usize; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Pick the smallest class that fits `size`.
pub fn size_class(size: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= size)
}

/// Slab statistics (drives the §9.2 sensitivity analyses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Object allocations served.
    pub object_allocs: u64,
    /// Object frees.
    pub object_frees: u64,
    /// Pages obtained from the buddy allocator.
    pub page_allocs: u64,
    /// Pages returned to the buddy allocator — each one is a *domain
    /// reassignment* in the secure allocator.
    pub page_frees: u64,
}

impl SlabStats {
    /// Fraction of object frees that caused a page to go back to the buddy
    /// allocator (the paper reports 0.003 %–0.23 % across workloads).
    pub fn page_op_ratio(&self) -> f64 {
        if self.object_frees == 0 {
            0.0
        } else {
            self.page_frees as f64 / self.object_frees as f64
        }
    }
}

#[derive(Debug)]
struct SlabPage {
    class: usize,
    owner_key: u64,
    used: Vec<bool>,
    free_count: usize,
}

impl SlabPage {
    fn objects_per_page(class: usize) -> usize {
        PAGE_SIZE as usize / SIZE_CLASSES[class]
    }
}

/// The slab allocator. `secure: true` gives Perspective's per-cgroup page
/// lists; `false` gives the packing Linux baseline.
#[derive(Debug)]
pub struct SlabAllocator {
    secure: bool,
    /// (class, owner_key) -> frames with at least one free slot.
    partial: HashMap<(usize, u64), Vec<u64>>,
    pages: HashMap<u64, SlabPage>,
    stats: SlabStats,
}

const SHARED_KEY: u64 = u64::MAX;

impl SlabAllocator {
    /// Create an allocator; `secure` selects Perspective's variant.
    pub fn new(secure: bool) -> Self {
        SlabAllocator {
            secure,
            partial: HashMap::new(),
            pages: HashMap::new(),
            stats: SlabStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SlabStats {
        self.stats
    }

    fn owner_key(&self, cgroup: CgroupId) -> u64 {
        if self.secure {
            u64::from(cgroup)
        } else {
            SHARED_KEY
        }
    }

    /// Allocate `size` bytes on behalf of `cgroup` (Linux `kmalloc`).
    /// Returns the object's direct-map virtual address.
    ///
    /// Under the secure variant the backing page's DSV ownership is the
    /// allocating cgroup; under the baseline the page is `Shared` (packed
    /// across contexts — the very problem §5.2 describes).
    pub fn kmalloc(
        &mut self,
        size: usize,
        cgroup: CgroupId,
        buddy: &mut BuddyAllocator,
        sink: &mut dyn AllocSink,
    ) -> Option<u64> {
        let class = size_class(size)?;
        let key = self.owner_key(cgroup);
        let frame = match self
            .partial
            .get(&(class, key))
            .and_then(|v| v.last().copied())
        {
            Some(f) => f,
            None => {
                let owner = if self.secure {
                    Owner::Cgroup(cgroup)
                } else {
                    Owner::Shared
                };
                let f = buddy.alloc(0, owner, sink)?;
                self.stats.page_allocs += 1;
                self.pages.insert(
                    f,
                    SlabPage {
                        class,
                        owner_key: key,
                        used: vec![false; SlabPage::objects_per_page(class)],
                        free_count: SlabPage::objects_per_page(class),
                    },
                );
                self.partial.entry((class, key)).or_default().push(f);
                f
            }
        };
        let page = self.pages.get_mut(&frame).expect("partial page exists");
        let slot = page
            .used
            .iter()
            .position(|u| !u)
            .expect("partial page has a free slot");
        page.used[slot] = true;
        page.free_count -= 1;
        if page.free_count == 0 {
            let list = self.partial.get_mut(&(class, key)).expect("listed");
            list.retain(|&f| f != frame);
        }
        self.stats.object_allocs += 1;
        Some(frame_to_va(frame) + (slot * SIZE_CLASSES[class]) as u64)
    }

    /// Free an object previously returned by [`SlabAllocator::kmalloc`].
    /// When the last object of a page is freed, the page returns to the
    /// buddy allocator — a domain-reassignment event.
    ///
    /// # Panics
    ///
    /// Panics on addresses that are not live slab objects.
    pub fn kfree(&mut self, va: u64, buddy: &mut BuddyAllocator, sink: &mut dyn AllocSink) {
        let frame = va_to_frame(va).expect("kfree of non-direct-map address");
        let page = self.pages.get_mut(&frame).expect("kfree of non-slab page");
        let class = page.class;
        let key = page.owner_key;
        let offset = (va - frame_to_va(frame)) as usize;
        assert_eq!(offset % SIZE_CLASSES[class], 0, "kfree of interior pointer");
        let slot = offset / SIZE_CLASSES[class];
        assert!(page.used[slot], "double kfree at {va:#x}");
        page.used[slot] = false;
        let was_full = page.free_count == 0;
        page.free_count += 1;
        self.stats.object_frees += 1;

        if page.free_count == page.used.len() {
            // Whole page free: return it to the buddy allocator.
            self.pages.remove(&frame);
            if let Some(list) = self.partial.get_mut(&(class, key)) {
                list.retain(|&f| f != frame);
            }
            buddy.free(frame, sink);
            self.stats.page_frees += 1;
        } else if was_full {
            self.partial.entry((class, key)).or_default().push(frame);
        }
    }

    /// Memory utilization: `(active_object_bytes, total_slab_bytes)`.
    /// The §9.2 fragmentation metric is `1 - active/total` relative to the
    /// baseline allocator.
    pub fn utilization(&self) -> (u64, u64) {
        let mut active = 0u64;
        let mut total = 0u64;
        for page in self.pages.values() {
            let objs = page.used.len();
            let used = objs - page.free_count;
            active += (used * SIZE_CLASSES[page.class]) as u64;
            total += PAGE_SIZE;
        }
        (active, total)
    }

    /// Number of live slab pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len()
    }
}

impl persp_uarch::MetricsSource for SlabAllocator {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        reg.set(format!("{prefix}.object_allocs"), self.stats.object_allocs);
        reg.set(format!("{prefix}.object_frees"), self.stats.object_frees);
        reg.set(format!("{prefix}.page_allocs"), self.stats.page_allocs);
        reg.set(format!("{prefix}.page_frees"), self.stats.page_frees);
        reg.set(format!("{prefix}.live_pages"), self.pages.len() as u64);
        let (active, total) = self.utilization();
        reg.set(format!("{prefix}.active_bytes"), active);
        reg.set(format!("{prefix}.total_bytes"), total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, RecordingSink};

    fn setup() -> (BuddyAllocator, NullSink) {
        (BuddyAllocator::new(4096), NullSink)
    }

    #[test]
    fn size_class_selection() {
        assert_eq!(size_class(1), Some(0));
        assert_eq!(size_class(8), Some(0));
        assert_eq!(size_class(9), Some(1));
        assert_eq!(size_class(4096), Some(9));
        assert_eq!(size_class(4097), None);
    }

    #[test]
    fn kmalloc_kfree_round_trip() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(true);
        let a = slab.kmalloc(64, 1, &mut buddy, &mut sink).unwrap();
        let b = slab.kmalloc(64, 1, &mut buddy, &mut sink).unwrap();
        assert_ne!(a, b);
        assert_eq!(b - a, 64, "objects pack within a page");
        slab.kfree(a, &mut buddy, &mut sink);
        slab.kfree(b, &mut buddy, &mut sink);
        assert_eq!(slab.live_pages(), 0, "empty page returned to buddy");
        assert_eq!(slab.stats().page_frees, 1);
    }

    #[test]
    fn baseline_packs_across_cgroups() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(false);
        let a = slab.kmalloc(8, 1, &mut buddy, &mut sink).unwrap();
        let b = slab.kmalloc(8, 2, &mut buddy, &mut sink).unwrap();
        // Mutually distrusting contexts share a page (and a cache line!).
        assert_eq!(a & !0xfff, b & !0xfff);
        assert_eq!(b - a, 8);
    }

    #[test]
    fn secure_slab_isolates_cgroups_at_page_granularity() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(true);
        let a = slab.kmalloc(8, 1, &mut buddy, &mut sink).unwrap();
        let b = slab.kmalloc(8, 2, &mut buddy, &mut sink).unwrap();
        assert_ne!(a & !0xfff, b & !0xfff, "no collocation across cgroups");
    }

    #[test]
    fn secure_pages_carry_cgroup_ownership() {
        let mut buddy = BuddyAllocator::new(4096);
        let mut sink = RecordingSink::default();
        let mut slab = SlabAllocator::new(true);
        slab.kmalloc(128, 5, &mut buddy, &mut sink).unwrap();
        assert_eq!(sink.frame_assigns.len(), 1);
        assert_eq!(sink.frame_assigns[0].2, Owner::Cgroup(5));

        let mut sink2 = RecordingSink::default();
        let mut slab2 = SlabAllocator::new(false);
        slab2.kmalloc(128, 5, &mut buddy, &mut sink2).unwrap();
        assert_eq!(sink2.frame_assigns[0].2, Owner::Shared);
    }

    #[test]
    fn page_reused_after_partial_free() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(true);
        // Fill a whole 4096/2048 = 2-object page.
        let a = slab.kmalloc(2048, 1, &mut buddy, &mut sink).unwrap();
        let b = slab.kmalloc(2048, 1, &mut buddy, &mut sink).unwrap();
        assert_eq!(a & !0xfff, b & !0xfff);
        slab.kfree(a, &mut buddy, &mut sink);
        // The page moved back to the partial list and the slot is reused.
        let c = slab.kmalloc(2048, 1, &mut buddy, &mut sink).unwrap();
        assert_eq!(c, a);
        assert_eq!(slab.stats().page_allocs, 1, "no second page needed");
    }

    #[test]
    fn utilization_accounts_active_bytes() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(true);
        slab.kmalloc(64, 1, &mut buddy, &mut sink).unwrap();
        slab.kmalloc(64, 1, &mut buddy, &mut sink).unwrap();
        let (active, total) = slab.utilization();
        assert_eq!(active, 128);
        assert_eq!(total, PAGE_SIZE);
    }

    #[test]
    fn secure_variant_fragments_more_than_baseline() {
        // 4 cgroups × small allocations: the baseline packs them into one
        // page, the secure variant needs one page per cgroup.
        let (mut buddy, mut sink) = setup();
        let mut base = SlabAllocator::new(false);
        let mut secure = SlabAllocator::new(true);
        for cg in 0..4 {
            base.kmalloc(8, cg, &mut buddy, &mut sink).unwrap();
            secure.kmalloc(8, cg, &mut buddy, &mut sink).unwrap();
        }
        assert_eq!(base.live_pages(), 1);
        assert_eq!(secure.live_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "double kfree")]
    fn double_free_detected() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(true);
        // Keep a second object live so the page isn't returned to buddy.
        let a = slab.kmalloc(64, 1, &mut buddy, &mut sink).unwrap();
        let _b = slab.kmalloc(64, 1, &mut buddy, &mut sink).unwrap();
        slab.kfree(a, &mut buddy, &mut sink);
        slab.kfree(a, &mut buddy, &mut sink);
    }

    #[test]
    fn page_op_ratio_matches_definition() {
        let (mut buddy, mut sink) = setup();
        let mut slab = SlabAllocator::new(true);
        let objs: Vec<u64> = (0..4)
            .map(|_| slab.kmalloc(2048, 1, &mut buddy, &mut sink).unwrap())
            .collect();
        for o in objs {
            slab.kfree(o, &mut buddy, &mut sink);
        }
        // 4 frees, 2 page releases (2 objects per page).
        let s = slab.stats();
        assert_eq!(s.object_frees, 4);
        assert_eq!(s.page_frees, 2);
        assert!((s.page_op_ratio() - 0.5).abs() < 1e-12);
    }
}
