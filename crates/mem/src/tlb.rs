//! ASID-tagged TLB model.
//!
//! Perspective's ISV cache refill path sends "the instruction VA combined
//! with the offset ... to the TLB to locate the physical address of the ISV
//! page" (§6.2). We model the TLB as a tagged, set-associative structure
//! whose only observable behavior is hit/miss latency; translation itself is
//! identity in the simulator (the mini-OS uses a direct-mapped layout).

use crate::setassoc::{SetAssoc, Way};

/// Geometry of the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Page size covered by one entry, in bytes.
    pub page_bytes: u64,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
    /// Latency of a miss (page-table walk), in cycles.
    pub miss_latency: u64,
}

impl TlbConfig {
    /// A 64-entry, 4-way, 4 KiB-page TLB with a 20-cycle walk — a typical
    /// L1 DTLB configuration.
    pub fn default_dtlb() -> Self {
        TlbConfig {
            entries: 64,
            ways: 4,
            page_bytes: 4096,
            hit_latency: 1,
            miss_latency: 20,
        }
    }
}

/// Hit/miss counters (same shape as [`crate::CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that required a walk.
    pub misses: u64,
    /// Walks whose refill displaced a live entry.
    pub evictions: u64,
    /// Live entries dropped by [`Tlb::invalidate_asid`].
    pub flushes: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; `1.0` when empty.
    pub fn hit_rate(&self) -> f64 {
        crate::setassoc::hit_rate(self.hits, self.misses)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    vpn: u64,
    asid: u16,
    valid: bool,
    lru: u64,
}

impl Way for TlbEntry {
    fn valid(&self) -> bool {
        self.valid
    }
    fn lru(&self) -> u64 {
        self.lru
    }
}

/// ASID-tagged set-associative TLB.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    entries: SetAssoc<TlbEntry>,
    clock: u64,
    stats: TlbStats,
    page_shift: u32,
}

impl Tlb {
    /// Build an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways`, or the set count /
    /// page size is not a power of two.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways),
            "entries must be a multiple of ways"
        );
        let entries = SetAssoc::new(cfg.entries / cfg.ways, cfg.ways, TlbEntry::default());
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            cfg,
            entries,
            clock: 0,
            stats: TlbStats::default(),
            page_shift: cfg.page_bytes.trailing_zeros(),
        }
    }

    /// Translate `va` for address space `asid`. Returns the access latency;
    /// allocates an entry on a miss. Thanks to ASID tags, no flush is needed
    /// on context switch.
    pub fn translate(&mut self, va: u64, asid: u16) -> u64 {
        self.clock += 1;
        let clock = self.clock;
        let vpn = va >> self.page_shift;
        let (set_idx, _) = self.entries.locate(vpn);
        if let Some(e) = self
            .entries
            .find(set_idx, |e| e.vpn == vpn && e.asid == asid)
        {
            e.lru = clock;
            self.stats.hits += 1;
            return self.cfg.hit_latency;
        }
        self.stats.misses += 1;
        let victim = self.entries.victim(set_idx);
        if victim.valid {
            self.stats.evictions += 1;
        }
        *victim = TlbEntry {
            vpn,
            asid,
            valid: true,
            lru: clock,
        };
        self.cfg.miss_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Drop every entry belonging to `asid` (used when an address space is
    /// destroyed).
    pub fn invalidate_asid(&mut self, asid: u16) {
        for e in self.entries.iter_mut() {
            if e.valid && e.asid == asid {
                e.valid = false;
                self.stats.flushes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(TlbConfig::default_dtlb());
        assert_eq!(t.translate(0x1000, 1), 20);
        assert_eq!(t.translate(0x1fff, 1), 1, "same page hits");
        assert_eq!(t.translate(0x2000, 1), 20, "next page misses");
    }

    #[test]
    fn asid_tags_isolate_contexts() {
        let mut t = Tlb::new(TlbConfig::default_dtlb());
        t.translate(0x1000, 1);
        assert_eq!(t.translate(0x1000, 2), 20, "different ASID must miss");
        assert_eq!(t.translate(0x1000, 1), 1, "original ASID still resident");
    }

    #[test]
    fn invalidate_asid_clears_only_that_space() {
        let mut t = Tlb::new(TlbConfig::default_dtlb());
        t.translate(0x1000, 1);
        t.translate(0x1000, 2);
        t.invalidate_asid(1);
        assert_eq!(t.translate(0x1000, 1), 20);
        assert_eq!(t.translate(0x1000, 2), 1);
    }

    #[test]
    fn evictions_and_flushes_across_two_asids() {
        // 64-entry / 4-way => 16 sets; VPNs congruent mod 16 share a
        // set. Fill set 0 with two pages per ASID (4 ways, no
        // evictions yet), then overflow it and tear one space down.
        let mut t = Tlb::new(TlbConfig::default_dtlb());
        let va = |vpn: u64| vpn << 12;
        t.translate(va(0), 1);
        t.translate(va(16), 1);
        t.translate(va(32), 2);
        t.translate(va(48), 2);
        assert_eq!(t.stats().evictions, 0, "set not yet full");

        t.translate(va(64), 2); // 5th page in the set: displaces LRU (vpn 0, asid 1)
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.translate(va(0), 1), 20, "victim was evicted");
        assert_eq!(
            t.stats().evictions,
            2,
            "refill displaced another live entry"
        );

        let before = t.stats();
        t.invalidate_asid(2);
        assert_eq!(
            t.stats().flushes,
            3,
            "asid 2 had three live entries (one of its pages was evicted)"
        );
        t.invalidate_asid(2);
        assert_eq!(
            t.stats().flushes,
            3,
            "already-invalid entries do not recount"
        );
        assert_eq!(t.stats().hits, before.hits, "invalidation is not an access");
        assert_eq!(t.translate(va(32), 2), 20, "asid 2 must re-walk");
        assert_eq!(t.translate(va(0), 1), 1, "asid 1 untouched by the flush");
    }

    #[test]
    fn hit_rate_accounts() {
        let mut t = Tlb::new(TlbConfig::default_dtlb());
        t.translate(0x0, 0);
        t.translate(0x0, 0);
        t.translate(0x0, 0);
        let s = t.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
