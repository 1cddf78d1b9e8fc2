//! Hardware cache models for Perspective's two new structures: the ISV
//! cache and the DSVMT cache (§6.2).
//!
//! Both are small ASID-tagged set-associative caches sitting next to the
//! pipeline. On a hit they answer "may this instruction/data speculate?"
//! in a fraction of a cycle; on a miss Perspective *conservatively blocks*
//! speculation and refills in the background (via the TLB for ISV pages).
//! Per §6.2, LRU bits are only updated when the consuming instruction
//! reaches its visibility point, so wrong-path lookups cannot perturb
//! replacement state (that would itself be a side channel).

use persp_mem::setassoc::{SetAssoc, Way};
use persp_mem::tlb::{Tlb, TlbConfig};
use persp_uarch::Asid;

/// Geometry of one Perspective hardware cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwCacheConfig {
    /// Total entries (paper: 128).
    pub entries: usize,
    /// Associativity (paper: 4).
    pub ways: usize,
    /// Bytes of the address space one entry covers (tag granularity).
    pub span_bytes: u64,
}

impl HwCacheConfig {
    /// The paper's ISV cache: 128 entries, 32 sets, 4-way. Each entry
    /// covers a 256-byte code window (64 instructions × 1 bit, plus tag
    /// and ASID) — sized so the small kernel working set reaches the
    /// paper's ~99 % hit rate.
    pub fn isv_paper() -> Self {
        HwCacheConfig {
            entries: 128,
            ways: 4,
            span_bytes: 256,
        }
    }

    /// The paper's DSVMT cache: 128 entries, 32 sets, 4-way; each entry
    /// covers one 4 KiB page (1 bit + tag + ASID ≈ 53 bits).
    pub fn dsvmt_paper() -> Self {
        HwCacheConfig {
            entries: 128,
            ways: 4,
            span_bytes: 4096,
        }
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (speculation blocked, refill started).
    pub misses: u64,
}

impl HwCacheStats {
    /// Hit rate in `[0, 1]`; `1.0` when no lookups were made.
    pub fn hit_rate(&self) -> f64 {
        persp_mem::setassoc::hit_rate(self.hits, self.misses)
    }
}

impl persp_uarch::MetricsSource for HwCacheStats {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        reg.set(format!("{prefix}.hits"), self.hits);
        reg.set(format!("{prefix}.misses"), self.misses);
    }
}

impl persp_uarch::MetricsSource for TaggedMetadataCache {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        persp_uarch::MetricsSource::export_metrics(&self.stats, prefix, reg);
        let t = self.tlb.stats();
        reg.set(format!("{prefix}.tlb.hits"), t.hits);
        reg.set(format!("{prefix}.tlb.misses"), t.misses);
        reg.set(format!("{prefix}.tlb.evictions"), t.evictions);
        reg.set(format!("{prefix}.tlb.flushes"), t.flushes);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    asid: Asid,
    /// Allow-bits for the covered span (bit per instruction slot for the
    /// ISV cache; a single meaningful bit for the DSVMT cache).
    bits: u64,
    valid: bool,
    lru: u64,
}

impl Way for Entry {
    fn valid(&self) -> bool {
        self.valid
    }
    fn lru(&self) -> u64 {
        self.lru
    }
}

/// Result of a tagged lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwLookup {
    /// Hit: the requested allow-bit.
    Hit(bool),
    /// Miss: speculation must be blocked; a refill was scheduled.
    Miss,
}

/// An ASID-tagged set-associative metadata cache with deferred LRU.
#[derive(Debug)]
pub struct TaggedMetadataCache {
    cfg: HwCacheConfig,
    entries: SetAssoc<Entry>,
    clock: u64,
    stats: HwCacheStats,
    span_shift: u32,
    /// The refill path's TLB (ISV pages are located through the TLB,
    /// §6.2); shared geometry works for the DSVMT walk too.
    pub tlb: Tlb,
}

impl TaggedMetadataCache {
    /// Build an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn new(cfg: HwCacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways));
        let entries = SetAssoc::new(cfg.entries / cfg.ways, cfg.ways, Entry::default());
        assert!(cfg.span_bytes.is_power_of_two());
        TaggedMetadataCache {
            cfg,
            entries,
            clock: 0,
            stats: HwCacheStats::default(),
            span_shift: cfg.span_bytes.trailing_zeros(),
            tlb: Tlb::new(TlbConfig::default_dtlb()),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HwCacheStats {
        self.stats
    }

    /// Bytes covered by one entry.
    pub fn span_bytes(&self) -> u64 {
        self.cfg.span_bytes
    }

    /// Reset statistics (cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = HwCacheStats::default();
    }

    fn locate(&self, va: u64) -> (usize, u64, u32) {
        let (set, tag) = self.entries.locate(va >> self.span_shift);
        // Bit index within the span: the 4-byte instruction slot, modulo
        // 64. The DSVMT cache refills a page span with one answer for
        // all 64 bits, so any slot reads it.
        let bit = ((va >> 2) & ((self.cfg.span_bytes >> 2) - 1).min(63)) as u32;
        (set, tag, bit)
    }

    /// Look up the allow-bit for `va` in context `asid`. Does **not**
    /// update LRU (deferred to [`TaggedMetadataCache::commit_touch`]).
    pub fn lookup(&mut self, va: u64, asid: Asid) -> HwLookup {
        let (set, tag, bit) = self.locate(va);
        if let Some(e) = self.entries.find(set, |e| e.tag == tag && e.asid == asid) {
            self.stats.hits += 1;
            return HwLookup::Hit(e.bits >> (bit & 63) & 1 == 1);
        }
        self.stats.misses += 1;
        HwLookup::Miss
    }

    /// Refill the entry for `va`/`asid` with span allow-bits computed by
    /// `bit_source(bit_index) -> allowed`. Models the background refill
    /// after a miss (the TLB translation is charged here).
    pub fn refill(&mut self, va: u64, asid: Asid, bit_source: impl Fn(u32) -> bool) {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag, _) = self.locate(va);
        let nbits = ((self.cfg.span_bytes >> 2) as u32).min(64);
        let mut bits = 0u64;
        for b in 0..nbits {
            if bit_source(b) {
                bits |= 1 << b;
            }
        }
        self.tlb.translate(va, asid);
        *self.entries.victim(set) = Entry {
            tag,
            asid,
            bits,
            valid: true,
            lru: clock,
        };
    }

    /// Apply the deferred LRU update once the consuming instruction
    /// reached its visibility point.
    pub fn commit_touch(&mut self, va: u64, asid: Asid) {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag, _) = self.locate(va);
        if let Some(e) = self.entries.find(set, |e| e.tag == tag && e.asid == asid) {
            e.lru = clock;
        }
    }

    /// Drop all entries of one context.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        for e in self.entries.iter_mut() {
            if e.asid == asid {
                e.valid = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_refill_then_hit() {
        let mut c = TaggedMetadataCache::new(HwCacheConfig::isv_paper());
        assert_eq!(c.lookup(0x1000, 1), HwLookup::Miss);
        c.refill(0x1000, 1, |b| b % 2 == 0);
        assert_eq!(c.lookup(0x1000, 1), HwLookup::Hit(true), "bit 0 set");
        assert_eq!(c.lookup(0x1004, 1), HwLookup::Hit(false), "bit 1 clear");
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn asid_tags_prevent_cross_context_hits() {
        let mut c = TaggedMetadataCache::new(HwCacheConfig::isv_paper());
        c.refill(0x2000, 1, |_| true);
        assert_eq!(c.lookup(0x2000, 2), HwLookup::Miss, "other ASID misses");
        assert_eq!(c.lookup(0x2000, 1), HwLookup::Hit(true));
    }

    #[test]
    fn page_span_uses_single_bit() {
        let mut c = TaggedMetadataCache::new(HwCacheConfig::dsvmt_paper());
        c.refill(0x5000, 3, |_| true);
        // Anywhere in the page hits with the same bit.
        assert_eq!(c.lookup(0x5000, 3), HwLookup::Hit(true));
        assert_eq!(c.lookup(0x5FF8, 3), HwLookup::Hit(true));
        assert_eq!(c.lookup(0x6000, 3), HwLookup::Miss, "next page misses");
    }

    #[test]
    fn deferred_lru_protects_replacement_state() {
        let cfg = HwCacheConfig {
            entries: 2,
            ways: 2,
            span_bytes: 64,
        };
        let mut c = TaggedMetadataCache::new(cfg);
        c.refill(0x000, 1, |_| true); // clock 1
        c.refill(0x040, 1, |_| true); // clock 2 — victim order: 0x000 first
                                      // Speculative lookups of 0x000 do NOT refresh it...
        for _ in 0..4 {
            let _ = c.lookup(0x000, 1);
        }
        c.refill(0x080, 1, |_| true); // evicts 0x000 (oldest committed)
        assert_eq!(c.lookup(0x000, 1), HwLookup::Miss);
        assert_eq!(c.lookup(0x040, 1), HwLookup::Hit(true));
    }

    #[test]
    fn commit_touch_updates_lru() {
        let cfg = HwCacheConfig {
            entries: 2,
            ways: 2,
            span_bytes: 64,
        };
        let mut c = TaggedMetadataCache::new(cfg);
        c.refill(0x000, 1, |_| true);
        c.refill(0x040, 1, |_| true);
        c.commit_touch(0x000, 1); // VP reached: now 0x040 is LRU
        c.refill(0x080, 1, |_| true);
        assert_eq!(c.lookup(0x000, 1), HwLookup::Hit(true));
        assert_eq!(c.lookup(0x040, 1), HwLookup::Miss);
    }

    #[test]
    fn invalidate_asid_clears_one_context() {
        let mut c = TaggedMetadataCache::new(HwCacheConfig::isv_paper());
        c.refill(0x1000, 1, |_| true);
        c.refill(0x1000, 2, |_| true);
        c.invalidate_asid(1);
        assert_eq!(c.lookup(0x1000, 1), HwLookup::Miss);
        assert_eq!(c.lookup(0x1000, 2), HwLookup::Hit(true));
    }

    #[test]
    fn exports_tlb_counters_alongside_cache_counters() {
        use persp_uarch::{MetricsRegistry, MetricsSource};
        let mut c = TaggedMetadataCache::new(HwCacheConfig::isv_paper());
        let _ = c.lookup(0x1000, 1);
        c.refill(0x1000, 1, |_| true); // refill walks the TLB
        let _ = c.lookup(0x1000, 1);
        let mut reg = MetricsRegistry::default();
        c.export_metrics("isv", &mut reg);
        assert_eq!(reg.get("isv.hits"), Some(1));
        assert_eq!(reg.get("isv.misses"), Some(1));
        assert_eq!(reg.get("isv.tlb.misses"), Some(1));
        assert_eq!(reg.get("isv.tlb.hits"), Some(0));
        assert_eq!(reg.get("isv.tlb.evictions"), Some(0));
        assert_eq!(reg.get("isv.tlb.flushes"), Some(0));
    }

    #[test]
    fn hit_rate_reaches_high_values_on_small_working_sets() {
        let mut c = TaggedMetadataCache::new(HwCacheConfig::isv_paper());
        // A small hot instruction working set, as in kernel execution.
        let lines: Vec<u64> = (0..16).map(|i| 0x8000 + i * 64).collect();
        for &l in &lines {
            if c.lookup(l, 1) == HwLookup::Miss {
                c.refill(l, 1, |_| true);
            }
        }
        for _ in 0..100 {
            for &l in &lines {
                assert_eq!(c.lookup(l, 1), HwLookup::Hit(true));
            }
        }
        assert!(c.stats().hit_rate() > 0.98);
    }
}
