//! Two-level cache hierarchy + DRAM, per Table 7.1 of the paper.
//!
//! Private L1-I and L1-D backed by a shared L2 slice and a flat-latency
//! DRAM. The hierarchy returns *round-trip latencies in cycles*; the core
//! simulator schedules load completion with them. Presence state is what the
//! covert-channel experiments observe.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// DRAM round-trip latency in cycles *after* an L2 miss.
    ///
    /// Table 7.1 gives 50 ns after L2 at 2.0 GHz = 100 cycles.
    pub dram_latency: u64,
    /// Enable the per-L1 next-line prefetcher (Table 7.1: "1 hardware
    /// prefetcher" on each L1). On an L1 miss the following line is
    /// brought in as well; classic flush+reload probe arrays defeat it
    /// with a 4 KiB stride.
    pub next_line_prefetch: bool,
}

impl HierarchyConfig {
    /// The exact parameters of Table 7.1.
    pub fn paper_default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1i_paper(),
            l1d: CacheConfig::l1d_paper(),
            l2: CacheConfig::l2_paper(),
            dram_latency: 100,
            next_line_prefetch: true,
        }
    }

    /// Paper parameters with prefetching disabled (for ablations and for
    /// tests that need exact residency control).
    pub fn no_prefetch() -> Self {
        HierarchyConfig {
            next_line_prefetch: false,
            ..Self::paper_default()
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Satisfied by the L1 (instruction or data, depending on port).
    L1,
    /// Missed L1, hit the shared L2.
    L2,
    /// Missed both levels; went to DRAM.
    Dram,
}

/// The full memory hierarchy.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    prefetches: u64,
}

impl MemoryHierarchy {
    /// Build an empty (cold) hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemoryHierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            prefetches: 0,
        }
    }

    /// Prefetches issued so far.
    pub fn prefetch_count(&self) -> u64 {
        self.prefetches
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Data read: returns round-trip latency in cycles and fills the caches.
    pub fn read(&mut self, addr: u64) -> u64 {
        self.read_classified(addr).0
    }

    /// Data read returning both latency and the level that satisfied it.
    pub fn read_classified(&mut self, addr: u64) -> (u64, HitLevel) {
        if self.l1d.access(addr) {
            return (self.cfg.l1d.rt_latency, HitLevel::L1);
        }
        // L1 miss: the next-line prefetcher (if enabled) pulls in the
        // following line in the background (latency-free for the miss).
        if self.cfg.next_line_prefetch {
            let line = self.cfg.l1d.line_bytes as u64;
            self.l1d.access(addr + line);
            self.l2.access(addr + line);
            self.prefetches += 1;
        }
        if self.l2.access(addr) {
            return (
                self.cfg.l1d.rt_latency + self.cfg.l2.rt_latency,
                HitLevel::L2,
            );
        }
        (
            self.cfg.l1d.rt_latency + self.cfg.l2.rt_latency + self.cfg.dram_latency,
            HitLevel::Dram,
        )
    }

    /// Data write. Write-allocate, write-back: same presence effect as a read.
    pub fn write(&mut self, addr: u64) -> u64 {
        self.read(addr)
    }

    /// Instruction fetch: goes through L1-I then the shared L2.
    pub fn fetch(&mut self, addr: u64) -> u64 {
        if self.l1i.access(addr) {
            return self.cfg.l1i.rt_latency;
        }
        if self.cfg.next_line_prefetch {
            let line = self.cfg.l1i.line_bytes as u64;
            self.l1i.access(addr + line);
            self.l2.access(addr + line);
            self.prefetches += 1;
        }
        if self.l2.access(addr) {
            return self.cfg.l1i.rt_latency + self.cfg.l2.rt_latency;
        }
        self.cfg.l1i.rt_latency + self.cfg.l2.rt_latency + self.cfg.dram_latency
    }

    /// Would a data read hit in the L1? Used by Delay-on-Miss. No side
    /// effects.
    pub fn probe_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Is the line resident anywhere in the hierarchy? No side effects.
    pub fn probe_any(&self, addr: u64) -> bool {
        self.l1d.probe(addr) || self.l2.probe(addr)
    }

    /// `clflush`: evict the line from every level.
    pub fn flush(&mut self, addr: u64) {
        self.l1d.flush_line(addr);
        self.l1i.flush_line(addr);
        self.l2.flush_line(addr);
    }

    /// Invalidate everything (e.g. between benchmark repetitions).
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l1i.flush_all();
        self.l2.flush_all();
    }

    /// L1-D statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L1-I statistics.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_default())
    }

    #[test]
    fn latencies_match_table_7_1() {
        let mut m = mem();
        // Cold: 2 (L1) + 8 (L2) + 100 (DRAM).
        assert_eq!(m.read(0x1000), 110);
        // Warm in L1.
        assert_eq!(m.read(0x1000), 2);
        // Evicted from L1 only → L2 hit = 2 + 8.
        m.l1d.flush_line(0x1000);
        assert_eq!(m.read(0x1000), 10);
    }

    #[test]
    fn fetch_uses_l1i_port() {
        let mut m = mem();
        assert_eq!(m.fetch(0x2000), 110);
        assert_eq!(m.fetch(0x2000), 2);
        // Data port does not see the instruction line in L1D, but the
        // shared L2 holds it.
        assert_eq!(m.read(0x2000), 10);
    }

    #[test]
    fn flush_removes_from_all_levels() {
        let mut m = mem();
        m.read(0x3000);
        m.flush(0x3000);
        assert!(!m.probe_any(0x3000));
        assert_eq!(m.read(0x3000), 110);
    }

    #[test]
    fn classified_read_levels() {
        let mut m = mem();
        assert_eq!(m.read_classified(0x40).1, HitLevel::Dram);
        assert_eq!(m.read_classified(0x40).1, HitLevel::L1);
        m.l1d.flush_line(0x40);
        assert_eq!(m.read_classified(0x40).1, HitLevel::L2);
    }

    #[test]
    fn probe_l1d_is_side_effect_free() {
        let m = mem();
        assert!(!m.probe_l1d(0x1234));
        assert_eq!(m.l1d_stats(), CacheStats::default());
    }
}
