//! Set-associative cache model with LRU replacement.
//!
//! The cache tracks *presence* of lines only (no data payload — the
//! architectural memory image lives in the core simulator). What matters for
//! transient-execution experiments is which lines are resident, because that
//! is the microarchitectural state a covert channel observes.
//!
//! Three access flavors are provided:
//!
//! * [`Cache::access`] — the normal path: lookup, allocate on miss, update
//!   LRU. Returns whether the access hit.
//! * [`Cache::probe`] — a side-effect-free lookup used by the Delay-on-Miss
//!   baseline ("would this load hit in L1?") and by flush+reload attack
//!   verdict checks.
//! * [`Cache::touch_deferred`] / [`Cache::commit_touch`] — Perspective's
//!   visibility-point semantics: on a speculative hit the LRU bits are *not*
//!   updated until the instruction reaches its VP (§6.2 of the paper).

use crate::setassoc::{SetAssoc, Way};

/// Static geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Round-trip latency in cycles on a hit at this level.
    pub rt_latency: u64,
    /// Human-readable name used in reports ("L1-D", "L2", ...).
    pub name: &'static str,
}

impl CacheConfig {
    /// Paper Table 7.1: 32 KB, 64 B line, 4-way, 2-cycle RT L1 instruction cache.
    pub fn l1i_paper() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 4,
            rt_latency: 2,
            name: "L1-I",
        }
    }

    /// Paper Table 7.1: 32 KB, 64 B line, 8-way, 2-cycle RT L1 data cache.
    pub fn l1d_paper() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            rt_latency: 2,
            name: "L1-D",
        }
    }

    /// Paper Table 7.1: 2 MB slice, 64 B line, 16-way, 8-cycle RT shared L2.
    pub fn l2_paper() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            rt_latency: 8,
            name: "L2",
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes or capacity not a
    /// multiple of `line_bytes * ways`).
    pub fn num_sets(&self) -> usize {
        assert!(
            self.line_bytes > 0 && self.ways > 0,
            "degenerate cache geometry"
        );
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
            "capacity must be a whole number of sets"
        );
        lines / self.ways
    }
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Lookups that missed and allocated.
    pub misses: u64,
    /// Valid lines displaced by allocations.
    pub evictions: u64,
    /// Lines removed by explicit flushes.
    pub flushes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `1.0` when no accesses have been made.
    pub fn hit_rate(&self) -> f64 {
        crate::setassoc::hit_rate(self.hits, self.misses)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    /// Monotonic timestamp of last (committed) use; lowest = LRU victim.
    lru: u64,
}

impl Way for Line {
    fn valid(&self) -> bool {
        self.valid
    }
    fn lru(&self) -> u64 {
        self.lru
    }
}

/// A single set-associative cache level.
///
/// See the [module docs](self) for the three access flavors.
#[derive(Debug)]
pub struct Cache {
    lines: SetAssoc<Line>,
    clock: u64,
    stats: CacheStats,
    line_shift: u32,
}

impl Cache {
    /// Create an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            lines: SetAssoc::new(sets, cfg.ways, Line::default()),
            clock: 0,
            stats: CacheStats::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        self.lines.locate(addr >> self.line_shift)
    }

    /// The lookup behind [`Cache::access`] and [`Cache::touch_deferred`]:
    /// a hit refreshes the line's LRU stamp only if `refresh`; a miss
    /// installs the line in the set's victim way, counting an eviction if
    /// that displaces a live line.
    fn lookup(&mut self, addr: u64, refresh: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let (set_idx, tag) = self.index(addr);
        if let Some(line) = self.lines.find(set_idx, |l| l.tag == tag) {
            if refresh {
                line.lru = clock;
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let victim = self.lines.victim(set_idx);
        if victim.valid {
            self.stats.evictions += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            lru: clock,
        };
        false
    }

    /// Normal access: lookup, allocate on miss, update LRU. Returns `true`
    /// on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.lookup(addr, true)
    }

    /// Side-effect-free lookup: no allocation, no LRU update, no stats.
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.lines
            .set(set_idx)
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Lookup and allocate on miss, but do **not** update LRU on a hit.
    ///
    /// This models Perspective's rule that "on a hit, DSV and ISV LRU bits
    /// are not updated until the instruction reaches its VP" (§6.2). Pair
    /// with [`Cache::commit_touch`] once the instruction is non-speculative.
    /// Returns `true` on hit.
    pub fn touch_deferred(&mut self, addr: u64) -> bool {
        self.lookup(addr, false)
    }

    /// Apply the deferred LRU update for `addr` (the instruction reached its
    /// visibility point). No-op if the line has since been evicted.
    pub fn commit_touch(&mut self, addr: u64) {
        self.clock += 1;
        let clock = self.clock;
        let (set_idx, tag) = self.index(addr);
        if let Some(line) = self.lines.find(set_idx, |l| l.tag == tag) {
            line.lru = clock;
        }
    }

    /// Remove the line containing `addr` (models `clflush`). Returns whether
    /// a line was actually present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        if let Some(line) = self.lines.find(set_idx, |l| l.tag == tag) {
            line.valid = false;
            self.stats.flushes += 1;
            true
        } else {
            false
        }
    }

    /// Invalidate the entire cache (keeps statistics).
    pub fn flush_all(&mut self) {
        for line in self.lines.iter_mut() {
            if line.valid {
                line.valid = false;
                self.stats.flushes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            rt_latency: 1,
            name: "tiny",
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line, different offset");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines whose (addr >> 6) & 3 == 0: 0x000, 0x100, 0x200...
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // refresh 0x000 → LRU victim is 0x100
        c.access(0x200); // evicts 0x100
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), CacheStats::default());
        c.access(0x40);
        let before = c.stats();
        assert!(c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn flush_line_removes_presence() {
        let mut c = tiny();
        c.access(0x40);
        assert!(c.flush_line(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.flush_line(0x40), "second flush finds nothing");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn deferred_touch_does_not_refresh_lru() {
        let mut c = tiny();
        c.access(0x000);
        c.access(0x100);
        // Speculative hit on 0x000 must NOT make 0x100 the victim.
        assert!(c.touch_deferred(0x000));
        c.access(0x200); // victim must still be 0x000 (oldest committed use)
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn commit_touch_applies_update() {
        let mut c = tiny();
        c.access(0x000);
        c.access(0x100);
        assert!(c.touch_deferred(0x000));
        c.commit_touch(0x000); // VP reached: now 0x100 is LRU
        c.access(0x200);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 64);
        }
        assert!((0..8).all(|i| c.probe(i * 64)));
        c.flush_all();
        assert!((0..8).all(|i| !c.probe(i * 64)));
        assert_eq!(c.stats().flushes, 8);
    }

    #[test]
    fn paper_geometries_are_consistent() {
        assert_eq!(CacheConfig::l1i_paper().num_sets(), 128);
        assert_eq!(CacheConfig::l1d_paper().num_sets(), 64);
        assert_eq!(CacheConfig::l2_paper().num_sets(), 2048);
    }

    #[test]
    fn hit_rate_on_empty_stats_is_one() {
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
    }
}
