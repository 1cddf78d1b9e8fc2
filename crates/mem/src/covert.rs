//! Flush+reload covert-channel helpers.
//!
//! A transient execution gadget transmits a secret by touching one line of a
//! *probe array* indexed by the secret value. The receiver then times a
//! reload of every candidate line: the one that comes back fast was touched
//! transiently. This module supplies the timing classifier and a helper
//! that scans a probe array over a [`MemoryHierarchy`], and the flushless
//! prime+probe receivers.
//!
//! The actual attacks in `persp-attacks` run real µISA probe loops through
//! the pipeline; these host-side receivers are exercised by this module's
//! tests and, for prime+probe, by `crates/uarch/tests/prime_probe_e2e.rs`.

use crate::hierarchy::MemoryHierarchy;

/// Classifier separating cached from uncached reload timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingClassifier {
    /// Latencies `<= threshold` are classified as cache hits.
    pub threshold_cycles: u64,
}

impl TimingClassifier {
    /// Derive a threshold from the hierarchy configuration: anything at or
    /// below an L2 hit counts as "was resident"; only DRAM round trips are
    /// misses.
    pub fn for_hierarchy(mem: &MemoryHierarchy) -> Self {
        let cfg = mem.config();
        TimingClassifier {
            threshold_cycles: cfg.l1d.rt_latency + cfg.l2.rt_latency,
        }
    }

    /// Was the observed reload latency a hit?
    pub fn is_hit(&self, latency: u64) -> bool {
        latency <= self.threshold_cycles
    }
}

/// Stride between probe-array entries. 4096 defeats the adjacent-line
/// prefetcher, exactly as in Kocher et al.'s PoC (`array2[s * 4096]`).
pub const PROBE_STRIDE: u64 = 4096;

/// Reload every probe line and return the indices classified as hits.
///
/// Reload order is permuted (simple stride-7 walk) so the scan itself does
/// not act as a prefetch oracle, mirroring real PoCs.
pub fn reload_and_classify(mem: &mut MemoryHierarchy, base: u64, n: usize) -> Vec<usize> {
    let classifier = TimingClassifier::for_hierarchy(mem);
    let mut hits = Vec::new();
    for k in 0..n {
        let i = (k * 7 + 1) % n;
        let lat = mem.peek_read_latency(base + i as u64 * PROBE_STRIDE);
        if classifier.is_hit(lat) {
            hits.push(i);
        }
    }
    hits.sort_unstable();
    hits
}

// ---------------------------------------------------------------------
// Prime+probe (no clflush required)
// ---------------------------------------------------------------------

/// An L1-D eviction set: attacker-owned lines that all map to the same
/// cache set as a target address. Priming fills the set's ways with
/// attacker lines; a victim access to *any* line in that set must evict
/// one of them, which the attacker detects without ever executing a
/// flush instruction — the receiver real kernels can't take away.
#[derive(Debug, Clone)]
pub struct EvictionSet {
    addrs: Vec<u64>,
    set_index: usize,
}

impl EvictionSet {
    /// Build the eviction set for the L1-D set that `target` maps to,
    /// out of attacker-controlled memory starting at `region_base`
    /// (which must be set-aligned, i.e. a multiple of the L1-D way
    /// stride; `region_base` itself is never aliased with `target`).
    pub fn for_l1d(mem: &MemoryHierarchy, region_base: u64, target: u64) -> Self {
        let cfg = &mem.config().l1d;
        let line = cfg.line_bytes as u64;
        let sets = cfg.num_sets() as u64;
        let stride = line * sets; // distance between same-set lines
        assert!(
            region_base.is_multiple_of(stride),
            "region base must be way-stride aligned"
        );
        let set_index = ((target / line) % sets) as usize;
        let first = region_base + set_index as u64 * line;
        let addrs = (0..cfg.ways as u64).map(|w| first + w * stride).collect();
        EvictionSet { addrs, set_index }
    }

    /// The L1-D set this eviction set occupies.
    pub fn set_index(&self) -> usize {
        self.set_index
    }

    /// The member addresses (one per way).
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Fill every way of the target set with attacker lines.
    pub fn prime(&self, mem: &mut MemoryHierarchy) {
        // Two rounds so LRU state settles with all members resident even
        // if some were partially resident before.
        for _ in 0..2 {
            for &a in &self.addrs {
                mem.read(a);
            }
        }
    }

    /// Did a victim access land in this set since [`EvictionSet::prime`]?
    /// Detection is by absence: some member was evicted. Uses probes
    /// (no fills), so measuring does not disturb other sets.
    pub fn probe_evicted(&self, mem: &MemoryHierarchy) -> bool {
        self.addrs.iter().any(|&a| !mem.probe_l1d(a))
    }
}

/// A set-granular prime+probe channel over the whole L1-D: one
/// [`EvictionSet`] per cache set. A transient victim access to
/// `probe_base + v * PROBE_STRIDE` is decoded back to the cache set it
/// mapped to.
///
/// Resolution is *per set* (64 sets for the paper's 32 KB / 64 B / 8-way
/// L1-D), i.e. `log2(sets)` bits per transmission — exactly the
/// real-world limitation of L1 prime+probe versus flush+reload's
/// byte-granular probe array.
#[derive(Debug, Clone)]
pub struct PrimeProbeChannel {
    sets: Vec<EvictionSet>,
}

impl PrimeProbeChannel {
    /// Build eviction sets for every L1-D set out of the attacker region
    /// at `region_base` (way-stride aligned).
    pub fn new(mem: &MemoryHierarchy, region_base: u64) -> Self {
        let cfg = &mem.config().l1d;
        let line = cfg.line_bytes as u64;
        let sets = (0..cfg.num_sets() as u64)
            .map(|s| EvictionSet::for_l1d(mem, region_base, s * line))
            .collect();
        PrimeProbeChannel { sets }
    }

    /// Prime every set.
    pub fn prime(&self, mem: &mut MemoryHierarchy) {
        for s in &self.sets {
            s.prime(mem);
        }
    }

    /// Decode: which sets saw a victim access since priming?
    pub fn probe(&self, mem: &MemoryHierarchy) -> Vec<usize> {
        self.sets
            .iter()
            .filter(|s| s.probe_evicted(mem))
            .map(EvictionSet::set_index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_default())
    }

    /// Flush all `n` probe lines of the array starting at `base`.
    fn flush_probe_array(mem: &mut MemoryHierarchy, base: u64, n: usize) {
        for i in 0..n {
            mem.flush(base + i as u64 * PROBE_STRIDE);
        }
    }

    #[test]
    fn classifier_threshold_is_l2_hit() {
        let m = mem();
        let c = TimingClassifier::for_hierarchy(&m);
        assert!(c.is_hit(2));
        assert!(c.is_hit(10));
        assert!(!c.is_hit(110));
    }

    #[test]
    fn recovered_secret_round_trip() {
        let mut m = mem();
        let base = 0x10_0000;
        flush_probe_array(&mut m, base, 256);
        // "Transient" touch of the line for secret byte 0x2a.
        m.read(base + 0x2a * PROBE_STRIDE);
        assert_eq!(reload_and_classify(&mut m, base, 256), vec![0x2a]);
    }

    #[test]
    fn blocked_transmission_yields_no_signal() {
        let mut m = mem();
        let base = 0x10_0000;
        flush_probe_array(&mut m, base, 256);
        assert!(reload_and_classify(&mut m, base, 256).is_empty());
    }

    #[test]
    fn two_hot_lines_are_ambiguous() {
        let mut m = mem();
        let base = 0x10_0000;
        flush_probe_array(&mut m, base, 16);
        m.read(base + 3 * PROBE_STRIDE);
        m.read(base + 9 * PROBE_STRIDE);
        assert_eq!(reload_and_classify(&mut m, base, 16), vec![3, 9]);
    }

    #[test]
    fn eviction_set_detects_same_set_victim_access() {
        let mut m = mem();
        let target = 0x40_0000u64 + 5 * 64; // some line in set 5
        let es = EvictionSet::for_l1d(&m, 0x80_0000, target);
        es.prime(&mut m);
        assert!(!es.probe_evicted(&m), "freshly primed: all ways resident");
        m.read(target); // victim access, no flush anywhere
        assert!(es.probe_evicted(&m), "victim fill evicted an attacker way");
    }

    #[test]
    fn eviction_set_ignores_other_sets() {
        let mut m = mem();
        let target = 0x40_0000u64 + 5 * 64;
        let es = EvictionSet::for_l1d(&m, 0x80_0000, target);
        es.prime(&mut m);
        // Victim touches a *different* set (stride past the prefetcher).
        m.read(0x40_0000 + 9 * 64 + 8192);
        assert!(!es.probe_evicted(&m));
    }

    #[test]
    fn prime_probe_channel_decodes_the_touched_set() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::no_prefetch());
        let chan = PrimeProbeChannel::new(&m, 0x80_0000);
        let victim = 0x40_0000u64 + 23 * PROBE_STRIDE;
        let l1d = &m.config().l1d;
        let expected = ((victim / l1d.line_bytes as u64) % l1d.num_sets() as u64) as usize;
        chan.prime(&mut m);
        m.read(victim);
        let hot = chan.probe(&m);
        assert_eq!(hot, vec![expected], "exactly the victim's set signals");
    }

    #[test]
    fn unprimed_channel_quiescent_after_prime() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::no_prefetch());
        let chan = PrimeProbeChannel::new(&m, 0x80_0000);
        chan.prime(&mut m);
        assert!(chan.probe(&m).is_empty(), "no victim access: no signal");
    }

    #[test]
    fn reload_does_not_perturb_verdict() {
        let mut m = mem();
        let base = 0x20_0000;
        flush_probe_array(&mut m, base, 64);
        m.read(base + 5 * PROBE_STRIDE);
        // Two scans in a row agree because reload uses peek (no fills).
        assert_eq!(reload_and_classify(&mut m, base, 64), vec![5]);
        assert_eq!(reload_and_classify(&mut m, base, 64), vec![5]);
    }
}
