//! Covert-channel helpers.
//!
//! A transient execution gadget transmits a secret by touching one line of a
//! *probe array* indexed by the secret value, [`PROBE_STRIDE`] bytes apart.
//! The flush+reload receivers of the attacks in `persp-attacks` scan that
//! array (by µISA probe loops through the pipeline, or by probing the
//! hierarchy). This module supplies the stride and the flushless
//! prime+probe receivers, which this module's tests and
//! `crates/uarch/tests/prime_probe_e2e.rs` exercise.

use crate::hierarchy::MemoryHierarchy;

/// Stride between probe-array entries. 4096 defeats the adjacent-line
/// prefetcher, exactly as in Kocher et al.'s PoC (`array2[s * 4096]`).
pub const PROBE_STRIDE: u64 = 4096;

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
}
