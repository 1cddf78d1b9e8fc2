//! Model-based property testing of Perspective's tagged metadata cache
//! (the ISV and DSVMT caches of §6.2) against a reference LRU oracle.
//!
//! The oracle pins the deferred-LRU rule: `lookup` never touches
//! replacement state, `refill` and `commit_touch` do. It also pins
//! `invalidate_asid`, the `hits`/`misses` counters, and the refill path's
//! TLB: every refill translates its address once, so the embedded TLB's
//! counters must equal those of a reference [`Tlb`] fed the same
//! translations.

use persp_mem::tlb::{Tlb, TlbConfig};
use perspective::hwcache::{HwCacheConfig, HwCacheStats, HwLookup, TaggedMetadataCache};
use proptest::prelude::*;
use std::collections::VecDeque;

/// 4 sets x 2 ways of 64-byte spans: 16 allow-bits per entry.
const CFG: HwCacheConfig = HwCacheConfig {
    entries: 8,
    ways: 2,
    span_bytes: 64,
};
const SETS: u64 = 4;

/// Resident entry in the oracle: span tag, ASID and allow-bits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Resident {
    tag: u64,
    asid: u16,
    bits: u64,
}

/// Reference model: per set, an LRU-ordered list of resident entries
/// (front = most recently used).
struct Oracle {
    sets: Vec<VecDeque<Resident>>,
    stats: HwCacheStats,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            sets: vec![VecDeque::new(); SETS as usize],
            stats: HwCacheStats::default(),
        }
    }

    /// Set index, tag and the allow-bit's index within the span.
    fn locate(va: u64) -> (usize, u64, u32) {
        let span = va / CFG.span_bytes;
        let bit = ((va / 4) % (CFG.span_bytes / 4)) as u32;
        ((span % SETS) as usize, span / SETS, bit)
    }

    fn position(&self, va: u64, asid: u16) -> Option<(usize, usize, u32)> {
        let (set, tag, bit) = Self::locate(va);
        let pos = self.sets[set]
            .iter()
            .position(|e| e.tag == tag && e.asid == asid)?;
        Some((set, pos, bit))
    }

    /// Lookup: counts, reads the bit, leaves the LRU order alone.
    fn lookup(&mut self, va: u64, asid: u16) -> HwLookup {
        match self.position(va, asid) {
            Some((set, pos, bit)) => {
                self.stats.hits += 1;
                HwLookup::Hit(self.sets[set][pos].bits >> bit & 1 == 1)
            }
            None => {
                self.stats.misses += 1;
                HwLookup::Miss
            }
        }
    }

    /// Refill of an absent entry: install at MRU, displacing the LRU
    /// entry of a full set (uncounted).
    fn refill(&mut self, va: u64, asid: u16, bits: u64) {
        let (set, tag, _) = Self::locate(va);
        let list = &mut self.sets[set];
        if list.len() == CFG.ways {
            list.pop_back();
        }
        list.push_front(Resident { tag, asid, bits });
    }

    fn commit_touch(&mut self, va: u64, asid: u16) {
        if let Some((set, pos, _)) = self.position(va, asid) {
            let e = self.sets[set].remove(pos).expect("position is in range");
            self.sets[set].push_front(e);
        }
    }

    fn invalidate_asid(&mut self, asid: u16) {
        for list in &mut self.sets {
            list.retain(|e| e.asid != asid);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u64, u16),
    /// Refill with these allow-bits. Refills follow a miss, so the
    /// harness issues one only when the entry is absent.
    Refill(u64, u16, u64),
    CommitTouch(u64, u16),
    InvalidateAsid(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // 8 span tags in each of the 4 sets, every instruction slot of the
    // span, and 3 address spaces. The tag sits at bit 16 so the refills
    // cover 8 pages that share one set of the 16-set TLB, which then
    // evicts too. Of every ten ops, four look up, three refill, two
    // commit a touch and one tears an address space down.
    (0u64..4, 0u64..8, 0u64..16, 0u16..3, any::<u16>(), 0u8..10).prop_map(
        |(set, tag, slot, asid, bits, kind)| {
            let va = (tag << 16) | (set << 6) | (slot << 2);
            match kind {
                0..=3 => Op::Lookup(va, asid),
                4..=6 => Op::Refill(va, asid, u64::from(bits)),
                7..=8 => Op::CommitTouch(va, asid),
                _ => Op::InvalidateAsid(asid),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metadata_cache_agrees_with_deferred_lru_oracle(
        ops in prop::collection::vec(arb_op(), 1..200)
    ) {
        let mut cache = TaggedMetadataCache::new(CFG);
        let mut oracle = Oracle::new();
        let mut tlb = Tlb::new(TlbConfig::default_dtlb());
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup(va, asid) => {
                    prop_assert_eq!(
                        cache.lookup(va, asid),
                        oracle.lookup(va, asid),
                        "lookup #{} of {:#x} in asid {}", i, va, asid
                    );
                }
                Op::Refill(va, asid, bits) => {
                    if oracle.position(va, asid).is_none() {
                        cache.refill(va, asid, |b| bits >> b & 1 == 1);
                        oracle.refill(va, asid, bits);
                        tlb.translate(va, asid);
                    }
                }
                Op::CommitTouch(va, asid) => {
                    cache.commit_touch(va, asid);
                    oracle.commit_touch(va, asid);
                }
                Op::InvalidateAsid(asid) => {
                    cache.invalidate_asid(asid);
                    oracle.invalidate_asid(asid);
                }
            }
            prop_assert_eq!(cache.stats(), oracle.stats, "counters after op #{}", i);
        }
        // Final residency and allow-bits over the whole address universe.
        for set in 0..SETS {
            for tag in 0..8u64 {
                for slot in 0..16u64 {
                    for asid in 0..3u16 {
                        let va = (tag << 16) | (set << 6) | (slot << 2);
                        prop_assert_eq!(
                            cache.lookup(va, asid),
                            oracle.lookup(va, asid),
                            "final state at {:#x} in asid {}", va, asid
                        );
                    }
                }
            }
        }
        prop_assert_eq!(cache.stats(), oracle.stats);
        prop_assert_eq!(cache.tlb.stats(), tlb.stats(), "refill-path TLB counters");
    }
}
