//! Model-based property testing of the ASID-tagged TLB against a
//! reference LRU oracle: tagged hits, `invalidate_asid`, and every
//! counter (hits, misses, evictions, flushes).

use persp_mem::tlb::{Tlb, TlbConfig, TlbStats};
use proptest::prelude::*;
use std::collections::VecDeque;

/// 4 sets x 2 ways of 4 KiB pages, with distinct hit and miss latencies
/// so every translation's outcome is observable.
const CFG: TlbConfig = TlbConfig {
    entries: 8,
    ways: 2,
    page_bytes: 4096,
    hit_latency: 1,
    miss_latency: 20,
};

/// Reference model: per set, an LRU-ordered list of resident
/// `(vpn, asid)` pairs (front = most recently used), counting the same
/// events as [`TlbStats`].
struct OracleTlb {
    sets: Vec<VecDeque<(u64, u16)>>,
    stats: TlbStats,
}

impl OracleTlb {
    fn new() -> Self {
        OracleTlb {
            sets: vec![VecDeque::new(); CFG.entries / CFG.ways],
            stats: TlbStats::default(),
        }
    }

    /// Translate: a hit moves the pair to MRU; a miss allocates at MRU,
    /// displacing the LRU pair when the set is full.
    fn translate(&mut self, va: u64, asid: u16) -> u64 {
        let vpn = va / CFG.page_bytes;
        let set = (vpn % self.sets.len() as u64) as usize;
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&e| e == (vpn, asid)) {
            list.remove(pos);
            list.push_front((vpn, asid));
            self.stats.hits += 1;
            CFG.hit_latency
        } else {
            self.stats.misses += 1;
            if list.len() == CFG.ways {
                list.pop_back();
                self.stats.evictions += 1;
            }
            list.push_front((vpn, asid));
            CFG.miss_latency
        }
    }

    fn invalidate_asid(&mut self, asid: u16) {
        for list in &mut self.sets {
            let before = list.len();
            list.retain(|&(_, a)| a != asid);
            self.stats.flushes += (before - list.len()) as u64;
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Translate(u64, u16),
    InvalidateAsid(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Pages confined to the 4 sets with 6 tags each, any offset in the
    // page, and 3 address spaces, so evictions and cross-ASID misses are
    // frequent. One op in eight tears an address space down.
    (0u64..4, 0u64..6, 0u64..4096, 0u16..3, 0u8..8).prop_map(|(set, tag, off, asid, kind)| {
        if kind == 0 {
            Op::InvalidateAsid(asid)
        } else {
            Op::Translate((((tag << 2) | set) << 12) | off, asid)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tlb_agrees_with_lru_oracle(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut tlb = Tlb::new(CFG);
        let mut oracle = OracleTlb::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Translate(va, asid) => {
                    prop_assert_eq!(
                        tlb.translate(va, asid),
                        oracle.translate(va, asid),
                        "translate #{} of {:#x} in asid {}", i, va, asid
                    );
                }
                Op::InvalidateAsid(asid) => {
                    tlb.invalidate_asid(asid);
                    oracle.invalidate_asid(asid);
                }
            }
            prop_assert_eq!(tlb.stats(), oracle.stats, "counters after op #{}", i);
        }
        // Final residency, read through translations: each still-resident
        // pair hits, and the hit moves it to MRU in both models alike.
        for set in 0..4u64 {
            for tag in 0..6u64 {
                for asid in 0..3u16 {
                    let va = ((tag << 2) | set) << 12;
                    if oracle.sets[set as usize].contains(&(va >> 12, asid)) {
                        prop_assert_eq!(tlb.translate(va, asid), CFG.hit_latency, "{:#x}/{}", va, asid);
                        oracle.translate(va, asid);
                    }
                }
            }
        }
        prop_assert_eq!(tlb.stats(), oracle.stats);
    }
}
