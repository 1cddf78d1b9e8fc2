//! Property test: the ISV's dense-bitset membership representation must
//! agree exactly with a plain `HashSet` oracle built from the same
//! function set — for `contains_func` over every function id (including
//! out-of-range ids) and for `contains_va` over entry, interior,
//! alignment-padding, and stub-range addresses. The view's VA ranges,
//! built in one ascending pass, must equal the sort-and-merge of the
//! members' ranges and the stub, before and after exclusions.

use persp_kernel::body::emit_kernel;
use persp_kernel::callgraph::{CallGraph, FuncId, KernelConfig};
use persp_kernel::layout::KTEXT_BASE;
use persp_uarch::isa::INST_BYTES;
use perspective::isv::{Isv, IsvKind};
use proptest::prelude::*;
use std::collections::HashSet;

/// The ranges a view over `funcs` allows, as first built: every member's
/// `[entry, end)` plus the entry stub, sorted and merged.
fn sort_and_merge(g: &CallGraph, funcs: &HashSet<FuncId>) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = funcs
        .iter()
        .map(|&f| {
            let kf = g.func(f);
            (
                kf.entry_va,
                kf.entry_va + u64::from(kf.len_insts) * INST_BYTES,
            )
        })
        .collect();
    ranges.push((KTEXT_BASE, KTEXT_BASE + 0x1000));
    ranges.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (s, e) in ranges {
        match merged.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

thread_local! {
    /// One emitted small kernel per test thread — generation dominates
    /// the test's cost, and the graph is immutable after emission.
    static GRAPH: CallGraph = {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        g
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bitset_membership_agrees_with_hashset_oracle(
        picks in proptest::collection::vec(0u32..10_000, 0..160),
    ) {
        GRAPH.with(|g| {
            let n = g.len() as u32;
            let oracle: HashSet<FuncId> =
                picks.iter().map(|&i| FuncId(i % n)).collect();
            let isv = Isv::from_func_set(g, oracle.iter().copied().collect(), IsvKind::Dynamic);

            // contains_func over the whole id space, plus out-of-range ids.
            for f in (0..n).chain([n, n + 63, u32::MAX - 1]) {
                let f = FuncId(f);
                prop_assert_eq!(
                    isv.contains_func(f),
                    oracle.contains(&f),
                    "contains_func({:?})",
                    f
                );
            }
            Ok(())
        })?;
    }

    #[test]
    fn bitset_va_probes_agree_with_hashset_oracle(
        picks in proptest::collection::vec(0u32..10_000, 1..120),
        offsets in proptest::collection::vec(0u64..64, 8),
    ) {
        GRAPH.with(|g| {
            let n = g.len() as u32;
            let oracle: HashSet<FuncId> =
                picks.iter().map(|&i| FuncId(i % n)).collect();
            let isv = Isv::from_func_set(g, oracle.iter().copied().collect(), IsvKind::Dynamic);

            // Probe a spread of functions at entry + interior offsets.
            for (k, &off) in offsets.iter().enumerate() {
                let f = FuncId((picks[k % picks.len()] * 7 + k as u32) % n);
                let kf = g.func(f);
                let interior = off.min(u64::from(kf.len_insts) - 1) * 4;
                for va in [kf.entry_va, kf.entry_va + interior] {
                    prop_assert_eq!(
                        isv.contains_va(va),
                        oracle.contains(&f),
                        "contains_va({:#x}) of {:?}",
                        va,
                        f
                    );
                }
            }

            // The dispatch stub is part of every view.
            prop_assert!(isv.contains_va(KTEXT_BASE));
            prop_assert!(isv.contains_va(KTEXT_BASE + 0xFFF));
            Ok(())
        })?;
    }

    #[test]
    fn exclusion_clears_bitset_and_oracle_alike(
        picks in proptest::collection::vec(0u32..10_000, 4..64),
        victim_idx in 0usize..4,
    ) {
        GRAPH.with(|g| {
            let n = g.len() as u32;
            let mut oracle: HashSet<FuncId> =
                picks.iter().map(|&i| FuncId(i % n)).collect();
            let mut isv = Isv::from_func_set(g, oracle.iter().copied().collect(), IsvKind::Dynamic);

            let victim = FuncId(picks[victim_idx] % n);
            prop_assert!(isv.exclude_function(g, victim));
            oracle.remove(&victim);

            prop_assert!(!isv.contains_func(victim));
            prop_assert!(!isv.contains_va(g.func(victim).entry_va));
            for &f in &oracle {
                prop_assert!(isv.contains_func(f), "survivor {:?} stays", f);
            }
            Ok(())
        })?;
    }

    #[test]
    fn one_pass_ranges_equal_sort_and_merge(
        picks in proptest::collection::vec(0u32..10_000, 0..400),
        dense_from in 0u32..10_000,
        flagged in proptest::collection::vec(0u32..10_000, 0..40),
    ) {
        GRAPH.with(|g| {
            let n = g.len() as u32;
            // Scattered picks plus a run of consecutive functions, whose
            // texts lie back to back apart from alignment padding.
            let mut oracle: HashSet<FuncId> = picks.iter().map(|&i| FuncId(i % n)).collect();
            oracle.extend((0..64).map(|k| FuncId((dense_from + k) % n)));
            let isv = Isv::from_func_set(g, oracle.iter().copied().collect(), IsvKind::Dynamic);
            prop_assert_eq!(isv.ranges(), &sort_and_merge(g, &oracle)[..]);

            let flagged: Vec<FuncId> = flagged.iter().map(|&i| FuncId(i % n)).collect();
            let mut hardened = isv.hardened_with_audit(g, flagged.iter().copied());
            for f in &flagged {
                oracle.remove(f);
            }
            prop_assert_eq!(hardened.ranges(), &sort_and_merge(g, &oracle)[..]);

            let victim = FuncId(dense_from % n);
            prop_assert_eq!(hardened.exclude_function(g, victim), oracle.remove(&victim));
            prop_assert_eq!(hardened.ranges(), &sort_and_merge(g, &oracle)[..]);
            prop_assert_eq!(hardened.num_funcs(), oracle.len());
            Ok(())
        })?;
    }
}
