//! Property tests for `FuncSet` and the reachability closures built on it.
//!
//! * `FuncSet` against a `HashSet<FuncId>` oracle: random insert/remove
//!   sequences across several words, with `len`, membership, ascending
//!   iteration (borrowed and owned), clones, and equality
//!   between sets whose word vectors differ only in trailing zero words.
//! * `static_reachable`, `live_reachable` and `live_always_reachable`
//!   against a reference `HashSet` depth-first search written here from
//!   the edge rules of each closure, over random syscall subsets of the
//!   small kernel.

use persp_kernel::callgraph::{BodyOp, CallGraph, FuncId, FuncSet, KernelConfig};
use persp_kernel::syscalls::Sysno;
use proptest::prelude::*;
use std::collections::HashSet;

/// One operation on a set: insert or remove a function id.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
}

fn op() -> impl Strategy<Value = Op> {
    // Three inserts to two removes. Ids up to 300 span five words; one
    // id in nine is drawn from a wider range, which forces growth.
    (0u8..5, 0u8..9, 0u32..300, 0u32..5_000).prop_map(|(kind, wide, near, far)| {
        let id = if wide == 0 { far } else { near };
        if kind < 3 {
            Op::Insert(id)
        } else {
            Op::Remove(id)
        }
    })
}

fn sorted(oracle: &HashSet<FuncId>) -> Vec<FuncId> {
    let mut v: Vec<FuncId> = oracle.iter().copied().collect();
    v.sort_unstable();
    v
}

thread_local! {
    static GRAPH: CallGraph = CallGraph::generate(KernelConfig::test_small());
}

/// The closure rule of one reachability analysis: whether it follows
/// conditional calls whose flag is clear, rarely-taken calls and
/// indirect calls (direct calls it always follows).
#[derive(Debug, Clone, Copy)]
struct Rule {
    untaken_cond: bool,
    rare: bool,
    indirect: bool,
}

const STATIC: Rule = Rule {
    untaken_cond: true,
    rare: true,
    indirect: false,
};
const LIVE: Rule = Rule {
    untaken_cond: false,
    rare: true,
    indirect: true,
};
const LIVE_ALWAYS: Rule = Rule {
    untaken_cond: false,
    rare: false,
    indirect: true,
};

fn reference_closure(g: &CallGraph, syscalls: &[Sysno], rule: Rule) -> HashSet<FuncId> {
    let mut seen = HashSet::new();
    let mut stack = Vec::new();
    for s in syscalls {
        if let Some(&e) = g.entries.get(s) {
            if seen.insert(e) {
                stack.push(e);
            }
        }
    }
    while let Some(f) = stack.pop() {
        for op in &g.func(f).body {
            let callee = match op {
                BodyOp::CallDirect(c) => Some(*c),
                BodyOp::CallCond { callee, taken, .. } => {
                    (*taken || rule.untaken_cond).then_some(*callee)
                }
                BodyOp::CallRare { callee, .. } => rule.rare.then_some(*callee),
                BodyOp::CallIndirect { slot } => rule.indirect.then(|| g.ops_table[*slot as usize]),
                _ => None,
            };
            if let Some(c) = callee {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn funcset_agrees_with_hashset_oracle(ops in proptest::collection::vec(op(), 0..200)) {
        let mut set = FuncSet::default();
        let mut presized = FuncSet::with_capacity(6_000);
        let mut oracle: HashSet<FuncId> = HashSet::new();
        for op in &ops {
            match *op {
                Op::Insert(i) => {
                    let f = FuncId(i);
                    let fresh = oracle.insert(f);
                    prop_assert_eq!(set.insert(f), fresh, "insert {:?}", f);
                    prop_assert_eq!(presized.insert(f), fresh);
                }
                Op::Remove(i) => {
                    let f = FuncId(i);
                    let present = oracle.remove(&f);
                    prop_assert_eq!(set.remove(f), present, "remove {:?}", f);
                    prop_assert_eq!(presized.remove(f), present);
                }
            }
            prop_assert_eq!(set.len(), oracle.len());
        }
        prop_assert_eq!(set.is_empty(), oracle.is_empty());
        for i in (0..320).chain([4_999, 6_000, u32::MAX]) {
            let f = FuncId(i);
            prop_assert_eq!(set.contains(f), oracle.contains(&f), "contains {:?}", f);
        }

        let want = sorted(&oracle);
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!((&set).into_iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(set.clone().into_iter().collect::<Vec<_>>(), want.clone());

        // Equality ignores how many (zero) words each set carries.
        let rebuilt: FuncSet = want.iter().copied().collect();
        prop_assert_eq!(&set, &presized);
        prop_assert_eq!(&set, &rebuilt);
        prop_assert_eq!(&set.clone(), &set);
        let mut grown = set.clone();
        prop_assert!(grown.insert(FuncId(100_000)));
        prop_assert_ne!(&grown, &set);
        prop_assert_ne!(&set, &grown);
        prop_assert!(grown.remove(FuncId(100_000)));
        prop_assert_eq!(&grown, &set);
        prop_assert_eq!(&set, &grown);

        if let Some(&first) = want.first() {
            let mut fewer = set.clone();
            fewer.remove(first);
            prop_assert_ne!(&fewer, &set);
            prop_assert_ne!(&set, &fewer);
        }
    }

    #[test]
    fn closures_agree_with_reference_dfs(mask in any::<u64>(), extra in any::<u64>()) {
        GRAPH.with(|g| {
            // Random syscall subsets, with repeats allowed through `extra`.
            let mut syscalls: Vec<Sysno> = Sysno::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                .map(|(_, &s)| s)
                .collect();
            syscalls.push(Sysno::ALL[extra as usize % Sysno::ALL.len()]);
            for (got, rule) in [
                (g.static_reachable(&syscalls), STATIC),
                (g.live_reachable(&syscalls), LIVE),
                (g.live_always_reachable(&syscalls), LIVE_ALWAYS),
            ] {
                let want = reference_closure(g, &syscalls, rule);
                prop_assert_eq!(got.len(), want.len(), "{:?}", rule);
                prop_assert_eq!(got.iter().collect::<Vec<_>>(), sorted(&want), "{:?}", rule);
            }
            Ok(())
        })?;
    }
}

#[test]
fn closures_of_no_syscalls_are_empty() {
    GRAPH.with(|g| {
        assert!(g.static_reachable(&[]).is_empty());
        assert!(g.live_reachable(&[]).is_empty());
        assert!(g.live_always_reachable(&[]).is_empty());
    });
}
