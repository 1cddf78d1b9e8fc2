//! Instruction Speculation Views: per-context sets of kernel code that may
//! execute speculatively.
//!
//! An ISV "defines the set of kernel functions that can be speculatively
//! executed by a given execution context" (§5.1); protection is applied at
//! instruction granularity. This module implements the three generation
//! strategies of §5.3/§6.1:
//!
//! * [`Isv::static_for`] — static system-call interposition: the
//!   direct-edge closure of the application's syscall set over the kernel
//!   call graph (the radare2-based analysis of the paper). Indirect-call
//!   targets are invisible and excluded.
//! * [`Isv::dynamic_from_funcs`] — dynamic tracing: the functions whose
//!   entries were observed in a committed-call trace (ftrace analog),
//!   resolved from call-target VAs by the tracing harness.
//! * [`Isv::exclude_function`] — auditing/CVE hardening: removing
//!   functions flagged by the gadget scanner yields ISV++, and the same
//!   interface gives runtime reconfigurability ("swiftly patching gadgets
//!   without kernel patches", §5.4).
//!
//! A view holds its functions once, as a [`FuncSet`] (one bit per kernel
//! function); its VA ranges are derived from that set in one ascending
//! pass, since emission lays functions out in [`FuncId`] order.

use persp_kernel::callgraph::{CallGraph, FuncId, FuncSet, VaFuncMap};
use persp_kernel::layout::KTEXT_BASE;
use persp_kernel::syscalls::Sysno;
use persp_uarch::isa::INST_BYTES;
use std::sync::Arc;

/// How an ISV was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsvKind {
    /// Static binary analysis (ISV-S).
    Static,
    /// Dynamic tracing (ISV).
    Dynamic,
    /// Audit-hardened (ISV++).
    Hardened,
    /// Everything allowed (the unprotected baseline view).
    Unrestricted,
}

/// An instruction speculation view.
///
/// Membership is answered from the view's [`FuncSet`] plus the graph's
/// shared VA → function map — both O(1) probes on the simulation hot
/// path, where the policy layer queries [`Isv::contains_va`] for every
/// instruction of an ISV-cache line fill.
#[derive(Debug, Clone)]
pub struct Isv {
    kind: IsvKind,
    funcs: FuncSet,
    /// Shared VA → function map (absent before kernel emission or for
    /// the unrestricted view; [`Isv::contains_va`] then falls back to
    /// binary search over `ranges`).
    va_map: Option<Arc<VaFuncMap>>,
    /// Sorted, disjoint `[start, end)` VA ranges allowed to speculate:
    /// the entry stub and the members' text, merged.
    ranges: Vec<(u64, u64)>,
}

/// The entry/dispatch stub must be part of every ISV — it is the syscall
/// path itself.
const STUB_RANGE: (u64, u64) = (KTEXT_BASE, KTEXT_BASE + 0x1000);

/// The merged VA ranges of the stub and `funcs`, in one pass: members
/// come in ascending [`FuncId`] order, which is ascending VA order
/// (asserted when the VA map is built).
fn ranges_of(graph: &CallGraph, funcs: &FuncSet) -> Vec<(u64, u64)> {
    let mut ranges = vec![STUB_RANGE];
    for f in funcs {
        let kf = graph.func(f);
        let end = kf.entry_va + u64::from(kf.len_insts) * INST_BYTES;
        match ranges.last_mut() {
            Some((_, le)) if kf.entry_va <= *le => *le = (*le).max(end),
            _ => ranges.push((kf.entry_va, end)),
        }
    }
    ranges
}

impl Isv {
    /// Static ISV (ISV-S): direct-edge closure of the application's
    /// syscall set.
    pub fn static_for(graph: &CallGraph, syscalls: &[Sysno]) -> Self {
        let funcs = graph.static_reachable(syscalls);
        Self::from_func_set(graph, funcs, IsvKind::Static)
    }

    /// Build a view from an explicit function set (e.g. the runtime
    /// reachability ground truth that a long dynamic trace converges to).
    pub fn from_func_set(graph: &CallGraph, funcs: FuncSet, kind: IsvKind) -> Self {
        Isv {
            kind,
            ranges: ranges_of(graph, &funcs),
            funcs,
            va_map: graph.va_map.is_built().then(|| graph.va_map.clone()),
        }
    }

    /// Dynamic ISV from an already-resolved function set (the form the
    /// tracing harness produces once call targets are attributed).
    pub fn dynamic_from_funcs(graph: &CallGraph, funcs: FuncSet) -> Self {
        Self::from_func_set(graph, funcs, IsvKind::Dynamic)
    }

    /// The unrestricted view: every kernel instruction may speculate (the
    /// behavior of an unprotected kernel, used as the ISV baseline).
    pub fn unrestricted() -> Self {
        Isv {
            kind: IsvKind::Unrestricted,
            funcs: FuncSet::default(),
            va_map: None,
            ranges: vec![(KTEXT_BASE, u64::MAX)],
        }
    }

    /// The view's provenance.
    pub fn kind(&self) -> IsvKind {
        self.kind
    }

    /// Number of kernel functions inside the view.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// The functions inside the view.
    pub fn funcs(&self) -> &FuncSet {
        &self.funcs
    }

    /// Is this function inside the view? O(1) bitset probe.
    #[inline]
    pub fn contains_func(&self, f: FuncId) -> bool {
        self.funcs.contains(f)
    }

    /// Is the instruction at `va` allowed to execute speculatively?
    ///
    /// O(1): resolve the owning function through the shared dense VA map
    /// and test its membership bit. The entry stub is part of every view
    /// (it *is* the syscall path), and views without a VA map — the
    /// unrestricted baseline, or views built before kernel emission —
    /// fall back to binary search over the allowed ranges.
    #[inline]
    pub fn contains_va(&self, va: u64) -> bool {
        if va >= STUB_RANGE.0 && va < STUB_RANGE.1 {
            return true;
        }
        match &self.va_map {
            Some(map) => map.func_of_va(va).is_some_and(|f| self.contains_func(f)),
            None => {
                let idx = self.ranges.partition_point(|&(s, _)| s <= va);
                idx > 0 && va < self.ranges[idx - 1].1
            }
        }
    }

    /// Remove a function from the view (audit hardening / CVE response /
    /// runtime shrinking). Upgrades the kind to [`IsvKind::Hardened`] and
    /// returns whether the function was present.
    pub fn exclude_function(&mut self, graph: &CallGraph, f: FuncId) -> bool {
        self.exclude(graph, [f]) > 0
    }

    /// Harden a view by excluding every gadget-hosting function found by
    /// an audit (the ISV++ construction of §6.1).
    pub fn hardened_with_audit(
        mut self,
        graph: &CallGraph,
        flagged: impl IntoIterator<Item = FuncId>,
    ) -> Self {
        self.exclude(graph, flagged);
        self
    }

    /// Clear every function of `funcs` from the view, then rebuild its
    /// ranges once; returns how many were members. The unrestricted view
    /// lists no functions, so it has none to exclude and stays as it is.
    fn exclude(&mut self, graph: &CallGraph, funcs: impl IntoIterator<Item = FuncId>) -> usize {
        if self.kind == IsvKind::Unrestricted {
            return 0;
        }
        let before = self.funcs.len();
        for f in funcs {
            self.funcs.remove(f);
            self.kind = IsvKind::Hardened;
        }
        let removed = before - self.funcs.len();
        if removed > 0 {
            self.ranges = ranges_of(graph, &self.funcs);
        }
        removed
    }

    /// Attack-surface reduction versus an unprotected kernel:
    /// `1 - |view| / |kernel|` (Table 8.1's metric).
    pub fn surface_reduction(&self, graph: &CallGraph) -> f64 {
        1.0 - self.funcs.len() as f64 / graph.len() as f64
    }

    /// The allowed VA ranges (sorted, disjoint).
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::body::emit_kernel;
    use persp_kernel::callgraph::KernelConfig;

    fn graph() -> CallGraph {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        g
    }

    #[test]
    fn static_isv_covers_reachable_functions() {
        let g = graph();
        let isv = Isv::static_for(&g, &[Sysno::Read, Sysno::Write]);
        assert_eq!(isv.kind(), IsvKind::Static);
        for f in isv.funcs() {
            let kf = g.func(f);
            assert!(
                isv.contains_va(kf.entry_va),
                "{} entry outside ISV",
                kf.name
            );
            assert!(isv.contains_va(kf.entry_va + 4));
        }
    }

    #[test]
    fn stub_is_always_inside() {
        let g = graph();
        let isv = Isv::static_for(&g, &[Sysno::Getpid]);
        assert!(isv.contains_va(persp_kernel::body::ENTRY_STUB_VA));
        assert!(isv.contains_va(persp_kernel::body::DISPATCH_CALL_VA));
    }

    #[test]
    fn functions_outside_the_syscall_set_are_excluded() {
        let g = graph();
        let isv = Isv::static_for(&g, &[Sysno::Getpid]);
        let mmap_entry = g.entries[&Sysno::Mmap];
        assert!(!isv.contains_func(mmap_entry));
        assert!(!isv.contains_va(g.func(mmap_entry).entry_va));
    }

    #[test]
    fn dynamic_isv_from_trace() {
        let g = graph();
        let read_entry = g.entries[&Sysno::Read];
        let isv = Isv::dynamic_from_funcs(&g, [read_entry].into_iter().collect());
        assert_eq!(isv.kind(), IsvKind::Dynamic);
        assert_eq!(isv.num_funcs(), 1);
        assert!(isv.contains_func(read_entry));
    }

    #[test]
    fn exclude_function_removes_its_range() {
        let g = graph();
        let mut isv = Isv::static_for(&g, &[Sysno::Read]);
        let victim = g.entries[&Sysno::Read];
        let va = g.func(victim).entry_va;
        assert!(isv.contains_va(va));
        assert!(isv.exclude_function(&g, victim));
        assert!(!isv.contains_va(va));
        assert!(!isv.contains_func(victim));
        assert!(!isv.ranges().iter().any(|&(s, e)| s <= va && va < e));
        assert_eq!(isv.kind(), IsvKind::Hardened);
        // Idempotent.
        assert!(!isv.exclude_function(&g, victim));
    }

    #[test]
    fn hardened_with_audit_removes_all_flagged() {
        let g = graph();
        let isv = Isv::static_for(&g, &[Sysno::ALL[0], Sysno::ALL[1], Sysno::ALL[2]]);
        let flagged: Vec<FuncId> = g
            .gadgets
            .iter()
            .map(|(f, _)| *f)
            .filter(|f| isv.contains_func(*f))
            .collect();
        let hardened = isv.hardened_with_audit(&g, flagged.iter().copied());
        for f in flagged {
            assert!(!hardened.contains_func(f));
            assert!(!hardened.contains_va(g.func(f).entry_va));
        }
    }

    #[test]
    fn unrestricted_contains_all_kernel_text() {
        let g = graph();
        let isv = Isv::unrestricted();
        for f in &g.funcs {
            assert!(isv.contains_va(f.entry_va));
        }
        assert!(
            !isv.contains_va(0x1000),
            "user addresses are not kernel text"
        );
    }

    #[test]
    fn surface_reduction_matches_fraction() {
        let g = graph();
        let isv = Isv::static_for(&g, &[Sysno::Getpid]);
        let expected = 1.0 - isv.num_funcs() as f64 / g.len() as f64;
        assert!((isv.surface_reduction(&g) - expected).abs() < 1e-12);
        assert!(
            isv.surface_reduction(&g) > 0.9,
            "tiny syscall set, large reduction"
        );
    }

    #[test]
    fn ranges_are_sorted_and_disjoint() {
        let g = graph();
        let isv = Isv::static_for(&g, Sysno::ALL);
        let mut prev_end = 0;
        for &(s, e) in isv.ranges() {
            assert!(s >= prev_end, "overlap at {s:#x}");
            assert!(e > s);
            prev_end = e;
        }
    }
}
