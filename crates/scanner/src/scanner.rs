//! Kernel-wide gadget scanning with optional ISV bounding.
//!
//! Reproduces the §8.2 auditing experiment: scanning the whole kernel
//! examines ~28 K functions; bounding the search space to a workload's
//! ISV shrinks it to a few percent, which both accelerates discovery and
//! yields the exclusion list that hardens the view into ISV++.

use crate::taint::{scan_functions, Finding};
use persp_kernel::callgraph::{CallGraph, FuncSet};
use persp_uarch::isa::Inst;

/// Result of one scanning campaign.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// All findings.
    pub findings: Vec<Finding>,
    /// Functions examined.
    pub functions_scanned: usize,
    /// Instructions examined (analysis-work metric).
    pub insts_scanned: u64,
}

impl ScanReport {
    /// The set of functions hosting at least one finding — the exclusion
    /// list for ISV++ hardening.
    pub fn flagged_functions(&self) -> FuncSet {
        self.findings.iter().map(|f| f.func).collect()
    }
}

/// Scan the whole kernel.
pub fn scan_kernel(graph: &CallGraph, fetch: impl Fn(u64) -> Option<Inst> + Copy) -> ScanReport {
    let (findings, insts_scanned) = scan_functions(graph, graph.funcs.iter().map(|f| f.id), fetch);
    ScanReport {
        findings,
        functions_scanned: graph.len(),
        insts_scanned,
    }
}

/// Scan only the functions inside an ISV (the bounded search space), in
/// ascending function-id order.
pub fn scan_bounded(
    graph: &CallGraph,
    bound: &FuncSet,
    fetch: impl Fn(u64) -> Option<Inst> + Copy,
) -> ScanReport {
    let (findings, insts_scanned) = scan_functions(graph, bound, fetch);
    ScanReport {
        findings,
        functions_scanned: bound.len(),
        insts_scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::body::emit_kernel;
    use persp_kernel::callgraph::{GadgetKind, KernelConfig};
    use persp_kernel::syscalls::Sysno;
    use persp_uarch::machine::Machine;

    fn setup() -> (CallGraph, Machine) {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        let text = emit_kernel(&mut g);
        let mut m = Machine::new();
        m.attach_text(std::sync::Arc::new(text));
        (g, m)
    }

    #[test]
    fn full_scan_matches_planted_totals() {
        let (g, m) = setup();
        let report = scan_kernel(&g, |pc| m.inst_at(pc));
        assert_eq!(report.findings.len(), g.gadgets.len());
        assert_eq!(report.functions_scanned, g.len());
        // Category split follows Kasper's proportions (MDS > Port > Cache).
        let count = |kind| report.findings.iter().filter(|f| f.kind == kind).count();
        let (mds, port, cache) = (
            count(GadgetKind::Mds),
            count(GadgetKind::Port),
            count(GadgetKind::Cache),
        );
        assert!(mds > port && port > cache, "{mds}/{port}/{cache}");
    }

    #[test]
    fn bounded_scan_reduces_space_and_finds_subset() {
        let (g, m) = setup();
        let bound = g.static_reachable(&[Sysno::Read, Sysno::Write, Sysno::Poll]);
        let full = scan_kernel(&g, |pc| m.inst_at(pc));
        let bounded = scan_bounded(&g, &bound, |pc| m.inst_at(pc));
        assert!(bounded.functions_scanned < full.functions_scanned / 2);
        assert!(bounded.insts_scanned < full.insts_scanned / 2);
        let full_set = full.flagged_functions();
        for f in bounded.flagged_functions() {
            assert!(full_set.contains(f));
        }
    }

    #[test]
    fn flagged_functions_harden_into_a_gadget_free_view() {
        use perspective::isv::{Isv, IsvKind};
        let (g, m) = setup();
        let live = g.live_reachable(Sysno::ALL);
        let isv = Isv::from_func_set(&g, live.clone(), IsvKind::Dynamic);
        let report = scan_bounded(&g, &live, |pc| m.inst_at(pc));
        let hardened = isv.hardened_with_audit(&g, report.flagged_functions());
        // ISV++ blocks every identified gadget (Table 8.2's 100 % row).
        for (host, _) in &g.gadgets {
            assert!(!hardened.contains_func(*host));
        }
    }
}
