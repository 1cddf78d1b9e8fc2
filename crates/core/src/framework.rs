//! The Perspective framework facade: wires DSV metadata, the ISV
//! registry, and the hardware policy together, and exposes the *pliable
//! interface* — install, shrink, and harden speculation views at runtime.

use crate::dsv::DsvTable;
use crate::isv::Isv;
use crate::policy::{IsvRegistry, PerspectiveConfig, PerspectivePolicy};
use persp_kernel::callgraph::{CallGraph, FuncId};
use persp_kernel::kernel::SharedSink;
use persp_uarch::Asid;
use std::cell::RefCell;
use std::rc::Rc;

/// The framework object the OS-side code holds. The policy objects it
/// creates share its metadata via `Rc`, so runtime reconfiguration through
/// this handle is immediately visible to the hardware model inside the
/// core.
#[derive(Debug, Clone, Default)]
pub struct Perspective {
    dsv: Rc<RefCell<DsvTable>>,
    isvs: Rc<RefCell<IsvRegistry>>,
}

impl Perspective {
    /// A fresh framework with empty metadata.
    pub fn new() -> Self {
        Self::default()
    }

    /// The allocation-event sink to pass to
    /// [`Kernel::build`](persp_kernel::kernel::Kernel::build) — this is
    /// how allocations define DSVs.
    pub fn sink(&self) -> SharedSink {
        self.dsv.clone()
    }

    /// Build a hardware policy for the core.
    pub fn policy(&self, cfg: PerspectiveConfig) -> PerspectivePolicy {
        PerspectivePolicy::new(cfg, self.dsv.clone(), self.isvs.clone())
    }

    /// Boxed policy, ready for [`Core::new`](persp_uarch::pipeline::Core::new).
    pub fn boxed_policy(&self, cfg: PerspectiveConfig) -> Box<PerspectivePolicy> {
        Box::new(self.policy(cfg))
    }

    /// Install the view used while `asid` services `sysno` (per-syscall
    /// ISVs, §11 future work; enforced when
    /// [`PerspectiveConfig::per_syscall_isv`](crate::policy::PerspectiveConfig)
    /// is set).
    pub fn install_isv_per_syscall(&self, asid: Asid, sysno: u16, isv: Isv) {
        self.isvs.borrow_mut().install_per_syscall(asid, sysno, isv);
    }

    /// Install a context's ISV (at application startup, per §5.4).
    pub fn install_isv(&self, asid: Asid, isv: Isv) {
        self.isvs.borrow_mut().install(asid, isv);
    }

    /// Exclude a kernel function from a context's view at runtime — the
    /// "swiftly mitigate unforeseen vulnerable kernel functions ...
    /// without kernel patches" interface (§5.4). Returns whether the
    /// function was previously inside the view.
    pub fn exclude_function(&self, asid: Asid, graph: &CallGraph, func: FuncId) -> bool {
        let mut reg = self.isvs.borrow_mut();
        match reg.get_mut(asid) {
            Some(isv) => isv.exclude_function(graph, func),
            None => false,
        }
    }

    /// Read access to a context's installed view.
    pub fn with_isv<R>(&self, asid: Asid, f: impl FnOnce(Option<&Isv>) -> R) -> R {
        f(self.isvs.borrow().get(asid))
    }

    /// Shared DSV metadata handle (for inspection in tests/benches).
    pub fn dsv(&self) -> Rc<RefCell<DsvTable>> {
        self.dsv.clone()
    }

    /// A pristine ground-truth oracle over this framework's metadata,
    /// for the speculative non-interference checker
    /// ([`persp_uarch::sni::SniChecker`]). The oracle reads the
    /// authoritative DSV table and ISV registry directly — never the
    /// policy's metadata caches — so it defines what *should* have been
    /// blocked independent of hardware-model state.
    pub fn sni_oracle(&self, cfg: PerspectiveConfig) -> Rc<crate::sni_oracle::GroundTruth> {
        Rc::new(crate::sni_oracle::GroundTruth::new(
            cfg,
            self.dsv.clone(),
            self.isvs.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::body::emit_kernel;
    use persp_kernel::callgraph::KernelConfig;
    use persp_kernel::syscalls::Sysno;

    fn graph() -> CallGraph {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        g
    }

    #[test]
    fn install_and_inspect_isv() {
        let g = graph();
        let p = Perspective::new();
        p.install_isv(1, Isv::static_for(&g, &[Sysno::Read]));
        p.with_isv(1, |isv| {
            assert!(isv.is_some());
            assert!(isv.unwrap().num_funcs() > 0);
        });
        p.with_isv(2, |isv| assert!(isv.is_none()));
    }

    #[test]
    fn runtime_exclusion_through_the_facade() {
        let g = graph();
        let p = Perspective::new();
        p.install_isv(1, Isv::static_for(&g, &[Sysno::Read]));
        // The syscall's own entry function, the first a CVE response
        // would cut.
        let f = g.entries[&Sysno::Read];
        assert!(p.exclude_function(1, &g, f));
        p.with_isv(1, |isv| assert!(!isv.unwrap().contains_func(f)));
        assert!(!p.exclude_function(1, &g, f), "second exclusion is a no-op");
        assert!(
            !p.exclude_function(9, &g, f),
            "no view installed for asid 9"
        );
    }

    #[test]
    fn sink_feeds_the_shared_dsv_table() {
        use persp_kernel::sink::Owner;
        let p = Perspective::new();
        p.sink().borrow_mut().assign_frames(5, 1, Owner::Cgroup(3));
        assert_eq!(p.dsv().borrow().tracked_frames(), 1);
    }
}
