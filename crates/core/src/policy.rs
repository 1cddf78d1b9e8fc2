//! Perspective's speculation policy: the hardware-side enforcement of
//! DSVs and ISVs, plugged into the core as a
//! [`SpecPolicy`].
//!
//! Per §6.2, for every *speculative* transmitter (load) issued in kernel
//! mode the hardware consults:
//!
//! 1. the **ISV cache** with the instruction's VA — outside the current
//!    context's ISV (or on a cache miss) the instruction is fenced until
//!    its visibility point;
//! 2. the **DSVMT cache** with the data VA — data outside the context's
//!    DSV (foreign, unknown, or a metadata miss) is likewise fenced.
//!
//! Non-speculative accesses always proceed: Perspective never changes
//! architectural semantics, which is what makes ISVs deployable where
//! seccomp-style syscall *blocking* is not (§5.3).

use crate::dsv::{DsvClass, DsvTable};
use crate::hwcache::{HwCacheConfig, HwLookup, TaggedMetadataCache};
use crate::isv::Isv;
use persp_uarch::policy::{BlockSource, LoadCtx, LoadDecision, PolicyCounters, SpecPolicy};
use persp_uarch::{Asid, Counters, Mode};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Which Perspective features are enforced (used by the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerspectiveConfig {
    /// Enforce data speculation views.
    pub enforce_dsv: bool,
    /// Enforce instruction speculation views.
    pub enforce_isv: bool,
    /// Treat unknown-ownership data as blocked (§6.1). Disabling this is
    /// the §9.2 "Unknown Allocations" sensitivity experiment.
    pub block_unknown: bool,
    /// ISV-cache entries (paper: 128). The §9.2 sensitivity sweep varies
    /// this to locate the knee that justifies the Table 9.1 design point.
    pub isv_cache_entries: usize,
    /// DSVMT-cache entries (paper: 128).
    pub dsvmt_cache_entries: usize,
    /// Switch the instruction view at syscall dispatch (§11 future work):
    /// while syscall *s* is serviced, the per-`(asid, s)` view installed
    /// via [`IsvRegistry::install_per_syscall`] is enforced instead of
    /// the process-wide view. The ISV cache is flushed on each switch —
    /// the conservative hardware variant (an ASID+sysno tag extension
    /// would avoid the flushes).
    pub per_syscall_isv: bool,
}

impl Default for PerspectiveConfig {
    fn default() -> Self {
        PerspectiveConfig {
            enforce_dsv: true,
            enforce_isv: true,
            block_unknown: true,
            isv_cache_entries: 128,
            dsvmt_cache_entries: 128,
            per_syscall_isv: false,
        }
    }
}

/// Fence attribution (drives Table 10.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceBreakdown {
    /// Loads fenced by the ISV mechanism (outside view or ISV-cache miss).
    pub isv: u64,
    /// Loads fenced by the DSV mechanism (foreign data or DSVMT miss).
    pub dsv: u64,
    /// Loads fenced because ownership was unknown.
    pub unknown: u64,
}

impl FenceBreakdown {
    /// Total fences.
    pub fn total(&self) -> u64 {
        self.counter_sum()
    }

    /// ISV share of all fences (Table 10.1 reports ISV/DSV percentages).
    pub fn isv_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.isv as f64 / t as f64
        }
    }
}

persp_uarch::counters!(FenceBreakdown { isv, dsv, unknown });

/// Shared per-context ISV registry — the *pliable interface*: the OS (or
/// an administrator) installs, shrinks, or hardens views at runtime while
/// the policy object lives inside the core.
#[derive(Debug, Default)]
pub struct IsvRegistry {
    views: HashMap<Asid, Isv>,
    per_syscall: HashMap<(Asid, u16), Isv>,
    /// Bumped on every change so the policy can invalidate stale
    /// hardware-cache contents.
    generation: u64,
}

impl IsvRegistry {
    /// Install (or replace) the view of a context.
    pub fn install(&mut self, asid: Asid, isv: Isv) {
        self.views.insert(asid, isv);
        self.generation += 1;
    }

    /// The view of a context, if installed.
    pub fn get(&self, asid: Asid) -> Option<&Isv> {
        self.views.get(&asid)
    }

    /// Mutable view access (for runtime shrinking); bumps the generation.
    pub fn get_mut(&mut self, asid: Asid) -> Option<&mut Isv> {
        self.generation += 1;
        self.views.get_mut(&asid)
    }

    /// Current generation (changes whenever any view changes).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Install (or replace) the view used while `asid` services `sysno`
    /// (per-syscall ISVs, §11 future work).
    pub fn install_per_syscall(&mut self, asid: Asid, sysno: u16, isv: Isv) {
        self.per_syscall.insert((asid, sysno), isv);
        self.generation += 1;
    }

    /// The view governing `asid` while servicing `cur_sysno`: the
    /// per-syscall view when one is installed, otherwise the context's
    /// process-wide view.
    pub fn get_scoped(&self, asid: Asid, cur_sysno: Option<u16>) -> Option<&Isv> {
        if let Some(sysno) = cur_sysno {
            if let Some(v) = self.per_syscall.get(&(asid, sysno)) {
                return Some(v);
            }
        }
        self.views.get(&asid)
    }
}

/// The Perspective policy object plugged into the simulated core.
pub struct PerspectivePolicy {
    cfg: PerspectiveConfig,
    dsv: Rc<RefCell<DsvTable>>,
    isvs: Rc<RefCell<IsvRegistry>>,
    isv_cache: TaggedMetadataCache,
    dsvmt_cache: TaggedMetadataCache,
    seen_generation: u64,
    /// Last `(asid, sysno)` dispatch context (per-syscall mode): a change
    /// flushes the ISV cache, modelling the conservative implementation.
    last_dispatch: Option<(Asid, Option<u16>)>,
    counters: PolicyCounters,
    fences: FenceBreakdown,
}

impl std::fmt::Debug for PerspectivePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerspectivePolicy")
            .field("cfg", &self.cfg)
            .field("fences", &self.fences)
            .finish_non_exhaustive()
    }
}

impl PerspectivePolicy {
    /// Build a policy over shared DSV metadata and the ISV registry.
    pub fn new(
        cfg: PerspectiveConfig,
        dsv: Rc<RefCell<DsvTable>>,
        isvs: Rc<RefCell<IsvRegistry>>,
    ) -> Self {
        PerspectivePolicy {
            cfg,
            dsv,
            isvs,
            isv_cache: TaggedMetadataCache::new(HwCacheConfig {
                entries: cfg.isv_cache_entries,
                ..HwCacheConfig::isv_paper()
            }),
            dsvmt_cache: TaggedMetadataCache::new(HwCacheConfig {
                entries: cfg.dsvmt_cache_entries,
                ..HwCacheConfig::dsvmt_paper()
            }),
            seen_generation: 0,
            last_dispatch: None,
            counters: PolicyCounters::default(),
            fences: FenceBreakdown::default(),
        }
    }

    /// Fence attribution so far.
    pub fn fence_breakdown(&self) -> FenceBreakdown {
        self.fences
    }

    /// ISV-cache statistics.
    pub fn isv_cache_stats(&self) -> crate::hwcache::HwCacheStats {
        self.isv_cache.stats()
    }

    /// DSVMT-cache statistics.
    pub fn dsvmt_cache_stats(&self) -> crate::hwcache::HwCacheStats {
        self.dsvmt_cache.stats()
    }

    /// Reset fence attribution and hardware-cache statistics (contents are
    /// kept — mirrors a measurement-region reset).
    pub fn reset_measurement(&mut self) {
        self.fences = FenceBreakdown::default();
        self.counters = PolicyCounters::default();
        self.isv_cache.reset_stats();
        self.dsvmt_cache.reset_stats();
    }

    /// Drop every ISV-cache and DSVMT entry tagged with `asid`.
    ///
    /// Used by the fault-injection harness ([`crate::fault::FaultInjector`])
    /// to model metadata-cache evictions mid-run; the next access refills
    /// from the authoritative tables, so this is always semantics-preserving
    /// (an eviction can only cause conservative extra blocks, never an
    /// unsafe allow).
    pub fn fault_invalidate_metadata(&mut self, asid: Asid) {
        self.isv_cache.invalidate_asid(asid);
        self.dsvmt_cache.invalidate_asid(asid);
    }

    fn sync_generation(&mut self, asid: Asid) {
        let gen = self.isvs.borrow().generation();
        if gen != self.seen_generation {
            // A view changed: stale ISV-cache contents must not answer.
            self.isv_cache.invalidate_asid(asid);
            self.seen_generation = gen;
        }
    }

    /// In per-syscall mode a dispatch-context change flushes the ISV
    /// cache (stale bits belong to the previous syscall's view).
    fn sync_dispatch(&mut self, asid: Asid, cur_sysno: Option<u16>) {
        if !self.cfg.per_syscall_isv {
            return;
        }
        let ctx = Some((asid, cur_sysno));
        if self.last_dispatch != ctx {
            self.isv_cache.invalidate_asid(asid);
            self.last_dispatch = ctx;
        }
    }

    /// The view governing this access, honouring per-syscall mode.
    fn scoped_view_installed(&self, asid: Asid, cur_sysno: Option<u16>) -> bool {
        let isvs = self.isvs.borrow();
        if self.cfg.per_syscall_isv {
            isvs.get_scoped(asid, cur_sysno).is_some()
        } else {
            isvs.get(asid).is_some()
        }
    }

    /// ISV check: may the instruction at `pc` execute speculatively in
    /// context `asid` (servicing `cur_sysno`)? Returns the blocking source
    /// if not: [`BlockSource::Isv`] when the cached view bit says "outside
    /// the view", [`BlockSource::IsvMiss`] when the ISV cache missed and
    /// the access is blocked conservatively while the refill runs. Both
    /// fold into the same ISV fence totals; they differ only for
    /// stall-cycle attribution.
    fn isv_blocks(&mut self, pc: u64, asid: Asid, cur_sysno: Option<u16>) -> Option<BlockSource> {
        self.sync_generation(asid);
        self.sync_dispatch(asid, cur_sysno);
        match self.isv_cache.lookup(pc, asid) {
            HwLookup::Hit(true) => None,
            HwLookup::Hit(false) => Some(BlockSource::Isv),
            HwLookup::Miss => {
                // Conservatively block this instance; refill in the
                // background from the ISV page (§6.2).
                let span = self.isv_cache.span_bytes();
                let window = pc & !(span - 1);
                let nbits = (span / 4).min(64) as usize;
                let isvs = self.isvs.borrow();
                let isv = if self.cfg.per_syscall_isv {
                    isvs.get_scoped(asid, cur_sysno)
                } else {
                    isvs.get(asid)
                }
                .expect("isv_blocks only called when enforced");
                let allowed: Vec<bool> = (0..nbits)
                    .map(|i| isv.contains_va(window + i as u64 * 4))
                    .collect();
                drop(isvs);
                self.isv_cache.refill(pc, asid, |b| {
                    allowed.get(b as usize).copied().unwrap_or(false)
                });
                Some(BlockSource::IsvMiss)
            }
        }
    }

    /// DSV check: may the data at `addr` be speculatively accessed by
    /// `asid`? Returns the blocking source if not.
    fn dsv_blocks(&mut self, addr: u64, asid: Asid) -> Option<BlockSource> {
        match self.dsvmt_cache.lookup(addr, asid) {
            HwLookup::Hit(true) => None,
            HwLookup::Hit(false) => {
                // Attribution for Table 10.1 / §9.2 reporting only: the
                // hardware bit just says "fence"; the software metadata
                // says why.
                let class = self.dsv.borrow_mut().classify(addr, asid);
                Some(if class == DsvClass::Unknown && self.cfg.block_unknown {
                    BlockSource::UnknownAlloc
                } else {
                    BlockSource::Dsv
                })
            }
            HwLookup::Miss => {
                let class = self.dsv.borrow_mut().classify(addr, asid);
                let in_view = match class {
                    DsvClass::Owned | DsvClass::Shared => true,
                    DsvClass::Foreign => false,
                    DsvClass::Unknown => !self.cfg.block_unknown,
                };
                self.dsvmt_cache.refill(addr, asid, |_| in_view);
                // The miss itself conservatively blocks (§6.2): "on a
                // miss, instead of waiting for a refill, Perspective
                // conservatively blocks speculation". Unknown ownership
                // keeps its own attribution; everything else blocked on
                // the miss path is tagged DsvmtMiss, which folds into the
                // same DSV fence totals but drives a separate stall class.
                Some(if class == DsvClass::Unknown && self.cfg.block_unknown {
                    BlockSource::UnknownAlloc
                } else {
                    BlockSource::DsvmtMiss
                })
            }
        }
    }
}

impl persp_uarch::MetricsSource for PerspectivePolicy {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        self.fences.export_metrics(&format!("{prefix}.fences"), reg);
        self.counters
            .export_metrics(&format!("{prefix}.decisions"), reg);
        self.isv_cache
            .export_metrics(&format!("{prefix}.isv_cache"), reg);
        self.dsvmt_cache
            .export_metrics(&format!("{prefix}.dsvmt_cache"), reg);
    }
}

impl SpecPolicy for PerspectivePolicy {
    fn name(&self) -> &'static str {
        "PERSPECTIVE"
    }

    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision {
        // Perspective protects kernel execution; user-mode speculation and
        // non-speculative accesses proceed untouched.
        if ctx.mode != Mode::Kernel || !ctx.speculative {
            let d = LoadDecision::Allow;
            self.counters.record(d);
            return d;
        }

        let isv_enforced =
            self.cfg.enforce_isv && self.scoped_view_installed(ctx.asid, ctx.cur_sysno);
        if isv_enforced {
            if let Some(src) = self.isv_blocks(ctx.pc, ctx.asid, ctx.cur_sysno) {
                let d = LoadDecision::BlockUntilVp(src);
                self.counters.record(d);
                self.fences.isv += 1;
                return d;
            }
        }

        if self.cfg.enforce_dsv {
            if let Some(src) = self.dsv_blocks(ctx.addr, ctx.asid) {
                let d = LoadDecision::BlockUntilVp(src);
                self.counters.record(d);
                match src {
                    BlockSource::UnknownAlloc => self.fences.unknown += 1,
                    _ => self.fences.dsv += 1,
                }
                return d;
            }
        }

        let d = LoadDecision::Allow;
        self.counters.record(d);
        d
    }

    fn on_load_vp(&mut self, ctx: &LoadCtx) {
        // Deferred LRU updates at the visibility point (§6.2).
        if ctx.mode == Mode::Kernel {
            self.isv_cache.commit_touch(ctx.pc, ctx.asid);
            self.dsvmt_cache.commit_touch(ctx.addr, ctx.asid);
        }
    }

    fn counters(&self) -> PolicyCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = PolicyCounters::default();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::layout::frame_to_va;
    use persp_kernel::sink::{AllocSink, Owner};

    fn setup() -> (
        PerspectivePolicy,
        Rc<RefCell<DsvTable>>,
        Rc<RefCell<IsvRegistry>>,
    ) {
        let dsv = Rc::new(RefCell::new(DsvTable::new()));
        let isvs = Rc::new(RefCell::new(IsvRegistry::default()));
        {
            let mut d = dsv.borrow_mut();
            d.register_context(1, 10);
            d.register_context(2, 20);
            d.assign_frames(100, 1, Owner::Cgroup(10));
            d.assign_frames(200, 1, Owner::Cgroup(20));
        }
        // No ISV installed for tests that exercise DSVs only — contexts
        // without views are unrestricted.
        let policy =
            PerspectivePolicy::new(PerspectiveConfig::default(), dsv.clone(), isvs.clone());
        (policy, dsv, isvs)
    }

    fn kctx(pc: u64, addr: u64, asid: Asid, speculative: bool) -> LoadCtx {
        LoadCtx {
            pc,
            addr,
            mode: Mode::Kernel,
            asid,
            speculative,
            tainted_addr: false,
            l1_hit: false,
            cur_sysno: None,
        }
    }

    #[test]
    fn non_speculative_loads_always_proceed() {
        let (mut p, _, _) = setup();
        let d = p.check_load(&kctx(0xFFFF_8000_0000_0000, frame_to_va(200), 1, false));
        assert_eq!(d, LoadDecision::Allow, "architectural semantics unchanged");
    }

    #[test]
    fn user_mode_is_out_of_scope() {
        let (mut p, _, _) = setup();
        let mut ctx = kctx(0x1000, 0x2000, 1, true);
        ctx.mode = Mode::User;
        assert_eq!(p.check_load(&ctx), LoadDecision::Allow);
    }

    #[test]
    fn foreign_data_is_fenced_dsv() {
        let (mut p, _, _) = setup();
        // asid 1 speculatively reads asid 2's frame.
        let addr = frame_to_va(200);
        let d1 = p.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        // First access: DSVMT miss — blocked conservatively.
        assert!(matches!(d1, LoadDecision::BlockUntilVp(_)));
        // After refill: still blocked, now by the DSV bit itself.
        let d2 = p.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        assert_eq!(d2, LoadDecision::BlockUntilVp(BlockSource::Dsv));
        assert!(p.fence_breakdown().dsv >= 1);
    }

    #[test]
    fn owned_data_proceeds_after_refill() {
        let (mut p, _, _) = setup();
        let addr = frame_to_va(100);
        let _ = p.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true)); // miss
        let d = p.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        assert_eq!(d, LoadDecision::Allow, "own data speculates freely");
    }

    #[test]
    fn unknown_data_is_fenced_unless_disabled() {
        let (mut p, _, _) = setup();
        let addr = frame_to_va(999); // never allocated
        let _ = p.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        let d = p.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        assert_eq!(d, LoadDecision::BlockUntilVp(BlockSource::UnknownAlloc));

        // §9.2 sensitivity: selectively disable unknown blocking.
        let dsv = Rc::new(RefCell::new(DsvTable::new()));
        dsv.borrow_mut().register_context(1, 10);
        let isvs = Rc::new(RefCell::new(IsvRegistry::default()));
        let cfg = PerspectiveConfig {
            block_unknown: false,
            ..Default::default()
        };
        let mut p2 = PerspectivePolicy::new(cfg, dsv, isvs);
        let _ = p2.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        let d2 = p2.check_load(&kctx(0xFFFF_8000_0000_1000, addr, 1, true));
        assert_eq!(d2, LoadDecision::Allow);
    }

    fn kctx_sys(pc: u64, addr: u64, asid: Asid, sysno: Option<u16>) -> LoadCtx {
        LoadCtx {
            cur_sysno: sysno,
            ..kctx(pc, addr, asid, true)
        }
    }

    #[test]
    fn registry_prefers_per_syscall_view_with_process_wide_fallback() {
        use persp_kernel::body::emit_kernel;
        use persp_kernel::callgraph::{CallGraph, KernelConfig};
        use persp_kernel::syscalls::Sysno;

        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let wide = crate::isv::Isv::static_for(&g, &[Sysno::Getpid, Sysno::Mmap]);
        let narrow = crate::isv::Isv::static_for(&g, &[Sysno::Getpid]);
        let narrow_len = narrow.num_funcs();

        let mut reg = IsvRegistry::default();
        reg.install(1, wide);
        reg.install_per_syscall(1, Sysno::Getpid as u16, narrow);

        // Scoped to getpid: the narrow view answers.
        let v = reg.get_scoped(1, Some(Sysno::Getpid as u16)).unwrap();
        assert_eq!(v.num_funcs(), narrow_len);
        // Scoped to a syscall without its own view, or to no syscall:
        // falls back to the process-wide view.
        let v = reg.get_scoped(1, Some(Sysno::Mmap as u16)).unwrap();
        assert!(v.num_funcs() > narrow_len);
        let v = reg.get_scoped(1, None).unwrap();
        assert!(v.num_funcs() > narrow_len);
        // Unknown context: nothing.
        assert!(reg.get_scoped(7, Some(0)).is_none());
    }

    #[test]
    fn per_syscall_mode_switches_the_enforced_view_at_dispatch() {
        use persp_kernel::body::emit_kernel;
        use persp_kernel::callgraph::{CallGraph, KernelConfig};
        use persp_kernel::syscalls::Sysno;

        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let getpid_pc = g.func(g.entries[&Sysno::Getpid]).entry_va;
        let mmap_pc = g.func(g.entries[&Sysno::Mmap]).entry_va;
        let getpid_view = crate::isv::Isv::static_for(&g, &[Sysno::Getpid]);
        let mmap_view = crate::isv::Isv::static_for(&g, &[Sysno::Mmap]);
        assert!(!getpid_view.contains_va(mmap_pc), "pools are disjoint");

        let (_, dsv, isvs) = setup();
        dsv.borrow_mut()
            .assign_va_range(0x9000, 4096, Owner::Shared);
        isvs.borrow_mut()
            .install_per_syscall(1, Sysno::Getpid as u16, getpid_view);
        isvs.borrow_mut()
            .install_per_syscall(1, Sysno::Mmap as u16, mmap_view);
        let cfg = PerspectiveConfig {
            per_syscall_isv: true,
            ..PerspectiveConfig::default()
        };
        let mut p = PerspectivePolicy::new(cfg, dsv, isvs);

        let getpid = Some(Sysno::Getpid as u16);
        let mmap = Some(Sysno::Mmap as u16);

        // While servicing getpid, mmap's handler is out of view: blocked
        // even with a warm cache.
        let _ = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, getpid));
        let d = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, getpid));
        assert_eq!(d, LoadDecision::BlockUntilVp(BlockSource::Isv));

        // The same pc while servicing mmap is allowed once refilled —
        // the dispatch switch flushed the stale bits.
        let _ = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, mmap));
        let _ = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, mmap));
        let d = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, mmap));
        assert_eq!(d, LoadDecision::Allow);

        // Back in getpid, the flush re-blocks it.
        let _ = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, getpid));
        let d = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, getpid));
        assert_eq!(d, LoadDecision::BlockUntilVp(BlockSource::Isv));

        // getpid's own handler is always inside its view.
        let _ = p.check_load(&kctx_sys(getpid_pc, 0x9000, 1, getpid));
        let _ = p.check_load(&kctx_sys(getpid_pc, 0x9000, 1, getpid));
        let d = p.check_load(&kctx_sys(getpid_pc, 0x9000, 1, getpid));
        assert_eq!(d, LoadDecision::Allow);
    }

    #[test]
    fn per_syscall_views_are_inert_unless_the_mode_is_enabled() {
        use persp_kernel::body::emit_kernel;
        use persp_kernel::callgraph::{CallGraph, KernelConfig};
        use persp_kernel::syscalls::Sysno;

        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let mmap_pc = g.func(g.entries[&Sysno::Mmap]).entry_va;
        let getpid_view = crate::isv::Isv::static_for(&g, &[Sysno::Getpid]);

        let (_, dsv, isvs) = setup();
        dsv.borrow_mut()
            .assign_va_range(0x9000, 4096, Owner::Shared);
        // Only a per-syscall view, no process-wide view, default config
        // (per_syscall_isv = false): the context stays unrestricted.
        isvs.borrow_mut()
            .install_per_syscall(1, Sysno::Getpid as u16, getpid_view);
        let mut p = PerspectivePolicy::new(PerspectiveConfig::default(), dsv, isvs);

        let _ = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, Some(Sysno::Getpid as u16)));
        let _ = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, Some(Sysno::Getpid as u16)));
        let d = p.check_load(&kctx_sys(mmap_pc, 0x9000, 1, Some(Sysno::Getpid as u16)));
        assert_eq!(d, LoadDecision::Allow, "mode off: no ISV enforcement");
    }

    #[test]
    fn isv_blocks_instructions_outside_the_view() {
        use persp_kernel::body::emit_kernel;
        use persp_kernel::callgraph::{CallGraph, KernelConfig};
        use persp_kernel::syscalls::Sysno;

        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let isv = crate::isv::Isv::static_for(&g, &[Sysno::Getpid]);
        let inside_pc = g.func(g.entries[&Sysno::Getpid]).entry_va;
        let outside_pc = g.func(g.entries[&Sysno::Mmap]).entry_va;
        assert!(!isv.contains_va(outside_pc));

        let (mut p, dsv, isvs) = setup();
        isvs.borrow_mut().install(1, isv);
        // Give the load's own data address a clean DSV answer.
        dsv.borrow_mut()
            .assign_va_range(0x9000, 4096, Owner::Shared);

        // Inside the view: first check misses the ISV cache (blocked),
        // second hits and passes the ISV stage.
        let _ = p.check_load(&kctx(inside_pc, 0x9000, 1, true));
        let _ = p.check_load(&kctx(inside_pc, 0x9000, 1, true)); // dsvmt refill round
        let d = p.check_load(&kctx(inside_pc, 0x9000, 1, true));
        assert_eq!(d, LoadDecision::Allow);

        // Outside the view: blocked even with warm caches.
        let _ = p.check_load(&kctx(outside_pc, 0x9000, 1, true));
        let d = p.check_load(&kctx(outside_pc, 0x9000, 1, true));
        assert_eq!(d, LoadDecision::BlockUntilVp(BlockSource::Isv));
        assert!(p.fence_breakdown().isv >= 1);
    }

    #[test]
    fn runtime_view_changes_invalidate_cached_bits() {
        use persp_kernel::body::emit_kernel;
        use persp_kernel::callgraph::{CallGraph, KernelConfig};
        use persp_kernel::syscalls::Sysno;

        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let isv = crate::isv::Isv::static_for(&g, &[Sysno::Getpid]);
        let entry = g.entries[&Sysno::Getpid];
        let pc = g.func(entry).entry_va;

        let (mut p, dsv, isvs) = setup();
        dsv.borrow_mut()
            .assign_va_range(0x9000, 4096, Owner::Shared);
        isvs.borrow_mut().install(1, isv);

        // Warm the ISV cache so pc hits as allowed.
        let _ = p.check_load(&kctx(pc, 0x9000, 1, true));
        let _ = p.check_load(&kctx(pc, 0x9000, 1, true));
        assert_eq!(
            p.check_load(&kctx(pc, 0x9000, 1, true)),
            LoadDecision::Allow
        );

        // A CVE lands in sys_getpid: exclude it at runtime (§5.4).
        isvs.borrow_mut()
            .get_mut(1)
            .unwrap()
            .exclude_function(&g, entry);
        // Stale cached bit must not answer: the next check re-misses and
        // then blocks.
        let _ = p.check_load(&kctx(pc, 0x9000, 1, true));
        let d = p.check_load(&kctx(pc, 0x9000, 1, true));
        assert_eq!(d, LoadDecision::BlockUntilVp(BlockSource::Isv));
    }

    #[test]
    fn counters_and_breakdown_accumulate() {
        let (mut p, _, _) = setup();
        let _ = p.check_load(&kctx(0xFFFF_8000_0000_1000, frame_to_va(200), 1, true));
        let _ = p.check_load(&kctx(0xFFFF_8000_0000_1000, frame_to_va(200), 1, true));
        let c = p.counters();
        assert_eq!(c.loads_checked, 2);
        assert_eq!(c.total_blocked(), 2);
        assert_eq!(p.fence_breakdown().total(), 2);
        p.reset_measurement();
        assert_eq!(p.fence_breakdown().total(), 0);
    }
}
