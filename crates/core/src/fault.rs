//! Deterministic fault injection for the SNI checker.
//!
//! [`FaultInjector`] wraps any [`SpecPolicy`] and, driven by a seeded
//! [`FaultPlan`], deterministically perturbs its behaviour mid-run:
//!
//! * **flip block → allow** — the wrapped policy said `BlockUntilVp`
//!   but the injector forces `Allow`, modelling a broken enforcement
//!   path (a dropped fence, a mis-set permission bit);
//! * **flip allow → block** — the benign direction: forcing a fence
//!   where none was needed must never be flagged as a violation;
//! * **corrupt DSV response** — a DSV-sourced block is answered as if
//!   the data were in-view, modelling a corrupted ownership response
//!   from the DSVMT walk;
//! * **evict metadata** — the policy's ISV-cache/DSVMT entries for the
//!   current context are invalidated, modelling capacity pressure.
//!
//! Every forced `Allow` is checked against the pristine ground-truth
//! oracle at injection time: if the oracle says the load should have
//! been blocked, `injected_violations` is bumped. The SNI checker's
//! acceptance criterion is that the pipeline-side monitor independently
//! flags **exactly** these loads (`sim.sni.unsafe_issues` delta equals
//! `injected_violations`) — a caught injected fault is the test
//! *passing*.
//!
//! Determinism: the only entropy source is a [`XorShift64`] seeded from
//! the plan, and every enabled knob draws on every decision (no
//! short-circuiting), so the draw sequence — and therefore the whole
//! run — is a pure function of the seed and the instruction stream.

use crate::sni_oracle::GroundTruth;
use persp_uarch::policy::{BlockSource, LoadCtx, LoadDecision, PolicyCounters, SpecPolicy};
use persp_uarch::sni::SniOracle;
use std::cell::RefCell;
use std::rc::Rc;

/// A tiny xorshift64 PRNG — deterministic, dependency-free, and good
/// enough for fault scheduling (we need reproducibility, not quality).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seed the generator (a zero seed is mapped to 1; xorshift has a
    /// fixed point at zero).
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Bernoulli draw with probability 1-in-`n`. `n == 0` disables the
    /// knob and — crucially for determinism across plans — does **not**
    /// consume a draw.
    pub fn one_in(&mut self, n: u32) -> bool {
        n > 0 && self.next_u64().is_multiple_of(u64::from(n))
    }
}

/// A deterministic fault schedule. Each knob is a 1-in-`n` probability
/// per policy decision; `0` disables that fault class entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed; the entire schedule is a pure function of this.
    pub seed: u64,
    /// 1-in-N chance of forcing a blocked speculative load to issue.
    pub flip_block_to_allow: u32,
    /// 1-in-N chance of forcing an allowed load to block (benign).
    pub flip_allow_to_block: u32,
    /// 1-in-N chance of evicting the context's ISV-cache/DSVMT entries.
    pub evict_metadata: u32,
    /// 1-in-N chance of corrupting a DSV ownership response (a
    /// DSV/DSVMT-miss/unknown-alloc block answered as in-view).
    pub corrupt_dsv: u32,
}

impl FaultPlan {
    /// The no-fault plan: wrapping a policy with this is an identity.
    pub fn none() -> Self {
        FaultPlan {
            seed: 1,
            flip_block_to_allow: 0,
            flip_allow_to_block: 0,
            evict_metadata: 0,
            corrupt_dsv: 0,
        }
    }

    /// The canned plan used by `sni_check` and the CI smoke run: every
    /// fault class enabled at moderate rates.
    pub fn canned(seed: u64) -> Self {
        FaultPlan {
            seed,
            flip_block_to_allow: 7,
            flip_allow_to_block: 11,
            evict_metadata: 13,
            corrupt_dsv: 17,
        }
    }
}

/// What the injector did, shared with the harness via `Rc<RefCell<..>>`
/// (the injector itself is moved into the core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Policy decisions observed.
    pub decisions_seen: u64,
    /// Blocks forced to allows.
    pub blocks_flipped_to_allow: u64,
    /// Allows forced to blocks (benign direction).
    pub allows_flipped_to_block: u64,
    /// DSV ownership responses corrupted to "in view".
    pub dsv_responses_corrupted: u64,
    /// Metadata-cache evictions injected.
    pub metadata_evictions: u64,
    /// Forced allows the ground-truth oracle says were unsafe — the
    /// number the SNI monitor must independently rediscover.
    pub injected_violations: u64,
}

/// A [`SpecPolicy`] wrapper that injects faults per a [`FaultPlan`].
pub struct FaultInjector {
    inner: Box<dyn SpecPolicy>,
    oracle: Rc<GroundTruth>,
    plan: FaultPlan,
    rng: XorShift64,
    counters: Rc<RefCell<FaultCounters>>,
}

impl FaultInjector {
    /// Wrap `inner`, scheduling faults per `plan` and grading every
    /// forced allow against `oracle`.
    pub fn new(inner: Box<dyn SpecPolicy>, oracle: Rc<GroundTruth>, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            oracle,
            rng: XorShift64::new(plan.seed),
            plan,
            counters: Rc::new(RefCell::new(FaultCounters::default())),
        }
    }

    /// A shared handle to the injection counters; clone it before the
    /// injector is moved into the core.
    pub fn counters_handle(&self) -> Rc<RefCell<FaultCounters>> {
        Rc::clone(&self.counters)
    }

    fn force_allow(&mut self, ctx: &LoadCtx) -> LoadDecision {
        if self.oracle.should_block(ctx) {
            self.counters.borrow_mut().injected_violations += 1;
        }
        LoadDecision::Allow
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .finish()
    }
}

impl SpecPolicy for FaultInjector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision {
        self.counters.borrow_mut().decisions_seen += 1;

        // Metadata eviction is independent of the decision outcome and
        // drawn first so its schedule does not depend on policy state.
        if self.rng.one_in(self.plan.evict_metadata) {
            if let Some(any) = self.inner.as_any_mut() {
                if let Some(p) = any.downcast_mut::<crate::policy::PerspectivePolicy>() {
                    p.fault_invalidate_metadata(ctx.asid);
                    self.counters.borrow_mut().metadata_evictions += 1;
                }
            }
        }

        match self.inner.check_load(ctx) {
            LoadDecision::Allow => {
                if self.rng.one_in(self.plan.flip_allow_to_block) {
                    self.counters.borrow_mut().allows_flipped_to_block += 1;
                    // Benign: the load re-issues at its visibility point.
                    LoadDecision::BlockUntilVp(BlockSource::Fence)
                } else {
                    LoadDecision::Allow
                }
            }
            LoadDecision::BlockUntilVp(src) => {
                // Both knobs draw unconditionally (no `||` short-circuit)
                // to keep the draw sequence plan-independent.
                let dsv_sourced = matches!(
                    src,
                    BlockSource::Dsv | BlockSource::DsvmtMiss | BlockSource::UnknownAlloc
                );
                let corrupt = self.rng.one_in(self.plan.corrupt_dsv) && dsv_sourced;
                let flip = self.rng.one_in(self.plan.flip_block_to_allow);
                if corrupt {
                    self.counters.borrow_mut().dsv_responses_corrupted += 1;
                    self.force_allow(ctx)
                } else if flip {
                    self.counters.borrow_mut().blocks_flipped_to_allow += 1;
                    self.force_allow(ctx)
                } else {
                    LoadDecision::BlockUntilVp(src)
                }
            }
        }
    }

    fn on_load_vp(&mut self, ctx: &LoadCtx) {
        self.inner.on_load_vp(ctx);
    }

    fn syscall_entry_cost(&self) -> u64 {
        self.inner.syscall_entry_cost()
    }

    fn syscall_exit_cost(&self) -> u64 {
        self.inner.syscall_exit_cost()
    }

    fn predict_indirect(&self) -> bool {
        self.inner.predict_indirect()
    }

    fn counters(&self) -> PolicyCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    // Delegate downcasts so harness code that looks for PerspectivePolicy
    // (fence breakdowns, cache stats) keeps working through the wrapper.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsv::DsvTable;
    use crate::policy::{IsvRegistry, PerspectiveConfig, PerspectivePolicy};
    use persp_kernel::sink::{AllocSink, Owner};
    use persp_uarch::policy::UnsafePolicy;
    use persp_uarch::Mode;

    fn metadata() -> (Rc<RefCell<DsvTable>>, Rc<RefCell<IsvRegistry>>) {
        let dsv = Rc::new(RefCell::new(DsvTable::default()));
        let isvs = Rc::new(RefCell::new(IsvRegistry::default()));
        {
            let mut t = dsv.borrow_mut();
            t.register_context(1, 10);
            t.assign_va_range(0x5000, 0x1000, Owner::Cgroup(10));
            t.assign_va_range(0x7000, 0x1000, Owner::Cgroup(20));
        }
        (dsv, isvs)
    }

    fn kctx(addr: u64) -> LoadCtx {
        LoadCtx {
            pc: 0x100,
            addr,
            mode: Mode::Kernel,
            asid: 1,
            speculative: true,
            tainted_addr: false,
            l1_hit: true,
            cur_sysno: None,
        }
    }

    #[test]
    fn no_fault_plan_is_identity() {
        let (dsv, isvs) = metadata();
        let oracle = Rc::new(GroundTruth::new(
            PerspectiveConfig::default(),
            Rc::clone(&dsv),
            Rc::clone(&isvs),
        ));
        let inner = Box::new(PerspectivePolicy::new(
            PerspectiveConfig::default(),
            Rc::clone(&dsv),
            isvs,
        ));
        let mut inj = FaultInjector::new(inner, oracle, FaultPlan::none());
        let handle = inj.counters_handle();
        let mut reference = {
            let (dsv, isvs) = metadata();
            PerspectivePolicy::new(PerspectiveConfig::default(), dsv, isvs)
        };
        for i in 0..64 {
            let ctx = kctx(0x5000 + i * 8);
            assert_eq!(inj.check_load(&ctx), reference.check_load(&ctx));
        }
        let c = handle.borrow();
        assert_eq!(c.decisions_seen, 64);
        assert_eq!(c.blocks_flipped_to_allow, 0);
        assert_eq!(c.allows_flipped_to_block, 0);
        assert_eq!(c.dsv_responses_corrupted, 0);
        assert_eq!(c.metadata_evictions, 0);
        assert_eq!(c.injected_violations, 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let (dsv, isvs) = metadata();
            let oracle = Rc::new(GroundTruth::new(
                PerspectiveConfig::default(),
                Rc::clone(&dsv),
                Rc::clone(&isvs),
            ));
            let inner = Box::new(PerspectivePolicy::new(
                PerspectiveConfig::default(),
                dsv,
                isvs,
            ));
            let mut inj = FaultInjector::new(inner, oracle, FaultPlan::canned(seed));
            let handle = inj.counters_handle();
            let verdicts: Vec<LoadDecision> = (0..256)
                .map(|i| inj.check_load(&kctx(0x7000 + (i % 0x200) * 8)))
                .collect();
            let counters = *handle.borrow();
            (verdicts, counters)
        };
        let (v1, c1) = run(42);
        let (v2, c2) = run(42);
        assert_eq!(v1, v2, "same seed must replay identically");
        assert_eq!(c1, c2);
        let (v3, c3) = run(43);
        assert!(
            v1 != v3 || c1 != c3,
            "a different seed should perturb the schedule"
        );
    }

    #[test]
    fn forced_allows_on_foreign_data_are_violations() {
        let (dsv, isvs) = metadata();
        let oracle = Rc::new(GroundTruth::new(
            PerspectiveConfig::default(),
            Rc::clone(&dsv),
            Rc::clone(&isvs),
        ));
        let inner = Box::new(PerspectivePolicy::new(
            PerspectiveConfig::default(),
            dsv,
            isvs,
        ));
        let plan = FaultPlan {
            seed: 7,
            flip_block_to_allow: 1, // every block flips
            flip_allow_to_block: 0,
            evict_metadata: 0,
            corrupt_dsv: 0,
        };
        let mut inj = FaultInjector::new(inner, oracle, plan);
        let handle = inj.counters_handle();
        // Foreign data: the real policy blocks, every block is flipped,
        // and every flip is a genuine violation.
        for i in 0..32 {
            let d = inj.check_load(&kctx(0x7000 + i * 8));
            assert_eq!(d, LoadDecision::Allow);
        }
        let c = handle.borrow();
        assert_eq!(c.blocks_flipped_to_allow, 32);
        assert_eq!(c.injected_violations, 32);
    }

    #[test]
    fn benign_flips_are_not_violations() {
        let (dsv, isvs) = metadata();
        let oracle = Rc::new(GroundTruth::new(
            PerspectiveConfig::default(),
            Rc::clone(&dsv),
            Rc::clone(&isvs),
        ));
        let inner = Box::new(PerspectivePolicy::new(
            PerspectiveConfig::default(),
            dsv,
            isvs,
        ));
        let plan = FaultPlan {
            seed: 7,
            flip_block_to_allow: 0,
            flip_allow_to_block: 1, // every allow blocks
            evict_metadata: 0,
            corrupt_dsv: 0,
        };
        let mut inj = FaultInjector::new(inner, oracle, plan);
        let handle = inj.counters_handle();
        for i in 0..32 {
            let _ = inj.check_load(&kctx(0x5000 + i * 8));
        }
        let c = handle.borrow();
        assert!(
            c.allows_flipped_to_block > 0,
            "some allows must have flipped"
        );
        assert_eq!(c.injected_violations, 0, "extra blocks are always legal");
    }

    #[test]
    fn injector_preserves_downcast_and_evicts_metadata() {
        let (dsv, isvs) = metadata();
        let oracle = Rc::new(GroundTruth::new(
            PerspectiveConfig::default(),
            Rc::clone(&dsv),
            Rc::clone(&isvs),
        ));
        let inner = Box::new(PerspectivePolicy::new(
            PerspectiveConfig::default(),
            dsv,
            isvs,
        ));
        let plan = FaultPlan {
            seed: 9,
            flip_block_to_allow: 0,
            flip_allow_to_block: 0,
            evict_metadata: 1, // evict on every decision
            corrupt_dsv: 0,
        };
        let mut inj = FaultInjector::new(inner, oracle, plan);
        let handle = inj.counters_handle();
        for i in 0..16 {
            let _ = inj.check_load(&kctx(0x5000 + i * 8));
        }
        assert_eq!(handle.borrow().metadata_evictions, 16);
        // With every decision evicting, the DSVMT never retains entries:
        // each lookup is a miss (conservative), never an unsafe allow.
        assert_eq!(handle.borrow().injected_violations, 0);
        let any = inj.as_any().expect("downcast must pass through");
        assert!(any.downcast_ref::<PerspectivePolicy>().is_some());
    }

    #[test]
    fn unsafe_inner_is_never_evicted_but_still_flips() {
        let (dsv, isvs) = metadata();
        let oracle = Rc::new(GroundTruth::new(PerspectiveConfig::default(), dsv, isvs));
        let plan = FaultPlan {
            seed: 5,
            flip_block_to_allow: 0,
            flip_allow_to_block: 0,
            evict_metadata: 1,
            corrupt_dsv: 0,
        };
        let mut inj = FaultInjector::new(Box::new(UnsafePolicy::new()), oracle, plan);
        let handle = inj.counters_handle();
        for i in 0..8 {
            assert_eq!(inj.check_load(&kctx(0x7000 + i * 8)), LoadDecision::Allow);
        }
        let c = handle.borrow();
        assert_eq!(c.metadata_evictions, 0, "UNSAFE has no metadata caches");
        assert_eq!(
            c.injected_violations, 0,
            "UNSAFE's own allows are not *injected* violations"
        );
    }
}
