//! Speculation-control policies.
//!
//! A [`SpecPolicy`] decides, per speculative *transmitter* (load), whether
//! it may issue or must wait for its visibility point (VP). This is the
//! pliable interface of the paper: the hardware mechanism is always "block
//! until VP", and the policy decides *which* instructions need it.
//!
//! This crate ships the evaluation baselines of Chapter 7 and §9.1:
//!
//! * [`UnsafePolicy`] — no protection (the UNSAFE baseline).
//! * [`FencePolicy`] — delay every speculative load until all prior
//!   branches resolve (the FENCE baseline).
//! * [`DomPolicy`] — Delay-on-Miss: speculative loads that hit in the L1
//!   proceed; misses wait for the VP.
//! * [`SttPolicy`] — Speculative Taint Tracking: only loads whose *address*
//!   depends on speculatively-accessed data are delayed.
//! * [`SpotMitigations`] — deployed software spot mitigations
//!   (KPTI + Retpoline): per-syscall page-table switch cost and
//!   no speculation across indirect branches.
//!
//! Perspective's own policy lives in the `perspective` crate and implements
//! this same trait.

use crate::machine::{Asid, Mode};

/// Everything a policy may inspect when a speculative load wants to issue.
#[derive(Debug, Clone, Copy)]
pub struct LoadCtx {
    /// Program counter of the load instruction.
    pub pc: u64,
    /// Effective data address.
    pub addr: u64,
    /// Privilege mode at issue.
    pub mode: Mode,
    /// Current context.
    pub asid: Asid,
    /// Is there an older unresolved branch (i.e. is the load speculative)?
    pub speculative: bool,
    /// Does the address derive from a speculatively loaded value (STT)?
    pub tainted_addr: bool,
    /// Would the access hit in the L1 data cache (DOM)?
    pub l1_hit: bool,
    /// Syscall currently being serviced, if any (per-syscall ISVs).
    pub cur_sysno: Option<u16>,
}

/// Which mechanism blocked a load (for Table 10.1-style accounting).
///
/// The `*Miss` variants distinguish conservative blocks caused by a
/// metadata-cache miss from definitive out-of-view answers; they fold
/// into the same ISV/DSV totals in [`PolicyCounters`] and the fence
/// breakdown, but drive separate stall-cycle attribution classes
/// (see `persp_uarch::stats::StallBreakdown`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockSource {
    /// The FENCE baseline.
    Fence,
    /// Delay-on-Miss.
    Dom,
    /// Speculative taint tracking.
    Stt,
    /// Outside the instruction speculation view (ISV-cache hit, bit clear).
    Isv,
    /// ISV-cache miss: blocked conservatively while the refill runs.
    IsvMiss,
    /// Outside the data speculation view (DSVMT-cache hit, bit clear).
    Dsv,
    /// DSVMT-cache miss: blocked conservatively while the refill runs.
    DsvmtMiss,
    /// Access to memory with unknown ownership.
    UnknownAlloc,
}

/// Policy verdict for one load issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDecision {
    /// The load may issue speculatively now.
    Allow,
    /// The load must wait until it reaches its visibility point.
    BlockUntilVp(BlockSource),
}

/// Counters every policy maintains, reported in the evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// Loads checked.
    pub loads_checked: u64,
    /// Loads allowed to issue speculatively.
    pub allowed: u64,
    /// Loads blocked, keyed by source.
    pub blocked_fence: u64,
    /// Loads blocked by DOM.
    pub blocked_dom: u64,
    /// Loads blocked by STT.
    pub blocked_stt: u64,
    /// Loads blocked by the ISV mechanism.
    pub blocked_isv: u64,
    /// Loads blocked by the DSV mechanism.
    pub blocked_dsv: u64,
    /// Loads blocked because ownership was unknown.
    pub blocked_unknown: u64,
}

impl PolicyCounters {
    /// Record a decision.
    pub fn record(&mut self, d: LoadDecision) {
        self.loads_checked += 1;
        match d {
            LoadDecision::Allow => self.allowed += 1,
            LoadDecision::BlockUntilVp(src) => match src {
                BlockSource::Fence => self.blocked_fence += 1,
                BlockSource::Dom => self.blocked_dom += 1,
                BlockSource::Stt => self.blocked_stt += 1,
                BlockSource::Isv | BlockSource::IsvMiss => self.blocked_isv += 1,
                BlockSource::Dsv | BlockSource::DsvmtMiss => self.blocked_dsv += 1,
                BlockSource::UnknownAlloc => self.blocked_unknown += 1,
            },
        }
    }

    /// Total blocked loads.
    pub fn total_blocked(&self) -> u64 {
        self.blocked_fence
            + self.blocked_dom
            + self.blocked_stt
            + self.blocked_isv
            + self.blocked_dsv
            + self.blocked_unknown
    }
}

crate::counters!(PolicyCounters {
    loads_checked,
    allowed,
    blocked_fence,
    blocked_dom,
    blocked_stt,
    blocked_isv,
    blocked_dsv,
    blocked_unknown,
});

/// A speculation-control policy plugged into the core.
pub trait SpecPolicy {
    /// Human-readable scheme name ("UNSAFE", "FENCE", "PERSPECTIVE", ...).
    fn name(&self) -> &'static str;

    /// Decide whether a speculative load may issue.
    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision;

    /// Called when a load that was previously *allowed* reaches its
    /// visibility point — Perspective uses this for deferred LRU updates.
    fn on_load_vp(&mut self, _ctx: &LoadCtx) {}

    /// Extra cycles charged at syscall entry (KPTI-style page-table switch).
    fn syscall_entry_cost(&self) -> u64 {
        0
    }

    /// Extra cycles charged at syscall exit.
    fn syscall_exit_cost(&self) -> u64 {
        0
    }

    /// May the front-end *predict through* indirect jumps/calls? Retpolines
    /// return `false`: fetch stalls until the target resolves.
    fn predict_indirect(&self) -> bool {
        true
    }

    /// Accumulated counters.
    fn counters(&self) -> PolicyCounters;

    /// Reset counters between measurement regions.
    fn reset_counters(&mut self);

    /// Downcast support for policies exposing richer statistics (e.g.
    /// Perspective's fence breakdown); `None` for plain baselines.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

macro_rules! counters_boilerplate {
    () => {
        fn counters(&self) -> PolicyCounters {
            self.counters
        }
        fn reset_counters(&mut self) {
            self.counters = PolicyCounters::default();
        }
    };
}

/// The UNSAFE baseline: every speculative load issues immediately.
#[derive(Debug, Default)]
pub struct UnsafePolicy {
    counters: PolicyCounters,
}

impl UnsafePolicy {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpecPolicy for UnsafePolicy {
    fn name(&self) -> &'static str {
        "UNSAFE"
    }
    fn check_load(&mut self, _ctx: &LoadCtx) -> LoadDecision {
        let d = LoadDecision::Allow;
        self.counters.record(d);
        d
    }
    counters_boilerplate!();
}

/// The FENCE baseline: "delays all speculative loads until all prior
/// branches are resolved" (Chapter 7).
#[derive(Debug, Default)]
pub struct FencePolicy {
    counters: PolicyCounters,
}

impl FencePolicy {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpecPolicy for FencePolicy {
    fn name(&self) -> &'static str {
        "FENCE"
    }
    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision {
        let d = if ctx.speculative {
            LoadDecision::BlockUntilVp(BlockSource::Fence)
        } else {
            LoadDecision::Allow
        };
        self.counters.record(d);
        d
    }
    counters_boilerplate!();
}

/// Delay-on-Miss [Sakalis et al., ISCA'19]: speculative loads that hit in
/// the L1 proceed (their timing is already observable), misses are delayed
/// until non-speculative.
#[derive(Debug, Default)]
pub struct DomPolicy {
    counters: PolicyCounters,
}

impl DomPolicy {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpecPolicy for DomPolicy {
    fn name(&self) -> &'static str {
        "DOM"
    }
    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision {
        let d = if ctx.speculative && !ctx.l1_hit {
            LoadDecision::BlockUntilVp(BlockSource::Dom)
        } else {
            LoadDecision::Allow
        };
        self.counters.record(d);
        d
    }
    counters_boilerplate!();
}

/// Speculative Taint Tracking [Yu et al., MICRO'19]: loads whose address
/// depends on speculatively accessed data are delayed until the source data
/// becomes non-speculative; everything else proceeds.
#[derive(Debug, Default)]
pub struct SttPolicy {
    counters: PolicyCounters,
}

impl SttPolicy {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpecPolicy for SttPolicy {
    fn name(&self) -> &'static str {
        "STT"
    }
    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision {
        let d = if ctx.speculative && ctx.tainted_addr {
            LoadDecision::BlockUntilVp(BlockSource::Stt)
        } else {
            LoadDecision::Allow
        };
        self.counters.record(d);
        d
    }
    counters_boilerplate!();
}

/// Deployed software spot mitigations (§9.1's comparison point): KPTI page
/// table isolation (a fixed cost on each kernel entry/exit) plus Retpoline
/// (no speculation across indirect branches). Note these are *spot*
/// mitigations: they do not block Spectre v1 gadgets at all.
#[derive(Debug)]
pub struct SpotMitigations {
    counters: PolicyCounters,
    kpti: bool,
    entry_cost: u64,
    exit_cost: u64,
}

impl SpotMitigations {
    /// KPTI + Retpoline with typical costs (~200 cycles per kernel
    /// crossing for the page-table switch and TLB effects).
    pub fn kpti_retpoline() -> Self {
        SpotMitigations {
            counters: PolicyCounters::default(),
            kpti: true,
            entry_cost: 200,
            exit_cost: 200,
        }
    }

    /// Retpoline only (the "without KPTI" variant of §9.1).
    pub fn retpoline_only() -> Self {
        SpotMitigations {
            counters: PolicyCounters::default(),
            kpti: false,
            entry_cost: 0,
            exit_cost: 0,
        }
    }
}

impl SpecPolicy for SpotMitigations {
    fn name(&self) -> &'static str {
        if self.kpti {
            "KPTI+RETPOLINE"
        } else {
            "RETPOLINE"
        }
    }
    fn check_load(&mut self, ctx: &LoadCtx) -> LoadDecision {
        // Spot mitigations leave Spectre v1 loads unprotected.
        let _ = ctx;
        let d = LoadDecision::Allow;
        self.counters.record(d);
        d
    }
    fn syscall_entry_cost(&self) -> u64 {
        self.entry_cost
    }
    fn syscall_exit_cost(&self) -> u64 {
        self.exit_cost
    }
    fn predict_indirect(&self) -> bool {
        false // retpoline: stall until the target resolves
    }
    counters_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(speculative: bool, tainted: bool, l1_hit: bool) -> LoadCtx {
        LoadCtx {
            pc: 0x1000,
            addr: 0x2000,
            mode: Mode::Kernel,
            asid: 1,
            speculative,
            tainted_addr: tainted,
            l1_hit,
            cur_sysno: None,
        }
    }

    #[test]
    fn unsafe_always_allows() {
        let mut p = UnsafePolicy::new();
        assert_eq!(p.check_load(&ctx(true, true, false)), LoadDecision::Allow);
        assert_eq!(p.counters().allowed, 1);
    }

    #[test]
    fn fence_blocks_only_speculative() {
        let mut p = FencePolicy::new();
        assert_eq!(
            p.check_load(&ctx(true, false, true)),
            LoadDecision::BlockUntilVp(BlockSource::Fence)
        );
        assert_eq!(p.check_load(&ctx(false, false, false)), LoadDecision::Allow);
        assert_eq!(p.counters().blocked_fence, 1);
        assert_eq!(p.counters().allowed, 1);
    }

    #[test]
    fn dom_allows_l1_hits() {
        let mut p = DomPolicy::new();
        assert_eq!(p.check_load(&ctx(true, false, true)), LoadDecision::Allow);
        assert_eq!(
            p.check_load(&ctx(true, false, false)),
            LoadDecision::BlockUntilVp(BlockSource::Dom)
        );
    }

    #[test]
    fn stt_blocks_only_tainted_addresses() {
        let mut p = SttPolicy::new();
        assert_eq!(p.check_load(&ctx(true, false, false)), LoadDecision::Allow);
        assert_eq!(
            p.check_load(&ctx(true, true, false)),
            LoadDecision::BlockUntilVp(BlockSource::Stt)
        );
        assert_eq!(p.check_load(&ctx(false, true, false)), LoadDecision::Allow);
    }

    #[test]
    fn spot_mitigations_shape() {
        let p = SpotMitigations::kpti_retpoline();
        assert_eq!(p.syscall_entry_cost(), 200);
        assert!(!p.predict_indirect());
        let p2 = SpotMitigations::retpoline_only();
        assert_eq!(p2.syscall_entry_cost(), 0);
        assert!(!p2.predict_indirect());
    }

    #[test]
    fn counters_reset() {
        let mut p = FencePolicy::new();
        p.check_load(&ctx(true, false, false));
        p.reset_counters();
        assert_eq!(p.counters(), PolicyCounters::default());
    }

    #[test]
    fn counters_total_blocked_sums_sources() {
        let mut c = PolicyCounters::default();
        c.record(LoadDecision::BlockUntilVp(BlockSource::Isv));
        c.record(LoadDecision::BlockUntilVp(BlockSource::Dsv));
        c.record(LoadDecision::Allow);
        assert_eq!(c.total_blocked(), 2);
        assert_eq!(c.loads_checked, 3);
    }
}
