//! Speculative non-interference (SNI) measurement harness.
//!
//! Runs a workload through the measurement protocol's warmup →
//! install-view step ([`crate::runner`]), then the ROI, on an
//! *instrumented* instance: the kernel's allocation events always feed a
//! Perspective framework (even under baseline schemes, whose policies
//! ignore them), a [`SniChecker`] is attached
//! to the core with a pristine [`GroundTruth`](perspective::GroundTruth)
//! oracle over that metadata, and — optionally — the scheme's policy is
//! wrapped in a seeded [`FaultInjector`].
//!
//! Three properties fall out of one harness:
//!
//! * **clean Perspective runs** report zero violations (no speculative
//!   load the pristine metadata forbids ever issues, and no tainted bit
//!   reaches a transmitter);
//! * **the unprotected baseline** reports nonzero leakage on workloads
//!   that speculatively touch out-of-view data;
//! * **fault-injected runs** are detected: every injected unsafe allow
//!   is independently flagged by the pipeline-side monitor, and a run
//!   that dies mid-simulation degrades into a reported failure instead
//!   of a panic.

use crate::runner::{run_phase, warm_up_and_install_view, SimInstance};
use crate::spec::Workload;
use persp_kernel::kernel::KernelImage;
use persp_uarch::stats::SniCounters;
use persp_uarch::SniChecker;
use perspective::fault::{FaultCounters, FaultInjector, FaultPlan};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

/// Commit budget for the shadow re-execution oracle: enough to cover a
/// small-kernel LEBench ROI several times over while keeping CI cheap.
pub const DEFAULT_SHADOW_BUDGET: u64 = 500_000;

/// Outcome of one SNI-checked run.
#[derive(Debug, Clone)]
pub struct SniReport {
    /// Scheme the run executed under.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: &'static str,
    /// Total cycles simulated (warmup + ROI).
    pub cycles: u64,
    /// The checker's counters over the whole run.
    pub sni: SniCounters,
    /// Taint-root set overflows observed by the pipeline.
    pub taint_roots_overflow: u64,
    /// Fault-injection accounting, when a plan was active.
    pub faults: Option<FaultCounters>,
    /// `Some(reason)` if the simulation errored mid-run — the harness
    /// degrades gracefully and reports whatever was counted up to the
    /// failure instead of panicking.
    pub degraded: Option<String>,
}

impl SniReport {
    /// SNI violations observed (unsafe allows + tainted transmits).
    pub fn violations(&self) -> u64 {
        self.sni.violations()
    }

    /// For fault-injected runs: did the monitor flag every injected
    /// violation? Vacuously true for clean runs.
    pub fn all_injected_detected(&self) -> bool {
        match &self.faults {
            Some(f) => self.sni.unsafe_issues >= f.injected_violations,
            None => true,
        }
    }
}

/// Run `workload` under `scheme` with the SNI checker attached,
/// optionally injecting faults per `plan`.
///
/// The ground-truth oracle judges with the same `pcfg` the policy
/// enforces (for Perspective schemes) — for baselines it defines what a
/// fully-enforcing Perspective *would* have blocked, which is exactly
/// the leakage the baseline permits.
pub fn run_sni_workload(
    scheme: Scheme,
    image: &KernelImage,
    workload: &Workload,
    pcfg: PerspectiveConfig,
    plan: Option<FaultPlan>,
    shadow_budget: u64,
) -> SniReport {
    let mut fault_handle = None;
    let mut instance = SimInstance::instrumented(scheme, image, pcfg, |inner, p| match plan {
        Some(plan) => {
            let inj = FaultInjector::new(inner, p.sni_oracle(pcfg), plan);
            fault_handle = Some(inj.counters_handle());
            Box::new(inj)
        }
        None => inner,
    });
    let p = instance
        .perspective
        .as_ref()
        .expect("instrumented instance");
    let oracle = p.sni_oracle(pcfg);
    instance
        .core
        .attach_sni(SniChecker::new(oracle, shadow_budget));

    // Whole-run counters: no reset between warmup and ROI.
    let degraded = warm_up_and_install_view(&mut instance, workload, &pcfg)
        .and_then(|_| run_phase(&mut instance, workload, "ROI"))
        .err();

    let stats = instance.core.stats();
    SniReport {
        scheme,
        workload: workload.name,
        cycles: stats.cycles,
        sni: stats.sni,
        taint_roots_overflow: stats.taint_roots_overflow,
        faults: fault_handle.map(|h| {
            let c = *h.borrow();
            c
        }),
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lebench;
    use persp_kernel::callgraph::KernelConfig;

    fn image() -> KernelImage {
        KernelImage::build(KernelConfig::test_small())
    }

    #[test]
    fn clean_perspective_run_has_zero_violations() {
        let img = image();
        let w = lebench::by_name("getpid").unwrap();
        let r = run_sni_workload(
            Scheme::Perspective,
            &img,
            &w,
            PerspectiveConfig::default(),
            None,
            DEFAULT_SHADOW_BUDGET,
        );
        assert!(r.degraded.is_none(), "{:?}", r.degraded);
        assert_eq!(
            r.violations(),
            0,
            "full enforcement must be SNI: {:?}",
            r.sni
        );
        assert!(r.sni.shadow_checked > 0, "the shadow oracle ran");
        assert_eq!(r.sni.shadow_mismatches, 0, "replay matches the pipeline");
    }

    #[test]
    fn unsafe_baseline_run_is_flagged() {
        let img = image();
        let w = lebench::by_name("small-read").unwrap();
        let r = run_sni_workload(
            Scheme::Unsafe,
            &img,
            &w,
            PerspectiveConfig::default(),
            None,
            DEFAULT_SHADOW_BUDGET,
        );
        assert!(r.degraded.is_none());
        assert!(
            r.sni.unsafe_issues > 0,
            "UNSAFE must issue loads the ground truth forbids: {:?}",
            r.sni
        );
    }

    #[test]
    fn injected_faults_are_fully_detected() {
        let img = image();
        let w = lebench::by_name("getpid").unwrap();
        let r = run_sni_workload(
            Scheme::Perspective,
            &img,
            &w,
            PerspectiveConfig::default(),
            Some(FaultPlan::canned(0xC0FFEE)),
            DEFAULT_SHADOW_BUDGET,
        );
        let f = r.faults.expect("plan was active");
        assert!(f.decisions_seen > 0);
        assert!(
            f.injected_violations > 0,
            "the canned plan must actually inject: {f:?}"
        );
        assert_eq!(
            r.sni.unsafe_issues, f.injected_violations,
            "the monitor must flag exactly the injected unsafe allows"
        );
        assert!(r.all_injected_detected());
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let img = image();
        let w = lebench::by_name("getpid").unwrap();
        let go = |seed| {
            let r = run_sni_workload(
                Scheme::Perspective,
                &img,
                &w,
                PerspectiveConfig::default(),
                Some(FaultPlan::canned(seed)),
                DEFAULT_SHADOW_BUDGET,
            );
            (r.cycles, r.sni, r.faults.unwrap())
        };
        assert_eq!(go(7), go(7), "same seed, same run");
    }
}
