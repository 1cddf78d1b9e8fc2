//! Attack-scenario fast-vs-slow differential: every proof-of-concept
//! verdict (leaked / blocked / inconclusive, recovered byte, hot probe
//! lines) must be identical with the idle-cycle fast-forward on and
//! off, for all five PoCs under every scheme `security_poc` runs. The
//! attacks are the most timing-sensitive consumers of the pipeline —
//! they measure reload latencies, race transient windows against
//! resolution latencies, and depend on exact predictor state — so
//! verdict-level equality here is a strong end-to-end check that the
//! fast-forward is cycle-exact.

use persp_attacks::{
    run_active_attack, run_bhi, run_btb_hijack, run_ebpf_attack, run_retbleed, SCHEMES,
};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::differential::fastfwd_pair;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::fmt::Debug;

/// Run `poc` under every scheme with the fast-forward on and off, and
/// assert the two reports match via their `Debug` rendering — which
/// covers the outcome, the recovered value and the hot-line evidence.
/// Returns the fast-path reports.
fn assert_identical<R: Debug>(
    what: &str,
    poc: impl Fn(Scheme, &KernelImage, PerspectiveConfig, CoreConfig) -> R,
) -> Vec<(Scheme, R)> {
    let image = KernelImage::build(KernelConfig::test_small());
    let (fast_cfg, slow_cfg) = fastfwd_pair();
    let pcfg = PerspectiveConfig::default();
    SCHEMES
        .into_iter()
        .map(|scheme| {
            let fast = poc(scheme, &image, pcfg, fast_cfg);
            let slow = poc(scheme, &image, pcfg, slow_cfg);
            assert_eq!(
                format!("{fast:#?}"),
                format!("{slow:#?}"),
                "{what} under {scheme}: fast-forward changed the attack verdict"
            );
            (scheme, fast)
        })
        .collect()
}

#[test]
fn spectre_v1_verdicts_are_identical() {
    let reports = assert_identical("spectre v1", |scheme, image, pcfg, core| {
        run_active_attack(scheme, image, 0x2A, pcfg, core)
    });
    // The scenario must stay meaningful, not just equal: UNSAFE leaks,
    // Perspective blocks.
    for (scheme, r) in &reports {
        match scheme {
            Scheme::Unsafe => assert!(r.outcome.succeeded(), "UNSAFE must leak"),
            Scheme::Perspective => assert!(!r.outcome.succeeded(), "Perspective must block"),
            _ => {}
        }
    }
}

#[test]
fn btb_hijack_verdicts_are_identical() {
    assert_identical("v2 dispatch hijack", |scheme, image, pcfg, core| {
        run_btb_hijack(scheme, image, 0x3C, pcfg, core)
    });
}

#[test]
fn retbleed_verdicts_are_identical() {
    assert_identical("retbleed", |scheme, image, pcfg, core| {
        run_retbleed(scheme, image, 0x5A, pcfg, core)
    });
}

#[test]
fn bhi_verdicts_are_identical() {
    assert_identical("bhi", |scheme, image, pcfg, core| {
        run_bhi(scheme, image, 0x77, pcfg, core)
    });
}

#[test]
fn ebpf_verdicts_are_identical() {
    assert_identical("ebpf injection", |scheme, image, pcfg, core| {
        run_ebpf_attack(scheme, image, 0x5A, pcfg, core)
    });
}
