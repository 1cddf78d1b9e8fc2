//! Cross-crate security integration tests: the Chapter 8 security matrix
//! run end-to-end through the pipeline, kernel, attacks, and framework.

use persp_attacks::passive::PassiveAttackReport;
use persp_attacks::{attack_succeeds, run_active_attack, run_btb_hijack, run_retbleed};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

type PassivePoc =
    fn(Scheme, &KernelImage, u8, PerspectiveConfig, CoreConfig) -> PassiveAttackReport;

fn image() -> KernelImage {
    KernelImage::build(KernelConfig::test_small())
}

/// Probe lines the active Spectre v1 PoC leaves hot under `scheme` with
/// enforcement `pcfg`.
fn active_hot(scheme: Scheme, secret: u8, pcfg: PerspectiveConfig) -> Vec<u8> {
    let core = CoreConfig::paper_default();
    run_active_attack(scheme, &image(), secret, pcfg, core).hot_lines
}

/// Probe lines a passive PoC leaves hot under `scheme` with enforcement
/// `pcfg`.
fn passive_hot(poc: PassivePoc, scheme: Scheme, secret: u8, pcfg: PerspectiveConfig) -> Vec<u8> {
    poc(scheme, &image(), secret, pcfg, CoreConfig::paper_default()).hot_lines
}

fn active_attack_succeeds(scheme: Scheme) -> bool {
    attack_succeeds([0x2A, 0x91], |s| {
        active_hot(scheme, s, PerspectiveConfig::default())
    })
}

fn passive_attack_succeeds(poc: PassivePoc, scheme: Scheme) -> bool {
    attack_succeeds([0x3C, 0xA7], |s| {
        passive_hot(poc, scheme, s, PerspectiveConfig::default())
    })
}

#[test]
fn unsafe_hardware_leaks_under_every_scenario() {
    assert!(active_attack_succeeds(Scheme::Unsafe), "active Spectre v1");
    assert!(
        passive_attack_succeeds(run_btb_hijack, Scheme::Unsafe),
        "passive v2 dispatch hijack"
    );
    assert!(
        passive_attack_succeeds(run_retbleed, Scheme::Unsafe),
        "passive Retbleed"
    );
}

#[test]
fn perspective_blocks_every_scenario() {
    // §8.1: DSVs eliminate active attacks.
    assert!(!active_attack_succeeds(Scheme::Perspective));
    // §8.2: ISVs block the passive PoCs.
    let full = PerspectiveConfig::default();
    let v2 = passive_hot(run_btb_hijack, Scheme::Perspective, 0x3C, full);
    assert!(!v2.contains(&0x3C), "{v2:?}");
    let rb = passive_hot(run_retbleed, Scheme::Perspective, 0x3C, full);
    assert!(!rb.contains(&0x3C), "{rb:?}");
}

#[test]
fn every_perspective_variant_blocks_the_active_attack() {
    for scheme in [
        Scheme::PerspectiveStatic,
        Scheme::Perspective,
        Scheme::PerspectivePlusPlus,
    ] {
        let hot = active_hot(scheme, 0x2A, PerspectiveConfig::default());
        assert!(
            !hot.contains(&0x2A),
            "{}: active attack must be blocked ({hot:?})",
            scheme.name(),
        );
    }
}

#[test]
fn spot_mitigations_leave_spectre_v1_open() {
    // The paper's motivation: deployed spot mitigations (KPTI+Retpoline)
    // do not address v1 gadgets at all.
    assert!(active_attack_succeeds(Scheme::Spot));
}

#[test]
fn hardware_only_baselines_block_the_active_attack() {
    for scheme in [Scheme::Fence, Scheme::Dom, Scheme::Stt] {
        assert!(
            !active_attack_succeeds(scheme),
            "{} must block the v1 PoC",
            scheme.name()
        );
    }
}

#[test]
fn active_attack_recovers_arbitrary_secret_values() {
    // The covert channel transfers the actual byte, not a fixed pattern.
    for secret in [0x01u8, 0x7F, 0xFE] {
        let hot = active_hot(Scheme::Unsafe, secret, PerspectiveConfig::default());
        assert!(
            hot.contains(&secret),
            "secret 0x{secret:02x} not recovered: {hot:?}"
        );
    }
}

#[test]
fn passive_hijack_is_architecturally_invisible() {
    // The victim's architectural results are identical with and without
    // the hijack: only microarchitectural state differs.
    let hot = passive_hot(
        run_btb_hijack,
        Scheme::Unsafe,
        0x3C,
        PerspectiveConfig::default(),
    );
    // The report only exists because the run completed normally (no
    // faults, correct sysret paths).
    assert!(!hot.is_empty());
}

/// The taxonomy's central claim (§5.1): the two attack classes need the
/// two *different* view mechanisms. Ablating DSVs re-opens the active
/// attack even with ISVs fully enforced, and ablating ISVs re-opens the
/// passive hijack even with DSVs fully enforced — neither mechanism
/// subsumes the other.
#[test]
fn ablated_perspective_reopens_exactly_one_attack_class() {
    let isv_only = PerspectiveConfig {
        enforce_dsv: false,
        enforce_isv: true,
        block_unknown: false,
        ..PerspectiveConfig::default()
    };
    let dsv_only = PerspectiveConfig {
        enforce_dsv: true,
        enforce_isv: false,
        block_unknown: true,
        ..PerspectiveConfig::default()
    };

    // ISV-only: the v1 gadget lives *inside* the victim's ISV, so
    // instruction views alone cannot stop the data-access primitive.
    let hot = active_hot(Scheme::Perspective, 0x2A, isv_only);
    assert!(
        hot.contains(&0x2A),
        "ISV-only must leave the active attack open (got {hot:?})"
    );
    // ...while the same ISV-only config still blocks the passive hijack.
    let hot = passive_hot(run_btb_hijack, Scheme::Perspective, 0x3C, isv_only);
    assert!(
        !hot.contains(&0x3C),
        "ISV-only still blocks the hijacked-dispatch gadget"
    );

    // DSV-only: the hijack's gadget reads data the victim *owns*, so data
    // views alone cannot stop the control-flow primitive.
    let hot = passive_hot(run_btb_hijack, Scheme::Perspective, 0x3C, dsv_only);
    assert!(
        hot.contains(&0x3C),
        "DSV-only must leave the passive hijack open (got {hot:?})"
    );
    // ...while the same DSV-only config still blocks the active attack.
    let hot = active_hot(Scheme::Perspective, 0x2A, dsv_only);
    assert!(
        !hot.contains(&0x2A),
        "DSV-only still blocks the out-of-bounds read"
    );
}
