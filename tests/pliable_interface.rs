//! Integration tests of the *pliable interface* (§5.4): views installed,
//! shrunk, and hardened at runtime, with the hardware model picking up
//! every change.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_workloads::lebench;
use persp_workloads::SimInstance;
use perspective::isv::{Isv, IsvKind};
use perspective::scheme::Scheme;

fn run_and_count_isv_fences(inst: &mut SimInstance, entry: u64) -> u64 {
    let before = inst.core.policy().counters().blocked_isv;
    inst.core.run(entry, 200_000_000).expect("run completes");
    inst.core.policy().counters().blocked_isv - before
}

#[test]
fn runtime_exclusion_takes_effect_without_rebuilding() {
    let kcfg = KernelConfig::test_small();
    let w = lebench::by_name("small-read").unwrap();
    let mut inst = SimInstance::from_image(Scheme::Perspective, &KernelImage::build(kcfg));
    let text = inst.text_base();
    let data = inst.data_base();
    inst.core.machine.load_text(w.compile(text, data));

    // Install a full dynamic view: everything the workload executes is
    // allowed, so steady-state ISV fences are low.
    let funcs = {
        let kernel = inst.kernel.borrow();
        kernel.graph.live_reachable(&w.syscall_profile())
    };
    let (isv, hot_func) = {
        let kernel = inst.kernel.borrow();
        let isv = Isv::from_func_set(&kernel.graph, funcs, IsvKind::Dynamic);
        let hot = kernel.graph.entries[&Sysno::Read];
        (isv, hot)
    };
    let p = inst.perspective.clone().expect("perspective scheme");
    p.install_isv(inst.asid, isv);

    inst.core.run(text, 200_000_000).expect("warmup");
    let fences_full_view = run_and_count_isv_fences(&mut inst, text);

    // A CVE lands in sys_read: exclude it from the LIVE view. The next
    // run must fence heavily inside that function.
    {
        let kernel = inst.kernel.borrow();
        assert!(p.exclude_function(inst.asid, &kernel.graph, hot_func));
    }
    let fences_after_exclusion = run_and_count_isv_fences(&mut inst, text);
    assert!(
        fences_after_exclusion > fences_full_view + 5,
        "exclusion must be enforced by the hardware model: {fences_after_exclusion} vs {fences_full_view}"
    );
}

#[test]
fn installing_a_stricter_view_mid_run_reduces_the_surface() {
    let kcfg = KernelConfig::test_small();
    let inst = SimInstance::from_image(Scheme::Perspective, &KernelImage::build(kcfg));
    let p = inst.perspective.clone().unwrap();

    let (wide, narrow) = {
        let kernel = inst.kernel.borrow();
        let g = &kernel.graph;
        (
            Isv::static_for(g, Sysno::ALL),
            Isv::static_for(g, &[Sysno::Getpid]),
        )
    };
    assert!(narrow.num_funcs() < wide.num_funcs());

    p.install_isv(inst.asid, wide);
    let before = p.with_isv(inst.asid, |v| v.unwrap().num_funcs());
    // Shrink at runtime (the "no longer needed" case of §5.4).
    p.install_isv(inst.asid, narrow);
    let after = p.with_isv(inst.asid, |v| v.unwrap().num_funcs());
    assert!(after < before);
}

#[test]
fn contexts_without_views_are_unaffected_by_other_contexts_views() {
    // Installing a strict view for one ASID must not fence another.
    let kcfg = KernelConfig::test_small();
    let w = lebench::by_name("getpid").unwrap();
    let mut inst = SimInstance::from_image(Scheme::Perspective, &KernelImage::build(kcfg));
    let text = inst.text_base();
    let data = inst.data_base();
    inst.core.machine.load_text(w.compile(text, data));
    let p = inst.perspective.clone().unwrap();
    {
        let kernel = inst.kernel.borrow();
        // An (unrelated) context gets an empty-ish view.
        p.install_isv(9999, Isv::static_for(&kernel.graph, &[]));
    }
    inst.core.run(text, 100_000_000).expect("warmup");
    let fences = run_and_count_isv_fences(&mut inst, text);
    assert_eq!(
        fences, 0,
        "no view installed for this context → no ISV fences"
    );
}

#[test]
fn audit_hardening_composes_with_manual_exclusions() {
    let kcfg = KernelConfig::test_small();
    let inst = SimInstance::from_image(Scheme::Perspective, &KernelImage::build(kcfg));
    let kernel = inst.kernel.borrow();
    let g = &kernel.graph;
    let base = Isv::static_for(g, Sysno::ALL);
    let flagged: Vec<_> = g
        .gadgets
        .iter()
        .map(|(f, _)| *f)
        .filter(|f| base.contains_func(*f))
        .collect();
    assert!(!flagged.is_empty());
    let mut hardened = base.hardened_with_audit(g, flagged.iter().copied());
    // Manual CVE exclusion still works on a hardened view: sys_read's
    // entry hosts no gadget, so the audit left it in.
    let extra = g.entries[&Sysno::Read];
    assert!(hardened.exclude_function(g, extra));
    assert!(!hardened.contains_func(extra));
    for f in flagged {
        assert!(!hardened.contains_func(f));
    }
    assert_eq!(hardened.kind(), IsvKind::Hardened);
}
