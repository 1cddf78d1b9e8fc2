//! End-to-end per-syscall ISV enforcement (§11 future-work extension):
//! the core switches the enforced instruction view at syscall dispatch.
//! `Machine::cur_sysno` is set when a `Syscall` commits and cleared at
//! `Sysret`, the policy flushes the ISV cache on each switch, and the
//! per-`(asid, sysno)` views installed through the pliable interface
//! govern exactly the dispatch windows they name.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_uarch::config::CoreConfig;
use persp_workloads::{lebench, runner, Measurement, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

fn cell(scheme: Scheme, w: &Workload, pcfg: PerspectiveConfig) -> Measurement {
    let image = KernelImage::build(KernelConfig::test_small());
    runner::measure(scheme, &image, w, pcfg, CoreConfig::paper_default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's protocol: one process-wide view.
fn measure(scheme: Scheme, w: &Workload) -> Measurement {
    cell(scheme, w, PerspectiveConfig::default())
}

/// The §11 protocol: one view per syscall, switched at dispatch.
fn measure_per_syscall(scheme: Scheme, w: &Workload) -> Measurement {
    let pcfg = PerspectiveConfig {
        per_syscall_isv: true,
        ..PerspectiveConfig::default()
    };
    cell(scheme, w, pcfg)
}

/// A workload mixing syscalls with disjoint handler pools, so the
/// per-syscall views genuinely differ from their union.
fn mixed_workload() -> Workload {
    let mut w = lebench::suite()
        .into_iter()
        .find(|w| w.name == "small-read")
        .expect("suite has small-read");
    let extra = lebench::suite()
        .into_iter()
        .find(|w| w.name == "getpid")
        .expect("suite has getpid");
    w.steps.extend(extra.steps);
    w.name = "read+getpid";
    w
}

#[test]
fn per_syscall_run_completes_with_correct_results() {
    let w = mixed_workload();
    let m = measure_per_syscall(Scheme::Perspective, &w);
    assert!(m.stats.cycles > 0, "the ROI ran");
    assert!(m.stats.syscalls > 0, "syscalls were serviced");
}

#[test]
fn per_syscall_views_fence_at_least_as_much_as_the_union_view() {
    let w = mixed_workload();
    let wide = measure(Scheme::PerspectiveStatic, &w);
    let narrow = measure_per_syscall(Scheme::Perspective, &w);
    // Strictly smaller views (plus dispatch flushes) can only add ISV
    // blocks, never remove any.
    let (nf, wf) = (narrow.fences.unwrap(), wide.fences.unwrap());
    assert!(
        nf.isv >= wf.isv,
        "narrow per-syscall views fence less than the union: {} < {}",
        nf.isv,
        wf.isv
    );
    // And the total installed view footprint really is smaller than the
    // process-wide closure.
    let (Some(narrow_funcs), Some(wide_funcs)) = (narrow.isv_funcs, wide.isv_funcs) else {
        panic!("both measurements install views");
    };
    assert!(
        narrow_funcs / w.syscall_profile().len().max(1) < wide_funcs,
        "average per-syscall view ({narrow_funcs} total) is narrower than the union ({wide_funcs})"
    );
}

#[test]
fn dispatch_switching_costs_show_up_as_extra_isv_cache_misses() {
    let w = mixed_workload();
    let wide = measure(Scheme::PerspectiveStatic, &w);
    let narrow = measure_per_syscall(Scheme::Perspective, &w);
    // The conservative flush-on-switch model must produce a lower (or at
    // best equal) ISV-cache hit rate than the stable process-wide view.
    let (nc, wc) = (narrow.isv_cache.unwrap(), wide.isv_cache.unwrap());
    assert!(
        nc.hit_rate() <= wc.hit_rate() + 1e-9,
        "flush-on-dispatch cannot improve the hit rate: {} > {}",
        nc.hit_rate(),
        wc.hit_rate()
    );
}

#[test]
fn single_syscall_workloads_behave_like_the_process_wide_view() {
    // With one syscall in the profile, the per-syscall view *is* the
    // static closure; dispatch switching adds only the per-entry flush.
    let w = lebench::suite()
        .into_iter()
        .find(|w| w.name == "getpid")
        .expect("suite has getpid");
    let wide = measure(Scheme::PerspectiveStatic, &w);
    let narrow = measure_per_syscall(Scheme::Perspective, &w);
    assert_eq!(
        narrow.isv_funcs, wide.isv_funcs,
        "one-syscall profile: identical view contents"
    );
    // Identical views may still fence differently (cold cache after each
    // dispatch flush), but blocked loads must not disappear.
    assert!(narrow.fences.unwrap().isv >= wide.fences.unwrap().isv);
}

#[test]
fn profile_syscall_numbers_match_machine_dispatch_numbers() {
    // The registry keys per-syscall views by the u16 the pipeline reads
    // from REG_SYSNO at dispatch; Sysno must round-trip through it.
    for &sys in Sysno::ALL {
        let raw = sys as u16;
        assert_eq!(Sysno::from_u16(raw), Some(sys));
    }
}
