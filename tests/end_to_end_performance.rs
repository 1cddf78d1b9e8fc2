//! Cross-crate performance integration tests: the orderings and
//! magnitudes Chapter 9 reports, verified on the small kernel (fast) with
//! the same harness the paper-scale figures use.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::CacheConfig;
use persp_workloads::{lebench, runner, Measurement, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

fn image() -> KernelImage {
    KernelImage::build(KernelConfig::test_small())
}

fn measure(scheme: Scheme, w: &Workload) -> Measurement {
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());
    runner::measure_image_uncached(scheme, &image(), w, pcfg, core)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn measure_schemes(schemes: &[Scheme], w: &Workload) -> Vec<Measurement> {
    let w = std::slice::from_ref(w);
    runner::run_matrix(
        2,
        &CacheConfig::off(),
        &image(),
        schemes,
        w,
        CoreConfig::paper_default(),
    )
    .unwrap_or_else(|e| panic!("{e:?}"))
}

#[test]
fn scheme_ordering_fence_worst_perspective_near_baseline() {
    let w = lebench::by_name("select").unwrap();
    let ms = measure_schemes(&[Scheme::Unsafe, Scheme::Fence, Scheme::Perspective], &w);
    let fence = runner::overhead(&ms[1], &ms[0]);
    let persp = runner::overhead(&ms[2], &ms[0]);
    assert!(fence > 0.10, "FENCE hurts select: {fence:.3}");
    assert!(
        persp < fence / 2.0,
        "Perspective ≪ FENCE: {persp:.3} vs {fence:.3}"
    );
}

#[test]
fn perspective_overhead_is_single_digit_percent() {
    for name in ["getpid", "small-read", "poll"] {
        let w = lebench::by_name(name).unwrap();
        let ms = measure_schemes(&[Scheme::Unsafe, Scheme::Perspective], &w);
        let ov = runner::overhead(&ms[1], &ms[0]);
        assert!(ov < 0.10, "{name}: Perspective overhead {ov:.3} too high");
        assert!(ov > -0.05, "{name}: suspicious speedup {ov:.3}");
    }
}

#[test]
fn dom_and_stt_undercut_fence() {
    // §9.1: DOM and STT are selective versions of FENCE, so neither can
    // cost more than blocking everything. (Their relative order depends
    // on cache-warmth: DOM is free on L1 hits, STT on untainted chains;
    // on our cache-warm ROIs both sit near the baseline.)
    let w = lebench::by_name("small-read").unwrap();
    let ms = measure_schemes(
        &[Scheme::Unsafe, Scheme::Fence, Scheme::Dom, Scheme::Stt],
        &w,
    );
    let unsafe_c = ms[0].stats.cycles;
    let fence = ms[1].stats.cycles;
    let dom = ms[2].stats.cycles;
    let stt = ms[3].stats.cycles;
    assert!(
        dom <= fence,
        "DOM ({dom}) is never slower than FENCE ({fence})"
    );
    assert!(
        stt <= fence,
        "STT ({stt}) is never slower than FENCE ({fence})"
    );
    assert!(
        dom >= unsafe_c && stt >= unsafe_c,
        "defenses cannot beat UNSAFE"
    );
}

#[test]
fn spot_mitigations_cost_syscall_crossings() {
    let w = lebench::by_name("getpid").unwrap();
    let ms = measure_schemes(&[Scheme::Unsafe, Scheme::Spot], &w);
    let ov = runner::overhead(&ms[1], &ms[0]);
    assert!(
        ov > 0.05,
        "KPTI entry/exit costs must show on getpid: {ov:.3}"
    );
}

#[test]
fn hardware_caches_reach_high_hit_rates() {
    let w = lebench::by_name("small-read").unwrap();
    let m = measure(Scheme::Perspective, &w);
    assert!(m.isv_cache.unwrap().hit_rate() > 0.80, "{:?}", m.isv_cache);
    assert!(
        m.dsvmt_cache.unwrap().hit_rate() > 0.90,
        "{:?}",
        m.dsvmt_cache
    );
}

#[test]
fn dsv_fences_dominate_the_breakdown() {
    // Table 10.1: the DSV mechanism accounts for the large majority of
    // fenced instructions on benign workloads.
    let w = lebench::by_name("small-read").unwrap();
    let m = measure(Scheme::Perspective, &w);
    let f = m.fences.unwrap();
    assert!(f.total() > 0, "benign runs still fence (false positives)");
    assert!(
        f.isv_fraction() < 0.5,
        "DSV share must dominate: ISV fraction {:.2}",
        f.isv_fraction()
    );
}

#[test]
fn syscall_counts_are_scheme_invariant() {
    // Architectural behavior must not depend on the speculation policy.
    let w = lebench::by_name("munmap").unwrap();
    let ms = measure_schemes(Scheme::MAIN, &w);
    for m in &ms {
        assert_eq!(
            m.stats.syscalls,
            w.total_syscalls(),
            "{} changed architectural syscall count",
            m.scheme
        );
    }
}

#[test]
fn kernel_time_dominates_microbenchmarks() {
    let w = lebench::by_name("select").unwrap();
    let m = measure(Scheme::Unsafe, &w);
    assert!(m.stats.kernel_time_fraction() > 0.5);
}
