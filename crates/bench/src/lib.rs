//! Experiment harness for the Perspective reproduction: shared helpers
//! for the per-table/per-figure binaries (see DESIGN.md §4 for the
//! experiment index) and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use persp_kernel::callgraph::{FuncId, KernelConfig};
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_workloads::{lebench, runner, Workload};
use perspective::isv::Isv;
use perspective::scheme::Scheme;
use std::collections::HashSet;

/// The kernel configuration experiments run against. Honors
/// `PERSPECTIVE_KERNEL=small` for quick smoke runs; defaults to the
/// paper-scale 28 K-function kernel.
pub fn kernel_config() -> KernelConfig {
    match std::env::var("PERSPECTIVE_KERNEL").as_deref() {
        Ok("small") => KernelConfig::test_small(),
        Ok("paper") | Ok("") | Err(_) => KernelConfig::paper(),
        Ok(v) => {
            eprintln!(
                "warning: ignoring invalid PERSPECTIVE_KERNEL={v:?} \
                 (expected \"small\" or \"paper\"); using the paper-scale kernel"
            );
            KernelConfig::paper()
        }
    }
}

/// Generate the experiment kernel image once; see [`kernel_config`].
/// Every (scheme, workload) cell of an experiment shares this image
/// (graph, text segment and boot memory) instead of regenerating it.
///
/// The image is rebuilt per bin process, not cached on disk like the
/// simulation cells are: building it takes about 40 ms at paper scale
/// and 2 ms on the small kernel (measured in EXPERIMENTS.md), so there
/// is nothing to save. Set `PERSPECTIVE_IMAGE_TIMING=1` to print the
/// measured build time on stderr (observability only — never on stdout,
/// so transcripts stay byte-identical).
pub fn kernel_image() -> KernelImage {
    let t0 = std::time::Instant::now();
    let image = KernelImage::build(kernel_config());
    if std::env::var("PERSPECTIVE_IMAGE_TIMING").is_ok_and(|v| v.trim() == "1") {
        eprintln!(
            "kernel image: {} functions, {} text instructions, built in {:.3} s",
            image.graph.len(),
            image.text.len(),
            t0.elapsed().as_secs_f64()
        );
    }
    image
}

/// Print an experiment header.
pub fn header(title: &str, source: &str) {
    println!();
    println!("=== {title} ===");
    println!("    (reproduces {source})");
    println!();
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a normalized value (e.g. latency vs. baseline).
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

/// A pseudo-workload exercising every LEBench syscall per iteration —
/// its trace approximates the union of the suite's traces, for the
/// per-suite columns of Tables 8.1/8.2/10.1.
pub fn lebench_union_workload() -> Workload {
    let mut steps = Vec::new();
    for w in lebench::suite() {
        steps.extend(w.steps.iter().copied());
    }
    Workload {
        name: "LEBench",
        startup_steps: Vec::new(),
        steps,
        iters: 3,
        user_work: 0,
    }
}

/// Collect a dynamic-ISV trace for a workload by running it once on an
/// UNSAFE instance (tracing is scheme-independent). The raw call-target
/// VAs are resolved to function ids against the image's graph before
/// returning, so callers never handle addresses.
pub fn trace_workload(image: &KernelImage, workload: &Workload) -> HashSet<FuncId> {
    let mut inst = persp_workloads::SimInstance::from_image(Scheme::Unsafe, image);
    let text = inst.text_base();
    let data = inst.data_base();
    inst.core.machine.load_text(workload.compile(text, data));
    inst.core.enable_call_trace();
    inst.core
        .run(text, 400_000_000)
        .expect("trace run completes");
    let raw = inst.core.take_call_trace();
    runner::trace_to_funcs(&image.graph, &raw)
}

/// Build the three ISV flavors for a workload — `(ISV-S, ISV, ISV++)` —
/// plus the instance whose kernel they were derived from.
pub fn isv_trio(
    image: &KernelImage,
    workload: &Workload,
    profile: &[Sysno],
) -> (Isv, Isv, Isv, persp_workloads::SimInstance) {
    let inst = persp_workloads::SimInstance::from_image(Scheme::Unsafe, image);
    let trace = trace_workload(image, workload);
    let (isv_s, isv_d, isv_pp) = {
        let graph = &image.graph;
        let isv_s = Isv::static_for(graph, profile);
        let isv_d = Isv::dynamic_from_funcs(graph, trace);
        let report =
            persp_scanner::scan_bounded(graph, isv_d.funcs(), |pc| inst.core.machine.inst_at(pc));
        let isv_pp = isv_d
            .clone()
            .hardened_with_audit(graph, report.flagged_functions());
        (isv_s, isv_d, isv_pp)
    };
    (isv_s, isv_d, isv_pp, inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.951), "95.1%");
        assert_eq!(norm(1.0349), "1.035");
    }

    #[test]
    fn union_workload_covers_the_suite() {
        let u = lebench_union_workload();
        assert!(u.syscall_profile().len() >= 12);
        assert_eq!(u.name, "LEBench");
    }

    #[test]
    fn small_kernel_trace_produces_dynamic_isv() {
        let image = KernelImage::build(KernelConfig::test_small());
        let w = persp_workloads::lebench::by_name("getpid").unwrap();
        let trace = trace_workload(&image, &w);
        assert!(!trace.is_empty());
    }

    #[test]
    fn isv_trio_orders_by_size() {
        let image = KernelImage::build(KernelConfig::test_small());
        let w = persp_workloads::lebench::by_name("small-read").unwrap();
        let (s, d, pp, _inst) = isv_trio(&image, &w, &w.syscall_profile());
        assert!(d.num_funcs() <= s.num_funcs(), "dynamic ⊆ static footprint");
        assert!(pp.num_funcs() <= d.num_funcs(), "++ removes flagged hosts");
    }
}
