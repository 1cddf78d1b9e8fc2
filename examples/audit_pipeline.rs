//! Audit pipeline: ISVs as an accelerator for kernel gadget scanning, and
//! the pliable runtime interface for CVE response.
//!
//! ```sh
//! cargo run --release --example audit_pipeline
//! ```
//!
//! Reproduces the §5.4/§6.1 workflow:
//! 1. generate a workload's dynamic ISV from a trace;
//! 2. bound the Kasper-style scanner to the view (drastically smaller
//!    search space);
//! 3. harden the view with the findings (ISV++ blocks every identified
//!    gadget);
//! 4. respond to a "new CVE" at runtime by excluding the affected
//!    function from the installed view — no kernel patch, no reboot.

use persp_bench::trace_workload;
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_scanner::{scan_bounded, scan_kernel};
use persp_workloads::lebench;
use perspective::isv::Isv;
use perspective::scheme::Scheme;

fn main() {
    let image = KernelImage::build(KernelConfig::paper());
    let graph = &image.graph;
    let workload = lebench::by_name("small-read").expect("suite entry");

    // 1. Dynamic ISV from a real execution trace.
    let trace = trace_workload(&image, &workload);
    let isv = Isv::dynamic_from_funcs(graph, trace);
    println!(
        "dynamic ISV: {} of {} kernel functions ({:.1}% surface reduction)",
        isv.num_funcs(),
        graph.len(),
        100.0 * isv.surface_reduction(graph)
    );

    // 2. Bounded vs. whole-kernel scanning of the image's kernel text.
    let fetch = |pc: u64| image.text.get(pc);
    let full = scan_kernel(graph, fetch);
    let bounded = scan_bounded(graph, isv.funcs(), fetch);
    println!(
        "whole-kernel scan: {} findings over {} functions ({} insts examined)",
        full.findings.len(),
        full.functions_scanned,
        full.insts_scanned
    );
    println!(
        "ISV-bounded scan : {} findings over {} functions ({} insts, {:.1}x less analysis)",
        bounded.findings.len(),
        bounded.functions_scanned,
        bounded.insts_scanned,
        full.insts_scanned as f64 / bounded.insts_scanned.max(1) as f64
    );

    // 3. ISV++: exclude every flagged function.
    let hardened = isv
        .clone()
        .hardened_with_audit(graph, bounded.flagged_functions());
    let remaining = graph.gadgets_within(hardened.funcs()).len();
    println!(
        "ISV++: {} functions, {} reachable gadgets remaining (paper: 0)",
        hardened.num_funcs(),
        remaining
    );

    // 4. Runtime CVE response through the pliable interface of a live
    // PERSPECTIVE instance running on the image.
    let victim_func = hardened.funcs().iter().min().expect("nonempty view");
    let inst = persp_workloads::SimInstance::from_image(Scheme::Perspective, &image);
    let perspective = inst.perspective.as_ref().expect("perspective scheme");
    perspective.install_isv(inst.asid, hardened);
    println!();
    println!(
        "new CVE lands in `{}` — excluding it from the live view ...",
        graph.func(victim_func).name
    );
    let was_present = perspective.exclude_function(inst.asid, graph, victim_func);
    assert!(was_present);
    perspective.with_isv(inst.asid, |v| {
        assert!(!v.unwrap().contains_func(victim_func));
    });
    println!("done: the function can no longer execute speculatively in this context,");
    println!("with no kernel patch and no downtime (§5.4).");
}
