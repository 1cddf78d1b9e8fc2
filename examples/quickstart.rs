//! Quickstart: protect a kernel with Perspective and run a workload.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the mini-OS with Perspective's allocation-ownership sink wired
//! in, generates a dynamic ISV for a small application from a real
//! execution trace, and compares the protected run against the
//! unprotected baseline.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_workloads::{lebench, runner, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

fn main() {
    // A Linux-scale kernel: 28 000 functions, 1533 planted gadgets.
    // (Use KernelConfig::test_small() for a fast toy kernel.)
    let image = KernelImage::build(KernelConfig::paper());
    let workload: Workload = lebench::by_name("small-read").expect("suite entry");

    println!(
        "workload: {} (syscalls: {:?})",
        workload.name,
        workload.syscall_profile()
    );
    println!();

    // Measure under the unprotected baseline and under Perspective.
    // `measure` runs a warmup (which doubles as the dynamic-ISV profiling
    // trace), installs the view, and measures the region of interest.
    let (pcfg, core) = (PerspectiveConfig::default(), runner::core_config_from_env());
    let measure = |scheme| {
        runner::measure(scheme, &image, &workload, pcfg, core).unwrap_or_else(|e| panic!("{e}"))
    };
    let baseline = measure(Scheme::Unsafe);
    let protected = measure(Scheme::Perspective);

    println!("UNSAFE      : {:>9} cycles", baseline.stats.cycles);
    println!(
        "PERSPECTIVE : {:>9} cycles  ({:+.2}% overhead)",
        protected.stats.cycles,
        100.0 * runner::overhead(&protected, &baseline)
    );
    println!();

    let isv_funcs = protected.isv_funcs.expect("perspective run has a view");
    println!("dynamic ISV: {isv_funcs} of 28000 kernel functions may speculate");
    let fences = protected.fences.expect("perspective run attributes fences");
    println!(
        "fences: {} ISV, {} DSV, {} unknown-ownership",
        fences.isv, fences.dsv, fences.unknown
    );
    println!(
        "ISV cache hit rate {:.1}%, DSVMT cache hit rate {:.1}%",
        100.0 * protected.isv_cache.unwrap().hit_rate(),
        100.0 * protected.dsvmt_cache.unwrap().hit_rate()
    );
}
