//! Datacenter scenario: nginx under every evaluated defense scheme.
//!
//! ```sh
//! cargo run --release --example datacenter [app]
//! ```
//!
//! Serves requests through the simulated kernel under UNSAFE, FENCE, the
//! hardware-only baselines, deployed spot mitigations, and the three
//! Perspective variants, reporting normalized throughput (the Figure 9.3
//! metric).

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_workloads::{apps, runner};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nginx".to_string());
    let app = apps::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown app {name}; available: httpd nginx memcached redis");
        std::process::exit(1);
    });
    let image = KernelImage::build(KernelConfig::paper());
    let (pcfg, core) = (PerspectiveConfig::default(), runner::core_config_from_env());
    let freq = core.freq_ghz;
    let measure = |scheme| {
        runner::measure(scheme, &image, &app.workload, pcfg, core).unwrap_or_else(|e| panic!("{e}"))
    };

    println!(
        "app: {} ({} requests/run)",
        app.workload.name, app.workload.iters
    );
    println!();

    let baseline = measure(Scheme::Unsafe);
    let base_rps = baseline.rps(app.workload.iters, freq);
    println!(
        "{:<20} {:>12.0} req/s   1.000   (kernel-time {:.0}%)",
        "UNSAFE",
        base_rps,
        100.0 * baseline.stats.kernel_time_fraction()
    );

    for scheme in [
        Scheme::Fence,
        Scheme::Dom,
        Scheme::Stt,
        Scheme::Spot,
        Scheme::PerspectiveStatic,
        Scheme::Perspective,
        Scheme::PerspectivePlusPlus,
    ] {
        let m = measure(scheme);
        let normalized = baseline.stats.cycles as f64 / m.stats.cycles.max(1) as f64;
        print!(
            "{:<20} {:>12.0} req/s   {:.3}",
            scheme.name(),
            m.rps(app.workload.iters, freq),
            normalized
        );
        if let Some(f) = m.fences {
            print!(
                "   (fences: {:.0}% ISV / {:.0}% DSV)",
                100.0 * f.isv_fraction(),
                100.0 * (1.0 - f.isv_fraction())
            );
        }
        println!();
    }
    println!();
    println!("paper Figure 9.3: Perspective holds ~98.8% of baseline throughput while");
    println!("FENCE loses ~5.7% on average (worst on the key-value stores).");
}
