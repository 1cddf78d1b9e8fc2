//! Ablation: which view mechanism pays for what — DSV-only, ISV-only,
//! and full Perspective, per workload.
//!
//! The paper's design argument (§5.1) is that the two mechanisms address
//! disjoint attack classes; this ablation shows their costs are largely
//! additive and individually small.

use persp_bench::{cell, header, kernel_image, lebench_tests, output, pct, vs_unsafe};
use persp_workloads::report::Json;
use persp_workloads::{run_parallel, runner, RunConfig, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

fn main() {
    let cfg = RunConfig::from_process();
    let image = kernel_image(&cfg);
    let configs: [(&str, PerspectiveConfig); 3] = [
        (
            "DSV only",
            PerspectiveConfig {
                enforce_isv: false,
                ..Default::default()
            },
        ),
        (
            "ISV only",
            PerspectiveConfig {
                enforce_dsv: false,
                ..Default::default()
            },
        ),
        ("DSV + ISV", PerspectiveConfig::default()),
    ];

    let tests = lebench_tests(&[
        "getpid",
        "select",
        "small-read",
        "poll",
        "page-fault",
        "big-fork",
    ]);
    // One row per test: the UNSAFE baseline plus the three ablation
    // configurations, all run as one parallel batch over the shared image.
    let variants: Vec<(Scheme, PerspectiveConfig)> =
        std::iter::once((Scheme::Unsafe, PerspectiveConfig::default()))
            .chain(configs.iter().map(|&(_, pcfg)| (Scheme::Perspective, pcfg)))
            .collect();
    let jobs: Vec<(&Workload, (Scheme, PerspectiveConfig))> = tests
        .iter()
        .flat_map(|w| variants.iter().map(move |&v| (w, v)))
        .collect();
    let cells = run_parallel(cfg.threads, jobs, |(w, (scheme, pcfg))| {
        cell(&cfg, &image, scheme, w, pcfg)
    });
    // Per test, each configuration's overhead over UNSAFE.
    let (overheads, _) = vs_unsafe(&cells, variants.len(), runner::overhead);

    output(
        &cfg,
        "ablation",
        || {
            let json_rows = tests.iter().zip(&overheads).map(|(w, row)| {
                let mut fields = vec![("workload", Json::str(w.name))];
                for ((name, _), &ov) in configs.iter().zip(row) {
                    fields.push((*name, Json::str(pct(ov))));
                }
                Json::obj(fields)
            });
            vec![("rows", Json::Array(json_rows.collect()))]
        },
        || {
            header(
                "Ablation: DSV-only / ISV-only / full Perspective",
                "design analysis (§5.1, §9.2)",
            );
            let (d, i, both) = ("DSV only", "ISV only", "DSV+ISV");
            println!("{:<14} | {d:>10} | {i:>10} | {both:>10}", "test");
            println!("{}", "-".repeat(54));
            for (w, row) in tests.iter().zip(&overheads) {
                print!("{:<14}", w.name);
                for &ov in row {
                    print!(" | {:>10}", pct(ov));
                }
                println!();
            }
            println!();
            println!("DSV-only leaves passive attacks open; ISV-only leaves active attacks");
            println!("open — the full framework is needed for the complete taxonomy (§5.1).");
        },
    );
}
