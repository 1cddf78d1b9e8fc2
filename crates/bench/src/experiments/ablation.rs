//! Ablation: which view mechanism pays for what — DSV-only, ISV-only,
//! and full Perspective, per workload.
//!
//! The paper's design argument (§5.1) is that the two mechanisms address
//! disjoint attack classes; this ablation shows their costs are largely
//! additive and individually small.

use crate::{cells, header, lebench_tests, output, pct, vs_unsafe, Images, Output};
use persp_workloads::report::Json;
use persp_workloads::{runner, RunConfig};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    let image = images.get(cfg);
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
    let row = |w| {
        let baseline = (Scheme::Unsafe, w, PerspectiveConfig::default());
        let ablated = configs.map(|(_, pcfg)| (Scheme::Perspective, w, pcfg));
        std::iter::once(baseline).chain(ablated)
    };
    let measured = cells(cfg, image, tests.iter().flat_map(row).collect())?;
    // Per test, each configuration's overhead over UNSAFE.
    let (overheads, _) = vs_unsafe(&measured, 1 + configs.len(), runner::overhead);

    Ok(output(
        cfg,
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
            let mut t = header(
                "Ablation: DSV-only / ISV-only / full Perspective",
                "design analysis (§5.1, §9.2)",
            );
            let (d, i, both) = ("DSV only", "ISV only", "DSV+ISV");
            let rule = "-".repeat(54);
            t += &format!("{:<14} | {d:>10} | {i:>10} | {both:>10}\n{rule}\n", "test");
            for (w, row) in tests.iter().zip(&overheads) {
                let cells: String = row
                    .iter()
                    .map(|&ov| format!(" | {:>10}", pct(ov)))
                    .collect();
                t += &format!("{:<14}{cells}\n", w.name);
            }
            t + "
DSV-only leaves passive attacks open; ISV-only leaves active attacks
open — the full framework is needed for the complete taxonomy (§5.1).
"
        },
    ))
}
