//! Ablation: which view mechanism pays for what — DSV-only, ISV-only,
//! and full Perspective, per workload.
//!
//! The paper's design argument (§5.1) is that the two mechanisms address
//! disjoint attack classes; this ablation shows their costs are largely
//! additive and individually small.

use persp_bench::{header, kernel_image, pct};
use persp_workloads::report::{self, Json};
use persp_workloads::{lebench, runner};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

fn main() {
    let (threads, core) = (runner::num_threads(), runner::core_config_from_env());
    let image = kernel_image();
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

    let names = [
        "getpid",
        "select",
        "small-read",
        "poll",
        "page-fault",
        "big-fork",
    ];
    // One row per workload: the UNSAFE baseline plus the three ablation
    // configurations, all run as one parallel matrix over the shared image.
    let jobs: Vec<(usize, Option<PerspectiveConfig>)> = (0..names.len())
        .flat_map(|w| {
            std::iter::once((w, None)).chain(configs.iter().map(move |&(_, cfg)| (w, Some(cfg))))
        })
        .collect();
    let cells = runner::run_parallel(threads, jobs, |(w, cfg)| {
        let workload = lebench::by_name(names[w]).unwrap();
        let (scheme, pcfg) = match cfg {
            None => (Scheme::Unsafe, PerspectiveConfig::default()),
            Some(cfg) => (Scheme::Perspective, cfg),
        };
        runner::measure(scheme, &image, &workload, pcfg, core).unwrap_or_else(|e| panic!("{e}"))
    });

    if report::json_mode() {
        let json_rows = names
            .iter()
            .zip(cells.chunks(1 + configs.len()))
            .map(|(name, row)| {
                let base = &row[0];
                let mut fields = vec![("workload", Json::str(*name))];
                for ((cfg_name, _), m) in configs.iter().zip(&row[1..]) {
                    let ov = m.stats.cycles as f64 / base.stats.cycles.max(1) as f64 - 1.0;
                    fields.push((*cfg_name, Json::str(pct(ov))));
                }
                Json::obj(fields)
            })
            .collect();
        let doc = report::experiment_json("ablation", vec![("rows", Json::Array(json_rows))]);
        report::emit(&doc);
        return;
    }

    header(
        "Ablation: DSV-only / ISV-only / full Perspective",
        "design analysis (§5.1, §9.2)",
    );
    println!(
        "{:<14} | {:>10} | {:>10} | {:>10}",
        "test", "DSV only", "ISV only", "DSV+ISV"
    );
    println!("{}", "-".repeat(54));
    for (name, row) in names.iter().zip(cells.chunks(1 + configs.len())) {
        let base = &row[0];
        print!("{name:<14}");
        for m in &row[1..] {
            let ov = m.stats.cycles as f64 / base.stats.cycles.max(1) as f64 - 1.0;
            print!(" | {:>10}", pct(ov));
        }
        println!();
    }
    println!();
    println!("DSV-only leaves passive attacks open; ISV-only leaves active attacks");
    println!("open — the full framework is needed for the complete taxonomy (§5.1).");
}
