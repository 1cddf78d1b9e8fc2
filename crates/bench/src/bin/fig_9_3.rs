//! Experiment E7 — Figure 9.3: datacenter application throughput
//! (requests per second) normalized to the UNSAFE baseline.

use persp_bench::{header, kernel_image, matrix, norm, output, scheme_values_json, vs_unsafe};
use persp_workloads::report::Json;
use persp_workloads::{apps, RunConfig};
use perspective::scheme::Scheme;

fn main() {
    let cfg = RunConfig::from_process();
    let all = std::env::args().any(|a| a == "--all");
    let image = kernel_image(&cfg);
    let schemes = if all { Scheme::ALL } else { Scheme::MAIN };
    let defenses = &schemes[1..];
    let the_apps = apps::apps();
    let workloads: Vec<_> = the_apps.iter().map(|a| a.workload.clone()).collect();
    let cells = matrix(&cfg, &image, schemes, &workloads);
    // Per app, each defense's throughput normalized to UNSAFE (the
    // inverse cycle normalization); then each defense's average.
    let (normalized, avg) = vs_unsafe(&cells, schemes.len(), |m, base| {
        base.stats.cycles as f64 / m.stats.cycles.max(1) as f64
    });
    // Per app: UNSAFE requests per second and kernel-time percentage.
    let unsafe_rows: Vec<(f64, f64)> = cells
        .chunks(schemes.len())
        .zip(&the_apps)
        .map(|(ms, app)| {
            let rps = ms[0].rps(app.workload.iters, cfg.core.freq_ghz);
            (rps, 100.0 * ms[0].stats.kernel_time_fraction())
        })
        .collect();

    output(
        &cfg,
        "fig_9_3",
        || {
            let mut rows = Vec::new();
            for ((app, &(rps, kernel)), row) in the_apps.iter().zip(&unsafe_rows).zip(&normalized) {
                let mut fields = vec![
                    ("app", Json::str(app.workload.name)),
                    ("unsafe_rps", Json::str(format!("{rps:.0}"))),
                    ("kernel_time_pct", Json::str(format!("{kernel:.0}"))),
                ];
                for (s, &value) in defenses.iter().zip(row) {
                    fields.push((s.name(), Json::str(norm(value))));
                }
                rows.push(Json::obj(fields));
            }
            vec![
                ("schemes", persp_bench::schemes_json(schemes)),
                ("rows", Json::Array(rows)),
                ("avg_normalized", scheme_values_json(defenses, &avg)),
            ]
        },
        || {
            header(
                "Figure 9.3: Requests/second normalized to UNSAFE",
                "paper §9.1, Figure 9.3",
            );
            print!("{:<12} {:>12}", "app", "UNSAFE RPS");
            for s in defenses {
                print!(" {:>18}", s.name());
            }
            let rule = "-".repeat(25 + 19 * defenses.len());
            println!("\n{rule}");
            for ((app, &(rps, kernel)), row) in the_apps.iter().zip(&unsafe_rows).zip(&normalized) {
                print!("{:<12} {:>12}", app.workload.name, format!("{rps:.0}"));
                for &value in row {
                    print!(" {:>18}", norm(value));
                }
                println!(
                    "   (kernel-time {:.0}%, paper {:.0}%)",
                    kernel,
                    100.0 * app.paper_kernel_frac
                );
            }
            print!("{rule}\n{:<25}", "average");
            for &value in &avg {
                print!(" {:>18}", norm(value));
            }
            println!("\n");
            println!("paper: FENCE 0.943 avg; PERSPECTIVE-STATIC 0.987, PERSPECTIVE 0.988,");
            println!("       PERSPECTIVE++ 0.988; DOM 0.983, STT 0.996 (§9.1).");
            println!("note:  absolute RPS differs from the paper's testbed; normalized");
            println!("       throughput is the Figure 9.3 metric.");
        },
    );
}
