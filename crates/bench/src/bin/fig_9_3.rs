//! Experiment E7 — Figure 9.3: datacenter application throughput
//! (requests per second) normalized to the UNSAFE baseline.

use persp_bench::{header, kernel_image, norm};
use persp_uarch::config::CoreConfig;
use persp_workloads::report::{self, Json};
use persp_workloads::{apps, runner};
use perspective::scheme::Scheme;

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let (threads, core) = (runner::num_threads(), runner::core_config_from_env());
    let image = kernel_image();
    let schemes: Vec<Scheme> = if all {
        Scheme::ALL.to_vec()
    } else {
        Scheme::MAIN.to_vec()
    };

    let freq = CoreConfig::paper_default().freq_ghz;
    let the_apps = apps::apps();
    let workloads: Vec<_> = the_apps.iter().map(|a| a.workload.clone()).collect();
    let matrix = runner::run_matrix(threads, &image, &schemes, &workloads, core);

    if report::json_mode() {
        let mut json_rows = Vec::new();
        let mut sums = vec![0.0f64; schemes.len()];
        for (app, ms) in the_apps.iter().zip(matrix.chunks(schemes.len())) {
            let w = &app.workload;
            let mut fields = vec![
                ("app", Json::str(w.name)),
                (
                    "unsafe_rps",
                    Json::str(format!("{:.0}", ms[0].rps(w.iters, freq))),
                ),
                (
                    "kernel_time_pct",
                    Json::str(format!("{:.0}", 100.0 * ms[0].stats.kernel_time_fraction())),
                ),
            ];
            for (i, m) in ms.iter().enumerate().skip(1) {
                let normalized = ms[0].stats.cycles as f64 / m.stats.cycles.max(1) as f64;
                sums[i] += normalized;
                fields.push((m.scheme.name(), Json::str(norm(normalized))));
            }
            json_rows.push(Json::obj(fields));
        }
        let avgs = schemes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, s)| {
                Json::obj(vec![
                    ("scheme", Json::str(s.name())),
                    ("value", Json::str(norm(sums[i] / the_apps.len() as f64))),
                ])
            })
            .collect();
        let doc = report::experiment_json(
            "fig_9_3",
            vec![
                (
                    "schemes",
                    Json::Array(schemes.iter().map(|s| Json::str(s.name())).collect()),
                ),
                ("rows", Json::Array(json_rows)),
                ("avg_normalized", Json::Array(avgs)),
            ],
        );
        report::emit(&doc);
        return;
    }

    header(
        "Figure 9.3: Requests/second normalized to UNSAFE",
        "paper §9.1, Figure 9.3",
    );

    print!("{:<12}", "app");
    print!(" {:>12}", "UNSAFE RPS");
    for s in &schemes[1..] {
        print!(" {:>18}", s.name());
    }
    println!();
    println!("{}", "-".repeat(25 + 19 * (schemes.len() - 1)));

    let mut sums = vec![0.0f64; schemes.len()];
    for (app, ms) in the_apps.iter().zip(matrix.chunks(schemes.len())) {
        let w = &app.workload;
        let base_rps = ms[0].rps(w.iters, freq);
        print!("{:<12} {:>12}", w.name, format!("{:.0}", base_rps));
        for (i, m) in ms.iter().enumerate().skip(1) {
            // Throughput normalization = inverse cycle normalization.
            let normalized = ms[0].stats.cycles as f64 / m.stats.cycles.max(1) as f64;
            sums[i] += normalized;
            print!(" {:>18}", norm(normalized));
        }
        println!(
            "   (kernel-time {:.0}%, paper {:.0}%)",
            100.0 * ms[0].stats.kernel_time_fraction(),
            100.0 * app.paper_kernel_frac
        );
    }
    println!("{}", "-".repeat(25 + 19 * (schemes.len() - 1)));
    print!("{:<25}", "average");
    for (i, _) in schemes.iter().enumerate().skip(1) {
        print!(" {:>18}", norm(sums[i] / the_apps.len() as f64));
    }
    println!();
    println!();
    println!("paper: FENCE 0.943 avg; PERSPECTIVE-STATIC 0.987, PERSPECTIVE 0.988,");
    println!("       PERSPECTIVE++ 0.988; DOM 0.983, STT 0.996 (§9.1).");
    println!("note:  absolute RPS differs from the paper's testbed; normalized");
    println!("       throughput is the Figure 9.3 metric.");
}
