//! Experiment E7 — Figure 9.3: datacenter application throughput
//! (requests per second) normalized to the UNSAFE baseline.

use crate::{
    columns, header, matrix, norm, output, scheme_values_json, schemes_json, vs_unsafe, Images,
    Output,
};
use persp_workloads::report::Json;
use persp_workloads::{apps, RunConfig};
use perspective::scheme::Scheme;

/// Run the experiment: the five main schemes, or every scheme with
/// `all` (`--all`).
pub fn run(cfg: &RunConfig, images: &Images, all: bool) -> Result<Output, String> {
    let image = images.get(cfg);
    let schemes = if all { Scheme::ALL } else { Scheme::MAIN };
    let defenses = &schemes[1..];
    let the_apps = apps::apps();
    let workloads: Vec<_> = the_apps.iter().map(|a| a.workload.clone()).collect();
    let cells = matrix(cfg, image, schemes, &workloads)?;
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

    Ok(output(
        cfg,
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
                ("schemes", schemes_json(schemes)),
                ("rows", Json::Array(rows)),
                ("avg_normalized", scheme_values_json(defenses, &avg)),
            ]
        },
        || {
            let mut t = header(
                "Figure 9.3: Requests/second normalized to UNSAFE",
                "paper §9.1, Figure 9.3",
            );
            let rule = "-".repeat(25 + 19 * defenses.len());
            let names = columns(defenses.iter().map(|s| s.name()));
            t += &format!("{:<12} {:>12}{names}\n{rule}\n", "app", "UNSAFE RPS");
            for ((app, &(rps, kernel)), row) in the_apps.iter().zip(&unsafe_rows).zip(&normalized) {
                let (name, rps) = (app.workload.name, format!("{rps:.0}"));
                let cols = columns(row.iter().map(|&v| norm(v)));
                let paper = 100.0 * app.paper_kernel_frac;
                t += &format!(
                    "{name:<12} {rps:>12}{cols}   (kernel-time {kernel:.0}%, paper {paper:.0}%)\n"
                );
            }
            let avg = columns(avg.iter().map(|&v| norm(v)));
            t += &format!("{rule}\n{:<25}{avg}\n", "average");
            t + "
paper: FENCE 0.943 avg; PERSPECTIVE-STATIC 0.987, PERSPECTIVE 0.988,
       PERSPECTIVE++ 0.988; DOM 0.983, STT 0.996 (§9.1).
note:  absolute RPS differs from the paper's testbed; normalized
       throughput is the Figure 9.3 metric.
"
        },
    ))
}
