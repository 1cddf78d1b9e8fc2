//! Experiment E6/E12/E13 — Figure 9.2: LEBench latency normalized to the
//! UNSAFE baseline under each defense scheme.
//!
//! Default: the paper's five main schemes. `--all` adds the §9.1
//! comparison points (DOM, STT, KPTI+Retpoline, Retpoline-only).
//! `--json` emits the measurement rows and derived normalizations as a
//! single machine-readable document instead of the transcript.

use crate::{
    columns, header, matrix, norm, output, scheme_values_json, schemes_json, vs_unsafe, Images,
    Output,
};
use persp_workloads::report::{self, Json};
use persp_workloads::{lebench, RunConfig};
use perspective::scheme::Scheme;

/// Run the experiment: the five main schemes, or every scheme with
/// `all` (`--all`).
pub fn run(cfg: &RunConfig, images: &Images, all: bool) -> Result<Output, String> {
    let image = images.get(cfg);
    let schemes = if all { Scheme::ALL } else { Scheme::MAIN };
    let defenses = &schemes[1..];
    let suite = lebench::suite();
    let cells = matrix(cfg, image, schemes, &suite)?;
    // Per test, each defense's latency normalized to UNSAFE; then each
    // defense's average over the suite.
    let (normalized, avg) = vs_unsafe(&cells, schemes.len(), |m, base| {
        m.stats.cycles as f64 / base.stats.cycles.max(1) as f64
    });

    Ok(output(
        cfg,
        "fig_9_2",
        || {
            let mut rows = Vec::new();
            for (w, row) in suite.iter().zip(&normalized) {
                for (s, &value) in defenses.iter().zip(row) {
                    rows.push(Json::obj(vec![
                        ("workload", Json::str(w.name)),
                        ("scheme", Json::str(s.name())),
                        ("value", Json::str(norm(value))),
                    ]));
                }
            }
            vec![
                ("schemes", schemes_json(schemes)),
                ("rows", report::measurements_json(&cells)),
                ("normalized", Json::Array(rows)),
                ("avg", scheme_values_json(defenses, &avg)),
            ]
        },
        || {
            let mut t = header(
                "Figure 9.2: LEBench normalized latency (UNSAFE = 1.000)",
                "paper §9.1, Figure 9.2 (+ §9.1 hardware/software comparisons with --all)",
            );
            let rule = "-".repeat(16 + 19 * defenses.len());
            let names = columns(defenses.iter().map(|s| s.name()));
            t += &format!("{:<16}{names}\n{rule}\n", "test");
            for (w, row) in suite.iter().zip(&normalized) {
                t += &format!("{:<16}{}\n", w.name, columns(row.iter().map(|&v| norm(v))));
            }
            let avg = columns(avg.iter().map(|&v| norm(v)));
            t += &format!("{rule}\n{:<16}{avg}\n", "geomean-ish avg");
            t + "
paper: FENCE avg 1.475 (select/poll up to 3.28),
       PERSPECTIVE-STATIC 1.041, PERSPECTIVE 1.036, PERSPECTIVE++ 1.035;
       §9.1 comparisons: DOM 1.231, STT 1.037, KPTI+Retpoline 1.145,
       Retpoline-only 1.066.
"
        },
    ))
}
