//! Experiment E6/E12/E13 — Figure 9.2: LEBench latency normalized to the
//! UNSAFE baseline under each defense scheme.
//!
//! Default: the paper's five main schemes. `--all` adds the §9.1
//! comparison points (DOM, STT, KPTI+Retpoline, Retpoline-only).
//! `--json` emits the measurement rows and derived normalizations as a
//! single machine-readable document instead of the transcript.

use persp_bench::{header, kernel_image, norm};
use persp_workloads::report::{self, Json};
use persp_workloads::{lebench, runner};
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
    let suite = lebench::suite();
    let matrix = runner::run_matrix(threads, &image, &schemes, &suite, core);

    if report::json_mode() {
        let mut normalized = Vec::new();
        let mut sums = vec![0.0f64; schemes.len()];
        for (w, ms) in suite.iter().zip(matrix.chunks(schemes.len())) {
            for (i, m) in ms.iter().enumerate().skip(1) {
                let value = m.stats.cycles as f64 / ms[0].stats.cycles.max(1) as f64;
                sums[i] += value;
                normalized.push(Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("scheme", Json::str(schemes[i].name())),
                    ("value", Json::str(norm(value))),
                ]));
            }
        }
        let avg = schemes
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, s)| {
                Json::obj(vec![
                    ("scheme", Json::str(s.name())),
                    ("value", Json::str(norm(sums[i] / suite.len() as f64))),
                ])
            })
            .collect();
        let doc = report::experiment_json(
            "fig_9_2",
            vec![
                (
                    "schemes",
                    Json::Array(schemes.iter().map(|s| Json::str(s.name())).collect()),
                ),
                ("rows", report::measurements_json(&matrix)),
                ("normalized", Json::Array(normalized)),
                ("avg", Json::Array(avg)),
            ],
        );
        report::emit(&doc);
        return;
    }

    header(
        "Figure 9.2: LEBench normalized latency (UNSAFE = 1.000)",
        "paper §9.1, Figure 9.2 (+ §9.1 hardware/software comparisons with --all)",
    );

    print!("{:<16}", "test");
    for s in &schemes[1..] {
        print!(" {:>18}", s.name());
    }
    println!();
    println!("{}", "-".repeat(16 + 19 * (schemes.len() - 1)));

    let mut sums = vec![0.0f64; schemes.len()];
    for (w, ms) in suite.iter().zip(matrix.chunks(schemes.len())) {
        print!("{:<16}", w.name);
        for (i, m) in ms.iter().enumerate().skip(1) {
            let normalized = m.stats.cycles as f64 / ms[0].stats.cycles.max(1) as f64;
            sums[i] += normalized;
            print!(" {:>18}", norm(normalized));
        }
        println!();
    }
    println!("{}", "-".repeat(16 + 19 * (schemes.len() - 1)));
    print!("{:<16}", "geomean-ish avg");
    for (i, _) in schemes.iter().enumerate().skip(1) {
        print!(" {:>18}", norm(sums[i] / suite.len() as f64));
    }
    println!();
    println!();
    println!("paper: FENCE avg 1.475 (select/poll up to 3.28),");
    println!("       PERSPECTIVE-STATIC 1.041, PERSPECTIVE 1.036, PERSPECTIVE++ 1.035;");
    println!("       §9.1 comparisons: DOM 1.231, STT 1.037, KPTI+Retpoline 1.145,");
    println!("       Retpoline-only 1.066.");
}
