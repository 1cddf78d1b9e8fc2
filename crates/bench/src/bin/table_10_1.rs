//! Experiment E9 — Table 10.1: percentage of fenced instructions due to
//! ISV vs. DSV, plus the fences-per-kilo-instruction rates of §9.2.
//!
//! `--json` emits the measurement rows and the derived shares/rates as a
//! single machine-readable document instead of the transcript.

use persp_bench::{header, kernel_image, lebench_union_workload, pct};
use persp_workloads::report::{self, Json};
use persp_workloads::runner::Measurement;
use persp_workloads::{apps, runner, Workload};
use perspective::scheme::Scheme;

const SCHEMES: [Scheme; 3] = [
    Scheme::PerspectiveStatic,
    Scheme::Perspective,
    Scheme::PerspectivePlusPlus,
];

fn row(w: &Workload, ms: &[Measurement]) {
    print!("{:<10}", w.name);
    for m in ms {
        let f = m.fences.as_ref().expect("perspective scheme");
        let isv_share = f.isv_fraction();
        print!(" | {:>5} / {:>5}", pct(isv_share), pct(1.0 - isv_share));
    }
    // The dynamic-ISV cell doubles as the fence-rate column (measurement
    // is deterministic, so re-running Perspective would reproduce it).
    let m = &ms[1];
    let f = m.fences.as_ref().expect("perspective scheme");
    let ki = m.stats.committed_insts.max(1) as f64 / 1000.0;
    println!(
        "   [{:>5.1} ISV f/ki, {:>5.1} DSV f/ki]",
        f.isv as f64 / ki,
        (f.dsv + f.unknown) as f64 / ki
    );
}

fn main() {
    let (threads, core) = (runner::num_threads(), runner::core_config_from_env());
    let image = kernel_image();
    let mut workloads = vec![lebench_union_workload()];
    workloads.extend(apps::apps().into_iter().map(|a| a.workload));
    let matrix = runner::run_matrix(threads, &image, &SCHEMES, &workloads, core);

    if report::json_mode() {
        let mut shares = Vec::new();
        for (w, ms) in workloads.iter().zip(matrix.chunks(SCHEMES.len())) {
            for m in ms {
                let f = m.fences.as_ref().expect("perspective scheme");
                let ki = m.stats.committed_insts.max(1) as f64 / 1000.0;
                shares.push(Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("scheme", Json::str(m.scheme.name())),
                    ("isv_share", Json::str(pct(f.isv_fraction()))),
                    ("dsv_share", Json::str(pct(1.0 - f.isv_fraction()))),
                    (
                        "isv_fences_per_ki",
                        Json::str(format!("{:.1}", f.isv as f64 / ki)),
                    ),
                    (
                        "dsv_fences_per_ki",
                        Json::str(format!("{:.1}", (f.dsv + f.unknown) as f64 / ki)),
                    ),
                ]));
            }
        }
        let doc = report::experiment_json(
            "table_10_1",
            vec![
                (
                    "schemes",
                    Json::Array(SCHEMES.iter().map(|s| Json::str(s.name())).collect()),
                ),
                ("rows", report::measurements_json(&matrix)),
                ("fence_shares", Json::Array(shares)),
            ],
        );
        report::emit(&doc);
        return;
    }

    header(
        "Table 10.1: Percentage of fenced instructions due to ISV and DSV",
        "paper §9.2, Table 10.1",
    );
    println!(
        "{:<10} | {:^13} | {:^13} | {:^13}",
        "workload", "ISV-S/DSV", "ISV/DSV", "ISV++/DSV"
    );
    println!("{}", "-".repeat(60));
    for (w, ms) in workloads.iter().zip(matrix.chunks(SCHEMES.len())) {
        row(w, ms);
    }
    println!();
    println!("paper: ISV share 13-27% (static), 12-23% (dynamic); DSV 73-88%;");
    println!("       fence rates ~9 (ISV) and ~37 (DSV) fences per kilo-instruction.");
}
