//! Experiment E9 — Table 10.1: percentage of fenced instructions due to
//! ISV vs. DSV, plus the fences-per-kilo-instruction rates of §9.2.
//!
//! `--json` emits the measurement rows and the derived shares/rates as a
//! single machine-readable document instead of the transcript.

use crate::{audit_workloads, header, matrix, output, pct, schemes_json, Images, Output};
use persp_workloads::report::{self, Json};
use persp_workloads::runner::Measurement;
use persp_workloads::RunConfig;
use perspective::scheme::Scheme;

const SCHEMES: [Scheme; 3] = [
    Scheme::PerspectiveStatic,
    Scheme::Perspective,
    Scheme::PerspectivePlusPlus,
];

/// One cell's fence attribution.
struct Shares {
    isv_share: f64,
    dsv_share: f64,
    isv_per_ki: f64,
    dsv_per_ki: f64,
}

impl Shares {
    fn of(m: &Measurement) -> Self {
        let f = m.fences.as_ref().expect("perspective scheme");
        let ki = m.stats.committed_insts.max(1) as f64 / 1000.0;
        Shares {
            isv_share: f.isv_fraction(),
            dsv_share: 1.0 - f.isv_fraction(),
            isv_per_ki: f.isv as f64 / ki,
            dsv_per_ki: (f.dsv + f.unknown) as f64 / ki,
        }
    }
}

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    let image = images.get(cfg);
    let workloads = audit_workloads();
    let cells = matrix(cfg, image, &SCHEMES, &workloads)?;
    let shares: Vec<Shares> = cells.iter().map(Shares::of).collect();

    Ok(output(
        cfg,
        "table_10_1",
        || {
            let per_ki = |x: f64| Json::str(format!("{x:.1}"));
            let json_shares = cells.iter().zip(&shares).map(|(m, s)| {
                Json::obj(vec![
                    ("workload", Json::str(m.workload)),
                    ("scheme", Json::str(m.scheme.name())),
                    ("isv_share", Json::str(pct(s.isv_share))),
                    ("dsv_share", Json::str(pct(s.dsv_share))),
                    ("isv_fences_per_ki", per_ki(s.isv_per_ki)),
                    ("dsv_fences_per_ki", per_ki(s.dsv_per_ki)),
                ])
            });
            vec![
                ("schemes", schemes_json(&SCHEMES)),
                ("rows", report::measurements_json(&cells)),
                ("fence_shares", Json::Array(json_shares.collect())),
            ]
        },
        || {
            let mut t = header(
                "Table 10.1: Percentage of fenced instructions due to ISV and DSV",
                "paper §9.2, Table 10.1",
            );
            let (s, d, p) = ("ISV-S/DSV", "ISV/DSV", "ISV++/DSV");
            let rule = "-".repeat(60);
            t += &format!("{:<10} | {s:^13} | {d:^13} | {p:^13}\n{rule}\n", "workload");
            for (w, row) in workloads.iter().zip(shares.chunks(SCHEMES.len())) {
                t += &format!("{:<10}", w.name);
                for s in row {
                    t += &format!(" | {:>5} / {:>5}", pct(s.isv_share), pct(s.dsv_share));
                }
                // The dynamic-ISV cell doubles as the fence-rate column.
                let (i, d) = (row[1].isv_per_ki, row[1].dsv_per_ki);
                t += &format!("   [{i:>5.1} ISV f/ki, {d:>5.1} DSV f/ki]\n");
            }
            t + "
paper: ISV share 13-27% (static), 12-23% (dynamic); DSV 73-88%;
       fence rates ~9 (ISV) and ~37 (DSV) fences per kilo-instruction.
"
        },
    ))
}
