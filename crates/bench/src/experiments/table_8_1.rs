//! Experiment E3 — Table 8.1: attack surface reduction with Perspective.
//!
//! The surface is the number of kernel functions an execution context can
//! speculatively execute. Static ISVs (ISV-S) come from the workloads'
//! declared syscall profiles; dynamic ISVs (ISV) come from real execution
//! traces on the simulator.

use crate::{audit_workloads, header, isv_trio, mean, output, pct, Images, Output};
use persp_workloads::report::Json;
use persp_workloads::{run_parallel, RunConfig};

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    let image = images.get(cfg);
    let workloads = audit_workloads();

    // One worker per workload; each derives its views against the shared
    // image and returns the row's numbers (instances stay thread-local):
    // the surface reductions of ISV-S and ISV, then their sizes.
    let rows = run_parallel(cfg.threads, workloads.clone(), |w| {
        let (isv_s, isv_d, _pp, _inst) = isv_trio(image, &w, &w.syscall_profile());
        let g = &image.graph;
        let sizes = (isv_s.num_funcs(), isv_d.num_funcs());
        (
            isv_s.surface_reduction(g),
            isv_d.surface_reduction(g),
            sizes,
        )
    });
    let avg_s = pct(mean(rows.iter().map(|r| r.0), rows.len()));
    let avg_d = pct(mean(rows.iter().map(|r| r.1), rows.len()));

    Ok(output(
        cfg,
        "table_8_1",
        || {
            let json_rows = workloads
                .iter()
                .zip(&rows)
                .map(|(w, &(rs, rd, (n_s, n_d)))| {
                    Json::obj(vec![
                        ("workload", Json::str(w.name)),
                        ("static_reduction", Json::str(pct(rs))),
                        ("dynamic_reduction", Json::str(pct(rd))),
                        ("static_funcs", Json::UInt(n_s as u64)),
                        ("dynamic_funcs", Json::UInt(n_d as u64)),
                    ])
                });
            vec![("rows", Json::Array(json_rows.collect()))]
        },
        || {
            let mut t = header(
                "Table 8.1: Attack surface reduction with Perspective",
                "paper §8.2, Table 8.1",
            );
            let (s, d, n_s, n_d) = ("ISV-S", "ISV", "|ISV-S|", "|ISV|");
            let rule = "-".repeat(64);
            t += &format!(
                "{:<10} | {s:>9} | {d:>9} | {n_s:>12} | {n_d:>12}\n{rule}\n",
                "Workload"
            );
            for (w, &(rs, rd, (n_s, n_d))) in workloads.iter().zip(&rows) {
                let (s, d) = (pct(rs), pct(rd));
                let (n_s, n_d) = (format!("{n_s} funcs"), format!("{n_d} funcs"));
                t += &format!("{:<10} | {s:>9} | {d:>9} | {n_s:>12} | {n_d:>12}\n", w.name);
            }
            t += &format!("{rule}\n{:<10} | {avg_s:>9} | {avg_d:>9} |\n", "average");
            t + "\npaper: ISV-S 90-92% reduction, ISV 94-96% reduction (avg 95.1%)\n"
        },
    ))
}
