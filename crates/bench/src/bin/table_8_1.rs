//! Experiment E3 — Table 8.1: attack surface reduction with Perspective.
//!
//! The surface is the number of kernel functions an execution context can
//! speculatively execute. Static ISVs (ISV-S) come from the workloads'
//! declared syscall profiles; dynamic ISVs (ISV) come from real execution
//! traces on the simulator.

use persp_bench::{audit_workloads, header, isv_trio, kernel_image, mean, output, pct};
use persp_workloads::report::Json;
use persp_workloads::{run_parallel, RunConfig};

fn main() {
    let cfg = RunConfig::from_process();
    let image = kernel_image(&cfg);
    let workloads = audit_workloads();

    // One worker per workload; each derives its views against the shared
    // image and returns the row's numbers (instances stay thread-local):
    // the surface reductions of ISV-S and ISV, then their sizes.
    let rows = run_parallel(cfg.threads, workloads.clone(), |w| {
        let (isv_s, isv_d, _pp, _inst) = isv_trio(&image, &w, &w.syscall_profile());
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

    output(
        &cfg,
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
            header(
                "Table 8.1: Attack surface reduction with Perspective",
                "paper §8.2, Table 8.1",
            );
            let (s, d, n_s, n_d) = ("ISV-S", "ISV", "|ISV-S|", "|ISV|");
            println!(
                "{:<10} | {s:>9} | {d:>9} | {n_s:>12} | {n_d:>12}",
                "Workload"
            );
            let rule = "-".repeat(64);
            println!("{rule}");
            for (w, &(rs, rd, (n_s, n_d))) in workloads.iter().zip(&rows) {
                let (s, d) = (pct(rs), pct(rd));
                let (n_s, n_d) = (format!("{n_s} funcs"), format!("{n_d} funcs"));
                println!("{:<10} | {s:>9} | {d:>9} | {n_s:>12} | {n_d:>12}", w.name);
            }
            println!("{rule}");
            println!("{:<10} | {avg_s:>9} | {avg_d:>9} |", "average");
            println!();
            println!("paper: ISV-S 90-92% reduction, ISV 94-96% reduction (avg 95.1%)");
        },
    );
}
