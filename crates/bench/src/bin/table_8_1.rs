//! Experiment E3 — Table 8.1: attack surface reduction with Perspective.
//!
//! The surface is the number of kernel functions an execution context can
//! speculatively execute. Static ISVs (ISV-S) come from the workloads'
//! declared syscall profiles; dynamic ISVs (ISV) come from real execution
//! traces on the simulator.

use persp_bench::{header, isv_trio, kernel_image, lebench_union_workload, pct};
use persp_workloads::report::{self, Json};
use persp_workloads::{apps, runner};

fn main() {
    let image = kernel_image();
    let mut workloads = vec![lebench_union_workload()];
    workloads.extend(apps::apps().into_iter().map(|a| a.workload));

    // One worker per workload; each derives its views against the shared
    // image and returns the row's numbers (instances stay thread-local).
    let rows = runner::run_parallel(runner::num_threads(), workloads.clone(), |w| {
        let profile = w.syscall_profile();
        let (isv_s, isv_d, _pp, _inst) = isv_trio(&image, &w, &profile);
        (
            isv_s.surface_reduction(&image.graph),
            isv_d.surface_reduction(&image.graph),
            isv_s.num_funcs(),
            isv_d.num_funcs(),
        )
    });

    if report::json_mode() {
        let json_rows = workloads
            .iter()
            .zip(&rows)
            .map(|(w, (rs, rd, n_s, n_d))| {
                Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("static_reduction", Json::str(pct(*rs))),
                    ("dynamic_reduction", Json::str(pct(*rd))),
                    ("static_funcs", Json::UInt(*n_s as u64)),
                    ("dynamic_funcs", Json::UInt(*n_d as u64)),
                ])
            })
            .collect();
        let doc = report::experiment_json("table_8_1", vec![("rows", Json::Array(json_rows))]);
        report::emit(&doc);
        return;
    }

    header(
        "Table 8.1: Attack surface reduction with Perspective",
        "paper §8.2, Table 8.1",
    );
    println!(
        "{:<10} | {:>9} | {:>9} | {:>12} | {:>12}",
        "Workload", "ISV-S", "ISV", "|ISV-S|", "|ISV|"
    );
    println!("{}", "-".repeat(64));
    let mut sums = (0.0, 0.0);
    for (w, (rs, rd, n_s, n_d)) in workloads.iter().zip(rows) {
        sums.0 += rs;
        sums.1 += rd;
        println!(
            "{:<10} | {:>9} | {:>9} | {:>12} | {:>12}",
            w.name,
            pct(rs),
            pct(rd),
            format!("{n_s} funcs"),
            format!("{n_d} funcs"),
        );
    }
    let n = workloads.len() as f64;
    println!("{}", "-".repeat(64));
    println!(
        "{:<10} | {:>9} | {:>9} |",
        "average",
        pct(sums.0 / n),
        pct(sums.1 / n)
    );
    println!();
    println!("paper: ISV-S 90-92% reduction, ISV 94-96% reduction (avg 95.1%)");
}
