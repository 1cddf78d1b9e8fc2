//! Experiment E5 — Figure 9.1: speedup of Kasper's gadget discovery rate
//! (gadgets/hour) when the search is bounded to each workload's ISV.
//!
//! Per workload, two fuzz-and-scan campaigns run on the live simulator:
//! the whole-interface baseline and the ISV-bounded campaign. The rate
//! counts discoveries of the gadgets that remain speculatively reachable
//! under the deployed ISV (the audit targets, §8.2); work is simulated
//! execution cycles plus taint-analysis instructions.

use persp_bench::{header, kernel_image, lebench_union_workload, trace_workload};
use persp_scanner::fuzzer::compare_bounded;
use persp_workloads::report::{self, Json};
use persp_workloads::{apps, SimInstance};
use perspective::isv::Isv;
use perspective::scheme::Scheme;

/// One workload's campaign pair: ISV size, baseline and bounded
/// discovery rates, and the resulting speedup.
struct Row {
    name: &'static str,
    n_funcs: usize,
    baseline_rate: f64,
    bounded_rate: f64,
    speedup: f64,
}

fn main() {
    let image = kernel_image();
    let mut workloads = vec![lebench_union_workload()];
    workloads.extend(apps::apps().into_iter().map(|a| a.workload));

    let mut rows = Vec::new();
    for w in &workloads {
        // Derive the workload's dynamic ISV from a real trace.
        let trace = trace_workload(&image, w);
        let mut inst = SimInstance::from_image(Scheme::Unsafe, &image);
        let (isv_funcs, n_funcs) = {
            let isv = Isv::dynamic_from_funcs(&image.graph, trace);
            (isv.funcs().clone(), isv.num_funcs())
        };
        let asid = inst.asid;
        let kernel_handle = inst.kernel.clone();
        let (baseline, bounded) = compare_bounded(
            &mut inst.core,
            kernel_handle,
            asid,
            &w.syscall_profile(),
            &isv_funcs,
            16,
        );
        let b = baseline.relevant_rate(&isv_funcs);
        let r = bounded.relevant_rate(&isv_funcs);
        let speedup = if b > 0.0 { r / b } else { f64::INFINITY };
        rows.push(Row {
            name: w.name,
            n_funcs,
            baseline_rate: b,
            bounded_rate: r,
            speedup,
        });
    }
    let avg = rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64;

    if report::json_mode() {
        let json_rows = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::str(r.name)),
                    ("isv_funcs", Json::UInt(r.n_funcs as u64)),
                    (
                        "baseline_rate",
                        Json::str(format!("{:.1}", r.baseline_rate)),
                    ),
                    ("bounded_rate", Json::str(format!("{:.1}", r.bounded_rate))),
                    ("speedup", Json::str(format!("{:.2}", r.speedup))),
                ])
            })
            .collect();
        let doc = report::experiment_json(
            "fig_9_1",
            vec![
                ("rows", Json::Array(json_rows)),
                ("avg_speedup", Json::str(format!("{avg:.2}"))),
            ],
        );
        report::emit(&doc);
        return;
    }

    header(
        "Figure 9.1: Speedup of Kasper's gadget discovery rate",
        "paper §8.2, Figure 9.1",
    );
    println!(
        "{:<10} | {:>12} | {:>14} | {:>14} | {:>8}",
        "workload", "ISV funcs", "baseline rate", "bounded rate", "speedup"
    );
    println!("{}", "-".repeat(72));
    for r in &rows {
        println!(
            "{:<10} | {:>12} | {:>14.1} | {:>14.1} | {:>7.2}x",
            r.name, r.n_funcs, r.baseline_rate, r.bounded_rate, r.speedup
        );
    }
    println!("{}", "-".repeat(72));
    println!(
        "{:<10} | {:>12} | {:>14} | {:>14} | {:>7.2}x",
        "average", "", "", "", avg
    );
    println!();
    println!("paper: speedups 1.14x-2.23x across workloads, 1.57x on average;");
    println!("       search space reduced from 28K kernel functions to ~1.4K.");
}
