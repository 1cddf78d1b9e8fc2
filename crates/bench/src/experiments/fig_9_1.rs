//! Experiment E5 — Figure 9.1: speedup of Kasper's gadget discovery rate
//! (gadgets/hour) when the search is bounded to each workload's ISV.
//!
//! Per workload, two fuzz-and-scan campaigns run on the live simulator:
//! the whole-interface baseline and the ISV-bounded campaign. The rate
//! counts discoveries of the gadgets that remain speculatively reachable
//! under the deployed ISV (the audit targets, §8.2); work is simulated
//! execution cycles plus taint-analysis instructions.

use crate::{audit_workloads, header, mean, output, trace_workload, Images, Output};
use persp_scanner::fuzzer::compare_bounded;
use persp_workloads::report::Json;
use persp_workloads::{RunConfig, SimInstance};
use perspective::isv::Isv;
use perspective::policy::PerspectiveConfig;
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

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    let image = images.get(cfg);
    let workloads = audit_workloads();

    let rows: Vec<Row> = workloads
        .iter()
        .map(|w| {
            // Derive the workload's dynamic ISV from a real trace.
            let isv = Isv::dynamic_from_funcs(&image.graph, trace_workload(image, w));
            let pcfg = PerspectiveConfig::default();
            let mut inst = SimInstance::from_image_core(Scheme::Unsafe, image, pcfg, cfg.core);
            let (asid, kernel) = (inst.asid, inst.kernel.clone());
            let (baseline, bounded) =
                compare_bounded(&mut inst.core, kernel, asid, isv.funcs(), 16);
            let b = baseline.relevant_rate(isv.funcs());
            let r = bounded.relevant_rate(isv.funcs());
            Row {
                name: w.name,
                n_funcs: isv.num_funcs(),
                baseline_rate: b,
                bounded_rate: r,
                speedup: if b > 0.0 { r / b } else { f64::INFINITY },
            }
        })
        .collect();
    let avg = mean(rows.iter().map(|r| r.speedup), rows.len());

    Ok(output(
        cfg,
        "fig_9_1",
        || {
            let fixed = |x: f64, digits: usize| Json::str(format!("{x:.digits$}"));
            let json_rows = rows.iter().map(|r| {
                Json::obj(vec![
                    ("workload", Json::str(r.name)),
                    ("isv_funcs", Json::UInt(r.n_funcs as u64)),
                    ("baseline_rate", fixed(r.baseline_rate, 1)),
                    ("bounded_rate", fixed(r.bounded_rate, 1)),
                    ("speedup", fixed(r.speedup, 2)),
                ])
            });
            vec![
                ("rows", Json::Array(json_rows.collect())),
                ("avg_speedup", fixed(avg, 2)),
            ]
        },
        || {
            let mut t = header(
                "Figure 9.1: Speedup of Kasper's gadget discovery rate",
                "paper §8.2, Figure 9.1",
            );
            let (n, b, r, x) = ("ISV funcs", "baseline rate", "bounded rate", "speedup");
            let (w, rule) = ("workload", "-".repeat(72));
            t += &format!("{w:<10} | {n:>12} | {b:>14} | {r:>14} | {x:>8}\n{rule}\n");
            for r in &rows {
                let (w, n, x) = (r.name, r.n_funcs, r.speedup);
                let (b, bounded) = (r.baseline_rate, r.bounded_rate);
                t += &format!("{w:<10} | {n:>12} | {b:>14.1} | {bounded:>14.1} | {x:>7.2}x\n");
            }
            let (w, blank) = ("average", "");
            t += &format!(
                "{rule}\n{w:<10} | {blank:>12} | {blank:>14} | {blank:>14} | {avg:>7.2}x\n"
            );
            t + "
paper: speedups 1.14x-2.23x across workloads, 1.57x on average;
       search space reduced from 28K kernel functions to ~1.4K.
"
        },
    ))
}
