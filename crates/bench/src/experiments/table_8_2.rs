//! Experiment E4 — Table 8.2: Perspective's MDS / Port / Cache gadget
//! reduction under ISV-S, ISV, and ISV++.
//!
//! The kernel hosts 1533 planted gadgets with Kasper's category split
//! (805 MDS / 509 Port / 219 Cache). A gadget is *blocked* when its host
//! function is outside the view (its transmitters cannot execute
//! speculatively).

use crate::{audit_workloads, header, isv_trio, output, pct, Images, Output};
use persp_kernel::callgraph::GadgetKind;
use persp_workloads::report::Json;
use persp_workloads::{run_parallel, RunConfig};
use perspective::isv::Isv;

/// The gadget kinds, in column order.
const KINDS: [&str; 3] = ["mds", "port", "cache"];

/// The share of each kind's gadgets (MDS, Port, Cache) the view blocks.
fn blocked_by_kind(graph: &persp_kernel::callgraph::CallGraph, isv: &Isv) -> [f64; 3] {
    let mut total = [0usize; 3];
    let mut inside = [0usize; 3];
    for (host, site) in &graph.gadgets {
        let k = match site.kind {
            GadgetKind::Mds => 0,
            GadgetKind::Port => 1,
            GadgetKind::Cache => 2,
        };
        total[k] += 1;
        if isv.contains_func(*host) {
            inside[k] += 1;
        }
    }
    std::array::from_fn(|k| 1.0 - inside[k] as f64 / total[k].max(1) as f64)
}

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    let image = images.get(cfg);
    let workloads = audit_workloads();
    // Per workload, the blocked shares under ISV-S, ISV and ISV++.
    let rows: Vec<[[f64; 3]; 3]> = run_parallel(cfg.threads, workloads.clone(), |w| {
        let (isv_s, isv_d, isv_pp, _inst) = isv_trio(image, &w, &w.syscall_profile());
        [isv_s, isv_d, isv_pp].map(|isv| blocked_by_kind(&image.graph, &isv))
    });

    Ok(output(
        cfg,
        "table_8_2",
        || {
            let kinds = |shares: &[f64; 3]| {
                Json::obj(
                    KINDS
                        .into_iter()
                        .zip(shares.map(|x| Json::str(pct(x))))
                        .collect(),
                )
            };
            let json_rows = workloads.iter().zip(&rows).map(|(w, [s, d, p])| {
                Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("isv_static", kinds(s)),
                    ("isv_dynamic", kinds(d)),
                    ("isv_plus_plus", kinds(p)),
                ])
            });
            vec![("rows", Json::Array(json_rows.collect()))]
        },
        || {
            let mut t = header(
                "Table 8.2: Perspective's MDS/Port/Cache gadget reduction",
                "paper §8.2, Table 8.2",
            );
            let views = ["ISV-S", "ISV", "ISV++"].map(|v| format!("{v} (MDS/Port/Cache)"));
            let [s, d, p] = &views;
            let rule = "-".repeat(92);
            t += &format!(
                "{:<10} | {s:^23} | {d:^23} | {p:^23}\n{rule}\n",
                "Benchmark"
            );
            for (w, row) in workloads.iter().zip(&rows) {
                let cells = row.map(|shares| {
                    let [m, p, c] = shares.map(pct);
                    format!("{m:>6} {p:>6} {c:>6}")
                });
                t += &format!("{:<10} | {}\n", w.name, cells.join("  | "));
            }
            t + "\npaper: ISV-S 78-87%, ISV 91-93%, ISV++ 100% / 100% / 100% across all workloads\n"
        },
    ))
}
