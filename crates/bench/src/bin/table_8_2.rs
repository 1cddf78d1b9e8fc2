//! Experiment E4 — Table 8.2: Perspective's MDS / Port / Cache gadget
//! reduction under ISV-S, ISV, and ISV++.
//!
//! The kernel hosts 1533 planted gadgets with Kasper's category split
//! (805 MDS / 509 Port / 219 Cache). A gadget is *blocked* when its host
//! function is outside the view (its transmitters cannot execute
//! speculatively).

use persp_bench::{header, isv_trio, kernel_image, lebench_union_workload, pct};
use persp_kernel::callgraph::GadgetKind;
use persp_workloads::report::{self, Json};
use persp_workloads::{apps, runner};
use perspective::isv::Isv;

fn blocked_by_kind(graph: &persp_kernel::callgraph::CallGraph, isv: &Isv) -> (f64, f64, f64) {
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
    let f = |k: usize| 1.0 - inside[k] as f64 / total[k].max(1) as f64;
    (f(0), f(1), f(2))
}

fn main() {
    let image = kernel_image();
    let mut workloads = vec![lebench_union_workload()];
    workloads.extend(apps::apps().into_iter().map(|a| a.workload));

    let rows = runner::run_parallel(runner::num_threads(), workloads.clone(), |w| {
        let profile = w.syscall_profile();
        let (isv_s, isv_d, isv_pp, _inst) = isv_trio(&image, &w, &profile);
        let g = &image.graph;
        (
            blocked_by_kind(g, &isv_s),
            blocked_by_kind(g, &isv_d),
            blocked_by_kind(g, &isv_pp),
        )
    });

    if report::json_mode() {
        let kind_obj = |t: &(f64, f64, f64)| {
            Json::obj(vec![
                ("mds", Json::str(pct(t.0))),
                ("port", Json::str(pct(t.1))),
                ("cache", Json::str(pct(t.2))),
            ])
        };
        let json_rows = workloads
            .iter()
            .zip(&rows)
            .map(|(w, (s, d, p))| {
                Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("isv_static", kind_obj(s)),
                    ("isv_dynamic", kind_obj(d)),
                    ("isv_plus_plus", kind_obj(p)),
                ])
            })
            .collect();
        let doc = report::experiment_json("table_8_2", vec![("rows", Json::Array(json_rows))]);
        report::emit(&doc);
        return;
    }

    header(
        "Table 8.2: Perspective's MDS/Port/Cache gadget reduction",
        "paper §8.2, Table 8.2",
    );
    println!(
        "{:<10} | {:^23} | {:^23} | {:^23}",
        "Benchmark", "ISV-S (MDS/Port/Cache)", "ISV (MDS/Port/Cache)", "ISV++ (MDS/Port/Cache)"
    );
    println!("{}", "-".repeat(92));
    for (w, (s, d, p)) in workloads.iter().zip(rows) {
        println!(
            "{:<10} | {:>6} {:>6} {:>6}  | {:>6} {:>6} {:>6}  | {:>6} {:>6} {:>6}",
            w.name,
            pct(s.0),
            pct(s.1),
            pct(s.2),
            pct(d.0),
            pct(d.1),
            pct(d.2),
            pct(p.0),
            pct(p.1),
            pct(p.2),
        );
    }
    println!();
    println!("paper: ISV-S 78-87%, ISV 91-93%, ISV++ 100% / 100% / 100% across all workloads");
}
