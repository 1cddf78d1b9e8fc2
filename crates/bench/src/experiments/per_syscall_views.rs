//! Extension experiment (paper §11 future work): **per-syscall ISVs**.
//!
//! The paper's ISVs are per-*context*: one view covering every syscall
//! the process may make. Its future-work discussion asks how much
//! tighter views could get. The natural next granularity is switching
//! the view at syscall dispatch, so that while `read` executes the
//! speculation window only spans `read`'s own closure — a process's
//! declared profile no longer inflates every individual window.
//!
//! This experiment quantifies the headroom on the synthetic kernel:
//!
//! * `per-sys avg` — mean view size over the workload's syscalls
//!   (unweighted: what the *verifier/loader* must reason about),
//! * `effective` — the frequency-weighted mean view size over the
//!   workload's executed steps (what the *attacker* faces on average),
//! * both compared against the process-wide static view the paper ships.
//!
//! The shared utility layer bounds the gain: every per-syscall view
//! still contains the dispatcher and common helpers, so the reduction
//! saturates near the pool-to-utility ratio rather than approaching
//! zero.

use crate::{
    audit_workloads, cells, header, lebench_tests, mean, mixed_workload, norm, output, pct, Images,
    Output,
};
use persp_kernel::syscalls::Sysno;
use persp_workloads::report::Json;
use persp_workloads::spec::Workload;
use persp_workloads::{Measurement, RunConfig};
use perspective::isv::Isv;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::collections::HashMap;

/// One workload's view-surface row: process-wide size, per-syscall
/// average, frequency-weighted effective size, and the tightening ratio.
struct SurfaceRow {
    name: &'static str,
    proc_wide: usize,
    avg: f64,
    effective: f64,
    tighten: f64,
}

/// The enforcement-cost columns, as JSON keys: latency normalized to
/// UNSAFE under process-wide static views and under per-syscall views,
/// then the ISV-cache hit rate of each.
const COST_KEYS: [&str; 4] = [
    "p_static",
    "per_sys",
    "p_static_hit_rate",
    "per_sys_hit_rate",
];

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    // One image serves the view analysis and every enforcement-cost cell.
    let image = images.get(cfg);
    let per_syscall = PerspectiveConfig {
        per_syscall_isv: true,
        ..PerspectiveConfig::default()
    };
    let workloads = audit_workloads();

    let graph = &image.graph;
    let total = graph.len() as f64;

    // Per-syscall static closures are workload-independent: compute once.
    let mut per_sys: HashMap<Sysno, usize> = HashMap::new();
    for &sys in Sysno::ALL {
        per_sys.insert(sys, Isv::static_for(graph, &[sys]).num_funcs());
    }

    let mut surface_rows = Vec::new();
    for w in &workloads {
        let profile = w.syscall_profile();
        let proc_wide = Isv::static_for(graph, &profile).num_funcs();

        let avg: f64 =
            profile.iter().map(|s| per_sys[s] as f64).sum::<f64>() / profile.len() as f64;

        let effective = effective_surface(w, &per_sys);

        // How much smaller the average speculation window's code surface
        // becomes relative to the process-wide view.
        let tighten = 1.0 - effective / proc_wide as f64;
        surface_rows.push(SurfaceRow {
            name: w.name,
            proc_wide,
            avg,
            effective,
            tighten,
        });
    }
    let avg_tighten = mean(surface_rows.iter().map(|r| r.tighten), workloads.len());

    // Where the floor is: the shared part every view must contain.
    let min_view = Sysno::ALL.iter().map(|s| per_sys[s]).min().unwrap_or(0) as f64;
    let max_view = Sysno::ALL.iter().map(|s| per_sys[s]).max().unwrap_or(0) as f64;
    let (min_share, max_share) = (min_view / total, max_view / total);

    // Enforcement cost: the conservative flush-on-dispatch implementation
    // (`PerspectiveConfig::per_syscall_isv`) vs. the paper's process-wide static views.
    let mixed = mixed_workload(
        "read+getpid+mmap",
        &lebench_tests(&["small-read", "getpid", "mmap"]),
    );
    let mut tests = lebench_tests(&["getpid", "small-read", "mmap", "select"]);
    tests.push(mixed);
    // Per test: the UNSAFE baseline, process-wide static views, and
    // per-syscall views, as one parallel batch. (Single-syscall tests
    // never switch views mid-run: identical columns there are the sanity
    // check; the mixed row pays for real dispatch switching.)
    let default = PerspectiveConfig::default();
    let jobs = tests
        .iter()
        .flat_map(|w| {
            [
                (Scheme::Unsafe, w, default),
                (Scheme::PerspectiveStatic, w, default),
                (Scheme::Perspective, w, per_syscall),
            ]
        })
        .collect();
    let measured = cells(cfg, image, jobs)?;
    // Per test, the pre-formatted [`COST_KEYS`] columns.
    let cost_rows: Vec<(&str, [String; 4])> = tests
        .iter()
        .zip(measured.chunks(3))
        .map(|(w, row)| {
            let [base, wide, narrow] = [&row[0], &row[1], &row[2]];
            let base = base.stats.cycles as f64;
            let latency = |m: &Measurement| norm(m.stats.cycles as f64 / base);
            let hit = |m: &Measurement| pct(m.isv_cache.map_or(0.0, |c| c.hit_rate()));
            (
                w.name,
                [latency(wide), latency(narrow), hit(wide), hit(narrow)],
            )
        })
        .collect();

    Ok(output(
        cfg,
        "per_syscall_views",
        || {
            let surfaces = surface_rows.iter().map(|r| {
                Json::obj(vec![
                    ("workload", Json::str(r.name)),
                    ("proc_wide_funcs", Json::UInt(r.proc_wide as u64)),
                    ("per_sys_avg", Json::str(format!("{:.0}", r.avg))),
                    ("effective", Json::str(format!("{:.0}", r.effective))),
                    ("tightening", Json::str(pct(r.tighten))),
                ])
            });
            let costs = cost_rows.iter().map(|(name, cols)| {
                let cols = COST_KEYS.into_iter().zip(cols.clone().map(Json::str));
                Json::obj(
                    std::iter::once(("test", Json::str(*name)))
                        .chain(cols)
                        .collect(),
                )
            });
            vec![
                ("surfaces", Json::Array(surfaces.collect())),
                ("avg_tightening", Json::str(pct(avg_tighten))),
                ("min_view_funcs", Json::str(format!("{min_view:.0}"))),
                ("max_view_funcs", Json::str(format!("{max_view:.0}"))),
                ("enforcement_cost", Json::Array(costs.collect())),
            ]
        },
        || {
            let mut t = header(
                "Extension: per-syscall ISVs (future-work granularity)",
                "paper §11 — not a paper table; extension analysis",
            );
            let (p, a, e, tg) = ("proc-wide", "per-sys avg", "effective", "tightening");
            let (w, rule) = ("Workload", "-".repeat(70));
            t += &format!("{w:<10} | {p:>12} | {a:>12} | {e:>12} | {tg:>10}\n{rule}\n");
            for r in &surface_rows {
                let (w, p, a, e, tg) = (r.name, r.proc_wide, r.avg, r.effective, pct(r.tighten));
                t += &format!("{w:<10} | {p:>12} | {a:>12.0} | {e:>12.0} | {tg:>10}\n");
            }
            let (avg, lo, hi) = (pct(avg_tighten), pct(min_share), pct(max_share));
            t += &format!(
                "{rule}
average tightening over process-wide static views: {avg}

per-syscall closures span {min_view:.0}..{max_view:.0} functions ({lo}..{hi} of the kernel);
the floor is the dispatcher + shared utility layer that every view keeps.

enforcement cost (LEBench subset, flush-on-dispatch model):
"
            );
            let (w, n, hw, hn) = ("P-STATIC", "per-sys", "hit P-STATIC", "hit per-sys");
            let (test, rule) = ("test", "-".repeat(72));
            t += &format!("{test:<16} | {w:>10} | {n:>10} | {hw:>12} | {hn:>12}\n{rule}\n");
            for (name, [w, n, hw, hn]) in &cost_rows {
                t += &format!("{name:<16} | {w:>10} | {n:>10} | {hw:>12} | {hn:>12}\n");
            }
            t + "
the enforcement model switches the active view at Syscall commit and
flushes the ISV cache per dispatch (an ASID+sysno tag extension would
avoid the flushes); the columns above price that conservative variant.
"
        },
    ))
}

/// Frequency-weighted mean view size over the workload's executed steps.
fn effective_surface(w: &Workload, per_sys: &HashMap<Sysno, usize>) -> f64 {
    let mut counts: HashMap<Sysno, u64> = HashMap::new();
    for s in w.startup_steps.iter().chain(&w.steps) {
        *counts.entry(s.sys).or_insert(0) += 1;
    }
    let total: u64 = counts.values().sum();
    counts
        .iter()
        .map(|(sys, n)| per_sys[sys] as f64 * (*n as f64))
        .sum::<f64>()
        / total as f64
}
