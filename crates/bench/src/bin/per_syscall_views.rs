//! Extension experiment (paper §11 future work): **per-syscall ISVs**.
//!
//! The paper's ISVs are per-*context*: one view covering every syscall
//! the process may make. Its future-work discussion asks how much
//! tighter views could get. The natural next granularity is switching
//! the view at syscall dispatch, so that while `read` executes the
//! speculation window only spans `read`'s own closure — a process's
//! declared profile no longer inflates every individual window.
//!
//! This binary quantifies the headroom on the synthetic kernel:
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

use persp_bench::{header, kernel_image, lebench_union_workload, norm, pct};
use persp_kernel::syscalls::Sysno;
use persp_workloads::apps;
use persp_workloads::lebench;
use persp_workloads::report::{self, Json};
use persp_workloads::runner;
use persp_workloads::spec::Workload;
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

/// One enforcement-cost row (all columns pre-formatted).
struct CostRow {
    name: &'static str,
    wide_norm: String,
    narrow_norm: String,
    wide_hit: String,
    narrow_hit: String,
}

fn main() {
    // One image serves the view analysis and every enforcement-cost cell.
    let image = kernel_image();
    let core = runner::core_config_from_env();
    let cell = |scheme, w: &Workload, pcfg| {
        runner::measure(scheme, &image, w, pcfg, core).unwrap_or_else(|e| panic!("{e}"))
    };
    let per_syscall = PerspectiveConfig {
        per_syscall_isv: true,
        ..PerspectiveConfig::default()
    };
    let mut workloads = vec![lebench_union_workload()];
    workloads.extend(apps::apps().into_iter().map(|a| a.workload));

    let graph = &image.graph;
    let total = graph.len() as f64;

    // Per-syscall static closures are workload-independent: compute once.
    let mut per_sys: HashMap<Sysno, usize> = HashMap::new();
    for &sys in Sysno::ALL {
        per_sys.insert(sys, Isv::static_for(graph, &[sys]).num_funcs());
    }

    let mut sum_tighten = 0.0;
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
        sum_tighten += tighten;
        surface_rows.push(SurfaceRow {
            name: w.name,
            proc_wide,
            avg,
            effective,
            tighten,
        });
    }
    let avg_tighten = sum_tighten / workloads.len() as f64;

    // Where the floor is: the shared part every view must contain.
    let min_view = Sysno::ALL.iter().map(|s| per_sys[s]).min().unwrap_or(0) as f64;
    let max_view = Sysno::ALL.iter().map(|s| per_sys[s]).max().unwrap_or(0) as f64;

    // Enforcement cost: the conservative flush-on-dispatch implementation
    // (`PerspectiveConfig::per_syscall_isv`) vs. the paper's process-wide static views.
    let mut mixed = lebench::by_name("small-read").expect("suite test");
    mixed
        .steps
        .extend(lebench::by_name("getpid").expect("suite test").steps);
    mixed
        .steps
        .extend(lebench::by_name("mmap").expect("suite test").steps);
    mixed.name = "read+getpid+mmap";
    let singles = ["getpid", "small-read", "mmap", "select"]
        .into_iter()
        .map(|n| lebench::by_name(n).expect("suite test"));
    let mut cost_rows = Vec::new();
    for w in singles.chain([mixed]) {
        let base = cell(Scheme::Unsafe, &w, PerspectiveConfig::default())
            .stats
            .cycles as f64;
        // (single-syscall tests never switch views mid-run: identical
        // columns there are the sanity check; the mixed row pays for
        // real dispatch switching.)
        let wide = cell(Scheme::PerspectiveStatic, &w, PerspectiveConfig::default());
        let narrow = cell(Scheme::Perspective, &w, per_syscall);
        cost_rows.push(CostRow {
            name: w.name,
            wide_norm: norm(wide.stats.cycles as f64 / base),
            narrow_norm: norm(narrow.stats.cycles as f64 / base),
            wide_hit: pct(wide.isv_cache.map_or(0.0, |c| c.hit_rate())),
            narrow_hit: pct(narrow.isv_cache.map_or(0.0, |c| c.hit_rate())),
        });
    }

    if report::json_mode() {
        let surfaces = surface_rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::str(r.name)),
                    ("proc_wide_funcs", Json::UInt(r.proc_wide as u64)),
                    ("per_sys_avg", Json::str(format!("{:.0}", r.avg))),
                    ("effective", Json::str(format!("{:.0}", r.effective))),
                    ("tightening", Json::str(pct(r.tighten))),
                ])
            })
            .collect();
        let costs = cost_rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("test", Json::str(r.name)),
                    ("p_static", Json::str(r.wide_norm.clone())),
                    ("per_sys", Json::str(r.narrow_norm.clone())),
                    ("p_static_hit_rate", Json::str(r.wide_hit.clone())),
                    ("per_sys_hit_rate", Json::str(r.narrow_hit.clone())),
                ])
            })
            .collect();
        let doc = report::experiment_json(
            "per_syscall_views",
            vec![
                ("surfaces", Json::Array(surfaces)),
                ("avg_tightening", Json::str(pct(avg_tighten))),
                ("min_view_funcs", Json::str(format!("{min_view:.0}"))),
                ("max_view_funcs", Json::str(format!("{max_view:.0}"))),
                ("enforcement_cost", Json::Array(costs)),
            ],
        );
        report::emit(&doc);
        return;
    }

    header(
        "Extension: per-syscall ISVs (future-work granularity)",
        "paper §11 — not a paper table; extension analysis",
    );
    println!(
        "{:<10} | {:>12} | {:>12} | {:>12} | {:>10}",
        "Workload", "proc-wide", "per-sys avg", "effective", "tightening"
    );
    println!("{}", "-".repeat(70));
    for r in &surface_rows {
        println!(
            "{:<10} | {:>12} | {:>12.0} | {:>12.0} | {:>10}",
            r.name,
            r.proc_wide,
            r.avg,
            r.effective,
            pct(r.tighten)
        );
    }
    println!("{}", "-".repeat(70));
    println!(
        "average tightening over process-wide static views: {}",
        pct(avg_tighten)
    );
    println!();
    println!(
        "per-syscall closures span {:.0}..{:.0} functions ({}..{} of the kernel);",
        min_view,
        max_view,
        pct(min_view / total),
        pct(max_view / total)
    );
    println!("the floor is the dispatcher + shared utility layer that every view keeps.");
    println!();
    println!("enforcement cost (LEBench subset, flush-on-dispatch model):");
    println!(
        "{:<16} | {:>10} | {:>10} | {:>12} | {:>12}",
        "test", "P-STATIC", "per-sys", "hit P-STATIC", "hit per-sys"
    );
    println!("{}", "-".repeat(72));
    for r in &cost_rows {
        println!(
            "{:<16} | {:>10} | {:>10} | {:>12} | {:>12}",
            r.name, r.wide_norm, r.narrow_norm, r.wide_hit, r.narrow_hit,
        );
    }
    println!();
    println!("the enforcement model switches the active view at Syscall commit and");
    println!("flushes the ISV cache per dispatch (an ASID+sysno tag extension would");
    println!("avoid the flushes); the columns above price that conservative variant.");
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
