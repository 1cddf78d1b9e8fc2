//! Runs every experiment — the one-command regeneration of all the
//! paper's tables and figures.
//!
//! Each experiment is also available as its own binary (`table_8_1`,
//! `fig_9_2`, ...); see DESIGN.md §4 for the index. Set
//! `PERSPECTIVE_KERNEL=small` for a quick smoke run, and
//! `--only <name,...>` to re-run a subset without editing anything.
//!
//! The experiments ([`EXPERIMENTS`]) run in this process, up to four at
//! a time, each on its share of the `PERSPECTIVE_THREADS` budget for its
//! own cells, sharing one kernel image per scale. Transcripts print in
//! the fixed experiment order, so the output is byte-identical at any
//! width; `--json` prints one document holding every experiment's. If
//! any experiment fails, the others still print, each failure is named
//! on stderr, and the run exits nonzero.
//!
//! A summary table closes the run: wall clock per experiment and in
//! total, and the process's cell-cache hits and misses in the total row
//! when the cache is on. It goes to stderr under `--json`, so the
//! document stays byte-identical cold and warm (as for wall clock).

use persp_bench::experiments::{Experiment, EXPERIMENTS};
use persp_bench::{Images, Output};
use persp_workloads::memo::{self, CacheMode};
use persp_workloads::report::{self, Json};
use persp_workloads::{run_parallel, RunConfig};
use std::time::Instant;

/// The experiments `--only a,b,c` (or `--only=a,b,c`) selects, in
/// [`EXPERIMENTS`] order; all of them without the flag. `Err` names an
/// unknown experiment and the valid choices.
fn parse_only(args: &[String]) -> Result<Vec<(&'static str, Experiment)>, String> {
    let mut list = None;
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix("--only=") {
            list = Some(v);
        } else if arg == "--only" {
            list = Some(args.get(i + 1).ok_or("--only requires a list")?.as_str());
        }
    }
    let Some(list) = list else {
        return Ok(EXPERIMENTS.to_vec());
    };
    let names: Vec<&str> = list.split(',').map(str::trim).collect();
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    if let Some(name) = names.iter().find(|n| !n.is_empty() && !valid.contains(n)) {
        let valid = valid.join(", ");
        return Err(format!("unknown experiment {name:?}; valid: {valid}"));
    }
    // The canonical transcript order, however the list was ordered.
    let selected: Vec<_> = EXPERIMENTS
        .into_iter()
        .filter(|e| names.contains(&e.0))
        .collect();
    match selected.is_empty() {
        true => Err("--only selected no experiments".into()),
        false => Ok(selected),
    }
}

fn main() {
    let cfg = RunConfig::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = parse_only(&args).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(1);
    });
    let (started, images) = (Instant::now(), Images::default());
    // Split the worker budget: up to four experiments at a time, each
    // given an equal share of the configured thread count for its cells.
    let outer = cfg.threads.clamp(1, 4);
    let threads = (cfg.threads / outer).max(1);
    let mut inner = cfg.clone();
    inner.threads = threads;
    let runs = run_parallel(outer, selected, |(name, experiment)| {
        let t0 = Instant::now();
        let result = experiment(&inner, &images);
        (name, result, t0.elapsed().as_secs_f64())
    });

    // Wall clock per experiment, and the process's cache counters:
    // observability only, so on stderr under --json.
    let (total, mut docs, mut failures) = (runs.len(), Vec::new(), Vec::new());
    let mut summary = String::from("experiment             wall(s)   cache-hits cache-misses\n");
    for (name, result, secs) in runs {
        summary += &format!("{name:<20} {secs:>9.1} {:>12} {:>12}\n", "-", "-");
        match result {
            Ok(Output::Json(doc)) => docs.push((name.to_string(), doc)),
            Ok(Output::Transcript(t)) => print!("\n################ {name} ################\n{t}"),
            Err(e) => failures.push((name, e)),
        }
    }
    if cfg.json && failures.is_empty() {
        let experiments = vec![("experiments", Json::Object(docs))];
        Output::Json(report::experiment_json("run_all", cfg.kernel, experiments)).print();
    } else if failures.is_empty() {
        // Transcript-only timing note — never in --json, whose documents
        // must stay byte-identical run to run.
        let ff = match cfg.core.idle_fastforward {
            true => "on; PERSPECTIVE_NO_FASTFWD=1 selects the cycle-by-cycle slow path",
            false => "off",
        };
        let secs = started.elapsed().as_secs_f64();
        println!(
            "\nAll experiments completed in {secs:.1} s wall-clock (idle-cycle fast-forward: {ff})."
        );
    }
    let stats = memo::stats();
    let (hits, misses) = match cfg.cache.mode {
        CacheMode::Off => ("-".to_string(), "-".to_string()),
        _ => (stats.hits.to_string(), stats.misses.to_string()),
    };
    let secs = started.elapsed().as_secs_f64();
    summary += &format!("{:<20} {secs:>9.1} {hits:>12} {misses:>12}\n", "total");
    match cfg.json {
        true => eprint!("{summary}"),
        false => print!("\n{summary}"),
    }

    for (name, e) in &failures {
        eprintln!("error: {name} failed: {e}");
    }
    if !failures.is_empty() {
        eprintln!("error: {}/{total} experiments failed", failures.len());
        std::process::exit(1);
    }
}
