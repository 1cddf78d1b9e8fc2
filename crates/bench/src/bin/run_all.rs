//! Runs every experiment binary — the one-command regeneration of all
//! the paper's tables and figures.
//!
//! Each experiment is also available as its own binary (`table_8_1`,
//! `fig_9_2`, ...); see DESIGN.md §4 for the index. Set
//! `PERSPECTIVE_KERNEL=small` for a quick smoke run, and
//! `--only <bin,...>` to re-run a subset without editing anything.
//!
//! Children run concurrently with captured stdout, and every transcript
//! is printed in the fixed experiment order once its run completes — the
//! combined output is byte-identical whatever `PERSPECTIVE_THREADS` says
//! (each child also runs its own cells on the parallel matrix, so the
//! worker budget is split between the two levels). Anything a child
//! wrote to stderr is forwarded to our stderr right after its
//! transcript. If any child fails, its stderr tail is reported and the
//! run exits nonzero after all transcripts have been printed.
//!
//! `--json` is forwarded to every child; the children's documents are
//! parsed (a child emitting unparseable output is a failure) and
//! aggregated into one combined document on stdout.
//!
//! When the cell cache is active (`PERSPECTIVE_CACHE=on|verify`), each
//! child reports its hit/miss counters through a private stats file and
//! a per-experiment summary table — wall clock plus cache counters — is
//! printed at the end of the run (to stderr under `--json`, so the
//! document stays byte-identical with and without a warm cache; the
//! same rule as wall clock).

use persp_workloads::report::{self, Json};
use persp_workloads::runner;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: [&str; 14] = [
    "table_4_1",
    "table_7_1",
    "table_8_1",
    "table_8_2",
    "security_poc",
    "fig_9_1",
    "fig_9_2",
    "fig_9_3",
    "table_9_1",
    "table_10_1",
    "sensitivity",
    "ablation",
    "per_syscall_views",
    "cache_sweep",
];

/// One child run: success flag, captured output, wall clock, and the
/// cache counters the child published (when the cache was active).
struct ChildRun {
    ok: bool,
    stdout: Vec<u8>,
    stderr: String,
    wall_secs: f64,
    cache: Option<(u64, u64)>,
}

/// The last `n` lines of a child's stderr (the part worth echoing into
/// a failure report).
fn tail(stderr: &str, n: usize) -> String {
    let lines: Vec<&str> = stderr.lines().collect();
    let start = lines.len().saturating_sub(n);
    lines[start..].join("\n")
}

/// Parse `--only a,b,c` / `--only=a,b,c` into a validated subset of
/// [`EXPERIMENTS`] (original order preserved). `None` when the flag is
/// absent; `Err` names the unknown binary and the valid choices.
fn parse_only(args: &[String]) -> Result<Option<Vec<&'static str>>, String> {
    let mut list: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--only=") {
            list = Some(v.to_string());
        } else if args[i] == "--only" {
            let v = args
                .get(i + 1)
                .ok_or("--only requires a comma-separated list of experiment binaries")?;
            list = Some(v.clone());
            i += 1;
        }
        i += 1;
    }
    let Some(list) = list else { return Ok(None) };
    let mut wanted = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match EXPERIMENTS.iter().find(|&&e| e == name) {
            Some(&e) => {
                if !wanted.contains(&e) {
                    wanted.push(e);
                }
            }
            None => {
                return Err(format!(
                    "unknown experiment {name:?}; valid: {}",
                    EXPERIMENTS.join(", ")
                ))
            }
        }
    }
    if wanted.is_empty() {
        return Err("--only selected no experiments".into());
    }
    // Keep the canonical transcript order regardless of how the user
    // ordered the list.
    let ordered: Vec<&'static str> = EXPERIMENTS
        .iter()
        .copied()
        .filter(|e| wanted.contains(e))
        .collect();
    Ok(Some(ordered))
}

/// Read `hits=H misses=M ...` from a child's stats file, if it wrote one.
fn read_cache_stats(path: &PathBuf) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let field = |name: &str| -> Option<u64> {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
    };
    Some((field("hits")?, field("misses")?))
}

/// Is the cell cache active in this environment?
fn cache_active() -> bool {
    matches!(
        std::env::var("PERSPECTIVE_CACHE").as_deref().map(str::trim),
        Ok("1") | Ok("on") | Ok("verify")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = report::json_mode();
    let selected: Vec<&'static str> = match parse_only(&args) {
        Ok(Some(subset)) => subset,
        Ok(None) => EXPERIMENTS.to_vec(),
        Err(e) => {
            eprintln!("run_all: {e}");
            std::process::exit(1);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("run_all: cannot locate own executable (needed to find sibling experiment binaries): {e}");
            std::process::exit(1);
        }
    };
    let Some(dir) = exe.parent().map(|p| p.to_path_buf()) else {
        eprintln!("run_all: executable path {exe:?} has no parent directory");
        std::process::exit(1);
    };
    let started = std::time::Instant::now();
    let stats_dir = std::env::temp_dir();
    let pid = std::process::id();
    // Split the worker budget: up to four children at a time, each given
    // an equal share of the configured thread count for its own matrix.
    let total = runner::num_threads();
    let outer = total.clamp(1, 4);
    let inner = (total / outer).max(1);
    let runs = runner::run_parallel(outer, selected.clone(), |bin| {
        let stats_file = stats_dir.join(format!("persp-cache-stats-{pid}-{bin}.txt"));
        let _ = std::fs::remove_file(&stats_file);
        let mut cmd = Command::new(dir.join(bin));
        cmd.env("PERSPECTIVE_THREADS", inner.to_string());
        cmd.env("PERSPECTIVE_CACHE_STATS_FILE", &stats_file);
        if json {
            cmd.arg("--json");
        }
        let t0 = Instant::now();
        let out = cmd.output();
        let wall_secs = t0.elapsed().as_secs_f64();
        let cache = read_cache_stats(&stats_file);
        let _ = std::fs::remove_file(&stats_file);
        match out {
            Ok(out) => ChildRun {
                ok: out.status.success(),
                stdout: out.stdout,
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
                wall_secs,
                cache,
            },
            Err(e) => ChildRun {
                ok: false,
                stdout: Vec::new(),
                stderr: format!("failed to spawn {bin}: {e}"),
                wall_secs,
                cache,
            },
        }
    });

    let mut failures: Vec<(&str, String)> = Vec::new();

    if json {
        let mut children = Vec::new();
        for (bin, run) in selected.iter().zip(&runs) {
            if !run.ok {
                failures.push((bin, tail(&run.stderr, 20)));
                continue;
            }
            let text = String::from_utf8_lossy(&run.stdout);
            match Json::parse(text.trim()) {
                Ok(doc) => children.push((bin.to_string(), doc)),
                Err(e) => failures.push((bin, format!("unparseable JSON output: {e}"))),
            }
        }
        if failures.is_empty() {
            let doc =
                report::experiment_json("run_all", vec![("experiments", Json::Object(children))]);
            report::emit(&doc);
        }
    } else {
        for (bin, run) in selected.iter().zip(&runs) {
            println!("\n################ {bin} ################");
            print!("{}", String::from_utf8_lossy(&run.stdout));
            if !run.stderr.is_empty() {
                eprintln!("---- {bin} stderr ----");
                eprintln!("{}", run.stderr.trim_end());
            }
            if !run.ok {
                failures.push((bin, tail(&run.stderr, 20)));
            }
        }
        if failures.is_empty() {
            // Transcript-only timing note — never in --json, whose
            // documents must stay byte-identical run to run.
            let ff = runner::core_config_from_env().idle_fastforward;
            println!(
                "\nAll experiments completed in {:.1} s wall-clock \
                 (idle-cycle fast-forward: {}).",
                started.elapsed().as_secs_f64(),
                if ff {
                    "on; PERSPECTIVE_NO_FASTFWD=1 selects the cycle-by-cycle slow path"
                } else {
                    "off"
                }
            );
        }
    }

    // Per-experiment wall clock + cache summary. Observability only:
    // stderr under --json (the document must not change between cold and
    // warm runs), stdout after the timing note otherwise.
    let summary = {
        let mut t = String::new();
        t.push_str(&format!(
            "{:<20} {:>9} {:>12} {:>12}\n",
            "experiment", "wall(s)", "cache-hits", "cache-misses"
        ));
        let (mut th, mut tm) = (0u64, 0u64);
        for (bin, run) in selected.iter().zip(&runs) {
            let (h, m) = match run.cache {
                Some((h, m)) => {
                    th += h;
                    tm += m;
                    (h.to_string(), m.to_string())
                }
                None => ("-".into(), "-".into()),
            };
            t.push_str(&format!(
                "{:<20} {:>9.1} {:>12} {:>12}\n",
                bin, run.wall_secs, h, m
            ));
        }
        t.push_str(&format!(
            "{:<20} {:>9.1} {:>12} {:>12}\n",
            "total",
            started.elapsed().as_secs_f64(),
            if cache_active() {
                th.to_string()
            } else {
                "-".into()
            },
            if cache_active() {
                tm.to_string()
            } else {
                "-".into()
            },
        ));
        t
    };
    if json {
        eprint!("{summary}");
    } else {
        println!();
        print!("{summary}");
    }

    if !failures.is_empty() {
        for (bin, stderr_tail) in &failures {
            eprintln!("error: {bin} failed; stderr tail:");
            for line in stderr_tail.lines() {
                eprintln!("    {line}");
            }
        }
        eprintln!(
            "error: {}/{} experiments failed",
            failures.len(),
            selected.len()
        );
        std::process::exit(1);
    }
}
