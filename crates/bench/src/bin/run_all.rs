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

use persp_workloads::memo::CacheMode;
use persp_workloads::report::{self, Json};
use persp_workloads::{run_parallel, RunConfig};
use std::path::Path;
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
/// cache hits and misses the child reported (when it used the cache).
struct ChildRun {
    ok: bool,
    stdout: String,
    stderr: String,
    wall_secs: f64,
    cache: Option<(u64, u64)>,
}

/// The last 20 lines of a child's stderr (the part worth echoing into a
/// failure report).
fn tail(stderr: &str) -> String {
    let lines: Vec<&str> = stderr.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

/// The experiments `--only a,b,c` (or `--only=a,b,c`) selects, in
/// [`EXPERIMENTS`] order; all of them without the flag. `Err` names an
/// unknown binary and the valid choices.
fn parse_only(args: &[String]) -> Result<Vec<&'static str>, String> {
    let mut list = None;
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix("--only=") {
            list = Some(v);
        } else if arg == "--only" {
            let v = args
                .get(i + 1)
                .ok_or("--only requires a comma-separated list of experiment binaries")?;
            list = Some(v.as_str());
        }
    }
    let Some(list) = list else {
        return Ok(EXPERIMENTS.to_vec());
    };
    let names: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if let Some(name) = names.iter().find(|n| !EXPERIMENTS.contains(n)) {
        let valid = EXPERIMENTS.join(", ");
        return Err(format!("unknown experiment {name:?}; valid: {valid}"));
    }
    if names.is_empty() {
        return Err("--only selected no experiments".into());
    }
    // The canonical transcript order, however the list was ordered.
    Ok(EXPERIMENTS
        .into_iter()
        .filter(|e| names.contains(e))
        .collect())
}

/// Read `hits=H misses=M ...` from a child's stats file, if it wrote one.
fn read_cache_stats(path: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let field = |name: &str| -> Option<u64> {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
    };
    Some((field("hits")?, field("misses")?))
}

fn main() {
    let cfg = RunConfig::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |msg: String| -> ! {
        eprintln!("run_all: {msg}");
        std::process::exit(1);
    };
    let selected = parse_only(&args).unwrap_or_else(|e| fail(e));
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        fail(format!(
            "cannot locate own executable (needed to find sibling experiment binaries): {e}"
        ))
    });
    let Some(dir) = exe.parent() else {
        fail(format!("executable path {exe:?} has no parent directory"));
    };
    let started = Instant::now();
    let stats_dir = std::env::temp_dir();
    let pid = std::process::id();
    // Split the worker budget: up to four children at a time, each given
    // an equal share of the configured thread count for its own matrix.
    let outer = cfg.threads.clamp(1, 4);
    let inner = (cfg.threads / outer).max(1);
    let runs = run_parallel(outer, selected.clone(), |bin| {
        let stats_file = stats_dir.join(format!("persp-cache-stats-{pid}-{bin}.txt"));
        let _ = std::fs::remove_file(&stats_file);
        let t0 = Instant::now();
        let out = Command::new(dir.join(bin))
            .env("PERSPECTIVE_THREADS", inner.to_string())
            .env("PERSPECTIVE_CACHE_STATS_FILE", &stats_file)
            .args(cfg.json.then_some("--json"))
            .output();
        let wall_secs = t0.elapsed().as_secs_f64();
        let cache = read_cache_stats(&stats_file);
        let _ = std::fs::remove_file(&stats_file);
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        let (ok, stdout, stderr) = match out {
            Ok(out) => (out.status.success(), text(&out.stdout), text(&out.stderr)),
            Err(e) => (false, String::new(), format!("failed to spawn {bin}: {e}")),
        };
        ChildRun {
            ok,
            stdout,
            stderr,
            wall_secs,
            cache,
        }
    });

    let mut failures: Vec<(&str, String)> = Vec::new();
    if cfg.json {
        let mut children = Vec::new();
        for (bin, run) in selected.iter().zip(&runs) {
            let doc = match run.ok {
                true => Json::parse(run.stdout.trim())
                    .map_err(|e| format!("unparseable JSON output: {e}")),
                false => Err(tail(&run.stderr)),
            };
            match doc {
                Ok(doc) => children.push((bin.to_string(), doc)),
                Err(e) => failures.push((bin, e)),
            }
        }
        if failures.is_empty() {
            let children = vec![("experiments", Json::Object(children))];
            report::emit(&report::experiment_json("run_all", cfg.kernel, children));
        }
    } else {
        for (bin, run) in selected.iter().zip(&runs) {
            println!("\n################ {bin} ################");
            print!("{}", run.stdout);
            if !run.stderr.is_empty() {
                eprintln!("---- {bin} stderr ----");
                eprintln!("{}", run.stderr.trim_end());
            }
            if !run.ok {
                failures.push((bin, tail(&run.stderr)));
            }
        }
        if failures.is_empty() {
            // Transcript-only timing note — never in --json, whose
            // documents must stay byte-identical run to run.
            let ff = match cfg.core.idle_fastforward {
                true => "on; PERSPECTIVE_NO_FASTFWD=1 selects the cycle-by-cycle slow path",
                false => "off",
            };
            println!(
                "\nAll experiments completed in {:.1} s wall-clock \
                 (idle-cycle fast-forward: {ff}).",
                started.elapsed().as_secs_f64(),
            );
        }
    }

    // Per-experiment wall clock + cache summary. Observability only:
    // stderr under --json (the document must not change between cold and
    // warm runs), stdout after the timing note otherwise.
    let row = |name: &str, secs: f64, cache: Option<(u64, u64)>| {
        let (h, m) = cache.map_or(("-".into(), "-".into()), |(h, m)| {
            (h.to_string(), m.to_string())
        });
        format!("{name:<20} {secs:>9.1} {h:>12} {m:>12}\n")
    };
    let mut summary = format!(
        "{:<20} {:>9} {:>12} {:>12}\n",
        "experiment", "wall(s)", "cache-hits", "cache-misses"
    );
    for (bin, run) in selected.iter().zip(&runs) {
        summary += &row(bin, run.wall_secs, run.cache);
    }
    let totals = (cfg.cache.mode != CacheMode::Off).then(|| {
        let sum = |f: fn((u64, u64)) -> u64| runs.iter().filter_map(|r| r.cache).map(f).sum();
        (sum(|c| c.0), sum(|c| c.1))
    });
    summary += &row("total", started.elapsed().as_secs_f64(), totals);
    if cfg.json {
        eprint!("{summary}");
    } else {
        print!("\n{summary}");
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
