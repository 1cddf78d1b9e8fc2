//! What the experiment binaries report on stderr: an invalid environment
//! setting once per process, not once per measured cell, worker batch or
//! experiment (the binaries spawned here run dozens of cells, several
//! worker pools and, for `run_all`, every experiment); and a kernel image
//! build once per scale.
//!
//! The binaries get their configuration through their own environment
//! (set on the spawned `Command`); these tests never touch the test
//! process's environment.

use std::process::Command;

/// Run `bin` with `args` on the small kernel with an invalid
/// `PERSPECTIVE_NO_FASTFWD` and an invalid `PERSPECTIVE_THREADS`, and
/// return its stderr.
fn stderr_with_bad_env(bin: &str, exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .env("PERSPECTIVE_KERNEL", "small")
        .env("PERSPECTIVE_NO_FASTFWD", "yes")
        .env("PERSPECTIVE_THREADS", "zero")
        .env_remove("PERSPECTIVE_CACHE")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{bin} {args:?} failed: {stderr}");
    stderr
}

fn assert_one_warning_per_variable(bin: &str, exe: &str, args: &[&str]) {
    let stderr = stderr_with_bad_env(bin, exe, args);
    for var in ["PERSPECTIVE_NO_FASTFWD", "PERSPECTIVE_THREADS"] {
        let warnings = stderr
            .lines()
            .filter(|l| l.starts_with("warning:") && l.contains(var))
            .count();
        assert_eq!(warnings, 1, "{bin}: {var} warnings in:\n{stderr}");
    }
}

#[test]
fn ablation_warns_once_per_invalid_variable() {
    assert_one_warning_per_variable("ablation", env!("CARGO_BIN_EXE_ablation"), &["--json"]);
}

#[test]
fn sensitivity_warns_once_per_invalid_variable() {
    let exe = env!("CARGO_BIN_EXE_sensitivity");
    assert_one_warning_per_variable("sensitivity", exe, &["--json"]);
}

/// Every experiment runs inside `run_all`'s process, so the settings are
/// parsed, and a bad value reported, once for all 14.
#[test]
fn run_all_warns_once_per_invalid_variable() {
    assert_one_warning_per_variable("run_all", env!("CARGO_BIN_EXE_run_all"), &[]);
}

/// Experiments at the same scale share one kernel image, and its build
/// time is reported on stderr under `--json` too.
#[test]
fn run_all_builds_one_image_per_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--json", "--only", "table_8_1,fig_9_2"])
        .env("PERSPECTIVE_KERNEL", "small")
        .env("PERSPECTIVE_IMAGE_TIMING", "1")
        .env_remove("PERSPECTIVE_CACHE")
        .output()
        .expect("spawn run_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run_all failed: {stderr}");
    let images = stderr
        .lines()
        .filter(|l| l.starts_with("kernel image:"))
        .count();
    assert_eq!(images, 1, "kernel image lines in:\n{stderr}");
}
