//! An invalid environment setting is reported once per process, not once
//! per measured cell or worker batch: the experiment bins spawned here run
//! dozens of cells and several worker pools, and each bad value must
//! still produce exactly one warning line on stderr.
//!
//! The children get their configuration through their own environment
//! (set on the spawned `Command`); this test never touches the parent
//! process environment.

use std::process::Command;

/// Run `bin --json` on the small kernel with an invalid
/// `PERSPECTIVE_NO_FASTFWD` and an invalid `PERSPECTIVE_THREADS`, and
/// return its stderr.
fn stderr_with_bad_env(bin: &str, exe: &str) -> String {
    let out = Command::new(exe)
        .arg("--json")
        .env("PERSPECTIVE_KERNEL", "small")
        .env("PERSPECTIVE_NO_FASTFWD", "yes")
        .env("PERSPECTIVE_THREADS", "zero")
        .env_remove("PERSPECTIVE_CACHE")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{bin} --json failed: {stderr}");
    stderr
}

fn assert_one_warning_per_variable(bin: &str, exe: &str) {
    let stderr = stderr_with_bad_env(bin, exe);
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
    assert_one_warning_per_variable("ablation", env!("CARGO_BIN_EXE_ablation"));
}

#[test]
fn sensitivity_warns_once_per_invalid_variable() {
    assert_one_warning_per_variable("sensitivity", env!("CARGO_BIN_EXE_sensitivity"));
}
