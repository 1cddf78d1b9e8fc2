//! Golden-path checks for the machine-readable experiment output: the
//! `--json` documents must parse with our own reader and be
//! byte-identical whatever `PERSPECTIVE_THREADS` says.
//!
//! The children get their kernel/thread configuration through their own
//! environment (set on the spawned `Command`); this test never touches
//! the parent process environment.

use persp_workloads::report::Json;
use std::process::Command;

fn fig_9_2_json(threads: &str) -> String {
    fig_9_2_json_env(threads, &[])
}

fn fig_9_2_json_env(threads: &str, extra_env: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig_9_2"));
    cmd.arg("--json")
        .env("PERSPECTIVE_KERNEL", "small")
        .env("PERSPECTIVE_THREADS", threads);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn fig_9_2");
    assert!(
        out.status.success(),
        "fig_9_2 --json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("JSON output is UTF-8")
}

#[test]
fn fig_9_2_json_parses_and_is_identical_across_thread_widths() {
    let serial = fig_9_2_json("1");
    let parallel = fig_9_2_json("4");
    assert_eq!(
        serial, parallel,
        "--json output must be byte-identical across PERSPECTIVE_THREADS widths"
    );

    let doc = Json::parse(serial.trim()).expect("fig_9_2 emits valid JSON");
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("fig_9_2")
    );
    assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("small"));

    // The document carries the full measurement rows (scheme × workload)
    // plus the derived normalized numbers the transcript prints.
    let schemes = doc.get("schemes").and_then(Json::items).expect("schemes");
    let rows = doc.get("rows").and_then(Json::items).expect("rows");
    assert!(!schemes.is_empty());
    assert_eq!(rows.len() % schemes.len(), 0, "rows form a full matrix");
    for row in rows {
        assert!(row.get("scheme").and_then(Json::as_str).is_some());
        assert!(row.get("workload").and_then(Json::as_str).is_some());
        let metrics = row.get("metrics").expect("attribution metrics");
        let stall_total = metrics
            .get("sim.stall_cycles")
            .and_then(Json::as_u64)
            .expect("sim.stall_cycles");
        // The stall attribution partitions the stall cycles exactly.
        let parts: u64 = [
            "isv_fence",
            "dsv_fence",
            "isv_miss",
            "dsvmt_miss",
            "squash",
            "vp_wait",
            "frontend",
            "backend",
        ]
        .iter()
        .map(|k| {
            metrics
                .get(&format!("sim.stall.{k}"))
                .and_then(Json::as_u64)
                .expect("stall class")
        })
        .sum();
        assert_eq!(parts, stall_total, "stall classes partition stall cycles");
    }

    // Our writer is a fixed point of our parser.
    assert_eq!(doc.render(), serial.trim());
}

#[test]
fn fig_9_2_json_is_identical_with_the_fast_forward_disabled() {
    // The idle-cycle fast-forward is a pure simulation-speed
    // optimization: forcing the cycle-by-cycle slow path through
    // PERSPECTIVE_NO_FASTFWD=1 must reproduce the exact same document,
    // byte for byte — every cycle count, stall bucket, and cache
    // counter included.
    let fast = fig_9_2_json("4");
    let slow = fig_9_2_json_env("4", &[("PERSPECTIVE_NO_FASTFWD", "1")]);
    assert_eq!(
        fast, slow,
        "--json output must be byte-identical with the fast-forward on and off"
    );
}
