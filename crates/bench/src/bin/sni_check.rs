//! Speculative non-interference checker — the dynamic verification
//! counterpart to the performance experiments.
//!
//! Three sections, one verdict:
//!
//! 1. **Clean runs** — every LEBench workload under the UNSAFE baseline
//!    and under full-enforcement Perspective, with the shadow oracle and
//!    leakage monitor attached. Perspective must report **zero** SNI
//!    violations; the unprotected baseline must be flagged (it issues
//!    speculative loads the pristine metadata forbids).
//! 2. **Attack scenario** — the active Spectre v1 PoC with the monitor
//!    attached: under UNSAFE the stolen byte is visible as tainted
//!    transmits *at the microarchitectural level*; under Perspective all
//!    counters are zero and the byte stays secret.
//! 3. **Fault injection** — seeded `FaultPlan`s deterministically flip
//!    policy decisions, evict metadata-cache entries, and corrupt DSV
//!    ownership responses mid-run; the checker must independently flag
//!    100% of the injected violations (a caught fault is the test
//!    passing), and faulted runs degrade gracefully instead of
//!    panicking.
//!
//! `--json` emits one machine-readable document (byte-identical at any
//! `PERSPECTIVE_THREADS` width); the exit status is nonzero if any
//! property fails, so the CI smoke run is a real check.

use persp_attacks::active::run_active_attack_sni;
use persp_bench::{header, kernel_config, kernel_image};
use persp_workloads::report::{self, Json};
use persp_workloads::sni::{run_sni_workload, SniReport, DEFAULT_SHADOW_BUDGET};
use persp_workloads::{lebench, runner};
use perspective::fault::FaultPlan;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

/// Fixed seed base for the canned fault plans (one per faulted run).
const FAULT_SEED_BASE: u64 = 0x5EED_0001;
/// Workloads the fault-injection section runs (kept small for CI).
const FAULT_WORKLOADS: &[&str] = &["getpid", "small-read", "mmap", "select"];

fn clean_json(r: &SniReport) -> Json {
    let mut pairs = vec![
        ("workload", Json::str(r.workload)),
        ("scheme", Json::str(r.scheme.name())),
        ("cycles", Json::UInt(r.cycles)),
        ("violations", Json::UInt(r.violations())),
        ("unsafe_issues", Json::UInt(r.sni.unsafe_issues)),
        ("tainted_transmits", Json::UInt(r.sni.tainted_transmits)),
        ("secret_spec_loads", Json::UInt(r.sni.secret_spec_loads)),
        (
            "committed_secret_roots",
            Json::UInt(r.sni.committed_secret_roots),
        ),
        ("shadow_checked", Json::UInt(r.sni.shadow_checked)),
        ("shadow_mismatches", Json::UInt(r.sni.shadow_mismatches)),
        ("taint_roots_overflow", Json::UInt(r.taint_roots_overflow)),
    ];
    match &r.degraded {
        Some(reason) => pairs.push(("degraded", Json::str(reason.clone()))),
        None => pairs.push(("degraded", Json::Null)),
    }
    Json::obj(pairs)
}

fn fault_json(r: &SniReport, seed: u64) -> Json {
    let f = r.faults.expect("fault section always has a plan");
    Json::obj(vec![
        ("workload", Json::str(r.workload)),
        ("seed", Json::UInt(seed)),
        ("decisions_seen", Json::UInt(f.decisions_seen)),
        (
            "blocks_flipped_to_allow",
            Json::UInt(f.blocks_flipped_to_allow),
        ),
        (
            "allows_flipped_to_block",
            Json::UInt(f.allows_flipped_to_block),
        ),
        (
            "dsv_responses_corrupted",
            Json::UInt(f.dsv_responses_corrupted),
        ),
        ("metadata_evictions", Json::UInt(f.metadata_evictions)),
        ("injected_violations", Json::UInt(f.injected_violations)),
        ("detected_unsafe_issues", Json::UInt(r.sni.unsafe_issues)),
        (
            "detected_all",
            Json::Bool(r.sni.unsafe_issues == f.injected_violations),
        ),
        (
            "degraded",
            match &r.degraded {
                Some(reason) => Json::str(reason.clone()),
                None => Json::Null,
            },
        ),
    ])
}

fn main() {
    let threads = runner::num_threads();
    let image = kernel_image();
    let suite = lebench::suite();
    let pcfg = PerspectiveConfig::default();

    // Section 1: clean runs, UNSAFE vs full-enforcement Perspective.
    let clean_jobs: Vec<(usize, Scheme)> = (0..suite.len())
        .flat_map(|w| [(w, Scheme::Unsafe), (w, Scheme::Perspective)])
        .collect();
    let clean: Vec<SniReport> = runner::run_parallel(threads, clean_jobs, |(w, scheme)| {
        run_sni_workload(scheme, &image, &suite[w], pcfg, None, DEFAULT_SHADOW_BUDGET)
    });

    // Section 3 (computed before output): deterministic fault injection
    // against full-enforcement Perspective.
    let fault_jobs: Vec<(usize, u64)> = FAULT_WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let w = suite
                .iter()
                .position(|x| x.name == *name)
                .expect("fault workload exists in the suite");
            (w, FAULT_SEED_BASE + i as u64)
        })
        .collect();
    let faulted: Vec<(SniReport, u64)> = runner::run_parallel(threads, fault_jobs, |(w, seed)| {
        (
            run_sni_workload(
                Scheme::Perspective,
                &image,
                &suite[w],
                pcfg,
                Some(FaultPlan::canned(seed)),
                DEFAULT_SHADOW_BUDGET,
            ),
            seed,
        )
    });

    // Section 2: the active-attack scenario (serial; builds its own labs).
    let attack_unsafe = run_active_attack_sni(
        Scheme::Unsafe,
        kernel_config(),
        0x2A,
        pcfg,
        pcfg,
        DEFAULT_SHADOW_BUDGET,
    );
    let attack_persp = run_active_attack_sni(
        Scheme::Perspective,
        kernel_config(),
        0x2A,
        pcfg,
        pcfg,
        DEFAULT_SHADOW_BUDGET,
    );

    // Verdicts.
    let persp_clean: Vec<&SniReport> = clean
        .iter()
        .filter(|r| r.scheme == Scheme::Perspective)
        .collect();
    let unsafe_clean: Vec<&SniReport> = clean
        .iter()
        .filter(|r| r.scheme == Scheme::Unsafe)
        .collect();
    let clean_violations: u64 = persp_clean.iter().map(|r| r.violations()).sum();
    let clean_ok = clean_violations == 0 && persp_clean.iter().all(|r| r.degraded.is_none());
    let baseline_flagged = unsafe_clean
        .iter()
        .filter(|r| r.sni.unsafe_issues > 0)
        .count();
    let baseline_ok = baseline_flagged > 0;
    let injected_total: u64 = faulted
        .iter()
        .filter_map(|(r, _)| r.faults)
        .map(|f| f.injected_violations)
        .sum();
    let detected_total: u64 = faulted.iter().map(|(r, _)| r.sni.unsafe_issues).sum();
    let faults_ok = injected_total > 0
        && faulted.iter().all(|(r, _)| {
            r.faults
                .is_some_and(|f| r.sni.unsafe_issues == f.injected_violations)
        });
    let attack_ok = match (&attack_unsafe, &attack_persp) {
        (Ok(u), Ok(p)) => {
            u.sni.tainted_transmits > 0 && u.sni.secret_spec_loads > 0 && p.sni.violations() == 0
        }
        _ => false,
    };
    let pass = clean_ok && baseline_ok && faults_ok && attack_ok;

    if report::json_mode() {
        let attack_row =
            |label: &str, res: &Result<persp_attacks::active::SniAttackReport, String>| match res {
                Ok(r) => Json::obj(vec![
                    ("scheme", Json::str(label)),
                    ("leaked", Json::Bool(r.attack.hot_lines.contains(&0x2A))),
                    ("secret_spec_loads", Json::UInt(r.sni.secret_spec_loads)),
                    ("tainted_transmits", Json::UInt(r.sni.tainted_transmits)),
                    ("unsafe_issues", Json::UInt(r.sni.unsafe_issues)),
                    ("shadow_mismatches", Json::UInt(r.sni.shadow_mismatches)),
                    ("degraded", Json::Null),
                ]),
                Err(e) => Json::obj(vec![
                    ("scheme", Json::str(label)),
                    ("degraded", Json::str(e.clone())),
                ]),
            };
        let doc = report::experiment_json(
            "sni_check",
            vec![
                ("shadow_budget", Json::UInt(DEFAULT_SHADOW_BUDGET)),
                ("clean", Json::Array(clean.iter().map(clean_json).collect())),
                (
                    "attack",
                    Json::Array(vec![
                        attack_row("UNSAFE", &attack_unsafe),
                        attack_row("PERSPECTIVE", &attack_persp),
                    ]),
                ),
                (
                    "faults",
                    Json::Array(faulted.iter().map(|(r, s)| fault_json(r, *s)).collect()),
                ),
                (
                    "summary",
                    Json::obj(vec![
                        ("clean_perspective_violations", Json::UInt(clean_violations)),
                        ("baseline_flagged_runs", Json::UInt(baseline_flagged as u64)),
                        ("injected_total", Json::UInt(injected_total)),
                        ("detected_total", Json::UInt(detected_total)),
                        ("pass", Json::Bool(pass)),
                    ]),
                ),
            ],
        );
        report::emit(&doc);
    } else {
        header(
            "SNI check: shadow oracle, leakage monitor, fault injection",
            "the paper's security claims (§8), verified dynamically",
        );
        println!(
            "{:<16} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "workload", "scheme", "violations", "secrets", "transmits", "shadow"
        );
        println!("{}", "-".repeat(74));
        for r in &clean {
            println!(
                "{:<16} {:>12} {:>10} {:>10} {:>10} {:>10}{}",
                r.workload,
                r.scheme.name(),
                r.violations(),
                r.sni.secret_spec_loads,
                r.sni.tainted_transmits,
                r.sni.shadow_checked,
                r.degraded
                    .as_deref()
                    .map(|d| format!("  DEGRADED: {d}"))
                    .unwrap_or_default(),
            );
        }
        println!();
        for (label, res) in [("UNSAFE", &attack_unsafe), ("PERSPECTIVE", &attack_persp)] {
            match res {
                Ok(r) => println!(
                    "attack under {label:<12}: secrets={} transmits={} unsafe={} leaked={}",
                    r.sni.secret_spec_loads,
                    r.sni.tainted_transmits,
                    r.sni.unsafe_issues,
                    r.attack.hot_lines.contains(&0x2A),
                ),
                Err(e) => println!("attack under {label:<12}: DEGRADED: {e}"),
            }
        }
        println!();
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10}",
            "fault workload", "decisions", "injected", "detected", "evictions"
        );
        println!("{}", "-".repeat(62));
        for (r, _) in &faulted {
            let f = r.faults.expect("plan active");
            println!(
                "{:<16} {:>10} {:>10} {:>10} {:>10}{}",
                r.workload,
                f.decisions_seen,
                f.injected_violations,
                r.sni.unsafe_issues,
                f.metadata_evictions,
                r.degraded
                    .as_deref()
                    .map(|d| format!("  DEGRADED: {d}"))
                    .unwrap_or_default(),
            );
        }
        println!();
        println!(
            "clean Perspective violations: {clean_violations} (want 0) — {}",
            if clean_ok { "ok" } else { "FAIL" }
        );
        println!(
            "UNSAFE workload runs flagged: {baseline_flagged}/{} (want >0) — {}",
            unsafe_clean.len(),
            if baseline_ok { "ok" } else { "FAIL" }
        );
        println!(
            "injected faults detected: {detected_total}/{injected_total} — {}",
            if faults_ok { "ok" } else { "FAIL" }
        );
        println!("attack scenario: {}", if attack_ok { "ok" } else { "FAIL" });
        println!("verdict: {}", if pass { "PASS" } else { "FAIL" });
    }

    if !pass {
        std::process::exit(1);
    }
}
