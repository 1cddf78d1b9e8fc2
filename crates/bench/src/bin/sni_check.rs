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

use persp_attacks::active::{run_active_attack_sni, SniAttackReport};
use persp_bench::{header, output, Images};
use persp_workloads::report::Json;
use persp_workloads::sni::{run_sni_workload, SniReport, DEFAULT_SHADOW_BUDGET};
use persp_workloads::{lebench, run_parallel, RunConfig, Workload};
use perspective::fault::FaultPlan;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

/// Fixed seed base for the canned fault plans (one per faulted run).
const FAULT_SEED_BASE: u64 = 0x5EED_0001;
/// Workloads the fault-injection section runs (kept small for CI).
const FAULT_WORKLOADS: &[&str] = &["getpid", "small-read", "mmap", "select"];
/// The byte the attack scenario tries to steal.
const SECRET: u8 = 0x2A;

/// The attack scenario under one scheme: the run's report (or why it
/// degraded) and whether the secret byte leaked.
struct AttackRun {
    label: &'static str,
    report: Result<SniAttackReport, String>,
    leaked: bool,
}

/// Why a run degraded, or `null`.
fn degraded_json(degraded: &Option<String>) -> Json {
    degraded
        .as_ref()
        .map_or(Json::Null, |d| Json::str(d.clone()))
}

/// The transcript's note on a degraded run (empty when it completed).
fn degraded_note(degraded: &Option<String>) -> String {
    degraded
        .as_deref()
        .map(|d| format!("  DEGRADED: {d}"))
        .unwrap_or_default()
}

fn clean_json(r: &SniReport) -> Json {
    let n = Json::UInt;
    Json::obj(vec![
        ("workload", Json::str(r.workload)),
        ("scheme", Json::str(r.scheme.name())),
        ("cycles", n(r.cycles)),
        ("violations", n(r.violations())),
        ("unsafe_issues", n(r.sni.unsafe_issues)),
        ("tainted_transmits", n(r.sni.tainted_transmits)),
        ("secret_spec_loads", n(r.sni.secret_spec_loads)),
        ("committed_secret_roots", n(r.sni.committed_secret_roots)),
        ("shadow_checked", n(r.sni.shadow_checked)),
        ("shadow_mismatches", n(r.sni.shadow_mismatches)),
        ("taint_roots_overflow", n(r.taint_roots_overflow)),
        ("degraded", degraded_json(&r.degraded)),
    ])
}

fn attack_json(a: &AttackRun) -> Json {
    let n = Json::UInt;
    match &a.report {
        Ok(r) => Json::obj(vec![
            ("scheme", Json::str(a.label)),
            ("leaked", Json::Bool(a.leaked)),
            ("secret_spec_loads", n(r.sni.secret_spec_loads)),
            ("tainted_transmits", n(r.sni.tainted_transmits)),
            ("unsafe_issues", n(r.sni.unsafe_issues)),
            ("shadow_mismatches", n(r.sni.shadow_mismatches)),
            ("degraded", Json::Null),
        ]),
        Err(e) => Json::obj(vec![
            ("scheme", Json::str(a.label)),
            ("degraded", Json::str(e.clone())),
        ]),
    }
}

fn fault_json(r: &SniReport, seed: u64) -> Json {
    let f = r.faults.expect("fault section always has a plan");
    let n = Json::UInt;
    Json::obj(vec![
        ("workload", Json::str(r.workload)),
        ("seed", n(seed)),
        ("decisions_seen", n(f.decisions_seen)),
        ("blocks_flipped_to_allow", n(f.blocks_flipped_to_allow)),
        ("allows_flipped_to_block", n(f.allows_flipped_to_block)),
        ("dsv_responses_corrupted", n(f.dsv_responses_corrupted)),
        ("metadata_evictions", n(f.metadata_evictions)),
        ("injected_violations", n(f.injected_violations)),
        ("detected_unsafe_issues", n(r.sni.unsafe_issues)),
        (
            "detected_all",
            Json::Bool(r.sni.unsafe_issues == f.injected_violations),
        ),
        ("degraded", degraded_json(&r.degraded)),
    ])
}

fn main() {
    let cfg = RunConfig::from_process();
    let images = Images::default();
    let image = images.get(&cfg);
    let suite = lebench::suite();
    let pcfg = PerspectiveConfig::default();

    let sni = |w: &Workload, scheme, plan| {
        run_sni_workload(
            scheme,
            image,
            w,
            pcfg,
            cfg.core,
            plan,
            DEFAULT_SHADOW_BUDGET,
        )
    };

    // Section 1: clean runs, UNSAFE vs full-enforcement Perspective.
    let clean_jobs: Vec<(&Workload, Scheme)> = suite
        .iter()
        .flat_map(|w| [(w, Scheme::Unsafe), (w, Scheme::Perspective)])
        .collect();
    let clean = run_parallel(cfg.threads, clean_jobs, |(w, scheme)| sni(w, scheme, None));

    // Section 3 (computed before output): deterministic fault injection
    // against full-enforcement Perspective, one seeded plan per workload.
    let fault_jobs: Vec<(&str, u64)> = FAULT_WORKLOADS
        .iter()
        .copied()
        .zip(FAULT_SEED_BASE..)
        .collect();
    let faulted: Vec<(SniReport, u64)> = run_parallel(cfg.threads, fault_jobs, |(name, seed)| {
        let w = lebench::by_name(name).expect("fault workload exists in the suite");
        let plan = Some(FaultPlan::canned(seed));
        (sni(&w, Scheme::Perspective, plan), seed)
    });

    // Section 2: the active-attack scenario (serial; one lab per scheme
    // on the same image).
    let attack = |label, scheme| {
        let budget = DEFAULT_SHADOW_BUDGET;
        let report = run_active_attack_sni(scheme, image, SECRET, pcfg, cfg.core, budget);
        let leaked = report
            .as_ref()
            .is_ok_and(|r| r.attack.hot_lines.contains(&SECRET));
        AttackRun {
            label,
            report,
            leaked,
        }
    };
    let attacks = [
        attack("UNSAFE", Scheme::Unsafe),
        attack("PERSPECTIVE", Scheme::Perspective),
    ];

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
    let attack_ok = match (&attacks[0].report, &attacks[1].report) {
        (Ok(u), Ok(p)) => {
            u.sni.tainted_transmits > 0 && u.sni.secret_spec_loads > 0 && p.sni.violations() == 0
        }
        _ => false,
    };
    let pass = clean_ok && baseline_ok && faults_ok && attack_ok;

    output(
        &cfg,
        "sni_check",
        || {
            vec![
                ("shadow_budget", Json::UInt(DEFAULT_SHADOW_BUDGET)),
                ("clean", Json::Array(clean.iter().map(clean_json).collect())),
                (
                    "attack",
                    Json::Array(attacks.iter().map(attack_json).collect()),
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
            ]
        },
        || {
            let mut t = header(
                "SNI check: shadow oracle, leakage monitor, fault injection",
                "the paper's security claims (§8), verified dynamically",
            );
            t += &format!(
                "{:<16} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
                "workload", "scheme", "violations", "secrets", "transmits", "shadow"
            );
            t += &format!("{}\n", "-".repeat(74));
            for r in &clean {
                t += &format!(
                    "{:<16} {:>12} {:>10} {:>10} {:>10} {:>10}{}\n",
                    r.workload,
                    r.scheme.name(),
                    r.violations(),
                    r.sni.secret_spec_loads,
                    r.sni.tainted_transmits,
                    r.sni.shadow_checked,
                    degraded_note(&r.degraded),
                );
            }
            t.push('\n');
            for a in &attacks {
                let label = a.label;
                t += &match &a.report {
                    Ok(r) => format!(
                        "attack under {label:<12}: secrets={} transmits={} unsafe={} leaked={}\n",
                        r.sni.secret_spec_loads,
                        r.sni.tainted_transmits,
                        r.sni.unsafe_issues,
                        a.leaked,
                    ),
                    Err(e) => format!("attack under {label:<12}: DEGRADED: {e}\n"),
                };
            }
            t.push('\n');
            t += &format!(
                "{:<16} {:>10} {:>10} {:>10} {:>10}\n",
                "fault workload", "decisions", "injected", "detected", "evictions"
            );
            t += &format!("{}\n", "-".repeat(62));
            for (r, _) in &faulted {
                let f = r.faults.expect("plan active");
                t += &format!(
                    "{:<16} {:>10} {:>10} {:>10} {:>10}{}\n",
                    r.workload,
                    f.decisions_seen,
                    f.injected_violations,
                    r.sni.unsafe_issues,
                    f.metadata_evictions,
                    degraded_note(&r.degraded),
                );
            }
            let ok = |pass: bool| if pass { "ok" } else { "FAIL" };
            let (c, b, f, a) = (ok(clean_ok), ok(baseline_ok), ok(faults_ok), ok(attack_ok));
            let (n, verdict) = (unsafe_clean.len(), if pass { "PASS" } else { "FAIL" });
            t + &format!(
                "
clean Perspective violations: {clean_violations} (want 0) — {c}
UNSAFE workload runs flagged: {baseline_flagged}/{n} (want >0) — {b}
injected faults detected: {detected_total}/{injected_total} — {f}
attack scenario: {a}
verdict: {verdict}
"
            )
        },
    )
    .print();

    if !pass {
        std::process::exit(1);
    }
}
