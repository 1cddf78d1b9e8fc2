//! Experiments E10/E11 — Chapter 8's security analysis: proof-of-concept
//! active and passive transient execution attacks against every scheme.
//!
//! Active (Figure 4.1): Spectre v1 from the attacker's own kernel thread,
//! with an in-µISA flush+reload receiver. Passive (Figure 4.2): BTB
//! hijack of the syscall dispatch and Retbleed-style RSB underflow, both
//! coercing the *victim's* kernel thread into a leak gadget.

use crate::{header, output, Images, Output};
use persp_attacks::{
    plain_v2_fails_under_ibrs, run_active_attack, run_bhi, run_btb_hijack, run_ebpf_attack,
    run_retbleed, SCHEMES,
};
use persp_workloads::report::Json;
use persp_workloads::{KernelScale, RunConfig};
use perspective::policy::PerspectiveConfig;
use perspective::taxonomy::AttackOutcome;

/// The transcript titles of the five attack columns.
const TITLES: [&str; 5] = [
    "ACTIVE Spectre v1",
    "PASSIVE v2 dispatch",
    "PASSIVE Retbleed",
    "ACTIVE BHI (vs eIBRS)",
    "ACTIVE eBPF inject",
];

/// The JSON keys of the five attack columns.
const COLUMNS: [&str; 5] = [
    "active_spectre_v1",
    "passive_v2_dispatch",
    "passive_retbleed",
    "active_bhi",
    "active_ebpf",
];

/// A PoC's cell: the byte it recovered, else how many probe lines ran
/// hot.
fn outcome_str(o: &AttackOutcome, hot: &[u8]) -> String {
    match o {
        AttackOutcome::Leaked { recovered, .. } => format!("LEAKED 0x{recovered:02x}"),
        _ => format!("blocked ({} hot lines)", hot.len()),
    }
}

/// Run the experiment. It fails if eIBRS does not stop the plain v2
/// injection (the premise of the BHI column).
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    // The attack PoCs always run on the small kernel; attack feasibility
    // does not depend on kernel scale (the gadget and predictors are what
    // matter). The image and the document's kernel tag come from the same
    // configuration, so they cannot disagree.
    let cfg = &RunConfig {
        kernel: KernelScale::Small,
        ..cfg.clone()
    };
    let image = images.get(cfg);
    let (pcfg, core) = (PerspectiveConfig::default(), cfg.core);
    let secret = 0x2A;

    // Per scheme: the five attack-outcome cells, pre-rendered (the same
    // strings feed the transcript and the JSON document).
    let rows: Vec<(&'static str, [String; 5])> = SCHEMES
        .iter()
        .map(|&scheme| {
            let active = run_active_attack(scheme, image, secret, pcfg, core);
            let v2 = run_btb_hijack(scheme, image, secret, pcfg, core);
            let rb = run_retbleed(scheme, image, secret, pcfg, core);
            let bhi = run_bhi(scheme, image, secret, pcfg, core);
            let ebpf = run_ebpf_attack(scheme, image, secret, pcfg, core);
            let ebpf_str = match &ebpf.outcome {
                AttackOutcome::Leaked { recovered, .. } => {
                    format!("LEAKED 0x{recovered:02x} (8 bits)")
                }
                AttackOutcome::Blocked => "blocked".to_string(),
                _ => "inconclusive".to_string(),
            };
            (
                scheme.name(),
                [
                    outcome_str(&active.outcome, &active.hot_lines),
                    outcome_str(&v2.outcome, &v2.hot_lines),
                    outcome_str(&rb.outcome, &rb.hot_lines),
                    outcome_str(&bhi.outcome, &bhi.hot_lines),
                    ebpf_str,
                ],
            )
        })
        .collect();

    // eIBRS stops the plain v2 injection: BHI is the bypass.
    let ibrs_sanity = plain_v2_fails_under_ibrs(image, core);
    if !ibrs_sanity {
        return Err("sanity: eIBRS does not stop the plain v2 injection".into());
    }

    Ok(output(
        cfg,
        "security_poc",
        || {
            let json_rows = rows.iter().map(|(scheme, cells)| {
                let cols = COLUMNS.into_iter().zip(cells.clone().map(Json::str));
                Json::obj(
                    std::iter::once(("scheme", Json::str(*scheme)))
                        .chain(cols)
                        .collect(),
                )
            });
            vec![
                ("rows", Json::Array(json_rows.collect())),
                ("plain_v2_fails_under_ibrs", Json::Bool(ibrs_sanity)),
            ]
        },
        || {
            let mut t = header(
                "Security PoCs: active & passive transient execution attacks",
                "paper Chapter 8 (§8.1 active, §8.2 passive)",
            );
            let line = |scheme: &str, [v1, v2, rb, bhi, ebpf]: &[String; 5]| {
                format!("{scheme:<20} | {v1:<20} | {v2:<20} | {rb:<20} | {bhi:<21} | {ebpf:<20}\n")
            };
            t += &line("scheme", &TITLES.map(String::from));
            t += &format!("{}\n", "-".repeat(138));
            for (scheme, cells) in &rows {
                t += &line(scheme, cells);
            }
            t + "
sanity check: the plain v2 alias injection FAILS under eIBRS-style BTB
hardening; BHI bypasses it by steering the branch history (Table 4.1 row 5).

paper: UNSAFE leaks in all scenarios; spot mitigations miss Spectre v1;
       Perspective's DSVs eliminate active attacks (v1, BHI-assisted) and
       ISVs block the passive PoCs (the gadget is outside every victim ISV).
"
        },
    ))
}
