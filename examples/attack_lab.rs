//! Attack lab: run the paper's active and passive transient execution
//! attack PoCs with and without Perspective.
//!
//! ```sh
//! cargo run --release --example attack_lab
//! ```
//!
//! The active attack is Spectre v1 from the attacker's own kernel thread,
//! complete with in-µISA mistraining, out-of-bounds syscall, and a timed
//! flush+reload receiver. The passive attacks hijack the *victim's*
//! speculative control flow (BTB injection at the syscall dispatch, and
//! Retbleed-style RSB underflow) into a kernel gadget that leaks the
//! victim's own secret.

use persp_attacks::{run_active_attack, run_bhi, run_btb_hijack, run_retbleed};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use perspective::taxonomy::AttackOutcome;

fn show(label: &str, outcome: &AttackOutcome) {
    let verdict = match outcome {
        AttackOutcome::Leaked {
            recovered,
            expected,
        } if recovered == expected => {
            format!("LEAKED secret 0x{recovered:02x}")
        }
        AttackOutcome::Leaked { recovered, .. } => format!("noisy leak (0x{recovered:02x})"),
        AttackOutcome::Blocked => "blocked (no covert-channel signal)".to_string(),
        AttackOutcome::Inconclusive => "inconclusive".to_string(),
    };
    println!("  {label:<34} {verdict}");
}

fn main() {
    let image = KernelImage::build(KernelConfig::test_small());
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());
    let secret = 0x2A;

    for scheme in [Scheme::Unsafe, Scheme::Perspective] {
        println!("--- {} ---", scheme.name());
        let active = run_active_attack(scheme, &image, secret, pcfg, core);
        show("active Spectre v1 (steals victim)", &active.outcome);
        let v2 = run_btb_hijack(scheme, &image, secret, pcfg, core);
        show("passive v2 dispatch hijack", &v2.outcome);
        let rb = run_retbleed(scheme, &image, secret, pcfg, core);
        show("passive Retbleed (RSB underflow)", &rb.outcome);
        let bhi = run_bhi(scheme, &image, secret, pcfg, core);
        show("active BHI (bypassing eIBRS)", &bhi.outcome);
        println!();
    }

    println!("DSVs eliminate the active attack (foreign data is outside the");
    println!("attacker's data speculation view); ISVs block the passive attacks");
    println!("(the leak gadget is outside the victim's instruction speculation view).");
}
