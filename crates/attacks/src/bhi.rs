//! Branch History Injection PoC (Table 4.1 row 5): bypassing
//! eIBRS-style BTB hardening.
//!
//! With the BTB in [`BtbMode::Ibrs`], entries are privilege-tagged and
//! the index/tag mix in the global branch history: the classic Spectre v2
//! injection (a user-mode jump at an aliasing address) no longer serves
//! kernel predictions — demonstrated by
//! [`plain_v2_fails_under_ibrs`]. But the *history register itself* is
//! attacker-controlled across the user→kernel transition. The attacker:
//!
//! 1. lets the kernel install a legitimate BTB entry for an ops-table
//!    handler that happens to be a *dispatch gadget* (it dereferences the
//!    first syscall-argument register — speculative type confusion);
//! 2. searches offline for a branch-history value under which the syscall
//!    dispatch's BTB lookup collides with that kernel entry (the BHB
//!    brute-force of the real PoC, here via
//!    [`Btb::find_colliding_history`](persp_uarch::predictor::Btb::find_colliding_history));
//! 3. executes a user-mode branch sequence encoding that history, puts a
//!    victim pointer in `r10`, and issues a syscall: the dispatch
//!    speculatively enters the gadget, dereferencing the victim's secret.
//!
//! In the paper's taxonomy this is an **active** attack (the attacker's
//! own kernel thread leaks foreign data), so Perspective stops it with
//! **DSVs** — even though the hijacked handler is a perfectly legitimate
//! kernel function.

use crate::lab::{AttackLab, Scheme};
use crate::passive::{flush_kprobe, passive_target, scan_kprobe};
use persp_kernel::body::DISPATCH_CALL_VA;
use persp_kernel::kernel::KernelImage;
use persp_kernel::layout::SYSCALL_TABLE;
use persp_kernel::syscalls::Sysno;
use persp_uarch::config::CoreConfig;
use persp_uarch::isa::{Assembler, Cond, Inst, REG_ARG0, REG_ARG1, REG_ARG2, REG_SYSNO};
use persp_uarch::predictor::BtbMode;
use perspective::policy::PerspectiveConfig;
use perspective::taxonomy::AttackOutcome;

/// History bits the attack encodes with user-mode branches (the BTB folds
/// 44 bits; the colliding values the search returns fit in 22).
const HISTORY_BITS: u64 = 44;

/// Report of one BHI run.
#[derive(Debug)]
pub struct BhiReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Outcome.
    pub outcome: AttackOutcome,
    /// Hot kernel-probe lines after the attack.
    pub hot_lines: Vec<u8>,
}

/// IBRS-style BTB hardening layered over a base configuration.
fn ibrs_core_config(base: CoreConfig) -> CoreConfig {
    CoreConfig {
        btb_mode: BtbMode::Ibrs,
        ..base
    }
}

/// Sanity arm: under IBRS, the classic aliased-install injection no
/// longer reaches kernel predictions (IBRS layered on top of `base`).
pub fn plain_v2_fails_under_ibrs(image: &KernelImage, base: CoreConfig) -> bool {
    let pcfg = PerspectiveConfig::default();
    let core_cfg = ibrs_core_config(base);
    let mut lab = AttackLab::new(Scheme::Unsafe, image, &[Sysno::Getpid], pcfg, core_cfg);
    let (gadget_va, _) = passive_target(&lab);
    let hist = lab.sim.core.pred.hist;
    let alias = lab.sim.core.pred.btb.aliasing_pc(DISPATCH_CALL_VA);
    lab.sim.core.pred.btb.install(alias, hist, gadget_va, false); // user install
    lab.sim.core.pred.btb.predict(DISPATCH_CALL_VA, hist, true) != Some(gadget_va)
}

/// The attacker program: encode the colliding history with a straight
/// line of always/never-taken branches, load the victim pointer into
/// `r10`, and fire the syscall.
fn bhi_program(base: u64, history: u64, victim_ptr: u64) -> Vec<(u64, Inst)> {
    let mut asm = Assembler::new(base);
    // Oldest history bit first: the global history register shifts the
    // newest outcome into bit 0.
    for bit in (0..HISTORY_BITS).rev() {
        let next = asm.new_label();
        if history >> bit & 1 == 1 {
            asm.branch(Cond::Eq, 0, 0, next); // always taken
        } else {
            asm.branch(Cond::Ne, 0, 0, next); // never taken
        }
        asm.bind(next);
    }
    asm.movi(REG_ARG0, victim_ptr);
    asm.movi(REG_SYSNO, Sysno::Getpid as u16 as u64);
    asm.push(Inst::Syscall);
    asm.push(Inst::Halt);
    asm.finish()
}

/// Run the full BHI attack against `scheme` on a lab built from `image`
/// under enforcement `pcfg` — always on IBRS-hardened hardware, layered
/// on top of `base` (the point is bypassing that hardening).
pub fn run_bhi(
    scheme: Scheme,
    image: &KernelImage,
    secret: u8,
    pcfg: PerspectiveConfig,
    base: CoreConfig,
) -> BhiReport {
    let victim_syscalls = [Sysno::Getpid, Sysno::Read];
    let mut lab = AttackLab::new(
        scheme,
        image,
        &victim_syscalls,
        pcfg,
        ibrs_core_config(base),
    );
    let (handler, kprobe_base) = lab
        .sim
        .kernel
        .borrow()
        .graph
        .bhi_target
        .expect("kernel has a BHI handler");
    let handler_va = lab.sim.kernel.borrow().graph.func(handler).entry_va;

    lab.plant_victim_secret(secret);
    let secret_va = lab.victim_secret_va();

    // Step 1: ordinary kernel activity installs the handler's BTB entry
    // (the victim's write path legitimately calls it through the ops
    // table; the attacker itself never invokes write).
    let vbase = lab.user_text(lab.victim);
    let mut warm = Assembler::new(vbase);
    for _ in 0..4 {
        warm.movi(REG_ARG0, 3); // fd: the handler's benign argument
        warm.movi(REG_ARG1, lab.user_data(lab.victim) + 0x2000);
        warm.movi(REG_ARG2, 4);
        warm.movi(REG_SYSNO, Sysno::Write as u16 as u64);
        warm.push(Inst::Syscall);
    }
    warm.push(Inst::Halt);
    lab.sim.core.machine.load_text(warm.finish());
    lab.run_as(lab.victim, vbase, 3_000_000)
        .expect("victim warmup");

    // Step 2: the offline BHB search.
    let Some(history) = lab
        .sim
        .core
        .pred
        .btb
        .find_colliding_history(DISPATCH_CALL_VA, handler_va)
    else {
        return BhiReport {
            scheme,
            outcome: AttackOutcome::Inconclusive,
            hot_lines: Vec::new(),
        };
    };

    // Step 3: fire, over a few rounds (early shots warm the handler's
    // instruction lines; the dispatch-table line is evicted each round to
    // widen the window, and the victim's secret line is hot because the
    // victim is actively using it).
    flush_kprobe(&mut lab, kprobe_base);
    let abase = lab.user_text(lab.attacker());
    lab.sim
        .core
        .machine
        .load_text(bhi_program(abase, history, secret_va));
    for _round in 0..4 {
        lab.sim
            .core
            .mem
            .flush(SYSCALL_TABLE + (Sysno::Getpid as u16 as u64) * 8);
        lab.sim.core.mem.read(secret_va);
        lab.run_as(lab.attacker(), abase, 3_000_000)
            .expect("attack syscall");
    }

    let hot = scan_kprobe(&lab, kprobe_base);
    BhiReport {
        scheme,
        outcome: AttackOutcome::from_hot_lines(&hot, secret),
        hot_lines: hot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::{attack_succeeds, test_image};

    /// The probe lines BHI leaves hot under `scheme` on the small kernel.
    fn hot(scheme: Scheme, secret: u8) -> Vec<u8> {
        let (pcfg, base) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        run_bhi(scheme, &test_image(), secret, pcfg, base).hot_lines
    }

    fn bhi_succeeds(scheme: Scheme) -> bool {
        attack_succeeds([0x4D, 0xB2], |s| hot(scheme, s))
    }

    #[test]
    fn ibrs_stops_the_classic_injection() {
        assert!(plain_v2_fails_under_ibrs(
            &test_image(),
            CoreConfig::paper_default()
        ));
    }

    #[test]
    fn bhi_bypasses_ibrs_on_unsafe_hardware() {
        assert!(
            bhi_succeeds(Scheme::Unsafe),
            "history injection must reach the dispatch gadget"
        );
    }

    #[test]
    fn perspective_dsv_blocks_bhi() {
        // The hijacked handler is legitimate kernel code, but the
        // transient dereference targets *foreign* data: an active attack,
        // stopped by DSVs (taxonomy-rooted, variant-agnostic — §8.1).
        let hot = hot(Scheme::Perspective, 0x4D);
        assert!(!hot.contains(&0x4D), "hot: {hot:?}");
        assert!(!bhi_succeeds(Scheme::Perspective));
    }

    #[test]
    fn fence_blocks_bhi_too() {
        assert!(!bhi_succeeds(Scheme::Fence));
    }
}
