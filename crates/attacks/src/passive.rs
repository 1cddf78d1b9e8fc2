//! Passive transient execution attack PoCs (Figure 4.2): the attacker
//! hijacks the *victim's* speculative control flow into a gadget that
//! leaks the victim's own data.
//!
//! Two hijack primitives are modelled end-to-end on the shared predictor
//! state:
//!
//! * **Spectre v2 / BHI** ([`run_btb_hijack`]): the attacker installs a
//!   BTB entry aliasing the kernel's dispatch `CallInd`; the victim's next
//!   syscall speculatively dispatches into the leak gadget.
//! * **Spectre RSB / Retbleed** ([`run_retbleed`]): the victim's `stat`
//!   path is a call chain deeper than the 16-entry RSB; its outer returns
//!   underflow and fall back to the BTB, where the attacker planted the
//!   gadget address.
//!
//! The leak gadget (`SecretLeak` in the generated kernel) dereferences
//! `CURRENT_TASK → secret` — the access does **not** violate data
//! ownership (it is the victim's own data), which is precisely why DSVs
//! cannot stop passive attacks and ISVs are needed (§5.1).
//!
//! Harness-level steps and what they model: BTB installation stands for
//! the attacker's aliased-jump training run (the aliasing itself is
//! demonstrated by the predictor model's unit tests); the syscall-table
//! line flush models eviction contention that widens the dispatch window;
//! warming the victim's secret chain models the victim actively using its
//! secret. The covert-channel receiver checks residency of the kernel
//! probe region, modelling a prime+probe measurement.

use crate::lab::{AttackLab, Scheme};
use persp_kernel::body::DISPATCH_CALL_VA;
use persp_kernel::kernel::KernelImage;
use persp_kernel::layout::SYSCALL_TABLE;
use persp_kernel::syscalls::Sysno;
use persp_mem::covert::PROBE_STRIDE;
use persp_uarch::config::CoreConfig;
use persp_uarch::isa::{Assembler, Inst, INST_BYTES, REG_SYSNO};
use perspective::policy::PerspectiveConfig;
use perspective::taxonomy::{AttackOutcome, Variant};

/// Report of one passive-attack run.
#[derive(Debug)]
pub struct PassiveAttackReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Which hijack variant was used.
    pub variant: Variant,
    /// Outcome.
    pub outcome: AttackOutcome,
    /// Kernel probe lines found resident after the victim ran.
    pub hot_lines: Vec<u8>,
}

fn victim_warmup_program(base: u64, sys: Sysno, rounds: usize) -> Vec<(u64, Inst)> {
    let mut asm = Assembler::new(base);
    for _ in 0..rounds {
        asm.movi(REG_SYSNO, sys as u16 as u64);
        asm.push(Inst::Syscall);
    }
    asm.push(Inst::Halt);
    asm.finish()
}

/// The passive PoCs' gadget: its entry address, and the base of the
/// kernel probe array it transmits through.
pub(crate) fn passive_target(lab: &AttackLab) -> (u64, u64) {
    let kernel = lab.sim.kernel.borrow();
    let (leak_func, kprobe_base) = kernel
        .graph
        .passive_target
        .expect("kernel has a passive target");
    (kernel.graph.func(leak_func).entry_va, kprobe_base)
}

/// The kernel probe lines resident after the victim ran.
pub(crate) fn scan_kprobe(lab: &AttackLab, kprobe_base: u64) -> Vec<u8> {
    (0..256u64)
        .filter(|&i| lab.sim.core.mem.probe_any(kprobe_base + i * PROBE_STRIDE))
        .map(|i| i as u8)
        .collect()
}

/// Evict every kernel probe line.
pub(crate) fn flush_kprobe(lab: &mut AttackLab, kprobe_base: u64) {
    for i in 0..256u64 {
        lab.sim.core.mem.flush(kprobe_base + i * PROBE_STRIDE);
    }
}

/// Warm the victim's secret-dereference chain, modelling a victim that is
/// actively using its secret (e.g. a key in a crypto loop).
fn warm_secret_chain(lab: &mut AttackLab) {
    let kernel = lab.sim.kernel.borrow();
    let task_va = kernel.process(lab.victim).expect("victim").task_struct_va;
    let secret_va = kernel.secret_va(lab.victim).expect("victim");
    drop(kernel);
    lab.sim
        .core
        .mem
        .read(persp_kernel::layout::CURRENT_TASK_PTR);
    lab.sim.core.mem.read(task_va);
    lab.sim.core.mem.read(secret_va);
}

fn classify(hot: Vec<u8>, secret: u8, scheme: Scheme, variant: Variant) -> PassiveAttackReport {
    PassiveAttackReport {
        scheme,
        variant,
        outcome: AttackOutcome::from_hot_lines(&hot, secret),
        hot_lines: hot,
    }
}

/// Spectre v2-style hijack of the syscall dispatch `CallInd`, on a lab
/// built from `image` under enforcement `pcfg` and core `core_cfg`. With
/// `pcfg.enforce_isv` off, Perspective degenerates to DSV-only and the
/// hijack leaks again — data views cannot stop control-flow primitives
/// whose gadget only touches in-view data (§5.1).
pub fn run_btb_hijack(
    scheme: Scheme,
    image: &KernelImage,
    secret: u8,
    pcfg: PerspectiveConfig,
    core_cfg: CoreConfig,
) -> PassiveAttackReport {
    let victim_syscalls = [Sysno::Getpid, Sysno::Read];
    let mut lab = AttackLab::new(scheme, image, &victim_syscalls, pcfg, core_cfg);
    let (gadget_va, kprobe_base) = passive_target(&lab);

    lab.plant_victim_secret(secret);

    // The victim does normal work first (warms its task metadata, fills
    // the predictors with benign history).
    let vbase = lab.user_text(lab.victim);
    lab.sim
        .core
        .machine
        .load_text(victim_warmup_program(vbase, Sysno::Getpid, 4));
    lab.run_as(lab.victim, vbase, 3_000_000)
        .expect("victim warmup");

    // ATTACK, repeated over several rounds as in real PoCs: the first
    // shots fetch the gadget's instruction lines into the caches (the
    // wrong-path fetch itself warms them); later shots complete the leak
    // within the dispatch-resolution window.
    flush_kprobe(&mut lab, kprobe_base);
    let vbase2 = vbase + 0x4000;
    lab.sim
        .core
        .machine
        .load_text(victim_warmup_program(vbase2, Sysno::Getpid, 1));
    for _round in 0..4 {
        // Poison the BTB entry aliasing the dispatch indirect call
        // (stands for the attacker's aliased-jump training run; BTB
        // aliasing is exercised directly in the predictor tests). The
        // victim's own committed dispatches re-train the entry, so the
        // attacker re-poisons before every shot.
        // The Legacy BTB ignores history and privilege — the attacker's
        // user-mode jump at the aliasing address lands in the same slot
        // the kernel dispatch reads. (The Ibrs mode blocks exactly this;
        // see the BHI PoC for the bypass.)
        let alias_pc = lab.sim.core.pred.btb.aliasing_pc(DISPATCH_CALL_VA);
        let hist = lab.sim.core.pred.hist;
        lab.sim
            .core
            .pred
            .btb
            .install(alias_pc, hist, gadget_va, false);
        assert_eq!(
            lab.sim.core.pred.btb.predict(DISPATCH_CALL_VA, hist, true),
            Some(gadget_va),
            "partial-tag aliasing must reach the victim's branch"
        );

        // Evict the dispatch-table line so target resolution is slow
        // (wide transient window); keep the secret chain warm.
        lab.sim
            .core
            .mem
            .flush(SYSCALL_TABLE + (Sysno::Getpid as u16 as u64) * 8);
        warm_secret_chain(&mut lab);

        // The victim performs one ordinary syscall.
        lab.run_as(lab.victim, vbase2, 3_000_000)
            .expect("victim syscall");
    }

    classify(
        scan_kprobe(&lab, kprobe_base),
        secret,
        scheme,
        Variant::SpectreV2,
    )
}

/// Retbleed-style hijack: deep `stat` call chain underflows the RSB; the
/// underflowed return falls back to a poisoned BTB entry. The attack's
/// own `ret_resolve_latency` amplification is layered on top of `base`.
pub fn run_retbleed(
    scheme: Scheme,
    image: &KernelImage,
    secret: u8,
    pcfg: PerspectiveConfig,
    base: CoreConfig,
) -> PassiveAttackReport {
    let victim_syscalls = [Sysno::Stat];
    // ret_resolve_latency models the attacker evicting the victim's stack
    // lines so return-address resolution is slow (standard Retbleed
    // amplification).
    let core_cfg = CoreConfig {
        ret_resolve_latency: 30,
        ..base
    };
    let mut lab = AttackLab::new(scheme, image, &victim_syscalls, pcfg, core_cfg);
    let (gadget_va, kprobe_base) = passive_target(&lab);

    lab.plant_victim_secret(secret);

    // Victim runs stat once to warm the chain.
    let vbase = lab.user_text(lab.victim);
    lab.sim
        .core
        .machine
        .load_text(victim_warmup_program(vbase, Sysno::Stat, 1));
    lab.run_as(lab.victim, vbase, 6_000_000)
        .expect("victim warmup");

    // Poison the BTB for the *returns* of the outer chain functions —
    // the ones whose RSB entries were lost to the deep chain.
    {
        let kernel = lab.sim.kernel.borrow();
        let graph = &kernel.graph;
        let entry = graph.entries[&Sysno::Stat];
        let mut chain = Vec::new();
        let mut cur = entry;
        loop {
            // The chain edge is the direct call whose callee is in the
            // stat pool (bodies also contain utility calls).
            let next = graph.funcs[cur.0 as usize]
                .body
                .iter()
                .find_map(|op| match op {
                    persp_kernel::callgraph::BodyOp::CallDirect(c)
                        if matches!(
                            graph.func(*c).kind,
                            persp_kernel::callgraph::FuncKind::SyscallImpl(Sysno::Stat)
                        ) =>
                    {
                        Some(*c)
                    }
                    _ => None,
                });
            match next {
                Some(c) => {
                    chain.push(c);
                    cur = c;
                }
                None => break,
            }
        }
        drop(kernel);
        let kernel = lab.sim.kernel.borrow();
        let graph = &kernel.graph;
        for &f in chain.iter().take(6) {
            let kf = graph.func(f);
            let ret_pc = kf.entry_va + u64::from(kf.len_insts - 1) * INST_BYTES;
            drop_installed(&mut lab.sim.core.pred.btb, ret_pc, gadget_va);
        }
    }

    flush_kprobe(&mut lab, kprobe_base);
    warm_secret_chain(&mut lab);

    // Victim's stat call: the outer returns underflow the RSB and fetch
    // from the poisoned BTB.
    let vbase2 = vbase + 0x4000;
    lab.sim
        .core
        .machine
        .load_text(victim_warmup_program(vbase2, Sysno::Stat, 1));
    lab.run_as(lab.victim, vbase2, 6_000_000)
        .expect("victim stat");

    classify(
        scan_kprobe(&lab, kprobe_base),
        secret,
        scheme,
        Variant::Retbleed,
    )
}

fn drop_installed(btb: &mut persp_uarch::predictor::Btb, ret_pc: u64, gadget: u64) {
    let alias = btb.aliasing_pc(ret_pc);
    btb.install(alias, 0, gadget, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::{attack_succeeds, test_image};

    type Poc = fn(Scheme, &KernelImage, u8, PerspectiveConfig, CoreConfig) -> PassiveAttackReport;

    /// The probe lines `poc` leaves hot under `scheme` on the small kernel.
    fn hot(poc: Poc, scheme: Scheme, secret: u8) -> Vec<u8> {
        let (pcfg, core_cfg) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        poc(scheme, &test_image(), secret, pcfg, core_cfg).hot_lines
    }

    #[test]
    fn btb_hijack_leaks_on_unsafe_hardware() {
        assert!(
            attack_succeeds([0x3C, 0xA7], |s| hot(run_btb_hijack, Scheme::Unsafe, s)),
            "dispatch hijack must leak on the unprotected baseline"
        );
    }

    #[test]
    fn perspective_isv_blocks_the_btb_hijack() {
        let hot = hot(run_btb_hijack, Scheme::Perspective, 0x3C);
        assert!(
            !hot.contains(&0x3C),
            "the leak gadget is outside the victim's ISV: {hot:?}"
        );
    }

    #[test]
    fn static_isv_also_blocks_the_btb_hijack() {
        assert!(!hot(run_btb_hijack, Scheme::PerspectiveStatic, 0x3C).contains(&0x3C));
    }

    #[test]
    fn retbleed_leaks_on_unsafe_hardware() {
        assert!(
            attack_succeeds([0x3C, 0xA7], |s| hot(run_retbleed, Scheme::Unsafe, s)),
            "RSB-underflow hijack must leak on the unprotected baseline"
        );
    }

    #[test]
    fn perspective_isv_blocks_retbleed() {
        let hot = hot(run_retbleed, Scheme::Perspective, 0x3C);
        assert!(!hot.contains(&0x3C), "hot: {hot:?}");
    }

    #[test]
    fn fence_blocks_passive_attacks_too() {
        assert!(!hot(run_btb_hijack, Scheme::Fence, 0x3C).contains(&0x3C));
    }
}
