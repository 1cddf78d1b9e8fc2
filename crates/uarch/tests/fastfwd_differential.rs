//! Fast-vs-slow differential harness for the idle-cycle fast-forward.
//!
//! The fast-forward claims to be *cycle-exact*: with it on, every
//! counter — including the stall-attribution partition, the kernel/user
//! cycle split, cache statistics, and the exact cycle at which budget
//! exhaustion fires — must be bit-for-bit identical to the slow
//! per-cycle path. These tests pin that claim with directed scenarios
//! (DRAM pointer chases, fenced speculation, syscalls, Spectre-style
//! training + attack, budget exhaustion) and a random-program property
//! over all four baseline policies.

use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use persp_uarch::config::CoreConfig;
use persp_uarch::hooks::NullHooks;
use persp_uarch::isa::{AluOp, Assembler, Cond, Inst};
use persp_uarch::machine::Machine;
use persp_uarch::pipeline::{Core, SimError};
use persp_uarch::policy::{DomPolicy, FencePolicy, SpecPolicy, SttPolicy, UnsafePolicy};
use persp_uarch::testkit::{
    assert_fastfwd_equivalent, build_program, fastfwd_outcome, testkit_config, Template, POOL_SLOTS,
};
use proptest::prelude::*;

fn unsafe_policy() -> Box<dyn SpecPolicy> {
    Box::new(UnsafePolicy::new())
}

fn fence_policy() -> Box<dyn SpecPolicy> {
    Box::new(FencePolicy::new())
}

/// Pointer-chase through cold DRAM lines: almost every cycle is an idle
/// memory-wait, the fast-forward's bread and butter.
fn pointer_chase() -> Vec<(u64, Inst)> {
    let mut a = Assembler::new(0x1000);
    a.movi(1, 0x8000);
    a.load(2, 1, 0);
    a.load(3, 2, 0);
    a.load(4, 3, 0);
    a.push(Inst::Halt);
    a.finish()
}

fn seed_chain(core: &mut Core) {
    core.machine.mem.write_u64(0x8000, 0x9000);
    core.machine.mem.write_u64(0x9000, 0xA000);
    core.machine.mem.write_u64(0xA000, 42);
}

#[test]
fn pointer_chase_is_cycle_exact() {
    assert_fastfwd_equivalent(
        &pointer_chase(),
        0x1000,
        100_000,
        &unsafe_policy,
        &seed_chain,
    );
}

#[test]
fn fast_forward_actually_engages_on_idle_memory_waits() {
    // The differential tests would pass trivially if the fast-forward
    // never fired; pin that it skips the bulk of a DRAM-bound run.
    let run = |fastfwd: bool| {
        let mut machine = Machine::new();
        machine.load_text(pointer_chase());
        let mut core = Core::new(
            CoreConfig {
                idle_fastforward: fastfwd,
                ..CoreConfig::paper_default()
            },
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(NullHooks),
        );
        seed_chain(&mut core);
        let summary = core.run(0x1000, 100_000).expect("runs");
        (summary.stats, core.ff_skipped_cycles())
    };
    let (fast_stats, skipped) = run(true);
    let (slow_stats, none_skipped) = run(false);
    assert_eq!(fast_stats, slow_stats);
    assert_eq!(none_skipped, 0, "slow path never fast-forwards");
    assert!(
        skipped * 2 > fast_stats.cycles,
        "a DRAM pointer chase is mostly idle: skipped {skipped} of {} cycles",
        fast_stats.cycles
    );
}

#[test]
fn fenced_speculation_vp_waits_are_cycle_exact() {
    // Speculative loads under FENCE wait for their visibility point;
    // those vp_wait runs are exactly the idle windows the fast-forward
    // skips, and the attribution must land in the same bucket.
    let mut a = Assembler::new(0x2000);
    a.movi(1, 0);
    a.movi(2, 20);
    a.movi(4, 0x8000);
    let top = a.here();
    a.load(3, 4, 0);
    a.alu(AluOp::Add, 1, 1, 3);
    a.branch_to(Cond::Ne, 1, 2, top);
    a.push(Inst::Halt);
    let text = a.finish();
    assert_fastfwd_equivalent(&text, 0x2000, 1_000_000, &fence_policy, &|core| {
        core.machine.mem.write_u64(0x8000, 1);
    });
}

#[test]
fn spectre_training_and_attack_are_cycle_exact() {
    // The transient-execution skeleton from the pipeline tests: train a
    // bounds-check branch, then run the out-of-bounds attack iteration.
    // Training happens inside `prepare`, so both paths replay the whole
    // train-then-attack history under their own stepping mode.
    let secret_addr = 0x9000u64;
    let bound_ptr = 0xA000u64;
    let mut a = Assembler::new(0x6000);
    a.movi(1, bound_ptr);
    let skip = a.new_label();
    a.load(2, 1, 0);
    a.load(3, 2, 0);
    a.branch(Cond::Geu, 10, 3, skip);
    a.movi(5, secret_addr);
    a.load(6, 5, 0);
    a.bind(skip);
    a.push(Inst::Halt);
    let text = a.finish();

    let prepare = move |core: &mut Core| {
        core.machine.mem.write_u64(bound_ptr, bound_ptr + 0x100);
        core.machine.mem.write_u64(bound_ptr + 0x100, 100);
        core.machine.mem.write_u64(secret_addr, 0x5ec7e7);
        for _ in 0..6 {
            core.machine.set_reg(10, 0);
            core.run(0x6000, 100_000).expect("training run");
        }
        core.mem.flush(bound_ptr);
        core.mem.flush(bound_ptr + 0x100);
        core.mem.flush(secret_addr);
        core.machine.set_reg(10, 200);
        core.machine.set_reg(6, 0);
    };
    assert_fastfwd_equivalent(&text, 0x6000, 100_000, &unsafe_policy, &prepare);
    assert_fastfwd_equivalent(&text, 0x6000, 100_000, &fence_policy, &prepare);
}

#[test]
fn syscall_kernel_user_cycle_split_is_cycle_exact() {
    let mut a = Assembler::new(0x100);
    a.movi(17, 3);
    a.push(Inst::Syscall);
    a.movi(9, 77);
    a.push(Inst::Halt);
    let mut text = a.finish();
    let mut k = Assembler::new(0xFFFF_0000);
    k.movi(8, 1);
    k.movi(7, 0x8000);
    k.load(6, 7, 0); // cold kernel load: idle cycles in kernel mode
    k.push(Inst::Sysret);
    text.extend(k.finish());
    assert_fastfwd_equivalent(&text, 0x100, 100_000, &unsafe_policy, &|core| {
        core.machine.kernel_entry = 0xFFFF_0000;
    });
}

#[test]
fn budget_exhaustion_fires_at_the_identical_cycle() {
    // Infinite loop: the fast-forward must cap its jump at the budget
    // deadline so `CycleBudgetExhausted` fires at the same cycle with
    // the same counters as the slow path.
    let mut a = Assembler::new(0x0);
    let top = a.here();
    a.branch_to(Cond::Eq, 0, 0, top);
    let text = a.finish();
    assert_fastfwd_equivalent(&text, 0x0, 500, &unsafe_policy, &|_| {});
    let fast = fastfwd_outcome(
        &text,
        0x0,
        500,
        testkit_config(true),
        unsafe_policy(),
        &|_| {},
    );
    assert_eq!(
        fast.result,
        Err(SimError::CycleBudgetExhausted { budget: 500 }),
        "the directed scenario must actually exhaust its budget"
    );
}

// ----- random-program property over all four baseline policies ---------

fn arb_reg() -> impl Strategy<Value = u8> {
    1u8..16
}

fn arb_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Mul),
        Just(AluOp::SltU),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Ltu),
        Just(Cond::Geu),
        Just(Cond::Lt),
        Just(Cond::Ge),
    ]
}

fn arb_template() -> impl Strategy<Value = Template> {
    use persp_uarch::isa::Width;
    prop_oneof![
        (arb_reg(), any::<u64>()).prop_map(|(dst, imm)| Template::MovImm { dst, imm }),
        (arb_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, dst, a, b)| Template::Alu {
            op,
            dst,
            a,
            b
        }),
        (arb_op(), arb_reg(), arb_reg(), 0u64..1024)
            .prop_map(|(op, dst, a, imm)| Template::AluImm { op, dst, a, imm }),
        (arb_reg(), 0..POOL_SLOTS, any::<bool>()).prop_map(|(dst, slot, byte)| Template::Load {
            dst,
            slot,
            width: if byte { Width::B } else { Width::Q },
        }),
        (arb_reg(), 0..POOL_SLOTS, any::<bool>()).prop_map(|(src, slot, byte)| Template::Store {
            src,
            slot,
            width: if byte { Width::B } else { Width::Q },
        }),
        (arb_cond(), arb_reg(), arb_reg(), 1u8..5)
            .prop_map(|(cond, a, b, skip)| Template::SkipIf { cond, a, b, skip }),
    ]
}

fn mk_policy(idx: usize) -> Box<dyn SpecPolicy> {
    match idx {
        0 => Box::new(UnsafePolicy::new()),
        1 => Box::new(FencePolicy::new()),
        2 => Box::new(DomPolicy::new()),
        _ => Box::new(SttPolicy::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_are_cycle_exact_under_every_policy(
        templates in prop::collection::vec(arb_template(), 1..50),
        seeds in any::<[u64; 4]>(),
        policy_idx in 0usize..4,
    ) {
        let text = build_program(&templates, 0x1000);
        let prepare = move |core: &mut Core| {
            core.machine.set_reg(1, seeds[0]);
            core.machine.set_reg(2, seeds[1]);
            core.machine.set_reg(3, seeds[2]);
            core.machine.set_reg(4, seeds[3]);
        };
        assert_fastfwd_equivalent(&text, 0x1000, 2_000_000, &|| mk_policy(policy_idx), &prepare);
    }
}
