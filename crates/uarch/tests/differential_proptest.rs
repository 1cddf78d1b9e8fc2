//! Differential property testing: random programs executed by the
//! out-of-order, speculative pipeline must produce exactly the same
//! architectural state as a trivial in-order interpreter.
//!
//! This is the core soundness property behind every performance number in
//! the evaluation: speculation policies and transient execution may change
//! *timing* and *microarchitectural* state, never architectural results.

use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use persp_uarch::config::CoreConfig;
use persp_uarch::hooks::NullHooks;
use persp_uarch::isa::{AluOp, Cond, Inst, Width};
use persp_uarch::machine::Machine;
use persp_uarch::pipeline::Core;
use persp_uarch::policy::{DomPolicy, FencePolicy, SpecPolicy, SttPolicy, UnsafePolicy};
use persp_uarch::run_in_order;
use proptest::prelude::*;
use std::collections::HashMap;

use persp_uarch::testkit::{build_program, interpret, Template, POOL_BASE, POOL_SLOTS};

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
        (arb_reg(), 0..POOL_SLOTS, any::<bool>()).prop_map(|(dst, slot, byte)| {
            Template::Load {
                dst,
                slot,
                width: if byte { Width::B } else { Width::Q },
            }
        }),
        (arb_reg(), 0..POOL_SLOTS, any::<bool>()).prop_map(|(src, slot, byte)| {
            Template::Store {
                src,
                slot,
                width: if byte { Width::B } else { Width::Q },
            }
        }),
        (arb_cond(), arb_reg(), arb_reg(), 1u8..5)
            .prop_map(|(cond, a, b, skip)| Template::SkipIf { cond, a, b, skip }),
    ]
}

fn run_differential(templates: Vec<Template>, seeds: [u64; 4], policy: Box<dyn SpecPolicy>) {
    let base = 0x1000u64;
    let text_vec = build_program(&templates, base);
    let text_map: HashMap<u64, Inst> = text_vec.iter().copied().collect();

    // Oracle.
    let mut oracle_regs = [0u64; 32];
    oracle_regs[1] = seeds[0];
    oracle_regs[2] = seeds[1];
    oracle_regs[3] = seeds[2];
    oracle_regs[4] = seeds[3];
    oracle_regs[31] = POOL_BASE;
    let mut oracle_mem: HashMap<u64, u8> = HashMap::new();
    interpret(&text_map, base, &mut oracle_regs, &mut oracle_mem);

    // Pipeline, and the in-order engine on a second machine.
    let machine = || {
        let mut machine = Machine::new();
        machine.load_text(text_vec.iter().copied());
        machine.set_reg(1, seeds[0]);
        machine.set_reg(2, seeds[1]);
        machine.set_reg(3, seeds[2]);
        machine.set_reg(4, seeds[3]);
        machine.set_reg(31, POOL_BASE);
        machine
    };
    let mut core = Core::new(
        CoreConfig::paper_default(),
        machine(),
        MemoryHierarchy::new(HierarchyConfig::paper_default()),
        policy,
        Box::new(NullHooks),
    );
    core.run(base, 2_000_000).expect("pipeline completes");
    let mut in_order = machine();
    run_in_order(&mut in_order, &mut NullHooks, None, base, 10_000)
        .expect("in-order run completes");

    // Compare registers and the data pool.
    let got = core.machine.regs();
    for r in 0..32 {
        assert_eq!(
            got[r], oracle_regs[r],
            "r{r} diverged (pipeline {:#x} vs oracle {:#x})",
            got[r], oracle_regs[r]
        );
    }
    for slot in 0..POOL_SLOTS {
        for i in 0..8 {
            let addr = POOL_BASE + slot * 8 + i;
            let oracle_byte = *oracle_mem.get(&addr).unwrap_or(&0);
            assert_eq!(
                core.machine.mem.read_u8(addr),
                oracle_byte,
                "memory at {addr:#x} diverged"
            );
        }
    }

    // The in-order engine against both.
    assert_eq!(in_order.regs(), oracle_regs, "in-order registers");
    assert_eq!(in_order.regs(), got, "in-order vs pipeline registers");
    for slot in 0..POOL_SLOTS {
        let addr = POOL_BASE + slot * 8;
        let oracle: Vec<u8> = (0..8)
            .map(|i| *oracle_mem.get(&(addr + i)).unwrap_or(&0))
            .collect();
        let bytes: Vec<u8> = (0..8).map(|i| in_order.mem.read_u8(addr + i)).collect();
        assert_eq!(bytes, oracle, "in-order memory at {addr:#x}");
        assert_eq!(
            in_order.mem.read_u64(addr),
            core.machine.mem.read_u64(addr),
            "in-order vs pipeline memory at {addr:#x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pipeline_matches_oracle_under_unsafe(
        templates in prop::collection::vec(arb_template(), 1..60),
        seeds in any::<[u64; 4]>(),
    ) {
        run_differential(templates, seeds, Box::new(UnsafePolicy::new()));
    }

    #[test]
    fn pipeline_matches_oracle_under_fence(
        templates in prop::collection::vec(arb_template(), 1..40),
        seeds in any::<[u64; 4]>(),
    ) {
        run_differential(templates, seeds, Box::new(FencePolicy::new()));
    }

    #[test]
    fn pipeline_matches_oracle_under_dom(
        templates in prop::collection::vec(arb_template(), 1..40),
        seeds in any::<[u64; 4]>(),
    ) {
        run_differential(templates, seeds, Box::new(DomPolicy::new()));
    }

    #[test]
    fn pipeline_matches_oracle_under_stt(
        templates in prop::collection::vec(arb_template(), 1..40),
        seeds in any::<[u64; 4]>(),
    ) {
        run_differential(templates, seeds, Box::new(SttPolicy::new()));
    }
}
