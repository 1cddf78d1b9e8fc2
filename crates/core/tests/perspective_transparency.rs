//! Architectural transparency of the Perspective policy: random kernel
//! programs over memory with randomized DSV ownership (owned / shared /
//! foreign / unknown per slot) must produce exactly the interpreter's
//! architectural state. Blocking a speculative load until its
//! visibility point may only ever change timing.
//!
//! This extends the pipeline's own differential oracle (which covers
//! UNSAFE/FENCE/DOM/STT) to the paper's policy, including the DSVMT
//! cache, the ISV cache, and the per-syscall mode.

use persp_kernel::sink::{AllocSink, Owner};
use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use persp_uarch::config::CoreConfig;
use persp_uarch::hooks::NullHooks;
use persp_uarch::isa::{AluOp, Cond, Inst, Width};
use persp_uarch::machine::{Machine, Mode};
use persp_uarch::pipeline::Core;
use persp_uarch::run_in_order;
use persp_uarch::testkit::{build_program, interpret, Template, POOL_BASE, POOL_SLOTS};
use perspective::dsv::DsvTable;
use perspective::isv::Isv;
use perspective::policy::{IsvRegistry, PerspectiveConfig, PerspectivePolicy};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

fn arb_reg() -> impl Strategy<Value = u8> {
    1u8..16
}

fn arb_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Mul),
        Just(AluOp::SltU),
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
        (arb_reg(), arb_reg(), 1u8..5).prop_map(|(a, b, skip)| Template::SkipIf {
            cond: Cond::Ltu,
            a,
            b,
            skip,
        }),
    ]
}

/// Per-slot ownership drawn per test case: 0 = owned, 1 = shared,
/// 2 = foreign, 3 = unknown (no record).
fn apply_ownership(dsv: &mut DsvTable, classes: &[u8]) {
    dsv.register_context(1, 10);
    dsv.register_context(2, 20);
    for (i, c) in classes.iter().enumerate() {
        let va = POOL_BASE + i as u64 * 8;
        match c % 4 {
            0 => dsv.assign_va_range(va, 8, Owner::Cgroup(10)),
            1 => dsv.assign_va_range(va, 8, Owner::Shared),
            2 => dsv.assign_va_range(va, 8, Owner::Cgroup(20)),
            _ => {} // unknown: no provenance recorded
        }
    }
}

fn run_perspective(
    templates: &[Template],
    seeds: [u64; 4],
    classes: &[u8],
    cfg: PerspectiveConfig,
    install_isv: bool,
) {
    let base = 0x1000u64;
    let text_vec = build_program(templates, base);
    let text_map: HashMap<u64, Inst> = text_vec.iter().copied().collect();

    let mut oracle_regs = [0u64; 32];
    oracle_regs[1] = seeds[0];
    oracle_regs[2] = seeds[1];
    oracle_regs[3] = seeds[2];
    oracle_regs[4] = seeds[3];
    oracle_regs[31] = POOL_BASE;
    let mut oracle_mem: HashMap<u64, u8> = HashMap::new();
    interpret(&text_map, base, &mut oracle_regs, &mut oracle_mem);

    let dsv = Rc::new(RefCell::new(DsvTable::new()));
    apply_ownership(&mut dsv.borrow_mut(), classes);
    let isvs = Rc::new(RefCell::new(IsvRegistry::default()));
    if install_isv {
        // The unrestricted view still exercises the ISV cache machinery.
        isvs.borrow_mut().install(1, Isv::unrestricted());
        isvs.borrow_mut()
            .install_per_syscall(1, 3, Isv::unrestricted());
    }
    let policy = PerspectivePolicy::new(cfg, dsv, isvs);

    // The pipeline under Perspective, and the in-order engine (which has
    // no policy) on a second machine.
    let machine = || {
        let mut machine = Machine::new();
        machine.load_text(text_vec.iter().copied());
        machine.mode = Mode::Kernel; // Perspective gates kernel execution
        machine.asid = 1;
        machine.cur_sysno = Some(3);
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
        Box::new(policy),
        Box::new(NullHooks),
    );
    core.run(base, 2_000_000).expect("pipeline completes");
    let mut in_order = machine();
    run_in_order(&mut in_order, &mut NullHooks, None, base, 10_000)
        .expect("in-order run completes");

    let got = core.machine.regs();
    for r in 0..32 {
        assert_eq!(
            got[r], oracle_regs[r],
            "r{r} diverged under Perspective (classes {classes:?})"
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
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Default Perspective (DSV + ISV + unknown blocking), no ISV
    /// installed: DSV blocks on foreign/unknown slots must be invisible
    /// architecturally.
    #[test]
    fn perspective_is_architecturally_transparent(
        templates in prop::collection::vec(arb_template(), 1..40),
        seeds in any::<[u64; 4]>(),
        classes in prop::collection::vec(0u8..4, POOL_SLOTS as usize),
    ) {
        run_perspective(
            &templates,
            seeds,
            &classes,
            PerspectiveConfig::default(),
            false,
        );
    }

    /// With the ISV machinery engaged (unrestricted view, so every miss
    /// and refill path runs) and per-syscall mode on.
    #[test]
    fn perspective_per_syscall_mode_is_transparent(
        templates in prop::collection::vec(arb_template(), 1..30),
        seeds in any::<[u64; 4]>(),
        classes in prop::collection::vec(0u8..4, POOL_SLOTS as usize),
    ) {
        let cfg = PerspectiveConfig {
            per_syscall_isv: true,
            ..PerspectiveConfig::default()
        };
        run_perspective(&templates, seeds, &classes, cfg, true);
    }
}
