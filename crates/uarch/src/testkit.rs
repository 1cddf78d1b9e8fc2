//! Differential-testing toolkit: a random-program generator and a
//! trivial in-order architectural interpreter, shared by the pipeline's
//! own differential proptests and by downstream crates checking that
//! their speculation policies are architecturally transparent.
//!
//! The property every policy must satisfy: speculation policies and
//! transient execution may change *timing* and *microarchitectural*
//! state, never architectural results. Random programs are run through
//! the out-of-order pipeline and through [`interpret`]; registers and
//! the data pool must match exactly.

use crate::config::CoreConfig;
use crate::hooks::NullHooks;
use crate::isa::{AluOp, Cond, Inst, Width, INST_BYTES, NUM_REGS};
use crate::machine::Machine;
use crate::pipeline::{Core, SimError};
use crate::policy::SpecPolicy;
use crate::stats::SimStats;
use persp_mem::{CacheStats, HierarchyConfig, MemoryHierarchy};
use std::collections::HashMap;

/// Base address of the small data pool programs read and write (small,
/// to provoke store-to-load forwarding and aliasing).
pub const POOL_BASE: u64 = 0x10_0000;
/// Number of 8-byte slots in the pool.
pub const POOL_SLOTS: u64 = 8;

/// Instruction templates; branch targets are resolved at program build
/// time as short forward skips (always well-formed, loop-free).
#[derive(Debug, Clone)]
pub enum Template {
    /// `dst = imm`
    MovImm {
        /// Destination register.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = a ⊕ b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
    },
    /// `dst = a ⊕ imm`
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Operand register.
        a: u8,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = pool[slot]`
    Load {
        /// Destination register.
        dst: u8,
        /// Pool slot index.
        slot: u64,
        /// Access width.
        width: Width,
    },
    /// `pool[slot] = src`
    Store {
        /// Source register.
        src: u8,
        /// Pool slot index.
        slot: u64,
        /// Access width.
        width: Width,
    },
    /// Conditional forward skip of up to `skip` following instructions.
    SkipIf {
        /// Branch condition.
        cond: Cond,
        /// First compared register.
        a: u8,
        /// Second compared register.
        b: u8,
        /// Instructions to skip when taken (clamped to program end).
        skip: u8,
    },
}

/// Materialize templates into a program at `base`, terminated by `Halt`.
/// Register 31 is the pool base pointer by convention.
pub fn build_program(templates: &[Template], base: u64) -> Vec<(u64, Inst)> {
    let mut out = Vec::with_capacity(templates.len() + 1);
    for (i, t) in templates.iter().enumerate() {
        let pc = base + i as u64 * INST_BYTES;
        let inst = match *t {
            Template::MovImm { dst, imm } => Inst::MovImm { dst, imm },
            Template::Alu { op, dst, a, b } => Inst::Alu { op, dst, a, b },
            Template::AluImm { op, dst, a, imm } => Inst::AluImm { op, dst, a, imm },
            Template::Load { dst, slot, width } => Inst::Load {
                dst,
                base: 31,
                offset: (slot * 8) as i64,
                width,
            },
            Template::Store { src, slot, width } => Inst::Store {
                src,
                base: 31,
                offset: (slot * 8) as i64,
                width,
            },
            Template::SkipIf { cond, a, b, skip } => {
                let remaining = (templates.len() - i - 1) as u64;
                let dist = u64::from(skip).min(remaining);
                Inst::Branch {
                    cond,
                    a,
                    b,
                    target: pc + (1 + dist) * INST_BYTES,
                }
            }
        };
        out.push((pc, inst));
    }
    out.push((base + templates.len() as u64 * INST_BYTES, Inst::Halt));
    out
}

/// The trivial in-order architectural oracle.
///
/// # Panics
///
/// Panics on instructions outside the template subset or runaway
/// programs (>10 000 steps) — both indicate harness bugs, not pipeline
/// bugs.
pub fn interpret(
    text: &HashMap<u64, Inst>,
    entry: u64,
    regs: &mut [u64; 32],
    mem: &mut HashMap<u64, u8>,
) {
    let mut pc = entry;
    let read = |mem: &HashMap<u64, u8>, addr: u64, w: Width| -> u64 {
        match w {
            Width::B => u64::from(*mem.get(&addr).unwrap_or(&0)),
            Width::Q => {
                let mut v = 0u64;
                for i in 0..8 {
                    v |= u64::from(*mem.get(&(addr + i)).unwrap_or(&0)) << (8 * i);
                }
                v
            }
        }
    };
    let reg = |regs: &[u64; 32], r: u8| if r == 0 { 0 } else { regs[r as usize] };
    for _ in 0..10_000 {
        let inst = *text.get(&pc).expect("oracle fetch");
        match inst {
            Inst::MovImm { dst, imm } => regs[dst as usize] = imm,
            Inst::Alu { op, dst, a, b } => {
                regs[dst as usize] = op.apply(reg(regs, a), reg(regs, b))
            }
            Inst::AluImm { op, dst, a, imm } => regs[dst as usize] = op.apply(reg(regs, a), imm),
            Inst::Load {
                dst,
                base,
                offset,
                width,
            } => {
                let addr = reg(regs, base).wrapping_add(offset as u64);
                regs[dst as usize] = read(mem, addr, width);
            }
            Inst::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = reg(regs, base).wrapping_add(offset as u64);
                let v = reg(regs, src);
                let n = match width {
                    Width::B => 1,
                    Width::Q => 8,
                };
                for i in 0..n {
                    mem.insert(addr + i, (v >> (8 * i)) as u8);
                }
            }
            Inst::Branch { cond, a, b, target } => {
                if cond.eval(reg(regs, a), reg(regs, b)) {
                    pc = target;
                    continue;
                }
            }
            Inst::Halt => return,
            other => panic!("oracle does not model {other}"),
        }
        pc += INST_BYTES;
        regs[0] = 0;
    }
    panic!("oracle ran away");
}

/// Everything the idle fast-forward is required to preserve bit-for-bit,
/// collected after a run so the fast and slow paths can be compared with
/// one `assert_eq!`: the run result (per-run stats delta or the exact
/// [`SimError`]), the final cycle, architectural state (registers and the
/// shared data pool), and the microarchitectural cache statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FastfwdOutcome {
    /// `Core::run` result, reduced to its `PartialEq` payload.
    pub result: Result<SimStats, SimError>,
    /// `Core::now()` after the run — fast-forward must land on the same
    /// cycle, not merely the same counters.
    pub final_cycle: u64,
    /// Cumulative core statistics — compared even when the run errors
    /// out (budget exhaustion, deadlock), where `result` carries no
    /// counters.
    pub cumulative: SimStats,
    /// Final architectural register file.
    pub regs: [u64; NUM_REGS],
    /// Final contents of the shared data pool.
    pub pool: [u64; POOL_SLOTS as usize],
    /// L1-D statistics (fast-forward skips only no-op cycles, so cache
    /// traffic must be identical, not just architectural results).
    pub l1d: CacheStats,
    /// L1-I statistics.
    pub l1i: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Prefetches issued by the hierarchy.
    pub prefetches: u64,
}

/// The paper-default core configuration with `idle_fastforward` set to
/// `fastfwd`.
pub fn testkit_config(fastfwd: bool) -> CoreConfig {
    CoreConfig {
        idle_fastforward: fastfwd,
        ..CoreConfig::paper_default()
    }
}

/// A fresh core for `text` under `cfg`; register 31 is pre-pointed at
/// [`POOL_BASE`] per the testkit convention.
pub fn testkit_core(text: &[(u64, Inst)], cfg: CoreConfig, policy: Box<dyn SpecPolicy>) -> Core {
    let mut machine = Machine::new();
    machine.load_text(text.to_vec());
    machine.set_reg(31, POOL_BASE);
    Core::new(
        cfg,
        machine,
        MemoryHierarchy::new(HierarchyConfig::paper_default()),
        policy,
        Box::new(NullHooks),
    )
}

/// Run `text` from `entry` on a [`testkit_core`] under `cfg`, and
/// collect the [`FastfwdOutcome`]. `prepare` runs after construction
/// (seed registers/memory, pre-warm caches).
pub fn fastfwd_outcome(
    text: &[(u64, Inst)],
    entry: u64,
    budget: u64,
    cfg: CoreConfig,
    policy: Box<dyn SpecPolicy>,
    prepare: &dyn Fn(&mut Core),
) -> FastfwdOutcome {
    let mut core = testkit_core(text, cfg, policy);
    prepare(&mut core);
    let result = core.run(entry, budget).map(|s| s.stats);
    let mut pool = [0u64; POOL_SLOTS as usize];
    for (i, slot) in pool.iter_mut().enumerate() {
        *slot = core.machine.mem.read_u64(POOL_BASE + 8 * i as u64);
    }
    FastfwdOutcome {
        result,
        final_cycle: core.now(),
        cumulative: core.stats(),
        regs: core.machine.regs(),
        pool,
        l1d: core.mem.l1d_stats(),
        l1i: core.mem.l1i_stats(),
        l2: core.mem.l2_stats(),
        prefetches: core.mem.prefetch_count(),
    }
}

/// The fast-vs-slow differential oracle: run the program under both the
/// idle fast-forward and the slow per-cycle path and assert the two
/// [`FastfwdOutcome`]s are identical. `mk_policy` is called once per
/// path so each run gets fresh policy state.
///
/// # Panics
///
/// Panics when any run outcome component (stats, error, final cycle,
/// registers, pool, cache statistics) differs between the two paths.
pub fn assert_fastfwd_equivalent(
    text: &[(u64, Inst)],
    entry: u64,
    budget: u64,
    mk_policy: &dyn Fn() -> Box<dyn SpecPolicy>,
    prepare: &dyn Fn(&mut Core),
) {
    let fast = fastfwd_outcome(
        text,
        entry,
        budget,
        testkit_config(true),
        mk_policy(),
        prepare,
    );
    let slow = fastfwd_outcome(
        text,
        entry,
        budget,
        testkit_config(false),
        mk_policy(),
        prepare,
    );
    assert_eq!(
        fast, slow,
        "idle fast-forward must be cycle-exact against the slow path"
    );
    let stats = &fast.cumulative;
    assert_eq!(
        stats.stalls.total(),
        stats.stall_cycles,
        "stall breakdown must still partition stall cycles: {stats:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_clamps_branches_into_the_program() {
        let prog = build_program(
            &[
                Template::SkipIf {
                    cond: Cond::Eq,
                    a: 0,
                    b: 0,
                    skip: 200,
                },
                Template::MovImm { dst: 1, imm: 7 },
            ],
            0x1000,
        );
        let Inst::Branch { target, .. } = prog[0].1 else {
            panic!("first inst is the branch");
        };
        assert_eq!(target, 0x1000 + 2 * INST_BYTES, "lands on Halt");
    }

    #[test]
    fn oracle_executes_the_template_subset() {
        let prog = build_program(
            &[
                Template::MovImm { dst: 1, imm: 5 },
                Template::Store {
                    src: 1,
                    slot: 2,
                    width: Width::Q,
                },
                Template::Load {
                    dst: 3,
                    slot: 2,
                    width: Width::B,
                },
            ],
            0x1000,
        );
        let text: HashMap<u64, Inst> = prog.into_iter().collect();
        let mut regs = [0u64; 32];
        regs[31] = POOL_BASE;
        let mut mem = HashMap::new();
        interpret(&text, 0x1000, &mut regs, &mut mem);
        assert_eq!(regs[3], 5);
    }
}
