//! Architectural retirement, shared by both engines: the out-of-order
//! pipeline's commit stage and the in-order engine, [`run_in_order`].
//!
//! [`retire`] is the one place an instruction's committed effects reach
//! the [`Machine`]: register write-back, the store to memory, the call
//! stack, the call trace, the syscall/sysret mode switch, kernel-hook
//! dispatch and `machine.pc`. Its arguments are exactly what
//! architecture depends on, so neither engine can make an architectural
//! effect depend on timing, caches, predictors or the speculation
//! policy. The pipeline keeps the microarchitectural half of commit
//! (counters, predictor training, cache writes, fetch redirection)
//! around the call.

use crate::hooks::{HookAction, HookHandler};
use crate::isa::{Inst, Width, INST_BYTES, REG_SYSNO};
use crate::machine::{Machine, Mode};
use crate::pipeline::SimError;
use crate::sni::RetiredInst;
use std::collections::HashSet;

/// Where control goes after a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// The next instruction in program order is at `pc`. `hook_cycles`
    /// is the extra latency a kernel hook charged (zero for every other
    /// instruction); only a cycle-level engine has a use for it.
    Next { pc: u64, hook_cycles: u64 },
    /// A `Halt` retired.
    Halt,
}

/// Apply the architectural effects of retiring `r`, in program order.
///
/// `r` carries what the retiring engine computed: the result value, the
/// effective address and stored value, the resolved branch direction and
/// the indirect target.
///
/// # Errors
///
/// [`SimError::CallStackUnderflow`] when a `Ret` retires with an empty
/// call stack.
///
/// Inlined into both engines: in the pipeline it sits on the commit
/// path of every instruction.
#[inline(always)]
pub(crate) fn retire(
    machine: &mut Machine,
    hooks: &mut dyn HookHandler,
    call_trace: Option<&mut HashSet<u64>>,
    r: &RetiredInst,
) -> Result<Flow, SimError> {
    if let Some(dst) = r.inst.dst() {
        machine.set_reg(dst, r.value);
    }
    let fall_through = r.pc + INST_BYTES;
    let mut hook_cycles = 0;
    let next = match r.inst {
        Inst::Store { width, .. } => {
            machine.mem.write(r.addr, r.store_val, width);
            fall_through
        }
        Inst::Branch { .. } => r.target,
        Inst::Jump { target } => target,
        Inst::JumpInd { .. } | Inst::CallInd { .. } => {
            if matches!(r.inst, Inst::CallInd { .. }) {
                machine.call_stack.push(fall_through);
            }
            if let Some(trace) = call_trace {
                trace.insert(r.target);
            }
            r.target
        }
        Inst::Call { target } => {
            machine.call_stack.push(fall_through);
            if let Some(trace) = call_trace {
                trace.insert(target);
            }
            target
        }
        Inst::Ret => match machine.call_stack.pop() {
            Some(target) => target,
            None => return Err(SimError::CallStackUnderflow { pc: r.pc }),
        },
        Inst::Syscall => {
            if let Some(trace) = call_trace {
                trace.insert(machine.kernel_entry);
            }
            machine.mode = Mode::Kernel;
            machine.cur_sysno = Some(machine.reg(REG_SYSNO) as u16);
            machine.sysret_target = fall_through;
            machine.kernel_entry
        }
        Inst::Sysret => {
            machine.mode = Mode::User;
            machine.cur_sysno = None;
            machine.sysret_target
        }
        Inst::KHook { id } => {
            let result = hooks.on_hook(id, machine);
            hook_cycles = result.extra_cycles;
            match result.action {
                HookAction::Continue => fall_through,
                HookAction::Redirect(target) => target,
            }
        }
        Inst::Halt => return Ok(Flow::Halt),
        _ => fall_through,
    };
    machine.pc = r.pc;
    Ok(Flow::Next {
        pc: next,
        hook_cycles,
    })
}

/// Execute `inst` at `pc` against committed state: the in-order
/// engine's half of an instruction, everything [`retire`] needs from an
/// engine. `seq` numbers the instruction in retirement order.
///
/// # Errors
///
/// [`SimError::TimingDependent`] for `RdTsc`, whose value only a
/// cycle-level run has.
fn execute(machine: &Machine, seq: u64, pc: u64, inst: Inst) -> Result<RetiredInst, SimError> {
    let mut r = RetiredInst {
        seq,
        pc,
        inst,
        value: 0,
        addr: 0,
        width: Width::Q,
        store_val: 0,
        taken: false,
        target: 0,
    };
    let reg = |x| machine.reg(x);
    match inst {
        Inst::MovImm { imm, .. } => r.value = imm,
        Inst::Alu { op, a, b, .. } => r.value = op.apply(reg(a), reg(b)),
        Inst::AluImm { op, a, imm, .. } => r.value = op.apply(reg(a), imm),
        Inst::Load {
            base,
            offset,
            width,
            ..
        } => {
            r.addr = reg(base).wrapping_add(offset as u64);
            r.width = width;
            r.value = machine.mem.read(r.addr, width);
        }
        Inst::Store {
            src,
            base,
            offset,
            width,
        } => {
            r.addr = reg(base).wrapping_add(offset as u64);
            r.width = width;
            r.store_val = reg(src);
        }
        Inst::Branch { cond, a, b, target } => {
            r.taken = cond.eval(reg(a), reg(b));
            r.target = if r.taken { target } else { pc + INST_BYTES };
        }
        Inst::JumpInd { base } | Inst::CallInd { base } => r.target = reg(base),
        Inst::CacheFlush { base, offset } => r.addr = reg(base).wrapping_add(offset as u64),
        Inst::RdTsc { .. } => return Err(SimError::TimingDependent { pc }),
        _ => {}
    }
    Ok(r)
}

/// The in-order engine: retire the program at `entry` one instruction
/// at a time, in program order, until a `Halt` retires. Returns the
/// number of instructions retired, the `Halt` included.
///
/// It takes only what architecture depends on: the machine, the kernel
/// hooks and, when given, the set that records committed call targets
/// (calls, indirect calls and jumps, syscall entries). It holds no
/// clock, caches, predictors, policy or statistics, so it is for runs
/// whose output is architectural (a call trace, kernel allocator
/// counts); the machine, the hooks and the trace end exactly as
/// [`Core::run`](crate::pipeline::Core::run) would leave them.
///
/// # Errors
///
/// [`SimError::UnmappedFetch`] and [`SimError::CallStackUnderflow`] as
/// [`Core::run`](crate::pipeline::Core::run) returns them,
/// [`SimError::TimingDependent`] on `RdTsc` (its value exists only in a
/// cycle-level run), and [`SimError::InstBudgetExhausted`] when
/// `max_insts` instructions retire without a `Halt`.
pub fn run_in_order(
    machine: &mut Machine,
    hooks: &mut dyn HookHandler,
    mut call_trace: Option<&mut HashSet<u64>>,
    entry: u64,
    max_insts: u64,
) -> Result<u64, SimError> {
    let mut pc = entry;
    for retired in 0..max_insts {
        let inst = machine.inst_at(pc).ok_or(SimError::UnmappedFetch { pc })?;
        let r = execute(machine, retired, pc, inst)?;
        match retire(machine, hooks, call_trace.as_deref_mut(), &r)? {
            Flow::Next { pc: next, .. } => pc = next,
            Flow::Halt => return Ok(retired + 1),
        }
    }
    Err(SimError::InstBudgetExhausted { budget: max_insts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::hooks::NullHooks;
    use crate::isa::{AluOp, Assembler};
    use crate::policy::UnsafePolicy;
    use crate::testkit::{testkit_core, POOL_BASE};

    /// A machine holding `text`, set up as [`testkit_core`] sets up its
    /// core's.
    fn machine_with(text: &[(u64, Inst)]) -> Machine {
        let mut machine = Machine::new();
        machine.load_text(text.to_vec());
        machine.set_reg(31, POOL_BASE);
        machine
    }

    fn in_order(machine: &mut Machine, entry: u64, budget: u64) -> Result<u64, SimError> {
        run_in_order(machine, &mut NullHooks, None, entry, budget)
    }

    fn pipelined(text: &[(u64, Inst)]) -> crate::pipeline::Core {
        testkit_core(
            text,
            CoreConfig::paper_default(),
            Box::new(UnsafePolicy::new()),
        )
    }

    #[test]
    fn calls_syscalls_and_stores_match_the_pipeline() {
        let mut a = Assembler::new(0x100);
        a.movi(1, 0x8000);
        a.movi(17, 3);
        a.push(Inst::Syscall);
        a.push(Inst::Call { target: 0x400 });
        a.store(9, 1, 8);
        a.push(Inst::Halt);
        let mut text = a.finish();
        let mut f = Assembler::new(0x400);
        f.alui(AluOp::Add, 9, 8, 5);
        f.push(Inst::Ret);
        text.extend(f.finish());
        let mut k = Assembler::new(0xFFFF_0000);
        k.movi(8, 1);
        k.push(Inst::Sysret);
        text.extend(k.finish());

        let mut core = pipelined(&text);
        core.machine.kernel_entry = 0xFFFF_0000;
        core.enable_call_trace();
        let stats = core.run(0x100, 10_000).expect("runs").stats;
        let mut machine = machine_with(&text);
        machine.kernel_entry = 0xFFFF_0000;
        let mut trace = HashSet::new();
        let retired =
            run_in_order(&mut machine, &mut NullHooks, Some(&mut trace), 0x100, 100).expect("runs");
        assert_eq!(retired, stats.committed_insts);
        assert_eq!(machine.regs(), core.machine.regs());
        assert_eq!(machine.reg(9), 6);
        assert_eq!(machine.mem, core.machine.mem);
        assert_eq!(machine.mode, Mode::User);
        assert_eq!(machine.pc, core.machine.pc);
        assert_eq!(trace, core.take_call_trace());
    }

    #[test]
    fn rdtsc_is_timing_dependent() {
        let mut a = Assembler::new(0x0);
        a.movi(1, 7);
        a.push(Inst::RdTsc { dst: 2 });
        a.push(Inst::Halt);
        let mut machine = machine_with(&a.finish());
        let err = in_order(&mut machine, 0x0, 100).unwrap_err();
        assert_eq!(err, SimError::TimingDependent { pc: 0x4 });
        assert_eq!(machine.reg(1), 7, "older instructions retired");
    }

    #[test]
    fn the_instruction_budget_is_enforced() {
        let mut a = Assembler::new(0x0);
        a.movi(1, 1);
        a.movi(2, 2);
        a.push(Inst::Halt);
        let text = a.finish();
        assert_eq!(in_order(&mut machine_with(&text), 0x0, 3), Ok(3));
        let err = in_order(&mut machine_with(&text), 0x0, 2).unwrap_err();
        assert_eq!(err, SimError::InstBudgetExhausted { budget: 2 });
    }

    #[test]
    fn a_return_with_an_empty_call_stack_is_an_error() {
        let text = [(0x0, Inst::Nop), (0x4, Inst::Ret)];
        let expected = SimError::CallStackUnderflow { pc: 0x4 };
        assert_eq!(pipelined(&text).run(0x0, 10_000).unwrap_err(), expected);
        let err = in_order(&mut machine_with(&text), 0x0, 100).unwrap_err();
        assert_eq!(err, expected);
    }

    #[test]
    fn an_unmapped_fetch_is_an_error() {
        let text = [(
            0x0,
            Inst::Jump {
                target: 0xdead_0000,
            },
        )];
        let expected = SimError::UnmappedFetch { pc: 0xdead_0000 };
        assert_eq!(pipelined(&text).run(0x0, 10_000).unwrap_err(), expected);
        let err = in_order(&mut machine_with(&text), 0x0, 100).unwrap_err();
        assert_eq!(err, expected);
    }
}
