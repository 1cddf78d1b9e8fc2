//! The µISA executed by the simulated out-of-order core.
//!
//! Transient-execution semantics live in the *pipeline*, not the instruction
//! set, so a compact RISC-style ISA is sufficient to express every code
//! pattern the paper needs: Spectre v1 bounds-check gadgets, indirect-jump
//! dispatch tables (Spectre v2), deep call chains (Spectre RSB / Retbleed),
//! flush+reload probe loops, and synthetic kernel function bodies.
//!
//! Conventions:
//!
//! * 32 general-purpose 64-bit registers; `r0` reads as zero and ignores
//!   writes.
//! * Every instruction occupies 4 bytes of the text address space.
//! * Calls/returns use a precise shadow call stack maintained by the core
//!   (the *prediction* of returns goes through the RSB, which is what the
//!   attacks poison).
//! * `Syscall` traps to the kernel entry point registered in the
//!   [`Machine`](crate::machine::Machine); `Sysret` returns to userspace.
//! * `KHook` invokes a host-level kernel semantic hook at commit time
//!   (allocators, scheduling, fd bookkeeping) — it is serializing, so it
//!   never executes transiently.

use std::fmt;

/// A register index, `0..=31`. `REG_ZERO` is hardwired to zero.
pub type Reg = u8;

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;
/// The hardwired zero register.
pub const REG_ZERO: Reg = 0;
/// Return-value register (ABI convention).
pub const REG_RET: Reg = 1;
/// First syscall-argument register; args are `r10..=r15`.
pub const REG_ARG0: Reg = 10;
/// Second syscall-argument register.
pub const REG_ARG1: Reg = 11;
/// Third syscall-argument register.
pub const REG_ARG2: Reg = 12;
/// Syscall-number register.
pub const REG_SYSNO: Reg = 17;

/// Size of one encoded instruction in bytes.
pub const INST_BYTES: u64 = 4;

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `b & 63`).
    Shl,
    /// Logical shift right (by `b & 63`).
    Shr,
    /// Wrapping multiplication (3-cycle latency).
    Mul,
    /// Set-if-less-than, unsigned (`a < b ? 1 : 0`) — used by bounds checks.
    SltU,
}

impl AluOp {
    /// Apply the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::SltU => u64::from(a < b),
        }
    }

    /// Execution latency in cycles.
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul => 3,
            _ => 1,
        }
    }
}

/// Branch comparison conditions (unsigned and signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` unsigned
    Ltu,
    /// `a >= b` unsigned
    Geu,
    /// `a < b` signed
    Lt,
    /// `a >= b` signed
    Ge,
}

impl Cond {
    /// Evaluate the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte.
    B,
    /// Eight bytes (little-endian).
    Q,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B => 1,
            Width::Q => 8,
        }
    }
}

/// One µISA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `dst = op(a, b)`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = op(a, imm)`
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = imm`
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = mem[base + offset]` — the canonical *transmitter* instruction.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// `mem[base + offset] = src`
    Store {
        /// Source (data) register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Conditional direct branch: if `cond(a, b)` jump to `target`.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// First comparison register.
        a: Reg,
        /// Second comparison register.
        b: Reg,
        /// Taken-path target address.
        target: u64,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target address.
        target: u64,
    },
    /// Indirect jump through a register — the Spectre v2 hijack point.
    JumpInd {
        /// Register holding the target address.
        base: Reg,
    },
    /// Direct call; pushes `pc + 4` on the shadow call stack and the RSB.
    Call {
        /// Callee address.
        target: u64,
    },
    /// Indirect call through a register (function-pointer dispatch).
    CallInd {
        /// Register holding the callee address.
        base: Reg,
    },
    /// Return; *predicted* via the RSB (BTB fallback on underflow),
    /// *resolved* via the shadow call stack.
    Ret,
    /// Trap into the kernel. Serializing.
    Syscall,
    /// Return from kernel to userspace. Serializing.
    Sysret,
    /// Host-level kernel semantic hook, dispatched at commit. Serializing.
    KHook {
        /// Hook identifier interpreted by the registered handler.
        id: u16,
    },
    /// Speculation barrier (lfence): younger instructions do not execute
    /// until the fence retires.
    Fence,
    /// Evict the line containing `base + offset` from the whole hierarchy.
    CacheFlush {
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `dst = current cycle`. Executes at the ROB head (serialized read),
    /// modelling `lfence; rdtsc`.
    RdTsc {
        /// Destination register.
        dst: Reg,
    },
    /// No operation.
    Nop,
    /// Stop the simulation when committed.
    Halt,
}

/// The source registers of one instruction, held inline (no instruction
/// reads more than two). Dereferences to a slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Srcs {
    regs: [Reg; 2],
    len: u8,
}

impl Srcs {
    fn one(a: Reg) -> Self {
        Srcs {
            regs: [a, 0],
            len: 1,
        }
    }

    fn two(a: Reg, b: Reg) -> Self {
        Srcs {
            regs: [a, b],
            len: 2,
        }
    }
}

impl std::ops::Deref for Srcs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl Inst {
    /// Destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::MovImm { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::RdTsc { dst } => {
                if dst == REG_ZERO {
                    None
                } else {
                    Some(dst)
                }
            }
            _ => None,
        }
    }

    /// Source registers read by this instruction. `r0` appears here like
    /// any other register (it always reads zero and never has a producer).
    pub fn srcs(&self) -> Srcs {
        match *self {
            Inst::Alu { a, b, .. } => Srcs::two(a, b),
            Inst::AluImm { a, .. } => Srcs::one(a),
            Inst::Load { base, .. } => Srcs::one(base),
            Inst::Store { src, base, .. } => Srcs::two(src, base),
            Inst::Branch { a, b, .. } => Srcs::two(a, b),
            Inst::JumpInd { base } | Inst::CallInd { base } => Srcs::one(base),
            Inst::CacheFlush { base, .. } => Srcs::one(base),
            _ => Srcs::default(),
        }
    }

    /// Is this instruction serializing (fetch stops behind it; it executes
    /// only at the ROB head)?
    pub fn is_serializing(&self) -> bool {
        matches!(
            self,
            Inst::Syscall | Inst::Sysret | Inst::KHook { .. } | Inst::RdTsc { .. } | Inst::Halt
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, dst, a, b } => write!(f, "{op:?} r{dst}, r{a}, r{b}"),
            Inst::AluImm { op, dst, a, imm } => write!(f, "{op:?}i r{dst}, r{a}, {imm:#x}"),
            Inst::MovImm { dst, imm } => write!(f, "mov r{dst}, {imm:#x}"),
            Inst::Load {
                dst,
                base,
                offset,
                width,
            } => {
                write!(f, "ld.{:?} r{dst}, [r{base}{offset:+}]", width)
            }
            Inst::Store {
                src,
                base,
                offset,
                width,
            } => {
                write!(f, "st.{:?} r{src}, [r{base}{offset:+}]", width)
            }
            Inst::Branch { cond, a, b, target } => {
                write!(f, "b.{cond:?} r{a}, r{b}, {target:#x}")
            }
            Inst::Jump { target } => write!(f, "j {target:#x}"),
            Inst::JumpInd { base } => write!(f, "jr r{base}"),
            Inst::Call { target } => write!(f, "call {target:#x}"),
            Inst::CallInd { base } => write!(f, "callr r{base}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Syscall => write!(f, "syscall"),
            Inst::Sysret => write!(f, "sysret"),
            Inst::KHook { id } => write!(f, "khook {id}"),
            Inst::Fence => write!(f, "fence"),
            Inst::CacheFlush { base, offset } => write!(f, "clflush [r{base}{offset:+}]"),
            Inst::RdTsc { dst } => write!(f, "rdtsc r{dst}"),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

/// A forward-patched label used by the [`Assembler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// A tiny sequential assembler producing `(address, Inst)` pairs.
///
/// Forward branches are expressed through [`Label`]s:
///
/// ```
/// use persp_uarch::isa::{Assembler, Cond, Inst};
///
/// let mut asm = Assembler::new(0x1000);
/// let done = asm.new_label();
/// asm.branch(Cond::Eq, 1, 0, done);
/// asm.movi(2, 42);
/// asm.bind(done);
/// asm.push(Inst::Halt);
/// let text = asm.finish();
/// assert_eq!(text.len(), 3);
/// assert_eq!(text[0].0, 0x1000);
/// ```
#[derive(Debug)]
pub struct Assembler {
    base: u64,
    insts: Vec<Inst>,
    labels: Vec<Option<u64>>,
    patches: Vec<(usize, Label)>,
}

impl Assembler {
    /// Start assembling at `base`.
    pub fn new(base: u64) -> Self {
        Assembler {
            base,
            insts: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Address of the *next* instruction to be pushed.
    pub fn here(&self) -> u64 {
        self.base + self.insts.len() as u64 * INST_BYTES
    }

    /// Append an instruction, returning its address.
    pub fn push(&mut self, inst: Inst) -> u64 {
        let addr = self.here();
        self.insts.push(inst);
        addr
    }

    /// Allocate an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    /// `mov dst, imm`
    pub fn movi(&mut self, dst: Reg, imm: u64) -> u64 {
        self.push(Inst::MovImm { dst, imm })
    }

    /// `dst = op(a, imm)`
    pub fn alui(&mut self, op: AluOp, dst: Reg, a: Reg, imm: u64) -> u64 {
        self.push(Inst::AluImm { op, dst, a, imm })
    }

    /// `dst = op(a, b)`
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> u64 {
        self.push(Inst::Alu { op, dst, a, b })
    }

    /// 8-byte load.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64) -> u64 {
        self.push(Inst::Load {
            dst,
            base,
            offset,
            width: Width::Q,
        })
    }

    /// 1-byte load.
    pub fn load_b(&mut self, dst: Reg, base: Reg, offset: i64) -> u64 {
        self.push(Inst::Load {
            dst,
            base,
            offset,
            width: Width::B,
        })
    }

    /// 8-byte store.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i64) -> u64 {
        self.push(Inst::Store {
            src,
            base,
            offset,
            width: Width::Q,
        })
    }

    /// Conditional branch to a label (patched at `finish`).
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: Label) -> u64 {
        let idx = self.insts.len();
        self.patches.push((idx, label));
        self.push(Inst::Branch {
            cond,
            a,
            b,
            target: 0,
        })
    }

    /// Conditional branch to an absolute address.
    pub fn branch_to(&mut self, cond: Cond, a: Reg, b: Reg, target: u64) -> u64 {
        self.push(Inst::Branch { cond, a, b, target })
    }

    /// Unconditional jump to a label.
    pub fn jump(&mut self, label: Label) -> u64 {
        let idx = self.insts.len();
        self.patches.push((idx, label));
        self.push(Inst::Jump { target: 0 })
    }

    /// Finish: patch labels, return `(address, instruction)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound.
    pub fn finish(mut self) -> Vec<(u64, Inst)> {
        for (idx, label) in std::mem::take(&mut self.patches) {
            let target = self.labels[label.0].expect("label referenced but never bound");
            match &mut self.insts[idx] {
                Inst::Branch { target: t, .. } | Inst::Jump { target: t } => *t = target,
                other => panic!("patched instruction is not a branch: {other}"),
            }
        }
        self.insts
            .into_iter()
            .enumerate()
            .map(|(i, inst)| (self.base + i as u64 * INST_BYTES, inst))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_compute() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::SltU.apply(2, 3), 1);
        assert_eq!(AluOp::SltU.apply(3, 2), 0);
        assert_eq!(AluOp::Shl.apply(1, 12), 4096);
        assert_eq!(AluOp::Shr.apply(4096, 12), 1);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        assert_eq!(AluOp::Xor.apply(0xff, 0x0f), 0xf0);
    }

    #[test]
    fn conds_evaluate_signedness() {
        assert!(Cond::Lt.eval(u64::MAX, 0), "-1 < 0 signed");
        assert!(!Cond::Ltu.eval(u64::MAX, 0), "max !< 0 unsigned");
        assert!(Cond::Geu.eval(5, 5));
        assert!(Cond::Ne.eval(1, 2));
    }

    #[test]
    fn zero_register_is_filtered() {
        let i = Inst::Alu {
            op: AluOp::Add,
            dst: REG_ZERO,
            a: REG_ZERO,
            b: 2,
        };
        assert_eq!(i.dst(), None, "r0 destination is discarded");
        assert_eq!(*i.srcs(), [REG_ZERO, 2], "r0 sources still listed");
    }

    #[test]
    fn serializing_classification() {
        assert!(Inst::Syscall.is_serializing());
        assert!(Inst::KHook { id: 3 }.is_serializing());
        assert!(!Inst::Fence.is_serializing(), "fence lets fetch continue");
        assert!(!Inst::Load {
            dst: 1,
            base: 2,
            offset: 0,
            width: Width::Q
        }
        .is_serializing());
    }

    #[test]
    fn assembler_patches_forward_labels() {
        let mut a = Assembler::new(0x400);
        let skip = a.new_label();
        a.branch(Cond::Eq, 1, 2, skip);
        a.movi(3, 7);
        a.bind(skip);
        a.push(Inst::Halt);
        let text = a.finish();
        match text[0].1 {
            Inst::Branch { target, .. } => assert_eq!(target, 0x408),
            ref other => panic!("unexpected inst {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut a = Assembler::new(0);
        let l = a.new_label();
        a.jump(l);
        let _ = a.finish();
    }

    #[test]
    fn addresses_advance_by_inst_bytes() {
        let mut a = Assembler::new(0x1000);
        a.movi(1, 1);
        a.movi(2, 2);
        let text = a.finish();
        assert_eq!(text[0].0, 0x1000);
        assert_eq!(text[1].0, 0x1004);
    }
}
