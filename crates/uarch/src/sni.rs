//! Speculative non-interference (SNI) checker: a shadow commit-order
//! oracle plus a transient-leakage monitor, attachable to a [`Core`].
//!
//! The checker has two independent halves:
//!
//! * **Shadow oracle** — replays every retired instruction *in program
//!   order with speculation disabled* against an independent
//!   architectural register file, and asserts equivalence with what the
//!   out-of-order pipeline actually committed (values, addresses,
//!   branch directions, return targets, and the committed PC chain).
//!   Any divergence is a pipeline bug, counted in
//!   [`SniCounters::shadow_mismatches`]. The replay is bounded by a
//!   per-checker commit budget so a CI smoke run stays cheap.
//!
//! * **Leakage monitor** — tracks, per speculative load issue, whether
//!   the load (a) should have been blocked according to *pristine*
//!   ground-truth metadata (an [`SniOracle`] implemented over the
//!   framework's DSV/ISV tables, bypassing the policy's hardware
//!   metadata caches), and (b) reads data outside the current context's
//!   DSV — a *secret*. Secret-rooted taint is then followed through the
//!   pipeline's existing STT taint sets: any further speculative memory
//!   access whose **address** depends on a live secret root is a
//!   cache-state-observable transmitter, counted in
//!   [`SniCounters::tainted_transmits`]. With full Perspective
//!   enforcement no secret ever issues speculatively, so both counters
//!   must stay zero; an unprotected baseline running a Spectre-style
//!   gadget provably drives them nonzero.
//!
//! Non-interference, operationally: *the microarchitectural observer
//! (cache state) learns nothing from speculation that the architectural
//! (in-order, speculation-free) execution would not also reveal.*
//!
//! [`Core`]: crate::pipeline::Core

use crate::isa::{Inst, Width, INST_BYTES, NUM_REGS, REG_ZERO};
use crate::machine::Machine;
use crate::policy::LoadCtx;
use crate::stats::SniCounters;
use std::collections::HashSet;
use std::rc::Rc;

/// Ground-truth speculation metadata, evaluated against *pristine*
/// state (the framework's DSV/ISV tables directly — never the policy's
/// hardware metadata caches, whose staleness is part of what the
/// checker audits).
///
/// Implementations must be read-only: the checker may query at any
/// pipeline stage and must not perturb measurement counters.
pub trait SniOracle {
    /// Must a speculative load with this context be blocked until its
    /// visibility point? Only *unsafe allows* (the policy permitting a
    /// load the pristine metadata forbids) are violations; conservative
    /// extra blocks are always legal.
    fn should_block(&self, ctx: &LoadCtx) -> bool;

    /// Does this load read data outside the current context's data
    /// speculation view (a secret, for leak-tracking purposes)?
    fn is_secret(&self, ctx: &LoadCtx) -> bool;
}

/// A retired instruction: what the retiring engine computed for it. The
/// shadow oracle checks the pipeline's at commit, and both engines hand
/// theirs to the shared architectural retirement.
#[derive(Debug, Clone, Copy)]
pub struct RetiredInst {
    /// ROB sequence number (the in-order engine's retirement count).
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Result value (register writeback).
    pub value: u64,
    /// Effective memory address (loads, stores, flushes).
    pub addr: u64,
    /// Memory access width.
    pub width: Width,
    /// Value stored (stores only).
    pub store_val: u64,
    /// Resolved branch direction (conditional branches).
    pub taken: bool,
    /// Resolved control-transfer target (branches, indirects, returns).
    pub target: u64,
}

/// In-order architectural replay state for the shadow oracle.
#[derive(Debug, Clone)]
struct Shadow {
    regs: [u64; NUM_REGS],
    /// PC the next retired instruction must have; `None` right after a
    /// redirect the shadow cannot predict (kernel hook).
    expected_pc: Option<u64>,
    /// Registers must be re-seeded from architectural state before the
    /// next check (set after kernel hooks, mismatches, and run starts).
    needs_resync: bool,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            regs: [0; NUM_REGS],
            expected_pc: None,
            needs_resync: true,
        }
    }

    fn set(&mut self, reg: u8, val: u64) {
        if reg != REG_ZERO {
            self.regs[reg as usize] = val;
        }
    }
}

/// The attached checker. Construct with [`SniChecker::new`] (full
/// checking) or [`SniChecker::shadow_only`] (differential replay
/// without ground-truth metadata), then hand to
/// [`Core::attach_sni`](crate::pipeline::Core::attach_sni). Counters
/// accumulate into [`SniCounters`] inside the core's
/// [`SimStats`](crate::stats::SimStats) and export as `sim.sni.*`.
pub struct SniChecker {
    oracle: Option<Rc<dyn SniOracle>>,
    shadow: Shadow,
    /// Remaining retired instructions the shadow oracle will replay.
    shadow_budget: u64,
    /// Sequence numbers of in-flight speculative loads that read secret
    /// (out-of-DSV) data.
    secret_roots: HashSet<u64>,
}

impl SniChecker {
    /// Full checker: shadow replay plus ground-truth leakage monitor.
    pub fn new(oracle: Rc<dyn SniOracle>, shadow_budget: u64) -> Self {
        SniChecker {
            oracle: Some(oracle),
            shadow: Shadow::new(),
            shadow_budget,
            secret_roots: HashSet::new(),
        }
    }

    /// Differential shadow replay only (no DSV/ISV ground truth).
    pub fn shadow_only(shadow_budget: u64) -> Self {
        SniChecker {
            oracle: None,
            shadow: Shadow::new(),
            shadow_budget,
            secret_roots: HashSet::new(),
        }
    }

    /// Called by the core at the start of every `run`: the pipeline
    /// state was reset, so no speculative root is live and the next
    /// commit is the entry instruction.
    pub(crate) fn on_run_start(&mut self, entry: u64) {
        self.secret_roots.clear();
        self.shadow.expected_pc = Some(entry);
        self.shadow.needs_resync = true;
    }

    /// A speculative load was allowed and is issuing its memory access.
    /// `roots`/`saturated` describe the taint of its **address**
    /// operands before the load adds itself as a root.
    pub(crate) fn on_spec_issue(
        &mut self,
        ctx: &LoadCtx,
        seq: u64,
        roots: &[u64],
        saturated: bool,
        c: &mut SniCounters,
    ) {
        self.note_transmit(roots, saturated, c);
        if let Some(oracle) = &self.oracle {
            if oracle.should_block(ctx) {
                c.unsafe_issues += 1;
            }
            if oracle.is_secret(ctx) {
                self.secret_roots.insert(seq);
                c.secret_spec_loads += 1;
            }
        }
    }

    /// A speculative cache flush executed; its address taint is
    /// `roots`/`saturated`. Flushes mutate cache state, so a
    /// secret-dependent flush address is a transmitter too.
    pub(crate) fn on_spec_flush(&mut self, roots: &[u64], saturated: bool, c: &mut SniCounters) {
        self.note_transmit(roots, saturated, c);
    }

    fn note_transmit(&mut self, roots: &[u64], saturated: bool, c: &mut SniCounters) {
        if self.secret_roots.is_empty() {
            return;
        }
        if saturated || roots.iter().any(|r| self.secret_roots.contains(r)) {
            c.tainted_transmits += 1;
        }
    }

    /// An in-flight instruction was squashed.
    pub(crate) fn on_squash(&mut self, seq: u64) {
        self.secret_roots.remove(&seq);
    }

    /// One instruction retired. `machine` is the architectural state
    /// *before* this instruction's own commit effects.
    pub(crate) fn on_commit(&mut self, r: &RetiredInst, machine: &Machine, c: &mut SniCounters) {
        if self.secret_roots.remove(&r.seq) {
            c.committed_secret_roots += 1;
        }
        if self.shadow_budget == 0 {
            return;
        }
        self.shadow_budget -= 1;
        c.shadow_checked += 1;

        if self.shadow.needs_resync {
            self.shadow.regs = machine.regs();
            self.shadow.needs_resync = false;
            if self.shadow.expected_pc.is_none() {
                self.shadow.expected_pc = Some(r.pc);
            }
        }
        let mut ok = true;
        if let Some(pc) = self.shadow.expected_pc {
            ok &= pc == r.pc;
        }
        let sh = &mut self.shadow;
        let next = match r.inst {
            Inst::MovImm { dst, imm } => {
                ok &= r.value == imm;
                sh.set(dst, imm);
                Some(r.pc + INST_BYTES)
            }
            Inst::Alu { op, dst, a, b } => {
                let v = op.apply(sh.regs[a as usize], sh.regs[b as usize]);
                ok &= r.value == v;
                sh.set(dst, v);
                Some(r.pc + INST_BYTES)
            }
            Inst::AluImm { op, dst, a, imm } => {
                let v = op.apply(sh.regs[a as usize], imm);
                ok &= r.value == v;
                sh.set(dst, v);
                Some(r.pc + INST_BYTES)
            }
            Inst::Load {
                dst, base, offset, ..
            } => {
                let addr = sh.regs[base as usize].wrapping_add(offset as u64);
                ok &= addr == r.addr;
                // In-order commit: every older store has already written
                // architectural memory, so a commit-time read is the
                // speculation-free load result.
                let v = machine.mem.read(addr, r.width);
                ok &= v == r.value;
                sh.set(dst, v);
                Some(r.pc + INST_BYTES)
            }
            Inst::Store {
                src, base, offset, ..
            } => {
                let addr = sh.regs[base as usize].wrapping_add(offset as u64);
                ok &= addr == r.addr;
                ok &= sh.regs[src as usize] == r.store_val;
                Some(r.pc + INST_BYTES)
            }
            Inst::Branch { cond, a, b, target } => {
                let taken = cond.eval(sh.regs[a as usize], sh.regs[b as usize]);
                ok &= taken == r.taken;
                Some(if taken { target } else { r.pc + INST_BYTES })
            }
            Inst::Jump { target } | Inst::Call { target } => Some(target),
            Inst::JumpInd { base } | Inst::CallInd { base } => {
                let t = sh.regs[base as usize];
                ok &= t == r.target;
                Some(t)
            }
            Inst::Ret => {
                // The architectural return target is still on the call
                // stack (the commit arm pops it after this check).
                match machine.call_stack.last() {
                    Some(&t) => {
                        ok &= t == r.target;
                        Some(t)
                    }
                    None => None, // the run is about to error out
                }
            }
            Inst::CacheFlush { base, offset } => {
                ok &= sh.regs[base as usize].wrapping_add(offset as u64) == r.addr;
                Some(r.pc + INST_BYTES)
            }
            Inst::Syscall => Some(machine.kernel_entry),
            Inst::Sysret => Some(machine.sysret_target),
            Inst::KHook { .. } => {
                // Hooks rewrite registers and redirect fetch wholesale;
                // re-seed from architectural state at the next commit.
                sh.needs_resync = true;
                None
            }
            Inst::RdTsc { dst } => {
                // Timing reads are architecturally nondeterministic in
                // the replay; adopt the pipeline's value.
                sh.set(dst, r.value);
                Some(r.pc + INST_BYTES)
            }
            Inst::Fence | Inst::Nop => Some(r.pc + INST_BYTES),
            Inst::Halt => None,
        };
        self.shadow.expected_pc = next;
        if !ok {
            c.shadow_mismatches += 1;
            // Re-seed to stop one divergence cascading into many.
            self.shadow.needs_resync = true;
            self.shadow.expected_pc = None;
        }
    }
}

impl std::fmt::Debug for SniChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SniChecker")
            .field("oracle", &self.oracle.is_some())
            .field("shadow_budget", &self.shadow_budget)
            .field("secret_roots", &self.secret_roots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::hooks::NullHooks;
    use crate::isa::{AluOp, Assembler, Cond};
    use crate::pipeline::Core;
    use crate::policy::{FencePolicy, SpecPolicy, UnsafePolicy};
    use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};

    fn core_with(text: Vec<(u64, Inst)>, policy: Box<dyn SpecPolicy>) -> Core {
        let mut machine = Machine::new();
        machine.load_text(text);
        Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            policy,
            Box::new(NullHooks),
        )
    }

    /// Out-of-DSV window the mock ground truth treats as secret.
    struct MarkSecret {
        lo: u64,
        hi: u64,
    }

    impl SniOracle for MarkSecret {
        fn should_block(&self, ctx: &LoadCtx) -> bool {
            self.is_secret(ctx)
        }
        fn is_secret(&self, ctx: &LoadCtx) -> bool {
            ctx.addr >= self.lo && ctx.addr < self.hi
        }
    }

    fn arithmetic_program() -> Vec<(u64, Inst)> {
        // A loop with loads, stores, branches and a function call: every
        // shadow-checked instruction class except traps.
        let mut a = Assembler::new(0x1000);
        let f = a.new_label();
        a.movi(1, 0); // sum
        a.movi(2, 0); // i
        a.movi(3, 16); // bound
        a.movi(4, 0x8000); // buffer
        let top = a.here();
        a.store(2, 4, 0);
        a.load(5, 4, 0);
        a.alu(AluOp::Add, 1, 1, 5);
        a.push(Inst::Call { target: 0 }); // patched below via label
        a.alui(AluOp::Add, 2, 2, 1_u64);
        a.branch_to(Cond::Ltu, 2, 3, top);
        a.push(Inst::Halt);
        a.bind(f);
        a.alui(AluOp::Add, 9, 9, 3_u64);
        a.push(Inst::Ret);
        let mut text = a.finish();
        // Point the call at the bound label's address.
        let f_addr = text.last().map(|(pc, _)| *pc).unwrap() - INST_BYTES;
        for (_, inst) in text.iter_mut() {
            if let Inst::Call { target } = inst {
                *target = f_addr;
            }
        }
        text
    }

    #[test]
    fn shadow_replay_matches_a_clean_pipeline() {
        let mut core = core_with(arithmetic_program(), Box::new(UnsafePolicy::new()));
        core.attach_sni(SniChecker::shadow_only(1_000_000));
        core.run(0x1000, 100_000).expect("runs");
        let s = core.stats();
        assert!(s.sni.shadow_checked > 50, "replayed the stream: {s:?}");
        assert_eq!(s.sni.shadow_mismatches, 0, "pipeline is equivalent");
        assert_eq!(core.machine.reg(1), (0..16).sum::<u64>());
    }

    #[test]
    fn shadow_budget_bounds_the_replay() {
        let mut core = core_with(arithmetic_program(), Box::new(UnsafePolicy::new()));
        core.attach_sni(SniChecker::shadow_only(10));
        core.run(0x1000, 100_000).expect("runs");
        assert_eq!(core.stats().sni.shadow_checked, 10);
        assert_eq!(core.stats().sni.shadow_mismatches, 0);
    }

    fn spectre_program(bound_ptr: u64, secret_addr: u64, probe_base: u64) -> Vec<(u64, Inst)> {
        // if (i < bound) { r6 = *secret; r9 = probe[r6]; }
        let mut a = Assembler::new(0x6000);
        a.movi(1, bound_ptr);
        let skip = a.new_label();
        a.load(2, 1, 0); // r2 = *bound_ptr (pointer)
        a.load(3, 2, 0); // r3 = bound (dependent loads = long window)
        a.branch(Cond::Geu, 10, 3, skip);
        a.movi(5, secret_addr);
        a.load(6, 5, 0); // secret access (taint root)
        a.movi(7, probe_base);
        a.alu(AluOp::Add, 8, 7, 6);
        a.load_b(9, 8, 0); // transmitter: address depends on the secret
        a.bind(skip);
        a.push(Inst::Halt);
        a.finish()
    }

    fn plant(core: &mut Core, bound_ptr: u64, secret_addr: u64) {
        core.machine.mem.write_u64(bound_ptr, bound_ptr + 0x100);
        core.machine.mem.write_u64(bound_ptr + 0x100, 100);
        core.machine.mem.write_u64(secret_addr, 0x42);
    }

    #[test]
    fn unsafe_baseline_leaks_and_the_monitor_sees_it() {
        let (bound_ptr, secret_addr, probe_base) = (0xA000u64, 0x9000u64, 0x2_0000u64);
        let oracle = Rc::new(MarkSecret {
            lo: secret_addr,
            hi: secret_addr + 8,
        });
        let mut core = core_with(
            spectre_program(bound_ptr, secret_addr, probe_base),
            Box::new(UnsafePolicy::new()),
        );
        core.attach_sni(SniChecker::new(oracle, 1_000_000));
        plant(&mut core, bound_ptr, secret_addr);

        // Train the branch not-taken (the body architecturally executes).
        for _ in 0..6 {
            core.machine.set_reg(10, 0);
            core.run(0x6000, 100_000).expect("training");
        }
        // Attack run: out-of-bounds index; the body runs transiently.
        core.mem.flush(bound_ptr);
        core.mem.flush(bound_ptr + 0x100);
        core.mem.flush(secret_addr);
        core.machine.set_reg(10, 200);
        core.machine.set_reg(6, 0);
        let before = core.stats();
        core.run(0x6000, 100_000).expect("attack");
        let d = core.stats().delta_since(&before);

        assert_eq!(core.machine.reg(6), 0, "secret never commits");
        assert!(d.squashes >= 1);
        assert!(d.sni.secret_spec_loads >= 1, "secret root recorded: {d:?}");
        assert!(d.sni.unsafe_issues >= 1, "ground truth flags it: {d:?}");
        assert!(
            d.sni.tainted_transmits >= 1,
            "secret-dependent transmit seen: {d:?}"
        );
        assert_eq!(d.sni.shadow_mismatches, 0);
    }

    #[test]
    fn fence_baseline_is_non_interferent() {
        let (bound_ptr, secret_addr, probe_base) = (0xA000u64, 0x9000u64, 0x2_0000u64);
        let oracle = Rc::new(MarkSecret {
            lo: secret_addr,
            hi: secret_addr + 8,
        });
        let mut core = core_with(
            spectre_program(bound_ptr, secret_addr, probe_base),
            Box::new(FencePolicy::new()),
        );
        core.attach_sni(SniChecker::new(oracle, 1_000_000));
        plant(&mut core, bound_ptr, secret_addr);
        for i in 0..7 {
            core.machine.set_reg(10, if i < 6 { 0 } else { 200 });
            core.run(0x6000, 100_000).expect("runs");
        }
        let s = core.stats();
        assert_eq!(s.sni.secret_spec_loads, 0, "no speculative secret load");
        assert_eq!(s.sni.tainted_transmits, 0, "nothing to transmit");
        assert_eq!(s.sni.unsafe_issues, 0, "every block was honored");
        assert_eq!(s.sni.shadow_mismatches, 0);
    }

    #[test]
    fn committed_secret_roots_are_dropped_from_leak_attribution() {
        // Same gadget, in-bounds index: the body commits architecturally,
        // so the "secret" root retires and no transient leak is charged
        // for the committed dataflow.
        let (bound_ptr, secret_addr, probe_base) = (0xA000u64, 0x9000u64, 0x2_0000u64);
        let oracle = Rc::new(MarkSecret {
            lo: secret_addr,
            hi: secret_addr + 8,
        });
        let mut core = core_with(
            spectre_program(bound_ptr, secret_addr, probe_base),
            Box::new(UnsafePolicy::new()),
        );
        core.attach_sni(SniChecker::new(oracle, 1_000_000));
        plant(&mut core, bound_ptr, secret_addr);
        core.machine.set_reg(10, 0);
        core.run(0x6000, 100_000).expect("runs");
        let s = core.stats();
        assert_eq!(core.machine.reg(6), 0x42, "the load committed");
        assert!(
            s.sni.secret_spec_loads == 0 || s.sni.committed_secret_roots > 0,
            "a speculatively-issued root that commits is accounted: {s:?}"
        );
        assert_eq!(s.sni.shadow_mismatches, 0);
    }
}
