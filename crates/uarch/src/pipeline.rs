//! The out-of-order, speculative core.
//!
//! The pipeline is the piece of the reproduction that makes transient
//! execution *real*: fetch follows branch predictions, wrong-path
//! instructions execute (and speculative loads fill the caches) until the
//! mispredicted branch resolves and squashes them. What a speculative load
//! may do is delegated to the plugged-in [`SpecPolicy`]; everything else —
//! visibility-point tracking, squash/recovery, RSB/BTB interaction, store
//! forwarding, serializing kernel traps — is shared by every scheme, so
//! measured overheads differ only because of the policy, exactly as in the
//! paper's gem5 setup.
//!
//! ## Timing model
//!
//! Each in-flight instruction lives in the ROB. An instruction computes its
//! result when all producers have computed *and* their `ready_at` times have
//! passed; its own `ready_at` is then `now + latency`. Commit retires up to
//! `width` computed instructions per cycle in order. This is a standard
//! dependency-DAG timing model: absolute IPC is approximate, relative
//! overheads between schemes are meaningful.

use crate::checkpoint::SpecReturns;
use crate::config::CoreConfig;
use crate::hooks::HookHandler;
use crate::isa::{Inst, Width, INST_BYTES, NUM_REGS};
use crate::machine::{Machine, Mode};
use crate::policy::{BlockSource, LoadCtx, LoadDecision, SpecPolicy};
use crate::predictor::Predictors;
use crate::retire::{retire, Flow};
use crate::rob::{ReorderBuffer, RobEntry, Sched, SrcDep, SrcList, TaintSet};
use crate::sni::{RetiredInst, SniChecker};
use crate::stats::SimStats;
use persp_mem::MemoryHierarchy;

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Committed-path fetch from an unmapped address.
    UnmappedFetch {
        /// The faulting address.
        pc: u64,
    },
    /// A `ret` committed with an empty call stack.
    CallStackUnderflow {
        /// The `ret`'s address.
        pc: u64,
    },
    /// No instruction committed for an implausibly long time.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Program counter of the stuck ROB head, if any.
        head_pc: Option<u64>,
    },
    /// The cycle budget given to [`Core::run`] was exhausted.
    CycleBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The instruction budget given to [`run_in_order`](crate::run_in_order)
    /// retired without a `Halt`.
    InstBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// [`run_in_order`](crate::run_in_order) reached an instruction whose
    /// result only a cycle-level run has (`RdTsc`).
    TimingDependent {
        /// The instruction's address.
        pc: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnmappedFetch { pc } => write!(f, "fetch from unmapped address {pc:#x}"),
            SimError::CallStackUnderflow { pc } => {
                write!(f, "return with empty call stack at {pc:#x}")
            }
            SimError::Deadlock { cycle, head_pc } => {
                write!(
                    f,
                    "pipeline deadlock at cycle {cycle} (head pc {head_pc:?})"
                )
            }
            SimError::CycleBudgetExhausted { budget } => {
                write!(f, "cycle budget of {budget} exhausted")
            }
            SimError::InstBudgetExhausted { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            SimError::TimingDependent { pc } => {
                write!(f, "timing-dependent instruction at {pc:#x}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed [`Core::run`].
#[derive(Debug, Clone, Copy)]
pub struct RunSummary {
    /// Statistics accumulated during this run only.
    pub stats: SimStats,
}

/// Host-side counts of the execute stage's rarely taken waits. Like
/// [`Core::ff_skipped_cycles`], a property of the simulator rather than
/// of the simulated machine: the fence and forwarding counts grow with
/// every stepped cycle, so they differ with the fast-forward on and off
/// and never reach serialized output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecWaits {
    /// Visits deferred because an older fence is in flight.
    pub fence: u64,
    /// Load attempts stopped by a partially overlapping older store
    /// (forwarding waits for the store to drain).
    pub forward: u64,
    /// Loads parked behind an older store whose address is unknown.
    pub store_address: u64,
}

/// What a compute attempt leaves for the execute stage's scheduler.
enum Attempt {
    /// Computed, or left its next attempt in `retry_at`: a cycle, or
    /// `u64::MAX` while asleep in a waiter list or parked until the VP.
    Hinted,
    /// Must be tried again next pass.
    Again,
    /// Stopped by an older store whose address is unknown, having bumped
    /// nothing.
    BehindStore,
}

const DEADLOCK_WINDOW: u64 = 50_000;

/// One stall-attribution class (mirrors the fields of
/// [`crate::stats::StallBreakdown`]); the classification half of stall
/// accounting, factored out so the idle fast-forward can attribute a
/// whole run of identical stall cycles in a single bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallClass {
    IsvFence,
    IsvMiss,
    DsvFence,
    DsvmtMiss,
    VpWait,
    Squash,
    Frontend,
    Backend,
}

/// The simulated out-of-order core.
pub struct Core {
    /// Configuration (Table 7.1).
    pub cfg: CoreConfig,
    /// Cache hierarchy.
    pub mem: MemoryHierarchy,
    /// Committed architectural state.
    pub machine: Machine,
    /// Prediction structures — shared across contexts, never flushed.
    pub pred: Predictors,
    policy: Box<dyn SpecPolicy>,
    hooks: Box<dyn HookHandler>,

    rob: ReorderBuffer,
    now: u64,
    last_commit_cycle: u64,
    halted: bool,

    fetch_pc: u64,
    fetch_stall_until: u64,
    /// End of the most recent mispredict-redirect penalty window — lets
    /// stall attribution tell squash recovery apart from other front-end
    /// stalls.
    squash_redirect_until: u64,
    fetch_halted: bool,
    fetch_wait_indirect: Option<u64>,
    last_fetch_line: u64,

    rename: [Option<u64>; NUM_REGS],
    /// Speculative call stack and the RSB's undo log (branch
    /// checkpoints).
    returns: SpecReturns,

    /// Did the last `step` mutate anything beyond the per-cycle clocks
    /// and stall accounting? Set at every mutation site; a cycle that
    /// leaves it false is provably idempotent until the next time
    /// threshold, which is what licenses the idle fast-forward.
    made_progress: bool,
    /// Cycles skipped by the idle fast-forward. Deliberately *not* part
    /// of [`SimStats`]: it is a property of the simulator, not of the
    /// simulated machine, and must never reach serialized output (which
    /// is required to be byte-identical with fast-forward on and off).
    ff_skipped: u64,
    exec_waits: ExecWaits,

    call_trace: Option<std::collections::HashSet<u64>>,
    sni: Option<SniChecker>,
    stats: SimStats,
}

impl Core {
    /// Build a core around a machine image, memory hierarchy, speculation
    /// policy and kernel hook handler. The ROB's ring is sized here, from
    /// `cfg.rob_entries`.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, when `cfg` has a zero `width`,
    /// `rob_entries`, `lq_entries` or `sq_entries` (such a core could
    /// never commit).
    pub fn new(
        cfg: CoreConfig,
        machine: Machine,
        mem: MemoryHierarchy,
        policy: Box<dyn SpecPolicy>,
        hooks: Box<dyn HookHandler>,
    ) -> Self {
        for (field, value) in [
            ("width", cfg.width),
            ("rob_entries", cfg.rob_entries),
            ("lq_entries", cfg.lq_entries),
            ("sq_entries", cfg.sq_entries),
        ] {
            assert!(value >= 1, "CoreConfig::{field} must be at least 1");
        }
        let pred = Predictors::with_btb_mode(cfg.btb_entries, cfg.rsb_entries, cfg.btb_mode);
        Core {
            cfg,
            mem,
            machine,
            pred,
            policy,
            hooks,
            rob: ReorderBuffer::new(cfg.rob_entries),
            now: 0,
            last_commit_cycle: 0,
            halted: false,
            fetch_pc: 0,
            fetch_stall_until: 0,
            squash_redirect_until: 0,
            fetch_halted: false,
            fetch_wait_indirect: None,
            last_fetch_line: u64::MAX,
            rename: [None; NUM_REGS],
            returns: SpecReturns::default(),
            made_progress: false,
            ff_skipped: 0,
            exec_waits: ExecWaits::default(),
            call_trace: None,
            sni: None,
            stats: SimStats::default(),
        }
    }

    /// Attach a speculative non-interference checker; its counters
    /// accumulate into this core's [`SimStats::sni`] and export as
    /// `sim.sni.*` metrics.
    pub fn attach_sni(&mut self, checker: SniChecker) {
        self.sni = Some(checker);
    }

    /// Start recording the *committed* control-transfer targets (calls,
    /// indirect calls, indirect jumps) — the substrate of dynamic ISV
    /// generation, analogous to kernel-level tracing (ftrace).
    pub fn enable_call_trace(&mut self) {
        self.call_trace = Some(std::collections::HashSet::new());
    }

    /// Stop tracing and return the recorded target set.
    pub fn take_call_trace(&mut self) -> std::collections::HashSet<u64> {
        self.call_trace.take().unwrap_or_default()
    }

    /// Cumulative statistics across all runs.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The plugged-in policy (for counter inspection).
    pub fn policy(&self) -> &dyn SpecPolicy {
        self.policy.as_ref()
    }

    /// Mutable access to the policy (e.g. to reconfigure ISVs at runtime).
    pub fn policy_mut(&mut self) -> &mut dyn SpecPolicy {
        self.policy.as_mut()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles the idle fast-forward has skipped so far (0 when disabled).
    /// A simulator-side diagnostic — intentionally outside [`SimStats`]
    /// so serialized experiment output stays byte-identical with the
    /// fast-forward on and off.
    pub fn ff_skipped_cycles(&self) -> u64 {
        self.ff_skipped
    }

    /// The execute stage's wait counts so far (see [`ExecWaits`]).
    pub fn exec_waits(&self) -> ExecWaits {
        self.exec_waits
    }

    /// Run the program at `entry` until a `Halt` commits or `max_cycles`
    /// elapse. Pipeline state is reset; architectural and
    /// microarchitectural (cache, predictor) state persists across runs —
    /// which is exactly what cross-context attacks rely on.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on unmapped committed-path fetches, call
    /// stack underflow, deadlock, or budget exhaustion.
    pub fn run(&mut self, entry: u64, max_cycles: u64) -> Result<RunSummary, SimError> {
        let start_stats = self.stats;
        let start_cycle = self.now;
        self.rob.clear();
        self.halted = false;
        self.fetch_pc = entry;
        self.fetch_stall_until = self.now;
        self.squash_redirect_until = self.now;
        self.fetch_halted = false;
        self.fetch_wait_indirect = None;
        self.last_fetch_line = u64::MAX;
        self.rename = [None; NUM_REGS];
        self.returns.reset(&self.machine.call_stack);
        self.last_commit_cycle = self.now;
        if let Some(sni) = self.sni.as_mut() {
            sni.on_run_start(entry);
        }

        while !self.halted {
            if self.now - start_cycle > max_cycles {
                return Err(SimError::CycleBudgetExhausted { budget: max_cycles });
            }
            if self.now - self.last_commit_cycle > DEADLOCK_WINDOW {
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    head_pc: self.rob.front().map(|e| e.pc),
                });
            }
            self.made_progress = false;
            self.step()?;
            if self.cfg.idle_fastforward && !self.made_progress {
                self.fast_forward(start_cycle, max_cycles);
            }
        }
        Ok(RunSummary {
            stats: self.stats.delta_since(&start_stats),
        })
    }

    fn step(&mut self) -> Result<(), SimError> {
        let mut control_cut = self.rob.oldest_unresolved_control(self.now);
        self.exec_stage(control_cut);
        self.squash_stage();
        // A squash keeps the cut-off's entry, or drops it along with
        // everything younger and leaves only resolved control entries.
        if control_cut >= self.rob.next_seq() {
            control_cut = u64::MAX;
        }
        self.vp_stage(control_cut);
        let committed = self.commit_stage()?;
        if committed == 0 {
            // Classify before fetch refills the ROB: the state that
            // produced the empty commit slot is what gets the blame.
            self.record_stall();
        } else {
            self.made_progress = true;
        }
        self.fetch_stage()?;
        #[cfg(debug_assertions)]
        self.rob.check_invariants(self.now);
        if self.machine.mode == Mode::Kernel {
            self.stats.kernel_cycles += 1;
        } else {
            self.stats.user_cycles += 1;
        }
        self.stats.cycles += 1;
        self.now += 1;
        Ok(())
    }

    // ----- helpers ------------------------------------------------------

    /// The source value and its taint, if available at cycle `now`.
    fn src_status(&self, dep: &SrcDep) -> Option<(u64, TaintSet)> {
        match dep.producer() {
            None => Some((dep.snapshot(), TaintSet::default())),
            Some(seq) => match self.rob.index_of(seq) {
                None => Some((self.machine.reg(dep.reg), TaintSet::default())),
                Some(idx) => {
                    let p = &self.rob[idx];
                    if p.computed && p.ready_at <= self.now {
                        Some((p.value, p.taint))
                    } else {
                        None
                    }
                }
            },
        }
    }

    /// Does the taint set contain a root load that is still speculative
    /// (in flight and not at its VP)?
    fn taint_active(&self, taint: &TaintSet, any_older_unresolved: bool) -> bool {
        if taint.saturated() {
            return any_older_unresolved;
        }
        taint
            .roots()
            .iter()
            .any(|&seq| self.rob.index_of(seq).is_some())
    }

    // ----- execute ------------------------------------------------------

    /// Attempt, oldest first, exactly the entries whose attempt can
    /// change something this cycle. Behaviorally identical to walking
    /// every in-flight entry in program order and attempting each one
    /// that is not computed, not serializing, past the front end
    /// (`fetch_ready`), past its retry hint (`retry_at`) and not behind a
    /// fence, with the three ordering flags accumulated along the walk.
    ///
    /// The work list comes from the ROB's scheduler (see
    /// `ReorderBuffer::start_pass`); each attempt's outcome decides where
    /// the entry waits next. The flags are cut-offs in seq order:
    ///
    /// * older unresolved control: `seq > control_cut`, the oldest
    ///   unresolved control entry. It cannot move during the pass,
    ///   because a control entry that computes now gets `ready_at > now`;
    /// * older fence: `seq >` the oldest fence in flight;
    /// * older unknown-address store: `seq >` the oldest uncomputed
    ///   store. When that store computes, later in program order than
    ///   everything visited so far, the cut-off advances, and the loads
    ///   parked between the old and the new cut-off join this pass.
    fn exec_stage(&mut self, control_cut: u64) {
        let now = self.now;
        #[cfg(debug_assertions)]
        let expected = self.debug_attemptable();
        #[cfg(debug_assertions)]
        let mut attempted = Vec::new();
        let fence_cut = self.rob.fences().front().copied().unwrap_or(u64::MAX);
        let mut store_cut = self.rob.oldest_unknown_store();
        self.rob.start_pass(now);
        while let Some(i) = self.rob.pop_work() {
            let seq = self.rob[i].seq;
            self.rob[i].sched = Sched::Idle;
            if self.rob[i].computed {
                continue; // a carried load the VP stage issued
            }
            if seq > fence_cut {
                self.exec_waits.fence += 1;
                self.rob.carry(i);
                continue;
            }
            #[cfg(debug_assertions)]
            {
                let e = &self.rob[i];
                assert!(
                    e.fetch_ready <= now && e.retry_at <= now && !e.inst.is_serializing(),
                    "the scheduler attempts only what the full walk would"
                );
                assert!(attempted.last() < Some(&seq), "attempts run in seq order");
                attempted.push(seq);
            }
            match self.try_compute(i, seq > control_cut, seq > store_cut) {
                Attempt::Again => self.rob.carry(i),
                Attempt::BehindStore => {
                    self.exec_waits.store_address += 1;
                    self.rob.park_behind_store(i);
                }
                Attempt::Hinted => {
                    let e = &self.rob[i];
                    if e.computed {
                        if seq == store_cut {
                            store_cut = self.rob.oldest_unknown_store();
                            self.rob.release_store_waiters(store_cut);
                        }
                    } else if e.retry_at != u64::MAX {
                        let retry_at = e.retry_at;
                        self.rob.schedule_at(i, retry_at);
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        for seq in expected {
            let e = self.rob.by_seq(seq);
            assert!(
                attempted.binary_search(&seq).is_ok()
                    || (e.sched == Sched::StoreWait && seq > store_cut),
                "seq {seq} was due at cycle {now} but not attempted"
            );
        }
    }

    /// Debug builds: the entries the full program-order walk would
    /// attempt this cycle (ignoring the store flag, which only turns an
    /// attempt into a no-op).
    #[cfg(debug_assertions)]
    fn debug_attemptable(&self) -> Vec<u64> {
        let mut older_fence = false;
        let mut due = Vec::new();
        for e in self.rob.iter() {
            if !e.computed
                && !e.inst.is_serializing()
                && !older_fence
                && e.fetch_ready <= self.now
                && e.retry_at <= self.now
            {
                due.push(e.seq);
            }
            older_fence |= matches!(e.inst, Inst::Fence);
        }
        due
    }

    fn try_compute(
        &mut self,
        i: usize,
        speculative: bool,
        older_store_addr_unknown: bool,
    ) -> Attempt {
        // Gather sources (SrcList is Copy — no per-attempt allocation).
        let deps = self.rob[i].srcs;
        let mut vals = [0u64; 2];
        let mut nvals = 0;
        let mut taint = TaintSet::default();
        let mut bumped = false;
        for dep in deps.as_slice() {
            match self.src_status(dep) {
                Some((v, t)) => {
                    vals[nvals] = v;
                    nvals += 1;
                    if taint.merge(&t) {
                        // Counted even if a later operand turns out not
                        // ready, so the bump can repeat across cycles:
                        // a counter mutation the fast-forward must not
                        // skip over.
                        self.stats.taint_roots_overflow += 1;
                        self.made_progress = true;
                        bumped = true;
                    }
                }
                None => {
                    // Operands not ready. Leave a retry hint so the
                    // execute stage stops re-running this gather every
                    // cycle: until the failing producer's result is
                    // ready nothing observable can change — the deps
                    // ahead of it are ready (their values, and whether
                    // their merge bumps the overflow counter, are fixed
                    // for the whole wait), and this attempt bumped
                    // nothing. When it *did* bump (a saturated source
                    // taint), the bump must repeat every cycle, so no
                    // skip is allowed; same when the producer itself is
                    // not yet computed (its finish time is unknown).
                    let my_seq = self.rob[i].seq;
                    self.rob[i].retry_at = if bumped {
                        self.now + 1
                    } else {
                        match dep.producer().and_then(|s| self.rob.index_of(s)) {
                            Some(p) if self.rob[p].computed => self.rob[p].ready_at,
                            Some(p) => {
                                // The producer hasn't even computed, so no
                                // finish time exists yet: sleep in its
                                // waiter list until its compute site wakes
                                // us (fall back to polling if the list is
                                // full). The producer is strictly older,
                                // so any squash that kills it kills this
                                // entry too — a sleeper can't be stranded.
                                let q = &mut self.rob[p];
                                if (q.n_waiters as usize) < q.waiters.len() {
                                    q.waiters[q.n_waiters as usize] = my_seq;
                                    q.n_waiters += 1;
                                    u64::MAX
                                } else {
                                    self.now + 1
                                }
                            }
                            None => self.now + 1,
                        }
                    };
                    return Attempt::Hinted;
                }
            }
        }

        let inst = self.rob[i].inst;
        let pc = self.rob[i].pc;
        let seq = self.rob[i].seq;
        match inst {
            Inst::Alu { op, .. } => {
                let e = &mut self.rob[i];
                e.value = op.apply(vals[0], vals[1]);
                e.ready_at = self.now + op.latency();
                e.taint = taint;
                e.computed = true;
            }
            Inst::AluImm { op, imm, .. } => {
                let e = &mut self.rob[i];
                e.value = op.apply(vals[0], imm);
                e.ready_at = self.now + op.latency();
                e.taint = taint;
                e.computed = true;
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(vals[0], vals[1]);
                let lat = self.cfg.branch_resolve_latency.max(1);
                let e = &mut self.rob[i];
                e.actual_taken = taken;
                e.actual_target = if taken { target } else { pc + INST_BYTES };
                e.mispred = e.actual_target != e.pred_target;
                e.ready_at = self.now + lat;
                e.computed = true;
            }
            Inst::JumpInd { .. } | Inst::CallInd { .. } => {
                let target = vals[0];
                let e = &mut self.rob[i];
                e.actual_target = target;
                e.mispred = e.pred_target != target;
                e.ready_at = self.now + 1;
                e.computed = true;
                let ready_at = e.ready_at;
                // Resume a front-end stalled on this unpredicted indirect.
                if self.fetch_wait_indirect == Some(seq) {
                    self.fetch_wait_indirect = None;
                    self.fetch_pc = target;
                    let extra = if self.policy.predict_indirect() {
                        0
                    } else {
                        self.cfg.retpoline_cost
                    };
                    self.fetch_stall_until = self.fetch_stall_until.max(ready_at + extra);
                    self.rob[i].mispred = false;
                    self.rob[i].pred_target = target;
                }
            }
            Inst::Store { width, .. } => {
                let e = &mut self.rob[i];
                e.store_val = vals[0];
                e.addr = vals[1].wrapping_add(store_offset(&inst) as u64);
                e.width = width;
                e.taint = taint;
                e.ready_at = self.now + 1;
                e.computed = true;
            }
            Inst::Load { offset, width, .. } => {
                let addr = vals[0].wrapping_add(offset as u64);
                // Memory disambiguation: conservative — wait while any older
                // store address is unknown. Until then every attempt is a
                // no-op (the operands are fixed), so the load parks until
                // the store computes — unless this gather bumped the
                // taint-overflow counter, which then has to bump again
                // every cycle.
                if older_store_addr_unknown {
                    return if bumped {
                        Attempt::Again
                    } else {
                        Attempt::BehindStore
                    };
                }
                // Store-to-load forwarding from the youngest matching older
                // store; overlap without exact match stalls until it drains.
                // The store queue holds exactly the stores in the ROB.
                let mut forward: Option<(u64, TaintSet)> = None;
                let mut must_wait = false;
                let stores = self.rob.stores();
                let older = stores.partition_point(|&s| s < seq);
                for &sseq in stores.range(..older).rev() {
                    let s = self.rob.by_seq(sseq);
                    let (sa, sw) = (s.addr, s.width.bytes());
                    let (la, lw) = (addr, width.bytes());
                    if sa == la && sw == lw {
                        forward = Some((s.store_val, s.taint));
                        break;
                    }
                    if sa < la + lw && la < sa + sw {
                        must_wait = true;
                        break;
                    }
                }
                if must_wait {
                    self.exec_waits.forward += 1;
                    return Attempt::Again;
                }
                if let Some((v, t)) = forward {
                    let e = &mut self.rob[i];
                    e.value = mask_width(v, width);
                    e.addr = addr;
                    e.width = width;
                    e.ready_at = self.now + 1;
                    e.taint = t;
                    e.computed = true;
                    e.issued_mem = false;
                    self.made_progress = true;
                    self.wake_waiters(i);
                    return Attempt::Hinted;
                }
                // Policy gate.
                let tainted_addr = self.taint_active(&taint, speculative) && speculative;
                let ctx = LoadCtx {
                    pc,
                    addr,
                    mode: self.machine.mode,
                    asid: self.machine.asid,
                    speculative,
                    tainted_addr,
                    l1_hit: self.mem.probe_l1d(addr),
                    cur_sysno: self.machine.cur_sysno,
                };
                if self.rob[i].blocked.is_none() {
                    match self.policy.check_load(&ctx) {
                        LoadDecision::Allow => {
                            if speculative {
                                if let Some(sni) = self.sni.as_mut() {
                                    sni.on_spec_issue(
                                        &ctx,
                                        seq,
                                        taint.roots(),
                                        taint.saturated(),
                                        &mut self.stats.sni,
                                    );
                                }
                            }
                            self.issue_load(i, addr, width, taint, speculative);
                        }
                        LoadDecision::BlockUntilVp(src) => {
                            let e = &mut self.rob[i];
                            e.blocked = Some(src);
                            e.block_memo = Some(src);
                            e.was_blocked = true;
                            e.addr = addr;
                            e.width = width;
                            e.taint = taint;
                            // Park the load until `vp_stage` issues it:
                            // every further attempt is a no-op (all older
                            // stores had known addresses and none
                            // overlapped, which stays true as stores only
                            // leave; the operands are fixed; the policy is
                            // not asked again) — unless this gather bumped
                            // the taint-overflow counter, which then has
                            // to bump again every cycle.
                            if !bumped {
                                e.retry_at = u64::MAX;
                            }
                            self.stats.loads_fenced += 1;
                            self.made_progress = true;
                        }
                    }
                } else if !bumped {
                    // Retried only because an earlier gather bumped; this
                    // one did not, and fewer roots can only shrink the
                    // merge, so no later attempt bumps either.
                    self.rob[i].retry_at = u64::MAX;
                }
                // Blocked loads are issued by `vp_stage` once safe.
                if self.rob[i].blocked.is_some() && bumped {
                    return Attempt::Again;
                }
            }
            Inst::CacheFlush { offset, .. } => {
                let addr = vals[0].wrapping_add(offset as u64);
                if speculative {
                    if let Some(sni) = self.sni.as_mut() {
                        sni.on_spec_flush(taint.roots(), taint.saturated(), &mut self.stats.sni);
                    }
                }
                // Flushes are not policy-gated; they perform at execute.
                self.mem.flush(addr);
                let e = &mut self.rob[i];
                e.addr = addr;
                e.ready_at = self.now + 1;
                e.computed = true;
            }
            Inst::Fence | Inst::Nop => {
                let e = &mut self.rob[i];
                e.ready_at = self.now + 1;
                e.computed = true;
            }
            // MovImm / Jump / Call / Ret are computed at decode.
            // Serializing instructions are computed at the ROB head.
            _ => {}
        }
        // Every arm that fired set `computed` (directly or via
        // `issue_load`, which flags progress itself); the blocked-load
        // arm flagged it explicitly above.
        if self.rob[i].computed {
            self.made_progress = true;
            self.wake_waiters(i);
            if self.rob[i].mispred {
                self.rob.note_mispredict(i);
            }
        }
        Attempt::Hinted
    }

    /// Wake consumers sleeping on entry `i`'s result (see
    /// `RobEntry::waiters`): reset their gather-retry hint to this
    /// entry's `ready_at`, the first cycle the operand can be read.
    /// Must be called at every `computed` transition. Every listed
    /// sleeper is still in flight: it is younger than this entry, so it
    /// cannot have committed, and a squash purges the seqs it drops.
    fn wake_waiters(&mut self, i: usize) {
        let n = self.rob[i].n_waiters as usize;
        if n == 0 {
            return;
        }
        let ready_at = self.rob[i].ready_at;
        let ws = self.rob[i].waiters;
        self.rob[i].n_waiters = 0;
        for &w in &ws[..n] {
            let j = self.rob.index_of(w).expect("sleepers are in flight");
            debug_assert!(self.rob[j].blocked.is_none(), "parked loads never sleep");
            self.rob[j].retry_at = ready_at;
            self.rob.schedule_at(j, ready_at);
        }
    }

    fn issue_load(
        &mut self,
        i: usize,
        addr: u64,
        width: Width,
        mut taint: TaintSet,
        speculative: bool,
    ) {
        let (lat, _level) = self.mem.read_classified(addr);
        let value = self.machine.mem.read(addr, width);
        if speculative {
            let seq = self.rob[i].seq;
            if taint.add_root(seq) {
                self.stats.taint_roots_overflow += 1;
            }
        }
        let e = &mut self.rob[i];
        e.value = value;
        e.addr = addr;
        e.width = width;
        e.ready_at = self.now + lat;
        e.taint = taint;
        e.computed = true;
        e.issued_mem = true;
        e.spec_at_issue = speculative;
        e.blocked = None;
        self.made_progress = true;
        self.wake_waiters(i);
    }

    // ----- squash -------------------------------------------------------

    /// Squash after the oldest control entry whose misprediction is
    /// visible at `now`. Only the entries on the ROB's mispredicted list
    /// can qualify, so the search looks there.
    fn squash_stage(&mut self) {
        let Some(i) = self.rob.take_due_mispredict(self.now) else {
            return;
        };
        self.made_progress = true;

        // Restore front-end state to the mispredicting entry's checkpoint.
        let (actual_target, hist_snapshot, actual_taken, is_cond, checkpoint) = {
            let e = &mut self.rob[i];
            e.squash_done = true;
            (
                e.actual_target,
                e.hist_snapshot,
                e.actual_taken,
                matches!(e.inst, Inst::Branch { .. }),
                e.checkpoint,
            )
        };
        self.returns.restore(checkpoint, &mut self.pred.rsb);
        #[cfg(debug_assertions)]
        if let Some((rsb, stack)) = &self.rob[i].debug_returns {
            assert_eq!(&self.pred.rsb, rsb, "RSB restore must match the checkpoint");
            assert_eq!(self.returns.stack(), &stack[..], "call-stack restore");
        }
        if is_cond {
            self.pred.hist = (hist_snapshot << 1) | u64::from(actual_taken);
        } else {
            self.pred.hist = hist_snapshot;
        }

        // Drop younger entries.
        let stats = &mut self.stats;
        let sni = &mut self.sni;
        self.rob.truncate(i + 1, |dropped| {
            stats.squashed_insts += 1;
            if let Some(sni) = sni.as_mut() {
                sni.on_squash(dropped.seq);
            }
            if dropped.is_load() && dropped.issued_mem && dropped.spec_at_issue {
                stats.transient_loads_issued += 1;
            }
        });
        self.stats.squashes += 1;

        // Rebuild the rename table from surviving entries.
        self.rename = [None; NUM_REGS];
        for e in self.rob.iter() {
            if let Some(dst) = e.inst.dst() {
                self.rename[dst as usize] = Some(e.seq);
            }
        }

        self.fetch_pc = actual_target;
        self.fetch_stall_until = self.now + self.cfg.mispredict_penalty;
        self.squash_redirect_until = self.fetch_stall_until;
        self.fetch_halted = false;
        self.fetch_wait_indirect = None;
        self.last_fetch_line = u64::MAX;
    }

    // ----- visibility points ---------------------------------------------

    /// Issue policy-blocked loads and notify the policy of issued loads
    /// once they reach their visibility point: no older control entry
    /// is unresolved (`seq < control_cut`). Only loads act here, and
    /// issuing a load never resolves a control entry, so the walk covers
    /// exactly the loads older than the cut-off, in program order. It
    /// starts past the leading loads that are settled (see
    /// `RobEntry::vp_settled`): settling is permanent, so the walk
    /// advances that cursor over every load it leaves settled.
    fn vp_stage(&mut self, control_cut: u64) {
        #[cfg(debug_assertions)]
        assert_eq!(
            control_cut,
            self.rob.walk_unresolved_control(self.now),
            "the step's control cut-off disagrees with a walk of the control queue"
        );
        let start = self.rob.loads_settled();
        let mut settled = start;
        for k in start..self.rob.loads().len() {
            let seq = self.rob.loads()[k];
            if seq >= control_cut {
                break;
            }
            let i = self.rob.index_of(seq).expect("queued load in flight");
            if self.rob[i].blocked.is_some() {
                let (addr, width, taint) = {
                    let e = &self.rob[i];
                    (e.addr, e.width, e.taint)
                };
                self.issue_load(i, addr, width, taint, false);
            }
            let e = &self.rob[i];
            if e.computed && e.issued_mem && !e.vp_notified {
                let ctx = LoadCtx {
                    pc: e.pc,
                    addr: e.addr,
                    mode: self.machine.mode,
                    asid: self.machine.asid,
                    speculative: false,
                    tainted_addr: false,
                    l1_hit: true,
                    cur_sysno: self.machine.cur_sysno,
                };
                self.policy.on_load_vp(&ctx);
                self.rob[i].vp_notified = true;
                // The VP notification mutates policy-side state
                // (metadata-cache LRU commits, fence counters).
                self.made_progress = true;
            }
            if settled == k && self.rob[i].vp_settled() {
                settled += 1;
            }
        }
        self.rob.set_loads_settled(settled);
    }

    // ----- stall attribution --------------------------------------------

    /// Classify the mechanism holding the ROB head back at `self.now`.
    /// Pure: shared by the per-cycle `record_stall` and by the idle
    /// fast-forward, which accounts a whole run of identical stall cycles
    /// in one step.
    fn classify_stall(&self) -> StallClass {
        let Some(head) = self.rob.front() else {
            // Empty ROB: the front end is the bottleneck — either a
            // squash-redirect penalty or an ordinary fetch stall.
            return if self.now < self.squash_redirect_until {
                StallClass::Squash
            } else {
                StallClass::Frontend
            };
        };
        // A policy-blocked head load — or one still paying the memory
        // latency of its delayed (post-VP) issue — blames the policy.
        let policy_src = head.blocked.or((head.computed
            && head.ready_at > self.now
            && head.was_blocked)
            .then_some(head.block_memo)
            .flatten());
        if let Some(src) = policy_src {
            return match src {
                BlockSource::Isv => StallClass::IsvFence,
                BlockSource::IsvMiss => StallClass::IsvMiss,
                BlockSource::Dsv | BlockSource::UnknownAlloc => StallClass::DsvFence,
                BlockSource::DsvmtMiss => StallClass::DsvmtMiss,
                BlockSource::Fence | BlockSource::Dom | BlockSource::Stt => StallClass::VpWait,
            };
        }
        if !head.computed && head.fetch_ready > self.now {
            StallClass::Frontend
        } else {
            StallClass::Backend
        }
    }

    /// Account `n` stall cycles to `class`, keeping the invariant that
    /// the breakdown sums to `stats.stall_cycles` exactly.
    fn account_stalls(&mut self, class: StallClass, n: u64) {
        self.stats.stall_cycles += n;
        let b = &mut self.stats.stalls;
        match class {
            StallClass::IsvFence => b.isv_fence += n,
            StallClass::IsvMiss => b.isv_miss += n,
            StallClass::DsvFence => b.dsv_fence += n,
            StallClass::DsvmtMiss => b.dsvmt_miss += n,
            StallClass::VpWait => b.vp_wait += n,
            StallClass::Squash => b.squash += n,
            StallClass::Frontend => b.frontend += n,
            StallClass::Backend => b.backend += n,
        }
    }

    /// Account one stall cycle (nothing committed this cycle) to the
    /// mechanism holding the ROB head back. Exactly one breakdown class
    /// is bumped per call, so the breakdown always sums to
    /// `stats.stall_cycles`.
    fn record_stall(&mut self) {
        self.account_stalls(self.classify_stall(), 1);
    }

    // ----- idle fast-forward --------------------------------------------

    /// Earliest future cycle at which any time-threshold comparison in
    /// `step` can change its outcome: an in-flight instruction leaving
    /// the front end (`fetch_ready`) or finishing execution/memory
    /// (`ready_at`), the front end coming out of a redirect/refill/
    /// retpoline stall (`fetch_stall_until`), or the squash-attribution
    /// window closing (`squash_redirect_until` — a pure classification
    /// boundary, but `record_stall` reads it). `u64::MAX` when no future
    /// event exists (a genuine deadlock; the watchdog deadline caps it).
    fn next_wake(&self) -> u64 {
        // The idle step just ran at `now - 1`; the next step runs at
        // `now`. A threshold at exactly `now` can already flip a
        // comparison for that step, so `t >= now` (not `t > now`) —
        // thresholds strictly in the past are settled by monotonicity.
        let now = self.now;
        let mut wake = u64::MAX;
        let mut consider = |t: u64| {
            if t >= now && t < wake {
                wake = t;
            }
        };
        for e in self.rob.iter() {
            if e.computed {
                consider(e.ready_at);
            } else {
                consider(e.fetch_ready);
            }
        }
        consider(self.fetch_stall_until);
        consider(self.squash_redirect_until);
        wake
    }

    /// Bulk-advance the clock over a run of idle cycles.
    ///
    /// Called right after a `step` that made no progress: such a step is
    /// a pure function of `(state, now)` whose only effects are the
    /// per-cycle clocks and one stall-attribution bump, and every time
    /// comparison it performs is a monotone threshold check — so it stays
    /// a no-op until [`Core::next_wake`]. Each skipped cycle is accounted
    /// exactly as the slow path would have: `stall_cycles` and the (one,
    /// constant over the interval) matching breakdown class, the
    /// kernel/user cycle for the current (unchanging) privilege mode, and
    /// `cycles`/`now`. The jump is capped at the cycle-budget and
    /// deadlock-watchdog deadlines so both errors fire at the identical
    /// cycle with identical counters as the slow path.
    fn fast_forward(&mut self, start_cycle: u64, max_cycles: u64) {
        let budget_deadline = start_cycle.saturating_add(max_cycles).saturating_add(1);
        let deadlock_deadline = self.last_commit_cycle + DEADLOCK_WINDOW + 1;
        let wake = self.next_wake().min(budget_deadline).min(deadlock_deadline);
        let delta = wake.saturating_sub(self.now);
        if delta == 0 {
            return;
        }
        self.account_stalls(self.classify_stall(), delta);
        if self.machine.mode == Mode::Kernel {
            self.stats.kernel_cycles += delta;
        } else {
            self.stats.user_cycles += delta;
        }
        self.stats.cycles += delta;
        self.now += delta;
        self.ff_skipped += delta;
    }

    // ----- commit -------------------------------------------------------

    fn commit_stage(&mut self) -> Result<u32, SimError> {
        let mut committed = 0u32;
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.front() else { break };

            // Serializing instructions execute at the head.
            if head.inst.is_serializing() && !head.computed {
                let inst = head.inst;
                let e = &mut self.rob[0];
                if let Inst::RdTsc { .. } = inst {
                    e.value = self.now
                }
                e.ready_at = self.now;
                e.computed = true;
                // Serializing instructions commit in this same loop pass:
                // release any sleeping consumers before the entry leaves
                // the ROB.
                self.wake_waiters(0);
            }

            let head = self.rob.front().expect("nonempty");
            if !head.computed || head.ready_at > self.now {
                break;
            }
            debug_assert!(
                !head.mispred || head.squash_done,
                "mispredicted control must squash before commit"
            );

            self.rob.pop_front();
            let entry = self.rob.retired();
            if entry.can_mispredict {
                // Its checkpoint dies with it: keep only the undo records
                // the oldest remaining control entry can still need.
                let oldest = match self.rob.control().front() {
                    Some(&seq) => self.rob.by_seq(seq).checkpoint,
                    None => self.returns.checkpoint(),
                };
                self.returns.release_before(oldest);
            }
            self.last_commit_cycle = self.now;
            self.stats.committed_insts += 1;
            committed += 1;

            let r = RetiredInst {
                seq: entry.seq,
                pc: entry.pc,
                inst: entry.inst,
                value: entry.value,
                addr: entry.addr,
                width: entry.width,
                store_val: entry.store_val,
                taken: entry.actual_taken,
                target: entry.actual_target,
            };
            // Differential shadow replay: check the retired instruction
            // against architectural state *before* its commit effects.
            if let Some(sni) = self.sni.as_mut() {
                sni.on_commit(&r, &self.machine, &mut self.stats.sni);
            }

            // The microarchitectural half of commit. Free the rename slot
            // if this entry is still the last writer.
            if let Some(dst) = r.inst.dst() {
                if self.rename[dst as usize] == Some(r.seq) {
                    self.rename[dst as usize] = None;
                }
            }
            match r.inst {
                Inst::Store { .. } => {
                    self.mem.write(r.addr);
                    self.stats.committed_stores += 1;
                }
                Inst::Load { .. } => self.stats.committed_loads += 1,
                Inst::Branch { .. } => {
                    self.stats.committed_branches += 1;
                    self.pred.dir.update(r.pc, entry.hist_snapshot, r.taken);
                }
                Inst::JumpInd { .. } | Inst::CallInd { .. } => {
                    self.pred
                        .btb
                        .install(r.pc, entry.hist_snapshot, r.target, entry.in_kernel);
                }
                Inst::Syscall => self.stats.syscalls += 1,
                _ => {}
            }

            // The architectural half, shared with the in-order engine.
            let (next_pc, hook_cycles) = match retire(
                &mut self.machine,
                self.hooks.as_mut(),
                self.call_trace.as_mut(),
                &r,
            )? {
                Flow::Halt => {
                    self.halted = true;
                    return Ok(committed);
                }
                Flow::Next { pc, hook_cycles } => (pc, hook_cycles),
            };

            // A serializing instruction restarts fetch behind itself.
            let extra = match r.inst {
                Inst::Syscall => self.policy.syscall_entry_cost(),
                Inst::Sysret => self.policy.syscall_exit_cost(),
                Inst::KHook { .. } => {
                    // Hooks may rewrite registers/memory wholesale; the
                    // pipe behind a serializing op is empty, so the spec
                    // view simply restarts from architectural state.
                    debug_assert!(self.rob.is_empty());
                    self.rename = [None; NUM_REGS];
                    self.returns.reset(&self.machine.call_stack);
                    hook_cycles
                }
                Inst::RdTsc { .. } => 0,
                _ => continue,
            };
            self.fetch_pc = next_pc;
            self.fetch_halted = false;
            self.fetch_stall_until = self.now + 1 + extra;
        }
        Ok(committed)
    }

    // ----- fetch / decode --------------------------------------------------

    fn fetch_stage(&mut self) -> Result<(), SimError> {
        if self.halted
            || self.fetch_halted
            || self.fetch_wait_indirect.is_some()
            || self.now < self.fetch_stall_until
        {
            return Ok(());
        }
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let pc = self.fetch_pc;
            let Some(inst) = self.machine.inst_at(pc) else {
                // Wrong-path fetch into unmapped memory simply stalls the
                // front-end until the squash redirects it. With an empty
                // ROB the committed path itself is bad: a real fault.
                if !self.rob.is_empty() {
                    return Ok(());
                }
                return Err(SimError::UnmappedFetch { pc });
            };

            // Instruction-cache timing: one lookup per new line.
            let line = pc & !63;
            if line != self.last_fetch_line {
                // The lookup itself mutates i-cache LRU/stats, even when
                // it ends up stalling fetch instead of decoding.
                self.made_progress = true;
                let lat = self.mem.fetch(pc);
                self.last_fetch_line = line;
                if lat > self.mem.config().l1i.rt_latency {
                    self.fetch_stall_until = self.now + lat;
                    return Ok(());
                }
            }

            // Capacity checks.
            if matches!(inst, Inst::Load { .. }) && self.rob.loads().len() >= self.cfg.lq_entries {
                break;
            }
            if matches!(inst, Inst::Store { .. }) && self.rob.stores().len() >= self.cfg.sq_entries
            {
                break;
            }

            self.decode_one(pc, inst);

            if inst.is_serializing() {
                self.fetch_halted = true;
                break;
            }
            if self.fetch_wait_indirect.is_some() {
                break;
            }
        }
        Ok(())
    }

    fn decode_one(&mut self, pc: u64, inst: Inst) {
        self.made_progress = true;
        let seq = self.rob.next_seq();

        let srcs = SrcList::new(&inst.srcs(), |reg| match self.rename[reg as usize] {
            Some(producer) => SrcDep::produced(reg, producer),
            None => SrcDep::architectural(reg, self.machine.reg(reg)),
        });

        let fetch_ready = self.now + self.cfg.frontend_latency;
        // Built in its ring slot: a ROB entry is never moved.
        let entry = self.rob.next_slot();
        *entry = RobEntry {
            seq,
            pc,
            inst,
            srcs,
            fetch_ready,
            hist_snapshot: self.pred.hist,
            in_kernel: self.machine.mode == Mode::Kernel,
            ..RobEntry::VACANT
        };

        match inst {
            Inst::MovImm { imm, .. } => {
                entry.value = imm;
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.fetch_pc = pc + INST_BYTES;
            }
            Inst::Branch { target, .. } => {
                let taken = self.pred.dir.predict(pc, self.pred.hist);
                entry.pred_target = if taken { target } else { pc + INST_BYTES };
                entry.can_mispredict = true;
                self.pred.hist = (self.pred.hist << 1) | u64::from(taken);
                self.fetch_pc = entry.pred_target;
            }
            Inst::Jump { target } => {
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.fetch_pc = target;
            }
            Inst::Call { target } => {
                self.returns.call(&mut self.pred.rsb, pc + INST_BYTES);
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.fetch_pc = target;
            }
            Inst::CallInd { .. } | Inst::JumpInd { .. } => {
                if matches!(inst, Inst::CallInd { .. }) {
                    self.returns.call(&mut self.pred.rsb, pc + INST_BYTES);
                }
                entry.can_mispredict = true;
                let in_kernel = self.machine.mode == Mode::Kernel;
                let prediction = if self.policy.predict_indirect() {
                    self.pred.btb.predict(pc, self.pred.hist, in_kernel)
                } else {
                    None
                };
                match prediction {
                    Some(t) => {
                        entry.pred_target = t;
                        self.fetch_pc = t;
                    }
                    None => {
                        // No prediction: stall fetch until the target
                        // resolves (also the retpoline path).
                        self.fetch_wait_indirect = Some(seq);
                        entry.pred_target = u64::MAX; // placeholder, fixed on resolve
                    }
                }
            }
            Inst::Ret => {
                let (actual, rsb_prediction) = self.returns.ret(&mut self.pred.rsb);
                let actual = actual.unwrap_or(u64::MAX);
                let in_kernel = self.machine.mode == Mode::Kernel;
                let predicted = rsb_prediction
                    .or_else(|| self.pred.btb.predict(pc, self.pred.hist, in_kernel))
                    .unwrap_or(pc + INST_BYTES);
                entry.can_mispredict = true;
                entry.actual_target = actual;
                entry.pred_target = predicted;
                entry.actual_taken = true;
                entry.mispred = predicted != actual;
                entry.ready_at = fetch_ready + self.cfg.ret_resolve_latency;
                entry.computed = true;
                self.fetch_pc = predicted;
            }
            _ => {
                self.fetch_pc = pc + INST_BYTES;
            }
        }

        // A squash by this entry restores the return state as it stands
        // after the entry's own decode (a call's push, a return's pop).
        entry.checkpoint = self.returns.checkpoint();
        #[cfg(debug_assertions)]
        if entry.can_mispredict {
            entry.debug_returns = Some((self.pred.rsb.clone(), self.returns.stack().to_vec()));
        }

        if let Some(dst) = inst.dst() {
            self.rename[dst as usize] = Some(seq);
        }
        self.rob.push();
    }
}

fn store_offset(inst: &Inst) -> i64 {
    match *inst {
        Inst::Store { offset, .. } => offset,
        _ => 0,
    }
}

fn mask_width(v: u64, w: Width) -> u64 {
    match w {
        Width::B => v & 0xff,
        Width::Q => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{HookAction, NullHooks};
    use crate::isa::AluOp;
    use crate::isa::{Assembler, Cond};
    use crate::policy::UnsafePolicy;
    use persp_mem::hierarchy::HierarchyConfig;

    fn core_with(text: Vec<(u64, Inst)>) -> Core {
        let mut machine = Machine::new();
        machine.load_text(text);
        Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(NullHooks),
        )
    }

    /// A paper-default core with `zero` applied to its configuration.
    fn core_with_config(zero: impl FnOnce(&mut CoreConfig)) -> Core {
        let mut cfg = CoreConfig::paper_default();
        zero(&mut cfg);
        Core::new(
            cfg,
            Machine::new(),
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(NullHooks),
        )
    }

    #[test]
    #[should_panic(expected = "CoreConfig::width must be at least 1")]
    fn zero_width_is_rejected() {
        core_with_config(|c| c.width = 0);
    }

    #[test]
    #[should_panic(expected = "CoreConfig::rob_entries must be at least 1")]
    fn zero_rob_entries_is_rejected() {
        core_with_config(|c| c.rob_entries = 0);
    }

    #[test]
    #[should_panic(expected = "CoreConfig::lq_entries must be at least 1")]
    fn zero_lq_entries_is_rejected() {
        core_with_config(|c| c.lq_entries = 0);
    }

    #[test]
    #[should_panic(expected = "CoreConfig::sq_entries must be at least 1")]
    fn zero_sq_entries_is_rejected() {
        core_with_config(|c| c.sq_entries = 0);
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Assembler::new(0x1000);
        a.movi(1, 20);
        a.movi(2, 22);
        a.alu(AluOp::Add, 3, 1, 2);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x1000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(3), 42);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Assembler::new(0x1000);
        a.movi(1, 0x8000);
        a.movi(2, 1234);
        a.store(2, 1, 0);
        a.load(3, 1, 0);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x1000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(3), 1234, "store-to-load forwarding");
        assert_eq!(core.machine.mem.read_u64(0x8000), 1234);
    }

    #[test]
    fn loop_with_branch() {
        // r1 = 0; while (r1 != 10) r1 += 1;
        let mut a = Assembler::new(0x2000);
        a.movi(1, 0);
        a.movi(2, 10);
        let top = a.here();
        a.alui(AluOp::Add, 1, 1, 1);
        a.branch_to(Cond::Ne, 1, 2, top);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        let summary = core.run(0x2000, 100_000).expect("runs");
        assert_eq!(core.machine.reg(1), 10);
        assert!(summary.stats.committed_branches >= 10);
    }

    #[test]
    fn call_and_ret() {
        let mut a = Assembler::new(0x3000);
        let f = 0x4000u64;
        a.push(Inst::Call { target: f });
        a.push(Inst::Halt);
        let mut main_text = a.finish();
        let mut fa = Assembler::new(f);
        fa.movi(5, 99);
        fa.push(Inst::Ret);
        main_text.extend(fa.finish());
        let mut core = core_with(main_text);
        core.run(0x3000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(5), 99);
        assert!(core.machine.call_stack.is_empty());
    }

    #[test]
    fn indirect_jump_resolves_without_prediction() {
        let mut a = Assembler::new(0x5000);
        a.movi(1, 0x5010);
        a.push(Inst::JumpInd { base: 1 });
        a.movi(2, 1); // skipped
        a.push(Inst::Nop); // 0x500c (skipped)
        let landing = a.here();
        assert_eq!(landing, 0x5010);
        a.movi(3, 7);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x5000, 10_000).expect("runs");
        assert_eq!(core.machine.reg(3), 7);
        assert_eq!(
            core.machine.reg(2),
            0,
            "skipped instruction must not commit"
        );
    }

    #[test]
    fn transient_wrong_path_load_fills_cache_but_does_not_commit() {
        // Spectre-style skeleton: train a branch taken, then flip the
        // condition; the wrong-path load touches memory, gets squashed,
        // and its line stays resident.
        let secret_addr = 0x9000u64;
        let bound_ptr = 0xA000u64;

        // Loop: r4 = i; bound = *(*bound_ptr); if (r4 < bound) { r6 = load secret }.
        let mut a = Assembler::new(0x6000);
        a.movi(1, bound_ptr);
        let skip = a.new_label();
        a.load(2, 1, 0); // r2 = *bound_ptr (pointer)
        a.load(3, 2, 0); // r3 = bound (two dependent loads = long window)
        a.branch(Cond::Geu, 10, 3, skip); // if i >= bound skip
        a.movi(5, secret_addr);
        a.load(6, 5, 0); // the "transient" load when mispredicted
        a.bind(skip);
        a.push(Inst::Halt);
        let text = a.finish();
        let branch_pc = text
            .iter()
            .find(|(_, i)| matches!(i, Inst::Branch { .. }))
            .map(|(a, _)| *a)
            .unwrap();

        let mut core = core_with(text);
        core.machine.mem.write_u64(bound_ptr, bound_ptr + 0x100);
        core.machine.mem.write_u64(bound_ptr + 0x100, 100); // bound = 100
        core.machine.mem.write_u64(secret_addr, 0x5ec7e7);

        // Train: i = 0 (< 100) → branch not taken, body executes.
        for _ in 0..6 {
            core.machine.set_reg(10, 0);
            core.run(0x6000, 100_000).expect("training run");
            assert_eq!(core.machine.reg(6), 0x5ec7e7);
        }

        // Attack run: i = 200 (>= 100) → branch *should* skip, but it is
        // predicted not-taken; make the bound loads slow so the window is
        // long enough for the wrong-path load to issue.
        core.mem.flush(bound_ptr);
        core.mem.flush(bound_ptr + 0x100);
        core.mem.flush(secret_addr);
        core.machine.set_reg(10, 200);
        core.machine.set_reg(6, 0);
        let before = core.stats();
        core.run(0x6000, 100_000).expect("attack run");
        let delta = core.stats().delta_since(&before);

        assert_eq!(core.machine.reg(6), 0, "transient load must not commit");
        assert!(delta.squashes >= 1, "the branch mispredicted: {delta:?}");
        assert!(
            delta.transient_loads_issued >= 1,
            "the wrong-path load issued transiently: {delta:?}"
        );
        assert!(
            core.mem.probe_any(secret_addr),
            "microarchitectural state persists"
        );
        let _ = branch_pc;
    }

    #[test]
    fn rdtsc_measures_load_latency() {
        let mut a = Assembler::new(0x7000);
        a.movi(1, 0xC000);
        a.push(Inst::RdTsc { dst: 2 });
        a.load(3, 1, 0);
        a.push(Inst::RdTsc { dst: 4 });
        a.alu(AluOp::Sub, 5, 4, 2);
        a.push(Inst::Halt);
        let text = a.finish();

        let mut core = core_with(text);
        // Cold: ~110 cycles; warm: ~2.
        core.run(0x7000, 10_000).expect("cold run");
        let cold = core.machine.reg(5);
        core.run(0x7000, 10_000).expect("warm run");
        let warm = core.machine.reg(5);
        assert!(cold > warm + 50, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn syscall_traps_to_kernel_and_back() {
        let mut a = Assembler::new(0x100);
        a.movi(17, 3);
        a.push(Inst::Syscall);
        a.movi(9, 77); // runs after sysret
        a.push(Inst::Halt);
        let mut text = a.finish();

        let mut k = Assembler::new(0xFFFF_0000);
        k.movi(8, 1); // kernel work
        k.push(Inst::Sysret);
        text.extend(k.finish());

        let mut core = core_with(text);
        core.machine.kernel_entry = 0xFFFF_0000;
        let summary = core.run(0x100, 10_000).expect("runs");
        assert_eq!(core.machine.reg(8), 1);
        assert_eq!(core.machine.reg(9), 77);
        assert_eq!(core.machine.mode, Mode::User);
        assert_eq!(summary.stats.syscalls, 1);
        assert!(summary.stats.kernel_cycles > 0);
    }

    #[test]
    fn unmapped_fetch_is_an_error() {
        let mut core = core_with(vec![(
            0x0,
            Inst::Jump {
                target: 0xdead_0000,
            },
        )]);
        let err = core.run(0x0, 10_000).unwrap_err();
        assert!(matches!(err, SimError::UnmappedFetch { .. }));
    }

    #[test]
    fn cycle_budget_is_enforced() {
        // Infinite loop.
        let mut a = Assembler::new(0x0);
        let top = a.here();
        a.branch_to(Cond::Eq, 0, 0, top);
        let mut core = core_with(a.finish());
        let err = core.run(0x0, 500).unwrap_err();
        assert!(matches!(err, SimError::CycleBudgetExhausted { .. }));
    }

    #[test]
    fn fence_orders_execution() {
        let mut a = Assembler::new(0x0);
        a.movi(1, 0x8000);
        a.push(Inst::Fence);
        a.load(2, 1, 0);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.machine.mem.write_u64(0x8000, 5);
        core.run(0x0, 10_000).expect("runs");
        assert_eq!(core.machine.reg(2), 5);
    }

    #[test]
    fn clflush_evicts() {
        let mut a = Assembler::new(0x0);
        a.movi(1, 0x8000);
        a.load(2, 1, 0); // fill
        a.push(Inst::CacheFlush { base: 1, offset: 0 });
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.run(0x0, 10_000).expect("runs");
        assert!(!core.mem.probe_any(0x8000));
    }

    #[test]
    fn khook_redirect_is_followed() {
        struct Redirector;
        impl HookHandler for Redirector {
            fn on_hook(&mut self, id: u16, m: &mut Machine) -> crate::hooks::HookResult {
                m.set_reg(20, u64::from(id));
                crate::hooks::HookResult {
                    extra_cycles: 3,
                    action: HookAction::Redirect(0x9000),
                }
            }
        }
        let mut a = Assembler::new(0x0);
        a.push(Inst::KHook { id: 42 });
        a.movi(21, 1); // skipped by redirect
        let mut text = a.finish();
        let mut b = Assembler::new(0x9000);
        b.movi(22, 2);
        b.push(Inst::Halt);
        text.extend(b.finish());

        let mut machine = Machine::new();
        machine.load_text(text);
        let mut core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(Redirector),
        );
        core.run(0x0, 10_000).expect("runs");
        assert_eq!(core.machine.reg(20), 42);
        assert_eq!(core.machine.reg(21), 0);
        assert_eq!(core.machine.reg(22), 2);
    }

    #[test]
    fn stall_attribution_partitions_stall_cycles() {
        // A loop with dependent loads + branches exercises frontend,
        // backend, and squash stall classes.
        let mut a = Assembler::new(0x2000);
        a.movi(1, 0);
        a.movi(2, 40);
        a.movi(4, 0x8000);
        let top = a.here();
        a.load(5, 4, 0);
        a.load(6, 5, 0);
        a.alui(AluOp::Add, 1, 1, 1);
        a.branch_to(Cond::Ne, 1, 2, top);
        a.push(Inst::Halt);
        let mut core = core_with(a.finish());
        core.machine.mem.write_u64(0x8000, 0x9000);
        core.machine.mem.write_u64(0x9000, 7);
        let summary = core.run(0x2000, 1_000_000).expect("runs");
        let s = summary.stats;
        assert!(s.stall_cycles > 0, "dependent loads must stall: {s:?}");
        assert_eq!(
            s.stalls.total(),
            s.stall_cycles,
            "breakdown must partition the stall cycles exactly: {s:?}"
        );
        assert!(s.stall_cycles < s.cycles, "some cycles committed");
    }

    #[test]
    fn fence_stalls_are_attributed_to_vp_wait() {
        use crate::policy::FencePolicy;
        // Speculative loads under FENCE wait for their VP; those waits
        // must land in the vp_wait class, and the partition must hold.
        // The branch condition depends on the loaded value, so each
        // iteration's load computes under the previous iteration's
        // still-unresolved branch — a real speculation window.
        let mut a = Assembler::new(0x2000);
        a.movi(1, 0);
        a.movi(2, 20);
        a.movi(4, 0x8000);
        let top = a.here();
        a.load(3, 4, 0); // r3 = 1
        a.alu(AluOp::Add, 1, 1, 3); // r1 += r3
        a.branch_to(Cond::Ne, 1, 2, top);
        a.push(Inst::Halt);
        let mut machine = Machine::new();
        machine.load_text(a.finish());
        machine.mem.write_u64(0x8000, 1);
        let mut core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(FencePolicy::new()),
            Box::new(NullHooks),
        );
        let summary = core.run(0x2000, 1_000_000).expect("runs");
        let s = summary.stats;
        assert_eq!(s.stalls.total(), s.stall_cycles, "{s:?}");
        assert!(s.loads_fenced > 0, "FENCE blocked loads: {s:?}");
        assert!(s.stalls.vp_wait > 0, "fence waits attributed: {s:?}");
        assert_eq!(s.stalls.isv_fence, 0, "no ISV mechanism here");
    }

    #[test]
    fn fence_policy_blocks_transient_side_effects() {
        use crate::policy::FencePolicy;
        // Same gadget as the transient test, but under FENCE the secret
        // line must stay cold.
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

        let mut machine = Machine::new();
        machine.load_text(a.finish());
        machine.mem.write_u64(bound_ptr, bound_ptr + 0x100);
        machine.mem.write_u64(bound_ptr + 0x100, 100);
        machine.mem.write_u64(secret_addr, 0x5ec7e7);
        let mut core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(FencePolicy::new()),
            Box::new(NullHooks),
        );

        for _ in 0..6 {
            core.machine.set_reg(10, 0);
            core.run(0x6000, 100_000).expect("training run");
        }
        core.mem.flush(bound_ptr);
        core.mem.flush(bound_ptr + 0x100);
        core.mem.flush(secret_addr);
        core.machine.set_reg(10, 200);
        core.run(0x6000, 100_000).expect("attack run");

        assert!(
            !core.mem.probe_any(secret_addr),
            "FENCE must prevent the transient fill"
        );
        assert!(core.policy().counters().blocked_fence > 0);
    }
}
