//! The front end: fetch, branch prediction and decode into the ROB.
//!
//! [`FrontEnd`] holds where fetch goes next and when it may go there.
//! Outside this file only its redirects change that, one method each: a
//! run start ([`FrontEnd::new`]); a mispredict ([`FrontEnd::redirect`]:
//! the same fresh state, at the resolved target once the penalty ends);
//! a serializing instruction's commit
//! ([`FrontEnd::restart_after_serializing`], which keeps the fetch line
//! buffer and the squash window); and the resolution of the unpredicted
//! indirect fetch stopped at ([`FrontEnd::resume_indirect`], which never
//! shortens a pending stall).

use super::{Core, SimError};
use crate::isa::{Inst, INST_BYTES};
use crate::machine::Mode;
use crate::rob::{RobEntry, SrcDep, SrcList};

/// Where and when fetch goes next (see the module docs).
#[derive(Debug)]
pub(super) struct FrontEnd {
    fetch_pc: u64,
    fetch_stall_until: u64,
    /// End of the last mispredict-redirect penalty: lets stall
    /// attribution tell squash recovery from other front-end stalls.
    squash_redirect_until: u64,
    /// Stopped behind a serializing instruction until it commits.
    fetch_halted: bool,
    /// Stopped at this unpredicted indirect until it resolves.
    fetch_wait_indirect: Option<u64>,
    /// The instruction-cache line the last fetch looked up.
    last_fetch_line: u64,
}

impl FrontEnd {
    /// A run starts: fetch begins at `pc` on cycle `at`.
    pub(super) fn new(pc: u64, at: u64) -> Self {
        FrontEnd {
            fetch_pc: pc,
            fetch_stall_until: at,
            squash_redirect_until: at,
            fetch_halted: false,
            fetch_wait_indirect: None,
            last_fetch_line: u64::MAX,
        }
    }

    /// A mispredict squashed everything fetched past the branch: start
    /// over at `target` once the penalty ends at `until`.
    pub(super) fn redirect(&mut self, target: u64, until: u64) {
        *self = FrontEnd::new(target, until);
    }

    /// A serializing instruction committed: fetch resumes at `pc` on
    /// cycle `at`.
    pub(super) fn restart_after_serializing(&mut self, pc: u64, at: u64) {
        self.fetch_pc = pc;
        self.fetch_halted = false;
        self.fetch_stall_until = at;
    }

    /// Indirect `seq` resolved to `target` on cycle `at`. If fetch
    /// stopped at it, resume there (returns true: the entry then counts
    /// as correctly predicted, since fetch never went astray).
    pub(super) fn resume_indirect(&mut self, seq: u64, target: u64, at: u64) -> bool {
        if self.fetch_wait_indirect != Some(seq) {
            return false;
        }
        self.fetch_wait_indirect = None;
        self.fetch_pc = target;
        self.fetch_stall_until = self.fetch_stall_until.max(at);
        true
    }

    /// Is a mispredict-redirect penalty still being paid at `now`?
    pub(super) fn redirecting(&self, now: u64) -> bool {
        now < self.squash_redirect_until
    }

    /// The fast-forward's wake-ups from the front end: the end of its
    /// stall, and of the squash-attribution window.
    pub(super) fn wake_thresholds(&self) -> [u64; 2] {
        [self.fetch_stall_until, self.squash_redirect_until]
    }
}

impl Core {
    /// Fetch and decode up to `width` instructions along the predicted
    /// path, unless a `Halt` committed or the front end is stopped.
    ///
    /// # Errors
    ///
    /// [`SimError::UnmappedFetch`] when the committed path itself (the
    /// ROB is empty) fetches from an unmapped address.
    pub(super) fn fetch_stage(&mut self) -> Result<(), SimError> {
        let f = &self.front;
        if self.halted
            || f.fetch_halted
            || f.fetch_wait_indirect.is_some()
            || self.now < f.fetch_stall_until
        {
            return Ok(());
        }
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let pc = self.front.fetch_pc;
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
            if line != self.front.last_fetch_line {
                // The lookup itself mutates i-cache LRU/stats, even when
                // it ends up stalling fetch instead of decoding.
                self.made_progress = true;
                let lat = self.mem.fetch(pc);
                self.front.last_fetch_line = line;
                if lat > self.mem.config().l1i.rt_latency {
                    self.front.fetch_stall_until = self.now + lat;
                    return Ok(());
                }
            }

            // Capacity checks.
            if matches!(inst, Inst::Load { .. }) && self.rob.loads().len() >= self.cfg.lq_entries {
                break;
            }
            if matches!(inst, Inst::Store { .. })
                && self.lsq.stores_in_flight() >= self.cfg.sq_entries
            {
                break;
            }

            self.decode_one(pc, inst);

            if inst.is_serializing() {
                self.front.fetch_halted = true;
                break;
            }
            if self.front.fetch_wait_indirect.is_some() {
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
        let in_kernel = self.machine.mode == Mode::Kernel;
        // Built in its ring slot: a ROB entry is never moved.
        let entry = self.rob.next_slot();
        *entry = RobEntry {
            seq,
            pc,
            inst,
            srcs,
            fetch_ready,
            hist_snapshot: self.pred.hist,
            in_kernel,
            ..RobEntry::VACANT
        };

        match inst {
            Inst::MovImm { imm, .. } => {
                entry.value = imm;
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.front.fetch_pc = pc + INST_BYTES;
            }
            Inst::Branch { target, .. } => {
                let taken = self.pred.dir.predict(pc, self.pred.hist);
                entry.pred_target = if taken { target } else { pc + INST_BYTES };
                entry.can_mispredict = true;
                self.pred.hist = (self.pred.hist << 1) | u64::from(taken);
                self.front.fetch_pc = entry.pred_target;
            }
            Inst::Jump { target } => {
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.front.fetch_pc = target;
            }
            Inst::Call { target } => {
                self.returns.call(&mut self.pred.rsb, pc + INST_BYTES);
                entry.ready_at = fetch_ready + 1;
                entry.computed = true;
                self.front.fetch_pc = target;
            }
            Inst::CallInd { .. } | Inst::JumpInd { .. } => {
                if matches!(inst, Inst::CallInd { .. }) {
                    self.returns.call(&mut self.pred.rsb, pc + INST_BYTES);
                }
                entry.can_mispredict = true;
                let prediction = if self.policy.predict_indirect() {
                    self.pred.btb.predict(pc, self.pred.hist, in_kernel)
                } else {
                    None
                };
                match prediction {
                    Some(t) => {
                        entry.pred_target = t;
                        self.front.fetch_pc = t;
                    }
                    None => {
                        // No prediction: stall fetch until the target
                        // resolves (also the retpoline path).
                        self.front.fetch_wait_indirect = Some(seq);
                        entry.pred_target = u64::MAX; // placeholder, fixed on resolve
                    }
                }
            }
            Inst::Ret => {
                let (actual, rsb_prediction) = self.returns.ret(&mut self.pred.rsb);
                let actual = actual.unwrap_or(u64::MAX);
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
                self.front.fetch_pc = predicted;
            }
            _ => {
                self.front.fetch_pc = pc + INST_BYTES;
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
        if matches!(inst, Inst::Store { .. }) {
            self.lsq.push_store(seq);
        }
    }
}
