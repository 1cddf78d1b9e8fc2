//! Allocation-free branch checkpoints for the speculative return state.
//!
//! Fetch mutates two return-address stacks along the speculative path:
//! the return stack buffer (a predictor structure) and the speculative
//! call stack (the precise model a `Ret` resolves against). A control
//! instruction that mispredicts must restore both to their state right
//! after its own decode. Instead of cloning both stacks into every such
//! ROB entry, each call and return appends one undo record to a log; a
//! checkpoint is an absolute position in that log, and restoring one
//! replays the newer records backwards. The log only has to keep
//! records newer than the oldest live checkpoint, so it stays as short
//! as the calls and returns in flight.

use crate::predictor::{Rsb, RsbUndo};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Undo {
    /// A call pushed the RSB and the call stack.
    Call(RsbUndo),
    /// A return popped the RSB and the call stack (which held the
    /// recorded value, if it was not empty).
    Ret(RsbUndo, Option<u64>),
}

/// The speculative call stack plus the undo log shared with the RSB.
#[derive(Debug, Default)]
pub(crate) struct SpecReturns {
    stack: Vec<u64>,
    log: VecDeque<Undo>,
    /// Absolute log position of `log[0]`.
    base: u64,
}

impl SpecReturns {
    /// Restart from the committed call stack. Only legal with no live
    /// checkpoint (an empty ROB).
    pub(crate) fn reset(&mut self, committed: &[u64]) {
        self.base = self.checkpoint();
        self.log.clear();
        self.stack.clear();
        self.stack.extend_from_slice(committed);
    }

    /// The current log position: restoring it later undoes every call
    /// and return decoded after this point.
    pub(crate) fn checkpoint(&self) -> u64 {
        self.base + self.log.len() as u64
    }

    /// A call decoded: push `ret_addr` on both stacks.
    pub(crate) fn call(&mut self, rsb: &mut Rsb, ret_addr: u64) {
        let undo = rsb.push_undoable(ret_addr);
        self.stack.push(ret_addr);
        self.log.push_back(Undo::Call(undo));
    }

    /// A return decoded: pop both stacks. Returns `(actual, predicted)`,
    /// the call-stack top and the RSB prediction (`None` on underflow).
    pub(crate) fn ret(&mut self, rsb: &mut Rsb) -> (Option<u64>, Option<u64>) {
        let actual = self.stack.pop();
        let (predicted, undo) = rsb.pop_undoable();
        self.log.push_back(Undo::Ret(undo, actual));
        (actual, predicted)
    }

    /// Roll both stacks back to checkpoint `cp`.
    pub(crate) fn restore(&mut self, cp: u64, rsb: &mut Rsb) {
        debug_assert!(
            (self.base..=self.checkpoint()).contains(&cp),
            "checkpoint {cp} released or not yet taken"
        );
        while self.checkpoint() > cp {
            match self.log.pop_back().expect("position above base") {
                Undo::Call(undo) => {
                    rsb.undo(undo);
                    self.stack.pop();
                }
                Undo::Ret(undo, popped) => {
                    rsb.undo(undo);
                    self.stack.extend(popped);
                }
            }
        }
    }

    /// Forget the records older than `cp`: no live checkpoint precedes
    /// it any more.
    pub(crate) fn release_before(&mut self, cp: u64) {
        while self.base < cp && self.log.pop_front().is_some() {
            self.base += 1;
        }
    }

    /// The speculative call stack, for the debug-build restore check.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn stack(&self) -> &[u64] {
        &self.stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_undoes_calls_returns_and_rsb_overwrites() {
        let mut rsb = Rsb::new(2);
        let mut s = SpecReturns::default();
        s.reset(&[0x10]);
        s.call(&mut rsb, 0x20);
        let (before_rsb, before_stack) = (rsb.clone(), s.stack().to_vec());
        let cp = s.checkpoint();
        // Wrong path: overflow the 2-entry RSB, then underflow it.
        for a in [0x30, 0x40, 0x50] {
            s.call(&mut rsb, a);
        }
        for _ in 0..6 {
            s.ret(&mut rsb);
        }
        s.restore(cp, &mut rsb);
        assert_eq!(rsb, before_rsb);
        assert_eq!(s.stack(), before_stack);
        assert_eq!(s.ret(&mut rsb), (Some(0x20), Some(0x20)));
    }

    #[test]
    fn release_keeps_newer_checkpoints_restorable() {
        let mut rsb = Rsb::new(4);
        let mut s = SpecReturns::default();
        s.call(&mut rsb, 0x1);
        let old = s.checkpoint();
        s.call(&mut rsb, 0x2);
        let cp = s.checkpoint();
        let before = rsb.clone();
        s.call(&mut rsb, 0x3);
        s.release_before(cp);
        assert!(cp > old);
        s.restore(cp, &mut rsb);
        assert_eq!(rsb, before);
        assert_eq!(s.stack(), [0x1, 0x2]);
    }
}
