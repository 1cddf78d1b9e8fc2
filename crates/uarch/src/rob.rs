//! The reorder buffer, its event indexes and the execute stage's
//! scheduler.
//!
//! In-flight instructions live here in program order, in a ring of
//! `rob_entries.next_power_of_two()` slots allocated once: logical index
//! `i` (0 is the oldest entry) lives in slot `(head + i) & mask`. Decode
//! builds each entry in its slot, commit advances `head` and reads the
//! retired entry where it lies, and a squash only shrinks the length, so
//! an entry is never moved. Sequence numbers are contiguous: decode
//! hands out `next_seq`, and a squash, which always drops a suffix of
//! the ROB, rewinds it. So the entry with sequence number `s` sits at
//! logical index `s - front_seq` — a subtraction, not a search — and a
//! seq below the front (committed) or at or above `next_seq` (squashed)
//! is not in flight.
//!
//! Beside the entries, the ROB keeps three ascending seq queues that the
//! pipeline stages walk instead of the whole buffer:
//!
//! * `control` — entries that can mispredict (conditional branches,
//!   indirect jumps and calls, returns): the squash stage and the
//!   control cut-off look only here;
//! * `loads` — the load queue, which the visibility-point stage walks;
//! * `fences` — the fences in flight, which hold back every younger
//!   entry's execution.
//!
//! The store queue is not here: it lives in the pipeline's load/store
//! queue, with memory disambiguation.
//!
//! Two cursors count a queue prefix known to need no more look, so a
//! stage starts past it. Each prefix only grows while `now` advances,
//! and a commit or squash shortens it with its queue:
//!
//! * over `control`, the entries known to be resolved at `now`, ahead
//!   of the oldest unresolved one — the cut-off the execute and
//!   visibility-point stages share. An entry stays computed and its
//!   `ready_at` never moves, so resolution at `now` is monotone;
//! * over `loads`, the loads known to be [`RobEntry::vp_settled`]: the
//!   policy was notified of them, or they were forwarded from a store.
//!   Neither can be undone.
//!
//! A short unordered list of the control entries that computed a
//! misprediction and have not squashed yet lets the squash stage find
//! its next squash without walking `control`.
//!
//! It also keeps the execute stage's scheduler (see `Core::exec_stage`):
//! the fetch frontier (the oldest entry the execute stage has not yet
//! seen), a calendar of `(cycle, seq)` retries, a carry list of entries
//! to try again next pass, and the current pass's work list — a bitset
//! over logical indices, popped lowest first with `trailing_zeros`
//! (nothing commits or squashes during a pass, so an index names the
//! same entry throughout). Each entry's [`Sched`] says which of these
//! holds it — or that the load/store queue holds it, parked behind an
//! unknown-address store — so a stale calendar entry is recognized and
//! dropped.
//!
//! Seqs are reused after a squash, so [`ReorderBuffer::truncate`] purges
//! every dropped seq from the queues, the carry list and the survivors'
//! waiter lists, and pulls the frontier back, before a new entry can take
//! the number.

use crate::isa::{Inst, Width};
use crate::policy::BlockSource;
use crate::predictor::History;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Index, IndexMut};

/// Bounded set of speculative-load "taint roots" for STT-style tracking.
///
/// A value is tainted while any of its root loads is still speculative.
/// The set saturates at four roots; a saturated set is conservatively
/// treated as tainted whenever the consumer is speculative.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TaintSet {
    roots: [u64; 4],
    len: u8,
    saturated: bool,
}

impl TaintSet {
    /// Add a root; returns `true` when the set *newly* saturated (the
    /// root could not be recorded individually), so the caller can count
    /// the overflow instead of dropping attribution silently.
    pub(crate) fn add_root(&mut self, seq: u64) -> bool {
        if self.roots[..self.len as usize].contains(&seq) {
            return false;
        }
        if (self.len as usize) < self.roots.len() {
            self.roots[self.len as usize] = seq;
            self.len += 1;
            false
        } else if self.saturated {
            false
        } else {
            self.saturated = true;
            true
        }
    }

    /// Merge another set in; returns `true` when the merge *newly*
    /// saturated this set (saturation itself always propagates).
    pub(crate) fn merge(&mut self, other: &TaintSet) -> bool {
        let mut newly = false;
        for &r in &other.roots[..other.len as usize] {
            newly |= self.add_root(r);
        }
        if other.saturated && !self.saturated {
            self.saturated = true;
            newly = true;
        }
        newly
    }

    pub(crate) fn roots(&self) -> &[u64] {
        &self.roots[..self.len as usize]
    }

    pub(crate) fn saturated(&self) -> bool {
        self.saturated
    }
}

/// One register source. Packed to 16 bytes: `word` is the in-flight
/// producer's sequence number when `has_producer`, else the value the
/// register held at decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcDep {
    pub(crate) reg: u8,
    has_producer: bool,
    word: u64,
}

impl SrcDep {
    /// A source produced by the in-flight entry with sequence number `seq`.
    pub(crate) fn produced(reg: u8, seq: u64) -> Self {
        SrcDep {
            reg,
            has_producer: true,
            word: seq,
        }
    }

    /// A source that was architectural at decode, holding `value`.
    pub(crate) const fn architectural(reg: u8, value: u64) -> Self {
        SrcDep {
            reg,
            has_producer: false,
            word: value,
        }
    }

    /// Sequence number of the in-flight producer at decode, or `None` if
    /// the value was architectural at decode time.
    pub(crate) fn producer(&self) -> Option<u64> {
        self.has_producer.then_some(self.word)
    }

    /// The decode-time value; meaningful when there is no producer.
    pub(crate) fn snapshot(&self) -> u64 {
        self.word
    }
}

/// The source operands of one instruction, inline (no instruction has
/// more than two register sources — see [`Inst::srcs`]). `Copy` keeps
/// the execute stage's per-cycle operand gather allocation-free; a
/// heap `Vec` here was the single hottest allocation in the simulator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcList {
    deps: [SrcDep; 2],
    len: u8,
}

impl SrcList {
    /// No sources.
    const EMPTY: SrcList = SrcList {
        deps: [SrcDep::architectural(0, 0); 2],
        len: 0,
    };

    pub(crate) fn new(regs: &[u8], mut resolve: impl FnMut(u8) -> SrcDep) -> Self {
        assert!(regs.len() <= 2, "at most two register sources");
        let mut deps = SrcList::EMPTY.deps;
        for (slot, &reg) in deps.iter_mut().zip(regs) {
            *slot = resolve(reg);
        }
        SrcList {
            deps,
            len: regs.len() as u8,
        }
    }

    pub(crate) fn as_slice(&self) -> &[SrcDep] {
        &self.deps[..self.len as usize]
    }
}

/// Where the execute stage's scheduler holds an entry. Host-side only:
/// it never influences simulated behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sched {
    /// Nothing pending: behind the fetch frontier, computed, asleep in
    /// a producer's `waiters` list, or parked until the visibility-point
    /// stage issues it.
    Idle,
    /// On the current pass's work list or on the carry list.
    Queued,
    /// In the calendar for this cycle.
    At(u64),
    /// Parked in the load/store queue behind the oldest store whose
    /// address is unknown.
    StoreWait,
}

#[derive(Debug, Clone)]
pub(crate) struct RobEntry {
    pub(crate) seq: u64,
    pub(crate) pc: u64,
    pub(crate) inst: Inst,
    pub(crate) srcs: SrcList,
    /// Earliest cycle this instruction can begin executing (front-end).
    pub(crate) fetch_ready: u64,
    pub(crate) computed: bool,
    pub(crate) value: u64,
    pub(crate) ready_at: u64,
    /// Host-side retry hint: the earliest cycle a failed operand gather
    /// can turn out differently (the failing producer's `ready_at`; or
    /// `u64::MAX` while sleeping in that producer's `waiters` list until
    /// it computes, or while parked as a policy-blocked load until the
    /// visibility-point stage issues it; or `now + 1` when no sound
    /// bound exists). `try_compute` is provably a side-effect-free no-op
    /// before this cycle, so the execute stage skips the attempt. Never
    /// influences simulated behavior.
    pub(crate) retry_at: u64,
    /// Which scheduler list holds the entry.
    pub(crate) sched: Sched,
    /// Host-side wakeup list: seqs of consumers whose operand gather is
    /// asleep until this entry computes (`wake_waiters` resets their
    /// `retry_at`). Capacity-bounded — consumers that don't fit keep
    /// polling every cycle instead, so this is purely an acceleration.
    pub(crate) waiters: [u64; 4],
    pub(crate) n_waiters: u8,
    /// Branch-like bookkeeping (conditional, indirect, return).
    pub(crate) can_mispredict: bool,
    pub(crate) pred_target: u64,
    pub(crate) actual_target: u64,
    pub(crate) mispred: bool,
    pub(crate) squash_done: bool,
    pub(crate) hist_snapshot: History,
    /// Return-state checkpoint (see [`crate::checkpoint`]) a squash by
    /// this entry restores; meaningful when `can_mispredict`.
    pub(crate) checkpoint: u64,
    /// Debug builds keep full copies of the RSB and speculative call
    /// stack at the checkpoint, to check the undo-log restore against.
    #[cfg(debug_assertions)]
    pub(crate) debug_returns: Option<(crate::predictor::Rsb, Vec<u64>)>,
    pub(crate) actual_taken: bool,
    /// Memory bookkeeping.
    pub(crate) addr: u64,
    pub(crate) width: Width,
    pub(crate) issued_mem: bool,
    pub(crate) blocked: Option<BlockSource>,
    /// First blocking source, kept after the VP re-issue clears `blocked`
    /// so the post-fence memory latency is still attributed to the fence.
    pub(crate) block_memo: Option<BlockSource>,
    pub(crate) was_blocked: bool,
    pub(crate) spec_at_issue: bool,
    pub(crate) taint: TaintSet,
    pub(crate) vp_notified: bool,
    /// Privilege the instruction was fetched in (for BTB privilege tags).
    pub(crate) in_kernel: bool,
}

impl RobEntry {
    /// An entry with every field at its decode-time default: what a ring
    /// slot holds before its first use, and what decode starts from.
    pub(crate) const VACANT: RobEntry = RobEntry {
        seq: 0,
        pc: 0,
        inst: Inst::Nop,
        srcs: SrcList::EMPTY,
        fetch_ready: 0,
        computed: false,
        value: 0,
        ready_at: u64::MAX,
        retry_at: 0,
        sched: Sched::Idle,
        waiters: [0; 4],
        n_waiters: 0,
        can_mispredict: false,
        pred_target: 0,
        actual_target: 0,
        mispred: false,
        squash_done: false,
        hist_snapshot: 0,
        checkpoint: 0,
        #[cfg(debug_assertions)]
        debug_returns: None,
        actual_taken: false,
        addr: 0,
        width: Width::Q,
        issued_mem: false,
        blocked: None,
        block_memo: None,
        was_blocked: false,
        spec_at_issue: false,
        taint: TaintSet {
            roots: [0; 4],
            len: 0,
            saturated: false,
        },
        vp_notified: false,
        in_kernel: false,
    };

    pub(crate) fn is_load(&self) -> bool {
        matches!(self.inst, Inst::Load { .. })
    }
    /// Unresolved = could still redirect/squash younger instructions.
    pub(crate) fn unresolved_at(&self, now: u64) -> bool {
        self.can_mispredict && !(self.computed && self.ready_at <= now)
    }
    /// A load the visibility-point stage has nothing more to do for,
    /// now or later: the policy has been notified of it, or it was
    /// forwarded from a store (computed without a memory access, so it
    /// is neither blocked nor ever notified).
    pub(crate) fn vp_settled(&self) -> bool {
        self.vp_notified || (self.computed && !self.issued_mem)
    }
}

/// In-flight instructions in program order, indexed by contiguous
/// sequence numbers, with per-class seq queues and the execute stage's
/// scheduler (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ReorderBuffer {
    /// The ring: logical index `i` (0 is the oldest entry) lives in slot
    /// `(head + i) & mask`. A power-of-two number of slots, fixed at
    /// construction.
    slots: Box<[RobEntry]>,
    mask: usize,
    head: usize,
    len: usize,
    next_seq: u64,
    control: VecDeque<u64>,
    loads: VecDeque<u64>,
    fences: VecDeque<u64>,
    /// Control entries that computed a misprediction and have not
    /// squashed yet, in no particular order.
    mispredicted: Vec<u64>,
    /// How many entries at the front of `control` are known to be
    /// resolved (a lower bound:
    /// [`ReorderBuffer::oldest_unresolved_control`] advances it lazily).
    controls_resolved: usize,
    /// How many loads at the front of `loads` are known to be
    /// [`RobEntry::vp_settled`] (a lower bound: the visibility-point
    /// stage advances it).
    loads_settled: usize,
    /// Seq of the oldest entry the execute stage has not admitted yet.
    frontier: u64,
    /// Min-heap of `(cycle, seq)` retries; stale when the entry's
    /// `sched` is no longer `At(cycle)`.
    calendar: BinaryHeap<Reverse<(u64, u64)>>,
    /// Entries to try again next pass.
    carry: Vec<u64>,
    /// The current pass's work list: one bit per logical index, popped
    /// lowest first. The head cannot move during a pass, so an index
    /// names the same entry for the whole pass.
    work: Box<[u64]>,
    /// The lowest word of `work` that may be nonzero.
    work_low: usize,
}

impl ReorderBuffer {
    /// An empty ROB with room for `capacity` entries (the ring rounds it
    /// up to a power of two).
    pub(crate) fn new(capacity: usize) -> Self {
        let n = capacity.next_power_of_two();
        let words = n.div_ceil(64);
        ReorderBuffer {
            slots: vec![RobEntry::VACANT; n].into_boxed_slice(),
            mask: n - 1,
            head: 0,
            len: 0,
            next_seq: 0,
            control: VecDeque::new(),
            loads: VecDeque::new(),
            fences: VecDeque::new(),
            mispredicted: Vec::new(),
            controls_resolved: 0,
            loads_settled: 0,
            frontier: 0,
            calendar: BinaryHeap::new(),
            carry: Vec::new(),
            work: vec![0; words].into_boxed_slice(),
            work_low: words,
        }
    }

    /// Drop every entry (run start). Sequence numbers keep counting.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.control.clear();
        self.loads.clear();
        self.fences.clear();
        self.mispredicted.clear();
        self.controls_resolved = 0;
        self.loads_settled = 0;
        self.frontier = self.next_seq;
        self.calendar.clear();
        self.carry.clear();
        self.work.fill(0);
        self.work_low = self.work.len();
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self[0])
    }

    /// The entries, oldest first: the run from `head` to the end of the
    /// ring, then the part that wrapped to its start.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        let (wrapped, from_head) = self.slots.split_at(self.head);
        let first = self.len.min(from_head.len());
        from_head[..first]
            .iter()
            .chain(&wrapped[..self.len - first])
    }

    /// The sequence number the next decoded instruction gets.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn front_seq(&self) -> u64 {
        self.next_seq - self.len as u64
    }

    /// The ring slot of logical index `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Index of the in-flight entry with sequence number `seq`, if it is
    /// still in the ROB.
    #[inline]
    pub(crate) fn index_of(&self, seq: u64) -> Option<usize> {
        let idx = seq.wrapping_sub(self.front_seq());
        let found = (idx < self.len as u64).then_some(idx as usize);
        debug_assert!(
            found.is_none_or(|i| self[i].seq == seq),
            "seq index disagrees with the entry it names"
        );
        found
    }

    /// The in-flight entry with sequence number `seq` (one taken from
    /// a queue of this ROB).
    pub(crate) fn by_seq(&self, seq: u64) -> &RobEntry {
        &self[self.index_of(seq).expect("queued seq is in flight")]
    }

    /// Mispredictable entries, oldest first.
    pub(crate) fn control(&self) -> &VecDeque<u64> {
        &self.control
    }

    /// The load queue, oldest first.
    pub(crate) fn loads(&self) -> &VecDeque<u64> {
        &self.loads
    }

    /// The fences in flight, oldest first.
    pub(crate) fn fences(&self) -> &VecDeque<u64> {
        &self.fences
    }

    /// Seq of the oldest control entry that is unresolved at `now`, or
    /// `u64::MAX` when none is. Resolution at `now` is monotone — an
    /// entry stays computed and its `ready_at` never moves — so the
    /// resolved prefix of `control` only grows until a commit or a
    /// squash shortens the queue.
    pub(crate) fn oldest_unresolved_control(&mut self, now: u64) -> u64 {
        let cut = loop {
            match self.control.get(self.controls_resolved) {
                Some(&seq) if self.by_seq(seq).unresolved_at(now) => break seq,
                Some(_) => self.controls_resolved += 1,
                None => break u64::MAX,
            }
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            cut,
            self.walk_unresolved_control(now),
            "control cursor disagrees with a walk of the control queue"
        );
        cut
    }

    /// Debug builds: [`ReorderBuffer::oldest_unresolved_control`] by a
    /// full walk of `control`.
    #[cfg(debug_assertions)]
    pub(crate) fn walk_unresolved_control(&self, now: u64) -> u64 {
        self.control
            .iter()
            .copied()
            .find(|&seq| self.by_seq(seq).unresolved_at(now))
            .unwrap_or(u64::MAX)
    }

    /// How many loads at the front of the load queue are known to be
    /// [`RobEntry::vp_settled`].
    pub(crate) fn loads_settled(&self) -> usize {
        self.loads_settled
    }

    /// Record that the first `n` loads of the load queue are settled.
    pub(crate) fn set_loads_settled(&mut self, n: usize) {
        self.loads_settled = n;
    }

    /// Record that entry `i` computed a misprediction.
    pub(crate) fn note_mispredict(&mut self, i: usize) {
        let e = &self[i];
        debug_assert!(e.computed && e.mispred && !e.squash_done);
        self.mispredicted.push(e.seq);
    }

    /// The oldest mispredicted entry whose result is ready at `now`,
    /// taken off the list: the next squash.
    pub(crate) fn take_due_mispredict(&mut self, now: u64) -> Option<usize> {
        let (k, i) = self
            .mispredicted
            .iter()
            .enumerate()
            .map(|(k, &seq)| (k, self.index_of(seq).expect("mispredicted seq in flight")))
            .filter(|&(_, i)| self[i].ready_at <= now)
            .min_by_key(|&(_, i)| i)?;
        self.mispredicted.swap_remove(k);
        Some(i)
    }

    // ----- the execute stage's scheduler ---------------------------------

    /// Fill the work list for the pass at cycle `now`: the carry list,
    /// the calendar entries that are due, and the entries whose front-end
    /// latency has just elapsed. `fetch_ready` is nondecreasing in seq,
    /// so those are a run starting at the frontier. The frontier is first
    /// clamped to the front, because a serializing head computes, and can
    /// commit, before its `fetch_ready`. A carried seq that has committed
    /// since is dropped here.
    pub(crate) fn start_pass(&mut self, now: u64) {
        debug_assert!(
            self.work.iter().all(|&w| w == 0),
            "the previous pass drained its work"
        );
        while let Some(seq) = self.carry.pop() {
            if let Some(i) = self.index_of(seq) {
                self.queue_work(i);
            }
        }
        while let Some(&Reverse((cycle, seq))) = self.calendar.peek() {
            if cycle > now {
                break;
            }
            self.calendar.pop();
            if let Some(i) = self.index_of(seq) {
                if self[i].sched == Sched::At(cycle) {
                    self[i].sched = Sched::Queued;
                    self.queue_work(i);
                }
            }
        }
        self.frontier = self.frontier.max(self.front_seq());
        while let Some(i) = self.index_of(self.frontier) {
            let e = &mut self[i];
            if e.fetch_ready > now {
                break;
            }
            if !e.computed && !e.inst.is_serializing() {
                e.sched = Sched::Queued;
                self.queue_work(i);
            }
            self.frontier += 1;
        }
    }

    /// Put logical index `i` on this pass's work list.
    #[inline]
    fn queue_work(&mut self, i: usize) {
        self.work[i / 64] |= 1 << (i % 64);
        self.work_low = self.work_low.min(i / 64);
    }

    /// The logical index of the oldest entry left on the work list.
    pub(crate) fn pop_work(&mut self) -> Option<usize> {
        while let Some(w) = self.work.get_mut(self.work_low) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.work_low * 64 + bit);
            }
            self.work_low += 1;
        }
        None
    }

    /// Try entry `i` again at `cycle`.
    pub(crate) fn schedule_at(&mut self, i: usize, cycle: u64) {
        let e = &mut self[i];
        e.sched = Sched::At(cycle);
        let seq = e.seq;
        self.calendar.push(Reverse((cycle, seq)));
    }

    /// Try entry `i` again next pass.
    pub(crate) fn carry(&mut self, i: usize) {
        let e = &mut self[i];
        e.sched = Sched::Queued;
        let seq = e.seq;
        self.carry.push(seq);
    }

    /// The load/store queue released load `seq`, parked behind a store:
    /// move it onto this pass's work list.
    pub(crate) fn requeue(&mut self, seq: u64) {
        let i = self.index_of(seq).expect("parked loads are in flight");
        debug_assert_eq!(self[i].sched, Sched::StoreWait);
        self[i].sched = Sched::Queued;
        self.queue_work(i);
    }

    /// The slot the next decoded instruction is built in; it must get
    /// sequence number [`ReorderBuffer::next_seq`], and
    /// [`ReorderBuffer::push`] then appends it. The slot still holds
    /// whatever entry used it last.
    pub(crate) fn next_slot(&mut self) -> &mut RobEntry {
        assert!(self.len < self.slots.len(), "the ROB ring is full");
        let k = self.slot(self.len);
        &mut self.slots[k]
    }

    /// Append the entry built in [`ReorderBuffer::next_slot`].
    pub(crate) fn push(&mut self) {
        let e = &self.slots[self.slot(self.len)];
        let seq = e.seq;
        assert_eq!(seq, self.next_seq, "ROB seqs are contiguous");
        if e.can_mispredict {
            self.control.push_back(seq);
        }
        if e.is_load() {
            self.loads.push_back(seq);
        }
        if matches!(e.inst, Inst::Fence) {
            self.fences.push_back(seq);
        }
        if e.mispred {
            // A return, resolved at decode.
            self.mispredicted.push(seq);
        }
        self.len += 1;
        self.next_seq += 1;
    }

    /// Retire the head; [`ReorderBuffer::retired`] reads it until the
    /// next push. The carry list drops the seq lazily.
    pub(crate) fn pop_front(&mut self) {
        assert!(self.len > 0, "retire from an empty ROB");
        let seq = self[0].seq;
        self.head = self.slot(1);
        self.len -= 1;
        if self.control.front() == Some(&seq) {
            self.control.pop_front();
            self.controls_resolved = self.controls_resolved.saturating_sub(1);
        }
        if self.loads.front() == Some(&seq) {
            self.loads.pop_front();
            self.loads_settled = self.loads_settled.saturating_sub(1);
        }
        if self.fences.front() == Some(&seq) {
            self.fences.pop_front();
        }
    }

    /// The entry [`ReorderBuffer::pop_front`] retired last.
    pub(crate) fn retired(&self) -> &RobEntry {
        &self.slots[self.head.wrapping_sub(1) & self.mask]
    }

    /// Squash every entry from index `keep` on, youngest first, handing
    /// each to `on_drop`; then rewind `next_seq`, purge the dropped seqs
    /// from every queue, the carry list and every waiter list, and pull
    /// the frontier back, so the seqs can be handed out again (the
    /// load/store queue purges its own). The dropped
    /// entries stay in their slots until decode reuses them. Stale
    /// calendar entries stay: a new entry with a reused seq starts out
    /// `Idle`.
    pub(crate) fn truncate(&mut self, keep: usize, mut on_drop: impl FnMut(&RobEntry)) {
        let front = self.front_seq();
        while self.len > keep {
            self.len -= 1;
            on_drop(&self.slots[self.slot(self.len)]);
        }
        let live = front + self.len as u64;
        self.next_seq = live;
        for q in [&mut self.control, &mut self.loads, &mut self.fences] {
            while q.back().is_some_and(|&s| s >= live) {
                q.pop_back();
            }
        }
        self.controls_resolved = self.controls_resolved.min(self.control.len());
        self.loads_settled = self.loads_settled.min(self.loads.len());
        self.frontier = self.frontier.min(live);
        self.mispredicted.retain(|&s| s < live);
        self.carry.retain(|&s| s < live);
        for i in 0..self.len {
            let e = &mut self[i];
            let n = e.n_waiters as usize;
            if n > 0 {
                let mut kept = 0;
                for k in 0..n {
                    if e.waiters[k] < live {
                        e.waiters[kept] = e.waiters[k];
                        kept += 1;
                    }
                }
                e.n_waiters = kept as u8;
            }
        }
    }

    /// Debug builds: every index agrees with the entries it summarizes,
    /// every cursor with the prefix it vouches for, and every scheduler
    /// list with the entries' `sched` states, at the end of the step for
    /// cycle `now`.
    #[cfg(debug_assertions)]
    pub(crate) fn check_invariants(&self, now: u64) {
        assert!(self.len <= self.slots.len(), "the ring holds the ROB");
        let front = self.front_seq();
        for (i, e) in self.iter().enumerate() {
            assert_eq!(e.seq, front + i as u64, "ROB seqs must be contiguous");
            assert!(
                e.waiters[..e.n_waiters as usize]
                    .iter()
                    .all(|&w| w > e.seq && w < self.next_seq),
                "waiter lists hold only younger in-flight seqs"
            );
            match e.sched {
                Sched::Idle => {}
                Sched::Queued => assert!(self.carry.contains(&e.seq), "queued seq is carried"),
                Sched::At(cycle) => assert!(
                    !e.computed
                        && cycle >= now
                        && self.calendar.iter().any(|r| r.0 == (cycle, e.seq)),
                    "scheduled seq is in the calendar"
                ),
                Sched::StoreWait => assert!(
                    !e.computed && e.is_load(),
                    "only uncomputed loads park behind a store"
                ),
            }
        }
        let filtered = |keep: fn(&RobEntry) -> bool| -> VecDeque<u64> {
            self.iter().filter(|e| keep(e)).map(|e| e.seq).collect()
        };
        assert_eq!(
            self.control,
            filtered(|e| e.can_mispredict),
            "control queue"
        );
        assert_eq!(self.loads, filtered(RobEntry::is_load), "load queue");
        assert_eq!(
            self.fences,
            filtered(|e| matches!(e.inst, Inst::Fence)),
            "fence queue"
        );
        let mut mispredicted = self.mispredicted.clone();
        mispredicted.sort_unstable();
        assert_eq!(
            VecDeque::from(mispredicted),
            filtered(|e| e.computed && e.mispred && !e.squash_done),
            "mispredicted list"
        );
        assert!(
            self.control
                .iter()
                .take(self.controls_resolved)
                .all(|&s| !self.by_seq(s).unresolved_at(now)),
            "known-resolved control entries are resolved"
        );
        assert!(
            self.loads.iter().take(self.loads_settled).all(|&s| {
                let e = self.by_seq(s);
                e.blocked.is_none() && !(e.computed && e.issued_mem && !e.vp_notified)
            }),
            "the loads the visibility-point stage skips need no work from it"
        );
        assert!(self.frontier <= self.next_seq, "frontier is in flight");
        assert!(
            self.iter()
                .skip(self.frontier.saturating_sub(front) as usize)
                .all(|e| e.sched == Sched::Idle && e.fetch_ready >= now),
            "entries at or past the frontier are unseen and still in the front end"
        );
        assert!(
            self.work.iter().all(|&w| w == 0),
            "no work outlives its pass"
        );
        assert!(
            self.carry.iter().all(|&s| s < self.next_seq),
            "the carry list holds no squashed seqs"
        );
    }
}

impl Index<usize> for ReorderBuffer {
    type Output = RobEntry;
    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        debug_assert!(i < self.len, "logical index {i} is past the ROB");
        &self.slots[self.slot(i)]
    }
}

impl IndexMut<usize> for ReorderBuffer {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        debug_assert!(i < self.len, "logical index {i} is past the ROB");
        let k = self.slot(i);
        &mut self.slots[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Width};

    fn load() -> Inst {
        Inst::Load {
            dst: 1,
            base: 2,
            offset: 0,
            width: Width::Q,
        }
    }

    fn branch() -> Inst {
        Inst::Branch {
            cond: Cond::Eq,
            a: 1,
            b: 2,
            target: 0,
        }
    }

    /// Decode `inst` into the next slot, the way the pipeline does.
    fn push(rob: &mut ReorderBuffer, inst: Inst) -> u64 {
        let seq = rob.next_seq();
        *rob.next_slot() = RobEntry {
            seq,
            pc: 0x1000 + 4 * seq,
            inst,
            can_mispredict: matches!(inst, Inst::Branch { .. }),
            ..RobEntry::VACANT
        };
        rob.push();
        seq
    }

    fn seqs(rob: &ReorderBuffer) -> Vec<u64> {
        rob.iter().map(|e| e.seq).collect()
    }

    /// Every entry is read and written in place on the busy path, and
    /// its size costs simulator time (about 2.4 % per 128 bytes when
    /// measured). Debug builds add the checkpoint copies, so only release
    /// builds are held to the bound.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_release_entry_fits_in_256_bytes() {
        let size = std::mem::size_of::<RobEntry>();
        assert!(size <= 256, "RobEntry is {size} bytes");
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(ReorderBuffer::new(8).slots.len(), 8);
        assert_eq!(ReorderBuffer::new(192).slots.len(), 256);
        assert_eq!(ReorderBuffer::new(300).slots.len(), 512);
        assert_eq!(ReorderBuffer::new(1).slots.len(), 1);
    }

    #[test]
    fn the_head_wraps_at_the_end_of_the_ring() {
        let mut rob = ReorderBuffer::new(4);
        for _ in 0..3 {
            push(&mut rob, Inst::Nop);
        }
        for expected in 0..3 {
            rob.pop_front();
            assert_eq!(rob.retired().seq, expected);
        }
        // The head sits in the last slot; the next three entries wrap.
        assert_eq!(rob.head, 3);
        push(&mut rob, load());
        push(&mut rob, branch());
        push(&mut rob, load());
        push(&mut rob, Inst::Nop);
        assert_eq!(rob.len(), 4);
        assert_eq!(seqs(&rob), [3, 4, 5, 6]);
        assert_eq!(rob.slot(1), 0, "logical index 1 wrapped to slot 0");
        for seq in 3..7 {
            let i = rob.index_of(seq).expect("in flight");
            assert_eq!(i as u64, seq - 3);
            assert_eq!(rob[i].seq, seq);
        }
        assert_eq!(rob.index_of(2), None, "committed");
        assert_eq!(rob.index_of(7), None, "not decoded yet");
        assert_eq!(rob.loads(), &VecDeque::from([3, 5]));
        assert_eq!(rob.control(), &VecDeque::from([4]));
        rob.pop_front();
        assert_eq!(rob.retired().seq, 3);
        assert_eq!(rob.front().map(|e| e.seq), Some(4));
        assert_eq!(rob.loads(), &VecDeque::from([5]));
        #[cfg(debug_assertions)]
        rob.check_invariants(0);
    }

    #[test]
    #[should_panic(expected = "the ROB ring is full")]
    fn a_full_ring_takes_no_more_entries() {
        let mut rob = ReorderBuffer::new(2);
        for _ in 0..3 {
            push(&mut rob, Inst::Nop);
        }
    }

    #[test]
    fn a_squash_across_the_wrap_hands_its_seqs_out_again() {
        let mut rob = ReorderBuffer::new(8);
        for _ in 0..6 {
            push(&mut rob, Inst::Nop);
        }
        for _ in 0..6 {
            rob.pop_front();
        }
        // Seqs 6..14 occupy slots 6, 7, 0, 1, …, 5.
        for k in 0..8 {
            push(&mut rob, if k % 2 == 0 { load() } else { branch() });
        }
        rob.start_pass(0);
        while let Some(i) = rob.pop_work() {
            rob[i].sched = Sched::Idle;
        }
        rob.carry(3);
        rob.carry(4);
        rob[1].waiters = [9, 12, 13, 0];
        rob[1].n_waiters = 3;
        let mut dropped = Vec::new();
        rob.truncate(4, |e| dropped.push(e.seq));
        assert_eq!(dropped, [13, 12, 11, 10], "youngest first");
        assert_eq!(rob.next_seq(), 10);
        assert_eq!(seqs(&rob), [6, 7, 8, 9]);
        assert_eq!(rob.loads(), &VecDeque::from([6, 8]));
        assert_eq!(rob.control(), &VecDeque::from([7, 9]));
        assert_eq!(rob.carry, [9], "survivors stay carried, dropped seqs leave");
        assert_eq!(&rob[1].waiters[..rob[1].n_waiters as usize], [9]);
        // Seqs 10 and 11 are reused by new entries in the same slots.
        assert_eq!(push(&mut rob, Inst::Nop), 10);
        assert_eq!(push(&mut rob, load()), 11);
        assert_eq!(rob.by_seq(10).inst, Inst::Nop);
        assert!(
            !rob.by_seq(11).can_mispredict,
            "a reused slot starts vacant"
        );
        assert_eq!(rob.loads(), &VecDeque::from([6, 8, 11]));
        assert_eq!(rob.control(), &VecDeque::from([7, 9]));
        #[cfg(debug_assertions)]
        rob.check_invariants(0);
    }

    #[test]
    fn the_work_list_pops_in_index_order_across_word_boundaries() {
        let mut rob = ReorderBuffer::new(192);
        for _ in 0..192 {
            push(&mut rob, Inst::Nop);
        }
        for i in [130, 5, 63, 191, 64, 127, 0, 128] {
            rob.queue_work(i);
        }
        let mut popped = Vec::new();
        while let Some(i) = rob.pop_work() {
            popped.push(i);
            if i == 63 {
                // Work queued mid-pass, further along, joins the pass.
                rob.queue_work(65);
                rob.queue_work(190);
            }
        }
        assert_eq!(popped, [0, 5, 63, 64, 65, 127, 128, 130, 190, 191]);
        assert!(rob.work.iter().all(|&w| w == 0));
        assert_eq!(rob.pop_work(), None);
    }

    #[test]
    fn the_control_cursor_tracks_resolution_through_commit_and_squash() {
        let mut rob = ReorderBuffer::new(8);
        let first = push(&mut rob, branch());
        let second = push(&mut rob, branch());
        assert_eq!(rob.oldest_unresolved_control(0), first);
        rob[0].computed = true;
        rob[0].ready_at = 5;
        assert_eq!(rob.oldest_unresolved_control(4), first, "not ready yet");
        assert_eq!(rob.oldest_unresolved_control(5), second);
        assert_eq!(rob.controls_resolved, 1);
        rob.pop_front();
        assert_eq!(rob.controls_resolved, 0);
        assert_eq!(rob.oldest_unresolved_control(5), second);
        rob.truncate(0, |_| {});
        assert_eq!(rob.oldest_unresolved_control(5), u64::MAX);
    }
}
