//! The reorder buffer, its event indexes and the execute stage's
//! scheduler.
//!
//! In-flight instructions live here in program order. Sequence numbers
//! are contiguous: decode hands out `next_seq`, and a squash, which
//! always drops a suffix of the ROB, rewinds it. So the entry with
//! sequence number `s` sits at index `s - front_seq` — a subtraction,
//! not a search — and a seq below the front (committed) or at or above
//! `next_seq` (squashed) is not in flight.
//!
//! Beside the entries, the ROB keeps four ascending seq queues that the
//! pipeline stages walk instead of the whole buffer:
//!
//! * `control` — entries that can mispredict (conditional branches,
//!   indirect jumps and calls, returns): the squash stage and the
//!   visibility-point cut-off look only here;
//! * `loads` and `stores` — the load and store queues: the
//!   visibility-point stage walks loads, store-to-load forwarding walks
//!   stores, and a cursor over `stores` finds the oldest store whose
//!   address is still unknown;
//! * `fences` — the fences in flight, which hold back every younger
//!   entry's execution.
//!
//! A short unordered list of the control entries that computed a
//! misprediction and have not squashed yet lets the squash stage find
//! its next squash without walking `control`.
//!
//! It also keeps the execute stage's scheduler (see `Core::exec_stage`):
//! the fetch frontier (the oldest entry the execute stage has not yet
//! seen), a calendar of `(cycle, seq)` retries, a carry list of entries
//! to try again next pass, the loads parked behind the oldest
//! unknown-address store, and the current pass's work list. Each entry's
//! [`Sched`] says which of these holds it, so a stale calendar entry is
//! recognized and dropped.
//!
//! Seqs are reused after a squash, so [`ReorderBuffer::truncate`] purges
//! every dropped seq from the queues, the carry and store-wait lists and
//! the survivors' waiter lists, and pulls the frontier back, before a new
//! entry can take the number.

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

#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcDep {
    pub(crate) reg: u8,
    /// Sequence number of the in-flight producer at decode, or `None` if
    /// the value was architectural at decode time.
    pub(crate) producer: Option<u64>,
    /// Snapshot used when `producer` is `None`.
    pub(crate) snapshot: u64,
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
    pub(crate) fn new(regs: &[u8], mut resolve: impl FnMut(u8) -> SrcDep) -> Self {
        assert!(regs.len() <= 2, "at most two register sources");
        let empty = SrcDep {
            reg: 0,
            producer: None,
            snapshot: 0,
        };
        let mut deps = [empty; 2];
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
    /// Parked behind the oldest store whose address is unknown.
    StoreWait,
}

#[derive(Debug)]
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
    pub(crate) pred_taken: bool,
    pub(crate) actual_taken: bool,
    /// Memory bookkeeping.
    pub(crate) addr: u64,
    pub(crate) width: Width,
    pub(crate) store_val: u64,
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
    pub(crate) fn is_load(&self) -> bool {
        matches!(self.inst, Inst::Load { .. })
    }
    pub(crate) fn is_store(&self) -> bool {
        matches!(self.inst, Inst::Store { .. })
    }
    /// Unresolved = could still redirect/squash younger instructions.
    pub(crate) fn unresolved_at(&self, now: u64) -> bool {
        self.can_mispredict && !(self.computed && self.ready_at <= now)
    }
}

/// In-flight instructions in program order, indexed by contiguous
/// sequence numbers, with per-class seq queues and the execute stage's
/// scheduler (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ReorderBuffer {
    entries: VecDeque<RobEntry>,
    next_seq: u64,
    control: VecDeque<u64>,
    loads: VecDeque<u64>,
    stores: VecDeque<u64>,
    fences: VecDeque<u64>,
    /// Control entries that computed a misprediction and have not
    /// squashed yet, in no particular order.
    mispredicted: Vec<u64>,
    /// How many stores at the front of `stores` are known to be
    /// computed (a lower bound: [`ReorderBuffer::oldest_unknown_store`]
    /// advances it lazily).
    stores_known: usize,
    /// Seq of the oldest entry the execute stage has not admitted yet.
    frontier: u64,
    /// Min-heap of `(cycle, seq)` retries; stale when the entry's
    /// `sched` is no longer `At(cycle)`.
    calendar: BinaryHeap<Reverse<(u64, u64)>>,
    /// Entries to try again next pass.
    carry: Vec<u64>,
    /// Loads parked behind the oldest unknown-address store.
    store_wait: BinaryHeap<Reverse<u64>>,
    /// The current pass's work list, popped in ascending seq order.
    work: BinaryHeap<Reverse<u64>>,
}

impl ReorderBuffer {
    /// Drop every entry (run start). Sequence numbers keep counting.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.control.clear();
        self.loads.clear();
        self.stores.clear();
        self.fences.clear();
        self.mispredicted.clear();
        self.stores_known = 0;
        self.frontier = self.next_seq;
        self.calendar.clear();
        self.carry.clear();
        self.store_wait.clear();
        self.work.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn front(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// The sequence number the next decoded instruction gets.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn front_seq(&self) -> u64 {
        self.next_seq - self.entries.len() as u64
    }

    /// Index of the in-flight entry with sequence number `seq`, if it is
    /// still in the ROB.
    #[inline]
    pub(crate) fn index_of(&self, seq: u64) -> Option<usize> {
        let idx = seq.wrapping_sub(self.front_seq());
        let found = (idx < self.entries.len() as u64).then_some(idx as usize);
        debug_assert_eq!(
            found,
            self.entries.binary_search_by_key(&seq, |e| e.seq).ok(),
            "seq index disagrees with a search of the ROB"
        );
        found
    }

    /// The in-flight entry with sequence number `seq` (one taken from
    /// a queue of this ROB).
    pub(crate) fn by_seq(&self, seq: u64) -> &RobEntry {
        &self.entries[self.index_of(seq).expect("queued seq is in flight")]
    }

    /// Mispredictable entries, oldest first.
    pub(crate) fn control(&self) -> &VecDeque<u64> {
        &self.control
    }

    /// The load queue, oldest first.
    pub(crate) fn loads(&self) -> &VecDeque<u64> {
        &self.loads
    }

    /// The store queue, oldest first.
    pub(crate) fn stores(&self) -> &VecDeque<u64> {
        &self.stores
    }

    /// The fences in flight, oldest first.
    pub(crate) fn fences(&self) -> &VecDeque<u64> {
        &self.fences
    }

    /// Seq of the oldest store that has not computed (whose address is
    /// unknown), or `u64::MAX` when every store in flight has.
    pub(crate) fn oldest_unknown_store(&mut self) -> u64 {
        while let Some(&seq) = self.stores.get(self.stores_known) {
            if !self.by_seq(seq).computed {
                return seq;
            }
            self.stores_known += 1;
        }
        u64::MAX
    }

    /// Record that entry `i` computed a misprediction.
    pub(crate) fn note_mispredict(&mut self, i: usize) {
        let e = &self.entries[i];
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
            .filter(|&(_, i)| self.entries[i].ready_at <= now)
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
    /// commit, before its `fetch_ready`.
    pub(crate) fn start_pass(&mut self, now: u64) {
        debug_assert!(self.work.is_empty(), "the previous pass drained its work");
        self.work.extend(self.carry.drain(..).map(Reverse));
        while let Some(&Reverse((cycle, seq))) = self.calendar.peek() {
            if cycle > now {
                break;
            }
            self.calendar.pop();
            if let Some(i) = self.index_of(seq) {
                if self.entries[i].sched == Sched::At(cycle) {
                    self.entries[i].sched = Sched::Queued;
                    self.work.push(Reverse(seq));
                }
            }
        }
        self.frontier = self.frontier.max(self.front_seq());
        while let Some(i) = self.index_of(self.frontier) {
            let e = &mut self.entries[i];
            if e.fetch_ready > now {
                break;
            }
            if !e.computed && !e.inst.is_serializing() {
                e.sched = Sched::Queued;
                self.work.push(Reverse(e.seq));
            }
            self.frontier += 1;
        }
    }

    /// The oldest entry left on the work list.
    pub(crate) fn pop_work(&mut self) -> Option<u64> {
        self.work.pop().map(|Reverse(seq)| seq)
    }

    /// Try entry `i` again at `cycle`.
    pub(crate) fn schedule_at(&mut self, i: usize, cycle: u64) {
        let e = &mut self.entries[i];
        e.sched = Sched::At(cycle);
        self.calendar.push(Reverse((cycle, e.seq)));
    }

    /// Try entry `i` again next pass.
    pub(crate) fn carry(&mut self, i: usize) {
        let e = &mut self.entries[i];
        e.sched = Sched::Queued;
        self.carry.push(e.seq);
    }

    /// Park load `i` until the oldest unknown-address store is younger
    /// than it.
    pub(crate) fn park_behind_store(&mut self, i: usize) {
        let e = &mut self.entries[i];
        e.sched = Sched::StoreWait;
        self.store_wait.push(Reverse(e.seq));
    }

    /// The oldest unknown-address store is now `cut`: the loads parked
    /// below it have no unknown-address store ahead of them any more,
    /// so move them onto this pass's work list.
    pub(crate) fn release_store_waiters(&mut self, cut: u64) {
        while let Some(&Reverse(seq)) = self.store_wait.peek() {
            if seq >= cut {
                break;
            }
            self.store_wait.pop();
            let i = self.index_of(seq).expect("parked loads are in flight");
            debug_assert_eq!(self.entries[i].sched, Sched::StoreWait);
            self.entries[i].sched = Sched::Queued;
            self.work.push(Reverse(seq));
        }
    }

    /// Append a decoded entry; its `seq` must be [`ReorderBuffer::next_seq`].
    pub(crate) fn push(&mut self, entry: RobEntry) {
        let seq = entry.seq;
        assert_eq!(seq, self.next_seq, "ROB seqs are contiguous");
        self.next_seq += 1;
        if entry.can_mispredict {
            self.control.push_back(seq);
        }
        if entry.is_load() {
            self.loads.push_back(seq);
        }
        if entry.is_store() {
            self.stores.push_back(seq);
        }
        if matches!(entry.inst, Inst::Fence) {
            self.fences.push_back(seq);
        }
        if entry.mispred {
            // A return, resolved at decode.
            self.mispredicted.push(seq);
        }
        self.entries.push_back(entry);
    }

    /// Retire the head. The carry list drops the seq lazily.
    pub(crate) fn pop_front(&mut self) -> Option<RobEntry> {
        let entry = self.entries.pop_front()?;
        for q in [&mut self.control, &mut self.loads, &mut self.fences] {
            if q.front() == Some(&entry.seq) {
                q.pop_front();
            }
        }
        if self.stores.front() == Some(&entry.seq) {
            self.stores.pop_front();
            self.stores_known = self.stores_known.saturating_sub(1);
        }
        Some(entry)
    }

    /// Squash every entry from index `keep` on, youngest first, handing
    /// each to `on_drop`; then rewind `next_seq`, purge the dropped seqs
    /// from every queue, scheduler list and waiter list, and pull the
    /// frontier back, so the seqs can be handed out again. Stale calendar
    /// entries stay: a new entry with a reused seq starts out `Idle`.
    pub(crate) fn truncate(&mut self, keep: usize, mut on_drop: impl FnMut(RobEntry)) {
        let front = self.front_seq();
        while self.entries.len() > keep {
            on_drop(self.entries.pop_back().expect("len checked"));
        }
        let live = front + self.entries.len() as u64;
        self.next_seq = live;
        for q in [
            &mut self.control,
            &mut self.loads,
            &mut self.stores,
            &mut self.fences,
        ] {
            while q.back().is_some_and(|&s| s >= live) {
                q.pop_back();
            }
        }
        self.stores_known = self.stores_known.min(self.stores.len());
        self.frontier = self.frontier.min(live);
        self.mispredicted.retain(|&s| s < live);
        self.carry.retain(|&s| s < live);
        self.store_wait.retain(|&Reverse(s)| s < live);
        for e in &mut self.entries {
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
    /// and every scheduler list with the entries' `sched` states, at the
    /// end of the step for cycle `now`.
    #[cfg(debug_assertions)]
    pub(crate) fn check_invariants(&self, now: u64) {
        let front = self.front_seq();
        for (i, e) in self.entries.iter().enumerate() {
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
                    !e.computed && e.is_load() && self.store_wait.iter().any(|r| r.0 == e.seq),
                    "store-waiting seq is parked"
                ),
            }
        }
        let filtered = |keep: fn(&RobEntry) -> bool| -> VecDeque<u64> {
            self.entries
                .iter()
                .filter(|e| keep(e))
                .map(|e| e.seq)
                .collect()
        };
        assert_eq!(
            self.control,
            filtered(|e| e.can_mispredict),
            "control queue"
        );
        assert_eq!(self.loads, filtered(RobEntry::is_load), "load queue");
        assert_eq!(self.stores, filtered(RobEntry::is_store), "store queue");
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
            self.stores
                .iter()
                .take(self.stores_known)
                .all(|&s| self.by_seq(s).computed),
            "known stores have computed"
        );
        assert!(self.frontier <= self.next_seq, "frontier is in flight");
        assert!(
            self.entries
                .iter()
                .skip(self.frontier.saturating_sub(front) as usize)
                .all(|e| e.sched == Sched::Idle && e.fetch_ready >= now),
            "entries at or past the frontier are unseen and still in the front end"
        );
        assert!(self.work.is_empty(), "no work outlives its pass");
        assert!(
            self.carry.iter().all(|&s| s < self.next_seq)
                && self.store_wait.iter().all(|r| r.0 < self.next_seq),
            "scheduler lists hold no squashed seqs"
        );
    }
}

impl Index<usize> for ReorderBuffer {
    type Output = RobEntry;
    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        &self.entries[i]
    }
}

impl IndexMut<usize> for ReorderBuffer {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        &mut self.entries[i]
    }
}
