//! The load/store queue: memory disambiguation.
//!
//! The store queue holds the stores in flight, oldest first, with what
//! each one computed. A load is held back while any older store's
//! address is unknown: loads younger than that cut-off
//! ([`LoadStoreQueue::oldest_unknown_store`]) park on the store-wait list
//! until it passes them. After that, [`LoadStoreQueue::forward`] finds
//! the youngest older store that overlaps the load: an exact match
//! forwards its value and taint, a partial overlap waits for the store
//! to drain, and with no overlap the load reads memory. Seqs are reused
//! after a squash, so [`LoadStoreQueue::truncate`] must purge the
//! dropped ones before the next decode.

use crate::isa::Width;
use crate::rob::TaintSet;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What a store computed: the bytes it writes at commit, and the taint
/// a load forwarded from it inherits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreData {
    pub(crate) addr: u64,
    pub(crate) width: Width,
    pub(crate) value: u64,
    pub(crate) taint: TaintSet,
}

/// One store in flight; `data` is `None` until it computes.
#[derive(Debug)]
struct Store {
    seq: u64,
    data: Option<StoreData>,
}

/// Where a load whose older stores all have known addresses gets its
/// value (see [`LoadStoreQueue::forward`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Forward {
    /// No older store overlaps the load: read memory.
    Memory,
    /// The youngest overlapping older store writes exactly the load's
    /// bytes: the value the load reads, and the store's taint.
    Store(u64, TaintSet),
    /// The youngest overlapping older store covers the load only in
    /// part: wait until it drains.
    Wait,
}

/// The store queue, its unknown-address cursor and the loads parked
/// behind the oldest unknown-address store (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct LoadStoreQueue {
    stores: VecDeque<Store>,
    /// How many stores at the front of `stores` are known to have
    /// computed (a lower bound: [`LoadStoreQueue::oldest_unknown_store`]
    /// advances it lazily).
    stores_known: usize,
    /// Loads parked behind the oldest unknown-address store.
    store_wait: BinaryHeap<Reverse<u64>>,
}

impl LoadStoreQueue {
    /// How many stores are in flight.
    pub(crate) fn stores_in_flight(&self) -> usize {
        self.stores.len()
    }

    /// File the store just decoded as `seq`, the youngest in flight.
    pub(crate) fn push_store(&mut self, seq: u64) {
        debug_assert!(
            self.stores.back().is_none_or(|s| s.seq < seq),
            "a squash purges the store queue before the seqs are reused"
        );
        self.stores.push_back(Store { seq, data: None });
    }

    /// Record what store `seq` computed.
    pub(crate) fn resolve_store(&mut self, seq: u64, data: StoreData) {
        let k = self.stores.partition_point(|s| s.seq < seq);
        let store = self
            .stores
            .get_mut(k)
            .filter(|s| s.seq == seq)
            .expect("a computing store is in the store queue");
        debug_assert!(store.data.is_none(), "a store computes once");
        store.data = Some(data);
    }

    /// Seq of the oldest store that has not computed (whose address is
    /// unknown), or `u64::MAX` when every store in flight has.
    pub(crate) fn oldest_unknown_store(&mut self) -> u64 {
        while let Some(s) = self.stores.get(self.stores_known) {
            if s.data.is_none() {
                return s.seq;
            }
            self.stores_known += 1;
        }
        u64::MAX
    }

    /// Where load `seq`, reading `width` bytes at `addr`, gets its value.
    /// Only asked once every older store has computed (the load is older
    /// than [`LoadStoreQueue::oldest_unknown_store`]).
    pub(crate) fn forward(&self, seq: u64, addr: u64, width: Width) -> Forward {
        let older = self.stores.partition_point(|s| s.seq < seq);
        let lw = width.bytes();
        for s in self.stores.range(..older).rev() {
            let d = s.data.expect("older stores have computed");
            let sw = d.width.bytes();
            if d.addr == addr && sw == lw {
                let value = match width {
                    Width::B => d.value & 0xff,
                    Width::Q => d.value,
                };
                return Forward::Store(value, d.taint);
            }
            if d.addr < addr + lw && addr < d.addr + sw {
                return Forward::Wait;
            }
        }
        Forward::Memory
    }

    /// Park load `seq` until the oldest unknown-address store is younger
    /// than it.
    pub(crate) fn park_behind_store(&mut self, seq: u64) {
        self.store_wait.push(Reverse(seq));
    }

    /// The oldest unknown-address store is now `cut`: take the loads
    /// parked below it off the list, oldest first. They have no
    /// unknown-address store ahead of them any more.
    pub(crate) fn release_store_waiters(&mut self, cut: u64) -> impl Iterator<Item = u64> + '_ {
        std::iter::from_fn(move || {
            let &Reverse(seq) = self.store_wait.peek()?;
            (seq < cut).then(|| {
                self.store_wait.pop();
                seq
            })
        })
    }

    /// Commit the oldest store, `seq`, and return what it computed.
    pub(crate) fn retire_store(&mut self, seq: u64) -> StoreData {
        let s = self
            .stores
            .pop_front()
            .expect("a committing store is queued");
        assert_eq!(s.seq, seq, "stores commit in program order");
        self.stores_known = self.stores_known.saturating_sub(1);
        s.data.expect("a store computes before it commits")
    }

    /// Squash: drop every store and parked load with a seq at or above
    /// `live`, the first seq decode hands out next.
    pub(crate) fn truncate(&mut self, live: u64) {
        while self.stores.back().is_some_and(|s| s.seq >= live) {
            self.stores.pop_back();
        }
        self.stores_known = self.stores_known.min(self.stores.len());
        self.store_wait.retain(|&Reverse(s)| s < live);
    }

    /// Debug builds: the queue holds the ROB's stores, each computed as
    /// its entry is; the cursor vouches only for computed stores; the
    /// store-wait list holds the entries the scheduler has parked.
    #[cfg(debug_assertions)]
    pub(crate) fn check_invariants(&self, rob: &crate::rob::ReorderBuffer) {
        use crate::{isa::Inst, rob::Sched};
        let stores = rob.iter().filter(|e| matches!(e.inst, Inst::Store { .. }));
        let queued = self.stores.iter().map(|s| (s.seq, s.data.is_some()));
        assert!(
            stores.map(|e| (e.seq, e.computed)).eq(queued),
            "store queue"
        );
        let mut known = self.stores.range(..self.stores_known);
        assert!(known.all(|s| s.data.is_some()), "known stores computed");
        let mut parked: Vec<u64> = self.store_wait.iter().map(|r| r.0).collect();
        parked.sort_unstable();
        let waiting = rob.iter().filter(|e| e.sched == Sched::StoreWait);
        assert!(waiting.map(|e| e.seq).eq(parked), "store-wait list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random drive of the queue, as the pipeline takes it.
    /// `usize` fields pick among the candidates the step applies to.
    #[derive(Debug, Clone)]
    enum Op {
        /// Decode a store.
        Store,
        /// Decode a load.
        Load,
        /// An uncomputed store computes `(addr offset, byte-wide?)`.
        Resolve(usize, u64, bool),
        /// A load with no older unknown-address store looks up
        /// `(addr offset, byte-wide?)`.
        Lookup(usize, u64, bool),
        /// A load behind an unknown-address store parks.
        Park(usize),
        /// Re-read the cut-off and release the loads below it.
        Release,
        /// The oldest entry commits, if it can.
        Commit,
        /// Keep only the first `n % (in flight + 1)` entries.
        Squash(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Store),
            Just(Op::Load),
            (0..64usize, 0..12u64, any::<bool>()).prop_map(|(k, a, b)| Op::Resolve(k, a, b)),
            (0..64usize, 0..12u64, any::<bool>()).prop_map(|(k, a, b)| Op::Lookup(k, a, b)),
            (0..64usize).prop_map(Op::Park),
            Just(Op::Release),
            Just(Op::Commit),
            (0..64usize).prop_map(Op::Squash),
        ]
    }

    /// The naive model: every entry in flight, in a `Vec`, scanned
    /// linearly. A store carries `(addr, width, value)` once computed; a
    /// load carries whether it is parked.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Store(Option<(u64, Width, u64)>),
        Load(bool),
    }

    #[derive(Default)]
    struct Oracle {
        front: u64,
        entries: Vec<Entry>,
    }

    impl Oracle {
        fn seq(&self, k: usize) -> u64 {
            self.front + k as u64
        }

        fn oldest_unknown_store(&self) -> u64 {
            (0..self.entries.len())
                .find(|&k| matches!(self.entries[k], Entry::Store(None)))
                .map_or(u64::MAX, |k| self.seq(k))
        }

        /// `Forward` as `Ok(None)` (memory), `Ok(Some((store seq,
        /// value)))` or `Err(())` (wait).
        fn forward(&self, k: usize, addr: u64, width: Width) -> Result<Option<(u64, u64)>, ()> {
            for j in (0..k).rev() {
                if let Entry::Store(d) = self.entries[j] {
                    let (sa, sw, value) = d.expect("older stores computed");
                    if sa == addr && sw == width {
                        let mask = if width == Width::B { 0xff } else { u64::MAX };
                        return Ok(Some((self.seq(j), value & mask)));
                    }
                    if sa < addr + width.bytes() && addr < sa + sw.bytes() {
                        return Err(());
                    }
                }
            }
            Ok(None)
        }

        /// Indices of the entries `keep` accepts.
        fn pick(&self, keep: impl Fn(usize, &Entry) -> bool) -> Vec<usize> {
            (0..self.entries.len())
                .filter(|&k| keep(k, &self.entries[k]))
                .collect()
        }
    }

    fn width(byte: bool) -> Width {
        if byte {
            Width::B
        } else {
            Width::Q
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_queue_agrees_with_a_linear_scan_oracle(ops in prop::collection::vec(op(), 1..160)) {
            let mut lsq = LoadStoreQueue::default();
            let mut o = Oracle::default();
            for op in ops {
                let cut = o.oldest_unknown_store();
                match op {
                    Op::Store => {
                        lsq.push_store(o.seq(o.entries.len()));
                        o.entries.push(Entry::Store(None));
                    }
                    Op::Load => o.entries.push(Entry::Load(false)),
                    Op::Resolve(pick, off, byte) => {
                        let open = o.pick(|_, e| matches!(e, Entry::Store(None)));
                        let Some(&k) = open.get(pick % open.len().max(1)) else { continue };
                        let (seq, addr, w) = (o.seq(k), 0x100 + off, width(byte));
                        let mut taint = TaintSet::default();
                        taint.add_root(seq);
                        let value = seq * 1000 + off;
                        lsq.resolve_store(seq, StoreData { addr, width: w, value, taint });
                        o.entries[k] = Entry::Store(Some((addr, w, value)));
                    }
                    Op::Lookup(pick, off, byte) => {
                        let ready = o.pick(|k, e| matches!(e, Entry::Load(false)) && o.seq(k) < cut);
                        let Some(&k) = ready.get(pick % ready.len().max(1)) else { continue };
                        let (addr, w) = (0x100 + off, width(byte));
                        let got = match lsq.forward(o.seq(k), addr, w) {
                            Forward::Memory => Ok(None),
                            Forward::Wait => Err(()),
                            // Each store's taint holds its own seq alone.
                            Forward::Store(value, taint) => Ok(Some((taint.roots()[0], value))),
                        };
                        prop_assert_eq!(got, o.forward(k, addr, w));
                    }
                    Op::Park(pick) => {
                        let behind = o.pick(|k, e| matches!(e, Entry::Load(false)) && o.seq(k) > cut);
                        let Some(&k) = behind.get(pick % behind.len().max(1)) else { continue };
                        lsq.park_behind_store(o.seq(k));
                        o.entries[k] = Entry::Load(true);
                    }
                    Op::Release => {
                        let got: Vec<u64> = lsq.release_store_waiters(cut).collect();
                        let want = o.pick(|k, e| matches!(e, Entry::Load(true)) && o.seq(k) < cut);
                        for &k in &want {
                            o.entries[k] = Entry::Load(false);
                        }
                        let want: Vec<u64> = want.into_iter().map(|k| o.seq(k)).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::Commit => match o.entries.first().copied() {
                        Some(Entry::Store(Some((addr, w, value)))) => {
                            let d = lsq.retire_store(o.front);
                            prop_assert_eq!((d.addr, d.width, d.value), (addr, w, value));
                            o.entries.remove(0);
                            o.front += 1;
                        }
                        Some(Entry::Load(false)) => {
                            o.entries.remove(0);
                            o.front += 1;
                        }
                        _ => {}
                    },
                    Op::Squash(n) => {
                        let keep = n % (o.entries.len() + 1);
                        o.entries.truncate(keep);
                        lsq.truncate(o.seq(keep));
                    }
                }
                prop_assert_eq!(lsq.oldest_unknown_store(), o.oldest_unknown_store());
                prop_assert_eq!(
                    lsq.stores_in_flight(),
                    o.pick(|_, e| matches!(e, Entry::Store(_))).len()
                );
            }
        }
    }
}
