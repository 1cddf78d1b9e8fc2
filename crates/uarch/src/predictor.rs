//! Branch prediction: a TAGE-inspired direction predictor, a partially
//! tagged BTB, and a return stack buffer (RSB).
//!
//! Two properties matter for the security experiments and are modelled
//! faithfully:
//!
//! 1. **Predictor state is shared across contexts and privilege levels**
//!    (no flush on syscall or context switch), so an attacker can mistrain
//!    a victim branch (Spectre v1) or inject targets (Spectre v2 / BHI).
//! 2. **The BTB uses partial tags**, so two branches at different addresses
//!    can alias; and **the RSB falls back to the BTB on underflow**, which
//!    is the Retbleed/Spectre-RSB hijack mechanism.
//!
//! The direction predictor is a 3-component TAGE-lite (bimodal base +
//! two tagged tables with 8- and 16-bit global history folds), standing in
//! for the paper's L-TAGE (Table 7.1).

/// Global branch-history register (newest outcome in bit 0).
pub type History = u64;

const BIMODAL_BITS: usize = 12;
const TAGGED_BITS: usize = 10;
const TAG_BITS: u32 = 9;

#[derive(Debug, Clone, Copy)]
struct TaggedEntry {
    tag: u16,
    ctr: i8, // -4..=3, taken if >= 0
    useful: u8,
}

/// TAGE-lite conditional branch direction predictor.
#[derive(Debug)]
pub struct DirectionPredictor {
    bimodal: Vec<i8>, // 2-bit counters, taken if >= 0, range -2..=1
    tagged: [Vec<TaggedEntry>; 2],
    hist_len: [u32; 2],
}

fn fold(hist: History, len: u32, bits: u32) -> u64 {
    let mut h = hist & ((1u64 << len.min(63)) - 1);
    let mut out = 0u64;
    while h != 0 {
        out ^= h & ((1 << bits) - 1);
        h >>= bits;
    }
    out
}

impl DirectionPredictor {
    /// A predictor with paper-scale tables.
    pub fn new() -> Self {
        DirectionPredictor {
            bimodal: vec![0; 1 << BIMODAL_BITS],
            tagged: [
                vec![
                    TaggedEntry {
                        tag: 0,
                        ctr: 0,
                        useful: 0
                    };
                    1 << TAGGED_BITS
                ],
                vec![
                    TaggedEntry {
                        tag: 0,
                        ctr: 0,
                        useful: 0
                    };
                    1 << TAGGED_BITS
                ],
            ],
            hist_len: [8, 16],
        }
    }

    fn tagged_index(&self, pc: u64, hist: History, comp: usize) -> (usize, u16) {
        let folded = fold(hist, self.hist_len[comp], TAGGED_BITS as u32);
        let idx = ((pc >> 2) ^ folded ^ (folded << 1)) as usize & ((1 << TAGGED_BITS) - 1);
        let tag = (((pc >> 2) ^ fold(hist, self.hist_len[comp], TAG_BITS)) & ((1 << TAG_BITS) - 1))
            as u16;
        (idx, tag)
    }

    /// Predict the direction of the conditional branch at `pc` under global
    /// history `hist`.
    pub fn predict(&self, pc: u64, hist: History) -> bool {
        // Longest matching tagged component wins.
        for comp in (0..2).rev() {
            let (idx, tag) = self.tagged_index(pc, hist, comp);
            let e = &self.tagged[comp][idx];
            if e.tag == tag && e.useful > 0 {
                return e.ctr >= 0;
            }
        }
        self.bimodal[(pc >> 2) as usize & ((1 << BIMODAL_BITS) - 1)] >= 0
    }

    /// Train with the resolved outcome.
    pub fn update(&mut self, pc: u64, hist: History, taken: bool) {
        let predicted = self.predict(pc, hist);
        // Update the provider component (or bimodal).
        let mut provided = false;
        for comp in (0..2).rev() {
            let (idx, tag) = self.tagged_index(pc, hist, comp);
            let e = &mut self.tagged[comp][idx];
            if e.tag == tag && e.useful > 0 {
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if predicted == taken {
                    e.useful = e.useful.saturating_add(1).min(3);
                }
                provided = true;
                break;
            }
        }
        if !provided {
            let b = &mut self.bimodal[(pc >> 2) as usize & ((1 << BIMODAL_BITS) - 1)];
            *b = (*b + if taken { 1 } else { -1 }).clamp(-2, 1);
        }
        // On a misprediction, allocate in a tagged component.
        if predicted != taken {
            for comp in 0..2 {
                let (idx, tag) = self.tagged_index(pc, hist, comp);
                let e = &mut self.tagged[comp][idx];
                if e.useful == 0 {
                    *e = TaggedEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 1,
                    };
                    break;
                }
                e.useful -= 1; // age out
            }
        }
    }
}

impl Default for DirectionPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// Branch-target-buffer hardening mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbMode {
    /// Partial PC tags, no privilege isolation, no history mixing —
    /// directly injectable across privilege levels (classic Spectre v2).
    Legacy,
    /// eIBRS-style: entries are privilege-tagged (user-installed entries
    /// never serve kernel-mode predictions) and both index and tag mix in
    /// the global branch history. Blocks cross-privilege target
    /// injection — but the history register itself is attacker-
    /// controlled across the user→kernel transition, which is exactly
    /// the Branch History Injection hole (Table 4.1, row 5).
    Ibrs,
}

/// Branch target buffer with partial tags (aliasable — deliberately).
#[derive(Debug)]
pub struct Btb {
    entries: Vec<Option<BtbEntry>>,
    index_mask: u64,
    mode: BtbMode,
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    partial_tag: u16,
    target: u64,
    from_kernel: bool,
}

impl Btb {
    /// A BTB with `entries` slots (must be a power of two). Table 7.1 uses
    /// 4096. Legacy mode.
    pub fn new(entries: usize) -> Self {
        Self::with_mode(entries, BtbMode::Legacy)
    }

    /// A BTB with an explicit hardening mode.
    pub fn with_mode(entries: usize, mode: BtbMode) -> Self {
        assert!(entries.is_power_of_two());
        Btb {
            entries: vec![None; entries],
            index_mask: (entries - 1) as u64,
            mode,
        }
    }

    /// The hardening mode.
    pub fn mode(&self) -> BtbMode {
        self.mode
    }

    fn hist_fold(&self, hist: History) -> u64 {
        match self.mode {
            BtbMode::Legacy => 0,
            // Fold 44 bits of history into 22 bits: the low 12 feed the
            // index, the next 8 the tag (disjoint, as in real BHB
            // hashing where different history bits reach different
            // structure bits).
            BtbMode::Ibrs => {
                let h = hist & 0xFFF_FFFF_FFFF;
                (h & 0x3F_FFFF) ^ (h >> 22)
            }
        }
    }

    fn index(&self, pc: u64, hist: History) -> usize {
        (((pc >> 2) ^ self.hist_fold(hist)) & self.index_mask) as usize
    }

    fn partial_tag(&self, pc: u64, hist: History) -> u16 {
        // Only 8 tag bits: addresses that agree in index and these bits
        // alias — the Spectre v2 / BHI injection primitive. The tag mixes
        // history bits disjoint from the index's.
        ((((pc >> 2) >> self.index_mask.count_ones()) ^ (self.hist_fold(hist) >> 12)) & 0xff) as u16
    }

    /// Predicted target for the control transfer at `pc` under history
    /// `hist`, predicted in kernel (`true`) or user (`false`) mode.
    pub fn predict(&self, pc: u64, hist: History, in_kernel: bool) -> Option<u64> {
        let e = self.entries[self.index(pc, hist)]?;
        if self.mode == BtbMode::Ibrs && e.from_kernel != in_kernel {
            return None; // privilege-tagged: no cross-privilege service
        }
        (e.partial_tag == self.partial_tag(pc, hist)).then_some(e.target)
    }

    /// Install / update the mapping `pc -> target`.
    pub fn install(&mut self, pc: u64, hist: History, target: u64, in_kernel: bool) {
        let idx = self.index(pc, hist);
        self.entries[idx] = Some(BtbEntry {
            partial_tag: self.partial_tag(pc, hist),
            target,
            from_kernel: in_kernel,
        });
    }

    /// Compute a *different* address that aliases with `pc` in this BTB
    /// under the same history (same index and partial tag). Used by attack
    /// builders (Legacy-mode injection).
    pub fn aliasing_pc(&self, pc: u64) -> u64 {
        let stride = (self.index_mask + 1) << (2 + 8); // skip index+tag bits
        pc.wrapping_add(stride)
    }

    /// Brute-force a user-controllable history value that makes a lookup
    /// of `pc` (in kernel mode) hit a currently installed kernel entry
    /// with target `wanted` — the offline Branch-History-Buffer search of
    /// the BHI PoCs. Returns `None` if no collision exists in the
    /// searched space.
    pub fn find_colliding_history(&self, pc: u64, wanted: u64) -> Option<History> {
        (0..(1u64 << 22)).find(|&h| self.predict(pc, h, true) == Some(wanted))
    }
}

/// Return stack buffer: a small circular stack of predicted return targets.
///
/// On underflow the predictor falls back to the BTB entry for the `ret`'s
/// own address — the behavior Retbleed exploits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rsb {
    slots: Vec<u64>,
    top: usize,
    count: usize,
}

/// What one RSB push or pop changed, so the speculative front end can
/// roll it back without a snapshot of the whole buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RsbUndo {
    top: usize,
    count: usize,
    slot: usize,
    old: u64,
}

impl Rsb {
    /// An RSB with `entries` slots (Table 7.1: 16).
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        Rsb {
            slots: vec![0; entries],
            top: 0,
            count: 0,
        }
    }

    /// Push a return address (on `call` fetch). Overflow silently overwrites
    /// the oldest entry.
    pub fn push(&mut self, ret_addr: u64) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = ret_addr;
        if self.count < self.slots.len() {
            self.count += 1;
        }
    }

    /// Pop a predicted return target (on `ret` fetch). `None` on underflow.
    pub fn pop(&mut self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let v = self.slots[self.top];
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.count -= 1;
        Some(v)
    }

    /// [`Rsb::push`], returning the record that undoes it.
    pub(crate) fn push_undoable(&mut self, ret_addr: u64) -> RsbUndo {
        let slot = (self.top + 1) % self.slots.len();
        let undo = RsbUndo {
            top: self.top,
            count: self.count,
            slot,
            old: self.slots[slot],
        };
        self.push(ret_addr);
        undo
    }

    /// [`Rsb::pop`], also returning the record that undoes it.
    pub(crate) fn pop_undoable(&mut self) -> (Option<u64>, RsbUndo) {
        let undo = RsbUndo {
            top: self.top,
            count: self.count,
            slot: self.top,
            old: self.slots[self.top],
        };
        (self.pop(), undo)
    }

    /// Roll back one push or pop (records must be undone newest first).
    pub(crate) fn undo(&mut self, undo: RsbUndo) {
        self.slots[undo.slot] = undo.old;
        self.top = undo.top;
        self.count = undo.count;
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Is the RSB empty (underflowed)?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Aggregate prediction machinery shared by the core. Shared across
/// contexts — deliberately not flushed on syscalls or context switches.
#[derive(Debug)]
pub struct Predictors {
    /// Conditional branch direction predictor.
    pub dir: DirectionPredictor,
    /// Branch target buffer.
    pub btb: Btb,
    /// Return stack buffer.
    pub rsb: Rsb,
    /// Speculative global history (maintained along the fetch path).
    pub hist: History,
}

impl Predictors {
    /// Build with the Table 7.1 sizes: 4096 BTB entries, 16 RAS entries.
    pub fn paper_default() -> Self {
        Predictors {
            dir: DirectionPredictor::new(),
            btb: Btb::new(4096),
            rsb: Rsb::new(16),
            hist: 0,
        }
    }

    /// Build with custom sizes.
    pub fn new(btb_entries: usize, rsb_entries: usize) -> Self {
        Self::with_btb_mode(btb_entries, rsb_entries, BtbMode::Legacy)
    }

    /// Build with custom sizes and an explicit BTB hardening mode.
    pub fn with_btb_mode(btb_entries: usize, rsb_entries: usize, mode: BtbMode) -> Self {
        Predictors {
            dir: DirectionPredictor::new(),
            btb: Btb::with_mode(btb_entries, mode),
            rsb: Rsb::new(rsb_entries),
            hist: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_predictor_learns_bias() {
        let mut p = DirectionPredictor::new();
        for _ in 0..8 {
            p.update(0x1000, 0, true);
        }
        assert!(p.predict(0x1000, 0), "trained taken");
        for _ in 0..8 {
            p.update(0x1000, 0, false);
        }
        assert!(!p.predict(0x1000, 0), "retrained not-taken");
    }

    #[test]
    fn direction_predictor_uses_history() {
        let mut p = DirectionPredictor::new();
        // Alternating pattern correlated with last outcome.
        for i in 0..64u64 {
            let hist = i & 1;
            p.update(0x2000, hist, hist == 1);
        }
        assert!(p.predict(0x2000, 1));
        assert!(!p.predict(0x2000, 0));
    }

    #[test]
    fn mistraining_then_misprediction() {
        // The Spectre v1 primitive: train taken, then the actual outcome is
        // not-taken — prediction still says taken.
        let mut p = DirectionPredictor::new();
        for _ in 0..16 {
            p.update(0x3000, 0, true);
        }
        assert!(p.predict(0x3000, 0), "attacker-visible stale prediction");
    }

    #[test]
    fn btb_install_and_predict() {
        let mut b = Btb::new(4096);
        assert_eq!(b.predict(0x4000, 0, true), None);
        b.install(0x4000, 0, 0x9000, true);
        assert_eq!(b.predict(0x4000, 0, true), Some(0x9000));
        // Legacy mode: history and privilege are ignored.
        assert_eq!(b.predict(0x4000, 0xDEAD, false), Some(0x9000));
    }

    #[test]
    fn btb_aliasing_enables_injection() {
        let mut b = Btb::new(4096);
        let victim_pc = 0x7000;
        let attacker_pc = b.aliasing_pc(victim_pc);
        assert_ne!(attacker_pc, victim_pc);
        // Attacker installs from USER mode; the victim predicts in KERNEL
        // mode — Legacy parts serve it anyway.
        b.install(attacker_pc, 0, 0xbad0, false);
        assert_eq!(b.predict(victim_pc, 0, true), Some(0xbad0));
    }

    #[test]
    fn ibrs_blocks_cross_privilege_injection() {
        let mut b = Btb::with_mode(4096, BtbMode::Ibrs);
        let victim_pc = 0x7000;
        let attacker_pc = b.aliasing_pc(victim_pc);
        b.install(attacker_pc, 0, 0xbad0, false); // user-mode install
        assert_eq!(
            b.predict(victim_pc, 0, true),
            None,
            "privilege tags stop the classic v2 injection"
        );
    }

    #[test]
    fn ibrs_history_mixing_separates_histories() {
        let mut b = Btb::with_mode(4096, BtbMode::Ibrs);
        b.install(0x7000, 0b1010, 0x9000, true);
        assert_eq!(b.predict(0x7000, 0b1010, true), Some(0x9000));
        assert_eq!(
            b.predict(0x7000, 0b1111, true),
            None,
            "other history misses"
        );
    }

    #[test]
    fn bhi_history_search_finds_a_collision() {
        // The BHI primitive: a kernel-installed entry for one branch can
        // be reached from a *different* kernel branch under an
        // attacker-chosen history.
        let mut b = Btb::with_mode(4096, BtbMode::Ibrs);
        let legit_callsite = 0xFFFF_8000_0000_4444u64;
        let gadget = 0xFFFF_8000_0001_2340u64;
        b.install(legit_callsite, 0x5A5A, gadget, true);
        let dispatch = 0xFFFF_8000_0000_0010u64;
        let h = b
            .find_colliding_history(dispatch, gadget)
            .expect("a colliding history exists in the searched space");
        assert_eq!(b.predict(dispatch, h, true), Some(gadget));
    }

    #[test]
    fn rsb_push_pop_lifo() {
        let mut r = Rsb::new(4);
        r.push(0x10);
        r.push(0x20);
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None, "underflow");
    }

    #[test]
    fn rsb_overflow_loses_oldest() {
        let mut r = Rsb::new(2);
        r.push(0x1);
        r.push(0x2);
        r.push(0x3); // overwrites 0x1
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(0x3));
        assert_eq!(r.pop(), Some(0x2));
        assert_eq!(r.pop(), None, "0x1 was lost to overflow");
    }

    #[test]
    fn deep_call_chain_underflows_rsb() {
        // Retbleed precondition: call depth beyond RSB capacity means the
        // outermost returns have no RSB prediction.
        let mut r = Rsb::new(16);
        for i in 0..20u64 {
            r.push(0x1000 + i * 4);
        }
        for _ in 0..16 {
            assert!(r.pop().is_some());
        }
        assert!(r.pop().is_none(), "returns past capacity fall back to BTB");
    }
}
