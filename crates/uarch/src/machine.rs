//! Architectural machine state: registers, sparse byte-addressed memory,
//! text image, privilege mode and address-space identity.
//!
//! The [`Machine`] holds the *committed* state of the simulated machine.
//! The pipeline maintains its own speculative view on top and only writes
//! back here at retirement, so a squash can never corrupt architectural
//! state.
//!
//! Two parts of a machine can be shared with other machines built from
//! the same kernel image: a read-only [`TextSegment`] holding the kernel
//! text, and the boot-time pages of its [`SparseMemory`], which are
//! copy-on-write.

use crate::isa::{Inst, Width, INST_BYTES, NUM_REGS, REG_ZERO};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Privilege mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Userspace.
    User,
    /// Kernel.
    Kernel,
}

/// Address-space identifier; identifies the execution context (process /
/// container) for tagged microarchitectural structures and for Perspective's
/// speculation views.
pub type Asid = u16;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A fixed multiplicative hash for the machine's `u64`-keyed maps (page
/// numbers, instruction addresses). Neither map is ever iterated, so
/// the hash cannot reach any output. The keys are addresses of
/// simulated programs the reproduction generates itself, so SipHash's
/// flooding resistance buys nothing, while its cost sits on every fetch
/// and memory access.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low bits the table
        // indexes with (instruction addresses are 4-byte aligned).
        self.0 ^ (self.0 >> 32)
    }
}

type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Sparse byte-addressable memory backed by 4 KiB pages.
///
/// Pages are reference-counted and copy-on-write: cloning a memory shares
/// every page, and the first write to a shared page gives the writer its
/// own copy. A write therefore never reaches another clone, and after it
/// the written page aliases no other memory.
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    pages: AddrMap<Arc<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// Fresh zeroed memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        Arc::make_mut(
            self.pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE])),
        )
    }

    /// Read one byte (unmapped memory reads as zero).
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr >> PAGE_SHIFT))
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Read a little-endian u64 (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            return self.pages.get(&(addr >> PAGE_SHIFT)).map_or(0, |p| {
                u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"))
            });
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        u64::from_le_bytes(bytes)
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Read with an explicit access width.
    pub fn read(&self, addr: u64, width: Width) -> u64 {
        match width {
            Width::B => u64::from(self.read_u8(addr)),
            Width::Q => self.read_u64(addr),
        }
    }

    /// Write with an explicit access width.
    pub fn write(&mut self, addr: u64, value: u64, width: Width) {
        match width {
            Width::B => self.write_u8(addr, value as u8),
            Width::Q => self.write_u64(addr, value),
        }
    }

    /// Number of populated 4 KiB pages.
    pub fn populated_pages(&self) -> usize {
        self.pages.len()
    }
}

/// A dense run of instructions: one slot per [`INST_BYTES`]-aligned
/// address in `[base, end)`, empty slots for padding.
///
/// This is how kernel text is held: built once per kernel image and
/// attached, read-only behind an [`Arc`], to every machine that runs that
/// kernel ([`Machine::attach_text`]), so a fetch is an index instead of a
/// hash probe and building a machine copies no instructions.
pub struct TextSegment {
    base: u64,
    slots: Vec<Option<Inst>>,
    len: usize,
}

impl TextSegment {
    /// An empty segment covering `[base, end)`.
    pub fn new(base: u64, end: u64) -> Self {
        let slots = end.saturating_sub(base).div_ceil(INST_BYTES);
        TextSegment {
            base,
            slots: vec![None; slots as usize],
            len: 0,
        }
    }

    fn slot(&self, addr: u64) -> Option<usize> {
        let off = addr.wrapping_sub(self.base);
        (off.is_multiple_of(INST_BYTES) && off / INST_BYTES < self.slots.len() as u64)
            .then_some((off / INST_BYTES) as usize)
    }

    /// Place `inst` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not an instruction slot of the segment, or if
    /// the slot is already occupied.
    pub fn insert(&mut self, addr: u64, inst: Inst) {
        let i = self
            .slot(addr)
            .unwrap_or_else(|| panic!("{addr:#x} is not an instruction slot of this segment"));
        assert!(
            self.slots[i].replace(inst).is_none(),
            "address {addr:#x} emitted twice"
        );
        self.len += 1;
    }

    /// The instruction at `addr`, if the segment holds one.
    pub fn get(&self, addr: u64) -> Option<Inst> {
        self.slot(addr).and_then(|i| self.slots[i])
    }

    /// Number of instructions held (padding slots excluded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment holds no instruction.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every `(address, instruction)` in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Inst)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|inst| (self.base + i as u64 * INST_BYTES, inst)))
    }
}

impl std::fmt::Debug for TextSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TextSegment")
            .field("base", &format_args!("{:#x}", self.base))
            .field("slots", &self.slots.len())
            .field("insts", &self.len)
            .finish()
    }
}

/// The committed architectural state.
#[derive(Debug)]
pub struct Machine {
    regs: [u64; NUM_REGS],
    /// Data memory.
    pub mem: SparseMemory,
    /// Shared kernel text, consulted first on every fetch.
    segment: Option<Arc<TextSegment>>,
    /// Every other instruction: user, extension and test programs.
    text: AddrMap<Inst>,
    /// Current privilege mode.
    pub mode: Mode,
    /// Current address-space / context identifier.
    pub asid: Asid,
    /// Program counter of the next instruction to commit.
    pub pc: u64,
    /// Kernel entry point used by `Syscall`.
    pub kernel_entry: u64,
    /// Userspace return address captured by the last committed `Syscall`.
    pub sysret_target: u64,
    /// Committed shadow call stack (precise resolution of `Ret`).
    pub call_stack: Vec<u64>,
    /// Syscall currently being serviced (set at `Syscall` commit, cleared
    /// at `Sysret` commit) — the dispatch-granularity context per-syscall
    /// ISVs switch on.
    pub cur_sysno: Option<u16>,
}

impl Machine {
    /// A machine with empty memory, user mode, ASID 0.
    pub fn new() -> Self {
        Machine {
            regs: [0; NUM_REGS],
            mem: SparseMemory::new(),
            segment: None,
            text: AddrMap::default(),
            mode: Mode::User,
            asid: 0,
            pc: 0,
            kernel_entry: 0,
            sysret_target: 0,
            call_stack: Vec::new(),
            cur_sysno: None,
        }
    }

    /// Read a register (`r0` reads zero).
    pub fn reg(&self, r: u8) -> u64 {
        if r == REG_ZERO {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Write a register (`r0` writes are discarded).
    pub fn set_reg(&mut self, r: u8, value: u64) {
        if r != REG_ZERO {
            self.regs[r as usize] = value;
        }
    }

    /// Snapshot of the whole register file (index 0 is always zero).
    pub fn regs(&self) -> [u64; NUM_REGS] {
        let mut r = self.regs;
        r[0] = 0;
        r
    }

    /// Install instructions into the text image.
    ///
    /// # Panics
    ///
    /// Panics if an address is already occupied by a *different*
    /// instruction, in the attached segment or among earlier loads
    /// (overlapping identical installs are permitted so that shared stubs
    /// can be loaded twice).
    pub fn load_text(&mut self, insts: impl IntoIterator<Item = (u64, Inst)>) {
        for (addr, inst) in insts {
            if let Some(prev) = self.segment.as_ref().and_then(|s| s.get(addr)) {
                assert_eq!(prev, inst, "conflicting instruction at {addr:#x}");
            } else if let Some(prev) = self.text.insert(addr, inst) {
                assert_eq!(prev, inst, "conflicting instruction at {addr:#x}");
            }
        }
    }

    /// Attach a shared text segment (the kernel's). Later
    /// [`Machine::load_text`] calls are checked against it, so every
    /// address lives in exactly one layer.
    ///
    /// # Panics
    ///
    /// Panics if a segment is already attached or any text was loaded
    /// before it.
    pub fn attach_text(&mut self, segment: Arc<TextSegment>) {
        assert!(
            self.segment.is_none() && self.text.is_empty(),
            "a text segment is attached to a machine with no text yet"
        );
        self.segment = Some(segment);
    }

    /// Fetch the instruction at `addr`, if mapped: the attached segment
    /// first, then the per-machine map.
    pub fn inst_at(&self, addr: u64) -> Option<Inst> {
        self.segment
            .as_ref()
            .and_then(|s| s.get(addr))
            .or_else(|| self.text.get(&addr).copied())
    }

    /// Number of instructions in the text image (both layers).
    pub fn text_len(&self) -> usize {
        self.segment.as_ref().map_or(0, |s| s.len()) + self.text.len()
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Inst;

    #[test]
    fn zero_register_semantics() {
        let mut m = Machine::new();
        m.set_reg(0, 99);
        assert_eq!(m.reg(0), 0);
        m.set_reg(5, 7);
        assert_eq!(m.reg(5), 7);
        assert_eq!(m.regs()[0], 0);
    }

    #[test]
    fn memory_round_trips() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u8(0x1000), 0x0d, "little endian low byte");
        // Straddles a page boundary.
        m.write_u64(0x1ffc, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x1ffc), 0x1122_3344_5566_7788);
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0xdead_0000), 0);
        assert_eq!(m.populated_pages(), 0);
    }

    #[test]
    fn width_dispatch() {
        let mut m = SparseMemory::new();
        m.write(0x10, 0x1ff, Width::B);
        assert_eq!(m.read(0x10, Width::B), 0xff, "byte write truncates");
        m.write(0x20, 0x1ff, Width::Q);
        assert_eq!(m.read(0x20, Width::Q), 0x1ff);
    }

    #[test]
    fn text_conflicts_are_detected() {
        let mut m = Machine::new();
        m.load_text([(0x0, Inst::Nop)]);
        m.load_text([(0x0, Inst::Nop)]); // identical re-install OK
        assert_eq!(m.text_len(), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.load_text([(0x0, Inst::Halt)]);
        }));
        assert!(result.is_err(), "conflicting install must panic");
    }

    /// A segment at 0x1000 holding `Nop`s at 0x1000 and 0x1008, with a
    /// hole at 0x1004.
    fn holed_segment() -> Arc<TextSegment> {
        let mut seg = TextSegment::new(0x1000, 0x100c);
        seg.insert(0x1000, Inst::Nop);
        seg.insert(0x1008, Inst::Nop);
        Arc::new(seg)
    }

    #[test]
    fn segment_reinstalls_are_checked_against_the_segment() {
        let mut m = Machine::new();
        m.attach_text(holed_segment());
        m.load_text([(0x1000, Inst::Nop)]); // identical re-install OK
        assert_eq!(m.text_len(), 2, "the re-install adds nothing");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.load_text([(0x1008, Inst::Halt)]);
        }));
        assert!(
            result.is_err(),
            "conflicting install over the segment must panic"
        );
        assert_eq!(m.inst_at(0x1008), Some(Inst::Nop));
    }

    #[test]
    fn holes_and_outside_addresses_resolve_through_the_overlay() {
        let mut m = Machine::new();
        m.attach_text(holed_segment());
        m.load_text([
            (0x1004, Inst::Halt),
            (0x0ffc, Inst::Fence),
            (0x100c, Inst::Ret),
        ]);
        assert_eq!(m.inst_at(0x1000), Some(Inst::Nop));
        assert_eq!(m.inst_at(0x1004), Some(Inst::Halt), "hole inside the range");
        assert_eq!(m.inst_at(0x0ffc), Some(Inst::Fence), "below the base");
        assert_eq!(m.inst_at(0x100c), Some(Inst::Ret), "past the end");
        assert_eq!(m.inst_at(0x1002), None, "misaligned address");
        assert_eq!(m.text_len(), 5, "text_len counts both layers");
    }

    #[test]
    fn a_segment_attaches_only_to_a_machine_without_text() {
        let mut m = Machine::new();
        m.load_text([(0x2000, Inst::Halt)]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.attach_text(holed_segment());
        }));
        assert!(result.is_err(), "attaching after a load must panic");
        let mut m = Machine::new();
        m.attach_text(holed_segment());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.attach_text(holed_segment());
        }));
        assert!(result.is_err(), "a second segment must panic");
    }

    #[test]
    fn segment_iterates_in_address_order_and_rejects_bad_inserts() {
        let seg = holed_segment();
        let all: Vec<_> = seg.iter().collect();
        assert_eq!(all, vec![(0x1000, Inst::Nop), (0x1008, Inst::Nop)]);
        assert_eq!(seg.len(), 2);
        for (addr, what) in [
            (0x1004, "an address filled twice"),
            (0x1010, "an address past the end"),
            (0x0ffc, "an address below the base"),
            (0x1006, "a misaligned address"),
        ] {
            let result = std::panic::catch_unwind(|| {
                let mut seg = TextSegment::new(0x1000, 0x1010);
                seg.insert(0x1004, Inst::Nop);
                seg.insert(addr, Inst::Nop);
            });
            assert!(result.is_err(), "{what} must panic");
        }
    }

    #[test]
    fn writes_to_a_cloned_memory_stay_private() {
        let mut original = SparseMemory::new();
        original.write_u64(0x1000, 1);
        original.write_u64(0x5000, 5);
        let mut a = original.clone();
        let mut b = original.clone();
        a.write_u64(0x1000, 2);
        b.write_u64(0x1008, 3);
        b.write_u8(0x9000, 9);
        assert_eq!(original.read_u64(0x1000), 1);
        assert_eq!(original.read_u64(0x1008), 0);
        assert_eq!(original.read_u8(0x9000), 0);
        assert_eq!(original.populated_pages(), 2);
        assert_eq!((a.read_u64(0x1000), a.read_u64(0x1008)), (2, 0));
        assert_eq!((b.read_u64(0x1000), b.read_u64(0x1008)), (1, 3));
        assert_eq!(a.read_u8(0x9000), 0, "a sibling's new page is invisible");
        assert_eq!(b.read_u8(0x9000), 9);
        original.write_u64(0x5000, 6);
        assert_eq!((a.read_u64(0x5000), b.read_u64(0x5000)), (5, 5));
    }
}
