//! Architectural machine state: registers, sparse byte-addressed memory,
//! text image, privilege mode and address-space identity.
//!
//! The [`Machine`] holds the *committed* state of the simulated machine.
//! The pipeline maintains its own speculative view on top and only writes
//! back here at retirement, so a squash can never corrupt architectural
//! state.

use crate::isa::{Inst, Width, NUM_REGS, REG_ZERO};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
#[derive(Debug, Default)]
pub struct SparseMemory {
    pages: AddrMap<Box<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// Fresh zeroed memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
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

/// The committed architectural state.
#[derive(Debug)]
pub struct Machine {
    regs: [u64; NUM_REGS],
    /// Data memory.
    pub mem: SparseMemory,
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
    /// instruction (overlapping identical installs are permitted so that
    /// shared stubs can be loaded twice).
    pub fn load_text(&mut self, insts: impl IntoIterator<Item = (u64, Inst)>) {
        for (addr, inst) in insts {
            if let Some(prev) = self.text.insert(addr, inst) {
                assert_eq!(prev, inst, "conflicting instruction at {addr:#x}");
            }
        }
    }

    /// Fetch the instruction at `addr`, if mapped.
    pub fn inst_at(&self, addr: u64) -> Option<Inst> {
        self.text.get(&addr).copied()
    }

    /// Number of instructions in the text image.
    pub fn text_len(&self) -> usize {
        self.text.len()
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
}
