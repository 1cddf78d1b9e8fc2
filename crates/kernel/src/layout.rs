//! The simulated virtual address space layout.
//!
//! The mini-OS mirrors the monolithic Linux layout the paper targets: one
//! flat address space with kernel text, shared kernel globals, a *direct
//! map* of every physical frame (the region that makes kernel gadgets so
//! dangerous — §2.3), and low userspace ranges. There is no translation in
//! the simulator; disjoint ranges play the role of distinct mappings.

/// Page size (bytes).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;

/// Base of kernel text (synthetic kernel functions + syscall stubs).
pub const KTEXT_BASE: u64 = 0xFFFF_8000_0000_0000;
/// Base of shared kernel globals: the syscall dispatch table, function
/// pointer (ops) tables, per-cpu variables such as `CURRENT_TASK`.
/// These are *Shared*-ownership data: every DSV contains them.
pub const KDATA_SHARED_BASE: u64 = 0xFFFF_8400_0000_0000;
/// Base of kernel-*private* globals: data the kernel owns itself
/// (scheduler run-queues, inode hashes). A process's kernel thread reads
/// them architecturally, but they are in no process DSV, so speculative
/// access is fenced — the benign false positives §9.2 attributes to DSVs.
pub const KDATA_KPRIV_BASE: u64 = 0xFFFF_8500_0000_0000;
/// Base of kernel globals with *Unknown* ownership (§6.1 "Resolving
/// Unknown Allocations"): not registered with any DSV, so Perspective
/// conservatively blocks speculative access.
pub const KDATA_UNKNOWN_BASE: u64 = 0xFFFF_8600_0000_0000;
/// Base of the direct map: physical frame `f` is visible at
/// `DIRECT_MAP_BASE + f * PAGE_SIZE`.
pub const DIRECT_MAP_BASE: u64 = 0xFFFF_9000_0000_0000;
/// First address above every kernel region (exclusive bound).
pub const KERNEL_SPACE_END: u64 = 0xFFFF_A000_0000_0000;

/// Address of the per-cpu `CURRENT_TASK` pointer (shared kernel data).
pub const CURRENT_TASK_PTR: u64 = KDATA_SHARED_BASE;
/// Address of the shared global holding the most recent allocation's
/// direct-map address (what allocation-heavy syscall paths touch next).
pub const LAST_ALLOC_PTR: u64 = KDATA_SHARED_BASE + 8;
/// Address of the global syscall sequence counter (incremented by every
/// syscall's semantics hook); gates rarely-taken kernel paths.
pub const SYSCALL_SEQ: u64 = KDATA_SHARED_BASE + 16;
/// Address of the shared global holding the current eBPF map pointer
/// (set by the extension loader; read by the ioctl hook prologue).
pub const EBPF_MAP_PTR: u64 = KDATA_SHARED_BASE + 24;
/// Text region where verified extension programs are installed.
pub const EBPF_TEXT_BASE: u64 = KTEXT_BASE + 0x0100_0000_0000;
/// Address of the syscall dispatch table (shared kernel rodata); entry `n`
/// is at `SYSCALL_TABLE + n * 8`.
pub const SYSCALL_TABLE: u64 = KDATA_SHARED_BASE + 0x1000;
/// Address of the kernel ops (function pointer) tables used by indirect
/// calls; laid out by the code generator.
pub const OPS_TABLES: u64 = KDATA_SHARED_BASE + 0x4000;
/// Scratch region for miscellaneous shared globals used by generated
/// function bodies.
pub const SHARED_GLOBALS: u64 = KDATA_SHARED_BASE + 0x0100_0000;

/// Base of userspace text; process `pid` gets a 16 MiB text window.
pub const USER_TEXT_BASE: u64 = 0x0000_0000_4000_0000;
/// Base of userspace data; process `pid` gets a 256 MiB data window.
pub const USER_DATA_BASE: u64 = 0x0000_0010_0000_0000;
/// Per-process text window size.
pub const USER_TEXT_STRIDE: u64 = 16 * 1024 * 1024;
/// Per-process data window size.
pub const USER_DATA_STRIDE: u64 = 256 * 1024 * 1024;

/// Direct-map virtual address of a physical frame.
pub fn frame_to_va(frame: u64) -> u64 {
    DIRECT_MAP_BASE + frame * PAGE_SIZE
}

/// Physical frame of a direct-map virtual address, if it is one.
pub fn va_to_frame(va: u64) -> Option<u64> {
    if (DIRECT_MAP_BASE..KERNEL_SPACE_END).contains(&va) {
        Some((va - DIRECT_MAP_BASE) >> PAGE_SHIFT)
    } else {
        None
    }
}

/// Userspace text base of process `pid`.
pub fn user_text_base(pid: u32) -> u64 {
    USER_TEXT_BASE + u64::from(pid) * USER_TEXT_STRIDE
}

/// Userspace data base of process `pid`.
pub fn user_data_base(pid: u32) -> u64 {
    USER_DATA_BASE + u64::from(pid) * USER_DATA_STRIDE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_map_round_trip() {
        assert_eq!(va_to_frame(frame_to_va(42)), Some(42));
        assert_eq!(va_to_frame(0x1000), None);
        assert_eq!(va_to_frame(KTEXT_BASE), None);
    }

    #[test]
    fn kernel_classification() {
        // Kernel space (text, globals, direct map) starts at KTEXT_BASE.
        assert!(frame_to_va(7) >= KTEXT_BASE);
        assert!(user_text_base(3) < KTEXT_BASE);
    }

    #[test]
    fn user_windows_are_disjoint() {
        assert!(user_text_base(0) + USER_TEXT_STRIDE <= user_text_base(1));
        assert!(user_data_base(0) + USER_DATA_STRIDE <= user_data_base(1));
        assert!(
            user_text_base(1000) < USER_DATA_BASE,
            "text never collides with data"
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents layout invariants
    fn shared_regions_are_ordered() {
        assert!(CURRENT_TASK_PTR < LAST_ALLOC_PTR);
        assert!(LAST_ALLOC_PTR < SYSCALL_TABLE);
        assert!(SYSCALL_TABLE < OPS_TABLES);
        assert!(OPS_TABLES < SHARED_GLOBALS);
        assert!(SHARED_GLOBALS < KDATA_KPRIV_BASE);
        assert!(KDATA_KPRIV_BASE < KDATA_UNKNOWN_BASE);
    }
}
