//! µISA code generation for the synthetic kernel.
//!
//! Two passes: first compute each function's instruction count and assign
//! entry addresses; then emit instructions with all cross-references
//! (callee addresses, ops-table slots, gadget globals) resolved. The same
//! [`BodyOp`] IR drives both the emitted code and the structural analyses,
//! so the scanner and the ISV generators reason about exactly the code the
//! pipeline executes.
//!
//! Register conventions inside kernel bodies: syscall args arrive in
//! `r10..=r15`, the syscall number in `r17`; bodies use `r18..=r28` as
//! temporaries and leave the argument registers intact so nested calls and
//! gadgets can observe them.

use crate::callgraph::{BodyOp, CallGraph, GadgetKind, GadgetSite};
use crate::context::TASK_FIELDS;
use crate::layout::{
    CURRENT_TASK_PTR, EBPF_MAP_PTR, KTEXT_BASE, LAST_ALLOC_PTR, OPS_TABLES, SYSCALL_SEQ,
    SYSCALL_TABLE,
};
use persp_uarch::isa::{AluOp, Cond, Inst, Width, INST_BYTES};
use persp_uarch::machine::TextSegment;
use std::collections::HashMap;

/// Task-struct field index of the fd-array pointer.
pub const F_FDARRAY: u8 = 5;
/// Task-struct field index of the page-cache pointer.
pub const F_PAGECACHE: u8 = 6;
/// Task-struct field index of the ctx-secret pointer (used by PoCs).
pub const F_SECRET: u8 = 7;

/// VA of the kernel entry / dispatch stub.
pub const ENTRY_STUB_VA: u64 = KTEXT_BASE;
/// VA of the dispatch `CallInd` inside the stub — the canonical passive
/// attack hijack point (fourth instruction, see [`emit_entry_stub`]).
pub const DISPATCH_CALL_VA: u64 = KTEXT_BASE + 4 * INST_BYTES;
/// First function is placed here.
const FUNCS_BASE: u64 = KTEXT_BASE + 0x1000;

/// Instructions emitted for one body op. Kept in lockstep with the
/// internal emitter; an emission-time assertion enforces it.
pub fn op_len(op: &BodyOp) -> u32 {
    match op {
        BodyOp::AluBurst(n) => u32::from(*n),
        BodyOp::SharedLoad(_) => 2,
        BodyOp::CtxAccess { store, .. } => {
            if *store {
                5
            } else {
                4
            }
        }
        BodyOp::UnknownLoad(_) => 2,
        BodyOp::CallDirect(_) => 1,
        BodyOp::CallCond { .. } => 4,
        BodyOp::CallRare { .. } => 5,
        BodyOp::EbpfHook { .. } => 5,
        BodyOp::CallIndirect { .. } => 3,
        BodyOp::Gadget(site) => match site.kind {
            GadgetKind::Cache => 10,
            GadgetKind::Mds => 10,
            GadgetKind::Port => 8,
        },
        BodyOp::SecretLeak { .. } => 8,
        BodyOp::BhiGadget { .. } => 5,
        BodyOp::TouchRecentAlloc => 4,
        BodyOp::FdScanLoop => 13,
        BodyOp::CopyLoop { .. } => 13,
        BodyOp::Hook(_) => 1,
        BodyOp::Ret => 1,
    }
}

/// Total instruction count of a body.
pub fn body_len(body: &[BodyOp]) -> u32 {
    body.iter().map(op_len).sum()
}

/// Emit the kernel: assigns `entry_va`/`len_insts` on every function,
/// builds the VA → function map, records gadget sequence addresses, and returns
/// the full text image (including the entry stub) as one dense segment.
pub fn emit_kernel(graph: &mut CallGraph) -> TextSegment {
    // Pass 1: addresses.
    let mut va = FUNCS_BASE;
    let mut text_end = FUNCS_BASE;
    for f in &mut graph.funcs {
        f.entry_va = va;
        f.len_insts = body_len(&f.body);
        va += u64::from(f.len_insts) * INST_BYTES;
        text_end = va;
        va = (va + 63) & !63; // 64-byte align the next function
    }
    graph.va_map = std::sync::Arc::new(crate::callgraph::VaFuncMap::build(&graph.funcs));

    // Pass 2: emission.
    let mut text = TextSegment::new(ENTRY_STUB_VA, text_end);
    for (addr, inst) in emit_entry_stub() {
        text.insert(addr, inst);
    }
    let entry_vas: Vec<u64> = graph.funcs.iter().map(|f| f.entry_va).collect();
    let ops_table_vas: Vec<u64> = graph
        .ops_table
        .iter()
        .map(|t| entry_vas[t.0 as usize])
        .collect();

    // bound_ptr_va -> seq_va of the last gadget emitted with that pointer.
    let mut gadget_seqs: HashMap<u64, u64> = HashMap::new();
    let mut insts = Vec::new();
    for f in &graph.funcs {
        let mut pc = f.entry_va;
        for op in &f.body {
            insts.clear();
            emit_op(op, pc, &entry_vas, &ops_table_vas, &mut insts);
            debug_assert_eq!(
                insts.len() as u32,
                op_len(op),
                "op_len out of sync for {op:?}"
            );
            if let BodyOp::Gadget(site) = op {
                gadget_seqs.insert(site.bound_ptr_va, pc);
            }
            for &inst in &insts {
                text.insert(pc, inst);
                pc += INST_BYTES;
            }
        }
        debug_assert_eq!(pc - f.entry_va, u64::from(f.len_insts) * INST_BYTES);
    }

    // Back-patch gadget sequence addresses into the graph metadata: every
    // site sharing a bound pointer gets that pointer's last sequence.
    let patch = |site: &mut GadgetSite| {
        if let Some(&seq_va) = gadget_seqs.get(&site.bound_ptr_va) {
            site.seq_va = seq_va;
        }
    };
    graph.gadgets.iter_mut().for_each(|(_, site)| patch(site));
    for f in &mut graph.funcs {
        for op in &mut f.body {
            if let BodyOp::Gadget(site) = op {
                patch(site);
            }
        }
    }
    text
}

/// The kernel entry stub: dispatch through the in-memory syscall table via
/// an indirect call, then return to userspace. The `CallInd` is a real
/// BTB-predicted indirect branch — the hijack point passive attacks abuse.
pub fn emit_entry_stub() -> Vec<(u64, Inst)> {
    let mut pc = ENTRY_STUB_VA;
    let mut out = Vec::new();
    let mut push = |inst: Inst, pc: &mut u64| {
        out.push((*pc, inst));
        *pc += INST_BYTES;
    };
    push(
        Inst::MovImm {
            dst: 20,
            imm: SYSCALL_TABLE,
        },
        &mut pc,
    );
    push(
        Inst::AluImm {
            op: AluOp::Shl,
            dst: 21,
            a: 17,
            imm: 3,
        },
        &mut pc,
    );
    push(
        Inst::Alu {
            op: AluOp::Add,
            dst: 22,
            a: 20,
            b: 21,
        },
        &mut pc,
    );
    push(
        Inst::Load {
            dst: 23,
            base: 22,
            offset: 0,
            width: Width::Q,
        },
        &mut pc,
    );
    debug_assert_eq!(pc, DISPATCH_CALL_VA);
    push(Inst::CallInd { base: 23 }, &mut pc);
    push(Inst::Sysret, &mut pc);
    out
}

fn emit_op(op: &BodyOp, pc: u64, entry_vas: &[u64], ops_table_vas: &[u64], out: &mut Vec<Inst>) {
    match op {
        BodyOp::AluBurst(n) => {
            for k in 0..*n {
                out.push(Inst::AluImm {
                    op: AluOp::Add,
                    dst: 18,
                    a: 18,
                    imm: u64::from(k) + 1,
                });
            }
        }
        BodyOp::SharedLoad(addr) => {
            out.push(Inst::MovImm {
                dst: 19,
                imm: *addr,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
        }
        BodyOp::CtxAccess { field, store } => {
            assert!((*field as usize) < TASK_FIELDS);
            out.push(Inst::MovImm {
                dst: 19,
                imm: CURRENT_TASK_PTR,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 21,
                base: 20,
                offset: i64::from(*field) * 8,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 22,
                base: 21,
                offset: 0,
                width: Width::Q,
            });
            if *store {
                out.push(Inst::Store {
                    src: 22,
                    base: 21,
                    offset: 8,
                    width: Width::Q,
                });
            }
        }
        BodyOp::UnknownLoad(addr) => {
            out.push(Inst::MovImm {
                dst: 19,
                imm: *addr,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
        }
        BodyOp::CallDirect(callee) => {
            out.push(Inst::Call {
                target: entry_vas[callee.0 as usize],
            });
        }
        BodyOp::CallCond {
            callee, flag_addr, ..
        } => {
            let skip = pc + 4 * INST_BYTES;
            out.push(Inst::MovImm {
                dst: 19,
                imm: *flag_addr,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Branch {
                cond: Cond::Eq,
                a: 20,
                b: 0,
                target: skip,
            });
            out.push(Inst::Call {
                target: entry_vas[callee.0 as usize],
            });
        }
        BodyOp::CallRare { callee, mask } => {
            let skip = pc + 5 * INST_BYTES;
            out.push(Inst::MovImm {
                dst: 19,
                imm: SYSCALL_SEQ,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::AluImm {
                op: AluOp::And,
                dst: 21,
                a: 20,
                imm: *mask,
            });
            out.push(Inst::Branch {
                cond: Cond::Ne,
                a: 21,
                b: 0,
                target: skip,
            });
            out.push(Inst::Call {
                target: entry_vas[callee.0 as usize],
            });
        }
        BodyOp::EbpfHook { slot } => {
            // r13 = *EBPF_MAP_PTR; dispatch through the reserved slot.
            out.push(Inst::MovImm {
                dst: 19,
                imm: EBPF_MAP_PTR,
            });
            out.push(Inst::Load {
                dst: crate::ebpf::EBPF_MAP_REG,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::MovImm {
                dst: 19,
                imm: OPS_TABLES + u64::from(*slot) * 8,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::CallInd { base: 20 });
        }
        BodyOp::CallIndirect { slot } => {
            let _ = ops_table_vas; // targets resolved at runtime via memory
            out.push(Inst::MovImm {
                dst: 19,
                imm: OPS_TABLES + u64::from(*slot) * 8,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::CallInd { base: 20 });
        }
        BodyOp::Gadget(site) => {
            // Bounds check behind double indirection (widens the window,
            // like real CVE gadgets where the length sits in an object
            // graph): r10 is the attacker-influenced syscall argument.
            let len = op_len(op) as u64;
            let skip = pc + len * INST_BYTES;
            out.push(Inst::MovImm {
                dst: 19,
                imm: site.bound_ptr_va,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 21,
                base: 20,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Branch {
                cond: Cond::Geu,
                a: 10,
                b: 21,
                target: skip,
            });
            // ACCESS: array[idx] — out-of-bounds reaches arbitrary kernel
            // memory through the monolithic address space.
            out.push(Inst::MovImm {
                dst: 22,
                imm: site.array_base_va,
            });
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: 23,
                a: 22,
                b: 10,
            });
            out.push(Inst::Load {
                dst: 24,
                base: 23,
                offset: 0,
                width: Width::B,
            });
            match site.kind {
                GadgetKind::Cache => {
                    // TRANSMIT via a secret-dependent line of the
                    // *user-supplied* buffer in r11 — the classic
                    // `array2[s * 4096]` pattern with `array2` pointing at
                    // attacker-readable memory.
                    out.push(Inst::AluImm {
                        op: AluOp::Shl,
                        dst: 25,
                        a: 24,
                        imm: 12,
                    });
                    out.push(Inst::Alu {
                        op: AluOp::Add,
                        dst: 27,
                        a: 11,
                        b: 25,
                    });
                    out.push(Inst::Load {
                        dst: 28,
                        base: 27,
                        offset: 0,
                        width: Width::B,
                    });
                }
                GadgetKind::Mds => {
                    // TRANSMIT via a store of secret data (fill-buffer
                    // style leak).
                    out.push(Inst::AluImm {
                        op: AluOp::Shl,
                        dst: 25,
                        a: 24,
                        imm: 2,
                    });
                    out.push(Inst::MovImm {
                        dst: 26,
                        imm: site.kprobe_base_va,
                    });
                    out.push(Inst::Store {
                        src: 25,
                        base: 26,
                        offset: 0,
                        width: Width::Q,
                    });
                }
                GadgetKind::Port => {
                    // TRANSMIT via secret-dependent execution latency.
                    out.push(Inst::Alu {
                        op: AluOp::Mul,
                        dst: 25,
                        a: 24,
                        b: 24,
                    });
                }
            }
            debug_assert_eq!(out.len() as u64, len);
        }
        BodyOp::BhiGadget { kprobe_base_va } => {
            // Dereference the attacker-influenced argument register and
            // transmit the byte — a speculative type confusion when the
            // dispatch is hijacked here with a pointer in r10.
            out.push(Inst::Load {
                dst: 22,
                base: 10,
                offset: 0,
                width: Width::B,
            });
            out.push(Inst::AluImm {
                op: AluOp::Shl,
                dst: 23,
                a: 22,
                imm: 12,
            });
            out.push(Inst::MovImm {
                dst: 24,
                imm: *kprobe_base_va,
            });
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: 25,
                a: 24,
                b: 23,
            });
            out.push(Inst::Load {
                dst: 26,
                base: 25,
                offset: 0,
                width: Width::B,
            });
        }
        BodyOp::SecretLeak { kprobe_base_va } => {
            // CURRENT -> task.secret_ptr -> secret byte, transmitted via a
            // secret-dependent kernel probe line. All three loads are
            // cache-warm during an attack (the victim was just using its
            // secret), so the sequence fits inside a hijack window.
            out.push(Inst::MovImm {
                dst: 19,
                imm: CURRENT_TASK_PTR,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 21,
                base: 20,
                offset: i64::from(F_SECRET) * 8,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 22,
                base: 21,
                offset: 0,
                width: Width::B,
            });
            out.push(Inst::AluImm {
                op: AluOp::Shl,
                dst: 23,
                a: 22,
                imm: 12,
            });
            out.push(Inst::MovImm {
                dst: 24,
                imm: *kprobe_base_va,
            });
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: 25,
                a: 24,
                b: 23,
            });
            out.push(Inst::Load {
                dst: 26,
                base: 25,
                offset: 0,
                width: Width::B,
            });
        }
        BodyOp::FdScanLoop => {
            // acc = 0; for (i = 0; i < r10; i++) if (fd[i & 127]) acc++;
            // The per-iteration data-dependent branch after a load is what
            // makes select/poll/epoll FENCE's worst case (§9.1).
            out.push(Inst::MovImm {
                dst: 19,
                imm: CURRENT_TASK_PTR,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 21,
                base: 20,
                offset: i64::from(F_FDARRAY) * 8,
                width: Width::Q,
            });
            out.push(Inst::MovImm { dst: 22, imm: 0 }); // i
            out.push(Inst::MovImm { dst: 25, imm: 0 }); // acc
            let loop_top = pc + 5 * INST_BYTES;
            out.push(Inst::AluImm {
                op: AluOp::And,
                dst: 23,
                a: 22,
                imm: 127,
            });
            out.push(Inst::AluImm {
                op: AluOp::Shl,
                dst: 23,
                a: 23,
                imm: 3,
            });
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: 24,
                a: 21,
                b: 23,
            });
            out.push(Inst::Load {
                dst: 26,
                base: 24,
                offset: 0,
                width: Width::Q,
            });
            let skip_inc = loop_top + 6 * INST_BYTES;
            out.push(Inst::Branch {
                cond: Cond::Eq,
                a: 26,
                b: 0,
                target: skip_inc,
            });
            out.push(Inst::AluImm {
                op: AluOp::Add,
                dst: 25,
                a: 25,
                imm: 1,
            });
            out.push(Inst::AluImm {
                op: AluOp::Add,
                dst: 22,
                a: 22,
                imm: 1,
            });
            out.push(Inst::Branch {
                cond: Cond::Ltu,
                a: 22,
                b: 10,
                target: loop_top,
            });
        }
        BodyOp::CopyLoop { to_user } => {
            // for (i = 0; i < r12; i++) copy word between page cache and
            // the user buffer (r11).
            out.push(Inst::MovImm {
                dst: 19,
                imm: CURRENT_TASK_PTR,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 21,
                base: 20,
                offset: i64::from(F_PAGECACHE) * 8,
                width: Width::Q,
            });
            out.push(Inst::MovImm { dst: 22, imm: 0 }); // i
            let loop_top = pc + 4 * INST_BYTES;
            out.push(Inst::AluImm {
                op: AluOp::And,
                dst: 23,
                a: 22,
                imm: 511,
            });
            out.push(Inst::AluImm {
                op: AluOp::Shl,
                dst: 23,
                a: 23,
                imm: 3,
            });
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: 24,
                a: 21,
                b: 23,
            }); // kernel side
            out.push(Inst::AluImm {
                op: AluOp::Shl,
                dst: 28,
                a: 22,
                imm: 3,
            });
            out.push(Inst::Alu {
                op: AluOp::Add,
                dst: 27,
                a: 11,
                b: 28,
            }); // user side
            if *to_user {
                out.push(Inst::Load {
                    dst: 26,
                    base: 24,
                    offset: 0,
                    width: Width::Q,
                });
                out.push(Inst::Store {
                    src: 26,
                    base: 27,
                    offset: 0,
                    width: Width::Q,
                });
            } else {
                out.push(Inst::Load {
                    dst: 26,
                    base: 27,
                    offset: 0,
                    width: Width::Q,
                });
                out.push(Inst::Store {
                    src: 26,
                    base: 24,
                    offset: 0,
                    width: Width::Q,
                });
            }
            out.push(Inst::AluImm {
                op: AluOp::Add,
                dst: 22,
                a: 22,
                imm: 1,
            });
            out.push(Inst::Branch {
                cond: Cond::Ltu,
                a: 22,
                b: 12,
                target: loop_top,
            });
        }
        BodyOp::TouchRecentAlloc => {
            out.push(Inst::MovImm {
                dst: 19,
                imm: LAST_ALLOC_PTR,
            });
            out.push(Inst::Load {
                dst: 20,
                base: 19,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Load {
                dst: 21,
                base: 20,
                offset: 0,
                width: Width::Q,
            });
            out.push(Inst::Store {
                src: 21,
                base: 20,
                offset: 8,
                width: Width::Q,
            });
        }
        BodyOp::Hook(id) => out.push(Inst::KHook { id: *id }),
        BodyOp::Ret => out.push(Inst::Ret),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, KernelConfig};
    use std::collections::HashSet;

    #[test]
    fn emission_is_consistent_with_lengths() {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        let text = emit_kernel(&mut g);
        let total: u64 = g.funcs.iter().map(|f| u64::from(f.len_insts)).sum();
        // Stub adds 6 instructions.
        assert_eq!(text.len() as u64, total + 6);
    }

    #[test]
    fn no_overlapping_addresses() {
        // The segment panics on a second insert at one address; here every
        // slot of each function's range must be filled.
        let mut g = CallGraph::generate(KernelConfig::test_small());
        let text = emit_kernel(&mut g);
        let mut seen = HashSet::new();
        for (addr, _) in text.iter() {
            assert!(seen.insert(addr), "address {addr:#x} listed twice");
        }
        for f in &g.funcs {
            let end = f.entry_va + u64::from(f.len_insts) * INST_BYTES;
            assert!((f.entry_va..end)
                .step_by(INST_BYTES as usize)
                .all(|a| text.get(a).is_some()));
        }
    }

    #[test]
    fn functions_are_aligned_and_ordered() {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let mut prev_end = 0;
        for f in &g.funcs {
            assert_eq!(f.entry_va % 64, 0, "{} misaligned", f.name);
            assert!(f.entry_va >= prev_end);
            prev_end = f.entry_va + u64::from(f.len_insts) * INST_BYTES;
        }
    }

    #[test]
    fn va_lookup_finds_interior_addresses() {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        let f = &g.funcs[10];
        assert_eq!(g.func_of_va(f.entry_va), Some(f.id));
        assert_eq!(g.func_of_va(f.entry_va + 4), Some(f.id));
        assert_eq!(g.func_of_va(0), None);
    }

    #[test]
    fn gadget_seq_vas_are_backpatched() {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        for (host, site) in &g.gadgets {
            assert_ne!(
                site.seq_va,
                0,
                "gadget in {} missing seq_va",
                g.func(*host).name
            );
            assert_eq!(g.func_of_va(site.seq_va), Some(*host));
        }
    }

    #[test]
    fn entry_stub_shape() {
        let stub = emit_entry_stub();
        assert_eq!(stub.len(), 6);
        assert_eq!(stub[0].0, ENTRY_STUB_VA);
        assert!(matches!(stub[4].1, persp_uarch::isa::Inst::CallInd { .. }));
        assert_eq!(stub[4].0, DISPATCH_CALL_VA);
        assert!(matches!(stub[5].1, persp_uarch::isa::Inst::Sysret));
    }
}
