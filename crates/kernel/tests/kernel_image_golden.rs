//! Golden pins for the kernel image: the emitted text, the gadget
//! sequence addresses back-patched into the graph, and the boot-time
//! memory an installed kernel leaves in a machine.
//!
//! Every experiment's numbers rest on these three: the pipeline executes
//! the text, the attack PoCs and the scanner target the gadget sequence
//! addresses, and the generated code reads the boot-written syscall
//! table, ops tables and globals. A change to how the image is built or
//! installed must leave all three byte-identical, at both kernel scales.
//!
//! Each digest is FNV-1a (the cell cache's hash) over a canonical byte
//! stream, so a pin is one number per (scale, part).

use persp_kernel::body::{emit_kernel, op_len};
use persp_kernel::callgraph::{BodyOp, CallGraph, GadgetSite, KernelConfig};
use persp_kernel::kernel::{Kernel, KernelImage};
use persp_kernel::layout::{LAST_ALLOC_PTR, OPS_TABLES, SYSCALL_TABLE};
use persp_kernel::sink::NullSink;
use persp_uarch::isa::INST_BYTES;
use persp_uarch::machine::Machine;
use std::cell::RefCell;
use std::rc::Rc;

/// Streaming FNV-1a, 64-bit (same constants as `memo::fnv1a64`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `(count, digest)` per pinned part of one image.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    text: (usize, u64),
    graph_gadgets: (usize, u64),
    body_gadgets: (usize, u64),
    boot_memory: (usize, u64),
}

fn pins(cfg: KernelConfig) -> Pins {
    let image = KernelImage::build(cfg);
    let graph = &image.graph;

    // Text: every (addr, inst) in address order.
    let mut text: Vec<_> = image.text.iter().collect();
    text.sort_by_key(|&(addr, _)| addr);
    let mut h = Fnv::new();
    for (addr, inst) in &text {
        h.u64(*addr);
        h.bytes(format!("{inst:?}").as_bytes());
    }
    let text = (text.len(), h.0);

    // Gadget sites: the graph's list, then every body op, in graph order.
    let mut h = Fnv::new();
    for (_, site) in &graph.gadgets {
        h.u64(site.bound_ptr_va);
        h.u64(site.seq_va);
    }
    let graph_gadgets = (graph.gadgets.len(), h.0);
    let mut h = Fnv::new();
    let mut n = 0;
    for f in &graph.funcs {
        for op in &f.body {
            if let BodyOp::Gadget(site) = op {
                h.u64(site.bound_ptr_va);
                h.u64(site.seq_va);
                n += 1;
            }
        }
    }
    let body_gadgets = (n, h.0);

    // Boot memory: the u64 at every address `install` writes, read back
    // from an installed machine.
    let kernel = Kernel::from_image(&image, Rc::new(RefCell::new(NullSink)));
    let mut machine = Machine::new();
    kernel.install(&mut machine);
    let mut entries: Vec<_> = graph.entries.keys().map(|&sys| sys as u16).collect();
    entries.sort_unstable();
    let mut addrs: Vec<u64> = entries
        .into_iter()
        .map(|sys| SYSCALL_TABLE + u64::from(sys) * 8)
        .collect();
    addrs.extend((0..graph.ops_table.len() as u64).map(|slot| OPS_TABLES + slot * 8));
    addrs.extend(graph.globals.iter().map(|&(va, _)| va));
    addrs.push(LAST_ALLOC_PTR);
    let mut h = Fnv::new();
    for &va in &addrs {
        h.u64(va);
        h.u64(machine.mem.read_u64(va));
    }
    h.u64(machine.mem.populated_pages() as u64);
    let boot_memory = (addrs.len(), h.0);

    Pins {
        text,
        graph_gadgets,
        body_gadgets,
        boot_memory,
    }
}

#[test]
fn small_kernel_image_matches_the_golden() {
    assert_eq!(
        pins(KernelConfig::test_small()),
        Pins {
            text: (16517, 0xd448ed7365eb16d8),
            graph_gadgets: (90, 0x0f40b29ec5cc4827),
            body_gadgets: (90, 0x9dbbd117e993e2cb),
            boot_memory: (3004, 0x3d0888362888d427),
        }
    );
}

#[test]
fn paper_kernel_image_matches_the_golden() {
    assert_eq!(
        pins(KernelConfig::paper()),
        Pins {
            text: (278709, 0xce5781f3372d3b56),
            graph_gadgets: (1533, 0xb6c75e16c5783d81),
            body_gadgets: (1533, 0x8a71e94527a6ce01),
            boot_memory: (51183, 0xe918d5d33ca49388),
        }
    );
}

/// The generated kernels give every gadget its own bound pointer, so the
/// pins above cannot tell which of several sites sharing one wins the
/// back-patch. Here the first four gadgets are pointed at one bound
/// pointer: every site holding it must get the sequence address of the
/// last one emitted (the highest address, as functions are emitted in
/// address order).
#[test]
fn sites_sharing_a_bound_pointer_take_the_last_emitted_sequence() {
    let mut graph = CallGraph::generate(KernelConfig::test_small());
    let shared: Vec<u64> = graph.gadgets[..4]
        .iter()
        .map(|(_, site)| site.bound_ptr_va)
        .collect();
    let retarget = |site: &mut GadgetSite| {
        if shared.contains(&site.bound_ptr_va) {
            site.bound_ptr_va = shared[0];
        }
    };
    graph
        .gadgets
        .iter_mut()
        .for_each(|(_, site)| retarget(site));
    for f in &mut graph.funcs {
        for op in &mut f.body {
            if let BodyOp::Gadget(site) = op {
                retarget(site);
            }
        }
    }
    emit_kernel(&mut graph);

    let mut starts = Vec::new();
    let mut h = Fnv::new();
    for f in &graph.funcs {
        let mut pc = f.entry_va;
        for op in &f.body {
            if let BodyOp::Gadget(site) = op {
                if site.bound_ptr_va == shared[0] {
                    starts.push(pc);
                }
                h.u64(site.bound_ptr_va);
                h.u64(site.seq_va);
            }
            pc += u64::from(op_len(op)) * INST_BYTES;
        }
    }
    assert_eq!(starts.len(), 4);
    let last = *starts.iter().max().expect("four sites");
    for (_, site) in &graph.gadgets {
        h.u64(site.bound_ptr_va);
        h.u64(site.seq_va);
        if site.bound_ptr_va == shared[0] {
            assert_eq!(site.seq_va, last, "the last emitted sequence wins");
        }
    }
    assert_eq!(h.0, 0x009c_0a8d_7079_d459);
}
