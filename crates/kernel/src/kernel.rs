//! The kernel facade: builds the synthetic kernel, installs it into a
//! machine image, manages processes/cgroups, and implements the syscall
//! semantics hooks the generated code dispatches to.

use crate::body::{emit_kernel, ENTRY_STUB_VA, F_FDARRAY, F_PAGECACHE, F_SECRET};
use crate::callgraph::{CallGraph, KernelConfig};
use crate::context::{CgroupId, Pid, Process, TASK_STRUCT_BYTES};
use crate::layout::{
    self, CURRENT_TASK_PTR, LAST_ALLOC_PTR, OPS_TABLES, SYSCALL_SEQ, SYSCALL_TABLE,
};
use crate::mm::{BuddyAllocator, SlabAllocator};
use crate::sink::{AllocSink, NullSink, Owner};
use crate::syscalls::Sysno;
use persp_uarch::hooks::{HookHandler, HookResult};
use persp_uarch::machine::{Machine, SparseMemory, TextSegment};
use persp_uarch::Asid;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A shared allocation-event sink handle.
pub type SharedSink = Rc<RefCell<dyn AllocSink>>;

/// The cgroup id reserved for the kernel's own (non-shared) data; user
/// processes always get ids ≥ 1, so kernel-private data is in no process
/// DSV.
pub const KERNEL_CGROUP: CgroupId = 0;

/// A pre-built kernel image: the generated call graph, the emitted text
/// and the boot-time memory, built once and shared read-only by every
/// instance that runs this kernel.
///
/// Instances share all three instead of copying them: the graph and the
/// text segment through [`Arc`]s, the boot memory as copy-on-write pages.
/// Building the paper-scale image (~28 K functions) takes about 40 ms;
/// an instance built from it costs well under a millisecond. The
/// experiment matrix builds one image per configuration and hands cheap
/// clones to every worker thread.
#[derive(Clone)]
pub struct KernelImage {
    /// Generator configuration.
    pub cfg: KernelConfig,
    /// The synthetic call graph (post-emission: addresses assigned).
    pub graph: Arc<CallGraph>,
    /// The emitted kernel text, entry stub included.
    pub text: Arc<TextSegment>,
    /// Memory after the graph-derived boot writes: syscall table, ops
    /// tables, globals and the next-allocation pointer.
    boot_mem: Arc<SparseMemory>,
}

impl KernelImage {
    /// Generate and emit a kernel image.
    pub fn build(cfg: KernelConfig) -> Self {
        let mut graph = CallGraph::generate(cfg);
        let text = emit_kernel(&mut graph);
        let mut boot_mem = SparseMemory::new();
        // Syscall dispatch table.
        for (&sys, &fid) in &graph.entries {
            let va = graph.func(fid).entry_va;
            boot_mem.write_u64(SYSCALL_TABLE + (sys as u16 as u64) * 8, va);
        }
        // Ops (function-pointer) tables for indirect calls.
        for (slot, target) in graph.ops_table.iter().enumerate() {
            let va = graph.func(*target).entry_va;
            boot_mem.write_u64(OPS_TABLES + slot as u64 * 8, va);
        }
        // Boot-time globals (flags, gadget bounds).
        for &(va, value) in &graph.globals {
            boot_mem.write_u64(va, value);
        }
        // The next-allocation pointer starts at a harmless shared target.
        boot_mem.write_u64(LAST_ALLOC_PTR, CURRENT_TASK_PTR);
        KernelImage {
            cfg,
            graph: Arc::new(graph),
            text: Arc::new(text),
            boot_mem: Arc::new(boot_mem),
        }
    }
}

impl std::fmt::Debug for KernelImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelImage")
            .field("functions", &self.graph.len())
            .field("text_insts", &self.text.len())
            .field("boot_pages", &self.boot_mem.populated_pages())
            .finish()
    }
}

/// The mini-OS kernel.
pub struct Kernel {
    /// Generator configuration.
    pub cfg: KernelConfig,
    /// The synthetic call graph (post-emission: addresses assigned),
    /// shared read-only with every instance built from the same image.
    pub graph: Arc<CallGraph>,
    /// Physical page allocator.
    pub buddy: BuddyAllocator,
    /// Slab allocator (secure variant iff `cfg.secure_slab`).
    pub slab: SlabAllocator,
    /// Live processes by ASID.
    pub procs: HashMap<Asid, Process>,
    /// Per-syscall invocation counts (the tracing subsystem's coarse view).
    pub syscall_counts: HashMap<Sysno, u64>,
    sink: SharedSink,
    /// The image this kernel installs (its text segment and boot memory).
    image: KernelImage,
    next_pid: Pid,
    /// Next free address in the extension-program text region.
    pub(crate) next_ebpf_va: u64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("functions", &self.graph.len())
            .field("procs", &self.procs.len())
            .finish_non_exhaustive()
    }
}

impl persp_uarch::MetricsSource for Kernel {
    fn export_metrics(&self, prefix: &str, reg: &mut persp_uarch::MetricsRegistry) {
        self.buddy.export_metrics(&format!("{prefix}.buddy"), reg);
        self.slab.export_metrics(&format!("{prefix}.slab"), reg);
        reg.set(format!("{prefix}.procs"), self.procs.len() as u64);
        reg.set(
            format!("{prefix}.syscalls"),
            self.syscall_counts.values().sum(),
        );
    }
}

impl Kernel {
    /// Generate and emit a kernel. `sink` receives every ownership event
    /// (pass Perspective's DSV manager, or a [`NullSink`] for baselines).
    pub fn build(cfg: KernelConfig, sink: SharedSink) -> Self {
        Self::from_image(&KernelImage::build(cfg), sink)
    }

    /// Build a kernel from a pre-generated image, sharing its call graph,
    /// text and boot memory instead of regenerating them. This is what
    /// the parallel experiment matrix uses: one [`KernelImage::build`]
    /// per kernel configuration, one `from_image` per (scheme, workload)
    /// cell.
    pub fn from_image(image: &KernelImage, sink: SharedSink) -> Self {
        Kernel {
            buddy: BuddyAllocator::new(image.cfg.num_frames),
            slab: SlabAllocator::new(image.cfg.secure_slab),
            procs: HashMap::new(),
            syscall_counts: HashMap::new(),
            sink,
            image: image.clone(),
            next_pid: 1,
            next_ebpf_va: layout::EBPF_TEXT_BASE,
            graph: image.graph.clone(),
            cfg: image.cfg,
        }
    }

    /// Build with a discarding sink (the unprotected baseline).
    pub fn build_unprotected(cfg: KernelConfig) -> Self {
        Self::build(cfg, Rc::new(RefCell::new(NullSink)))
    }

    /// Install the kernel into a machine: attaches the shared text
    /// segment, gives the machine the image's boot memory (syscall
    /// dispatch table, ops tables, boot-time globals) as copy-on-write
    /// pages, and registers the shared-region ownership.
    ///
    /// # Panics
    ///
    /// Panics unless `machine` is fresh: no data memory written and no
    /// text loaded or attached.
    pub fn install(&self, machine: &mut Machine) {
        assert_eq!(
            machine.mem.populated_pages(),
            0,
            "the kernel installs into a fresh machine"
        );
        machine.attach_text(self.image.text.clone());
        machine.mem = SparseMemory::clone(&self.image.boot_mem);
        machine.kernel_entry = ENTRY_STUB_VA;
        // Ownership of boot-time regions: per-cpu variables and dispatch
        // tables are in every DSV; kernel-private globals belong to the
        // kernel's own context and are in *no* process DSV.
        let mut sink = self.sink.borrow_mut();
        sink.register_context(0, KERNEL_CGROUP);
        sink.assign_va_range(
            layout::KDATA_SHARED_BASE,
            layout::KDATA_KPRIV_BASE - layout::KDATA_SHARED_BASE,
            Owner::Shared,
        );
        sink.assign_va_range(
            layout::KDATA_KPRIV_BASE,
            layout::KDATA_UNKNOWN_BASE - layout::KDATA_KPRIV_BASE,
            Owner::Cgroup(KERNEL_CGROUP),
        );
        // Kernel text is shared (it is fetched, rarely loaded).
        sink.assign_va_range(layout::KTEXT_BASE, 1 << 32, Owner::Shared);
    }

    /// Create a process inside `cgroup`: allocates the task struct and its
    /// ctx-owned kernel objects from the slab, registers the user windows,
    /// and wires the task-struct fields in machine memory.
    pub fn create_process(&mut self, cgroup: CgroupId, machine: &mut Machine) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        let asid = Process::asid_of(pid);

        let sink = self.sink.clone();
        let mut s = sink.borrow_mut();
        s.register_context(asid, cgroup);
        let task_va = self
            .slab
            .kmalloc(TASK_STRUCT_BYTES as usize, cgroup, &mut self.buddy, &mut *s)
            .expect("out of kernel memory for task struct");

        // Ctx-owned objects reachable through task fields 0..=4.
        let mut ctx_objects = Vec::new();
        for field in 0..5u8 {
            let obj = self
                .slab
                .kmalloc(256, cgroup, &mut self.buddy, &mut *s)
                .expect("out of kernel memory");
            machine.mem.write_u64(task_va + u64::from(field) * 8, obj);
            machine.mem.write_u64(obj, 0x100 + u64::from(field));
            ctx_objects.push(obj);
        }
        // Long-lived per-process metadata of the transient-allocation
        // size classes (anchors the slab pages poll/epoll metadata cycles
        // through, as long-lived kernel objects do in practice).
        for anchor_size in [1024usize, 2048] {
            let obj = self
                .slab
                .kmalloc(anchor_size, cgroup, &mut self.buddy, &mut *s)
                .expect("out of kernel memory");
            ctx_objects.push(obj);
        }
        // fd array (task field 5): 128 descriptors, every third one ready.
        let fd_array = self
            .slab
            .kmalloc(1024, cgroup, &mut self.buddy, &mut *s)
            .expect("out of kernel memory");
        for i in 0..128u64 {
            machine
                .mem
                .write_u64(fd_array + i * 8, u64::from(i % 3 == 0));
        }
        machine
            .mem
            .write_u64(task_va + u64::from(F_FDARRAY) * 8, fd_array);
        // Page cache frame (task field 6).
        let pc_frame = self
            .buddy
            .alloc_for_cgroup(0, cgroup, &mut *s)
            .expect("oom");
        let pc_va = layout::frame_to_va(pc_frame);
        machine
            .mem
            .write_u64(task_va + u64::from(F_PAGECACHE) * 8, pc_va);
        // Secret object (task field 7) — the data PoCs steal.
        let secret = self
            .slab
            .kmalloc(64, cgroup, &mut self.buddy, &mut *s)
            .expect("out of kernel memory");
        machine
            .mem
            .write_u64(task_va + u64::from(F_SECRET) * 8, secret);

        // User windows are owned by the process's cgroup.
        let user_text = layout::user_text_base(pid);
        let user_data = layout::user_data_base(pid);
        s.assign_va_range(user_text, layout::USER_TEXT_STRIDE, Owner::Cgroup(cgroup));
        s.assign_va_range(user_data, layout::USER_DATA_STRIDE, Owner::Cgroup(cgroup));
        drop(s);

        ctx_objects.push(fd_array);
        ctx_objects.push(secret);
        self.procs.insert(
            asid,
            Process {
                pid,
                cgroup,
                asid,
                task_struct_va: task_va,
                user_text,
                user_data,
                user_data_top: 0,
                ctx_objects,
                open_objects: Vec::new(),
                mmaps: Vec::new(),
                page_cache_va: Some(pc_va),
            },
        );
        pid
    }

    /// Switch the current context: sets the machine ASID and repoints the
    /// per-cpu `CURRENT_TASK` pointer.
    ///
    /// # Panics
    ///
    /// Panics if `asid` has no process.
    pub fn set_current(&self, asid: Asid, machine: &mut Machine) {
        let proc = self.procs.get(&asid).expect("no such process");
        machine.asid = asid;
        machine.mem.write_u64(CURRENT_TASK_PTR, proc.task_struct_va);
    }

    /// The process table entry for `asid`.
    pub fn process(&self, asid: Asid) -> Option<&Process> {
        self.procs.get(&asid)
    }

    /// Direct-map address of the process's kernel-side secret object.
    pub fn secret_va(&self, asid: Asid) -> Option<u64> {
        let p = self.procs.get(&asid)?;
        p.ctx_objects.last().copied()
    }

    /// The shared sink handle.
    pub fn sink(&self) -> SharedSink {
        self.sink.clone()
    }

    /// Tear down a process: frees its slab objects, page-cache frame and
    /// mmap'd frames, and releases its user-window ownership. Every freed
    /// slab page that drains is a domain reassignment (§9.2).
    ///
    /// # Panics
    ///
    /// Panics if `asid` has no process.
    pub fn destroy_process(&mut self, asid: Asid) {
        let proc = self.procs.remove(&asid).expect("no such process");
        let sink = self.sink.clone();
        let mut s = sink.borrow_mut();
        for obj in proc.open_objects {
            self.slab.kfree(obj, &mut self.buddy, &mut *s);
        }
        for obj in proc.ctx_objects {
            self.slab.kfree(obj, &mut self.buddy, &mut *s);
        }
        self.slab
            .kfree(proc.task_struct_va, &mut self.buddy, &mut *s);
        if let Some(pc_va) = proc.page_cache_va {
            if let Some(frame) = layout::va_to_frame(pc_va) {
                self.buddy.free(frame, &mut *s);
            }
        }
        for (_va, frames) in proc.mmaps {
            for frame in frames {
                self.buddy.free(frame, &mut *s);
            }
        }
        s.release_va_range(proc.user_text, layout::USER_TEXT_STRIDE);
        s.release_va_range(proc.user_data, layout::USER_DATA_STRIDE);
    }

    fn handle_syscall(&mut self, sys: Sysno, machine: &mut Machine) -> HookResult {
        *self.syscall_counts.entry(sys).or_insert(0) += 1;
        let seq = machine.mem.read_u64(SYSCALL_SEQ).wrapping_add(1);
        machine.mem.write_u64(SYSCALL_SEQ, seq);
        let asid = machine.asid;
        let sink = self.sink.clone();
        let arg0 = machine.reg(10);
        match sys {
            Sysno::Mmap => {
                let pages = arg0.clamp(1, 64);
                let mut s = sink.borrow_mut();
                let cgroup = self.procs[&asid].cgroup;
                let mut frames = Vec::new();
                for _ in 0..pages {
                    if let Some(f) = self.buddy.alloc_for_cgroup(0, cgroup, &mut *s) {
                        frames.push(f);
                    }
                }
                drop(s);
                if let Some(&f) = frames.first() {
                    machine
                        .mem
                        .write_u64(LAST_ALLOC_PTR, layout::frame_to_va(f));
                }
                let proc = self.procs.get_mut(&asid).expect("current process exists");
                let va = proc.user_data + proc.user_data_top;
                proc.user_data_top += pages * layout::PAGE_SIZE;
                proc.mmaps.push((va, frames));
                machine.set_reg(1, va);
                HookResult::cost(40 + 8 * pages)
            }
            Sysno::Munmap => {
                let proc = self.procs.get_mut(&asid).expect("current process exists");
                let region = proc.mmaps.pop();
                let mut cost = 30;
                if let Some((_va, frames)) = region {
                    cost += 5 * frames.len() as u64;
                    let mut s = sink.borrow_mut();
                    for frame in frames {
                        self.buddy.free(frame, &mut *s);
                    }
                }
                machine.set_reg(1, 0);
                HookResult::cost(cost)
            }
            Sysno::Brk => {
                let cgroup = self.procs[&asid].cgroup;
                let mut s = sink.borrow_mut();
                let frame = self.buddy.alloc_for_cgroup(0, cgroup, &mut *s);
                drop(s);
                if let Some(f) = frame {
                    machine
                        .mem
                        .write_u64(LAST_ALLOC_PTR, layout::frame_to_va(f));
                }
                let proc = self.procs.get_mut(&asid).expect("current process exists");
                proc.user_data_top += layout::PAGE_SIZE;
                machine.set_reg(1, proc.user_data + proc.user_data_top);
                HookResult::cost(30)
            }
            Sysno::PageFault => {
                let cgroup = self.procs[&asid].cgroup;
                let mut s = sink.borrow_mut();
                let frame = self.buddy.alloc_for_cgroup(0, cgroup, &mut *s);
                drop(s);
                if let Some(f) = frame {
                    machine
                        .mem
                        .write_u64(LAST_ALLOC_PTR, layout::frame_to_va(f));
                }
                HookResult::cost(25)
            }
            Sysno::Fork => {
                let cgroup = self.procs[&asid].cgroup;
                // big-fork passes a copy weight in arg0.
                let extra = arg0.clamp(0, 64);
                let mut s = sink.borrow_mut();
                for _ in 0..extra {
                    let _ = self.buddy.alloc_for_cgroup(0, cgroup, &mut *s);
                }
                drop(s);
                let child = self.create_process(cgroup, machine);
                let task = self.procs[&(child as Asid)].task_struct_va;
                machine.mem.write_u64(LAST_ALLOC_PTR, task);
                machine.set_reg(1, u64::from(child));
                HookResult::cost(150 + 10 * extra)
            }
            Sysno::Clone => {
                let cgroup = self.procs[&asid].cgroup;
                let mut s = sink.borrow_mut();
                let obj =
                    self.slab
                        .kmalloc(TASK_STRUCT_BYTES as usize, cgroup, &mut self.buddy, &mut *s);
                drop(s);
                if let Some(o) = obj {
                    machine.mem.write_u64(LAST_ALLOC_PTR, o);
                }
                machine.set_reg(1, u64::from(self.next_pid));
                HookResult::cost(80)
            }
            Sysno::Poll | Sysno::Select | Sysno::EpollWait => {
                // Implicit metadata allocation (§5.2's poll() example).
                let cgroup = self.procs[&asid].cgroup;
                let bytes = (arg0 * 8).clamp(8, 2048) as usize;
                let mut s = sink.borrow_mut();
                if let Some(meta) = self.slab.kmalloc(bytes, cgroup, &mut self.buddy, &mut *s) {
                    self.slab.kfree(meta, &mut self.buddy, &mut *s);
                    drop(s);
                    machine.mem.write_u64(LAST_ALLOC_PTR, meta);
                }
                HookResult::cost(20)
            }
            Sysno::EpollCreate
            | Sysno::Socket
            | Sysno::Open
            | Sysno::Pipe
            | Sysno::Dup
            | Sysno::Accept
            | Sysno::Connect
            | Sysno::Bind
            | Sysno::Listen
            | Sysno::EpollCtl => {
                let cgroup = self.procs[&asid].cgroup;
                let mut s = sink.borrow_mut();
                if let Some(obj) = self.slab.kmalloc(128, cgroup, &mut self.buddy, &mut *s) {
                    drop(s);
                    machine.mem.write_u64(LAST_ALLOC_PTR, obj);
                    let proc = self.procs.get_mut(&asid).expect("current process exists");
                    proc.open_objects.push(obj);
                }
                machine.set_reg(1, 3);
                HookResult::cost(25)
            }
            Sysno::Close => {
                let proc = self.procs.get_mut(&asid).expect("current process exists");
                if let Some(obj) = proc.open_objects.pop() {
                    let mut s = sink.borrow_mut();
                    self.slab.kfree(obj, &mut self.buddy, &mut *s);
                }
                machine.set_reg(1, 0);
                HookResult::cost(15)
            }
            Sysno::Read
            | Sysno::Write
            | Sysno::Send
            | Sysno::Recv
            | Sysno::Sendto
            | Sysno::Recvfrom => {
                machine.set_reg(1, machine.reg(12));
                HookResult::cost(15)
            }
            Sysno::Exit => {
                machine.set_reg(1, 0);
                HookResult::cost(100)
            }
            Sysno::Execve => HookResult::cost(120),
            Sysno::Getpid | Sysno::Getuid => {
                machine.set_reg(1, u64::from(self.procs[&asid].pid));
                HookResult::cost(5)
            }
            _ => {
                machine.set_reg(1, 0);
                HookResult::cost(10)
            }
        }
    }
}

/// A cloneable, shared kernel handle implementing the core's
/// [`HookHandler`] interface.
#[derive(Clone)]
pub struct SharedKernel(pub Rc<RefCell<Kernel>>);

impl SharedKernel {
    /// Wrap a kernel for sharing between the core and the workload driver.
    pub fn new(kernel: Kernel) -> Self {
        SharedKernel(Rc::new(RefCell::new(kernel)))
    }

    /// Borrow the kernel immutably.
    pub fn borrow(&self) -> std::cell::Ref<'_, Kernel> {
        self.0.borrow()
    }

    /// Borrow the kernel mutably.
    pub fn borrow_mut(&self) -> std::cell::RefMut<'_, Kernel> {
        self.0.borrow_mut()
    }
}

impl std::fmt::Debug for SharedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedKernel({:?})", self.0.borrow())
    }
}

impl HookHandler for SharedKernel {
    fn on_hook(&mut self, id: u16, machine: &mut Machine) -> HookResult {
        let Some(sys) = Sysno::from_u16(id) else {
            return HookResult::nop();
        };
        self.0.borrow_mut().handle_syscall(sys, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TASK_FIELDS;
    use crate::sink::RecordingSink;

    fn kernel_with_recording() -> (Kernel, Rc<RefCell<RecordingSink>>) {
        let rec = Rc::new(RefCell::new(RecordingSink::default()));
        let sink: SharedSink = rec.clone();
        (Kernel::build(KernelConfig::test_small(), sink), rec)
    }

    #[test]
    fn install_populates_dispatch_table() {
        let (k, _) = kernel_with_recording();
        let mut m = Machine::new();
        k.install(&mut m);
        assert_eq!(m.kernel_entry, ENTRY_STUB_VA);
        for &sys in Sysno::ALL {
            let va = m.mem.read_u64(SYSCALL_TABLE + (sys as u16 as u64) * 8);
            let fid = k.graph.entries[&sys];
            assert_eq!(va, k.graph.func(fid).entry_va, "{sys} entry mismatch");
        }
    }

    #[test]
    fn install_registers_shared_regions() {
        let (k, rec) = kernel_with_recording();
        let mut m = Machine::new();
        k.install(&mut m);
        let sink = rec.borrow();
        assert!(sink
            .va_assigns
            .iter()
            .any(|&(va, _, o)| va == layout::KDATA_SHARED_BASE && o == Owner::Shared));
    }

    #[test]
    fn create_process_wires_task_struct() {
        let (mut k, _) = kernel_with_recording();
        let mut m = Machine::new();
        k.install(&mut m);
        let pid = k.create_process(7, &mut m);
        let asid = Process::asid_of(pid);
        let proc = k.process(asid).unwrap().clone();
        // Every task field points at a valid kernel object.
        for field in 0..TASK_FIELDS as u64 {
            let ptr = m.mem.read_u64(proc.task_struct_va + field * 8);
            assert!(
                layout::va_to_frame(ptr).is_some(),
                "field {field} -> {ptr:#x}"
            );
        }
        // fd array has the expected pattern.
        let fd_array = m
            .mem
            .read_u64(proc.task_struct_va + u64::from(F_FDARRAY) * 8);
        assert_eq!(m.mem.read_u64(fd_array), 1);
        assert_eq!(m.mem.read_u64(fd_array + 8), 0);
    }

    #[test]
    fn process_allocations_carry_cgroup_ownership() {
        let (mut k, rec) = kernel_with_recording();
        let mut m = Machine::new();
        k.install(&mut m);
        k.create_process(9, &mut m);
        let sink = rec.borrow();
        assert!(
            sink.frame_assigns
                .iter()
                .any(|&(_, _, o)| o == Owner::Cgroup(9)),
            "task-struct slab pages must be owned by cgroup 9"
        );
        assert!(sink
            .va_assigns
            .iter()
            .any(|&(va, len, o)| va == layout::user_data_base(1)
                && len == layout::USER_DATA_STRIDE
                && o == Owner::Cgroup(9)));
    }

    #[test]
    fn set_current_points_current_task() {
        let (mut k, _) = kernel_with_recording();
        let mut m = Machine::new();
        k.install(&mut m);
        let p1 = k.create_process(1, &mut m);
        let p2 = k.create_process(2, &mut m);
        k.set_current(Process::asid_of(p1), &mut m);
        let t1 = m.mem.read_u64(CURRENT_TASK_PTR);
        k.set_current(Process::asid_of(p2), &mut m);
        let t2 = m.mem.read_u64(CURRENT_TASK_PTR);
        assert_ne!(t1, t2);
        assert_eq!(m.asid, Process::asid_of(p2));
    }

    #[test]
    fn mmap_hook_allocates_and_returns_va() {
        let (k, _) = kernel_with_recording();
        let mut shared = SharedKernel::new(k);
        let mut m = Machine::new();
        shared.borrow().install(&mut m);
        let pid = shared.borrow_mut().create_process(1, &mut m);
        shared.borrow().set_current(Process::asid_of(pid), &mut m);

        let free_before = shared.borrow().buddy.free_frames();
        m.set_reg(10, 4); // 4 pages
        let r = shared.on_hook(Sysno::Mmap as u16, &mut m);
        assert!(r.extra_cycles > 0);
        let va = m.reg(1);
        assert_eq!(va, layout::user_data_base(pid));
        assert_eq!(shared.borrow().buddy.free_frames(), free_before - 4);

        // munmap releases them again.
        let r2 = shared.on_hook(Sysno::Munmap as u16, &mut m);
        assert!(r2.extra_cycles > 0);
        assert_eq!(shared.borrow().buddy.free_frames(), free_before);
    }

    #[test]
    fn fork_creates_a_child_process() {
        let (k, _) = kernel_with_recording();
        let mut shared = SharedKernel::new(k);
        let mut m = Machine::new();
        shared.borrow().install(&mut m);
        let pid = shared.borrow_mut().create_process(1, &mut m);
        shared.borrow().set_current(Process::asid_of(pid), &mut m);
        m.set_reg(10, 0);
        shared.on_hook(Sysno::Fork as u16, &mut m);
        let child = m.reg(1) as u32;
        assert_ne!(child, pid);
        assert!(shared.borrow().process(Process::asid_of(child)).is_some());
    }

    #[test]
    fn syscall_counts_accumulate() {
        let (k, _) = kernel_with_recording();
        let mut shared = SharedKernel::new(k);
        let mut m = Machine::new();
        shared.borrow().install(&mut m);
        let pid = shared.borrow_mut().create_process(1, &mut m);
        shared.borrow().set_current(Process::asid_of(pid), &mut m);
        shared.on_hook(Sysno::Getpid as u16, &mut m);
        shared.on_hook(Sysno::Getpid as u16, &mut m);
        assert_eq!(shared.borrow().syscall_counts[&Sysno::Getpid], 2);
        assert_eq!(m.reg(1), u64::from(pid), "getpid returns the pid");
    }

    #[test]
    fn destroy_process_frees_all_resources() {
        let (mut k, rec) = kernel_with_recording();
        let mut m = Machine::new();
        k.install(&mut m);
        let free0 = k.buddy.free_frames();
        let pages0 = k.slab.live_pages();
        let pid = k.create_process(3, &mut m);
        assert!(k.buddy.free_frames() < free0);
        k.destroy_process(Process::asid_of(pid));
        assert_eq!(k.buddy.free_frames(), free0, "every frame returned");
        assert_eq!(k.slab.live_pages(), pages0, "every slab page drained");
        assert!(k.process(Process::asid_of(pid)).is_none());
        let sink = rec.borrow();
        assert!(sink
            .va_releases
            .iter()
            .any(|&(va, _)| va == layout::user_data_base(pid)));
    }

    #[test]
    fn unknown_hook_is_a_nop() {
        let (k, _) = kernel_with_recording();
        let mut shared = SharedKernel::new(k);
        let mut m = Machine::new();
        assert_eq!(shared.on_hook(9999, &mut m), HookResult::nop());
    }
}
