//! A miniature monolithic OS kernel for the Perspective reproduction.
//!
//! This crate stands in for the modified Linux v5.4 kernel of the paper
//! (see DESIGN.md §2). It provides:
//!
//! * a **synthetic kernel call graph** at Linux scale (~28 K functions)
//!   whose syscall footprints, conditional/indirect call edges and planted
//!   transient-execution gadgets reproduce the shapes the paper's
//!   attack-surface and auditing experiments measure ([`callgraph`]);
//! * µISA **code generation** so the very same graph is what the pipeline
//!   executes ([`body`]);
//! * the **memory-management substrate** Perspective instruments: a buddy
//!   page allocator and both the packing baseline slab and Perspective's
//!   secure slab allocator ([`mm`]);
//! * **processes and cgroups**, a syscall table, and the kernel semantics
//!   hooks dispatched from generated code ([`kernel`], [`syscalls`],
//!   [`context`]);
//! * the **allocation-ownership event stream** ([`sink`]) that
//!   Perspective's DSV manager consumes.
//!
//! # Example
//!
//! ```
//! use persp_kernel::callgraph::KernelConfig;
//! use persp_kernel::kernel::Kernel;
//! use persp_uarch::machine::Machine;
//!
//! let mut kernel = Kernel::build_unprotected(KernelConfig::test_small());
//! let mut machine = Machine::new();
//! kernel.install(&mut machine);
//! let pid = kernel.create_process(/* cgroup */ 1, &mut machine);
//! kernel.set_current(pid as u16, &mut machine);
//! assert!(machine.text_len() > 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod body;
pub mod callgraph;
pub mod context;
pub mod ebpf;
pub mod kernel;
pub mod layout;
pub mod mm;
pub mod sink;
pub mod syscalls;

pub use callgraph::{CallGraph, FuncId, FuncSet, GadgetKind, GadgetSite, KernelConfig};
pub use context::{CgroupId, Pid, Process};
pub use kernel::{Kernel, KernelImage, SharedKernel};
pub use sink::{AllocSink, NullSink, Owner};
pub use syscalls::{Sysno, NUM_SYSCALLS};
