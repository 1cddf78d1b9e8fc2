//! An out-of-order, speculative core simulator for the Perspective
//! reproduction.
//!
//! This crate stands in for gem5 (see DESIGN.md §2): it models exactly the
//! mechanisms that transient-execution attacks and defenses are defined in
//! terms of —
//!
//! * a fetch front-end driven by a TAGE-lite direction predictor, a
//!   partially-tagged BTB and a return stack buffer ([`predictor`]),
//! * wrong-path (transient) execution whose speculative loads fill the
//!   caches before being squashed ([`pipeline`]),
//! * visibility-point semantics for blocked instructions, and
//! * a pluggable [`policy::SpecPolicy`] that decides which speculative
//!   loads may issue — the pliable interface the paper builds on.
//!
//! The evaluation baselines (UNSAFE, FENCE, DOM, STT, KPTI+Retpoline) live
//! in [`policy`]; Perspective's own policy is in the `perspective` crate.
//!
//! # Example
//!
//! ```
//! use persp_uarch::isa::{Assembler, AluOp, Inst};
//! use persp_uarch::machine::Machine;
//! use persp_uarch::pipeline::Core;
//! use persp_uarch::config::CoreConfig;
//! use persp_uarch::policy::UnsafePolicy;
//! use persp_uarch::hooks::NullHooks;
//! use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
//!
//! let mut asm = Assembler::new(0x1000);
//! asm.movi(1, 40);
//! asm.alui(AluOp::Add, 2, 1, 2);
//! asm.push(Inst::Halt);
//!
//! let mut machine = Machine::new();
//! machine.load_text(asm.finish());
//! let mut core = Core::new(
//!     CoreConfig::paper_default(),
//!     machine,
//!     MemoryHierarchy::new(HierarchyConfig::paper_default()),
//!     Box::new(UnsafePolicy::new()),
//!     Box::new(NullHooks),
//! );
//! core.run(0x1000, 10_000)?;
//! assert_eq!(core.machine.reg(2), 42);
//! # Ok::<(), persp_uarch::pipeline::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod config;
pub mod hooks;
pub mod isa;
pub mod machine;
pub mod metrics;
pub mod pipeline;
pub mod policy;
pub mod predictor;
mod rob;
pub mod sni;
pub mod stats;
pub mod testkit;

pub use config::CoreConfig;
pub use machine::{Asid, Machine, Mode};
pub use metrics::{MetricsRegistry, MetricsSource};
pub use pipeline::{Core, RunSummary, SimError};
pub use policy::{BlockSource, LoadCtx, LoadDecision, PolicyCounters, SpecPolicy};
pub use sni::{RetiredInst, SniChecker, SniOracle};
pub use stats::{SimStats, SniCounters};
