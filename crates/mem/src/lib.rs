//! Memory-hierarchy models for the Perspective reproduction.
//!
//! This crate provides the microarchitectural memory substrate that the
//! out-of-order core in `persp-uarch` drives:
//!
//! * [`cache`] — parameterized set-associative caches with LRU replacement,
//!   non-allocating probes (needed by the Delay-on-Miss baseline) and
//!   deferred LRU updates (needed by Perspective's visibility-point
//!   semantics).
//! * [`hierarchy`] — a two-level private L1I/L1D + shared L2 + DRAM model
//!   matching Table 7.1 of the paper.
//! * [`tlb`] — an ASID-tagged TLB used by the ISV/DSVMT refill paths.
//! * [`setassoc`] — the flat set-associative array behind the caches, the
//!   TLB and Perspective's metadata caches, with their one LRU victim rule.
//! * [`sram`] — a CACTI-inspired analytical SRAM model used to regenerate
//!   Table 9.1 (area / access time / energy / leakage at 22 nm).
//! * [`covert`] — covert-channel helpers: the flush+reload probe stride
//!   and prime+probe eviction sets.
//!
//! # Example
//!
//! ```
//! use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_default());
//! let cold = mem.read(0x4000);          // miss all the way to DRAM
//! let warm = mem.read(0x4000);          // now hits in L1D
//! assert!(warm < cold);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod covert;
pub mod hierarchy;
pub mod setassoc;
pub mod sram;
pub mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{HierarchyConfig, MemoryHierarchy};
pub use sram::{SramCharacterization, SramConfig};
pub use tlb::{Tlb, TlbConfig};
