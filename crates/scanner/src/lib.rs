//! A Kasper-analog transient-execution gadget scanner with Syzkaller-lite
//! fuzzing, for the Perspective reproduction.
//!
//! Three layers, mirroring the paper's auditing pipeline (§5.4, §6.1,
//! §8.2):
//!
//! * [`taint`] — taint analysis over the *emitted kernel instructions*,
//!   detecting bounds-check-bypass gadgets and classifying their covert
//!   channel (MDS buffer / port contention / cache).
//! * [`scanner`] — kernel-wide sweeps, optionally bounded to an ISV (the
//!   search-space reduction), producing the exclusion lists that harden
//!   views into ISV++.
//! * [`fuzzer`] — a coverage-guided syscall fuzzer interleaving execution
//!   on the simulated core with analysis, reproducing the
//!   gadgets-per-hour discovery-rate experiment of Figure 9.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzzer;
pub mod scanner;
pub mod taint;

pub use fuzzer::{compare_bounded, FuzzReport, Fuzzer};
pub use scanner::{scan_bounded, scan_kernel, ScanReport};
pub use taint::{scan_function, scan_functions, Finding};
