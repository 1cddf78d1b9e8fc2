//! Workloads for the Perspective evaluation: the LEBench microbenchmark
//! suite, the four datacenter applications, the CVE study of Table 4.1,
//! and the measurement harness that runs them under every defense scheme.
//!
//! The measurement protocol mirrors the paper (Chapter 7): each workload
//! gets a warmup run — which doubles as the dynamic-ISV profiling trace —
//! followed by a measured region of interest; datacenter throughput is
//! reported as requests/second normalized to the UNSAFE baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod config;
pub mod cve_study;
pub mod differential;
pub mod lebench;
pub mod memo;
pub mod report;
pub mod runner;
pub mod sni;
pub mod spec;

pub use apps::App;
pub use config::{KernelScale, RunConfig};
pub use runner::{
    measure, measure_image_uncached, overhead, run_cells, run_matrix, run_parallel, trace_to_funcs,
    ArchInstance, CellFailure, Measurement, SimInstance,
};
pub use spec::{ArgVal, SyscallStep, Workload};
