//! The experiments `run_all` regenerates, one module each. Every
//! experiment is a function of the run configuration and the process's
//! kernel images that returns its `--json` document or its transcript
//! ([`Output`]); a failed cell comes back as `Err`. Each also has its
//! own binary, a thin `main` over [`run_bin`](crate::run_bin).

use crate::{Images, Output};
use persp_workloads::RunConfig;

pub mod ablation;
pub mod cache_sweep;
pub mod fig_9_1;
pub mod fig_9_2;
pub mod fig_9_3;
pub mod per_syscall_views;
pub mod security_poc;
pub mod sensitivity;
pub mod table_10_1;
pub mod table_4_1;
pub mod table_7_1;
pub mod table_8_1;
pub mod table_8_2;
pub mod table_9_1;

/// An experiment: its output under a run configuration, with kernel
/// images from the caller's slot.
pub type Experiment = fn(&RunConfig, &Images) -> Result<Output, String>;

/// Every experiment `run_all` runs, by binary name, in transcript order.
/// `fig_9_2` and `fig_9_3` run the five main schemes (no `--all`).
pub const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("table_4_1", table_4_1::run),
    ("table_7_1", table_7_1::run),
    ("table_8_1", table_8_1::run),
    ("table_8_2", table_8_2::run),
    ("security_poc", security_poc::run),
    ("fig_9_1", fig_9_1::run),
    ("fig_9_2", |cfg, images| fig_9_2::run(cfg, images, false)),
    ("fig_9_3", |cfg, images| fig_9_3::run(cfg, images, false)),
    ("table_9_1", table_9_1::run),
    ("table_10_1", table_10_1::run),
    ("sensitivity", sensitivity::run),
    ("ablation", ablation::run),
    ("per_syscall_views", per_syscall_views::run),
    ("cache_sweep", cache_sweep::run),
];
