//! The run configuration of the experiment binaries: every
//! `PERSPECTIVE_*` environment variable and the `--json` flag, parsed in
//! one place. DESIGN.md §6b tables them.
//!
//! [`RunConfig::from_process`] is the only reader of the process
//! environment; the measurement protocol, the cell cache and the report
//! envelope take the values they need as arguments.
//! [`RunConfig::parse`] is the same parser over an explicit lookup, so
//! tests never mutate the environment.

use crate::memo::{CacheConfig, CacheMode, DEFAULT_DIR};
use persp_kernel::callgraph::KernelConfig;
use persp_uarch::config::CoreConfig;
use std::path::PathBuf;

/// The kernel an experiment runs against (`PERSPECTIVE_KERNEL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelScale {
    /// The paper-scale 28 K-function kernel (the default).
    Paper,
    /// The 1/20-scale smoke-test kernel.
    Small,
}

impl KernelScale {
    /// The kernel configuration of this scale.
    pub fn config(self) -> KernelConfig {
        match self {
            KernelScale::Paper => KernelConfig::paper(),
            KernelScale::Small => KernelConfig::test_small(),
        }
    }

    /// The `kernel` tag recorded in every experiment document.
    pub fn tag(self) -> &'static str {
        match self {
            KernelScale::Paper => "paper",
            KernelScale::Small => "small",
        }
    }
}

/// Every setting an experiment binary takes from its environment and
/// command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `PERSPECTIVE_KERNEL`: the kernel scale.
    pub kernel: KernelScale,
    /// `PERSPECTIVE_IMAGE_TIMING=1`: report the image build time on stderr.
    pub image_timing: bool,
    /// `PERSPECTIVE_THREADS`: the worker-pool width.
    pub threads: usize,
    /// The paper core; `PERSPECTIVE_NO_FASTFWD=1` turns its idle-cycle
    /// fast-forward off.
    pub core: CoreConfig,
    /// `PERSPECTIVE_CACHE` (mode) and `PERSPECTIVE_CACHE_DIR` (directory).
    pub cache: CacheConfig,
    /// `--json`: print one machine-readable document, not the transcript.
    pub json: bool,
}

/// A variable with an invalid-value rule: its name, the values it
/// expects, and what happens instead of a value it rejects.
type Var<'a> = (&'a str, &'a str, &'a str);

const KERNEL: Var = (
    "PERSPECTIVE_KERNEL",
    "\"small\" or \"paper\"",
    "using the paper-scale kernel",
);
const IMAGE_TIMING: Var = (
    "PERSPECTIVE_IMAGE_TIMING",
    "0 or 1",
    "not timing the image build",
);
const NO_FASTFWD: Var = (
    "PERSPECTIVE_NO_FASTFWD",
    "0 or 1",
    "keeping the fast-forward enabled",
);
const CACHE: Var = ("PERSPECTIVE_CACHE", "off, on, or verify", "cache stays off");

impl RunConfig {
    /// Parse this process's environment and arguments, printing each
    /// warning on stderr. Call it once, at the top of `main`.
    pub fn from_process() -> Self {
        let (cfg, warnings) = Self::parse(|var| std::env::var(var).ok(), std::env::args());
        for w in &warnings {
            eprintln!("{w}");
        }
        cfg
    }

    /// Parse a configuration from `lookup` (variable name → value, `None`
    /// when unset) and the command-line `args`. An invalid value keeps
    /// the setting's default and adds one warning line to the returned
    /// list.
    pub fn parse(
        lookup: impl Fn(&str) -> Option<String>,
        args: impl IntoIterator<Item = String>,
    ) -> (Self, Vec<String>) {
        let lookup: &dyn Fn(&str) -> Option<String> = &lookup;
        let mut w = Vec::new();
        let zero_or_one = |v: &str| match v.trim() {
            "1" => Some(true),
            "" | "0" => Some(false),
            _ => None,
        };
        let kernel = pick(lookup, &mut w, KERNEL, KernelScale::Paper, |v| match v {
            "" | "paper" => Some(KernelScale::Paper),
            "small" => Some(KernelScale::Small),
            _ => None,
        });
        let image_timing = pick(lookup, &mut w, IMAGE_TIMING, false, zero_or_one);
        let fallback = std::thread::available_parallelism().map_or(1, |n| n.get());
        let instead = format!("using {fallback} threads");
        let threads_var = ("PERSPECTIVE_THREADS", "an integer >= 1", instead.as_str());
        let threads = pick(lookup, &mut w, threads_var, fallback, |v| {
            v.trim().parse().ok().filter(|&n| n >= 1)
        });
        let core = CoreConfig {
            idle_fastforward: !pick(lookup, &mut w, NO_FASTFWD, false, zero_or_one),
            ..CoreConfig::paper_default()
        };
        let mode = pick(lookup, &mut w, CACHE, CacheMode::Off, |v| match v.trim() {
            "" | "0" | "off" => Some(CacheMode::Off),
            "1" | "on" => Some(CacheMode::On),
            "verify" => Some(CacheMode::Verify),
            _ => None,
        });
        // The directory has no invalid value: blank is unset.
        let dir = lookup("PERSPECTIVE_CACHE_DIR")
            .filter(|p| !p.trim().is_empty())
            .map_or_else(|| PathBuf::from(DEFAULT_DIR), PathBuf::from);
        let cfg = RunConfig {
            kernel,
            image_timing,
            threads,
            core,
            cache: CacheConfig { mode, dir },
            json: args.into_iter().any(|a| a == "--json"),
        };
        (cfg, w)
    }
}

/// The setting `var` selects: `default` when it is unset, else what
/// `accept` makes of its value; a value `accept` rejects gives `default`
/// and one warning.
fn pick<T>(
    lookup: &dyn Fn(&str) -> Option<String>,
    warnings: &mut Vec<String>,
    (var, expected, instead): Var,
    default: T,
    accept: impl Fn(&str) -> Option<T>,
) -> T {
    let Some(v) = lookup(var) else {
        return default;
    };
    accept(&v).unwrap_or_else(|| {
        warnings.push(format!(
            "warning: ignoring invalid {var}={v:?} (expected {expected}); {instead}"
        ));
        default
    })
}
