//! Experiment harness for the Perspective reproduction: every experiment
//! as a library function ([`experiments`], indexed in DESIGN.md §4), the
//! helpers they share, and the `main` of their binaries ([`run_bin`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use persp_kernel::callgraph::FuncSet;
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_workloads::report::{self, Json};
use persp_workloads::{
    lebench, runner, CellFailure, KernelScale, Measurement, RunConfig, Workload,
};
use perspective::isv::Isv;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::sync::OnceLock;

pub mod experiments;

/// The kernel images of one process, built lazily, once per
/// [`KernelScale`]. `run_all` (or a binary's `main`) owns one and passes
/// it to every experiment it runs, so all cells at a scale share one
/// image. Images are not cached on disk: building one takes about 40 ms
/// at paper scale and 2 ms on the small kernel (EXPERIMENTS.md). Under
/// `cfg.image_timing` each build reports its time on stderr, never on
/// stdout, so transcripts stay byte-identical.
#[derive(Default)]
pub struct Images([OnceLock<KernelImage>; 2]);

impl Images {
    /// The image at `cfg.kernel`'s scale, built on first use.
    pub fn get(&self, cfg: &RunConfig) -> &KernelImage {
        let slot = match cfg.kernel {
            KernelScale::Paper => &self.0[0],
            KernelScale::Small => &self.0[1],
        };
        slot.get_or_init(|| {
            let t0 = std::time::Instant::now();
            let image = KernelImage::build(cfg.kernel.config());
            if cfg.image_timing {
                eprintln!(
                    "kernel image: {} functions, {} text instructions, built in {:.3} s",
                    image.graph.len(),
                    image.text.len(),
                    t0.elapsed().as_secs_f64()
                );
            }
            image
        })
    }
}

/// Measure a batch of (scheme, workload, Perspective configuration)
/// cells ([`runner::run_cells`]) with `cfg`'s width, cache and core, in
/// job order. Every cell runs; if any fail, the error names each failed
/// cell.
pub fn cells(
    cfg: &RunConfig,
    image: &KernelImage,
    jobs: Vec<(Scheme, &Workload, PerspectiveConfig)>,
) -> Result<Vec<Measurement>, String> {
    runner::run_cells(cfg.threads, &cfg.cache, image, jobs, cfg.core).map_err(failed)
}

/// Measure a workload × scheme matrix ([`runner::run_matrix`]) with
/// `cfg`'s width, cache and core; failures as in [`cells`].
pub fn matrix(
    cfg: &RunConfig,
    image: &KernelImage,
    schemes: &[Scheme],
    workloads: &[Workload],
) -> Result<Vec<Measurement>, String> {
    runner::run_matrix(cfg.threads, &cfg.cache, image, schemes, workloads, cfg.core).map_err(failed)
}

/// The error of a batch with failed cells: their count, then one line
/// per cell.
fn failed(failures: Vec<CellFailure>) -> String {
    let mut msg = format!("{} cell(s) failed", failures.len());
    for f in &failures {
        msg += &format!("\n  cell {f}");
    }
    msg
}

/// What an experiment produces: its `--json` document or its transcript.
pub enum Output {
    /// The document (`--json`).
    Json(Json),
    /// The human-readable transcript.
    Transcript(String),
}

impl Output {
    /// Print to stdout: the document as one line, the transcript as is.
    pub fn print(&self) {
        match self {
            Output::Json(doc) => println!("{}", doc.render()),
            Output::Transcript(text) => print!("{text}"),
        }
    }
}

/// An experiment's output: under `--json` the document
/// (`experiment_json` around the fields `doc` returns), otherwise the
/// transcript. Both render rows the caller computed once.
pub fn output(
    cfg: &RunConfig,
    experiment: &str,
    doc: impl FnOnce() -> Vec<(&'static str, Json)>,
    transcript: impl FnOnce() -> String,
) -> Output {
    match cfg.json {
        true => Output::Json(report::experiment_json(experiment, cfg.kernel, doc())),
        false => Output::Transcript(transcript()),
    }
}

/// The `main` of an experiment binary: parse this process's
/// [`RunConfig`], run `experiment`, and print its output; if it fails,
/// print the error on stderr and exit 1.
pub fn run_bin(experiment: impl FnOnce(&RunConfig, &Images) -> Result<Output, String>) {
    let cfg = RunConfig::from_process();
    match experiment(&cfg, &Images::default()) {
        Ok(out) => out.print(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// A scheme list as a JSON array of scheme names.
pub fn schemes_json(schemes: &[Scheme]) -> Json {
    Json::Array(schemes.iter().map(|s| Json::str(s.name())).collect())
}

/// The mean of `xs` over `n`, summed in order (so it is deterministic).
pub fn mean(xs: impl IntoIterator<Item = f64>, n: usize) -> f64 {
    xs.into_iter().sum::<f64>() / n as f64
}

/// Matrix rows against their first (UNSAFE) cell: per row of `cells`
/// (`width` schemes wide), `value(cell, unsafe_cell)` for every other
/// scheme; and each of those schemes' mean over the rows.
pub fn vs_unsafe(
    cells: &[Measurement],
    width: usize,
    value: impl Fn(&Measurement, &Measurement) -> f64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let rows: Vec<Vec<f64>> = cells
        .chunks(width)
        .map(|row| row[1..].iter().map(|m| value(m, &row[0])).collect())
        .collect();
    let avg = (1..width)
        .map(|i| mean(rows.iter().map(|r| r[i - 1]), rows.len()))
        .collect();
    (rows, avg)
}

/// Per-scheme values as `[{"scheme": name, "value": norm(v)}, ...]`.
pub fn scheme_values_json(schemes: &[Scheme], values: &[f64]) -> Json {
    let obj = |(s, &v): (&Scheme, &f64)| {
        Json::obj(vec![
            ("scheme", Json::str(s.name())),
            ("value", Json::str(norm(v))),
        ])
    };
    Json::Array(schemes.iter().zip(values).map(obj).collect())
}

/// An experiment transcript's header.
pub fn header(title: &str, source: &str) -> String {
    format!("\n=== {title} ===\n    (reproduces {source})\n\n")
}

/// Values as the transcript's 19-character matrix columns.
pub fn columns<T: std::fmt::Display>(values: impl IntoIterator<Item = T>) -> String {
    values.into_iter().map(|v| format!(" {v:>18}")).collect()
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a normalized value (e.g. latency vs. baseline).
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

/// A pseudo-workload exercising every LEBench syscall per iteration —
/// its trace approximates the union of the suite's traces, for the
/// per-suite columns of Tables 8.1/8.2/10.1.
pub fn lebench_union_workload() -> Workload {
    let mut w = mixed_workload("LEBench", &lebench::suite());
    w.iters = 3;
    w
}

/// The workloads of Tables 8.1, 8.2 and 10.1 and Figure 9.1: the LEBench
/// union, then the four datacenter apps.
pub fn audit_workloads() -> Vec<Workload> {
    let apps = persp_workloads::apps::apps()
        .into_iter()
        .map(|a| a.workload);
    std::iter::once(lebench_union_workload())
        .chain(apps)
        .collect()
}

/// One workload named `name` running the per-iteration steps of `parts`
/// back to back, with the first part's iterations and user work.
pub fn mixed_workload(name: &'static str, parts: &[Workload]) -> Workload {
    Workload {
        name,
        steps: parts.iter().flat_map(|w| w.steps.iter().copied()).collect(),
        ..parts[0].clone()
    }
}

/// LEBench tests by name (see [`mixed_workload`]).
pub fn lebench_tests(names: &[&str]) -> Vec<Workload> {
    let test = |n: &&str| lebench::by_name(n).expect("suite test");
    names.iter().map(test).collect()
}

/// Instruction budget of a trace run: a guard against a runaway
/// workload, far above what any traced workload retires.
const TRACE_INSTS: u64 = 400_000_000;

/// Run a workload once on a fresh UNSAFE instance with call tracing, in
/// commit order ([`persp_uarch::Core::run_in_order`]): a trace is the
/// committed call path, which neither the scheme nor speculation
/// changes. Returns the instance and the traced functions (the raw
/// call-target VAs resolved against the image's graph).
fn traced_instance(
    image: &KernelImage,
    workload: &Workload,
) -> (persp_workloads::SimInstance, FuncSet) {
    let mut inst = persp_workloads::SimInstance::from_image(Scheme::Unsafe, image);
    let text = inst.text_base();
    let data = inst.data_base();
    inst.core.machine.load_text(workload.compile(text, data));
    inst.core.enable_call_trace();
    inst.core
        .run_in_order(text, TRACE_INSTS)
        .expect("trace run completes");
    let raw = inst.core.take_call_trace();
    let trace = runner::trace_to_funcs(&image.graph, &raw);
    (inst, trace)
}

/// Collect a dynamic-ISV trace for a workload (see [`traced_instance`]),
/// resolved to function ids so callers never handle addresses.
pub fn trace_workload(image: &KernelImage, workload: &Workload) -> FuncSet {
    traced_instance(image, workload).1
}

/// Build the three ISV flavors for a workload — `(ISV-S, ISV, ISV++)` —
/// plus the instance whose kernel they were derived from (the traced
/// one). The bounded scan reads the image's kernel text.
pub fn isv_trio(
    image: &KernelImage,
    workload: &Workload,
    profile: &[Sysno],
) -> (Isv, Isv, Isv, persp_workloads::SimInstance) {
    let (inst, trace) = traced_instance(image, workload);
    let graph = &image.graph;
    let isv_s = Isv::static_for(graph, profile);
    let isv_d = Isv::dynamic_from_funcs(graph, trace);
    let report = persp_scanner::scan_bounded(graph, isv_d.funcs(), |pc| image.text.get(pc));
    let isv_pp = isv_d
        .clone()
        .hardened_with_audit(graph, report.flagged_functions());
    (isv_s, isv_d, isv_pp, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::callgraph::KernelConfig;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.951), "95.1%");
        assert_eq!(norm(1.0349), "1.035");
    }

    #[test]
    fn union_workload_covers_the_suite() {
        let u = lebench_union_workload();
        assert!(u.syscall_profile().len() >= 12);
        assert_eq!(u.name, "LEBench");
    }

    #[test]
    fn small_kernel_trace_produces_dynamic_isv() {
        let image = KernelImage::build(KernelConfig::test_small());
        let w = persp_workloads::lebench::by_name("getpid").unwrap();
        let trace = trace_workload(&image, &w);
        assert!(!trace.is_empty());
    }

    #[test]
    fn isv_trio_orders_by_size() {
        let image = KernelImage::build(KernelConfig::test_small());
        let w = persp_workloads::lebench::by_name("small-read").unwrap();
        let (s, d, pp, _inst) = isv_trio(&image, &w, &w.syscall_profile());
        assert!(d.num_funcs() <= s.num_funcs(), "dynamic ⊆ static footprint");
        assert!(pp.num_funcs() <= d.num_funcs(), "++ removes flagged hosts");
    }
}
