//! The in-order engine retires the same committed path as the pipeline.
//!
//! Traces (dynamic ISVs) and slab counts come from
//! `ArchInstance::run_in_order`, the in-order engine
//! (`persp_uarch::run_in_order`) on a machine with no core, not from
//! `Core::run`, on the premise that the committed path is
//! architectural: speculation changes timing and microarchitectural
//! state, never what retires. This test pins that premise on every
//! workload the traced experiments run — each LEBench test, the four
//! datacenter apps and the LEBench union, on both kernel scales, plus
//! the shapes the `audit` benchmark workload varies them into. Each
//! test runs each workload once on the in-order engine under UNSAFE,
//! and compares that reference with the runs of both engines under its
//! schemes (the three small-kernel tests split the nine of
//! `Scheme::ALL` between them; the paper-scale test runs UNSAFE): the
//! call-target set, the retired-instruction count and the whole
//! architectural end state — registers, mode, call stack, every memory
//! page and the kernel's allocator metrics. So the check also shows
//! that what retires does not depend on the scheme. The in-order runs
//! build no core, so they have no timing state to leave untouched.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_uarch::{Machine, MetricsRegistry, MetricsSource};
use persp_workloads::{apps, lebench, ArchInstance, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::collections::HashSet;

/// The cycle budget of the pipeline runs (the one trace runs had).
const CYCLES: u64 = 400_000_000;
/// The in-order engine's budget.
const INSTS: u64 = 400_000_000;

/// A tiny seeded generator for the variant shapes (xorshift64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Every LEBench test, the four apps and the LEBench union; then the
/// `audit` shapes: each LEBench test at half its iterations with a
/// seeded user-mode work count, and each app serving one request with an
/// eighth of its user-mode work.
fn workloads() -> Vec<Workload> {
    let mut out = lebench::suite();
    out.extend(apps::apps().into_iter().map(|a| a.workload));
    out.push(persp_bench::lebench_union_workload());
    let mut rng = Rng(0x5eed_a0d1);
    for mut w in lebench::suite() {
        w.iters = w.iters.div_ceil(2);
        w.user_work = 1 + rng.below(8);
        out.push(w);
    }
    for a in apps::apps() {
        let mut w = a.workload;
        w.iters = 1;
        w.user_work /= 8;
        out.push(w);
    }
    out
}

/// Everything architectural a run leaves behind.
struct EndState {
    trace: HashSet<u64>,
    retired: u64,
    machine: Machine,
    kernel: MetricsRegistry,
}

fn run(scheme: Scheme, image: &KernelImage, w: &Workload, in_order: bool) -> EndState {
    let mut arch = ArchInstance::new(scheme, image);
    let (text, data) = (arch.text_base(), arch.data_base());
    arch.machine.load_text(w.compile(text, data));
    let (trace, retired, machine, kernel) = if in_order {
        let mut trace = HashSet::new();
        let retired = arch.run_in_order(text, INSTS, Some(&mut trace));
        let retired = retired.unwrap_or_else(|e| panic!("{} in order: {e}", w.name));
        (trace, retired, arch.machine, arch.kernel)
    } else {
        let pcfg = PerspectiveConfig::default();
        let mut inst = arch.timed(pcfg, CoreConfig::paper_default(), |p, _| p);
        inst.core.enable_call_trace();
        let summary = inst.core.run(text, CYCLES);
        let summary = summary.unwrap_or_else(|e| panic!("{} pipelined: {e}", w.name));
        let trace = inst.core.take_call_trace();
        let retired = summary.stats.committed_insts;
        (trace, retired, inst.core.machine, inst.kernel)
    };
    let mut metrics = MetricsRegistry::new();
    kernel.borrow().export_metrics("kernel", &mut metrics);
    EndState {
        trace,
        retired,
        machine,
        kernel: metrics,
    }
}

fn assert_same_committed_path(schemes: &[Scheme], cfg: KernelConfig) {
    let image = KernelImage::build(cfg);
    for w in workloads() {
        let reference = run(Scheme::Unsafe, &image, &w, true);
        for (&scheme, in_order) in schemes.iter().flat_map(|s| [(s, false), (s, true)]) {
            let engine = if in_order { "in order" } else { "pipelined" };
            let what = format!(
                "{} under {scheme}, {engine} ({} functions)",
                w.name,
                image.graph.len()
            );
            let a = run(scheme, &image, &w, in_order);
            let b = &reference;
            assert!(a.trace == b.trace, "{what}: call-target sets differ");
            assert_eq!(a.retired, b.retired, "{what}: retired counts differ");
            let (ma, mb) = (&a.machine, &b.machine);
            assert_eq!(ma.regs(), mb.regs(), "{what}: registers differ");
            assert_eq!(ma.mode, mb.mode, "{what}: modes differ");
            assert_eq!(ma.call_stack, mb.call_stack, "{what}: call stacks differ");
            assert!(ma.mem == mb.mem, "{what}: memory differs");
            assert_eq!(a.kernel, b.kernel, "{what}: kernel metrics differ");
        }
    }
}

#[test]
fn small_kernel_unsafe() {
    assert_same_committed_path(&[Scheme::Unsafe], KernelConfig::test_small());
}

#[test]
fn small_kernel_perspective() {
    assert_same_committed_path(&[Scheme::Perspective], KernelConfig::test_small());
}

/// The seven schemes of `Scheme::ALL` the two tests above leave out.
#[test]
fn small_kernel_other_schemes() {
    let others: Vec<Scheme> = Scheme::ALL
        .iter()
        .copied()
        .filter(|s| !matches!(s, Scheme::Unsafe | Scheme::Perspective))
        .collect();
    assert_eq!(others.len(), 7);
    assert_same_committed_path(&others, KernelConfig::test_small());
}

#[test]
fn paper_kernel_unsafe() {
    assert_same_committed_path(&[Scheme::Unsafe], KernelConfig::paper());
}
