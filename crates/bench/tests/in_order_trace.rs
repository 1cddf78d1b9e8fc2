//! The in-order engine retires the same committed path as the pipeline.
//!
//! Traces (dynamic ISVs) and slab counts come from
//! `Core::run_in_order`, not `Core::run`, on the premise that the
//! committed path is architectural: speculation changes timing and
//! microarchitectural state, never what retires. This test pins that
//! premise on every workload the traced experiments run — each LEBench
//! test, the four datacenter apps and the LEBench union, on both kernel
//! scales, plus the shapes the `audit` benchmark workload varies them
//! into. Each test runs each workload once on the in-order engine under
//! UNSAFE, and compares that reference with the runs of both engines
//! under its schemes (the three small-kernel tests split the nine of
//! `Scheme::ALL` between them; the paper-scale test runs UNSAFE): the
//! call-target set, the retired-instruction count and the whole
//! architectural end state — registers, mode, call stack, every memory
//! page and the kernel's allocator metrics. So the check also shows
//! that what retires does not depend on the scheme.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_uarch::{Core, MetricsRegistry, MetricsSource};
use persp_workloads::{apps, lebench, SimInstance, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

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
    trace: std::collections::HashSet<u64>,
    retired: u64,
    core: Core,
    kernel: MetricsRegistry,
}

fn run(scheme: Scheme, image: &KernelImage, w: &Workload, in_order: bool) -> EndState {
    let mut inst = SimInstance::from_image_core(
        scheme,
        image,
        PerspectiveConfig::default(),
        CoreConfig::paper_default(),
    );
    let (text, data) = (inst.text_base(), inst.data_base());
    inst.core.machine.load_text(w.compile(text, data));
    inst.core.enable_call_trace();
    let retired = if in_order {
        let (stats, now) = (inst.core.stats(), inst.core.now());
        let caches = [
            inst.core.mem.l1i_stats(),
            inst.core.mem.l1d_stats(),
            inst.core.mem.l2_stats(),
        ];
        let retired = inst.core.run_in_order(text, INSTS);
        let retired = retired.unwrap_or_else(|e| panic!("{} in order: {e}", w.name));
        assert_eq!(inst.core.stats(), stats, "{}: stats moved", w.name);
        assert_eq!(inst.core.now(), now, "{}: the clock moved", w.name);
        let after = [
            inst.core.mem.l1i_stats(),
            inst.core.mem.l1d_stats(),
            inst.core.mem.l2_stats(),
        ];
        assert_eq!(after, caches, "{}: the caches moved", w.name);
        retired
    } else {
        let summary = inst.core.run(text, CYCLES);
        let summary = summary.unwrap_or_else(|e| panic!("{} pipelined: {e}", w.name));
        summary.stats.committed_insts
    };
    let mut kernel = MetricsRegistry::new();
    inst.kernel.borrow().export_metrics("kernel", &mut kernel);
    EndState {
        trace: inst.core.take_call_trace(),
        retired,
        core: inst.core,
        kernel,
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
            let (ma, mb) = (&a.core.machine, &b.core.machine);
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
