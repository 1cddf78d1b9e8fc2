//! The measurement harness: builds a simulated machine for a scheme, runs
//! a workload's warmup + region of interest, and collects every statistic
//! the evaluation chapters report.
//!
//! Protocol per (scheme, workload) cell:
//!
//! 1. build kernel + process; for Perspective schemes the framework's
//!    sink is wired into the allocators;
//! 2. **warmup run** with call tracing enabled — this is both the cache/
//!    predictor warmup and, for the PERSPECTIVE scheme, the dynamic-ISV
//!    profiling run (§5.3's kernel-level tracing);
//! 3. install the scheme's view: ISV-S static from the declared syscall
//!    profile, ISV dynamic from the trace, ISV++ hardened with a bounded
//!    scan — or, under [`PerspectiveConfig::per_syscall_isv`] (§11), one
//!    static view per profile syscall;
//! 4. **ROI run**, measured as a statistics delta (LEBench methodology).
//!
//! Steps 2–3 are shared with the SNI harness ([`crate::sni`]). The entry
//! points are [`measure`] (one cell, through the cell cache in
//! [`crate::memo`]), [`run_cells`] (a batch of cells, every failure
//! reported), [`run_matrix`] (a workload × scheme matrix of them),
//! [`run_parallel`] (any batch of jobs on a worker pool) and
//! [`measure_image_uncached`] (the protocol without the cache). They take
//! the pool width, cache and core configuration as arguments and read no
//! environment; the binaries parse those settings once, with
//! [`RunConfig`](crate::config::RunConfig); DESIGN.md §6b tables them.

use crate::memo;
use crate::spec::Workload;
use persp_kernel::callgraph::{CallGraph, FuncSet};
use persp_kernel::kernel::{Kernel, KernelImage, SharedKernel, SharedSink};
use persp_kernel::layout;
use persp_kernel::sink::NullSink;
use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use persp_scanner::scanner::scan_bounded;
use persp_uarch::config::CoreConfig;
use persp_uarch::machine::Machine;
use persp_uarch::pipeline::{Core, SimError};
use persp_uarch::policy::SpecPolicy;
use persp_uarch::stats::SimStats;
use persp_uarch::{Asid, Counters, MetricsRegistry, MetricsSource};
use perspective::framework::Perspective;
use perspective::hwcache::HwCacheStats;
use perspective::isv::Isv;
use perspective::policy::{FenceBreakdown, PerspectiveConfig, PerspectivePolicy};
use perspective::scheme::Scheme;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cycle budget of one simulated run (warmup or ROI).
const RUN_BUDGET: u64 = 80_000_000;

/// One measured region of interest.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Scheme measured.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: &'static str,
    /// Statistics delta over the ROI.
    pub stats: SimStats,
    /// Perspective fence attribution (ISV/DSV/unknown), when applicable.
    pub fences: Option<FenceBreakdown>,
    /// ISV-cache statistics, when applicable.
    pub isv_cache: Option<HwCacheStats>,
    /// DSVMT-cache statistics, when applicable.
    pub dsvmt_cache: Option<HwCacheStats>,
    /// Functions in the installed ISV (for Table 8.1), when applicable.
    pub isv_funcs: Option<usize>,
    /// Named counters from every layer (pipeline, policy, hardware
    /// caches, kernel allocators) — the machine-readable form of the
    /// measurement, keyed by dotted names (`"sim.stall.vp_wait"`,
    /// `"kernel.slab.page_frees"`, ...).
    pub metrics: MetricsRegistry,
}

impl Measurement {
    /// The measurement of `scheme` running `workload` whose named
    /// counters are `metrics`. The typed fields are rebuilt from the
    /// registry, so they cannot disagree with it: `stats` from `sim.*`,
    /// and `fences`, `isv_cache` and `dsvmt_cache` from `policy.fences.*`,
    /// `policy.isv_cache.*` and `policy.dsvmt_cache.*`, each `Some`
    /// exactly when the registry holds its group. A missing `sim.*`
    /// counter, or a group with a member missing, is an `Err` naming it.
    pub fn from_registry(
        scheme: Scheme,
        workload: &'static str,
        isv_funcs: Option<usize>,
        metrics: MetricsRegistry,
    ) -> Result<Measurement, String> {
        Ok(Measurement {
            scheme,
            workload,
            stats: SimStats::from_registry(&metrics, "sim")?
                .ok_or("the registry has no sim.* counters")?,
            fences: FenceBreakdown::from_registry(&metrics, "policy.fences")?,
            isv_cache: HwCacheStats::from_registry(&metrics, "policy.isv_cache")?,
            dsvmt_cache: HwCacheStats::from_registry(&metrics, "policy.dsvmt_cache")?,
            isv_funcs,
            metrics,
        })
    }

    /// ROI cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Requests (or iterations) per second at the configured frequency.
    pub fn rps(&self, requests: u64, freq_ghz: f64) -> f64 {
        requests as f64 * freq_ghz * 1e9 / self.stats.cycles.max(1) as f64
    }
}

/// The architectural half of a machine for one scheme: the booted
/// kernel and its workload process, with no timing model. It runs
/// programs in order ([`ArchInstance::run_in_order`]), for runs whose
/// output is architectural (dynamic-ISV traces, kernel allocator
/// counts); [`ArchInstance::timed`] moves its machine into a core for
/// the cycle-level pipeline.
pub struct ArchInstance {
    /// Committed architectural state.
    pub machine: Machine,
    /// The kernel handle.
    pub kernel: SharedKernel,
    /// The framework (Perspective schemes and instrumented instances).
    pub perspective: Option<Perspective>,
    /// The workload process.
    pub asid: Asid,
    /// The scheme.
    pub scheme: Scheme,
}

impl ArchInstance {
    /// Boot `image`'s kernel with a single workload process (cgroup 1).
    /// The image's call graph, text and boot memory are shared, not
    /// regenerated. Perspective schemes get a framework whose sink the
    /// kernel's allocators feed.
    pub fn new(scheme: Scheme, image: &KernelImage) -> Self {
        Self::boot(scheme, image, scheme.is_perspective())
    }

    /// [`ArchInstance::new`], with a framework for any scheme when
    /// `framework` is set.
    fn boot(scheme: Scheme, image: &KernelImage, framework: bool) -> Self {
        let perspective = framework.then(Perspective::new);
        let sink: SharedSink = match &perspective {
            Some(p) => p.sink(),
            None => Rc::new(RefCell::new(NullSink)),
        };
        let kernel = SharedKernel::new(Kernel::from_image(image, sink));
        let mut machine = Machine::new();
        kernel.borrow().install(&mut machine);
        let pid = kernel.borrow_mut().create_process(1, &mut machine);
        let asid = pid as Asid;
        kernel.borrow().set_current(asid, &mut machine);
        ArchInstance {
            machine,
            kernel,
            perspective,
            asid,
            scheme,
        }
    }

    /// User text base of the workload process.
    pub fn text_base(&self) -> u64 {
        layout::user_text_base(u32::from(self.asid))
    }

    /// User data base of the workload process.
    pub fn data_base(&self) -> u64 {
        layout::user_data_base(u32::from(self.asid))
    }

    /// Retire the program at `entry` in program order, with the kernel
    /// as its hooks, until a `Halt` retires or `max_insts` instructions
    /// have (see [`persp_uarch::run_in_order`]); committed call targets
    /// go into `call_trace` when it is given. Returns the number of
    /// instructions retired.
    ///
    /// # Errors
    ///
    /// The [`SimError`] of the in-order engine.
    pub fn run_in_order(
        &mut self,
        entry: u64,
        max_insts: u64,
        call_trace: Option<&mut HashSet<u64>>,
    ) -> Result<u64, SimError> {
        let mut hooks = self.kernel.clone();
        persp_uarch::run_in_order(&mut self.machine, &mut hooks, call_trace, entry, max_insts)
    }

    /// Add the timing model: move the machine into a paper-hierarchy
    /// core configured by `core_cfg`, around the scheme's policy (the
    /// framework's, configured by `pcfg`, for Perspective schemes). When
    /// a framework is present the policy is passed through `wrap` first —
    /// the hook the fault injector uses.
    pub fn timed(
        self,
        pcfg: PerspectiveConfig,
        core_cfg: CoreConfig,
        wrap: impl FnOnce(Box<dyn SpecPolicy>, &Perspective) -> Box<dyn SpecPolicy>,
    ) -> SimInstance {
        let ArchInstance {
            machine,
            kernel,
            perspective,
            asid,
            scheme,
        } = self;
        let baseline = || {
            scheme
                .build_baseline_policy()
                .expect("Perspective schemes need the framework")
        };
        let policy: Box<dyn SpecPolicy> = match &perspective {
            Some(p) if scheme.is_perspective() => wrap(Box::new(p.policy(pcfg)), p),
            Some(p) => wrap(baseline(), p),
            None => baseline(),
        };
        let core = Core::new(
            core_cfg,
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            policy,
            Box::new(kernel.clone()),
        );
        SimInstance {
            core,
            kernel,
            perspective,
            asid,
            scheme,
        }
    }
}

/// A simulated machine instance for one scheme: an [`ArchInstance`]
/// whose machine runs in a cycle-level core.
pub struct SimInstance {
    /// The core.
    pub core: Core,
    /// The kernel handle.
    pub kernel: SharedKernel,
    /// The framework (Perspective schemes and instrumented instances).
    pub perspective: Option<Perspective>,
    /// The workload process.
    pub asid: Asid,
    /// The scheme.
    pub scheme: Scheme,
}

impl SimInstance {
    /// Build an instance with a single workload process (cgroup 1) from a
    /// pre-generated kernel image, with the default Perspective
    /// configuration and the paper core.
    pub fn from_image(scheme: Scheme, image: &KernelImage) -> Self {
        Self::from_image_core(
            scheme,
            image,
            PerspectiveConfig::default(),
            CoreConfig::paper_default(),
        )
    }

    /// [`SimInstance::from_image`] with explicit Perspective and core
    /// configurations — the constructor the measurement protocol uses for
    /// every cell: [`ArchInstance::new`], then [`ArchInstance::timed`].
    pub fn from_image_core(
        scheme: Scheme,
        image: &KernelImage,
        pcfg: PerspectiveConfig,
        core_cfg: CoreConfig,
    ) -> Self {
        ArchInstance::new(scheme, image).timed(pcfg, core_cfg, |policy, _| policy)
    }

    /// Build an *instrumented* instance for the SNI checker: the
    /// Perspective framework's allocation sink is wired into the kernel
    /// even for baseline schemes (whose policies ignore it), so the
    /// ground-truth oracle has ownership metadata to judge every scheme
    /// against. `perspective` is therefore always `Some`. The policy is
    /// passed through `wrap` before entering the core — the hook the
    /// fault injector uses.
    pub fn instrumented(
        scheme: Scheme,
        image: &KernelImage,
        pcfg: PerspectiveConfig,
        core_cfg: CoreConfig,
        wrap: impl FnOnce(Box<dyn SpecPolicy>, &Perspective) -> Box<dyn SpecPolicy>,
    ) -> Self {
        ArchInstance::boot(scheme, image, true).timed(pcfg, core_cfg, wrap)
    }

    /// User text base of the workload process.
    pub fn text_base(&self) -> u64 {
        layout::user_text_base(u32::from(self.asid))
    }

    /// User data base of the workload process.
    pub fn data_base(&self) -> u64 {
        layout::user_data_base(u32::from(self.asid))
    }

    fn with_policy<R>(&mut self, f: impl FnOnce(&mut PerspectivePolicy) -> R) -> Option<R> {
        self.core
            .policy_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<PerspectivePolicy>())
            .map(f)
    }

    fn policy_view<R>(&self, f: impl FnOnce(&PerspectivePolicy) -> R) -> Option<R> {
        self.core
            .policy()
            .as_any()
            .and_then(|a| a.downcast_ref::<PerspectivePolicy>())
            .map(f)
    }
}

/// Collect the named-counter registry for a finished ROI: the stats
/// delta under `"sim"`, the Perspective policy (fence attribution,
/// decision counters, metadata-cache hit rates) under `"policy"`, and
/// the kernel allocators under `"kernel"`.
fn collect_metrics(instance: &SimInstance, stats: &SimStats) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    stats.export_metrics("sim", &mut reg);
    instance.policy_view(|p| p.export_metrics("policy", &mut reg));
    instance.kernel.borrow().export_metrics("kernel", &mut reg);
    reg
}

/// Resolve a raw call trace (committed call-target VAs) to the set of
/// traced kernel functions. One dense-map probe per distinct VA; the
/// result feeds [`Isv::dynamic_from_funcs`] without further VA decoding.
pub fn trace_to_funcs(graph: &CallGraph, trace: &HashSet<u64>) -> FuncSet {
    trace
        .iter()
        .filter_map(|&va| graph.func_of_va(va))
        .collect()
}

/// The per-scheme ISV used for a workload: static from the declared
/// profile, dynamic from the warmup trace, ISV++ audit-hardened.
fn build_isv(instance: &SimInstance, workload: &Workload, trace: &FuncSet) -> Option<Isv> {
    let kernel = instance.kernel.borrow();
    let graph = &kernel.graph;
    match instance.scheme {
        Scheme::PerspectiveStatic => Some(Isv::static_for(graph, &workload.syscall_profile())),
        Scheme::Perspective => Some(Isv::dynamic_from_funcs(graph, trace.clone())),
        Scheme::PerspectivePlusPlus => {
            let dynamic = Isv::dynamic_from_funcs(graph, trace.clone());
            let report = scan_bounded(graph, dynamic.funcs(), |pc| {
                instance.core.machine.inst_at(pc)
            });
            Some(dynamic.hardened_with_audit(graph, report.flagged_functions()))
        }
        _ => None,
    }
}

/// Run the loaded workload once from the top of its text; `phase` names
/// the run in the error message.
pub(crate) fn run_phase(
    instance: &mut SimInstance,
    workload: &Workload,
    phase: &str,
) -> Result<(), String> {
    let text = instance.text_base();
    instance.core.run(text, RUN_BUDGET).map(drop).map_err(|e| {
        format!(
            "{phase} of {} under {} failed: {e}",
            workload.name, instance.scheme
        )
    })
}

/// Protocol steps 2–3, shared by [`measure_image_uncached`] and the SNI
/// harness: load the workload, run the warmup with call tracing, and
/// install the scheme's view. Returns the number of functions in the
/// installed view(s), `None` when the scheme installs none.
pub(crate) fn warm_up_and_install_view(
    instance: &mut SimInstance,
    workload: &Workload,
    pcfg: &PerspectiveConfig,
) -> Result<Option<usize>, String> {
    let (text, data) = (instance.text_base(), instance.data_base());
    instance
        .core
        .machine
        .load_text(workload.compile(text, data));
    instance.core.enable_call_trace();
    run_phase(instance, workload, "warmup")?;
    let raw_trace = instance.core.take_call_trace();
    if pcfg.per_syscall_isv {
        return Ok(install_per_syscall_views(instance, workload));
    }
    let trace = trace_to_funcs(&instance.kernel.borrow().graph, &raw_trace);
    let isv = build_isv(instance, workload, &trace);
    let isv_funcs = isv.as_ref().map(Isv::num_funcs);
    if let (Some(p), Some(view)) = (&instance.perspective, isv) {
        p.install_isv(instance.asid, view);
    }
    Ok(isv_funcs)
}

/// The §11 per-syscall views: one static closure per profile syscall,
/// switched at dispatch, plus the profile's union as the process-wide
/// fallback for code outside any syscall (none in our workloads, but the
/// resolution path requires the process-wide entry). Returns the summed
/// size of the per-syscall views, `None` without a framework.
fn install_per_syscall_views(instance: &SimInstance, workload: &Workload) -> Option<usize> {
    let p = instance.perspective.as_ref()?;
    let kernel = instance.kernel.borrow();
    let profile = workload.syscall_profile();
    let mut total_funcs = 0;
    for &sys in &profile {
        let view = Isv::static_for(&kernel.graph, &[sys]);
        total_funcs += view.num_funcs();
        p.install_isv_per_syscall(instance.asid, sys as u16, view);
    }
    p.install_isv(instance.asid, Isv::static_for(&kernel.graph, &profile));
    Some(total_funcs)
}

/// Measure one cell: `scheme` running `workload` on `image` under the
/// Perspective configuration `pcfg` and core configuration `core_cfg`.
/// Setting [`PerspectiveConfig::per_syscall_isv`] selects the per-syscall
/// view protocol (§11 future work), in which the policy switches views at
/// dispatch and flushes the ISV cache on each switch.
///
/// The cell goes through the content-addressed cell cache
/// ([`crate::memo`]) configured by `cache`: in `on` or `verify` mode a
/// cell whose complete input fingerprint matches a stored entry is served
/// from (or verified against) disk. With the cache off it is simulated by
/// [`measure_image_uncached`].
///
/// A simulation that fails (a corrupted policy, an injected fault
/// cascading into a machine error) or a cache verify mismatch comes back
/// as `Err` with a message naming the cell.
pub fn measure(
    cache: &memo::CacheConfig,
    scheme: Scheme,
    image: &KernelImage,
    workload: &Workload,
    pcfg: PerspectiveConfig,
    core_cfg: CoreConfig,
) -> Result<Measurement, String> {
    memo::cached_measure(
        cache,
        memo::Protocol::of(&pcfg),
        scheme,
        &image.cfg,
        &pcfg,
        &core_cfg,
        workload,
        || measure_image_uncached(scheme, image, workload, pcfg, core_cfg),
    )
}

/// The measurement protocol behind [`measure`], always simulating (never
/// consulting the cell cache). The verify-mode recomputation and the
/// cache's own tests call this directly.
pub fn measure_image_uncached(
    scheme: Scheme,
    image: &KernelImage,
    workload: &Workload,
    pcfg: PerspectiveConfig,
    core_cfg: CoreConfig,
) -> Result<Measurement, String> {
    let mut instance = SimInstance::from_image_core(scheme, image, pcfg, core_cfg);
    let isv_funcs = warm_up_and_install_view(&mut instance, workload, &pcfg)?;

    // Reset measurement state.
    instance.core.policy_mut().reset_counters();
    instance.with_policy(|p| p.reset_measurement());

    // Region of interest (same program, measured as a delta).
    let before = instance.core.stats();
    run_phase(&mut instance, workload, "ROI")?;
    let stats = instance.core.stats().delta_since(&before);
    let metrics = collect_metrics(&instance, &stats);
    Measurement::from_registry(scheme, workload.name, isv_funcs, metrics)
}

/// Run `f` over `jobs` on a scoped worker pool of `threads` threads.
///
/// Results come back **in job order** — workers pull jobs from a shared
/// atomic cursor, so completion order is nondeterministic, but each
/// result is keyed by its job index and the returned vector is identical
/// to `jobs.into_iter().map(f).collect()` whatever the thread count.
/// A panic in any job propagates to the caller.
pub fn run_parallel<T, R>(threads: usize, jobs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let workers = threads.min(n);
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let job = slot.lock().unwrap().take().expect("each job taken once");
                        out.push((i, f(job)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// A matrix cell whose measurement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Scheme of the failed cell.
    pub scheme: Scheme,
    /// Workload of the failed cell.
    pub workload: &'static str,
    /// The error [`measure`] returned.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} / {}: {}", self.workload, self.scheme, self.message)
    }
}

/// Measure a batch of `(scheme, workload, Perspective configuration)`
/// cells on a pool of `threads` workers through the cell cache `cache`,
/// sharing one pre-generated kernel image, with core configuration
/// `core_cfg`. Results come back in job order regardless of which worker
/// finishes first.
///
/// Every cell runs even when some fail; the failures come back together,
/// in job order.
pub fn run_cells(
    threads: usize,
    cache: &memo::CacheConfig,
    image: &KernelImage,
    cells: Vec<(Scheme, &Workload, PerspectiveConfig)>,
    core_cfg: CoreConfig,
) -> Result<Vec<Measurement>, Vec<CellFailure>> {
    let results = run_parallel(threads, cells, |(scheme, w, pcfg)| {
        measure(cache, scheme, image, w, pcfg, core_cfg).map_err(|message| CellFailure {
            scheme,
            workload: w.name,
            message,
        })
    });
    let mut failures = Vec::new();
    let measured: Vec<Measurement> = results
        .into_iter()
        .filter_map(|r| r.map_err(|f| failures.push(f)).ok())
        .collect();
    if failures.is_empty() {
        Ok(measured)
    } else {
        Err(failures)
    }
}

/// Measure every (workload, scheme) cell of an experiment matrix with
/// the default Perspective configuration ([`run_cells`] over the cross
/// product).
///
/// Results are ordered workload-major and scheme-minor: cell `(w, s)` is
/// at index `w * schemes.len() + s`, so `chunks(schemes.len())` yields
/// one per-workload row after another, each in `schemes` order.
pub fn run_matrix(
    threads: usize,
    cache: &memo::CacheConfig,
    image: &KernelImage,
    schemes: &[Scheme],
    workloads: &[Workload],
    core_cfg: CoreConfig,
) -> Result<Vec<Measurement>, Vec<CellFailure>> {
    let pcfg = PerspectiveConfig::default();
    let cells = workloads
        .iter()
        .flat_map(|w| schemes.iter().map(move |&s| (s, w, pcfg)))
        .collect();
    run_cells(threads, cache, image, cells, core_cfg)
}

/// Normalized overhead of `m` versus a baseline measurement.
pub fn overhead(m: &Measurement, baseline: &Measurement) -> f64 {
    m.stats.cycles as f64 / baseline.stats.cycles.max(1) as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lebench;
    use persp_kernel::callgraph::KernelConfig;

    fn image() -> KernelImage {
        KernelImage::build(KernelConfig::test_small())
    }

    fn cell(scheme: Scheme, image: &KernelImage, w: &Workload) -> Measurement {
        measure_image_uncached(
            scheme,
            image,
            w,
            PerspectiveConfig::default(),
            CoreConfig::paper_default(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    fn row(schemes: &[Scheme], w: &Workload) -> Vec<Measurement> {
        let w = std::slice::from_ref(w);
        let off = memo::CacheConfig::off();
        run_matrix(2, &off, &image(), schemes, w, CoreConfig::paper_default())
            .unwrap_or_else(|e| panic!("{e:?}"))
    }

    #[test]
    fn getpid_measures_under_all_main_schemes() {
        let w = lebench::by_name("getpid").unwrap();
        let ms = row(Scheme::MAIN, &w);
        for m in &ms {
            assert!(m.stats.cycles > 0, "{}: no cycles", m.scheme);
            assert_eq!(m.stats.syscalls, w.total_syscalls());
        }
        // Ordering: UNSAFE fastest, FENCE slowest of the five.
        let unsafe_c = ms[0].stats.cycles;
        let fence_c = ms[1].stats.cycles;
        assert!(fence_c > unsafe_c, "FENCE {fence_c} vs UNSAFE {unsafe_c}");
    }

    #[test]
    fn perspective_measurement_carries_rich_stats() {
        let w = lebench::by_name("small-read").unwrap();
        let m = cell(Scheme::Perspective, &image(), &w);
        assert!(m.fences.is_some());
        assert!(m.isv_cache.is_some());
        assert!(m.dsvmt_cache.is_some());
        assert!(m.isv_funcs.unwrap() > 0);
        let isv = m.isv_cache.unwrap();
        assert!(isv.hits + isv.misses > 0, "the ISV cache was exercised");
    }

    #[test]
    fn baseline_measurement_has_no_perspective_stats() {
        let w = lebench::by_name("getpid").unwrap();
        let m = cell(Scheme::Unsafe, &image(), &w);
        assert!(m.fences.is_none());
        assert!(m.isv_cache.is_none());
    }

    #[test]
    fn baselines_install_no_view_under_either_protocol() {
        let w = lebench::by_name("getpid").unwrap();
        let per_syscall = PerspectiveConfig {
            per_syscall_isv: true,
            ..PerspectiveConfig::default()
        };
        for pcfg in [PerspectiveConfig::default(), per_syscall] {
            let m = measure_image_uncached(
                Scheme::Unsafe,
                &image(),
                &w,
                pcfg,
                CoreConfig::paper_default(),
            )
            .unwrap();
            assert_eq!(m.isv_funcs, None, "{pcfg:?}");
        }
    }

    #[test]
    fn dynamic_isv_is_smaller_than_static() {
        let w = lebench::by_name("small-read").unwrap();
        let image = image();
        let m_static = cell(Scheme::PerspectiveStatic, &image, &w);
        let m_dyn = cell(Scheme::Perspective, &image, &w);
        assert!(
            m_dyn.isv_funcs.unwrap() < m_static.isv_funcs.unwrap(),
            "dynamic {} vs static {}",
            m_dyn.isv_funcs.unwrap(),
            m_static.isv_funcs.unwrap()
        );
    }

    #[test]
    fn fence_overhead_exceeds_perspective_overhead_on_select() {
        let w = lebench::by_name("select").unwrap();
        let ms = row(&[Scheme::Unsafe, Scheme::Fence, Scheme::Perspective], &w);
        let fence_ov = overhead(&ms[1], &ms[0]);
        let persp_ov = overhead(&ms[2], &ms[0]);
        assert!(
            fence_ov > persp_ov,
            "FENCE {fence_ov:.3} must cost more than Perspective {persp_ov:.3}"
        );
        assert!(fence_ov > 0.10, "select is FENCE's bad case: {fence_ov:.3}");
    }

    #[test]
    fn stall_attribution_partitions_roi_stall_cycles() {
        let w = lebench::by_name("getpid").unwrap();
        let ms = row(&[Scheme::Unsafe, Scheme::Fence, Scheme::Perspective], &w);
        for m in &ms {
            assert_eq!(
                m.stats.stalls.total(),
                m.stats.stall_cycles,
                "{}: stall classes must partition the stall cycles",
                m.scheme
            );
            assert_eq!(
                m.metrics.get("sim.stall_cycles"),
                Some(m.stats.stall_cycles)
            );
            assert_eq!(m.metrics.get("sim.cycles"), Some(m.stats.cycles));
        }
        // Perspective measurements also export policy and kernel layers.
        let persp = &ms[2];
        assert!(persp.metrics.get("policy.fences.isv").is_some());
        assert!(persp.metrics.get("kernel.slab.object_allocs").is_some());
        // Baselines have no policy layer but still export the kernel.
        assert!(ms[0].metrics.get("policy.fences.isv").is_none());
        assert!(ms[0].metrics.get("kernel.buddy.allocs").is_some());
    }

    #[test]
    fn rps_conversion() {
        let w = lebench::by_name("getpid").unwrap();
        let m = cell(Scheme::Unsafe, &image(), &w);
        let rps = m.rps(100, 2.0);
        assert!(rps > 0.0);
        assert!((m.rps(200, 2.0) / rps - 2.0).abs() < 1e-9);
    }
}
