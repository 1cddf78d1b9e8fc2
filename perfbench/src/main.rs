//! Benchmark harness for the Perspective reproduction; `run.py` builds it,
//! runs it in a few processes and turns their results into the metrics.
//!
//! ```text
//! perfbench --workload <lebench|apps|audit|cache> --seed N --seconds S
//!           --trace 0|1 [--scratch DIR]
//! ```
//!
//! Each workload is a closed loop with one client: the next operation
//! starts when the previous one returns. The operations are the ones the
//! experiment binaries perform:
//!
//! * `lebench` — one (scheme, LEBench test) measurement cell plus its JSON
//!   rendering, cell cache off (Figure 9.2's unit of work), small kernel;
//! * `apps` — one (scheme, datacenter app) cell plus its JSON rendering,
//!   cell cache off (Figure 9.3's unit of work), small kernel;
//! * `audit` — the ISV audit pipeline for one workload: trace run, static
//!   and dynamic ISV, bounded gadget scan, ISV++ hardening (Tables 8.1 and
//!   8.2's unit of work), on the paper-scale kernel the experiment
//!   binaries default to;
//! * `cache` — one cell-cache hit for a cell stored during set-up, small
//!   kernel (a hit's cost does not depend on the kernel's size).
//!
//! The paper-scale kernel shifts the cost between layers: building a
//! simulation instance takes about as long as simulating a cell there,
//! and next to nothing on the small kernel. `audit` builds two instances
//! per operation, so it carries that cost. The cells run on the small
//! kernel because at paper scale their times move by up to half with
//! other tenants' use of a shared host's last-level cache, more than any
//! regression bound could absorb.
//!
//! Every input — the user-mode work each workload does between system
//! calls, audited syscall profiles, cached cells and the operation order —
//! derives from `--seed`. Set-up (kernel image generation, plus storing
//! the cells for `cache`) is repeated and timed. The loop then runs whole
//! passes over the workload's operations, each pass in a fresh seeded
//! order, for about `--seconds`, and keeps each operation's best time:
//! host speed drifts by up to 20 % from one second to the next, and the
//! best of several passes filters that out.
//!
//! With `--trace 0` the operations call the library entry points. With
//! `--trace 1` every operation is replayed step by step with a span around
//! each call into a layer, after a set-up self-check (untimed, outside the
//! spans) asserts that the replays reproduce the library's results byte
//! for byte. Either way every operation's output is checked, including
//! that it is identical on every pass.
//!
//! Standard output is one JSON object of raw results: `correct`,
//! `attempted`, `failed`, the set-up times `setup_s`, each operation's best
//! time `best_ms` (indexed by operation, so runs with the same seed line
//! up), per-layer span totals `layers` (`[seconds, calls]`), and the
//! simulated work of the traced runs.

#![forbid(unsafe_code)]

use persp_bench::isv_trio;
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_scanner::scan_bounded;
use persp_uarch::config::CoreConfig;
use persp_uarch::pipeline::Core;
use persp_uarch::{MetricsRegistry, MetricsSource};
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::report::measurement_to_json_full;
use persp_workloads::runner::{measure_image_uncached, trace_to_funcs};
use persp_workloads::{apps, lebench, Measurement, SimInstance, Workload};
use perspective::isv::Isv;
use perspective::policy::{PerspectiveConfig, PerspectivePolicy};
use perspective::scheme::Scheme;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated until it has taken this long (host speed drifts on
/// a scale of seconds).
const SETUP_SECONDS: f64 = 1.0;
/// Cycle budget of one simulated run, as in the library's protocol.
const CELL_BUDGET: u64 = 80_000_000;
/// Cycle budget of an audit trace run, as in `persp_bench::trace_workload`.
const TRACE_BUDGET: u64 = 400_000_000;
/// Requests one `apps` cell serves (the figure's cells serve 12 to 25).
const APP_REQUESTS: u64 = 1;
/// Seeded variants per app in `apps`, so it has over 100 operations.
const APP_VARIANTS: usize = 3;
/// Seeded user-mode loop iterations between a LEBench test's calls are
/// drawn from a window this wide: a few dozen instructions, against the
/// hundreds to thousands a system call takes.
const LEBENCH_WORK: usize = 8;
/// `cache` stores two variants of every LEBench test under the main
/// schemes, each cut to [`CACHE_ITERS`] iterations to keep set-up short
/// (a hit's cost does not depend on the cell's simulated length).
const CACHE_VARIANTS: usize = 2;
const CACHE_ITERS: u64 = 2;
/// Per-layer spans, in the order they are printed.
const LAYERS: [&str; 12] = [
    "image",
    "instance",
    "compile",
    "warmup",
    "isv",
    "scan",
    "roi",
    "collect",
    "render",
    "cache_key",
    "cache_read",
    "cache_decode",
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lebench,
    Apps,
    Audit,
    Cache,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut scratch = PathBuf::from(".perfbench_tmp/run");
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(match value.as_str() {
                        "lebench" => Kind::Lebench,
                        "apps" => Kind::Apps,
                        "audit" => Kind::Audit,
                        "cache" => Kind::Cache,
                        _ => return Err(bad()),
                    })
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--scratch" => scratch = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scratch,
        })
    }
}

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, stable generator, so inputs depend on the seed only.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` variants of every LEBench test, at half the figure's iteration
/// count. The tests make no user-mode work of their own; variant `v` runs
/// a seeded loop of `LEBENCH_WORK * v + 1 ..= LEBENCH_WORK * (v + 1)`
/// iterations before each call, so every seed compiles its own programs
/// and no two variants coincide, while the cost stays that of the calls.
/// (The calls' arguments stay as they are: descriptors, fd-set sizes and
/// copy lengths feed slab size classes, whose boundaries would turn a
/// small change into a jump in cost.)
fn lebench_inputs(n: usize, rng: &mut Rng) -> Vec<Workload> {
    let mut out = Vec::new();
    for mut w in lebench::suite() {
        w.iters = w.iters.div_ceil(2);
        for v in 0..n {
            w.user_work = (LEBENCH_WORK * v + 1 + rng.below(LEBENCH_WORK)) as u64;
            out.push(w.clone());
        }
    }
    out
}

/// `n` variants of every datacenter app, each serving [`APP_REQUESTS`]
/// requests with an eighth of the app's user-mode work, moved by distinct
/// seeded steps within ±3 %. Only the user-mode work varies, for the
/// reason [`lebench_inputs`] gives.
fn app_inputs(n: usize, rng: &mut Rng) -> Vec<Workload> {
    let mut out = Vec::new();
    for a in apps::apps() {
        let base = a.workload.user_work / 8;
        let spread = base * 3 / 100;
        let mut work: Vec<u64> = (base - spread..=base + spread).collect();
        rng.shuffle(&mut work);
        for &user_work in &work[..n] {
            let mut w = a.workload.clone();
            w.iters = APP_REQUESTS;
            w.user_work = user_work;
            out.push(w);
        }
    }
    out
}

/// Every (scheme, workload) cell of a matrix.
fn cells(schemes: &[Scheme], workloads: Vec<Workload>) -> Vec<(Scheme, Workload)> {
    workloads
        .into_iter()
        .flat_map(|w| schemes.iter().map(move |&s| (s, w.clone())))
        .collect()
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// Per-layer span totals. Spans are recorded only when tracing; the
/// layers of one operation run one after another, so a span's duration
/// is its layer's self time.
#[derive(Default)]
struct Spans {
    enabled: bool,
    layers: BTreeMap<&'static str, (Duration, u64)>,
    sim_insts: u64,
    sim_cycles: u64,
    ff_skipped: u64,
}

impl Spans {
    fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let e = self.layers.entry(layer).or_default();
        e.0 += t.elapsed();
        e.1 += 1;
        r
    }

    /// One simulated run of the program at `entry`, recorded under
    /// `layer` together with the simulated work it did.
    fn sim(
        &mut self,
        layer: &'static str,
        core: &mut Core,
        entry: u64,
        budget: u64,
    ) -> Result<(), String> {
        let (before, ff) = (core.stats(), core.ff_skipped_cycles());
        self.span(layer, || core.run(entry, budget))
            .map_err(|e| format!("{layer} run failed: {e}"))?;
        let d = core.stats().delta_since(&before);
        self.sim_insts += d.committed_insts;
        self.sim_cycles += d.cycles;
        self.ff_skipped += core.ff_skipped_cycles() - ff;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Step-by-step replays of the library's operations.
// ---------------------------------------------------------------------------

fn policy_of(inst: &SimInstance) -> Option<&PerspectivePolicy> {
    inst.core
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<PerspectivePolicy>())
}

/// The standard measurement protocol (`runner::measure_image_uncached`):
/// warmup with call tracing, install the scheme's ISV, reset counters,
/// measure the ROI as a statistics delta.
fn replay_cell(
    sp: &mut Spans,
    scheme: Scheme,
    image: &KernelImage,
    w: &Workload,
) -> Result<Measurement, String> {
    let pcfg = PerspectiveConfig::default();
    let mut inst = sp.span("instance", || {
        SimInstance::from_image_core(scheme, image, pcfg, CoreConfig::paper_default())
    });
    let (text, data) = (inst.text_base(), inst.data_base());
    sp.span("compile", || {
        inst.core.machine.load_text(w.compile(text, data))
    });
    inst.core.enable_call_trace();
    sp.sim("warmup", &mut inst.core, text, CELL_BUDGET)?;

    let graph = &image.graph;
    let trace = sp.span("isv", || {
        trace_to_funcs(graph, &inst.core.take_call_trace())
    });
    let view = match scheme {
        Scheme::PerspectiveStatic => {
            Some(sp.span("isv", || Isv::static_for(graph, &w.syscall_profile())))
        }
        Scheme::Perspective => Some(sp.span("isv", || Isv::dynamic_from_funcs(graph, trace))),
        Scheme::PerspectivePlusPlus => {
            let dynamic = sp.span("isv", || Isv::dynamic_from_funcs(graph, trace));
            let machine = &inst.core.machine;
            let report = sp.span("scan", || {
                scan_bounded(graph, dynamic.funcs(), |pc| machine.inst_at(pc))
            });
            Some(sp.span("isv", || {
                dynamic.hardened_with_audit(graph, report.flagged_functions())
            }))
        }
        _ => None,
    };
    let isv_funcs = view.as_ref().map(Isv::num_funcs);
    if let (Some(p), Some(view)) = (&inst.perspective, view) {
        sp.span("isv", || p.install_isv(inst.asid, view));
    }

    inst.core.policy_mut().reset_counters();
    if let Some(p) = inst
        .core
        .policy_mut()
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<PerspectivePolicy>())
    {
        p.reset_measurement();
    }
    let before = inst.core.stats();
    sp.sim("roi", &mut inst.core, text, CELL_BUDGET)?;

    Ok(sp.span("collect", || {
        let stats = inst.core.stats().delta_since(&before);
        let policy = policy_of(&inst);
        let mut metrics = MetricsRegistry::new();
        stats.export_metrics("sim", &mut metrics);
        if let Some(p) = policy {
            p.export_metrics("policy", &mut metrics);
        }
        inst.kernel.borrow().export_metrics("kernel", &mut metrics);
        Measurement {
            scheme,
            workload: w.name,
            stats,
            fences: policy.map(PerspectivePolicy::fence_breakdown),
            isv_cache: policy.map(PerspectivePolicy::isv_cache_stats),
            dsvmt_cache: policy.map(PerspectivePolicy::dsvmt_cache_stats),
            isv_funcs,
            metrics,
        }
    }))
}

/// Sizes of an audit's (static, dynamic, hardened) views and the gadgets
/// the hardened view still contains.
type AuditSizes = (usize, usize, usize, usize);

fn audit_sizes(image: &KernelImage, s: &Isv, d: &Isv, pp: &Isv) -> AuditSizes {
    let left = image.graph.gadgets_within(pp.funcs()).len();
    (s.num_funcs(), d.num_funcs(), pp.num_funcs(), left)
}

/// The audit pipeline (`persp_bench::isv_trio`): a fetch instance, a
/// traced run on a second instance, the static and dynamic views, the
/// bounded scan and the hardened view.
fn replay_audit(
    sp: &mut Spans,
    image: &KernelImage,
    w: &Workload,
    profile: &[Sysno],
) -> Result<AuditSizes, String> {
    let fetch = sp.span("instance", || {
        SimInstance::from_image(Scheme::Unsafe, image)
    });
    let mut inst = sp.span("instance", || {
        SimInstance::from_image(Scheme::Unsafe, image)
    });
    let (text, data) = (inst.text_base(), inst.data_base());
    sp.span("compile", || {
        inst.core.machine.load_text(w.compile(text, data))
    });
    inst.core.enable_call_trace();
    sp.sim("warmup", &mut inst.core, text, TRACE_BUDGET)?;
    let graph = &image.graph;
    let trace = sp.span("isv", || {
        trace_to_funcs(graph, &inst.core.take_call_trace())
    });
    let (s, d) = sp.span("isv", || {
        (
            Isv::static_for(graph, profile),
            Isv::dynamic_from_funcs(graph, trace),
        )
    });
    let machine = &fetch.core.machine;
    let report = sp.span("scan", || {
        scan_bounded(graph, d.funcs(), |pc| machine.inst_at(pc))
    });
    let pp = sp.span("isv", || {
        d.clone()
            .hardened_with_audit(graph, report.flagged_functions())
    });
    Ok(audit_sizes(image, &s, &d, &pp))
}

/// A cell-cache hit (`memo::cached_measure` in `on` mode): derive the key,
/// read the entry, decode it against the canonical inputs.
fn replay_lookup(
    sp: &mut Spans,
    dir: &Path,
    scheme: Scheme,
    image: &KernelImage,
    w: &Workload,
) -> Result<Measurement, String> {
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());
    let (canonical, path) = sp.span("cache_key", || {
        let c = memo::canonical_cell(Protocol::Standard, scheme, &image.cfg, &pcfg, &core, w);
        let path = memo::entry_path(dir, memo::cell_key(&c));
        (c, path)
    });
    let bytes = sp
        .span("cache_read", || std::fs::read(&path))
        .map_err(|e| format!("cache entry {path:?} unreadable: {e}"))?;
    sp.span("cache_decode", || {
        memo::decode_entry(&bytes, &canonical, scheme, w.name)
    })
}

fn library_lookup(
    dir: &Path,
    scheme: Scheme,
    image: &KernelImage,
    w: &Workload,
) -> Result<Measurement, String> {
    memo::cached_measure(
        &CacheConfig::on(dir),
        Protocol::Standard,
        scheme,
        &image.cfg,
        &PerspectiveConfig::default(),
        &CoreConfig::paper_default(),
        w,
        || Err(format!("unexpected cache miss for {} / {scheme}", w.name)),
    )
}

/// Look a cell up in the cache at `dir`, computing and storing it on a miss.
fn store_cell(
    dir: &Path,
    scheme: Scheme,
    image: &KernelImage,
    w: &Workload,
) -> Result<Measurement, String> {
    memo::cached_measure(
        &CacheConfig::on(dir),
        Protocol::Standard,
        scheme,
        &image.cfg,
        &PerspectiveConfig::default(),
        &CoreConfig::paper_default(),
        w,
        || library_cell(scheme, image, w),
    )
}

fn library_cell(scheme: Scheme, image: &KernelImage, w: &Workload) -> Result<Measurement, String> {
    measure_image_uncached(
        scheme,
        image,
        w,
        PerspectiveConfig::default(),
        CoreConfig::paper_default(),
    )
}

fn render(sp: &mut Spans, m: &Measurement) -> String {
    sp.span("render", || measurement_to_json_full(m).render())
}

/// Invariants every measured cell must satisfy.
fn check_cell(m: &Measurement, w: &Workload) -> Result<(), String> {
    let s = &m.stats;
    let fail = |what: &str| Err(format!("{} / {}: {what}", w.name, m.scheme));
    if s.cycles == 0 || s.committed_insts == 0 {
        return fail("empty ROI");
    }
    if s.syscalls != w.total_syscalls() {
        return fail(&format!(
            "{} syscalls committed, workload makes {}",
            s.syscalls,
            w.total_syscalls()
        ));
    }
    if s.stalls.total() != s.stall_cycles {
        return fail("stall classes do not partition the stall cycles");
    }
    if m.metrics.get("sim.cycles") != Some(s.cycles) {
        return fail("metrics registry disagrees with the ROI statistics");
    }
    if m.scheme.is_perspective() != m.fences.is_some() {
        return fail("fence attribution present iff the scheme is a Perspective scheme");
    }
    Ok(())
}

fn check_audit(sizes: AuditSizes, name: &str) -> Result<(), String> {
    let (s, d, pp, left) = sizes;
    if s == 0 || d == 0 || pp > d {
        return Err(format!(
            "{name}: view sizes static {s}, dynamic {d}, hardened {pp} out of order"
        ));
    }
    if left != 0 {
        return Err(format!("{name}: hardened view still hosts {left} gadgets"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

/// One workload's inputs and set-up state.
struct Bench {
    image: KernelImage,
    cells: Vec<(Scheme, Workload)>,
    audits: Vec<(Workload, Vec<Sysno>)>,
    /// `cache` only: the entry directory and each cell's cold rendering.
    store: Option<(PathBuf, Vec<String>)>,
}

impl Bench {
    fn ops(&self) -> usize {
        self.cells.len().max(self.audits.len())
    }

    /// Run operation `i`, returning a fingerprint of its output that must
    /// be identical on every pass.
    fn op(&self, kind: Kind, sp: &mut Spans, i: usize) -> Result<String, String> {
        let image = &self.image;
        match kind {
            Kind::Lebench | Kind::Apps => {
                let (scheme, w) = &self.cells[i];
                let m = if sp.enabled {
                    replay_cell(sp, *scheme, image, w)?
                } else {
                    library_cell(*scheme, image, w)?
                };
                check_cell(&m, w)?;
                Ok(render(sp, &m))
            }
            Kind::Audit => {
                let (w, profile) = &self.audits[i];
                let sizes = if sp.enabled {
                    replay_audit(sp, image, w, profile)?
                } else {
                    let (s, d, pp, _) = isv_trio(image, w, profile);
                    audit_sizes(image, &s, &d, &pp)
                };
                check_audit(sizes, w.name)?;
                Ok(format!("{sizes:?}"))
            }
            Kind::Cache => {
                let (scheme, w) = &self.cells[i];
                let (dir, cold) = self.store.as_ref().expect("cache workload has a store");
                let m = if sp.enabled {
                    replay_lookup(sp, dir, *scheme, image, w)?
                } else {
                    library_lookup(dir, *scheme, image, w)?
                };
                let hit = render(sp, &m);
                if hit != cold[i] {
                    return Err(format!(
                        "{} / {scheme}: cache hit differs from the cold cell",
                        w.name
                    ));
                }
                Ok(hit)
            }
        }
    }
}

/// Build the workload's inputs and state. Everything here is set-up.
fn setup(sp: &mut Spans, kind: Kind, seed: u64, dir: &Path) -> Result<Bench, String> {
    let mut rng = Rng(seed);
    let cfg = match kind {
        Kind::Audit => KernelConfig::paper(),
        _ => KernelConfig::test_small(),
    };
    let image = sp.span("image", || KernelImage::build(cfg));
    let mut bench = Bench {
        image,
        cells: Vec::new(),
        audits: Vec::new(),
        store: None,
    };
    match kind {
        Kind::Lebench => bench.cells = cells(Scheme::ALL, lebench_inputs(1, &mut rng)),
        Kind::Apps => bench.cells = cells(Scheme::ALL, app_inputs(APP_VARIANTS, &mut rng)),
        Kind::Audit => {
            let mut ws = lebench_inputs(1, &mut rng);
            ws.extend(app_inputs(1, &mut rng));
            bench.audits = ws
                .into_iter()
                .map(|w| {
                    // A declared profile over-approximates the traced one:
                    // add up to three syscalls the workload never makes.
                    let mut profile = w.syscall_profile();
                    for _ in 0..rng.below(4) {
                        profile.push(Sysno::ALL[rng.below(Sysno::ALL.len())]);
                    }
                    profile.sort_unstable();
                    profile.dedup();
                    (w, profile)
                })
                .collect();
        }
        Kind::Cache => {
            let mut ws = lebench_inputs(CACHE_VARIANTS, &mut rng);
            for w in &mut ws {
                w.iters = CACHE_ITERS;
            }
            bench.cells = cells(Scheme::MAIN, ws);
            if dir.exists() {
                std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
            }
            let mut cold = Vec::new();
            for (scheme, w) in &bench.cells {
                let m = store_cell(dir, *scheme, &bench.image, w)?;
                cold.push(measurement_to_json_full(&m).render());
            }
            bench.store = Some((dir.to_path_buf(), cold));
        }
    }
    Ok(bench)
}

/// Self-check before a traced run: on a reference LEBench test, the
/// step-by-step replays reproduce the library's cells (byte for byte),
/// audit and cache round trip. Its spans are the caller's to discard.
fn self_check(sp: &mut Spans, image: &KernelImage, dir: &Path) -> Result<(), String> {
    let w = lebench::by_name("small-read").expect("LEBench has small-read");
    for &scheme in Scheme::MAIN {
        let lib = library_cell(scheme, image, &w)?;
        let rep = replay_cell(sp, scheme, image, &w)?;
        check_cell(&lib, &w)?;
        let (a, b) = (measurement_to_json_full(&lib).render(), render(sp, &rep));
        if a != b {
            return Err(format!("replayed {scheme} cell differs from the library's"));
        }
    }
    let profile = w.syscall_profile();
    let (s, d, pp, _) = isv_trio(image, &w, &profile);
    let lib = audit_sizes(image, &s, &d, &pp);
    check_audit(lib, w.name)?;
    if replay_audit(sp, image, &w, &profile)? != lib {
        return Err("replayed audit differs from the library's".into());
    }
    let scheme = Scheme::Perspective;
    let cold = store_cell(dir, scheme, image, &w)?;
    let hit = replay_lookup(sp, dir, scheme, image, &w)?;
    let lib_hit = library_lookup(dir, scheme, image, &w)?;
    let cold = measurement_to_json_full(&cold).render();
    if render(sp, &hit) != cold || measurement_to_json_full(&lib_hit).render() != cold {
        return Err("cache round trip changed the reference cell".into());
    }
    Ok(())
}

/// Run the benchmark with `--scratch` as a private directory for cache
/// entries, removed afterwards.
fn run(args: &Args) -> Result<String, String> {
    let result = run_in(args, &args.scratch);
    let _ = std::fs::remove_dir_all(&args.scratch);
    result
}

fn run_in(args: &Args, run_dir: &Path) -> Result<String, String> {
    let mut sp = Spans {
        enabled: args.trace,
        ..Spans::default()
    };
    let store_dir = run_dir.join("cells");
    let mut setup_times = Vec::new();
    let mut bench = None;
    let setup_start = Instant::now();
    while bench.is_none() || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        bench = Some(setup(&mut sp, args.kind, args.seed, &store_dir)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");

    let self_check_ok = !args.trace
        || match self_check(&mut Spans::default(), &bench.image, &run_dir.join("check")) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("perfbench: self-check failed: {e}");
                false
            }
        };
    memo::reset_stats();

    let mut rng = Rng(args.seed ^ 0x6f70_5f6f_7264_6572);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut best = vec![f64::INFINITY; bench.ops()];
    let mut first: Vec<Option<String>> = vec![None; bench.ops()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        let mut order: Vec<usize> = (0..bench.ops()).collect();
        rng.shuffle(&mut order);
        for i in order {
            attempted += 1;
            let t = Instant::now();
            let out = bench.op(args.kind, &mut sp, i);
            best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e3);
            let ok = match out {
                Ok(fp) => match &first[i] {
                    None => {
                        first[i] = Some(fp);
                        true
                    }
                    Some(prev) if *prev == fp => true,
                    Some(_) => {
                        eprintln!("perfbench: operation {i} changed its output between passes");
                        false
                    }
                },
                Err(e) => {
                    eprintln!("perfbench: operation {i} failed: {e}");
                    false
                }
            };
            failed += u64::from(!ok);
        }
        passes += 1;
        // Another pass if it ends nearer the budget than stopping now.
        let mean_pass = start.elapsed() / passes;
        if start.elapsed() + mean_pass / 2 >= budget {
            break;
        }
    }

    let cache = memo::stats();
    if args.kind == Kind::Cache && !args.trace && (cache.hits != attempted || cache.misses != 0) {
        eprintln!(
            "perfbench: {attempted} lookups gave {} hits and {} misses",
            cache.hits, cache.misses
        );
        failed += 1;
    }
    eprintln!(
        "perfbench: {attempted} operations in {:.2} s, {passes} passes",
        start.elapsed().as_secs_f64()
    );

    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        format!("[{}]", items.join(", "))
    };
    let layers: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            let (d, n) = sp.layers.get(l).copied().unwrap_or_default();
            format!("\"{l}\": [{:?}, {n}]", d.as_secs_f64())
        })
        .collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"setup_s\": {}, \"best_ms\": {}, \"layers\": {{{}}}, \
         \"sim_insts\": {}, \"sim_cycles\": {}, \"ff_skipped\": {}}}",
        self_check_ok && failed == 0,
        list(&setup_times),
        list(&best),
        layers.join(", "),
        sp.sim_insts,
        sp.sim_cycles,
        sp.ff_skipped,
    );
    Ok(out)
}
