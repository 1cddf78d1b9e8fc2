//! Experiment E14 — §9.2 sensitivity analyses: hardware-structure hit
//! rates, the cost of blocking unknown allocations, secure-slab memory
//! fragmentation, and domain-reassignment frequency.

use persp_bench::{header, kernel_image, pct};
use persp_kernel::context::CgroupId;
use persp_kernel::kernel::KernelImage;
use persp_kernel::mm::{BuddyAllocator, SlabAllocator, SlabStats};
use persp_kernel::sink::NullSink;
use persp_uarch::config::CoreConfig;
use persp_workloads::report::{self, Json};
use persp_workloads::runner::Measurement;
use persp_workloads::{apps, lebench, runner};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const HIT_RATE_NAMES: [&str; 5] = ["getpid", "select", "small-read", "big-write", "poll"];
const UNKNOWN_NAMES: [&str; 4] = ["getpid", "small-read", "poll", "page-fault"];
/// Instruction budget of a domain-reassignment app run: a guard against
/// a runaway workload, far above what any app retires.
const APP_RUN_INSTS: u64 = 800_000_000;

fn hit_rates(image: &KernelImage, threads: usize, core: CoreConfig) -> Vec<(f64, f64)> {
    runner::run_parallel(threads, HIT_RATE_NAMES.to_vec(), |name| {
        let w = lebench::by_name(name).unwrap();
        let pcfg = PerspectiveConfig::default();
        let m = runner::measure(Scheme::Perspective, image, &w, pcfg, core)
            .unwrap_or_else(|e| panic!("{e}"));
        (
            m.isv_cache.unwrap().hit_rate(),
            m.dsvmt_cache.unwrap().hit_rate(),
        )
    })
}

fn print_hit_rates(rates: &[(f64, f64)]) {
    println!("--- Hardware structures (ISV cache / DSVMT cache hit rates) ---");
    let mut isv_sum = 0.0;
    let mut dsv_sum = 0.0;
    for (name, (i, d)) in HIT_RATE_NAMES.iter().zip(rates) {
        isv_sum += i;
        dsv_sum += d;
        println!(
            "  {name:<12} ISV cache {:>6}   DSVMT cache {:>6}",
            pct(*i),
            pct(*d)
        );
    }
    let n = rates.len() as f64;
    println!(
        "  average      ISV cache {:>6}   DSVMT cache {:>6}",
        pct(isv_sum / n),
        pct(dsv_sum / n)
    );
    println!("  paper: both close to 99%");
    println!();
}

/// Two cells per workload — blocking on, blocking off — run as one
/// parallel batch; chunked pairwise by the consumers.
fn unknown_allocations(image: &KernelImage, threads: usize, core: CoreConfig) -> Vec<Measurement> {
    let jobs: Vec<(usize, bool)> = (0..UNKNOWN_NAMES.len())
        .flat_map(|w| [(w, true), (w, false)])
        .collect();
    runner::run_parallel(threads, jobs, |(w, block)| {
        let workload = lebench::by_name(UNKNOWN_NAMES[w]).unwrap();
        let cfg = PerspectiveConfig {
            block_unknown: block,
            ..Default::default()
        };
        runner::measure(Scheme::Perspective, image, &workload, cfg, core)
            .unwrap_or_else(|e| panic!("{e}"))
    })
}

fn print_unknown_allocations(cells: &[Measurement]) {
    println!("--- Unknown allocations (block vs. allow, §9.2) ---");
    let mut deltas = Vec::new();
    for (name, pair) in UNKNOWN_NAMES.iter().zip(cells.chunks(2)) {
        let (blocked, allowed) = (&pair[0], &pair[1]);
        let delta = blocked.stats.cycles as f64 / allowed.stats.cycles.max(1) as f64 - 1.0;
        deltas.push(delta);
        println!(
            "  {name:<12} blocking unknown costs {:>6}  (unknown fences: {})",
            pct(delta),
            blocked.fences.as_ref().unwrap().unknown
        );
    }
    let avg = deltas.iter().sum::<f64>() / deltas.len() as f64;
    println!(
        "  average overhead attributable to unknown allocations: {}",
        pct(avg)
    );
    println!("  paper: ~1.5% of Perspective's overhead on LEBench, marginal on apps");
    println!();
}

/// Slab traffic shaped like the datacenter workloads: transient metadata
/// allocations from four mutually distrusting cgroups, measured with
/// `slabtop`-style utilization on the baseline vs. the secure allocator.
/// Returns `[(active, total, page_op_ratio); 2]` for baseline, secure.
fn fragmentation(threads: usize) -> Vec<(u64, u64, f64)> {
    let run = |secure: bool| -> (u64, u64, f64) {
        // Per-run rng so the two configurations see identical traffic
        // (and so both can run concurrently).
        let mut rng = SmallRng::seed_from_u64(42);
        let mut buddy = BuddyAllocator::new(1 << 16);
        let mut slab = SlabAllocator::new(secure);
        let mut sink = NullSink;
        let mut live: Vec<(u64, CgroupId)> = Vec::new();
        for i in 0..120_000u64 {
            let cg: CgroupId = 1 + (i % 4) as CgroupId;
            let sizes = [64, 128, 256, 1024];
            let size = sizes[rng.gen_range(0..sizes.len())];
            if let Some(va) = slab.kmalloc(size, cg, &mut buddy, &mut sink) {
                live.push((va, cg));
            }
            // Free with redis-like churn over a sizeable resident set
            // (slabtop-scale: tens of thousands of live objects).
            while live.len() > 24_000 {
                let idx = rng.gen_range(0..live.len());
                let (va, _) = live.swap_remove(idx);
                slab.kfree(va, &mut buddy, &mut sink);
            }
        }
        let (active, total) = slab.utilization();
        (active, total, slab.stats().page_op_ratio())
    };
    runner::run_parallel(threads, vec![false, true], run)
}

/// Derived fragmentation figures: baseline/secure utilization, memory
/// overhead of isolation, secure page-op ratio.
fn fragmentation_figures(runs: &[(u64, u64, f64)]) -> (f64, f64, f64, f64) {
    let (abase, tbase, _) = runs[0];
    let (asec, tsec, ratio) = runs[1];
    let util_base = abase as f64 / tbase.max(1) as f64;
    let util_sec = asec as f64 / tsec.max(1) as f64;
    let overhead = tsec as f64 / tbase.max(1) as f64 - 1.0;
    (util_base, util_sec, overhead, ratio)
}

fn print_fragmentation(runs: &[(u64, u64, f64)]) {
    println!("--- Memory fragmentation of the secure slab allocator (§9.2) ---");
    let (util_base, util_sec, overhead, ratio) = fragmentation_figures(runs);
    println!("  baseline slab utilization: {}", pct(util_base));
    println!("  secure   slab utilization: {}", pct(util_sec));
    println!("  memory usage overhead of isolation: {}", pct(overhead));
    println!("  page-level ops per object free (secure): {}", pct(ratio));
    println!("  paper: 0.91% memory overhead; page-op ratios 0.003%-0.23%");
    println!();
}

fn domain_reassignment(image: &KernelImage, threads: usize) -> Vec<(&'static str, SlabStats)> {
    runner::run_parallel(threads, apps::apps(), |app| {
        let mut inst = persp_workloads::SimInstance::from_image(Scheme::Perspective, image);
        let text = inst.text_base();
        let data = inst.data_base();
        // A longer serving window than the throughput runs, so the free
        // counter is statistically meaningful.
        let mut workload = app.workload.clone();
        workload.iters *= 4;
        inst.core.machine.load_text(workload.compile(text, data));
        // Slab counts are architectural: retire in commit order.
        inst.core
            .run_in_order(text, APP_RUN_INSTS)
            .expect("app run");
        let stats = inst.kernel.borrow().slab.stats();
        (app.workload.name, stats)
    })
}

fn print_domain_reassignment(rows: &[(&'static str, SlabStats)]) {
    println!("--- Domain reassignment during app runs (§9.2) ---");
    for (name, stats) in rows {
        println!(
            "  {:<10} object frees {:>6}, page-level ops {:>4} ({} of frees)",
            name,
            stats.object_frees,
            stats.page_frees,
            pct(stats.page_op_ratio()),
        );
    }
    println!("  paper: 0.003%-0.23% of frees cause a page-level domain reassignment");
    println!();
}

fn json_doc(
    rates: &[(f64, f64)],
    cells: &[Measurement],
    runs: &[(u64, u64, f64)],
    reassign: &[(&'static str, SlabStats)],
) -> Json {
    let hit_rows = HIT_RATE_NAMES
        .iter()
        .zip(rates)
        .map(|(name, (i, d))| {
            Json::obj(vec![
                ("workload", Json::str(*name)),
                ("isv_cache_hit_rate", Json::str(pct(*i))),
                ("dsvmt_cache_hit_rate", Json::str(pct(*d))),
            ])
        })
        .collect();
    let unknown_rows = UNKNOWN_NAMES
        .iter()
        .zip(cells.chunks(2))
        .map(|(name, pair)| {
            let (blocked, allowed) = (&pair[0], &pair[1]);
            let delta = blocked.stats.cycles as f64 / allowed.stats.cycles.max(1) as f64 - 1.0;
            Json::obj(vec![
                ("workload", Json::str(*name)),
                ("blocking_cost", Json::str(pct(delta))),
                (
                    "unknown_fences",
                    Json::UInt(blocked.fences.as_ref().unwrap().unknown),
                ),
            ])
        })
        .collect();
    let (util_base, util_sec, overhead, ratio) = fragmentation_figures(runs);
    let frag = Json::obj(vec![
        ("baseline_utilization", Json::str(pct(util_base))),
        ("secure_utilization", Json::str(pct(util_sec))),
        ("memory_overhead", Json::str(pct(overhead))),
        ("page_op_ratio", Json::str(pct(ratio))),
    ]);
    let reassign_rows = reassign
        .iter()
        .map(|(name, stats)| {
            Json::obj(vec![
                ("app", Json::str(*name)),
                ("object_frees", Json::UInt(stats.object_frees)),
                ("page_frees", Json::UInt(stats.page_frees)),
                ("page_op_ratio", Json::str(pct(stats.page_op_ratio()))),
            ])
        })
        .collect();
    report::experiment_json(
        "sensitivity",
        vec![
            ("hit_rates", Json::Array(hit_rows)),
            ("unknown_allocations", Json::Array(unknown_rows)),
            ("fragmentation", frag),
            ("domain_reassignment", Json::Array(reassign_rows)),
        ],
    )
}

fn main() {
    let json = report::json_mode();
    if !json {
        header("Sensitivity analyses", "paper §9.2");
    }
    let (threads, core) = (runner::num_threads(), runner::core_config_from_env());
    let image = kernel_image();
    let rates = hit_rates(&image, threads, core);
    if !json {
        print_hit_rates(&rates);
    }
    let cells = unknown_allocations(&image, threads, core);
    if !json {
        print_unknown_allocations(&cells);
    }
    let runs = fragmentation(threads);
    if !json {
        print_fragmentation(&runs);
    }
    let reassign = domain_reassignment(&image, threads);
    if json {
        report::emit(&json_doc(&rates, &cells, &runs, &reassign));
    } else {
        print_domain_reassignment(&reassign);
    }
}
