//! Experiment E14 — §9.2 sensitivity analyses: hardware-structure hit
//! rates, the cost of blocking unknown allocations, secure-slab memory
//! fragmentation, and domain-reassignment frequency.

use persp_bench::{cell, header, kernel_image, mean, output, pct};
use persp_kernel::context::CgroupId;
use persp_kernel::kernel::KernelImage;
use persp_kernel::mm::{BuddyAllocator, SlabAllocator};
use persp_kernel::sink::NullSink;
use persp_workloads::report::Json;
use persp_workloads::{apps, lebench, run_parallel, runner, RunConfig};
use perspective::hwcache::HwCacheStats;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const HIT_RATE_NAMES: [&str; 5] = ["getpid", "select", "small-read", "big-write", "poll"];
const UNKNOWN_NAMES: [&str; 4] = ["getpid", "small-read", "poll", "page-fault"];
/// Instruction budget of a domain-reassignment app run: a guard against
/// a runaway workload, far above what any app retires.
const APP_RUN_INSTS: u64 = 800_000_000;

/// Every figure the four analyses report.
struct Figures {
    /// Per [`HIT_RATE_NAMES`] workload, the ISV-cache and DSVMT-cache hit
    /// rates; then their averages.
    hit_rates: Vec<(f64, f64)>,
    hit_avg: (f64, f64),
    /// Per [`UNKNOWN_NAMES`] workload, the cost of blocking unknown
    /// allocations and the unknown-allocation fences; then the mean cost.
    unknown: Vec<(f64, u64)>,
    unknown_avg: f64,
    /// Slab utilization (baseline, secure), the memory overhead of
    /// isolation and the secure allocator's page-op ratio.
    frag: [f64; 4],
    /// Per app: slab object frees, page frees, and their ratio.
    reassign: Vec<(&'static str, u64, u64, f64)>,
}

fn hit_rates(cfg: &RunConfig, image: &KernelImage) -> Vec<(f64, f64)> {
    run_parallel(cfg.threads, HIT_RATE_NAMES.to_vec(), |name| {
        let w = lebench::by_name(name).unwrap();
        let m = cell(cfg, image, Scheme::Perspective, &w, Default::default());
        let rate = |c: Option<HwCacheStats>| c.unwrap().hit_rate();
        (rate(m.isv_cache), rate(m.dsvmt_cache))
    })
}

/// Two cells per workload — blocking on, blocking off — run as one
/// parallel batch.
fn unknown_allocations(cfg: &RunConfig, image: &KernelImage) -> Vec<(f64, u64)> {
    let jobs: Vec<(&str, bool)> = UNKNOWN_NAMES
        .iter()
        .flat_map(|&w| [(w, true), (w, false)])
        .collect();
    let cells = run_parallel(cfg.threads, jobs, |(name, block)| {
        let workload = lebench::by_name(name).unwrap();
        let pcfg = PerspectiveConfig {
            block_unknown: block,
            ..Default::default()
        };
        cell(cfg, image, Scheme::Perspective, &workload, pcfg)
    });
    cells
        .chunks(2)
        .map(|pair| {
            let (blocked, allowed) = (&pair[0], &pair[1]);
            let fences = blocked.fences.as_ref().unwrap().unknown;
            (runner::overhead(blocked, allowed), fences)
        })
        .collect()
}

/// Slab traffic shaped like the datacenter workloads: transient metadata
/// allocations from four mutually distrusting cgroups, measured with
/// `slabtop`-style utilization on the baseline vs. the secure allocator.
/// Returns [`Figures::frag`].
fn fragmentation(threads: usize) -> [f64; 4] {
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
    let runs = run_parallel(threads, vec![false, true], run);
    let ((abase, tbase, _), (asec, tsec, ratio)) = (runs[0], runs[1]);
    [
        abase as f64 / tbase.max(1) as f64,
        asec as f64 / tsec.max(1) as f64,
        tsec as f64 / tbase.max(1) as f64 - 1.0,
        ratio,
    ]
}

fn domain_reassignment(threads: usize, image: &KernelImage) -> Vec<(&'static str, u64, u64, f64)> {
    run_parallel(threads, apps::apps(), |app| {
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
        let s = inst.kernel.borrow().slab.stats();
        (
            app.workload.name,
            s.object_frees,
            s.page_frees,
            s.page_op_ratio(),
        )
    })
}

impl Figures {
    fn json(&self) -> Vec<(&'static str, Json)> {
        let hit_rows = HIT_RATE_NAMES
            .iter()
            .zip(&self.hit_rates)
            .map(|(name, (i, d))| {
                Json::obj(vec![
                    ("workload", Json::str(*name)),
                    ("isv_cache_hit_rate", Json::str(pct(*i))),
                    ("dsvmt_cache_hit_rate", Json::str(pct(*d))),
                ])
            });
        let unknown_rows = UNKNOWN_NAMES
            .iter()
            .zip(&self.unknown)
            .map(|(name, (cost, fences))| {
                Json::obj(vec![
                    ("workload", Json::str(*name)),
                    ("blocking_cost", Json::str(pct(*cost))),
                    ("unknown_fences", Json::UInt(*fences)),
                ])
            });
        let keys = [
            "baseline_utilization",
            "secure_utilization",
            "memory_overhead",
            "page_op_ratio",
        ];
        let frag = keys
            .into_iter()
            .zip(self.frag)
            .map(|(k, v)| (k, Json::str(pct(v))));
        let reassign_rows = self.reassign.iter().map(|&(app, objects, pages, ratio)| {
            Json::obj(vec![
                ("app", Json::str(app)),
                ("object_frees", Json::UInt(objects)),
                ("page_frees", Json::UInt(pages)),
                ("page_op_ratio", Json::str(pct(ratio))),
            ])
        });
        vec![
            ("hit_rates", Json::Array(hit_rows.collect())),
            ("unknown_allocations", Json::Array(unknown_rows.collect())),
            ("fragmentation", Json::obj(frag.collect())),
            ("domain_reassignment", Json::Array(reassign_rows.collect())),
        ]
    }

    fn transcript(&self) {
        header("Sensitivity analyses", "paper §9.2");

        println!("--- Hardware structures (ISV cache / DSVMT cache hit rates) ---");
        for (name, (i, d)) in HIT_RATE_NAMES.iter().zip(&self.hit_rates) {
            let (i, d) = (pct(*i), pct(*d));
            println!("  {name:<12} ISV cache {i:>6}   DSVMT cache {d:>6}");
        }
        let (i, d) = (pct(self.hit_avg.0), pct(self.hit_avg.1));
        println!("  average      ISV cache {i:>6}   DSVMT cache {d:>6}");
        println!("  paper: both close to 99%\n");

        println!("--- Unknown allocations (block vs. allow, §9.2) ---");
        for (name, (cost, fences)) in UNKNOWN_NAMES.iter().zip(&self.unknown) {
            let cost = pct(*cost);
            println!("  {name:<12} blocking unknown costs {cost:>6}  (unknown fences: {fences})");
        }
        let avg = pct(self.unknown_avg);
        println!("  average overhead attributable to unknown allocations: {avg}");
        println!("  paper: ~1.5% of Perspective's overhead on LEBench, marginal on apps\n");

        println!("--- Memory fragmentation of the secure slab allocator (§9.2) ---");
        let [base, secure, overhead, ratio] = self.frag.map(pct);
        println!("  baseline slab utilization: {base}");
        println!("  secure   slab utilization: {secure}");
        println!("  memory usage overhead of isolation: {overhead}");
        println!("  page-level ops per object free (secure): {ratio}");
        println!("  paper: 0.91% memory overhead; page-op ratios 0.003%-0.23%\n");

        println!("--- Domain reassignment during app runs (§9.2) ---");
        for &(app, objects, pages, ratio) in &self.reassign {
            let ratio = pct(ratio);
            println!("  {app:<10} object frees {objects:>6}, page-level ops {pages:>4} ({ratio} of frees)");
        }
        println!("  paper: 0.003%-0.23% of frees cause a page-level domain reassignment\n");
    }
}

fn main() {
    let cfg = RunConfig::from_process();
    let image = kernel_image(&cfg);
    let hit_rates = hit_rates(&cfg, &image);
    let unknown = unknown_allocations(&cfg, &image);
    let figures = Figures {
        hit_avg: (
            mean(hit_rates.iter().map(|r| r.0), hit_rates.len()),
            mean(hit_rates.iter().map(|r| r.1), hit_rates.len()),
        ),
        hit_rates,
        unknown_avg: mean(unknown.iter().map(|r| r.0), unknown.len()),
        unknown,
        frag: fragmentation(cfg.threads),
        reassign: domain_reassignment(cfg.threads, &image),
    };
    output(
        &cfg,
        "sensitivity",
        || figures.json(),
        || figures.transcript(),
    );
}
