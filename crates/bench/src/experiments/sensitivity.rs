//! Experiment E14 — §9.2 sensitivity analyses: hardware-structure hit
//! rates, the cost of blocking unknown allocations, secure-slab memory
//! fragmentation, and domain-reassignment frequency.

use crate::{cells, header, lebench_tests, mean, output, pct, Images, Output};
use persp_kernel::context::CgroupId;
use persp_kernel::kernel::KernelImage;
use persp_kernel::mm::{BuddyAllocator, SlabAllocator};
use persp_kernel::sink::NullSink;
use persp_workloads::report::Json;
use persp_workloads::{apps, run_parallel, runner, ArchInstance, Measurement, RunConfig};
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

fn hit_rates(cfg: &RunConfig, image: &KernelImage) -> Result<Vec<(f64, f64)>, String> {
    let workloads = lebench_tests(&HIT_RATE_NAMES);
    let pcfg = PerspectiveConfig::default();
    let jobs = workloads.iter().map(|w| (Scheme::Perspective, w, pcfg));
    let rate = |c: Option<HwCacheStats>| c.unwrap().hit_rate();
    let measured = cells(cfg, image, jobs.collect())?;
    Ok(measured
        .iter()
        .map(|m| (rate(m.isv_cache), rate(m.dsvmt_cache)))
        .collect())
}

/// Two cells per workload — blocking on, blocking off — run as one
/// parallel batch.
fn unknown_allocations(cfg: &RunConfig, image: &KernelImage) -> Result<Vec<(f64, u64)>, String> {
    let workloads = lebench_tests(&UNKNOWN_NAMES);
    let pcfg = |block_unknown| PerspectiveConfig {
        block_unknown,
        ..Default::default()
    };
    let jobs = workloads
        .iter()
        .flat_map(|w| [true, false].map(|b| (Scheme::Perspective, w, pcfg(b))));
    let measured = cells(cfg, image, jobs.collect())?;
    let row = |pair: &[Measurement]| {
        let (blocked, allowed) = (&pair[0], &pair[1]);
        let fences = blocked.fences.as_ref().unwrap().unknown;
        (runner::overhead(blocked, allowed), fences)
    };
    Ok(measured.chunks(2).map(row).collect())
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
        let mut inst = ArchInstance::new(Scheme::Perspective, image);
        let text = inst.text_base();
        let data = inst.data_base();
        // A longer serving window than the throughput runs, so the free
        // counter is statistically meaningful.
        let mut workload = app.workload.clone();
        workload.iters *= 4;
        inst.machine.load_text(workload.compile(text, data));
        // Slab counts are architectural: retire in commit order.
        inst.run_in_order(text, APP_RUN_INSTS, None)
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

    fn transcript(&self) -> String {
        let mut t = header("Sensitivity analyses", "paper §9.2");

        t += "--- Hardware structures (ISV cache / DSVMT cache hit rates) ---\n";
        for (name, (i, d)) in HIT_RATE_NAMES.iter().zip(&self.hit_rates) {
            let (i, d) = (pct(*i), pct(*d));
            t += &format!("  {name:<12} ISV cache {i:>6}   DSVMT cache {d:>6}\n");
        }
        let (i, d) = (pct(self.hit_avg.0), pct(self.hit_avg.1));
        t += &format!("  average      ISV cache {i:>6}   DSVMT cache {d:>6}\n");
        t += "  paper: both close to 99%\n\n";

        t += "--- Unknown allocations (block vs. allow, §9.2) ---\n";
        for (name, (cost, fences)) in UNKNOWN_NAMES.iter().zip(&self.unknown) {
            let cost = pct(*cost);
            t += &format!(
                "  {name:<12} blocking unknown costs {cost:>6}  (unknown fences: {fences})\n"
            );
        }
        let avg = pct(self.unknown_avg);
        t += &format!("  average overhead attributable to unknown allocations: {avg}\n");
        t += "  paper: ~1.5% of Perspective's overhead on LEBench, marginal on apps\n\n";

        t += "--- Memory fragmentation of the secure slab allocator (§9.2) ---\n";
        let [base, secure, overhead, ratio] = self.frag.map(pct);
        t += &format!("  baseline slab utilization: {base}\n");
        t += &format!("  secure   slab utilization: {secure}\n");
        t += &format!("  memory usage overhead of isolation: {overhead}\n");
        t += &format!("  page-level ops per object free (secure): {ratio}\n");
        t += "  paper: 0.91% memory overhead; page-op ratios 0.003%-0.23%\n\n";

        t += "--- Domain reassignment during app runs (§9.2) ---\n";
        for &(app, objects, pages, ratio) in &self.reassign {
            let ratio = pct(ratio);
            t += &format!("  {app:<10} object frees {objects:>6}, page-level ops {pages:>4} ({ratio} of frees)\n");
        }
        t + "  paper: 0.003%-0.23% of frees cause a page-level domain reassignment\n\n"
    }
}

/// Run the experiment.
pub fn run(cfg: &RunConfig, images: &Images) -> Result<Output, String> {
    let image = images.get(cfg);
    let hit_rates = hit_rates(cfg, image)?;
    let unknown = unknown_allocations(cfg, image)?;
    let figures = Figures {
        hit_avg: (
            mean(hit_rates.iter().map(|r| r.0), hit_rates.len()),
            mean(hit_rates.iter().map(|r| r.1), hit_rates.len()),
        ),
        hit_rates,
        unknown_avg: mean(unknown.iter().map(|r| r.0), unknown.len()),
        unknown,
        frag: fragmentation(cfg.threads),
        reassign: domain_reassignment(cfg.threads, image),
    };
    Ok(output(
        cfg,
        "sensitivity",
        || figures.json(),
        || figures.transcript(),
    ))
}
