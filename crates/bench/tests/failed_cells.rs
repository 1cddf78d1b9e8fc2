//! An experiment that measures single cells reports every failed cell by
//! name and returns `Err` instead of panicking on the first one.
//!
//! The experiment runs in this process with an explicit `RunConfig`, so
//! the test never touches the process environment.

use persp_bench::experiments::ablation;
use persp_bench::Images;
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::{lebench, runner, KernelScale, RunConfig};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

#[test]
fn ablation_names_the_one_doctored_cell() {
    let dir = std::env::temp_dir().join(format!("persp-failed-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunConfig {
        kernel: KernelScale::Small,
        threads: 2,
        cache: CacheConfig::verify(&dir),
        ..RunConfig::parse(|_| None, Vec::new()).0
    };

    // Store a doctored entry for ablation's UNSAFE getpid cell: well
    // formed, correctly checksummed, but one cycle off the real
    // measurement.
    let image = KernelImage::build(KernelConfig::test_small());
    let (scheme, pcfg) = (Scheme::Unsafe, PerspectiveConfig::default());
    let getpid = lebench::by_name("getpid").expect("suite test");
    memo::cached_measure(
        &CacheConfig::on(&dir),
        Protocol::Standard,
        scheme,
        &image.cfg,
        &pcfg,
        &cfg.core,
        &getpid,
        || {
            let m = runner::measure_image_uncached(scheme, &image, &getpid, pcfg, cfg.core)?;
            let mut metrics = m.metrics;
            metrics.set("sim.cycles", m.stats.cycles + 1);
            runner::Measurement::from_registry(m.scheme, m.workload, m.isv_funcs, metrics)
        },
    )
    .expect("the doctored entry is stored");

    let Err(error) = ablation::run(&cfg, &Images::default()) else {
        panic!("verify mode recomputes the doctored cell and rejects it");
    };
    let _ = std::fs::remove_dir_all(&dir);
    let failed: Vec<&str> = error.lines().filter(|l| l.contains("cell ")).collect();
    assert!(error.starts_with("1 cell(s) failed"), "{error}");
    assert_eq!(failed.len(), 1, "{error}");
    let named = format!("cell getpid / {scheme}: ");
    assert!(failed[0].trim_start().starts_with(&named), "{error}");
    assert!(failed[0].contains("VERIFY mismatch"), "{error}");
}
