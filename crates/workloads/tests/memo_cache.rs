//! End-to-end behavior of `cached_measure` on a real (small-kernel)
//! simulation: miss → store → hit equality, verify-mode pass and
//! mismatch detection, and corrupted-entry recovery.
//!
//! Everything lives in one `#[test]` because the hit/miss counters are
//! process-global: a single sequential function keeps the counter
//! assertions race-free without any cross-test ordering assumptions.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::{lebench, report, runner};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

#[test]
fn cache_round_trip_verify_and_corruption_recovery() {
    let image = KernelImage::build(KernelConfig::test_small());
    let workload = lebench::by_name("getpid").expect("suite workload");
    let pcfg = PerspectiveConfig::default();
    let core = CoreConfig::paper_default();
    let scheme = Scheme::Perspective;

    let dir = std::env::temp_dir().join(format!("persp-memo-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let on = CacheConfig::on(&dir);
    let verify = CacheConfig::verify(&dir);

    let compute = || runner::measure_image_uncached(scheme, &image, &workload, pcfg, core);
    let run = |cfg: &CacheConfig| {
        memo::cached_measure(
            cfg,
            Protocol::Standard,
            scheme,
            &image.cfg,
            &pcfg,
            &core,
            &workload,
            compute,
        )
        .expect("measurement succeeds")
    };
    let render = |m: &runner::Measurement| report::measurement_json(m).render();

    memo::reset_stats();

    // Cold: a miss that computes and stores.
    let cold = run(&on);
    let s = memo::stats();
    assert_eq!((s.hits, s.misses, s.stores), (0, 1, 1));
    let key = memo::cell_key(&memo::canonical_cell(
        Protocol::Standard,
        scheme,
        &image.cfg,
        &pcfg,
        &core,
        &workload,
    ));
    let path = memo::entry_path(&dir, key);
    assert!(path.exists(), "miss stored an entry at {path:?}");

    // Warm: a hit, byte-identical to the cold result — and the compute
    // closure must not run (a cache that recomputes on hit is no cache).
    let warm = memo::cached_measure(
        &on,
        Protocol::Standard,
        scheme,
        &image.cfg,
        &pcfg,
        &core,
        &workload,
        || panic!("hit must not recompute"),
    )
    .expect("hit");
    assert_eq!(render(&warm), render(&cold));
    let s = memo::stats();
    assert_eq!((s.hits, s.misses), (1, 1));

    // Verify mode recomputes, compares, and passes.
    let verified = run(&verify);
    assert_eq!(render(&verified), render(&cold));
    let s = memo::stats();
    assert_eq!((s.verified, s.invalid), (1, 0));

    // Verify mode catches a stored result that no longer matches what
    // the simulation produces — the "semantics changed without a
    // SIM_VERSION bump" failure. Model it by recomputing against a
    // tampered-but-decodable cell: rebuild the entry for this cell from
    // a *different* measurement via the public store path (a second
    // workload's result stored under the first workload's key would
    // fail the canonical check, so instead store a doctored compute).
    let doctored = {
        let mut metrics = cold.metrics.clone();
        metrics.set("sim.cycles", cold.stats.cycles + 1);
        runner::Measurement::from_registry(cold.scheme, cold.workload, cold.isv_funcs, metrics)
            .expect("a full registry")
    };
    let _ = std::fs::remove_file(&path);
    let stored = memo::cached_measure(
        &on,
        Protocol::Standard,
        scheme,
        &image.cfg,
        &pcfg,
        &core,
        &workload,
        || Ok(doctored.clone()),
    )
    .expect("store doctored entry");
    assert_eq!(render(&stored), render(&doctored));
    let err = memo::cached_measure(
        &verify,
        Protocol::Standard,
        scheme,
        &image.cfg,
        &pcfg,
        &core,
        &workload,
        compute,
    )
    .expect_err("verify must flag the divergent entry");
    assert!(err.contains("VERIFY mismatch"), "unexpected error: {err}");
    assert!(
        err.contains("SIM_VERSION"),
        "error must mention the bump rule: {err}"
    );

    // Corruption recovery: clobber the entry; the next `on` lookup is a
    // counted invalid+miss that recomputes, rewrites, and still returns
    // the right result.
    std::fs::write(&path, b"{\"format\":1,\"truncated").expect("clobber entry");
    memo::reset_stats();
    let recovered = run(&on);
    assert_eq!(render(&recovered), render(&cold));
    let s = memo::stats();
    assert_eq!((s.hits, s.misses, s.invalid, s.stores), (0, 1, 1, 1));
    // And the rewrite restored a servable entry.
    let again = run(&on);
    assert_eq!(render(&again), render(&cold));
    assert_eq!(memo::stats().hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
