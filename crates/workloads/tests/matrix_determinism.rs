//! The parallel experiment matrix must be a pure optimization: the same
//! measurement sequence, byte for byte, whatever the worker count.
//!
//! A failed cell must not hide the others: the matrix runs every cell and
//! reports each failure by name.
//!
//! Every test here passes its worker-pool width, cache and core
//! configuration explicitly to `run_parallel` / `run_matrix` (the library
//! reads no environment), so they are safe under the default
//! multi-threaded test harness.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::{lebench, runner, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run a matrix with the cell cache off; every cell must succeed.
fn matrix(
    width: usize,
    image: &KernelImage,
    schemes: &[Scheme],
    workloads: &[Workload],
    core: CoreConfig,
) -> Vec<runner::Measurement> {
    let off = CacheConfig::off();
    runner::run_matrix(width, &off, image, schemes, workloads, core)
        .unwrap_or_else(|e| panic!("{e:?}"))
}

/// Render a measurement sequence to its full debug form — any field
/// diverging between runs shows up as a byte difference.
fn render(ms: &[runner::Measurement]) -> String {
    ms.iter().map(|m| format!("{m:?}\n")).collect::<String>()
}

#[test]
fn matrix_is_identical_serial_and_parallel() {
    let image = KernelImage::build(KernelConfig::test_small());
    let schemes = [Scheme::Unsafe, Scheme::Fence, Scheme::Perspective];
    let workloads = vec![
        lebench::by_name("getpid").unwrap(),
        lebench::by_name("small-read").unwrap(),
    ];

    let core = CoreConfig::paper_default();
    let serial = matrix(1, &image, &schemes, &workloads, core);
    let parallel = matrix(8, &image, &schemes, &workloads, core);

    assert_eq!(serial.len(), schemes.len() * workloads.len());
    assert_eq!(
        render(&serial),
        render(&parallel),
        "measurement sequences must be byte-identical across thread counts"
    );
    // Ordering is workload-major, scheme-minor.
    for (w, row) in workloads.iter().zip(serial.chunks(schemes.len())) {
        for (s, m) in schemes.iter().zip(row) {
            assert_eq!(m.workload, w.name);
            assert_eq!(m.scheme, *s);
        }
    }
}

#[test]
fn matrix_is_identical_with_fastforward_on_and_off_across_widths() {
    // The idle fast-forward must be invisible in every measurement field
    // at every worker-pool width: one slow-path golden render, and every
    // (width, stepping-mode) combination must reproduce it byte for
    // byte. Widths below, at, and above the cell count, plus a prime.
    let image = KernelImage::build(KernelConfig::test_small());
    let schemes = [Scheme::Unsafe, Scheme::Fence, Scheme::Perspective];
    let workloads = vec![
        lebench::by_name("getpid").unwrap(),
        lebench::by_name("small-read").unwrap(),
    ];
    let (fast_cfg, slow_cfg) = persp_workloads::differential::fastfwd_pair();

    let golden = render(&matrix(1, &image, &schemes, &workloads, slow_cfg));
    for width in [1usize, 2, 7] {
        let fast = matrix(width, &image, &schemes, &workloads, fast_cfg);
        assert_eq!(
            render(&fast),
            golden,
            "width {width}: fast-forward must be byte-invisible"
        );
    }
    let slow_wide = matrix(7, &image, &schemes, &workloads, slow_cfg);
    assert_eq!(render(&slow_wide), golden, "slow path stable across widths");
}

#[test]
fn a_failed_cell_is_reported_by_name_and_every_other_cell_still_runs() {
    let image = KernelImage::build(KernelConfig::test_small());
    let schemes = [Scheme::Unsafe, Scheme::Fence, Scheme::Perspective];
    let workloads = vec![
        lebench::by_name("getpid").unwrap(),
        lebench::by_name("small-read").unwrap(),
    ];
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());
    let dir = std::env::temp_dir().join(format!("persp-matrix-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Store a doctored entry for one cell: well-formed, correctly
    // checksummed, but one cycle off the real measurement.
    let (bad_scheme, bad_workload) = (Scheme::Fence, &workloads[1]);
    memo::cached_measure(
        &CacheConfig::on(&dir),
        Protocol::Standard,
        bad_scheme,
        &image.cfg,
        &pcfg,
        &core,
        bad_workload,
        || {
            let m = runner::measure_image_uncached(bad_scheme, &image, bad_workload, pcfg, core)?;
            let mut metrics = m.metrics;
            metrics.set("sim.cycles", m.stats.cycles + 1);
            runner::Measurement::from_registry(m.scheme, m.workload, m.isv_funcs, metrics)
        },
    )
    .expect("the doctored entry is stored");

    let failures = runner::run_matrix(
        2,
        &CacheConfig::verify(&dir),
        &image,
        &schemes,
        &workloads,
        core,
    )
    .expect_err("verify mode recomputes the doctored cell and rejects it");
    assert_eq!(failures.len(), 1, "{failures:?}");
    let failure = &failures[0];
    assert_eq!(
        (failure.scheme, failure.workload),
        (bad_scheme, bad_workload.name)
    );
    assert!(
        failure.message.contains("VERIFY mismatch"),
        "{}",
        failure.message
    );
    assert!(failure
        .to_string()
        .starts_with(&format!("{} / {}: ", bad_workload.name, bad_scheme)));

    // Every other cell was computed: verify mode stores each fresh
    // result that had no entry.
    for w in &workloads {
        for &scheme in &schemes {
            if (scheme, w.name) == (bad_scheme, bad_workload.name) {
                continue;
            }
            let canonical =
                memo::canonical_cell(Protocol::Standard, scheme, &image.cfg, &pcfg, &core, w);
            let path = memo::entry_path(&dir, memo::cell_key(&canonical));
            assert!(path.exists(), "{} / {scheme} was not computed", w.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_parallel_preserves_job_order_under_contention() {
    // Jobs whose completion order is deliberately scrambled (later jobs
    // finish first) must still come back in submission order.
    let jobs: Vec<usize> = (0..64).collect();
    let started = AtomicUsize::new(0);
    let results = runner::run_parallel(8, jobs, |i| {
        started.fetch_add(1, Ordering::Relaxed);
        // Earlier jobs spin longest.
        let spin = (64 - i) * 500;
        let mut acc = i as u64;
        for k in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
        }
        std::hint::black_box(acc);
        i * 2
    });
    assert_eq!(started.load(Ordering::Relaxed), 64);
    assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
}

#[test]
fn run_parallel_serial_width_matches_map() {
    let jobs = vec![3usize, 1, 4, 1, 5];
    let doubled = runner::run_parallel(1, jobs.clone(), |x| x * 2);
    assert_eq!(doubled, jobs.into_iter().map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn run_parallel_result_order_is_stable_across_widths() {
    // Widths below, at, and above the job count (and a prime that
    // divides nothing) must all return submission order.
    let jobs: Vec<usize> = (0..23).collect();
    let expected: Vec<usize> = jobs.iter().map(|i| i * i + 1).collect();
    for width in [1usize, 2, 7] {
        let got = runner::run_parallel(width, jobs.clone(), |i| i * i + 1);
        assert_eq!(got, expected, "width {width}");
    }
}

#[test]
fn run_parallel_propagates_worker_panics() {
    for width in [1usize, 2, 7] {
        let result = std::panic::catch_unwind(|| {
            runner::run_parallel(width, (0..16).collect::<Vec<usize>>(), |i| {
                if i == 11 {
                    panic!("job {i} exploded");
                }
                i
            })
        });
        let err = result.expect_err("the job panic must reach the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(
            msg.contains("job 11 exploded"),
            "width {width}: panic payload preserved, got {msg:?}"
        );
    }
}
