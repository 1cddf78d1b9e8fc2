//! The parallel experiment matrix must be a pure optimization: the same
//! measurement sequence, byte for byte, whatever the worker count.
//!
//! Every test here passes its worker-pool width and core configuration
//! explicitly to `run_parallel` / `run_matrix` — none of them reads or
//! writes `PERSPECTIVE_THREADS`, so they are safe under the default
//! multi-threaded test harness.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::{lebench, runner};
use perspective::scheme::Scheme;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    let serial = runner::run_matrix(1, &image, &schemes, &workloads, core);
    let parallel = runner::run_matrix(8, &image, &schemes, &workloads, core);

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

    let golden = render(&runner::run_matrix(
        1, &image, &schemes, &workloads, slow_cfg,
    ));
    for width in [1usize, 2, 7] {
        let fast = runner::run_matrix(width, &image, &schemes, &workloads, fast_cfg);
        assert_eq!(
            render(&fast),
            golden,
            "width {width}: fast-forward must be byte-invisible"
        );
    }
    let slow_wide = runner::run_matrix(7, &image, &schemes, &workloads, slow_cfg);
    assert_eq!(render(&slow_wide), golden, "slow path stable across widths");
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
