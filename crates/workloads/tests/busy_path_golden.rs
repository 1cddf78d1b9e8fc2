//! Cycle-exact golden pin for whole measurement cells.
//!
//! The four datacenter apps, cut to one request, are measured under all
//! nine schemes on the small kernel, and the lossless
//! `measurement_to_json_full` rendering of every cell is compared
//! against a checked-in golden file — with the idle fast-forward on and
//! off. The fast-vs-slow differential alone cannot catch a busy-path
//! change that shifts timing (both modes share the busy path); this pin
//! can, down to the last counter of the last policy layer.
//!
//! When a change is *meant* to alter simulated timing, the test writes
//! the new rendering next to the build output and prints the `cp`
//! command that blesses it.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_workloads::differential::fastfwd_pair;
use persp_workloads::{apps, report, runner};
use perspective::scheme::Scheme;
use perspective::PerspectiveConfig;
use std::path::Path;

const GOLDEN: &str = "tests/golden/apps_one_request_small.jsonl";

fn render(image: &KernelImage, core_cfg: persp_uarch::config::CoreConfig) -> String {
    let cells: Vec<_> = apps::apps()
        .into_iter()
        .flat_map(|app| {
            let mut w = app.workload;
            w.iters = 1;
            Scheme::ALL.iter().map(move |&s| (s, w.clone()))
        })
        .collect();
    runner::run_parallel(2, cells, |(scheme, w)| {
        let m = runner::measure_image_uncached(
            scheme,
            image,
            &w,
            PerspectiveConfig::default(),
            core_cfg,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        report::measurement_to_json_full(&m).render() + "\n"
    })
    .concat()
}

#[test]
fn app_cells_match_the_cycle_exact_golden_in_both_stepping_modes() {
    let image = KernelImage::build(KernelConfig::test_small());
    let (fast_cfg, slow_cfg) = fastfwd_pair();
    let fast = render(&image, fast_cfg);
    assert_eq!(fast.lines().count(), 4 * Scheme::ALL.len());
    assert_eq!(
        fast,
        render(&image, slow_cfg),
        "the idle fast-forward must be cycle-exact"
    );

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if golden != fast {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("apps_one_request_small.actual");
        std::fs::write(&out, &fast).expect("write actual rendering");
        let first = golden
            .lines()
            .zip(fast.lines())
            .position(|(g, a)| g != a)
            .map_or_else(
                || "length differs".to_string(),
                |n| format!("line {}", n + 1),
            );
        panic!(
            "measurement cells drifted from {} ({first}).\n\
             If the change is intended: cp {} {}",
            golden_path.display(),
            out.display(),
            golden_path.display()
        );
    }
}
