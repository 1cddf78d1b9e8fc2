//! Fast-vs-slow differential harness at the workload level.
//!
//! The idle-cycle fast-forward ([`CoreConfig::idle_fastforward`]) claims
//! to change *nothing* about a simulation except its wall-clock cost.
//! The pipeline-level harness in `persp_uarch::testkit` pins that on
//! small programs; this module pins it on the full measurement protocol
//! — kernel image, warmup + dynamic-ISV profiling, view installation,
//! region-of-interest delta, and the exported metrics registry — by
//! running the identical [`runner`] protocol under both stepping modes
//! and asserting the resulting [`Measurement`]s are equal field for
//! field.

use crate::runner::{self, Measurement};
use crate::spec::Workload;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

/// The two core configurations the differential compares: the paper
/// configuration with the fast-forward forced on and forced off.
pub fn fastfwd_pair() -> (CoreConfig, CoreConfig) {
    let fast = CoreConfig {
        idle_fastforward: true,
        ..CoreConfig::paper_default()
    };
    let slow = CoreConfig {
        idle_fastforward: false,
        ..CoreConfig::paper_default()
    };
    (fast, slow)
}

/// Run the full measurement protocol for one (scheme, workload) cell
/// under both stepping modes and return `(fast, slow)`.
///
/// # Panics
///
/// Panics if either simulation errors.
pub fn measure_fastfwd_pair(
    scheme: Scheme,
    image: &KernelImage,
    workload: &Workload,
) -> (Measurement, Measurement) {
    let (fast_cfg, slow_cfg) = fastfwd_pair();
    let fast = runner::measure_image_uncached(
        scheme,
        image,
        workload,
        PerspectiveConfig::default(),
        fast_cfg,
    )
    .unwrap_or_else(|e| panic!("fast-path {} under {scheme} failed: {e}", workload.name));
    let slow = runner::measure_image_uncached(
        scheme,
        image,
        workload,
        PerspectiveConfig::default(),
        slow_cfg,
    )
    .unwrap_or_else(|e| panic!("slow-path {} under {scheme} failed: {e}", workload.name));
    (fast, slow)
}

/// Assert two measurements of the same cell are identical — statistics,
/// fence attribution, metadata-cache statistics, ISV size, and the full
/// metrics registry. Compared via the `Debug` rendering, which covers
/// every field of [`Measurement`] and yields a readable diff on failure.
///
/// # Panics
///
/// Panics with both renderings when any component differs, and when the
/// stall-attribution partition is violated in either measurement.
pub fn assert_measurements_identical(fast: &Measurement, slow: &Measurement) {
    let fast_render = format!("{fast:#?}");
    let slow_render = format!("{slow:#?}");
    assert_eq!(
        fast_render, slow_render,
        "fast-forward diverged from the slow path for {} under {}",
        fast.workload, fast.scheme
    );
    for m in [fast, slow] {
        assert_eq!(
            m.stats.stalls.total(),
            m.stats.stall_cycles,
            "{} under {}: stall breakdown must partition the stall cycles",
            m.workload,
            m.scheme
        );
    }
}

/// The complete differential check for one (scheme, workload) cell:
/// measure under both stepping modes and assert equality.
///
/// # Panics
///
/// Panics if either simulation errors or the measurements differ.
pub fn assert_fastfwd_equivalent(scheme: Scheme, image: &KernelImage, workload: &Workload) {
    let (fast, slow) = measure_fastfwd_pair(scheme, image, workload);
    assert_measurements_identical(&fast, &slow);
}
