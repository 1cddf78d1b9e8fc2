//! An entry written in the cell cache's first layout (`format` 1, which
//! stored a typed copy of the counters next to the registry) is found
//! under its cell's key, but never served: `cached_measure` warns, counts
//! it as invalid and as a miss, recomputes the cell and rewrites the
//! entry in the current layout, which the next lookup serves.
//!
//! The fixture is a real entry of the small-kernel PERSPECTIVE / getpid
//! cell, as the first layout stored it. It lives alone in this test
//! binary because the cache counters are process-global.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::report::{measurement_json, Json};
use persp_workloads::{lebench, runner};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;

const FIXTURE: &str = "tests/fixtures/cell_format1_getpid_perspective_small.json";

#[test]
fn a_first_layout_entry_is_recomputed_and_rewritten() {
    let image = KernelImage::build(KernelConfig::test_small());
    let workload = lebench::by_name("getpid").expect("suite workload");
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());
    let scheme = Scheme::Perspective;
    let canonical = memo::canonical_cell(
        Protocol::Standard,
        scheme,
        &image.cfg,
        &pcfg,
        &core,
        &workload,
    );

    let old =
        std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE))
            .expect("fixture");
    let old_doc = Json::parse(&old).expect("the fixture parses");
    assert_eq!(old_doc.get("format").and_then(Json::as_u64), Some(1));
    // The cell's inputs, and so its key, are the same in both layouts.
    assert_eq!(
        old_doc.get("canonical").and_then(Json::as_str),
        Some(canonical.as_str())
    );

    let dir = std::env::temp_dir().join(format!("persp-memo-upgrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let path = memo::entry_path(&dir, memo::cell_key(&canonical));
    std::fs::write(&path, &old).expect("plant the old entry");

    let on = CacheConfig::on(&dir);
    let lookup = |compute: &dyn Fn() -> Result<runner::Measurement, String>| {
        memo::cached_measure(
            &on,
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
    let fresh = runner::measure_image_uncached(scheme, &image, &workload, pcfg, core)
        .expect("the cell simulates");

    memo::reset_stats();
    let recomputed =
        lookup(&|| runner::measure_image_uncached(scheme, &image, &workload, pcfg, core));
    let s = memo::stats();
    assert_eq!(
        (s.hits, s.misses, s.invalid, s.stores),
        (0, 1, 1, 1),
        "the old entry must be an invalid miss that is rewritten"
    );
    assert_eq!(
        measurement_json(&recomputed).render(),
        measurement_json(&fresh).render()
    );

    // The rewritten entry is in the current layout, and its payload is the
    // cell's document row.
    let new = std::fs::read_to_string(&path).expect("rewritten entry");
    let new_doc = Json::parse(&new).expect("the new entry parses");
    assert_eq!(new_doc.get("format").and_then(Json::as_u64), Some(2));
    assert_eq!(
        new_doc.get("measurement").map(Json::render),
        Some(measurement_json(&fresh).render())
    );
    // The old layout's typed counters agree with the fresh registry: the
    // document row drops no number.
    let old_m = old_doc.get("measurement").expect("old payload");
    assert_eq!(
        old_m.get("metrics").map(Json::render),
        Some(measurement_json(&fresh).get("metrics").unwrap().render())
    );

    // The next lookup is a hit that renders like the fresh cell.
    let hit = lookup(&|| panic!("a hit must not recompute"));
    assert_eq!(memo::stats().hits, 1);
    assert_eq!(
        measurement_json(&hit).render(),
        measurement_json(&fresh).render()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
