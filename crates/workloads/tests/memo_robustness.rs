//! Robustness of the cell cache against damaged entries: a corrupted,
//! truncated, or half-written cache file must be a describable decode
//! error (which `cached_measure` counts as a miss), **never** a panic
//! and never a wrong measurement.
//!
//! The oracle: for arbitrarily mangled entry bytes, `decode_entry`
//! either returns `Err`, or returns a measurement that re-serializes
//! byte-identically to the one originally stored (i.e. the mangling
//! didn't actually change the payload). The per-entry FNV checksum is
//! what closes the "still parses as JSON but with a flipped digit"
//! hole.

use persp_kernel::callgraph::KernelConfig;
use persp_uarch::config::CoreConfig;
use persp_uarch::stats::SimStats;
use persp_uarch::{MetricsRegistry, MetricsSource};
use persp_workloads::memo::{self, CacheConfig, Protocol};
use persp_workloads::report;
use persp_workloads::{Measurement, SyscallStep, Workload};
use perspective::hwcache::HwCacheStats;
use perspective::policy::{FenceBreakdown, PerspectiveConfig};
use perspective::scheme::Scheme;
use proptest::prelude::*;
use std::sync::OnceLock;

const WORKLOAD_NAME: &str = "memo-robust-fixture";

fn fixture_workload() -> Workload {
    use persp_kernel::syscalls::Sysno;
    Workload {
        name: WORKLOAD_NAME,
        startup_steps: Vec::new(),
        steps: vec![SyscallStep::new(Sysno::Getpid, 0, 0)],
        iters: 3,
        user_work: 5,
    }
}

/// A fully-populated synthetic measurement (no simulation needed —
/// `cached_measure` treats `compute` as the ground truth for the cell),
/// built the one way a measurement is: from a registry holding every
/// counter the typed view is rebuilt from.
fn fixture_measurement() -> Measurement {
    let mut stats = SimStats {
        cycles: 20_101,
        kernel_cycles: 12_000,
        user_cycles: 8_101,
        committed_insts: 90_000,
        committed_loads: 14_000,
        committed_stores: 6_000,
        committed_branches: 11_000,
        squashes: 41,
        squashed_insts: 377,
        transient_loads_issued: 95,
        syscalls: 9,
        loads_fenced: 120,
        stall_cycles: 4_400,
        taint_roots_overflow: 2,
        ..SimStats::default()
    };
    stats.sni.shadow_checked = 90_000;
    stats.sni.tainted_transmits = 3;
    stats.stalls.isv_fence = 800;
    stats.stalls.backend = 2_100;
    let mut metrics = MetricsRegistry::new();
    stats.export_metrics("sim", &mut metrics);
    FenceBreakdown {
        isv: 37,
        dsv: 21,
        unknown: 4,
    }
    .export_metrics("policy.fences", &mut metrics);
    HwCacheStats {
        hits: 5_000,
        misses: 77,
    }
    .export_metrics("policy.isv_cache", &mut metrics);
    HwCacheStats {
        hits: 3_200,
        misses: 41,
    }
    .export_metrics("policy.dsvmt_cache", &mut metrics);
    metrics.set("kernel.slab.page_frees", 6);
    Measurement::from_registry(Scheme::Perspective, WORKLOAD_NAME, Some(93), metrics)
        .expect("a full registry")
}

fn canonical() -> String {
    memo::canonical_cell(
        Protocol::Standard,
        Scheme::Perspective,
        &KernelConfig::test_small(),
        &PerspectiveConfig::default(),
        &CoreConfig::paper_default(),
        &fixture_workload(),
    )
}

/// Genuine on-disk entry bytes, produced once through the real store
/// path (`cached_measure` miss → atomic write), then read back.
fn entry_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!(
            "persp-memo-robust-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let cfg = CacheConfig::on(&dir);
        let m = memo::cached_measure(
            &cfg,
            Protocol::Standard,
            Scheme::Perspective,
            &KernelConfig::test_small(),
            &PerspectiveConfig::default(),
            &CoreConfig::paper_default(),
            &fixture_workload(),
            || Ok(fixture_measurement()),
        )
        .expect("store succeeds");
        assert_eq!(m.stats, fixture_measurement().stats);
        let key = memo::cell_key(&canonical());
        let bytes = std::fs::read(memo::entry_path(&dir, key)).expect("entry written");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// The stored payload rendering a correct decode must reproduce.
fn expected_payload() -> String {
    report::measurement_json(&fixture_measurement()).render()
}

/// `Err` or the exact original measurement — nothing in between, and
/// never a panic.
fn decode_is_sound(bytes: &[u8]) {
    let can = canonical();
    match memo::decode_entry(bytes, &can, Scheme::Perspective, WORKLOAD_NAME) {
        Err(_) => {}
        Ok(m) => assert_eq!(
            report::measurement_json(&m).render(),
            expected_payload(),
            "decode accepted mangled bytes but returned a different measurement"
        ),
    }
}

#[test]
fn pristine_entry_decodes_to_the_stored_measurement() {
    let m = memo::decode_entry(
        entry_bytes(),
        &canonical(),
        Scheme::Perspective,
        WORKLOAD_NAME,
    )
    .expect("pristine entry decodes");
    assert_eq!(report::measurement_json(&m).render(), expected_payload());
}

#[test]
fn empty_and_garbage_entries_error() {
    decode_is_sound(b"");
    decode_is_sound(b"\0\0\0\0");
    decode_is_sound(b"not json at all");
    decode_is_sound("{\"format\":1}".as_bytes());
    // Valid JSON, wrong shape entirely.
    decode_is_sound(b"[1,2,3]");
}

#[test]
fn wrong_expectations_are_rejected_not_wrong_results() {
    let bytes = entry_bytes();
    // Wrong canonical (different cell wants this key): must miss.
    assert!(memo::decode_entry(bytes, "other", Scheme::Perspective, WORKLOAD_NAME).is_err());
    // Wrong scheme / workload expectation: must miss.
    assert!(memo::decode_entry(bytes, &canonical(), Scheme::Fence, WORKLOAD_NAME).is_err());
    assert!(memo::decode_entry(bytes, &canonical(), Scheme::Perspective, "other").is_err());
}

/// Every prefix of a valid entry — the shapes a reader could have seen
/// if writes weren't atomic — must fail cleanly. Exhaustive, not
/// sampled: half-written files are the motivating case.
#[test]
fn every_truncation_errs_cleanly() {
    let bytes = entry_bytes();
    // Cutting trailing whitespace (the final newline) leaves a complete,
    // correct entry — only truncations into the JSON body must fail.
    let body_end = bytes
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
        .expect("entry has content")
        + 1;
    for len in 0..bytes.len() {
        let m = memo::decode_entry(
            &bytes[..len],
            &canonical(),
            Scheme::Perspective,
            WORKLOAD_NAME,
        );
        if len < body_end {
            assert!(m.is_err(), "truncation to {len} bytes decoded successfully");
        } else {
            decode_is_sound(&bytes[..len]);
        }
    }
}

proptest! {
    /// Flip a single byte anywhere in the entry.
    #[test]
    fn single_byte_flip_is_sound(idx in 0usize..4096, bit in 0u8..8) {
        let mut bytes = entry_bytes().to_vec();
        let idx = idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        decode_is_sound(&bytes);
    }

    /// Splice arbitrary bytes over an arbitrary range.
    #[test]
    fn random_splice_is_sound(
        start in 0usize..4096,
        len in 0usize..64,
        patch in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = entry_bytes().to_vec();
        let start = start % bytes.len();
        let end = (start + len).min(bytes.len());
        bytes.splice(start..end, patch);
        decode_is_sound(&bytes);
    }

    /// Truncate then append garbage — a torn write plus later junk.
    #[test]
    fn torn_write_with_tail_garbage_is_sound(
        keep in 0usize..4096,
        tail in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut bytes = entry_bytes().to_vec();
        bytes.truncate(keep % (bytes.len() + 1));
        bytes.extend_from_slice(&tail);
        decode_is_sound(&bytes);
    }

    /// Fully random blobs never panic.
    #[test]
    fn random_blob_is_sound(blob in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode_is_sound(&blob);
    }
}
