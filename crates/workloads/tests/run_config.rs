//! `RunConfig::parse`: every `PERSPECTIVE_*` variable unset, empty,
//! valid and invalid, with the resulting setting and the warning text.
//! The parser takes an explicit lookup, so no test touches the process
//! environment.

use persp_kernel::callgraph::KernelConfig;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::{CacheMode, DEFAULT_DIR};
use persp_workloads::report;
use persp_workloads::{KernelScale, RunConfig};
use std::path::PathBuf;

/// Parse with one variable set (`None`: nothing set) and no arguments.
fn parse_one(var: &str, value: Option<&str>) -> (RunConfig, Vec<String>) {
    let (var, value) = (var.to_string(), value.map(str::to_string));
    RunConfig::parse(
        move |k| if k == var { value.clone() } else { None },
        Vec::new(),
    )
}

/// The one warning an invalid value produces.
fn warning(var: &str, value: &str) -> String {
    let (_, warnings) = parse_one(var, Some(value));
    assert_eq!(warnings.len(), 1, "{var}={value:?}: {warnings:?}");
    warnings[0].clone()
}

/// Assert `value` parses without a warning.
fn quiet(var: &str, value: Option<&str>) -> RunConfig {
    let (cfg, warnings) = parse_one(var, value);
    assert!(warnings.is_empty(), "{var}={value:?}: {warnings:?}");
    cfg
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn kernel_scale() {
    for v in [None, Some(""), Some("paper")] {
        assert_eq!(quiet("PERSPECTIVE_KERNEL", v).kernel, KernelScale::Paper);
    }
    assert_eq!(
        quiet("PERSPECTIVE_KERNEL", Some("small")).kernel,
        KernelScale::Small
    );
    assert_eq!(
        parse_one("PERSPECTIVE_KERNEL", Some("tiny")).0.kernel,
        KernelScale::Paper
    );
    assert_eq!(
        warning("PERSPECTIVE_KERNEL", "tiny"),
        "warning: ignoring invalid PERSPECTIVE_KERNEL=\"tiny\" \
         (expected \"small\" or \"paper\"); using the paper-scale kernel"
    );
}

/// The image and the documents' `kernel` tag come from one parsed
/// scale, so a bad value cannot make them disagree.
#[test]
fn a_bogus_kernel_warns_once_and_both_image_and_tag_say_paper() {
    let (cfg, warnings) = parse_one("PERSPECTIVE_KERNEL", Some("bogus"));
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(cfg.kernel.tag(), "paper");
    assert_eq!(cfg.kernel.config(), KernelConfig::paper());
    let doc = report::experiment_json("x", cfg.kernel, Vec::new());
    assert_eq!(doc.render(), r#"{"experiment":"x","kernel":"paper"}"#);
}

#[test]
fn image_timing() {
    for v in [None, Some(""), Some("0"), Some(" 0 ")] {
        assert!(!quiet("PERSPECTIVE_IMAGE_TIMING", v).image_timing);
    }
    assert!(quiet("PERSPECTIVE_IMAGE_TIMING", Some("1")).image_timing);
    assert!(
        !parse_one("PERSPECTIVE_IMAGE_TIMING", Some("yes"))
            .0
            .image_timing
    );
    assert_eq!(
        warning("PERSPECTIVE_IMAGE_TIMING", "yes"),
        "warning: ignoring invalid PERSPECTIVE_IMAGE_TIMING=\"yes\" \
         (expected 0 or 1); not timing the image build"
    );
}

#[test]
fn threads() {
    let fallback = default_threads();
    assert_eq!(quiet("PERSPECTIVE_THREADS", None).threads, fallback);
    assert_eq!(quiet("PERSPECTIVE_THREADS", Some("1")).threads, 1);
    assert_eq!(quiet("PERSPECTIVE_THREADS", Some(" 12 ")).threads, 12);
    for bad in ["", "0", "-2", "zero"] {
        assert_eq!(
            parse_one("PERSPECTIVE_THREADS", Some(bad)).0.threads,
            fallback
        );
        assert_eq!(
            warning("PERSPECTIVE_THREADS", bad),
            format!(
                "warning: ignoring invalid PERSPECTIVE_THREADS={bad:?} \
                 (expected an integer >= 1); using {fallback} threads"
            )
        );
    }
}

#[test]
fn no_fastfwd() {
    for v in [None, Some(""), Some("0")] {
        assert!(quiet("PERSPECTIVE_NO_FASTFWD", v).core.idle_fastforward);
    }
    let slow = quiet("PERSPECTIVE_NO_FASTFWD", Some("1")).core;
    assert!(!slow.idle_fastforward);
    let paper = CoreConfig::paper_default();
    assert_eq!(
        CoreConfig {
            idle_fastforward: true,
            ..slow
        },
        paper,
        "only the fast-forward changes"
    );
    assert!(
        parse_one("PERSPECTIVE_NO_FASTFWD", Some("yes"))
            .0
            .core
            .idle_fastforward
    );
    assert_eq!(
        warning("PERSPECTIVE_NO_FASTFWD", "yes"),
        "warning: ignoring invalid PERSPECTIVE_NO_FASTFWD=\"yes\" \
         (expected 0 or 1); keeping the fast-forward enabled"
    );
}

#[test]
fn cache_mode() {
    for v in [None, Some(""), Some("0"), Some("off")] {
        assert_eq!(quiet("PERSPECTIVE_CACHE", v).cache.mode, CacheMode::Off);
    }
    for v in ["1", "on", " on "] {
        assert_eq!(
            quiet("PERSPECTIVE_CACHE", Some(v)).cache.mode,
            CacheMode::On
        );
    }
    assert_eq!(
        quiet("PERSPECTIVE_CACHE", Some("verify")).cache.mode,
        CacheMode::Verify
    );
    assert_eq!(
        parse_one("PERSPECTIVE_CACHE", Some("yes")).0.cache.mode,
        CacheMode::Off
    );
    assert_eq!(
        warning("PERSPECTIVE_CACHE", "yes"),
        "warning: ignoring invalid PERSPECTIVE_CACHE=\"yes\" \
         (expected off, on, or verify); cache stays off"
    );
}

/// The cache directory has no invalid value: an empty or blank one
/// means unset.
#[test]
fn cache_dir() {
    for v in [None, Some(""), Some("  ")] {
        let cfg = quiet("PERSPECTIVE_CACHE_DIR", v);
        assert_eq!(cfg.cache.dir, PathBuf::from(DEFAULT_DIR));
    }
    let cfg = quiet("PERSPECTIVE_CACHE_DIR", Some("/tmp/cells"));
    assert_eq!(cfg.cache.dir, PathBuf::from("/tmp/cells"));
    assert_eq!(
        cfg.cache.mode,
        CacheMode::Off,
        "the directory alone enables nothing"
    );
}

#[test]
fn json_flag() {
    let lookup = |_: &str| None;
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(!RunConfig::parse(lookup, args(&["bin"])).0.json);
    assert!(!RunConfig::parse(lookup, args(&["bin", "--all"])).0.json);
    assert!(
        RunConfig::parse(lookup, args(&["bin", "--all", "--json"]))
            .0
            .json
    );
}

#[test]
fn every_invalid_value_warns_once_and_keeps_its_default() {
    let bad = [
        ("PERSPECTIVE_KERNEL", "tiny"),
        ("PERSPECTIVE_IMAGE_TIMING", "yes"),
        ("PERSPECTIVE_THREADS", "zero"),
        ("PERSPECTIVE_NO_FASTFWD", "yes"),
        ("PERSPECTIVE_CACHE", "yes"),
    ];
    let (cfg, warnings) = RunConfig::parse(
        |k| {
            bad.iter()
                .find(|(v, _)| *v == k)
                .map(|(_, x)| x.to_string())
        },
        Vec::new(),
    );
    assert_eq!(warnings.len(), bad.len(), "{warnings:?}");
    for ((var, _), w) in bad.iter().zip(&warnings) {
        assert!(w.contains(var), "{w}");
    }
    let (default, none) = RunConfig::parse(|_| None, Vec::new());
    assert!(none.is_empty());
    assert_eq!(format!("{cfg:?}"), format!("{default:?}"));
}
