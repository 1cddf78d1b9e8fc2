//! Content-addressed memoization of simulation results — the
//! cross-experiment *cell cache*.
//!
//! The reproduction is fully deterministic: identical (kernel config,
//! scheme, [`PerspectiveConfig`], [`CoreConfig`], workload) inputs
//! produce byte-identical [`Measurement`]s — a property pinned by the
//! matrix-determinism and fast-forward differential harnesses. Yet the
//! experiment bins overlap heavily (`fig_9_2` runs
//! `Scheme::ALL × lebench::suite()` while the ablation/sensitivity/
//! calibration bins re-run large subsets of the same cells), and every
//! bin cold-simulates each cell from scratch. This module turns each
//! simulated cell into a disk-backed cache entry keyed by a stable
//! fingerprint of *every* simulation input, so the experiments `run_all`
//! runs concurrently — and repeated runs and separate binaries — share
//! work.
//!
//! # Key derivation
//!
//! A [`CellKey`] is an FNV-1a 64-bit hash (fixed offset basis and prime
//! — **never** `DefaultHasher`, whose keys are randomized per process)
//! over a canonical, line-oriented serialization of the inputs:
//! [`SIM_VERSION`], the measurement protocol, every `KernelConfig`
//! field (including the RNG seed; floats are serialized as exact IEEE
//! bit patterns), the scheme, every `PerspectiveConfig` and
//! [`CoreConfig`] knob, and the full workload content (startup steps,
//! per-iteration steps, iteration count, user work). The canonical
//! string itself is stored in each entry and compared on lookup, so a
//! 64-bit hash collision degrades to a cache miss, never a wrong result.
//!
//! Simulation parameters that are compile-time constants — the memory
//! [`HierarchyConfig`](persp_mem::hierarchy::HierarchyConfig), the run
//! budget, the warmup/ROI protocol itself — are covered by
//! [`SIM_VERSION`]: **bump it whenever simulation semantics change** in
//! any way that can alter a `Measurement`. The ci baselines
//! (`BENCH_*.json`) drift in lockstep, so a forgotten bump is caught by
//! the cold-then-warm ci cell as a baseline mismatch.
//!
//! # Storage and atomicity
//!
//! One file per cell (`cell-<16-hex>.json`) under [`CacheConfig::dir`]
//! (`PERSPECTIVE_CACHE_DIR`, default `target/persp-cache/`). Writers
//! serialize to a process-unique temp file in the same directory and
//! `rename(2)` it into place, so readers never observe a half-written
//! entry even when several threads or processes populate one cache
//! concurrently; concurrent writers of the same cell race benignly
//! (identical bytes). Any unreadable, unparseable, truncated, or
//! mismatched entry is treated as a miss and counted, never a panic.
//! Each entry also carries an FNV checksum of its measurement payload,
//! so corruption that still happens to parse as JSON (a flipped digit
//! in a counter, say) is rejected instead of silently returning a wrong
//! measurement.
//!
//! The payload is the cell's experiment-document row
//! ([`report::measurement_json`]), the one encoding of a measurement. A
//! hit rebuilds the typed view from the row's registry through
//! [`Measurement::from_registry`], the constructor the simulation path
//! uses too, so a registry missing a counter that view needs is an
//! invalid entry, never a zeroed field.
//!
//! # Modes
//!
//! [`CacheConfig::mode`], which the binaries take from
//! `PERSPECTIVE_CACHE=off|on|verify` (default `off`) through
//! [`RunConfig`](crate::config::RunConfig); DESIGN.md §6b
//! (run configuration) tables every setting. This module reads no
//! environment: callers pass the configuration in.
//!
//! * `off` — every call computes; the cache is never touched.
//! * `on` — hits return the deserialized entry; misses compute and
//!   store. Cached and cold runs produce byte-identical transcripts and
//!   `--json` documents; the hit/miss counters below are process-local
//!   observability and are never serialized into baseline documents
//!   (the same rule as wall clock).
//! * `verify` — every cell is recomputed and, when an entry exists, the
//!   fresh result must re-serialize byte-identically to the stored one;
//!   a mismatch is a hard error. This turns the cache into a cheap
//!   cross-run determinism checker in the spirit of the SNI and
//!   fast-forward differential harnesses.

use crate::report::{self, Json};
use crate::runner::Measurement;
use crate::spec::{ArgVal, SyscallStep, Workload};
use persp_kernel::callgraph::KernelConfig;
use persp_uarch::config::CoreConfig;
use persp_uarch::predictor::BtbMode;
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Version salt folded into every [`CellKey`]. **Bump this whenever
/// simulation semantics change** — new counters, pipeline timing fixes,
/// protocol changes, hierarchy parameter changes — so stale entries can
/// never satisfy a lookup. An entry stores a measurement's registry and
/// nothing else, so a new counter reaches entries only through the
/// registry, and an entry stored before it is missing it. Checked-in
/// `BENCH_*.json` baselines change under exactly the same circumstances;
/// regenerate both together.
pub const SIM_VERSION: u32 = 1;

/// On-disk entry layout version: bump it when the envelope or the payload
/// encoding ([`report::measurement_json`]) changes shape. An entry of
/// another version is an invalid miss, recomputed and rewritten.
const FORMAT_VERSION: u64 = 2;

/// Which measurement protocol produced a cell. The per-syscall protocol
/// (selected by [`PerspectiveConfig::per_syscall_isv`], see
/// [`crate::runner::measure`]) installs a different view configuration
/// than the standard warmup→ISV→ROI protocol, so the two must never share
/// entries even for identical configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The standard warmup → install-ISV → ROI protocol.
    Standard,
    /// The §11 per-syscall-view protocol.
    PerSyscall,
}

impl Protocol {
    /// The protocol a cell's Perspective configuration selects — the one
    /// place the choice is made.
    pub(crate) fn of(pcfg: &PerspectiveConfig) -> Self {
        if pcfg.per_syscall_isv {
            Protocol::PerSyscall
        } else {
            Protocol::Standard
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Protocol::Standard => "standard",
            Protocol::PerSyscall => "per_syscall",
        }
    }
}

/// Cache operating mode (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Never touch the cache.
    Off,
    /// Serve hits, store misses.
    On,
    /// Recompute everything; assert byte-identity against stored entries.
    Verify,
}

/// Resolved cache configuration (mode + directory).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Operating mode.
    pub mode: CacheMode,
    /// Entry directory (created on first store).
    pub dir: PathBuf,
}

impl CacheConfig {
    /// A disabled cache (the default).
    pub fn off() -> Self {
        CacheConfig {
            mode: CacheMode::Off,
            dir: PathBuf::from(DEFAULT_DIR),
        }
    }

    /// An enabled cache rooted at `dir`.
    pub fn on(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            mode: CacheMode::On,
            dir: dir.into(),
        }
    }

    /// A verifying cache rooted at `dir`.
    pub fn verify(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            mode: CacheMode::Verify,
            dir: dir.into(),
        }
    }
}

/// Default entry directory.
pub const DEFAULT_DIR: &str = "target/persp-cache";

// ---------------------------------------------------------------------------
// Key derivation.
// ---------------------------------------------------------------------------

/// A stable 64-bit cell fingerprint (FNV-1a over the canonical input
/// serialization). Identical inputs produce the identical key in every
/// process; the canonical string stored alongside each entry makes hash
/// collisions harmless (they decay to misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(pub u64);

impl CellKey {
    /// Fixed-width lowercase hex rendering (the entry file stem).
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a with the standard 64-bit offset basis and prime — stable
/// across processes, platforms, and toolchains (unlike `DefaultHasher`,
/// which is seeded randomly per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    // Exact IEEE-754 bit pattern: no formatting/rounding ambiguity.
    let _ = writeln!(out, "{key}={:016x}", v.to_bits());
}

fn push_steps(out: &mut String, key: &str, steps: &[SyscallStep]) {
    let _ = write!(out, "{key}=[");
    for (i, s) in steps.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        let arg = |a: ArgVal| match a {
            ArgVal::Imm(v) => format!("i{v:x}"),
            ArgVal::Buf(o) => format!("b{o:x}"),
        };
        let _ = write!(
            out,
            "sys:{};{};{};{}",
            s.sys as u16,
            arg(s.arg0),
            arg(s.arg1),
            arg(s.arg2)
        );
    }
    out.push_str("]\n");
}

/// The canonical, line-oriented serialization of every simulation input
/// of one cell. This is what gets hashed into the [`CellKey`] *and*
/// stored in the entry for exact comparison on lookup. Field order and
/// rendering are part of the on-disk format: change them only together
/// with [`SIM_VERSION`].
pub fn canonical_cell(
    protocol: Protocol,
    scheme: Scheme,
    kcfg: &KernelConfig,
    pcfg: &PerspectiveConfig,
    core: &CoreConfig,
    workload: &Workload,
) -> String {
    let mut s = String::with_capacity(1024);
    // The layout version of this serialization. The entry layout has its
    // own FORMAT_VERSION, checked on decode, so an entry written in an
    // older layout is found under its key, rejected and rewritten.
    let _ = writeln!(s, "persp-cell-v1");
    let _ = writeln!(s, "sim_version={SIM_VERSION}");
    let _ = writeln!(s, "protocol={}", protocol.tag());

    let _ = writeln!(s, "kernel.num_functions={}", kcfg.num_functions);
    let _ = writeln!(s, "kernel.num_gadgets={}", kcfg.num_gadgets);
    push_f64(
        &mut s,
        "kernel.gadget_hot_fraction",
        kcfg.gadget_hot_fraction,
    );
    let _ = writeln!(s, "kernel.pool_mean={}", kcfg.pool_mean);
    let _ = writeln!(s, "kernel.num_utils={}", kcfg.num_utils);
    push_f64(&mut s, "kernel.cond_edge_prob", kcfg.cond_edge_prob);
    push_f64(&mut s, "kernel.flag_set_prob", kcfg.flag_set_prob);
    push_f64(&mut s, "kernel.indirect_only_prob", kcfg.indirect_only_prob);
    let _ = writeln!(s, "kernel.seed={:016x}", kcfg.seed);
    let _ = writeln!(s, "kernel.num_frames={}", kcfg.num_frames);
    let _ = writeln!(s, "kernel.secure_slab={}", kcfg.secure_slab);

    let _ = writeln!(s, "scheme={}", scheme.name());

    let _ = writeln!(s, "pcfg.enforce_dsv={}", pcfg.enforce_dsv);
    let _ = writeln!(s, "pcfg.enforce_isv={}", pcfg.enforce_isv);
    let _ = writeln!(s, "pcfg.block_unknown={}", pcfg.block_unknown);
    let _ = writeln!(s, "pcfg.isv_cache_entries={}", pcfg.isv_cache_entries);
    let _ = writeln!(s, "pcfg.dsvmt_cache_entries={}", pcfg.dsvmt_cache_entries);
    let _ = writeln!(s, "pcfg.per_syscall_isv={}", pcfg.per_syscall_isv);

    let _ = writeln!(s, "core.width={}", core.width);
    let _ = writeln!(s, "core.rob_entries={}", core.rob_entries);
    let _ = writeln!(s, "core.lq_entries={}", core.lq_entries);
    let _ = writeln!(s, "core.sq_entries={}", core.sq_entries);
    let _ = writeln!(s, "core.btb_entries={}", core.btb_entries);
    let btb = match core.btb_mode {
        BtbMode::Legacy => "legacy",
        BtbMode::Ibrs => "ibrs",
    };
    let _ = writeln!(s, "core.btb_mode={btb}");
    let _ = writeln!(s, "core.rsb_entries={}", core.rsb_entries);
    let _ = writeln!(s, "core.frontend_latency={}", core.frontend_latency);
    let _ = writeln!(s, "core.mispredict_penalty={}", core.mispredict_penalty);
    let _ = writeln!(
        s,
        "core.branch_resolve_latency={}",
        core.branch_resolve_latency
    );
    let _ = writeln!(s, "core.ret_resolve_latency={}", core.ret_resolve_latency);
    let _ = writeln!(s, "core.retpoline_cost={}", core.retpoline_cost);
    push_f64(&mut s, "core.freq_ghz", core.freq_ghz);
    let _ = writeln!(s, "core.idle_fastforward={}", core.idle_fastforward);

    let _ = writeln!(s, "workload.name={}", workload.name);
    push_steps(&mut s, "workload.startup_steps", &workload.startup_steps);
    push_steps(&mut s, "workload.steps", &workload.steps);
    let _ = writeln!(s, "workload.iters={}", workload.iters);
    let _ = writeln!(s, "workload.user_work={}", workload.user_work);
    s
}

/// The [`CellKey`] of a canonical serialization.
pub fn cell_key(canonical: &str) -> CellKey {
    CellKey(fnv1a64(canonical.as_bytes()))
}

/// Entry file path for a key under `dir`.
pub fn entry_path(dir: &Path, key: CellKey) -> PathBuf {
    dir.join(format!("cell-{}.json", key.hex()))
}

// ---------------------------------------------------------------------------
// Process-local observability.
// ---------------------------------------------------------------------------

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static VERIFIED: AtomicU64 = AtomicU64::new(0);
static INVALID: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-local cache counters. Observability only:
/// these are **never** serialized into experiment documents (the same
/// rule as wall clock), so cached and cold runs stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that computed (no entry, or an invalid one).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Verify-mode recomputations that matched their stored entry.
    pub verified: u64,
    /// Entries that existed but were unreadable, unparseable, truncated,
    /// or mismatched (each also counts as a miss).
    pub invalid: u64,
}

/// Snapshot the process-local cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
        verified: VERIFIED.load(Ordering::Relaxed),
        invalid: INVALID.load(Ordering::Relaxed),
    }
}

/// Reset the process-local counters (test isolation).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORES.store(0, Ordering::Relaxed);
    VERIFIED.store(0, Ordering::Relaxed);
    INVALID.store(0, Ordering::Relaxed);
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Entry I/O.
// ---------------------------------------------------------------------------

fn entry_json(canonical: &str, key: CellKey, m: &Measurement) -> Json {
    let payload = report::measurement_json(m);
    let checksum = format!("{:016x}", fnv1a64(payload.render().as_bytes()));
    Json::obj(vec![
        ("format", Json::UInt(FORMAT_VERSION)),
        ("sim_version", Json::UInt(u64::from(SIM_VERSION))),
        ("key", Json::str(key.hex())),
        ("canonical", Json::str(canonical)),
        ("checksum", Json::str(checksum)),
        ("measurement", payload),
    ])
}

/// Outcome of an entry load attempt.
enum Loaded {
    /// No entry file on disk — a plain miss.
    NoEntry,
    /// An entry file exists but cannot be used (corrupt, truncated,
    /// stale format, key collision, codec mismatch).
    Invalid(String),
    /// A usable entry (boxed: a `Measurement` dwarfs the other variants).
    Hit(Box<Measurement>),
}

/// Decode entry bytes against the expected canonical serialization.
/// Every failure is a describable `Err` — mangled bytes must never
/// panic or produce a wrong measurement (covered by proptest).
pub fn decode_entry(
    bytes: &[u8],
    canonical: &str,
    scheme: Scheme,
    workload_name: &'static str,
) -> Result<Measurement, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("entry is not utf-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("entry does not parse: {e}"))?;
    let format = doc
        .get("format")
        .and_then(Json::as_u64)
        .ok_or("entry has no format field")?;
    if format != FORMAT_VERSION {
        return Err(format!("entry format {format} != {FORMAT_VERSION}"));
    }
    let sim = doc
        .get("sim_version")
        .and_then(Json::as_u64)
        .ok_or("entry has no sim_version field")?;
    if sim != u64::from(SIM_VERSION) {
        return Err(format!("entry sim_version {sim} != {SIM_VERSION}"));
    }
    let stored = doc
        .get("canonical")
        .and_then(Json::as_str)
        .ok_or("entry has no canonical field")?;
    if stored != canonical {
        return Err("canonical-input mismatch (key collision or stale entry)".into());
    }
    let m = doc.get("measurement").ok_or("entry has no measurement")?;
    let checksum = doc
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or("entry has no checksum field")?;
    let actual = format!("{:016x}", fnv1a64(measurement_bytes(text)?));
    if checksum != actual {
        return Err(format!(
            "measurement checksum mismatch (stored {checksum}, payload hashes to {actual})"
        ));
    }
    report::measurement_from_json(m, scheme, workload_name)
}

/// The stored bytes of a parsed entry's `measurement` member, which
/// [`entry_json`] writes last: from the first `,"measurement":` to the
/// entry's closing brace. The entry has parsed, so the match is a member
/// key (inside a string its quotes would be escaped). Hashing these
/// bytes instead of a re-rendering of the parsed payload makes a payload
/// spelled differently from its rendering a checksum mismatch.
fn measurement_bytes(text: &str) -> Result<&[u8], String> {
    const KEY: &str = ",\"measurement\":";
    let start = text.find(KEY).ok_or("entry has no measurement member")? + KEY.len();
    let end = text
        .trim_end()
        .strip_suffix('}')
        .ok_or("entry does not end its object")?
        .len();
    text.as_bytes()
        .get(start..end)
        .ok_or_else(|| "entry ends inside its measurement key".into())
}

fn load_entry(path: &Path, canonical: &str, scheme: Scheme, workload_name: &'static str) -> Loaded {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Loaded::NoEntry,
        Err(e) => return Loaded::Invalid(format!("unreadable: {e}")),
    };
    match decode_entry(&bytes, canonical, scheme, workload_name) {
        Ok(m) => Loaded::Hit(Box::new(m)),
        Err(e) => Loaded::Invalid(e),
    }
}

/// Atomically store an entry: write a process-unique temp file in the
/// cache directory, then rename it over the final name. Concurrent
/// writers of the same cell race benignly (identical content); readers
/// never see a partial file. Failures warn once and are otherwise
/// ignored — the cache is best-effort.
fn store_entry(dir: &Path, key: CellKey, canonical: &str, m: &Measurement) {
    let result = (|| -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".tmp-{}-{}", key.hex(), std::process::id()));
        let mut body = entry_json(canonical, key, m).render();
        body.push('\n');
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, entry_path(dir, key))?;
        Ok(())
    })();
    match result {
        Ok(()) => bump(&STORES),
        Err(e) => {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "warning: cell cache store under {dir:?} failed ({e}); \
                     continuing without caching"
                );
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The memoized measurement entry point.
// ---------------------------------------------------------------------------

/// Memoize `compute` under the cell cache. `compute` must be the pure,
/// deterministic measurement of the cell described by the other
/// arguments; errors are never cached. See the module docs for the
/// mode semantics.
#[allow(clippy::too_many_arguments)]
pub fn cached_measure(
    cfg: &CacheConfig,
    protocol: Protocol,
    scheme: Scheme,
    kcfg: &KernelConfig,
    pcfg: &PerspectiveConfig,
    core_cfg: &CoreConfig,
    workload: &Workload,
    compute: impl FnOnce() -> Result<Measurement, String>,
) -> Result<Measurement, String> {
    if cfg.mode == CacheMode::Off {
        return compute();
    }
    let canonical = canonical_cell(protocol, scheme, kcfg, pcfg, core_cfg, workload);
    let key = cell_key(&canonical);
    let path = entry_path(&cfg.dir, key);
    let loaded = load_entry(&path, &canonical, scheme, workload.name);
    match cfg.mode {
        CacheMode::Off => unreachable!("handled above"),
        CacheMode::On => match loaded {
            Loaded::Hit(m) => {
                bump(&HITS);
                Ok(*m)
            }
            other => {
                if let Loaded::Invalid(why) = &other {
                    bump(&INVALID);
                    eprintln!("warning: cell cache entry {path:?} unusable ({why}); recomputing");
                }
                bump(&MISSES);
                let m = compute()?;
                store_entry(&cfg.dir, key, &canonical, &m);
                Ok(m)
            }
        },
        CacheMode::Verify => {
            let fresh = compute()?;
            match loaded {
                Loaded::Hit(cached) => {
                    let fresh_bytes = report::measurement_json(&fresh).render();
                    let cached_bytes = report::measurement_json(&cached).render();
                    if fresh_bytes != cached_bytes {
                        return Err(format!(
                            "cell cache VERIFY mismatch for {} / {} (key {}): the \
                             recomputed measurement differs from the stored entry — \
                             either the simulation is nondeterministic or its semantics \
                             changed without a SIM_VERSION bump\n  cached: {}\n  fresh:  {}",
                            scheme,
                            workload.name,
                            key.hex(),
                            cached_bytes,
                            fresh_bytes
                        ));
                    }
                    bump(&HITS);
                    bump(&VERIFIED);
                }
                Loaded::NoEntry => {
                    bump(&MISSES);
                    store_entry(&cfg.dir, key, &canonical, &fresh);
                }
                Loaded::Invalid(why) => {
                    bump(&INVALID);
                    bump(&MISSES);
                    eprintln!("warning: cell cache entry {path:?} unusable ({why}); rewriting");
                    store_entry(&cfg.dir, key, &canonical, &fresh);
                }
            }
            Ok(fresh)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_uarch::{MetricsRegistry, MetricsSource, SimStats};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_hex_is_fixed_width() {
        assert_eq!(CellKey(0x1a).hex(), "000000000000001a");
        assert_eq!(CellKey(u64::MAX).hex(), "ffffffffffffffff");
    }

    #[test]
    fn entry_path_is_content_addressed() {
        let p = entry_path(Path::new("/tmp/c"), CellKey(7));
        assert_eq!(p, Path::new("/tmp/c/cell-0000000000000007.json"));
    }

    #[test]
    fn mode_parsing_from_env_values() {
        // The environment values themselves are parsed (and tested) in
        // `config::RunConfig::parse`; these are the explicit constructors.
        assert_eq!(CacheConfig::off().mode, CacheMode::Off);
        assert_eq!(CacheConfig::on("x").mode, CacheMode::On);
        assert_eq!(CacheConfig::verify("x").mode, CacheMode::Verify);
        assert_eq!(CacheConfig::on("x").dir, PathBuf::from("x"));
    }

    /// A FENCE cell built the one way a measurement is: from a registry
    /// holding every `sim.*` counter.
    fn fence_cell() -> Measurement {
        let mut metrics = MetricsRegistry::new();
        SimStats {
            cycles: 1234,
            ..SimStats::default()
        }
        .export_metrics("sim", &mut metrics);
        Measurement::from_registry(Scheme::Fence, "getpid", Some(7), metrics).unwrap()
    }

    fn decode(text: &str) -> Result<Measurement, String> {
        decode_entry(text.as_bytes(), "cell", Scheme::Fence, "getpid")
    }

    #[test]
    fn the_checksum_covers_the_stored_spelling_of_the_payload() {
        let entry = entry_json("cell", CellKey(1), &fence_cell()).render();
        let hit = decode(&entry).expect("a stored entry decodes");
        assert_eq!(hit.stats.cycles, 1234);
        assert!(decode(&format!("{entry}\n")).is_ok(), "trailing whitespace");
        // Parses to the same payload, but is not its rendering.
        let respelled = entry.replacen(",\"measurement\":", ",\"measurement\": ", 1);
        assert!(decode(&respelled).is_err());
        // The payload is no longer the entry's last member.
        let trailing = format!("{},\"extra\":1}}", &entry[..entry.len() - 1]);
        assert!(decode(&trailing).is_err());
    }

    #[test]
    fn an_entry_whose_registry_cannot_rebuild_the_typed_view_is_rejected() {
        let full = fence_cell();
        let mut policy = full.metrics.clone();
        policy.set("policy.fences.isv", 1);
        policy.set("policy.fences.dsv", 2);
        for (metrics, missing) in [
            (full.metrics.clone(), "sim.stall.squash"),
            (policy, "policy.fences.unknown"),
        ] {
            let mut damaged = MetricsRegistry::new();
            for (name, v) in metrics.iter().filter(|&(name, _)| name != missing) {
                damaged.set(name, v);
            }
            // A literal, because the constructor would refuse the registry;
            // the checksum is right, so only the rebuild can reject it.
            let m = Measurement {
                metrics: damaged,
                ..full.clone()
            };
            let err = decode(&entry_json("cell", CellKey(1), &m).render()).unwrap_err();
            assert!(err.contains(&format!("{missing:?}")), "{err}");
        }
    }
}
