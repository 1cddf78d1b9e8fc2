//! Machine-readable measurement output: a minimal JSON value, writer and
//! parser built on `std` alone (the workspace is offline — no serde).
//!
//! It lives in this crate, not in `persp-bench`, so the
//! simulation-memoization layer ([`crate::memo`]) can serialize full
//! [`Measurement`]s; the experiment binaries import it from here.
//!
//! Every experiment binary accepts `--json` and serializes its
//! measurement rows plus the per-measurement [`MetricsRegistry`] through
//! this module. Two invariants keep the output diff-able:
//!
//! * **Determinism** — objects preserve insertion order, registries are
//!   name-ordered, and nothing derived from wall-clock time is ever
//!   emitted; the same experiment at any `PERSPECTIVE_THREADS` width
//!   renders byte-identically.
//! * **Integers and strings only** — raw counters stay `u64`; derived
//!   ratios are pre-formatted strings (`norm()`/`pct()` in
//!   `persp_bench`), so no float formatting ambiguity can creep into
//!   the byte stream.

use crate::runner::Measurement;
use persp_uarch::stats::{SimStats, SniCounters, StallBreakdown};
use persp_uarch::MetricsRegistry;
use perspective::hwcache::HwCacheStats;
use perspective::policy::FenceBreakdown;
use perspective::scheme::Scheme;
use std::fmt::Write as _;

/// A JSON value. Arrays and objects own their children; object keys
/// keep insertion order so rendering is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all raw counters are `u64`).
    UInt(u64),
    /// A negative integer (the parser needs it for round-trips).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs (order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Render to a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset this module writes: null, bools,
    /// integers, strings with `\uXXXX` escapes, arrays, objects).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

/// Maximum container nesting the parser accepts. Our own documents nest
/// a handful of levels; the bound turns adversarial `[[[[...` input into
/// an `Err` instead of a recursion-driven stack overflow.
const MAX_DEPTH: usize = 128;

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'-') => {
            let start = *pos;
            *pos += 1;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| format!("invalid utf-8 in number at byte {start}: {e}"))?;
            s.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad integer {s:?}: {e}"))
        }
        Some(b'0'..=b'9') => {
            let start = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| format!("invalid utf-8 in number at byte {start}: {e}"))?;
            s.parse::<u64>()
                .map(Json::UInt)
                .map_err(|e| format!("bad integer {s:?}: {e}"))
        }
        Some(&b) => Err(format!("unexpected {:?} at byte {}", b as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected {lit:?} at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or(format!("bad codepoint {code:#x}"))?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece. Both delimiters are ASCII, so the run ends on a
                // char boundary of the (valid UTF-8) input. Validating
                // only the run keeps parsing linear in the input size.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

/// Was `--json` passed on the command line?
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// The kernel scale tag recorded in every JSON document (`"small"` under
/// `PERSPECTIVE_KERNEL=small`, `"paper"` otherwise).
pub fn kernel_tag() -> &'static str {
    match std::env::var("PERSPECTIVE_KERNEL").as_deref() {
        Ok("small") => "small",
        _ => "paper",
    }
}

/// A [`MetricsRegistry`] as a JSON object (name-ordered, all `u64`).
pub fn registry_json(reg: &MetricsRegistry) -> Json {
    Json::Object(
        reg.iter()
            .map(|(k, v)| (k.to_string(), Json::UInt(v)))
            .collect(),
    )
}

/// Parse a JSON object written by [`registry_json`] back into a
/// [`MetricsRegistry`]. Every value must be a non-negative integer.
pub fn registry_from_json(j: &Json) -> Result<MetricsRegistry, String> {
    let Json::Object(pairs) = j else {
        return Err("metrics: expected an object".into());
    };
    let mut reg = MetricsRegistry::new();
    for (k, v) in pairs {
        let n = v
            .as_u64()
            .ok_or_else(|| format!("metrics.{k}: expected a u64"))?;
        reg.set(k.clone(), n);
    }
    Ok(reg)
}

/// One measurement row: scheme, workload, ISV size when applicable, and
/// the full named-counter registry. This is the *experiment-document*
/// projection; the cache uses the lossless [`measurement_to_json_full`].
pub fn measurement_json(m: &Measurement) -> Json {
    let mut pairs = vec![
        ("scheme".to_string(), Json::str(m.scheme.name())),
        ("workload".to_string(), Json::str(m.workload)),
    ];
    if let Some(n) = m.isv_funcs {
        pairs.push(("isv_funcs".to_string(), Json::UInt(n as u64)));
    }
    pairs.push(("metrics".to_string(), registry_json(&m.metrics)));
    Json::Object(pairs)
}

/// Measurement rows, in sequence order.
pub fn measurements_json(ms: &[Measurement]) -> Json {
    Json::Array(ms.iter().map(measurement_json).collect())
}

/// The standard experiment envelope: experiment name, kernel scale,
/// then the caller's fields in order.
pub fn experiment_json(name: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("experiment", Json::str(name)),
        ("kernel", Json::str(kernel_tag())),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Print an experiment document to stdout (single line, trailing newline).
pub fn emit(doc: &Json) {
    println!("{}", doc.render());
}

/// Resolve a scheme display name (as printed by [`Scheme::name`]) back
/// to the scheme.
pub fn scheme_by_name(name: &str) -> Option<Scheme> {
    Scheme::ALL.iter().copied().find(|s| s.name() == name)
}

// ---------------------------------------------------------------------------
// Lossless Measurement codec (the cell-cache entry format).
// ---------------------------------------------------------------------------

fn stalls_json(s: &StallBreakdown) -> Json {
    Json::obj(vec![
        ("isv_fence", Json::UInt(s.isv_fence)),
        ("dsv_fence", Json::UInt(s.dsv_fence)),
        ("isv_miss", Json::UInt(s.isv_miss)),
        ("dsvmt_miss", Json::UInt(s.dsvmt_miss)),
        ("squash", Json::UInt(s.squash)),
        ("vp_wait", Json::UInt(s.vp_wait)),
        ("frontend", Json::UInt(s.frontend)),
        ("backend", Json::UInt(s.backend)),
    ])
}

fn sni_json(s: &SniCounters) -> Json {
    Json::obj(vec![
        ("shadow_checked", Json::UInt(s.shadow_checked)),
        ("shadow_mismatches", Json::UInt(s.shadow_mismatches)),
        ("unsafe_issues", Json::UInt(s.unsafe_issues)),
        ("secret_spec_loads", Json::UInt(s.secret_spec_loads)),
        ("tainted_transmits", Json::UInt(s.tainted_transmits)),
        (
            "committed_secret_roots",
            Json::UInt(s.committed_secret_roots),
        ),
    ])
}

fn stats_json(s: &SimStats) -> Json {
    Json::obj(vec![
        ("cycles", Json::UInt(s.cycles)),
        ("kernel_cycles", Json::UInt(s.kernel_cycles)),
        ("user_cycles", Json::UInt(s.user_cycles)),
        ("committed_insts", Json::UInt(s.committed_insts)),
        ("committed_loads", Json::UInt(s.committed_loads)),
        ("committed_stores", Json::UInt(s.committed_stores)),
        ("committed_branches", Json::UInt(s.committed_branches)),
        ("squashes", Json::UInt(s.squashes)),
        ("squashed_insts", Json::UInt(s.squashed_insts)),
        (
            "transient_loads_issued",
            Json::UInt(s.transient_loads_issued),
        ),
        ("syscalls", Json::UInt(s.syscalls)),
        ("loads_fenced", Json::UInt(s.loads_fenced)),
        ("stall_cycles", Json::UInt(s.stall_cycles)),
        ("taint_roots_overflow", Json::UInt(s.taint_roots_overflow)),
        ("sni", sni_json(&s.sni)),
        ("stalls", stalls_json(&s.stalls)),
    ])
}

fn hwcache_json(c: &HwCacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::UInt(c.hits)),
        ("misses", Json::UInt(c.misses)),
    ])
}

/// A [`Measurement`] as a lossless JSON object — every field is
/// serialized, so [`measurement_from_json`] reconstructs a value equal
/// to the original. The cell cache ([`crate::memo`]) stores exactly this
/// rendering.
pub fn measurement_to_json_full(m: &Measurement) -> Json {
    let opt = |v: Option<Json>| v.unwrap_or(Json::Null);
    Json::obj(vec![
        ("scheme", Json::str(m.scheme.name())),
        ("workload", Json::str(m.workload)),
        ("stats", stats_json(&m.stats)),
        (
            "fences",
            opt(m.fences.as_ref().map(|f| {
                Json::obj(vec![
                    ("isv", Json::UInt(f.isv)),
                    ("dsv", Json::UInt(f.dsv)),
                    ("unknown", Json::UInt(f.unknown)),
                ])
            })),
        ),
        ("isv_cache", opt(m.isv_cache.as_ref().map(hwcache_json))),
        ("dsvmt_cache", opt(m.dsvmt_cache.as_ref().map(hwcache_json))),
        ("isv_funcs", opt(m.isv_funcs.map(|n| Json::UInt(n as u64)))),
        ("metrics", registry_json(&m.metrics)),
    ])
}

fn req<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    req(j, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?}: expected a u64"))
}

fn stalls_from_json(j: &Json) -> Result<StallBreakdown, String> {
    Ok(StallBreakdown {
        isv_fence: req_u64(j, "isv_fence")?,
        dsv_fence: req_u64(j, "dsv_fence")?,
        isv_miss: req_u64(j, "isv_miss")?,
        dsvmt_miss: req_u64(j, "dsvmt_miss")?,
        squash: req_u64(j, "squash")?,
        vp_wait: req_u64(j, "vp_wait")?,
        frontend: req_u64(j, "frontend")?,
        backend: req_u64(j, "backend")?,
    })
}

fn sni_from_json(j: &Json) -> Result<SniCounters, String> {
    Ok(SniCounters {
        shadow_checked: req_u64(j, "shadow_checked")?,
        shadow_mismatches: req_u64(j, "shadow_mismatches")?,
        unsafe_issues: req_u64(j, "unsafe_issues")?,
        secret_spec_loads: req_u64(j, "secret_spec_loads")?,
        tainted_transmits: req_u64(j, "tainted_transmits")?,
        committed_secret_roots: req_u64(j, "committed_secret_roots")?,
    })
}

fn stats_from_json(j: &Json) -> Result<SimStats, String> {
    Ok(SimStats {
        cycles: req_u64(j, "cycles")?,
        kernel_cycles: req_u64(j, "kernel_cycles")?,
        user_cycles: req_u64(j, "user_cycles")?,
        committed_insts: req_u64(j, "committed_insts")?,
        committed_loads: req_u64(j, "committed_loads")?,
        committed_stores: req_u64(j, "committed_stores")?,
        committed_branches: req_u64(j, "committed_branches")?,
        squashes: req_u64(j, "squashes")?,
        squashed_insts: req_u64(j, "squashed_insts")?,
        transient_loads_issued: req_u64(j, "transient_loads_issued")?,
        syscalls: req_u64(j, "syscalls")?,
        loads_fenced: req_u64(j, "loads_fenced")?,
        stall_cycles: req_u64(j, "stall_cycles")?,
        taint_roots_overflow: req_u64(j, "taint_roots_overflow")?,
        sni: sni_from_json(req(j, "sni")?)?,
        stalls: stalls_from_json(req(j, "stalls")?)?,
    })
}

fn hwcache_from_json(j: &Json) -> Result<HwCacheStats, String> {
    Ok(HwCacheStats {
        hits: req_u64(j, "hits")?,
        misses: req_u64(j, "misses")?,
    })
}

fn opt_field<T>(
    j: &Json,
    key: &str,
    f: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match req(j, key)? {
        Json::Null => Ok(None),
        v => f(v).map(Some),
    }
}

/// Reconstruct a [`Measurement`] from [`measurement_to_json_full`]
/// output. The stored scheme and workload names must match
/// `expected_scheme` / `expected_workload` (the workload name in a
/// `Measurement` is `&'static str`, so the caller supplies it); any
/// structural problem comes back as `Err`, never a panic.
pub fn measurement_from_json(
    j: &Json,
    expected_scheme: Scheme,
    expected_workload: &'static str,
) -> Result<Measurement, String> {
    let scheme_name = req(j, "scheme")?
        .as_str()
        .ok_or("field \"scheme\": expected a string")?;
    if scheme_name != expected_scheme.name() {
        return Err(format!(
            "scheme mismatch: entry has {scheme_name:?}, expected {:?}",
            expected_scheme.name()
        ));
    }
    let workload_name = req(j, "workload")?
        .as_str()
        .ok_or("field \"workload\": expected a string")?;
    if workload_name != expected_workload {
        return Err(format!(
            "workload mismatch: entry has {workload_name:?}, expected {expected_workload:?}"
        ));
    }
    Ok(Measurement {
        scheme: expected_scheme,
        workload: expected_workload,
        stats: stats_from_json(req(j, "stats")?)?,
        fences: opt_field(j, "fences", |f| {
            Ok(FenceBreakdown {
                isv: req_u64(f, "isv")?,
                dsv: req_u64(f, "dsv")?,
                unknown: req_u64(f, "unknown")?,
            })
        })?,
        isv_cache: opt_field(j, "isv_cache", hwcache_from_json)?,
        dsvmt_cache: opt_field(j, "dsvmt_cache", hwcache_from_json)?,
        isv_funcs: opt_field(j, "isv_funcs", |v| {
            v.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| "field \"isv_funcs\": expected a u64".into())
        })?,
        metrics: registry_from_json(req(j, "metrics")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_compact_and_ordered() {
        let doc = Json::obj(vec![
            ("b", Json::UInt(2)),
            ("a", Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::str("x\"y\\z\n")),
        ]);
        assert_eq!(doc.render(), r#"{"b":2,"a":[null,true],"s":"x\"y\\z\n"}"#);
    }

    #[test]
    fn parse_round_trips_what_we_write() {
        let doc = Json::obj(vec![
            ("name", Json::str("fig_9_2")),
            ("neg", Json::Int(-3)),
            ("big", Json::UInt(u64::MAX)),
            (
                "rows",
                Json::Array(vec![Json::obj(vec![
                    ("k", Json::str("välue \t with ünïcode")),
                    ("n", Json::UInt(42)),
                ])]),
            ),
            ("empty_obj", Json::Object(vec![])),
            ("empty_arr", Json::Array(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("round trip parses");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().items().unwrap().len(), 2);
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn adversarial_inputs_error_instead_of_panicking() {
        // Every one of these used to be able to reach an `unwrap()` (or
        // unbounded recursion); all must now come back as Err.
        let cases: &[&str] = &[
            "-",                    // sign with no digits
            "-9223372036854775809", // i64 underflow
            "18446744073709551616", // u64 overflow
            "\"\\",                 // escape at end of input
            "\"\\u12",              // truncated \u escape
            "\"\\uD800\"",          // lone surrogate codepoint
            "\"\\q\"",              // unknown escape
            "\"unterminated",       // no closing quote
            "{\"k\"",               // object cut mid-pair
            "nul",                  // truncated literal
            "+5",                   // leading plus
            "01x",                  // trailing garbage after digits
        ];
        for c in cases {
            assert!(Json::parse(c).is_err(), "{c:?} must be rejected");
        }
        // Pathological nesting: an Err, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        // But reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn multibyte_and_escape_content_round_trips() {
        let doc = Json::obj(vec![
            ("emoji", Json::str("héllo \u{1F980} wörld")),
            ("ctl", Json::str("\u{1}\u{2}\u{1f}")),
            ("slash", Json::str("a/b\\c\"d")),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn registry_renders_name_ordered_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.set("z.last", 1);
        reg.set("a.first", 2);
        let json = registry_json(&reg);
        assert_eq!(json.render(), r#"{"a.first":2,"z.last":1}"#);
        assert_eq!(registry_from_json(&json).unwrap(), reg);
        assert!(registry_from_json(&Json::Null).is_err());
        assert!(registry_from_json(&Json::obj(vec![("k", Json::str("x"))])).is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::obj(vec![("n", Json::UInt(7)), ("s", Json::str("x"))]);
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
        assert_eq!(Json::Int(-1).as_u64(), None);
    }

    #[test]
    fn scheme_names_resolve_round_trip() {
        for &s in Scheme::ALL {
            assert_eq!(scheme_by_name(s.name()), Some(s));
        }
        assert_eq!(scheme_by_name("NOT-A-SCHEME"), None);
    }

    fn rich_measurement() -> Measurement {
        let mut stats = SimStats {
            cycles: 101,
            kernel_cycles: 60,
            user_cycles: 41,
            committed_insts: 500,
            committed_loads: 90,
            committed_stores: 40,
            committed_branches: 70,
            squashes: 3,
            squashed_insts: 17,
            transient_loads_issued: 5,
            syscalls: 12,
            loads_fenced: 8,
            stall_cycles: 33,
            taint_roots_overflow: 1,
            ..SimStats::default()
        };
        stats.sni.shadow_checked = 500;
        stats.sni.tainted_transmits = 2;
        stats.stalls.isv_fence = 10;
        stats.stalls.backend = 23;
        let mut metrics = MetricsRegistry::new();
        metrics.set("sim.cycles", 101);
        metrics.set("policy.fences.isv", 4);
        Measurement {
            scheme: Scheme::Perspective,
            workload: "getpid",
            stats,
            fences: Some(FenceBreakdown {
                isv: 4,
                dsv: 3,
                unknown: 1,
            }),
            isv_cache: Some(HwCacheStats { hits: 9, misses: 2 }),
            dsvmt_cache: Some(HwCacheStats { hits: 7, misses: 1 }),
            isv_funcs: Some(42),
            metrics,
        }
    }

    #[test]
    fn full_measurement_codec_round_trips() {
        let m = rich_measurement();
        let j = measurement_to_json_full(&m);
        let text = j.render();
        let back =
            measurement_from_json(&Json::parse(&text).unwrap(), Scheme::Perspective, "getpid")
                .unwrap();
        assert_eq!(back.scheme, m.scheme);
        assert_eq!(back.workload, m.workload);
        assert_eq!(back.stats, m.stats);
        assert_eq!(back.fences, m.fences);
        assert_eq!(back.isv_cache, m.isv_cache);
        assert_eq!(back.dsvmt_cache, m.dsvmt_cache);
        assert_eq!(back.isv_funcs, m.isv_funcs);
        assert_eq!(back.metrics, m.metrics);
        // The re-serialization is byte-identical (verify mode depends on it).
        assert_eq!(measurement_to_json_full(&back).render(), text);
    }

    #[test]
    fn baseline_measurement_codec_round_trips_nones() {
        let m = Measurement {
            scheme: Scheme::Unsafe,
            workload: "getpid",
            stats: SimStats::default(),
            fences: None,
            isv_cache: None,
            dsvmt_cache: None,
            isv_funcs: None,
            metrics: MetricsRegistry::new(),
        };
        let j = measurement_to_json_full(&m);
        let back = measurement_from_json(&j, Scheme::Unsafe, "getpid").unwrap();
        assert!(back.fences.is_none());
        assert!(back.isv_cache.is_none());
        assert!(back.isv_funcs.is_none());
        assert_eq!(measurement_to_json_full(&back), j);
    }

    #[test]
    fn measurement_codec_rejects_mismatches_and_damage() {
        let m = rich_measurement();
        let j = measurement_to_json_full(&m);
        // Wrong expected scheme or workload.
        assert!(measurement_from_json(&j, Scheme::Unsafe, "getpid").is_err());
        assert!(measurement_from_json(&j, Scheme::Perspective, "select").is_err());
        // A missing field is an error, not a default.
        if let Json::Object(pairs) = &j {
            for i in 0..pairs.len() {
                let mut damaged = pairs.clone();
                damaged.remove(i);
                assert!(
                    measurement_from_json(&Json::Object(damaged), Scheme::Perspective, "getpid")
                        .is_err(),
                    "dropping field {:?} must fail decoding",
                    pairs[i].0
                );
            }
        } else {
            panic!("measurement json must be an object");
        }
    }
}
