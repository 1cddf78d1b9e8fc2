//! Property tests for `persp_workloads::report::Json`: the writer is a
//! fixed point of the parser over arbitrary documents (non-ASCII,
//! escapes, nesting), and a malformed-document corpus always comes back
//! as `Err` — never a panic.

use persp_workloads::report::Json;
use proptest::prelude::*;
use proptest::strategy::boxed_arm;

/// Characters that stress every writer/parser path: escapes, control
/// characters, multi-byte scalars, and JSON syntax.
const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{1f}',
    '{',
    '}',
    '[',
    ']',
    ':',
    ',',
    '-',
    'é',
    'ü',
    '\u{7FF}',
    '\u{FFFD}',
    '\u{1F980}',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            (0usize..PALETTE.len()).prop_map(|i| PALETTE[i]),
            // Arbitrary scalar values (surrogate range mapped away).
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Leaf JSON values. `Int` is negative-only by construction — the
/// parser assigns non-negative integers to `UInt`, so a non-negative
/// `Int` could never round-trip.
fn arb_leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::UInt),
        any::<i64>().prop_map(|n| Json::Int(if n < 0 { n } else { -(n / 2) - 1 })),
        arb_string().prop_map(Json::Str),
    ]
}

/// Arbitrary documents up to `depth` container levels.
fn arb_json(depth: usize) -> Box<dyn Strategy<Value = Json>> {
    if depth == 0 {
        return boxed_arm(arb_leaf());
    }
    boxed_arm(prop_oneof![
        arb_leaf(),
        prop::collection::vec(arb_json(depth - 1), 0..5).prop_map(Json::Array),
        prop::collection::vec((arb_string(), arb_json(depth - 1)), 0..5).prop_map(Json::Object),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_is_a_fixed_point_of_the_parser(doc in arb_json(3)) {
        let text = doc.render();
        let back = Json::parse(&text).expect("our own output parses");
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.render(), text, "render∘parse∘render is stable");
    }

    #[test]
    fn arbitrary_input_never_panics(chars in prop::collection::vec(
        prop_oneof![
            (0usize..PALETTE.len()).prop_map(|i| PALETTE[i]),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
        ],
        0..64,
    )) {
        // Any outcome is fine; reaching it without a panic is the test.
        let input: String = chars.into_iter().collect();
        let _ = Json::parse(&input);
    }

    #[test]
    fn truncated_documents_error_without_panic(doc in arb_json(2), cut in any::<usize>()) {
        // Root the document in an array: every proper prefix of a
        // container is incomplete. (A bare number's prefix can be a
        // valid shorter number, so leaves are not truncation-testable.)
        let doc = Json::Array(vec![doc]);
        let text = doc.render();
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        if !boundaries.is_empty() {
            let at = boundaries[cut % boundaries.len()];
            if at > 0 {
                prop_assert!(
                    Json::parse(&text[..at]).is_err(),
                    "truncation at byte {} of {:?} must not parse",
                    at,
                    text
                );
            }
        }
    }
}

#[test]
fn malformed_corpus_is_rejected_without_panic() {
    let corpus: &[&str] = &[
        "",
        "   ",
        "{",
        "}",
        "[",
        "]",
        "{]",
        "[}",
        "{\"a\":1,}",
        "[1,,2]",
        "{\"a\" 1}",
        "{\"a\":1 \"b\":2}",
        "\"\\u{41}\"",
        "\"\\uZZZZ\"",
        "truefalse",
        "nullnull",
        "--1",
        "1-",
        "{\"\\",
        "\"\\uD834\"",
        "\u{FEFF}{}",
        "{\"k\": 1e5}",
        "NaN",
        "Infinity",
        "'single'",
        "-",
        "-9223372036854775809",
        "18446744073709551616",
    ];
    for c in corpus {
        assert!(Json::parse(c).is_err(), "{c:?} must be rejected");
    }
    // Pathological nesting: an Err, not a recursion-driven stack overflow.
    assert!(Json::parse(&"[".repeat(100_000)).is_err());
    assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
}
