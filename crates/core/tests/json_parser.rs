//! Properties of the vendored JSON parser that snapshots and checkpoint
//! records are read with: rendering then parsing returns the same value,
//! strings that need no unescaping are borrowed from the input, member
//! spans cover exactly the bytes a member was parsed from, a document cut
//! short is always an error, never a panic, and so is one nested deeper
//! than the parser's limit, never a stack overflow.
//!
//! The vendored crates sit outside the workspace, so these properties
//! live here, where the workspace's test command runs them.

use falcc::{FalccError, SavedFalccModel};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::{Value, MAX_DEPTH};
use std::borrow::Cow;

/// Pieces strings are assembled from: long plain runs, both characters
/// the parser stops its runs at, control characters the writer escapes,
/// and one-, two-, three- and four-byte UTF-8.
const PIECES: &[&str] = &[
    "\"", "\\", "\n", "\t", "\r", "\u{0}", "\u{1f}", "\u{8}", "/", "é", "€", "🦀", "a", " ",
];

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn gen_string(rng: &mut TestRng) -> String {
    let mut s = String::new();
    for _ in 0..below(rng, 6) {
        if below(rng, 3) == 0 {
            let run = below(rng, 80) as usize;
            s.extend((0..run).map(|i| char::from(b'a' + (i % 26) as u8)));
        } else {
            s.push_str(PIECES[below(rng, PIECES.len() as u64) as usize]);
        }
    }
    s
}

fn gen_scalar(rng: &mut TestRng) -> Value<'static> {
    match below(rng, 7) {
        0 => Value::Null,
        1 => Value::Bool(below(rng, 2) == 1),
        2 => Value::I64(rng.next_u64() as i64),
        // Only integers above `i64::MAX` read back as `U64`.
        3 => Value::U64(u64::MAX - below(rng, u64::MAX / 2)),
        4 => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break Value::F64(f);
            }
        },
        5 => Value::F64(below(rng, 1000) as f64 / 8.0 - 60.0),
        _ => Value::Str(Cow::Owned(gen_string(rng))),
    }
}

fn gen_container(rng: &mut TestRng, depth: u32) -> Value<'static> {
    let len = below(rng, 6) as usize;
    let child = |rng: &mut TestRng| {
        if depth > 0 && below(rng, 3) == 0 {
            gen_container(rng, depth - 1)
        } else {
            gen_scalar(rng)
        }
    };
    if below(rng, 2) == 0 {
        Value::Array((0..len).map(|_| child(rng)).collect())
    } else {
        Value::Object((0..len).map(|_| (Cow::Owned(gen_string(rng)), child(rng))).collect())
    }
}

/// Random documents whose top level is an object or an array.
struct Documents;

impl Strategy for Documents {
    type Value = Value<'static>;

    fn gen_value(&self, rng: &mut TestRng) -> Value<'static> {
        gen_container(rng, 3)
    }
}

/// Whether every string and key in `v` that the writer renders without
/// an escape was borrowed from the input.
fn plain_strings_are_borrowed(v: &Value<'_>) -> bool {
    let plain = |s: &Cow<'_, str>| {
        let escaped = s.chars().any(|c| c == '"' || c == '\\' || (c as u32) < 0x20);
        escaped || matches!(s, Cow::Borrowed(_))
    };
    match v {
        Value::Str(s) => plain(s),
        Value::Array(items) => items.iter().all(plain_strings_are_borrowed),
        Value::Object(fields) => {
            fields.iter().all(|(k, v)| plain(k) && plain_strings_are_borrowed(v))
        }
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_documents_parse_back_equal(doc in Documents) {
        let text = serde_json::to_string(&doc).unwrap();
        let parsed = serde_json::parse_value(&text).unwrap();
        prop_assert_eq!(&parsed, &doc);
        prop_assert!(plain_strings_are_borrowed(&parsed), "an unescaped string was copied");
        // The writer's output is canonical: rendering the parse again
        // reproduces the text byte for byte.
        prop_assert_eq!(serde_json::to_string(&parsed).unwrap(), text);
    }

    #[test]
    fn member_spans_cover_exactly_their_values(doc in Documents) {
        let text = serde_json::to_string(&doc).unwrap();
        match (&doc, serde_json::parse_object_spans(&text)) {
            (Value::Object(fields), Ok((members, spans))) => {
                prop_assert_eq!(&members, fields);
                prop_assert_eq!(spans.len(), members.len());
                for ((_, value), span) in members.iter().zip(spans) {
                    prop_assert_eq!(&text[span], serde_json::to_string(value).unwrap());
                }
            }
            (Value::Array(_), Err(_)) => {}
            (_, outcome) => prop_assert!(false, "unexpected outcome {:?}", outcome.is_ok()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_strict_prefix_is_an_error(doc in Documents) {
        let text = serde_json::to_string(&doc).unwrap();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            prop_assert!(
                serde_json::parse_value(&text[..cut]).is_err(),
                "prefix of {} bytes parsed: {:?}",
                cut,
                &text[..cut]
            );
            prop_assert!(serde_json::parse_object_spans(&text[..cut]).is_err());
        }
    }
}

/// `depth` nested arrays around nothing.
fn nested_arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// An object nesting `depth` objects in all, the innermost holding `1`.
fn nested_objects(depth: usize) -> String {
    "{\"k\":".repeat(depth - 1) + "{\"k\":1" + &"}".repeat(depth)
}

#[test]
fn nesting_up_to_the_limit_parses() {
    assert_eq!(MAX_DEPTH, 128);
    assert!(serde_json::parse_value(&nested_arrays(MAX_DEPTH)).is_ok());
    assert!(serde_json::parse_value(&nested_objects(MAX_DEPTH)).is_ok());
    assert!(serde_json::parse_object_spans(&nested_objects(MAX_DEPTH)).is_ok());
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    for depth in [MAX_DEPTH + 1, 200_000] {
        assert!(serde_json::parse_value(&nested_arrays(depth)).is_err(), "depth {depth}");
        assert!(serde_json::parse_value(&nested_objects(depth)).is_err(), "depth {depth}");
        assert!(serde_json::parse_object_spans(&nested_objects(depth)).is_err());
    }
}

#[test]
fn a_deeply_nested_snapshot_is_corrupt_not_a_crash() {
    // About 400 KB of `[` inside a snapshot envelope.
    let deep = format!(
        "{{\"magic\":\"falcc-model\",\"version\":3,\"payload\":{}}}",
        nested_arrays(200_000)
    );
    match SavedFalccModel::from_json(&deep) {
        Err(FalccError::SnapshotCorrupt { detail }) => {
            assert!(detail.contains("nesting"), "{detail}");
        }
        other => panic!("expected SnapshotCorrupt, got {:?}", other.map(|_| ())),
    }
}
