//! Property: `encode` → `parse` round-trips arbitrary JSON values —
//! floats (including negative zero and sub-normal magnitudes), strings
//! full of escapes, empty arrays/objects, and arbitrarily nested trees —
//! and encoding is deterministic.

use dar_serve::json::{parse, Json};
use proptest::prelude::*;

/// Tricky strings the string-index token picks from: escapes, unicode,
/// controls, emptiness.
const STRINGS: &[&str] = &[
    "",
    "plain",
    "with \"quotes\"",
    "back\\slash",
    "new\nline and\ttab",
    "carriage\rreturn",
    "control \u{0001}\u{001f} chars",
    "form\u{000C}feed back\u{0008}space",
    "unicode ⇒ é ß 中",
    "astral 😀🦀",
    "slash / solidus",
    "null\u{0000}byte",
];

/// Interesting floats beyond the uniform range: exact integers, negative
/// zero, tiny and huge magnitudes.
const FLOATS: &[f64] = &[0.0, -0.0, 1.0, -1.0, 42.0, 0.1, -2.5e-9, 1.0e300, 5e-324, f64::MIN];

/// One generated token: `(kind, uniform float, index)`.
type Token = (u8, f64, u32);

/// Deterministically builds a JSON tree from a token list: leaves from
/// the token kinds, containers by splitting the list. Empty token lists
/// become empty containers, exercising `[]` and `{}`.
fn tree(tokens: &[Token], depth: usize) -> Json {
    if depth > 6 || tokens.len() <= 1 {
        return match tokens.first() {
            None => Json::Arr(Vec::new()),
            Some(&(kind, x, index)) => match kind % 6 {
                0 => Json::Null,
                1 => Json::Bool(index % 2 == 0),
                2 => Json::Num(x),
                3 => Json::Num(FLOATS[index as usize % FLOATS.len()]),
                4 => Json::Str(STRINGS[index as usize % STRINGS.len()].to_string()),
                _ => Json::Obj(Vec::new()),
            },
        };
    }
    let (head, rest) = tokens.split_first().expect("len > 1");
    let mid = rest.len() / 2;
    let (left, right) = rest.split_at(mid);
    if head.0 % 2 == 0 {
        Json::Arr(vec![tree(left, depth + 1), tree(right, depth + 1)])
    } else {
        Json::Obj(vec![
            (STRINGS[head.2 as usize % STRINGS.len()].to_string(), tree(left, depth + 1)),
            (format!("k{}", head.2), tree(right, depth + 1)),
        ])
    }
}

#[test]
fn encode_parse_round_trips_arbitrary_values() {
    proptest!(|(tokens in prop::collection::vec(
        (0u8..6, -1.0e12f64..1.0e12, 0u32..1024), 0..24))| {
        let original = tree(&tokens, 0);
        let encoded = original.encode();
        let reparsed = parse(&encoded).map_err(|e| {
            proptest::TestCaseError::Fail(format!("{e} while parsing {encoded:?}"))
        })?;
        prop_assert_eq!(&reparsed, &original, "wire: {}", encoded);
        // Determinism: re-encoding the reparsed value is byte-identical.
        prop_assert_eq!(reparsed.encode(), encoded);
    });
}

#[test]
fn uniform_floats_survive_bit_exactly() {
    proptest!(|(x in -1.0e300f64..1.0e300)| {
        let encoded = Json::Num(x).encode();
        let reparsed = parse(&encoded).map_err(|e| {
            proptest::TestCaseError::Fail(format!("{e} while parsing {encoded:?}"))
        })?;
        let y = reparsed.as_f64().expect("a number parses to a number");
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} → {}", x, encoded);
    });
}

/// Reference encoder, one char at a time: the output the run-copying
/// `write_string` must reproduce byte for byte.
fn reference_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn long_strings_with_escapes_at_the_first_and_last_byte() {
    let body = "x".repeat(100_000);
    for s in [
        format!("\"{body}\n"),
        format!("\\{body}\""),
        format!("\u{0001}{body}\u{001f}"),
        format!("\t{body}"),
        format!("{body}\r"),
        body.clone(),
    ] {
        let encoded = Json::Str(s.clone()).encode();
        assert_eq!(encoded, reference_literal(&s));
        assert_eq!(parse(&encoded).unwrap(), Json::Str(s));
    }
    // Escapes the encoder never emits decode at both ends of a long run.
    let wire = format!("\"\\u0041{body}\\/\"");
    assert_eq!(parse(&wire).unwrap(), Json::Str(format!("A{body}/")));
}

#[test]
fn multi_byte_utf8_next_to_escapes() {
    for s in ["é\"ß", "\\中\\", "😀\n😀", "\u{0001}é\u{0002}", "ß\t", "\"🦀", "中\u{001f}"]
    {
        let encoded = Json::Str(s.to_string()).encode();
        assert_eq!(encoded, reference_literal(s), "{s:?}");
        assert_eq!(parse(&encoded).unwrap(), Json::Str(s.to_string()), "{s:?}");
    }
    // Surrogate-pair and BMP escapes directly against raw multi-byte text.
    assert_eq!(parse(r#""é\ud83d\ude00ß\u00e9中""#).unwrap(), Json::Str("é😀ßé中".to_string()));
}

#[test]
fn raw_control_bytes_are_still_rejected() {
    let body = "y".repeat(10_000);
    for (wire, at) in [
        ("\"\u{0001}\"".to_string(), 1),
        (format!("\"{body}\u{001f}\""), 1 + body.len()),
        (format!("\"é\n{body}\""), 3),
        (format!("\"{body}\\n\u{0000}\""), 3 + body.len()),
    ] {
        let err = parse(&wire).unwrap_err();
        assert!(err.message.contains("control"), "{wire:?}: {err}");
        assert_eq!(err.at, at, "{err}");
    }
    // An unterminated long string is an error too, not a panic.
    assert!(parse(&format!("\"{body}")).is_err());
    assert!(parse(&format!("\"{body}\\")).is_err());
}

#[test]
fn arbitrary_strings_encode_like_the_reference_and_round_trip() {
    const ALPHABET: &[char] = &[
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{0000}', '\u{001f}', 'é', '中', '😀',
        '\u{7f}',
    ];
    proptest!(|(picks in prop::collection::vec(0usize..ALPHABET.len(), 0..64))| {
        let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let encoded = Json::Str(s.clone()).encode();
        prop_assert_eq!(&encoded, &reference_literal(&s));
        prop_assert_eq!(parse(&encoded).unwrap(), Json::Str(s));
    });
}
