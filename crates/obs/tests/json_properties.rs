//! Round-trip and robustness properties of the obs layer's JSON
//! kernel: whatever the writer emits parses back to the same value,
//! and the parser turns any input into a value or an error, never a
//! panic.

use pisa_obs::json::Value;
use proptest::prelude::*;

/// Characters that stress escaping: quotes, backslashes, control
/// characters, and multi-byte code points inside and beyond the BMP.
const PALETTE: [char; 16] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'a', 'Z', ' ', 'é', '€',
    '\u{2028}', '😀',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

/// A finite `f64` from arbitrary bits.
fn finite() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("finite", |v| v.is_finite())
}

/// A document of nested arrays and objects, grown from `seed`.
fn document(seed: u64, depth: u32) -> Value {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    fn grow(next: &mut dyn FnMut() -> u64, depth: u32) -> Value {
        let pick = if depth == 0 { next() % 4 } else { next() % 6 };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(next().is_multiple_of(2)),
            2 => Value::from_u64(next()),
            3 => Value::Str(
                (0..next() % 6)
                    .map(|_| PALETTE[(next() % 16) as usize])
                    .collect(),
            ),
            4 => Value::Arr((0..next() % 4).map(|_| grow(next, depth - 1)).collect()),
            _ => Value::Obj(
                (0..next() % 4)
                    .map(|i| (format!("k{i}"), grow(next, depth - 1)))
                    .collect(),
            ),
        }
    }
    grow(&mut next, depth)
}

proptest! {
    #[test]
    fn strings_roundtrip_through_escapes(s in text()) {
        let json = Value::Str(s.clone()).to_json();
        // Escaped output is one line: a raw control character never
        // reaches the file.
        prop_assert!(!json.chars().any(|c| (c as u32) < 0x20));
        prop_assert_eq!(Value::parse(&json).unwrap(), Value::Str(s));
    }

    #[test]
    fn finite_numbers_roundtrip(v in finite()) {
        let parsed = Value::parse(&Value::from_f64(v).to_json()).unwrap();
        prop_assert_eq!(parsed.as_f64(), Some(v));
    }

    #[test]
    fn integers_below_two_to_the_53_roundtrip_exactly(v in 0u64..(1 << 53)) {
        let parsed = Value::parse(&Value::from_u64(v).to_json()).unwrap();
        prop_assert_eq!(parsed.as_u64(), Some(v));
    }

    #[test]
    fn nested_documents_roundtrip(seed in any::<u64>(), depth in 0u32..5) {
        let doc = document(seed, depth);
        let json = doc.to_json();
        prop_assert_eq!(Value::parse(&json).unwrap(), doc.clone());
        // Whitespace between tokens is insignificant.
        let spaced = json.replace(',', " ,\n\t").replace(':', " : ");
        if !json.contains('"') {
            prop_assert_eq!(Value::parse(&spaced).unwrap(), doc);
        }
    }

    /// Every strict prefix of a container document is incomplete.
    #[test]
    fn truncated_containers_are_rejected(seed in any::<u64>()) {
        let doc = Value::Arr(vec![document(seed, 3), document(seed ^ 1, 2)]);
        let json = doc.to_json();
        for end in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
            prop_assert!(Value::parse(&json[..end]).is_err(), "{}", &json[..end]);
        }
    }

    /// Random token soup parses or errors, never panics, and whatever
    /// parses writes back to text that parses to the same value.
    #[test]
    fn parse_is_total_and_rewriting_is_stable(
        tokens in proptest::collection::vec(0usize..14, 0..16),
    ) {
        const SOUP: [&str; 14] = [
            "[", "]", "{", "}", ",", ":", "\"k\"", "1", "-2.5e3", "true", "null", " ", "\"\\u00e9\"",
            "\"\\ud83d\\ude00\"",
        ];
        let text: String = tokens.into_iter().map(|i| SOUP[i]).collect();
        if let Ok(v) = Value::parse(&text) {
            prop_assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        }
    }
}
