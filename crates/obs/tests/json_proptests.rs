//! Property tests of `contention_obs::json`: the parser is total on
//! arbitrary text and bounded in depth, and it reads back exactly what the
//! emitters write.

use contention_obs::json::{number, parse, string, Value, MAX_DEPTH};
use proptest::prelude::*;

/// Deepest nesting level of any value in `v` (the top-level value is 0).
fn deepest(v: &Value) -> usize {
    match v {
        Value::Array(items) => items.iter().map(|i| 1 + deepest(i)).max().unwrap_or(0),
        Value::Object(members) => members
            .iter()
            .map(|(_, m)| 1 + deepest(m))
            .max()
            .unwrap_or(0),
        _ => 0,
    }
}

/// Bytes that reach past the first character of the grammar: brackets,
/// quotes, escapes, digits, signs, exponents and the literals' letters.
const JSON_ALPHABET: &[u8] =
    b"[]{}\",:\\/u0123456789abcdefABCDEF+-.eE \n\ttrufalsn\x00\x7f\xc3\xa9";

/// Characters the emitter has to escape or pass through untouched, from
/// one random word: controls, `\r`, quotes and backslashes, astral
/// characters, the rest of the BMP and plain ASCII.
fn char_from(word: u32) -> char {
    let pick = word >> 3;
    let code = match word % 8 {
        0 => pick % 0x20,
        1 => u32::from(b"\"\\/\r\n\t\x08\x0c"[pick as usize % 8]),
        2 => 0x1_0000 + pick % 0x10_0000,
        3 => pick % 0xD800,
        4 => 0xE000 + pick % 0x2000,
        _ => 0x20 + pick % 0x5F,
    };
    char::from_u32(code).expect("every arm stays clear of the surrogates")
}

#[test]
fn nesting_is_cut_off_at_max_depth_without_touching_the_stack() {
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    let deepest_allowed = parse(&nested(MAX_DEPTH + 1)).expect("innermost array sits at MAX_DEPTH");
    assert_eq!(deepest(&deepest_allowed), MAX_DEPTH);
    assert!(parse(&nested(MAX_DEPTH + 2)).is_err());
    assert!(parse(&"[".repeat(1_000_000)).is_err());
    assert!(parse(&"{\"k\":".repeat(1_000_000)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_is_total_and_depth_bounded_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        if let Ok(value) = parse(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(deepest(&value) <= MAX_DEPTH);
        }
    }

    #[test]
    fn parse_is_total_and_depth_bounded_on_json_shaped_bytes(
        picks in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..4096),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        if let Ok(value) = parse(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(deepest(&value) <= MAX_DEPTH);
        }
    }

    #[test]
    fn an_emitted_string_parses_back_to_itself(
        words in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let s: String = words.iter().map(|&w| char_from(w)).collect();
        prop_assert_eq!(parse(&string(&s)), Ok(Value::String(s)));
    }

    #[test]
    fn an_emitted_number_parses_back_to_itself_or_null(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        let expected = if x.is_finite() { Value::Number(x) } else { Value::Null };
        prop_assert_eq!(parse(&number(x)), Ok(expected));
    }
}
