//! Property tests of the scenario tier's text front door: the TOML parser
//! and the spec decoder behind it are total. On arbitrary bytes, on
//! TOML-shaped bytes and on builtin specs with values swapped out, every
//! input is an `Ok` or a typed error, never a panic; and a spec that
//! decodes writes back out as TOML that decodes to the same spec.

use contention_scenario::registry;
use contention_scenario::spec::ScenarioSpec;
use contention_scenario::toml::{parse, MAX_DEPTH};
use proptest::prelude::*;

/// Bytes that reach past the first character of the grammar: headers,
/// brackets, quotes, escapes, comments, digits, signs, exponents, the
/// booleans' letters and multi-byte UTF-8.
const TOML_ALPHABET: &[u8] = b"[]{}\"=,.#\\ \n\t\ru0123456789abcdefxyz_-+EtrulsnA\x00\x7f\xc3\xa9";

/// What a field may be handed instead of its own value: zeros, negatives,
/// the integer and float edges, a fabric too big to index, wrong types,
/// empty and nested containers.
const VALUES: &[&str] = &[
    "0",
    "-1",
    "1",
    "3",
    "100000",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "1e400",
    "-0.0",
    "0.5",
    "1e-300",
    "true",
    "\"\"",
    "\"pack\"",
    "[]",
    "[0]",
    "[2, 3]",
    "[[1]]",
    "{}",
    "{ a = 1 }",
];

/// Both entry points on one text: neither may panic, and a decoded spec
/// must survive a write/read round trip.
fn decode(text: &str) -> Result<(), TestCaseError> {
    let _ = parse(text);
    if let Ok(spec) = ScenarioSpec::from_toml_str(text) {
        match ScenarioSpec::from_toml_str(&spec.to_toml_string()) {
            Ok(back) => prop_assert_eq!(back, spec),
            Err(e) => prop_assert!(false, "{} decoded but its TOML does not: {}", spec.name, e),
        }
    }
    Ok(())
}

#[test]
fn nesting_is_cut_off_at_max_depth_without_touching_the_stack() {
    let nested = |levels: usize| format!("a = {}{}", "[".repeat(levels), "]".repeat(levels));
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    assert!(parse(&nested(1_000_000)).is_err());
    let tables = format!(
        "a = {}{}",
        "{ b = ".repeat(1_000_000),
        "}".repeat(1_000_000)
    );
    assert!(parse(&tables).is_err());
    // One bracket per line: joining the lines takes linear time (a rescan
    // of everything joined so far per line took minutes at this size).
    let lines = format!("a = {}{}", "[\n".repeat(200_000), "]\n".repeat(200_000));
    assert!(parse(&lines).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoding_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        decode(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn decoding_is_total_on_toml_shaped_bytes(
        picks in prop::collection::vec(0usize..TOML_ALPHABET.len(), 0..4096),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| TOML_ALPHABET[i]).collect();
        decode(&String::from_utf8_lossy(&bytes))?;
    }

    /// A builtin's TOML with up to six edits, each replacing one line's
    /// value, deleting the line or repeating it: inputs that pass the
    /// parser and reach every decoder and validation branch.
    #[test]
    fn decoding_is_total_on_edited_builtins(
        builtin in 0usize..64,
        edits in prop::collection::vec((0usize..256, 0usize..VALUES.len() + 2), 0..7),
    ) {
        let specs = registry::builtin();
        let text = specs[builtin % specs.len()].to_toml_string();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for (at, edit) in edits {
            let at = at % lines.len();
            if edit == VALUES.len() {
                lines.remove(at);
            } else if edit > VALUES.len() {
                lines.insert(at, lines[at].clone());
            } else if let Some((key, _)) = lines[at].split_once(" = ") {
                lines[at] = format!("{key} = {}", VALUES[edit]);
            }
            if lines.is_empty() {
                break;
            }
        }
        decode(&lines.join("\n"))?;
    }
}
