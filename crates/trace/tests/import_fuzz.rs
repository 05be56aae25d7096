//! Deterministic fuzzing of the Chrome-trace importer.
//!
//! Every input here is a mutation of `golden_chrome.json`: each truncation
//! prefix, seeded single-bit flips, every byte position overwritten with
//! JSON punctuation, each number replaced by an extreme, and `\u` escapes
//! spliced into every name. `from_chrome_trace` may accept or reject each
//! one, but it must return; a panic fails the test with the input that
//! caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::test_runner::TestRng;
use skip_trace::chrome;

const GOLDEN: &str = include_str!("golden_chrome.json");

/// Runs the importer on every input, collecting the ones that panicked.
fn panicking_inputs(inputs: impl IntoIterator<Item = String>) -> Vec<String> {
    inputs
        .into_iter()
        .filter(|json| catch_unwind(AssertUnwindSafe(|| chrome::from_chrome_trace(json))).is_err())
        .collect()
}

fn assert_never_panics(inputs: impl IntoIterator<Item = String>) {
    let bad = panicking_inputs(inputs);
    assert!(
        bad.is_empty(),
        "{} input(s) panicked the importer, first: {}",
        bad.len(),
        bad[0]
    );
}

fn golden() -> &'static str {
    GOLDEN.trim_end()
}

/// Byte ranges of the golden's numbers (outside string literals).
fn number_spans(json: &str) -> Vec<(usize, usize)> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Byte offsets just inside the opening quote of every `"name"` value.
fn name_value_starts(json: &str) -> Vec<usize> {
    json.match_indices(r#""name":""#)
        .map(|(at, key)| at + key.len())
        .collect()
}

#[test]
fn the_golden_itself_imports() {
    assert!(chrome::from_chrome_trace(golden()).is_ok());
    assert_eq!(number_spans(golden()).len(), 26);
    assert_eq!(name_value_starts(golden()).len(), 6);
}

#[test]
fn every_truncation_prefix_returns() {
    let json = golden();
    assert_never_panics((0..json.len()).map(|n| json[..n].to_owned()));
}

#[test]
fn seeded_single_bit_flips_return() {
    // Flipping one of the low seven bits keeps the text ASCII, so every
    // mutant is still a `&str`.
    let json = golden();
    let mut rng = TestRng::deterministic();
    assert_never_panics((0..4_000).map(|_| {
        let mut bytes = json.as_bytes().to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.below(7);
        String::from_utf8(bytes).expect("ASCII stays UTF-8")
    }));
}

#[test]
fn every_byte_overwritten_with_json_punctuation_returns() {
    let json = golden();
    let subs = b"\"\\{}[],:-+.0eEnu ";
    assert_never_panics((0..json.len()).flat_map(|at| {
        subs.iter().map(move |&b| {
            let mut bytes = json.as_bytes().to_vec();
            bytes[at] = b;
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        })
    }));
}

#[test]
fn extreme_numbers_return() {
    let json = golden();
    let spans = number_spans(json);
    for extreme in [
        "1e300",
        "-1",
        "1e20",
        "-1e300",
        "1e-300",
        "18446744073709551616",
    ] {
        // Each number on its own, then all of them at once.
        let single = spans
            .iter()
            .map(|&(s, e)| format!("{}{extreme}{}", &json[..s], &json[e..]));
        let mut all = String::new();
        let mut last = 0;
        for &(s, e) in &spans {
            all.push_str(&json[last..s]);
            all.push_str(extreme);
            last = e;
        }
        all.push_str(&json[last..]);
        assert_never_panics(single.chain(std::iter::once(all)));
    }
}

#[test]
fn unicode_escapes_spliced_into_names_return() {
    let json = golden();
    let escapes = [
        r"\u0041",
        r"\u0000",
        r"\u001f",
        r"\ud83d\ude00",
        r"\ud800",
        r"\ud800\u0041",
        r"\ud800\ue000",
        r"\udbff\udfff",
        r"\udc00",
        r"\ud800x",
        r"\u00",
        r"\uZZZZ",
        r"\u",
        r"\",
    ];
    assert_never_panics(name_value_starts(json).into_iter().flat_map(|at| {
        escapes
            .iter()
            .map(move |esc| format!("{}{esc}{}", &json[..at], &json[at..]))
    }));
}
