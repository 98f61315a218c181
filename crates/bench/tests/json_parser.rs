//! Never-panic properties of the JSON parser: token soup drawn mostly
//! from JSON's alphabet, one-byte corruptions and truncations of
//! committed documents each parse or fail with an error; strings the
//! writer emits parse back equal; and a long string parses in linear
//! time.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use tsv3d_bench::json::{parse, JsonValue, ObjectWriter};

/// What the soup is drawn from: brackets, quotes, backslash escapes,
/// `\u` digits and numbers with exponents.
const TOKENS: [&str; 26] = [
    "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\\"", "\\n", "\\u", "\\ud83d", "\\ude00",
    "00e9", "dF", "-", "0", "12", ".5", "e", "E+", "e-7", "true", "null", "é",
];

/// Documents the corruption properties start from: two committed
/// files and an array of objects with floats, a null and booleans.
const DOCUMENTS: [&str; 3] = [
    include_str!("../../../results/bench/BENCH_anneal_quick_3x3.json"),
    concat!(
        r#"{"tick":8,"stall_after":40,"uptime_s":10.0,"restarts":["#,
        r#"{"restart":0,"iters_done":250,"iters_planned":1000,"best_power":0.5,"#,
        r#""accepts":17,"heartbeat_tick":8,"state":"running","stalled":false},"#,
        r#"{"restart":1,"iters_done":1000,"iters_planned":1000,"best_power":null,"#,
        r#""accepts":40,"heartbeat_tick":8,"state":"done","stalled":true}]}"#,
    ),
    include_str!("../../../tests/data/explain_assignment.json"),
];

/// Token soup: mostly JSON's alphabet, now and then an arbitrary byte.
fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec((0..TOKENS.len() + 3, any::<u8>()), 0..80).prop_map(|picks| {
        let mut bytes = Vec::new();
        for (pick, byte) in picks {
            match TOKENS.get(pick) {
                Some(token) => bytes.extend_from_slice(token.as_bytes()),
                None => bytes.push(byte),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #[test]
    fn json_alphabet_soup_parses_or_errs(text in soup()) {
        // Wrapped in a string and an array too, so escapes and numbers
        // are reached behind an opening quote or bracket.
        for doc in [text.clone(), format!("\"{text}\""), format!("[{text}]")] {
            let _ = parse(&doc);
        }
    }

    #[test]
    fn corrupted_documents_parse_or_err(
        doc in 0..DOCUMENTS.len(),
        at in 0usize..1 << 20,
        byte in any::<u8>(),
    ) {
        let mut bytes = DOCUMENTS[doc].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_documents_are_errors(doc in 0..DOCUMENTS.len(), cut in 0usize..1 << 20) {
        let text = DOCUMENTS[doc].trim_end();
        let cut = (0..=cut % text.len()).rev().find(|&c| text.is_char_boundary(c)).unwrap_or(0);
        // Every document is one object, so any strict prefix is cut off.
        prop_assert!(parse(&text[..cut]).is_err(), "prefix of {} bytes parsed", cut);
    }

    #[test]
    fn writer_strings_parse_back_equal(
        codes in prop::collection::vec((any::<bool>(), any::<u32>()), 0..48),
    ) {
        // Half the characters are ASCII (quotes, backslashes, control
        // characters), the rest anywhere in Unicode.
        let s: String = codes
            .into_iter()
            .filter_map(|(ascii, code)| char::from_u32(code % if ascii { 0x80 } else { 0x11_0000 }))
            .collect();
        let mut w = ObjectWriter::new();
        w.str("s", &s);
        let value = parse(&w.finish()).map_err(|e| e.to_string())?;
        prop_assert_eq!(value.get("s").and_then(JsonValue::as_str), Some(s.as_str()));
    }
}

#[test]
fn a_one_mebibyte_string_parses_in_linear_time() {
    let payload = "ab\\\"é".repeat((1 << 20) / 6);
    let doc = format!("{{\"s\":\"{payload}\"}}");
    let start = Instant::now();
    let value = parse(&doc).expect("the document parses");
    let elapsed = start.elapsed();
    let s = value
        .get("s")
        .and_then(JsonValue::as_str)
        .expect("string field");
    assert_eq!(s.len(), payload.len() - payload.matches('\\').count());
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
}
