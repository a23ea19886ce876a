//! The JSON codec (`vendor/serde_json` over the streaming `vendor/serde`
//! traits): strings round-trip through every escape form, the writer's
//! bytes equal a char-at-a-time reference escaper, learned wrapper sets
//! and extractions serialize to the exact bytes recorded before the codec
//! streamed, and malformed input comes back as `Err`, never a panic.

use std::collections::BTreeMap;

use mse::core::{Mse, MseConfig};
use mse::testbed::EngineSpec;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Per-property case count: the given base, or `PROPTEST_CASES` from the
/// environment when that is larger (the CI fuzz-smoke job raises it).
fn cases(base: u32) -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map_or(base, |env| env.max(base));
    ProptestConfig::with_cases(n)
}

/// Characters the codec treats differently: quotes, backslashes, every
/// control character, DEL, multi-byte BMP characters around the surrogate
/// range, and characters outside the BMP (surrogate pairs in `\u` form).
fn tricky_char() -> impl Strategy<Value = char> {
    const SPECIAL: &[char] = &[
        '"',
        '\\',
        '/',
        '\u{7f}',
        'é',
        '€',
        '\u{d7ff}',
        '\u{e000}',
        '\u{fffd}',
        '\u{ffff}',
        '😀',
        '\u{10000}',
        '\u{10ffff}',
    ];
    (0u32..100).prop_flat_map(|k| -> Box<dyn Strategy<Value = char>> {
        match k {
            0..=29 => Box::new((0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('?'))),
            30..=49 => Box::new((0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i])),
            50..=59 => {
                Box::new((0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('x')))
            }
            _ => Box::new((0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('a'))),
        }
    })
}

/// Strings long enough to cross the parser's and writer's 8-byte steps.
fn tricky_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(tricky_char(), 0..40).prop_map(|cs| cs.into_iter().collect())
}

/// The escaper the codec used before it streamed, one char at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `s` as a JSON literal with every character written as `\uXXXX`
/// (UTF-16 units, so non-BMP characters become surrogate pairs).
fn all_unicode_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Doc {
    name: String,
    tags: Vec<String>,
    by_key: BTreeMap<String, u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    kind: Kind,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Kind {
    Plain,
    Pair(i64, f64),
    Named { label: String },
}

proptest! {
    #![proptest_config(cases(512))]

    #[test]
    fn strings_round_trip_and_match_the_reference_escaper(s in tricky_string()) {
        let json = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(&json, &reference_escape(&s));
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s.clone());
        prop_assert_eq!(serde_json::from_slice::<String>(json.as_bytes()).unwrap(), s.clone());
        let escaped = all_unicode_escaped(&s);
        prop_assert_eq!(serde_json::from_str::<String>(&escaped).unwrap(), s.clone());

        // As a map key and inside derived types, compact and pretty.
        let mut by_key = BTreeMap::new();
        by_key.insert(s.clone(), 7u32);
        let doc = Doc {
            name: s.clone(),
            tags: vec![s.clone(), String::new(), s.clone()],
            by_key,
            note: (!s.is_empty()).then(|| s.clone()),
            kind: Kind::Named { label: s.clone() },
        };
        let compact = serde_json::to_string(&doc).unwrap();
        prop_assert!(compact.contains(&format!("{}:7", reference_escape(&s))));
        prop_assert_eq!(serde_json::from_str::<Doc>(&compact).unwrap(), doc);
        let pretty = serde_json::to_string_pretty(&doc.name).unwrap();
        prop_assert_eq!(pretty, reference_escape(&s));
    }

    /// Corrupting a valid document never panics the parser: every
    /// truncation and byte flip either parses or returns `Err`.
    #[test]
    fn corrupted_documents_fail_cleanly(s in tricky_string(), cut in 0usize..1000, flip in 0usize..1000, byte in 0u32..256) {
        let doc = Doc {
            name: s.clone(),
            tags: vec![s.clone()],
            by_key: BTreeMap::new(),
            note: Some(s),
            kind: Kind::Pair(-3, 0.5),
        };
        let json = serde_json::to_string(&doc).unwrap().into_bytes();
        let truncated = &json[..cut % json.len()];
        prop_assert!(serde_json::from_slice::<Doc>(truncated).is_err());
        let mut flipped = json.clone();
        let at = flip % flipped.len();
        flipped[at] = byte as u8;
        let _ = serde_json::from_slice::<Doc>(&flipped);
        let _ = serde_json::from_slice::<Value>(&flipped);
    }
}

#[test]
fn every_scalar_form_round_trips() {
    let doc = Doc {
        name: "x".into(),
        tags: vec![],
        by_key: BTreeMap::new(),
        note: None,
        kind: Kind::Plain,
    };
    let json = serde_json::to_string(&doc).unwrap();
    assert_eq!(json, r#"{"name":"x","tags":[],"by_key":{},"kind":"Plain"}"#);
    assert_eq!(serde_json::from_str::<Doc>(&json).unwrap(), doc);
    let pretty =
        serde_json::to_string_pretty(&Kind::Pair(-9_223_372_036_854_775_808, 3.0)).unwrap();
    assert_eq!(
        pretty,
        "{\n  \"Pair\": [\n    -9223372036854775808,\n    3.0\n  ]\n}"
    );
    for v in [u64::MAX, 0, 10, 99, 100] {
        assert_eq!(serde_json::to_string(&v).unwrap(), v.to_string());
        assert_eq!(serde_json::from_str::<u64>(&v.to_string()).unwrap(), v);
    }
    for x in [0.1f64, -0.0, 1e300, 5e-324, 123456.789] {
        let json = serde_json::to_string(&x).unwrap();
        assert_eq!(
            serde_json::from_str::<f64>(&json).unwrap().to_bits(),
            x.to_bits()
        );
    }
    assert!(serde_json::to_string(&f64::NAN).is_err());
    assert!(serde_json::to_string(&vec![1.0, f64::INFINITY]).is_err());
}

#[test]
fn negative_corpus_is_rejected() {
    let deep_arrays = "[".repeat(serde_json::MAX_DEPTH + 1);
    let deep_objects = r#"{"a":"#.repeat(serde_json::MAX_DEPTH + 1);
    let mut corpus: Vec<Vec<u8>> = [
        // truncated escapes and strings
        r#"""#,
        r#""\"#,
        r#""\u"#,
        r#""\u12"#,
        r#""\u12""#,
        r#""\uZZZZ""#,
        r#""\x""#,
        r#""abc"#,
        // lone and malformed surrogates
        r#""\uD800""#,
        r#""\uDC00""#,
        r#""\uD800\u0041""#,
        r#""\uD800\"#,
        r#""\uDBFF\uD800""#,
        // structure
        "",
        " ",
        "[1,",
        "[1 2]",
        "[,1]",
        "{\"a\"",
        "{\"a\" 1}",
        "{\"a\":}",
        "{1:2}",
        "{\"a\":1,}",
        "tru",
        "nul",
        "fals",
        "-",
        "1e",
        "+1",
        ".5",
        "--1",
        // trailing bytes
        "1 x",
        "{} {}",
        r#""a" "b""#,
        "null,",
        // over-deep nesting
        &deep_arrays,
        &deep_objects,
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // invalid UTF-8 inside strings, raw and next to escapes
    corpus.push(b"\"\xff\"".to_vec());
    corpus.push(b"\"\xc3\"".to_vec());
    corpus.push(b"\"\xc0\xaf\"".to_vec());
    corpus.push(b"\"\xed\xa0\x80\"".to_vec());
    corpus.push(b"\"\\n\xe2\x82\"".to_vec());
    corpus.push(b"{\"\xff\":1}".to_vec());
    for input in &corpus {
        let shown = String::from_utf8_lossy(input);
        assert!(
            serde_json::from_slice::<Value>(input).is_err(),
            "accepted {shown:?}"
        );
        assert!(
            serde_json::from_slice::<Doc>(input).is_err(),
            "accepted {shown:?} as Doc"
        );
    }
    // Exactly at the limit is fine.
    let at_limit = format!(
        "{}{}",
        "[".repeat(serde_json::MAX_DEPTH),
        "]".repeat(serde_json::MAX_DEPTH)
    );
    assert!(serde_json::from_str::<Value>(&at_limit).is_ok());
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Store files are content-addressed and the wire format is fixed, so the
/// codec's output bytes must not move. The digests were recorded with the
/// tree-building codec this one replaced. The two wrapper-set digests were
/// re-recorded when the config lost its `legacy_ingest` member; they hash
/// the earlier bytes with exactly that member deleted.
#[test]
fn learned_sets_and_extractions_serialize_to_recorded_bytes() {
    let (mut compact, mut pretty, mut extractions) = (
        0xcbf2_9ce4_8422_2325u64,
        0xcbf2_9ce4_8422_2325u64,
        0xcbf2_9ce4_8422_2325u64,
    );
    let mut built = 0;
    for e in 0..6 {
        let spec = EngineSpec::generate(2006, e);
        let samples: Vec<_> = (0..5).map(|q| spec.page(q)).collect();
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|p| (p.html.as_str(), Some(p.query.as_str())))
            .collect();
        let Ok(set) = Mse::new(MseConfig::default()).build_with_queries(&refs) else {
            continue;
        };
        built += 1;
        let text = serde_json::to_string_pretty(&set).unwrap();
        fnv(
            &mut compact,
            serde_json::to_string(&set).unwrap().as_bytes(),
        );
        fnv(&mut pretty, text.as_bytes());
        // A stored set loads back and re-saves byte-identically.
        let back: mse::core::SectionWrapperSet = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);
        for q in 5..8 {
            let page = spec.page(q);
            let ex = set.extract_with_query(&page.html, Some(&page.query));
            fnv(
                &mut extractions,
                serde_json::to_string(&ex).unwrap().as_bytes(),
            );
        }
    }
    assert_eq!(built, 6);
    assert_eq!(
        compact, 0xd558_2fdb_29ca_5ae5,
        "compact wrapper-set bytes moved"
    );
    assert_eq!(
        pretty, 0x9428_e8c0_df98_b17f,
        "pretty wrapper-set bytes moved"
    );
    assert_eq!(extractions, 0x1787_aaf5_c380_b991, "extraction bytes moved");
}
