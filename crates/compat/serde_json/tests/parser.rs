//! Parser properties: linear time, UTF-8 fidelity, and round trips of
//! arbitrary strings and value trees.

use std::time::Instant;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Value;
use serde_json::{from_str, to_string};

/// A document of at least `bytes` bytes made almost entirely of string
/// content: ASCII runs, 2-, 3- and 4-byte characters, and escapes.
fn string_heavy_document(bytes: usize) -> String {
    let piece = "plain ascii text, é ü 中文 𝄞🦀 \"quoted\" back\\slash\ttab\n";
    let mut items = Vec::new();
    let mut text = to_string(&Value::Array(Vec::new())).unwrap();
    while text.len() < bytes {
        items.push(Value::Str(piece.repeat(8)));
        text = to_string(&Value::Array(items.clone())).unwrap();
    }
    text
}

fn parse_seconds(text: &str) -> f64 {
    let start = Instant::now();
    let value: Value = from_str(text).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(matches!(value, Value::Array(_)));
    elapsed
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn parse_time_is_linear_in_document_length() {
    let small = string_heavy_document(32 * 1024);
    let large = string_heavy_document(4 * small.len());
    let size_ratio = large.len() as f64 / small.len() as f64;
    // Paired, interleaved samples: the median per-pair ratio shrugs off
    // load that comes and goes while the test runs.
    let ratios: Vec<f64> = (0..9)
        .map(|_| {
            let t_small = parse_seconds(&small);
            let t_large = parse_seconds(&large);
            t_large / t_small
        })
        .collect();
    let ratio = median(ratios);
    // Linear parsing gives about 4x for 4x the bytes; quadratic, about 16x.
    assert!(
        ratio < 8.0,
        "parsing {size_ratio:.2}x the bytes took {ratio:.1}x the time"
    );
}

#[test]
fn multibyte_characters_survive_in_runs_and_next_to_escapes() {
    for s in [
        "é",
        "ü€",
        "中文字符",
        "𝄞🦀",
        "aé中𝄞z",
        "é\"",
        "\"é",
        "中\\文",
        "\n𝄞\t",
        "🦀\u{1}🦀",
        "ascii only",
        "",
    ] {
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s, "via {json}");
    }
}

#[test]
fn unicode_escapes_decode() {
    for (json, expected) in [
        (r#""\u00e9""#, "é"),
        (r#""\u4e2d""#, "中"),
        (r#""\ud834\udd1e""#, "𝄞"),
        (r#""a\u00E9中\u0041𝄞""#, "aé中A𝄞"),
        (r#""\u0000\u001f""#, "\u{0}\u{1f}"),
        (r#""\/\b\f""#, "/\u{8}\u{c}"),
    ] {
        assert_eq!(from_str::<String>(json).unwrap(), expected, "{json}");
    }
    for bad in [
        r#""\ud834""#,
        r#""\ud834A""#,
        r#""\udd1e""#,
        r#""\u12""#,
        r#""\u+123""#,
        r#""\x""#,
        "\"open",
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad} should not parse");
    }
}

#[test]
fn non_ascii_object_keys_round_trip() {
    let value = Value::Object(vec![
        ("clé".to_string(), Value::Int(1)),
        ("键".to_string(), Value::Str("值".into())),
        ("𝄞\"\\".to_string(), Value::Array(vec![Value::Bool(true)])),
    ]);
    let json = to_string(&value).unwrap();
    assert_eq!(json, r#"{"clé":1,"键":"值","𝄞\"\\":[true]}"#);
    assert_eq!(from_str::<Value>(&json).unwrap(), value);
    let spaced = "{ \"ключ\" : \"значение\" }";
    assert_eq!(
        from_str::<Value>(spaced).unwrap(),
        Value::Object(vec![("ключ".into(), Value::Str("значение".into()))])
    );
}

/// Any Unicode scalar value, weighted toward the characters JSON treats
/// specially and toward each UTF-8 encoding length.
fn any_char() -> impl Strategy<Value = char> {
    let scalar =
        |range: std::ops::Range<u32>| range.prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'));
    prop_oneof![
        3 => scalar(0x20..0x7f),
        1 => prop_oneof![Just('"'), Just('\\'), Just('\n'), Just('\t'), Just('/')],
        1 => scalar(0..0x20),
        1 => scalar(0x80..0x800),
        1 => scalar(0x800..0x10000),
        1 => scalar(0x10000..0x110000),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Value trees of bounded depth whose every leaf survives a text round
/// trip unchanged: finite floats, and `UInt` only above `i64::MAX`
/// (smaller unsigned integers parse back as `Int`).
struct AnyValue {
    depth: u32,
}

impl Strategy for AnyValue {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let kinds = if self.depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::UInt(i64::MAX as u64 + 1 + rng.below(i64::MAX as u64)),
            4 => {
                let f = f64::from_bits(rng.next_u64());
                Value::Float(if f.is_finite() { f } else { 0.5 })
            }
            5 => Value::Str(any_string().sample(rng)),
            6 => {
                let inner = AnyValue {
                    depth: self.depth - 1,
                };
                let len = rng.below(5);
                Value::Array((0..len).map(|_| inner.sample(rng)).collect())
            }
            _ => {
                let inner = AnyValue {
                    depth: self.depth - 1,
                };
                let len = rng.below(5);
                Value::Object(
                    (0..len)
                        .map(|_| (any_string().sample(rng), inner.sample(rng)))
                        .collect(),
                )
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_round_trip(s in any_string()) {
        let json = to_string(&s).unwrap();
        prop_assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn arbitrary_values_round_trip(value in AnyValue { depth: 4 }) {
        let json = to_string(&value).unwrap();
        let round: Value = from_str(&json).unwrap();
        prop_assert_eq!(to_string(&round).unwrap(), json);
        prop_assert_eq!(round, value);
    }
}
