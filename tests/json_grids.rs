//! Deterministic grids for the workspace JSON module
//! (`fuseconv_telemetry::json`): every escaped string reads back
//! exactly, and damaged real artifacts and hostile documents are an
//! `Err`, never a panic or a stack overflow. They live here so the
//! telemetry crate needs no rng and stays dependency-free.

use fuseconv::analyze::{analyze_network, Report};
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::serve::{simulate, PodSpec, ServeConfig, Workload};
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::json::{self, Value};
use fuseconv::telemetry::json_escape;
use fuseconv::tensor::rng::Rng;

#[test]
fn escaped_strings_round_trip_through_the_parser() {
    // Quotes, backslash, every C0 control, DEL, BMP and non-BMP chars.
    let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
    alphabet.extend("\"\\/\u{7f}a é中\u{2028}\u{fffd}\u{ffff}😀\u{1d11e}\u{10ffff}".chars());
    let mut rng = Rng::seed_from_u64(0x0E5C_A9E5);
    for len in (0..4_000).map(|i| 1 + i % 24) {
        let s: String = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len())])
            .collect();
        let literal = format!("\"{}\"", json_escape(&s));
        assert_eq!(json::parse(&literal), Ok(Value::String(s)), "{literal:?}");
    }
}

#[test]
fn damaged_real_artifacts_are_errors() {
    let model = LatencyModel::new(ArrayConfig::square(8).expect("8 is nonzero"));
    // One diagnostic per rule keeps the quadratic truncation grid small.
    let mut analysis = Report::new();
    for d in analyze_network(&model, &zoo::mobilenet_v1()).diagnostics {
        if analysis.with_rule(d.rule).is_empty() {
            analysis.push(d);
        }
    }
    let pod = PodSpec::homogeneous(2, 8).expect("valid pod");
    let workload = Workload::uniform(vec![zoo::mobilenet_v3_small()]).expect("valid workload");
    let cfg = ServeConfig {
        requests: 50,
        ..ServeConfig::default()
    };
    let serve = simulate(&pod, &workload, &cfg, None).expect("pod simulation runs");
    let bench = include_str!("../BENCH_fuseconv.json").to_owned();
    let mut rng = Rng::seed_from_u64(0x0BAD_F11E);
    for text in [analysis.to_json(), serve.to_json(), bench] {
        assert!(json::parse(&text).is_ok());
        // Every truncation that cuts into the document proper.
        for cut in (0..text.trim_end().len()).filter(|&c| text.is_char_boundary(c)) {
            assert!(json::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
        // A raw control byte is an error anywhere; other single-byte
        // flips may still parse but must not panic.
        let ascii: Vec<usize> = (0..text.len())
            .filter(|&i| text.as_bytes()[i].is_ascii())
            .collect();
        let flip = |at: usize, byte: u8| {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = byte;
            json::parse(&String::from_utf8(bytes).expect("ASCII flip keeps UTF-8"))
        };
        for (i, &at) in ascii.iter().enumerate() {
            assert!(flip(at, 0x01).is_err(), "control byte at {at}");
            let _ = flip(ascii[rng.below(ascii.len())], b"{}[]\":,\\-0eE.nt "[i % 16]);
        }
    }
}

#[test]
fn hostile_documents_are_errors() {
    let deep = 10_000;
    for doc in [
        "[".repeat(deep),
        format!("{}{}", "[".repeat(deep), "]".repeat(deep)),
        format!("{}1{}", "{\"a\":".repeat(deep), "}".repeat(deep)),
    ] {
        assert!(json::parse(&doc).is_err(), "{deep}-deep nesting accepted");
    }
    for bad in [
        // Lone surrogate escapes.
        r#""\ud800""#,
        r#""\udbff\n""#,
        r#""\ud800\ud800""#,
        r#""\ud800A""#,
        r#""\udc00""#,
        r#"["\ud83d"]"#,
        // Non-finite numbers.
        "NaN",
        "-NaN",
        "Infinity",
        "-Infinity",
        "[1, NaN]",
        r#"{"x": Infinity}"#,
        // Trailing garbage.
        "{} x",
        "{}}",
        "[1] [2]",
        "1 2",
        "null,",
        "{\"a\":1}\u{0}",
        // Other grammar errors.
        "",
        "{",
        r#"{"a":1,}"#,
        "[1,]",
        "{a:1}",
        "01",
        "1.",
        "-",
        "1e",
        "+1",
        r#""\u12g4""#,
        r#""\x""#,
        "\"tab\there\"",
        "\"open",
        "tru",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
}
