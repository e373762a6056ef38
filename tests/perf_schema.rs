//! Golden-file regression test for the `fuseconv perf --format json`
//! report schema. Dashboards and the CI bench trajectory key on the
//! object keys and the `fuseconv-perf-v1` schema tag;
//! `tests/golden/perf_schema.json` pins that surface so any rename or
//! removal shows up as a reviewable golden diff. Adding a key is the one
//! additive change the golden file expects — append it to the matching
//! list.

use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::perf::network_perf_report;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::json::{self, Value};

mod common;
use common::golden_list;

const GOLDEN: &str = include_str!("golden/perf_schema.json");

/// The JSON the CLI writes for `fuseconv perf --array 8` on MobileNet-V2:
/// one report per variant covering both the baseline (depthwise) and the
/// FuSe (row-broadcast) code paths.
fn cli_equivalent_reports() -> Vec<String> {
    let array = ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();
    [
        ("baseline", net.clone()),
        ("FuSe-Full", net.transform_all(FuSeVariant::Full)),
    ]
    .into_iter()
    .map(|(label, variant)| {
        network_perf_report(&model, &variant, label, 2, 64)
            .expect("perf report")
            .to_json()
    })
    .collect()
}

#[test]
fn perf_json_keys_match_golden_schema() {
    for json in cli_equivalent_reports() {
        let doc = json::parse(&json).expect("perf report parses");
        assert_eq!(
            doc.keys_at_depth(1),
            golden_list(GOLDEN, "top_level_keys"),
            "top-level report keys changed"
        );
        assert_eq!(
            doc.keys_at_depth(2),
            golden_list(GOLDEN, "nested_keys"),
            "array/totals/roofline/traffic keys changed"
        );
        // The ops array's objects sit one level below the array, two
        // below the root.
        assert_eq!(
            doc.keys_at_depth(3),
            golden_list(GOLDEN, "op_keys"),
            "per-op object keys changed"
        );
    }
}

#[test]
fn perf_json_values_stay_within_golden_vocabulary() {
    let bounds = golden_list(GOLDEN, "bounds");
    let schemas = golden_list(GOLDEN, "schema_version");
    for json in cli_equivalent_reports() {
        let doc = json::parse(&json).expect("perf report parses");
        let strings = |key| {
            doc.values_of(key)
                .into_iter()
                .filter_map(Value::as_str)
                .map(str::to_owned)
        };
        for s in strings("schema") {
            assert!(schemas.contains(&s), "schema tag `{s}` not pinned");
        }
        let seen_bounds: Vec<String> = strings("bound").collect();
        assert!(!seen_bounds.is_empty());
        for b in seen_bounds {
            assert!(bounds.contains(&b), "bound `{b}` not in golden vocabulary");
        }
    }
}

#[test]
fn perf_json_is_balanced_and_accountable() {
    for json in cli_equivalent_reports() {
        json::parse(&json).expect("perf report parses");
        assert!(json.contains("\"schema\": \"fuseconv-perf-v1\""));
    }
}
