//! Golden-file regression test for the `fuseconv serve --timeseries`
//! artifact schema. The CI serve-timeseries step and any dashboard
//! plotting pod trajectories key on the object keys, the
//! `fuseconv-serve-timeseries-v1` schema tag and the `results_fnv1a64`
//! determinism fingerprint; `tests/golden/timeseries_schema.json` pins
//! that surface so any rename or removal shows up as a reviewable
//! golden diff. Adding a key is the one additive change the golden
//! file expects — append it to the matching list.

use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::serve::{
    simulate_observed, BatchPolicy, Dispatch, PodSpec, ServeConfig, TimeSeriesConfig, Workload,
};
use fuseconv::telemetry::json::{self, Value};

mod common;
use common::golden_list;

const GOLDEN: &str = include_str!("golden/timeseries_schema.json");

/// Time-series artifacts from overloaded runs — overload guarantees
/// burn-rate alerts, so every entry family (windows, alerts,
/// exemplars) appears in each document and the key sets are complete.
fn overloaded_artifacts() -> Vec<String> {
    let pod = PodSpec::parse("16x16:os,8x8:ws").expect("valid pod");
    let workload = Workload::uniform(vec![
        zoo::mobilenet_v2().transform_all(FuSeVariant::Full),
        zoo::mobilenet_v3_small().transform_all(FuSeVariant::Full),
    ])
    .expect("valid workload");
    let base = ServeConfig {
        requests: 4_000,
        load: 2.0,
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let configs = [
        ServeConfig {
            policy: BatchPolicy::Fifo,
            dispatch: Dispatch::Whole,
            ..base.clone()
        },
        ServeConfig {
            policy: BatchPolicy::Dynamic {
                max_batch: 4,
                max_wait: 20_000,
            },
            dispatch: Dispatch::Sharded,
            ..base.clone()
        },
    ];
    configs
        .into_iter()
        .map(|cfg| {
            let (_, ts) =
                simulate_observed(&pod, &workload, &cfg, None, Some(&TimeSeriesConfig::new()))
                    .expect("pod simulation runs");
            let ts = ts.expect("time-series requested");
            assert!(
                !ts.alerts.is_empty(),
                "2x overload must raise burn-rate alerts for schema coverage"
            );
            assert!(!ts.exemplars.is_empty());
            ts.to_json()
        })
        .collect()
}

#[test]
fn timeseries_json_keys_match_golden_schema() {
    for json in overloaded_artifacts() {
        let doc = json::parse(&json).expect("time-series artifact parses");
        assert_eq!(
            doc.keys_at_depth(1),
            golden_list(GOLDEN, "top_level_keys"),
            "top-level artifact keys changed"
        );
        assert_eq!(
            doc.keys_at_depth(2),
            golden_list(GOLDEN, "nested_keys"),
            "config/totals/latency_sketch/manifest keys changed"
        );
        // Window, alert and exemplar entries sit one level below their
        // list, two below the root.
        assert_eq!(
            doc.keys_at_depth(3),
            golden_list(GOLDEN, "entry_keys"),
            "per-window / per-alert / per-exemplar entry keys changed"
        );
    }
}

#[test]
fn timeseries_json_is_balanced_tagged_and_fingerprinted() {
    let schemas = golden_list(GOLDEN, "schema_version");
    for json in overloaded_artifacts() {
        let doc = json::parse(&json).expect("time-series artifact parses");
        let strings = |key| {
            doc.values_of(key)
                .into_iter()
                .filter_map(Value::as_str)
                .map(str::to_owned)
        };
        for s in strings("schema") {
            assert!(schemas.contains(&s), "schema tag `{s}` not pinned");
        }
        assert!(json.contains("\"schema\": \"fuseconv-serve-timeseries-v1\""));
        // The determinism fingerprint CI keys on.
        assert!(json.contains("\"results_fnv1a64\": \"fnv1a64:"));
        // The embedded provenance manifest.
        assert!(json.contains("\"schema\": \"fuseconv-manifest-v1\""));
    }
}
