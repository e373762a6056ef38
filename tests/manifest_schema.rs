//! Golden-file regression test for the `fuseconv-manifest-v1` run
//! provenance object. Every JSON artifact the workspace emits (perf
//! reports, bench suites, analyze reports, Chrome traces, metrics
//! snapshots, serve reports, serve time-series and pod traces) embeds a
//! manifest under a top-level `"manifest"` key;
//! `tests/golden/manifest_schema.json` pins its field set and order so a
//! rename or removal shows up as a reviewable golden diff. Adding a field
//! is the one additive change the golden file expects — append it to the
//! `manifest_keys` list.

use fuseconv::analyze::{analyze_network, Report};
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::perf::network_perf_report;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::json::{self, Value};
use fuseconv::telemetry::{fnv1a64, RunManifest, MANIFEST_SCHEMA};
use fuseconv::trace::{ChromeTraceSink, FoldKind, TraceEvent, TraceSink};
use fuseconv_bench::micro::Micro;
use fuseconv_bench::suite::{run_suite, to_json as bench_to_json};

mod common;
use common::golden_list;

const GOLDEN: &str = include_str!("golden/manifest_schema.json");

#[test]
fn manifest_renderings_match_golden_schema() {
    let golden = golden_list(GOLDEN, "manifest_keys");
    let manifest = RunManifest::capture()
        .with_config("test invocation")
        .with_seed(7)
        .with_array(8, 8, true)
        .with_dataflow("os");
    for json in [manifest.to_json_pretty(""), manifest.to_json_compact()] {
        let doc = json::parse(&json).expect("manifest parses");
        assert_eq!(doc.keys_at_depth(1), golden, "manifest field set changed");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(MANIFEST_SCHEMA)
        );
    }
    assert!(manifest.config_hash().starts_with("fnv1a64:"));
    assert_eq!(golden_list(GOLDEN, "schema_version"), vec![MANIFEST_SCHEMA]);
}

#[test]
fn every_json_artifact_embeds_a_golden_manifest() {
    let golden = golden_list(GOLDEN, "manifest_keys");
    let array = ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();

    let mut artifacts: Vec<(&str, String)> = Vec::new();

    let perf = network_perf_report(&model, &net, "baseline", 2, 64)
        .expect("perf report")
        .to_json();
    artifacts.push(("perf report", perf));

    let mut analysis = Report::new();
    for d in analyze_network(&model, &net).diagnostics {
        analysis.push(d);
    }
    artifacts.push(("analyze report", analysis.to_json()));

    let mut sink = ChromeTraceSink::new();
    sink.on_event(&TraceEvent::FoldStart {
        fold: 0,
        tag: 0,
        cycle: 0,
        kind: FoldKind::OutputStationary,
        rows_used: 2,
        cols_used: 2,
    });
    sink.on_event(&TraceEvent::FoldEnd { fold: 0, cycle: 4 });
    artifacts.push(("chrome trace", sink.into_json()));

    let mut harness = Micro::with_budget_ms(1);
    let results = run_suite(&mut harness);
    artifacts.push(("bench suite", bench_to_json(&results)));

    fuseconv::telemetry::counter("test.manifest.counter").inc();
    let snapshot = fuseconv::telemetry::metrics_snapshot();
    artifacts.push((
        "metrics snapshot",
        snapshot.to_json(&RunManifest::capture()),
    ));

    let host_trace =
        fuseconv::telemetry::span_snapshot().chrome_trace_json(&RunManifest::capture());
    artifacts.push(("host chrome trace", host_trace));

    let pod = fuseconv::serve::PodSpec::homogeneous(2, 8).expect("valid pod");
    let workload = fuseconv::serve::Workload::uniform(vec![zoo::mobilenet_v3_small()])
        .expect("valid workload");
    let cfg = fuseconv::serve::ServeConfig {
        requests: 50,
        ..fuseconv::serve::ServeConfig::default()
    };
    let mut pod_trace = fuseconv::serve::PodTraceSink::new(&pod);
    let (serve, timeseries) = fuseconv::serve::simulate_observed(
        &pod,
        &workload,
        &cfg,
        Some(&mut pod_trace),
        Some(&fuseconv::serve::TimeSeriesConfig::new()),
    )
    .expect("pod simulation runs");
    artifacts.push(("serve report", serve.to_json()));
    artifacts.push(("serve chrome trace", pod_trace.into_json()));
    let timeseries = timeseries.expect("time-series requested");
    artifacts.push(("serve time-series", timeseries.to_json()));

    for (name, json) in &artifacts {
        let doc = json::parse(json).unwrap_or_else(|e| panic!("{name}: {e}"));
        let manifest = doc
            .get("manifest")
            .unwrap_or_else(|| panic!("{name}: no top-level manifest"));
        assert_eq!(
            manifest.keys_at_depth(1),
            golden,
            "{name}: embedded manifest diverged from tests/golden/manifest_schema.json"
        );
        let field = |key| manifest.get(key).and_then(Value::as_str);
        assert_eq!(
            field("schema"),
            Some(MANIFEST_SCHEMA),
            "{name}: manifest lacks the {MANIFEST_SCHEMA} tag"
        );
        let config = field("config").expect("config is a string");
        let hash = format!("fnv1a64:{:016x}", fnv1a64(config.as_bytes()));
        assert_eq!(field("config_hash"), Some(hash.as_str()), "{name}");
    }

    // Pretty artifacts embed `to_json_pretty`, compact ones
    // `to_json_compact`: both must carry the same record.
    let manifest = RunManifest::capture().with_config("render \"both\"\n");
    assert_eq!(
        json::parse(&manifest.to_json_pretty("  ")),
        json::parse(&manifest.to_json_compact())
    );
}
