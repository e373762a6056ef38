//! Golden-file regression test for the `fuseconv-metrics-v1` snapshot
//! JSON envelope, plus exactness and determinism of the registry under
//! concurrent updates. Metric *names* are open vocabulary (crates add
//! counters freely); the envelope keys and per-histogram stat keys are
//! the pinned surface — `tests/golden/metrics_schema.json` holds them.

use fuseconv::telemetry::json;
use fuseconv::telemetry::{
    counter, gauge, histogram, metrics_snapshot, RunManifest, METRICS_SCHEMA,
};

mod common;
use common::golden_list;

const GOLDEN: &str = include_str!("golden/metrics_schema.json");

#[test]
fn metrics_json_envelope_matches_golden_schema() {
    counter("test.schema.counter").add(3);
    gauge("test.schema.gauge").set(-5);
    for v in [1u64, 10, 100, 1000] {
        histogram("test.schema.hist").record(v);
    }
    let json = metrics_snapshot().to_json(&RunManifest::capture());
    let doc = json::parse(&json).expect("metrics snapshot parses");
    assert_eq!(
        doc.keys_at_depth(1),
        golden_list(GOLDEN, "top_level_keys"),
        "metrics envelope keys changed"
    );
    // Per-histogram stat objects are the only depth-3 objects (the
    // manifest is deliberately flat, so its fields stay at depth 2).
    assert_eq!(
        doc.keys_at_depth(3),
        golden_list(GOLDEN, "histogram_stat_keys"),
        "histogram stat keys changed"
    );
    assert!(json.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")));
    assert_eq!(golden_list(GOLDEN, "schema_version"), vec![METRICS_SCHEMA]);
}

#[test]
fn snapshot_is_exact_and_deterministic_under_concurrency() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter("test.conc.counter").inc();
                    gauge("test.conc.gauge").add(1);
                    histogram("test.conc.hist").record(t * PER_THREAD + i);
                }
            });
        }
    });
    // No update is lost and no update is double-counted.
    let s1 = metrics_snapshot();
    assert_eq!(s1.counter("test.conc.counter"), THREADS * PER_THREAD);
    // Quiescent metrics render identically across snapshots (name-ordered
    // maps, no iteration-order nondeterminism). Only this test's names are
    // compared: sibling tests may mutate their own metrics concurrently.
    let s2 = metrics_snapshot();
    let ours = |text: &str| {
        text.lines()
            .filter(|l| l.starts_with("test.conc."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(ours(&s1.to_text()), ours(&s2.to_text()));
    assert!(!ours(&s1.to_text()).is_empty());
}
