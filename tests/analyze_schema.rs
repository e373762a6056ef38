//! Golden-file regression test for the `fuseconv analyze --format json`
//! report schema. Downstream tooling (the CI plan-audit artifacts, trace
//! viewers, dashboards) keys on the rule IDs, severity names and JSON
//! object keys; `tests/golden/analyze_schema.json` pins that surface so
//! any rename or removal shows up as a reviewable golden diff. Adding a
//! new rule is the one additive change the golden file expects — append
//! its code to the `rules` list.

use fuseconv::analyze::{analyze_network, Report, RuleId, Severity};
use fuseconv::latency::LatencyModel;
use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::systolic::ArrayConfig;
use fuseconv::telemetry::json::{self, Value};

mod common;
use common::golden_list;

const GOLDEN: &str = include_str!("golden/analyze_schema.json");

/// The report the CLI assembles for `fuseconv analyze --array 8` on the
/// default network: MobileNet-V2 in all three variants, duplicate
/// mapping-level findings collapsed.
fn cli_equivalent_report() -> Report {
    let array = ArrayConfig::square(8)
        .expect("8 is nonzero")
        .with_broadcast(true);
    let model = LatencyModel::new(array);
    let net = zoo::mobilenet_v2();
    let mut report = Report::new();
    for v in [
        net.clone(),
        net.transform_all(FuSeVariant::Full),
        net.transform_all(FuSeVariant::Half),
    ] {
        for d in analyze_network(&model, &v).diagnostics {
            if !report.diagnostics.contains(&d) {
                report.push(d);
            }
        }
    }
    report
}

#[test]
fn rule_catalogue_matches_golden_schema() {
    let codes: Vec<String> = RuleId::ALL.iter().map(|r| r.code().to_string()).collect();
    assert_eq!(
        codes,
        golden_list(GOLDEN, "rules"),
        "rule catalogue diverged from tests/golden/analyze_schema.json — \
         renames/removals break downstream report consumers"
    );
}

#[test]
fn severity_names_match_golden_schema() {
    let names: Vec<String> = [Severity::Info, Severity::Warning, Severity::Error]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(names, golden_list(GOLDEN, "severities"));
}

#[test]
fn analyze_json_report_keys_match_golden_schema() {
    let report = cli_equivalent_report();
    assert!(
        !report.diagnostics.is_empty(),
        "schema check needs at least one diagnostic to pin object keys"
    );
    let doc = json::parse(&report.to_json()).expect("report parses");
    assert_eq!(
        doc.keys_at_depth(1),
        golden_list(GOLDEN, "top_level_keys"),
        "top-level report keys changed"
    );
    // The diagnostics array's objects sit one level below the array, two
    // below the root.
    assert_eq!(
        doc.keys_at_depth(3),
        golden_list(GOLDEN, "diagnostic_keys"),
        "per-diagnostic object keys changed"
    );
}

#[test]
fn analyze_json_report_values_stay_within_golden_vocabulary() {
    let doc = json::parse(&cli_equivalent_report().to_json()).expect("report parses");
    let rules = golden_list(GOLDEN, "rules");
    let severities = golden_list(GOLDEN, "severities");
    let strings = |key| {
        doc.values_of(key)
            .into_iter()
            .filter_map(Value::as_str)
            .map(str::to_owned)
    };
    let seen_rules: Vec<String> = strings("rule").collect();
    assert!(!seen_rules.is_empty());
    for r in seen_rules {
        assert!(rules.contains(&r), "rule `{r}` missing from golden schema");
    }
    for s in strings("severity") {
        assert!(
            severities.contains(&s),
            "severity `{s}` missing from golden schema"
        );
    }
}
