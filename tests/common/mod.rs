//! Reader shared by the schema tests for the golden files under
//! `tests/golden/`.

use fuseconv::telemetry::json::{self, Value};

/// The strings of the array `name` in the golden file `golden`, e.g.
/// `golden_list(GOLDEN, "rules")`.
pub fn golden_list(golden: &str, name: &str) -> Vec<String> {
    let doc = json::parse(golden).expect("golden file parses");
    let list = doc
        .get(name)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("golden file lacks array `{name}`"));
    list.iter()
        .map(|v| v.as_str().expect("golden entries are strings").to_owned())
        .collect()
}
