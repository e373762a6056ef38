//! Bookkeeping shared by every stage: the in-memory span recorder of the
//! traced run, the correctness-check tally and the per-pass samples.
//!
//! Spans are recorded around calls into the workspace's public functions
//! from this benchmark's own code; the workspace's `fuseconv_telemetry`
//! spans stay disabled throughout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, `open`/`close` cost nothing and record
/// nothing, so plain passes and traced passes share one code path.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    pass: u32,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with spans open");
        self.on = on;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Index the next recorded span will get, to select the spans
    /// recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Seconds spent in spans named `name` recorded since `mark`.
    pub fn secs_since(&self, mark: usize, name: &str) -> f64 {
        let ns: u64 = self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// The span recorded at `id`.
    pub fn span(&self, id: usize) -> &SpanRec {
        &self.spans[id]
    }

    /// Self time of span `id`: the part of its interval that none of its
    /// children covers.
    pub fn self_ns(&self, id: usize) -> u64 {
        let child_ns: u64 = self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(SpanRec::dur_ns)
            .sum();
        self.spans[id].dur_ns() - child_ns
    }

    /// Spans whose total is not their self time (the gaps between their
    /// children) plus their children's totals: a child that starts before
    /// its parent or an earlier sibling ends, or ends after its parent.
    pub fn attribution_violations(&self) -> usize {
        // Per span: end of the last child seen, self time, child time.
        let mut acc: Vec<(u64, u64, u64)> = self.spans.iter().map(|s| (s.start_ns, 0, 0)).collect();
        let mut violations = 0;
        for child in &self.spans {
            let Some(p) = child.parent else { continue };
            let (cursor, self_ns, child_ns) = &mut acc[p];
            if child.start_ns < *cursor || child.end_ns > self.spans[p].end_ns {
                violations += 1;
                continue;
            }
            *self_ns += child.start_ns - *cursor;
            *child_ns += child.dur_ns();
            *cursor = child.end_ns;
        }
        for (s, (cursor, self_ns, child_ns)) in self.spans.iter().zip(acc) {
            if s.end_ns < cursor || self_ns + (s.end_ns - cursor) + child_ns != s.dur_ns() {
                violations += 1;
            }
        }
        violations
    }

    /// Renders every recorded span as a JSON array (written once, at the
    /// end of the run).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Correctness checks, each counted as one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts an operation that returned an error as a failed check and
    /// passes the value through when it succeeded.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// How a metric's per-pass samples reduce to the reported value.
enum Acc {
    /// The median of the samples.
    Median(Vec<f64>),
    /// Total work over total seconds: the throughput of the whole run.
    /// On a shared host, speed drifts between a fast and a slow level for
    /// tens of seconds at a time; a median over passes jumps between the
    /// two levels where the total-over-total ratio averages them.
    Rate { work: f64, secs: f64 },
}

/// Per-pass samples of named metrics, each with its unit.
#[derive(Default)]
pub struct Samples {
    values: BTreeMap<String, (&'static str, Acc)>,
}

impl Samples {
    fn entry(&mut self, name: String, unit: &'static str, empty: Acc) -> &mut Acc {
        let entry = self.values.entry(name).or_insert((unit, empty));
        assert_eq!(entry.0, unit, "a metric changed its unit");
        &mut entry.1
    }

    /// Adds a sample of a metric reported as the median of its samples.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        match self.entry(name.into(), unit, Acc::Median(Vec::new())) {
            Acc::Median(v) => v.push(value),
            Acc::Rate { .. } => panic!("median sample pushed to a rate"),
        }
    }

    /// Adds `work` done in `secs` to a metric reported as a rate.
    pub fn push_rate(&mut self, name: &str, unit: &'static str, work: f64, secs: f64) {
        let empty = Acc::Rate {
            work: 0.0,
            secs: 0.0,
        };
        match self.entry(name.to_string(), unit, empty) {
            Acc::Rate { work: w, secs: s } => {
                *w += work;
                *s += secs;
            }
            Acc::Median(_) => panic!("rate sample pushed to a median"),
        }
    }

    /// `(name, value, unit)` of every metric, in name order.
    pub fn reduced(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(name, (unit, acc))| {
            let value = match acc {
                Acc::Median(v) => median(v),
                Acc::Rate { work, secs } => work / secs,
            };
            (name.as_str(), value, *unit)
        })
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over a sequence of words, for fingerprints of numeric results.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fuseconv_telemetry::fnv1a64(&bytes)
}
