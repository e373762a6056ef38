//! End-to-end host benchmark of the FuSeConv workspace.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every pass runs four stages in one thread: the static analyzer over
//! the zoo, the pod serving simulator, the cycle-exact systolic simulator
//! and the accuracy-study trainer. The workload picks which two stages run
//! at full size; the other two run at a light size, so every end-to-end
//! metric is measured on every workload while the heavy stages carry most
//! of the time. After an untimed warm-up pass, passes repeat until
//! `--seconds` have passed; a throughput is the run's total work over its
//! total time, every other metric the median over passes.
//!
//! `setup_s` is the median of cold set-ups: this process's own and one in
//! a child process (`--setup-only 1`) after every pass, because the
//! legality and plan-audit gate caches are process-wide and only a
//! process's first set-up fills them. Spreading the set-ups over the run
//! samples the host's speed as the passes do.
//!
//! Each stage checks its outputs against the program's own invariants;
//! every check is one attempted operation, and a stage's output
//! fingerprint (printed, manifests and timestamps excluded) must repeat
//! on every pass.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` it alternates plain and traced passes and reports
//! per-layer metrics: spans recorded around the calls into each crate's
//! public functions from this benchmark's code, plus exact counts.
//! Spans are kept in memory and written once, at the end, next to the
//! benchmark binary. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod analyze;
mod serve;
mod sim;
mod spans;
mod train;

use spans::{median, Checks, Samples, Tracer};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// How much work a stage does in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// One of the workload's own stages, at the size the stage's name
    /// describes.
    Heavy,
    /// A short background pass, so the stage's metrics exist on every
    /// workload.
    Light,
}

/// What one stage pass reports back to the main loop.
pub struct Pass {
    /// Host seconds of the stage's work (probes of the traced run
    /// excluded).
    pub secs: f64,
    /// Fingerprint of the stage's outputs, manifests and timestamps
    /// excluded.
    pub fingerprint: u64,
    /// Share of the stage's time that its traced spans leave unexplained,
    /// for a stage whose spans are probes beside its work rather than
    /// children of it; otherwise the root span's self share is used.
    pub unattributed: Option<f64>,
}

/// One stage of a pass.
pub trait Stage {
    /// The stage's name, after its full-size configuration.
    fn name(&self) -> &'static str;

    /// Runs one pass. With tracing off it pushes end-to-end samples to
    /// `e2e`; with tracing on it records spans, the first of them the
    /// stage's root, runs the stage's probes and pushes per-layer samples
    /// to `layer`.
    fn pass(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        e2e: &mut Samples,
        layer: &mut Samples,
    ) -> Pass;
}

/// Each workload and the two stages it runs at full size. Every stage is
/// heavy in one workload and light in the other: fold planning, the
/// analyzer and the cycle-exact simulator carry `analyze-sim`, while the
/// serving engine (which memoises fold-plan prices) and the trainer carry
/// `serve-train`.
const WORKLOADS: [(&str, [&str; 2]); 2] = [
    ("analyze-sim", ["analyze-zoo-8x8", "sim-verify-16x16"]),
    ("serve-train", ["serve-pod-1m", "train-accuracy"]),
];

/// Fewest passes (pairs of passes when tracing) a run makes, however
/// short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only set up, print the set-up time and exit (a child process of a
    /// run).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let i = WORKLOADS
                    .iter()
                    .position(|(w, _)| *w == value)
                    .ok_or_else(|| format!("unknown workload `{value}`; one of {WORKLOADS:?}"))?;
                workload = Some(i);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = Some(flag_bool(&flag, &value)?),
            "--setup-only" => setup_only = flag_bool(&flag, &value)?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} must be 0 or 1, got `{value}`")),
    }
}

fn size_of(workload: usize, stage: &str) -> Size {
    if WORKLOADS[workload].1.contains(&stage) {
        Size::Heavy
    } else {
        Size::Light
    }
}

fn setup(workload: usize, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Vec<Box<dyn Stage>> {
    let size = |stage| size_of(workload, stage);
    vec![
        Box::new(analyze::AnalyzeStage::setup(
            size("analyze-zoo-8x8"),
            tr,
            checks,
        )),
        Box::new(serve::ServeStage::setup(
            size("serve-pod-1m"),
            seed,
            tr,
            checks,
        )),
        Box::new(sim::SimStage::setup(size("sim-verify-16x16"), tr)),
        Box::new(train::TrainStage::setup(size("train-accuracy"), seed)),
    ]
}

/// Runs one cold set-up in a child process and returns its seconds.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", WORKLOADS[args.workload].0, "--seed"])
        .arg(args.seed.to_string())
        .args(["--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), stdout.trim().parse()) {
        (true, Ok(secs)) => Ok(secs),
        _ => Err(format!("child set-up exited {}: {stdout}", out.status)),
    }
}

/// Checks that no plan-audit verdict failed in this process. Release
/// builds of `audit::gate` return `Ok` whatever the verdict and only count
/// a failed one in `latency.gate_warnings`.
fn check_gate(checks: &mut Checks) {
    let warnings = fuseconv_telemetry::counter("latency.gate_warnings").get();
    checks.check(warnings == 0, || {
        format!("{warnings} plan-audit gate verdicts failed")
    });
}

/// On-CPU time of this thread, in seconds.
fn cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns * 1e-9)
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-stage timings of the traced run.
#[derive(Default)]
struct StageTimes {
    plain: Vec<f64>,
    traced: Vec<f64>,
    unattributed: Vec<f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut e2e = Samples::default();
    let mut layer = Samples::default();
    let mut tr = Tracer::new(args.trace);
    checks.check(!fuseconv_telemetry::spans_enabled(), || {
        "in-program telemetry spans are on".into()
    });

    if args.setup_only {
        let t0 = Instant::now();
        let stages = setup(args.workload, args.seed, &mut tr, &mut checks);
        let secs = t0.elapsed().as_secs_f64();
        drop(stages);
        check_gate(&mut checks);
        println!("{secs}");
        return if checks.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mark = tr.mark();
    let t0 = Instant::now();
    let root = tr.open("setup");
    let mut stages = setup(args.workload, args.seed, &mut tr, &mut checks);
    tr.close(root);
    e2e.push("setup_s", "s", t0.elapsed().as_secs_f64());
    if args.trace {
        for span in [
            "models.zoo",
            "core.apply_variant",
            "serve.preflight",
            "serve.oracle_setup",
        ] {
            layer.push(format!("{span}_s"), "s", tr.secs_since(mark, span));
        }
    }

    let mut times: Vec<StageTimes> = stages.iter().map(|_| StageTimes::default()).collect();

    // One untimed pass first, so lazy state inside the program (memo
    // tables, allocator growth, first-touch pages) settles before any
    // sample is kept. Its outputs are still checked.
    tr.set_on(false);
    let (mut warm_e2e, mut warm_layer) = (Samples::default(), Samples::default());
    let fingerprints: Vec<u64> = stages
        .iter_mut()
        .map(|stage| {
            stage
                .pass(&mut tr, &mut checks, &mut warm_e2e, &mut warm_layer)
                .fingerprint
        })
        .collect();

    let budget = Duration::from_secs(args.seconds);
    let t_run = Instant::now();
    let cpu_run = cpu_secs();
    let mut passes = 0usize;
    while passes < MIN_PASSES || t_run.elapsed() < budget {
        // A traced run pairs every traced pass with a plain one,
        // alternating which goes first.
        let modes: &[bool] = match (args.trace, passes % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &on in modes {
            tr.set_on(on);
            tr.set_pass(1 + passes as u32);
            for ((stage, fp), t) in stages.iter_mut().zip(&fingerprints).zip(&mut times) {
                let root = tr.mark();
                let pass = stage.pass(&mut tr, &mut checks, &mut e2e, &mut layer);
                let mode = if on { "traced" } else { "plain" };
                eprintln!("pass {passes} {mode} {} {:.4} s", stage.name(), pass.secs);
                checks.check(*fp == pass.fingerprint, || {
                    format!("{} outputs changed between passes", stage.name())
                });
                if on {
                    t.traced.push(pass.secs);
                    let total = tr.span(root).dur_ns();
                    t.unattributed.push(
                        pass.unattributed
                            .unwrap_or(tr.self_ns(root) as f64 / total as f64),
                    );
                } else {
                    t.plain.push(pass.secs);
                }
            }
        }
        if !args.trace {
            match child_setup(&args) {
                Ok(secs) => e2e.push("setup_s", "s", secs),
                Err(e) => checks.check(false, || e),
            }
        }
        passes += 1;
    }
    // Host speed drifts on a shared machine. On-CPU time next to wall time
    // tells preemption and steal (the two differ) from a slower CPU (they
    // do not).
    let wall = t_run.elapsed().as_secs_f64();
    if let (Some(c0), Some(c1)) = (cpu_run, cpu_secs()) {
        eprintln!(
            "hostbench: {passes} passes, {wall:.3} s wall, {:.3} s on CPU",
            c1 - c0
        );
        if args.trace {
            layer.push("host.offcpu_frac", "ratio", 1.0 - (c1 - c0) / wall);
        }
    }

    if args.trace {
        let violations = tr.attribution_violations();
        checks.check(violations == 0, || {
            format!("{violations} spans where total != self + sum of children")
        });
        for (stage, t) in stages.iter().zip(&times) {
            let name = stage.name();
            layer.push(
                format!("{name}.unattributed_frac"),
                "ratio",
                median(&t.unattributed),
            );
            layer.push(
                format!("{name}.trace_overhead_frac"),
                "ratio",
                median(&t.traced) / median(&t.plain) - 1.0,
            );
        }
        write_spans(&tr, &args);
    }
    check_gate(&mut checks);
    let telemetry_spans = fuseconv_telemetry::span_snapshot().roots.len();
    layer.push("telemetry.spans_recorded", "count", telemetry_spans as f64);
    checks.check(telemetry_spans == 0, || {
        "the program recorded telemetry spans".into()
    });

    for (stage, fp) in stages.iter().zip(&fingerprints) {
        let size = match size_of(args.workload, stage.name()) {
            Size::Heavy => "heavy",
            Size::Light => "light",
        };
        println!("fingerprint {} {size} {:016x}", stage.name(), fp);
    }

    let mut metrics = if args.trace { layer } else { e2e };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => metrics.push("peak_rss_mb", "MB", mb),
            None => checks.check(false, || "peak RSS unavailable".into()),
        }
    }
    let mut body = String::new();
    for (name, value, unit) in metrics.reduced() {
        // JSON has no NaN or infinity.
        if !value.is_finite() {
            checks.check(false, || format!("metric {name} is {value}"));
            continue;
        }
        let sep = if body.is_empty() { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    ExitCode::SUCCESS
}

fn write_spans(tr: &Tracer, args: &Args) {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("spans")));
    let Some(dir) = dir else { return };
    let path = dir.join(format!(
        "{}-seed{}.json",
        WORKLOADS[args.workload].0, args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => eprintln!("hostbench: spans written to {}", path.display()),
        Err(e) => eprintln!("hostbench: cannot write {}: {e}", path.display()),
    }
}
