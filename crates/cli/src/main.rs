//! `fuseconv` — command-line interface to the FuSeConv reproduction.
//!
//! ```text
//! fuseconv table1    [--array 64]
//! fuseconv layerwise [--network MobileNet-V2] [--variant full|half] [--array 64]
//! fuseconv breakdown [--array 64]
//! fuseconv scaling   [--sizes 8,16,32,64,128]
//! fuseconv overhead  [--sizes 8,16,32,64,128,256]
//! fuseconv energy    [--array 64] [--mhz 700]
//! fuseconv nos       [--network MobileNet-V2] [--array 64]
//! fuseconv topology  <file> [--array 64]
//! fuseconv reports   [--dir reports] [--array 64]
//! fuseconv trace     [--network MobileNet-V2] [--variant baseline|full|half]
//!                    [--layer N] [--format scalesim|chrome|heatmap] [--out trace.json]
//! fuseconv analyze   [--all | --network NAME] [--variant baseline|full|half]
//!                    [--array 64] [--fusion] [--format text|json] [--out PATH]
//! fuseconv analyze   --serve [serve flags] [--format text|json] [--out PATH]
//! fuseconv perf      [--network MobileNet-V2] [--variant baseline|full|half]
//!                    [--array 64] [--bytes-per-elem 2] [--bandwidth 64]
//!                    [--format text|json] [--out PATH]
//! fuseconv bench     [--json] [--out BENCH_fuseconv.json]
//!                    [--baseline PATH] [--max-regress 25] [--budget-ms N]
//!                    [--runs 1]
//! fuseconv profile   [NETWORK] [--variant baseline|full|half] [--array 64]
//!                    [--chrome-trace[=PATH]] [--metrics-json[=PATH]]
//! fuseconv serve     [--pod 64x64:os,32x32:ws,...] [--networks NAME,...|zoo]
//!                    [--variant baseline|full|half] [--requests N] [--load F]
//!                    [--policy fifo|dynamic|bucketed] [--max-batch N] [--max-wait N]
//!                    [--dispatch whole|sharded] [--preempt[=false]] [--high-frac F]
//!                    [--queue-cap N] [--slo-mult F] [--slo-budget N] [--buckets N]
//!                    [--seed N] [--force]
//!                    [--format text|json] [--out PATH] [--chrome-trace[=PATH]]
//!                    [--timeseries[=PATH]]
//! fuseconv help
//! ```
//!
//! Every command also accepts `--log-level error|warn|info|debug|trace`
//! (default `warn`) for the structured stderr logger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;

use args::ParsedArgs;
use fuseconv_analyze as analyze;
use fuseconv_core::experiments;
use fuseconv_core::nos;
use fuseconv_core::report;
use fuseconv_core::trace as tracecap;
use fuseconv_core::variant::{apply_variant, Variant};
use fuseconv_latency::{estimate_network, Dataflow, LatencyModel};
use fuseconv_models::{topology, zoo, Network};
use fuseconv_nn::FuSeVariant;
use fuseconv_serve as serve;
use fuseconv_systolic::ArrayConfig;
use fuseconv_telemetry as telemetry;
use fuseconv_trace::{ChromeTraceSink, NullSink, ScaleSimSink, UtilizationSink};
use std::path::Path;
use std::process::ExitCode;

const HELP: &str = "\
fuseconv — FuSeConv (DATE 2021) reproduction CLI

USAGE: fuseconv <command> [flags]

COMMANDS:
  table1     Table I: MACs, params, latency and speed-up (all networks/variants)
  layerwise  Fig. 8(b): per-block speed-up   [--network NAME] [--variant full|half]
  breakdown  Fig. 8(c): operator-class latency distribution
  scaling    Fig. 8(d): speed-up vs array size   [--sizes 8,16,...]
  overhead   §V-B-5: broadcast-link area/power overhead   [--sizes ...]
  energy     per-inference energy (latency x power model)   [--mhz 700]
  nos        Neural Operator Search Pareto frontier   [--network NAME]
  topology   evaluate a custom network from a topology file: fuseconv topology FILE
  reports    write every latency-side experiment to CSV   [--dir reports]
  trace      capture an execution trace   [--network NAME] [--variant baseline|full|half]
             [--layer N] [--format scalesim|chrome|heatmap] [--out PATH]
             chrome:   whole-network (or --layer) Chrome/Perfetto JSON timeline
             heatmap:  per-PE activity of one layer (--layer, cycle-exact sim);
                       prints ASCII art, writes CSV
             scalesim: SCALE-Sim-style SRAM read/write traces of one layer
                       (--layer); writes <out>_{ifmap_read,filter_read,ofmap_write}.csv
  analyze    static dataflow-legality audit: verify RIA well-formedness, schedule
             legality (tau.d >= 1), locality and resource/utilization rules, plus
             fold-plan coverage (PLAN), SRAM/bandwidth feasibility (MEM) and
             tensor shape flow (SHP) — all before any simulation
             [--all | --network NAME] [--variant baseline|full|half]
             [--format text|json] [--out PATH]; exits nonzero on error findings
             --fusion: restrict the audit to the fold-plan-IR fusion family
             (FUS rules) — statically fusible producer/consumer pairs with
             exact SRAM savings, illegal-fusion findings and the per-network
             fusion-headroom ranking
             --serve: serving-feasibility mode (SRV rules) — statically prove
             pod capacity (rho < 1), SLO attainability, bucket coverage,
             shard-plan legality, queue sizing and preemption sanity for a
             pod/workload/SLO deployment; accepts all `serve` flags
  perf       cycle-accounted performance counters (fill/active/bubble/drain with
             sum == total cycles), stall attribution and a roofline/efficiency
             report from the analytic fold plans
             [--network NAME] [--variant baseline|full|half] [--array 64]
             [--bytes-per-elem 2] [--bandwidth 64] [--format text|json] [--out PATH]
  bench      run the fixed micro-bench suite (simulators + analytic paths)
             [--json] [--out BENCH_fuseconv.json] [--budget-ms N]
             [--runs N] (per-bench min over N suite runs; default 1)
             [--baseline PATH] [--max-regress 25]; with --baseline, exits
             nonzero when a bench regresses past the geomean-normalized gate;
             --out also writes run provenance to <out>.manifest.json
  profile    profile the host-side pipeline (analyze + fold-plan replay +
             a cycle-exact 1-D conv calibration sim + perf counters) for
             one network: prints the aggregated span tree (total/self
             wall-clock per span) and the metrics
             registry   [NETWORK] [--variant baseline|full|half]
             [--chrome-trace[=PATH]]  host spans as Chrome trace JSON
                                      (default profile_trace.json)
             [--metrics-json[=PATH]]  fuseconv-metrics-v1 snapshot
                                      (default profile_metrics.json)
  serve      discrete-event pod simulation: N heterogeneous arrays behind a
             request queue under open-loop Poisson-ish traffic, at analytic
             (fold-plan oracle) speed — millions of requests in seconds
             [--pod 64x64:os,32x32:ws,...]  arrays as ROWSxCOLS[:os|ws|is]
             [--networks NAME,...|zoo] [--variant baseline|full|half]
             [--requests N] [--load F]  offered load vs estimated capacity
             [--policy fifo|dynamic|bucketed] [--max-batch N] [--max-wait N]
             [--dispatch whole|sharded]  whole-array or LPT-sharded batches
             [--preempt[=false]] [--high-frac F]  priority traffic + fold-level preemption
             [--queue-cap N] [--slo-mult F] [--seed N]
             [--slo-budget N]  absolute SLO latency budget in cycles
                               (overrides --slo-mult)
             [--buckets N]  only the first N networks get shape buckets
                            (bucketed policy only; uncovered requests drop)
             [--force]  simulate even when the static preflight
                        (fuseconv analyze --serve) proves the config infeasible
             [--format text|json] [--out PATH]
             [--chrome-trace[=PATH]]  per-array lanes (default serve_trace.json)
             [--timeseries[=PATH]]  windowed time-series observability
                            (fuseconv-serve-timeseries-v1: offered/goodput/
                            drops, queue depth, per-array utilization, latency
                            sketch, SLO burn-rate alerts, tail exemplars;
                            default serve_timeseries.json); with --chrome-trace
                            also adds goodput/utilization counter tracks
  help       this text

Common flags: --array N (square array side, default 64);
              --log-level error|warn|info|debug|trace (stderr logger,
              default warn).";

fn find_network(name: &str) -> Option<Network> {
    zoo::all_baselines()
        .into_iter()
        .chain([zoo::resnet50(), zoo::efficientnet_b0()])
        .find(|n| n.name().eq_ignore_ascii_case(name))
}

/// Parses the pod / workload / serving-config flags shared by
/// `fuseconv serve` and `fuseconv analyze --serve`, so the simulator
/// and its static preflight always see the same configuration.
fn serve_setup(
    parsed: &ParsedArgs,
) -> Result<(serve::PodSpec, serve::Workload, serve::ServeConfig), String> {
    let pod_spec = parsed
        .flag("pod")
        .unwrap_or("64x64:os,32x32:ws,16x16:os,8x8:os");
    let pod = serve::PodSpec::parse(pod_spec).map_err(|e| e.to_string())?;
    let names = parsed.flag("networks").unwrap_or("MobileNet-V2");
    let mut networks: Vec<Network> = if names == "zoo" {
        zoo::all_baselines()
    } else {
        names
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|name| {
                find_network(name.trim())
                    .ok_or_else(|| format!("unknown network `{}`", name.trim()))
            })
            .collect::<Result<_, _>>()?
    };
    match parsed.flag("variant").unwrap_or("full") {
        "baseline" => {}
        "full" => {
            networks = networks
                .iter()
                .map(|n| n.transform_all(FuSeVariant::Full))
                .collect();
        }
        "half" => {
            networks = networks
                .iter()
                .map(|n| n.transform_all(FuSeVariant::Half))
                .collect();
        }
        other => {
            return Err(format!(
                "--variant must be baseline, full or half, got `{other}`"
            ))
        }
    }
    let workload = serve::Workload::uniform(networks).map_err(|e| e.to_string())?;
    let requests = parsed
        .usize_flag("requests", 100_000)
        .map_err(|e| e.to_string())?;
    let max_batch = parsed
        .usize_flag("max-batch", 8)
        .map_err(|e| e.to_string())?;
    let max_wait = parsed
        .usize_flag("max-wait", 50_000)
        .map_err(|e| e.to_string())?;
    let policy_name = parsed.flag("policy").unwrap_or("fifo");
    let policy =
        serve::BatchPolicy::parse(policy_name, max_batch, max_wait as u64).ok_or_else(|| {
            format!("--policy must be fifo, dynamic or bucketed, got `{policy_name}`")
        })?;
    let dispatch_name = parsed.flag("dispatch").unwrap_or("whole");
    let dispatch = serve::Dispatch::parse(dispatch_name)
        .ok_or_else(|| format!("--dispatch must be whole or sharded, got `{dispatch_name}`"))?;
    // A switch, but negatable: `--preempt=false` / `--preempt=0`
    // explicitly disables it.
    let preemption = parsed
        .flag("preempt")
        .is_some_and(|v| v != "false" && v != "0");
    let high_default = if preemption { 0.05 } else { 0.0 };
    let slo_budget_cycles = match parsed.flag("slo-budget") {
        None => None,
        Some(_) => Some(
            parsed
                .usize_flag("slo-budget", 0)
                .map_err(|e| e.to_string())? as u64,
        ),
    };
    let shape_buckets = match parsed.flag("buckets") {
        None => None,
        Some(_) => Some(parsed.usize_flag("buckets", 0).map_err(|e| e.to_string())?),
    };
    let cfg = serve::ServeConfig {
        policy,
        dispatch,
        preemption,
        queue_capacity: parsed
            .usize_flag("queue-cap", 4096)
            .map_err(|e| e.to_string())?,
        requests: requests as u64,
        load: parsed.f64_flag("load", 0.8).map_err(|e| e.to_string())?,
        seed: parsed.usize_flag("seed", 42).map_err(|e| e.to_string())? as u64,
        high_priority_frac: parsed
            .f64_flag("high-frac", high_default)
            .map_err(|e| e.to_string())?,
        slo_multiplier: parsed
            .f64_flag("slo-mult", 10.0)
            .map_err(|e| e.to_string())?,
        slo_budget_cycles,
        shape_buckets,
    };
    Ok((pod, workload, cfg))
}

fn array_of(parsed: &ParsedArgs) -> Result<ArrayConfig, String> {
    let side = parsed.usize_flag("array", 64).map_err(|e| e.to_string())?;
    let array = ArrayConfig::square(side)
        .map(|a| a.with_broadcast(true))
        .map_err(|e| e.to_string())?;
    // Record the array in the process run-config so every manifest
    // captured later in this invocation carries the real dimensions.
    telemetry::manifest::set_run_array(
        array.rows(),
        array.cols(),
        Dataflow::OutputStationary.mnemonic(),
        array.has_broadcast(),
    );
    Ok(array)
}

fn run(parsed: &ParsedArgs) -> Result<(), String> {
    match parsed.command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        "table1" => {
            let array = array_of(parsed)?;
            let rows = experiments::table1(&array).map_err(|e| e.to_string())?;
            println!("{}", report::table1_csv(&rows).trim_end());
            Ok(())
        }
        "layerwise" => {
            let array = array_of(parsed)?;
            let name = parsed.flag("network").unwrap_or("MobileNet-V2");
            let net = find_network(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let variant = match parsed.flag("variant").unwrap_or("full") {
                "full" => Variant::FuseFull,
                "half" => Variant::FuseHalf,
                other => return Err(format!("--variant must be full or half, got `{other}`")),
            };
            let rows = experiments::layerwise(&net, variant, &array).map_err(|e| e.to_string())?;
            println!("{}", report::layerwise_csv(&rows).trim_end());
            Ok(())
        }
        "breakdown" => {
            let array = array_of(parsed)?;
            let rows = experiments::operator_breakdown(&array).map_err(|e| e.to_string())?;
            println!("{}", report::breakdown_csv(&rows).trim_end());
            Ok(())
        }
        "scaling" => {
            let sizes = parsed
                .usize_list_flag("sizes", &[8, 16, 32, 64, 128])
                .map_err(|e| e.to_string())?;
            let rows = experiments::array_scaling(&sizes).map_err(|e| e.to_string())?;
            println!("{}", report::scaling_csv(&rows).trim_end());
            Ok(())
        }
        "overhead" => {
            let sizes = parsed
                .usize_list_flag("sizes", &[8, 16, 32, 64, 128, 256])
                .map_err(|e| e.to_string())?;
            let rows = experiments::hw_overhead(&sizes);
            println!("{}", report::overhead_csv(&rows).trim_end());
            Ok(())
        }
        "energy" => {
            let side = parsed.usize_flag("array", 64).map_err(|e| e.to_string())?;
            let mhz = parsed.f64_flag("mhz", 700.0).map_err(|e| e.to_string())?;
            let rows = experiments::energy_study(side, mhz).map_err(|e| e.to_string())?;
            println!("{}", report::energy_csv(&rows).trim_end());
            Ok(())
        }
        "nos" => {
            let array = array_of(parsed)?;
            let name = parsed.flag("network").unwrap_or("MobileNet-V2");
            let net = find_network(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let frontier = nos::pareto_frontier(&net, &array).map_err(|e| e.to_string())?;
            println!("latency_cycles,params,assignment");
            for p in &frontier {
                let asg: String = p
                    .assignment
                    .iter()
                    .map(|c| match c {
                        nos::OpChoice::Depthwise => 'D',
                        nos::OpChoice::FuseFull => 'F',
                        nos::OpChoice::FuseHalf => 'H',
                    })
                    .collect();
                println!("{},{},{asg}", p.latency, p.params);
            }
            Ok(())
        }
        "topology" => {
            let file = parsed
                .positional
                .first()
                .ok_or("usage: fuseconv topology <file> [--array N]")?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let net = topology::parse(file, &text).map_err(|e| e.to_string())?;
            let array = array_of(parsed)?;
            let model = LatencyModel::new(array);
            let base = estimate_network(&model, &net).map_err(|e| e.to_string())?;
            println!("network,variant,macs,params,latency_cycles,speedup");
            for variant in Variant::ALL {
                let v = apply_variant(&net, variant, &array).map_err(|e| e.to_string())?;
                let lat = estimate_network(&model, &v).map_err(|e| e.to_string())?;
                println!(
                    "{},{},{},{},{},{:.4}",
                    net.name(),
                    variant,
                    v.macs(),
                    v.params(),
                    lat.total_cycles,
                    lat.speedup_over(&base)
                );
            }
            Ok(())
        }
        "trace" => {
            let array = array_of(parsed)?;
            let model = LatencyModel::new(array);
            let name = parsed.flag("network").unwrap_or("MobileNet-V2");
            let net = find_network(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let variant = match parsed.flag("variant").unwrap_or("baseline") {
                "baseline" => Variant::Baseline,
                "full" => Variant::FuseFull,
                "half" => Variant::FuseHalf,
                other => {
                    return Err(format!(
                        "--variant must be baseline, full or half, got `{other}`"
                    ))
                }
            };
            let net = apply_variant(&net, variant, &array).map_err(|e| e.to_string())?;
            let layer = match parsed.flag("layer") {
                None => None,
                Some(_) => Some(parsed.usize_flag("layer", 0).map_err(|e| e.to_string())?),
            };
            let pick_op = |i: usize| {
                let ops = net.ops();
                ops.get(i).cloned().ok_or(format!(
                    "layer {i} out of range; {} has {} operators",
                    net.name(),
                    ops.len()
                ))
            };
            match parsed.flag("format").unwrap_or("chrome") {
                "chrome" => {
                    let mut sink = ChromeTraceSink::new();
                    match layer {
                        // One layer: cycle-exact, with per-row PE tracks.
                        Some(i) => {
                            let named = pick_op(i)?;
                            tracecap::simulate_op_traced(&model, &named.op, &mut sink)
                                .map_err(|e| e.to_string())?;
                        }
                        // Whole network: analytic fold-plan replay.
                        None => {
                            let plan = tracecap::network_fold_plan(&model, &net, None)
                                .map_err(|e| e.to_string())?;
                            for (tag, label) in &plan.labels {
                                sink.label_tag(*tag, label);
                            }
                            fuseconv_trace::replay(&plan.folds, &mut sink);
                        }
                    }
                    let path = parsed.flag("out").unwrap_or("trace.json");
                    std::fs::write(path, sink.into_json())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("{path}");
                    Ok(())
                }
                "heatmap" => {
                    let i = layer.ok_or("--format heatmap needs --layer N")?;
                    let named = pick_op(i)?;
                    let mut sink = UtilizationSink::new(array.rows(), array.cols());
                    let traced = tracecap::simulate_op_traced(&model, &named.op, &mut sink)
                        .map_err(|e| e.to_string())?;
                    let (fill, compute, drain) = sink.phase_cycles();
                    println!(
                        "{} / {}  ({} on {}x{})",
                        net.name(),
                        named.op,
                        named.block_name,
                        array.rows(),
                        array.cols()
                    );
                    println!(
                        "cycles {} (x{} repeats = {})  fill {}  compute {}  drain {}",
                        sink.cycles(),
                        traced.repeats,
                        traced.total_cycles(),
                        fill,
                        compute,
                        drain
                    );
                    println!(
                        "active rows {}/{}  active cols {}/{}  utilization {:.2}%",
                        sink.active_rows(),
                        array.rows(),
                        sink.active_cols(),
                        array.cols(),
                        100.0 * sink.utilization()
                    );
                    println!("{}", sink.heatmap_ascii());
                    if let Some(path) = parsed.flag("out") {
                        std::fs::write(path, sink.heatmap_csv())
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        println!("{path}");
                    }
                    Ok(())
                }
                "scalesim" => {
                    let i = layer.ok_or("--format scalesim needs --layer N")?;
                    let named = pick_op(i)?;
                    let mut sink = ScaleSimSink::new();
                    tracecap::simulate_op_traced(&model, &named.op, &mut sink)
                        .map_err(|e| e.to_string())?;
                    let stem = parsed
                        .flag("out")
                        .unwrap_or("trace")
                        .trim_end_matches(".csv")
                        .to_string();
                    for (suffix, csv) in [
                        ("ifmap_read", sink.ifmap_read_csv()),
                        ("filter_read", sink.filter_read_csv()),
                        ("ofmap_write", sink.ofmap_write_csv()),
                    ] {
                        let path = format!("{stem}_{suffix}.csv");
                        std::fs::write(&path, csv)
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        println!("{path}");
                    }
                    Ok(())
                }
                other => Err(format!(
                    "--format must be scalesim, chrome or heatmap, got `{other}`"
                )),
            }
        }
        "analyze" => {
            if parsed.flag("serve").is_some() {
                // Serving-feasibility mode: audit a pod/workload/SLO
                // deployment statically instead of per-network mappings.
                let (pod, workload, cfg) = serve_setup(parsed)?;
                let report =
                    analyze::analyze_pod(&pod, &workload, &cfg).map_err(|e| e.to_string())?;
                let rendered = match parsed.flag("format").unwrap_or("text") {
                    "text" => report.to_text(),
                    "json" => report.to_json(),
                    other => return Err(format!("--format must be text or json, got `{other}`")),
                };
                match parsed.flag("out") {
                    Some(path) => {
                        std::fs::write(path, &rendered)
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        println!("{path}");
                    }
                    None => println!("{}", rendered.trim_end()),
                }
                if report.has_errors() {
                    return Err(format!(
                        "{} error-severity diagnostic(s)",
                        report.error_count()
                    ));
                }
                return Ok(());
            }
            let array = array_of(parsed)?;
            let model = LatencyModel::new(array);
            let nets: Vec<Network> = if parsed.flag("all").is_some() {
                zoo::all_baselines()
                    .into_iter()
                    .chain([zoo::resnet50(), zoo::efficientnet_b0()])
                    .collect()
            } else {
                let name = parsed.flag("network").unwrap_or("MobileNet-V2");
                vec![find_network(name).ok_or_else(|| format!("unknown network `{name}`"))?]
            };
            let variants: Vec<Variant> = match parsed.flag("variant") {
                None => Variant::ALL.to_vec(),
                Some("baseline") => vec![Variant::Baseline],
                Some("full") => vec![Variant::FuseFull],
                Some("half") => vec![Variant::FuseHalf],
                Some(other) => {
                    return Err(format!(
                        "--variant must be baseline, full or half, got `{other}`"
                    ))
                }
            };
            let fusion_only = parsed.flag("fusion").is_some();
            let mut report = analyze::Report::new();
            for net in &nets {
                for &variant in &variants {
                    let v = apply_variant(net, variant, &array).map_err(|e| e.to_string())?;
                    let diagnostics = if fusion_only {
                        analyze::analyze_fusion(&model, &v, &analyze::MemoryBudget::paper_default())
                    } else {
                        analyze::analyze_network(&model, &v).diagnostics
                    };
                    for d in diagnostics {
                        // Mapping-level findings repeat identically across
                        // networks sharing a dataflow; keep one copy each.
                        if !report.diagnostics.contains(&d) {
                            report.push(d);
                        }
                    }
                }
            }
            let rendered = match parsed.flag("format").unwrap_or("text") {
                "text" => report.to_text(),
                "json" => report.to_json(),
                other => return Err(format!("--format must be text or json, got `{other}`")),
            };
            match parsed.flag("out") {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("{path}");
                }
                None => println!("{}", rendered.trim_end()),
            }
            if report.has_errors() {
                return Err(format!(
                    "{} error-severity diagnostic(s)",
                    report.error_count()
                ));
            }
            Ok(())
        }
        "reports" => {
            let array = array_of(parsed)?;
            let dir = parsed.flag("dir").unwrap_or("reports");
            let written = report::write_all(Path::new(dir), &array).map_err(|e| e.to_string())?;
            for p in written {
                println!("{}", p.display());
            }
            Ok(())
        }
        "perf" => {
            let array = array_of(parsed)?;
            let model = LatencyModel::new(array);
            let name = parsed.flag("network").unwrap_or("MobileNet-V2");
            let net = find_network(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let variant = match parsed.flag("variant").unwrap_or("baseline") {
                "baseline" => Variant::Baseline,
                "full" => Variant::FuseFull,
                "half" => Variant::FuseHalf,
                other => {
                    return Err(format!(
                        "--variant must be baseline, full or half, got `{other}`"
                    ))
                }
            };
            let net = apply_variant(&net, variant, &array).map_err(|e| e.to_string())?;
            let bytes_per_elem = parsed
                .usize_flag("bytes-per-elem", 2)
                .map_err(|e| e.to_string())?;
            let bandwidth = parsed
                .usize_flag("bandwidth", 64)
                .map_err(|e| e.to_string())?;
            if bandwidth == 0 {
                return Err("--bandwidth must be nonzero".into());
            }
            let report = fuseconv_perf::network_perf_report(
                &model,
                &net,
                &variant.to_string(),
                bytes_per_elem as u64,
                bandwidth as u64,
            )
            .map_err(|e| e.to_string())?;
            let rendered = match parsed.flag("format").unwrap_or("text") {
                "text" => report.to_text(),
                "json" => report.to_json(),
                other => return Err(format!("--format must be text or json, got `{other}`")),
            };
            match parsed.flag("out") {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("{path}");
                }
                None => println!("{}", rendered.trim_end()),
            }
            Ok(())
        }
        "bench" => {
            let mut harness = match parsed.flag("budget-ms") {
                Some(_) => fuseconv_bench::micro::Micro::with_budget_ms(
                    parsed
                        .usize_flag("budget-ms", 100)
                        .map_err(|e| e.to_string())? as u64,
                ),
                None => fuseconv_bench::micro::Micro::from_env(),
            };
            let runs = parsed.usize_flag("runs", 1).map_err(|e| e.to_string())?;
            if runs == 0 {
                return Err("--runs must be at least 1".to_string());
            }
            // One-sided noise: a bench can only measure slower than the
            // code allows, so the per-bench min over spaced runs is the
            // robust estimate the gate should judge.
            let all: Vec<_> = (0..runs)
                .map(|_| fuseconv_bench::suite::run_suite(&mut harness))
                .collect();
            let results = fuseconv_bench::suite::min_merge(&all);
            if parsed.flag("json").is_some() || parsed.flag("out").is_some() {
                let path = parsed.flag("out").unwrap_or("BENCH_fuseconv.json");
                std::fs::write(path, fuseconv_bench::suite::to_json(&results))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("{path}");
                // Standalone provenance sibling, so CI can archive the
                // manifest next to the bench numbers it describes.
                let mpath = format!("{path}.manifest.json");
                let manifest = telemetry::RunManifest::capture().to_json_pretty("");
                std::fs::write(&mpath, format!("{manifest}\n"))
                    .map_err(|e| format!("cannot write {mpath}: {e}"))?;
                println!("{mpath}");
            }
            if let Some(base_path) = parsed.flag("baseline") {
                let text = std::fs::read_to_string(base_path)
                    .map_err(|e| format!("cannot read {base_path}: {e}"))?;
                let baseline = fuseconv_bench::suite::parse_json(&text)
                    .map_err(|e| format!("cannot parse baseline {base_path}: {e}"))?;
                if baseline.is_empty() {
                    return Err(format!("no benches parsed from baseline {base_path}"));
                }
                let max_regress = parsed
                    .f64_flag("max-regress", 25.0)
                    .map_err(|e| e.to_string())?;
                let cmp = fuseconv_bench::suite::compare(&results, &baseline, max_regress);
                println!("baseline comparison (fail above +{max_regress:.0}% of geomean):");
                for line in &cmp.lines {
                    println!("{line}");
                }
                if !cmp.passed() {
                    return Err(format!(
                        "{} bench(es) regressed past the {max_regress:.0}% gate: {}",
                        cmp.failures.len(),
                        cmp.failures.join(", ")
                    ));
                }
            }
            Ok(())
        }
        "profile" => {
            let array = array_of(parsed)?;
            let model = LatencyModel::new(array);
            let name = parsed
                .positional
                .first()
                .map(String::as_str)
                .or_else(|| parsed.flag("network"))
                .unwrap_or("MobileNet-V2");
            let net = find_network(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let variant = match parsed.flag("variant").unwrap_or("baseline") {
                "baseline" => Variant::Baseline,
                "full" => Variant::FuseFull,
                "half" => Variant::FuseHalf,
                other => {
                    return Err(format!(
                        "--variant must be baseline, full or half, got `{other}`"
                    ))
                }
            };
            let net = apply_variant(&net, variant, &array).map_err(|e| e.to_string())?;

            // Fresh registry + profiler, enabled only around the profiled
            // pipeline; the closure keeps error paths from leaving the
            // process-wide profiler switched on.
            telemetry::metrics::reset();
            telemetry::span::reset();
            telemetry::set_spans_enabled(true);
            let profiled = (|| -> Result<(), String> {
                let _root = telemetry::span("profile");
                {
                    let _s = telemetry::span("profile.analyze");
                    let _ = analyze::analyze_network(&model, &net);
                }
                {
                    let _s = telemetry::span("profile.plan");
                    let plan = tracecap::network_fold_plan(&model, &net, None)
                        .map_err(|e| e.to_string())?;
                    fuseconv_trace::replay(&plan.folds, &mut NullSink);
                }
                {
                    // Cycle-exact calibration: row-wise 1-D convolutions
                    // filling the array — FuSeConv's core primitive — so
                    // the sim.* counters and the throughput gauge reflect
                    // real simulator work at this array size.
                    let _s = telemetry::span("profile.sim");
                    let width = 64 + 3;
                    let lines: Vec<Vec<f32>> = (0..array.rows())
                        .map(|r| (0..width).map(|i| ((r + i) % 7) as f32).collect())
                        .collect();
                    let kernels: Vec<Vec<f32>> =
                        (0..array.rows()).map(|_| vec![1.0, 0.5, -1.0]).collect();
                    fuseconv_perf::conv1d_counted(&array, &lines, &kernels)
                        .map_err(|e| e.to_string())?;
                }
                let _s = telemetry::span("profile.perf");
                fuseconv_perf::network_perf_report(&model, &net, &variant.to_string(), 2, 64)
                    .map_err(|e| e.to_string())?;
                Ok(())
            })();
            telemetry::set_spans_enabled(false);
            profiled?;

            // Host throughput: how many simulated cycles each host second
            // of cycle-exact simulation buys at this array size.
            let tree = telemetry::span_snapshot();
            let sim_cycles = telemetry::counter("sim.cycles_total").get();
            let sim_ns = tree
                .find("profile/profile.sim")
                .map_or(0, |n| n.total_ns)
                .max(1);
            let per_sec = (u128::from(sim_cycles) * 1_000_000_000) / u128::from(sim_ns);
            telemetry::gauge("profile.sim_cycles_per_host_sec")
                .set(i64::try_from(per_sec).unwrap_or(i64::MAX));

            let metrics = telemetry::metrics_snapshot();
            let manifest = telemetry::RunManifest::capture()
                .with_array(array.rows(), array.cols(), array.has_broadcast())
                .with_dataflow(model.dataflow().mnemonic());
            println!(
                "profile: {} [{variant}] on {}x{} — {} folds, {} sim cycles",
                net.name(),
                array.rows(),
                array.cols(),
                metrics.counter("sim.folds_total"),
                sim_cycles,
            );
            println!("{}", tree.to_text().trim_end());
            println!();
            println!("{}", metrics.to_text().trim_end());
            if let Some(value) = parsed.flag("chrome-trace") {
                let path = if value == "true" {
                    "profile_trace.json"
                } else {
                    value
                };
                std::fs::write(path, tree.chrome_trace_json(&manifest))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("{path}");
            }
            if let Some(value) = parsed.flag("metrics-json") {
                let path = if value == "true" {
                    "profile_metrics.json"
                } else {
                    value
                };
                std::fs::write(path, metrics.to_json(&manifest))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("{path}");
            }
            Ok(())
        }
        "serve" => {
            let (pod, workload, cfg) = serve_setup(parsed)?;
            // Static preflight: prove the deployment feasible before
            // spending a single simulated cycle on it.
            let preflight =
                analyze::analyze_pod(&pod, &workload, &cfg).map_err(|e| e.to_string())?;
            for d in &preflight.diagnostics {
                telemetry::log::warn("serve", &format!("preflight: {d}"));
            }
            if preflight.has_errors() && parsed.flag("force").is_none() {
                return Err(format!(
                    "preflight: {} error finding(s) statically prove this configuration \
                     infeasible (pass --force to simulate it anyway):\n{}",
                    preflight.error_count(),
                    preflight.to_text().trim_end()
                ));
            }
            telemetry::manifest::set_run_seed(cfg.seed);
            let mut sink = parsed
                .flag("chrome-trace")
                .map(|_| serve::PodTraceSink::new(&pod));
            let ts_cfg = parsed
                .flag("timeseries")
                .map(|_| serve::TimeSeriesConfig::new());
            let (report, ts) =
                serve::simulate_observed(&pod, &workload, &cfg, sink.as_mut(), ts_cfg.as_ref())
                    .map_err(|e| e.to_string())?;
            let rendered = match parsed.flag("format").unwrap_or("text") {
                "text" => report.to_text(),
                "json" => report.to_json(),
                other => return Err(format!("--format must be text or json, got `{other}`")),
            };
            match parsed.flag("out") {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("{path}");
                }
                None => println!("{}", rendered.trim_end()),
            }
            if let Some(ts) = &ts {
                if let Some(sink) = sink.as_mut() {
                    // Counter tracks render beside the pid-0 batch
                    // lanes in the same Perfetto view.
                    ts.append_counters(sink);
                }
                if parsed.flag("format").unwrap_or("text") == "text" {
                    println!("{}", ts.to_text().trim_end());
                }
                let value = parsed.flag("timeseries").unwrap_or("true");
                let path = if value == "true" {
                    "serve_timeseries.json"
                } else {
                    value
                };
                std::fs::write(path, ts.to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("{path}");
            }
            if let Some(sink) = sink {
                let value = parsed.flag("chrome-trace").unwrap_or("true");
                let path = if value == "true" {
                    "serve_trace.json"
                } else {
                    value
                };
                std::fs::write(path, sink.into_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("{path}");
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `fuseconv help`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Seed run provenance with the full invocation before any artifact
    // can capture a manifest.
    telemetry::manifest::set_run_config(&argv.join(" "));
    let parsed = match ParsedArgs::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            telemetry::log::error("cli", &e.to_string());
            eprintln!("{HELP}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(value) = parsed.flag("log-level") {
        match value.parse() {
            Ok(level) => telemetry::log::set_max_level(level),
            Err(e) => {
                telemetry::log::error("cli", &e);
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            telemetry::log::error("cli", &e);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn help_runs() {
        assert!(run(&parsed(&["help"])).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&parsed(&["frobnicate"])).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn table1_runs_on_small_array() {
        assert!(run(&parsed(&["table1", "--array", "8"])).is_ok());
    }

    #[test]
    fn layerwise_validates_inputs() {
        assert!(run(&parsed(&["layerwise", "--network", "nope"])).is_err());
        assert!(run(&parsed(&["layerwise", "--variant", "quarter"])).is_err());
        assert!(run(&parsed(&[
            "layerwise",
            "--network",
            "mobilenet-v1",
            "--variant",
            "half",
            "--array",
            "16"
        ]))
        .is_ok());
    }

    #[test]
    fn overhead_and_scaling_accept_size_lists() {
        assert!(run(&parsed(&["overhead", "--sizes", "8,32"])).is_ok());
        assert!(run(&parsed(&["scaling", "--sizes", "8"])).is_ok());
        assert!(run(&parsed(&["scaling", "--sizes", "8,x"])).is_err());
    }

    #[test]
    fn nos_runs_for_resnet_too() {
        // ResNet-50 has no replaceable blocks: frontier is a single point.
        assert!(run(&parsed(&["nos", "--network", "resnet-50", "--array", "16"])).is_ok());
    }

    #[test]
    fn topology_requires_file() {
        assert!(run(&parsed(&["topology"])).is_err());
        assert!(run(&parsed(&["topology", "/nonexistent/x.txt"])).is_err());
    }

    #[test]
    fn zero_array_rejected() {
        assert!(run(&parsed(&["table1", "--array", "0"])).is_err());
    }

    #[test]
    fn trace_validates_inputs() {
        assert!(run(&parsed(&["trace", "--network", "nope"])).is_err());
        assert!(run(&parsed(&["trace", "--variant", "quarter"])).is_err());
        assert!(run(&parsed(&["trace", "--format", "vcd"])).is_err());
        // heatmap and scalesim need a concrete layer to simulate.
        assert!(run(&parsed(&["trace", "--format", "heatmap", "--array", "8"])).is_err());
        assert!(run(&parsed(&["trace", "--format", "scalesim", "--array", "8"])).is_err());
        assert!(run(&parsed(&[
            "trace", "--format", "heatmap", "--layer", "99999", "--array", "8"
        ]))
        .is_err());
    }

    #[test]
    fn analyze_validates_inputs() {
        assert!(run(&parsed(&["analyze", "--network", "nope"])).is_err());
        assert!(run(&parsed(&["analyze", "--variant", "quarter"])).is_err());
        assert!(run(&parsed(&["analyze", "--format", "xml"])).is_err());
    }

    #[test]
    fn analyze_passes_shipped_networks() {
        // Warnings (the depthwise UTL001 pathology) must not fail the run;
        // only error-severity findings do.
        assert!(run(&parsed(&[
            "analyze",
            "--network",
            "mobilenet-v1",
            "--array",
            "8"
        ]))
        .is_ok());
        assert!(run(&parsed(&["analyze", "--all", "--array", "8"])).is_ok());
    }

    #[test]
    fn analyze_writes_json_report() {
        let dir = std::env::temp_dir().join("fuseconv-cli-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let out = out.to_str().unwrap();
        assert!(run(&parsed(&[
            "analyze",
            "--network",
            "mobilenet-v2",
            "--array",
            "8",
            "--format",
            "json",
            "--out",
            out
        ]))
        .is_ok());
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"diagnostics\""), "{text}");
        assert!(text.contains("UTL001"), "{text}");
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn analyze_fusion_mode_reports_fus_rules_only() {
        let dir = std::env::temp_dir().join("fuseconv-cli-analyze-fusion-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fusion.json");
        let out = out.to_str().unwrap();
        // FuSe-Full MobileNet-V2 has fusible row/col -> pointwise pairs.
        assert!(run(&parsed(&[
            "analyze",
            "--network",
            "mobilenet-v2",
            "--variant",
            "full",
            "--fusion",
            "--format",
            "json",
            "--out",
            out
        ]))
        .is_ok());
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"rule\":\"FUS001\""), "{text}");
        assert!(text.contains("\"rule\":\"FUS006\""), "{text}");
        assert!(!text.contains("\"rule\":\"UTL001\""), "{text}");
        std::fs::remove_file(out).unwrap();
        // A GEMM-only network has no separable blocks and thus no FUS findings.
        let out2 = dir.join("fusion_resnet.json");
        let out2 = out2.to_str().unwrap();
        assert!(run(&parsed(&[
            "analyze",
            "--network",
            "resnet-50",
            "--fusion",
            "--format",
            "json",
            "--out",
            out2
        ]))
        .is_ok());
        let text2 = std::fs::read_to_string(out2).unwrap();
        assert!(!text2.contains("FUS"), "{text2}");
        std::fs::remove_file(out2).unwrap();
    }

    #[test]
    fn trace_chrome_writes_valid_json() {
        let dir = std::env::temp_dir().join("fuseconv-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json");
        let out = out.to_str().unwrap();
        assert!(run(&parsed(&[
            "trace",
            "--network",
            "mobilenet-v2",
            "--variant",
            "half",
            "--array",
            "8",
            "--out",
            out
        ]))
        .is_ok());
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"traceEvents\""));
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn perf_validates_inputs() {
        assert!(run(&parsed(&["perf", "--network", "nope"])).is_err());
        assert!(run(&parsed(&["perf", "--variant", "quarter"])).is_err());
        assert!(run(&parsed(&["perf", "--format", "xml"])).is_err());
        assert!(run(&parsed(&["perf", "--bandwidth", "0"])).is_err());
    }

    #[test]
    fn perf_text_runs_on_small_array() {
        assert!(run(&parsed(&[
            "perf",
            "--network",
            "mobilenet-v1",
            "--variant",
            "half",
            "--array",
            "8"
        ]))
        .is_ok());
    }

    #[test]
    fn perf_writes_json_report() {
        let dir = std::env::temp_dir().join("fuseconv-cli-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("perf.json");
        let out = out.to_str().unwrap();
        assert!(run(&parsed(&[
            "perf",
            "--network",
            "mobilenet-v2",
            "--array",
            "8",
            "--format",
            "json",
            "--out",
            out
        ]))
        .is_ok());
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-perf-v1\""), "{text}");
        assert!(text.contains("\"compute_stall_fraction\""), "{text}");
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn bench_writes_json_and_gates_against_itself() {
        let dir = std::env::temp_dir().join("fuseconv-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json");
        let out = out.to_str().unwrap();
        assert!(run(&parsed(&[
            "bench",
            "--json",
            "--out",
            out,
            "--budget-ms",
            "1"
        ]))
        .is_ok());
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-bench-v1\""), "{text}");
        assert!(text.contains("\"cycles_per_sec\""), "{text}");
        // A generous gate against the just-written baseline must pass even
        // with 1 ms timing noise.
        assert!(run(&parsed(&[
            "bench",
            "--baseline",
            out,
            "--max-regress",
            "10000",
            "--budget-ms",
            "1"
        ]))
        .is_ok());
        // Reading a missing baseline is an error.
        assert!(run(&parsed(&["bench", "--baseline", "/nonexistent/b.json"])).is_err());
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn profile_validates_inputs() {
        assert!(run(&parsed(&["profile", "nope", "--array", "8"])).is_err());
        assert!(run(&parsed(&[
            "profile",
            "--variant",
            "quarter",
            "--array",
            "8"
        ]))
        .is_err());
    }

    #[test]
    fn profile_prints_balanced_tree_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("fuseconv-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("profile_trace.json");
        let metrics = dir.join("profile_metrics.json");
        let trace_flag = format!("--chrome-trace={}", trace.display());
        let metrics_flag = format!("--metrics-json={}", metrics.display());
        assert!(run(&parsed(&[
            "profile",
            "mobilenet-v2",
            "--variant",
            "half",
            "--array",
            "8",
            &trace_flag,
            &metrics_flag
        ]))
        .is_ok());
        // The profile subtree satisfies the balance invariant and
        // contains the pipeline phases under the root span. Only this
        // subtree is checked: concurrent tests add their own roots to the
        // process-wide tree and may still hold those spans open.
        let tree = telemetry::span_snapshot();
        let root = tree.find("profile").expect("missing profile root span");
        assert!(root.is_balanced(), "profile span subtree lost balance");
        assert_eq!(root.count, 1);
        for phase in [
            "profile.analyze",
            "profile.plan",
            "profile.sim",
            "profile.perf",
        ] {
            assert!(
                root.children.iter().any(|c| c.name == phase),
                "missing phase span {phase}"
            );
        }
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(t.contains("\"manifest\":{\"schema\":\"fuseconv-manifest-v1\""));
        telemetry::json::parse(&t).expect("chrome trace parses");
        let m = std::fs::read_to_string(&metrics).unwrap();
        telemetry::json::parse(&m).expect("metrics snapshot parses");
        assert!(m.contains("\"schema\": \"fuseconv-metrics-v1\""), "{m}");
        assert!(m.contains("\"sim.cycles_total\""), "{m}");
        assert!(m.contains("\"profile.sim_cycles_per_host_sec\""), "{m}");
        // The calibration sim ran for real cycles, so the registry (reset
        // at the start of the profile arm) counted some.
        assert!(telemetry::counter("sim.cycles_total").get() > 0);
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(metrics).unwrap();
    }

    #[test]
    fn bench_out_writes_manifest_sibling() {
        let dir = std::env::temp_dir().join("fuseconv-cli-bench-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json");
        let out = out.to_str().unwrap();
        assert!(run(&parsed(&["bench", "--out", out, "--budget-ms", "1"])).is_ok());
        let sibling = format!("{out}.manifest.json");
        let text = std::fs::read_to_string(&sibling).unwrap();
        assert!(
            text.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{text}"
        );
        assert!(text.contains("\"config_hash\": \"fnv1a64:"), "{text}");
        std::fs::remove_file(out).unwrap();
        std::fs::remove_file(sibling).unwrap();
    }

    #[test]
    fn serve_validates_inputs() {
        assert!(run(&parsed(&["serve", "--pod", "64x64:xx"])).is_err());
        assert!(run(&parsed(&["serve", "--networks", "nope"])).is_err());
        assert!(run(&parsed(&["serve", "--variant", "quarter"])).is_err());
        assert!(run(&parsed(&["serve", "--policy", "lifo"])).is_err());
        assert!(run(&parsed(&["serve", "--dispatch", "split"])).is_err());
        assert!(run(&parsed(&["serve", "--format", "xml"])).is_err());
        assert!(run(&parsed(&["serve", "--requests", "0"])).is_err());
        assert!(run(&parsed(&["serve", "--load", "0"])).is_err());
        assert!(run(&parsed(&["serve", "--preempt", "--dispatch", "sharded"])).is_err());
    }

    #[test]
    fn serve_preempt_switch_is_negatable() {
        // `--preempt=false` must really disable preemption: the
        // sharded-dispatch config check only rejects it when enabled.
        assert!(run(&parsed(&[
            "serve",
            "--preempt=false",
            "--dispatch",
            "sharded",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "50"
        ]))
        .is_ok());
    }

    #[test]
    fn serve_text_runs_on_a_small_pod() {
        assert!(run(&parsed(&[
            "serve",
            "--pod",
            "16x16:os,8x8:ws",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "500",
            "--policy",
            "dynamic",
            "--max-batch",
            "4",
            "--max-wait",
            "10000"
        ]))
        .is_ok());
    }

    #[test]
    fn serve_writes_json_report_and_chrome_trace() {
        let dir = std::env::temp_dir().join("fuseconv-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("serve.json");
        let out = out.to_str().unwrap();
        let trace = dir.join("serve_trace.json");
        let trace = trace.to_str().unwrap();
        let trace_flag = format!("--chrome-trace={trace}");
        assert!(run(&parsed(&[
            "serve",
            "--pod",
            "16x16:os,8x8:os",
            "--networks",
            "mobilenet-v1,mobilenet-v2",
            "--requests",
            "400",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            out,
            &trace_flag
        ]))
        .is_ok());
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"schema\": \"fuseconv-serve-v1\""), "{text}");
        assert!(text.contains("\"results_fnv1a64\": \"fnv1a64:"), "{text}");
        assert!(
            text.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{text}"
        );
        assert!(text.contains("\"seed\": 7"), "{text}");
        let tr = std::fs::read_to_string(trace).unwrap();
        assert!(tr.contains("\"traceEvents\""), "{tr}");
        assert!(tr.contains("array 0: 16x16:os"), "{tr}");
        std::fs::remove_file(out).unwrap();
        std::fs::remove_file(trace).unwrap();
    }

    #[test]
    fn serve_writes_timeseries_artifact_with_counter_tracks() {
        let dir = std::env::temp_dir().join("fuseconv-cli-serve-ts-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ts = dir.join("serve_timeseries.json");
        let ts = ts.to_str().unwrap();
        let ts_flag = format!("--timeseries={ts}");
        let trace = dir.join("serve_trace.json");
        let trace = trace.to_str().unwrap();
        let trace_flag = format!("--chrome-trace={trace}");
        assert!(run(&parsed(&[
            "serve",
            "--pod",
            "16x16:os,8x8:os",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "400",
            "--seed",
            "7",
            &ts_flag,
            &trace_flag
        ]))
        .is_ok());
        let body = std::fs::read_to_string(ts).unwrap();
        assert!(
            body.contains("\"schema\": \"fuseconv-serve-timeseries-v1\""),
            "{body}"
        );
        assert!(body.contains("\"results_fnv1a64\": \"fnv1a64:"), "{body}");
        assert!(
            body.contains("\"schema\": \"fuseconv-manifest-v1\""),
            "{body}"
        );
        let tr = std::fs::read_to_string(trace).unwrap();
        assert!(tr.contains("\"name\":\"goodput\""), "{tr}");
        assert!(tr.contains("\"name\":\"util 16x16:os\""), "{tr}");
        std::fs::remove_file(ts).unwrap();
        std::fs::remove_file(trace).unwrap();
    }

    #[test]
    fn serve_preflight_refuses_overload_unless_forced() {
        let base = [
            "serve",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "50",
            "--load",
            "1.5",
        ];
        let e = run(&parsed(&base)).unwrap_err();
        assert!(e.contains("preflight"), "{e}");
        assert!(e.contains("SRV001"), "{e}");
        let mut forced = base.to_vec();
        forced.push("--force");
        assert!(run(&parsed(&forced)).is_ok());
    }

    #[test]
    fn serve_accepts_slo_budget_and_buckets_flags() {
        // A generous absolute budget passes preflight and the run.
        assert!(run(&parsed(&[
            "serve",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "50",
            "--slo-budget",
            "999999999999"
        ]))
        .is_ok());
        // --buckets demands the bucketed policy, same as the engine.
        let e = run(&parsed(&[
            "serve",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "50",
            "--buckets",
            "1",
        ]))
        .unwrap_err();
        assert!(e.contains("bucketed"), "{e}");
        assert!(run(&parsed(&[
            "serve",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--requests",
            "50",
            "--policy",
            "bucketed",
            "--buckets",
            "1"
        ]))
        .is_ok());
    }

    #[test]
    fn analyze_serve_mode_reports_feasibility() {
        // Clean pod: no findings, exit ok.
        assert!(run(&parsed(&[
            "analyze",
            "--serve",
            "--pod",
            "16x16:os,16x16:os",
            "--networks",
            "mobilenet-v1"
        ]))
        .is_ok());
        // Overloaded pod: SRV001 is an error finding, so the command fails.
        let e = run(&parsed(&[
            "analyze",
            "--serve",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--load",
            "1.5",
        ]))
        .unwrap_err();
        assert!(e.contains("error-severity"), "{e}");
    }

    #[test]
    fn analyze_serve_writes_json_with_rule_codes() {
        let dir = std::env::temp_dir().join("fuseconv-cli-analyze-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("feasibility.json");
        let out = out.to_str().unwrap();
        let e = run(&parsed(&[
            "analyze",
            "--serve",
            "--pod",
            "16x16:os",
            "--networks",
            "mobilenet-v1",
            "--load",
            "2.0",
            "--format",
            "json",
            "--out",
            out,
        ]))
        .unwrap_err();
        assert!(e.contains("error-severity"), "{e}");
        let text = std::fs::read_to_string(out).unwrap();
        assert!(text.contains("\"rule\":\"SRV001\""), "{text}");
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn trace_heatmap_runs_on_a_layer() {
        // Layer 1 of MobileNet-V1 is the first depthwise: the §III-B
        // pathology should confine activity to a single array column.
        assert!(run(&parsed(&[
            "trace",
            "--network",
            "mobilenet-v1",
            "--format",
            "heatmap",
            "--layer",
            "1",
            "--array",
            "8"
        ]))
        .is_ok());
    }
}
