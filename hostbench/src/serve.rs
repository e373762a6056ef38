//! `serve-pod-1m`: open-loop traffic at load 0.8 through a heterogeneous
//! four-array pod serving the five Table I networks as FuSe-Full. Each
//! pass runs two legs:
//!
//! - `whole`: FIFO, whole-request dispatch with preemption and the CLI's
//!   5 % high-priority lane; no observers attached;
//! - `sharded`: bucketed batching, sharded dispatch (reaching all four
//!   arrays) with the time-series recorder on, plus a recorder-off twin
//!   whose results must be identical.

use crate::spans::{fnv_words, Checks, Samples, Tracer};
use crate::{Pass, Size, Stage};
use fuseconv_models::{zoo, Network};
use fuseconv_nn::FuSeVariant;
use fuseconv_serve::traffic::TrafficGen;
use fuseconv_serve::{
    simulate_observed, BatchPolicy, CostOracle, Dispatch, PodSpec, ServeConfig, ServeReport,
    TimeSeriesConfig, Workload,
};
use fuseconv_telemetry::counter;
use std::time::Instant;

/// The pod every leg runs on: two 16x16 and two 8x8 arrays under three
/// dataflows.
const POD: &str = "16x16:os,16x16:ws,8x8:os,8x8:is";

pub struct ServeStage {
    pod: PodSpec,
    workload: Workload,
    whole: ServeConfig,
    sharded: ServeConfig,
    timeseries: TimeSeriesConfig,
    /// Mean arrival gap (cycles) of each leg, priced like the engine
    /// prices it, for the traffic probe.
    gaps: [f64; 2],
}

/// One simulated leg and what it cost.
struct Leg {
    report: ServeReport,
    secs: f64,
    oracle_hits: u64,
    oracle_misses: u64,
}

impl ServeStage {
    pub fn setup(size: Size, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let requests = match size {
            Size::Heavy => 1_000_000,
            Size::Light => 50_000,
        };
        let pod = PodSpec::parse(POD).expect("pod spec literal parses");
        let nets: Vec<Network> = tr.time("models.zoo", || {
            zoo::all_baselines()
                .iter()
                .map(|n| n.transform_all(FuSeVariant::Full))
                .collect()
        });
        let workload = Workload::uniform(nets).expect("five networks");
        let base = ServeConfig {
            requests,
            seed,
            load: 0.8,
            ..ServeConfig::new()
        };
        let whole = ServeConfig {
            policy: BatchPolicy::Fifo,
            dispatch: Dispatch::Whole,
            preemption: true,
            high_priority_frac: 0.05,
            ..base.clone()
        };
        let sharded = ServeConfig {
            policy: BatchPolicy::Bucketed {
                max_batch: 8,
                max_wait: 50_000,
            },
            dispatch: Dispatch::Sharded,
            ..base.clone()
        };

        let s = tr.open("serve.preflight");
        for (leg, cfg) in [("whole", &whole), ("sharded", &sharded)] {
            let report = fuseconv_analyze::analyze_pod(&pod, &workload, cfg);
            if let Some(report) = checks.ok(&format!("analyze_pod {leg}"), report) {
                checks.check(!report.has_errors(), || {
                    format!("{leg} leg is statically infeasible:\n{}", report.to_text())
                });
            }
        }
        tr.close(s);

        let s = tr.open("serve.oracle_setup");
        let mut gaps = [0.0; 2];
        let models = pod.models();
        if let Some(models) = checks.ok("pod models", models) {
            let mut oracle = CostOracle::new(models, workload.networks());
            for net in 0..workload.len() {
                checks.ok("best_cycles", oracle.best_cycles(net));
            }
            for (gap, cfg) in gaps.iter_mut().zip([&whole, &sharded]) {
                let capacity = oracle.pod_capacity(&workload.mix_fractions(), cfg.dispatch);
                if let Some(capacity) = checks.ok("pod_capacity", capacity) {
                    *gap = 1.0 / (cfg.load * capacity);
                }
            }
        }
        tr.close(s);

        ServeStage {
            pod,
            workload,
            whole,
            sharded,
            timeseries: TimeSeriesConfig::new(),
            gaps,
        }
    }

    fn leg(
        &self,
        name: &'static str,
        cfg: &ServeConfig,
        recorder: bool,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<(Leg, Option<fuseconv_serve::TimeSeriesReport>)> {
        let hits = counter("serve.oracle_hits_total").get();
        let misses = counter("serve.oracle_misses_total").get();
        let t0 = Instant::now();
        let s = tr.open(name);
        let ts = recorder.then_some(&self.timeseries);
        let out = simulate_observed(&self.pod, &self.workload, cfg, None, ts);
        tr.close(s);
        let secs = t0.elapsed().as_secs_f64();
        let (report, series) = checks.ok(name, out)?;
        checks.check(report.completed + report.dropped == report.offered, || {
            format!(
                "{name}: completed {} + dropped {} != offered {}",
                report.completed, report.dropped, report.offered
            )
        });
        let leg = Leg {
            report,
            secs,
            oracle_hits: counter("serve.oracle_hits_total").get() - hits,
            oracle_misses: counter("serve.oracle_misses_total").get() - misses,
        };
        Some((leg, series))
    }

    /// Regenerates each leg's arrival stream with the engine's own
    /// generator, so its share of the event loop can be timed apart.
    fn traffic_probe(&self, tr: &mut Tracer) -> u64 {
        let mut last = 0u64;
        let s = tr.open("serve.traffic");
        for (cfg, gap) in [&self.whole, &self.sharded].into_iter().zip(self.gaps) {
            let mut gen = TrafficGen::new(cfg.seed, gap, &self.workload, cfg.high_priority_frac);
            let mut now = 0u64;
            for _ in 0..cfg.requests {
                now = gen.next_after(now).at;
            }
            last ^= now;
        }
        tr.close(s);
        std::hint::black_box(last)
    }
}

fn hash_of(report: &ServeReport) -> u64 {
    let hex = report.results_hash();
    u64::from_str_radix(hex.trim_start_matches("fnv1a64:"), 16).expect("fnv1a64:<16 hex>")
}

impl Stage for ServeStage {
    fn name(&self) -> &'static str {
        "serve-pod-1m"
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        e2e: &mut Samples,
        layer: &mut Samples,
    ) -> Pass {
        let mark = tr.mark();
        let t0 = Instant::now();
        let root = tr.open("serve");
        let whole = self.leg("serve.simulate_whole", &self.whole, false, tr, checks);
        let sharded = self.leg("serve.simulate_sharded", &self.sharded, true, tr, checks);
        let twin = self.leg("serve.simulate_twin", &self.sharded, false, tr, checks);
        let rendered = tr.time("serve.render", || {
            let mut bytes = 0usize;
            for (leg, _) in [&whole, &sharded].into_iter().flatten() {
                bytes += leg.report.to_json().len();
            }
            if let Some((_, Some(series))) = &sharded {
                bytes += series.to_json().len();
            }
            bytes
        });
        tr.close(root);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(rendered);

        let (Some((whole, _)), Some((sharded, Some(series))), Some((twin, _))) =
            (whole, sharded, twin)
        else {
            checks.check(false, || "a serve leg failed to produce its reports".into());
            return Pass {
                secs,
                fingerprint: 0,
                unattributed: None,
            };
        };
        let windows_completed: u64 = series.windows.iter().map(|w| w.completed).sum();
        checks.check(windows_completed == sharded.report.completed, || {
            format!(
                "time-series windows complete {windows_completed}, aggregate {}",
                sharded.report.completed
            )
        });
        checks.check(hash_of(&twin.report) == hash_of(&sharded.report), || {
            format!(
                "recorder changed the sharded results: {} vs {}",
                sharded.report.results_hash(),
                twin.report.results_hash()
            )
        });
        let fp = fnv_words([hash_of(&whole.report), hash_of(&sharded.report)]);

        if tr.on() {
            layer.push("serve.simulate_whole_s", "s", whole.secs);
            layer.push("serve.simulate_sharded_s", "s", sharded.secs);
            layer.push("serve.recorder_s", "s", sharded.secs - twin.secs);
            layer.push("serve.render_s", "s", tr.secs_since(mark, "serve.render"));
            let events = whole.report.events + sharded.report.events;
            layer.push(
                "serve.ns_per_event",
                "ns",
                (whole.secs + sharded.secs) * 1e9 / events as f64,
            );
            for (leg, l) in [("whole", &whole), ("sharded", &sharded)] {
                let r = &l.report;
                for (what, v) in [
                    ("events", r.events),
                    ("batches", r.batches),
                    ("completed", r.completed),
                    ("dropped", r.dropped),
                    ("preemptions", r.preemptions),
                    ("oracle_hits", l.oracle_hits),
                    ("oracle_misses", l.oracle_misses),
                    ("p99_cycles", r.latency.p99),
                ] {
                    layer.push(format!("serve.{leg}.{what}"), "count", v as f64);
                }
            }
            layer.push(
                "serve.timeseries_windows",
                "count",
                series.windows.len() as f64,
            );
            let probe_mark = tr.mark();
            let probe = tr.open("serve.probe");
            self.traffic_probe(tr);
            tr.close(probe);
            layer.push(
                "serve.traffic_s",
                "s",
                tr.secs_since(probe_mark, "serve.traffic"),
            );
        } else {
            let (offered, observed) = (whole.report.offered, sharded.report.offered);
            e2e.push_rate("serve_req_per_s", "req/s", offered as f64, whole.secs);
            e2e.push_rate(
                "serve_observed_req_per_s",
                "req/s",
                observed as f64,
                sharded.secs,
            );
        }
        Pass {
            secs,
            fingerprint: fp,
            unattributed: None,
        }
    }
}
