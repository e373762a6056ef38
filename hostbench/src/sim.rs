//! `sim-verify-16x16`: every op of MobileNet-V3-Small (baseline and
//! FuSe-Half) through the cycle-exact counted simulator at 16x16 under
//! each dataflow, the zoo's 64x64 fold plans replayed through the counter
//! sink and priced in closed form, and the Table I sweep.
//!
//! Throughput is simulated MACs (busy PE-cycles) per host second; cycles
//! alone would hide that one cycle of an RxC array has R*C PE-slots.

use crate::analyze::zoo_networks;
use crate::spans::{fnv_words, Checks, Samples, Tracer};
use crate::{Pass, Size, Stage};
use fuseconv_core::experiments::table1;
use fuseconv_core::paper;
use fuseconv_core::trace::simulate_op_traced;
use fuseconv_core::Variant;
use fuseconv_latency::{Dataflow, LatencyModel};
use fuseconv_models::{zoo, Network};
use fuseconv_nn::ops::Op;
use fuseconv_nn::FuSeVariant;
use fuseconv_perf::{plan_counters, replay_counted, simulate_op_counted};
use fuseconv_systolic::ArrayConfig;
use fuseconv_trace::NullSink;
use std::time::Instant;

pub struct SimStage {
    /// One 16x16 model per simulated dataflow.
    models: Vec<LatencyModel>,
    /// Ops run through the cycle-exact simulator under every model.
    sim_ops: Vec<Op>,
    /// The 64x64 paper model and the ops whose fold plans it replays.
    paper_array: ArrayConfig,
    paper_model: LatencyModel,
    replay_ops: Vec<Op>,
}

fn ops_of(nets: &[Network]) -> Vec<Op> {
    nets.iter()
        .flat_map(|n| n.ops().into_iter().map(|named| named.op))
        .collect()
}

/// Geometric mean over the ten FuSe-Full / FuSe-Half rows of
/// max(r, 1/r), r = measured speed-up / the paper's Table I speed-up.
pub fn fidelity_error(rows: &[fuseconv_core::experiments::Table1Row]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for row in rows
        .iter()
        .filter(|r| matches!(r.variant, Variant::FuseFull | Variant::FuseHalf))
    {
        let published = paper::lookup(&row.network, row.variant)?.speedup;
        let r = row.speedup / published;
        log_sum += r.max(1.0 / r).ln();
        n += 1;
    }
    (n == 10).then(|| (log_sum / f64::from(n)).exp())
}

/// The simulator kernel an op lowers to, as a span name.
fn kernel(model: &LatencyModel, op: &Op) -> &'static str {
    match (op, model.dataflow()) {
        (Op::FuSe1d { .. }, _) => "systolic.conv1d_packed",
        (_, Dataflow::OutputStationary) => "systolic.gemm_os",
        (_, Dataflow::WeightStationary) => "systolic.gemm_ws",
        (_, Dataflow::InputStationary) => "systolic.gemm_is",
    }
}

impl SimStage {
    pub fn setup(size: Size, tr: &mut Tracer) -> Self {
        let array = ArrayConfig::square(16)
            .expect("nonzero side")
            .with_broadcast(true);
        let paper_array = ArrayConfig::square(64)
            .expect("nonzero side")
            .with_broadcast(true);
        let dataflows = match size {
            Size::Heavy => vec![
                Dataflow::OutputStationary,
                Dataflow::WeightStationary,
                Dataflow::InputStationary,
            ],
            Size::Light => vec![Dataflow::OutputStationary],
        };
        let models: Vec<LatencyModel> = dataflows
            .into_iter()
            .map(|d| LatencyModel::new(array).with_dataflow(d))
            .collect();
        let (sim_nets, replay_nets) = tr.time("models.zoo", || {
            let small = zoo::mobilenet_v3_small();
            let half = small.transform_all(FuSeVariant::Half);
            let sim_nets = match size {
                Size::Heavy => vec![small.clone(), half],
                Size::Light => vec![half],
            };
            let replay_base = match size {
                Size::Heavy => zoo_networks(),
                Size::Light => vec![small],
            };
            let replay_nets: Vec<Network> = replay_base
                .iter()
                .flat_map(|n| {
                    [
                        n.clone(),
                        n.transform_all(FuSeVariant::Full),
                        n.transform_all(FuSeVariant::Half),
                    ]
                })
                .collect();
            (sim_nets, replay_nets)
        });
        let paper_model = LatencyModel::new(paper_array);
        // Warms the gate's verdict cache; a failed verdict shows in the
        // `latency.gate_warnings` counter checked at the end of the run.
        let s = tr.open("latency.audit_gate");
        for model in models.iter().chain([&paper_model]) {
            let _ = fuseconv_latency::audit::gate(model);
        }
        tr.close(s);
        SimStage {
            models,
            sim_ops: ops_of(&sim_nets),
            paper_array,
            paper_model,
            replay_ops: ops_of(&replay_nets),
        }
    }
}

impl Stage for SimStage {
    fn name(&self) -> &'static str {
        "sim-verify-16x16"
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
        let root = tr.open("sim");
        let (mut macs, mut pe_slots, mut cycles) = (0u64, 0u64, 0u64);
        let mut sim_secs = 0.0;
        let mut words = Vec::new();
        for model in &self.models {
            let pes = (model.array().rows() * model.array().cols()) as u64;
            for op in &self.sim_ops {
                let t = Instant::now();
                let out = tr.time(kernel(model, op), || simulate_op_counted(model, op));
                sim_secs += t.elapsed().as_secs_f64();
                let Some((traced, counters)) = checks.ok("simulate_op_counted", out) else {
                    continue;
                };
                let expected = model.cycles(op).ok();
                checks.check(expected == Some(traced.total_cycles()), || {
                    format!(
                        "`{op}` simulated {} cycles, LatencyModel::cycles {expected:?}",
                        traced.total_cycles()
                    )
                });
                let phases =
                    counters.fill() + counters.active() + counters.bubble() + counters.drain();
                checks.check(phases == counters.cycles(), || {
                    format!(
                        "`{op}` phases sum to {phases}, cycles {}",
                        counters.cycles()
                    )
                });
                macs += counters.busy_pe_cycles();
                pe_slots += counters.cycles() * pes;
                cycles += counters.cycles();
                words.push(traced.total_cycles());
            }
        }

        let (rows, cols) = (self.paper_array.rows(), self.paper_array.cols());
        for op in &self.replay_ops {
            let plan = tr.time("latency.fold_plan", || self.paper_model.fold_plan(op));
            let Some(plan) = checks.ok("fold_plan", plan) else {
                continue;
            };
            let replayed = tr.time("trace.replay", || replay_counted(&plan, rows, cols));
            let closed = tr.time("perf.plan_counters", || {
                plan_counters(&self.paper_model, op)
            });
            checks.check(closed.as_ref() == Ok(&replayed), || {
                format!("`{op}`: replay_counted disagrees with plan_counters")
            });
        }

        let table = tr.time("core.table1", || table1(&self.paper_array));
        let fidelity = checks.ok("table1", table).and_then(|rows| {
            words.extend(rows.iter().map(|r| r.latency_cycles));
            fidelity_error(&rows)
        });
        tr.close(root);
        let secs = t0.elapsed().as_secs_f64();

        checks.check(fidelity.is_some(), || {
            "Table I fidelity rows missing".into()
        });
        let fp = fnv_words(words);

        if tr.on() {
            for (metric, span) in [
                ("systolic.gemm_os_s", "systolic.gemm_os"),
                ("systolic.gemm_ws_s", "systolic.gemm_ws"),
                ("systolic.gemm_is_s", "systolic.gemm_is"),
                ("systolic.conv1d_packed_s", "systolic.conv1d_packed"),
                ("trace.replay_s", "trace.replay"),
                ("perf.plan_counters_s", "perf.plan_counters"),
                ("core.table1_s", "core.table1"),
            ] {
                layer.push(metric, "s", tr.secs_since(mark, span));
            }
            layer.push("systolic.macs", "count", macs as f64);
            layer.push("systolic.pe_slots", "count", pe_slots as f64);
            layer.push("systolic.cycles", "count", cycles as f64);
            layer.push(
                "systolic.mac_fraction",
                "ratio",
                macs as f64 / pe_slots as f64,
            );

            // The counter sink's cost: the same simulations narrated to a
            // sink that drops every event.
            let probe_mark = tr.mark();
            let probe = tr.open("sim.probe");
            for model in &self.models {
                for op in &self.sim_ops {
                    let out = tr.time("trace.null_sink_sim", || {
                        simulate_op_traced(model, op, &mut NullSink)
                    });
                    checks.ok("simulate_op_traced", out);
                }
            }
            tr.close(probe);
            layer.push(
                "perf.counter_sink_s",
                "s",
                sim_secs - tr.secs_since(probe_mark, "trace.null_sink_sim"),
            );
        } else {
            e2e.push_rate("sim_macs_per_s", "MAC/s", macs as f64, sim_secs);
            if let Some(f) = fidelity {
                e2e.push("fidelity_speedup_err", "ratio", f);
            }
        }
        Pass {
            secs,
            fingerprint: fp,
            unattributed: None,
        }
    }
}
