//! `analyze-zoo-8x8`: `analyze_network` plus `Report::to_json` over every
//! zoo network under every Table I variant, as `fuseconv analyze --all`
//! runs it. The traced pass rebuilds `analyze_network` from its public
//! parts and times each.

use crate::spans::{Checks, Samples, Tracer};
use crate::{Pass, Size, Stage};
use fuseconv_analyze::{self as analyze, MemoryBudget, Report};
use fuseconv_core::{apply_variant, Variant};
use fuseconv_latency::{LatencyModel, PlanIr};
use fuseconv_models::{zoo, Network};
use fuseconv_nn::ops::Op;
use fuseconv_systolic::legality::{canonical_mapping, DataflowKind};
use fuseconv_systolic::ArrayConfig;
use std::time::Instant;

pub struct AnalyzeStage {
    model: LatencyModel,
    nets: Vec<Network>,
    budget: MemoryBudget,
}

/// Every zoo network (the five Table I baselines plus ResNet-50 and
/// EfficientNet-B0), the set `fuseconv analyze --all` audits.
pub fn zoo_networks() -> Vec<Network> {
    zoo::all_baselines()
        .into_iter()
        .chain([zoo::resnet50(), zoo::efficientnet_b0()])
        .collect()
}

impl AnalyzeStage {
    pub fn setup(size: Size, tr: &mut Tracer, checks: &mut Checks) -> Self {
        // 8x8 plans millions of folds; the light sweep the other
        // workloads carry audits two variants on the paper's 64x64.
        let (side, variants) = match size {
            Size::Heavy => (8, &Variant::ALL[..]),
            Size::Light => (64, &[Variant::Baseline, Variant::FuseHalf][..]),
        };
        let array = ArrayConfig::square(side)
            .expect("nonzero side")
            .with_broadcast(true);
        let model = LatencyModel::new(array);
        let zoo = tr.time("models.zoo", zoo_networks);
        let s = tr.open("core.apply_variant");
        let mut nets = Vec::with_capacity(zoo.len() * variants.len());
        for net in &zoo {
            for &v in variants {
                let applied = apply_variant(net, v, &array);
                if let Some(n) = checks.ok(&format!("apply {v} to {}", net.name()), applied) {
                    nets.push(n);
                }
            }
        }
        tr.close(s);
        // Warms the gate's verdict cache; a failed verdict shows in the
        // `latency.gate_warnings` counter checked at the end of the run.
        let s = tr.open("latency.audit_gate");
        let _ = fuseconv_latency::audit::gate(&model);
        tr.close(s);
        AnalyzeStage {
            model,
            nets,
            budget: MemoryBudget::paper_default(),
        }
    }

    /// `analyze_network` rebuilt from its public parts, one span per part.
    fn network_traced(
        &self,
        net: &Network,
        tr: &mut Tracer,
        fold_plans: &mut (u64, u64),
    ) -> Report {
        let model = &self.model;
        let mut report = Report::new();
        let ops = net.ops();

        let s = tr.open("analyze.mapping");
        let mut kinds = vec![analyze::gemm_dataflow_kind(model)];
        if ops.iter().any(|n| matches!(n.op, Op::FuSe1d { .. })) {
            kinds.push(DataflowKind::RowBroadcast);
        }
        for kind in kinds {
            for d in analyze::analyze_mapping(&canonical_mapping(kind), model.array()) {
                report.push(d);
            }
        }
        tr.close(s);

        let label = format!("{}[{}]", net.name(), net.variant_label());
        for named in &ops {
            let context = format!("{label}/{}/{}", named.block_name, named.op);
            let diags = tr.time("analyze.op", || {
                analyze::analyze_op(model, &named.op, &context)
            });
            for d in diags {
                report.push(d);
            }
            let plan = tr.time("latency.fold_plan", || model.fold_plan(&named.op));
            if let Ok(plan) = plan {
                fold_plans.0 += 1;
                fold_plans.1 += plan.len() as u64;
                let diags = tr.time("analyze.plan", || {
                    analyze::diagnose_plan(model, &named.op, &plan, &context)
                });
                for d in diags {
                    report.push(d);
                }
                let diags = tr.time("analyze.memory", || {
                    analyze::diagnose_memory(&named.op, &plan, &self.budget, &context)
                });
                for d in diags {
                    report.push(d);
                }
            }
        }
        let diags = tr.time("analyze.fusion", || {
            analyze::analyze_fusion(model, net, &self.budget)
        });
        for d in diags {
            report.push(d);
        }
        for d in tr.time("analyze.shapes", || analyze::analyze_shapes(net)) {
            report.push(d);
        }
        report
    }

    /// Lifts every statically fusible pair into the fold-plan IR, the
    /// step `analyze_fusion` repeats per candidate pair.
    fn ir_probe(&self, tr: &mut Tracer) -> (u64, u64, u64) {
        let (mut pairs, mut lifted, mut nodes) = (0u64, 0u64, 0u64);
        for net in &self.nets {
            let found = tr.time("analyze.fusible_pairs", || {
                analyze::fusible_pairs(&self.model, net, &self.budget)
            });
            pairs += found.len() as u64;
            for pair in &found {
                let plans = tr.time("latency.pair_plan", || {
                    (
                        self.model.fold_plan(&pair.producer),
                        self.model.fold_plan(&pair.consumer),
                    )
                });
                if let (Ok(p), Ok(c)) = plans {
                    let ir = tr.time("latency.ir_lift", || PlanIr::from_pair(&p, &c));
                    lifted += 1;
                    nodes += ir.nodes().len() as u64;
                }
            }
        }
        (pairs, lifted, nodes)
    }
}

/// The rendered report with its run manifest (timestamps, host) cut off,
/// so equal diagnostics give equal fingerprints.
fn fingerprint(json: &str) -> u64 {
    let body = json.rfind(",\"manifest\":").map_or(json, |at| &json[..at]);
    fuseconv_telemetry::fnv1a64(body.as_bytes())
}

impl Stage for AnalyzeStage {
    fn name(&self) -> &'static str {
        "analyze-zoo-8x8"
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        e2e: &mut Samples,
        layer: &mut Samples,
    ) -> Pass {
        let mark = tr.mark();
        let mut fold_plans = (0u64, 0u64);
        let t0 = Instant::now();
        let root = tr.open("analyze");
        let mut report = Report::new();
        let mut errors = 0usize;
        for net in &self.nets {
            let part = if tr.on() {
                let s = tr.open("analyze.network");
                let r = self.network_traced(net, tr, &mut fold_plans);
                tr.close(s);
                r
            } else {
                analyze::analyze_network(&self.model, net)
            };
            errors += part.error_count();
            report.merge(part);
        }
        let json = tr.time("analyze.render", || report.to_json());
        tr.close(root);
        let secs = t0.elapsed().as_secs_f64();

        checks.check(errors == 0, || {
            format!("{errors} error-severity diagnostics in the zoo sweep")
        });
        let fp = fingerprint(&json);

        if tr.on() {
            for (metric, span) in [
                ("analyze.mapping_s", "analyze.mapping"),
                ("analyze.op_s", "analyze.op"),
                ("latency.fold_plan_s", "latency.fold_plan"),
                ("analyze.plan_s", "analyze.plan"),
                ("analyze.memory_s", "analyze.memory"),
                ("analyze.fusion_s", "analyze.fusion"),
                ("analyze.shapes_s", "analyze.shapes"),
                ("analyze.render_s", "analyze.render"),
            ] {
                layer.push(metric, "s", tr.secs_since(mark, span));
            }
            layer.push("latency.fold_plan_calls", "count", fold_plans.0 as f64);
            layer.push("latency.folds_planned", "count", fold_plans.1 as f64);
            layer.push(
                "analyze.diagnostics",
                "count",
                report.diagnostics.len() as f64,
            );
            let probe_mark = tr.mark();
            let probe = tr.open("analyze.probe");
            let (pairs, lifted, nodes) = self.ir_probe(tr);
            tr.close(probe);
            layer.push(
                "latency.ir_lift_s",
                "s",
                tr.secs_since(probe_mark, "latency.ir_lift"),
            );
            layer.push("latency.ir_pairs", "count", lifted as f64);
            layer.push("latency.ir_nodes", "count", nodes as f64);
            layer.push("analyze.fusible_pairs", "count", pairs as f64);
        } else {
            e2e.push_rate("analyze_nets_per_s", "nets/s", self.nets.len() as f64, secs);
        }
        Pass {
            secs,
            fingerprint: fp,
            unattributed: None,
        }
    }
}
