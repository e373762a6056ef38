//! Fusion-legality analysis (FUS001–FUS006): static liveness, dependence
//! and on-array residency proofs for producer/consumer fold-plan pairs.
//!
//! FuSeConv's row/col 1-D banks feed straight into the block's 1×1
//! pointwise projection, yet every fold of today's flat plan round-trips
//! its intermediate through SRAM — exactly the producer/consumer traffic
//! a fused depthwise+pointwise schedule eliminates. This module prices
//! each candidate pair in closed form from the two plans' fold
//! footprints: one [`fold_footprint`] pass per plan
//! ([`PlanFootprint`]) yields every figure the verdict needs, with no
//! per-fold state kept. Lifting the pair into a [`PlanIr`]
//! ([`fuseconv_latency::ir`]) and running its liveness and dependence
//! analyses gives the same verdict field for field; the IR is the oracle
//! the unit tests hold the closed form to, and [`diagnose_pair_ir`] runs
//! the rules on a hand-built IR. The rules prove, statically:
//!
//! * **FUS001** — the pair is fusible: a producer→consumer dependence
//!   edge set connects their fold plans, the intermediate tile fits the
//!   array's accumulator residency (`rows × cols` elements), and keeping
//!   it on-array saves exactly the reported SRAM bytes (the
//!   `plan_high_water` delta with the intermediate dropped from the
//!   working set — the constructive check the differential tests rerun).
//! * **FUS002** — an intermediate tile exceeds `rows × cols` elements:
//!   on-array forwarding is impossible at this array size.
//! * **FUS003** — the fold dependence graph has a cycle: no schedule,
//!   fused or not, exists. Lifted plans are acyclic by construction, so
//!   this fires only on hand-mutated IRs.
//! * **FUS004** — the consumer's dataflow preloads its inputs during the
//!   fill phase (input-stationary), so the producer cannot forward
//!   results into a running fold.
//! * **FUS005** — dead value: an op's output is consumed by no later op
//!   in its block (by the slice-or-concat channel rule of
//!   [`fuseconv_models::op_consumes`]); every fold computing it is dead
//!   work.
//! * **FUS006** — per-network fusion headroom: layers ranked by the SRAM
//!   round-trip traffic fusion would avoid.
//!
//! All element and byte figures saturate at `u64::MAX`, as
//! [`fold_footprint`] does, so debug and release builds agree.

use crate::diagnostics::{Diagnostic, RuleId, Severity};
use crate::memory::MemoryBudget;
use fuseconv_latency::ir::{ValueClass, ValueSet};
use fuseconv_latency::{fold_footprint, Dataflow, FoldFootprint, LatencyModel, PlanIr};
use fuseconv_models::{op_consumes, Network};
use fuseconv_nn::ops::Op;
use fuseconv_trace::FoldSpec;

/// A statically fusible producer/consumer pair, with the proof artifacts
/// behind its FUS001 verdict.
#[derive(Debug, Clone)]
pub struct FusiblePair {
    /// Name of the block the pair lives in.
    pub block: String,
    /// The producing op (a depthwise filter or FuSe 1-D bank).
    pub producer: Op,
    /// The consuming op (the block's pointwise projection).
    pub consumer: Op,
    /// Producer→consumer dependence edges (one per producer fold, into
    /// the earliest consumer fold, as [`PlanIr::from_pair`] lifts them).
    pub edges: usize,
    /// Largest intermediate output tile that must stay on-array (elems).
    pub tile_elems: u64,
    /// Live interval (inclusive fold indices) of the intermediate tensor
    /// in the pair's schedule.
    pub interval: (usize, usize),
    /// SRAM high-water elements saved when the intermediate never stages
    /// in SRAM (the `plan_high_water` delta).
    pub saving_elems: u64,
    /// The same saving in bytes, at the budget's element width.
    pub saving_bytes: u64,
    /// Total SRAM round-trip traffic fusion avoids (producer output
    /// writes plus consumer input re-reads), in bytes.
    pub traffic_bytes: u64,
}

/// What the FUS rules read of one operator's fold plan, gathered in one
/// pass of [`fold_footprint`] over its folds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PlanFootprint {
    /// Folds in the plan.
    folds: usize,
    /// Per-stream high-water over the folds (`plan_high_water`).
    high_water: FoldFootprint,
    /// Output elements over all folds.
    ofmap_total: u64,
    /// Input elements over all folds.
    ifmap_total: u64,
}

impl PlanFootprint {
    /// Summarizes a fold plan.
    pub(crate) fn of(plan: &[FoldSpec]) -> PlanFootprint {
        let mut out = PlanFootprint {
            folds: plan.len(),
            ..PlanFootprint::default()
        };
        for f in plan {
            let fp = fold_footprint(f);
            out.high_water = out.high_water.max(fp);
            out.ofmap_total = out.ofmap_total.saturating_add(fp.ofmap_elems);
            out.ifmap_total = out.ifmap_total.saturating_add(fp.ifmap_elems);
        }
        out
    }
}

/// Plans `op` and summarizes the plan, or `None` if it does not plan.
fn plan_footprint(model: &LatencyModel, op: &Op) -> Option<PlanFootprint> {
    model
        .fold_plan(op)
        .ok()
        .map(|plan| PlanFootprint::of(&plan))
}

/// Outcome of checking one producer/consumer pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairCheck {
    Fusible {
        edges: usize,
        tile_elems: u64,
        interval: (usize, usize),
        saving_elems: u64,
        traffic_elems: u64,
    },
    ResidencyExceeded {
        tile_elems: u64,
        budget_elems: u64,
    },
    Cycle,
    DataflowMismatch,
}

/// The FUS004/FUS002 verdict of a pair whose largest intermediate tile
/// holds `tile_elems`, or `None` if fusing it is legal.
fn illegal(tile_elems: u64, rows: u64, cols: u64, dataflow: Dataflow) -> Option<PairCheck> {
    if dataflow == Dataflow::InputStationary {
        return Some(PairCheck::DataflowMismatch);
    }
    let budget_elems = rows.saturating_mul(cols);
    (tile_elems > budget_elems).then_some(PairCheck::ResidencyExceeded {
        tile_elems,
        budget_elems,
    })
}

/// Classifies and prices a producer/consumer pair in closed form from
/// the two plans' footprints. Equal to [`check_pair`] on
/// `PlanIr::from_pair(producer, consumer)`:
///
/// * the intermediates are the producer's output tiles and the
///   consumer's input tiles, so the tile is the producer's largest
///   output and the traffic is Σ producer ofmap + Σ consumer ifmap;
/// * every producer fold has one dependence edge, into the earliest
///   consumer fold, when there is one;
/// * the intermediate is live from the first producer fold to the last
///   consumer fold;
/// * each fold stages only its own tiles, so the high-water with the
///   intermediates dropped is the per-stream maximum of the producer
///   plan without its ofmap stream and the consumer plan without its
///   ifmap stream.
fn price_pair(
    producer: &PlanFootprint,
    consumer: &PlanFootprint,
    rows: u64,
    cols: u64,
    dataflow: Dataflow,
) -> PairCheck {
    let (p, c) = (producer.high_water, consumer.high_water);
    let tile_elems = p.ofmap_elems;
    if let Some(verdict) = illegal(tile_elems, rows, cols, dataflow) {
        return verdict;
    }
    let fused = FoldFootprint {
        ifmap_elems: p.ifmap_elems,
        filter_elems: p.filter_elems.max(c.filter_elems),
        ofmap_elems: c.ofmap_elems,
    };
    PairCheck::Fusible {
        edges: if consumer.folds > 0 {
            producer.folds
        } else {
            0
        },
        tile_elems,
        interval: (0, (producer.folds + consumer.folds).saturating_sub(1)),
        saving_elems: p.max(c).total().saturating_sub(fused.total()),
        traffic_elems: producer.ofmap_total.saturating_add(consumer.ifmap_total),
    }
}

/// Classifies a lifted pair IR against an array's residency budget and
/// GEMM dataflow by running the IR's own analyses: cycle detection,
/// liveness and the high-water with the intermediates dropped.
fn check_pair(ir: &PlanIr, rows: u64, cols: u64, dataflow: Dataflow) -> PairCheck {
    if ir.has_cycle() {
        return PairCheck::Cycle;
    }
    let tile_elems = ir
        .intermediates()
        .iter()
        .filter(|&&v| ir.value(v).class == ValueClass::Ofmap)
        .map(|&v| ir.value(v).elems)
        .max()
        .unwrap_or(0);
    if let Some(verdict) = illegal(tile_elems, rows, cols, dataflow) {
        return verdict;
    }
    let edges = ir.nodes().iter().map(|n| n.succs.len()).sum();
    let mut inter = ValueSet::empty(ir.values().len());
    for &v in ir.intermediates() {
        inter.insert(v);
    }
    let intervals = ir.live_intervals();
    let mut interval = (usize::MAX, 0usize);
    for iv in &intervals {
        if inter.contains(iv.value) {
            interval.0 = interval.0.min(iv.start);
            interval.1 = interval.1.max(iv.end);
        }
    }
    if interval.0 == usize::MAX {
        interval = (0, 0);
    }
    let saving_elems = ir
        .high_water()
        .total()
        .saturating_sub(ir.high_water_without(ir.intermediates()).total());
    let traffic_elems = ir
        .intermediates()
        .iter()
        .map(|&v| ir.value(v).elems)
        .fold(0, u64::saturating_add);
    PairCheck::Fusible {
        edges,
        tile_elems,
        interval,
        saving_elems,
        traffic_elems,
    }
}

/// Renders one pair verdict as its FUS001/FUS002/FUS003/FUS004 finding.
fn render_pair(
    check: PairCheck,
    rows: u64,
    cols: u64,
    bytes_per_elem: u64,
    context: &str,
    pair: &str,
) -> Diagnostic {
    match check {
        PairCheck::Cycle => Diagnostic {
            rule: RuleId::Fus003DependenceCycle,
            severity: Severity::Error,
            context: context.to_string(),
            message: format!("{pair}: the fold dependence graph contains a cycle; no schedule (fused or not) exists"),
            dependence: None,
            suggestion: "the lifted plan pair is self-contradictory; rebuild the IR from fold_plan output".into(),
        },
        PairCheck::DataflowMismatch => Diagnostic {
            rule: RuleId::Fus004DataflowMismatch,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "{pair}: the consumer runs input-stationary, preloading its inputs during fill — the producer cannot forward results into a running fold"
            ),
            dependence: None,
            suggestion: "fuse under an output- or weight-stationary consumer dataflow, which streams inputs during compute".into(),
        },
        PairCheck::ResidencyExceeded {
            tile_elems,
            budget_elems,
        } => Diagnostic {
            rule: RuleId::Fus002ResidencyExceeded,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "{pair}: intermediate tile holds {tile_elems} elements but the array retains only {budget_elems} ({rows}x{cols}) on-array; forwarding is impossible at this array size"
            ),
            dependence: None,
            suggestion: "re-tile the producer so each output tile fits the array, or fuse on a larger array".into(),
        },
        PairCheck::Fusible {
            edges,
            tile_elems,
            interval,
            saving_elems,
            ..
        } => Diagnostic {
            rule: RuleId::Fus001FusiblePair,
            severity: Severity::Info,
            context: context.to_string(),
            message: format!(
                "{pair}: statically fusible — {edges} dependence edges, intermediate tile {tile_elems} elems fits {rows}x{cols} on-array residency over folds {}..={}; keeping it on-array saves {} bytes of SRAM high-water",
                interval.0,
                interval.1,
                saving_elems.saturating_mul(bytes_per_elem),
            ),
            dependence: None,
            suggestion: "schedule the pair back-to-back and forward the producer's output through the array (ROADMAP item 4)".into(),
        },
    }
}

/// Diagnoses one lifted pair IR, emitting the FUS001/FUS002/FUS003/FUS004
/// finding it warrants. `pair` labels the pair in messages (e.g.
/// `` `dw 3x3` -> `pw 1x1` ``); `context` is the usual
/// `network/block` context string.
pub fn diagnose_pair_ir(
    ir: &PlanIr,
    rows: u64,
    cols: u64,
    dataflow: Dataflow,
    bytes_per_elem: u64,
    context: &str,
    pair: &str,
) -> Vec<Diagnostic> {
    let check = check_pair(ir, rows, cols, dataflow);
    vec![render_pair(
        check,
        rows,
        cols,
        bytes_per_elem,
        context,
        pair,
    )]
}

/// Candidate producer/consumer pairs of one block's op expansion: each
/// spatial filter op (depthwise or FuSe 1-D bank) paired with the next
/// pointwise op — the block's projection, which reads its output.
fn candidate_pairs(ops: &[Op]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !matches!(op, Op::Depthwise { .. } | Op::FuSe1d { .. }) {
            continue;
        }
        if let Some(j) = ops
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, o)| matches!(o, Op::Pointwise { .. }))
            .map(|(j, _)| j)
        {
            out.push((i, j));
        }
    }
    out
}

/// The statically fusible pairs of a network, with their proof artifacts.
/// Pairs that fail a legality check (residency, dataflow) are omitted —
/// [`analyze_fusion`] reports those as FUS002/FUS004 findings instead.
pub fn fusible_pairs(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
) -> Vec<FusiblePair> {
    let rows = model.array().rows() as u64;
    let cols = model.array().cols() as u64;
    let mut out = Vec::new();
    for (block_name, block) in net.blocks() {
        let ops = block.ops();
        for (i, j) in candidate_pairs(&ops) {
            let (Some(producer), Some(consumer)) = (
                plan_footprint(model, &ops[i]),
                plan_footprint(model, &ops[j]),
            ) else {
                continue;
            };
            if let PairCheck::Fusible {
                edges,
                tile_elems,
                interval,
                saving_elems,
                traffic_elems,
            } = price_pair(&producer, &consumer, rows, cols, model.dataflow())
            {
                out.push(FusiblePair {
                    block: block_name.clone(),
                    producer: ops[i],
                    consumer: ops[j],
                    edges,
                    tile_elems,
                    interval,
                    saving_elems,
                    saving_bytes: saving_elems.saturating_mul(budget.bytes_per_elem),
                    traffic_bytes: traffic_elems.saturating_mul(budget.bytes_per_elem),
                });
            }
        }
    }
    out
}

/// Runs the whole FUS family over a network: per-pair fusibility
/// (FUS001–FUS004), per-op dead-value findings (FUS005) and the
/// per-network fusion-headroom ranking (FUS006).
pub fn analyze_fusion(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
) -> Vec<Diagnostic> {
    fusion_findings(model, net, budget, &mut |_, op| plan_footprint(model, op))
}

/// [`analyze_fusion`] over plan footprints supplied by `footprint`, which
/// is called with an op's index in [`Network::ops`] order and the op, and
/// returns `None` for an op that does not plan.
pub(crate) fn fusion_findings(
    model: &LatencyModel,
    net: &Network,
    budget: &MemoryBudget,
    footprint: &mut dyn FnMut(usize, &Op) -> Option<PlanFootprint>,
) -> Vec<Diagnostic> {
    let _span = fuseconv_telemetry::span("analyze.fusion");
    let rows = model.array().rows() as u64;
    let cols = model.array().cols() as u64;
    let bytes_per_elem = budget.bytes_per_elem;
    let label = format!("{}[{}]", net.name(), net.variant_label());
    let mut out = Vec::new();
    let mut headroom: Vec<(String, String, u64)> = Vec::new();

    // Index of the current block's first op in `net.ops()`.
    let mut base = 0;
    for (block_name, block) in net.blocks() {
        let ops = block.ops();
        let context = format!("{label}/{block_name}");
        for (i, j) in candidate_pairs(&ops) {
            let (Some(producer), Some(consumer)) =
                (footprint(base + i, &ops[i]), footprint(base + j, &ops[j]))
            else {
                continue;
            };
            let pair = format!("`{}` -> `{}`", ops[i], ops[j]);
            let check = price_pair(&producer, &consumer, rows, cols, model.dataflow());
            out.push(render_pair(
                check,
                rows,
                cols,
                bytes_per_elem,
                &context,
                &pair,
            ));
            if let PairCheck::Fusible { traffic_elems, .. } = check {
                headroom.push((
                    block_name.clone(),
                    pair,
                    traffic_elems.saturating_mul(bytes_per_elem),
                ));
            }
        }
        out.extend(diagnose_dead_ops(&ops, &context, |i| {
            footprint(base + i, &ops[i])
        }));
        base += ops.len();
    }

    // FUS006: rank blocks by the SRAM round-trip traffic fusion avoids.
    if !headroom.is_empty() {
        headroom.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let total = headroom.iter().map(|h| h.2).fold(0, u64::saturating_add);
        let top: Vec<String> = headroom
            .iter()
            .take(5)
            .enumerate()
            .map(|(rank, (block, pair, bytes))| format!("{}. {block} {pair}: {bytes} B", rank + 1))
            .collect();
        out.push(Diagnostic {
            rule: RuleId::Fus006FusionHeadroom,
            severity: Severity::Info,
            context: label,
            message: format!(
                "fusion headroom: {} fusible pair(s) could avoid {total} B of SRAM round-trip traffic; top layers: {}",
                headroom.len(),
                top.join("; "),
            ),
            dependence: None,
            suggestion: "fuse the highest-traffic pairs first (ROADMAP item 4)".into(),
        });
    }
    out
}

/// FUS005: ops whose output no later op in the block consumes. Every
/// output tile of such an op's plan is dead — one per fold, as lifting
/// the plan against an empty consumer shows. `footprint` summarizes the
/// plan of the op at a block index.
fn diagnose_dead_ops(
    ops: &[Op],
    context: &str,
    mut footprint: impl FnMut(usize) -> Option<PlanFootprint>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // The block's last op is the block output: always consumed.
        if i + 1 == ops.len() {
            continue;
        }
        if ops[i + 1..].iter().any(|c| op_consumes(op, c)) {
            continue;
        }
        let dead_tiles = footprint(i).map_or(0, |f| f.folds);
        out.push(Diagnostic {
            rule: RuleId::Fus005DeadValue,
            severity: Severity::Warning,
            context: context.to_string(),
            message: format!(
                "output of `{op}` is consumed by no later op in the block: all {dead_tiles} output tiles of its fold plan are dead work"
            ),
            dependence: None,
            suggestion: "remove the op or rewire the block so its output is read".into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_latency::plan_high_water;
    use fuseconv_models::zoo;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_nn::FuSeVariant;
    use fuseconv_systolic::ArrayConfig;
    use fuseconv_trace::FoldKind;
    use std::collections::HashSet;

    fn model_of(side: usize) -> LatencyModel {
        LatencyModel::new(
            ArrayConfig::square(side)
                .expect("nonzero")
                .with_broadcast(true),
        )
    }

    fn model() -> LatencyModel {
        model_of(64)
    }

    fn budget() -> MemoryBudget {
        MemoryBudget::paper_default()
    }

    /// The closed-form verdict of a pair next to the IR oracle's.
    fn both_checks(
        producer: &[FoldSpec],
        consumer: &[FoldSpec],
        rows: u64,
        cols: u64,
        dataflow: Dataflow,
    ) -> (PairCheck, PairCheck) {
        (
            price_pair(
                &PlanFootprint::of(producer),
                &PlanFootprint::of(consumer),
                rows,
                cols,
                dataflow,
            ),
            check_pair(&PlanIr::from_pair(producer, consumer), rows, cols, dataflow),
        )
    }

    /// Holds every distinct candidate pair of `nets` to the IR oracle:
    /// the closed-form verdict must equal `check_pair` on the lifted pair
    /// in every field, and the FUS005 dead-tile count of each producer
    /// must equal the IR's dead values with no consumer. A pair's verdict
    /// depends only on its two ops, so repeated blocks are checked once.
    /// Returns the number of pairs checked.
    fn assert_closed_form_matches_ir(model: &LatencyModel, nets: &[Network]) -> usize {
        let rows = model.array().rows() as u64;
        let cols = model.array().cols() as u64;
        let mut pairs = HashSet::new();
        for net in nets {
            for (_, block) in net.blocks() {
                let ops = block.ops();
                for (i, j) in candidate_pairs(&ops) {
                    pairs.insert((ops[i], ops[j]));
                }
            }
        }
        let mut producers = HashSet::new();
        for &(p, c) in &pairs {
            let producer = model.fold_plan(&p).expect("zoo op plans");
            let consumer = model.fold_plan(&c).expect("zoo op plans");
            let (closed, ir) = both_checks(&producer, &consumer, rows, cols, model.dataflow());
            let ctx = format!("`{p}` -> `{c}` on {rows}x{cols} {:?}", model.dataflow());
            assert_eq!(closed, ir, "{ctx}");
            if producers.insert(p) {
                assert_eq!(
                    PlanFootprint::of(&producer).folds,
                    PlanIr::from_pair(&producer, &[]).dead_values().len(),
                    "{ctx}: dead tiles"
                );
            }
        }
        pairs.len()
    }

    /// `nets` under the Baseline, FuSe-Half and FuSe-Full variants.
    fn with_variants(nets: &[Network]) -> Vec<Network> {
        nets.iter()
            .flat_map(|net| {
                [
                    net.clone(),
                    net.transform_all(FuSeVariant::Half),
                    net.transform_all(FuSeVariant::Full),
                ]
            })
            .collect()
    }

    // Array coverage is trimmed to keep the two parity tests near 5 s in
    // a debug build: every dataflow on 64×64, and the smaller arrays
    // (whose plans hold 16–64× more folds) only under the dataflows that
    // reach the pricing. An input-stationary pair is a FUS004 verdict
    // before any pricing, and 64×64 checks that for the whole zoo.

    #[test]
    fn closed_form_matches_the_ir_on_the_zoo() {
        let mut nets = zoo::all_baselines();
        nets.push(zoo::resnet50());
        nets.push(zoo::efficientnet_b0());
        let nets = with_variants(&nets);
        let configs = Dataflow::ALL
            .map(|dataflow| (64, dataflow))
            .into_iter()
            .chain([(16, Dataflow::WeightStationary)]);
        for (side, dataflow) in configs {
            let m = model_of(side).with_dataflow(dataflow);
            assert!(assert_closed_form_matches_ir(&m, &nets) > 0);
        }
    }

    #[test]
    fn closed_form_matches_the_ir_on_mobilenet_v2_at_8x8() {
        let nets = with_variants(&[zoo::mobilenet_v2()]);
        for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
            let m = model_of(8).with_dataflow(dataflow);
            assert!(assert_closed_form_matches_ir(&m, &nets) > 0);
        }
    }

    #[test]
    fn closed_form_matches_the_ir_on_empty_and_oversized_plans() {
        let m = model_of(8);
        let producer = m
            .fold_plan(&Op::depthwise(9, 9, 6, 3, 1, 1))
            .expect("plans");
        let consumer = m.fold_plan(&Op::pointwise(9, 9, 6, 12)).expect("plans");
        let oversized = [synthetic_spec(100, 100)];
        for (p, c) in [
            (&producer[..], &consumer[..]),
            (&producer[..], &[][..]),
            (&[][..], &consumer[..]),
            (&[][..], &[][..]),
            (&oversized[..], &consumer[..]),
        ] {
            for dataflow in Dataflow::ALL {
                let (closed, ir) = both_checks(p, c, 8, 8, dataflow);
                assert_eq!(closed, ir, "{} -> {} folds, {dataflow:?}", p.len(), c.len());
            }
        }
        let (closed, _) = both_checks(&oversized, &consumer, 8, 8, Dataflow::OutputStationary);
        assert_eq!(
            closed,
            PairCheck::ResidencyExceeded {
                tile_elems: 10_000,
                budget_elems: 64
            }
        );
    }

    #[test]
    fn huge_pair_figures_saturate_in_every_profile() {
        // Two consumer folds whose input tiles each saturate u64: the
        // traffic sum and the byte products must saturate, not wrap (or
        // panic in a debug build).
        let producer = [synthetic_spec(8, 8)];
        let huge = FoldSpec {
            compute: u64::MAX - 1,
            ..synthetic_spec(8, 8)
        };
        let consumer = [huge, huge];
        let (closed, ir) = both_checks(&producer, &consumer, 8, 8, Dataflow::OutputStationary);
        assert_eq!(closed, ir);
        let PairCheck::Fusible {
            saving_elems,
            traffic_elems,
            ..
        } = closed
        else {
            panic!("pair should be fusible: {closed:?}");
        };
        assert_eq!(traffic_elems, u64::MAX);
        // Both high-waters saturate too, so nothing measurable is saved.
        assert_eq!(saving_elems, 0);
        let diags = diagnose_pair_ir(
            &PlanIr::from_pair(&producer, &consumer),
            8,
            8,
            Dataflow::OutputStationary,
            2,
            "test",
            "pair",
        );
        assert_eq!(diags[0].rule, RuleId::Fus001FusiblePair);
        // A real saving priced at an absurd element width saturates: a
        // pointwise producer's 8x8 output tiles dominate the ofmap stream
        // of a depthwise consumer, so dropping them saves elements.
        let m = model_of(8);
        let producer = m.fold_plan(&Op::pointwise(9, 9, 6, 12)).expect("plans");
        let consumer = m
            .fold_plan(&Op::depthwise(9, 9, 12, 3, 1, 1))
            .expect("plans");
        let ir = PlanIr::from_pair(&producer, &consumer);
        let diags = diagnose_pair_ir(
            &ir,
            8,
            8,
            Dataflow::OutputStationary,
            u64::MAX,
            "test",
            "pair",
        );
        assert!(
            diags[0]
                .message
                .contains(&format!("saves {} bytes", u64::MAX)),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn mobilenet_v2_full_has_fusible_pairs() {
        let net = zoo::mobilenet_v2().transform_all(FuSeVariant::Full);
        let pairs = fusible_pairs(&model(), &net, &budget());
        assert!(!pairs.is_empty());
        // Every fused block contributes its row and col banks.
        assert!(pairs.iter().any(|p| matches!(
            p.producer,
            Op::FuSe1d {
                axis: Axis1d::Row,
                ..
            }
        )));
        assert!(pairs.iter().any(|p| matches!(
            p.producer,
            Op::FuSe1d {
                axis: Axis1d::Col,
                ..
            }
        )));
        assert!(pairs
            .iter()
            .all(|p| matches!(p.consumer, Op::Pointwise { .. })));
    }

    #[test]
    fn fusible_verdicts_are_constructively_true() {
        // The acceptance criterion: every FUS001 verdict re-verified from
        // scratch — dependence edges exist, the intermediate's tile fits
        // the rows×cols residency budget over its live interval, and the
        // reported saving equals the measured plan_high_water delta with
        // the intermediate's streams dropped from the working set.
        let m = model();
        let b = budget();
        let net = zoo::mobilenet_v2().transform_all(FuSeVariant::Half);
        let pairs = fusible_pairs(&m, &net, &b);
        assert!(!pairs.is_empty());
        for p in &pairs {
            let producer = m.fold_plan(&p.producer).expect("plans");
            let consumer = m.fold_plan(&p.consumer).expect("plans");
            let ir = PlanIr::from_pair(&producer, &consumer);
            // Dependence edges exist and match the reported count.
            let edges: usize = ir.nodes().iter().map(|n| n.succs.len()).sum();
            assert!(edges > 0);
            assert_eq!(edges, p.edges);
            // The intermediate tile fits on-array residency.
            assert!(p.tile_elems <= 64 * 64, "{p:?}");
            assert!(p.interval.0 <= p.interval.1);
            assert!(p.interval.1 < ir.nodes().len());
            // The saving equals the high-water delta measured on the flat
            // concatenated plan with the intermediate never staged.
            let mut concat = producer.clone();
            concat.extend(consumer.iter().copied());
            let base = plan_high_water(&concat);
            let fused = producer
                .iter()
                .map(|f| {
                    let mut fp = fold_footprint(f);
                    fp.ofmap_elems = 0;
                    fp
                })
                .chain(consumer.iter().map(|f| {
                    let mut fp = fold_footprint(f);
                    fp.ifmap_elems = 0;
                    fp
                }))
                .fold(FoldFootprint::default(), FoldFootprint::max);
            let measured = base.total().saturating_sub(fused.total());
            assert_eq!(p.saving_elems, measured, "{p:?}");
            assert_eq!(p.saving_bytes, measured * b.bytes_per_elem);
        }
    }

    #[test]
    fn depthwise_baseline_pairs_are_also_fusible() {
        let net = zoo::mobilenet_v2();
        let pairs = fusible_pairs(&model(), &net, &budget());
        assert!(!pairs.is_empty());
        assert!(pairs
            .iter()
            .all(|p| matches!(p.producer, Op::Depthwise { .. })));
    }

    #[test]
    fn gemm_only_network_has_no_pairs_and_no_fus_findings() {
        // ResNet-50's baseline has no depthwise/FuSe ops at all.
        let net = zoo::resnet50();
        assert!(fusible_pairs(&model(), &net, &budget()).is_empty());
        let diags = analyze_fusion(&model(), &net, &budget());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn analyze_fusion_emits_fus001_and_headroom() {
        let net = zoo::mobilenet_v2().transform_all(FuSeVariant::Full);
        let diags = analyze_fusion(&model(), &net, &budget());
        let fus001 = diags
            .iter()
            .filter(|d| d.rule == RuleId::Fus001FusiblePair)
            .count();
        assert_eq!(fus001, fusible_pairs(&model(), &net, &budget()).len());
        let headroom: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Fus006FusionHeadroom)
            .collect();
        assert_eq!(headroom.len(), 1);
        assert_eq!(headroom[0].severity, Severity::Info);
        assert!(
            headroom[0].message.contains("top layers"),
            "{}",
            headroom[0].message
        );
        // No illegal-fusion findings on real zoo networks.
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        assert!(diags.iter().all(|d| d.rule != RuleId::Fus005DeadValue));
    }

    #[test]
    fn input_stationary_consumer_is_fus004() {
        let m = model().with_dataflow(Dataflow::InputStationary);
        let net = zoo::mobilenet_v2();
        let diags = analyze_fusion(&m, &net, &budget());
        assert!(diags
            .iter()
            .any(|d| d.rule == RuleId::Fus004DataflowMismatch && d.severity == Severity::Warning));
        assert!(diags.iter().all(|d| d.rule != RuleId::Fus001FusiblePair));
        assert!(fusible_pairs(&m, &net, &budget()).is_empty());
    }

    fn synthetic_spec(rows_used: u32, cols_used: u32) -> FoldSpec {
        FoldSpec {
            tag: 0,
            kind: FoldKind::OutputStationary,
            rows_used,
            cols_used,
            fill: 0,
            compute: 8,
            drain: 4,
            macs: 64,
        }
    }

    #[test]
    fn oversized_intermediate_tile_is_fus002() {
        // A hand-built producer whose output tile (rows_used × cols_used)
        // exceeds an 8×8 array's on-array residency.
        let producer = [synthetic_spec(100, 100)];
        let consumer = [synthetic_spec(8, 8)];
        let ir = PlanIr::from_pair(&producer, &consumer);
        let diags = diagnose_pair_ir(&ir, 8, 8, Dataflow::OutputStationary, 2, "test", "pair");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Fus002ResidencyExceeded);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("10000"), "{}", diags[0].message);
    }

    #[test]
    fn dependence_cycle_is_fus003_error() {
        let producer = [synthetic_spec(8, 8)];
        let consumer = [synthetic_spec(8, 8)];
        let mut ir = PlanIr::from_pair(&producer, &consumer);
        ir.add_dependence(1, 0);
        let diags = diagnose_pair_ir(&ir, 8, 8, Dataflow::OutputStationary, 2, "test", "pair");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Fus003DependenceCycle);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn unread_output_is_fus005() {
        // depthwise(c=7) followed only by pointwise(in_c=3): 3 neither
        // covers nor evenly slices 7 channels, so the depthwise output is
        // dead by the slice-or-concat rule.
        let ops = [Op::depthwise(8, 8, 7, 3, 1, 1), Op::pointwise(8, 8, 3, 16)];
        let diags = diagnose_dead_ops(&ops, "test", |i| plan_footprint(&model(), &ops[i]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Fus005DeadValue);
        assert_eq!(diags[0].severity, Severity::Warning);
        // One dead output tile per fold, as the IR counts them.
        let plan = model().fold_plan(&ops[0]).expect("plans");
        let dead = PlanIr::from_pair(&plan, &[]).dead_values().len();
        assert!(
            diags[0].message.contains(&format!(
                "all {dead} output tiles of its fold plan are dead work"
            )),
            "{}",
            diags[0].message
        );
    }
}
