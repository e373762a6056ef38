//! Static self-audit of fold plans: coverage, occupancy and footprints.
//!
//! [`LatencyModel::fold_plan`] promises that its folds partition the
//! operator's output iteration space — every output element computed by
//! exactly one fold, every fold within the physical array. This module
//! proves that promise from the *outside*: it independently reconstructs
//! the expected tile partition of the iteration space (an interval
//! analysis over the fold grid) and classifies every divergence of an
//! actual plan as a [`PlanViolation`].
//!
//! Two consumers build on the audit:
//!
//! * [`gate`] — a cached per-configuration verdict consulted by every
//!   [`LatencyModel`] entry point, mirroring the dataflow-legality gate in
//!   `fuseconv_systolic::legality`: every build profile refuses to
//!   estimate with a model whose probe plans fail the audit.
//! * `fuseconv-analyze` — the `PLAN001–PLAN004` rules wrap
//!   [`audit_plan`]'s violations as diagnostics, and the `MEM001–MEM003`
//!   rules budget the [`fold_footprint`] working sets against SRAM.

use crate::map::{c64, Dataflow, LatencyError, LatencyModel, Lowering};
use fuseconv_nn::ops::{Axis1d, Op};
use fuseconv_systolic::conv1d;
use fuseconv_trace::FoldSpec;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// One divergence between a fold plan and the expected partition of the
/// operator's output iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanViolation {
    /// Part of the iteration space is computed by no fold.
    Gap {
        /// MACs of the uncovered region.
        missing_macs: u64,
        /// Where the coverage hole is.
        detail: String,
    },
    /// Part of the iteration space is computed by more than one fold (or
    /// by a fold that does not belong to the partition at all).
    Overlap {
        /// MACs computed beyond the iteration-space total.
        extra_macs: u64,
        /// Where the double-compute is.
        detail: String,
    },
    /// A fold claims more rows or columns than the array has.
    OversizedTile {
        /// Index of the offending fold in the plan.
        fold_index: usize,
        /// The fold's claimed row occupancy.
        rows_used: u32,
        /// The fold's claimed column occupancy.
        cols_used: u32,
    },
    /// The plan's summed MACs disagree with the operator's
    /// iteration-space MAC total.
    MacsMismatch {
        /// Σ `macs` over the plan's folds.
        plan_macs: u64,
        /// The independently computed iteration-space total.
        expected_macs: u64,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::Gap {
                missing_macs,
                detail,
            } => write!(f, "coverage gap of {missing_macs} MACs ({detail})"),
            PlanViolation::Overlap { extra_macs, detail } => {
                write!(f, "double-compute of {extra_macs} MACs ({detail})")
            }
            PlanViolation::OversizedTile {
                fold_index,
                rows_used,
                cols_used,
            } => write!(
                f,
                "fold {fold_index} claims a {rows_used}x{cols_used} tile beyond the array"
            ),
            PlanViolation::MacsMismatch {
                plan_macs,
                expected_macs,
            } => write!(
                f,
                "plan sums to {plan_macs} MACs, iteration space holds {expected_macs}"
            ),
        }
    }
}

/// An expected tile of the iteration-space partition: row/column occupancy
/// plus the MACs the tile owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tile {
    rows: u64,
    cols: u64,
    macs: u64,
}

/// Splits `total` into `tile`-sized chunks (full chunks then remainder),
/// the canonical 1-D interval partition all fold grids are built from.
fn chunks(total: u64, tile: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if tile == 0 {
        return out;
    }
    let mut done = 0u64;
    while done < total {
        let step = tile.min(total - done);
        out.push(step);
        done += step;
    }
    out
}

/// The expected tile sequence of one GEMM fold grid: the cross product of
/// the row-axis and column-axis partitions, row-major, each tile carrying
/// `ru · cu · reduction` MACs.
fn gemm_tiles(dim_r: u64, rows: u64, dim_c: u64, cols: u64, reduction: u64) -> Vec<Tile> {
    let mut out = Vec::new();
    for ru in chunks(dim_r, rows) {
        for cu in chunks(dim_c, cols) {
            out.push(Tile {
                rows: ru,
                cols: cu,
                macs: ru.saturating_mul(cu).saturating_mul(reduction),
            });
        }
    }
    out
}

/// The expected tile sequence of a packed row-broadcast (FuSe 1-D) plan,
/// reconstructed from the same packing decision the planner makes.
fn fuse_tiles(
    model: &LatencyModel,
    channels: usize,
    lines: usize,
    l_out: usize,
    k: usize,
) -> Vec<Tile> {
    let (rows, cols) = (model.array().rows(), model.array().cols());
    let lpr = conv1d::lines_per_row(model.array(), channels, lines, l_out, k);
    let slots_per_channel = lines.div_ceil(lpr);
    let slot_lines: Vec<usize> = (0..channels)
        .flat_map(|_| (0..slots_per_channel).map(move |s| lpr.min(lines - s * lpr)))
        .collect();
    let mut out = Vec::new();
    for slot0 in (0..slot_lines.len()).step_by(rows) {
        let chunk = &slot_lines[slot0..slot_lines.len().min(slot0 + rows)];
        let ru = c64(chunk.len());
        if lpr == 1 {
            for cw in chunks(c64(l_out), c64(cols)) {
                out.push(Tile {
                    rows: ru,
                    cols: cw,
                    macs: ru.saturating_mul(cw).saturating_mul(c64(k)),
                });
            }
        } else {
            let busy: u64 = chunk
                .iter()
                .map(|&n| c64(n).saturating_mul(c64(l_out)))
                .fold(0u64, u64::saturating_add);
            out.push(Tile {
                rows: ru,
                cols: c64(lpr).saturating_mul(c64(l_out)),
                macs: busy.saturating_mul(c64(k)),
            });
        }
    }
    out
}

/// The expected iteration-space partition for `op` under `model`, or
/// `None` when the operator is degenerate / unsupported on this array (the
/// planner itself errors there, so there is nothing to audit).
fn expected_tiles(model: &LatencyModel, op: &Op) -> Option<Vec<Tile>> {
    let (rows, cols) = (c64(model.array().rows()), c64(model.array().cols()));
    match model.lower(op).ok()? {
        Lowering::Gemm { m, k, n, repeats } => {
            let one = grid_for(model.dataflow(), m, k, n, rows, cols);
            Some(one.repeat(usize::try_from(repeats).ok()?))
        }
        Lowering::Fuse { c, lines, l_out, k } => Some(fuse_tiles(model, c, lines, l_out, k)),
    }
}

/// Maps a GEMM's `(m, k, n)` to its fold grid under a dataflow: the
/// dataflow's row and column dimensions tile onto the array, its time
/// dimension streams through every fold.
fn grid_for(dataflow: Dataflow, m: u64, k: u64, n: u64, rows: u64, cols: u64) -> Vec<Tile> {
    let [r, c, t] = dataflow.split(m, k, n);
    gemm_tiles(r, rows, c, cols, t)
}

/// Audits a fold plan against the expected partition of `op`'s iteration
/// space under `model`. Returns every divergence found; an empty vector is
/// the coverage proof (no gaps, no double-compute, tiles within the array,
/// MAC totals exact).
pub fn audit_plan(model: &LatencyModel, op: &Op, plan: &[FoldSpec]) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    let (rows, cols) = (model.array().rows(), model.array().cols());

    // PLAN003: physical occupancy, independent of the partition.
    for (i, f) in plan.iter().enumerate() {
        if c64u32(f.rows_used) > c64(rows) || c64u32(f.cols_used) > c64(cols) {
            out.push(PlanViolation::OversizedTile {
                fold_index: i,
                rows_used: f.rows_used,
                cols_used: f.cols_used,
            });
        }
    }

    let Some(expected) = expected_tiles(model, op) else {
        return out;
    };

    // PLAN001/PLAN002: walk the plan against the expected partition in
    // emission order, classifying under- and over-coverage tile by tile.
    let pairs = plan.len().max(expected.len());
    for i in 0..pairs {
        match (plan.get(i), expected.get(i)) {
            (Some(f), Some(t)) => {
                let (fr, fc) = (c64u32(f.rows_used), c64u32(f.cols_used));
                if fr < t.rows || fc < t.cols {
                    out.push(PlanViolation::Gap {
                        missing_macs: t.macs.saturating_sub(f.macs),
                        detail: format!(
                            "fold {i} covers {fr}x{fc} of the expected {}x{} tile",
                            t.rows, t.cols
                        ),
                    });
                }
                if fr > t.rows || fc > t.cols {
                    out.push(PlanViolation::Overlap {
                        extra_macs: f.macs.saturating_sub(t.macs),
                        detail: format!(
                            "fold {i} covers {fr}x{fc}, beyond the expected {}x{} tile",
                            t.rows, t.cols
                        ),
                    });
                }
            }
            (None, Some(t)) => out.push(PlanViolation::Gap {
                missing_macs: t.macs,
                detail: format!("plan ends before expected tile {i} ({}x{})", t.rows, t.cols),
            }),
            (Some(f), None) => out.push(PlanViolation::Overlap {
                extra_macs: f.macs,
                detail: format!(
                    "fold {i} ({}x{}) lies beyond the iteration space",
                    f.rows_used, f.cols_used
                ),
            }),
            (None, None) => {}
        }
    }

    // PLAN004: MAC totals, an independent global invariant (catches
    // compensating per-fold errors the tile walk cannot see).
    let plan_macs: u64 = plan.iter().map(|f| f.macs).fold(0u64, u64::saturating_add);
    let expected_macs: u64 = expected
        .iter()
        .map(|t| t.macs)
        .fold(0u64, u64::saturating_add);
    if plan_macs != expected_macs {
        out.push(PlanViolation::MacsMismatch {
            plan_macs,
            expected_macs,
        });
    }
    out
}

/// Per-fold SRAM working set, in elements per operand stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldFootprint {
    /// Distinct input-feature-map elements the fold touches.
    pub ifmap_elems: u64,
    /// Distinct filter elements the fold touches.
    pub filter_elems: u64,
    /// Distinct output elements the fold produces.
    pub ofmap_elems: u64,
}

impl FoldFootprint {
    /// Total elements across the three streams.
    pub fn total(&self) -> u64 {
        self.ifmap_elems
            .saturating_add(self.filter_elems)
            .saturating_add(self.ofmap_elems)
    }

    /// Per-stream maximum of two footprints.
    pub fn max(self, other: FoldFootprint) -> FoldFootprint {
        FoldFootprint {
            ifmap_elems: self.ifmap_elems.max(other.ifmap_elems),
            filter_elems: self.filter_elems.max(other.filter_elems),
            ofmap_elems: self.ofmap_elems.max(other.ofmap_elems),
        }
    }
}

/// The operand working set of one fold, recovered from the spec alone.
///
/// A GEMM fold's time extent is recovered from its compute phase
/// ([`Dataflow::time_extent`]), which with the used rows and columns gives
/// the fold's extent along each of `M`, `K` and `N`; each operand tile is
/// the product of its two dimensions' extents. For row-broadcast folds the
/// fill phase *is* the padded input width and the compute phase is the
/// kernel length. These are exactly the distinct SRAM addresses the traced
/// simulators touch per fold (the `footprint_vs_trace` integration test
/// pins this equality).
pub fn fold_footprint(f: &FoldSpec) -> FoldFootprint {
    let (ru, cu) = (c64u32(f.rows_used), c64u32(f.cols_used));
    let Some(dataflow) = f.kind.gemm_dataflow() else {
        return FoldFootprint {
            ifmap_elems: ru.saturating_mul(f.fill),
            filter_elems: ru.saturating_mul(f.compute),
            ofmap_elems: f.macs.checked_div(f.compute).unwrap_or(0),
        };
    };
    let t = dataflow.time_extent(ru, cu, f.compute);
    let [m, k, n] = dataflow.join(ru, cu, t);
    FoldFootprint {
        ifmap_elems: m.saturating_mul(k),
        filter_elems: k.saturating_mul(n),
        ofmap_elems: m.saturating_mul(n),
    }
}

/// Per-stream high-water mark over a whole plan: the largest single-fold
/// working set each SRAM buffer must hold.
pub fn plan_high_water(plan: &[FoldSpec]) -> FoldFootprint {
    plan.iter()
        .map(fold_footprint)
        .fold(FoldFootprint::default(), FoldFootprint::max)
}

/// Widening `u32 → u64` for fold occupancy fields.
fn c64u32(x: u32) -> u64 {
    u64::from(x)
}

/// Cache key: everything that changes a model's fold plans.
type Key = (usize, usize, bool, Dataflow, usize);

fn key_of(model: &LatencyModel) -> Key {
    (
        model.array().rows(),
        model.array().cols(),
        model.array().has_broadcast(),
        model.dataflow(),
        model.batch(),
    )
}

/// The probe operators the gate audits: one per lowering class, with
/// remainder tiles on every array at or above 2×2 (the same shapes the
/// plan unit tests sweep).
fn probe_ops(has_broadcast: bool) -> Vec<Op> {
    let mut ops = vec![
        Op::conv2d(14, 14, 8, 24, 3, 1, 1),
        Op::depthwise(9, 9, 6, 3, 1, 1),
        Op::pointwise(7, 7, 12, 20),
        Op::fc(100, 37),
    ];
    if has_broadcast {
        ops.push(Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row));
        ops.push(Op::fuse1d(7, 7, 9, 5, 1, 2, Axis1d::Col));
    }
    ops
}

/// Computes the audit verdict for one model configuration by planning and
/// auditing every probe operator.
fn verdict_for(model: &LatencyModel) -> Result<(), LatencyError> {
    for op in probe_ops(model.array().has_broadcast()) {
        let plan = model.fold_plan_ungated(&op)?;
        let violations = audit_plan(model, &op, &plan);
        if let Some(v) = violations.first() {
            return Err(LatencyError::PlanAudit {
                detail: format!("probe `{op}` on this configuration: {v}"),
            });
        }
    }
    Ok(())
}

static VERDICTS: OnceLock<Mutex<HashMap<Key, Result<(), LatencyError>>>> = OnceLock::new();

/// Plan-audit gate consulted by every [`LatencyModel`] entry point.
///
/// The first call per `(array, dataflow, batch)` configuration audits the
/// probe plans and caches the verdict; every call, in every build profile,
/// returns it. A failed verdict is counted once per configuration, when
/// first computed, as `latency.gate_warnings`. (The shipped planner
/// passes the audit — the gate exists so a planner regression cannot
/// silently produce latency numbers from a plan that no longer
/// partitions the iteration space.)
///
/// # Errors
///
/// [`LatencyError::PlanAudit`] when the audit fails.
pub fn gate(model: &LatencyModel) -> Result<(), LatencyError> {
    let cache = VERDICTS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    let verdict = map.entry(key_of(model)).or_insert_with(|| {
        // Only a computed verdict is profiled: a cache hit is one map
        // lookup, cheaper than the span that would time it.
        let _span = fuseconv_telemetry::span("latency.audit_gate");
        let v = verdict_for(model);
        if v.is_err() {
            fuseconv_telemetry::counter("latency.gate_warnings").inc();
        }
        v
    });
    verdict.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_systolic::ArrayConfig;

    fn model(rows: usize, cols: usize) -> LatencyModel {
        LatencyModel::new(ArrayConfig::new(rows, cols).unwrap().with_broadcast(true))
    }

    fn all_ops() -> Vec<Op> {
        probe_ops(true)
    }

    #[test]
    fn shipped_plans_audit_clean_everywhere() {
        for (rows, cols) in [(4usize, 6usize), (8, 8), (5, 3), (64, 64)] {
            for dataflow in Dataflow::ALL {
                let m = model(rows, cols).with_dataflow(dataflow);
                for op in all_ops() {
                    let plan = m.fold_plan_ungated(&op).unwrap();
                    let v = audit_plan(&m, &op, &plan);
                    assert!(v.is_empty(), "{rows}x{cols} {dataflow:?} {op}: {v:?}");
                }
            }
        }
    }

    #[test]
    fn gate_accepts_shipped_configurations() {
        for side in [4usize, 8, 64] {
            assert!(model(side, side)
                .cycles(&Op::pointwise(7, 7, 12, 20))
                .is_ok());
        }
    }

    #[test]
    fn dropped_fold_is_a_gap() {
        let m = model(8, 8);
        let op = Op::pointwise(7, 7, 12, 20);
        let mut plan = m.fold_plan_ungated(&op).unwrap();
        plan.pop();
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Gap { .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, PlanViolation::MacsMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn duplicated_fold_is_an_overlap() {
        let m = model(8, 8);
        let op = Op::pointwise(7, 7, 12, 20);
        let mut plan = m.fold_plan_ungated(&op).unwrap();
        let dup = plan[plan.len() - 1];
        plan.push(dup);
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Overlap { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn widened_tile_is_an_overlap_and_oversized() {
        let m = model(8, 8);
        let op = Op::pointwise(7, 7, 12, 20);
        let mut plan = m.fold_plan_ungated(&op).unwrap();
        plan[0].rows_used = 9; // beyond the 8-row array
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter()
                .any(|x| matches!(x, PlanViolation::OversizedTile { fold_index: 0, .. })),
            "{v:?}"
        );
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Overlap { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn narrowed_tile_is_a_gap() {
        let m = model(8, 8);
        let op = Op::conv2d(14, 14, 8, 24, 3, 1, 1);
        let mut plan = m.fold_plan_ungated(&op).unwrap();
        plan[0].cols_used -= 1;
        plan[0].macs -= 1;
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter().any(|x| matches!(x, PlanViolation::Gap { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn mutated_macs_alone_is_a_macs_mismatch() {
        let m = model(8, 8);
        let op = Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row);
        let mut plan = m.fold_plan_ungated(&op).unwrap();
        plan[0].macs += 7;
        let v = audit_plan(&m, &op, &plan);
        assert!(
            v.iter()
                .any(|x| matches!(x, PlanViolation::MacsMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn footprints_are_consistent_with_plan_dims() {
        // OS pointwise on 8x8: full 8x8 tiles with reduction 12 → ifmap
        // 8·12, filter 12·8, ofmap 8·8.
        let m = model(8, 8);
        let plan = m.fold_plan_ungated(&Op::pointwise(8, 8, 12, 8)).unwrap();
        let fp = fold_footprint(&plan[0]);
        assert_eq!(fp.ifmap_elems, 8 * 12);
        assert_eq!(fp.filter_elems, 12 * 8);
        assert_eq!(fp.ofmap_elems, 8 * 8);
        assert_eq!(fp.total(), 8 * 12 + 12 * 8 + 8 * 8);
        let hw = plan_high_water(&plan);
        assert!(hw.ifmap_elems >= fp.ifmap_elems);
    }

    #[test]
    fn high_water_is_per_stream_max() {
        let a = FoldFootprint {
            ifmap_elems: 10,
            filter_elems: 1,
            ofmap_elems: 5,
        };
        let b = FoldFootprint {
            ifmap_elems: 2,
            filter_elems: 8,
            ofmap_elems: 5,
        };
        let m = a.max(b);
        assert_eq!(m.ifmap_elems, 10);
        assert_eq!(m.filter_elems, 8);
        assert_eq!(m.ofmap_elems, 5);
    }

    #[test]
    fn violation_display_mentions_the_numbers() {
        let v = PlanViolation::MacsMismatch {
            plan_macs: 10,
            expected_macs: 12,
        };
        let s = v.to_string();
        assert!(s.contains("10") && s.contains("12"), "{s}");
    }
}
