//! Per-fold provenance: the analytic model's fold-by-fold plan.
//!
//! [`LatencyModel::cycles`] reports one number per operator; this module
//! exposes the folds behind that number as [`FoldSpec`]s, each tagged with
//! its dataflow, occupancy and fill/compute/drain split. The specs serve
//! two purposes:
//!
//! * **Cross-referencing** — a traced simulation of the same op produces
//!   folds in the same order with the same phase lengths, so analytic and
//!   simulated folds can be matched one-to-one (the `trace_cross_check`
//!   integration test enforces this).
//! * **Replay** — [`fuseconv_trace::replay`] turns a plan into the trace
//!   event stream directly, which is how whole-network traces are produced
//!   without cycle-simulating millions of cycles.
//!
//! Plans always use [`FoldOverlap::Serial`] accounting (folds back to
//! back, exactly like the cycle simulator): under the default serial mode
//! the plan's total cycles equal [`LatencyModel::cycles`] exactly.
//!
//! [`FoldOverlap::Serial`]: crate::FoldOverlap::Serial

use crate::map::{c64, FoldOverlap, LatencyError, LatencyModel, Lowering};
use fuseconv_nn::ops::Op;
use fuseconv_systolic::{conv1d, ArrayConfig};
use fuseconv_trace::{Dataflow, FoldKind, FoldPhases, FoldSpec};

/// One fold's spec from its table phases; `None` when an occupancy does
/// not fit `u32`.
fn spec(kind: FoldKind, ru: u64, cu: u64, p: FoldPhases, macs: u64) -> Option<FoldSpec> {
    Some(FoldSpec {
        tag: 0,
        kind,
        rows_used: u32::try_from(ru).ok()?,
        cols_used: u32::try_from(cu).ok()?,
        fill: p.fill,
        compute: p.compute,
        drain: p.drain,
        macs,
    })
}

type GemmPlan = fn(&ArrayConfig, [u64; 3], &mut Vec<FoldSpec>) -> Option<()>;

/// `LatencyModel::gemm_plan`'s loop for `Dataflow::ALL[D]`.
fn gemm_folds<const D: usize>(
    array: &ArrayConfig,
    [m, k, n]: [u64; 3],
    out: &mut Vec<FoldSpec>,
) -> Option<()> {
    let dataflow = Dataflow::ALL[D];
    let [r_ext, c_ext, t] = dataflow.split(m, k, n);
    for r0 in (0..r_ext).step_by(array.rows()) {
        let ru = c64(array.rows()).min(r_ext - r0);
        for c0 in (0..c_ext).step_by(array.cols()) {
            let cu = c64(array.cols()).min(c_ext - c0);
            let phases = dataflow.fold_phases(ru, cu, t)?;
            let macs = ru.checked_mul(cu)?.checked_mul(t)?;
            out.push(spec(dataflow.fold_kind(), ru, cu, phases, macs)?);
        }
    }
    Some(())
}

impl LatencyModel {
    /// Emits one fold per GEMM tile under the configured dataflow: the
    /// dataflow's rows and columns dimensions tiled onto the array, each
    /// fold streaming the whole time dimension.
    fn gemm_plan(&self, m: u64, k: u64, n: u64, out: &mut Vec<FoldSpec>) -> Option<()> {
        // One loop compiled per dataflow, so the table's entries are
        // constants in it.
        const PLANS: [GemmPlan; 3] = [gemm_folds::<0>, gemm_folds::<1>, gemm_folds::<2>];
        PLANS[self.dataflow() as usize](self.array(), [m, k, n], out)
    }

    /// Emits the packed row-broadcast folds (mirrors
    /// `conv1d::analytic_cycles_packed` tile by tile): array rows hold
    /// slots of up to `lpr` same-channel lines, each row `lpr · l_out`
    /// positions wide.
    fn fuse_plan(
        &self,
        channels: usize,
        lines: usize,
        l_out: usize,
        k: usize,
        out: &mut Vec<FoldSpec>,
    ) -> Option<()> {
        let (rows, cols) = (self.array().rows(), self.array().cols());
        let lpr = conv1d::lines_per_row(self.array(), channels, lines, l_out, k);
        let slots_per_channel = lines.div_ceil(lpr);
        // Per-slot line counts, channel-major: full slots of `lpr` lines
        // plus one remainder slot per channel.
        let slot_lines: Vec<usize> = (0..channels)
            .flat_map(|_| (0..slots_per_channel).map(move |s| lpr.min(lines - s * lpr)))
            .collect();
        let width = lpr.checked_mul(l_out)?;
        for chunk in slot_lines.chunks(rows) {
            let ru = chunk.len();
            // A packed row is busy on its own lines' outputs only: a
            // remainder slot holds fewer than `lpr` lines.
            let packed_busy = c64(chunk.iter().sum::<usize>()).checked_mul(c64(l_out))?;
            for c0 in (0..width).step_by(cols) {
                let cw = cols.min(width - c0);
                let busy = if lpr == 1 {
                    c64(ru).checked_mul(c64(cw))?
                } else {
                    packed_busy
                };
                let phases = FoldPhases::row_broadcast(c64(ru), c64(cw), c64(k))?;
                let macs = busy.checked_mul(c64(k))?;
                out.push(spec(
                    FoldKind::RowBroadcast,
                    c64(ru),
                    c64(cw),
                    phases,
                    macs,
                )?);
            }
        }
        Some(())
    }

    /// The fold-by-fold plan behind [`LatencyModel::cycles`] for one
    /// operator, under serial fold accounting.
    ///
    /// Folds are emitted in exactly the order the cycle simulator executes
    /// them; with [`FoldOverlap::Serial`](crate::FoldOverlap::Serial) (the
    /// default) the plan's summed cycles equal [`LatencyModel::cycles`]
    /// and the per-fold MACs sum to
    /// [`Op::macs`]. All specs carry `tag = 0`; callers
    /// replaying several ops re-tag them (typically with the op's index).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LatencyModel::cycles`]:
    /// [`LatencyError::BroadcastRequired`] for a FuSe operator on a
    /// broadcast-less array, [`LatencyError::DegenerateOp`] for zero-sized
    /// work, [`LatencyError::ArithmeticOverflow`] when the serial cycle
    /// total the plan describes does not fit `u64`.
    pub fn fold_plan(&self, op: &Op) -> Result<Vec<FoldSpec>, LatencyError> {
        let _span = fuseconv_telemetry::span("latency.fold_plan");
        crate::audit::gate(self)?;
        let plan = self.fold_plan_ungated(op)?;
        fuseconv_telemetry::counter("latency.folds_planned_total")
            .add(u64::try_from(plan.len()).unwrap_or(u64::MAX));
        Ok(plan)
    }

    /// [`LatencyModel::fold_plan`] without the plan-audit gate — used by
    /// the audit itself, which must not recurse through the gate.
    pub(crate) fn fold_plan_ungated(&self, op: &Op) -> Result<Vec<FoldSpec>, LatencyError> {
        // Plans document serial accounting; prove that total fits u64
        // before emitting a single spec, so overflow is an error here too.
        self.with_overlap(FoldOverlap::Serial).cycles_ungated(op)?;
        let mut plan = Vec::new();
        let planned = match self.lower(op)? {
            Lowering::Gemm { m, k, n, repeats } => {
                (0..repeats).try_for_each(|_| self.gemm_plan(m, k, n, &mut plan))
            }
            Lowering::Fuse { c, lines, l_out, k } => self.fuse_plan(c, lines, l_out, k, &mut plan),
        };
        planned.ok_or_else(|| LatencyError::ArithmeticOverflow { op: op.to_string() })?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::FoldOverlap;
    use fuseconv_nn::ops::Axis1d;
    use fuseconv_systolic::ArrayConfig;

    fn array(rows: usize, cols: usize) -> ArrayConfig {
        ArrayConfig::new(rows, cols).unwrap().with_broadcast(true)
    }

    fn ops() -> Vec<Op> {
        vec![
            Op::conv2d(14, 14, 8, 24, 3, 1, 1),
            Op::depthwise(9, 9, 6, 3, 1, 1),
            Op::pointwise(7, 7, 12, 20),
            Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row),
            Op::fuse1d(7, 7, 9, 5, 1, 2, Axis1d::Col),
            Op::fc(100, 37),
        ]
    }

    #[test]
    fn plan_totals_match_cycles_for_all_dataflows() {
        for (rows, cols) in [(4usize, 6usize), (8, 8), (5, 3), (64, 64)] {
            for dataflow in crate::Dataflow::ALL {
                let model = LatencyModel::new(array(rows, cols)).with_dataflow(dataflow);
                for op in ops() {
                    let plan = model.fold_plan(&op).unwrap();
                    let total: u64 = plan.iter().map(FoldSpec::cycles).sum();
                    assert_eq!(
                        total,
                        model.cycles(&op).unwrap(),
                        "{rows}x{cols} {dataflow:?} {op}"
                    );
                    let macs: u64 = plan.iter().map(|f| f.macs).sum();
                    assert_eq!(macs, op.macs(), "{rows}x{cols} {dataflow:?} {op}");
                    assert!(!plan.is_empty());
                }
            }
        }
    }

    #[test]
    fn plan_respects_batching() {
        let model = LatencyModel::new(array(8, 8)).with_batch(3);
        let op = Op::pointwise(5, 5, 8, 8);
        let plan = model.fold_plan(&op).unwrap();
        let total: u64 = plan.iter().map(FoldSpec::cycles).sum();
        assert_eq!(total, model.cycles(&op).unwrap());
    }

    #[test]
    fn plan_is_serial_even_for_double_buffered_models() {
        // The plan documents serial accounting; a double-buffered model's
        // cycles() is smaller than the plan total for multi-fold ops.
        let serial = LatencyModel::new(array(8, 8));
        let piped = serial.with_overlap(FoldOverlap::DoubleBuffered);
        let op = Op::pointwise(28, 28, 192, 64);
        let plan_total: u64 = piped
            .fold_plan(&op)
            .unwrap()
            .iter()
            .map(FoldSpec::cycles)
            .sum();
        assert_eq!(plan_total, serial.cycles(&op).unwrap());
        assert!(piped.cycles(&op).unwrap() < plan_total);
    }

    #[test]
    fn fuse_plan_requires_broadcast() {
        let model = LatencyModel::new(ArrayConfig::square(8).unwrap());
        let op = Op::fuse1d(12, 12, 5, 3, 1, 1, Axis1d::Row);
        assert!(matches!(
            model.fold_plan(&op),
            Err(LatencyError::BroadcastRequired { .. })
        ));
    }

    #[test]
    fn depthwise_plan_is_single_column() {
        let model = LatencyModel::new(array(8, 8));
        let op = Op::depthwise(5, 5, 4, 3, 1, 1);
        let plan = model.fold_plan(&op).unwrap();
        assert!(plan.iter().all(|f| f.cols_used == 1));
        assert!(plan.iter().all(|f| f.kind == FoldKind::OutputStationary));
    }
}
