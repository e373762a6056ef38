//! The fold geometry and cost table every layer of the workspace reads.
//!
//! A GEMM `C[M×N] = A[M×K]·B[K×N]` runs on the array in folds. Each
//! dataflow (§II-C) places two of the three GEMM dimensions on the array's
//! rows and columns and streams the third through time; a fold that uses
//! `ru` rows and `cu` columns for `t` time steps then costs
//!
//! | dataflow | rows | cols | time | fill | compute | drain |
//! |---|---|---|---|---|---|---|
//! | output-stationary | M | N | K | 0 | `ru + cu + t − 2` | `ru` |
//! | weight-stationary | K | N | M | `ru` | `ru + cu + t − 2` | 0 |
//! | input-stationary | M | K | N | `cu` | `ru + cu + t − 2` | 0 |
//!
//! The compute window is the skewed wavefront: the last PE `(ru−1, cu−1)`
//! starts `ru + cu − 2` cycles after the first and then runs for `t`.
//! Output-stationary outputs drain down the columns afterwards (SCALE-Sim's
//! `2·Sr + Sc + T − 2`); the other two preload their stationary operand one
//! array row (WS) or column (IS) per cycle and drain through the tail of
//! the streaming window.
//!
//! FuSeConv's row-broadcast dataflow (§IV-C) sits beside it: a fold whose
//! rows each hold `width` output positions of a `k`-tap 1-D convolution
//! costs fill `width + k − 1`, compute `k`, drain `ru`
//! ([`FoldPhases::row_broadcast`]).
//!
//! The cycle simulators, the analytic latency model, the fold planner, the
//! plan audit and the counters all derive their per-fold numbers from this
//! table; only the simulators' own skew-window loops, the RIA legality
//! mappings and the fold-plan IR's fixpoint engine stay independent, as the
//! references the table is tested against.

use crate::event::FoldKind;

/// One of the three GEMM dimensions of `C[M×N] = A[M×K]·B[K×N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmDim {
    /// Output rows (im2col: output pixels).
    M,
    /// The reduction dimension.
    K,
    /// Output columns (im2col: output channels).
    N,
}

/// Which systolic dataflow executes a GEMM.
///
/// The paper evaluates output-stationary only (§V-A-3); the other two are
/// the duals §II-C names, used by the dataflow ablations. FuSeConv's
/// row-broadcast dataflow is orthogonal and unaffected by this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Output-stationary: outputs accumulate in the PEs; the reduction
    /// dimension is temporal. The paper's setting and the default.
    #[default]
    OutputStationary,
    /// Weight-stationary: a weight tile is pinned in the PEs; the output
    /// rows stream through.
    WeightStationary,
    /// Input-stationary: an activation tile is pinned in the PEs; the
    /// weight columns stream through.
    InputStationary,
}

/// Which used-array extent a fill or drain phase lasts.
#[derive(Debug, Clone, Copy)]
enum Span {
    Zero,
    UsedRows,
    UsedCols,
}

impl Span {
    #[inline]
    fn of(self, ru: u64, cu: u64) -> u64 {
        match self {
            Span::Zero => 0,
            Span::UsedRows => ru,
            Span::UsedCols => cu,
        }
    }
}

/// One dataflow's row of the table.
struct Row {
    mnemonic: &'static str,
    kind: FoldKind,
    /// GEMM dimension on array rows, array columns and time, in that order.
    axes: [GemmDim; 3],
    fill: Span,
    drain: Span,
}

/// The table itself, indexed by `Dataflow as usize` (the order of
/// [`Dataflow::ALL`]).
const TABLE: [Row; 3] = [
    Row {
        mnemonic: "os",
        kind: FoldKind::OutputStationary,
        axes: [GemmDim::M, GemmDim::N, GemmDim::K],
        fill: Span::Zero,
        drain: Span::UsedRows,
    },
    Row {
        mnemonic: "ws",
        kind: FoldKind::WeightStationary,
        axes: [GemmDim::K, GemmDim::N, GemmDim::M],
        fill: Span::UsedRows,
        drain: Span::Zero,
    },
    Row {
        mnemonic: "is",
        kind: FoldKind::InputStationary,
        axes: [GemmDim::M, GemmDim::K, GemmDim::N],
        fill: Span::UsedCols,
        drain: Span::Zero,
    },
];

impl Dataflow {
    /// Every GEMM dataflow, in table order.
    pub const ALL: [Dataflow; 3] = [
        Dataflow::OutputStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ];

    const fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// Short lowercase mnemonic (`os` / `ws` / `is`) used in CLI pod
    /// specs, manifests and CSV/JSON output.
    pub const fn mnemonic(self) -> &'static str {
        self.row().mnemonic
    }

    /// The dataflow whose [`Dataflow::mnemonic`] is `s`.
    pub fn from_mnemonic(s: &str) -> Option<Dataflow> {
        Dataflow::ALL.into_iter().find(|d| d.mnemonic() == s)
    }

    /// The trace fold kind this dataflow's folds carry.
    pub const fn fold_kind(self) -> FoldKind {
        self.row().kind
    }

    /// The GEMM dimensions placed on array rows, array columns and time.
    pub const fn axes(self) -> [GemmDim; 3] {
        self.row().axes
    }

    /// Picks `[rows, cols, time]` extents out of a GEMM's `(m, k, n)`.
    #[inline]
    pub fn split<T: Copy>(self, m: T, k: T, n: T) -> [T; 3] {
        let mkn = [m, k, n];
        self.axes().map(|d| mkn[d as usize])
    }

    /// The inverse of [`Dataflow::split`]: `[m, k, n]` from extents along
    /// array rows, array columns and time.
    #[inline]
    pub fn join<T: Copy + Default>(self, rows: T, cols: T, time: T) -> [T; 3] {
        let mut mkn = [T::default(); 3];
        for (d, x) in self.axes().into_iter().zip([rows, cols, time]) {
            mkn[d as usize] = x;
        }
        mkn
    }

    /// Fill, compute and drain cycles of one fold using `ru` array rows,
    /// `cu` array columns and `t` time steps, in checked arithmetic.
    /// `None` when an extent is zero (no such fold exists) or a phase
    /// overflows `u64`.
    #[inline]
    pub fn fold_phases(self, ru: u64, cu: u64, t: u64) -> Option<FoldPhases> {
        if ru == 0 || cu == 0 || t == 0 {
            return None;
        }
        let row = self.row();
        Some(FoldPhases {
            fill: row.fill.of(ru, cu),
            compute: ru.checked_add(cu)?.checked_add(t)? - 2,
            drain: row.drain.of(ru, cu),
        })
    }

    /// The time extent `t` of a fold, recovered from its compute phase:
    /// the inverse of [`Dataflow::fold_phases`]' `compute = ru + cu + t − 2`
    /// (saturating at zero for inconsistent inputs).
    #[inline]
    pub fn time_extent(self, ru: u64, cu: u64, compute: u64) -> u64 {
        compute
            .saturating_add(2)
            .saturating_sub(ru.saturating_add(cu))
    }
}

/// The fill / compute / drain split of one fold, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldPhases {
    /// Operand preload cycles (no MACs).
    pub fill: u64,
    /// Streaming/compute window cycles.
    pub compute: u64,
    /// Result drain cycles (no MACs).
    pub drain: u64,
}

impl FoldPhases {
    /// A row-broadcast fold (§IV-C) of `ru` rows, each holding `width`
    /// output positions of a `k`-tap 1-D convolution: fill `width + k − 1`
    /// (pipelined input preload), compute `k` (one broadcast tap per
    /// cycle), drain `ru` (outputs leave down the columns). `None` when an
    /// extent is zero or the fill overflows `u64`.
    #[inline]
    pub fn row_broadcast(ru: u64, width: u64, k: u64) -> Option<FoldPhases> {
        if ru == 0 || width == 0 || k == 0 {
            return None;
        }
        Some(FoldPhases {
            fill: width.checked_add(k)? - 1,
            compute: k,
            drain: ru,
        })
    }

    /// Total cycles of the fold, `None` on `u64` overflow.
    #[inline]
    pub fn total(self) -> Option<u64> {
        self.fill.checked_add(self.compute)?.checked_add(self.drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_order_matches_discriminants_and_kinds() {
        for (i, d) in Dataflow::ALL.into_iter().enumerate() {
            assert_eq!(d as usize, i);
            assert_eq!(Dataflow::from_mnemonic(d.mnemonic()), Some(d));
            assert_eq!(d.fold_kind().mnemonic(), d.mnemonic());
        }
        assert_eq!(Dataflow::from_mnemonic("bcast"), None);
        assert_eq!(Dataflow::default(), Dataflow::OutputStationary);
    }

    #[test]
    fn split_and_join_are_inverse() {
        for d in Dataflow::ALL {
            let [r, c, t] = d.split(2u64, 3, 5);
            assert_eq!(d.join(r, c, t), [2, 3, 5], "{d:?}");
        }
        assert_eq!(Dataflow::OutputStationary.split(2, 3, 5), [2, 5, 3]);
        assert_eq!(Dataflow::WeightStationary.split(2, 3, 5), [3, 5, 2]);
        assert_eq!(Dataflow::InputStationary.split(2, 3, 5), [2, 3, 5]);
    }

    #[test]
    fn gemm_folds_match_the_scale_sim_formulas() {
        // 2·Sr + Sc + T − 2 for output-stationary, and its duals.
        let os = Dataflow::OutputStationary.fold_phases(32, 32, 100).unwrap();
        assert_eq!(os.total(), Some(2 * 32 + 32 + 100 - 2));
        assert_eq!(os.fill, 0);
        let ws = Dataflow::WeightStationary.fold_phases(8, 5, 100).unwrap();
        assert_eq!((ws.fill, ws.compute, ws.drain), (8, 8 + 5 + 100 - 2, 0));
        let is = Dataflow::InputStationary.fold_phases(8, 5, 100).unwrap();
        assert_eq!((is.fill, is.compute, is.drain), (5, 8 + 5 + 100 - 2, 0));
        // Degenerate 1x1x1 output-stationary fold: one compute cycle plus
        // one drain cycle.
        let one = Dataflow::OutputStationary.fold_phases(1, 1, 1).unwrap();
        assert_eq!(one.total(), Some(2));
        for d in Dataflow::ALL {
            assert_eq!(d.time_extent(8, 5, 111), 100);
        }
    }

    #[test]
    fn phases_are_checked() {
        for d in Dataflow::ALL {
            assert_eq!(d.fold_phases(0, 1, 1), None);
            assert_eq!(d.fold_phases(1, 1, 0), None);
            assert_eq!(d.fold_phases(2, 2, u64::MAX), None);
        }
        // compute = u64::MAX − 2 fits; adding the 3-cycle fill does not.
        let max = Dataflow::WeightStationary
            .fold_phases(3, 1, u64::MAX - 4)
            .unwrap();
        assert_eq!(max.total(), None);
        assert_eq!(FoldPhases::row_broadcast(1, u64::MAX, 2), None);
        assert_eq!(FoldPhases::row_broadcast(0, 1, 1), None);
        let b = FoldPhases::row_broadcast(4, 6, 3).unwrap();
        assert_eq!((b.fill, b.compute, b.drain), (8, 3, 4));
    }
}
