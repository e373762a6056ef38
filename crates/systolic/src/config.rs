//! Array configuration.

use std::error::Error;
use std::fmt;

/// Dimensions and features of the simulated systolic array.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), fuseconv_systolic::ConfigError> {
/// use fuseconv_systolic::ArrayConfig;
///
/// let cfg = ArrayConfig::new(64, 64)?.with_broadcast(true);
/// assert_eq!(cfg.rows(), 64);
/// assert!(cfg.has_broadcast());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayConfig {
    rows: usize,
    cols: usize,
    broadcast: bool,
}

impl ArrayConfig {
    /// Creates an array of `rows × cols` PEs without broadcast links.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyArray`] if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self, ConfigError> {
        if rows == 0 || cols == 0 {
            return Err(ConfigError::EmptyArray { rows, cols });
        }
        Ok(ArrayConfig {
            rows,
            cols,
            broadcast: false,
        })
    }

    /// Creates the square `s × s` array used throughout the paper.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyArray`] if `s` is zero.
    pub fn square(s: usize) -> Result<Self, ConfigError> {
        Self::new(s, s)
    }

    /// Enables or disables the per-row weight-broadcast links required by
    /// the FuSeConv dataflow (§IV-C-1).
    #[must_use]
    pub fn with_broadcast(mut self, broadcast: bool) -> Self {
        self.broadcast = broadcast;
        self
    }

    /// Number of PE rows (systolic dimension 2 in the paper's figures).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PE columns (systolic dimension 1 in the paper's figures).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the array has per-row weight-broadcast links.
    pub fn has_broadcast(&self) -> bool {
        self.broadcast
    }

    /// Checked Σ of `cost(ru, cu)` over the folds that tile an
    /// `extent_r × extent_c` grid onto the array's rows and columns — the
    /// closed form of the simulators' fold loops. Full tiles and the
    /// remainder tile are summed as classes, so the cost is O(1) in the
    /// fold count; `None` when `cost` or the sum overflows `u64`.
    pub fn sum_folds(
        &self,
        extent_r: u64,
        extent_c: u64,
        cost: impl Fn(u64, u64) -> Option<u64>,
    ) -> Option<u64> {
        let mut total = 0u64;
        for (ru, rc) in tile_classes(extent_r, c64(self.rows)) {
            for (cu, cc) in tile_classes(extent_c, c64(self.cols)) {
                if rc != 0 && cc != 0 {
                    total = total.checked_add(cost(ru, cu)?.checked_mul(rc)?.checked_mul(cc)?)?;
                }
            }
        }
        Some(total)
    }

    /// Occupancy `(ru, cu)` of the first and of the last fold that
    /// [`ArrayConfig::sum_folds`] sums over.
    #[inline]
    pub fn edge_folds(&self, extent_r: u64, extent_c: u64) -> [(u64, u64); 2] {
        let (rows, cols) = (c64(self.rows), c64(self.cols));
        [
            (rows.min(extent_r), cols.min(extent_c)),
            (last_tile(extent_r, rows), last_tile(extent_c, cols)),
        ]
    }
}

/// Lossless `usize → u64` (saturating on exotic >64-bit targets).
#[inline]
pub(crate) fn c64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// `total` split into `tile`-sized folds as `(size, count)` classes: the
/// full tiles and the remainder.
#[inline]
fn tile_classes(total: u64, tile: u64) -> [(u64, u64); 2] {
    let rem = total % tile;
    [(tile, total / tile), (rem, u64::from(rem != 0))]
}

/// Size of the last of `total`'s `tile`-sized folds.
#[inline]
fn last_tile(total: u64, tile: u64) -> u64 {
    match total % tile {
        0 => tile.min(total),
        rem => rem,
    }
}

impl fmt::Display for ArrayConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} systolic array{}",
            self.rows,
            self.cols,
            if self.broadcast {
                " with row-broadcast links"
            } else {
                ""
            }
        )
    }
}

/// Error constructing an [`ArrayConfig`] or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A zero-sized array was requested.
    EmptyArray {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// The FuSeConv dataflow was requested on an array without broadcast
    /// links.
    BroadcastUnavailable,
    /// Simulation operands had invalid shapes.
    BadOperand {
        /// Description of the problem.
        what: &'static str,
    },
    /// The static legality gate rejected the dataflow's space–time mapping
    /// (see [`crate::legality`]).
    IllegalMapping {
        /// Name of the rejected dataflow.
        dataflow: &'static str,
        /// The concatenated legality violations.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyArray { rows, cols } => {
                write!(f, "array dimensions {rows}x{cols} must be nonzero")
            }
            ConfigError::BroadcastUnavailable => write!(
                f,
                "the fuseconv dataflow requires an array with row-broadcast links"
            ),
            ConfigError::BadOperand { what } => write!(f, "invalid operand: {what}"),
            ConfigError::IllegalMapping { dataflow, detail } => {
                write!(f, "illegal {dataflow} mapping: {detail}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_grid_sums_by_tile_class() {
        let cfg = ArrayConfig::new(3, 4).unwrap();
        // 7 rows → 3, 3, 1; 9 cols → 4, 4, 1: Σ ru·cu covers the grid.
        assert_eq!(cfg.sum_folds(7, 9, |r, c| Some(r * c)), Some(63));
        assert_eq!(cfg.sum_folds(7, 9, |_, _| Some(1)), Some(9));
        assert_eq!(cfg.edge_folds(7, 9), [(3, 4), (1, 1)]);
        assert_eq!(cfg.edge_folds(6, 2), [(3, 2), (3, 2)]);
        assert_eq!(cfg.sum_folds(7, 9, |_, _| Some(u64::MAX)), None);
        assert_eq!(cfg.sum_folds(7, 9, |_, _| None), None);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(ArrayConfig::new(0, 4).is_err());
        assert!(ArrayConfig::new(4, 0).is_err());
        assert!(ArrayConfig::square(0).is_err());
    }

    #[test]
    fn builder_sets_broadcast() {
        let cfg = ArrayConfig::square(32).unwrap();
        assert!(!cfg.has_broadcast());
        let cfg = cfg.with_broadcast(true);
        assert!(cfg.has_broadcast());
        assert_eq!(cfg.pe_count(), 1024);
    }

    #[test]
    fn display_mentions_broadcast() {
        let cfg = ArrayConfig::new(8, 16).unwrap().with_broadcast(true);
        let s = cfg.to_string();
        assert!(s.contains("8x16"));
        assert!(s.contains("broadcast"));
    }
}
