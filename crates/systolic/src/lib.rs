//! A cycle-level simulator of a 2-D systolic array.
//!
//! Two families of dataflow are modelled, matching §II-C and §IV-C of the
//! paper:
//!
//! - [`gemm`] — GEMM under the **output-**, **weight-** and
//!   **input-stationary** dataflows, one kernel parameterised by
//!   [`Dataflow`](fuseconv_trace::Dataflow). Under the paper's
//!   output-stationary dataflow operand `A` streams in from the left (one
//!   array row per output row), operand `B` from the top (one array column
//!   per output column), skewed by one cycle per position; each PE
//!   accumulates one output element; outputs drain down the columns. Work
//!   larger than the array is executed in *folds*.
//! - [`conv1d`] — the paper's **row-broadcast** dataflow for FuSeConv:
//!   each array row runs an independent 1-D convolution. The row's weight
//!   taps are broadcast (one per cycle) over a dedicated link while the
//!   preloaded input slides left one PE per cycle; outputs stay stationary
//!   and drain down the columns like the OS dataflow.
//!
//! Per-fold cycle costs come from the fold table in `fuseconv-trace`
//! ([`Dataflow::fold_phases`](fuseconv_trace::Dataflow::fold_phases),
//! [`FoldPhases::row_broadcast`](fuseconv_trace::FoldPhases::row_broadcast));
//! the simulators' cycle loops are the reference that table is tested
//! against.
//!
//! Every simulation returns a [`SimResult`] carrying the functional output
//! (validated against golden models in tests), the exact cycle count, and a
//! per-cycle busy-PE trace from which utilization is computed. The analytic
//! latency model in `fuseconv-latency` is cross-validated against these
//! cycle counts.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fuseconv_systolic::{ArrayConfig, gemm};
//! use fuseconv_tensor::Tensor;
//! use fuseconv_trace::Dataflow;
//!
//! let cfg = ArrayConfig::new(8, 8)?;
//! let a = Tensor::from_fn(&[4, 3], |ix| (ix[0] + ix[1]) as f32)?;
//! let b = Tensor::from_fn(&[3, 5], |ix| (ix[0] * 2 + ix[1]) as f32)?;
//! let sim = gemm::simulate(&cfg, Dataflow::OutputStationary, &a, &b)?;
//! let golden = fuseconv_tensor::gemm::matmul(&a, &b)?;
//! assert_eq!(sim.output().as_slice(), golden.as_slice());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conv1d;
pub mod gemm;
pub mod legality;
pub mod result;

pub use config::{ArrayConfig, ConfigError};
pub use result::SimResult;

/// Count one finished simulation in the process-wide metrics registry:
/// `sim.runs_total`, `sim.cycles_total` (simulated cycles) and
/// `sim.folds_total`. Every `simulate_traced` entry point calls this
/// just before returning, so the registry's cycle total equals the sum
/// of every returned [`SimResult::cycles`].
fn record_sim_metrics(sim: &SimResult) {
    fuseconv_telemetry::counter("sim.runs_total").inc();
    fuseconv_telemetry::counter("sim.cycles_total").add(sim.cycles());
    fuseconv_telemetry::counter("sim.folds_total").add(sim.folds());
}
