//! GEMM on the systolic array under the three dataflows of §II-C.
//!
//! Each [`Dataflow`] places two of the GEMM dimensions of
//! `C[M×N] = A[M×K]·B[K×N]` on the array's rows and columns and streams
//! the third through time ([`Dataflow::axes`]):
//!
//! - **output-stationary** (rows `M`, cols `N`, time `K`, Fig. 1(d)) —
//!   `A` streams in from the left, `B` from the top, both skewed one cycle
//!   per position; outputs accumulate in the PEs and drain down the
//!   columns afterwards;
//! - **weight-stationary** (rows `K`, cols `N`, time `M`) — a tile of `B`
//!   is preloaded one array row per cycle; rows of `A` stream through and
//!   partial sums leave at the bottom edge;
//! - **input-stationary** (rows `M`, cols `K`, time `N`) — a tile of `A`
//!   is preloaded one array column per cycle; columns of `B` stream
//!   through and partial sums leave at the right edge.
//!
//! In every case PE `(i, j)` performs the MAC for time index `t − i − j`
//! at cycle `t` of the fold's streaming window. Work larger than the array
//! is tiled into folds over the two spatial dimensions; folds that tile
//! the reduction accumulate into the same outputs, which a real
//! accelerator does in its output SRAM at no extra array cycles. Each
//! fold's fill/compute/drain split is the one in [`Dataflow::fold_phases`]
//! (for output-stationary, SCALE-Sim's `2·Sr + Sc + T − 2`); the
//! simulator's loops below are the independent reference the tests check
//! that table against.

use crate::legality::DataflowKind;
use crate::{ArrayConfig, ConfigError, SimResult};
use fuseconv_tensor::Tensor;
use fuseconv_trace::{
    Dataflow, FoldPhases, GemmDim, NullSink, Operand, Phase, TraceEvent, TraceSink,
};

/// Exact cycles of one fold under `dataflow` using `ru` rows, `cu`
/// columns and `t` time steps (the reduction length for output-stationary,
/// the streamed rows for weight-stationary, the streamed columns for
/// input-stationary).
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn fold_cycles(dataflow: Dataflow, ru: usize, cu: usize, t: usize) -> u64 {
    dataflow
        .fold_phases(ru as u64, cu as u64, t as u64)
        .and_then(FoldPhases::total)
        .expect("fold dimensions must be nonzero")
}

/// Simulates `C = A·B` under `dataflow`, cycle by cycle.
///
/// Returns the product (bit-identical to the golden
/// [`matmul`](fuseconv_tensor::gemm::matmul) for output-stationary, which
/// accumulates in the same `k` order; within f32 rounding otherwise)
/// together with exact cycle counts and the per-cycle busy trace.
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate(
    cfg: &ArrayConfig,
    dataflow: Dataflow,
    a: &Tensor,
    b: &Tensor,
) -> Result<SimResult, ConfigError> {
    simulate_traced(cfg, dataflow, a, b, &mut NullSink)
}

/// [`simulate`] with every cycle narrated to `sink` as trace events.
///
/// Per-PE and per-element events are generated only when the sink opts in
/// ([`TraceSink::wants_pe_fires`] / [`TraceSink::wants_operand_events`]);
/// the cycle numbers carried by the events match the returned
/// [`SimResult::cycles`](crate::SimResult::cycles) exactly. A stationary
/// input's preload is reported as the fold's fill phase, the streaming
/// window as its compute phase and the output-stationary drain as its
/// drain phase; streamed outputs are written as they leave the array.
///
/// # Errors
///
/// Returns [`ConfigError::BadOperand`] unless `a` is `M×K` and `b` is `K×N`.
pub fn simulate_traced(
    cfg: &ArrayConfig,
    dataflow: Dataflow,
    a: &Tensor,
    b: &Tensor,
    sink: &mut dyn TraceSink,
) -> Result<SimResult, ConfigError> {
    let _span = fuseconv_telemetry::span(SPANS[dataflow as usize]);
    crate::legality::gate(DataflowKind::gemm(dataflow), cfg)?;
    let (ad, bd) = (a.shape().dims(), b.shape().dims());
    if ad.len() != 2 || bd.len() != 2 || ad[1] != bd[0] {
        return Err(ConfigError::BadOperand {
            what: "gemm operands must be MxK and KxN",
        });
    }
    let (m, k, n) = (ad[0], ad[1], bd[1]);
    // One dispatch per call, into a kernel compiled for this dataflow.
    const KERNELS: [Kernel; 3] = [kernel::<0>, kernel::<1>, kernel::<2>];
    let sim = KERNELS[dataflow as usize](cfg, a.as_slice(), b.as_slice(), [m, k, n], sink);
    crate::record_sim_metrics(&sim);
    Ok(sim)
}

/// Telemetry span of each dataflow's simulation, in [`Dataflow::ALL`]
/// order.
const SPANS: [&str; 3] = ["sim.gemm_os", "sim.gemm_ws", "sim.gemm_is"];

type Kernel = fn(&ArrayConfig, &[f32], &[f32], [usize; 3], &mut dyn TraceSink) -> SimResult;

/// `Dataflow::ALL[D]`'s axes as a compile-time constant.
struct Axes<const D: usize>;

impl<const D: usize> Axes<D> {
    const AXES: [GemmDim; 3] = Dataflow::ALL[D].axes();
}

/// The simulator for `Dataflow::ALL[D]`. The dataflow is a compile-time
/// constant, so every stride and operand role below folds away and each
/// dataflow gets its own specialised inner loop.
fn kernel<const D: usize>(
    cfg: &ArrayConfig,
    av: &[f32],
    bv: &[f32],
    [m, k, n]: [usize; 3],
    sink: &mut dyn TraceSink,
) -> SimResult {
    let dataflow = Dataflow::ALL[D];
    let [dr, dc, dt] = Axes::<D>::AXES;
    // Element strides of A (M×K), B (K×N) and C (M×N) along array rows,
    // array columns and time.
    let along = |s: [usize; 3]| [s[dr as usize], s[dc as usize], s[dt as usize]];
    let (sa, sb, sc) = (along([k, 1, 0]), along([0, n, 1]), along([n, 0, 1]));
    // The operand without the temporal dimension is pinned in the PEs.
    let a_streams = dt != GemmDim::N;
    let b_streams = dt != GemmDim::M;
    let c_streams = dt != GemmDim::K;
    // Streamed partial sums leave at the edge the reduction runs toward.
    let exits_bottom = dr == GemmDim::K;
    let [r_ext, c_ext, t_ext] = dataflow.split(m, k, n);

    let mut out = vec![0.0f32; m * n];
    let mut busy_trace: Vec<u32> = Vec::new();
    let mut busy_pe_cycles = 0u64;
    let mut folds = 0u64;
    let wants_pe = sink.wants_pe_fires();
    let wants_ops = sink.wants_operand_events();

    for r0 in (0..r_ext).step_by(cfg.rows()) {
        let ru = cfg.rows().min(r_ext - r0);
        for c0 in (0..c_ext).step_by(cfg.cols()) {
            let cu = cfg.cols().min(c_ext - c0);
            // Fold origins within A, B and C.
            let (ao, bo, co) = (
                r0 * sa[0] + c0 * sa[1],
                r0 * sb[0] + c0 * sb[1],
                r0 * sc[0] + c0 * sc[1],
            );
            sink.on_event(&TraceEvent::FoldStart {
                fold: folds,
                tag: folds,
                cycle: busy_trace.len() as u64,
                kind: dataflow.fold_kind(),
                rows_used: ru as u32,
                cols_used: cu as u32,
            });
            folds += 1;
            // A pinned B tile enters from the top, one array row per cycle.
            if !b_streams {
                for p in 0..ru {
                    let cycle = busy_trace.len() as u64;
                    if wants_ops {
                        for j in 0..cu {
                            sink.on_event(&TraceEvent::OperandRead {
                                cycle,
                                operand: Operand::Filter,
                                lane: j as u32,
                                addr: (bo + p * sb[0] + j * sb[1]) as u64,
                            });
                        }
                    }
                    fill_cycle(sink, &mut busy_trace, cycle);
                }
            }
            // A pinned A tile enters from the left, one array column per
            // cycle.
            if !a_streams {
                for p in 0..cu {
                    let cycle = busy_trace.len() as u64;
                    if wants_ops {
                        for i in 0..ru {
                            sink.on_event(&TraceEvent::OperandRead {
                                cycle,
                                operand: Operand::Ifmap,
                                lane: i as u32,
                                addr: (ao + i * sa[0] + p * sa[1]) as u64,
                            });
                        }
                    }
                    fill_cycle(sink, &mut busy_trace, cycle);
                }
            }
            // Skewed streaming window: PE (i, j) is busy when
            // 0 <= t - i - j < t_ext.
            let window = ru + cu + t_ext - 2;
            for t in 0..window {
                let cycle = busy_trace.len() as u64;
                let mut busy = 0u32;
                for i in 0..ru {
                    if t < i {
                        continue;
                    }
                    for j in 0..cu {
                        if t < i + j {
                            break;
                        }
                        let tt = t - i - j;
                        if tt < t_ext {
                            let ai = ao + i * sa[0] + j * sa[1] + tt * sa[2];
                            let bi = bo + i * sb[0] + j * sb[1] + tt * sb[2];
                            let ci = co + i * sc[0] + j * sc[1] + tt * sc[2];
                            out[ci] += av[ai] * bv[bi];
                            busy += 1;
                            if wants_pe {
                                sink.on_event(&TraceEvent::PeFire {
                                    cycle,
                                    row: i as u32,
                                    col: j as u32,
                                });
                            }
                            if wants_ops {
                                if a_streams {
                                    sink.on_event(&TraceEvent::OperandRead {
                                        cycle,
                                        operand: Operand::Ifmap,
                                        lane: i as u32,
                                        addr: ai as u64,
                                    });
                                }
                                if b_streams {
                                    sink.on_event(&TraceEvent::OperandRead {
                                        cycle,
                                        operand: Operand::Filter,
                                        lane: j as u32,
                                        addr: bi as u64,
                                    });
                                }
                                let exits = if exits_bottom {
                                    i == ru - 1
                                } else {
                                    j == cu - 1
                                };
                                if c_streams && exits {
                                    sink.on_event(&TraceEvent::OutputWrite {
                                        cycle,
                                        addr: ci as u64,
                                    });
                                }
                            }
                        }
                    }
                }
                sink.on_event(&TraceEvent::Cycle {
                    cycle,
                    phase: Phase::Compute,
                    busy,
                });
                busy_trace.push(busy);
                busy_pe_cycles += busy as u64;
            }
            // Pinned outputs drain down the columns: drain cycle d flushes
            // array row d.
            if !c_streams {
                for d in 0..ru {
                    let cycle = busy_trace.len() as u64;
                    if wants_ops {
                        for j in 0..cu {
                            sink.on_event(&TraceEvent::OutputWrite {
                                cycle,
                                addr: (co + d * sc[0] + j * sc[1]) as u64,
                            });
                        }
                    }
                    sink.on_event(&TraceEvent::Cycle {
                        cycle,
                        phase: Phase::Drain,
                        busy: 0,
                    });
                    busy_trace.push(0);
                }
            }
            sink.on_event(&TraceEvent::FoldEnd {
                fold: folds - 1,
                cycle: busy_trace.len() as u64,
            });
        }
    }
    let output = Tensor::from_vec(out, &[m, n]).expect("m, n nonzero");
    let macs = (m * k * n) as u64;
    SimResult::new(
        output,
        macs,
        busy_pe_cycles,
        cfg.pe_count(),
        folds,
        busy_trace,
    )
}

/// One preload cycle: no MACs.
fn fill_cycle(sink: &mut dyn TraceSink, busy_trace: &mut Vec<u32>, cycle: u64) {
    sink.on_event(&TraceEvent::Cycle {
        cycle,
        phase: Phase::Fill,
        busy: 0,
    });
    busy_trace.push(0);
}

/// Analytic total cycles for an `M×K·K×N` GEMM under `dataflow` — the
/// fold-by-fold loop the cycle simulator and the latency model's closed
/// form are validated against.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn analytic_cycles(cfg: &ArrayConfig, dataflow: Dataflow, m: usize, k: usize, n: usize) -> u64 {
    assert!(m > 0 && k > 0 && n > 0, "gemm dimensions must be nonzero");
    let [r_ext, c_ext, t_ext] = dataflow.split(m, k, n);
    let mut total = 0u64;
    for r0 in (0..r_ext).step_by(cfg.rows()) {
        let ru = cfg.rows().min(r_ext - r0);
        for c0 in (0..c_ext).step_by(cfg.cols()) {
            let cu = cfg.cols().min(c_ext - c0);
            total += fold_cycles(dataflow, ru, cu, t_ext);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseconv_tensor::gemm::matmul;
    use fuseconv_tensor::rng::Rng;
    use fuseconv_trace::{UtilizationSink, VecSink};

    const OS: Dataflow = Dataflow::OutputStationary;
    const WS: Dataflow = Dataflow::WeightStationary;
    const IS: Dataflow = Dataflow::InputStationary;

    fn tensor(dims: &[usize], f: impl FnMut(&[usize]) -> f32) -> Tensor {
        Tensor::from_fn(dims, f).unwrap()
    }

    #[test]
    fn single_fold_matches_golden_model() {
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let a = tensor(&[4, 5], |ix| (ix[0] * 5 + ix[1]) as f32 * 0.25 - 2.0);
        let b = tensor(&[5, 6], |ix| ((ix[0] + 2 * ix[1]) % 7) as f32 - 3.0);
        let sim = simulate(&cfg, OS, &a, &b).unwrap();
        let gold = matmul(&a, &b).unwrap();
        assert!(sim.output().max_abs_diff(&gold).unwrap() < 1e-5);
        assert_eq!(sim.folds(), 1);
        assert_eq!(sim.cycles(), fold_cycles(OS, 4, 6, 5));
    }

    #[test]
    fn multi_fold_matches_golden_model() {
        // 7x5·5x9 on 3x4: OS tiles ceil(7/3)=3 m-tiles x ceil(9/4)=3
        // n-tiles, WS ceil(5/3)=2 k-tiles x 3 n-tiles, IS 3 m-tiles x
        // ceil(5/4)=2 k-tiles.
        let cfg = ArrayConfig::new(3, 4).unwrap();
        let a = tensor(&[7, 5], |ix| ((ix[0] * 3 + ix[1]) % 5) as f32 - 1.5);
        let b = tensor(&[5, 9], |ix| ((ix[0] * 2 + ix[1]) % 3) as f32 * 0.5);
        let gold = matmul(&a, &b).unwrap();
        for (dataflow, folds) in [(OS, 9), (WS, 6), (IS, 6)] {
            let sim = simulate(&cfg, dataflow, &a, &b).unwrap();
            let diff = sim.output().max_abs_diff(&gold).unwrap();
            assert!(diff < 1e-5, "{dataflow:?}");
            assert_eq!(sim.folds(), folds, "{dataflow:?}");
            let analytic = analytic_cycles(&cfg, dataflow, 7, 5, 9);
            assert_eq!(sim.cycles(), analytic, "{dataflow:?}");
        }
    }

    #[test]
    fn macs_and_busy_accounting() {
        for dataflow in Dataflow::ALL {
            for (side, (m, k, n)) in [(2, (3, 4, 5)), (4, (6, 5, 3)), (4, (4, 6, 4))] {
                let cfg = ArrayConfig::square(side).unwrap();
                let a = tensor(&[m, k], |_| 1.0);
                let b = tensor(&[k, n], |_| 1.0);
                let sim = simulate(&cfg, dataflow, &a, &b).unwrap();
                let ctx = format!("{dataflow:?} {side}x{side} {m}x{k}x{n}");
                assert_eq!(sim.macs(), (m * k * n) as u64, "{ctx}");
                // Every MAC occupies exactly one PE-cycle.
                assert_eq!(sim.busy_pe_cycles(), sim.macs(), "{ctx}");
                let total: u64 = sim.busy_trace().iter().map(|&x| x as u64).sum();
                assert_eq!(total, sim.busy_pe_cycles(), "{ctx}");
                assert_eq!(sim.busy_trace().len() as u64, sim.cycles(), "{ctx}");
                // No cycle can have more busy PEs than exist.
                let max_busy = sim.busy_trace().iter().copied().max().unwrap();
                assert!(max_busy as usize <= cfg.pe_count(), "{ctx}");
            }
        }
    }

    #[test]
    fn single_column_gemm_uses_one_column() {
        // The depthwise/im2col case of §III-B: N = 1 ⇒ only one array
        // column is ever busy ⇒ utilization bounded by 1/cols.
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let a = tensor(&[8, 9], |_| 1.0);
        let b = tensor(&[9, 1], |_| 1.0);
        let sim = simulate(&cfg, OS, &a, &b).unwrap();
        let max_busy = sim.busy_trace().iter().copied().max().unwrap();
        assert!(max_busy as usize <= cfg.rows());
        assert!(sim.utilization() <= 1.0 / cfg.cols() as f64 + 1e-9);
    }

    #[test]
    fn bad_operands_rejected() {
        let cfg = ArrayConfig::new(4, 4).unwrap();
        let a = tensor(&[2, 3], |_| 0.0);
        let b = tensor(&[4, 2], |_| 0.0);
        let v = tensor(&[3], |_| 0.0);
        for dataflow in Dataflow::ALL {
            assert!(simulate(&cfg, dataflow, &a, &b).is_err(), "{dataflow:?}");
            assert!(simulate(&cfg, dataflow, &a, &v).is_err(), "{dataflow:?}");
        }
    }

    #[test]
    fn fold_formula_matches_scale_sim() {
        // 2*Sr + Sc + T - 2 with full array usage.
        assert_eq!(fold_cycles(OS, 32, 32, 100), 2 * 32 + 32 + 100 - 2);
        // Degenerate 1x1x1 fold: one compute cycle plus one drain cycle.
        assert_eq!(fold_cycles(OS, 1, 1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "must be nonzero")]
    fn fold_cycles_rejects_zero() {
        let _ = fold_cycles(OS, 0, 1, 1);
    }

    #[test]
    fn span_names_follow_the_mnemonics() {
        for dataflow in Dataflow::ALL {
            let want = format!("sim.gemm_{}", dataflow.mnemonic());
            assert_eq!(SPANS[dataflow as usize], want);
        }
    }

    /// Pins the full event sequence (order included) of a multi-fold GEMM
    /// under each dataflow, with PE-fire and operand events switched on:
    /// the SCALE-Sim CSV sink depends on that order, which the cycle,
    /// phase and address-set tests do not see.
    #[test]
    fn event_stream_is_pinned() {
        let cfg = ArrayConfig::new(3, 4).unwrap();
        let a = tensor(&[7, 5], |ix| (ix[0] * 5 + ix[1]) as f32);
        let b = tensor(&[5, 9], |ix| (ix[0] * 9 + ix[1]) as f32);
        let runs = [
            (OS, 0x14ac_df89_e81e_6498),
            (WS, 0xd0ec_be76_20a2_215c),
            (IS, 0xe822_9263_cd47_4db4),
        ];
        for (dataflow, want) in runs {
            let mut sink = VecSink::default();
            simulate_traced(&cfg, dataflow, &a, &b, &mut sink).unwrap();
            let text: String = sink.events.iter().map(|e| format!("{e:?}\n")).collect();
            let got = fuseconv_telemetry::fnv1a64(text.as_bytes());
            assert_eq!(got, want, "{dataflow:?}: {} events", sink.events.len());
        }
    }

    /// The cycle simulator computes exactly the golden GEMM, the analytic
    /// cycle count and each fold's table phases, under every dataflow,
    /// across a deterministic grid of shapes and array sizes (the former
    /// randomized property, now seeded and reproducible offline).
    #[test]
    fn simulator_matches_golden_analytic_and_phases_on_grid() {
        for (dataflow, seed) in [(OS, 0x6765_6d6d), (WS, 0x7773_6765), (IS, 0x6973_6765)] {
            let mut rng = Rng::seed_from_u64(seed);
            for &(rows, cols) in &[(1, 1), (2, 5), (4, 4), (5, 2), (3, 1)] {
                let cfg = ArrayConfig::new(rows, cols).unwrap();
                for &(m, k, n) in &[
                    (1, 1, 1),
                    (1, 7, 1),
                    (11, 1, 5),
                    (9, 1, 5),
                    (4, 5, 6),
                    (7, 5, 9),
                    (8, 9, 1),
                    (12, 11, 12),
                ] {
                    let a = Tensor::from_fn(&[m, k], |_| rng.uniform(-0.5, 0.5)).unwrap();
                    let b = Tensor::from_fn(&[k, n], |_| rng.uniform(-0.5, 0.5)).unwrap();
                    let mut sink = UtilizationSink::new(rows, cols);
                    let sim = simulate_traced(&cfg, dataflow, &a, &b, &mut sink).unwrap();
                    let gold = matmul(&a, &b).unwrap();
                    let ctx = format!("{dataflow:?} {rows}x{cols} array, {m}x{k}x{n}");
                    assert!(sim.output().max_abs_diff(&gold).unwrap() < 1e-4, "{ctx}");
                    let analytic = analytic_cycles(&cfg, dataflow, m, k, n);
                    assert_eq!(sim.cycles(), analytic, "{ctx}");
                    assert_eq!(sim.macs(), (m * k * n) as u64, "{ctx}");
                    assert_eq!(sim.busy_pe_cycles(), sim.macs(), "{ctx}");
                    assert_eq!(sink.fold_stats().len() as u64, sim.folds(), "{ctx}");
                    // Each fold's phases, read off its `FoldStart` and
                    // `Cycle` events, are the table's.
                    let t = dataflow.split(m, k, n)[2] as u64;
                    for f in sink.fold_stats() {
                        let (ru, cu) = (f.rows_used.into(), f.cols_used.into());
                        let traced = (f.fill, f.compute, f.drain);
                        let table = dataflow.fold_phases(ru, cu, t).unwrap();
                        let want = (table.fill, table.compute, table.drain);
                        assert_eq!(traced, want, "{ctx} fold {ru}x{cu}");
                    }
                }
            }
        }
    }

    #[test]
    fn temporal_dimension_is_m() {
        // Dual of the OS dataflow: for fixed array usage, WS cycles grow
        // with M, not K.
        let cfg = ArrayConfig::new(8, 8).unwrap();
        assert_eq!(fold_cycles(WS, 8, 8, 100), (8 + 100 + 8 + 8 - 2) as u64);
        let short = analytic_cycles(&cfg, WS, 10, 8, 8);
        let long = analytic_cycles(&cfg, WS, 100, 8, 8);
        assert!(long > short);
        // K beyond the array adds folds, each re-streaming A.
        let deep = analytic_cycles(&cfg, WS, 10, 16, 8);
        assert_eq!(deep, 2 * short);
    }

    #[test]
    fn temporal_dimension_is_n() {
        let cfg = ArrayConfig::new(8, 8).unwrap();
        assert_eq!(fold_cycles(IS, 8, 8, 100), (8 + 100 + 8 + 8 - 2) as u64);
        let narrow = analytic_cycles(&cfg, IS, 8, 8, 10);
        let wide = analytic_cycles(&cfg, IS, 8, 8, 100);
        assert!(wide > narrow);
    }

    #[test]
    fn ws_beats_os_for_tall_skinny_depthwise_gemm() {
        // The depthwise im2col shape (M large, K = 9, N = 1): WS keeps the
        // 9 weights resident and streams the pixels once, while OS refolds
        // every `rows` pixels.
        let cfg = ArrayConfig::new(64, 64).unwrap();
        let ws = analytic_cycles(&cfg, WS, 3136, 9, 1);
        let os = analytic_cycles(&cfg, OS, 3136, 9, 1);
        assert!(
            ws < os / 2,
            "weight-stationary {ws} should be well below output-stationary {os}"
        );
    }

    #[test]
    fn os_beats_ws_for_deep_reduction() {
        // Dual case: M small, K large (an FC layer, M = 1): OS keeps the
        // single output row resident; WS refolds over K.
        let cfg = ArrayConfig::new(64, 64).unwrap();
        let os = analytic_cycles(&cfg, OS, 1, 1024, 64);
        let ws = analytic_cycles(&cfg, WS, 1, 1024, 64);
        assert!(os < ws, "output-stationary {os} vs weight-stationary {ws}");
    }

    #[test]
    fn is_beats_os_and_ws_for_wide_outputs_with_small_inputs() {
        // M=8, K=8 fits in the array; N=1000 streams through once under
        // input-stationary, but refolds N/cols times under the others.
        let cfg = ArrayConfig::new(8, 8).unwrap();
        let is = analytic_cycles(&cfg, IS, 8, 8, 1000);
        let os = analytic_cycles(&cfg, OS, 8, 8, 1000);
        let ws = analytic_cycles(&cfg, WS, 8, 8, 1000);
        assert!(is < os, "input-stationary {is} vs output-stationary {os}");
        assert!(is < ws, "input-stationary {is} vs weight-stationary {ws}");
    }

    #[test]
    fn three_dataflows_agree_functionally() {
        let cfg = ArrayConfig::new(4, 3).unwrap();
        let a = tensor(&[6, 7], |ix| ((ix[0] + 2 * ix[1]) % 5) as f32 - 2.0);
        let b = tensor(&[7, 5], |ix| ((3 * ix[0] + ix[1]) % 4) as f32 * 0.3);
        let os = simulate(&cfg, OS, &a, &b).unwrap();
        let ws = simulate(&cfg, WS, &a, &b).unwrap();
        let is = simulate(&cfg, IS, &a, &b).unwrap();
        assert!(os.output().max_abs_diff(ws.output()).unwrap() < 1e-5);
        assert!(os.output().max_abs_diff(is.output()).unwrap() < 1e-5);
    }
}
