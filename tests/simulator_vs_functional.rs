//! Cross-crate functional equivalence: the cycle-level systolic simulator
//! must compute exactly what the reference layer library computes, for
//! every mapping the latency model uses.

use fuseconv::latency::Dataflow;
use fuseconv::nn::conv::{conv2d, depthwise2d, pointwise, Conv2dSpec};
use fuseconv::nn::{FuSeConv, FuSeVariant};
use fuseconv::systolic::{conv1d, gemm, ArrayConfig};
use fuseconv::tensor::im2col::{im2col, ConvGeometry};
use fuseconv::tensor::Tensor;

fn pseudo(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
    Tensor::from_fn(dims, |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
    })
    .unwrap()
}

/// Standard convolution through im2col + the simulated GEMM equals the
/// direct functional conv2d.
#[test]
fn standard_conv_on_array_matches_functional() {
    let (c_in, c_out, h, w, k) = (3usize, 4usize, 6usize, 7usize, 3usize);
    let input = pseudo(&[c_in, h, w], 1);
    let weight = pseudo(&[c_out, c_in, k, k], 2);
    let spec = Conv2dSpec::square(k, 1, 1).unwrap();
    let functional = conv2d(&input, &weight, &spec).unwrap();

    // Lower to GEMM: patches [oh*ow, k*k*c] × filters [k*k*c, c_out].
    let geom = ConvGeometry::new(h, w, k, k, 1, 1).unwrap();
    let patches = im2col(&input, &geom).unwrap();
    // Reorder weight [O, C, kh, kw] → [C·kh·kw, O] with channel-major rows
    // to match im2col's patch layout.
    let filt = Tensor::from_fn(&[c_in * k * k, c_out], |ix| {
        let (row, o) = (ix[0], ix[1]);
        let ch = row / (k * k);
        let kk = row % (k * k);
        weight.get(&[o, ch, kk / k, kk % k]).unwrap()
    })
    .unwrap();
    let array = ArrayConfig::new(5, 6).unwrap();
    let sim = gemm::simulate(&array, Dataflow::OutputStationary, &patches, &filt).unwrap();

    // sim output is [oh*ow, c_out]; functional is [c_out, oh, ow].
    let (oh, ow) = (geom.out_h(), geom.out_w());
    for o in 0..c_out {
        for y in 0..oh {
            for x in 0..ow {
                let a = sim.output().get(&[y * ow + x, o]).unwrap();
                let b = functional.get(&[o, y, x]).unwrap();
                assert!((a - b).abs() < 1e-4, "o={o} y={y} x={x}: {a} vs {b}");
            }
        }
    }
}

/// Depthwise convolution as C single-column GEMMs equals the functional
/// depthwise2d — the §III-B mapping, bit for bit.
#[test]
fn depthwise_on_array_matches_functional() {
    let (c, h, w, k) = (4usize, 5usize, 5usize, 3usize);
    let input = pseudo(&[c, h, w], 3);
    let weight = pseudo(&[c, k, k], 4);
    let spec = Conv2dSpec::square(k, 1, 1).unwrap();
    let functional = depthwise2d(&input, &weight, &spec).unwrap();

    let geom = ConvGeometry::new(h, w, k, k, 1, 1).unwrap();
    let array = ArrayConfig::new(4, 4).unwrap();
    let (oh, ow) = (geom.out_h(), geom.out_w());
    for ch in 0..c {
        let chan =
            Tensor::from_fn(&[1, h, w], |ix| input.get(&[ch, ix[1], ix[2]]).unwrap()).unwrap();
        let patches = im2col(&chan, &geom).unwrap();
        let kcol = Tensor::from_fn(&[k * k, 1], |ix| {
            weight.get(&[ch, ix[0] / k, ix[0] % k]).unwrap()
        })
        .unwrap();
        let sim = gemm::simulate(&array, Dataflow::OutputStationary, &patches, &kcol).unwrap();
        for y in 0..oh {
            for x in 0..ow {
                let a = sim.output().get(&[y * ow + x, 0]).unwrap();
                let b = functional.get(&[ch, y, x]).unwrap();
                assert!((a - b).abs() < 1e-4);
            }
        }
        // Single-column GEMM can never use more than one PE column.
        let max_busy = sim.busy_trace().iter().copied().max().unwrap();
        assert!(max_busy as usize <= array.rows());
    }
}

/// The FuSeConv layer's row bank, run through the broadcast-dataflow
/// simulator with padded line inputs, equals the functional layer output.
#[test]
fn fuse_row_bank_on_array_matches_functional() {
    let (c, h, w, k) = (3usize, 4usize, 6usize, 3usize);
    let input = pseudo(&[c, h, w], 5);
    let row_w = pseudo(&[c, 1, k], 6);
    let col_w = pseudo(&[c, k, 1], 7);
    let layer = FuSeConv::new(FuSeVariant::Full, c, k, 1, row_w.clone(), col_w).unwrap();
    let functional = layer.forward(&input).unwrap();

    // Row bank on the array: each channel contributes h padded lines.
    let pad = k / 2;
    let work: Vec<conv1d::ChannelLines> = (0..c)
        .map(|ch| conv1d::ChannelLines {
            kernel: (0..k).map(|t| row_w.get(&[ch, 0, t]).unwrap()).collect(),
            lines: (0..h)
                .map(|y| {
                    let mut line = vec![0.0f32; w + 2 * pad];
                    for x in 0..w {
                        line[pad + x] = input.get(&[ch, y, x]).unwrap();
                    }
                    line
                })
                .collect(),
        })
        .collect();
    let array = ArrayConfig::new(4, 8).unwrap().with_broadcast(true);
    let sim = conv1d::simulate_packed(&array, &work).unwrap();

    // Simulator output row (ch*h + y) equals functional channel ch, row y
    // (the Full variant's first c channels are the row bank).
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let a = sim.output().get(&[ch * h + y, x]).unwrap();
                let b = functional.get(&[ch, y, x]).unwrap();
                assert!((a - b).abs() < 1e-4, "ch={ch} y={y} x={x}");
            }
        }
    }
}

/// Pointwise convolution as a channel GEMM on the array equals the
/// functional pointwise.
#[test]
fn pointwise_on_array_matches_functional() {
    let (c_in, c_out, h, w) = (5usize, 3usize, 4usize, 4usize);
    let input = pseudo(&[c_in, h, w], 8);
    let weight = pseudo(&[c_out, c_in], 9);
    let functional = pointwise(&input, &weight).unwrap();

    // GEMM: pixels × channels times channels × filters.
    let pixels = Tensor::from_fn(&[h * w, c_in], |ix| {
        input.get(&[ix[1], ix[0] / w, ix[0] % w]).unwrap()
    })
    .unwrap();
    let filt = Tensor::from_fn(&[c_in, c_out], |ix| weight.get(&[ix[1], ix[0]]).unwrap()).unwrap();
    let array = ArrayConfig::new(6, 2).unwrap();
    let sim = gemm::simulate(&array, Dataflow::OutputStationary, &pixels, &filt).unwrap();
    for o in 0..c_out {
        for p in 0..h * w {
            let a = sim.output().get(&[p, o]).unwrap();
            let b = functional.get(&[o, p / w, p % w]).unwrap();
            assert!((a - b).abs() < 1e-4);
        }
    }
}
