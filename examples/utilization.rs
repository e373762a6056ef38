//! Cycle-level utilization demo (§III-B vs §IV-C-3): run the same
//! depthwise workload through the im2col single-column mapping and the
//! FuSeConv broadcast mapping on the cycle-accurate simulator, and show
//! per-cycle busy-PE traces.
//!
//! ```text
//! cargo run --example utilization
//! ```

use fuseconv::latency::Dataflow;
use fuseconv::systolic::{conv1d, gemm, ArrayConfig};
use fuseconv::tensor::Tensor;

fn sparkline(trace: &[u32], peak: u32, width: usize) -> String {
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let chunk = trace.len().div_ceil(width).max(1);
    trace
        .chunks(chunk)
        .map(|c| {
            let avg = c.iter().map(|&b| b as f64).sum::<f64>() / c.len() as f64;
            let idx = (avg / peak as f64 * 8.0).round() as usize;
            LEVELS[idx.min(8)]
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Workload: 16 channels of a 3-tap 1-D filtering over 16 output
    // positions each — the inner loop of a depthwise 3x3 layer, reduced to
    // one spatial dimension for visualization.
    let array = ArrayConfig::square(16)?.with_broadcast(true);

    // Mapping 1: im2col → per-channel single-column GEMM (the §III-B
    // pathology). Each channel is a 16x9 patch matrix times a 9x1 kernel.
    let mut im2col_total: Option<fuseconv::systolic::SimResult> = None;
    for _ in 0..16 {
        let patches = Tensor::full(&[16, 9], 1.0)?;
        let kernel = Tensor::full(&[9, 1], 0.5)?;
        let r = gemm::simulate(&array, Dataflow::OutputStationary, &patches, &kernel)?;
        im2col_total = Some(match im2col_total.take() {
            None => r,
            Some(acc) => acc.then(r),
        });
    }
    let im2col = im2col_total.expect("16 channels simulated");

    // Mapping 2: the FuSeConv broadcast dataflow, all 16 channels packed.
    let work: Vec<conv1d::ChannelLines> = (0..16)
        .map(|ch| conv1d::ChannelLines {
            kernel: vec![0.5, 1.0, 0.5],
            lines: vec![(0..18).map(|x| ((ch + x) % 5) as f32).collect()],
        })
        .collect();
    let fuse = conv1d::simulate_packed(&array, &work)?;

    let peak = array.pe_count() as u32;
    println!("array: {array}\n");
    println!(
        "im2col single-column mapping: {} cycles, utilization {:>5.1}%",
        im2col.cycles(),
        im2col.utilization() * 100.0
    );
    println!(
        "  busy PEs/cycle: {}",
        sparkline(im2col.busy_trace(), peak, 72)
    );
    println!(
        "\nfuse broadcast mapping:       {} cycles, utilization {:>5.1}%",
        fuse.cycles(),
        fuse.utilization() * 100.0
    );
    println!(
        "  busy PEs/cycle: {}",
        sparkline(fuse.busy_trace(), peak, 72)
    );
    println!(
        "\nspeed-up on identical work: {:.1}x",
        im2col.cycles() as f64 / fuse.cycles() as f64
    );
    Ok(())
}
