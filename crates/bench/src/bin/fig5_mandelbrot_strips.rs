//! Figure 5: two runs of the Mandelbrot generator with eight DCGN worker
//! ranks and identical parameters, showing the per-strip work distribution
//! produced by the dynamic work queue.
//!
//! `cargo run -p dcgn_bench --bin fig5_mandelbrot_strips --release`

use dcgn::CostModel;
use dcgn_apps::mandelbrot::{run_dcgn_gpu, MandelbrotParams};

fn main() {
    let params = MandelbrotParams {
        width: 128,
        height: 128,
        max_iter: 512,
        strip_rows: 8,
        ..MandelbrotParams::default()
    };
    let cost = CostModel::fast();
    println!("# Figure 5: strip ownership across two identical runs (8 GPU worker ranks)");
    println!(
        "# strips: {} of {} rows each",
        params.num_strips(),
        params.strip_rows
    );
    for run_idx in 1..=2 {
        let run = run_dcgn_gpu(params, 4, 2, 1, cost).expect("mandelbrot run");
        println!(
            "run {run_idx}: elapsed {:.1} ms, {:.2} Mpixels/s",
            run.elapsed.as_secs_f64() * 1e3,
            run.pixels_per_sec / 1e6
        );
        print!("run {run_idx} strip owners: ");
        for owner in &run.strip_owner {
            print!("{owner:>3}");
        }
        println!();
        // Histogram of strips per worker.
        let mut counts = std::collections::BTreeMap::new();
        for &o in &run.strip_owner {
            *counts.entry(o).or_insert(0usize) += 1;
        }
        println!("run {run_idx} strips per rank: {counts:?}");
    }
    println!();
    println!("# Expected shape (paper): the assignment differs between runs because strip");
    println!("# completion order depends on device and network latency, not a static plan.");
}
