//! Ablation A2: slots per GPU on a heterogeneous-cost workload (the §3.1
//! motivation for slots: with one slot, one slow work item idles the whole
//! device; with more slots, the device keeps several requests in flight).
//!
//! `cargo run -p dcgn_bench --bin ablation_slots --release`

use dcgn::CostModel;
use dcgn_apps::mandelbrot::{run_dcgn_gpu, MandelbrotParams};

fn main() {
    // A deep-zoom Mandelbrot has wildly uneven strip costs.
    let params = MandelbrotParams {
        width: 128,
        height: 128,
        max_iter: 3000,
        strip_rows: 8,
        ..MandelbrotParams::default()
    };
    let cost = CostModel::fast();
    println!(
        "# Ablation: slots per GPU on a heterogeneous Mandelbrot (max_iter = {})",
        params.max_iter
    );
    println!(
        "{:>12}{:>10}{:>14}{:>16}",
        "slots/GPU", "workers", "time (ms)", "Mpixels/s"
    );
    for slots in [1usize, 2, 4] {
        let run = run_dcgn_gpu(params, 2, 1, slots, cost).expect("run");
        println!(
            "{:>12}{:>10}{:>14.1}{:>16.2}",
            slots,
            run.workers,
            run.elapsed.as_secs_f64() * 1e3,
            run.pixels_per_sec / 1e6
        );
    }
    println!();
    println!("# Expected shape: more slots per GPU improve load balance for uneven work");
    println!("# until the per-slot communication overhead dominates (the paper's map-reduce");
    println!("# example in §3.1).");
}
