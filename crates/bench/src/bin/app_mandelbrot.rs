//! §5.1 "Mandelbrot": throughput, speedup and parallel efficiency of the
//! DCGN dynamic-work-queue generator vs. the GAS+MPI static partition, with
//! eight GPU worker ranks (paper: DCGN 2.72x / 34%, GAS 3.08x / 38%).
//!
//! `cargo run -p dcgn_bench --bin app_mandelbrot --release`

use dcgn::CostModel;
use dcgn_apps::mandelbrot::{run_dcgn_gpu, run_gas, MandelbrotParams};

fn main() {
    let params = MandelbrotParams {
        width: 192,
        height: 192,
        max_iter: 768,
        strip_rows: 12,
        ..MandelbrotParams::default()
    };
    let cost = CostModel::fast();
    let workers = 8;

    // Single-worker baselines define the speedup denominator.
    let single = run_gas(params, 1, 1, cost);
    let dcgn = run_dcgn_gpu(params, 4, 2, 1, cost).expect("dcgn run");
    let gas = run_gas(params, workers, 4, cost);

    let speedup = |t: std::time::Duration| single.elapsed.as_secs_f64() / t.as_secs_f64();
    println!("# §5.1 Mandelbrot (8 GPU workers, dynamic strips vs static partition)");
    println!(
        "{:<12}{:>16}{:>14}{:>12}{:>12}",
        "variant", "Mpixels/s", "time (ms)", "speedup", "efficiency"
    );
    println!(
        "{:<12}{:>16.2}{:>14.1}{:>12.2}{:>11.0}%",
        "single GPU",
        single.pixels_per_sec / 1e6,
        single.elapsed.as_secs_f64() * 1e3,
        1.0,
        100.0 / workers as f64
    );
    for (name, run) in [("GAS+MPI", &gas), ("DCGN", &dcgn)] {
        let s = speedup(run.elapsed);
        println!(
            "{:<12}{:>16.2}{:>14.1}{:>12.2}{:>11.0}%",
            name,
            run.pixels_per_sec / 1e6,
            run.elapsed.as_secs_f64() * 1e3,
            s,
            100.0 * s / workers as f64
        );
    }
    println!();
    println!("# Expected shape (paper): both variants are communication-bound (efficiency");
    println!("# well below 100%); DCGN lands within ~10-15% of GAS because of its higher");
    println!("# per-message overhead (polling + work-queue hops).");
}
