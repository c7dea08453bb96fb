//! §5.1 "N-body": parallel efficiency vs. problem size with eight GPU ranks
//! (paper: 28% at 4k bodies, 64% at 16k, >90% at 32k; DCGN ≈ GAS).
//!
//! `cargo run -p dcgn_bench --bin app_nbody --release`

use dcgn::CostModel;
use dcgn_apps::nbody::{run_dcgn_gpu, run_gas};

fn main() {
    let steps = 2;
    let workers = 8;
    let nodes = 4;
    let cost = CostModel::fast();
    // Paper sizes are 4k/16k/32k bodies; the simulated cluster uses smaller
    // sizes with the same growth pattern so the sweep completes quickly.
    let sizes = [512usize, 2048, 4096];

    println!("# §5.1 N-body: efficiency vs problem size ({workers} GPU ranks, {steps} steps)");
    println!(
        "{:<10}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "bodies", "1 GPU (ms)", "DCGN (ms)", "DCGN eff", "GAS (ms)", "GAS eff"
    );
    for &n in &sizes {
        let single = run_gas(n, 1, 1, steps, cost);
        let dcgn = run_dcgn_gpu(n, workers, nodes, steps, cost).expect("dcgn nbody");
        let gas = run_gas(n, workers, nodes, steps, cost);
        let eff = |t: std::time::Duration| {
            100.0 * single.elapsed.as_secs_f64() / t.as_secs_f64() / workers as f64
        };
        println!(
            "{:<10}{:>14.1}{:>14.1}{:>13.0}%{:>14.1}{:>13.0}%",
            n,
            single.elapsed.as_secs_f64() * 1e3,
            dcgn.elapsed.as_secs_f64() * 1e3,
            eff(dcgn.elapsed),
            gas.elapsed.as_secs_f64() * 1e3,
            eff(gas.elapsed)
        );
    }
    println!();
    println!("# Expected shape (paper): efficiency rises steeply with problem size as the");
    println!("# O(N^2/P) computation outgrows the O(N) broadcast per step, and DCGN tracks");
    println!("# GAS closely because the collective cost dominates DCGN's extra overhead.");
}
