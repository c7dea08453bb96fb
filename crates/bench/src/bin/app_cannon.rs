//! §5.1 "Matrix Multiplication": parallel efficiency of Cannon's algorithm
//! under DCGN vs. GAS+MPI with four GPU ranks (paper: 71% vs 74% at
//! 1024×1024).
//!
//! `cargo run -p dcgn_bench --bin app_cannon --release`

use dcgn::CostModel;
use dcgn_apps::cannon::{matmul_reference, run_dcgn_gpu, run_gas};
use dcgn_simtime::Clock;

fn main() {
    let n = 192;
    let p = 4;
    let nodes = 2;
    let cost = CostModel::fast();

    // Sequential single-worker baseline for the efficiency denominator.
    let clock = Clock::from(cost);
    let start = clock.now();
    let _reference = matmul_reference(n);
    let t1 = clock.elapsed(start);

    let dcgn = run_dcgn_gpu(n, p, nodes, cost).expect("dcgn cannon");
    let gas = run_gas(n, p, nodes, cost);
    assert!(dcgn.max_error() < 1e-3);
    assert!(gas.max_error() < 1e-3);

    println!("# §5.1 Cannon matrix multiplication ({n}x{n}, {p} GPU ranks over {nodes} nodes)");
    println!(
        "{:<12}{:>14}{:>12}{:>12}",
        "variant", "time (ms)", "speedup", "efficiency"
    );
    println!(
        "{:<12}{:>14.1}{:>12.2}{:>11.0}%",
        "sequential",
        t1.as_secs_f64() * 1e3,
        1.0,
        100.0 / p as f64
    );
    for (name, t) in [("GAS+MPI", gas.elapsed), ("DCGN", dcgn.elapsed)] {
        let s = t1.as_secs_f64() / t.as_secs_f64();
        println!(
            "{:<12}{:>14.1}{:>12.2}{:>11.0}%",
            name,
            t.as_secs_f64() * 1e3,
            s,
            100.0 * s / p as f64
        );
    }
    println!();
    println!("# Expected shape (paper): DCGN efficiency within a few points of GAS (71% vs");
    println!("# 74%); the combined sendrecv_replace keeps DCGN from paying two polling");
    println!("# round trips per rotation.");
}
