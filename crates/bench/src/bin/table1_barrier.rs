//! Table 1: barrier timings for CPUs and GPUs under DCGN, with the ratio to
//! a raw-MPI barrier over DCGN's world size: every row's MPI barrier runs
//! `cpus + gpus` ranks per node, one per DCGN rank.  Each figure is the
//! median of `iters` barriers timed one by one, so one descheduled barrier
//! cannot move a row.
//!
//! `cargo run -p dcgn_bench --bin table1_barrier --release`

use dcgn::CostModel;
use dcgn_bench::{dcgn_barrier_time, format_duration, mpi_barrier_time};

fn main() {
    let cost = CostModel::g92_cluster();
    let iters = 5000;

    // (nodes, cpus/node, gpus/node) — the configurations of Table 1.
    let configs = [
        (1usize, 2usize, 0usize),
        (1, 0, 2),
        (1, 1, 1),
        (1, 2, 2),
        (2, 2, 0),
        (2, 0, 2),
        (2, 2, 2),
        (4, 2, 0),
        (4, 0, 2),
        (4, 2, 2),
    ];

    println!("# Table 1: Barrier timings for CPUs and GPUs");
    println!("# MPI runs one rank per DCGN rank: (CPUs + GPUs) per node.");
    println!(
        "{:>6} {:>18} {:>14} {:>14} {:>10}",
        "nodes", "configuration", "MPI (CPU)", "DCGN", "ratio"
    );
    for &(nodes, cpus, gpus) in &configs {
        let mpi = mpi_barrier_time(nodes, cpus + gpus, cost, iters);
        let dcgn = dcgn_barrier_time(nodes, cpus, gpus, cost, iters);
        let ratio = dcgn.as_secs_f64() / mpi.as_secs_f64();
        println!(
            "{:>6} {:>18} {:>14} {:>14} {:>9.2}x",
            nodes,
            format!("{} CPUs/{} GPUs", cpus * nodes, gpus * nodes),
            format_duration(mpi),
            format_duration(dcgn),
            ratio
        );
    }
    println!();
    println!("# Expected shape: CPU-only rows run ~1-1.5x the MPI barrier and rows");
    println!("# with GPUs ~1.2-8x, most on one node, where a slot's mailbox round");
    println!("# trip dominates a data-free collective (the paper reports ~7-13x");
    println!("# CPU-only, ~100-150x with GPUs).  Multi-node ratios shrink since world");
    println!("# collectives ride the async star exchange: one up/down frame pair per");
    println!("# node, the plan the MPI barrier runs too.");
}
