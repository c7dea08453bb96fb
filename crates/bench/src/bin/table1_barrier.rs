//! Table 1: barrier timings for CPUs and GPUs under DCGN, with the ratio to
//! a raw-MPI barrier over DCGN's world size: every row's MPI barrier runs
//! `cpus + gpus` ranks per node, one per DCGN rank.  Each figure is the
//! median of `iters` barriers timed one by one, so one descheduled barrier
//! cannot move a row.  DCGN joins each node's ranks locally and exchanges
//! over the nodes, while the MPI barrier runs over every rank, so each row
//! names the plan each side ran (from `select_plan`).
//!
//! `cargo run -p dcgn_bench --bin table1_barrier --release`

use dcgn::CostModel;
use dcgn_bench::{dcgn_barrier_time, format_duration, mpi_barrier_time};
use dcgn_rmpi::exchange::{select_plan, CollectiveId, CollectiveKind, COLLECTIVE_ID_BYTES};

/// The plan a barrier over `n` participants runs, as `plan/n`.
fn barrier_plan(n: usize) -> String {
    let id = CollectiveId {
        kind: CollectiveKind::Barrier,
        root: None,
        reduction: None,
    };
    format!(
        "{}/{n}",
        select_plan(None, id, COLLECTIVE_ID_BYTES, n).name()
    )
}

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
        "{:>6} {:>18} {:>20} {:>14} {:>14} {:>10}",
        "nodes", "configuration", "plans (DCGN · MPI)", "MPI (CPU)", "DCGN", "ratio"
    );
    for &(nodes, cpus, gpus) in &configs {
        let mpi = mpi_barrier_time(nodes, cpus + gpus, cost, iters);
        let dcgn = dcgn_barrier_time(nodes, cpus, gpus, cost, iters);
        let ratio = dcgn.as_secs_f64() / mpi.as_secs_f64();
        let plans = format!(
            "{} · {}",
            barrier_plan(nodes),
            barrier_plan(nodes * (cpus + gpus))
        );
        println!(
            "{:>6} {:>18} {:>20} {:>14} {:>14} {:>9.2}x",
            nodes,
            format!("{} CPUs/{} GPUs", cpus * nodes, gpus * nodes),
            plans,
            format_duration(mpi),
            format_duration(dcgn),
            ratio
        );
    }
    println!();
    println!("# Expected shape: CPU-only rows run ~1-1.5x the MPI barrier and rows");
    println!("# with GPUs ~1.2-8x, most on one node, where a slot's mailbox round");
    println!("# trip dominates a data-free collective (the paper reports ~7-13x");
    println!("# CPU-only, ~100-150x with GPUs).  Multi-node ratios shrink since DCGN");
    println!("# joins each node's ranks locally and runs its plan over the nodes (the");
    println!("# star up to 4 nodes), while the MPI barrier runs over every rank: from 5");
    println!("# ranks up that is a tree, so those rows compare two plan shapes (the");
    println!("# plans column), not one plan.");
}
