//! Figure 7: broadcast time vs. payload size for eight DCGN ranks (all CPU
//! or all GPU) against the raw-MPI baseline with eight ranks.  Each figure
//! is the median of `iters` broadcasts timed one by one at the root, so one
//! descheduled broadcast cannot move a row.
//!
//! `cargo run -p dcgn_bench --bin fig7_broadcast --release`

use dcgn::CostModel;
use dcgn_bench::{
    dcgn_broadcast_time, format_duration, format_size, mpi_broadcast_time, EndpointKind,
};

fn main() {
    let cost = CostModel::g92_cluster();
    let iters = 2000;
    let sizes = [1usize << 10, 8 << 10, 64 << 10, 512 << 10];

    println!("# Figure 7: Broadcast timings with and without DCGN (8 ranks, 4 nodes)");
    println!(
        "{:>10}{:>18}{:>18}{:>22}",
        "size", "DCGN 8 CPUs", "DCGN 8 GPUs", "MVAPICH2 8 CPUs (rmpi)"
    );
    for &size in &sizes {
        let cpu = dcgn_broadcast_time(size, EndpointKind::Cpu, cost, iters);
        let gpu = dcgn_broadcast_time(size, EndpointKind::Gpu, cost, iters);
        let mpi = mpi_broadcast_time(size, cost, iters);
        println!(
            "{:>10}{:>18}{:>18}{:>22}",
            format_size(size),
            format_duration(cpu),
            format_duration(gpu),
            format_duration(mpi)
        );
    }
    println!();
    println!("# Expected shape (paper): DCGN-CPU broadcasts are competitive with (and for");
    println!("# small/medium sizes faster than) MPI because the node-level broadcast runs");
    println!("# with half as many participating MPI ranks; DCGN-GPU broadcasts are slower");
    println!("# because of the two PCI-e trips per GPU participant.");
}
