//! Figure 6: point-to-point send time vs. message size for DCGN
//! (CPU:CPU, CPU:GPU, GPU:CPU, GPU:GPU) against the raw-MPI baseline, plus
//! the §5.2 ratio table (0-byte and 1 MB messages).
//!
//! `cargo run -p dcgn_bench --bin fig6_send --release`

use dcgn::CostModel;
use dcgn_bench::{dcgn_send_time, format_duration, format_size, mpi_send_time, EndpointKind};

fn main() {
    let cost = CostModel::g92_cluster();
    let iters = 6;
    let sizes = [0usize, 1 << 10, 64 << 10, 256 << 10, 1 << 20];
    let pairs = [
        (EndpointKind::Gpu, EndpointKind::Gpu),
        (EndpointKind::Gpu, EndpointKind::Cpu),
        (EndpointKind::Cpu, EndpointKind::Gpu),
        (EndpointKind::Cpu, EndpointKind::Cpu),
    ];

    println!("# Figure 6: Sends for CPUs and GPUs with and without DCGN");
    println!("# (time per one-way message, G92-cluster cost model)");
    print!("{:>10}", "size");
    for (a, b) in &pairs {
        print!("{:>18}", format!("DCGN {}:{}", a.label(), b.label()));
    }
    println!("{:>18}", "MVAPICH2 (rmpi)");

    let mut zero_byte = Vec::new();
    let mut one_mb = Vec::new();
    for &size in &sizes {
        print!("{:>10}", format_size(size));
        let mut row = Vec::new();
        for &(a, b) in &pairs {
            let t = dcgn_send_time(size, a, b, cost, iters);
            row.push(t);
            print!("{:>18}", format_duration(t));
        }
        let mpi = mpi_send_time(size, cost, iters);
        println!("{:>18}", format_duration(mpi));
        if size == 0 {
            zero_byte = row.clone();
            zero_byte.push(mpi);
        }
        if size == 1 << 20 {
            one_mb = row.clone();
            one_mb.push(mpi);
        }
    }

    println!();
    println!("# §5.2 ratios vs MVAPICH2 (paper: 0 B CPU-CPU ≈ 28x, 0 B GPU-GPU ≈ 564x,");
    println!("#                          1 MB CPU-CPU ≈ 1.04x, 1 MB GPU-GPU ≈ 1.5x)");
    let ratio =
        |row: &[std::time::Duration], idx: usize| row[idx].as_secs_f64() / row[4].as_secs_f64();
    if !zero_byte.is_empty() {
        println!("0 B   GPU:GPU / MPI = {:6.1}x", ratio(&zero_byte, 0));
        println!("0 B   CPU:CPU / MPI = {:6.1}x", ratio(&zero_byte, 3));
    }
    if !one_mb.is_empty() {
        println!("1 MB  GPU:GPU / MPI = {:6.2}x", ratio(&one_mb, 0));
        println!("1 MB  CPU:CPU / MPI = {:6.2}x", ratio(&one_mb, 3));
    }
}
