//! Ablation A1: the latency / host-CPU-load trade-off of the sleep-based
//! polling interval (§3.2.3 of the paper discusses exactly this tension).
//!
//! `cargo run -p dcgn-bench --bin ablation_polling --release`

use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DevicePtr, GpuCtx, LaunchReport, Runtime};
use dcgn_simtime::Clock;

/// Ping-pong `iters` round trips between two single-slot GPUs, returning the
/// average one-way latency and the launch report.
fn gpu_pingpong(cost: CostModel, iters: u32) -> (Duration, LaunchReport) {
    let config = DcgnConfig::homogeneous(2, 0, 1, 1).with_cost(cost);
    let runtime = Runtime::new(config).expect("config");
    let measured = std::sync::Arc::new(parking_lot::Mutex::new(Duration::ZERO));
    let m = std::sync::Arc::clone(&measured);
    let clock = Clock::from(cost);
    let report = runtime
        .launch_gpu_only(move |ctx: &GpuCtx| {
            if ctx.block().block_id() != 0 {
                return;
            }
            const SLOT: usize = 0;
            let me = ctx.rank(SLOT);
            let buf = DevicePtr::NULL.add(32 * 1024);
            ctx.block().write(buf, &[1u8; 64]);
            ctx.barrier(SLOT);
            let start = clock.now();
            for _ in 0..iters {
                if me == 0 {
                    ctx.send(SLOT, 1, buf, 64);
                    ctx.recv(SLOT, 1, buf, 64);
                } else {
                    ctx.recv(SLOT, 0, buf, 64);
                    ctx.send(SLOT, 0, buf, 64);
                }
            }
            if me == 0 {
                *m.lock() = clock.elapsed(start) / (2 * iters);
            }
            ctx.barrier(SLOT);
        })
        .expect("launch");
    let latency = *measured.lock();
    (latency, report)
}

fn mean_busy(report: &LaunchReport) -> f64 {
    report
        .gpu_poll_stats
        .iter()
        .map(|s| s.busy_fraction())
        .sum::<f64>()
        / report.gpu_poll_stats.len().max(1) as f64
}

fn main() {
    println!("# Ablation: GPU-GPU message latency and GPU-thread busy fraction vs poll interval");
    println!(
        "{:>14}{:>18}{:>16}{:>12}{:>14}",
        "poll interval", "GPU:GPU latency", "busy fraction", "polls", "mailbox reads"
    );
    for poll_us in [25u64, 50, 100, 200, 400, 800] {
        let cost = CostModel::g92_scaled(4.0).with_poll_interval(Duration::from_micros(poll_us));
        let (latency, report) = gpu_pingpong(cost, 10);
        let polls: u64 = report.gpu_poll_stats.iter().map(|s| s.polls).sum();
        let mailbox_reads: u64 = report.gpu_poll_stats.iter().map(|s| s.mailbox_reads).sum();
        println!(
            "{:>11} µs{:>15.0} µs{:>15.1}%{:>12}{:>14}",
            poll_us,
            latency.as_secs_f64() * 1e6,
            mean_busy(&report) * 100.0,
            polls,
            mailbox_reads
        );
    }
    println!();
    println!("# Expected shape: shorter intervals cut message latency but raise the host's");
    println!("# polling load (more sweeps, higher busy fraction) — the trade-off the paper");
    println!("# identifies as inherent to CPU-mediated GPU communication.  Each sweep is");
    println!("# one read of the mailbox records regardless of slot count (mailbox reads ≈");
    println!("# polls, fewer while every slot waits on a blocking call).");
}
