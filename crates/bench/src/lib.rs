//! Measurement harness behind the report binaries (`src/bin/`), which print
//! the paper-formatted Figure 6 (sends), Figure 7 (broadcasts) and Table 1
//! (barriers), plus the application-level measurements of §5.1.  The
//! repository benchmark (`benchmark/`) is the yardstick a change is judged
//! by; these binaries print the paper's shapes as DCGN:MPI tables.
//!
//! All timings are measured *inside* the participating kernels (after a
//! warm-up barrier), so job launch and teardown costs are excluded — the same
//! methodology as the paper's micro-benchmarks.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DevicePtr, NodeConfig, Runtime};
use dcgn_rmpi::{MpiWorld, RankPlacement};
use dcgn_simtime::Clock;

/// Which kind of DCGN rank an endpoint of a micro-benchmark is backed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// A CPU-kernel thread.
    Cpu,
    /// A single-slot GPU.
    Gpu,
}

impl EndpointKind {
    /// Short label used in report tables ("CPU" / "GPU").
    pub fn label(&self) -> &'static str {
        match self {
            EndpointKind::Cpu => "CPU",
            EndpointKind::Gpu => "GPU",
        }
    }

    fn node_config(&self) -> NodeConfig {
        match self {
            EndpointKind::Cpu => NodeConfig::new(1, 0, 0),
            EndpointKind::Gpu => NodeConfig::new(0, 1, 1),
        }
    }
}

/// Human-readable data size ("0 B", "64 kB", "1 MB").
pub fn format_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} kB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

// ---------------------------------------------------------------------------
// Point-to-point (Figure 6)
// ---------------------------------------------------------------------------

/// Average one-way message time for a DCGN ping-pong of `size` bytes between
/// an endpoint of kind `src` (rank 0, node 0) and one of kind `dst` (rank 1,
/// node 1).
pub fn dcgn_send_time(
    size: usize,
    src: EndpointKind,
    dst: EndpointKind,
    cost: CostModel,
    iters: usize,
) -> Duration {
    let config =
        DcgnConfig::heterogeneous(vec![src.node_config(), dst.node_config()]).with_cost(cost);
    dcgn_pingpong_time(config, size, iters)
}

/// Average one-way message time for a DCGN ping-pong of `size` bytes between
/// ranks 0 and 1 of `config`, whichever kinds they are.
fn dcgn_pingpong_time(config: DcgnConfig, size: usize, iters: usize) -> Duration {
    let clock = Clock::from(config.cost);
    let runtime = Runtime::new(config).expect("pingpong config");
    let measured: Arc<Mutex<Duration>> = Arc::new(Mutex::new(Duration::ZERO));
    let (m_cpu, c_cpu) = (Arc::clone(&measured), clock.clone());
    let (m_gpu, c_gpu) = (Arc::clone(&measured), clock);

    runtime
        .launch(
            move |ctx| {
                let me = ctx.rank();
                let peer = 1 - me;
                let payload = vec![0xA5u8; size];
                ctx.barrier().unwrap();
                let start = c_cpu.now();
                for _ in 0..iters {
                    if me == 0 {
                        ctx.send(peer, &payload).unwrap();
                        let _ = ctx.recv(peer).unwrap();
                    } else {
                        let _ = ctx.recv(peer).unwrap();
                        ctx.send(peer, &payload).unwrap();
                    }
                }
                if me == 0 {
                    *m_cpu.lock().expect("measured") = c_cpu.elapsed(start);
                }
                ctx.barrier().unwrap();
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                const SLOT: usize = 0;
                let me = ctx.rank(SLOT);
                let peer = 1 - me;
                let buf = DevicePtr::NULL.add(64 * 1024);
                ctx.block().write(buf, &vec![0x5Au8; size.max(1)]);
                ctx.barrier(SLOT);
                let start = c_gpu.now();
                for _ in 0..iters {
                    if me == 0 {
                        ctx.send(SLOT, peer, buf, size);
                        ctx.recv(SLOT, peer, buf, size);
                    } else {
                        ctx.recv(SLOT, peer, buf, size);
                        ctx.send(SLOT, peer, buf, size);
                    }
                }
                if me == 0 {
                    *m_gpu.lock().expect("measured") = c_gpu.elapsed(start);
                }
                ctx.barrier(SLOT);
            },
        )
        .expect("pingpong launch");
    let total = *measured.lock().expect("measured");
    total / (2 * iters as u32)
}

/// Average one-way message time for a raw MPI (MVAPICH2 stand-in) ping-pong
/// of `size` bytes between two ranks on two nodes.
pub fn mpi_send_time(size: usize, cost: CostModel, iters: usize) -> Duration {
    let clock = Clock::from(cost);
    let results = MpiWorld::run(&RankPlacement::block(2, 1), cost, move |mut comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let payload = vec![0xA5u8; size];
        comm.barrier().unwrap();
        let start = clock.now();
        for _ in 0..iters {
            if me == 0 {
                comm.send(peer, 0, &payload).unwrap();
                let _ = comm.recv(Some(peer), Some(0)).unwrap();
            } else {
                let _ = comm.recv(Some(peer), Some(0)).unwrap();
                comm.send(peer, 0, &payload).unwrap();
            }
        }
        let elapsed = clock.elapsed(start);
        comm.barrier().unwrap();
        elapsed
    });
    results[0] / (2 * iters as u32)
}

// ---------------------------------------------------------------------------
// Broadcast (Figure 7)
// ---------------------------------------------------------------------------

/// Median broadcast time over `iters` broadcasts timed one by one, with 8
/// DCGN ranks of `kind` spread over 4 nodes (2 ranks per node), measured at
/// the root.
pub fn dcgn_broadcast_time(
    size: usize,
    kind: EndpointKind,
    cost: CostModel,
    iters: usize,
) -> Duration {
    let node = match kind {
        EndpointKind::Cpu => NodeConfig::new(2, 0, 0),
        EndpointKind::Gpu => NodeConfig::new(0, 2, 1),
    };
    let config = DcgnConfig::heterogeneous(vec![node; 4]).with_cost(cost);
    let runtime = Runtime::new(config).expect("broadcast config");
    let measured: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let clock = Clock::from(cost);
    let (m_cpu, c_cpu) = (Arc::clone(&measured), clock.clone());
    let (m_gpu, c_gpu) = (Arc::clone(&measured), clock);

    runtime
        .launch(
            move |ctx| {
                let me = ctx.rank();
                ctx.barrier().unwrap();
                let times = each_ns(&c_cpu, iters, || {
                    let mut data = if me == 0 { vec![1u8; size] } else { Vec::new() };
                    ctx.broadcast(0, &mut data).unwrap();
                });
                if me == 0 {
                    *m_cpu.lock().expect("measured") = times;
                }
                ctx.barrier().unwrap();
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                const SLOT: usize = 0;
                let me = ctx.rank(SLOT);
                let buf = DevicePtr::NULL.add(64 * 1024);
                if me == 0 {
                    ctx.block().write(buf, &vec![1u8; size.max(1)]);
                }
                ctx.barrier(SLOT);
                let times = each_ns(&c_gpu, iters, || ctx.broadcast(SLOT, 0, buf, size));
                if me == 0 {
                    *m_gpu.lock().expect("measured") = times;
                }
                ctx.barrier(SLOT);
            },
        )
        .expect("broadcast launch");
    let times = measured.lock().expect("measured");
    median(&times)
}

/// Median raw MPI broadcast time over `iters` broadcasts timed one by one,
/// with 8 ranks over 4 nodes, measured at the root.
pub fn mpi_broadcast_time(size: usize, cost: CostModel, iters: usize) -> Duration {
    let clock = Clock::from(cost);
    let results = MpiWorld::run(&RankPlacement::block(4, 2), cost, move |mut comm| {
        comm.barrier().unwrap();
        let times = each_ns(&clock, iters, || {
            let root = comm.rank() == 0;
            let mut data = if root { vec![1u8; size] } else { Vec::new() };
            comm.bcast(0, &mut data).unwrap();
        });
        comm.barrier().unwrap();
        times
    });
    median(&results[0])
}

// ---------------------------------------------------------------------------
// Barrier (Table 1)
// ---------------------------------------------------------------------------

/// Time each of `iters` back-to-back calls of `op` on `clock`, in ns.
fn each_ns<R>(clock: &Clock, iters: usize, mut op: impl FnMut() -> R) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let start = clock.now();
            op();
            clock.elapsed(start).as_nanos() as f64
        })
        .collect()
}

/// The median of per-call times: one slow call (a descheduled thread)
/// moves it by one rank, not by its whole delay over the count.
fn median(ns: &[f64]) -> Duration {
    let median = dcgn_simtime::stats::median(ns).expect("at least one timed call");
    Duration::from_nanos(median as u64)
}

/// Median DCGN barrier time over `iters` timed barriers, for `nodes` nodes
/// each contributing `cpus_per_node` CPU ranks and `gpus_per_node`
/// single-slot GPU ranks.
pub fn dcgn_barrier_time(
    nodes: usize,
    cpus_per_node: usize,
    gpus_per_node: usize,
    cost: CostModel,
    iters: usize,
) -> Duration {
    let config = DcgnConfig::heterogeneous(vec![
        NodeConfig::new(cpus_per_node, gpus_per_node, 1);
        nodes
    ])
    .with_cost(cost);
    let runtime = Runtime::new(config).expect("barrier config");
    let measured: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let clock = Clock::from(cost);
    let (m_cpu, c_cpu) = (Arc::clone(&measured), clock.clone());
    let (m_gpu, c_gpu) = (Arc::clone(&measured), clock);
    let timer_is_cpu = cpus_per_node > 0;

    runtime
        .launch(
            move |ctx| {
                ctx.barrier().unwrap();
                let times = each_ns(&c_cpu, iters, || ctx.barrier().unwrap());
                if ctx.rank() == 0 {
                    *m_cpu.lock().expect("measured") = times;
                }
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                const SLOT: usize = 0;
                ctx.barrier(SLOT);
                let times = each_ns(&c_gpu, iters, || ctx.barrier(SLOT));
                if !timer_is_cpu && ctx.rank(SLOT) == 0 {
                    *m_gpu.lock().expect("measured") = times;
                }
            },
        )
        .expect("barrier launch");
    let times = measured.lock().expect("measured");
    median(&times)
}

/// Median raw MPI barrier time over `iters` timed barriers, for
/// `nodes × ranks_per_node` ranks.
pub fn mpi_barrier_time(
    nodes: usize,
    ranks_per_node: usize,
    cost: CostModel,
    iters: usize,
) -> Duration {
    let clock = Clock::from(cost);
    let results = MpiWorld::run(
        &RankPlacement::block(nodes, ranks_per_node),
        cost,
        move |mut comm| {
            comm.barrier().unwrap();
            each_ns(&clock, iters, || comm.barrier().unwrap())
        },
    );
    median(&results[0])
}

/// Format a duration in the unit the paper uses for the given magnitude.
pub fn format_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 1000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{us:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcgn::MetricsHandle;
    use std::sync::PoisonError;

    /// Average one-way time for a large-message MPI ping-pong of `size` bytes
    /// between two ranks on two nodes, under an **explicit** rendezvous
    /// protocol configuration: `chunk` bytes per `RdvChunk` frame with a
    /// `window`-chunk credit window, or the whole payload as one chunk when
    /// `chunk == 0`.  The explicit [`dcgn_rmpi::RdvConfig`]
    /// (rather than `DCGN_RDV_CHUNK`) keeps an in-process chunked-vs-legacy
    /// comparison race-free: environment variables are process-global and the
    /// two arms of the comparison run in one test process.
    fn mpi_large_send_time(
        size: usize,
        chunk: usize,
        window: usize,
        cost: CostModel,
        iters: usize,
    ) -> Duration {
        let rdv = dcgn_rmpi::RdvConfig::new(cost.eager_threshold)
            .with_chunk_bytes(chunk)
            .with_window(window);
        let clock = Clock::from(cost);
        let results =
            MpiWorld::run_with(&RankPlacement::block(2, 1), cost, rdv, move |mut comm| {
                let me = comm.rank();
                let peer = 1 - me;
                let payload = vec![0xA5u8; size];
                comm.barrier().unwrap();
                let start = clock.now();
                for _ in 0..iters {
                    if me == 0 {
                        comm.send(peer, 0, &payload).unwrap();
                        let _ = comm.recv(Some(peer), Some(0)).unwrap();
                    } else {
                        let _ = comm.recv(Some(peer), Some(0)).unwrap();
                        comm.send(peer, 0, &payload).unwrap();
                    }
                }
                let elapsed = clock.elapsed(start);
                comm.barrier().unwrap();
                elapsed
            })
            .expect("valid rendezvous config");
        results[0] / (2 * iters as u32)
    }

    /// Per-iteration time of a compute+exchange loop between two CPU ranks on
    /// two nodes: each iteration, rank 0 exchanges `size` bytes with rank 1
    /// (send one way, receive the echo) and performs `compute` worth of local
    /// work.
    ///
    /// * `nonblocking = false` — the blocking shape `send; recv; compute`: the
    ///   wire round trip and the compute serialise, so the iteration costs
    ///   roughly `RTT + compute`.
    /// * `nonblocking = true` — the overlapped shape `irecv; isend; compute;
    ///   wait; wait`: the compute runs while the message flies, so the
    ///   iteration costs roughly `max(RTT, compute)`.
    ///
    /// The gap between the two is the compute-hidden latency the nonblocking
    /// subsystem buys.  The compute keeps its CPU busy for exactly `compute`.
    fn dcgn_isend_overlap_time(
        size: usize,
        compute: Duration,
        nonblocking: bool,
        cost: CostModel,
        iters: usize,
    ) -> Duration {
        let config = DcgnConfig::homogeneous(2, 1, 0, 0).with_cost(cost);
        let runtime = Runtime::new(config).expect("overlap config");
        let measured: Arc<Mutex<Duration>> = Arc::new(Mutex::new(Duration::ZERO));
        let m = Arc::clone(&measured);
        let clock = Clock::from(cost);
        let work = clock.clone();
        let compute = move || {
            let done = work.deadline(compute);
            while !work.passed(done) {
                std::thread::yield_now();
            }
        };

        runtime
            .launch_cpu_only(move |ctx| {
                let me = ctx.rank();
                let peer = 1 - me;
                let payload = vec![0xC3u8; size];
                ctx.barrier().unwrap();
                let start = clock.now();
                for _ in 0..iters {
                    if me == 0 {
                        if nonblocking {
                            let recv = ctx.irecv(peer).unwrap();
                            let send = ctx.isend(peer, &payload).unwrap();
                            compute();
                            let _ = ctx.wait(recv).unwrap();
                            ctx.wait(send).unwrap();
                        } else {
                            ctx.send(peer, &payload).unwrap();
                            let _ = ctx.recv(peer).unwrap();
                            compute();
                        }
                    } else {
                        // The echo side runs the same blocking recv+send in both
                        // variants, so the measured gap comes only from rank 0's
                        // shape.
                        let (data, _) = ctx.recv(peer).unwrap();
                        ctx.send(peer, &data).unwrap();
                    }
                }
                if me == 0 {
                    *m.lock().unwrap() = clock.elapsed(start);
                }
                ctx.barrier().unwrap();
            })
            .expect("overlap launch");
        let total = *measured.lock().unwrap();
        total / iters as u32
    }

    /// The two wall-clock ratio tests below each compare two timed runs; on
    /// a 2-vCPU host they perturb each other when `cargo test` runs them on
    /// parallel threads, so each holds this lock for its whole body, and
    /// takes it back from a test that failed holding it.
    static WALL_CLOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn size_and_duration_formatting() {
        assert_eq!(format_size(0), "0 B");
        assert_eq!(format_size(1 << 10), "1 kB");
        assert_eq!(format_size(1 << 20), "1 MB");
        assert_eq!(format_duration(Duration::from_micros(50)), "50.0 µs");
        assert_eq!(format_duration(Duration::from_millis(2)), "2.00 ms");
    }

    #[test]
    fn micro_harnesses_produce_nonzero_timings() {
        let cost = CostModel::zero();
        assert!(mpi_send_time(64, cost, 2) > Duration::ZERO);
        assert!(mpi_large_send_time(256 * 1024, 64 * 1024, 4, cost, 2) > Duration::ZERO);
        assert!(dcgn_send_time(64, EndpointKind::Cpu, EndpointKind::Cpu, cost, 2) > Duration::ZERO);
        assert!(mpi_barrier_time(2, 1, cost, 2) > Duration::ZERO);
        assert!(dcgn_barrier_time(1, 2, 0, cost, 2) > Duration::ZERO);
    }

    #[test]
    fn nonblocking_overlap_beats_blocking_under_cost_model() {
        let _serial = WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // The acceptance property of the nonblocking subsystem: with the
        // default hardware cost model, isend/irecv + compute completes
        // measurably faster than blocking send/recv-then-compute, because
        // the compute hides the wire round trip.  The model runs unscaled:
        // scaled down, its costs sink below this host's thread wake-up
        // time and the ratio measures the scheduler, not the overlap.  The
        // compute is sized to the blocking round trip it should hide
        // (~225 µs between CPU endpoints on two nodes).  Each shape takes
        // the better of two runs so scheduler noise cannot invert the
        // comparison.
        let cost = CostModel::g92_cluster();
        let compute = Duration::from_micros(225);
        let best = |nonblocking: bool| {
            (0..2)
                .map(|_| dcgn_isend_overlap_time(4096, compute, nonblocking, cost, 5))
                .min()
                .expect("two runs")
        };
        let blocking = best(false);
        let overlapped = best(true);
        assert!(
            overlapped < blocking,
            "overlap {overlapped:?} should beat blocking {blocking:?}"
        );
        // The overlapped shape must actually hide latency, not just tie:
        // demand at least a 20% win (the round trip alone is ~1x compute).
        assert!(
            overlapped.as_secs_f64() < blocking.as_secs_f64() * 0.8,
            "overlap {overlapped:?} hides too little of blocking {blocking:?}"
        );
    }

    #[test]
    fn chunked_rendezvous_beats_single_frame_for_large_sends() {
        let _serial = WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // The acceptance property of the streamed rendezvous pipeline:
        // under the unscaled g92 cost model a 1 MB send finishes faster
        // when streamed as credit-windowed 256 kB chunks (the shipped
        // defaults) than as one monolithic chunk (`chunk = 0`), because the
        // receiver drains chunk k while chunk k+1 is still on the wire.
        // Each arm takes the better of two runs so scheduler noise cannot
        // invert the comparison.
        let cost = CostModel::g92_cluster();
        let best = |chunk: usize, window: usize| {
            (0..2)
                .map(|_| mpi_large_send_time(1 << 20, chunk, window, cost, 2))
                .min()
                .expect("two runs")
        };
        let legacy = best(0, 1);
        let chunked = best(256 * 1024, 8);
        assert!(
            chunked < legacy,
            "chunked {chunked:?} should beat single-frame {legacy:?} at 1 MB"
        );
    }

    #[test]
    fn gpu_endpoints_are_slower_than_cpu_endpoints_under_cost_model() {
        // The core qualitative claim of Figure 6, read off the cost ledger,
        // which is exact where two timed runs are noise: under the paper's
        // cost model a GPU-sourced message pays PCI-e transfers a
        // CPU-sourced one never does.  `gpu/host.rs` pins what one request costs
        // (`each_request_kind_costs_a_pinned_number_of_transfers_per_sweep`):
        // a harvest read, then a completion write plus a read the next
        // harvest may share.  A message is one SEND and one RECV request, so
        // it costs at least two reads and two writes, each paying the PCI-e
        // latency.
        const TRANSFERS_PER_MESSAGE: u64 = 4;
        let cost = CostModel::g92_cluster();
        let iters = 3;
        let charged_pcie_ns = |kind: EndpointKind| {
            let metrics = MetricsHandle::new();
            let config = DcgnConfig::heterogeneous(vec![kind.node_config(); 2])
                .with_cost(cost)
                .with_metrics(metrics.clone());
            dcgn_pingpong_time(config, 1024, iters);
            metrics.snapshot().counter("model.charged_ns.pcie")
        };
        assert_eq!(charged_pcie_ns(EndpointKind::Cpu), 0);
        let messages = 2 * iters as u64;
        let floor = messages * TRANSFERS_PER_MESSAGE * cost.pcie.latency.as_nanos() as u64;
        let gpu = charged_pcie_ns(EndpointKind::Gpu);
        assert!(
            gpu >= floor,
            "GPU ping-pong charged {gpu} ns of PCI-e, under the {floor} ns its \
             {messages} messages cost at least"
        );
    }
}
