//! The cost ledger of whole launches under the paper's cost model: every
//! modelled cost a job pays lands, exactly, on the `model.charged_ns.*`
//! counter of its kind in the job's registry — so what a run was charged is
//! an exact count, however noisy its wall clock.

use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, MetricsHandle, MetricsSnapshot, Runtime};
use dcgn_netsim::buffer::ENVELOPE_BYTES;
use dcgn_rmpi::packet::HEADER_BYTES;

const KINDS: [&str; 7] = [
    "pcie",
    "network",
    "intra_node",
    "drain",
    "queue_hop",
    "launch",
    "poll",
];

/// The ledger of a finished launch, by kind.
fn ledger(snap: &MetricsSnapshot) -> [(&'static str, u64); 7] {
    KINDS.map(|kind| (kind, snap.counter(&format!("model.charged_ns.{kind}"))))
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Run `kernel` on 2 nodes × `cpus` CPU ranks under the g92 model with a
/// private registry; return that registry's snapshot.
fn launch_g92(
    cpus: usize,
    kernel: impl Fn(&dcgn::CpuCtx) + Send + Sync + 'static,
) -> MetricsSnapshot {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, cpus, 0, 0)
        .with_cost(CostModel::g92_cluster())
        .with_metrics(metrics.clone());
    Runtime::new(config)
        .unwrap()
        .launch_cpu_only(kernel)
        .unwrap();
    metrics.snapshot()
}

/// Every request crosses the work queue three times: the kernel thread's
/// post, the comm thread's receipt, and the reply's way back.
fn queue_hop_ns(snap: &MetricsSnapshot) -> u64 {
    let requests = snap.counter("comm.requests.node0") + snap.counter("comm.requests.node1");
    3 * requests * ns(CostModel::g92_cluster().queue_hop)
}

/// Rank 0 and rank 1 (one per node) bounce a `size`-byte message `iters`
/// times.
fn pingpong(iters: usize, size: usize) -> MetricsSnapshot {
    launch_g92(1, move |ctx| {
        let peer = 1 - ctx.rank();
        for _ in 0..iters {
            if ctx.rank() == 0 {
                ctx.send(peer, &vec![7u8; size]).unwrap();
                ctx.recv(peer).unwrap();
            } else {
                let (data, _) = ctx.recv(peer).unwrap();
                ctx.send(peer, &data).unwrap();
            }
        }
    })
}

#[test]
fn a_cpu_ping_pong_charges_exactly_its_hops_copies_and_frames() {
    let cost = CostModel::g92_cluster();
    let (iters, size) = (5, 64);
    let messages = 2 * iters as u64;
    let idle = ledger(&pingpong(0, size));
    let snap = pingpong(iters, size);
    assert_eq!(snap.counter("comm.requests.node0"), 2 * iters as u64);

    // Each message is one eager frame on the wire, `size` bytes plus the
    // DCGN envelope plus the packet header, on top of what an idle launch
    // sends (its shutdown barrier); the receiving comm thread then copies
    // the body into the receive.
    let frame = HEADER_BYTES + size + ENVELOPE_BYTES;
    let wire = messages * ns(cost.network.transfer_time(frame));
    let copies = messages * ns(cost.intra_node.transfer_time(size));
    let network = idle[1].1 + wire;
    assert_eq!(
        ledger(&snap),
        [
            ("pcie", 0),
            ("network", network),
            ("intra_node", copies),
            ("drain", 0),
            ("queue_hop", queue_hop_ns(&snap)),
            ("launch", 0),
            ("poll", 0),
        ]
    );
}

#[test]
fn a_barrier_charges_exactly_its_hops_and_the_same_frames_each_time() {
    let cost = CostModel::g92_cluster();
    let barriers = |n: usize| {
        launch_g92(2, move |ctx| {
            for _ in 0..n {
                ctx.barrier().unwrap();
            }
        })
    };
    let idle = ledger(&barriers(0))[1].1;
    let one = barriers(1);
    let three = barriers(3);
    // Four ranks post one request per barrier.
    assert_eq!(
        three.counter("comm.requests.node0") + three.counter("comm.requests.node1"),
        3 * 4
    );
    // A barrier's frames are the same every time (their bodies are the
    // plan's own encoding), and each pays at least the wire latency.
    let per_barrier = ledger(&one)[1].1 - idle;
    let frames: u64 = ["up", "down", "rd", "ring"]
        .iter()
        .map(|f| {
            one.counter(&format!("exchange.frames.{f}.node0"))
                + one.counter(&format!("exchange.frames.{f}.node1"))
        })
        .sum();
    assert!(frames > 0 && per_barrier >= frames * ns(cost.network.latency));
    // A barrier delivers nothing, so nothing is copied within a node.
    assert_eq!(
        ledger(&three),
        [
            ("pcie", 0),
            ("network", idle + 3 * per_barrier),
            ("intra_node", 0),
            ("drain", 0),
            ("queue_hop", queue_hop_ns(&three)),
            ("launch", 0),
            ("poll", 0),
        ]
    );
}
