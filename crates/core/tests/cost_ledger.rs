//! The cost ledger of whole launches under the paper's cost model: every
//! modelled cost a job pays lands, exactly, on the `model.charged_ns.*`
//! counter of its kind in the job's registry — so what a run was charged is
//! an exact count, however noisy its wall clock.

use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DevicePtr, MetricsHandle, MetricsSnapshot, Runtime};
use dcgn_netsim::buffer::ENVELOPE_BYTES;
use dcgn_rmpi::packet::HEADER_BYTES;
use dcgn_rmpi::RdvConfig;

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
    launch_g92_on(2, cpus, kernel)
}

/// [`launch_g92`] on `nodes` nodes.
fn launch_g92_on(
    nodes: usize,
    cpus: usize,
    kernel: impl Fn(&dcgn::CpuCtx) + Send + Sync + 'static,
) -> MetricsSnapshot {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(nodes, cpus, 0, 0)
        .with_cost(CostModel::g92_cluster())
        .with_metrics(metrics.clone());
    Runtime::new(config)
        .unwrap()
        .launch_cpu_only(kernel)
        .unwrap();
    metrics.snapshot()
}

/// The transfer protocol a DCGN job runs with here: the defaults, adjusted
/// by any `DCGN_RDV_CHUNK` / `DCGN_RDV_WINDOW` the test run sets.
fn rdv_config() -> RdvConfig {
    DcgnConfig::homogeneous(2, 1, 0, 0)
        .with_cost(CostModel::g92_cluster())
        .resolved_rdv_config()
}

/// What one `size`-byte DCGN message between nodes pays when it
/// rendezvous, as `(network, drain)` ns: the RTS, the CTS, one frame per
/// chunk of the framed body and one credit per batch of chunks the receiver
/// drains before the last; each chunk also passes the receiver's drain.
fn rendezvous_ns(size: usize) -> (u64, u64) {
    let (cost, rdv) = (CostModel::g92_cluster(), rdv_config());
    let framed = size + ENVELOPE_BYTES;
    assert!(
        framed > rdv.eager_threshold,
        "{size} B must rendezvous (eager threshold {})",
        rdv.eager_threshold
    );
    // The sender's cut (`RdvConfig::chunk_end`): the last chunk absorbs a
    // tail of at most an envelope; chunk size 0 is one chunk.
    let mut chunks = Vec::new();
    let mut offset = 0;
    while offset < framed {
        let full = offset + rdv.chunk_bytes;
        let end = if rdv.chunk_bytes == 0 || full + ENVELOPE_BYTES >= framed {
            framed
        } else {
            full
        };
        chunks.push(end - offset);
        offset = end;
    }
    let credits = (chunks.len() - 1) / rdv.credit_batch();
    let frame = |bytes: usize| ns(cost.network.transfer_time(HEADER_BYTES + bytes));
    let network = (2 + credits as u64) * frame(0) + chunks.iter().map(|&c| frame(c)).sum::<u64>();
    let drain = chunks
        .iter()
        .map(|&c| ns(cost.network.bandwidth_only().transfer_time(c)))
        .sum();
    (network, drain)
}

/// Summed over both nodes.
fn both(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(&format!("{name}.node0")) + snap.counter(&format!("{name}.node1"))
}

/// Each crossing of a queue is paid once, by the consumer's drain; a post
/// costs its producer nothing.  So a request pays one queue hop of its own,
/// its reply's way back to a rank waiting on it alone, and the comm thread
/// pays one per crossing: each drain of its work queue carries every
/// request queued when it looks.
fn queue_hop_ns(snap: &MetricsSnapshot) -> u64 {
    let hops = both(snap, "comm.requests") + both(snap, "comm.crossings");
    hops * ns(CostModel::g92_cluster().queue_hop)
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
    // Requests arrive one at a time, so each crosses alone: two hops, its
    // own crossing and its reply's.
    assert_eq!(both(&snap, "comm.crossings"), both(&snap, "comm.requests"));

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

/// Slot 0 of each node's one GPU (one slot each) bounces a `size`-byte
/// message `iters` times, staged in device memory.
fn gpu_pingpong(iters: usize, size: usize) -> MetricsSnapshot {
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 0, 1, 1)
        .with_cost(CostModel::g92_cluster())
        .with_metrics(metrics.clone());
    Runtime::new(config)
        .unwrap()
        .launch_gpu_only(move |ctx| {
            const SLOT: usize = 0;
            if ctx.block().block_id() != 0 {
                return;
            }
            let scratch = DevicePtr::NULL.add(1 << 20);
            let peer = 1 - ctx.rank(SLOT);
            for _ in 0..iters {
                if ctx.rank(SLOT) == 0 {
                    ctx.send(SLOT, peer, scratch, size);
                    ctx.recv(SLOT, peer, scratch, size);
                } else {
                    ctx.recv(SLOT, peer, scratch, size);
                    ctx.send(SLOT, peer, scratch, size);
                }
            }
        })
        .unwrap();
    metrics.snapshot()
}

/// A GPU slot's request crosses to its comm thread in a sweep's batch and
/// its reply crosses back through the GPU-kernel thread's inbox: one hop
/// each, paid by the drain that consumes it and never by the sweep that
/// posts.  PCI-e is left out: it varies with the number of sweeps.
#[test]
fn a_gpu_ping_pong_charges_exactly_one_hop_per_crossing_and_its_frames() {
    let cost = CostModel::g92_cluster();
    let (iters, size) = (5, 64);
    let messages = 2 * iters as u64;
    let idle = ledger(&gpu_pingpong(0, size));
    let snap = gpu_pingpong(iters, size);
    assert_eq!(snap.counter("comm.requests.node0"), 2 * iters as u64);
    // A slot waits on one request at a time, so each batch crosses alone.
    assert_eq!(both(&snap, "comm.crossings"), both(&snap, "comm.requests"));
    let frame = HEADER_BYTES + size + ENVELOPE_BYTES;
    let [_, network, intra_node, drain, queue_hop, ..] = ledger(&snap);
    assert_eq!(
        [network, intra_node, drain, queue_hop],
        [
            (
                "network",
                idle[1].1 + messages * ns(cost.network.transfer_time(frame))
            ),
            (
                "intra_node",
                messages * ns(cost.intra_node.transfer_time(size))
            ),
            ("drain", 0),
            ("queue_hop", queue_hop_ns(&snap)),
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
    // Four ranks post one request per barrier; a node's two may cross to
    // its comm thread together.
    assert_eq!(both(&three, "comm.requests"), 3 * 4);
    assert!((3 * 2..=3 * 4).contains(&both(&three, "comm.crossings")));
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

/// A rendezvous payload is moved once on the receive side, by the drain:
/// the receiver takes the drained buffer whole, so no message of a
/// rendezvous ping-pong pays an intra-node copy.  64 KiB is one chunk once
/// framed (under the default chunk size), 1 MiB four.
#[test]
fn a_rendezvous_ping_pong_charges_its_frames_and_drains_and_no_copy() {
    for size in [64 * 1024, 1 << 20] {
        let iters = 2;
        let messages = 2 * iters as u64;
        let idle = ledger(&pingpong(0, size));
        let snap = pingpong(iters, size);
        let (network, drain) = rendezvous_ns(size);
        assert_eq!(
            ledger(&snap),
            [
                ("pcie", 0),
                ("network", idle[1].1 + messages * network),
                ("intra_node", 0),
                ("drain", messages * drain),
                ("queue_hop", queue_hop_ns(&snap)),
                ("launch", 0),
                ("poll", 0),
            ],
            "{size} B"
        );
    }
}

/// A rendezvous payload that lands before its receive is posted waits in
/// the matcher as an unexpected message, and owes no copy there either;
/// the eager marker that overtakes its receive pays its own.
#[test]
fn an_unexpected_rendezvous_payload_owes_no_copy() {
    let cost = CostModel::g92_cluster();
    let (size, marker) = (1 << 20, 8);
    let run = |sends: bool| {
        launch_g92(1, move |ctx| {
            if !sends {
                return;
            }
            if ctx.rank() == 0 {
                ctx.send_tagged(1, 1, &vec![7u8; size]).unwrap();
                ctx.send_tagged(1, 2, &vec![0u8; marker]).unwrap();
            } else {
                // MPI's non-overtaking order: the payload completes on the
                // node's catch-all receive before the marker behind it can,
                // so it is queued unmatched by the time the marker returns.
                ctx.recv_tagged(Some(0), 2).unwrap();
                let (data, _) = ctx.recv_tagged(Some(0), 1).unwrap();
                assert_eq!(data.len(), size);
            }
        })
    };
    let idle = ledger(&run(false));
    let snap = run(true);
    assert!(
        snap.gauge("comm.matcher.unexpected_msgs.node1").high_water >= 1,
        "the payload must have waited unmatched"
    );
    let (network, drain) = rendezvous_ns(size);
    let eager = ns(cost
        .network
        .transfer_time(HEADER_BYTES + marker + ENVELOPE_BYTES));
    assert_eq!(
        ledger(&snap),
        [
            ("pcie", 0),
            ("network", idle[1].1 + network + eager),
            ("intra_node", ns(cost.intra_node.transfer_time(marker))),
            ("drain", drain),
            ("queue_hop", queue_hop_ns(&snap)),
            ("launch", 0),
            ("poll", 0),
        ]
    );
}

/// An intra-node send is a shared-memory copy, whatever its size: 1 MiB
/// between two ranks of one node pays exactly one, and nothing crosses the
/// network or drains.
#[test]
fn an_intra_node_send_pays_exactly_one_copy() {
    let cost = CostModel::g92_cluster();
    let size = 1 << 20;
    let run = |sends: bool| {
        launch_g92_on(1, 2, move |ctx| {
            if !sends {
                return;
            }
            if ctx.rank() == 0 {
                ctx.send(1, &vec![7u8; size]).unwrap();
            } else {
                assert_eq!(ctx.recv(0).unwrap().0.len(), size);
            }
        })
    };
    let idle = ledger(&run(false));
    let snap = run(true);
    assert_eq!(
        ledger(&snap),
        [
            ("pcie", 0),
            ("network", idle[1].1),
            ("intra_node", ns(cost.intra_node.transfer_time(size))),
            ("drain", 0),
            ("queue_hop", queue_hop_ns(&snap)),
            ("launch", 0),
            ("poll", 0),
        ]
    );
}

/// A frame's records are copied into their receives one after another on
/// the node's one copy engine, each from the frame's landing or the end of
/// the copy before it: the comm thread's routing runs inside the modelled
/// copies, but no receive completes sooner than the model allows, and the
/// ledger books every copy whole.
#[test]
fn a_frames_copies_run_one_after_another_from_its_landing_and_never_sooner() {
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    const N: usize = 4;
    let size = 64;
    let mut cost = CostModel::g92_cluster();
    cost.intra_node = dcgn::LinkCost::from_us_and_mbps(20_000, 1e12);
    let copy = cost.intra_node.transfer_time(size);
    // When rank 0 began sending (before any frame could land), and when
    // each of rank 1's receives completed.
    let stamps = Arc::new(Mutex::new((None, Vec::new())));
    let seen = Arc::clone(&stamps);
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 1, 0, 0)
        .with_cost(cost)
        .with_metrics(metrics.clone());
    let kernel = move |ctx: &dcgn::CpuCtx| {
        let tags = 0..N as u32;
        if ctx.rank() == 0 {
            ctx.barrier().unwrap();
            seen.lock().unwrap().0 = Some(Instant::now());
            let reqs: Vec<_> = tags
                .map(|t| ctx.isend_tagged(1, t, &[t as u8; 64]).unwrap())
                .collect();
            ctx.waitall(&reqs).unwrap();
        } else {
            // Posted before the barrier, so the records match as they land.
            let reqs: Vec<_> = tags
                .map(|t| ctx.irecv_tagged(Some(0), t).unwrap())
                .collect();
            ctx.barrier().unwrap();
            for req in reqs {
                ctx.wait(req).unwrap();
                seen.lock().unwrap().1.push(Instant::now());
            }
        }
    };
    Runtime::new(config)
        .unwrap()
        .launch_cpu_only(kernel)
        .unwrap();
    let (began, done) = &*stamps.lock().unwrap();
    let began = began.expect("rank 0 sent");
    assert_eq!(done.len(), N);
    for (k, at) in done.iter().enumerate() {
        let copies = copy * (k as u32 + 1);
        assert!(
            at.duration_since(began) >= copies,
            "receive {k} completed {:?} after the send began, before {copies:?} of copies",
            at.duration_since(began)
        );
    }
    let charged = metrics.snapshot().counter("model.charged_ns.intra_node");
    assert_eq!(charged, N as u64 * ns(copy));
}

/// A receive posted after its frame landed, whose command the comm thread
/// handles before it takes that frame, copies from when it was posted, not
/// from the landing: its two queue crossings and its copy all come after
/// the post, whichever of the frame and the receive the thread took first.
#[test]
fn a_receive_posted_after_its_frame_landed_copies_no_sooner_than_its_post() {
    use std::sync::{Arc, Barrier, Mutex};
    use std::time::Instant;
    // Rank 0's send crosses its queue in one hop and lands half a hop
    // after rank 1 posts; rank 1's receive command is then taken at once
    // and handled a hop after its post, the frame long landed by then.
    let (hop, size) = (Duration::from_millis(50), 64);
    let mut cost = CostModel::g92_cluster();
    cost.queue_hop = hop;
    cost.intra_node = dcgn::LinkCost::from_us_and_mbps(10_000, 1e12);
    let copy = cost.intra_node.transfer_time(size);
    let sent = Arc::new(Barrier::new(2));
    let waited = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&waited);
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 1, 0, 0)
        .with_cost(cost)
        .with_metrics(metrics.clone());
    let kernel = move |ctx: &dcgn::CpuCtx| {
        ctx.barrier().unwrap();
        if ctx.rank() == 0 {
            let req = ctx.isend_tagged(1, 0, &[7; 64]).unwrap();
            sent.wait();
            ctx.wait(req).unwrap();
        } else {
            sent.wait();
            std::thread::sleep(hop / 2);
            let posted = Instant::now();
            let req = ctx.irecv_tagged(Some(0), 0).unwrap();
            ctx.wait(req).unwrap();
            *seen.lock().unwrap() = Some(posted.elapsed());
        }
    };
    Runtime::new(config)
        .unwrap()
        .launch_cpu_only(kernel)
        .unwrap();
    let waited = waited.lock().unwrap().expect("rank 1 received");
    let floor = 2 * hop + copy;
    assert!(
        waited >= floor,
        "the receive completed {waited:?} after its post, before {floor:?} of hops and copy"
    );
    let charged = metrics.snapshot().counter("model.charged_ns.intra_node");
    assert_eq!(charged, ns(copy));
}

/// An exchange's per-rank result copies and a frame's record copies share
/// the node's one copy engine: a record whose frame landed while the comm
/// thread was copying a collective's results out copies after them, not
/// alongside them from its landing.
#[test]
fn a_record_landing_during_a_collectives_copies_copies_after_them() {
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    // Rank 0 broadcasts to rank 1 on its node and ranks 2 and 3 on the
    // other, whose comm thread copies the result out twice.  Rank 1 sends
    // to rank 2 once its own copy is done, so that record lands a copy
    // into node 1's two.
    let size = 64;
    let mut cost = CostModel::g92_cluster();
    cost.intra_node = dcgn::LinkCost::from_us_and_mbps(20_000, 1e12);
    let copy = cost.intra_node.transfer_time(size);
    let stamps = Arc::new(Mutex::new((None, None)));
    let seen = Arc::clone(&stamps);
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 2, 0, 0)
        .with_cost(cost)
        .with_metrics(metrics.clone());
    let kernel = move |ctx: &dcgn::CpuCtx| {
        let mut data = vec![1; size];
        // Posted before the broadcast, so the record matches as it lands.
        let recv = (ctx.rank() == 2).then(|| ctx.irecv_tagged(Some(1), 5).unwrap());
        ctx.barrier().unwrap();
        if ctx.rank() == 0 {
            seen.lock().unwrap().0 = Some(Instant::now());
        }
        ctx.broadcast(0, &mut data).unwrap();
        if ctx.rank() == 1 {
            ctx.send_tagged(2, 5, &data).unwrap();
        }
        if let Some(req) = recv {
            ctx.wait(req).unwrap();
            seen.lock().unwrap().1 = Some(Instant::now());
        }
    };
    Runtime::new(config)
        .unwrap()
        .launch_cpu_only(kernel)
        .unwrap();
    let (began, done) = *stamps.lock().unwrap();
    let took = done.expect("rank 2 received") - began.expect("rank 0 broadcast");
    let floor = 3 * copy;
    assert!(
        took >= floor,
        "the record completed {took:?} after the broadcast began, inside node 1's two result copies"
    );
    let charged = metrics.snapshot().counter("model.charged_ns.intra_node");
    assert_eq!(
        charged,
        4 * ns(copy),
        "three result copies and one record's"
    );
}

/// A comm thread's idle wait ends at the next landing, including one that
/// no wake-up marks: a frame that landed while the thread was busy, or one
/// that progress absorbed into a persistent receive.  A wait that ran to
/// its fallback past either is counted in `comm.missed_landings`.
#[test]
fn no_comm_thread_idles_past_a_landed_frame() {
    const MSGS: u32 = 32;
    let pingpong = pingpong(2_000, 64);
    let window = launch_g92(1, |ctx| {
        let msg = [3u8; 1024];
        for _ in 0..200 {
            if ctx.rank() == 0 {
                let reqs: Vec<_> = (0..MSGS)
                    .map(|tag| ctx.isend_tagged(1, tag, &msg).unwrap())
                    .collect();
                ctx.waitall(&reqs).unwrap();
                ctx.recv_tagged(Some(1), MSGS).unwrap();
            } else {
                let reqs: Vec<_> = (0..MSGS)
                    .map(|tag| ctx.irecv_tagged(Some(0), tag).unwrap())
                    .collect();
                ctx.waitall(&reqs).unwrap();
                ctx.send_tagged(0, MSGS, &[]).unwrap();
            }
        }
    });
    let missed = |snap: &MetricsSnapshot| both(snap, "comm.missed_landings");
    assert_eq!((missed(&pingpong), missed(&window)), (0, 0));
}
