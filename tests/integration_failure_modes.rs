//! Failure injection and edge-of-envelope configurations: the runtime must
//! fail loudly (never hang, never silently corrupt) when applications misuse
//! it or when configurations are extreme.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dcgn::gpu::mailbox_error;
use dcgn::{
    CostModel, DcgnConfig, DcgnError, DeviceConfig, DevicePtr, ExchangePlan, NodeConfig, Runtime,
};

/// Run `f` on a watchdog thread and fail the test if it has not returned
/// within `timeout` — the guard that turns a silent hang into a loud
/// failure.  (On timeout the worker thread leaks; the test is failing
/// anyway.)
fn with_timeout<T: Send + 'static>(timeout: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(timeout)
        .expect("launch exceeded the watchdog timeout — collective containment hung")
}

#[test]
fn invalid_configurations_are_rejected_before_launch() {
    assert!(Runtime::new(DcgnConfig::heterogeneous(vec![])).is_err());
    assert!(Runtime::new(DcgnConfig::homogeneous(3, 0, 0, 0)).is_err());
    assert!(Runtime::new(DcgnConfig::heterogeneous(vec![NodeConfig::new(0, 2, 0)])).is_err());
    // More slots than resident blocks on the device.
    let tiny_device = DeviceConfig::default().with_multiprocessors(1);
    assert!(Runtime::new(DcgnConfig::heterogeneous(vec![
        NodeConfig::new(0, 1, 4).with_device(tiny_device)
    ]))
    .is_err());
}

#[test]
fn send_to_nonexistent_rank_reports_error_not_hang() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 2, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            assert!(matches!(
                ctx.send(17, b"nope"),
                Err(DcgnError::InvalidRank(17))
            ));
        })
        .unwrap();
}

#[test]
fn nonblocking_receive_from_nonexistent_rank_fails_at_wait() {
    // The comm thread validates the source, so the post succeeds and the
    // error arrives with the completion.
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            let handle = ctx.irecv(42).unwrap();
            assert!(matches!(ctx.wait(handle), Err(DcgnError::InvalidRank(42))));
        })
        .unwrap();
}

#[test]
fn scatter_root_without_the_right_chunk_table_is_rejected() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(|ctx| {
            assert!(matches!(
                ctx.scatter(0, None),
                Err(DcgnError::InvalidArgument(_))
            ));
            let two = [vec![1u8], vec![2u8]];
            assert!(matches!(
                ctx.scatter(0, Some(&two)),
                Err(DcgnError::InvalidArgument(_))
            ));
            // The rejected joins left no assembly behind.
            assert_eq!(ctx.scatter(0, Some(&two[..1])).unwrap(), [1]);
        })
        .unwrap();
}

/// Launch a GPU-only job of `cfg` and expect it to fail with a device fault
/// naming mailbox error `code`.  The watchdog only turns a regression into
/// a failure instead of a hung suite; the fault comes within milliseconds.
fn expect_mailbox_fault(cfg: DcgnConfig, code: u32, kernel: fn(&dcgn::GpuCtx<'_>)) {
    let result = with_timeout(Duration::from_secs(60), move || {
        Runtime::new(cfg).unwrap().launch_gpu_only(kernel)
    });
    match result {
        Err(DcgnError::Device(msg)) => {
            let named = format!("mailbox error {code}");
            assert!(msg.contains(&named), "expected {named}, got: {msg}");
        }
        other => panic!("expected a mailbox-error fault, got {other:?}"),
    }
}

#[test]
fn gpu_receive_from_nonexistent_rank_faults_instead_of_hanging() {
    let cfg = || DcgnConfig::homogeneous(1, 0, 1, 1);
    expect_mailbox_fault(cfg(), mailbox_error::INVALID_RANK, |ctx| {
        ctx.recv(0, 99, DevicePtr::NULL.add(1 << 20), 8);
    });
    expect_mailbox_fault(cfg(), mailbox_error::INVALID_RANK, |ctx| {
        let req = ctx.irecv(0, 99, DevicePtr::NULL.add(1 << 20), 8);
        ctx.wait(req);
    });
}

#[test]
fn gpu_sendrecv_replace_from_nonexistent_rank_faults_instead_of_hanging() {
    // The destination is on the other node, so the send half completes once
    // handed to the substrate and only the receive half's error remains.
    expect_mailbox_fault(
        DcgnConfig::homogeneous(2, 0, 1, 1),
        mailbox_error::INVALID_RANK,
        |ctx| {
            let buf = DevicePtr::NULL.add(1 << 20);
            if ctx.rank(0) == 0 {
                ctx.sendrecv_replace(0, 1, 99, buf, 8);
            } else {
                ctx.recv(0, 0, buf, 8);
            }
        },
    );
}

#[test]
fn gpu_call_nothing_completes_times_out_instead_of_hanging() {
    // The send half goes to the idle CPU rank 0 on the same node, and an
    // intra-node send finishes only when a local receive matches it; the
    // receive half names a rank outside the world.  Nothing completes the
    // call, so the request timeout must end it, as it ends a CPU rank's.
    let result = with_timeout(Duration::from_secs(60), || {
        let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
        runtime.set_request_timeout(Duration::from_secs(1));
        runtime.launch(
            |_cpu| {},
            |ctx| {
                if ctx.block().block_id() == 0 {
                    ctx.sendrecv_replace(0, 0, 99, DevicePtr::NULL.add(1 << 20), 8);
                }
            },
        )
    });
    match result {
        Err(DcgnError::Device(msg)) => assert!(
            msg.contains("dcgn::gpu::sendrecv_replace timed out after 1s"),
            "expected the call's timeout, got: {msg}"
        ),
        other => panic!("expected a device fault naming the timed-out call, got {other:?}"),
    }
}

#[test]
fn mismatched_collectives_are_detected() {
    // Rank 0 enters a barrier while rank 1 enters a broadcast: the node's
    // comm thread reports the mismatch to the second participant.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 2, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(3));
    let result = runtime.launch_cpu_only(|ctx| {
        // Whichever rank joins second sees the mismatch immediately; the
        // first joiner's collective can never complete and times out.  Both
        // must observe an error — and the job must terminate.
        if ctx.rank() == 0 {
            assert!(ctx.barrier().is_err());
        } else {
            let mut data = vec![1u8];
            assert!(ctx.broadcast(1, &mut data).is_err());
        }
    });
    result.unwrap();
}

#[test]
fn subgroup_reduce_mismatch_fails_only_that_subgroup() {
    // Odd ranks run an allreduce with disagreeing vector lengths inside
    // their own communicator: both odd ranks must observe the error, the
    // even ranks' concurrent subgroup collective must succeed, and world
    // collectives must still work afterwards.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 4, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(10));
    runtime
        .launch_cpu_only(|ctx| {
            let rank = ctx.rank();
            let comm = ctx.comm_split((rank % 2) as u32, 0).unwrap();
            if rank % 2 == 1 {
                // Rank 1 contributes 3 values, rank 3 contributes 5.
                let data = vec![1.0; if rank == 1 { 3 } else { 5 }];
                let err = ctx
                    .allreduce_in(&comm, &data, dcgn::ReduceOp::Sum)
                    .unwrap_err();
                assert!(
                    matches!(err, DcgnError::InvalidArgument(_)),
                    "want InvalidArgument, got {err:?}"
                );
            } else {
                let sum = ctx
                    .allreduce_in(&comm, &[1.0], dcgn::ReduceOp::Sum)
                    .unwrap();
                assert_eq!(sum, vec![2.0]);
            }
            // The failure is contained: the world is unaffected.
            let sum = ctx.allreduce(&[1.0], dcgn::ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![4.0]);
            ctx.barrier().unwrap();
        })
        .unwrap();
}

#[test]
fn cross_node_subgroup_mismatch_is_contained() {
    // The mismatching subgroup spans two nodes, so no single node can see
    // the mismatch locally: the leader detects it during the combine and
    // echoes the error to every participating node — unlike erroneous world
    // collectives, nobody hangs in the substrate.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(10));
    runtime
        .launch_cpu_only(|ctx| {
            let rank = ctx.rank();
            // Parity groups: {0, 2} and {1, 3} each span both nodes.
            let comm = ctx.comm_split((rank % 2) as u32, 0).unwrap();
            if rank % 2 == 1 {
                let data = vec![1.0; if rank == 1 { 3 } else { 5 }];
                let err = ctx
                    .allreduce_in(&comm, &data, dcgn::ReduceOp::Sum)
                    .unwrap_err();
                assert!(matches!(err, DcgnError::InvalidArgument(_)));
            } else {
                let sum = ctx
                    .allreduce_in(&comm, &[2.0], dcgn::ReduceOp::Sum)
                    .unwrap();
                assert_eq!(sum, vec![4.0]);
            }
            ctx.barrier().unwrap();
        })
        .unwrap();
}

/// World allreduce where the ranks of `bad_node` contribute mismatched
/// vector lengths: every rank of every node must observe a clean error —
/// world collectives ride the same exchange engine as subgroups, so the
/// aborting node's error up-frame is echoed to every peer instead of
/// leaving them blocked inside a substrate exchange.
fn world_length_mismatch_all_ranks_error(nodes: usize, cpus_per_node: usize) {
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    let total = nodes * cpus_per_node;
    with_timeout(Duration::from_secs(60), move || {
        let mut runtime =
            Runtime::new(DcgnConfig::homogeneous(nodes, cpus_per_node, 0, 0)).unwrap();
        runtime.set_request_timeout(Duration::from_secs(20));
        runtime
            .launch_cpu_only(move |ctx| {
                // Node 0's ranks disagree among themselves (1 vs 3 values);
                // every other node's ranks agree with each other.
                let len = if ctx.node() == 0 && ctx.rank() % 2 == 1 {
                    3
                } else {
                    1
                };
                let err = ctx
                    .allreduce(&vec![1.0; len], dcgn::ReduceOp::Sum)
                    .unwrap_err();
                assert!(
                    matches!(err, DcgnError::InvalidArgument(_)),
                    "want InvalidArgument on rank {}, got {err:?}",
                    ctx.rank()
                );
                e.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
    });
    assert_eq!(
        errors.load(Ordering::SeqCst),
        total,
        "every rank must error"
    );
}

#[test]
fn world_reduce_length_mismatch_errors_on_every_rank_single_node() {
    world_length_mismatch_all_ranks_error(1, 2);
}

#[test]
fn world_reduce_length_mismatch_errors_on_every_node() {
    // The decisive case the old blocking substrate path could not handle:
    // node 1's ranks are blameless, yet they must *error* (not hang) when
    // node 0 aborts the world collective locally.
    world_length_mismatch_all_ranks_error(2, 2);
}

#[test]
fn world_reduce_length_mismatch_errors_on_three_nodes() {
    world_length_mismatch_all_ranks_error(3, 2);
}

#[test]
fn world_dtype_mismatch_aborts_every_node_without_timeout() {
    // Node 0's two ranks join the same world reduce with different element
    // types.  The join detects the identity mismatch, fails *both* local
    // ranks immediately (not just the late joiner), and echoes the abort
    // through the exchange so node 1's blameless ranks error out too —
    // nobody waits for a request timeout.
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    with_timeout(Duration::from_secs(60), move || {
        let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
        runtime.set_request_timeout(Duration::from_secs(20));
        runtime
            .launch_cpu_only(move |ctx| {
                let outcome = if ctx.node() == 0 && ctx.rank() % 2 == 1 {
                    ctx.allreduce::<f32>(&[1.0], dcgn::ReduceOp::Sum)
                        .map(|_| ())
                } else {
                    ctx.allreduce::<f64>(&[1.0], dcgn::ReduceOp::Sum)
                        .map(|_| ())
                };
                match outcome {
                    Err(DcgnError::CollectiveMismatch { .. } | DcgnError::InvalidArgument(_)) => {
                        e.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!(
                        "rank {}: expected a mismatch error, got {other:?}",
                        ctx.rank()
                    ),
                }
            })
            .unwrap();
    });
    assert_eq!(errors.load(Ordering::SeqCst), 4, "every rank must error");
}

#[test]
fn world_kind_mismatch_across_nodes_is_a_collective_mismatch_everywhere() {
    // Whole nodes disagree about *which* world collective runs: node 0
    // enters a barrier, node 1 an allreduce.  No single node can see the
    // mismatch locally; the leader detects it from the collective identity
    // carried inside the up-frames and echoes CollectiveMismatch to every
    // participant.
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    with_timeout(Duration::from_secs(60), move || {
        let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
        runtime.set_request_timeout(Duration::from_secs(20));
        runtime
            .launch_cpu_only(move |ctx| {
                let outcome = if ctx.node() == 0 {
                    ctx.barrier()
                } else {
                    ctx.allreduce(&[1.0], dcgn::ReduceOp::Sum).map(|_| ())
                };
                match outcome {
                    Err(DcgnError::CollectiveMismatch {
                        in_progress,
                        requested,
                    }) => {
                        let pair = [in_progress, requested];
                        assert!(pair.contains(&"barrier") && pair.contains(&"allreduce"));
                        e.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!(
                        "rank {}: expected CollectiveMismatch, got {other:?}",
                        ctx.rank()
                    ),
                }
            })
            .unwrap();
    });
    assert_eq!(errors.load(Ordering::SeqCst), 4, "every rank must error");
}

#[test]
fn tree_plan_kind_mismatch_at_32_nodes_is_contained() {
    // Failure containment must survive the tree plan at scale: with 32
    // nodes forced onto the binomial tree, node 0 (the root) enters a
    // barrier while every other node enters an allreduce.  The mismatch is
    // caught from the collective identity carried in the up-bundles —
    // possibly at an interior node, before the root ever sees it — and the
    // abort must still reach all 32 ranks instead of deadlocking a subtree.
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    with_timeout(Duration::from_secs(120), move || {
        let mut runtime = Runtime::new(
            DcgnConfig::homogeneous(32, 1, 0, 0).with_exchange_plan(ExchangePlan::Tree),
        )
        .unwrap();
        runtime.set_request_timeout(Duration::from_secs(30));
        runtime
            .launch_cpu_only(move |ctx| {
                let outcome = if ctx.node() == 0 {
                    ctx.barrier()
                } else {
                    ctx.allreduce(&[1.0], dcgn::ReduceOp::Sum).map(|_| ())
                };
                match outcome {
                    Err(DcgnError::CollectiveMismatch {
                        in_progress,
                        requested,
                    }) => {
                        let pair = [in_progress, requested];
                        assert!(pair.contains(&"barrier") && pair.contains(&"allreduce"));
                        e.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!(
                        "rank {}: expected CollectiveMismatch, got {other:?}",
                        ctx.rank()
                    ),
                }
            })
            .unwrap();
    });
    assert_eq!(errors.load(Ordering::SeqCst), 32, "every rank must error");
}

#[test]
fn tree_plan_length_mismatch_at_32_nodes_errors_on_every_rank() {
    // Mid-collective error echo down the tree: the root's combine rejects
    // the mismatched vector lengths only after every up-bundle has been
    // concatenated up the tree, so the resulting error frame must be
    // relayed verbatim through the interior nodes to all 32 ranks.
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    with_timeout(Duration::from_secs(120), move || {
        let mut runtime = Runtime::new(
            DcgnConfig::homogeneous(32, 1, 0, 0).with_exchange_plan(ExchangePlan::Tree),
        )
        .unwrap();
        runtime.set_request_timeout(Duration::from_secs(30));
        runtime
            .launch_cpu_only(move |ctx| {
                // Node 5 is an interior node of the 32-node binomial tree;
                // its contribution disagrees with everyone else's.
                let len = if ctx.node() == 5 { 3 } else { 1 };
                let err = ctx
                    .allreduce(&vec![1.0; len], dcgn::ReduceOp::Sum)
                    .unwrap_err();
                assert!(
                    matches!(err, DcgnError::InvalidArgument(_)),
                    "want InvalidArgument on rank {}, got {err:?}",
                    ctx.rank()
                );
                e.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
    });
    assert_eq!(errors.load(Ordering::SeqCst), 32, "every rank must error");
}

#[test]
fn rd_and_ring_length_mismatch_is_contained_at_32_nodes() {
    // The allreduce schedules have no single combining root: a recursive-
    // doubling partner (or a ring neighbour) discovers the length
    // disagreement mid-schedule, and its abort broadcast must reach all 32
    // nodes — including ones that were still happily folding.
    for plan in [ExchangePlan::RecursiveDoubling, ExchangePlan::Ring] {
        let errors = Arc::new(AtomicUsize::new(0));
        let e = Arc::clone(&errors);
        with_timeout(Duration::from_secs(120), move || {
            let mut runtime =
                Runtime::new(DcgnConfig::homogeneous(32, 1, 0, 0).with_exchange_plan(plan))
                    .unwrap();
            runtime.set_request_timeout(Duration::from_secs(30));
            runtime
                .launch_cpu_only(move |ctx| {
                    let len = if ctx.node() == 7 { 5 } else { 8 };
                    let err = ctx
                        .allreduce(&vec![1.0; len], dcgn::ReduceOp::Sum)
                        .unwrap_err();
                    assert!(
                        matches!(err, DcgnError::InvalidArgument(_)),
                        "want InvalidArgument on rank {} under {plan:?}, got {err:?}",
                        ctx.rank()
                    );
                    e.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        });
        assert_eq!(
            errors.load(Ordering::SeqCst),
            32,
            "every rank must error under {plan:?}"
        );
    }
}

#[test]
fn world_collectives_still_work_after_a_contained_failure() {
    // A failed world collective must not poison the engine: the very next
    // world collective on the same communicator succeeds on every node.
    with_timeout(Duration::from_secs(60), move || {
        let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
        runtime.set_request_timeout(Duration::from_secs(20));
        runtime
            .launch_cpu_only(|ctx| {
                let len = if ctx.rank() == 0 { 2 } else { 1 };
                assert!(ctx.allreduce(&vec![1.0; len], dcgn::ReduceOp::Sum).is_err());
                // Everyone agrees again: the engine recovers.
                let sum = ctx.allreduce(&[1.0], dcgn::ReduceOp::Sum).unwrap();
                assert_eq!(sum, vec![4.0]);
                ctx.barrier().unwrap();
            })
            .unwrap();
    });
}

#[test]
fn mailbox_depth_one_overrun_faults_instead_of_deadlocking() {
    // At the configured minimum depth of one completion record, publishing a
    // second nonblocking request without harvesting the first can never
    // make progress; the claim loop must fault the launch, not deadlock it.
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 0, 1, 2).with_mailbox_depth(1)).unwrap();
    let result = with_timeout(Duration::from_secs(60), move || {
        runtime.launch_gpu_only(move |ctx| {
            match ctx.block().block_id() {
                0 => {
                    let buf = DevicePtr::NULL.add(1 << 20);
                    ctx.block().write(buf, &[1u8; 8]);
                    let first = ctx.isend(0, 1, buf, 8);
                    // Depth 1: this second publish can never claim a record.
                    let second = ctx.isend(0, 1, buf.add(64), 8);
                    ctx.wait(first);
                    ctx.wait(second);
                }
                1 => {
                    let _ = ctx.recv_any(1, DevicePtr::NULL.add(2 << 20), 64);
                }
                _ => {}
            }
        })
    });
    match result {
        Err(DcgnError::Device(msg)) => {
            assert!(msg.contains("completion record"), "unexpected: {msg}");
        }
        other => panic!("expected a depth-overrun fault, got {other:?}"),
    }
}

#[test]
fn mailbox_depth_one_sequential_nonblocking_traffic_works() {
    // Depth 1 is a legal configuration: publish → wait → publish → wait
    // never needs a second record in flight.
    with_timeout(Duration::from_secs(60), move || {
        let runtime =
            Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1).with_mailbox_depth(1)).unwrap();
        runtime
            .launch(
                |ctx| {
                    if ctx.rank() == 0 {
                        for i in 0..3u8 {
                            ctx.send(1, &[i; 16]).unwrap();
                        }
                    }
                },
                |ctx| {
                    const SLOT: usize = 0;
                    if ctx.block().block_id() != 0 {
                        return;
                    }
                    let buf = DevicePtr::NULL.add(8 << 10);
                    for i in 0..3u8 {
                        let req = ctx.irecv(SLOT, 0, buf, 16);
                        let status = ctx.wait(req);
                        assert_eq!(status.len, 16);
                        let mut got = [0u8; 16];
                        ctx.block().read(buf, &mut got);
                        assert_eq!(got, [i; 16]);
                    }
                },
            )
            .unwrap();
    });
}

#[test]
fn zero_mailbox_depth_is_rejected() {
    assert!(Runtime::new(DcgnConfig::homogeneous(1, 0, 1, 1).with_mailbox_depth(0)).is_err());
}

#[test]
fn collective_on_unknown_communicator_is_rejected() {
    // A handle this node's comm thread has never registered must fail the
    // request instead of assembling forever.  Constructing one without a
    // split is only possible by splitting inside a *different* launch, so
    // fake it with a sub-rank root that is out of range instead: roots are
    // validated against the communicator's size, not the world's.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 4, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(10));
    runtime
        .launch_cpu_only(|ctx| {
            let comm = ctx.comm_split((ctx.rank() % 2) as u32, 0).unwrap();
            assert_eq!(comm.size(), 2);
            let err = ctx.reduce_in(&comm, 2, &[1.0], dcgn::ReduceOp::Sum);
            assert!(matches!(err, Err(DcgnError::InvalidRank(2))));
            ctx.barrier().unwrap();
        })
        .unwrap();
}

#[test]
fn receive_that_never_matches_times_out() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_millis(300));
    let result = runtime.launch_cpu_only(|ctx| {
        // Nobody ever sends to us.
        let err = ctx.recv_any().unwrap_err();
        assert!(matches!(
            err,
            DcgnError::Timeout { rank: 0, .. } | DcgnError::ShuttingDown
        ));
    });
    // The kernel handled the error itself, so the launch succeeds.
    result.unwrap();
}

#[test]
fn kernel_panic_is_reported_as_launch_error() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(2));
    let result = runtime.launch_cpu_only(|_ctx| {
        panic!("application bug");
    });
    match result {
        Err(DcgnError::Internal(msg)) => assert!(msg.contains("application bug")),
        other => panic!("expected an internal error, got {other:?}"),
    }
}

#[test]
fn gpu_kernel_fault_is_reported_as_launch_error() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 0, 1, 1)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(2));
    let result = runtime.launch_gpu_only(|ctx| {
        if ctx.block().block_id() == 0 {
            // Out-of-bounds device access faults the block.
            let bad = DevicePtr::NULL.add(usize::MAX / 2);
            ctx.block().read_u32(bad);
        }
    });
    assert!(result.is_err());
}

#[test]
fn truncated_gpu_receive_surfaces_as_device_fault() {
    // The receiving buffer on the device is smaller than the message: the
    // mailbox completion carries a truncation error and the kernel panics
    // with a device fault, which the launch reports.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(5));
    let result = runtime.launch(
        |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.send(1, &[1u8; 256]);
            }
        },
        |ctx| {
            if ctx.block().block_id() != 0 {
                return;
            }
            let buf = DevicePtr::NULL.add(4096);
            // Only willing to accept 16 bytes.
            ctx.recv(0, 0, buf, 16);
        },
    );
    assert!(result.is_err());
}

#[test]
fn zero_cost_and_scaled_cost_models_agree_on_results() {
    // The cost model only affects timing, never results.
    let run = |cost: CostModel| {
        let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0).with_cost(cost)).unwrap();
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let o = std::sync::Arc::clone(&out);
        runtime
            .launch_cpu_only(move |ctx| {
                let mut data = if ctx.rank() == 0 {
                    vec![42u8; 100]
                } else {
                    Vec::new()
                };
                ctx.broadcast(0, &mut data).unwrap();
                o.lock().unwrap().push(data);
            })
            .unwrap();
        let v = out.lock().unwrap().clone();
        v
    };
    assert_eq!(run(CostModel::zero()), run(CostModel::g92_scaled(100.0)));
}

#[test]
fn extreme_polling_intervals_still_complete() {
    // A very coarse polling interval makes GPU messages slow but must not
    // break correctness.
    let cfg = DcgnConfig::homogeneous(1, 1, 1, 1).with_poll_interval(Duration::from_millis(20));
    let runtime = Runtime::new(cfg).unwrap();
    runtime
        .launch(
            |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, b"slow poll").unwrap();
                    let (reply, _) = ctx.recv(1).unwrap();
                    assert_eq!(reply, b"ok");
                }
            },
            |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(2048);
                let s = ctx.recv(0, 0, buf, 64);
                assert_eq!(s.len, 9);
                ctx.block().write(buf, b"ok");
                ctx.send(0, 0, buf, 2);
            },
        )
        .unwrap();
}

/// Launch a one-GPU-slot job whose kernel runs `publish` with a device
/// buffer outside device memory, and expect the usual mailbox-error fault.
fn expect_mailbox_error_for_a_buffer_outside_device_memory(
    publish: fn(&dcgn::GpuCtx<'_>, DevicePtr),
) {
    // The host cannot pull the payload, so it cannot relay the request.  It
    // used to abandon its polling loop with the kernel still spinning on a
    // completion nobody would write, and the launch never returned; now the
    // request completes into its record with an error code.
    let result = with_timeout(Duration::from_secs(20), move || {
        let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
        runtime.launch(
            |_ctx| {},
            move |ctx| publish(ctx, DevicePtr::NULL.add(1 << 30)),
        )
    });
    match result {
        Err(DcgnError::Device(msg)) => {
            assert!(msg.contains("mailbox error"), "unexpected: {msg}");
        }
        other => panic!("expected a mailbox-error fault, got {other:?}"),
    }
}

#[test]
fn blocking_send_of_an_unreadable_buffer_faults_instead_of_hanging() {
    expect_mailbox_error_for_a_buffer_outside_device_memory(|ctx, bad| ctx.send(0, 0, bad, 8));
}

#[test]
fn isend_of_an_unreadable_buffer_faults_at_wait_instead_of_hanging() {
    expect_mailbox_error_for_a_buffer_outside_device_memory(|ctx, bad| {
        let req = ctx.isend(0, 0, bad, 8);
        ctx.wait(req);
    });
}
