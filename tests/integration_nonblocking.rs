//! Cross-crate integration of the nonblocking point-to-point subsystem:
//! CPU `isend`/`irecv` request handles (`wait`/`test`/`waitall`/`waitany`),
//! the GPU split publish/poll mailbox protocol (`ISEND`/`IRECV` opcodes with
//! per-request completion records), failure semantics for stale or
//! never-matched requests, and mixed blocking/nonblocking traffic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dcgn::{CostModel, DcgnConfig, DcgnError, DevicePtr, NodeConfig, Runtime};

// ---------------------------------------------------------------------------
// CPU request handles
// ---------------------------------------------------------------------------

#[test]
fn cpu_irecv_ahead_isend_behind_roundtrip() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    runtime
        .launch_cpu_only(move |ctx| {
            let peer = 1 - ctx.rank();
            for round in 0..3u8 {
                // Post the receive before the matching send exists anywhere.
                let recv = ctx.irecv(peer).unwrap();
                let send = ctx.isend(peer, &[round + ctx.rank() as u8; 64]).unwrap();
                // Overlapped "compute".
                let mut acc = 0u64;
                for i in 0..5_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                assert!(acc > 0);
                let (data, status) = ctx.wait(recv).unwrap().into_recv().unwrap();
                assert!(ctx.wait(send).unwrap().is_send());
                assert_eq!(status.source, peer);
                assert_eq!(data, vec![round + peer as u8; 64]);
            }
            h.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

#[test]
fn cpu_test_polls_until_done_and_consumes_the_handle() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(move |ctx| {
            let peer = 1 - ctx.rank();
            let recv = ctx.irecv(peer).unwrap();
            if ctx.rank() == 0 {
                // Delay the send so rank 1 observes at least one None.
                std::thread::sleep(Duration::from_millis(5));
            }
            let send = ctx.isend(peer, b"polled").unwrap();
            let mut polls = 0u32;
            let completion = loop {
                match ctx.test(recv).unwrap() {
                    Some(done) => break done,
                    None => {
                        polls += 1;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            };
            let (data, _) = completion.into_recv().unwrap();
            assert_eq!(data, b"polled");
            ctx.wait(send).unwrap();
            // The handle was consumed by the successful test.
            assert!(matches!(ctx.test(recv), Err(DcgnError::InvalidArgument(_))));
            let _ = polls; // at least rank 1 polled > 0 times, but timing-dependent
        })
        .unwrap();
}

#[test]
fn cpu_waitall_and_waitany_over_many_requests() {
    // Rank 0 scatters tagged messages to every peer with isend + waitall;
    // each peer waits on two posted receives with waitany in whatever order
    // they complete.
    let runtime = Runtime::new(DcgnConfig::homogeneous(3, 1, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                let mut handles = Vec::new();
                for peer in 1..ctx.size() {
                    for tag in 0..2u32 {
                        handles.push(
                            ctx.isend_tagged(peer, tag, &[peer as u8, tag as u8])
                                .unwrap(),
                        );
                    }
                }
                let completions = ctx.waitall(&handles).unwrap();
                assert!(completions.iter().all(|c| c.is_send()));
            } else {
                let me = ctx.rank();
                let handles = [
                    ctx.irecv_tagged(Some(0), 0).unwrap(),
                    ctx.irecv_tagged(Some(0), 1).unwrap(),
                ];
                let (first, done) = ctx.waitany(&handles).unwrap();
                let (data, _) = done.into_recv().unwrap();
                assert_eq!(data[0], me as u8);
                let other = 1 - first;
                let (data, _) = ctx.wait(handles[other]).unwrap().into_recv().unwrap();
                assert_eq!(data, vec![me as u8, other as u8]);
            }
        })
        .unwrap();
}

#[test]
fn stale_and_double_waited_handles_fail_cleanly() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(move |ctx| {
            let peer = 1 - ctx.rank();
            let recv = ctx.irecv(peer).unwrap();
            let send = ctx.isend(peer, b"x").unwrap();
            ctx.wait(recv).unwrap();
            ctx.wait(send).unwrap();
            // Both handles are consumed: every completion API rejects them
            // with a clean invalid-argument error, not a hang or a panic.
            for handle in [recv, send] {
                assert!(matches!(
                    ctx.wait(handle),
                    Err(DcgnError::InvalidArgument(_))
                ));
                assert!(matches!(
                    ctx.test(handle),
                    Err(DcgnError::InvalidArgument(_))
                ));
            }
            assert!(matches!(
                ctx.waitany(&[recv]),
                Err(DcgnError::InvalidArgument(_))
            ));
            assert!(matches!(
                ctx.waitany(&[]),
                Err(DcgnError::InvalidArgument(_))
            ));
        })
        .unwrap();
}

#[test]
fn wait_on_never_matched_irecv_surfaces_a_clean_timeout_error() {
    // Rank 0 posts a receive nothing will ever match and waits on it: the
    // wait must return an error after the request timeout — not hang the
    // kernel — and the launch (including comm-thread teardown of the orphan
    // receive) must complete.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_millis(200));
    let timed_out = Arc::new(AtomicUsize::new(0));
    let t = Arc::clone(&timed_out);
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                let orphan = ctx.irecv(1).unwrap();
                match ctx.wait(orphan) {
                    Err(DcgnError::Timeout { rank, op, waited }) => {
                        assert_eq!((rank, op), (0, "irecv"));
                        assert_eq!(waited, Duration::from_millis(200));
                        t.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("expected a timeout error, got {other:?}"),
                }
            }
        })
        .unwrap();
    assert_eq!(timed_out.load(Ordering::SeqCst), 1);
}

#[test]
fn abandoned_cpu_handles_do_not_hang_shutdown() {
    // Kernels post receives (and an unmatched intra-node send) they never
    // wait on, then return.  The comm thread must fail the orphans at
    // shutdown instead of hanging the launch.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(move |ctx| {
            let peer = (ctx.rank() + 1) % ctx.size();
            let _abandoned_recv = ctx.irecv(peer).unwrap();
            if ctx.rank() == 0 {
                // Intra-node send to rank 1 that is never received: its
                // deferred completion is dropped with the kernel.
                let _abandoned_send = ctx.isend(1, b"never read").unwrap();
            }
        })
        .unwrap();
}

#[test]
fn isend_in_and_irecv_in_use_sub_rank_addressing() {
    // Split 4 ranks into two pairs; partners exchange through sub-rank 0/1
    // addressing within their communicator.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
    runtime
        .launch_cpu_only(move |ctx| {
            let color = (ctx.rank() % 2) as u32;
            let comm = ctx.comm_split(color, 0).unwrap();
            assert_eq!(comm.size(), 2);
            let partner_sub = 1 - comm.rank();
            let recv = ctx.irecv_in(&comm, Some(partner_sub), 7).unwrap();
            let send = ctx
                .isend_in(&comm, partner_sub, 7, &[color as u8; 8])
                .unwrap();
            let (data, status) = ctx.wait(recv).unwrap().into_recv().unwrap();
            ctx.wait(send).unwrap();
            assert_eq!(data, vec![color as u8; 8]);
            // Status reports the partner's *global* rank.
            assert_eq!(status.source, comm.global_rank(partner_sub).unwrap());
            ctx.comm_free(&comm).unwrap();
        })
        .unwrap();
}

// ---------------------------------------------------------------------------
// GPU split publish/poll protocol
// ---------------------------------------------------------------------------

#[test]
fn gpu_isend_irecv_roundtrip_across_nodes() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 0, 1, 1)).unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    runtime
        .launch_gpu_only(move |ctx| {
            const SLOT: usize = 0;
            if ctx.block().block_id() != 0 {
                return;
            }
            let me = ctx.rank(SLOT);
            let peer = 1 - me;
            let out = DevicePtr::NULL.add(16 * 1024);
            let inb = DevicePtr::NULL.add(24 * 1024);
            ctx.block().write(out, &[me as u8 + 10; 128]);
            // Publish both halves, compute, then collect.
            let recv = ctx.irecv(SLOT, peer, inb, 128);
            let send = ctx.isend(SLOT, peer, out, 128);
            let mut acc = 1u64;
            for i in 1..2_000u64 {
                acc = acc.wrapping_mul(i) ^ i;
            }
            assert!(acc != 0);
            let status = ctx.wait(recv);
            ctx.wait(send);
            assert_eq!(status.source, peer);
            assert_eq!(status.len, 128);
            assert_eq!(ctx.block().read_vec(inb, 128), vec![peer as u8 + 10; 128]);
            h.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

#[test]
fn gpu_slot_overlaps_multiple_requests_in_flight() {
    // One slot publishes two sends and two receives before collecting any
    // completion: the split protocol's completion-record column (not the
    // single mailbox body) is what bounds per-slot concurrency.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 0, 1, 1)).unwrap();
    runtime
        .launch_gpu_only(move |ctx| {
            const SLOT: usize = 0;
            if ctx.block().block_id() != 0 {
                return;
            }
            let me = ctx.rank(SLOT);
            let peer = 1 - me;
            let base = DevicePtr::NULL.add(32 * 1024);
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for i in 0..2usize {
                let out = base.add(i * 1024);
                ctx.block().write(out, &[(me * 10 + i) as u8; 32]);
                recvs.push(ctx.irecv(SLOT, peer, base.add((4 + i) * 1024), 32));
                sends.push(ctx.isend(SLOT, peer, out, 32));
            }
            // Messages from one (src, tag) pair match receives in posting
            // order: receive i carries payload i.
            for (i, req) in recvs.into_iter().enumerate() {
                let status = ctx.wait(req);
                assert_eq!(status.source, peer);
                assert_eq!(
                    ctx.block().read_vec(base.add((4 + i) * 1024), 32),
                    vec![(peer * 10 + i) as u8; 32]
                );
            }
            for req in sends {
                ctx.wait(req);
            }
        })
        .unwrap();
}

#[test]
fn gpu_test_returns_none_until_complete() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
    // Ranks: 0 = CPU, 1 = GPU slot.
    runtime
        .launch(
            move |ctx| {
                // Hold the payload back briefly so the device sees a pending
                // request before completion.
                std::thread::sleep(Duration::from_millis(3));
                ctx.send(1, b"late payload").unwrap();
            },
            move |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(8 * 1024);
                let req = ctx.irecv(SLOT, 0, buf, 64);
                let mut spins = 0u64;
                let status = loop {
                    match ctx.test(req) {
                        Some(status) => break status,
                        None => {
                            spins += 1;
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                };
                assert_eq!(status.source, 0);
                assert_eq!(ctx.block().read_vec(buf, status.len), b"late payload");
                let _ = spins; // timing-dependent, usually > 0
            },
        )
        .unwrap();
}

#[test]
fn gpu_and_cpu_mix_blocking_and_nonblocking_traffic() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    // Ranks: node0 = {0: CPU, 1: GPU}, node1 = {2: CPU, 3: GPU}.
    runtime
        .launch(
            move |ctx| match ctx.rank() {
                0 => {
                    let recv = ctx.irecv(3).unwrap();
                    ctx.send(2, b"blocking leg").unwrap();
                    let (data, _) = ctx.wait(recv).unwrap().into_recv().unwrap();
                    assert_eq!(data, b"gpu nonblocking");
                }
                2 => {
                    let (data, _) = ctx.recv(0).unwrap();
                    assert_eq!(data, b"blocking leg");
                }
                other => panic!("unexpected cpu rank {other}"),
            },
            move |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 {
                    return;
                }
                let scratch = DevicePtr::NULL.add(12 * 1024);
                match ctx.rank(SLOT) {
                    1 => {
                        // Blocking recv on a slot that also publishes a
                        // nonblocking send: the one-shot transaction and the
                        // split protocol share the mailbox sequentially.
                        let req = {
                            ctx.block().write(scratch, b"gpu to gpu async");
                            ctx.isend(SLOT, 3, scratch, 16)
                        };
                        ctx.wait(req);
                        let s = ctx.recv_any(SLOT, scratch.add(1024), 64);
                        assert_eq!(s.source, 3);
                    }
                    3 => {
                        let req = ctx.irecv(SLOT, 1, scratch, 64);
                        let s = ctx.wait(req);
                        assert_eq!(ctx.block().read_vec(scratch, s.len), b"gpu to gpu async");
                        ctx.block().write(scratch, b"gpu nonblocking");
                        ctx.send(SLOT, 0, scratch, 15);
                        ctx.block().write(scratch, b"ack");
                        ctx.send(SLOT, 1, scratch, 3);
                    }
                    other => panic!("unexpected gpu rank {other}"),
                }
            },
        )
        .unwrap();
}

#[test]
fn gpu_abandoned_async_request_fails_the_launch_instead_of_hanging() {
    // A device kernel publishes an irecv nothing will ever match and retires
    // without waiting.  The GPU-kernel thread must give up after its grace
    // period and fail the launch with a descriptive error.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 0, 1, 1)).unwrap();
    let result = runtime.launch_gpu_only(move |ctx| {
        const SLOT: usize = 0;
        if ctx.block().block_id() != 0 {
            return;
        }
        if ctx.rank(SLOT) == 0 {
            let _abandoned = ctx.irecv(SLOT, 1, DevicePtr::NULL.add(4096), 64);
            // Retire without waiting; rank 1 never sends.
        }
    });
    match result {
        Err(DcgnError::Internal(msg)) => {
            assert!(msg.contains("abandoned"), "unexpected message: {msg}");
        }
        other => panic!("expected an abandoned-request error, got {other:?}"),
    }
}

#[test]
fn nonblocking_roundtrip_with_realistic_costs() {
    let cfg = DcgnConfig::homogeneous(2, 1, 1, 1).with_cost(CostModel::g92_scaled(25.0));
    let runtime = Runtime::new(cfg).unwrap();
    runtime
        .launch(
            move |ctx| {
                let gpu_peer = if ctx.rank() == 0 { 1 } else { 3 };
                let recv = ctx.irecv(gpu_peer).unwrap();
                let send = ctx.isend(gpu_peer, &[0xEE; 256]).unwrap();
                let (data, _) = ctx.wait(recv).unwrap().into_recv().unwrap();
                ctx.wait(send).unwrap();
                assert_eq!(data, vec![0xDD; 256]);
            },
            move |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 {
                    return;
                }
                let cpu_peer = ctx.rank(SLOT) - 1;
                let buf = DevicePtr::NULL.add(64 * 1024);
                ctx.block().write(buf, &[0xDD; 256]);
                let send = ctx.isend(SLOT, cpu_peer, buf, 256);
                let recv = ctx.irecv(SLOT, cpu_peer, buf.add(4096), 256);
                ctx.wait(send);
                let s = ctx.wait(recv);
                assert_eq!(s.len, 256);
                assert_eq!(ctx.block().read_vec(buf.add(4096), 256), vec![0xEE; 256]);
            },
        )
        .unwrap();
}

/// What rank 0 sends, in order, in `isends_to_one_node_arrive_in_send_order`:
/// `(dst, payload)`, eager messages to ranks 1 and 2 interleaved, with one
/// 100 KiB (rendezvous) message to rank 1 in the middle.
fn one_node_traffic() -> Vec<(usize, Vec<u8>)> {
    let mut sends = Vec::new();
    for i in 0..12usize {
        if i == 6 {
            sends.push((1, (0..100 * 1024).map(|b| (b % 251) as u8).collect()));
        }
        sends.push((1, vec![i as u8; (i * 97) % 1100]));
        if i % 2 == 0 {
            sends.push((2, vec![100 + i as u8; 300 + i]));
        }
    }
    sends
}

#[test]
fn isends_to_one_node_arrive_in_send_order() {
    const TAG: u32 = 5;
    for cost in [CostModel::zero(), CostModel::g92_scaled(25.0)] {
        let nodes = vec![NodeConfig::new(1, 0, 0), NodeConfig::new(2, 0, 0)];
        let runtime = Runtime::new(DcgnConfig::heterogeneous(nodes).with_cost(cost)).unwrap();
        runtime
            .launch_cpu_only(move |ctx| {
                let sends = one_node_traffic();
                if ctx.rank() == 0 {
                    assert_eq!(ctx.rank_map().node_of(1), Some(1));
                    assert_eq!(ctx.rank_map().node_of(2), Some(1));
                    let handles: Vec<_> = sends
                        .iter()
                        .map(|(dst, data)| ctx.isend_tagged(*dst, TAG, data).unwrap())
                        .collect();
                    ctx.waitall(&handles).unwrap();
                    return;
                }
                for (_, want) in sends.iter().filter(|(dst, _)| *dst == ctx.rank()) {
                    let (data, status) = ctx.recv_tagged(Some(0), TAG).unwrap();
                    assert_eq!((status.source, status.len), (0, want.len()));
                    assert_eq!(&data, want);
                }
            })
            .unwrap();
    }
}

#[test]
fn gpu_stale_request_faults_instead_of_hanging() {
    // Waiting on an already-harvested GpuRequest must fault with a clear
    // diagnostic (the completion word is generation-stamped), not spin
    // forever or steal a newer request's completion.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 0, 1, 1)).unwrap();
    let result = runtime.launch_gpu_only(move |ctx| {
        const SLOT: usize = 0;
        if ctx.block().block_id() != 0 {
            return;
        }
        let me = ctx.rank(SLOT);
        let peer = 1 - me;
        let buf = DevicePtr::NULL.add(4 << 20);
        ctx.block().write(buf, &[me as u8; 16]);
        let send = ctx.isend(SLOT, peer, buf, 16);
        let recv = ctx.irecv(SLOT, peer, buf.add(4096), 64);
        ctx.wait(recv);
        ctx.wait(send);
        if me == 0 {
            // Double-wait: the handle's generation no longer matches.
            ctx.wait(send);
        }
    });
    match result {
        Err(DcgnError::Device(msg)) => {
            assert!(msg.contains("stale GpuRequest"), "unexpected: {msg}");
        }
        other => panic!("expected a stale-handle fault, got {other:?}"),
    }
}

#[test]
fn gpu_publish_overrun_faults_instead_of_hanging() {
    // Publishing more than MAILBOX_REQS_PER_SLOT requests without harvesting
    // any can never make progress (records free only on the kernel's own
    // test/wait); the claim loop must fault with a descriptive message
    // instead of spinning the launch forever.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 0, 1, 1)).unwrap();
    let result = runtime.launch_gpu_only(move |ctx| {
        const SLOT: usize = 0;
        if ctx.block().block_id() != 0 {
            return;
        }
        if ctx.rank(SLOT) == 0 {
            let buf = DevicePtr::NULL.add(4 << 20);
            ctx.block().write(buf, &[7u8; 8]);
            let reqs: Vec<_> = (0..5)
                .map(|i| ctx.isend(SLOT, 1, buf.add(i * 64), 8))
                .collect();
            for req in reqs {
                ctx.wait(req);
            }
        } else {
            // Only the 4 publishes that fit the record column ever ship.
            for _ in 0..4 {
                let _ = ctx.recv_any(SLOT, DevicePtr::NULL.add(5 << 20), 64);
            }
        }
    });
    match result {
        Err(DcgnError::Device(msg)) => {
            assert!(
                msg.contains("completion record"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("expected a publish-overrun fault, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Tagged GPU point-to-point and device-side waitall/waitany
// ---------------------------------------------------------------------------

#[test]
fn gpu_tagged_recv_matches_by_tag_and_any_tag_takes_the_rest() {
    // A CPU rank ships two differently-tagged messages to a GPU slot in
    // order; the kernel pulls the *second* tag first (out of arrival
    // order), then drains the remaining message with the ANY_TAG wildcard.
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
    runtime
        .launch(
            |ctx| {
                if ctx.rank() == 0 {
                    // Nonblocking sends: intra-node sends complete only when
                    // matched, and the GPU matches them out of order.
                    let a = ctx.isend_tagged(1, 7, &[0xA7; 32]).unwrap();
                    let b = ctx.isend_tagged(1, 9, &[0xB9; 32]).unwrap();
                    ctx.waitall(&[a, b]).unwrap();
                }
            },
            |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(8 << 10);
                // Tag 9 first, despite the tag-7 message arriving earlier.
                let status = ctx.recv_tagged(SLOT, 0, 9, buf, 32);
                assert_eq!(status.len, 32);
                assert_eq!(ctx.block().read_vec(buf, 32), vec![0xB9; 32]);
                // The wildcard then drains the tag-7 message.
                let status = ctx.recv_any_tagged(SLOT, dcgn::gpu::ANY_TAG, buf, 32);
                assert_eq!(status.len, 32);
                assert_eq!(ctx.block().read_vec(buf, 32), vec![0xA7; 32]);
            },
        )
        .unwrap();
}

#[test]
fn gpu_any_tag_receives_report_the_senders_actual_tag() {
    // An ANY_TAG receive must report the tag the matched message actually
    // carried, on both mailbox paths: the blocking recv (result written
    // into the request body) and the nonblocking irecv + wait (result
    // written into the per-request completion record).
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
    runtime
        .launch(
            |ctx| {
                if ctx.rank() == 0 {
                    let a = ctx.isend_tagged(1, 1337, &[0x11; 16]).unwrap();
                    let b = ctx.isend_tagged(1, 4242, &[0x22; 16]).unwrap();
                    ctx.waitall(&[a, b]).unwrap();
                }
            },
            |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(8 << 10);
                // Blocking wildcard receive: the body round-trips the tag.
                let status = ctx.recv_any_tagged(SLOT, dcgn::gpu::ANY_TAG, buf, 16);
                assert_eq!(status.tag, 1337);
                assert_eq!(status.len, 16);
                assert_eq!(ctx.block().read_vec(buf, 16), vec![0x11; 16]);
                // Nonblocking wildcard receive: the completion record does.
                let req = ctx.irecv_any_tagged(SLOT, dcgn::gpu::ANY_TAG, buf, 16);
                let status = ctx.wait(req);
                assert_eq!(status.tag, 4242);
                assert_eq!(status.len, 16);
                assert_eq!(ctx.block().read_vec(buf, 16), vec![0x22; 16]);
            },
        )
        .unwrap();
}

#[test]
fn gpu_nonblocking_tags_roundtrip_to_cpu_tagged_receives() {
    // The nonblocking publish path carries tags too: a GPU slot isends two
    // tagged payloads, the CPU receives them by tag in reverse order.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    runtime
        .launch(
            move |ctx| {
                // CPU ranks 0 (node 0) and 2 (node 1); GPU slots 1 and 3.
                if ctx.rank() == 0 {
                    let (low, _) = ctx.recv_tagged(Some(3), 21).unwrap();
                    assert_eq!(low, vec![21u8; 64]);
                    let (high, _) = ctx.recv_tagged(Some(3), 22).unwrap();
                    assert_eq!(high, vec![22u8; 64]);
                    h.fetch_add(1, Ordering::SeqCst);
                }
            },
            |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 || ctx.rank(SLOT) != 3 {
                    return;
                }
                let a = DevicePtr::NULL.add(16 << 10);
                let b = DevicePtr::NULL.add(24 << 10);
                ctx.block().write(a, &[21u8; 64]);
                ctx.block().write(b, &[22u8; 64]);
                let r1 = ctx.isend_tagged(SLOT, 0, 21, a, 64);
                let r2 = ctx.isend_tagged(SLOT, 0, 22, b, 64);
                ctx.waitall(&[r1, r2]);
            },
        )
        .unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn gpu_waitany_harvests_whichever_completes_first() {
    // The kernel posts a receive that can complete at once and one that
    // completes only after the first has been acknowledged back to the
    // peer: waitany must pick them in completion order, not posting order.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let order = Arc::new(std::sync::Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    runtime
        .launch(
            |ctx| {
                if ctx.rank() == 0 {
                    // First leg: satisfy the kernel's tag-5 receive.
                    ctx.send_tagged(1, 5, &[5u8; 16]).unwrap();
                    // Second leg only after the kernel acknowledged it.
                    let (ack, _) = ctx.recv(1).unwrap();
                    assert_eq!(ack, vec![0xAC; 4]);
                    ctx.send_tagged(1, 6, &[6u8; 16]).unwrap();
                }
            },
            move |ctx| {
                const SLOT: usize = 0;
                if ctx.block().block_id() != 0 || ctx.rank(SLOT) != 1 {
                    return;
                }
                let b5 = DevicePtr::NULL.add(8 << 10);
                let b6 = DevicePtr::NULL.add(12 << 10);
                let r6 = ctx.irecv_tagged(SLOT, 0, 6, b6, 16);
                let r5 = ctx.irecv_tagged(SLOT, 0, 5, b5, 16);
                // Only tag 5 has been sent: waitany must return it even
                // though r6 was posted first.
                let (idx, status) = ctx.waitany(&[r6, r5]);
                assert_eq!((idx, status.len), (1, 16));
                o.lock().unwrap().push(5u32);
                // Release the second leg, then the remaining handle.
                let ack = DevicePtr::NULL.add(16 << 10);
                ctx.block().write(ack, &[0xAC; 4]);
                ctx.send(SLOT, 0, ack, 4);
                let (idx, status) = ctx.waitany(&[r6]);
                assert_eq!((idx, status.len), (0, 16));
                o.lock().unwrap().push(6u32);
                assert_eq!(ctx.block().read_vec(b5, 16), vec![5u8; 16]);
                assert_eq!(ctx.block().read_vec(b6, 16), vec![6u8; 16]);
            },
        )
        .unwrap();
    assert_eq!(*order.lock().unwrap(), vec![5, 6]);
}
