//! What the mailbox's reserved record guarantees: blocking device calls
//! complete through a completion record like nonblocking ones, but never
//! compete with them for one, and blocks sharing a slot serialise their
//! blocking calls on it however long each takes.  And what its inline area
//! guarantees: a payload that rides in the record arrives as intact as one
//! that crosses PCI-e on its own, on every route.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcgn::gpu::{mailbox_error, ANY_TAG, MAILBOX_INLINE_BYTES};
use dcgn::{CommStatus, DcgnConfig, DcgnError, DevicePtr, GpuCtx, Runtime};

const SLOT: usize = 0;

/// Payload sizes on both sides of the inline area's edge, and one far past.
const SIZES: [usize; 6] = [
    0,
    1,
    MAILBOX_INLINE_BYTES - 1,
    MAILBOX_INLINE_BYTES,
    MAILBOX_INLINE_BYTES + 1,
    4096,
];

/// Bytes that differ by position and by `seed`.
fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

#[test]
fn payloads_around_the_inline_size_arrive_intact_on_every_route() {
    // Ranks: node 0 is CPU 0 + GPU 1, node 1 is CPU 2 + GPU 3.  Per size:
    // CPU 0 → GPU 1 → GPU 3 (an ANY_TAG irecv) → CPU 2 and back in one
    // `sendrecv_replace` → CPU 0.  Each receiver checks bytes, source and
    // tag; a GPU receiver also checks that nothing past the message moved.
    const SENTINEL: u8 = 0x5A;
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    runtime
        .launch(
            |ctx| {
                for (tag, &len) in SIZES.iter().enumerate() {
                    let tag = tag as u32 + 1;
                    if ctx.rank() == 0 {
                        ctx.send_tagged(1, tag, &pattern(len, 1)).unwrap();
                        let (back, status) = ctx.recv_tagged(Some(3), tag).unwrap();
                        assert_eq!((status.source, status.tag, status.len), (3, tag, len));
                        assert_eq!(back, pattern(len, 2), "{len} B back at CPU 0");
                    } else {
                        let (got, status) = ctx.recv(3).unwrap();
                        assert_eq!((status.source, status.tag, status.len), (3, 0, len));
                        assert_eq!(got, pattern(len, 1), "{len} B at CPU 2");
                        ctx.send(3, &pattern(len, 2)).unwrap();
                    }
                }
            },
            |ctx| {
                let buf = DevicePtr::NULL.add(1 << 20);
                let b = ctx.block();
                let received = |status: CommStatus, src, tag, len, seed| {
                    assert_eq!((status.source, status.tag, status.len), (src, tag, len));
                    assert_eq!(b.read_vec(buf, len), pattern(len, seed), "{len} B");
                    assert_eq!(b.read_vec(buf.add(len), 8), [SENTINEL; 8], "{len} B");
                };
                for (tag, &len) in SIZES.iter().enumerate() {
                    let tag = tag as u32 + 1;
                    b.write(buf, &[SENTINEL; 4096 + 8]);
                    if ctx.rank(SLOT) == 1 {
                        let status = ctx.recv_tagged(SLOT, 0, tag, buf, 4096);
                        received(status, 0, tag, len, 1);
                        ctx.send_tagged(SLOT, 3, tag, buf, len);
                    } else {
                        let req = ctx.irecv_tagged(SLOT, 1, ANY_TAG, buf, 4096);
                        received(ctx.wait(req), 1, tag, len, 1);
                        let status = ctx.sendrecv_replace(SLOT, 2, 2, buf, len);
                        received(status, 2, 0, len, 2);
                        ctx.send_tagged(SLOT, 0, tag, buf, len);
                    }
                }
            },
        )
        .unwrap();
}

#[test]
fn a_message_larger_than_a_small_gpu_buffer_still_faults_truncated() {
    let runtime = Runtime::new(cpu_and_gpu()).unwrap();
    let result = runtime.launch(
        |ctx| {
            let _ = ctx.send(1, &[7; MAILBOX_INLINE_BYTES]);
        },
        |ctx| {
            let buf = DevicePtr::NULL.add(1 << 20);
            ctx.recv(SLOT, 0, buf, MAILBOX_INLINE_BYTES / 2);
        },
    );
    let truncated = format!("mailbox error {}", mailbox_error::TRUNCATED);
    match result {
        Err(DcgnError::Device(msg)) => assert!(msg.contains(&truncated), "unexpected: {msg}"),
        other => panic!("expected a truncation fault, got {other:?}"),
    }
}

/// One node, CPU rank 0 and a single-slot GPU (rank 1).
fn cpu_and_gpu() -> DcgnConfig {
    DcgnConfig::homogeneous(1, 1, 1, 1)
}

#[test]
fn depth_one_blocking_send_proceeds_with_an_irecv_outstanding() {
    // The slot's only nonblocking record is held by the irecv, which cannot
    // complete before the blocking send does: the CPU answers only after
    // receiving it.
    let runtime = Runtime::new(cpu_and_gpu().with_mailbox_depth(1)).unwrap();
    runtime
        .launch(
            |ctx| {
                let (ping, _) = ctx.recv(1).unwrap();
                assert_eq!(ping, [0xAB; 8]);
                ctx.send(1, &[0xCD; 16]).unwrap();
            },
            |ctx| {
                let buf = DevicePtr::NULL.add(1 << 20);
                let reply = ctx.irecv(SLOT, 0, buf.add(4096), 16);
                ctx.block().write(buf, &[0xAB; 8]);
                ctx.send(SLOT, 0, buf, 8);
                assert_eq!(ctx.wait(reply).len, 16);
                assert_eq!(ctx.block().read_vec(buf.add(4096), 16), vec![0xCD; 16]);
            },
        )
        .unwrap();
}

#[test]
fn blocking_barrier_proceeds_with_every_nonblocking_record_outstanding() {
    let depth = dcgn::gpu::MAILBOX_REQS_PER_SLOT;
    let runtime = Runtime::new(cpu_and_gpu()).unwrap();
    runtime
        .launch(
            move |ctx| {
                // The sends start only once the GPU slot is through the
                // barrier, so its irecvs are all still in flight there.
                ctx.barrier().unwrap();
                for tag in 0..depth as u32 {
                    ctx.send_tagged(1, tag, &[tag as u8; 32]).unwrap();
                }
            },
            move |ctx| {
                let buf = DevicePtr::NULL.add(1 << 20);
                let reqs: Vec<_> = (0..depth)
                    .map(|i| ctx.irecv_tagged(SLOT, 0, i as u32, buf.add(i * 64), 32))
                    .collect();
                ctx.barrier(SLOT);
                for (i, status) in ctx.waitall(&reqs).into_iter().enumerate() {
                    assert_eq!((status.tag, status.len), (i as u32, 32));
                    assert_eq!(ctx.block().read_vec(buf.add(i * 64), 32), vec![i as u8; 32]);
                }
            },
        )
        .unwrap();
}

#[test]
fn records_freed_out_of_index_order_still_deliver_in_publish_order() {
    // Each round frees record 2 before record 1, so its third send sits in
    // record 2 and its fourth, published right after, in record 1.  The
    // long poll interval lets one sweep find both; the receiver must still
    // see the sends as published.
    const ROUNDS: usize = 8;
    let config = cpu_and_gpu()
        .with_mailbox_depth(2)
        .with_poll_interval(Duration::from_millis(2));
    let runtime = Runtime::new(config).unwrap();
    let received = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&received);
    runtime
        .launch(
            move |ctx| {
                for _ in 0..4 * ROUNDS {
                    let (msg, _) = ctx.recv_tagged(Some(1), 7).unwrap();
                    log.lock().unwrap().push(msg[0] as usize);
                }
            },
            |ctx| {
                let buf = DevicePtr::NULL.add(1 << 20);
                let send = |i: usize| {
                    let at = buf.add(i * 64);
                    ctx.block().write(at, &[i as u8; 8]);
                    ctx.isend_tagged(SLOT, 0, 7, at, 8)
                };
                for round in 0..ROUNDS {
                    let i = 4 * round;
                    let first = send(i);
                    let second = send(i + 1);
                    ctx.wait(second);
                    let third = send(i + 2);
                    ctx.wait(first);
                    let fourth = send(i + 3);
                    ctx.waitall(&[third, fourth]);
                }
            },
        )
        .unwrap();
    let in_order: Vec<usize> = (0..4 * ROUNDS).collect();
    assert_eq!(*received.lock().unwrap(), in_order, "a send was overtaken");
}

#[test]
fn blocks_sharing_a_slot_serialise_their_barriers() {
    // Two blocks drive the one slot, so rank 1 enters four barriers; were
    // two ever in flight together, the comm thread would see rank 1 join
    // one collective twice and fail it.
    let mut runtime = Runtime::new(cpu_and_gpu().with_gpu_geometry(2, 1)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch(
            |ctx| {
                for _ in 0..4 {
                    ctx.barrier().unwrap();
                }
            },
            |ctx| {
                ctx.barrier(SLOT);
                ctx.barrier(SLOT);
            },
        )
        .unwrap();
}

#[test]
fn a_blocking_call_queued_behind_a_long_blocking_recv_is_not_faulted() {
    // Block 0 holds the slot's reserved record in a receive the CPU leaves
    // unanswered for longer than the ~5 s after which a *nonblocking*
    // publish that finds no free record faults.  Block 1's blocking send
    // queues behind it and must simply wait.
    const HOLD: Duration = Duration::from_millis(5500);
    let runtime = Runtime::new(cpu_and_gpu().with_gpu_geometry(2, 1)).unwrap();
    runtime
        .launch(
            |ctx| {
                std::thread::sleep(HOLD);
                ctx.send_tagged(1, 1, &[1u8; 8]).unwrap();
                let (queued, _) = ctx.recv_tagged(Some(1), 2).unwrap();
                assert_eq!(queued, [2u8; 8]);
            },
            |ctx| {
                let buf = DevicePtr::NULL.add(1 << 20);
                let flag = buf.add(4096);
                if ctx.block().block_id() == 0 {
                    ctx.block().write_u32(flag, 1);
                    ctx.recv_tagged(SLOT, 0, 1, buf, 8);
                } else {
                    // Block 0 claims the record within a few device-memory
                    // operations of raising the flag; give it a thousand
                    // times that.  The elapsed time below proves the order.
                    ctx.block().wait_for_u32(flag, 1);
                    std::thread::sleep(Duration::from_millis(50));
                    ctx.block().write(buf.add(64), &[2u8; 8]);
                    let queued_at = Instant::now();
                    ctx.send_tagged(SLOT, 0, 2, buf.add(64), 8);
                    assert!(
                        queued_at.elapsed() > Duration::from_secs(5),
                        "the send was not queued behind the receive"
                    );
                }
            },
        )
        .unwrap();
}

/// The reserved record's handle never leaves a blocking call, so it can be
/// neither waited on twice nor kept past its completion: the calls return
/// their result, not a `GpuRequest` (whose fields are private).
fn blocking_signatures<'a>(_ctx: &GpuCtx<'a>) {
    let _: fn(&GpuCtx<'a>, usize, usize, DevicePtr, usize) = GpuCtx::<'a>::send;
    let _: fn(&GpuCtx<'a>, usize, usize, DevicePtr, usize) -> CommStatus = GpuCtx::<'a>::recv;
    let _: fn(&GpuCtx<'a>, usize, usize, usize, DevicePtr, usize) -> CommStatus =
        GpuCtx::<'a>::sendrecv_replace;
    let _: fn(&GpuCtx<'a>, usize) = GpuCtx::<'a>::barrier;
    let _: fn(&GpuCtx<'a>, usize, usize, DevicePtr, usize) -> usize = GpuCtx::<'a>::broadcast;
}

#[test]
fn blocking_calls_hand_out_no_request_handle() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 0, 1, 1)).unwrap();
    runtime.launch_gpu_only(blocking_signatures).unwrap();
}
