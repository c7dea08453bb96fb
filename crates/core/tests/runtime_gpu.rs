//! Runtime-level tests exercising GPU slots: device-sourced sends/receives,
//! GPU↔CPU traffic, collectives joined from kernels, and multi-slot
//! virtualisation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dcgn::{CostModel, DcgnConfig, DeviceConfig, Runtime};

/// GPU-only config: `nodes` nodes, each with `gpus` GPUs of `slots` slots.
fn gpu_only(nodes: usize, gpus: usize, slots: usize) -> Runtime {
    Runtime::new(DcgnConfig::homogeneous(nodes, 0, gpus, slots)).unwrap()
}

#[test]
fn gpu_to_gpu_ping_pong_across_nodes() {
    // Mirrors Figure 1 of the paper: two GPU ranks exchange a buffer.
    let runtime = gpu_only(2, 1, 1);
    let checks = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&checks);
    runtime
        .launch_gpu_only(move |ctx| {
            const SLOT: usize = 0;
            let block = ctx.block();
            if block.block_id() != 0 {
                return;
            }
            let mem = ctx.block();
            // Scratch region in device global memory, well past the mailbox
            // allocation (applications normally stage buffers through the
            // GPU setup hook; see the multi-slot test below).
            let scratch = dcgn::DevicePtr::NULL.add(32 * 1024);
            if ctx.rank(SLOT) == 0 {
                mem.write(scratch, b"gpu ping");
                ctx.send(SLOT, 1, scratch, 8);
                let status = ctx.recv(SLOT, 1, scratch, 8);
                assert_eq!(status.len, 8);
                assert_eq!(mem.read_vec(scratch, 8), b"gpu pong");
            } else {
                let status = ctx.recv(SLOT, 0, scratch, 8);
                assert_eq!(status.len, 8);
                assert_eq!(mem.read_vec(scratch, 8), b"gpu ping");
                mem.write(scratch, b"gpu pong");
                ctx.send(SLOT, 0, scratch, 8);
            }
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(checks.load(Ordering::SeqCst), 2);
}

#[test]
fn cpu_to_gpu_and_gpu_to_cpu_messages() {
    // One node with one CPU rank (rank 0) and one GPU slot (rank 1).
    let runtime = Runtime::new(DcgnConfig::homogeneous(1, 1, 1, 1)).unwrap();
    let cpu_saw = Arc::new(Mutex::new(Vec::new()));
    let cpu_saw2 = Arc::clone(&cpu_saw);
    runtime
        .launch(
            move |ctx| {
                // CPU rank 0: send to the GPU slot and get a reply.
                ctx.send(1, b"to the gpu").unwrap();
                let (reply, status) = ctx.recv(1).unwrap();
                assert_eq!(status.source, 1);
                cpu_saw2.lock().unwrap().push(reply);
            },
            move |ctx| {
                let block = ctx.block();
                if block.block_id() != 0 {
                    return;
                }
                let scratch = dcgn::DevicePtr::NULL.add(48 * 1024);
                let status = ctx.recv(0, 0, scratch, 64);
                assert_eq!(status.source, 0);
                assert_eq!(status.len, 10);
                assert_eq!(block.read_vec(scratch, 10), b"to the gpu");
                block.write(scratch, b"from the gpu");
                ctx.send(0, 0, scratch, 12);
            },
        )
        .unwrap();
    assert_eq!(
        cpu_saw.lock().unwrap().clone(),
        vec![b"from the gpu".to_vec()]
    );
}

#[test]
fn multiple_slots_per_gpu_are_distinct_ranks() {
    // One GPU virtualised into 3 slots plus one CPU rank that talks to each
    // slot individually.
    let cfg = DcgnConfig::homogeneous(1, 1, 1, 3)
        .with_device(DeviceConfig::default().with_multiprocessors(4));
    let runtime = Runtime::new(cfg).unwrap();
    assert_eq!(runtime.rank_map().total_ranks(), 4);
    let received = Arc::new(Mutex::new(Vec::new()));
    let received2 = Arc::clone(&received);
    runtime
        .launch(
            move |ctx| {
                // CPU rank 0 sends a distinct value to each GPU slot rank and
                // collects replies.
                for slot_rank in 1..=3usize {
                    ctx.send(slot_rank, &[slot_rank as u8 * 7]).unwrap();
                }
                for _ in 0..3 {
                    let (data, status) = ctx.recv_any().unwrap();
                    received2.lock().unwrap().push((status.source, data[0]));
                }
            },
            move |ctx| {
                // Default geometry: one block per slot; block b drives slot b.
                let slot = ctx.slot_for_block();
                let block = ctx.block();
                let scratch = dcgn::DevicePtr::NULL.add(16 * 1024 + slot * 256);
                let status = ctx.recv(slot, 0, scratch, 16);
                assert_eq!(status.len, 1);
                let v = block.read_vec(scratch, 1)[0];
                // Echo back double the value.
                block.write(scratch, &[v.wrapping_mul(2)]);
                ctx.send(slot, 0, scratch, 1);
            },
        )
        .unwrap();
    let mut results = received.lock().unwrap().clone();
    results.sort();
    assert_eq!(results, vec![(1, 14), (2, 28), (3, 42)]);
}

#[test]
fn gpu_slots_participate_in_barrier_and_broadcast() {
    // Two nodes, each with one CPU rank and one GPU slot: collectives must
    // span heterogeneous rank kinds.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let cpu_results = Arc::new(Mutex::new(Vec::new()));
    let cpu_results2 = Arc::clone(&cpu_results);
    runtime
        .launch(
            move |ctx| {
                ctx.barrier().unwrap();
                // CPU rank 0 is the broadcast root.
                let mut data = if ctx.rank() == 0 {
                    vec![0xAB; 256]
                } else {
                    Vec::new()
                };
                ctx.broadcast(0, &mut data).unwrap();
                cpu_results2.lock().unwrap().push(data);
                ctx.barrier().unwrap();
            },
            move |ctx| {
                let block = ctx.block();
                if block.block_id() != 0 {
                    return;
                }
                const SLOT: usize = 0;
                ctx.barrier(SLOT);
                let scratch = dcgn::DevicePtr::NULL.add(64 * 1024);
                let got = ctx.broadcast(SLOT, 0, scratch, 256);
                assert_eq!(got, 256);
                assert_eq!(block.read_vec(scratch, 256), vec![0xAB; 256]);
                ctx.barrier(SLOT);
            },
        )
        .unwrap();
    let cpu_results = cpu_results.lock().unwrap();
    assert_eq!(cpu_results.len(), 2);
    for data in cpu_results.iter() {
        assert_eq!(data, &vec![0xAB; 256]);
    }
}

#[test]
fn gpu_broadcast_with_gpu_root() {
    // The broadcast root is a GPU slot; CPU ranks receive its device data.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let map = runtime.rank_map().clone();
    let gpu_root = map.gpu_ranks()[0];
    let cpu_results = Arc::new(Mutex::new(Vec::new()));
    let cpu_results2 = Arc::clone(&cpu_results);
    runtime
        .launch(
            move |ctx| {
                let mut data = Vec::new();
                ctx.broadcast(gpu_root, &mut data).unwrap();
                cpu_results2.lock().unwrap().push(data);
            },
            move |ctx| {
                let block = ctx.block();
                if block.block_id() != 0 {
                    return;
                }
                const SLOT: usize = 0;
                let scratch = dcgn::DevicePtr::NULL.add(8 * 1024);
                if ctx.rank(SLOT) == gpu_root {
                    block.write(scratch, b"device payload");
                    ctx.broadcast(SLOT, gpu_root, scratch, 14);
                } else {
                    let got = ctx.broadcast(SLOT, gpu_root, scratch, 64);
                    assert_eq!(got, 14);
                    assert_eq!(block.read_vec(scratch, 14), b"device payload");
                }
            },
        )
        .unwrap();
    let cpu_results = cpu_results.lock().unwrap();
    assert_eq!(cpu_results.len(), 2);
    for data in cpu_results.iter() {
        assert_eq!(data, b"device payload");
    }
}

#[test]
fn gpu_setup_and_finish_hooks_manage_device_memory() {
    // The full application shape: the setup hook allocates and stages device
    // buffers, the kernel communicates through them, the finish hook reads
    // results back to the host.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 0, 1, 1)).unwrap();
    let results = Arc::new(Mutex::new(Vec::new()));
    let results2 = Arc::clone(&results);
    runtime
        .launch_with_gpu_setup(
            |_cpu| {},
            |setup| {
                // Allocate a 64-byte exchange buffer and stage this GPU's
                // rank into it.
                let dev = setup.device();
                let buf = dev.malloc(64).unwrap();
                let rank = setup.slot_rank(0) as u8;
                dev.memcpy_htod(buf, &[rank; 64]).unwrap();
                buf
            },
            |ctx, buf| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                const SLOT: usize = 0;
                let me = ctx.rank(SLOT);
                let peer = 1 - me;
                // Symmetric exchange staged entirely in device memory.
                if me == 0 {
                    ctx.send(SLOT, peer, *buf, 64);
                    ctx.recv(SLOT, peer, *buf, 64);
                } else {
                    let tmp = buf.add(0);
                    let status = ctx.recv(SLOT, peer, tmp, 64);
                    assert_eq!(status.len, 64);
                    // Reply with our own rank pattern afterwards (the recv
                    // overwrote the buffer, so rebuild it).
                    ctx.block().write(tmp, &[me as u8 + 10; 64]);
                    ctx.send(SLOT, peer, tmp, 64);
                }
            },
            {
                let results = Arc::clone(&results2);
                move |setup, buf| {
                    let back = setup.device().memcpy_dtoh_vec(*buf, 64).unwrap();
                    results.lock().unwrap().push((setup.slot_rank(0), back[0]));
                }
            },
        )
        .unwrap();
    let mut r = results.lock().unwrap().clone();
    r.sort();
    // Rank 0's buffer ends up holding rank 1's reply pattern (11); rank 1
    // rebuilt its buffer with the same pattern before sending, so both
    // devices finish with the value 11 staged in memory.
    assert_eq!(r, vec![(0, 11), (1, 11)]);
}

#[test]
fn gpu_poll_stats_are_reported() {
    let cfg = DcgnConfig::homogeneous(1, 1, 1, 1).with_cost(CostModel::zero());
    let runtime = Runtime::new(cfg).unwrap();
    let report = runtime
        .launch(
            move |ctx| {
                ctx.send(1, b"x").unwrap();
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let scratch = dcgn::DevicePtr::NULL.add(4096);
                ctx.recv(0, 0, scratch, 8);
            },
        )
        .unwrap();
    assert_eq!(report.gpu_poll_stats.len(), 1);
    let stats = &report.gpu_poll_stats[0];
    assert!(stats.polls >= 1);
    assert!(stats.requests >= 1);
    assert!(stats.wall >= stats.busy);
}

#[test]
fn eight_gpu_job_matches_paper_testbed_shape() {
    // The paper's testbed: 4 nodes x 2 GPUs (1 slot each), no CPU ranks.
    // Every GPU slot enters a barrier and sends its rank to rank 0.
    let runtime = gpu_only(4, 2, 1);
    assert_eq!(runtime.rank_map().total_ranks(), 8);
    let sum = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&sum);
    runtime
        .launch_gpu_only(move |ctx| {
            let block = ctx.block();
            if block.block_id() != 0 {
                return;
            }
            const SLOT: usize = 0;
            let me = ctx.rank(SLOT);
            ctx.barrier(SLOT);
            let scratch = dcgn::DevicePtr::NULL.add(1024);
            if me == 0 {
                let mut total = 0usize;
                for _ in 1..ctx.size() {
                    let status = ctx.recv_any(SLOT, scratch, 8);
                    assert_eq!(status.len, 8);
                    total +=
                        u64::from_le_bytes(block.read_vec(scratch, 8).try_into().unwrap()) as usize;
                }
                s.store(total, Ordering::SeqCst);
            } else {
                block.write(scratch, &(me as u64).to_le_bytes());
                ctx.send(SLOT, 0, scratch, 8);
            }
            ctx.barrier(SLOT);
        })
        .unwrap();
    assert_eq!(sum.load(Ordering::SeqCst), (1..8).sum::<usize>());
}
