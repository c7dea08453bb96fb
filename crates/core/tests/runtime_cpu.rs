//! Runtime-level tests with CPU-only ranks: point-to-point, collectives,
//! rank assignment visibility, and multi-node behaviour.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dcgn::{CostModel, DcgnConfig, DcgnError, NodeConfig, Runtime};

fn cpu_only(nodes: usize, cpus: usize) -> Runtime {
    Runtime::new(DcgnConfig::homogeneous(nodes, cpus, 0, 0)).unwrap()
}

#[test]
fn two_rank_ping_pong_across_nodes() {
    let runtime = cpu_only(2, 1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, b"ping").unwrap();
                let (pong, status) = ctx.recv(1).unwrap();
                log2.lock().unwrap().push((ctx.rank(), pong, status.source));
            } else {
                let (ping, status) = ctx.recv(0).unwrap();
                ctx.send(0, b"pong").unwrap();
                log2.lock().unwrap().push((ctx.rank(), ping, status.source));
            }
        })
        .unwrap();
    let mut entries = log.lock().unwrap().clone();
    entries.sort();
    assert_eq!(entries[0], (0, b"pong".to_vec(), 1));
    assert_eq!(entries[1], (1, b"ping".to_vec(), 0));
}

#[test]
fn a_maximal_request_timeout_waits_without_overflow() {
    // `Duration::MAX` means "never time out": the deadline saturates instead
    // of overflowing the clock on the first blocking call.
    let mut runtime = cpu_only(2, 1);
    runtime.set_request_timeout(std::time::Duration::MAX);
    runtime
        .launch_cpu_only(|ctx| {
            let peer = 1 - ctx.rank();
            for i in 0..4u8 {
                if ctx.rank() == 0 {
                    ctx.send(peer, &[i]).unwrap();
                    assert_eq!(ctx.recv(peer).unwrap().0, [i]);
                } else {
                    let (data, _) = ctx.recv(peer).unwrap();
                    ctx.send(peer, &data).unwrap();
                }
            }
        })
        .unwrap();
}

#[test]
fn intra_node_ping_pong() {
    // Both ranks on one node: the comm thread must match locally without MPI.
    let runtime = cpu_only(1, 2);
    let ok = Arc::new(AtomicUsize::new(0));
    let ok2 = Arc::clone(&ok);
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, b"local ping").unwrap();
                let (pong, _) = ctx.recv(1).unwrap();
                assert_eq!(pong, b"local pong");
            } else {
                let (ping, _) = ctx.recv(0).unwrap();
                assert_eq!(ping, b"local ping");
                ctx.send(0, b"local pong").unwrap();
            }
            ok2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(ok.load(Ordering::SeqCst), 2);
}

#[test]
fn rank_and_size_visible_to_kernels() {
    let runtime = cpu_only(3, 2);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    runtime
        .launch_cpu_only(move |ctx| {
            seen2
                .lock()
                .unwrap()
                .push((ctx.rank(), ctx.size(), ctx.node()));
        })
        .unwrap();
    let mut entries = seen.lock().unwrap().clone();
    entries.sort();
    assert_eq!(entries.len(), 6);
    for (i, (rank, size, node)) in entries.iter().enumerate() {
        assert_eq!(*rank, i);
        assert_eq!(*size, 6);
        assert_eq!(*node, i / 2);
    }
}

#[test]
fn barrier_synchronises_all_ranks() {
    let runtime = cpu_only(2, 2);
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    runtime
        .launch_cpu_only(move |ctx| {
            c.fetch_add(1, Ordering::SeqCst);
            ctx.barrier().unwrap();
            assert_eq!(c.load(Ordering::SeqCst), 4);
            ctx.barrier().unwrap();
        })
        .unwrap();
}

#[test]
fn repeated_barriers_do_not_cross_talk() {
    let runtime = cpu_only(2, 1);
    runtime
        .launch_cpu_only(move |ctx| {
            for _ in 0..10 {
                ctx.barrier().unwrap();
            }
        })
        .unwrap();
}

#[test]
fn broadcast_from_each_root() {
    for root in 0..4 {
        let runtime = cpu_only(2, 2);
        let results = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&results);
        runtime
            .launch_cpu_only(move |ctx| {
                let mut data = if ctx.rank() == root {
                    vec![root as u8; 1000]
                } else {
                    Vec::new()
                };
                ctx.broadcast(root, &mut data).unwrap();
                r2.lock().unwrap().push(data);
            })
            .unwrap();
        for data in results.lock().unwrap().iter() {
            assert_eq!(data, &vec![root as u8; 1000]);
        }
    }
}

#[test]
fn gather_collects_in_rank_order_at_root() {
    let runtime = cpu_only(2, 2);
    let gathered = Arc::new(Mutex::new(None));
    let g2 = Arc::clone(&gathered);
    runtime
        .launch_cpu_only(move |ctx| {
            let mine = vec![ctx.rank() as u8; ctx.rank() + 1];
            let result = ctx.gather(2, &mine).unwrap();
            if ctx.rank() == 2 {
                *g2.lock().unwrap() = result;
            } else {
                assert!(result.is_none());
            }
        })
        .unwrap();
    let chunks = gathered
        .lock()
        .unwrap()
        .clone()
        .expect("root collected data");
    assert_eq!(chunks.len(), 4);
    for (rank, chunk) in chunks.iter().enumerate() {
        assert_eq!(chunk, &vec![rank as u8; rank + 1]);
    }
}

#[test]
fn sendrecv_replace_symmetric_exchange() {
    let runtime = cpu_only(2, 2);
    let results = Arc::new(Mutex::new(vec![Vec::new(); 4]));
    let r2 = Arc::clone(&results);
    runtime
        .launch_cpu_only(move |ctx| {
            // Ring rotation: every rank sends to the next and receives from
            // the previous, all simultaneously (the Cannon pattern).
            let n = ctx.size();
            let next = (ctx.rank() + 1) % n;
            let prev = (ctx.rank() + n - 1) % n;
            let mut buf = vec![ctx.rank() as u8; 64];
            ctx.sendrecv_replace(&mut buf, next, prev).unwrap();
            r2.lock().unwrap()[ctx.rank()] = buf;
        })
        .unwrap();
    let results = results.lock().unwrap();
    for rank in 0..4 {
        let prev = (rank + 3) % 4;
        assert_eq!(results[rank], vec![prev as u8; 64]);
    }
}

#[test]
fn large_messages_cross_nodes() {
    let runtime = cpu_only(2, 1);
    let payload: Vec<u8> = (0..300_000).map(|i| (i % 241) as u8).collect();
    let expected = payload.clone();
    let ok = Arc::new(AtomicUsize::new(0));
    let ok2 = Arc::clone(&ok);
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, &payload).unwrap();
            } else {
                let (data, status) = ctx.recv(0).unwrap();
                assert_eq!(status.len, expected.len());
                assert_eq!(data, expected);
                ok2.fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
    assert_eq!(ok.load(Ordering::SeqCst), 1);
}

#[test]
fn recv_any_matches_first_arrival() {
    let runtime = cpu_only(1, 3);
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                let mut sources = Vec::new();
                for _ in 0..2 {
                    let (_, status) = ctx.recv_any().unwrap();
                    sources.push(status.source);
                }
                sources.sort();
                assert_eq!(sources, vec![1, 2]);
            } else {
                ctx.send(0, &[ctx.rank() as u8]).unwrap();
            }
        })
        .unwrap();
}

#[test]
fn tagged_messages_are_separated() {
    let runtime = cpu_only(2, 1);
    runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                ctx.send_tagged(1, 7, b"seven").unwrap();
                ctx.send_tagged(1, 8, b"eight").unwrap();
            } else {
                // Receive in reverse tag order.
                let (eight, _) = ctx.recv_tagged(Some(0), 8).unwrap();
                let (seven, _) = ctx.recv_tagged(Some(0), 7).unwrap();
                assert_eq!(eight, b"eight");
                assert_eq!(seven, b"seven");
            }
        })
        .unwrap();
}

#[test]
fn invalid_destination_rank_is_reported() {
    let runtime = cpu_only(1, 1);
    let result = runtime.launch_cpu_only(move |ctx| {
        assert!(matches!(
            ctx.send(99, b"x"),
            Err(DcgnError::InvalidRank(99))
        ));
        assert!(matches!(ctx.recv(42), Err(DcgnError::InvalidRank(42))));
    });
    result.unwrap();
}

#[test]
fn paper_example_cluster_rank_layout_is_exposed() {
    // Four nodes with 2 CPUs + 2 GPUs (1 slot each): §3.2.2's twenty-thread /
    // sixteen-rank example.  Here we only check the map; GPU execution is
    // covered by the GPU runtime tests.
    let cfg = DcgnConfig::homogeneous(4, 2, 2, 1);
    let runtime = Runtime::new(cfg).unwrap();
    let map = runtime.rank_map();
    assert_eq!(map.total_ranks(), 16);
    assert_eq!(map.gpu_ranks().len(), 8);
    assert_eq!(map.cpu_ranks().len(), 8);
}

#[test]
fn heterogeneous_nodes_launch() {
    let cfg = DcgnConfig::heterogeneous(vec![NodeConfig::new(2, 0, 0), NodeConfig::new(1, 0, 0)]);
    let runtime = Runtime::new(cfg).unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    runtime
        .launch_cpu_only(move |ctx| {
            ctx.barrier().unwrap();
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 3);
}

#[test]
fn launch_with_realistic_cost_model() {
    let cfg = DcgnConfig::homogeneous(2, 1, 0, 0).with_cost(CostModel::g92_scaled(50.0));
    let runtime = Runtime::new(cfg).unwrap();
    let report = runtime
        .launch_cpu_only(move |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, &[1u8; 4096]).unwrap();
            } else {
                let (data, _) = ctx.recv(0).unwrap();
                assert_eq!(data.len(), 4096);
            }
            ctx.barrier().unwrap();
        })
        .unwrap();
    assert!(report.elapsed.as_micros() > 0);
    assert!(report.gpu_poll_stats.is_empty());
}

#[test]
fn many_messages_between_many_ranks() {
    let runtime = cpu_only(2, 2);
    runtime
        .launch_cpu_only(move |ctx| {
            let n = ctx.size();
            // Pairwise exchange, 5 rounds: within each pair the lower rank
            // sends first, the higher rank receives first.  Intra-node sends
            // only complete when the matching receive is posted (§6.2), so
            // the pattern must avoid head-to-head blocking sends.
            for round in 0..5u8 {
                for peer in 0..n {
                    if peer == ctx.rank() {
                        continue;
                    }
                    if ctx.rank() < peer {
                        ctx.send_tagged(peer, round as u32, &[ctx.rank() as u8, round])
                            .unwrap();
                        let (data, _) = ctx.recv_tagged(Some(peer), round as u32).unwrap();
                        assert_eq!(data, vec![peer as u8, round]);
                    } else {
                        let (data, _) = ctx.recv_tagged(Some(peer), round as u32).unwrap();
                        assert_eq!(data, vec![peer as u8, round]);
                        ctx.send_tagged(peer, round as u32, &[ctx.rank() as u8, round])
                            .unwrap();
                    }
                }
            }
        })
        .unwrap();
}
