//! Cross-crate integration: DCGN collectives spanning CPU ranks and GPU
//! slots on multiple nodes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dcgn::{DcgnConfig, DevicePtr, ReduceOp, Runtime};

#[test]
fn barrier_over_mixed_ranks_and_nodes() {
    // 2 nodes x (1 CPU + 1 GPU slot): 4 ranks of two kinds.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let counter = Arc::new(AtomicUsize::new(0));
    let (c_cpu, c_gpu) = (Arc::clone(&counter), Arc::clone(&counter));
    runtime
        .launch(
            move |ctx| {
                c_cpu.fetch_add(1, Ordering::SeqCst);
                ctx.barrier().unwrap();
                assert_eq!(c_cpu.load(Ordering::SeqCst), 4);
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                c_gpu.fetch_add(1, Ordering::SeqCst);
                ctx.barrier(0);
                assert_eq!(c_gpu.load(Ordering::SeqCst), 4);
            },
        )
        .unwrap();
}

#[test]
fn broadcast_cpu_root_reaches_gpu_slots() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let payload: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
    let expected_cpu = payload.clone();
    let expected_gpu = payload.clone();
    let seen = Arc::new(AtomicUsize::new(0));
    let (seen_cpu, seen_gpu) = (Arc::clone(&seen), Arc::clone(&seen));
    runtime
        .launch(
            move |ctx| {
                let mut data = if ctx.rank() == 0 {
                    payload.clone()
                } else {
                    Vec::new()
                };
                ctx.broadcast(0, &mut data).unwrap();
                assert_eq!(data, expected_cpu);
                seen_cpu.fetch_add(1, Ordering::SeqCst);
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(8 * 1024);
                let got = ctx.broadcast(0, 0, buf, 512);
                assert_eq!(got, 512);
                assert_eq!(ctx.block().read_vec(buf, 512), expected_gpu);
                seen_gpu.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 4);
}

#[test]
fn incomplete_collective_fails_rather_than_hanging() {
    // A gather in which the GPU slots never join must NOT complete: the
    // launch reports an error (the CPU ranks time out / are failed at
    // shutdown) instead of silently succeeding or deadlocking.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    runtime.set_request_timeout(std::time::Duration::from_secs(2));
    let gathered = Arc::new(Mutex::new(None));
    let g = Arc::clone(&gathered);
    let result = runtime.launch(
        move |ctx| {
            let mine = vec![ctx.rank() as u8; 3];
            let out = ctx
                .gather(0, &mine)
                .expect("gather should fail, not succeed");
            if ctx.rank() == 0 {
                *g.lock().unwrap() = out;
            }
        },
        move |_ctx| {
            // GPU slots intentionally never join the collective.
        },
    );
    assert!(result.is_err());
    assert!(gathered.lock().unwrap().is_none());
}

#[test]
fn gather_with_cpu_only_ranks_completes() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
    let gathered = Arc::new(Mutex::new(None));
    let g = Arc::clone(&gathered);
    runtime
        .launch_cpu_only(move |ctx| {
            let mine = vec![ctx.rank() as u8 + 1];
            let out = ctx.gather(3, &mine).unwrap();
            if ctx.rank() == 3 {
                *g.lock().unwrap() = out;
            }
        })
        .unwrap();
    let chunks = gathered.lock().unwrap().clone().unwrap();
    assert_eq!(chunks, vec![vec![1], vec![2], vec![3], vec![4]]);
}

#[test]
fn broadcast_gpu_root_feeds_everyone() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let map = runtime.rank_map().clone();
    let gpu_root = map.gpu_ranks()[0];
    let cpu_seen = Arc::new(Mutex::new(Vec::new()));
    let cs = Arc::clone(&cpu_seen);
    runtime
        .launch(
            move |ctx| {
                let mut data = Vec::new();
                ctx.broadcast(gpu_root, &mut data).unwrap();
                cs.lock().unwrap().push(data.len());
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(4 * 1024);
                if ctx.rank(0) == gpu_root {
                    ctx.block().write(buf, &[9u8; 100]);
                    ctx.broadcast(0, gpu_root, buf, 100);
                } else {
                    let got = ctx.broadcast(0, gpu_root, buf, 128);
                    assert_eq!(got, 100);
                }
            },
        )
        .unwrap();
    assert_eq!(cpu_seen.lock().unwrap().clone(), vec![100, 100]);
}

#[test]
fn allreduce_spans_cpu_and_gpu_ranks() {
    // 2 nodes x (1 CPU + 1 GPU slot): rank r contributes [r+1, 2(r+1)];
    // the sum over ranks 0..4 is [10, 20] and must land everywhere.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let results = Arc::new(Mutex::new(Vec::new()));
    let (r_cpu, r_gpu) = (Arc::clone(&results), Arc::clone(&results));
    runtime
        .launch(
            move |ctx| {
                let mine = vec![(ctx.rank() + 1) as f64, 2.0 * (ctx.rank() + 1) as f64];
                let sum = ctx.allreduce(&mine, ReduceOp::Sum).unwrap();
                r_cpu.lock().unwrap().push(sum);
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let rank = ctx.rank(0);
                let buf = DevicePtr::NULL.add(1 << 20);
                let mine = [(rank + 1) as f64, 2.0 * (rank + 1) as f64];
                let bytes: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
                ctx.block().write(buf, &bytes);
                let got = ctx.allreduce(0, ReduceOp::Sum, buf, 2);
                assert_eq!(got, 16);
                let back = ctx.block().read_vec(buf, 16);
                let sum: Vec<f64> = back
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                r_gpu.lock().unwrap().push(sum);
            },
        )
        .unwrap();
    let results = results.lock().unwrap().clone();
    assert_eq!(results.len(), 4);
    for sum in results {
        assert_eq!(sum, vec![10.0, 20.0]);
    }
}

#[test]
fn scatter_from_gpu_root_reaches_cpu_ranks() {
    // The scatter root is a GPU slot: chunks staged in device memory must
    // come back out to CPU ranks on both nodes.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let map = runtime.rank_map().clone();
    let gpu_root = map.gpu_ranks()[0];
    let runtime_total = map.total_ranks();
    runtime
        .launch(
            move |ctx| {
                let mine = ctx.scatter(gpu_root, None).unwrap();
                assert_eq!(mine, vec![ctx.rank() as u8 * 3 + 1; 4]);
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let rank = ctx.rank(0);
                let buf = DevicePtr::NULL.add(1 << 20);
                if rank == gpu_root {
                    for r in 0..runtime_total {
                        ctx.block().write(buf.add(r * 4), &[r as u8 * 3 + 1; 4]);
                    }
                }
                let got = ctx.scatter(0, gpu_root, buf, 4);
                assert_eq!(got, 4);
                assert_eq!(ctx.block().read_vec(buf, 4), vec![rank as u8 * 3 + 1; 4]);
            },
        )
        .unwrap();
}

#[test]
fn allgather_collects_chunks_from_both_kinds() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let total = runtime.rank_map().total_ranks();
    let seen = Arc::new(AtomicUsize::new(0));
    let (s_cpu, s_gpu) = (Arc::clone(&seen), Arc::clone(&seen));
    runtime
        .launch(
            move |ctx| {
                let chunks = ctx.allgather(&[ctx.rank() as u8 + 10; 3]).unwrap();
                assert_eq!(chunks.len(), total);
                for (r, chunk) in chunks.iter().enumerate() {
                    assert_eq!(chunk, &vec![r as u8 + 10; 3]);
                }
                s_cpu.fetch_add(1, Ordering::SeqCst);
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let rank = ctx.rank(0);
                let buf = DevicePtr::NULL.add(2 << 20);
                ctx.block().write(buf.add(rank * 3), &[rank as u8 + 10; 3]);
                let got = ctx.allgather(0, buf, 3);
                assert_eq!(got, 3 * ctx.size());
                let table = ctx.block().read_vec(buf, 3 * ctx.size());
                for r in 0..ctx.size() {
                    assert_eq!(&table[r * 3..r * 3 + 3], &[r as u8 + 10; 3]);
                }
                s_gpu.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 4);
}

#[test]
fn reduce_to_cpu_root_includes_gpu_contributions() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let total = runtime.rank_map().total_ranks();
    let reduced = Arc::new(Mutex::new(None));
    let r = Arc::clone(&reduced);
    runtime
        .launch(
            move |ctx| {
                let mine = vec![(ctx.rank() + 1) as f64];
                let out = ctx.reduce(0, &mine, ReduceOp::Max).unwrap();
                if ctx.rank() == 0 {
                    *r.lock().unwrap() = out;
                } else {
                    assert!(out.is_none());
                }
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let rank = ctx.rank(0);
                let buf = DevicePtr::NULL.add(3 << 20);
                ctx.block().write(buf, &((rank + 1) as f64).to_le_bytes());
                let got = ctx.reduce(0, 0, ReduceOp::Max, buf, 1);
                assert_eq!(got, 0, "non-root GPU slots receive no reduction");
            },
        )
        .unwrap();
    // Max over ranks 0..total of (rank + 1): the highest rank is a GPU slot,
    // so the result proves GPU contributions flowed into the reduction.
    assert_eq!(reduced.lock().unwrap().clone(), Some(vec![total as f64]));
}

#[test]
fn mismatched_collectives_error_cleanly() {
    // Rank 0 calls allgather while rank 1 calls allreduce: the comm thread
    // must reject the mismatch rather than deadlocking or crashing.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 2, 0, 0)).unwrap();
    runtime.set_request_timeout(std::time::Duration::from_secs(2));
    let result = runtime.launch_cpu_only(move |ctx| {
        if ctx.rank() == 0 {
            ctx.allgather(&[1, 2, 3]).unwrap();
        } else {
            ctx.allreduce(&[1.0], ReduceOp::Sum).unwrap();
        }
    });
    assert!(result.is_err());
}

#[test]
fn repeated_mixed_collectives() {
    // Alternating barriers and broadcasts across several iterations, from
    // both CPU and GPU ranks, to catch cross-round state leaks.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    runtime
        .launch(
            move |ctx| {
                for round in 0..4u8 {
                    ctx.barrier().unwrap();
                    let mut data = if ctx.rank() == 0 {
                        vec![round; 64]
                    } else {
                        Vec::new()
                    };
                    ctx.broadcast(0, &mut data).unwrap();
                    assert_eq!(data, vec![round; 64]);
                }
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let buf = DevicePtr::NULL.add(2 * 1024);
                for round in 0..4u8 {
                    ctx.barrier(0);
                    let got = ctx.broadcast(0, 0, buf, 64);
                    assert_eq!(got, 64);
                    assert_eq!(ctx.block().read_vec(buf, 64), vec![round; 64]);
                }
            },
        )
        .unwrap();
}

// ---------------------------------------------------------------------------
// Typed collectives: reduce/allreduce over every supported element type.
// ---------------------------------------------------------------------------

/// Round-trip one typed allreduce + rooted reduce over mixed CPU/GPU ranks:
/// 2 nodes x (1 CPU + 1 GPU slot).  Rank r contributes `input(r)`; everyone
/// must observe `expected` (CPU via the generic `_t` API, GPU via the
/// dtype-tagged in-place device API).
fn typed_reduce_roundtrip<T>(op: ReduceOp, input: fn(usize) -> Vec<T>, expected: Vec<T>)
where
    T: dcgn::ReduceElement + std::fmt::Debug + PartialEq,
{
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let expected_cpu = expected.clone();
    let expected_gpu = expected.clone();
    let checks = Arc::new(AtomicUsize::new(0));
    let (c_cpu, c_gpu) = (Arc::clone(&checks), Arc::clone(&checks));
    runtime
        .launch(
            move |ctx| {
                let mine = input(ctx.rank());
                let all = ctx.allreduce(&mine, op).unwrap();
                assert_eq!(all, expected_cpu);
                let rooted = ctx.reduce(0, &mine, op).unwrap();
                if ctx.rank() == 0 {
                    assert_eq!(rooted.unwrap(), expected_cpu);
                } else {
                    assert!(rooted.is_none());
                }
                c_cpu.fetch_add(1, Ordering::SeqCst);
            },
            move |ctx| {
                if ctx.block().block_id() != 0 {
                    return;
                }
                let rank = ctx.rank(0);
                let mine = input(rank);
                let count = mine.len();
                let dtype = T::DTYPE;
                let buf = DevicePtr::NULL.add(1 << 20);
                ctx.block().write(buf, &T::slice_to_bytes(&mine));
                let got = ctx.allreduce_in(0, &ctx.world_comm(0), op, dtype, buf, count);
                assert_eq!(got, count * dtype.element_bytes());
                let back = T::vec_from_bytes(&ctx.block().read_vec(buf, got));
                assert_eq!(back, expected_gpu);
                // Rooted variant: refill and reduce to global rank 0.
                ctx.block().write(buf, &T::slice_to_bytes(&mine));
                let got = ctx.reduce_in(0, &ctx.world_comm(0), 0, op, dtype, buf, count);
                assert_eq!(got, 0, "non-root GPU slots receive nothing");
                c_gpu.fetch_add(1, Ordering::SeqCst);
            },
        )
        .unwrap();
    assert_eq!(checks.load(Ordering::SeqCst), 4);
}

#[test]
fn typed_allreduce_f64_sum() {
    typed_reduce_roundtrip::<f64>(
        ReduceOp::Sum,
        |r| vec![(r + 1) as f64, 0.5 * (r + 1) as f64],
        vec![10.0, 5.0],
    );
}

#[test]
fn typed_allreduce_f32_max() {
    typed_reduce_roundtrip::<f32>(
        ReduceOp::Max,
        |r| vec![r as f32 - 1.5, -(r as f32)],
        vec![1.5, 0.0],
    );
}

#[test]
fn typed_allreduce_u32_min() {
    typed_reduce_roundtrip::<u32>(
        ReduceOp::Min,
        |r| vec![10 + r as u32, u32::MAX - r as u32],
        vec![10, u32::MAX - 3],
    );
}

#[test]
fn typed_allreduce_i64_sum() {
    typed_reduce_roundtrip::<i64>(
        ReduceOp::Sum,
        // Values beyond f64's 2^53 integer range: an f64-converting
        // implementation would corrupt them.
        |r| vec![(1i64 << 60) + r as i64, -(r as i64)],
        vec![(1i64 << 62) + 6, -6],
    );
}

#[test]
fn typed_reduce_dtype_disagreement_is_a_collective_mismatch() {
    // Two ranks on one node join "allreduce" with the same operator but
    // different element types: the dtype is part of the collective identity,
    // so the late joiner must fail with a mismatch instead of folding
    // mismatched bytes.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 2, 0, 0)).unwrap();
    // The first joiner's assembly can never complete; let its request time
    // out quickly instead of waiting out the default two minutes.
    runtime.set_request_timeout(std::time::Duration::from_millis(500));
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    let result = runtime.launch_cpu_only(move |ctx| {
        let outcome = if ctx.rank() == 0 {
            ctx.allreduce(&[1.0f32, 2.0], ReduceOp::Sum).map(|_| ())
        } else {
            // Same byte length, different dtype.
            ctx.allreduce(&[1u32, 2], ReduceOp::Sum).map(|_| ())
        };
        if outcome.is_err() {
            e.fetch_add(1, Ordering::SeqCst);
        }
    });
    // Either the launch reports the failure or the kernels observed it;
    // at least one rank must have failed and nothing may hang.
    let _ = result;
    assert!(errors.load(Ordering::SeqCst) >= 1);
}

#[test]
fn typed_reduce_cross_node_dtype_disagreement_fails_loudly() {
    // Ranks on *different nodes* disagree on the element type (same element
    // size, so no length mismatch could save us): the exchange up-frames
    // carry the collective's full (op, dtype) identity, so the leader must
    // fail with an identity-mismatch error instead of reinterpreting the
    // peer's bytes — and, because world collectives ride the same exchange
    // engine as subgroups, the error is echoed to *every* node: the
    // non-root rank errors too instead of silently finishing.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    runtime
        .launch_cpu_only(move |ctx| {
            let outcome = if ctx.rank() == 0 {
                ctx.reduce::<f32>(0, &[1.5], ReduceOp::Sum).map(|_| ())
            } else {
                ctx.reduce::<u32>(0, &[2], ReduceOp::Sum).map(|_| ())
            };
            match outcome {
                Err(err) => {
                    let msg = err.to_string();
                    assert!(msg.contains("identity mismatch"), "unexpected: {msg}");
                    e.fetch_add(1, Ordering::SeqCst);
                }
                Ok(()) => panic!("dtype disagreement completed on rank {}", ctx.rank()),
            }
        })
        .unwrap();
    assert_eq!(errors.load(Ordering::SeqCst), 2);
}

#[test]
fn subgroup_dtype_disagreement_fails_every_member() {
    // The same disagreement inside a *subgroup* spanning two nodes: the
    // leader detects the identity mismatch when combining up-frames and
    // echoes the error to every participating node — full containment.
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    let errors = Arc::new(AtomicUsize::new(0));
    let e = Arc::clone(&errors);
    runtime
        .launch_cpu_only(move |ctx| {
            let comm = ctx.comm_split(0, 0).unwrap();
            let outcome = if ctx.rank() == 0 {
                ctx.allreduce_in::<f32>(&comm, &[1.0], ReduceOp::Sum)
                    .map(|_| ())
            } else {
                ctx.allreduce_in::<u32>(&comm, &[1], ReduceOp::Sum)
                    .map(|_| ())
            };
            let err = outcome.expect_err("dtype disagreement must fail");
            assert!(
                err.to_string().contains("identity mismatch"),
                "unexpected: {err}"
            );
            e.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(errors.load(Ordering::SeqCst), 2);
}
