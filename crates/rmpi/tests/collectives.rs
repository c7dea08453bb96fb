//! Collective correctness across rank counts, placements and payload sizes.

use std::time::Duration;

use dcgn_rmpi::{
    bytes_to_f64s, f64s_to_bytes, MpiWorld, RankPlacement, ReduceDtype, ReduceOp, RmpiError,
};
use dcgn_simtime::CostModel;

fn run_with<R, F>(nodes: usize, per_node: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(dcgn_rmpi::Communicator) -> R + Send + Sync + 'static,
{
    MpiWorld::run(&RankPlacement::block(nodes, per_node), CostModel::zero(), f)
}

#[test]
fn barrier_completes_for_various_sizes() {
    for (nodes, per_node) in [(1, 1), (1, 2), (2, 2), (4, 2), (3, 3)] {
        let results = run_with(nodes, per_node, |mut comm| {
            for _ in 0..3 {
                comm.barrier().unwrap();
            }
            comm.rank()
        });
        assert_eq!(results.len(), nodes * per_node);
    }
}

#[test]
fn barrier_actually_synchronises() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    let results = MpiWorld::run(
        &RankPlacement::block(2, 2),
        CostModel::zero(),
        move |mut comm| {
            // Phase 1: everyone increments; after the barrier every rank must see
            // the full count.
            c.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            c.load(Ordering::SeqCst)
        },
    );
    for seen in results {
        assert_eq!(seen, 4);
    }
}

#[test]
fn bcast_from_every_root() {
    for root in 0..4 {
        let results = run_with(2, 2, move |mut comm| {
            let mut data = if comm.rank() == root {
                format!("payload-from-{root}").into_bytes()
            } else {
                Vec::new()
            };
            comm.bcast(root, &mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, format!("payload-from-{root}").into_bytes());
        }
    }
}

#[test]
fn bcast_large_payload() {
    let payload: Vec<u8> = (0..200_000).map(|i| (i % 127) as u8).collect();
    let expected = payload.clone();
    let results = run_with(4, 2, move |mut comm| {
        let mut data = if comm.rank() == 0 {
            payload.clone()
        } else {
            Vec::new()
        };
        comm.bcast(0, &mut data).unwrap();
        data
    });
    for r in results {
        assert_eq!(r, expected);
    }
}

#[test]
fn gather_concatenates_in_rank_order() {
    let results = run_with(2, 2, |mut comm| {
        let mine = vec![comm.rank() as u8; 4];
        comm.gather(0, &mine).unwrap()
    });
    let at_root = results[0].as_ref().unwrap();
    assert_eq!(
        at_root,
        &[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3].to_vec()
    );
    for r in &results[1..] {
        assert!(r.is_none());
    }
}

#[test]
fn gatherv_handles_uneven_sizes() {
    let results = run_with(2, 2, |mut comm| {
        let mine = vec![comm.rank() as u8; comm.rank() + 1];
        comm.gatherv(2, &mine).unwrap()
    });
    let at_root = results[2].as_ref().unwrap();
    assert_eq!(at_root.len(), 4);
    for (rank, part) in at_root.iter().enumerate() {
        assert_eq!(part, &vec![rank as u8; rank + 1]);
    }
}

#[test]
fn scatter_distributes_chunks() {
    let results = run_with(2, 2, |mut comm| {
        let data: Vec<u8> = (0..16).collect();

        comm.scatter(
            1,
            if comm.rank() == 1 {
                Some(&data[..])
            } else {
                None
            },
        )
        .unwrap()
    });
    for (rank, chunk) in results.iter().enumerate() {
        let expect: Vec<u8> = (rank as u8 * 4..rank as u8 * 4 + 4).collect();
        assert_eq!(chunk, &expect);
    }
}

#[test]
fn scatterv_with_uneven_chunks() {
    let results = run_with(3, 1, |mut comm| {
        let chunks: Vec<Vec<u8>> = vec![vec![1], vec![2, 2], vec![3, 3, 3]];
        comm.scatterv(
            0,
            if comm.rank() == 0 {
                Some(&chunks[..])
            } else {
                None
            },
        )
        .unwrap()
    });
    assert_eq!(results[0], vec![1]);
    assert_eq!(results[1], vec![2, 2]);
    assert_eq!(results[2], vec![3, 3, 3]);
}

#[test]
fn scatter_rejects_indivisible_buffer() {
    let results = run_with(1, 2, |mut comm| {
        let data: Vec<u8> = (0..7).collect();
        if comm.rank() == 0 {
            let err = comm.scatter(0, Some(&data[..])).unwrap_err();
            matches!(err, RmpiError::InvalidArgument(_))
        } else {
            // The non-root rank would block forever waiting for a chunk that
            // never comes, so it does not participate in this negative test.
            true
        }
    });
    assert!(results.iter().all(|&ok| ok));
}

#[test]
fn reduce_sum_min_max() {
    for (op, expect) in [
        (ReduceOp::Sum, vec![6.0, 60.0]),
        (ReduceOp::Min, vec![0.0, 10.0]),
        (ReduceOp::Max, vec![3.0, 30.0]),
    ] {
        let results = run_with(2, 2, move |mut comm| {
            let mine = f64s_to_bytes(&[comm.rank() as f64, comm.rank() as f64 * 10.0 + 10.0]);
            let reduced = comm.reduce_bytes(0, &mine, op, ReduceDtype::F64).unwrap();
            reduced.map(|bytes| bytes_to_f64s(&bytes))
        });
        let at_root = results[0].as_ref().unwrap();
        // ranks contribute [0,10],[1,20],[2,30],[3,40]
        let expected_second = match op {
            ReduceOp::Sum => 100.0,
            ReduceOp::Min => 10.0,
            ReduceOp::Max => 40.0,
        };
        assert_eq!(at_root[0], expect[0]);
        assert_eq!(at_root[1], expected_second);
        assert!(results[1].is_none());
    }
}

#[test]
fn allreduce_gives_everyone_the_sum() {
    let results = run_with(4, 2, |mut comm| {
        let mine = vec![1.0f64, comm.rank() as f64];
        comm.allreduce_f64(&mine, ReduceOp::Sum).unwrap()
    });
    for r in results {
        assert_eq!(r[0], 8.0);
        assert_eq!(r[1], (0..8).sum::<usize>() as f64);
    }
}

#[test]
fn reduce_length_mismatch_is_detected() {
    let results = run_with(1, 2, |mut comm| {
        let mine = if comm.rank() == 0 {
            vec![1.0f64, 2.0]
        } else {
            vec![1.0f64]
        };
        comm.reduce_bytes(0, &f64s_to_bytes(&mine), ReduceOp::Sum, ReduceDtype::F64)
    });
    // Root sees the mismatch (rank 1 sends a shorter vector).
    assert!(results[0].is_err());
    // ... and echoes it to the non-root rank instead of leaving it waiting.
    assert!(results[1].is_err());
}

/// Half the ranks call `barrier` while the other half call `bcast`: every
/// rank must come back with the collective-mismatch error in bounded time,
/// not stall waiting for frames its peers will never send.
#[test]
fn mismatched_collectives_fail_every_rank_with_the_mismatch() {
    for ranks in [4, 8] {
        let results = run_with(ranks, 1, |mut comm| {
            comm.set_progress_timeout(Duration::from_secs(2));
            if comm.rank() % 2 == 0 {
                comm.barrier()
            } else {
                comm.bcast(1, &mut vec![7u8; 16])
            }
        });
        for (rank, result) in results.into_iter().enumerate() {
            assert!(
                matches!(result, Err(RmpiError::CollectiveMismatch { .. })),
                "rank {rank} of {ranks}: {result:?}"
            );
        }
    }
}

#[test]
fn collectives_compose_in_sequence() {
    // A realistic mixed sequence: bcast, compute, reduce, barrier, gather.
    let results = run_with(2, 2, |mut comm| {
        let mut params = if comm.rank() == 0 {
            vec![2u8, 3]
        } else {
            Vec::new()
        };
        comm.bcast(0, &mut params).unwrap();
        let local = (params[0] as f64) * (comm.rank() as f64 + 1.0);
        let total = comm.allreduce_f64(&[local], ReduceOp::Sum).unwrap()[0];
        comm.barrier().unwrap();
        let everyone = comm.gatherv(0, &[comm.rank() as u8]).unwrap();
        (total, everyone)
    });
    for (rank, (total, everyone)) in results.into_iter().enumerate() {
        assert_eq!(total, 2.0 * (1.0 + 2.0 + 3.0 + 4.0));
        let expected = (rank == 0).then(|| vec![vec![0u8], vec![1], vec![2], vec![3]]);
        assert_eq!(everyone, expected);
    }
}

#[test]
fn collectives_with_realistic_cost_model_still_correct() {
    // Same correctness checks under the paper-like cost model (scaled down to
    // keep the test fast); exercises the eager/rendezvous split and the
    // intra-node fast path.
    let results = MpiWorld::run(
        &RankPlacement::block(2, 2),
        CostModel::g92_scaled(50.0),
        |mut comm| {
            let mut data = if comm.rank() == 3 {
                vec![42u8; 4096]
            } else {
                Vec::new()
            };
            comm.bcast(3, &mut data).unwrap();
            let sum = comm.allreduce_f64(&[1.0], ReduceOp::Sum).unwrap()[0];
            (data.len(), data[0], sum)
        },
    );
    for (len, first, sum) in results {
        assert_eq!(len, 4096);
        assert_eq!(first, 42);
        assert_eq!(sum, 4.0);
    }
}
