//! Communicator-group integration tests: disjoint communicators must be able
//! to execute collectives *concurrently* — the scalability gap the old
//! single-`active_collective`-slot comm thread had, where the second group's
//! join was rejected as a collective mismatch.

use std::time::Duration;

use dcgn::{Comm, CpuCtx, DcgnConfig, DevicePtr, ReduceDtype, ReduceOp, Runtime};

fn split_by_parity(ctx: &CpuCtx) -> Comm {
    ctx.comm_split((ctx.rank() % 2) as u32, 0).unwrap()
}

/// Group A (even ranks) holds a barrier open while group B (odd ranks) runs
/// a complete allreduce: rank 2 only joins A's barrier after receiving a
/// message rank 1 sends *after* B's allreduce finished.  Under the old
/// single-slot design B's join errored out while A was assembling; now both
/// groups proceed independently.
fn interleaved_kernel(ctx: &CpuCtx) {
    let comm = split_by_parity(ctx);
    match ctx.rank() {
        0 => ctx.barrier_in(&comm).unwrap(),
        2 => {
            // Gate: B's allreduce provably completes while A's barrier is
            // still half-assembled (rank 0 joined, this rank has not).
            let (msg, _) = ctx.recv(1).unwrap();
            assert_eq!(msg, b"b-done");
            ctx.barrier_in(&comm).unwrap();
        }
        1 => {
            let sum = ctx.allreduce_in(&comm, &[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![2.0]);
            ctx.send(2, b"b-done").unwrap();
        }
        3 => {
            let sum = ctx.allreduce_in(&comm, &[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![2.0]);
        }
        r => unreachable!("unexpected rank {r}"),
    }
    // Follow-up rounds with *different* collective counts per group — there
    // must be no ordering dependency between the groups.
    if ctx.rank().is_multiple_of(2) {
        for _ in 0..3 {
            ctx.barrier_in(&comm).unwrap();
        }
        let chunks = ctx.allgather_in(&comm, &[ctx.rank() as u8]).unwrap();
        let want: Vec<Vec<u8>> = comm.members().iter().map(|&m| vec![m as u8]).collect();
        assert_eq!(chunks, want);
    } else {
        for round in 0..2 {
            let sum = ctx
                .allreduce_in(&comm, &[round as f64, 1.0], ReduceOp::Sum)
                .unwrap();
            assert_eq!(sum, vec![2.0 * round as f64, 2.0]);
        }
    }
    // And the world is still intact afterwards.
    let total = ctx.size() as f64;
    let sum = ctx.allreduce(&[1.0], ReduceOp::Sum).unwrap();
    assert_eq!(sum, vec![total]);
}

#[test]
fn disjoint_groups_interleave_collectives_on_one_node() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 4, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime.launch_cpu_only(interleaved_kernel).unwrap();
}

#[test]
fn disjoint_groups_interleave_collectives_across_nodes() {
    // Ranks 0,1 on node 0 and 2,3 on node 1: both parity groups span both
    // nodes, so their exchanges overlap in the substrate as well.
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime.launch_cpu_only(interleaved_kernel).unwrap();
}

/// Nested splits: a subgroup is itself split further with `comm_split_in`,
/// and collectives run correctly at every level.  Rank count scales with
/// `DCGN_TEST_RANKS` so CI exercises >2 colors.
#[test]
fn nested_splits_partition_subgroups() {
    let ranks: usize = std::env::var("DCGN_TEST_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
        .max(4);
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, ranks.div_ceil(2), 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(30));
    runtime
        .launch_cpu_only(move |ctx| {
            let total = ctx.size();
            let rank = ctx.rank();
            // Level 1: three color classes (keys constant → rank order).
            let child = ctx.comm_split((rank % 3) as u32, 0).unwrap();
            let want: Vec<usize> = (0..total).filter(|r| r % 3 == rank % 3).collect();
            assert_eq!(child.members(), want, "level-1 members");
            // Level 2: halve each class by sub-rank parity.
            let grand = ctx
                .comm_split_in(&child, (child.rank() % 2) as u32, 0)
                .unwrap();
            let want: Vec<usize> = child
                .members()
                .iter()
                .enumerate()
                .filter(|(s, _)| s % 2 == child.rank() % 2)
                .map(|(_, &m)| m)
                .collect();
            assert_eq!(grand.members(), want, "level-2 members");
            // A collective at every level, innermost first.
            let sum = ctx.allreduce_in(&grand, &[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![grand.size() as f64]);
            let sum = ctx.allreduce_in(&child, &[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![child.size() as f64]);
            ctx.barrier().unwrap();
        })
        .unwrap();
}

/// GPU slots split through the mailbox path and the two resulting groups run
/// *different* collectives concurrently (one barriers, one allreduces).
#[test]
fn gpu_subgroups_run_different_collectives() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 0, 1, 4)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch_gpu_only(|ctx| {
            let slot = ctx.slot_for_block();
            if ctx.block().block_id() >= ctx.slots() {
                return;
            }
            let rank = ctx.rank(slot);
            let b = ctx.block();
            let base = DevicePtr::NULL.add((4 + slot * 4) << 20);
            let comm = ctx.split(slot, (rank % 2) as u32, 0, base, 16 + 4 * ctx.size());
            assert_eq!(comm.size, 2);
            assert_eq!(comm.rank, rank / 2);
            assert_eq!(ctx.comm_member(&comm, comm.rank), rank);
            // World handles map sub-ranks to global ranks by identity.
            assert_eq!(ctx.comm_member(&ctx.world_comm(slot), rank), rank);
            if rank.is_multiple_of(2) {
                ctx.barrier_in(slot, &comm);
                ctx.barrier_in(slot, &comm);
            } else {
                let buf = base.add(64 << 10);
                b.write(buf, &1.0f64.to_le_bytes());
                let got = ctx.allreduce_in(slot, &comm, ReduceOp::Sum, ReduceDtype::F64, buf, 1);
                assert_eq!(got, 8);
                assert_eq!(b.read_vec(buf, 8), 2.0f64.to_le_bytes());
            }
            // The world barrier still spans both groups.
            ctx.barrier(slot);
        })
        .unwrap();
}

/// `comm_free` lifecycle: freed groups are evicted from the comm thread's
/// registry (the table no longer grows monotonically with splits), later use
/// of a freed id fails cleanly, and re-splitting works.
fn comm_free_kernel(ctx: &CpuCtx) {
    // The world communicator cannot be freed.
    let world = ctx.world_comm();
    assert!(ctx.comm_free(&world).is_err());
    for _ in 0..3 {
        let comm = ctx.comm_split((ctx.rank() % 2) as u32, 0).unwrap();
        let sum = ctx.allreduce_in(&comm, &[1.0], ReduceOp::Sum).unwrap();
        assert_eq!(sum, vec![comm.size() as f64]);
        // World barrier: nobody frees while a peer's subgroup collective
        // might still be in flight.
        ctx.barrier().unwrap();
        ctx.comm_free(&comm).unwrap();
        // Second barrier: every local member has freed, so the group is
        // evicted everywhere before anyone probes it.
        ctx.barrier().unwrap();
        let err = ctx.barrier_in(&comm).unwrap_err();
        assert!(
            err.to_string().contains("unknown communicator"),
            "stale use must name the unknown communicator, got: {err}"
        );
        assert!(ctx.comm_free(&comm).is_err(), "double free must fail");
    }
}

#[test]
fn comm_free_evicts_groups_and_allows_reuse() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 4, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime.launch_cpu_only(comm_free_kernel).unwrap();
}

#[test]
fn comm_free_evicts_independently_per_node() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime.launch_cpu_only(comm_free_kernel).unwrap();
}

/// GPU slots release a split group through the mailbox `FREE` opcode and can
/// split again afterwards.
#[test]
fn gpu_comm_free_releases_groups() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 0, 1, 2)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch_gpu_only(|ctx| {
            let slot = ctx.slot_for_block();
            if ctx.block().block_id() >= ctx.slots() {
                return;
            }
            let base = DevicePtr::NULL.add((4 + slot * 4) << 20);
            let table_len = 16 + 4 * ctx.size();
            let comm = ctx.split(slot, 0, 0, base, table_len);
            assert_eq!(comm.size, 2);
            ctx.barrier_in(slot, &comm);
            // Make sure no subgroup collective is still in flight anywhere
            // before releasing the handle.
            ctx.barrier(slot);
            ctx.comm_free(slot, &comm);
            ctx.barrier(slot);
            // The registry slot is gone; a fresh split works and gets a
            // distinct id.
            let comm2 = ctx.split(slot, 0, 0, base, table_len);
            assert_ne!(comm2.id, comm.id);
            ctx.barrier_in(slot, &comm2);
            ctx.comm_free(slot, &comm2);
        })
        .unwrap();
}

/// Freeing is per-rank and immediate: before the group is evicted (peers
/// still hold handles), a rank that freed can neither free again nor keep
/// using the communicator.
#[test]
fn comm_free_is_per_rank_before_eviction() {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(1, 2, 0, 0)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch_cpu_only(|ctx| {
            let comm = ctx.comm_split(0, 0).unwrap();
            if ctx.rank() == 0 {
                ctx.comm_free(&comm).unwrap();
                // Rank 1 still holds its handle, so the group is not yet
                // evicted — but this rank's handle is gone.
                let err = ctx.comm_free(&comm).unwrap_err();
                assert!(err.to_string().contains("already freed"), "got: {err}");
                let err = ctx.barrier_in(&comm).unwrap_err();
                assert!(err.to_string().contains("already freed"), "got: {err}");
                ctx.send(1, b"freed-twice-checked").unwrap();
            } else {
                let (msg, _) = ctx.recv(0).unwrap();
                assert_eq!(msg, b"freed-twice-checked");
                ctx.comm_free(&comm).unwrap();
            }
        })
        .unwrap();
}
