//! Property tests of `comm_split` and per-subgroup collectives: on randomly
//! drawn mixed CPU/GPU rank layouts with random color/key assignments, the
//! split must produce the `MPI_Comm_split` ordering — color classes ordered
//! by `(key, rank)` — and an allreduce inside each subgroup must match a
//! sequential reference computed over that color class alone.

use std::time::Duration;

use dcgn::{DcgnConfig, DevicePtr, ReduceDtype, ReduceOp, Runtime};
use dcgn_testkit::{check, name};

// ---------------------------------------------------------------------------
// Deterministic colors, keys and contributions (computable by every rank).
// ---------------------------------------------------------------------------

/// Color of `rank` under `seed`: `colors` classes, scrambled so classes mix
/// CPU and GPU ranks and span nodes.
fn color_of(rank: usize, seed: usize, colors: usize) -> u32 {
    ((rank * 7 + seed) % colors) as u32
}

/// Key of `rank` under `seed`.  Deliberately non-monotonic in `rank` so the
/// `(key, rank)` ordering differs from plain rank order, with ties.
fn key_of(rank: usize, seed: usize) -> u32 {
    ((rank * 5 + seed) % 3) as u32
}

/// The expected member table of `rank`'s subgroup: every rank of the same
/// color, ordered by `(key, rank)`.
fn expected_members(rank: usize, total: usize, seed: usize, colors: usize) -> Vec<usize> {
    let color = color_of(rank, seed, colors);
    let mut members: Vec<(u32, usize)> = (0..total)
        .filter(|&r| color_of(r, seed, colors) == color)
        .map(|r| (key_of(r, seed), r))
        .collect();
    members.sort_unstable();
    members.into_iter().map(|(_, r)| r).collect()
}

/// The `f64` vector rank `rank` contributes to the subgroup allreduce.
fn reduce_input(rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| {
            let sign = if rank.is_multiple_of(2) { 1.0 } else { -1.0 };
            sign * (rank as f64 + 1.0) * (i as f64 + 1.0) * 0.25
        })
        .collect()
}

/// Sequential fold of one color class's contributions — the per-subgroup
/// reference result.
fn subgroup_reference(members: &[usize], count: usize, op: ReduceOp) -> Vec<f64> {
    let mut acc = reduce_input(members[0], count);
    for &rank in &members[1..] {
        op.apply(&mut acc, &reduce_input(rank, count));
    }
    acc
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-9 * w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i} diverged: got {g}, want {w}"
        );
    }
}

fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

// ---------------------------------------------------------------------------
// The kernels: CPU ranks and GPU slots run the same logical sequence.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Case {
    total: usize,
    seed: usize,
    colors: usize,
    count: usize,
    op: ReduceOp,
}

fn check_membership(rank: usize, case: Case, members: &[usize], sub_rank: usize) {
    let want = expected_members(rank, case.total, case.seed, case.colors);
    assert_eq!(
        members, want,
        "rank {rank}: wrong members (seed {}, colors {})",
        case.seed, case.colors
    );
    assert_eq!(
        want.iter().position(|&m| m == rank),
        Some(sub_rank),
        "rank {rank}: wrong sub-rank"
    );
}

fn cpu_kernel(ctx: &dcgn::CpuCtx, case: Case) {
    let rank = ctx.rank();
    let comm = ctx
        .comm_split(
            color_of(rank, case.seed, case.colors),
            key_of(rank, case.seed),
        )
        .unwrap();
    check_membership(rank, case, comm.members(), comm.rank());

    // Per-subgroup allreduce matches the color class's sequential reference.
    let got = ctx
        .allreduce_in(&comm, &reduce_input(rank, case.count), case.op)
        .unwrap();
    assert_close(
        &got,
        &subgroup_reference(comm.members(), case.count, case.op),
        "cpu subgroup allreduce",
    );
}

fn gpu_kernel(ctx: &dcgn::GpuCtx, case: Case) {
    let slot = ctx.slot_for_block();
    if ctx.block().block_id() >= ctx.slots() {
        return;
    }
    let rank = ctx.rank(slot);
    let b = ctx.block();
    // Scratch region: far above the runtime's mailbox allocations, one
    // per-slot stripe.
    let base = DevicePtr::NULL.add((4 + slot * 4) << 20);

    let table = base;
    let table_len = 16 + 4 * case.total;
    let comm = ctx.split(
        slot,
        color_of(rank, case.seed, case.colors),
        key_of(rank, case.seed),
        table,
        table_len,
    );
    let members: Vec<usize> = (0..comm.size).map(|s| ctx.comm_member(&comm, s)).collect();
    check_membership(rank, case, &members, comm.rank);

    let buf = base.add(64 << 10);
    b.write(buf, &f64s_to_bytes(&reduce_input(rank, case.count)));
    let got = ctx.allreduce_in(slot, &comm, case.op, ReduceDtype::F64, buf, case.count);
    assert_eq!(got, case.count * 8, "gpu subgroup allreduce result size");
    assert_close(
        &bytes_to_f64s(&b.read_vec(buf, case.count * 8)),
        &subgroup_reference(&members, case.count, case.op),
        "gpu subgroup allreduce",
    );
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    nodes: usize,
    cpus: usize,
    gpus: usize,
    slots: usize,
    seed: usize,
    colors: usize,
    count: usize,
    op: ReduceOp,
) {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(nodes, cpus, gpus, slots)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(30));
    let case = Case {
        total: runtime.rank_map().total_ranks(),
        seed,
        colors,
        count,
        op,
    };
    runtime
        .launch(
            move |ctx| cpu_kernel(ctx, case),
            move |ctx| gpu_kernel(ctx, case),
        )
        .expect("comm_split property launch");
}

/// Random mixed layouts and color/key assignments: split ordering and
/// per-subgroup allreduce agree with the sequential reference, no matter
/// which kinds of rank land in which color class.
#[test]
fn comm_split_matches_sequential_reference() {
    check(name!(), 6, |rng| {
        let nodes = rng.range(1..3);
        let cpus = rng.range(0..3);
        let gpus = rng.range(0..3);
        let slots = rng.range(1..3);
        let seed = rng.range(0..1000);
        let colors = rng.range(1..4);
        let count = rng.range(1..6);
        let op_sel = rng.range(0..3);
        // A node must contribute at least one rank.
        let cpus = if cpus == 0 && gpus == 0 { 1 } else { cpus };
        let op = match op_sel {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Min,
            _ => ReduceOp::Max,
        };
        run_case(nodes, cpus, gpus, slots, seed, colors, count, op);
    });
}

/// Deterministic mixed CPU/GPU case so the GPU mailbox split path always
/// runs, even if the random draws above land on CPU-only layouts.
#[test]
fn gpu_and_cpu_ranks_split_together_across_two_nodes() {
    run_case(2, 1, 1, 2, 11, 2, 4, ReduceOp::Sum);
}

/// Scales with `DCGN_TEST_RANKS` (see CI, which re-runs the suite with it
/// raised) so subgroup paths with more than two colors are exercised.
#[test]
fn many_colors_across_env_ranks() {
    let ranks: usize = std::env::var("DCGN_TEST_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(3);
    run_case(2, ranks.div_ceil(2), 0, 0, 3, 3, 4, ReduceOp::Sum);
}
