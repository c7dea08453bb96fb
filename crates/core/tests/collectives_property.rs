//! Property tests of the generic collective engine: on randomly drawn mixed
//! CPU/GPU rank layouts, `reduce` / `allreduce` / `scatter` / `allgather` /
//! `gather` must match a sequentially computed reference, no matter which
//! kind of rank (CPU-kernel thread or GPU slot) contributes or roots the
//! operation.

use std::time::Duration;

use dcgn::{DcgnConfig, DevicePtr, ReduceOp, Runtime};
use dcgn_testkit::{check, name};

// ---------------------------------------------------------------------------
// Deterministic per-rank contributions and their sequential reference.
// ---------------------------------------------------------------------------

/// The `f64` vector rank `rank` contributes to reduce/allreduce.
fn reduce_input(rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| {
            let sign = if rank.is_multiple_of(2) { 1.0 } else { -1.0 };
            sign * (rank as f64 + 1.0) * (i as f64 + 1.0) * 0.5
        })
        .collect()
}

/// The chunk rank `rank` contributes to gather/allgather.
fn gather_chunk(rank: usize, chunk_len: usize) -> Vec<u8> {
    vec![(rank * 7 + 3) as u8; chunk_len]
}

/// The chunk the scatter root addresses to rank `rank`.
fn scatter_chunk(rank: usize, chunk_len: usize) -> Vec<u8> {
    vec![(rank * 5 + 1) as u8; chunk_len]
}

/// Sequential fold of every rank's contribution — the reference result.
fn sequential_reduce(total_ranks: usize, count: usize, op: ReduceOp) -> Vec<f64> {
    let mut acc = reduce_input(0, count);
    for rank in 1..total_ranks {
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
    root: usize,
    total: usize,
    chunk_len: usize,
    count: usize,
    op: ReduceOp,
}

fn cpu_kernel(ctx: &dcgn::CpuCtx, case: Case) {
    let rank = ctx.rank();

    // Allreduce: everyone receives the full reduction.
    let result = ctx
        .allreduce(&reduce_input(rank, case.count), case.op)
        .unwrap();
    assert_close(
        &result,
        &sequential_reduce(case.total, case.count, case.op),
        "cpu allreduce",
    );

    // Reduce: only the root receives the reduction.
    let result = ctx
        .reduce(case.root, &reduce_input(rank, case.count), case.op)
        .unwrap();
    if rank == case.root {
        assert_close(
            &result.expect("root receives reduction"),
            &sequential_reduce(case.total, case.count, case.op),
            "cpu reduce",
        );
    } else {
        assert!(result.is_none(), "non-root received a reduce result");
    }

    // Allgather: everyone receives every chunk, indexed by rank.
    let chunks = ctx.allgather(&gather_chunk(rank, case.chunk_len)).unwrap();
    for (r, chunk) in chunks.iter().enumerate() {
        assert_eq!(chunk, &gather_chunk(r, case.chunk_len), "cpu allgather");
    }

    // Scatter: the root addresses one chunk to every rank.
    let staged: Option<Vec<Vec<u8>>> = (rank == case.root).then(|| {
        (0..case.total)
            .map(|r| scatter_chunk(r, case.chunk_len))
            .collect()
    });
    let mine = ctx.scatter(case.root, staged.as_deref()).unwrap();
    assert_eq!(mine, scatter_chunk(rank, case.chunk_len), "cpu scatter");

    // Gather: only the root receives the chunk table.
    let gathered = ctx
        .gather(case.root, &gather_chunk(rank, case.chunk_len))
        .unwrap();
    if rank == case.root {
        let chunks = gathered.expect("root receives gather");
        for (r, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk, &gather_chunk(r, case.chunk_len), "cpu gather");
        }
    } else {
        assert!(gathered.is_none(), "non-root received a gather result");
    }
}

fn gpu_kernel(ctx: &dcgn::GpuCtx, case: Case) {
    let slot = ctx.slot_for_block();
    if ctx.block().block_id() >= ctx.slots() {
        return;
    }
    let rank = ctx.rank(slot);
    let b = ctx.block();
    // Scratch region: far above the runtime's mailbox allocations, one
    // per-slot stripe per collective step.
    let base = DevicePtr::NULL.add((4 + slot * 4) << 20);
    let vec_bytes = case.count * 8;
    let table_bytes = case.total * case.chunk_len;

    // Allreduce (in place).
    let buf = base;
    b.write(buf, &f64s_to_bytes(&reduce_input(rank, case.count)));
    let got = ctx.allreduce(slot, case.op, buf, case.count);
    assert_eq!(got, vec_bytes, "gpu allreduce result size");
    assert_close(
        &bytes_to_f64s(&b.read_vec(buf, vec_bytes)),
        &sequential_reduce(case.total, case.count, case.op),
        "gpu allreduce",
    );

    // Reduce to root (result lands only in the root's buffer).
    let buf = base.add(64 << 10);
    b.write(buf, &f64s_to_bytes(&reduce_input(rank, case.count)));
    let got = ctx.reduce(slot, case.root, case.op, buf, case.count);
    if rank == case.root {
        assert_eq!(got, vec_bytes, "gpu reduce result size");
        assert_close(
            &bytes_to_f64s(&b.read_vec(buf, vec_bytes)),
            &sequential_reduce(case.total, case.count, case.op),
            "gpu reduce",
        );
    } else {
        assert_eq!(got, 0, "gpu reduce non-root result size");
    }

    // Allgather (in place: own block at rank × chunk_len).
    let buf = base.add(128 << 10);
    b.write(
        buf.add(rank * case.chunk_len),
        &gather_chunk(rank, case.chunk_len),
    );
    let got = ctx.allgather(slot, buf, case.chunk_len);
    assert_eq!(got, table_bytes, "gpu allgather result size");
    let table = b.read_vec(buf, table_bytes);
    for r in 0..case.total {
        assert_eq!(
            &table[r * case.chunk_len..(r + 1) * case.chunk_len],
            gather_chunk(r, case.chunk_len).as_slice(),
            "gpu allgather chunk {r}"
        );
    }

    // Scatter (root stages the full chunk table in place).
    let buf = base.add(256 << 10);
    if rank == case.root {
        for r in 0..case.total {
            b.write(
                buf.add(r * case.chunk_len),
                &scatter_chunk(r, case.chunk_len),
            );
        }
    }
    let got = ctx.scatter(slot, case.root, buf, case.chunk_len);
    assert_eq!(got, case.chunk_len, "gpu scatter result size");
    assert_eq!(
        b.read_vec(buf, case.chunk_len),
        scatter_chunk(rank, case.chunk_len),
        "gpu scatter chunk"
    );

    // Gather to root (in place).
    let buf = base.add(384 << 10);
    b.write(
        buf.add(rank * case.chunk_len),
        &gather_chunk(rank, case.chunk_len),
    );
    let got = ctx.gather(slot, case.root, buf, case.chunk_len);
    if rank == case.root {
        assert_eq!(got, table_bytes, "gpu gather result size");
        let table = b.read_vec(buf, table_bytes);
        for r in 0..case.total {
            assert_eq!(
                &table[r * case.chunk_len..(r + 1) * case.chunk_len],
                gather_chunk(r, case.chunk_len).as_slice(),
                "gpu gather chunk {r}"
            );
        }
    } else {
        assert_eq!(got, 0, "gpu gather non-root result size");
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    nodes: usize,
    cpus: usize,
    gpus: usize,
    slots: usize,
    chunk_len: usize,
    count: usize,
    op: ReduceOp,
    root_seed: usize,
) {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(nodes, cpus, gpus, slots)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(30));
    let total = runtime.rank_map().total_ranks();
    let case = Case {
        root: root_seed % total,
        total,
        chunk_len,
        count,
        op,
    };
    runtime
        .launch(
            move |ctx| cpu_kernel(ctx, case),
            move |ctx| gpu_kernel(ctx, case),
        )
        .expect("mixed-layout collective launch");
}

/// Random mixed layouts: every collective agrees with the sequential
/// reference regardless of rank kinds, node counts and the root's kind.
#[test]
fn collectives_match_sequential_reference() {
    check(name!(), 6, |rng| {
        let nodes = rng.range(1..3);
        let cpus = rng.range(0..3);
        let gpus = rng.range(0..3);
        let slots = rng.range(1..3);
        let chunk_len = rng.range(1..17);
        let count = rng.range(1..9);
        let op_sel = rng.range(0..3);
        let root_seed = rng.next_u64() as usize;
        // A node must contribute at least one rank.
        let cpus = if cpus == 0 && gpus == 0 { 1 } else { cpus };
        let op = match op_sel {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Min,
            _ => ReduceOp::Max,
        };
        run_case(nodes, cpus, gpus, slots, chunk_len, count, op, root_seed);
    });
}

/// Deterministic smoke case pinning a GPU-slot root across two nodes, so the
/// scatter/gather root paths through device memory are always exercised even
/// if the random draws above land on CPU roots.
#[test]
fn gpu_rooted_collectives_across_two_nodes() {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 1, 1)).unwrap();
    let gpu_root = runtime.rank_map().gpu_ranks()[0];
    run_case(2, 1, 1, 1, 8, 4, ReduceOp::Sum, gpu_root);
}
