//! Property tests of the exchange-plan equivalence guarantee: every plan —
//! star, binomial tree, recursive doubling, ring — is a different schedule
//! for the *same* collective, so on identical inputs they must produce
//! byte-identical results.  Contributions are exactly representable small
//! integers, making `f64` folds exact and order-independent; any divergence
//! between plans is therefore a bug, not float noise.

use std::time::Duration;

use dcgn::{DcgnConfig, ExchangePlan, ReduceOp, Runtime};
use dcgn_testkit::{check, name};

const PLANS: [ExchangePlan; 4] = [
    ExchangePlan::Star,
    ExchangePlan::Tree,
    ExchangePlan::RecursiveDoubling,
    ExchangePlan::Ring,
];

/// The exactly-representable `f64` vector rank `rank` contributes: small
/// integers, so every fold order yields bit-identical sums.
fn reduce_input(rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((rank + 1) * (i % 13 + 1)) as f64)
        .collect()
}

/// The chunk rank `rank` contributes to gather/allgather.
fn gather_chunk(rank: usize, chunk_len: usize) -> Vec<u8> {
    (0..chunk_len).map(|i| (rank * 31 + i) as u8).collect()
}

/// Sequential fold of every rank's contribution — the exact reference.
fn sequential_reduce(total: usize, count: usize, op: ReduceOp) -> Vec<f64> {
    let mut acc = reduce_input(0, count);
    for rank in 1..total {
        op.apply(&mut acc, &reduce_input(rank, count));
    }
    acc
}

/// Run barrier + allreduce + broadcast + allgather + gather under a forced
/// plan and assert every rank's results are byte-identical to the exact
/// reference.  Since the reference does not depend on the plan, passing for
/// each plan proves the plans agree with each other.
fn run_under_plan(
    plan: ExchangePlan,
    nodes: usize,
    cpus: usize,
    count: usize,
    chunk_len: usize,
    op: ReduceOp,
    root_seed: usize,
) {
    let mut runtime =
        Runtime::new(DcgnConfig::homogeneous(nodes, cpus, 0, 0).with_exchange_plan(plan)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(30));
    let total = runtime.rank_map().total_ranks();
    let root = root_seed % total;
    runtime
        .launch_cpu_only(move |ctx| {
            let rank = ctx.rank();
            ctx.barrier().unwrap();

            // Allreduce: byte-exact against the sequential fold.
            let got = ctx.allreduce(&reduce_input(rank, count), op).unwrap();
            assert_eq!(
                got,
                sequential_reduce(total, count, op),
                "allreduce diverged under {plan:?} on rank {rank}"
            );

            // Broadcast: a uniform down payload relayed through the plan.
            let mut data = if rank == root {
                gather_chunk(root, chunk_len)
            } else {
                vec![0u8; chunk_len]
            };
            ctx.broadcast(root, &mut data).unwrap();
            assert_eq!(
                data,
                gather_chunk(root, chunk_len),
                "broadcast diverged under {plan:?} on rank {rank}"
            );

            // Allgather: uniform down carrying every rank's chunk.
            let chunks = ctx.allgather(&gather_chunk(rank, chunk_len)).unwrap();
            for (r, chunk) in chunks.iter().enumerate() {
                assert_eq!(
                    chunk,
                    &gather_chunk(r, chunk_len),
                    "allgather diverged under {plan:?} on rank {rank}"
                );
            }

            // Gather: per-node down frames, split per subtree on the tree
            // plan — the schedule's only non-uniform down path.
            let gathered = ctx.gather(root, &gather_chunk(rank, chunk_len)).unwrap();
            if rank == root {
                let chunks = gathered.expect("root receives gather");
                for (r, chunk) in chunks.iter().enumerate() {
                    assert_eq!(
                        chunk,
                        &gather_chunk(r, chunk_len),
                        "gather diverged under {plan:?} at root {rank}"
                    );
                }
            } else {
                assert!(gathered.is_none(), "non-root received a gather result");
            }
            ctx.barrier().unwrap();
        })
        .expect("forced-plan launch");
}

/// Random node counts, rank layouts, payload sizes and reduce ops: all
/// four plans reproduce the sequential reference exactly.  Node counts
/// reach past the power-of-two boundary so recursive doubling exercises
/// its fold-in/fold-out extras and the tree its uneven subtrees.
#[test]
fn all_plans_agree_on_random_cases() {
    check(name!(), 5, |rng| {
        let nodes = rng.range(2..10);
        let cpus = rng.range(1..3);
        let count = rng.range(1..33);
        let chunk_len = rng.range(1..25);
        let op_sel = rng.range(0..3);
        let root_seed = rng.next_u64() as usize;
        let op = match op_sel {
            0 => ReduceOp::Sum,
            1 => ReduceOp::Min,
            _ => ReduceOp::Max,
        };
        for plan in PLANS {
            run_under_plan(plan, nodes, cpus, count, chunk_len, op, root_seed);
        }
    });
}

/// Deterministic anchor at the benchmark scale: 32 nodes, every plan, both
/// a sub-chunk payload (smaller than the ring's per-node chunk granularity)
/// and one that splits evenly.
#[test]
fn all_plans_agree_at_32_nodes() {
    for plan in PLANS {
        run_under_plan(plan, 32, 1, 1, 3, ReduceOp::Sum, 13);
        run_under_plan(plan, 32, 1, 64, 8, ReduceOp::Max, 31);
    }
}
