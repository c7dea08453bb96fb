//! Property tests of the nonblocking point-to-point subsystem: on randomly
//! drawn mixed CPU/GPU rank layouts, every rank runs a ring exchange whose
//! publish order, completion strategy (`wait` in order, reversed, `test`
//! polling, `waitall`) and blocking/nonblocking mix are all seed-driven.
//! Payloads are deterministic functions of `(seed, src, round)`, so the
//! blocking reference — what each rank must receive, in FIFO order per
//! `(source, tag)` — is computable without communication and every
//! interleaving must reproduce it exactly.

use std::time::Duration;

use dcgn::{DcgnConfig, DevicePtr, Runtime};
use dcgn_testkit::{check, name};

/// Deterministic payload of `src`'s `round`-th message under `seed`.
/// Lengths cross the empty, eager and rendezvous regimes.
fn payload(seed: usize, src: usize, round: usize) -> Vec<u8> {
    let lens = [0usize, 5, 700, 3000];
    let len = lens[(seed + src + 3 * round) % lens.len()];
    let fill = ((seed * 31 + src * 7 + round * 13) % 251) as u8;
    vec![fill; len]
}

#[derive(Debug, Clone, Copy)]
struct Case {
    total: usize,
    seed: usize,
    rounds: usize,
}

/// How a rank collects its completions this round (seed-driven).
fn strategy_of(seed: usize, rank: usize) -> usize {
    (seed / 7 + rank) % 4
}

fn cpu_kernel(ctx: &dcgn::CpuCtx, case: Case) {
    let me = ctx.rank();
    let next = (me + 1) % case.total;
    let prev = (me + case.total - 1) % case.total;

    match strategy_of(case.seed, me) {
        // Fully blocking reference path (send/recv are i* + wait wrappers,
        // but posting order differs from the pipelined variants).
        0 => {
            for round in 0..case.rounds {
                let recv = ctx.irecv(prev).unwrap();
                ctx.send(next, &payload(case.seed, me, round)).unwrap();
                let (data, status) = ctx.wait(recv).unwrap().into_recv().unwrap();
                assert_eq!(status.source, prev);
                assert_eq!(data, payload(case.seed, prev, round));
            }
        }
        // Publish everything, then waitall (sends last, so intra-node
        // deferred send completions cannot deadlock the ring).
        1 => {
            let recvs: Vec<_> = (0..case.rounds).map(|_| ctx.irecv(prev).unwrap()).collect();
            let sends: Vec<_> = (0..case.rounds)
                .map(|round| ctx.isend(next, &payload(case.seed, me, round)).unwrap())
                .collect();
            for (round, done) in ctx.waitall(&recvs).unwrap().into_iter().enumerate() {
                let (data, status) = done.into_recv().unwrap();
                assert_eq!(status.source, prev);
                assert_eq!(data, payload(case.seed, prev, round), "round {round}");
            }
            assert!(ctx.waitall(&sends).unwrap().iter().all(|c| c.is_send()));
        }
        // Publish everything, complete receives in *reverse* round order.
        2 => {
            let recvs: Vec<_> = (0..case.rounds).map(|_| ctx.irecv(prev).unwrap()).collect();
            let sends: Vec<_> = (0..case.rounds)
                .map(|round| ctx.isend(next, &payload(case.seed, me, round)).unwrap())
                .collect();
            for round in (0..case.rounds).rev() {
                let (data, _) = ctx.wait(recvs[round]).unwrap().into_recv().unwrap();
                assert_eq!(data, payload(case.seed, prev, round), "round {round}");
            }
            for send in sends {
                ctx.wait(send).unwrap();
            }
        }
        // Publish everything, drain by test-polling whatever is ready.
        _ => {
            let mut live: Vec<(usize, dcgn::RequestHandle)> = (0..case.rounds)
                .map(|round| (round, ctx.irecv(prev).unwrap()))
                .collect();
            let sends: Vec<_> = (0..case.rounds)
                .map(|round| ctx.isend(next, &payload(case.seed, me, round)).unwrap())
                .collect();
            while !live.is_empty() {
                let mut i = 0;
                while i < live.len() {
                    let (round, handle) = live[i];
                    match ctx.test(handle).unwrap() {
                        Some(done) => {
                            let (data, _) = done.into_recv().unwrap();
                            assert_eq!(data, payload(case.seed, prev, round), "round {round}");
                            live.swap_remove(i);
                        }
                        None => i += 1,
                    }
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            for send in sends {
                ctx.wait(send).unwrap();
            }
        }
    }
}

fn gpu_kernel(ctx: &dcgn::GpuCtx, case: Case) {
    let slot = ctx.slot_for_block();
    if ctx.block().block_id() >= ctx.slots() {
        return;
    }
    let me = ctx.rank(slot);
    let next = (me + 1) % case.total;
    let prev = (me + case.total - 1) % case.total;
    let b = ctx.block();
    // Per-slot scratch stripe, clear of the runtime's mailbox allocations.
    let base = DevicePtr::NULL.add((4 + slot * 4) << 20);
    let out = |round: usize| base.add(round * 8192);
    let inb = |round: usize| base.add((case.rounds + round) * 8192);

    // GPU messages are untagged, so FIFO per source pairs receive k with the
    // peer's k-th send.  Pipeline depth 2 keeps at most 4 requests in flight,
    // within the slot's completion-record column.
    let poll = strategy_of(case.seed, me) % 2 == 1;
    let mut in_flight: Vec<(usize, dcgn::GpuRequest, dcgn::GpuRequest)> = Vec::new();
    let complete_round = |(round, recv, send): (usize, dcgn::GpuRequest, dcgn::GpuRequest)| {
        let status = if poll {
            loop {
                match ctx.test(recv) {
                    Some(status) => break status,
                    None => std::thread::sleep(Duration::from_micros(50)),
                }
            }
        } else {
            ctx.wait(recv)
        };
        assert_eq!(status.source, prev);
        let want = payload(case.seed, prev, round);
        assert_eq!(status.len, want.len(), "round {round}");
        assert_eq!(b.read_vec(inb(round), want.len()), want, "round {round}");
        ctx.wait(send);
    };
    for round in 0..case.rounds {
        let bytes = payload(case.seed, me, round);
        b.write(out(round), &[0u8; 1]); // ensure the stripe exists
        if !bytes.is_empty() {
            b.write(out(round), &bytes);
        }
        let recv = ctx.irecv(slot, prev, inb(round), 4096);
        let send = ctx.isend(slot, next, out(round), bytes.len());
        in_flight.push((round, recv, send));
        if in_flight.len() == 2 {
            complete_round(in_flight.remove(0));
        }
    }
    for entry in in_flight.drain(..) {
        complete_round(entry);
    }
}

fn run_case(nodes: usize, cpus: usize, gpus: usize, slots: usize, seed: usize, rounds: usize) {
    let mut runtime = Runtime::new(DcgnConfig::homogeneous(nodes, cpus, gpus, slots)).unwrap();
    runtime.set_request_timeout(Duration::from_secs(30));
    let case = Case {
        total: runtime.rank_map().total_ranks(),
        seed,
        rounds,
    };
    runtime
        .launch(
            move |ctx| cpu_kernel(ctx, case),
            move |ctx| gpu_kernel(ctx, case),
        )
        .expect("nonblocking property launch");
}

/// Random mixed layouts, publish orders and completion strategies: every
/// interleaving of isend/irecv/wait/test reproduces the blocking
/// reference exactly (payloads, sources, FIFO pairing).
#[test]
fn interleaved_nonblocking_matches_blocking_reference() {
    check(name!(), 6, |rng| {
        let nodes = rng.range(1..3);
        let cpus = rng.range(0..3);
        let gpus = rng.range(0..2);
        let slots = rng.range(1..3);
        let seed = rng.range(0..1000);
        let rounds = rng.range(1..5);
        // A node must contribute at least one rank.
        let cpus = if cpus == 0 && gpus == 0 { 1 } else { cpus };
        run_case(nodes, cpus, gpus, slots, seed, rounds);
    });
}

/// Deterministic mixed case pinned so the GPU split protocol and every CPU
/// completion strategy run on each `cargo test`, independent of the sampled
/// layouts above.
#[test]
fn pinned_mixed_layout_exercises_all_strategies() {
    for seed in [0, 1, 2, 3] {
        run_case(2, 2, 1, 2, seed, 4);
    }
}
