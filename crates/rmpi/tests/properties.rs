//! Property-based tests of the message passing substrate.

use dcgn_rmpi::{bytes_to_f64s, f64s_to_bytes, MpiWorld, RankPlacement, ReduceOp};
use dcgn_simtime::CostModel;
use dcgn_testkit::{check, name};

/// Any payload (including sizes straddling the eager/rendezvous
/// threshold) survives a round trip between two ranks bit-for-bit.
#[test]
fn send_recv_roundtrip_arbitrary_payload() {
    check(name!(), 12, |rng| {
        let len = rng.one_of(&[0..128, 60_000..70_000, 100_000..140_000]);
        let seed = rng.next_u64();
        let tag = rng.range(0..1000) as u32;
        let payload: Vec<u8> = (0..len)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 3) as u8)
            .collect();
        let expected = payload.clone();
        let results = MpiWorld::run(
            &RankPlacement::block(2, 1),
            CostModel::zero(),
            move |mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, tag, &payload).unwrap();
                    Vec::new()
                } else {
                    let (data, status) = comm.recv(Some(0), Some(tag)).unwrap();
                    assert_eq!(status.len, data.len());
                    data.into_vec()
                }
            },
        );
        assert_eq!(&results[1], &expected);
    });
}

/// Broadcast delivers the root's bytes to every rank for arbitrary rank
/// counts and roots.
#[test]
fn bcast_reaches_all_ranks() {
    check(name!(), 12, |rng| {
        let nodes = rng.range(1..4);
        let per_node = rng.range(1..3);
        let root_seed = rng.next_u64() as usize;
        let len = rng.range(0..4096);
        let total = nodes * per_node;
        let root = root_seed % total;
        let payload: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        let expected = payload.clone();
        let results = MpiWorld::run(
            &RankPlacement::block(nodes, per_node),
            CostModel::zero(),
            move |mut comm| {
                let mut data = if comm.rank() == root {
                    payload.clone()
                } else {
                    Vec::new()
                };
                comm.bcast(root, &mut data).unwrap();
                data
            },
        );
        for r in results {
            assert_eq!(&r, &expected);
        }
    });
}

/// Allreduce(sum) equals the sequentially computed sum regardless of the
/// rank count or data.
#[test]
fn allreduce_matches_sequential_sum() {
    check(name!(), 12, |rng| {
        let nodes = rng.range(1..4);
        let per_node = rng.range(1..3);
        let values = rng.vec(1..8, |rng| -1.0e6 + rng.unit() * 2.0e6);
        let total_ranks = nodes * per_node;
        let len = values.len();
        let vals = values.clone();
        let results = MpiWorld::run(
            &RankPlacement::block(nodes, per_node),
            CostModel::zero(),
            move |mut comm| {
                let mine: Vec<f64> = vals
                    .iter()
                    .map(|v| v * (comm.rank() as f64 + 1.0))
                    .collect();
                comm.allreduce_f64(&mine, ReduceOp::Sum).unwrap()
            },
        );
        let scale: f64 = (1..=total_ranks).map(|r| r as f64).sum();
        for r in results {
            assert_eq!(r.len(), len);
            for (i, v) in r.iter().enumerate() {
                let expect = values[i] * scale;
                assert!((v - expect).abs() <= 1e-6 * expect.abs().max(1.0));
            }
        }
    });
}

/// Gather followed by scatter is the identity on per-rank chunks.
#[test]
fn gather_then_scatter_roundtrip() {
    check(name!(), 12, |rng| {
        let nodes = rng.range(1..3);
        let per_node = rng.range(1..4);
        let chunk_len = rng.range(1..64);
        let results = MpiWorld::run(
            &RankPlacement::block(nodes, per_node),
            CostModel::zero(),
            move |mut comm| {
                let mine = vec![comm.rank() as u8 ^ 0x5A; chunk_len];
                let gathered = comm.gather(0, &mine).unwrap();
                let back = comm.scatter(0, gathered.as_deref()).unwrap();
                (mine, back)
            },
        );
        for (mine, back) in results {
            assert_eq!(mine, back);
        }
    });
}

/// f64 <-> byte conversion is a lossless round trip.
#[test]
fn f64_byte_conversion_roundtrip() {
    check(name!(), 12, |rng| {
        let values = rng.vec(0..64, |rng| f64::from_bits(rng.next_u64()));
        let bytes = f64s_to_bytes(&values);
        let back = bytes_to_f64s(&bytes);
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    });
}
