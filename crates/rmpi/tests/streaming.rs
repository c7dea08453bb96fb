//! Property tests of the chunked, credit-windowed rendezvous pipeline.
//!
//! Each case launches a set of concurrent transfers between random rank
//! pairs — several sharing the same pair so chunk and credit frames for
//! distinct transfers interleave on one wire — and runs the identical
//! traffic twice: once streamed (small chunk, narrow window) and once with
//! every payload one chunk (`chunk_bytes = 0`).  The streamed
//! run must deliver byte-for-byte what the sequential-reference run does,
//! which in turn must match the deterministic per-transfer pattern.

use std::sync::{Mutex, MutexGuard, PoisonError};

use dcgn_netsim::buffer::ENVELOPE_BYTES;
use dcgn_rmpi::{MpiWorld, RankPlacement, RdvConfig};
use dcgn_simtime::CostModel;
use dcgn_testkit::{check, name, Rng};

const RANKS: usize = 3;

/// Every streamed transfer bumps the process-wide `rmpi.rdv.*` instruments,
/// so the tests of this file run one at a time for a test that counts them.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One point-to-point transfer: who sends, who receives, how many bytes,
/// and the pattern seed.  Derived deterministically from a single u64 so
/// the property draws a flat vector of `u64`s.
#[derive(Clone, Copy, Debug)]
struct Transfer {
    src: usize,
    dst: usize,
    len: usize,
    seed: u64,
}

impl Transfer {
    fn from_seed(seed: u64) -> Self {
        let src = (seed % RANKS as u64) as usize;
        let dst = (src + 1 + ((seed >> 2) % (RANKS as u64 - 1)) as usize) % RANKS;
        // Sizes straddle several chunk counts: ~1KB up to ~40KB.
        let len = 1024 + ((seed >> 8) % 40_000) as usize;
        Transfer {
            src,
            dst,
            len,
            seed,
        }
    }

    fn pattern(&self) -> Vec<u8> {
        let mul = self.seed | 1;
        (0..self.len)
            .map(|i| ((i as u64).wrapping_mul(mul) >> 5) as u8)
            .collect()
    }
}

/// Run every transfer concurrently (all `isend`s and `irecv`s posted before
/// any wait) under the given protocol config and return, per transfer
/// index, the bytes the destination rank received.
fn run_transfers(transfers: &[Transfer], rdv: RdvConfig) -> Vec<Vec<u8>> {
    let transfers = transfers.to_vec();
    let per_rank = MpiWorld::run_with(
        &RankPlacement::block(RANKS, 1),
        CostModel::zero(),
        rdv,
        move |mut comm| {
            let me = comm.rank();
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for (idx, t) in transfers.iter().enumerate() {
                let tag = idx as u32;
                if t.src == me {
                    sends.push(comm.isend(t.dst, tag, t.pattern()).unwrap());
                }
                if t.dst == me {
                    recvs.push((idx, comm.irecv(Some(t.src), Some(tag)).unwrap()));
                }
            }
            let mut received = Vec::new();
            for (idx, req) in recvs {
                let (data, status) = comm.wait_recv(req).unwrap();
                assert_eq!(status.len, data.len());
                received.push((idx, data.into_vec()));
            }
            for req in sends {
                comm.wait_send(req).unwrap();
            }
            received
        },
    )
    .expect("valid rendezvous config");

    let mut by_index = vec![Vec::new(); transfers_len(&per_rank)];
    for rank_results in per_rank {
        for (idx, data) in rank_results {
            by_index[idx] = data;
        }
    }
    by_index
}

fn transfers_len(per_rank: &[Vec<(usize, Vec<u8>)>]) -> usize {
    per_rank
        .iter()
        .flat_map(|r| r.iter().map(|(idx, _)| idx + 1))
        .max()
        .unwrap_or(0)
}

/// A real streamed send (sixteen 4 KiB chunks through a two-chunk window,
/// nothing hand-fed) delivers the sender's staged buffer itself: the
/// received payload points at it, and — because the sender lets go of it
/// before the last chunk leaves — the receiver is its only owner the moment
/// the receive completes, so `into_vec` takes the allocation instead of
/// copying out of it.  Under a zero cost model the two ranks race as hard as
/// they can; the hand-off must hold in every round, not in most.
#[test]
fn streamed_send_hands_the_staged_buffer_to_the_receiver_every_time() {
    let _serial = serial();
    const LEN: usize = 64 * 1024;
    const ROUNDS: usize = 200;
    let rdv = RdvConfig::new(512).with_chunk_bytes(4096).with_window(2);
    let fallbacks = MpiWorld::run_with(
        &RankPlacement::block(2, 1),
        CostModel::zero(),
        rdv,
        |mut comm| {
            let mut fallbacks = 0;
            for round in 0..ROUNDS {
                if comm.rank() == 0 {
                    let staged = vec![round as u8; LEN];
                    let address = staged.as_ptr() as usize;
                    comm.send(1, 1, &address.to_le_bytes()).unwrap();
                    let req = comm.isend(1, 2, staged).unwrap();
                    comm.wait_send(req).unwrap();
                } else {
                    let (address, _) = comm.recv(Some(0), Some(1)).unwrap();
                    let address = usize::from_le_bytes(address.as_slice().try_into().unwrap());
                    let (data, status) = comm.recv(Some(0), Some(2)).unwrap();
                    assert_eq!(status.len, LEN);
                    assert_eq!(data.as_slice().as_ptr() as usize, address, "round {round}");
                    let out = data.into_vec();
                    assert_eq!(out, vec![round as u8; LEN]);
                    fallbacks += usize::from(out.as_ptr() as usize != address);
                }
            }
            fallbacks
        },
    )
    .expect("valid rendezvous config");
    assert_eq!(fallbacks, [0, 0], "copy fall-backs per rank");
}

/// A rendezvous receive records exactly one
/// `rmpi.rdv.transfer_bytes_per_sec` sample; an eager receive records none.
/// A rendezvous transfer cuts one chunk per `chunk_bytes`, the last
/// absorbing a tail of at most an envelope.
#[test]
fn each_streamed_receive_records_one_throughput_sample() {
    let _serial = serial();
    const CHUNK: usize = 1000;
    let rdv = RdvConfig::new(512).with_chunk_bytes(CHUNK).with_window(2);
    let metrics = dcgn_metrics::global();
    let samples = || {
        let rate = metrics.histogram("rmpi.rdv.transfer_bytes_per_sec");
        rate.stats().count
    };
    let chunks = || metrics.counter("rmpi.rdv.chunks").get();
    // (message bytes, chunks it streams as)
    let cases = [
        (512, 0),                        // eager
        (CHUNK + ENVELOPE_BYTES, 1),     // a one-chunk stream
        (CHUNK + ENVELOPE_BYTES + 1, 2), // streamed
        (3 * CHUNK + ENVELOPE_BYTES, 3), // the last chunk absorbs the tail
        (3 * CHUNK + ENVELOPE_BYTES + 1, 4),
    ];
    for (len, streamed_chunks) in cases {
        let (samples_before, chunks_before) = (samples(), chunks());
        MpiWorld::run_with(
            &RankPlacement::block(2, 1),
            CostModel::zero(),
            rdv,
            move |mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, &vec![7u8; len]).unwrap();
                } else {
                    let (data, _) = comm.recv(Some(0), Some(0)).unwrap();
                    assert_eq!(data, vec![7u8; len]);
                }
            },
        )
        .expect("valid rendezvous config");
        let streamed = u64::from(streamed_chunks > 0);
        assert_eq!(samples() - samples_before, streamed, "{len}-byte message");
        assert_eq!(
            chunks() - chunks_before,
            streamed_chunks,
            "{len}-byte message"
        );
    }
}

/// N interleaved chunked transfers deliver exactly what one-chunk
/// transfers deliver, which matches the expected pattern.
#[test]
fn interleaved_chunked_transfers_match_sequential_reference() {
    check(name!(), 8, |rng| {
        let seeds = rng.vec(2..6, Rng::next_u64);
        let pair_seed = rng.next_u64();
        let chunk = rng.range(1024..16_384);
        let window = rng.range(1..5);
        let _serial = serial();
        let mut transfers: Vec<Transfer> = seeds.iter().copied().map(Transfer::from_seed).collect();
        // Force at least two transfers onto the same rank pair so their
        // chunk/credit streams interleave on a single wire.
        let dup = Transfer::from_seed(pair_seed);
        transfers.push(dup);
        transfers.push(Transfer::from_seed(pair_seed.wrapping_add(0x9E37_79B9)));
        transfers.push(Transfer {
            seed: dup.seed ^ 0xA5A5,
            ..dup
        });

        // Tiny eager threshold: every transfer takes the rendezvous path.
        let streamed_cfg = RdvConfig::new(512)
            .with_chunk_bytes(chunk)
            .with_window(window);
        let legacy_cfg = RdvConfig::new(512).with_chunk_bytes(0);

        let streamed = run_transfers(&transfers, streamed_cfg);
        let reference = run_transfers(&transfers, legacy_cfg);

        assert_eq!(streamed.len(), transfers.len());
        for (idx, t) in transfers.iter().enumerate() {
            assert_eq!(&streamed[idx], &reference[idx]);
            assert_eq!(&streamed[idx], &t.pattern());
        }
    });
}
