//! Pool accounting across the full receive path.
//!
//! The pooled [`dcgn::Payload`] is threaded from kernel staging through the
//! comm thread's wire framing, the `dcgn_rmpi` substrate's eager/rendezvous
//! packets and the `dcgn_netsim` fabric, back up to delivery: one message
//! acquires exactly **one** pooled buffer (the send-side staging), the
//! receive side only ever re-slices it, and `ctx.recv` hands that very
//! allocation to the caller.  A streamed message is no exception: its chunks
//! are views of the staged buffer, the receiver coalesces them back into one
//! view of it, and the sender lets go before the last chunk leaves.
//! These tests live in their own file — their own test process — because
//! the slab pool's counters are global and concurrently running tests would
//! pollute them; within the file they take turns on [`POOL_COUNTERS`].

use std::sync::{Arc, Mutex};

use dcgn::{DcgnConfig, Payload, Runtime};
use dcgn_netsim::pool_stats;
// The envelope the runtime appends to a cross-node body; every pool class
// is a power of two plus this.
use dcgn_netsim::buffer::ENVELOPE_BYTES as ENVELOPE;

/// Serialises the tests of this file: each one deltas the global counters.
static POOL_COUNTERS: Mutex<()> = Mutex::new(());

/// Pool traffic of one round, as seen from rank 0 between two barriers, and
/// the capacity of the `Vec` rank 1's `ctx.recv` returned.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    /// Pooled-buffer acquisitions (fresh allocations + slab reuses).
    /// Recycling does not count: returning a buffer is not a copy.
    acquisitions: u64,
    /// Acquisitions the slab could not serve (`pool.acquire_miss`).
    misses: u64,
    recv_capacity: usize,
}

/// Send one `size`-byte message per round from rank 0 (node 0) to rank 1
/// (node 1), quiescing both ranks around every round.  Collective exchange
/// frames adopt their existing allocations (`Payload::from_vec`), so the
/// barriers cost zero acquisitions and each delta isolates one message.
fn cross_node_rounds(size: usize, rounds: usize) -> Vec<Round> {
    let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
    let log = Arc::new(Mutex::new(vec![Round::default(); rounds]));
    let shared = Arc::clone(&log);
    runtime
        .launch_cpu_only(move |ctx| {
            for round in 0..rounds {
                ctx.barrier().unwrap();
                let before = pool_stats();
                if ctx.rank() == 0 {
                    ctx.send(1, &vec![round as u8; size]).unwrap();
                } else {
                    let (data, status) = ctx.recv(0).unwrap();
                    assert_eq!(status.len, size);
                    assert_eq!(data, vec![round as u8; size]);
                    shared.lock().unwrap()[round].recv_capacity = data.capacity();
                }
                ctx.barrier().unwrap();
                if ctx.rank() == 0 {
                    let after = pool_stats();
                    let misses = after.allocated - before.allocated;
                    let entry = &mut shared.lock().unwrap()[round];
                    entry.acquisitions = misses + (after.reused - before.reused);
                    entry.misses = misses;
                }
            }
            ctx.barrier().unwrap();
        })
        .unwrap();
    let log = log.lock().unwrap().clone();
    log
}

#[test]
fn cross_node_message_acquires_exactly_one_pooled_buffer() {
    let _turn = POOL_COUNTERS.lock().unwrap();
    // Power-of-two bodies either side of the eager threshold: 1 KiB travels
    // eager, 128 KiB as a one-chunk rendezvous — or, under CI's tiny-chunk
    // pass, streamed, which must cost no more.
    for size in [1 << 10, 1 << 17] {
        // One acquisition per message: the sender's staging buffer.  Framing
        // appends the envelope in place, the fabric moves the frame, the
        // substrate hands it back out as the received frame, the delivered
        // body is a slice of it, and `ctx.recv` takes the allocation.  A
        // recv-side copy-out would show up below as a `Vec` of exactly
        // `size` capacity instead of the staged buffer's pool class.
        for (round, got) in cross_node_rounds(size, 8).into_iter().enumerate() {
            assert_eq!(
                got.acquisitions, 1,
                "{size} B, round {round}: the receive path must not acquire \
                 pooled buffers"
            );
            assert_eq!(
                got.recv_capacity,
                size + ENVELOPE,
                "{size} B, round {round}: ctx.recv must hand out the pooled \
                 allocation itself, not a copy of its body"
            );
        }
    }
}

#[test]
fn streamed_message_costs_no_assembly_buffer_and_no_copy_out() {
    let _turn = POOL_COUNTERS.lock().unwrap();
    // 4 MiB streams under the default 256 KiB chunk (and under any smaller
    // one): body + envelope is exactly the pool's largest class.
    const SIZE: usize = 4 << 20;
    let rounds = cross_node_rounds(SIZE, 4);
    for (round, got) in rounds.iter().enumerate() {
        // The `Vec` from `ctx.recv` is the staged allocation: a copy-out
        // would have exactly `SIZE` capacity.
        assert_eq!(got.recv_capacity, SIZE + ENVELOPE, "round {round}");
        // And staging it was the message's only acquisition.
        assert_eq!(got.acquisitions, 1, "round {round}: {got:?}");
    }
    // The buffer leaves with the receiving caller, so each message's stage
    // is at most one fresh allocation.
    for (round, got) in rounds.iter().enumerate().skip(1) {
        assert!(
            got.acquisitions <= 2 && got.misses <= 1,
            "round {round}: {got:?} — one stage, at most freshly allocated"
        );
    }
}

/// What the receiver does per chunk, with the counters quiet: re-joining
/// consecutive views of one allocation moves no pool counter either way.
#[test]
fn coalescing_chunk_views_touches_the_pool_neither_way() {
    let _turn = POOL_COUNTERS.lock().unwrap();
    let staged = Payload::copy_from_slice(&[5u8; 3 * 4096 + ENVELOPE]);
    let before = pool_stats();
    let mut joined = Payload::empty();
    // Three chunks, the last one absorbing the envelope.
    for range in [0..4096, 4096..8192, 8192..staged.len()] {
        joined.append(staged.slice(range));
    }
    assert_eq!(joined.as_slice().as_ptr(), staged.as_slice().as_ptr());
    assert_eq!(joined.len(), staged.len());
    assert_eq!(pool_stats(), before);
}
