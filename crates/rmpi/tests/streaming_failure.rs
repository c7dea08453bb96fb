//! Mid-stream failure containment for the chunked rendezvous pipeline.
//!
//! A peer that dies partway through a streamed transfer must not hang the
//! survivors or leak pooled frames.  This test lives in its own file — its
//! own test process — because the slab pool's counters are global and
//! concurrently running tests would pollute them.

use std::time::Duration;

use dcgn_netsim::{pool_stats, Payload};
use dcgn_rmpi::{MpiWorld, RankPlacement, RdvConfig, RmpiError};
use dcgn_simtime::CostModel;

/// Total pooled-buffer acquisitions so far (fresh allocations + reuses).
fn acquisitions() -> u64 {
    let stats = pool_stats();
    stats.allocated + stats.reused
}

/// Rank 1 accepts a streamed transfer (CTS sent, the first chunks coalesced
/// into its view of the sender's staged buffer, a credit window of chunks in
/// flight) and then drops its communicator without draining the stream.
/// Rank 0, blocked on credits mid-stream, must surface an error —
/// Disconnected or Stalled — instead of hanging, and once both sides have
/// let go every pooled frame the broken transfer touched (the staged buffer
/// that the sender, the receiver's half-grown view and the chunks stranded
/// on the wire all referenced) must have been recycled back to the slab,
/// leaving `pool.retained` at its baseline.
#[test]
fn peer_death_mid_stream_errors_out_and_leaks_no_frames() {
    const BIG: usize = 200 * 1024;
    const SMALL: usize = 64;

    let retained = dcgn_metrics::global().gauge("pool.retained");
    let before_acquired = acquisitions();
    let before = pool_stats();
    let before_retained = retained.get();

    // Small chunks and a narrow window: the sender cannot finish the
    // stream without credits the dying receiver will never send.
    let rdv = RdvConfig::new(4096)
        .with_chunk_bytes(8 * 1024)
        .with_window(2);
    let results = MpiWorld::run_with(
        &RankPlacement::block(2, 1),
        CostModel::zero(),
        rdv,
        move |mut comm| {
            comm.set_progress_timeout(Duration::from_millis(200));
            if comm.rank() == 0 {
                // Staged through the pool, as the DCGN layers above stage.
                let staged = Payload::copy_from_slice(&[0xABu8; BIG]);
                let big = comm.isend(1, 1, staged).unwrap();
                let small = comm.isend(1, 2, vec![0xCDu8; SMALL]).unwrap();
                comm.wait_send(small).unwrap();
                // The streamed send must fail, not hang.
                Some(comm.wait_send(big).unwrap_err())
            } else {
                // Posting the big irecv lets the progress engine accept the
                // RTS (CTS goes out, chunks start flowing) while we block on
                // the small eager message; returning afterwards kills the
                // peer mid-stream.
                let _pending = comm.irecv(Some(0), Some(1)).unwrap();
                let (data, _) = comm.recv(Some(0), Some(2)).unwrap();
                assert_eq!(data.len(), SMALL);
                None
            }
        },
    )
    .expect("valid rendezvous config");

    match results[0]
        .as_ref()
        .expect("rank 0 must observe the failure")
    {
        RmpiError::Disconnected | RmpiError::Stalled(_) => {}
        other => panic!("expected Disconnected or Stalled, got {other:?}"),
    }

    // Every frame acquired during the broken run is back in the slab: the
    // per-class retention caps are far above this test's traffic, so a
    // leaked payload would show up as acquired > recycled.
    let acquired = acquisitions() - before_acquired;
    let recycled = pool_stats().recycled - before.recycled;
    assert!(
        acquired > 0,
        "the streamed transfer must have used the pool"
    );
    assert_eq!(
        acquired, recycled,
        "every pooled frame touched by the broken stream must be recycled"
    );
    // The same in the gauge: the slab holds what it held before, plus the
    // buffers this run had to allocate afresh — none is still out.
    assert_eq!(
        retained.get(),
        before_retained + (pool_stats().allocated - before.allocated),
        "pool.retained must be back at its baseline"
    );
}
