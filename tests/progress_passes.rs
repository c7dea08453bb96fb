//! MPI progress passes per message, counted: `rmpi.progress_passes` counts
//! every pass of every communicator's progress engine, DCGN's comm threads
//! and their shutdown barriers included.
//!
//! The counter lives in the process-wide registry, which every test of a
//! binary shares, so this binary holds one test.  The window runs a short
//! and a long job under `CostModel::zero()`, and the difference divided by
//! the difference in operations is the steady-state count per operation:
//! setup and teardown cancel.

use dcgn::{CostModel, DcgnConfig, Runtime};

/// Messages rank 0 sends per window, each under its own tag.
const MSGS: u32 = 32;

/// 2 nodes × 1 CPU rank: rank 0 sends `MSGS` × 1 KiB and waits for all of
/// them, rank 1 posts the receives, waits for all of them and acks with
/// 0 B; `ops` windows.
fn window(ops: usize) {
    let config = DcgnConfig::homogeneous(2, 1, 0, 0).with_cost(CostModel::zero());
    Runtime::new(config)
        .unwrap()
        .launch_cpu_only(move |ctx| {
            let msg = [3u8; 1024];
            for _ in 0..ops {
                if ctx.rank() == 0 {
                    let reqs: Vec<_> = (0..MSGS)
                        .map(|tag| ctx.isend_tagged(1, tag, &msg).unwrap())
                        .collect();
                    ctx.waitall(&reqs).unwrap();
                    ctx.recv_tagged(Some(1), MSGS).unwrap();
                } else {
                    let reqs: Vec<_> = (0..MSGS)
                        .map(|tag| ctx.irecv_tagged(Some(0), tag).unwrap())
                        .collect();
                    ctx.waitall(&reqs).unwrap();
                    ctx.send_tagged(0, MSGS, &[]).unwrap();
                }
            }
        })
        .unwrap();
}

/// Progress passes made while `window(ops)` ran.
fn passes(ops: usize) -> u64 {
    let counter = dcgn_metrics::global().counter("rmpi.progress_passes");
    let before = counter.get();
    window(ops);
    counter.get() - before
}

/// The comm threads make one progress call per turn, not one per send or
/// per received packet: a window of 33 messages (32 sends and the ack)
/// costs both nodes together fewer passes than it has messages.
#[test]
fn a_window_costs_fewer_progress_passes_than_messages() {
    const SHORT: usize = 50;
    const LONG: usize = 250;
    let short = passes(SHORT);
    let long = passes(LONG);
    let per_op = long.saturating_sub(short) as f64 / (LONG - SHORT) as f64;
    let messages = f64::from(MSGS + 1);
    eprintln!("{per_op:.1} progress passes per window of {messages} messages");
    assert!(
        per_op > 0.0,
        "no progress pass counted: {short} then {long}"
    );
    assert!(
        per_op < messages,
        "{per_op:.1} progress passes per window of {messages} messages"
    );
}
