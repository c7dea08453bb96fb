//! The comm thread's bookkeeping must stay bounded however often a job
//! errors: a long-lived communicator (the world is never freed) may not keep
//! a tombstone or a buffered frame per failed collective.

use std::time::Duration;

use dcgn::{DcgnConfig, DcgnError, MetricsHandle, ReduceOp, Runtime};

/// 2,000 deliberately mismatched world collectives on two nodes, alternating
/// the two ways a mismatch is found:
///
/// * even rounds — whole nodes disagree (node 0 enters a barrier, node 1 an
///   allreduce), which node 0 discovers from the identity inside node 1's
///   frame and aborts;
/// * odd rounds — node 0's own two ranks disagree, so node 0 aborts at the
///   join, possibly before node 1 has assembled: node 1 then holds a
///   tombstone (and node 0 possibly an early frame) for a collective it has
///   not entered yet.
///
/// Afterwards both bookkeeping gauges read zero on both nodes, never held
/// more than a few entries at once, and a correct collective still succeeds.
#[test]
fn mismatched_world_collectives_leave_no_tombstones_or_early_frames() {
    const ROUNDS: usize = 2_000;
    let metrics = MetricsHandle::new();
    let config = DcgnConfig::homogeneous(2, 2, 0, 0).with_metrics(metrics.clone());
    let mut runtime = Runtime::new(config).unwrap();
    runtime.set_request_timeout(Duration::from_secs(20));
    runtime
        .launch_cpu_only(|ctx| {
            for round in 0..ROUNDS {
                let barrier = if round % 2 == 0 {
                    ctx.node() == 0
                } else {
                    ctx.node() == 1 || ctx.rank() % 2 == 0
                };
                let outcome = if barrier {
                    ctx.barrier()
                } else {
                    ctx.allreduce(&[1.0], ReduceOp::Sum).map(|_| ())
                };
                assert!(
                    matches!(outcome, Err(DcgnError::CollectiveMismatch { .. })),
                    "round {round}, rank {}: expected a collective mismatch, got {outcome:?}",
                    ctx.rank()
                );
            }
            // Nothing is poisoned: everyone agrees again and it just works.
            let sum = ctx.allreduce(&[1.0], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![4.0]);
            ctx.barrier().unwrap();
        })
        .unwrap();

    let snap = metrics.snapshot();
    for node in 0..2 {
        for name in ["exchange.tombstones", "exchange.early_frames"] {
            let gauge = snap.gauge(&format!("{name}.node{node}"));
            assert_eq!(
                gauge.value, 0,
                "{name} on node {node} after {ROUNDS} failures"
            );
            assert!(
                gauge.high_water <= 4,
                "{name} on node {node} grew to {} entries over {ROUNDS} failures",
                gauge.high_water
            );
        }
    }
}
