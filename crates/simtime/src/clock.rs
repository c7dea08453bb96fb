//! The one owner of time: every time read, sleep and timed wait of the stack
//! goes through a [`Clock`], so a paused, discrete-event clock can replace the
//! host's real one here without touching the layers above.  Each
//! [`Clock::charge`] also adds the modelled nanoseconds it blocked for to the
//! clock's **cost ledger**, one `model.charged_ns.<kind>` counter per
//! [`Charge`] kind, exact however noisy the wall clock is.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use dcgn_metrics::{Counter, MetricsHandle};
use parking_lot::{Condvar, MutexGuard};

use crate::cost::CostModel;
use crate::sleep::sleep_from;

/// What a modelled cost pays for: each kind has its own ledger counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// A host ↔ device transfer over PCI-e.
    Pcie,
    /// A frame on an inter-node NIC.
    Network,
    /// A shared-memory copy within a node.
    IntraNode,
    /// A NIC's receive drain of a rendezvous payload.
    Drain,
    /// A hand-off across one of DCGN's internal work queues.
    QueueHop,
    /// A kernel launch.
    Launch,
    /// The GPU-kernel thread's idle sleep between mailbox sweeps.
    Poll,
}

/// Ledger kind names, indexed by `Charge as usize`.
const KINDS: [&str; 7] = [
    "pcie",
    "network",
    "intra_node",
    "drain",
    "queue_hop",
    "launch",
    "poll",
];

/// A reading of a [`Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp(Instant);

/// The point at which a timed wait gives up.  A wait too long to represent
/// saturates to [`Deadline::NEVER`] instead of overflowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never passes.
    pub const NEVER: Deadline = Deadline(None);

    /// `wait` after `now`, or never when that is past the clock's range.
    pub fn after(now: Stamp, wait: Duration) -> Deadline {
        Deadline(now.0.checked_add(wait))
    }

    /// The earlier of two deadlines.
    pub fn min(self, other: Deadline) -> Deadline {
        match (self.0, other.0) {
            (Some(a), Some(b)) => Deadline(Some(a.min(b))),
            (a, b) => Deadline(a.or(b)),
        }
    }
}

/// The simulation's clock: reads the time, waits, and charges modelled
/// hardware costs into its cost ledger.  Cloning shares the clock.
#[derive(Debug, Clone)]
pub struct Clock(Arc<Ledger>);

#[derive(Debug)]
struct Ledger {
    model: CostModel,
    charged_ns: [Counter; 7],
}

impl Clock {
    /// A clock charging by `model`, with its ledger in `metrics`.
    pub fn new(model: CostModel, metrics: &MetricsHandle) -> Clock {
        Clock(Arc::new(Ledger {
            model,
            charged_ns: KINDS.map(|kind| metrics.counter(&format!("model.charged_ns.{kind}"))),
        }))
    }

    /// The cost model this clock charges by.
    pub fn model(&self) -> &CostModel {
        &self.0.model
    }

    /// The current time.
    pub fn now(&self) -> Stamp {
        Stamp(Instant::now())
    }

    /// Time since `since`.
    pub fn elapsed(&self, since: Stamp) -> Duration {
        since.0.elapsed()
    }

    /// The deadline `wait` from now.
    pub fn deadline(&self, wait: Duration) -> Deadline {
        Deadline::after(self.now(), wait)
    }

    /// True once `deadline` has passed.
    pub fn passed(&self, deadline: Deadline) -> bool {
        deadline.0.is_some_and(|at| Instant::now() >= at)
    }

    /// Pause the calling thread for at least `d` without burning the CPU;
    /// the OS may wake it late.  Not a modelled cost: nothing is charged.
    pub fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// Offer the CPU to another thread.
    pub fn yield_now(&self) {
        std::thread::yield_now();
    }

    /// Pay the modelled cost `d` of a `kind` of hardware step: block for
    /// exactly `d` ([`crate::precise_sleep`]) and add it to the ledger.  The
    /// ledger's update is part of the `d`, not added to it.
    pub fn charge(&self, kind: Charge, d: Duration) {
        if d.is_zero() {
            return;
        }
        let start = Instant::now();
        self.0.charged_ns[kind as usize].add(d.as_nanos() as u64);
        sleep_from(start, d);
    }

    /// Receive from `rx`, waiting until `deadline` at most.
    pub fn recv_until<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Deadline,
    ) -> Result<T, RecvTimeoutError> {
        match deadline.0 {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        }
    }

    /// Wait on `cv`, releasing `guard` meanwhile, until notified or until
    /// `deadline`; true when the wait ended because the deadline passed.
    pub fn wait_until<T>(
        &self,
        cv: &Condvar,
        guard: &mut MutexGuard<'_, T>,
        deadline: Deadline,
    ) -> bool {
        match deadline.0 {
            None => {
                cv.wait(guard);
                false
            }
            Some(at) => cv.wait_until(guard, at).timed_out(),
        }
    }
}

impl From<CostModel> for Clock {
    /// A clock with its ledger in the process-wide [`dcgn_metrics::global`]
    /// registry.
    fn from(model: CostModel) -> Clock {
        Clock::new(model, dcgn_metrics::global())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(metrics: &MetricsHandle) -> Vec<u64> {
        let snap = metrics.snapshot();
        KINDS
            .iter()
            .map(|kind| snap.counter(&format!("model.charged_ns.{kind}")))
            .collect()
    }

    #[test]
    fn a_charge_lands_on_its_own_kind_only() {
        let kinds = [
            Charge::Pcie,
            Charge::Network,
            Charge::IntraNode,
            Charge::Drain,
            Charge::QueueHop,
            Charge::Launch,
            Charge::Poll,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let metrics = MetricsHandle::new();
            let clock = Clock::new(CostModel::zero(), &metrics);
            let d = Duration::from_nanos(1_000 + i as u64);
            let start = clock.now();
            clock.charge(kind, d);
            assert!(
                clock.elapsed(start) >= d,
                "{kind:?} did not block for {d:?}"
            );
            clock.charge(kind, Duration::ZERO);
            let mut want = vec![0; KINDS.len()];
            want[i] = d.as_nanos() as u64;
            assert_eq!(ledger(&metrics), want, "{kind:?} charged elsewhere");
        }
    }

    #[test]
    fn a_maximal_deadline_never_passes() {
        let clock = Clock::from(CostModel::zero());
        let never = Deadline::after(clock.now(), Duration::MAX);
        assert_eq!(never, Deadline::NEVER);
        assert!(!clock.passed(never));
        let soon = clock.deadline(Duration::from_millis(1));
        assert_eq!(never.min(soon), soon);
        assert_eq!(soon.min(never), soon);
        crate::precise_sleep(Duration::from_millis(1));
        assert!(clock.passed(soon));
    }

    #[test]
    fn recv_until_returns_at_its_deadline() {
        let clock = Clock::from(CostModel::zero());
        let (tx, rx) = crossbeam::channel::unbounded::<u32>();
        let wait = Duration::from_millis(5);
        let start = clock.now();
        let got = clock.recv_until(&rx, clock.deadline(wait));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        assert!(clock.elapsed(start) >= wait);
        tx.send(7).unwrap();
        assert_eq!(clock.recv_until(&rx, Deadline::NEVER), Ok(7));
        drop(tx);
        assert_eq!(
            clock.recv_until(&rx, Deadline::NEVER),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn wait_until_times_out_at_its_deadline() {
        let clock = Clock::from(CostModel::zero());
        let (lock, cv) = (parking_lot::Mutex::new(()), Condvar::new());
        let mut guard = lock.lock();
        let wait = Duration::from_millis(2);
        let start = clock.now();
        assert!(clock.wait_until(&cv, &mut guard, clock.deadline(wait)));
        assert!(clock.elapsed(start) >= wait);
    }
}
