//! The one owner of time: every time read, sleep and timed wait of the stack
//! goes through a [`Clock`], so a paused, discrete-event clock can replace the
//! host's real one here without touching the layers above.  Each
//! [`Clock::charge`] also adds the modelled nanoseconds it blocked for to the
//! clock's **cost ledger**, one `model.charged_ns.<kind>` counter per
//! [`Charge`] kind, exact however noisy the wall clock is.  Beside it,
//! `model.overshoot_ns.<kind>` counts the real time each charge blocked past
//! its modelled length: wall-clock time, not model, the "OS sleep jitter"
//! term of a measured latency.  Every wait names
//! the event it waits for and a [`Deadline`]; the ones that spin share one
//! budget, and `clock.parks` counts those that outlasted it and blocked: a
//! channel receive ([`crate::channel::Receiver::recv_until`]) or a device
//! block waiting on a word, both a [`Clock::poll_until`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use dcgn_metrics::{Counter, MetricsHandle};
use parking_lot::{Condvar, MutexGuard};

use crate::cost::CostModel;
use crate::sleep::{sleep_from, PARK_AFTER};

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
    /// A hand-off across one of DCGN's internal queues: one hop per
    /// crossing, and a crossing is everything queued when the consumer
    /// drains.  Paid once, by [`crate::channel::Receiver::drain`]; a send
    /// costs the producer nothing modelled.
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
    overshoot_ns: [Counter; 7],
    parks: Counter,
}

impl Clock {
    /// A clock charging by `model`, with its ledger in `metrics`.
    pub fn new(model: CostModel, metrics: &MetricsHandle) -> Clock {
        Clock(Arc::new(Ledger {
            model,
            charged_ns: KINDS.map(|kind| metrics.counter(&format!("model.charged_ns.{kind}"))),
            overshoot_ns: KINDS.map(|kind| metrics.counter(&format!("model.overshoot_ns.{kind}"))),
            parks: metrics.counter("clock.parks"),
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

    /// Pay the modelled cost `d` of a `kind` of hardware step: block for
    /// exactly `d` ([`crate::precise_sleep`]) and add it to the ledger.  The
    /// ledger's update is part of the `d`, not added to it.  The real time
    /// it blocked beyond `d`, read off the wait's own last clock read, goes
    /// to `model.overshoot_ns.<kind>`: that ledger is wall time, not model,
    /// so unlike `model.charged_ns` it varies from run to run.
    pub fn charge(&self, kind: Charge, d: Duration) {
        if d.is_zero() {
            return;
        }
        let start = Instant::now();
        self.0.charged_ns[kind as usize].add(d.as_nanos() as u64);
        let blocked = sleep_from(start, d);
        self.0.overshoot_ns[kind as usize].add((blocked - d).as_nanos() as u64);
    }

    /// Wait until `poll` yields, or `deadline` passes (`None`): yield-poll
    /// for up to 50 µs (`PARK_AFTER`, the stack's one spin budget), then
    /// call `park` on every miss, counted in `clock.parks`; `park` blocks
    /// until what `poll` reads may have changed, or until the deadline it is
    /// given.  The spin is an artefact of the real clock, whose futex
    /// wake-up costs more; a virtual clock parks at once.
    pub fn poll_until<T>(
        &self,
        deadline: Deadline,
        mut poll: impl FnMut() -> Option<T>,
        mut park: impl FnMut(Deadline),
    ) -> Option<T> {
        let park_at = Deadline::after(self.now(), PARK_AFTER);
        loop {
            if let Some(done) = poll() {
                return Some(done);
            }
            if self.passed(deadline) {
                return None;
            }
            if self.passed(park_at) {
                self.0.parks.inc();
                park(deadline);
            } else {
                std::thread::yield_now();
            }
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
    use crate::channel::channel;

    fn ledger(metrics: &MetricsHandle, counter: &str) -> Vec<u64> {
        let snap = metrics.snapshot();
        KINDS
            .iter()
            .map(|kind| snap.counter(&format!("model.{counter}.{kind}")))
            .collect()
    }

    const ALL_KINDS: [Charge; 7] = [
        Charge::Pcie,
        Charge::Network,
        Charge::IntraNode,
        Charge::Drain,
        Charge::QueueHop,
        Charge::Launch,
        Charge::Poll,
    ];

    #[test]
    fn a_charge_lands_on_its_own_kind_only() {
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
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
            assert_eq!(
                ledger(&metrics, "charged_ns"),
                want,
                "{kind:?} charged elsewhere"
            );
            // The overshoot is wall time, so only where it lands is pinned.
            for (j, over) in ledger(&metrics, "overshoot_ns").into_iter().enumerate() {
                assert!(i == j || over == 0, "{kind:?} overshot on {}", KINDS[j]);
            }
        }
    }

    #[test]
    fn a_charge_never_returns_before_its_deadline() {
        let clock = Clock::from(CostModel::zero());
        for us in [1, 2, 3, 50, 250] {
            let d = Duration::from_micros(us);
            let start = clock.now();
            clock.charge(Charge::QueueHop, d);
            assert!(clock.elapsed(start) >= d, "returned before {d:?}");
        }
    }

    #[test]
    fn a_zero_charge_records_no_overshoot() {
        let metrics = MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        for kind in ALL_KINDS {
            clock.charge(kind, Duration::ZERO);
        }
        assert_eq!(ledger(&metrics, "charged_ns"), [0; 7]);
        assert_eq!(ledger(&metrics, "overshoot_ns"), [0; 7]);
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

    // A channel receive is the clock's spin-then-park: these pin its
    // deadline and what it adds to `clock.parks`.

    #[test]
    fn recv_until_returns_at_its_deadline() {
        let clock = Clock::from(CostModel::zero());
        let (tx, rx) = channel::<u32>();
        let wait = Duration::from_millis(5);
        let start = clock.now();
        assert_eq!(rx.recv_until(&clock, clock.deadline(wait)), None);
        assert!(clock.elapsed(start) >= wait);
        tx.send(7).unwrap();
        assert_eq!(rx.recv_until(&clock, Deadline::NEVER), Some(7));
    }

    fn parks(metrics: &MetricsHandle) -> u64 {
        metrics.snapshot().counter("clock.parks")
    }

    #[test]
    fn a_queued_message_is_taken_without_parking() {
        let metrics = MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let (tx, rx) = channel::<u32>();
        tx.send(7).unwrap();
        assert_eq!(rx.recv_until(&clock, Deadline::NEVER), Some(7));
        assert_eq!(parks(&metrics), 0);
    }

    #[test]
    fn an_expired_deadline_times_out_without_parking() {
        let metrics = MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let (_tx, rx) = channel::<u32>();
        assert_eq!(rx.recv_until(&clock, clock.deadline(Duration::ZERO)), None);
        assert_eq!(parks(&metrics), 0);
    }

    #[test]
    fn a_late_message_is_received_after_at_most_one_park() {
        let metrics = MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let (tx, rx) = channel::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_until(&clock, Deadline::NEVER), Some(9));
        assert!(parks(&metrics) <= 1, "{} parks", parks(&metrics));
        sender.join().unwrap();
    }

    #[test]
    fn poll_until_parks_only_after_its_spin_and_gives_up_at_its_deadline() {
        let metrics = MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let never_parks = |_| panic!("parked");
        assert_eq!(
            clock.poll_until(Deadline::NEVER, || Some(7), never_parks),
            Some(7)
        );
        let expired = clock.deadline(Duration::ZERO);
        assert_eq!(clock.poll_until(expired, || None::<u32>, never_parks), None);

        // A poll that fails all through the spin: one park, then the poll
        // after it succeeds.
        let parked = std::cell::Cell::new(false);
        let got = clock.poll_until(
            Deadline::NEVER,
            || parked.get().then_some(9),
            |_| parked.set(true),
        );
        assert_eq!(got, Some(9));
        assert_eq!(parks(&metrics), 1);

        let wait = Duration::from_millis(5);
        let (start, deadline) = (clock.now(), clock.deadline(wait));
        let park = |given| {
            assert_eq!(given, deadline);
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(clock.poll_until(deadline, || None::<u32>, park), None);
        assert!(clock.elapsed(start) >= wait);
        assert!(parks(&metrics) > 1);
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
