//! A shared, serialising bus.
//!
//! Real PCI-e links and NICs serialise transfers: two concurrent 1 MB copies
//! to the same GPU each see roughly half the bandwidth.  [`VirtualBus`] models
//! this with a busy-until stamp: [`VirtualBus::reserve`] books a transfer
//! after every earlier one and not before its bytes are ready (a send's now,
//! a landed frame's at its landing) without blocking, as a NIC sends while
//! its CPU works, and a blocking [`VirtualBus::transfer`] (PCI-e, a receive
//! copy or drain) books the same way and waits only for what is left of it.

use std::sync::Mutex;

use crate::clock::{Charge, Clock, Stamp};
use crate::cost::LinkCost;

/// A bus with a single transfer engine, whose transfers are charged to one
/// ledger kind.
#[derive(Debug)]
pub struct VirtualBus {
    kind: Charge,
    cost: LinkCost,
    /// The end of the last booked transfer; held only while booking.
    engine: Mutex<Option<Stamp>>,
}

impl VirtualBus {
    /// Create a bus with the given per-transfer cost, charged as `kind`.
    pub fn new(kind: Charge, cost: LinkCost) -> Self {
        VirtualBus {
            kind,
            cost,
            engine: Mutex::new(None),
        }
    }

    /// Perform (block for) a transfer of `bytes` on `clock` whose bytes are
    /// ready at `ready`: book it as [`VirtualBus::reserve`] does and wait
    /// until it ends.  One already over (`ready` long past) waits for
    /// nothing and counts no lateness: its frame's taker counted that once.
    pub fn transfer(&self, clock: &Clock, ready: Stamp, bytes: usize) {
        let end = self.reserve(clock, ready, bytes);
        if end > clock.now() {
            clock.wait_for(self.kind, end);
        }
    }

    /// Book a transfer of `bytes` on `clock` after every earlier one, and
    /// not before `ready`, without blocking; returns when it ends, which is
    /// when its bytes land.
    pub fn reserve(&self, clock: &Clock, ready: Stamp, bytes: usize) -> Stamp {
        let mut busy_until = self.engine.lock().expect("bus engine");
        let start = busy_until.map_or(ready, |busy| busy.max(ready));
        let end = clock.book(self.kind, start, self.cost.transfer_time(bytes));
        *busy_until = Some(end);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use std::sync::Arc;
    use std::time::Duration;

    fn clock() -> Clock {
        Clock::from(CostModel::zero())
    }

    #[test]
    fn free_bus_costs_nothing() {
        let (bus, clock) = (VirtualBus::new(Charge::Pcie, LinkCost::free()), clock());
        let start = clock.now();
        bus.transfer(&clock, clock.now(), 1 << 20);
        assert!(clock.elapsed(start) < Duration::from_millis(5));
    }

    #[test]
    fn transfer_takes_modelled_time() {
        let bus = VirtualBus::new(Charge::Pcie, LinkCost::from_us_and_mbps(100, 1000.0));
        let clock = clock();
        let start = clock.now();
        bus.transfer(&clock, start, 100_000); // 100µs latency + 100µs bandwidth
        assert!(clock.elapsed(start) >= Duration::from_micros(200));
    }

    #[test]
    fn concurrent_transfers_serialise() {
        let bus = Arc::new(VirtualBus::new(
            Charge::Network,
            LinkCost::from_us_and_mbps(500, f64::INFINITY.min(1e12)),
        ));
        let clock = clock();
        let start = clock.now();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (bus, clock) = (Arc::clone(&bus), clock.clone());
                std::thread::spawn(move || bus.transfer(&clock, clock.now(), 0))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Three 500µs transfers must serialise to at least ~1.5ms.
        assert!(clock.elapsed(start) >= Duration::from_micros(1400));
    }

    #[test]
    fn reservations_book_without_blocking_and_end_back_to_back() {
        let metrics = dcgn_metrics::MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        // Milliseconds, so that a preempted test thread does not read as a
        // blocking reservation.
        let ms = Duration::from_millis;
        let bus = VirtualBus::new(Charge::Network, LinkCost::from_us_and_mbps(10_000, 1e12));
        let start = clock.now();
        let (first, second) = (bus.reserve(&clock, start, 0), bus.reserve(&clock, start, 0));
        assert!(clock.elapsed(start) < ms(10), "a reservation blocked");
        let charged = metrics.snapshot().counter("model.charged_ns.network");
        assert_eq!(charged, 20_000_000);
        // The first lands a transfer after the reservation, the second a
        // transfer after the first.
        let landed = |at| {
            while at > clock.now() {
                std::thread::yield_now();
            }
            clock.elapsed(start)
        };
        assert!(landed(first) >= ms(10));
        assert!(landed(second) >= ms(20));
    }

    #[test]
    fn a_transfer_waits_for_the_reservation_before_it() {
        let clock = clock();
        let bus = VirtualBus::new(Charge::Network, LinkCost::from_us_and_mbps(10_000, 1e12));
        let reserved = bus.reserve(&clock, clock.now(), 0);
        bus.transfer(&clock, clock.now(), 0);
        assert!(
            clock.elapsed(reserved) >= Duration::from_millis(10),
            "the transfer overlapped the reservation"
        );
    }

    #[test]
    fn a_transfer_ready_long_ago_waits_only_for_what_is_left_and_books_its_whole_length() {
        let metrics = dcgn_metrics::MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let ms = Duration::from_millis;
        let bus = VirtualBus::new(Charge::Drain, LinkCost::from_us_and_mbps(50_000, 1e12));
        // Bytes ready 30 ms ago: 20 ms of the 50 ms transfer are left.
        let ready = clock.now();
        crate::precise_sleep(ms(30));
        let start = clock.now();
        bus.transfer(&clock, ready, 0);
        let waited = clock.elapsed(start);
        assert!(clock.elapsed(ready) >= ms(50), "returned before the end");
        assert!(
            waited < ms(45),
            "paid the whole transfer from the take: {waited:?}"
        );
        let charged = metrics.snapshot().counter("model.charged_ns.drain");
        assert_eq!(charged, 50_000_000, "the ledger books the whole length");
        // The next booking, ready at the same stamp, starts at that end.
        let next = bus.reserve(&clock, ready, 0);
        while next > clock.now() {
            std::thread::yield_now();
        }
        assert!(
            clock.elapsed(ready) >= ms(100),
            "the next booking overlapped"
        );
    }

    #[test]
    fn transfers_over_before_they_are_reached_wait_for_nothing_and_are_not_late() {
        let metrics = dcgn_metrics::MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let bus = VirtualBus::new(Charge::IntraNode, LinkCost::from_us_and_mbps(10_000, 1e12));
        // Two 10 ms copies of a frame that landed 30 ms ago: both are over.
        let ready = clock.now();
        crate::precise_sleep(Duration::from_millis(30));
        let start = clock.now();
        bus.transfer(&clock, ready, 0);
        bus.transfer(&clock, ready, 0);
        assert!(clock.elapsed(start) < Duration::from_millis(5), "waited");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("model.charged_ns.intra_node"), 20_000_000);
        assert_eq!(snap.counter("model.overshoot_ns.intra_node"), 0);
    }
}
