//! A shared, serialising bus.
//!
//! Real PCI-e links and NICs serialise transfers: two concurrent 1 MB copies
//! to the same GPU each see roughly half the bandwidth.  [`VirtualBus`] models
//! this with a busy-until stamp: a NIC that sends while its CPU works books
//! its transfer after every earlier one ([`VirtualBus::reserve`]), and a
//! blocking [`VirtualBus::transfer`] (the paper's synchronous PCI-e copies)
//! books the same way and then waits until its booking ends.

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

    /// Perform (block for) a transfer of `bytes` on `clock`: book it as
    /// [`VirtualBus::reserve`] does and wait until it ends.
    pub fn transfer(&self, clock: &Clock, bytes: usize) {
        if self.cost.is_free() {
            return;
        }
        let end = self.reserve(clock, bytes);
        clock.wait_for(self.kind, end);
    }

    /// Book a transfer of `bytes` on `clock` after every earlier one, and
    /// not before now, without blocking; returns when it ends, which is
    /// when its bytes land.
    pub fn reserve(&self, clock: &Clock, bytes: usize) -> Stamp {
        let mut busy_until = self.engine.lock().expect("bus engine");
        let end = clock.book(self.kind, *busy_until, self.cost.transfer_time(bytes));
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
        bus.transfer(&clock, 1 << 20);
        assert!(clock.elapsed(start) < Duration::from_millis(5));
    }

    #[test]
    fn transfer_takes_modelled_time() {
        let bus = VirtualBus::new(Charge::Pcie, LinkCost::from_us_and_mbps(100, 1000.0));
        let clock = clock();
        let start = clock.now();
        bus.transfer(&clock, 100_000); // 100µs latency + 100µs bandwidth
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
                std::thread::spawn(move || bus.transfer(&clock, 0))
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
        let (first, second) = (bus.reserve(&clock, 0), bus.reserve(&clock, 0));
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
        let reserved = bus.reserve(&clock, 0);
        bus.transfer(&clock, 0);
        assert!(
            clock.elapsed(reserved) >= Duration::from_millis(10),
            "the transfer overlapped the reservation"
        );
    }
}
