//! A shared, serialising bus.
//!
//! Real PCI-e links and NICs serialise transfers: two concurrent 1 MB copies
//! to the same GPU each see roughly half the bandwidth.  [`VirtualBus`] models
//! this by holding a mutex for the duration of each charged transfer so that
//! concurrent users queue up behind one another, exactly like DMA requests on
//! the paper's PCI-e bus shared by the GPU and the NIC.

use parking_lot::Mutex;

use crate::clock::{Charge, Clock};
use crate::cost::LinkCost;

/// A bus with a single transfer engine, whose transfers are charged to one
/// ledger kind.
#[derive(Debug)]
pub struct VirtualBus {
    kind: Charge,
    cost: LinkCost,
    engine: Mutex<()>,
}

impl VirtualBus {
    /// Create a bus with the given per-transfer cost, charged as `kind`.
    pub fn new(kind: Charge, cost: LinkCost) -> Self {
        VirtualBus {
            kind,
            cost,
            engine: Mutex::new(()),
        }
    }

    /// Perform (block for) a transfer of `bytes` on `clock`, serialising with
    /// any other in-flight transfer on the same bus.
    pub fn transfer(&self, clock: &Clock, bytes: usize) {
        if self.cost.is_free() {
            return;
        }
        let _guard = self.engine.lock();
        clock.charge(self.kind, self.cost.transfer_time(bytes));
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
}
