//! Time, cost-model, and statistics utilities shared by the DCGN reproduction.
//!
//! The original DCGN system (Stuart & Owens, IPDPS 2009) ran on four nodes
//! with NVIDIA G92 GPUs on PCI-e and an Infiniband network.  This
//! reproduction simulates that hardware; the [`CostModel`] in this crate is
//! the one place the latency and bandwidth of the simulated parts are set.
//!
//! [`Clock`] is the one owner of time: every layer reads the time and waits
//! for an event until a [`Deadline`] through it, and pays each modelled
//! hardware cost with [`Clock::charge`], which blocks for it and adds it to
//! a per-[`Charge`]-kind cost ledger in the metrics registry, and the real
//! time it blocked past that cost to a per-kind overshoot ledger (a NIC's
//! frame is booked instead, [`VirtualBus::reserve`]).  How a charge and a
//! wait spend their time is [`sleep`]'s and [`Clock::poll_until`]'s to say.
//!
//! [`channel()`] is the one queue every hand-off between the stack's threads
//! crosses.  Its receive, [`Receiver::recv_until`], is a
//! [`Clock::poll_until`], and its [`Receiver::drain`] is the one site that
//! charges a [`Charge::QueueHop`]: one per crossing, for everything queued
//! when the consumer drains, due one hop after its first work item's send
//! stamp, so a consumer that takes it late waits only for what is left.
//!
//! Every lock in the stack is a `std::sync` one, and a poisoned lock
//! propagates: code takes it with `.lock().expect("<what>")`, tests with
//! `.unwrap()`.  No kernel panic can poison one: the closures run under a
//! lock are all the runtime's own — a channel's state around
//! [`Receiver::recv_with`]'s `take` and [`Receiver::with_queue`]'s `look`,
//! its spare buffer around [`Receiver::drain`]'s `file`, device memory's
//! arena around `mutate`'s write.  A `Drop`, which must not panic, and a
//! test's serial lock, held across a body that may fail, take a poisoned
//! guard back with `PoisonError::into_inner`.
//!
//! The crate also provides the percentile helpers the benchmark harness
//! uses.

#![warn(missing_docs)]

pub mod bus;
pub mod channel;
pub mod clock;
pub mod cost;
pub mod sleep;
pub mod stats;

pub use bus::VirtualBus;
pub use channel::{channel, Receiver, Sender};
pub use clock::{Charge, Clock, Deadline, Stamp};
pub use cost::{CostModel, LinkCost};
pub use stats::percentile;

pub use sleep::precise_sleep;

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    use super::*;

    // `Clock::wait_until` is the stack's one condvar wait: it takes the std
    // guard by value and hands it back with whether the deadline ended it.

    #[test]
    fn condvar_wakes_waiter() {
        let clock = Clock::from(CostModel::zero());
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let (mut ready, mut timed_out) = (lock.lock().unwrap(), false);
                while !*ready && !timed_out {
                    (ready, timed_out) = clock.wait_until(cv, ready, Deadline::NEVER);
                }
                timed_out
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock().unwrap() = true;
        pair.1.notify_all();
        assert!(!waiter.join().unwrap());
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let clock = Clock::from(CostModel::zero());
        let (lock, cv) = (Mutex::new(vec![1]), Condvar::new());
        let mut guard = lock.lock().unwrap();
        guard.push(2);
        let deadline = clock.deadline(Duration::from_millis(5));
        let (mut guard, timed_out) = clock.wait_until(&cv, guard, deadline);
        assert!(timed_out);
        guard.push(3);
        drop(guard);
        assert_eq!(*lock.lock().unwrap(), [1, 2, 3]);
    }
}
