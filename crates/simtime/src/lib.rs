//! Time, cost-model, and statistics utilities shared by the DCGN reproduction.
//!
//! The original DCGN system (Stuart & Owens, IPDPS 2009) was evaluated on a
//! four-node cluster with NVIDIA G92 GPUs attached over PCI-e and nodes
//! connected with Infiniband.  This reproduction replaces the physical
//! hardware with software simulators; the [`CostModel`] in this crate is the
//! single place where the latency and bandwidth characteristics of those
//! simulated components are described.
//!
//! [`Clock`] is the one owner of time: every layer reads the time and waits
//! for an event until a [`Deadline`] through it, and pays each modelled
//! hardware cost with [`Clock::charge`], which blocks for it and adds it to
//! a per-[`Charge`]-kind cost ledger in the metrics registry, and the real
//! time it blocked past that cost to a per-kind overshoot ledger (a NIC's
//! frame is booked instead, [`VirtualBus::reserve`]).  A charge yields its
//! core while more than 2 µs of it is left and spins through the rest,
//! starting no yield that could carry it past its deadline.  The
//! clock's wait on a polled condition, [`Clock::poll_until`], spins for
//! 50 µs before it parks: an artefact of the real clock, whose futex
//! wake-up costs more than a short spin, that a virtual clock would drop.
//!
//! [`channel()`] is the one queue every hand-off between the stack's threads
//! crosses.  Its receive, [`Receiver::recv_until`], is a
//! [`Clock::poll_until`], and its [`Receiver::drain`] is the one site that
//! charges a [`Charge::QueueHop`]: one per crossing, for everything queued
//! when the consumer drains.
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
