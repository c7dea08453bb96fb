//! Time, cost-model, and statistics utilities shared by the DCGN reproduction.
//!
//! The original DCGN system (Stuart & Owens, IPDPS 2009) was evaluated on a
//! four-node cluster with NVIDIA G92 GPUs attached over PCI-e and nodes
//! connected with Infiniband.  This reproduction replaces the physical
//! hardware with software simulators; the [`CostModel`] in this crate is the
//! single place where the latency and bandwidth characteristics of those
//! simulated components are described.
//!
//! [`Clock`] is the one owner of time: every layer reads the time, sleeps
//! and waits at a [`Deadline`] through it, and pays each modelled hardware
//! cost with [`Clock::charge`], which blocks for it and adds it to a
//! per-[`Charge`]-kind cost ledger in the metrics registry.
//!
//! The crate also provides the percentile helpers the benchmark harness
//! uses.

#![warn(missing_docs)]

pub mod bus;
pub mod clock;
pub mod cost;
pub mod sleep;
pub mod stats;

pub use bus::VirtualBus;
pub use clock::{Charge, Clock, Deadline, Stamp};
pub use cost::{CostModel, LinkCost};
pub use stats::percentile;

pub use sleep::precise_sleep;
