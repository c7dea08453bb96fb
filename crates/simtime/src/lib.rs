//! Time, cost-model, and statistics utilities shared by the DCGN reproduction.
//!
//! The original DCGN system (Stuart & Owens, IPDPS 2009) was evaluated on a
//! four-node cluster with NVIDIA G92 GPUs attached over PCI-e and nodes
//! connected with Infiniband.  This reproduction replaces the physical
//! hardware with software simulators; the [`CostModel`] in this crate is the
//! single place where the latency and bandwidth characteristics of those
//! simulated components are described, and [`charge`](LinkCost::charge) /
//! [`precise_sleep`] are how those characteristics are injected into the
//! running system as real wall-clock delays.
//!
//! The crate also provides the small measurement toolkit used by the
//! benchmark harness: [`Stopwatch`] and percentile helpers.

#![warn(missing_docs)]

pub mod bus;
pub mod cost;
pub mod sleep;
pub mod stats;

pub use bus::VirtualBus;
pub use cost::{CostModel, LinkCost};
pub use stats::{percentile, Stopwatch};

pub use sleep::precise_sleep;
