//! Cluster / interconnect simulator.
//!
//! The DCGN paper evaluates on a four-node cluster whose nodes are connected
//! with Infiniband and whose intra-node transfers go through shared memory.
//! This crate provides that substrate in software: a [`Cluster`] of nodes,
//! each with a NIC, connected by a [`Fabric`] that delivers typed messages
//! between [`Endpoint`]s while charging the configured latency/bandwidth
//! costs and serialising concurrent transfers on each node's NIC, which
//! sends while its sender goes on.
//!
//! The fabric is deliberately minimal: it offers reliable, per-sender-ordered,
//! point-to-point delivery only.  Anything higher level — tag matching,
//! collectives, rendezvous protocols — is built on top by `dcgn-rmpi`,
//! mirroring how MPI implementations are layered over verbs/IB.

#![warn(missing_docs)]

pub mod buffer;
pub mod cluster;
pub mod fabric;

pub use buffer::{pool_capacity, pool_stats, Payload, PayloadBuf, PoolStats};
pub use cluster::{Cluster, NodeHandle};
pub use fabric::{Delivery, Endpoint, EndpointId, Fabric, RecvError, TrafficStats, WakeNotifier};
