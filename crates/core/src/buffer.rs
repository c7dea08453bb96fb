//! Pooled, reference-counted payload buffers.
//!
//! The implementation lives in [`dcgn_netsim::buffer`] so the whole stack —
//! the fabric, the `dcgn_rmpi` substrate's eager/rendezvous wire frames and
//! this runtime's request/reply plumbing — shares one slab pool and moves
//! [`Payload`] references instead of memcpy'ing `Vec<u8>`s between layers.
//! This module re-exports it under the historical `dcgn::buffer` path.

pub use dcgn_netsim::buffer::{pool_stats, Payload, PayloadBuf, PoolStats};
