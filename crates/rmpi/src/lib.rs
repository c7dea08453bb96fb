//! An MPI-like message passing library over the simulated cluster fabric.
//!
//! The DCGN system is layered *on top of* MPI (the paper uses MVAPICH2) and is
//! benchmarked *against* MPI.  This crate plays both roles in the
//! reproduction:
//!
//! * it is the communication substrate that DCGN's per-process communication
//!   thread drives (one rank per node), and
//! * it is the "MVAPICH2" baseline that Figure 6, Figure 7 and Table 1
//!   compare DCGN against.
//!
//! The design follows a classic single-threaded MPI progress engine:
//!
//! * point-to-point messages use an **eager** protocol below a configurable
//!   threshold and a **rendezvous** (RTS/CTS) protocol above it; rendezvous
//!   payloads stream through a credit-windowed chunk pipeline (zero-copy
//!   views of the staged buffer, bounded in-flight memory, one chunk for a
//!   payload of at most one — see the [`comm`] module docs and
//!   [`RdvConfig`]),
//! * receives match on `(source, tag)` with wildcard support through the
//!   [`Matcher`] (unexpected messages in arrival order, posted receives in
//!   posting order, each matched the moment it arrives or is posted), the
//!   same matcher DCGN's comm thread matches its own messages with,
//! * nonblocking operations ([`Communicator::isend`]/[`Communicator::irecv`])
//!   are tracked as requests and progressed by every call into the library,
//! * collectives (barrier, broadcast, scatter/gather, reduce/allreduce) are
//!   built from point-to-point messages by the [`exchange`] plans — star,
//!   binomial tree, recursive doubling and ring — the same plans, picked by
//!   the same table, that DCGN's engine runs between nodes, driven by the
//!   same [`exchange::Driver`] (sequence numbers, early-frame stash,
//!   tombstones and aborts).
//!
//! A communicator is owned by exactly one thread (`MPI_THREAD_SINGLE`), which
//! mirrors the constraint the paper designs around: DCGN funnels all
//! communication through a single comm thread because MPI implementations are
//! frequently not thread-safe.

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod exchange;
pub mod matcher;
pub mod packet;
pub mod rdv;
pub mod typed;
pub mod world;

pub use collectives::{frame_reduce, parse_reduce_frame, ReduceDtype, ReduceOp};
pub use comm::{Communicator, Request, TAG_EXCHANGE, TAG_INTERNAL_BASE};
pub use matcher::{Accepts, Matcher};
pub use packet::{
    Packet, RmpiError, Status, ANY_SOURCE, ANY_TAG, PHASE_ABORT, PHASE_DOWN, PHASE_RD_FOLD_IN,
    PHASE_RD_FOLD_OUT, PHASE_RD_ROUND_BASE, PHASE_RING_BASE, PHASE_UP,
};
pub use rdv::{
    RdvConfig, DEFAULT_RDV_CHUNK, DEFAULT_RDV_WINDOW, ENV_EAGER_THRESHOLD, ENV_RDV_CHUNK,
    ENV_RDV_WINDOW, MAX_RDV_WINDOW,
};
pub use typed::{bytes_to_f64s, f64s_to_bytes, ReduceElement};
pub use world::{MpiWorld, RankPlacement};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, RmpiError>;
