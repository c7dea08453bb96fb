//! # DCGN — Distributed Computing on GPU Networks
//!
//! A reproduction of the message passing system described in *Message Passing
//! on Data-Parallel Architectures* (Stuart & Owens, IPDPS 2009).  DCGN makes
//! data-parallel devices (GPUs) first-class communication targets: GPU
//! kernels can call `send`, `recv`, `barrier` and `broadcast` directly, with
//! the host relaying requests between device memory and the MPI substrate.
//!
//! ## Key concepts
//!
//! * **Slots** ([`config::NodeConfig::slots_per_gpu`]): each GPU is
//!   virtualised into one or more DCGN ranks, so the developer chooses the
//!   granularity at which a device participates in communication.
//! * **Rank assignment** ([`rank::RankMap`]): node *n* contributes
//!   `Cn + Gn × Sn` consecutive ranks — CPU-kernel threads first, then GPU
//!   slots in (gpu, slot) order.
//! * **Communication thread** ([`runtime::Runtime`] internals): exactly one
//!   thread per process touches MPI; CPU and GPU kernel threads relay
//!   requests to it through thread-safe queues.
//! * **Sleep-based polling** ([`gpu`]): the GPU cannot signal the host, so a
//!   GPU-kernel thread polls per-slot mailboxes in device memory on a
//!   configurable interval and writes completions back.
//! * **One collective exchange engine** ([`cpu::CpuCtx`] / [`gpu::GpuCtx`]):
//!   both rank kinds expose the full collective set — `barrier`,
//!   `broadcast`, `gather`, `scatter`, `allgather`, `reduce` and `allreduce`
//!   (with [`ReduceOp`] operators) — and every one of them, over the world
//!   or any subgroup, runs through the comm thread's single asynchronous
//!   exchange engine (the private `exchange` module): local ranks *join*,
//!   contributions are *locally combined*, and a *plan* — a state machine
//!   fed frames and returning actions, which never touches the substrate —
//!   moves them between nodes.  Two machines implement the four
//!   [`ExchangePlan`]s: a **rooted** gather → combine → scatter machine
//!   over a flat (star) or binomial (tree) topology, and an **allreduce**
//!   step driver under which recursive doubling and ring are two step
//!   tables.  They live in `dcgn_rmpi::exchange`, where the MPI twin's own
//!   collectives run the same plans through the same exchange driver (its
//!   sequence numbers, early-frame stash, tombstones and aborts).  The plan
//!   is selected per `(op,
//!   payload size, node count)` and
//!   overridable via [`config::DcgnConfig::with_exchange_plan`] or the
//!   `DCGN_FORCE_PLAN` environment variable.  Per-rank results are
//!   *scattered back* as zero-copy payload views, and under every plan an
//!   erroneous collective fails every participating node cleanly instead
//!   of hanging peers.
//! * **Nonblocking point-to-point** ([`cpu::RequestHandle`] /
//!   [`gpu::GpuRequest`]): `isend`/`irecv` return a request handle
//!   immediately so kernels overlap compute with communication; completion
//!   is collected with `wait`/`test` (CPU adds `waitall`/`waitany`).  On the
//!   GPU every request runs the one mailbox protocol of [`gpu`]: *publish*
//!   (the kernel writes the request and keeps computing) and *complete*
//!   (the host writes a per-request completion record the kernel reads), so
//!   one slot can have several transfers in flight.  Blocking calls are
//!   publish + wait — one data path.
//! * **Typed collectives** ([`ReduceDtype`] / [`ReduceElement`]):
//!   `reduce`/`allreduce` run over `f64`, `f32`, `u32` or `i64` vectors
//!   (every CPU reduction is generic over the element type; the GPU
//!   `reduce_in`/`allreduce_in` take a [`ReduceDtype`]); the element type
//!   travels next to the operator word and is part of the collective's
//!   identity.
//! * **Communicator groups** ([`group::Comm`] / [`group::CommId`]): the
//!   `MPI_Comm_split` analogue.  `comm_split(color, key)` — itself a
//!   collective riding the engine — partitions a communicator into subgroups
//!   ordered by `(key, parent rank)`.  The comm thread keys assemblies and
//!   exchanges by communicator, so *groups execute collectives
//!   concurrently* (disjoint subgroups against each other and against the
//!   world), and every exchange frame carries its exact
//!   `(comm_epoch, comm_id, seq, phase)` identity, framed and
//!   demultiplexed by one [`dcgn_rmpi::exchange::Driver`] per node (the MPI
//!   twin's collectives run the same driver), so concurrent exchanges can never
//!   cross-talk and cross-node disagreement surfaces as a clean
//!   collective-mismatch error on every rank.
//!
//! ## Collective quick reference
//!
//! CPU ranks operate on host buffers; GPU slots operate on device memory
//! with the `MPI_IN_PLACE` convention (chunked collectives address a
//! `ranks × len` buffer with rank *r*'s block at offset `r × len`;
//! reductions operate on `count` little-endian `f64`s):
//!
//! ```
//! use dcgn::{DcgnConfig, ReduceOp, Runtime};
//!
//! let runtime = Runtime::new(DcgnConfig::homogeneous(2, 2, 0, 0)).unwrap();
//! runtime
//!     .launch_cpu_only(|ctx| {
//!         // Every rank contributes [rank+1]; everyone receives the sum.
//!         let mine = vec![(ctx.rank() + 1) as f64];
//!         let sum = ctx.allreduce(&mine, ReduceOp::Sum).unwrap();
//!         assert_eq!(sum, vec![10.0]); // 1 + 2 + 3 + 4
//!
//!         // Rank 0 scatters one chunk to each rank.
//!         let chunks: Option<Vec<Vec<u8>>> = (ctx.rank() == 0)
//!             .then(|| (0..ctx.size()).map(|r| vec![r as u8; 2]).collect());
//!         let mine = ctx.scatter(0, chunks.as_deref()).unwrap();
//!         assert_eq!(mine, vec![ctx.rank() as u8; 2]);
//!     })
//!     .unwrap();
//! ```
//!
//! ## Quick start
//!
//! ```
//! use dcgn::{DcgnConfig, Runtime};
//!
//! // Two nodes, one CPU-kernel thread each: a two-rank CPU ping-pong.
//! let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
//! runtime
//!     .launch_cpu_only(|ctx| {
//!         if ctx.rank() == 0 {
//!             ctx.send(1, b"ping").unwrap();
//!             let (pong, _) = ctx.recv(1).unwrap();
//!             assert_eq!(pong, b"pong");
//!         } else {
//!             let (ping, _) = ctx.recv(0).unwrap();
//!             assert_eq!(ping, b"ping");
//!             ctx.send(0, b"pong").unwrap();
//!         }
//!     })
//!     .unwrap();
//! ```
//!
//! ## Overlapping compute with communication
//!
//! ```
//! use dcgn::{DcgnConfig, Runtime};
//!
//! let runtime = Runtime::new(DcgnConfig::homogeneous(2, 1, 0, 0)).unwrap();
//! runtime
//!     .launch_cpu_only(|ctx| {
//!         let peer = 1 - ctx.rank();
//!         // Post the receive ahead, start the send, compute while both fly.
//!         let recv = ctx.irecv(peer).unwrap();
//!         let send = ctx.isend(peer, &[ctx.rank() as u8; 8]).unwrap();
//!         let local_work: u32 = (0..1000).sum(); // overlapped compute
//!         let (data, _status) = ctx.wait(recv).unwrap().into_recv().unwrap();
//!         ctx.wait(send).unwrap();
//!         assert_eq!(data, vec![peer as u8; 8]);
//!         assert_eq!(local_work, 499_500);
//!     })
//!     .unwrap();
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod error;
pub mod gpu;
pub mod group;
pub mod message;
pub mod rank;
pub mod runtime;

mod comm_thread;
mod exchange;
mod matcher;

pub use config::{DcgnConfig, ExchangePlan, NodeConfig};
pub use cpu::{Completion, CpuCtx, RequestHandle};
pub use dcgn_netsim::{Payload, PayloadBuf};
pub use error::{DcgnError, Result};
pub use gpu::{GpuComm, GpuCtx, GpuPollStats, GpuRequest, GpuSetupCtx};
pub use group::{Comm, CommId};
pub use message::CommStatus;
pub use rank::{RankKind, RankMap};
pub use runtime::{LaunchReport, Runtime};

// Re-export the pieces of the substrate crates that appear in the public API
// so applications only need to depend on `dcgn`.
pub use dcgn_dpm::{BlockCtx, Device, DeviceConfig, DevicePtr, Dim};
pub use dcgn_metrics::{GaugeStats, HistogramStats, MetricsHandle, MetricsSnapshot};
pub use dcgn_rmpi::{ReduceDtype, ReduceElement, ReduceOp};
pub use dcgn_simtime::{CostModel, LinkCost};
