//! GPU-side communication: the mailbox protocol, the device-side kernel API
//! (`dcgn::gpu::*` in the paper), and the host-side GPU-kernel thread that
//! polls device memory and relays requests to the communication thread.
//!
//! The mechanism is the one described in §3.2.3: device-side calls "set
//! regions of GPU memory that are monitored by a GPU-kernel thread.  When
//! the memory is noticed, the request is obtained via `cudaMemcpyAsync`,
//! handled, and the appropriate memory is set on the GPU to flag the GPU
//! kernel, telling it to continue execution."
//!
//! ## The mailbox protocol
//!
//! Every device request — point-to-point, every collective, `split`,
//! `comm_free`, blocking or not — lives in one *completion record* from
//! publish to release, and the record's word is the only state it has.  It
//! takes the same three steps (drawn in the README's "The mailbox
//! protocol"):
//!
//! 1. **Publish** — the kernel claims a record (device-side CAS `FREE →
//!    CLAIMED`), takes the slot's next sequence number as the claim
//!    generation (a device-side atomic add on a word the host never
//!    writes), writes the request body — and a copy of a buffer of at most
//!    [`MAILBOX_INLINE_BYTES`] — into the record and flips its word to
//!    `PENDING`.
//! 2. **Harvest** — the host's next sweep issues **one** PCI-e read of every
//!    slot's records, takes each `PENDING` record it does not already hold,
//!    pulls a sent payload only when it did not ride in the record, writes
//!    nothing back, and relays the harvest to the communication thread as
//!    a single `CommCommand::Batch` — each slot's requests in generation
//!    order, which is the order its kernel published them, so sends to one
//!    destination never overtake.  Its queue hop is paid once, by the
//!    consumer's drain; a post costs the producer nothing modelled.
//! 3. **Complete** — when the communication thread has answered (its replies
//!    cross back through the GPU-kernel thread's inbox, one queue hop for
//!    every reply queued when the thread drains it), the host writes a
//!    result too large for the record into the slot's device buffer, then
//!    the record's inline area (a smaller result, flagged as such), result
//!    fields and `DONE` word in one transfer, word last.  The kernel reads
//!    that word ([`GpuCtx::test`] once, [`GpuCtx::wait`] spinning
//!    device-side), copies a flagged inline result into its buffer and
//!    releases the record (`FREE`).  A request the host cannot stage (a
//!    buffer outside device memory, an unknown opcode) is completed the same
//!    way with an error code, so the kernel faults instead of waiting
//!    forever.
//!
//! [`GpuCtx::isend`] / [`GpuCtx::irecv`] return after step 1 with a
//! [`GpuRequest`]; compute issued before the wait overlaps the entire host
//! relay and wire time — the latency-hiding DCGN's in-kernel messaging
//! exists for.  A blocking call is publish + wait with no handle escaping.
//!
//! Each slot carries `1 + reqs_per_slot` records.  Nonblocking calls claim
//! from the `reqs_per_slot` column (a kernel publishing past that depth
//! without harvesting faults); blocking calls claim the slot's one
//! *reserved* record and wait for it as long as it takes.  Blocks sharing a
//! slot therefore serialise their blocking calls (one rank never has two
//! collectives in flight), a blocking call never competes with outstanding
//! `isend`/`irecv`s for a record, and the host skips its read altogether
//! while every slot's reserved record is pending.
//!
//! The region holds every slot's records, then one sequence word per slot
//! ([`mailbox_region_bytes`]); the `mailbox` submodule is the only code that
//! knows an offset.

mod device;
mod host;
mod mailbox;

use std::time::Duration;

/// How long the mailbox waits on requests nobody will harvest before it
/// faults rather than hang: a retired kernel's abandoned requests (an
/// `irecv` nothing matches) fail the launch, and a nonblocking claim finding
/// no `FREE` record (a kernel past its mailbox depth) faults the kernel.
const ABANDONED_GRACE: Duration = Duration::from_secs(5);

pub use device::{GpuComm, GpuCtx, GpuRequest};
pub(crate) use host::{GpuKernelThread, GpuThreadMetrics};
pub use host::{GpuPollStats, GpuSetupCtx};
pub(crate) use mailbox::GpuLayout;
pub use mailbox::{
    mailbox_error, mailbox_region_bytes, opcode, reduce_dtype_code, reduce_op_code, req_state,
    ANY_TAG, MAILBOX_COMPLETION_BYTES, MAILBOX_INLINE_BYTES, MAILBOX_REQS_PER_SLOT, PEER_ANY,
};
