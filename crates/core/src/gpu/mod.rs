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
//! `comm_free`, blocking or not — takes the same three steps (drawn in the
//! README's "The mailbox protocol"):
//!
//! 1. **Publish** — the kernel claims a per-request *completion record*
//!    (device-side CAS `FREE → PENDING`, bumping the record's generation),
//!    claims the slot's body, writes the request naming that record, and
//!    flips the slot status to `REQUESTED`.
//! 2. **Harvest** — the host's next sweep issues **one** batched PCI-e read
//!    of the status column (instead of one small read per slot), one
//!    scattered fetch of every `REQUESTED` body and one scattered write
//!    acknowledging them straight back to `EMPTY` — the payload has left
//!    device memory, so the slot can publish again while the request is
//!    still in flight — and relays the whole harvest to the communication
//!    thread as a single `CommCommand::Batch` paying one queue hop.
//! 3. **Complete** — when the communication thread has answered, the host
//!    writes the result into the slot's device buffer and the record's
//!    result fields, then flips the record's word to `DONE`.  The kernel
//!    reads that word ([`GpuCtx::test`] once, [`GpuCtx::wait`] spinning
//!    device-side), reads the fields and releases the record (`FREE`).  A
//!    request the host cannot stage (a buffer outside device memory, an
//!    unknown opcode) is completed the same way with an error code, so the
//!    kernel faults instead of waiting forever.
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
//! `isend`/`irecv`s for a record, and the host skips the status read
//! altogether while every slot's reserved record is pending.
//!
//! The region is laid out struct-of-arrays — the status words of all slots,
//! then every slot's records, then the per-slot bodies
//! ([`mailbox_region_bytes`]); the `mailbox` submodule is the only code that
//! knows an offset.

mod device;
mod host;
mod mailbox;

pub use device::{GpuComm, GpuCtx, GpuRequest};
pub(crate) use host::{GpuKernelThread, GpuThreadMetrics};
pub use host::{GpuPollStats, GpuSetupCtx};
pub(crate) use mailbox::GpuLayout;
pub use mailbox::{
    mailbox_error, mailbox_region_bytes, opcode, reduce_dtype_code, reduce_op_code, req_state,
    status, ANY_TAG, MAILBOX_BODY_BYTES, MAILBOX_COMPLETION_BYTES, MAILBOX_REQS_PER_SLOT,
    MAILBOX_STATUS_BYTES, PEER_ANY,
};
