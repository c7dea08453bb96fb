//! GPU-side communication: the per-slot mailbox protocol, the device-side
//! kernel API (`dcgn::gpu::*` in the paper), and the host-side GPU-kernel
//! thread that polls device memory and relays requests to the communication
//! thread.
//!
//! The mechanism is the one described in §3.2.3: device-side `send`/`recv`
//! calls "set regions of GPU memory that are monitored by a GPU-kernel
//! thread.  When the memory is noticed, the request is obtained via
//! `cudaMemcpyAsync`, handled, and the appropriate memory is set on the GPU
//! to flag the GPU kernel, telling it to continue execution."
//!
//! The mailbox region is laid out struct-of-arrays: all per-slot status
//! words form one contiguous column at the front, then all per-request
//! *completion records* (the handshake surface of the nonblocking split
//! protocol), then the per-slot request bodies.  A polling sweep therefore
//! issues **one** batched PCI-e read of the status column (instead of one
//! small read per slot), one scattered fetch of every `REQUESTED` body, one
//! scattered write acknowledging every harvested slot, and relays the whole
//! harvest to the communication thread as a single `CommCommand::Batch`
//! paying one queue hop.
//!
//! ## The split publish/poll protocol (nonblocking point-to-point)
//!
//! A blocking mailbox transaction occupies its slot end to end: publish →
//! host `IN_PROGRESS` → host `COMPLETE` → release.  [`GpuCtx::isend`] /
//! [`GpuCtx::irecv`] instead split the transaction in two:
//!
//! 1. **Publish** — the kernel claims a per-request *completion record*
//!    (device-side CAS `FREE → PENDING`), writes the request body with the
//!    record's index and the `ISEND`/`IRECV` opcode, flips the slot status
//!    to `REQUESTED` and **returns immediately** with a [`GpuRequest`].
//!    The host's next sweep pulls the body, relays it, and acknowledges the
//!    mailbox straight back to `EMPTY` — the slot can publish again while
//!    the transfer is still in flight.
//! 2. **Poll/complete** — when the communication thread completes the
//!    request, the host writes the record's result fields and flips its
//!    completion word to `DONE` (never blocking the requester).
//!    [`GpuCtx::test`] reads that word once; [`GpuCtx::wait`] spins on it
//!    device-side.  Harvesting a completion releases the record (`FREE`).
//!
//! Compute issued between publish and wait overlaps the entire host relay
//! and wire time — the latency-hiding DCGN's in-kernel messaging exists for.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use dcgn_dpm::{BlockCtx, Device, DevicePtr, KernelHandle};
use dcgn_metrics::{Counter, MetricsHandle};
use dcgn_rmpi::{ReduceDtype, ReduceOp};
use dcgn_simtime::CostModel;

use crate::buffer::{Payload, PayloadBuf};
use crate::error::{DcgnError, Result};
use crate::group::CommId;
use crate::message::{CollectiveResult, CommCommand, CommStatus, Reply, Request, RequestKind};

// ---------------------------------------------------------------------------
// Mailbox layout (struct-of-arrays)
// ---------------------------------------------------------------------------

/// Bytes of one slot's status word.  The status words of all slots are
/// contiguous at the front of the mailbox region, so the host polls them
/// with a single batched read.
pub const MAILBOX_STATUS_BYTES: usize = 4;

/// Default maximum of nonblocking requests a slot can have outstanding at
/// once (the depth of its completion-record column).  Configurable per job
/// via [`crate::DcgnConfig::with_mailbox_depth`]; a kernel publishing past
/// the configured depth without harvesting faults cleanly instead of
/// deadlocking.
pub const MAILBOX_REQS_PER_SLOT: usize = 4;

/// Bytes of one per-request completion record:
/// `[state u32][error u32][result_len u32][result_src u32][result_tag u32]`.
pub const MAILBOX_COMPLETION_BYTES: usize = 20;

/// Bytes of one slot's request body, stored after the completion columns.
pub const MAILBOX_BODY_BYTES: usize = 72;

/// Total bytes of the mailbox region for `slots` slots with
/// `reqs_per_slot` completion records each.
pub fn mailbox_region_bytes(slots: usize, reqs_per_slot: usize) -> usize {
    slots * (MAILBOX_STATUS_BYTES + reqs_per_slot * MAILBOX_COMPLETION_BYTES + MAILBOX_BODY_BYTES)
}

/// Offset of `slot`'s status word within the mailbox region.
fn status_offset(slot: usize) -> usize {
    slot * MAILBOX_STATUS_BYTES
}

/// Offset of `slot`'s `req`-th completion record within the mailbox region.
fn completion_offset(slots: usize, reqs_per_slot: usize, slot: usize, req: usize) -> usize {
    slots * MAILBOX_STATUS_BYTES + (slot * reqs_per_slot + req) * MAILBOX_COMPLETION_BYTES
}

/// Offset of `slot`'s request body within the mailbox region.
fn body_offset(slots: usize, reqs_per_slot: usize, slot: usize) -> usize {
    slots * (MAILBOX_STATUS_BYTES + reqs_per_slot * MAILBOX_COMPLETION_BYTES)
        + slot * MAILBOX_BODY_BYTES
}

// Field offsets within a completion record.  The host writes the result
// fields first and flips `state` to `DONE` in a separate transfer, so a
// kernel that observes `DONE` always reads consistent fields.
const COMP_STATE: usize = 0;
const COMP_ERROR: usize = 4;
const COMP_RESULT_LEN: usize = 8;
const COMP_RESULT_SRC: usize = 12;
/// Tag the completed receive actually matched — an `ANY_TAG` receive learns
/// the sender's tag from here instead of reporting 0.
const COMP_RESULT_TAG: usize = 16;

/// States of a per-request completion word (its low 2 bits; the remaining
/// 30 bits carry the record's claim *generation*, bumped on every claim, so
/// a stale [`GpuRequest`] — waited on twice, or kept past completion — is
/// detected and faults instead of spinning forever or stealing a newer
/// request's completion).
pub mod req_state {
    /// The record is unused; a kernel may claim it (device-side CAS).
    pub const FREE: u32 = 0;
    /// A request is published or in flight under this record.
    pub const PENDING: u32 = 1;
    /// The host has completed the request; result fields are valid.
    pub const DONE: u32 = 2;
}

/// Mask of the generation bits within a completion word.
const REQ_GEN_MASK: u32 = u32::MAX >> 2;

/// Compose a completion word from a claim generation and a state.
fn req_word(gen: u32, state: u32) -> u32 {
    (gen << 2) | state
}

/// Mailbox status values (`status` word of an entry).
pub mod status {
    /// No request outstanding; the slot is free.
    pub const EMPTY: u32 = 0;
    /// The device has published a request and is waiting for the host.
    pub const REQUESTED: u32 = 1;
    /// The host has picked the request up and is working on it.
    pub const IN_PROGRESS: u32 = 2;
    /// The host has completed the request; results are in the entry.
    pub const COMPLETE: u32 = 3;
    /// A device block has claimed the slot and is still filling in fields.
    pub const CLAIMED: u32 = 4;
}

/// Mailbox opcodes.
pub mod opcode {
    /// Point-to-point send.
    pub const SEND: u32 = 1;
    /// Point-to-point receive.
    pub const RECV: u32 = 2;
    /// Barrier.
    pub const BARRIER: u32 = 3;
    /// Broadcast.
    pub const BROADCAST: u32 = 4;
    /// Combined send + receive replacing the buffer in place
    /// (the `MPI_Sendrecv_replace` analogue Cannon's algorithm uses).
    pub const SENDRECV_REPLACE: u32 = 5;
    /// Gather to a root (in-place: per-rank blocks of `len` bytes).
    pub const GATHER: u32 = 6;
    /// Scatter from a root (in-place: the root stages `ranks × len` bytes).
    pub const SCATTER: u32 = 7;
    /// Allgather (in-place: per-rank blocks of `len` bytes).
    pub const ALLGATHER: u32 = 8;
    /// Element-wise `f64` reduction to a root.
    pub const REDUCE: u32 = 9;
    /// Element-wise `f64` reduction delivered to every rank.
    pub const ALLREDUCE: u32 = 10;
    /// Collective communicator split (`MPI_Comm_split` analogue); the
    /// reply's encoded membership lands in the slot's buffer.
    pub const SPLIT: u32 = 11;
    /// Release this slot's handle on a communicator (`MPI_Comm_free`
    /// analogue); the comm thread evicts the group once every local member
    /// has freed it.
    pub const FREE: u32 = 12;
    /// Nonblocking point-to-point send (split publish/poll protocol): the
    /// body's `peer2` word names the completion record the host will flip to
    /// `DONE`; the mailbox itself is acknowledged back to `EMPTY` at harvest.
    pub const ISEND: u32 = 13;
    /// Nonblocking point-to-point receive (split publish/poll protocol).
    pub const IRECV: u32 = 14;
}

/// Wire encoding of [`ReduceOp`] in the low byte of the mailbox `reduce_op`
/// field; the element type ([`ReduceDtype`]) rides in the second byte (see
/// [`reduce_dtype_code`]).
pub mod reduce_op_code {
    /// Element-wise sum.
    pub const SUM: u32 = 0;
    /// Element-wise minimum.
    pub const MIN: u32 = 1;
    /// Element-wise maximum.
    pub const MAX: u32 = 2;
}

/// Wire encoding of [`ReduceDtype`] in bits 8..16 of the mailbox `reduce_op`
/// field.  `F64` is 0, so pre-typed kernels that wrote a bare operator code
/// keep their historical `f64` meaning.
pub mod reduce_dtype_code {
    /// 64-bit IEEE float (the historical default).
    pub const F64: u32 = 0;
    /// 32-bit IEEE float.
    pub const F32: u32 = 1;
    /// 32-bit unsigned integer.
    pub const U32: u32 = 2;
    /// 64-bit signed integer.
    pub const I64: u32 = 3;
}

fn encode_reduce_word(op: ReduceOp, dtype: ReduceDtype) -> u32 {
    let op = match op {
        ReduceOp::Sum => reduce_op_code::SUM,
        ReduceOp::Min => reduce_op_code::MIN,
        ReduceOp::Max => reduce_op_code::MAX,
    };
    let dtype = match dtype {
        ReduceDtype::F64 => reduce_dtype_code::F64,
        ReduceDtype::F32 => reduce_dtype_code::F32,
        ReduceDtype::U32 => reduce_dtype_code::U32,
        ReduceDtype::I64 => reduce_dtype_code::I64,
    };
    op | (dtype << 8)
}

fn decode_reduce_word(word: u32) -> Option<(ReduceOp, ReduceDtype)> {
    let op = match word & 0xFF {
        reduce_op_code::SUM => ReduceOp::Sum,
        reduce_op_code::MIN => ReduceOp::Min,
        reduce_op_code::MAX => ReduceOp::Max,
        _ => return None,
    };
    let dtype = match (word >> 8) & 0xFF {
        reduce_dtype_code::F64 => ReduceDtype::F64,
        reduce_dtype_code::F32 => ReduceDtype::F32,
        reduce_dtype_code::U32 => ReduceDtype::U32,
        reduce_dtype_code::I64 => ReduceDtype::I64,
        _ => return None,
    };
    (word >> 16 == 0).then_some((op, dtype))
}

/// Peer value meaning "any source".
pub const PEER_ANY: u32 = u32::MAX;

/// Tag value meaning "any tag" in the `RECV`/`IRECV` mailbox records — the
/// device-visible wildcard of the tagged point-to-point API
/// ([`GpuCtx::recv_tagged`] and friends).  User tags must stay below this
/// value (and below the substrate's internal tag space).
pub const ANY_TAG: u32 = u32::MAX;

// Field offsets within a slot's request body.  The result block
// (`RESULT_LEN`/`RESULT_SRC`/`ERROR`) is contiguous so the host writes a
// completion in one transfer.
const BODY_OPCODE: usize = 0;
/// P2P peer / collective root / split color.
const BODY_PEER: usize = 4;
/// `sendrecv_replace` source / collective sub-rank / split key.
const BODY_PEER2: usize = 8;
/// P2P tag; collectives reuse the word for the communicator's size.
const BODY_AUX: usize = 12;
const BODY_REDUCE_OP: usize = 16;
const BODY_DATA_PTR: usize = 24;
const BODY_LEN: usize = 32;
/// Raw [`CommId`] of the communicator a collective runs over (0 = world).
const BODY_COMM: usize = 40;
const BODY_RESULT_LEN: usize = 48;
const BODY_RESULT_SRC: usize = 56;
const BODY_ERROR: usize = 60;
/// Tag the completed receive actually matched (see [`COMP_RESULT_TAG`]).
const BODY_RESULT_TAG: usize = 64;

/// Error codes written into the `error` field of a mailbox entry.
pub mod mailbox_error {
    /// Request completed successfully.
    pub const OK: u32 = 0;
    /// The incoming message was larger than the device buffer.
    pub const TRUNCATED: u32 = 1;
    /// The peer rank was invalid.
    pub const INVALID_RANK: u32 = 2;
    /// The runtime was shutting down.
    pub const SHUTDOWN: u32 = 3;
    /// Any other failure.
    pub const OTHER: u32 = 4;
}

// ---------------------------------------------------------------------------
// Device-side API
// ---------------------------------------------------------------------------

/// Static, read-only description of one GPU shared by the host GPU-kernel
/// thread and the kernels it launches.
#[derive(Debug, Clone)]
pub(crate) struct GpuLayout {
    /// Node hosting the GPU.
    pub node: usize,
    /// Index of the GPU within the node.
    pub gpu_index: usize,
    /// Number of slots the GPU is virtualised into.
    pub slots: usize,
    /// Completion records per slot (the nonblocking-request depth), from
    /// [`crate::DcgnConfig::mailbox_reqs_per_slot`].
    pub reqs_per_slot: usize,
    /// DCGN rank of slot 0 (slots are consecutive).
    pub slot_rank_base: usize,
    /// Total DCGN ranks in the job.
    pub total_ranks: usize,
    /// Base device address of the mailbox array.
    pub mailbox_base: DevicePtr,
}

/// The device-side communication context handed to DCGN GPU kernels
/// (the `dcgn::gpu::*` API of the paper).
///
/// All payloads live in device global memory — "for communication, we have to
/// use global memory; this is a byproduct of the memory system on the GPU" —
/// so sends and receives take [`DevicePtr`] arguments.
pub struct GpuCtx<'a> {
    block: &'a BlockCtx,
    layout: &'a GpuLayout,
}

impl<'a> GpuCtx<'a> {
    pub(crate) fn new(block: &'a BlockCtx, layout: &'a GpuLayout) -> Self {
        GpuCtx { block, layout }
    }

    /// The underlying block execution context (geometry, device memory
    /// access, shared memory).
    pub fn block(&self) -> &BlockCtx {
        self.block
    }

    /// Number of slots configured for this GPU.
    pub fn slots(&self) -> usize {
        self.layout.slots
    }

    /// Total number of DCGN ranks in the job.
    pub fn size(&self) -> usize {
        self.layout.total_ranks
    }

    /// Node hosting this GPU.
    pub fn node(&self) -> usize {
        self.layout.node
    }

    /// Index of this GPU within its node.
    pub fn gpu_index(&self) -> usize {
        self.layout.gpu_index
    }

    /// The DCGN rank of `slot` on this GPU (the paper's
    /// `dcgn::gpu::getRank(slotIdx)`).
    pub fn rank(&self, slot: usize) -> usize {
        assert!(
            slot < self.layout.slots,
            "slot {slot} out of range ({} slots configured)",
            self.layout.slots
        );
        self.layout.slot_rank_base + slot
    }

    /// The slot whose rank equals this block's id, when the launch uses the
    /// default one-block-per-slot geometry.
    pub fn slot_for_block(&self) -> usize {
        self.block.block_id() % self.layout.slots
    }

    fn status_ptr(&self, slot: usize) -> DevicePtr {
        assert!(
            slot < self.layout.slots,
            "slot {slot} out of range ({} slots configured)",
            self.layout.slots
        );
        self.layout.mailbox_base.add(status_offset(slot))
    }

    fn body_ptr(&self, slot: usize) -> DevicePtr {
        self.layout.mailbox_base.add(body_offset(
            self.layout.slots,
            self.layout.reqs_per_slot,
            slot,
        ))
    }

    /// Claim a slot's mailbox (serialises concurrent blocks sharing a slot),
    /// fill in a request, publish it, wait for completion and release the
    /// mailbox.  Returns `(result_len, result_src, result_tag, error)`.
    #[allow(clippy::too_many_arguments)]
    fn transact(
        &self,
        slot: usize,
        op: u32,
        peer: u32,
        peer2: u32,
        aux: u32,
        reduce_op: u32,
        comm: u64,
        data_ptr: DevicePtr,
        len: usize,
    ) -> (usize, usize, u32, u32) {
        let status_ptr = self.status_ptr(slot);
        let body_ptr = self.body_ptr(slot);
        let b = self.block;
        // Claim the mailbox.
        while b.atomic_cas_u32(status_ptr, status::EMPTY, status::CLAIMED) != status::EMPTY {
            b.nap();
        }
        // Fill the request body in one device-memory write (device-side, so
        // no PCI-e cost), clearing the result block.
        let mut body = [0u8; MAILBOX_BODY_BYTES];
        body[BODY_OPCODE..BODY_OPCODE + 4].copy_from_slice(&op.to_le_bytes());
        body[BODY_PEER..BODY_PEER + 4].copy_from_slice(&peer.to_le_bytes());
        body[BODY_PEER2..BODY_PEER2 + 4].copy_from_slice(&peer2.to_le_bytes());
        body[BODY_AUX..BODY_AUX + 4].copy_from_slice(&aux.to_le_bytes());
        body[BODY_REDUCE_OP..BODY_REDUCE_OP + 4].copy_from_slice(&reduce_op.to_le_bytes());
        body[BODY_DATA_PTR..BODY_DATA_PTR + 8]
            .copy_from_slice(&(data_ptr.offset() as u64).to_le_bytes());
        body[BODY_LEN..BODY_LEN + 8].copy_from_slice(&(len as u64).to_le_bytes());
        body[BODY_COMM..BODY_COMM + 8].copy_from_slice(&comm.to_le_bytes());
        b.write(body_ptr, &body);
        // Publish the request; the host's polling loop will notice it.
        b.write_u32(status_ptr, status::REQUESTED);
        // Wait for the host to complete it.
        b.wait_for_u32(status_ptr, status::COMPLETE);
        let result_len = b.read_u64(body_ptr.add(BODY_RESULT_LEN)) as usize;
        let result_src = b.read_u32(body_ptr.add(BODY_RESULT_SRC)) as usize;
        let result_tag = b.read_u32(body_ptr.add(BODY_RESULT_TAG));
        let error = b.read_u32(body_ptr.add(BODY_ERROR));
        // Release the mailbox for the next request on this slot.
        b.write_u32(status_ptr, status::EMPTY);
        (result_len, result_src, result_tag, error)
    }

    fn check(&self, error: u32, what: &str) {
        if error != mailbox_error::OK {
            panic!(
                "dcgn::gpu::{what} failed on device {} block {}: mailbox error {error}",
                self.block.device_id(),
                self.block.block_id()
            );
        }
    }

    /// This slot's handle onto the world communicator.
    pub fn world_comm(&self, slot: usize) -> GpuComm {
        GpuComm {
            id: CommId::WORLD.raw(),
            rank: self.rank(slot),
            size: self.layout.total_ranks,
            table: DevicePtr::NULL,
        }
    }

    /// Send `len` bytes starting at device pointer `data` to DCGN rank `dst`
    /// using `slot` (the paper's `dcgn::gpu::send`; untagged = tag 0).
    pub fn send(&self, slot: usize, dst: usize, data: DevicePtr, len: usize) {
        self.send_tagged(slot, dst, 0, data, len)
    }

    /// Send with an explicit message tag: the tag rides in the mailbox
    /// record's `aux` word and matches against the receiver's tag filter
    /// (CPU `recv_tagged` / GPU [`GpuCtx::recv_tagged`] / [`ANY_TAG`]).
    pub fn send_tagged(&self, slot: usize, dst: usize, tag: u32, data: DevicePtr, len: usize) {
        let (_, _, _, err) = self.transact(slot, opcode::SEND, dst as u32, 0, tag, 0, 0, data, len);
        self.check(err, "send");
    }

    /// Receive into `len` bytes of device memory at `data` from DCGN rank
    /// `src` using `slot` (the paper's `dcgn::gpu::recv`; untagged = tag 0).
    /// Returns the completion status.
    pub fn recv(&self, slot: usize, src: usize, data: DevicePtr, len: usize) -> CommStatus {
        self.recv_tagged(slot, src, 0, data, len)
    }

    /// Receive a message carrying `tag` (or any tag, for [`ANY_TAG`]) from
    /// DCGN rank `src`.  The returned status always reports the tag the
    /// message actually carried: the matched tag is round-tripped through
    /// the mailbox (`result_tag` in the request body), so an `ANY_TAG`
    /// receive learns the sender's tag instead of seeing 0.
    pub fn recv_tagged(
        &self,
        slot: usize,
        src: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> CommStatus {
        let (got, from, matched_tag, err) =
            self.transact(slot, opcode::RECV, src as u32, 0, tag, 0, 0, data, len);
        self.check(err, "recv");
        CommStatus {
            source: from,
            tag: matched_tag,
            len: got,
        }
    }

    /// Receive from any rank (untagged = tag 0).
    pub fn recv_any(&self, slot: usize, data: DevicePtr, len: usize) -> CommStatus {
        self.recv_any_tagged(slot, 0, data, len)
    }

    /// Receive a message carrying `tag` (or any tag, for [`ANY_TAG`]) from
    /// any rank (tag reporting as in [`GpuCtx::recv_tagged`]).
    pub fn recv_any_tagged(
        &self,
        slot: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> CommStatus {
        let (got, from, matched_tag, err) =
            self.transact(slot, opcode::RECV, PEER_ANY, 0, tag, 0, 0, data, len);
        self.check(err, "recv");
        CommStatus {
            source: from,
            tag: matched_tag,
            len: got,
        }
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point: the split publish/poll protocol (see the
    // module docs).  `isend`/`irecv` return as soon as the request record
    // is published; the kernel keeps computing and collects the completion
    // later with `test`/`wait`, which poll the request's completion word in
    // device memory — no further host round trip.
    // ------------------------------------------------------------------

    fn completion_ptr(&self, slot: usize, req: usize) -> DevicePtr {
        self.layout.mailbox_base.add(completion_offset(
            self.layout.slots,
            self.layout.reqs_per_slot,
            slot,
            req,
        ))
    }

    /// Publish phase: claim a completion record and the slot's mailbox,
    /// write the request body (carrying the record index in `peer2` and the
    /// claim generation in the `reduce_op` word, unused by point-to-point)
    /// and flip the status to `REQUESTED`.  Returns without waiting for the
    /// host — the mailbox is acknowledged back to `EMPTY` at harvest, so a
    /// follow-up publish on the same slot only ever waits one sweep, not a
    /// full transfer.
    fn publish_async(
        &self,
        slot: usize,
        op: u32,
        peer: u32,
        aux: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        // Bound on fruitless claim passes (~50 µs nap each, so ~5 s — in
        // line with the host's abandoned-request grace, so a slot whose
        // records are legitimately held by slow concurrent blocks is not
        // faulted prematurely).  All records staying unclaimable this long
        // means their owners never harvest — typically this very kernel
        // publishing past the configured per-slot depth of outstanding
        // requests, which no host progress can ever unblock: fault, don't
        // deadlock.
        const CLAIM_NAP_LIMIT: u32 = 100_000;

        let b = self.block;
        let depth = self.layout.reqs_per_slot;
        // Claim a free completion record (bounded per-slot concurrency:
        // with all `reqs_per_slot` records in flight, publish waits until
        // one is harvested).  Each claim bumps the record's generation, so
        // handles from earlier claims go stale.
        let mut naps = 0u32;
        let (index, gen) = 'claim: loop {
            for req in 0..depth {
                let ptr = self.completion_ptr(slot, req);
                let word = b.read_u32(ptr);
                if word & 0b11 == req_state::FREE {
                    let gen = (word >> 2).wrapping_add(1) & REQ_GEN_MASK;
                    if b.atomic_cas_u32(ptr, word, req_word(gen, req_state::PENDING)) == word {
                        break 'claim (req, gen);
                    }
                }
            }
            naps += 1;
            assert!(
                naps <= CLAIM_NAP_LIMIT,
                "slot {slot} on device {}: all {depth} completion record(s) stayed in \
                 flight — did this kernel publish more than the configured mailbox \
                 depth ({depth}) of requests without test()/wait()ing any?",
                b.device_id()
            );
            b.nap();
        };
        let status_ptr = self.status_ptr(slot);
        let body_ptr = self.body_ptr(slot);
        while b.atomic_cas_u32(status_ptr, status::EMPTY, status::CLAIMED) != status::EMPTY {
            b.nap();
        }
        let mut body = [0u8; MAILBOX_BODY_BYTES];
        body[BODY_OPCODE..BODY_OPCODE + 4].copy_from_slice(&op.to_le_bytes());
        body[BODY_PEER..BODY_PEER + 4].copy_from_slice(&peer.to_le_bytes());
        body[BODY_PEER2..BODY_PEER2 + 4].copy_from_slice(&(index as u32).to_le_bytes());
        body[BODY_AUX..BODY_AUX + 4].copy_from_slice(&aux.to_le_bytes());
        body[BODY_REDUCE_OP..BODY_REDUCE_OP + 4].copy_from_slice(&gen.to_le_bytes());
        body[BODY_DATA_PTR..BODY_DATA_PTR + 8]
            .copy_from_slice(&(data.offset() as u64).to_le_bytes());
        body[BODY_LEN..BODY_LEN + 8].copy_from_slice(&(len as u64).to_le_bytes());
        b.write(body_ptr, &body);
        b.write_u32(status_ptr, status::REQUESTED);
        GpuRequest { slot, index, gen }
    }

    /// Start a nonblocking send of `len` device bytes at `data` to DCGN rank
    /// `dst` (untagged = tag 0).  Returns immediately; the buffer must stay
    /// unmodified until the returned request completes
    /// ([`GpuCtx::wait`]/[`GpuCtx::test`]).
    pub fn isend(&self, slot: usize, dst: usize, data: DevicePtr, len: usize) -> GpuRequest {
        self.isend_tagged(slot, dst, 0, data, len)
    }

    /// Start a nonblocking tagged send.
    pub fn isend_tagged(
        &self,
        slot: usize,
        dst: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        self.publish_async(slot, opcode::ISEND, dst as u32, tag, data, len)
    }

    /// Post a nonblocking receive from DCGN rank `src` into `len` bytes of
    /// device memory at `data` (untagged = tag 0).  The buffer must not be
    /// read until the request completes.
    pub fn irecv(&self, slot: usize, src: usize, data: DevicePtr, len: usize) -> GpuRequest {
        self.irecv_tagged(slot, src, 0, data, len)
    }

    /// Post a nonblocking receive matching `tag` (or any tag, for
    /// [`ANY_TAG`]) from DCGN rank `src`.
    pub fn irecv_tagged(
        &self,
        slot: usize,
        src: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        self.publish_async(slot, opcode::IRECV, src as u32, tag, data, len)
    }

    /// Post a nonblocking receive from any rank (untagged = tag 0).
    pub fn irecv_any(&self, slot: usize, data: DevicePtr, len: usize) -> GpuRequest {
        self.publish_async(slot, opcode::IRECV, PEER_ANY, 0, data, len)
    }

    /// Post a nonblocking receive matching `tag` (or [`ANY_TAG`]) from any
    /// rank.
    pub fn irecv_any_tagged(
        &self,
        slot: usize,
        tag: u32,
        data: DevicePtr,
        len: usize,
    ) -> GpuRequest {
        self.publish_async(slot, opcode::IRECV, PEER_ANY, tag, data, len)
    }

    /// Poll phase, nonblocking: returns the completion status once the host
    /// has flipped the request's completion word to `DONE`, releasing the
    /// record; returns `None` while the request is still in flight.
    ///
    /// # Panics
    /// Panics (like the blocking calls) when the request completed with a
    /// mailbox error, and on a *stale* handle — one already harvested (the
    /// record's generation moved on), which on the CPU side is the clean
    /// `InvalidArgument` error.
    pub fn test(&self, req: GpuRequest) -> Option<CommStatus> {
        let ptr = self.completion_ptr(req.slot, req.index);
        let word = self.block.read_u32(ptr.add(COMP_STATE));
        if word == req_word(req.gen, req_state::PENDING) {
            return None;
        }
        self.check_fresh(req, word);
        Some(self.harvest_completion(req, ptr))
    }

    /// Poll phase, blocking: spin on the request's completion word (pure
    /// device-side wait — the host writes the word via its regular sweep)
    /// and return the completion status.
    ///
    /// # Panics
    /// Panics on a mailbox error or a stale handle (see [`GpuCtx::test`]).
    pub fn wait(&self, req: GpuRequest) -> CommStatus {
        let ptr = self.completion_ptr(req.slot, req.index);
        // Same escalation as `BlockCtx::wait_for_u32` (yield first, decay to
        // sleeping), but generation-checked so a stale handle faults instead
        // of spinning forever.
        const SPIN_YIELDS: u32 = 128;
        let pending = req_word(req.gen, req_state::PENDING);
        let mut polls = 0u32;
        let mut sleep = Duration::from_micros(2);
        loop {
            let word = self.block.read_u32(ptr.add(COMP_STATE));
            if word != pending {
                self.check_fresh(req, word);
                break;
            }
            polls += 1;
            if polls <= SPIN_YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(sleep);
                sleep = (sleep * 2).min(Duration::from_micros(50));
            }
        }
        self.harvest_completion(req, ptr)
    }

    /// Wait for every request, returning the completions in argument order —
    /// the device-side mirror of `CpuCtx::waitall`.  Each handle is
    /// consumed; a stale handle faults like [`GpuCtx::wait`].
    pub fn waitall(&self, reqs: &[GpuRequest]) -> Vec<CommStatus> {
        reqs.iter().map(|&req| self.wait(req)).collect()
    }

    /// Wait until *one* of the requests completes; returns its index within
    /// `reqs` and its completion status (the other handles stay valid) —
    /// the device-side mirror of `CpuCtx::waitany`.  Polls every request's
    /// completion word device-side with the same yield-then-sleep
    /// escalation as [`GpuCtx::wait`].
    ///
    /// # Panics
    /// Panics on an empty request list, a mailbox error, or a stale handle.
    pub fn waitany(&self, reqs: &[GpuRequest]) -> (usize, CommStatus) {
        assert!(
            !reqs.is_empty(),
            "dcgn::gpu::waitany needs at least one request handle"
        );
        const SPIN_YIELDS: u32 = 128;
        let mut polls = 0u32;
        let mut sleep = Duration::from_micros(2);
        loop {
            for (i, &req) in reqs.iter().enumerate() {
                let ptr = self.completion_ptr(req.slot, req.index);
                let word = self.block.read_u32(ptr.add(COMP_STATE));
                if word != req_word(req.gen, req_state::PENDING) {
                    self.check_fresh(req, word);
                    return (i, self.harvest_completion(req, ptr));
                }
            }
            polls += 1;
            if polls <= SPIN_YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(sleep);
                sleep = (sleep * 2).min(Duration::from_micros(50));
            }
        }
    }

    /// Fault on a completion word that no longer belongs to `req` (its
    /// record was released and possibly reclaimed): the handle is stale.
    fn check_fresh(&self, req: GpuRequest, word: u32) {
        if word != req_word(req.gen, req_state::DONE) {
            panic!(
                "stale GpuRequest {}.{}.{} on device {} block {}: its completion record \
                 was already harvested (word is now {word:#x}) — was the request waited \
                 on twice?",
                req.slot,
                req.index,
                req.gen,
                self.block.device_id(),
                self.block.block_id()
            );
        }
    }

    /// Read a `DONE` record's result fields and release the record, keeping
    /// its generation so the next claim bumps it.
    fn harvest_completion(&self, req: GpuRequest, ptr: DevicePtr) -> CommStatus {
        let b = self.block;
        let error = b.read_u32(ptr.add(COMP_ERROR));
        let len = b.read_u32(ptr.add(COMP_RESULT_LEN)) as usize;
        let source = b.read_u32(ptr.add(COMP_RESULT_SRC)) as usize;
        let tag = b.read_u32(ptr.add(COMP_RESULT_TAG));
        b.write_u32(ptr.add(COMP_STATE), req_word(req.gen, req_state::FREE));
        self.check(error, "wait");
        CommStatus { source, tag, len }
    }

    /// Barrier across every DCGN rank, entered by this slot.
    pub fn barrier(&self, slot: usize) {
        self.barrier_in(slot, &self.world_comm(slot));
    }

    /// Barrier across the members of `comm`, entered by this slot.
    pub fn barrier_in(&self, slot: usize, comm: &GpuComm) {
        let (_, _, _, err) = self.transact(
            slot,
            opcode::BARRIER,
            0,
            comm.rank as u32,
            comm.size as u32,
            0,
            comm.id,
            DevicePtr::NULL,
            0,
        );
        self.check(err, "barrier");
    }

    /// Broadcast from DCGN rank `root`.  The slot whose rank is `root`
    /// supplies `len` bytes at `data`; every other participant receives the
    /// root's bytes into `data` (at most `len` bytes).  Returns the number of
    /// bytes broadcast.
    pub fn broadcast(&self, slot: usize, root: usize, data: DevicePtr, len: usize) -> usize {
        self.broadcast_in(slot, &self.world_comm(slot), root, data, len)
    }

    /// Broadcast within `comm` from sub-rank `root`.
    pub fn broadcast_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        data: DevicePtr,
        len: usize,
    ) -> usize {
        let (got, _, _, err) = self.transact(
            slot,
            opcode::BROADCAST,
            root as u32,
            comm.rank as u32,
            comm.size as u32,
            0,
            comm.id,
            data,
            len,
        );
        self.check(err, "broadcast");
        got
    }

    /// Gather every rank's block at DCGN rank `root` (in-place, like
    /// `MPI_Gather` with `MPI_IN_PLACE`): `data` addresses a buffer of
    /// `size() × len` bytes in which this slot has written its own `len`-byte
    /// contribution at offset `rank × len`.  On return the root's buffer
    /// holds every rank's block at that rank's offset; other participants'
    /// buffers are untouched.  Returns the total bytes gathered at the root
    /// and `0` elsewhere.
    pub fn gather(&self, slot: usize, root: usize, data: DevicePtr, len: usize) -> usize {
        self.gather_in(slot, &self.world_comm(slot), root, data, len)
    }

    /// Gather within `comm` at sub-rank `root` (in-place over a
    /// `comm.size × len` buffer indexed by sub-rank).
    pub fn gather_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        data: DevicePtr,
        len: usize,
    ) -> usize {
        let (got, _, _, err) = self.transact(
            slot,
            opcode::GATHER,
            root as u32,
            comm.rank as u32,
            comm.size as u32,
            0,
            comm.id,
            data,
            len,
        );
        self.check(err, "gather");
        got
    }

    /// Scatter per-rank chunks of `len` bytes from DCGN rank `root`
    /// (in-place): the root's `data` buffer stages `size() × len` bytes with
    /// rank `r`'s chunk at offset `r × len`; on return every participant's
    /// `data` holds its own chunk in the first `len` bytes (the root's own
    /// chunk is copied down to its buffer start as well).  Returns the chunk
    /// size received.
    pub fn scatter(&self, slot: usize, root: usize, data: DevicePtr, len: usize) -> usize {
        self.scatter_in(slot, &self.world_comm(slot), root, data, len)
    }

    /// Scatter within `comm` from sub-rank `root` (in-place over a
    /// `comm.size × len` buffer indexed by sub-rank).
    pub fn scatter_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        data: DevicePtr,
        len: usize,
    ) -> usize {
        let (got, _, _, err) = self.transact(
            slot,
            opcode::SCATTER,
            root as u32,
            comm.rank as u32,
            comm.size as u32,
            0,
            comm.id,
            data,
            len,
        );
        self.check(err, "scatter");
        got
    }

    /// Allgather every rank's block (in-place, like `MPI_Allgather` with
    /// `MPI_IN_PLACE`): same buffer convention as [`GpuCtx::gather`], but on
    /// return *every* participant's buffer holds all `size() × len` bytes.
    /// Returns the total bytes gathered.
    pub fn allgather(&self, slot: usize, data: DevicePtr, len: usize) -> usize {
        self.allgather_in(slot, &self.world_comm(slot), data, len)
    }

    /// Allgather within `comm` (in-place over a `comm.size × len` buffer
    /// indexed by sub-rank).
    pub fn allgather_in(&self, slot: usize, comm: &GpuComm, data: DevicePtr, len: usize) -> usize {
        let (got, _, _, err) = self.transact(
            slot,
            opcode::ALLGATHER,
            0,
            comm.rank as u32,
            comm.size as u32,
            0,
            comm.id,
            data,
            len,
        );
        self.check(err, "allgather");
        got
    }

    /// Element-wise reduction of `count` `f64`s at `data` to DCGN rank
    /// `root`.  On return the root's buffer holds the reduced vector; other
    /// participants' buffers are untouched.  Returns the result size in
    /// bytes at the root and `0` elsewhere.
    pub fn reduce(
        &self,
        slot: usize,
        root: usize,
        op: ReduceOp,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        self.reduce_in(slot, &self.world_comm(slot), root, op, data, count)
    }

    /// Element-wise reduction within `comm` to sub-rank `root`.
    pub fn reduce_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        op: ReduceOp,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        self.reduce_dtype_in(slot, comm, root, op, ReduceDtype::F64, data, count)
    }

    /// Typed element-wise reduction of `count` elements of `dtype` at `data`
    /// to DCGN rank `root` (`f64`, `f32`, `u32` or `i64`; the element type is
    /// carried in the mailbox op-code word next to the operator).
    pub fn reduce_dtype(
        &self,
        slot: usize,
        root: usize,
        op: ReduceOp,
        dtype: ReduceDtype,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        self.reduce_dtype_in(slot, &self.world_comm(slot), root, op, dtype, data, count)
    }

    /// Typed element-wise reduction within `comm` to sub-rank `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_dtype_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        root: usize,
        op: ReduceOp,
        dtype: ReduceDtype,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        let (got, _, _, err) = self.transact(
            slot,
            opcode::REDUCE,
            root as u32,
            comm.rank as u32,
            comm.size as u32,
            encode_reduce_word(op, dtype),
            comm.id,
            data,
            count * dtype.element_bytes(),
        );
        self.check(err, "reduce");
        got
    }

    /// Element-wise reduction of `count` `f64`s at `data`, with every rank
    /// receiving the reduced vector in place.  Returns the result size in
    /// bytes.
    pub fn allreduce(&self, slot: usize, op: ReduceOp, data: DevicePtr, count: usize) -> usize {
        self.allreduce_in(slot, &self.world_comm(slot), op, data, count)
    }

    /// Element-wise reduction within `comm` delivered to every member.
    pub fn allreduce_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        op: ReduceOp,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        self.allreduce_dtype_in(slot, comm, op, ReduceDtype::F64, data, count)
    }

    /// Typed element-wise reduction with every rank receiving the result.
    pub fn allreduce_dtype(
        &self,
        slot: usize,
        op: ReduceOp,
        dtype: ReduceDtype,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        self.allreduce_dtype_in(slot, &self.world_comm(slot), op, dtype, data, count)
    }

    /// Typed element-wise reduction within `comm` delivered to every member.
    #[allow(clippy::too_many_arguments)]
    pub fn allreduce_dtype_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        op: ReduceOp,
        dtype: ReduceDtype,
        data: DevicePtr,
        count: usize,
    ) -> usize {
        let (got, _, _, err) = self.transact(
            slot,
            opcode::ALLREDUCE,
            0,
            comm.rank as u32,
            comm.size as u32,
            encode_reduce_word(op, dtype),
            comm.id,
            data,
            count * dtype.element_bytes(),
        );
        self.check(err, "allreduce");
        got
    }

    /// Collectively split the world into subgroups (`MPI_Comm_split`): slots
    /// supplying the same `color` form a new communicator ordered by
    /// `(key, rank)`.  The host writes the encoded membership —
    /// `[id u64][sub-rank u32][size u32][member u32 × size]` — into `table`
    /// (at most `table_len` bytes), which must stay allocated for as long as
    /// the returned handle's member lookups are used.
    pub fn split(
        &self,
        slot: usize,
        color: u32,
        key: u32,
        table: DevicePtr,
        table_len: usize,
    ) -> GpuComm {
        self.split_in(slot, &self.world_comm(slot), color, key, table, table_len)
    }

    /// Split an existing communicator further; every member must call it.
    pub fn split_in(
        &self,
        slot: usize,
        comm: &GpuComm,
        color: u32,
        key: u32,
        table: DevicePtr,
        table_len: usize,
    ) -> GpuComm {
        let (_, _, _, err) = self.transact(
            slot,
            opcode::SPLIT,
            color,
            key,
            0,
            0,
            comm.id,
            table,
            table_len,
        );
        self.check(err, "comm_split");
        let b = self.block;
        GpuComm {
            id: b.read_u64(table),
            rank: b.read_u32(table.add(8)) as usize,
            size: b.read_u32(table.add(12)) as usize,
            table,
        }
    }

    /// Release this slot's handle on a communicator created with
    /// [`GpuCtx::split`] (`MPI_Comm_free` analogue).  Every local member
    /// must free the group before the host evicts it from its registry; the
    /// handle (and its device-side member table) must not be used
    /// afterwards.  The world communicator cannot be freed.
    pub fn comm_free(&self, slot: usize, comm: &GpuComm) {
        let (_, _, _, err) =
            self.transact(slot, opcode::FREE, 0, 0, 0, 0, comm.id, DevicePtr::NULL, 0);
        self.check(err, "comm_free");
    }

    /// Global DCGN rank of `sub_rank` within `comm` (read from the member
    /// table the split left in device memory).  World handles have no table
    /// in device memory; their mapping is the identity.
    pub fn comm_member(&self, comm: &GpuComm, sub_rank: usize) -> usize {
        assert!(
            sub_rank < comm.size,
            "sub-rank {sub_rank} out of range ({} members)",
            comm.size
        );
        if comm.id == CommId::WORLD.raw() {
            return sub_rank;
        }
        self.block.read_u32(comm.table.add(16 + 4 * sub_rank)) as usize
    }

    /// Send the `len` bytes at `data` to `dst` and replace them with the
    /// message received from `src` (device-side `MPI_Sendrecv_replace`).
    /// Both halves are relayed together, so symmetric exchanges (ring
    /// rotations, Cannon's algorithm) cannot deadlock.
    pub fn sendrecv_replace(
        &self,
        slot: usize,
        dst: usize,
        src: usize,
        data: DevicePtr,
        len: usize,
    ) -> CommStatus {
        let (got, from, matched_tag, err) = self.transact(
            slot,
            opcode::SENDRECV_REPLACE,
            dst as u32,
            src as u32,
            0,
            0,
            0,
            data,
            len,
        );
        self.check(err, "sendrecv_replace");
        CommStatus {
            source: from,
            tag: matched_tag,
            len: got,
        }
    }
}

/// Handle to an outstanding nonblocking device-side operation started with
/// [`GpuCtx::isend`]/[`GpuCtx::irecv`]: the slot it was published through
/// and the index of its completion record within that slot's column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuRequest {
    slot: usize,
    index: usize,
    /// The completion record's claim generation at publish time; completion
    /// words are generation-stamped, so a handle outliving its record's
    /// release is detected as stale.
    gen: u32,
}

impl GpuRequest {
    /// The slot this request was published through.
    pub fn slot(&self) -> usize {
        self.slot
    }
}

/// A GPU slot's handle onto a communicator created with [`GpuCtx::split`]:
/// the group id, this slot's sub-rank, the group size, and the device
/// address of the member table (sub-rank → global rank, readable with
/// [`GpuCtx::comm_member`]).
#[derive(Debug, Clone, Copy)]
pub struct GpuComm {
    /// Raw communicator id ([`CommId::raw`]).
    pub id: u64,
    /// This slot's position within the group.
    pub rank: usize,
    /// Number of ranks in the group.
    pub size: usize,
    /// Device address of the encoded membership (the split's `table`).
    pub table: DevicePtr,
}

/// Host-side context handed to the GPU setup and teardown hooks of
/// [`crate::Runtime::launch_with_gpu_setup`].
///
/// CUDA kernels cannot manage device memory — "this must be handled by the
/// CPU" — so applications allocate buffers and stage input data through this
/// context (which runs on the GPU-kernel thread) before the kernel launches,
/// and read results back after it retires.
pub struct GpuSetupCtx<'a> {
    pub(crate) device: &'a Device,
    pub(crate) layout: &'a GpuLayout,
}

impl GpuSetupCtx<'_> {
    /// The simulated device: allocate with [`Device::malloc`], stage data
    /// with [`Device::memcpy_htod`], read results with
    /// [`Device::memcpy_dtoh_vec`].
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Node hosting this GPU.
    pub fn node(&self) -> usize {
        self.layout.node
    }

    /// Index of the GPU within its node.
    pub fn gpu_index(&self) -> usize {
        self.layout.gpu_index
    }

    /// Number of slots this GPU is virtualised into.
    pub fn slots(&self) -> usize {
        self.layout.slots
    }

    /// DCGN rank of `slot` on this GPU.
    pub fn slot_rank(&self, slot: usize) -> usize {
        assert!(slot < self.layout.slots, "slot {slot} out of range");
        self.layout.slot_rank_base + slot
    }

    /// Total number of DCGN ranks in the job.
    pub fn size(&self) -> usize {
        self.layout.total_ranks
    }
}

// ---------------------------------------------------------------------------
// Host-side GPU-kernel thread
// ---------------------------------------------------------------------------

/// Statistics describing one GPU-kernel thread's polling behaviour during a
/// launch — used by the polling-interval ablation and by EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct GpuPollStats {
    /// Node the GPU belongs to.
    pub node: usize,
    /// GPU index within the node.
    pub gpu_index: usize,
    /// Number of polling sweeps over the mailbox array.
    pub polls: u64,
    /// Number of communication requests relayed.
    pub requests: u64,
    /// Batched PCI-e reads of the status column (at most one per sweep; the
    /// old per-slot polling issued `slots` reads instead).
    pub batched_status_reads: u64,
    /// Batched PCI-e fetches of `REQUESTED` bodies (one covers every slot
    /// harvested in the sweep).
    pub batched_entry_reads: u64,
    /// Batched PCI-e writes acknowledging harvested slots (`IN_PROGRESS` for
    /// one-shot requests, `EMPTY` for split-protocol ones) — one covers
    /// every slot harvested in the sweep, mirroring the batched reads.
    pub batched_status_writes: u64,
    /// Sweeps whose preceding sleep ran at a backed-off (longer than base)
    /// interval — nonzero only when [`dcgn_simtime::CostModel::poll_backoff`]
    /// is enabled and the GPU went idle.
    pub backoff_sleeps: u64,
    /// Wall-clock time spent actively polling/copying (not sleeping).
    pub busy: Duration,
    /// Total wall-clock lifetime of the polling loop.
    pub wall: Duration,
}

impl GpuPollStats {
    /// Fraction of the polling loop's lifetime spent busy (0.0–1.0).
    pub fn busy_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

struct PendingSlotOp {
    /// Outstanding reply channels (two for `SENDRECV_REPLACE`, one
    /// otherwise) and the replies already collected.
    reply_rxs: Vec<Receiver<Reply>>,
    replies: Vec<Reply>,
    data_ptr: DevicePtr,
    /// Device buffer capacity available for the write-back.
    max_len: usize,
    /// Per-rank block size for the in-place chunked collectives
    /// (gather/scatter/allgather); 0 for other operations.
    unit_len: usize,
    /// True when the device already holds the result bytes (broadcast at the
    /// root), so no PCI-e write-back is needed.
    skip_writeback: bool,
    /// `Some((record index, claim generation))` for split-protocol
    /// (`ISEND`/`IRECV`) requests: the completion is written into the
    /// slot's per-request record instead of the slot body, and the mailbox
    /// was already acknowledged back to `EMPTY` at harvest.
    async_req: Option<(usize, u32)>,
}

/// Key of an in-flight request: the slot, plus its completion record's
/// `(index, generation)` for split-protocol requests (`None` marks the
/// slot's single blocking transaction).  One slot can have a blocking
/// transaction *or* up to [`MAILBOX_REQS_PER_SLOT`] nonblocking requests in
/// flight.
type PendingKey = (usize, Option<(usize, u32)>);

impl PendingSlotOp {
    /// Poll the outstanding reply channels; returns true once every reply has
    /// arrived.
    fn poll(&mut self) -> bool {
        let mut i = 0;
        while i < self.reply_rxs.len() {
            match self.reply_rxs[i].try_recv() {
                Ok(reply) => {
                    self.replies.push(reply);
                    self.reply_rxs.swap_remove(i);
                }
                Err(_) => i += 1,
            }
        }
        self.reply_rxs.is_empty()
    }

    /// Block until every outstanding reply has arrived or `deadline` passes.
    /// A real block (condition-variable wait, no CPU burn); whatever arrived
    /// is collected, the rest is picked up by a later poll.
    fn wait_until(&mut self, deadline: Instant) {
        while let Some(rx) = self.reply_rxs.first() {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return;
            }
            match rx.recv_timeout(timeout) {
                Ok(reply) => {
                    self.replies.push(reply);
                    self.reply_rxs.swap_remove(0);
                }
                Err(_) => return,
            }
        }
    }
}

/// The host-side driver of one GPU: launches the kernel, polls the mailbox
/// region on a sleep-based interval, relays requests to the communication
/// thread and writes completions back into device memory.
pub(crate) struct GpuKernelThread {
    pub device: Arc<Device>,
    pub layout: GpuLayout,
    pub work_tx: Sender<CommCommand>,
    pub cost: CostModel,
    pub metrics: GpuThreadMetrics,
}

/// The polling loop's counters, registered in the unified metrics registry
/// under `gpu.*.node{N}.gpu{G}` so they show up in [`MetricsSnapshot`]s.
/// The registry accumulates across launches; [`GpuKernelThread::run`]
/// subtracts a baseline taken at entry so each launch's [`GpuPollStats`]
/// keeps per-launch semantics.
///
/// [`MetricsSnapshot`]: dcgn_metrics::MetricsSnapshot
#[derive(Debug, Clone, Default)]
pub(crate) struct GpuThreadMetrics {
    polls: Counter,
    requests: Counter,
    batched_status_reads: Counter,
    batched_entry_reads: Counter,
    batched_status_writes: Counter,
    backoff_sleeps: Counter,
}

/// Point-in-time values of every [`GpuThreadMetrics`] counter, used as the
/// per-launch baseline.
#[derive(Debug, Clone, Copy, Default)]
struct GpuCounterValues {
    polls: u64,
    requests: u64,
    batched_status_reads: u64,
    batched_entry_reads: u64,
    batched_status_writes: u64,
    backoff_sleeps: u64,
}

impl GpuThreadMetrics {
    /// Resolve the six polling counters for GPU `gpu_index` on `node` in
    /// `metrics`.  A disabled handle falls back to a private registry so the
    /// per-launch [`GpuPollStats`] stay meaningful even when the user opted
    /// out of stack-wide metrics.
    pub fn new(metrics: &MetricsHandle, node: usize, gpu_index: usize) -> Self {
        let local;
        let metrics = if metrics.is_enabled() {
            metrics
        } else {
            local = MetricsHandle::new();
            &local
        };
        let counter =
            |name: &str| metrics.counter(&format!("gpu.{name}.node{node}.gpu{gpu_index}"));
        Self {
            polls: counter("polls"),
            requests: counter("requests"),
            batched_status_reads: counter("batched_status_reads"),
            batched_entry_reads: counter("batched_entry_reads"),
            batched_status_writes: counter("batched_status_writes"),
            backoff_sleeps: counter("backoff_sleeps"),
        }
    }

    fn values(&self) -> GpuCounterValues {
        GpuCounterValues {
            polls: self.polls.get(),
            requests: self.requests.get(),
            batched_status_reads: self.batched_status_reads.get(),
            batched_entry_reads: self.batched_entry_reads.get(),
            batched_status_writes: self.batched_status_writes.get(),
            backoff_sleeps: self.backoff_sleeps.get(),
        }
    }
}

impl GpuKernelThread {
    /// Allocate and zero the struct-of-arrays mailbox region for `slots`
    /// slots of `reqs_per_slot` completion records each on `device`.
    pub fn allocate_mailboxes(
        device: &Device,
        slots: usize,
        reqs_per_slot: usize,
    ) -> Result<DevicePtr> {
        let bytes = mailbox_region_bytes(slots, reqs_per_slot);
        let ptr = device.malloc(bytes)?;
        device.memcpy_htod(ptr, &vec![0u8; bytes])?;
        Ok(ptr)
    }

    /// Queue a request into the sweep's batch (shipped to the comm thread as
    /// one [`CommCommand::Batch`]) and return its reply channel.
    fn stage_request(
        &self,
        slot: usize,
        kind: RequestKind,
        batch: &mut Vec<Request>,
    ) -> Receiver<Reply> {
        let (reply_tx, reply_rx) = bounded(1);
        batch.push(Request {
            src_rank: self.layout.slot_rank_base + slot,
            kind,
            reply_tx,
        });
        reply_rx
    }

    fn status_ptr(&self, slot: usize) -> DevicePtr {
        self.layout.mailbox_base.add(status_offset(slot))
    }

    fn body_ptr(&self, slot: usize) -> DevicePtr {
        self.layout.mailbox_base.add(body_offset(
            self.layout.slots,
            self.layout.reqs_per_slot,
            slot,
        ))
    }

    /// Pull `len` device bytes into a pooled payload.  The pool's classes
    /// leave room for the wire envelope, so the comm thread frames a remote
    /// send in this same buffer instead of copying the body again.
    fn pull_payload(&self, ptr: DevicePtr, len: usize) -> Result<Payload> {
        let mut buf = PayloadBuf::with_capacity(len);
        self.device.memcpy_dtoh(buf.body_mut(len), ptr)?;
        Ok(buf.freeze())
    }

    /// Decode a slot body that is in `REQUESTED` state and stage its
    /// request(s) into the sweep batch.  Returns the pending-op bookkeeping.
    fn decode_request(
        &self,
        slot: usize,
        body: &[u8],
        batch: &mut Vec<Request>,
    ) -> Result<PendingSlotOp> {
        let read_u32 =
            |off: usize| u32::from_le_bytes(body[off..off + 4].try_into().expect("4 bytes"));
        let read_u64 =
            |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().expect("8 bytes"));
        let op = read_u32(BODY_OPCODE);
        let peer = read_u32(BODY_PEER);
        let peer2 = read_u32(BODY_PEER2);
        let aux = read_u32(BODY_AUX);
        let reduce_op = read_u32(BODY_REDUCE_OP);
        let comm = CommId::from_raw(read_u64(BODY_COMM));
        let data_ptr = DevicePtr::NULL.add(read_u64(BODY_DATA_PTR) as usize);
        let len = read_u64(BODY_LEN) as usize;
        // Collectives carry the slot's position and the group size in the
        // `peer2`/`aux` words (equal to the global rank and total rank count
        // for world operations); `peer` is the root's sub-rank.
        let sub = peer2 as usize;
        let group_size = aux as usize;

        // Write-back bookkeeping; the chunked in-place collectives override
        // these below.
        let mut max_len = len;
        let mut unit_len = 0;
        let mut skip_writeback = false;
        let mut async_req = None;
        // Split-protocol requests carry their completion-record index in the
        // `peer2` word.
        let reqs_per_slot = self.layout.reqs_per_slot;
        let check_req_index = || -> Result<usize> {
            let index = peer2 as usize;
            if index >= reqs_per_slot {
                return Err(DcgnError::Internal(format!(
                    "completion record {index} out of range on slot {slot}"
                )));
            }
            Ok(index)
        };

        let mut reply_rxs = Vec::with_capacity(2);
        match op {
            opcode::SEND => {
                // The payload must be pulled from device memory over PCI-e
                // before it can be handed to the communication thread; it
                // lands in a pooled buffer and is never copied again on the
                // host.
                let dst = peer as usize;
                let data = self.pull_payload(data_ptr, len)?;
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Send {
                        dst,
                        tag: aux,
                        data,
                    },
                    batch,
                ));
            }
            opcode::RECV => {
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Recv {
                        src: if peer == PEER_ANY {
                            None
                        } else {
                            Some(peer as usize)
                        },
                        tag: if aux == ANY_TAG { None } else { Some(aux) },
                    },
                    batch,
                ));
            }
            opcode::BARRIER => {
                reply_rxs.push(self.stage_request(slot, RequestKind::Barrier { comm }, batch));
            }
            opcode::BROADCAST => {
                let root = peer as usize;
                let data = if sub == root {
                    // The root's device buffer already holds the payload, so
                    // the completion does not need to copy it back down.
                    skip_writeback = true;
                    Some(self.pull_payload(data_ptr, len)?)
                } else {
                    None
                };
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Broadcast { comm, root, data },
                    batch,
                ));
            }
            opcode::GATHER => {
                // In-place convention: this slot's contribution sits at its
                // sub-rank's offset inside a `group_size × len` buffer.
                let data = self.pull_payload(data_ptr.add(sub * len), len)?;
                unit_len = len;
                max_len = len * group_size;
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Gather {
                        comm,
                        root: peer as usize,
                        data,
                    },
                    batch,
                ));
            }
            opcode::SCATTER => {
                let root = peer as usize;
                let chunks = if sub == root {
                    // The root stages one `len`-byte chunk per member; the
                    // chunks are zero-copy views of one pulled buffer.
                    let staged = self.pull_payload(data_ptr, len * group_size)?;
                    Some(
                        (0..group_size)
                            .map(|r| staged.slice(r * len..(r + 1) * len))
                            .collect::<Vec<_>>(),
                    )
                } else {
                    None
                };
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Scatter { comm, root, chunks },
                    batch,
                ));
            }
            opcode::ALLGATHER => {
                let data = self.pull_payload(data_ptr.add(sub * len), len)?;
                unit_len = len;
                max_len = len * group_size;
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Allgather { comm, data },
                    batch,
                ));
            }
            opcode::REDUCE | opcode::ALLREDUCE => {
                let (op_kind, dtype) = decode_reduce_word(reduce_op).ok_or_else(|| {
                    DcgnError::Internal(format!(
                        "unknown reduce op/dtype word {reduce_op:#x} on slot {slot}"
                    ))
                })?;
                let data = self.pull_payload(data_ptr, len)?;
                let kind = if op == opcode::REDUCE {
                    RequestKind::Reduce {
                        comm,
                        root: peer as usize,
                        data,
                        op: op_kind,
                        dtype,
                    }
                } else {
                    RequestKind::Allreduce {
                        comm,
                        data,
                        op: op_kind,
                        dtype,
                    }
                };
                reply_rxs.push(self.stage_request(slot, kind, batch));
            }
            opcode::SPLIT => {
                // The split's reply (the encoded membership) is written back
                // into the slot's table buffer like any Bytes result.
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Split {
                        comm,
                        color: peer,
                        key: peer2,
                    },
                    batch,
                ));
            }
            opcode::FREE => {
                reply_rxs.push(self.stage_request(slot, RequestKind::CommFree { comm }, batch));
            }
            opcode::ISEND => {
                // Publish phase of the split protocol: the payload leaves
                // device memory here, so the mailbox can be acknowledged
                // straight back to EMPTY and the slot reused while the
                // transfer is in flight.
                async_req = Some((check_req_index()?, reduce_op));
                let dst = peer as usize;
                let data = self.pull_payload(data_ptr, len)?;
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Send {
                        dst,
                        tag: aux,
                        data,
                    },
                    batch,
                ));
            }
            opcode::IRECV => {
                // For split-protocol requests the `reduce_op` body word
                // carries the record's claim generation instead.
                async_req = Some((check_req_index()?, reduce_op));
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Recv {
                        src: if peer == PEER_ANY {
                            None
                        } else {
                            Some(peer as usize)
                        },
                        tag: if aux == ANY_TAG { None } else { Some(aux) },
                    },
                    batch,
                ));
            }
            opcode::SENDRECV_REPLACE => {
                // Two requests relayed together: the outbound copy of the
                // buffer and the inbound replacement.
                let dst = peer as usize;
                let data = self.pull_payload(data_ptr, len)?;
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Send {
                        dst,
                        tag: aux,
                        data,
                    },
                    batch,
                ));
                reply_rxs.push(self.stage_request(
                    slot,
                    RequestKind::Recv {
                        src: if peer2 == PEER_ANY {
                            None
                        } else {
                            Some(peer2 as usize)
                        },
                        tag: if aux == ANY_TAG { None } else { Some(aux) },
                    },
                    batch,
                ));
            }
            other => {
                return Err(DcgnError::Internal(format!(
                    "unknown mailbox opcode {other} on slot {slot}"
                )))
            }
        }
        Ok(PendingSlotOp {
            reply_rxs,
            replies: Vec::new(),
            data_ptr,
            max_len,
            unit_len,
            skip_writeback,
            async_req,
        })
    }

    /// Write the completion of a split-protocol request into its per-request
    /// record: result fields first, then the completion word flip to `DONE`
    /// (the kernel's `test`/`wait` spin on that word).
    fn complete_async(
        &self,
        slot: usize,
        req: usize,
        gen: u32,
        pending: &mut PendingSlotOp,
    ) -> Result<()> {
        let mut error = mailbox_error::OK;
        let mut result_len = 0u32;
        let mut result_src = 0u32;
        let mut result_tag = 0u32;
        for reply in pending.replies.drain(..) {
            match reply {
                Reply::SendDone => {}
                Reply::RecvDone { data, status } => {
                    if data.len() > pending.max_len {
                        error = mailbox_error::TRUNCATED;
                    } else {
                        self.device.memcpy_htod(pending.data_ptr, data.as_slice())?;
                        result_len = data.len() as u32;
                        result_src = status.source as u32;
                        result_tag = status.tag;
                    }
                }
                Reply::Error(e) => {
                    error = match e {
                        DcgnError::Truncated { .. } => mailbox_error::TRUNCATED,
                        DcgnError::InvalidRank(_) => mailbox_error::INVALID_RANK,
                        DcgnError::ShuttingDown => mailbox_error::SHUTDOWN,
                        _ => mailbox_error::OTHER,
                    };
                }
                other => {
                    return Err(DcgnError::Internal(format!(
                        "unexpected reply to a split-protocol request: {other:?}"
                    )))
                }
            }
        }
        let record = self.layout.mailbox_base.add(completion_offset(
            self.layout.slots,
            self.layout.reqs_per_slot,
            slot,
            req,
        ));
        let mut fields = [0u8; 16];
        fields[0..4].copy_from_slice(&error.to_le_bytes());
        fields[4..8].copy_from_slice(&result_len.to_le_bytes());
        fields[8..12].copy_from_slice(&result_src.to_le_bytes());
        fields[12..16].copy_from_slice(&result_tag.to_le_bytes());
        self.device.memcpy_htod(record.add(COMP_ERROR), &fields)?;
        self.device
            .write_u32(record.add(COMP_STATE), req_word(gen, req_state::DONE))?;
        Ok(())
    }

    /// Write the collected replies of a completed slot operation back into
    /// device memory and flip the mailbox to `COMPLETE`.
    fn complete_request(&self, slot: usize, pending: &mut PendingSlotOp) -> Result<()> {
        let body = self.body_ptr(slot);
        let mut error = mailbox_error::OK;
        let mut result_len = 0u64;
        let mut result_src = 0u32;
        let mut result_tag = 0u32;
        for reply in pending.replies.drain(..) {
            match reply {
                Reply::SendDone => {}
                Reply::RecvDone { data, status } => {
                    if data.len() > pending.max_len {
                        error = mailbox_error::TRUNCATED;
                    } else {
                        // The payload goes straight from the shared buffer
                        // (for inter-node messages, the wire frame itself)
                        // to device memory — no intermediate host copy.
                        self.device.memcpy_htod(pending.data_ptr, data.as_slice())?;
                        result_len = data.len() as u64;
                        result_src = status.source as u32;
                        result_tag = status.tag;
                    }
                }
                // A collective completed; write this rank's share of the
                // result back into the slot's device buffer.
                Reply::CollectiveDone(CollectiveResult::Unit) => {}
                Reply::CollectiveDone(CollectiveResult::Bytes(data)) => {
                    result_len = data.len() as u64;
                    if pending.skip_writeback {
                        // Broadcast root: the device buffer already holds the
                        // payload; no PCI-e copy needed.
                    } else if data.len() > pending.max_len {
                        error = mailbox_error::TRUNCATED;
                    } else {
                        self.device.memcpy_htod(pending.data_ptr, data.as_slice())?;
                    }
                }
                Reply::CollectiveDone(CollectiveResult::Chunks(chunks)) => {
                    // In-place gather/allgather: the device buffer expects
                    // equal `unit_len`-byte blocks, one per rank.
                    if chunks.iter().any(|c| c.len() != pending.unit_len)
                        || chunks.len() * pending.unit_len > pending.max_len
                    {
                        error = mailbox_error::TRUNCATED;
                    } else {
                        let mut flat = Vec::with_capacity(chunks.len() * pending.unit_len);
                        for chunk in &chunks {
                            flat.extend_from_slice(chunk.as_slice());
                        }
                        self.device.memcpy_htod(pending.data_ptr, &flat)?;
                        result_len = flat.len() as u64;
                    }
                }
                Reply::Error(e) => {
                    error = match e {
                        DcgnError::Truncated { .. } => mailbox_error::TRUNCATED,
                        DcgnError::InvalidRank(_) => mailbox_error::INVALID_RANK,
                        DcgnError::ShuttingDown => mailbox_error::SHUTDOWN,
                        _ => mailbox_error::OTHER,
                    };
                }
            }
        }
        // Write the contiguous result block, then flip status to COMPLETE
        // (separate word write, like the real implementation's flag
        // protocol).
        let mut results = [0u8; 20];
        results[0..8].copy_from_slice(&result_len.to_le_bytes());
        results[8..12].copy_from_slice(&result_src.to_le_bytes());
        results[12..16].copy_from_slice(&error.to_le_bytes());
        results[16..20].copy_from_slice(&result_tag.to_le_bytes());
        self.device
            .memcpy_htod(body.add(BODY_RESULT_LEN), &results)?;
        self.device
            .write_u32(self.status_ptr(slot), status::COMPLETE)?;
        Ok(())
    }

    /// One polling sweep: complete finished slot operations, then harvest
    /// every newly `REQUESTED` slot with one batched status-column read, one
    /// scattered body fetch and one scattered acknowledgement write
    /// (`IN_PROGRESS` for blocking transactions, `EMPTY` for split-protocol
    /// publishes), relaying the harvest as a single [`CommCommand::Batch`].
    /// Returns true when the sweep did any work.
    fn sweep(&self, pending: &mut HashMap<PendingKey, PendingSlotOp>) -> Result<bool> {
        let mut did_work = false;

        // Completions: requests whose replies have all arrived from the
        // comm thread get written back to device memory — into the slot body
        // (blocking) or the per-request completion record (split protocol).
        let done: Vec<PendingKey> = pending
            .iter_mut()
            .filter_map(|(&key, op)| op.poll().then_some(key))
            .collect();
        for key in done {
            self.cost.charge_queue_hop();
            let mut op = pending.remove(&key).expect("selected above");
            match key.1 {
                Some((req, gen)) => self.complete_async(key.0, req, gen, &mut op)?,
                None => self.complete_request(key.0, &mut op)?,
            }
            did_work = true;
        }

        // New requests: one batched PCI-e read covers every slot's status
        // word.  Skipped entirely while every slot has a blocking
        // transaction in flight (split-protocol slots can publish again, so
        // they keep the scan alive).
        let blocked_slots = pending.keys().filter(|(_, req)| req.is_none()).count();
        if blocked_slots < self.layout.slots {
            let statuses = self
                .device
                .read_u32s(self.layout.mailbox_base, self.layout.slots)?;
            self.metrics.batched_status_reads.inc();
            let requested: Vec<usize> = statuses
                .iter()
                .enumerate()
                .filter(|&(slot, &st)| {
                    st == status::REQUESTED && !pending.contains_key(&(slot, None))
                })
                .map(|(slot, _)| slot)
                .collect();
            if !requested.is_empty() {
                // One scattered fetch pulls every requested body together.
                let ranges: Vec<(DevicePtr, usize)> = requested
                    .iter()
                    .map(|&slot| (self.body_ptr(slot), MAILBOX_BODY_BYTES))
                    .collect();
                let bodies = self.device.memcpy_dtoh_scattered(&ranges)?;
                self.metrics.batched_entry_reads.inc();
                let mut batch = Vec::new();
                let mut acks: Vec<(DevicePtr, u32)> = Vec::with_capacity(requested.len());
                for (&slot, body) in requested.iter().zip(&bodies) {
                    let op = self.decode_request(slot, body, &mut batch)?;
                    // Split-protocol publishes are acknowledged straight back
                    // to EMPTY (their payload/body is already harvested), so
                    // the slot can publish again while this request flies.
                    let ack = if op.async_req.is_some() {
                        status::EMPTY
                    } else {
                        status::IN_PROGRESS
                    };
                    acks.push((self.status_ptr(slot), ack));
                    if pending.insert((slot, op.async_req), op).is_some() {
                        return Err(DcgnError::Internal(format!(
                            "slot {slot} republished a completion record still in flight"
                        )));
                    }
                    self.metrics.requests.inc();
                }
                // One scattered write acknowledges the whole harvest — the
                // write-side mirror of the batched status read.
                self.device.write_u32s_scattered(&acks)?;
                self.metrics.batched_status_writes.inc();
                // The whole harvest crosses the work queue as one command.
                self.cost.charge_queue_hop();
                self.work_tx
                    .send(CommCommand::Batch(batch))
                    .map_err(|_| DcgnError::ShuttingDown)?;
                did_work = true;
            }
        }
        Ok(did_work)
    }

    /// Run the sleep-based polling loop until the kernel has retired and all
    /// outstanding slot requests have been completed.
    pub fn run(&self, handle: &KernelHandle) -> Result<GpuPollStats> {
        /// How long after kernel retirement the loop keeps servicing
        /// split-protocol requests the kernel abandoned (published but never
        /// waited on) before giving up with an error.  Legitimate in-flight
        /// completions land well within this; an irrecoverable request (e.g.
        /// an `irecv` nothing will ever match) must not hang the launch.
        const ABANDONED_GRACE: Duration = Duration::from_secs(5);

        let started = Instant::now();
        let mut busy = Duration::ZERO;
        // The registry accumulates across launches; a baseline taken here
        // keeps the returned per-launch stats delta-based.
        let base_counts = self.metrics.values();
        let mut pending: HashMap<PendingKey, PendingSlotOp> = HashMap::new();
        let base = self.cost.poll_interval;
        let mut interval = base;
        let mut retired_at: Option<Instant> = None;

        loop {
            if pending.is_empty() {
                // Sleep-based polling: the CPU deliberately yields between
                // sweeps, trading request-discovery latency for host CPU
                // load (§3.2.3).  With backoff enabled, empty sweeps stretch
                // the sleep toward the configured cap; any work snaps it
                // back to the base interval.
                if interval > base {
                    self.metrics.backoff_sleeps.inc();
                }
                dcgn_simtime::precise_sleep(interval);
            } else {
                // Requests are in flight with the comm thread: block on a
                // reply channel (a true wait, not a spin) so completions are
                // written back as soon as replies land — the real GPU-kernel
                // thread handles a picked-up request synchronously — while
                // still sweeping for newly published requests at least once
                // per base interval.
                let deadline = Instant::now() + base;
                if let Some(op) = pending.values_mut().next() {
                    op.wait_until(deadline);
                }
            }
            let sweep_start = Instant::now();
            self.metrics.polls.inc();
            let did_work = self.sweep(&mut pending)?;
            busy += sweep_start.elapsed();
            // Backoff applies only to the idle discovery sleep; while
            // requests are in flight the cadence stays at the base interval.
            interval = if pending.is_empty() {
                next_poll_interval(&self.cost, interval, did_work)
            } else {
                base
            };

            if handle.is_done() {
                if pending.is_empty() {
                    if !did_work {
                        break;
                    }
                } else {
                    // Only split-protocol requests can outlive the kernel (a
                    // blocking transaction pins its block in `wait_for_u32`).
                    let since = *retired_at.get_or_insert_with(Instant::now);
                    if did_work {
                        retired_at = Some(Instant::now());
                    } else if since.elapsed() > ABANDONED_GRACE {
                        return Err(DcgnError::Internal(format!(
                            "GPU {}:{} kernel retired with {} abandoned nonblocking \
                             request(s) that never completed",
                            self.layout.node,
                            self.layout.gpu_index,
                            pending.len()
                        )));
                    }
                }
            }
        }
        let counts = self.metrics.values();
        Ok(GpuPollStats {
            node: self.layout.node,
            gpu_index: self.layout.gpu_index,
            polls: counts.polls - base_counts.polls,
            requests: counts.requests - base_counts.requests,
            batched_status_reads: counts.batched_status_reads - base_counts.batched_status_reads,
            batched_entry_reads: counts.batched_entry_reads - base_counts.batched_entry_reads,
            batched_status_writes: counts.batched_status_writes - base_counts.batched_status_writes,
            backoff_sleeps: counts.backoff_sleeps - base_counts.backoff_sleeps,
            busy,
            wall: started.elapsed(),
        })
    }
}

/// Next sleep interval of the polling loop: reset to the base after a sweep
/// that did work, otherwise multiply by the configured backoff (when above
/// 1.0) up to the configured cap.
fn next_poll_interval(cost: &CostModel, current: Duration, did_work: bool) -> Duration {
    let base = cost.poll_interval;
    if did_work || cost.poll_backoff <= 1.0 {
        return base;
    }
    let cap = cost.poll_max_interval.max(base);
    current.mul_f64(cost.poll_backoff).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout guard
    fn mailbox_body_is_large_enough_for_all_fields() {
        assert!(BODY_ERROR + 4 <= MAILBOX_BODY_BYTES);
        assert!(BODY_RESULT_SRC + 4 <= MAILBOX_BODY_BYTES);
        assert!(BODY_RESULT_LEN + 8 <= MAILBOX_BODY_BYTES);
        assert!(BODY_COMM + 8 <= MAILBOX_BODY_BYTES);
        // The matched tag sits right after the error word, and both the
        // body and the completion record leave room for it.
        assert!(BODY_RESULT_TAG == BODY_ERROR + 4);
        assert!(BODY_RESULT_TAG + 4 <= MAILBOX_BODY_BYTES);
        assert!(COMP_RESULT_TAG + 4 <= MAILBOX_COMPLETION_BYTES);
        // The result block written back by the host is one contiguous span.
        assert!(BODY_RESULT_SRC == BODY_RESULT_LEN + 8);
        assert!(BODY_ERROR == BODY_RESULT_SRC + 4);
    }

    #[test]
    fn status_column_then_completion_columns_then_bodies() {
        let slots = 4;
        let comp_bytes = MAILBOX_REQS_PER_SLOT * MAILBOX_COMPLETION_BYTES;
        assert_eq!(status_offset(0), 0);
        assert_eq!(status_offset(3), 12);
        // Completion records sit right after the status column, densely
        // packed by (slot, record).
        let reqs = MAILBOX_REQS_PER_SLOT;
        assert_eq!(
            completion_offset(slots, reqs, 0, 0),
            slots * MAILBOX_STATUS_BYTES
        );
        assert_eq!(
            completion_offset(slots, reqs, 1, 2),
            slots * MAILBOX_STATUS_BYTES + (reqs + 2) * MAILBOX_COMPLETION_BYTES
        );
        // Bodies follow all completion columns.
        assert_eq!(
            body_offset(slots, reqs, 0),
            slots * (MAILBOX_STATUS_BYTES + comp_bytes)
        );
        assert_eq!(
            body_offset(slots, reqs, 2),
            slots * (MAILBOX_STATUS_BYTES + comp_bytes) + 2 * MAILBOX_BODY_BYTES
        );
        assert_eq!(
            mailbox_region_bytes(slots, reqs),
            slots * (MAILBOX_STATUS_BYTES + comp_bytes + MAILBOX_BODY_BYTES)
        );
        // A shallower completion column shrinks the region accordingly.
        assert_eq!(
            mailbox_region_bytes(slots, 1),
            slots * (MAILBOX_STATUS_BYTES + MAILBOX_COMPLETION_BYTES + MAILBOX_BODY_BYTES)
        );
    }

    #[test]
    fn reduce_word_roundtrips_op_and_dtype() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            for dtype in [
                ReduceDtype::F64,
                ReduceDtype::F32,
                ReduceDtype::U32,
                ReduceDtype::I64,
            ] {
                assert_eq!(
                    decode_reduce_word(encode_reduce_word(op, dtype)),
                    Some((op, dtype))
                );
            }
        }
        // A bare operator code keeps its pre-typed f64 meaning.
        assert_eq!(
            decode_reduce_word(reduce_op_code::MAX),
            Some((ReduceOp::Max, ReduceDtype::F64))
        );
        assert_eq!(decode_reduce_word(99), None);
        assert_eq!(decode_reduce_word(9 << 8), None);
        assert_eq!(decode_reduce_word(1 << 16), None);
    }

    #[test]
    fn poll_stats_busy_fraction() {
        let stats = GpuPollStats {
            node: 0,
            gpu_index: 0,
            polls: 10,
            requests: 2,
            batched_status_reads: 10,
            batched_entry_reads: 2,
            batched_status_writes: 2,
            backoff_sleeps: 0,
            busy: Duration::from_millis(25),
            wall: Duration::from_millis(100),
        };
        assert!((stats.busy_fraction() - 0.25).abs() < 1e-9);
        let empty = GpuPollStats {
            wall: Duration::ZERO,
            ..stats
        };
        assert_eq!(empty.busy_fraction(), 0.0);
    }

    #[test]
    fn mailbox_allocation_is_zeroed() {
        let device = Device::new_default(0);
        let ptr = GpuKernelThread::allocate_mailboxes(&device, 4, MAILBOX_REQS_PER_SLOT).unwrap();
        let bytes = device
            .memcpy_dtoh_vec(ptr, mailbox_region_bytes(4, MAILBOX_REQS_PER_SLOT))
            .unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn poll_interval_backs_off_and_snaps_back() {
        let base = Duration::from_micros(100);
        let mut cost = CostModel::zero().with_poll_interval(base);
        // Disabled backoff: interval never moves.
        assert_eq!(next_poll_interval(&cost, base, false), base);
        cost = cost.with_poll_backoff(2.0, Duration::from_micros(350));
        let i1 = next_poll_interval(&cost, base, false);
        assert_eq!(i1, Duration::from_micros(200));
        let i2 = next_poll_interval(&cost, i1, false);
        assert_eq!(i2, Duration::from_micros(350), "capped at the max");
        assert_eq!(next_poll_interval(&cost, i2, true), base, "work resets");
    }

    /// Build a host-side GPU-kernel thread wired to a plain channel, with
    /// every mailbox zeroed.
    fn test_gpu_thread(
        slots: usize,
    ) -> (GpuKernelThread, crossbeam::channel::Receiver<CommCommand>) {
        let device = Device::new_default(0);
        let mailbox_base =
            GpuKernelThread::allocate_mailboxes(&device, slots, MAILBOX_REQS_PER_SLOT).unwrap();
        let (work_tx, work_rx) = crossbeam::channel::unbounded();
        (
            GpuKernelThread {
                device,
                layout: GpuLayout {
                    node: 0,
                    gpu_index: 0,
                    slots,
                    reqs_per_slot: MAILBOX_REQS_PER_SLOT,
                    slot_rank_base: 0,
                    total_ranks: slots,
                    mailbox_base,
                },
                work_tx,
                cost: CostModel::zero(),
                metrics: GpuThreadMetrics::new(&MetricsHandle::new(), 0, 0),
            },
            work_rx,
        )
    }

    /// Publish a barrier request on `slot` the way a device block would.
    fn publish_barrier(gpu: &GpuKernelThread, slot: usize) {
        let mut body = [0u8; MAILBOX_BODY_BYTES];
        body[BODY_OPCODE..BODY_OPCODE + 4].copy_from_slice(&opcode::BARRIER.to_le_bytes());
        body[BODY_PEER2..BODY_PEER2 + 4].copy_from_slice(&(slot as u32).to_le_bytes());
        body[BODY_AUX..BODY_AUX + 4].copy_from_slice(&(gpu.layout.slots as u32).to_le_bytes());
        gpu.device.memcpy_htod(gpu.body_ptr(slot), &body).unwrap();
        gpu.device
            .write_u32(gpu.status_ptr(slot), status::REQUESTED)
            .unwrap();
    }

    #[test]
    fn one_sweep_harvests_n_slots_with_one_status_read_and_one_batch() {
        let slots = 4;
        let (gpu, work_rx) = test_gpu_thread(slots);
        for slot in 0..slots {
            publish_barrier(&gpu, slot);
        }

        let mut pending = HashMap::new();
        let reads_before = gpu.device.dtoh_transfer_count();
        let writes_before = gpu.device.htod_transfer_count();
        gpu.sweep(&mut pending).unwrap();

        // Exactly one status-column read plus one scattered body fetch —
        // not one PCI-e round trip per slot.
        assert_eq!(
            gpu.device.dtoh_transfer_count(),
            reads_before + 2,
            "a sweep over {slots} requested slots must issue exactly 2 device reads"
        );
        // ... and exactly one scattered acknowledgement write, not one
        // IN_PROGRESS write per slot.
        assert_eq!(
            gpu.device.htod_transfer_count(),
            writes_before + 1,
            "a sweep over {slots} requested slots must issue exactly 1 device write"
        );
        assert_eq!(gpu.metrics.batched_status_reads.get(), 1);
        assert_eq!(gpu.metrics.batched_entry_reads.get(), 1);
        assert_eq!(gpu.metrics.batched_status_writes.get(), 1);
        assert_eq!(gpu.metrics.requests.get(), slots as u64);
        assert_eq!(pending.len(), slots);
        for slot in 0..slots {
            assert_eq!(
                gpu.device.read_u32(gpu.status_ptr(slot)).unwrap(),
                status::IN_PROGRESS
            );
        }

        // The whole harvest crossed the work queue as a single Batch.
        let reqs = match work_rx.try_recv().unwrap() {
            CommCommand::Batch(reqs) => reqs,
            other => panic!("expected one Batch command, got {other:?}"),
        };
        assert_eq!(reqs.len(), slots);
        assert!(work_rx.try_recv().is_err(), "no further queue traffic");

        // Completing the replies flips every slot to COMPLETE on the next
        // sweep.
        for req in reqs {
            req.reply_tx
                .send(Reply::CollectiveDone(CollectiveResult::Unit))
                .unwrap();
        }
        gpu.sweep(&mut pending).unwrap();
        assert!(pending.is_empty());
        for slot in 0..slots {
            assert_eq!(
                gpu.device.read_u32(gpu.status_ptr(slot)).unwrap(),
                status::COMPLETE
            );
        }
    }

    #[test]
    fn empty_sweep_reads_the_status_column_once_and_sends_nothing() {
        let (gpu, work_rx) = test_gpu_thread(3);
        let mut pending = HashMap::new();
        let reads_before = gpu.device.dtoh_transfer_count();
        assert!(!gpu.sweep(&mut pending).unwrap());
        assert_eq!(gpu.device.dtoh_transfer_count(), reads_before + 1);
        assert_eq!(gpu.metrics.batched_entry_reads.get(), 0);
        assert!(work_rx.try_recv().is_err());
    }
}
