//! The mailbox format — the only module that knows where anything sits in
//! the mailbox region of device memory, laid out struct-of-arrays so the
//! host polls and acknowledges every slot with one transfer each:
//!
//! ```text
//! | status word × slots | record × (1 + reqs_per_slot) × slots | body × slots |
//! ```
//!
//! Record 0 of each slot is *reserved* for blocking calls; records
//! `1..=reqs_per_slot` serve `isend`/`irecv`.

use dcgn_dpm::DevicePtr;
use dcgn_rmpi::{ReduceDtype, ReduceOp};

use crate::error::{DcgnError, Result};

/// Bytes of one slot's status word.  The status words of all slots are
/// contiguous at the front of the mailbox region, so the host polls them
/// with a single batched read.
pub const MAILBOX_STATUS_BYTES: usize = 4;

/// Default maximum of nonblocking requests a slot can have outstanding at
/// once (the depth of its completion-record column, not counting the record
/// reserved for blocking calls).  Configurable per job via
/// [`crate::DcgnConfig::with_mailbox_depth`]; a kernel publishing past the
/// configured depth without harvesting faults cleanly instead of
/// deadlocking.
pub const MAILBOX_REQS_PER_SLOT: usize = 4;

/// Bytes of one completion record:
/// `[word u32][error u32][len u64][source u32][tag u32]`.
pub const MAILBOX_COMPLETION_BYTES: usize = 24;

/// Bytes of one slot's request body, stored after the record columns.
pub const MAILBOX_BODY_BYTES: usize = 52;

/// Index, within a slot's record column, of the record reserved for
/// blocking calls.
pub(crate) const RESERVED_RECORD: usize = 0;

/// Total bytes of the mailbox region for `slots` slots that each carry the
/// reserved record plus `reqs_per_slot` nonblocking ones.
pub fn mailbox_region_bytes(slots: usize, reqs_per_slot: usize) -> usize {
    slots
        * (MAILBOX_STATUS_BYTES
            + (1 + reqs_per_slot) * MAILBOX_COMPLETION_BYTES
            + MAILBOX_BODY_BYTES)
}

/// Static, read-only description of one GPU shared by the host GPU-kernel
/// thread and the kernels it launches, and the address of every mailbox
/// cell within it.
#[derive(Debug, Clone)]
pub(crate) struct GpuLayout {
    /// Node hosting the GPU.
    pub node: usize,
    /// Index of the GPU within the node.
    pub gpu_index: usize,
    /// Number of slots the GPU is virtualised into.
    pub slots: usize,
    /// Nonblocking completion records per slot, from
    /// [`crate::DcgnConfig::mailbox_reqs_per_slot`].
    pub reqs_per_slot: usize,
    /// DCGN rank of slot 0 (slots are consecutive).
    pub slot_rank_base: usize,
    /// Total DCGN ranks in the job.
    pub total_ranks: usize,
    /// Base device address of the mailbox region.
    pub mailbox_base: DevicePtr,
}

impl GpuLayout {
    /// Records in one slot's column: the reserved one plus the nonblocking
    /// depth.
    pub fn records_per_slot(&self) -> usize {
        1 + self.reqs_per_slot
    }

    fn assert_slot(&self, slot: usize) {
        assert!(
            slot < self.slots,
            "slot {slot} out of range ({} slots configured)",
            self.slots
        );
    }

    /// The DCGN rank of `slot`.
    pub fn slot_rank(&self, slot: usize) -> usize {
        self.assert_slot(slot);
        self.slot_rank_base + slot
    }

    /// Address of `slot`'s status word.
    pub fn status_ptr(&self, slot: usize) -> DevicePtr {
        self.assert_slot(slot);
        self.mailbox_base.add(slot * MAILBOX_STATUS_BYTES)
    }

    /// Address of `slot`'s `record`-th completion record (its word; the
    /// result fields follow at [`record_fields_ptr`]).
    pub fn record_ptr(&self, slot: usize, record: usize) -> DevicePtr {
        let index = slot * self.records_per_slot() + record;
        self.mailbox_base
            .add(self.slots * MAILBOX_STATUS_BYTES + index * MAILBOX_COMPLETION_BYTES)
    }

    /// Address of `slot`'s request body.
    pub fn body_ptr(&self, slot: usize) -> DevicePtr {
        let columns = MAILBOX_STATUS_BYTES + self.records_per_slot() * MAILBOX_COMPLETION_BYTES;
        self.mailbox_base
            .add(self.slots * columns + slot * MAILBOX_BODY_BYTES)
    }
}

/// Mailbox status values (a slot's `status` word): who owns the slot's body.
/// The host acknowledges a harvested `REQUESTED` straight back to `EMPTY`,
/// so the slot can publish again while the request is in flight.
pub mod status {
    /// The body is free; a device block may claim it.
    pub const EMPTY: u32 = 0;
    /// A device block has claimed the body and is still filling it in.
    pub const CLAIMED: u32 = 1;
    /// The body holds a published request the host has not harvested yet.
    pub const REQUESTED: u32 = 2;
}

/// States of a completion word (its low 2 bits; the remaining 30 bits carry
/// the record's claim *generation*, bumped on every claim, so a stale
/// [`GpuRequest`](super::GpuRequest) — waited on twice, or kept past
/// completion — is detected and faults instead of spinning forever or
/// stealing a newer request's completion).
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
pub(crate) fn req_word(gen: u32, state: u32) -> u32 {
    (gen << 2) | state
}

/// The generation the next claim of a record stamps on it, given its
/// current completion word — `None` while the record is not `FREE`.
pub(crate) fn next_claim(word: u32) -> Option<u32> {
    (word & 0b11 == req_state::FREE).then(|| (word >> 2).wrapping_add(1) & REQ_GEN_MASK)
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
    /// Element-wise reduction to a root.
    pub const REDUCE: u32 = 9;
    /// Element-wise reduction delivered to every rank.
    pub const ALLREDUCE: u32 = 10;
    /// Collective communicator split (`MPI_Comm_split` analogue); the
    /// reply's encoded membership lands in the slot's buffer.
    pub const SPLIT: u32 = 11;
    /// Release this slot's handle on a communicator (`MPI_Comm_free`
    /// analogue); the comm thread evicts the group once every local member
    /// has freed it.
    pub const FREE: u32 = 12;
}

/// Wire encoding of [`ReduceOp`] in the low byte of the body's `reduce`
/// word; the element type ([`ReduceDtype`]) rides in the second byte (see
/// [`reduce_dtype_code`]).
pub mod reduce_op_code {
    /// Element-wise sum.
    pub const SUM: u32 = 0;
    /// Element-wise minimum.
    pub const MIN: u32 = 1;
    /// Element-wise maximum.
    pub const MAX: u32 = 2;
}

/// Wire encoding of [`ReduceDtype`] in bits 8..16 of the body's `reduce`
/// word.  `F64` is 0, so pre-typed kernels that wrote a bare operator code
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

/// The body's `reduce` word for `op` over `dtype` elements.  The codes are
/// the substrate's one-byte wire codes, which [`reduce_op_code`] and
/// [`reduce_dtype_code`] name.
pub(crate) fn encode_reduce_word(op: ReduceOp, dtype: ReduceDtype) -> u32 {
    u32::from(op.wire_code()) | u32::from(dtype.wire_code()) << 8
}

pub(crate) fn decode_reduce_word(word: u32) -> Option<(ReduceOp, ReduceDtype)> {
    let op = ReduceOp::from_wire_code(word as u8)?;
    let dtype = ReduceDtype::from_wire_code((word >> 8) as u8)?;
    (word >> 16 == 0).then_some((op, dtype))
}

/// Peer value meaning "any source".
pub const PEER_ANY: u32 = u32::MAX;

/// Tag value meaning "any tag" in a `RECV` body — the device-visible
/// wildcard of the tagged point-to-point API
/// ([`GpuCtx::recv_tagged`](super::GpuCtx::recv_tagged) and friends).  User
/// tags must stay below this value (and below the substrate's internal tag
/// space).
pub const ANY_TAG: u32 = u32::MAX;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One published request, as it sits in a slot's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Body {
    /// What is asked for ([`opcode`]).
    pub opcode: u32,
    /// P2P peer / collective root / split color.
    pub peer: u32,
    /// `sendrecv_replace` source / the caller's sub-rank / split key.
    pub peer2: u32,
    /// P2P tag / the communicator's size.
    pub aux: u32,
    /// Reduction operator and element type (`encode_reduce_word`).
    pub reduce: u32,
    /// Index, within the slot's record column, of the completion record the
    /// host completes this request into.
    pub record: u32,
    /// That record's claim generation, echoed in the `DONE` word.
    pub gen: u32,
    /// The device buffer the request reads from and/or writes to.
    pub data: DevicePtr,
    /// Its length in bytes (per rank, for the chunked collectives).
    pub len: usize,
    /// Raw [`crate::CommId`] of the communicator a collective runs over
    /// (0 = world).
    pub comm: u64,
}

/// Byte offset of the first `u64` word of a body, after its seven `u32`s.
const BODY_WIDE: usize = 28;

impl Body {
    /// A request for `opcode` towards `peer` over `len` bytes at `data`,
    /// every other word zero.
    pub fn new(opcode: u32, peer: u32, data: DevicePtr, len: usize) -> Body {
        Body {
            opcode,
            peer,
            peer2: 0,
            aux: 0,
            reduce: 0,
            record: 0,
            gen: 0,
            data,
            len,
            comm: 0,
        }
    }

    /// The body's bytes as published in device memory.
    pub fn encode(&self) -> [u8; MAILBOX_BODY_BYTES] {
        let narrow = [
            self.opcode,
            self.peer,
            self.peer2,
            self.aux,
            self.reduce,
            self.record,
            self.gen,
        ];
        let wide = [self.data.offset() as u64, self.len as u64, self.comm];
        let mut out = [0u8; MAILBOX_BODY_BYTES];
        for (i, word) in narrow.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        for (i, word) in wide.iter().enumerate() {
            out[BODY_WIDE + 8 * i..BODY_WIDE + 8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parse a harvested body, rejecting one that names a record outside
    /// the slot's column of `records_per_slot` (nothing could complete it).
    pub fn decode(bytes: &[u8], records_per_slot: usize) -> Result<Body> {
        let body = Body {
            opcode: u32_at(bytes, 0),
            peer: u32_at(bytes, 4),
            peer2: u32_at(bytes, 8),
            aux: u32_at(bytes, 12),
            reduce: u32_at(bytes, 16),
            record: u32_at(bytes, 20),
            gen: u32_at(bytes, 24),
            data: DevicePtr::NULL.add(u64_at(bytes, BODY_WIDE) as usize),
            len: u64_at(bytes, BODY_WIDE + 8) as usize,
            comm: u64_at(bytes, BODY_WIDE + 16),
        };
        if body.record as usize >= records_per_slot {
            return Err(DcgnError::Internal(format!(
                "mailbox body names completion record {} of {records_per_slot}",
                body.record
            )));
        }
        Ok(body)
    }
}

/// Bytes of a completion record's result fields (everything after its word).
pub(crate) const RECORD_FIELDS_BYTES: usize = MAILBOX_COMPLETION_BYTES - 4;

/// Address of the result fields of the record whose word is at `record`.
/// The host writes the fields first and flips the word to `DONE` in a
/// separate transfer, so a kernel that observes `DONE` reads consistent
/// fields.
pub(crate) fn record_fields_ptr(record: DevicePtr) -> DevicePtr {
    record.add(4)
}

/// The result fields of a completion record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Record {
    /// How the request ended ([`mailbox_error`]).
    pub error: u32,
    /// Bytes received or produced.
    pub len: u64,
    /// Rank a completed receive's message came from.
    pub source: u32,
    /// Tag the completed receive actually matched — an `ANY_TAG` receive
    /// learns the sender's tag from here instead of reporting 0.
    pub tag: u32,
}

impl Record {
    /// The fields' bytes as the host writes them at [`record_fields_ptr`].
    pub fn encode(&self) -> [u8; RECORD_FIELDS_BYTES] {
        let mut out = [0u8; RECORD_FIELDS_BYTES];
        out[0..4].copy_from_slice(&self.error.to_le_bytes());
        out[4..12].copy_from_slice(&self.len.to_le_bytes());
        out[12..16].copy_from_slice(&self.source.to_le_bytes());
        out[16..20].copy_from_slice(&self.tag.to_le_bytes());
        out
    }

    /// Parse the fields a kernel read back after observing `DONE`.
    pub fn decode(bytes: &[u8; RECORD_FIELDS_BYTES]) -> Record {
        Record {
            error: u32_at(bytes, 0),
            len: u64_at(bytes, 4),
            source: u32_at(bytes, 12),
            tag: u32_at(bytes, 16),
        }
    }
}

/// Error codes written into the `error` field of a completion record.
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

/// The [`mailbox_error`] code a failed request completes with.
pub(crate) fn error_code(error: &DcgnError) -> u32 {
    match error {
        DcgnError::Truncated { .. } => mailbox_error::TRUNCATED,
        DcgnError::InvalidRank(_) => mailbox_error::INVALID_RANK,
        DcgnError::ShuttingDown => mailbox_error::SHUTDOWN,
        _ => mailbox_error::OTHER,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(slots: usize, reqs_per_slot: usize) -> GpuLayout {
        GpuLayout {
            node: 0,
            gpu_index: 0,
            slots,
            reqs_per_slot,
            slot_rank_base: 0,
            total_ranks: slots,
            mailbox_base: DevicePtr::NULL,
        }
    }

    #[test]
    fn status_column_then_record_columns_then_bodies() {
        let slots = 4;
        let l = layout(slots, MAILBOX_REQS_PER_SLOT);
        let records = 1 + MAILBOX_REQS_PER_SLOT;
        assert_eq!(l.records_per_slot(), records);
        assert_eq!(l.status_ptr(0).offset(), 0);
        assert_eq!(l.status_ptr(3).offset(), 12);
        // Records sit right after the status column, densely packed by
        // (slot, record), the reserved record first in each slot's column.
        assert_eq!(
            l.record_ptr(0, RESERVED_RECORD).offset(),
            slots * MAILBOX_STATUS_BYTES
        );
        assert_eq!(
            l.record_ptr(1, 2).offset(),
            slots * MAILBOX_STATUS_BYTES + (records + 2) * MAILBOX_COMPLETION_BYTES
        );
        // Bodies follow all record columns.
        let columns = slots * (MAILBOX_STATUS_BYTES + records * MAILBOX_COMPLETION_BYTES);
        assert_eq!(l.body_ptr(0).offset(), columns);
        assert_eq!(l.body_ptr(2).offset(), columns + 2 * MAILBOX_BODY_BYTES);
        assert_eq!(
            mailbox_region_bytes(slots, MAILBOX_REQS_PER_SLOT),
            l.body_ptr(slots).offset()
        );
        // Depth 1 still carries the reserved record next to the one
        // nonblocking record.
        assert_eq!(
            mailbox_region_bytes(slots, 1),
            slots * (MAILBOX_STATUS_BYTES + 2 * MAILBOX_COMPLETION_BYTES + MAILBOX_BODY_BYTES)
        );
    }

    #[test]
    fn body_round_trips_every_field() {
        let body = Body {
            opcode: opcode::SENDRECV_REPLACE,
            peer: 0x0101_0101,
            peer2: PEER_ANY,
            aux: 0x0303_0303,
            reduce: encode_reduce_word(ReduceOp::Max, ReduceDtype::I64),
            record: 4,
            gen: REQ_GEN_MASK,
            data: DevicePtr::NULL.add(0x0505_0505_0505),
            len: 0x0606_0606_0606,
            comm: u64::MAX - 7,
        };
        assert_eq!(Body::decode(&body.encode(), 5).unwrap(), body);
        // Distinct values per field, so a swapped pair of offsets would
        // have failed the comparison above; a zero body stays zero.
        let zero = Body::new(0, 0, DevicePtr::NULL, 0);
        assert_eq!(zero.encode(), [0u8; MAILBOX_BODY_BYTES]);
        assert_eq!(Body::decode(&zero.encode(), 1).unwrap(), zero);
    }

    #[test]
    fn body_decode_rejects_a_record_outside_the_column() {
        let depth = 3;
        let mut body = Body::new(opcode::BARRIER, 0, DevicePtr::NULL, 0);
        for record in 0..=depth {
            body.record = record as u32;
            assert!(Body::decode(&body.encode(), 1 + depth).is_ok());
        }
        body.record = 1 + depth as u32;
        let err = Body::decode(&body.encode(), 1 + depth).unwrap_err();
        assert!(matches!(err, DcgnError::Internal(msg) if msg.contains("completion record 4")));
    }

    #[test]
    fn record_round_trips_every_field() {
        let record = Record {
            error: mailbox_error::TRUNCATED,
            // Wider than u32: the length field is a u64, as the body's is.
            len: 0x0102_0304_0506,
            source: 0x0A0B_0C0D,
            tag: ANY_TAG - 1,
        };
        assert_eq!(Record::decode(&record.encode()), record);
        assert_eq!(Record::default().encode(), [0u8; RECORD_FIELDS_BYTES]);
        assert_eq!(
            record_fields_ptr(DevicePtr::NULL).offset() + RECORD_FIELDS_BYTES,
            MAILBOX_COMPLETION_BYTES
        );
    }

    #[test]
    fn claims_bump_the_generation_of_free_records_only() {
        assert_eq!(next_claim(0), Some(1));
        assert_eq!(next_claim(req_word(7, req_state::FREE)), Some(8));
        assert_eq!(next_claim(req_word(7, req_state::PENDING)), None);
        assert_eq!(next_claim(req_word(7, req_state::DONE)), None);
        // The generation wraps within its 30 bits.
        assert_eq!(next_claim(req_word(REQ_GEN_MASK, req_state::FREE)), Some(0));
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
        // The published code tables are the substrate's wire codes.
        assert_eq!(
            encode_reduce_word(ReduceOp::Min, ReduceDtype::U32),
            reduce_op_code::MIN | reduce_dtype_code::U32 << 8
        );
        assert_eq!(encode_reduce_word(ReduceOp::Sum, ReduceDtype::F64), 0);
        assert_eq!(
            encode_reduce_word(ReduceOp::Max, ReduceDtype::I64),
            reduce_op_code::MAX | reduce_dtype_code::I64 << 8
        );
        assert_eq!(
            encode_reduce_word(ReduceOp::Sum, ReduceDtype::F32),
            reduce_op_code::SUM | reduce_dtype_code::F32 << 8
        );
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
    fn errors_map_onto_mailbox_codes() {
        assert_eq!(
            error_code(&DcgnError::InvalidRank(9)),
            mailbox_error::INVALID_RANK
        );
        assert_eq!(
            error_code(&DcgnError::ShuttingDown),
            mailbox_error::SHUTDOWN
        );
        assert_eq!(
            error_code(&DcgnError::Internal("x".into())),
            mailbox_error::OTHER
        );
    }
}
