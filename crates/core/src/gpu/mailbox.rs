//! The mailbox format — the only module that knows where anything sits in
//! the mailbox region of device memory.  A request lives in one completion
//! record from publish to release, so the host reads every slot's requests
//! with one transfer and completes each with one more:
//!
//! ```text
//! | record × (1 + reqs_per_slot) × slots | sequence word × slots |
//!   record = [body | inline | result fields | word]
//! ```
//!
//! Record 0 of each slot is *reserved* for blocking calls; records
//! `1..=reqs_per_slot` serve `isend`/`irecv`.

use std::cmp::Ordering;
use std::time::Duration;

use dcgn_dpm::DevicePtr;
use dcgn_rmpi::{ReduceDtype, ReduceOp};

use crate::error::DcgnError;

/// Default maximum of nonblocking requests a slot can have outstanding at
/// once (the depth of its completion-record column, not counting the record
/// reserved for blocking calls).  Configurable per job via
/// [`crate::DcgnConfig::with_mailbox_depth`]; a kernel publishing past the
/// configured depth without harvesting faults cleanly instead of
/// deadlocking.
pub const MAILBOX_REQS_PER_SLOT: usize = 4;

/// Bytes of a request body, the first part of its completion record.
const MAILBOX_BODY_BYTES: usize = 44;

/// Bytes of a completion record's inline area (after the body): the largest
/// payload that rides in the record each way instead of crossing PCI-e.
pub const MAILBOX_INLINE_BYTES: usize = 64;

/// Bytes of a completion record's result fields (after the inline area).
const RECORD_FIELDS_BYTES: usize = 20;

/// Bytes the host writes to complete a record: inline area, fields, word.
const COMPLETION_WRITE_BYTES: usize = MAILBOX_INLINE_BYTES + RECORD_FIELDS_BYTES + 4;

/// Bytes of one completion record: `[body 44 B][inline 64 B][error u32]
/// [len u64][source u32][tag u32][word u32]`.
pub const MAILBOX_COMPLETION_BYTES: usize = MAILBOX_BODY_BYTES + COMPLETION_WRITE_BYTES;

/// Bit of the `error` field that says the result bytes are in the inline
/// area.  The host sets it; a kernel never infers it from `len`, which a
/// request with no write-back buffer (a broadcast root) reports too.
const INLINE_RESULT: u32 = 1 << 31;

/// Bytes of one slot's sequence word, stored after every record.
const SEQUENCE_BYTES: usize = 4;

/// Index, within a slot's record column, of the record reserved for
/// blocking calls.
pub(crate) const RESERVED_RECORD: usize = 0;

/// Total bytes of the mailbox region for `slots` slots that each carry the
/// reserved record plus `reqs_per_slot` nonblocking ones.
pub fn mailbox_region_bytes(slots: usize, reqs_per_slot: usize) -> usize {
    slots * ((1 + reqs_per_slot) * MAILBOX_COMPLETION_BYTES + SEQUENCE_BYTES)
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
    /// Bytes of device memory: a buffer reaching past them is unreadable.
    pub memory_bytes: usize,
    /// The runtime's request timeout, which bounds every device-side wait.
    pub request_timeout: Duration,
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

    /// Bytes of every slot's records, from the region's base: what one sweep
    /// reads.
    pub fn records_bytes(&self) -> usize {
        self.slots * self.records_per_slot() * MAILBOX_COMPLETION_BYTES
    }

    /// Address of `slot`'s `record`-th completion record (its body).
    pub fn record_ptr(&self, slot: usize, record: usize) -> DevicePtr {
        let index = slot * self.records_per_slot() + record;
        self.mailbox_base.add(index * MAILBOX_COMPLETION_BYTES)
    }

    /// Address of that record's inline area, which its result fields and
    /// word follow: the host completes a record with one write of all three.
    pub fn result_ptr(&self, slot: usize, record: usize) -> DevicePtr {
        self.record_ptr(slot, record).add(MAILBOX_BODY_BYTES)
    }

    /// Address of that record's word.
    pub fn word_ptr(&self, slot: usize, record: usize) -> DevicePtr {
        self.result_ptr(slot, record)
            .add(COMPLETION_WRITE_BYTES - 4)
    }

    /// Address of `slot`'s sequence word: a counter its blocks bump with a
    /// device-side atomic add on every publish and the host never writes.
    pub fn sequence_ptr(&self, slot: usize) -> DevicePtr {
        self.assert_slot(slot);
        self.mailbox_base
            .add(self.records_bytes() + slot * SEQUENCE_BYTES)
    }
}

/// States of a completion word (its low 2 bits; the remaining 30 bits carry
/// the record's claim *generation*, the slot's sequence number at the claim,
/// so a stale [`GpuRequest`](super::GpuRequest) — waited on twice, or kept
/// past completion — is detected and faults instead of spinning forever or
/// stealing a newer request's completion).  The word is the only state a
/// request has.
pub mod req_state {
    /// The record is unused; a kernel may claim it (device-side CAS).
    pub const FREE: u32 = 0;
    /// A request is published or in flight under this record.
    pub const PENDING: u32 = 1;
    /// The host has completed the request; result fields are valid.
    pub const DONE: u32 = 2;
    /// A block has claimed the record and is still writing the body; the
    /// host leaves it alone.
    pub const CLAIMED: u32 = 3;
}

/// Mask of the generation bits within a completion word.
pub(crate) const REQ_GEN_MASK: u32 = u32::MAX >> 2;

/// Compose a completion word from a claim generation and a state.
pub(crate) fn req_word(gen: u32, state: u32) -> u32 {
    (gen << 2) | state
}

/// The `(generation, state)` a completion word holds.
pub(crate) fn split_word(word: u32) -> (u32, u32) {
    (word >> 2, word & 0b11)
}

/// The order in which two requests of one slot were published, from their
/// generations.  Generations are the slot's sequence numbers, which wrap
/// within [`REQ_GEN_MASK`]; the requests one sweep finds in a slot were
/// claimed far less than half that range apart, so the nearer way round the
/// circle is the true one.
pub(crate) fn publish_order(a: u32, b: u32) -> Ordering {
    match b.wrapping_sub(a) & REQ_GEN_MASK {
        0 => Ordering::Equal,
        ahead if ahead <= REQ_GEN_MASK / 2 => Ordering::Less,
        _ => Ordering::Greater,
    }
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

/// The word of a completion record, from the record's bytes.
pub(crate) fn record_word(record: &[u8]) -> u32 {
    u32_at(record, MAILBOX_COMPLETION_BYTES - 4)
}

/// Whether `len` bytes at `ptr` lie inside a device memory of `capacity`
/// bytes.
pub(crate) fn in_device_memory(ptr: DevicePtr, len: usize, capacity: usize) -> bool {
    matches!(ptr.offset().checked_add(len), Some(end) if end <= capacity)
}

/// One published request, as it sits at the front of its record.
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
    /// The device buffer the request reads from and/or writes to.
    pub data: DevicePtr,
    /// Its length in bytes (per rank, for the chunked collectives).
    pub len: usize,
    /// Raw [`crate::CommId`] of the communicator a collective runs over
    /// (0 = world).
    pub comm: u64,
}

/// Byte offset of the first `u64` word of a body, after its five `u32`s.
const BODY_WIDE: usize = 20;

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
            data,
            len,
            comm: 0,
        }
    }

    /// The front of a record as a publish writes it: the body, then the
    /// inline area holding `inline`.
    pub fn encode(
        &self,
        inline: &[u8; MAILBOX_INLINE_BYTES],
    ) -> [u8; MAILBOX_BODY_BYTES + MAILBOX_INLINE_BYTES] {
        let narrow = [self.opcode, self.peer, self.peer2, self.aux, self.reduce];
        let wide = [self.data.offset() as u64, self.len as u64, self.comm];
        let mut out = [0u8; MAILBOX_BODY_BYTES + MAILBOX_INLINE_BYTES];
        out[MAILBOX_BODY_BYTES..].copy_from_slice(inline);
        for (i, word) in narrow.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        for (i, word) in wide.iter().enumerate() {
            out[BODY_WIDE + 8 * i..BODY_WIDE + 8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The copy of its buffer a publish left in `record` — the record the
    /// body was harvested from — when the buffer fits the inline area.
    pub fn inline<'a>(&self, record: &'a [u8]) -> Option<&'a [u8]> {
        (self.len <= MAILBOX_INLINE_BYTES).then(|| &record[MAILBOX_BODY_BYTES..][..self.len])
    }

    /// Parse the body at the front of a record.
    pub fn decode(bytes: &[u8]) -> Body {
        Body {
            opcode: u32_at(bytes, 0),
            peer: u32_at(bytes, 4),
            peer2: u32_at(bytes, 8),
            aux: u32_at(bytes, 12),
            reduce: u32_at(bytes, 16),
            data: DevicePtr::NULL.add(u64_at(bytes, BODY_WIDE) as usize),
            len: u64_at(bytes, BODY_WIDE + 8) as usize,
            comm: u64_at(bytes, BODY_WIDE + 16),
        }
    }
}

/// The result fields of a completion record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// The result bytes, when they ride in the record's inline area instead
    /// of having been written to the request's buffer.
    pub inline: Option<Vec<u8>>,
}

impl Record {
    /// The completion of a record claimed under `gen`, as the host writes it
    /// at [`GpuLayout::result_ptr`]: the inline area, the fields, then
    /// `DONE(gen)`.  It is one transfer and device memory is written under
    /// one lock, so a kernel that observes `DONE` reads a consistent result.
    pub fn encode_done(&self, gen: u32) -> [u8; COMPLETION_WRITE_BYTES] {
        let mut out = [0u8; COMPLETION_WRITE_BYTES];
        let mut error = self.error;
        if let Some(inline) = &self.inline {
            out[..inline.len()].copy_from_slice(inline);
            error |= INLINE_RESULT;
        }
        let fields = &mut out[MAILBOX_INLINE_BYTES..];
        fields[0..4].copy_from_slice(&error.to_le_bytes());
        fields[4..12].copy_from_slice(&self.len.to_le_bytes());
        fields[12..16].copy_from_slice(&self.source.to_le_bytes());
        fields[16..20].copy_from_slice(&self.tag.to_le_bytes());
        fields[20..].copy_from_slice(&req_word(gen, req_state::DONE).to_le_bytes());
        out
    }

    /// Parse the result in a record's bytes, read after observing `DONE`.
    pub fn decode(record: &[u8]) -> Record {
        let at = MAILBOX_BODY_BYTES + MAILBOX_INLINE_BYTES;
        let (error, len) = (u32_at(record, at), u64_at(record, at + 4));
        Record {
            error: error & !INLINE_RESULT,
            len,
            source: u32_at(record, at + 12),
            tag: u32_at(record, at + 16),
            inline: (error & INLINE_RESULT != 0)
                .then(|| record[MAILBOX_BODY_BYTES..][..len as usize].to_vec()),
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
            memory_bytes: 1 << 20,
            request_timeout: Duration::MAX,
        }
    }

    #[test]
    fn record_columns_then_sequence_words() {
        let slots = 4;
        let l = layout(slots, MAILBOX_REQS_PER_SLOT);
        let records = 1 + MAILBOX_REQS_PER_SLOT;
        assert_eq!(l.records_per_slot(), records);
        assert_eq!(MAILBOX_COMPLETION_BYTES, 132);
        // Records are densely packed by (slot, record) from the base, the
        // reserved record first in each slot's column.
        assert_eq!(l.record_ptr(0, RESERVED_RECORD).offset(), 0);
        assert_eq!(
            l.record_ptr(1, 2).offset(),
            (records + 2) * MAILBOX_COMPLETION_BYTES
        );
        // Within a record: body, then the inline area, fields and the word,
        // which ends it.
        let record = l.record_ptr(1, 2).offset();
        assert_eq!(l.result_ptr(1, 2).offset(), record + MAILBOX_BODY_BYTES);
        assert_eq!(
            l.result_ptr(1, 2).offset() + COMPLETION_WRITE_BYTES,
            record + MAILBOX_COMPLETION_BYTES
        );
        assert_eq!(
            l.word_ptr(1, 2).offset() + 4,
            record + MAILBOX_COMPLETION_BYTES
        );
        // The sequence words follow every record, outside what a sweep reads.
        assert_eq!(
            l.records_bytes(),
            slots * records * MAILBOX_COMPLETION_BYTES
        );
        assert_eq!(l.sequence_ptr(0).offset(), l.records_bytes());
        assert_eq!(
            mailbox_region_bytes(slots, MAILBOX_REQS_PER_SLOT),
            l.sequence_ptr(3).offset() + 4
        );
        // What a sweep reads: 660 B for one slot at the default depth, and
        // 2,640 B for the largest layout any app or ablation runs.
        assert_eq!(layout(1, MAILBOX_REQS_PER_SLOT).records_bytes(), 660);
        assert_eq!(l.records_bytes(), 2640);
        assert_eq!(
            mailbox_region_bytes(slots, 1),
            slots * (2 * MAILBOX_COMPLETION_BYTES + 4)
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
            data: DevicePtr::NULL.add(0x0505_0505_0505),
            len: 0x0606_0606_0606,
            comm: u64::MAX - 7,
        };
        let inline = [0x77; MAILBOX_INLINE_BYTES];
        let front = body.encode(&inline);
        assert_eq!(Body::decode(&front), body);
        assert_eq!(front[MAILBOX_BODY_BYTES..], inline);
        // Distinct values per field, so a swapped pair of offsets would
        // have failed the comparison above; a zero body stays zero.
        let zero = Body::new(0, 0, DevicePtr::NULL, 0);
        let front = zero.encode(&[0; MAILBOX_INLINE_BYTES]);
        assert_eq!(front, [0u8; MAILBOX_BODY_BYTES + MAILBOX_INLINE_BYTES]);
        assert_eq!(Body::decode(&front), zero);
    }

    #[test]
    fn record_round_trips_every_field() {
        let record = Record {
            error: mailbox_error::TRUNCATED,
            // Wider than u32: the length field is a u64, as the body's is.
            len: 0x0102_0304_0506,
            source: 0x0A0B_0C0D,
            tag: ANY_TAG - 1,
            inline: None,
        };
        // Written at the inline area, a completion ends where the record
        // does; its word last.
        let mut bytes = [0u8; MAILBOX_COMPLETION_BYTES];
        bytes[MAILBOX_BODY_BYTES..].copy_from_slice(&record.encode_done(REQ_GEN_MASK));
        assert_eq!(Record::decode(&bytes), record);
        assert_eq!(record_word(&bytes), req_word(REQ_GEN_MASK, req_state::DONE));
        // An inline result is flagged in the error word, never inferred:
        // the same length without the flag decodes with no inline bytes.
        let small = Record {
            error: mailbox_error::OK,
            len: 3,
            inline: Some(vec![1, 2, 3]),
            ..record
        };
        bytes[MAILBOX_BODY_BYTES..].copy_from_slice(&small.encode_done(5));
        assert_eq!(Record::decode(&bytes), small);
        let unflagged = Record {
            inline: None,
            ..small.clone()
        };
        bytes[MAILBOX_BODY_BYTES..].copy_from_slice(&unflagged.encode_done(5));
        assert_eq!(Record::decode(&bytes), unflagged);
        assert_eq!(bytes[MAILBOX_BODY_BYTES..][..3], [0, 0, 0]);
    }

    #[test]
    fn words_split_into_generation_and_state() {
        for state in [
            req_state::FREE,
            req_state::CLAIMED,
            req_state::PENDING,
            req_state::DONE,
        ] {
            assert_eq!(split_word(req_word(7, state)), (7, state));
            assert_eq!(
                split_word(req_word(REQ_GEN_MASK, state)),
                (REQ_GEN_MASK, state)
            );
        }
    }

    #[test]
    fn publish_order_follows_the_sequence_across_its_wrap() {
        assert_eq!(publish_order(3, 4), Ordering::Less);
        assert_eq!(publish_order(4, 3), Ordering::Greater);
        assert_eq!(publish_order(4, 4), Ordering::Equal);
        // The generation after REQ_GEN_MASK is 0, published later.
        assert_eq!(publish_order(REQ_GEN_MASK, 0), Ordering::Less);
        assert_eq!(publish_order(0, REQ_GEN_MASK), Ordering::Greater);
        let mut gens = [1, REQ_GEN_MASK - 1, 0, REQ_GEN_MASK];
        gens.sort_by(|&a, &b| publish_order(a, b));
        assert_eq!(gens, [REQ_GEN_MASK - 1, REQ_GEN_MASK, 0, 1]);
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
