//! Wire-level packet types, status, and error definitions, plus the phases
//! of exchange frames.

use std::fmt;

use dcgn_netsim::Payload;
use dcgn_simtime::Stamp;

/// Wildcard source rank: match a message from any rank.
pub const ANY_SOURCE: Option<usize> = None;

/// Wildcard tag: match a message with any tag.
pub const ANY_TAG: Option<u32> = None;

/// Fixed per-packet header size charged on the wire in addition to payload
/// bytes (matching envelope, sequence and protocol fields of a real MPI
/// transport).
pub const HEADER_BYTES: usize = 32;

/// The packets exchanged between communicator endpoints.
///
/// `Eager` carries the payload immediately.  Large messages rendezvous with
/// `Rts` → `Cts`; the payload then travels as a credit-windowed stream of
/// `RdvChunk` frames acknowledged by `RdvCredit` — one chunk and no credit
/// for a message of at most one chunk (see the `comm` module docs).  Each
/// rendezvous frame names the request it advances by its id in the table of
/// the rank that receives the frame: `send_id` is the sender's, `recv_id`
/// the receiver's.
#[derive(Debug)]
pub enum Packet {
    /// Small message: payload travels with the envelope.
    Eager {
        /// Message tag.
        tag: u32,
        /// Payload bytes (a pooled, shared buffer — moving the packet moves
        /// a reference, and the receiver hands out views of the same
        /// allocation instead of copying out a fresh `Vec`).
        data: Payload,
    },
    /// Rendezvous request-to-send announcing a large message.
    Rts {
        /// Message tag.
        tag: u32,
        /// Payload length of the pending message.
        len: usize,
        /// The sender's id of the send request.
        send_id: u64,
    },
    /// Clear-to-send from the receiver, releasing the payload transfer.
    Cts {
        /// The sender's id, from the matching [`Packet::Rts`].
        send_id: u64,
        /// The receiver's id of the receive request the chunks go to.
        recv_id: u64,
    },
    /// One chunk of a streamed rendezvous transfer.  The data is a zero-copy
    /// view into the sender's staged payload.  Chunks must arrive in offset
    /// order (the fabric's per-sender FIFO): the receiver appends them, and
    /// `offset` is the check that nothing was duplicated, lost or reordered
    /// — a chunk whose offset is not the bytes received so far fails the
    /// transfer.
    RdvChunk {
        /// The receiver's id, from the matching [`Packet::Cts`].
        recv_id: u64,
        /// Byte offset of this chunk within the full message.
        offset: usize,
        /// Chunk bytes (a view of the staged buffer — no per-chunk copy).
        data: Payload,
    },
    /// Receiver-side credit returning window slots to the sender of a
    /// streamed transfer: `chunks` more chunks may be put in flight.
    RdvCredit {
        /// The sender's id, from the matching [`Packet::Rts`].
        send_id: u64,
        /// Number of window slots being returned.
        chunks: usize,
    },
}

impl Packet {
    /// Number of bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Packet::Eager { data, .. } => HEADER_BYTES + data.len(),
            Packet::Rts { .. } => HEADER_BYTES,
            Packet::Cts { .. } => HEADER_BYTES,
            Packet::RdvChunk { data, .. } => HEADER_BYTES + data.len(),
            Packet::RdvCredit { .. } => HEADER_BYTES,
        }
    }
}

// ---------------------------------------------------------------------------
// Exchange phases.  The phase field of an exchange frame's header names
// which leg of a collective schedule a frame belongs to.  Star and tree plans use only
// UP/DOWN; the allreduce schedules (recursive doubling, ring) claim disjoint
// ranges so a frame from a node running a *different* schedule is detected
// as an unexpected phase instead of being folded into the wrong state.
// ---------------------------------------------------------------------------

/// Contribution leg toward the leader (star) or tree parent.
pub const PHASE_UP: u32 = 0;
/// Result leg from the leader (star) or tree parent.
pub const PHASE_DOWN: u32 = 1;
/// Abort broadcast: the body is a status-framed error every participant of
/// the exchange reports.  Valid under every plan.
pub const PHASE_ABORT: u32 = 2;
/// Recursive doubling: an extra node (position ≥ the power-of-two core)
/// folds its partial into its core partner before the rounds start.
pub const PHASE_RD_FOLD_IN: u32 = 3;
/// Recursive doubling: the core partner returns the finished result to its
/// extra node after the last round.
pub const PHASE_RD_FOLD_OUT: u32 = 4;
/// Recursive doubling round `r` travels as phase `PHASE_RD_ROUND_BASE + r`.
pub const PHASE_RD_ROUND_BASE: u32 = 8;
/// Ring allreduce step `s` (reduce-scatter then allgather, `2(n-1)` steps
/// total) travels as phase `PHASE_RING_BASE + s`.
pub const PHASE_RING_BASE: u32 = 0x1000;

/// Completion information for a receive, mirroring `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the message came from.
    pub source: usize,
    /// Tag the message was sent with.
    pub tag: u32,
    /// Number of payload bytes received.
    pub len: usize,
    /// True when the payload is a rendezvous stream from another node: the
    /// receive-drain stage already moved every chunk into the buffer the
    /// receive hands back, so taking that buffer whole copies nothing.
    /// False for an eager frame, whose payload is still where the frame
    /// landed, and for a stream between ranks of one node, which never
    /// drains.
    pub drained: bool,
    /// When an eager frame from another node landed: the stamp a copy of
    /// its payload out of the landing slot can start from, however late the
    /// receiver takes it.  `None` for an intra-node frame, in place once
    /// queued, and for a rendezvous payload, whose drain already moved it.
    pub landed: Option<Stamp>,
}

/// Errors produced by the message passing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmpiError {
    /// A rank argument was outside `0..size`.
    InvalidRank(usize),
    /// The fabric or a peer endpoint has gone away.
    Disconnected,
    /// No progress was possible within the communicator's progress timeout —
    /// the usual cause is a deadlocked communication pattern.
    Stalled(&'static str),
    /// An argument was structurally invalid (e.g. scatter buffer not
    /// divisible by the communicator size).
    InvalidArgument(String),
    /// A request handle was unknown or already consumed.
    UnknownRequest,
    /// Participants disagreed about which collective to execute.
    CollectiveMismatch {
        /// Collective this participant was executing.
        in_progress: &'static str,
        /// Collective a peer requested instead.
        requested: &'static str,
    },
    /// More frames of one exchange arrived before this participant entered
    /// it than any correct run sends it.
    StashOverflow {
        /// Frames the exchange's stash holds at most.
        cap: usize,
    },
    /// An internal invariant was violated (bug in this crate or a peer).
    Internal(String),
}

impl fmt::Display for RmpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmpiError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            RmpiError::Disconnected => write!(f, "communicator disconnected"),
            RmpiError::Stalled(what) => {
                write!(f, "no progress within timeout while waiting for {what}")
            }
            RmpiError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            RmpiError::UnknownRequest => write!(f, "unknown or already-completed request"),
            RmpiError::CollectiveMismatch {
                in_progress,
                requested,
            } => write!(
                f,
                "collective mismatch: executing {in_progress} but a peer requested {requested}"
            ),
            RmpiError::StashOverflow { cap } => {
                write!(
                    f,
                    "more than {cap} frames arrived for an exchange not entered yet"
                )
            }
            RmpiError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for RmpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_accounts_for_header_and_payload() {
        let eager = Packet::Eager {
            tag: 0,
            data: Payload::copy_from_slice(&[0u8; 100]),
        };
        assert_eq!(eager.wire_bytes(), HEADER_BYTES + 100);
        let rts = Packet::Rts {
            tag: 0,
            len: 1 << 20,
            send_id: 1,
        };
        assert_eq!(rts.wire_bytes(), HEADER_BYTES);
        let cts = Packet::Cts {
            send_id: 1,
            recv_id: 2,
        };
        assert_eq!(cts.wire_bytes(), HEADER_BYTES);
        let chunk = Packet::RdvChunk {
            recv_id: 2,
            offset: 1 << 16,
            data: Payload::copy_from_slice(&vec![0u8; 1 << 16]),
        };
        assert_eq!(chunk.wire_bytes(), HEADER_BYTES + (1 << 16));
        let credit = Packet::RdvCredit {
            send_id: 1,
            chunks: 3,
        };
        assert_eq!(credit.wire_bytes(), HEADER_BYTES);
    }

    #[test]
    fn errors_format_usefully() {
        let msgs = [
            RmpiError::InvalidRank(7).to_string(),
            RmpiError::Disconnected.to_string(),
            RmpiError::Stalled("recv").to_string(),
            RmpiError::InvalidArgument("bad".into()).to_string(),
            RmpiError::UnknownRequest.to_string(),
            RmpiError::CollectiveMismatch {
                in_progress: "barrier",
                requested: "broadcast",
            }
            .to_string(),
            RmpiError::StashOverflow { cap: 6 }.to_string(),
            RmpiError::Internal("x".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
