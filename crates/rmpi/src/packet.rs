//! Wire-level packet types, status, and error definitions, plus the
//! deterministic exchange-frame header used by layered collective engines.

use std::fmt;

use dcgn_netsim::Payload;

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
/// for a message of at most one chunk (see the `comm` module docs).
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
        /// Sender-side identifier for this transfer.
        send_id: u64,
    },
    /// Clear-to-send from the receiver, releasing the payload transfer.
    Cts {
        /// Identifier from the matching [`Packet::Rts`].
        send_id: u64,
    },
    /// One chunk of a streamed rendezvous transfer.  The data is a zero-copy
    /// view into the sender's staged payload.  Chunks must arrive in offset
    /// order (the fabric's per-sender FIFO): the receiver appends them, and
    /// `offset` is the check that nothing was duplicated, lost or reordered
    /// — a chunk whose offset is not the bytes received so far fails the
    /// transfer.
    RdvChunk {
        /// Identifier from the matching [`Packet::Rts`].
        send_id: u64,
        /// Byte offset of this chunk within the full message.
        offset: usize,
        /// Chunk bytes (a view of the staged buffer — no per-chunk copy).
        data: Payload,
    },
    /// Receiver-side credit returning window slots to the sender of a
    /// streamed transfer: `chunks` more chunks may be put in flight.
    RdvCredit {
        /// Identifier from the matching [`Packet::Rts`].
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
// Exchange-frame identity.
// ---------------------------------------------------------------------------

/// Deterministic identity of one phase of a layered collective exchange,
/// carried **inside** every exchange frame (see [`frame_exchange`]).
///
/// Layers above the substrate (DCGN's communicator engine) run collectives
/// over subsets of the world using point-to-point traffic, with several
/// exchanges concurrently in flight between the same pair of ranks.  An
/// earlier design told those exchanges apart by hashing this identity into a
/// 30-bit message *tag*, which separated concurrent exchanges only
/// probabilistically.  Carrying the full identity in the frame (and keying
/// the receiver's demultiplexer on it) makes the separation exact: a frame
/// can only ever be folded into the exchange it names, and disagreement
/// between peers surfaces as a clean collective-mismatch error instead of a
/// silent cross-talk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExchangeId {
    /// Registration epoch of the communicator on its member nodes (0 for the
    /// world; split products derive theirs deterministically from the
    /// parent's).  Guards against a recycled communicator id ever matching a
    /// stale frame.
    pub comm_epoch: u32,
    /// Raw communicator id the exchange runs over.
    pub comm: u64,
    /// The communicator's collective sequence number.
    pub seq: u64,
    /// Protocol phase (e.g. contribution vs result leg of a star exchange).
    pub phase: u32,
}

/// Bytes of the exchange-frame header:
/// `[comm_epoch u32][comm u64][seq u64][phase u32][status u8][pad u8 × 3]`.
pub const EXCHANGE_HEADER_BYTES: usize = 28;

// ---------------------------------------------------------------------------
// Exchange phases.  The phase field of an [`ExchangeId`] names which leg of
// a collective schedule a frame belongs to.  Star and tree plans use only
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

/// Frame an exchange payload: the full [`ExchangeId`] plus a one-byte status
/// code, followed by the body.
pub fn frame_exchange(id: ExchangeId, status: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(EXCHANGE_HEADER_BYTES + body.len());
    out.extend_from_slice(&id.comm_epoch.to_le_bytes());
    out.extend_from_slice(&id.comm.to_le_bytes());
    out.extend_from_slice(&id.seq.to_le_bytes());
    out.extend_from_slice(&id.phase.to_le_bytes());
    out.push(status);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(body);
    out
}

/// Parse an exchange frame's header, returning its identity and status code.
/// The body is the remainder of the frame
/// (`frame[EXCHANGE_HEADER_BYTES..]`), left to the caller so it can be
/// sliced zero-copy out of a pooled buffer.
pub fn parse_exchange_header(frame: &[u8]) -> crate::Result<(ExchangeId, u8)> {
    if frame.len() < EXCHANGE_HEADER_BYTES {
        return Err(RmpiError::InvalidArgument(format!(
            "short exchange frame: {} bytes",
            frame.len()
        )));
    }
    let u32_at = |off: usize| u32::from_le_bytes(frame[off..off + 4].try_into().expect("4 bytes"));
    let u64_at = |off: usize| u64::from_le_bytes(frame[off..off + 8].try_into().expect("8 bytes"));
    Ok((
        ExchangeId {
            comm_epoch: u32_at(0),
            comm: u64_at(4),
            seq: u64_at(12),
            phase: u32_at(20),
        },
        frame[24],
    ))
}

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
        let cts = Packet::Cts { send_id: 1 };
        assert_eq!(cts.wire_bytes(), HEADER_BYTES);
        let chunk = Packet::RdvChunk {
            send_id: 1,
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
    fn exchange_frames_roundtrip_identity_status_and_body() {
        let id = ExchangeId {
            comm_epoch: 7,
            comm: u64::MAX - 3,
            seq: 99,
            phase: 1,
        };
        let frame = frame_exchange(id, 2, &[0xAB, 0xCD]);
        assert_eq!(frame.len(), EXCHANGE_HEADER_BYTES + 2);
        let (got, status) = parse_exchange_header(&frame).unwrap();
        assert_eq!(got, id);
        assert_eq!(status, 2);
        assert_eq!(&frame[EXCHANGE_HEADER_BYTES..], &[0xAB, 0xCD]);
        // Every identity field is distinguishing — no hashing, no collisions.
        for other in [
            ExchangeId {
                comm_epoch: 8,
                ..id
            },
            ExchangeId { comm: 1, ..id },
            ExchangeId { seq: 100, ..id },
            ExchangeId { phase: 0, ..id },
        ] {
            assert_ne!(
                parse_exchange_header(&frame_exchange(other, 2, &[]))
                    .unwrap()
                    .0,
                id
            );
        }
        assert!(parse_exchange_header(&[0u8; EXCHANGE_HEADER_BYTES - 1]).is_err());
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
            RmpiError::Internal("x".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
