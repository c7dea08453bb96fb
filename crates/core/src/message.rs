//! Internal request/reply plumbing between kernel threads and the
//! communication thread, and the wire format of DCGN point-to-point messages
//! exchanged between nodes.
//!
//! All variable-size bodies travel as pooled [`Payload`]s: layer hops move a
//! reference instead of memcpy'ing a fresh `Vec`, and the point-to-point
//! framing (`frame_p2p`/`decode_p2p`) appends its envelope *behind* the
//! body, so the body bytes are written once, never move on their way to the
//! wire, and sit at offset 0 of the allocation the receiver hands out.

use dcgn_rmpi::{ReduceDtype, ReduceOp};

use dcgn_netsim::buffer::ENVELOPE_BYTES;
use dcgn_netsim::Payload;
use dcgn_simtime::channel::Drained;
use dcgn_simtime::{channel, Clock, Deadline, Receiver, Sender};

use crate::error::DcgnError;
use crate::group::CommId;

/// Completion information returned by DCGN receives (the analogue of the
/// paper's `dcgn::CommStatus`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommStatus {
    /// DCGN rank the message came from.
    pub source: usize,
    /// Tag the message was sent with (0 for the untagged API).
    pub tag: u32,
    /// Payload size in bytes.
    pub len: usize,
}

/// Per-rank outcome of a collective operation, produced by the comm thread's
/// generic collective engine and scattered back to every joined rank.
/// Payload-carrying results are cheap to clone (shared buffers), so
/// scattering one result to N local ranks no longer copies it N times.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CollectiveResult {
    /// No payload for this rank (barrier; non-root ranks of rooted
    /// collectives).
    Unit,
    /// A flat payload: the root's bytes (broadcast), this rank's chunk
    /// (scatter) or the reduced vector (reduce at root / allreduce).
    Bytes(Payload),
    /// Per-rank chunks indexed by global rank (gather at root, allgather).
    Chunks(Vec<Payload>),
}

/// Reply sent back to the requesting kernel thread when its communication
/// request completes.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A send has been accepted / delivered.
    SendDone,
    /// A receive completed with the given payload.
    RecvDone {
        /// Payload bytes.
        data: Payload,
        /// Completion metadata.
        status: CommStatus,
    },
    /// A collective completed; the payload is this rank's share of the
    /// result.
    CollectiveDone(CollectiveResult),
    /// The request failed.
    Error(DcgnError),
}

/// The kinds of communication request a kernel (CPU or GPU slot) can issue.
///
/// Every collective carries the [`CommId`] of the communicator it runs over;
/// `root` arguments and the indexing of chunked results are expressed in
/// that communicator's sub-rank space (which coincides with global DCGN
/// ranks for [`CommId::WORLD`]).
#[derive(Debug)]
pub(crate) enum RequestKind {
    /// Point-to-point send.
    Send { dst: usize, tag: u32, data: Payload },
    /// Point-to-point receive.  `None` filters are wildcards: any source
    /// and/or any tag (the GPU mailbox's `ANY_TAG` decodes to `tag: None`).
    Recv {
        src: Option<usize>,
        tag: Option<u32>,
    },
    /// Barrier across the communicator's ranks.
    Barrier { comm: CommId },
    /// Broadcast from sub-rank `root`; `data` is `Some` only at the root.
    Broadcast {
        comm: CommId,
        root: usize,
        data: Option<Payload>,
    },
    /// Gather to sub-rank `root`; every rank contributes `data`.
    Gather {
        comm: CommId,
        root: usize,
        data: Payload,
    },
    /// Scatter from sub-rank `root`; `chunks` is `Some` (one chunk per
    /// member, in sub-rank order) only at the root.  Every rank receives its
    /// own chunk.
    Scatter {
        comm: CommId,
        root: usize,
        chunks: Option<Vec<Payload>>,
    },
    /// Allgather: every rank contributes `data` and receives every member's
    /// contribution indexed by sub-rank.
    Allgather { comm: CommId, data: Payload },
    /// Element-wise reduction of typed vectors (little-endian `dtype`
    /// elements) to sub-rank `root`.
    Reduce {
        comm: CommId,
        root: usize,
        data: Payload,
        op: ReduceOp,
        dtype: ReduceDtype,
    },
    /// Element-wise reduction delivered to every rank.
    Allreduce {
        comm: CommId,
        data: Payload,
        op: ReduceOp,
        dtype: ReduceDtype,
    },
    /// Collectively split the communicator into color classes ordered by
    /// `(key, parent sub-rank)` — the `MPI_Comm_split` analogue.  The reply
    /// carries the joining rank's encoded [`crate::group::Comm`].
    Split { comm: CommId, color: u32, key: u32 },
    /// Release this rank's handle on a communicator.  Once every local
    /// member has freed it, the comm thread evicts the group from its
    /// registry, so split-heavy programs stop growing the table.
    CommFree { comm: CommId },
}

impl RequestKind {
    /// Short name used in collective-mismatch diagnostics.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            RequestKind::Send { .. } => "send",
            RequestKind::Recv { .. } => "recv",
            RequestKind::Barrier { .. } => "barrier",
            RequestKind::Broadcast { .. } => "broadcast",
            RequestKind::Gather { .. } => "gather",
            RequestKind::Scatter { .. } => "scatter",
            RequestKind::Allgather { .. } => "allgather",
            RequestKind::Reduce { .. } => "reduce",
            RequestKind::Allreduce { .. } => "allreduce",
            RequestKind::Split { .. } => "comm_split",
            RequestKind::CommFree { .. } => "comm_free",
        }
    }

    /// True for collective requests (which must be joined by every rank on
    /// the node before the node-level operation runs).  `comm_free` releases
    /// a handle without a node-level exchange, so it is not one.
    pub(crate) fn is_collective(&self) -> bool {
        !matches!(
            self,
            RequestKind::Send { .. } | RequestKind::Recv { .. } | RequestKind::CommFree { .. }
        )
    }
}

/// A communication request relayed to the node's communication thread.
#[derive(Debug)]
pub(crate) struct Request {
    /// DCGN rank issuing the request.
    pub src_rank: usize,
    /// What is being requested.
    pub kind: RequestKind,
    /// Where to deliver the completion.
    pub reply_to: ReplyTo,
}

/// Commands accepted by the communication thread's work queue.
#[derive(Debug)]
pub(crate) enum CommCommand {
    /// A communication request from a local kernel.
    Request(Request),
    /// Every request a GPU-kernel thread harvested in one polling sweep,
    /// relayed together: the sweep's requests cross the work queue as one
    /// item, so the harvest pays a single queue hop for all of them.
    Batch(Vec<Request>),
    /// Wake the comm thread's idle wait (sent by the fabric's delivery
    /// notifier when an inter-node message lands); carries no work itself.
    Wake,
    /// All kernel threads of this process have finished; drain and shut down.
    LocalKernelsDone,
}

/// What a requester files a request under: the CPU request table's
/// `(index, generation)`, the GPU mailbox's `(slot, record)`.
pub(crate) type Token = (u32, u32);

/// A kernel thread's completion inbox — one per requester ([`crate::CpuCtx`],
/// the GPU-kernel thread) for its lifetime.  Every reply to every request it
/// issues lands here, tagged with the token the request was filed under.
pub(crate) struct Inbox {
    tx: Sender<(Token, Reply)>,
    rx: Receiver<(Token, Reply)>,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        let (tx, rx) = channel();
        Inbox { tx, rx }
    }

    /// The reply address of a request filed under `token`.
    pub(crate) fn reply_to(&self, token: Token) -> ReplyTo {
        ReplyTo {
            inbox: Some(self.tx.clone()),
            token,
        }
    }

    /// One crossing of this inbox ([`Receiver::drain`]): `None` when no
    /// reply arrived by `deadline`.
    pub(crate) fn drain(
        &self,
        clock: &Clock,
        deadline: Deadline,
        file: impl FnMut((Token, Reply)) -> bool,
    ) -> Option<Drained> {
        self.rx.drain(clock, deadline, file)
    }
}

/// Where a request's reply goes, and the obligation to send one: every
/// request is answered exactly once.  [`ReplyTo::complete`] consumes the
/// address; one dropped un-completed — a request still queued, pending in the
/// matcher or joined to a collective when its comm thread goes away — answers
/// [`DcgnError::ShuttingDown`], so the requester is never left waiting.
#[derive(Debug)]
pub(crate) struct ReplyTo {
    /// `None` once the reply has been sent.
    inbox: Option<Sender<(Token, Reply)>>,
    token: Token,
}

impl ReplyTo {
    /// Hand `reply` to the requesting kernel thread — the only function that
    /// does.  Never blocks (inboxes are unbounded); a requester that is
    /// already gone is not an error.
    pub(crate) fn complete(mut self, reply: Reply) {
        if let Some(inbox) = self.inbox.take() {
            let _ = inbox.send((self.token, reply));
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(inbox) = self.inbox.take() {
            let unanswered = ReplyTo {
                inbox: Some(inbox),
                token: self.token,
            };
            unanswered.complete(Reply::Error(DcgnError::ShuttingDown));
        }
    }
}

// ---------------------------------------------------------------------------
// Wire format of inter-node DCGN point-to-point messages.
// ---------------------------------------------------------------------------

// Envelope appended to every inter-node point-to-point payload:
// `[body][src u32][dst u32][tag u32][reserved u32]`.  The pool sizes its
// classes for exactly this trailer, so framing a send appends in place
// instead of copying the body.
const _: () = assert!(ENVELOPE_BYTES == 4 * std::mem::size_of::<u32>());

/// Frame a DCGN point-to-point payload for transport through the node-level
/// MPI substrate.  Consumes the payload; a pooled stage (the normal case)
/// is not copied, and the returned frame is the same allocation with the
/// body still at its start.
pub(crate) fn frame_p2p(src: usize, dst: usize, tag: u32, payload: Payload) -> Payload {
    let mut envelope = [0u8; ENVELOPE_BYTES];
    envelope[0..4].copy_from_slice(&(src as u32).to_le_bytes());
    envelope[4..8].copy_from_slice(&(dst as u32).to_le_bytes());
    envelope[8..12].copy_from_slice(&tag.to_le_bytes());
    payload.into_framed(&envelope)
}

/// Decode an inter-node DCGN point-to-point frame.  The returned body is a
/// zero-copy view of the wire buffer's first bytes, and the only reference
/// to it once `wire` is consumed here — so a CPU receiver's
/// [`Payload::into_vec`] takes the allocation instead of copying out of it.
pub(crate) fn decode_p2p(wire: Payload) -> Result<(usize, usize, u32, Payload), DcgnError> {
    let Some(body_len) = wire.len().checked_sub(ENVELOPE_BYTES) else {
        return Err(DcgnError::Internal(format!(
            "short point-to-point frame: {} bytes",
            wire.len()
        )));
    };
    let envelope = &wire.as_slice()[body_len..];
    let src = u32::from_le_bytes(envelope[0..4].try_into().expect("4 bytes")) as usize;
    let dst = u32::from_le_bytes(envelope[4..8].try_into().expect("4 bytes")) as usize;
    let tag = u32::from_le_bytes(envelope[8..12].try_into().expect("4 bytes"));
    Ok((src, dst, tag, wire.slice(0..body_len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcgn_simtime::CostModel;
    use std::time::Duration;

    /// Every reply `inbox` holds, taken in one crossing that does not wait.
    fn replies(inbox: &Inbox) -> Vec<(Token, Reply)> {
        let clock = Clock::from(CostModel::zero());
        let mut replies = Vec::new();
        inbox.drain(&clock, clock.deadline(Duration::ZERO), |reply| {
            replies.push(reply);
            true
        });
        replies
    }

    #[test]
    fn a_completed_reply_to_delivers_exactly_its_reply() {
        let inbox = Inbox::new();
        inbox.reply_to((3, 9)).complete(Reply::SendDone);
        assert!(matches!(replies(&inbox)[..], [((3, 9), Reply::SendDone)]));
    }

    #[test]
    fn a_dropped_reply_to_answers_shutting_down_exactly_once() {
        let inbox = Inbox::new();
        drop(inbox.reply_to((1, 2)));
        // Also from inside a command nobody reads.
        drop(CommCommand::Batch(vec![Request {
            src_rank: 0,
            kind: RequestKind::Recv {
                src: None,
                tag: None,
            },
            reply_to: inbox.reply_to((5, 6)),
        }]));
        assert!(matches!(
            replies(&inbox)[..],
            [
                ((1, 2), Reply::Error(DcgnError::ShuttingDown)),
                ((5, 6), Reply::Error(DcgnError::ShuttingDown))
            ]
        ));
    }

    #[test]
    fn completing_into_an_inbox_whose_owner_is_gone_neither_panics_nor_blocks() {
        let inbox = Inbox::new();
        let (completed, dropped) = (inbox.reply_to((0, 1)), inbox.reply_to((0, 2)));
        drop(inbox);
        completed.complete(Reply::SendDone);
        drop(dropped);
    }

    #[test]
    fn p2p_roundtrip() {
        let payload: Vec<u8> = (0..100u8).collect();
        let wire = frame_p2p(3, 11, 42, Payload::copy_from_slice(&payload));
        assert_eq!(wire.len(), 100 + ENVELOPE_BYTES);
        // The envelope trails the body on the wire.
        assert_eq!(&wire.as_slice()[..100], &payload[..]);
        assert_eq!(&wire.as_slice()[100..104], &3u32.to_le_bytes());
        let (src, dst, tag, data) = decode_p2p(wire).unwrap();
        assert_eq!((src, dst, tag), (3, 11, 42));
        assert_eq!(data, payload);
    }

    #[test]
    fn framing_and_decoding_never_move_the_body() {
        let payload = Payload::copy_from_slice(&[0xCD; 64]);
        let staged = payload.as_slice().as_ptr();
        let wire = frame_p2p(1, 2, 3, payload);
        assert_eq!(wire.as_slice().as_ptr(), staged);
        // Decoding hands back a view of the same allocation, and — being
        // its only reference, at offset 0 — the receiver's `Vec` *is* the
        // sender's staged buffer.
        let (_, _, _, body) = decode_p2p(wire).unwrap();
        assert_eq!(body.as_slice().as_ptr(), staged);
        let delivered = body.into_vec();
        assert_eq!(delivered.as_ptr(), staged);
        assert_eq!(delivered, vec![0xCD; 64]);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let wire = frame_p2p(0, 1, 0, Payload::empty());
        let (src, dst, tag, data) = decode_p2p(wire).unwrap();
        assert_eq!((src, dst, tag), (0, 1, 0));
        assert!(data.is_empty());
    }

    #[test]
    fn short_frame_is_rejected() {
        assert!(decode_p2p(Payload::copy_from_slice(&[0u8; 8])).is_err());
    }

    #[test]
    fn request_kind_names_and_collective_flag() {
        assert_eq!(
            RequestKind::Send {
                dst: 0,
                tag: 0,
                data: Payload::empty(),
            }
            .name(),
            "send"
        );
        assert!(!RequestKind::Recv {
            src: None,
            tag: None
        }
        .is_collective());
        let world = CommId::WORLD;
        assert!(!RequestKind::CommFree { comm: world }.is_collective());
        assert_eq!(RequestKind::CommFree { comm: world }.name(), "comm_free");
        let collectives = [
            (RequestKind::Barrier { comm: world }, "barrier"),
            (
                RequestKind::Broadcast {
                    comm: world,
                    root: 0,
                    data: None,
                },
                "broadcast",
            ),
            (
                RequestKind::Gather {
                    comm: world,
                    root: 0,
                    data: Payload::empty(),
                },
                "gather",
            ),
            (
                RequestKind::Scatter {
                    comm: world,
                    root: 0,
                    chunks: None,
                },
                "scatter",
            ),
            (
                RequestKind::Allgather {
                    comm: world,
                    data: Payload::empty(),
                },
                "allgather",
            ),
            (
                RequestKind::Reduce {
                    comm: world,
                    root: 0,
                    data: Payload::empty(),
                    op: ReduceOp::Sum,
                    dtype: ReduceDtype::F64,
                },
                "reduce",
            ),
            (
                RequestKind::Allreduce {
                    comm: world,
                    data: Payload::empty(),
                    op: ReduceOp::Max,
                    dtype: ReduceDtype::U32,
                },
                "allreduce",
            ),
            (
                RequestKind::Split {
                    comm: world,
                    color: 0,
                    key: 0,
                },
                "comm_split",
            ),
        ];
        for (kind, name) in collectives {
            assert!(kind.is_collective(), "{name} must be a collective");
            assert_eq!(kind.name(), name);
        }
    }
}
