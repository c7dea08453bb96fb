//! Internal request/reply plumbing between kernel threads and the
//! communication thread, and the wire format of DCGN point-to-point messages
//! exchanged between nodes.
//!
//! All variable-size bodies travel as pooled [`Payload`]s: layer hops move a
//! reference instead of memcpy'ing a fresh `Vec`, and the point-to-point
//! framing (`frame_p2p`/`decode_p2p`) appends its envelope *behind* the
//! body, so the body bytes are written once, never move on their way to the
//! wire, and sit at offset 0 of the allocation the receiver hands out.
//!
//! A wire frame is one or more such `[body][envelope]` records laid end to
//! end (a crossing's eager sends to one node).  The envelope's last word is
//! its body's length, so the decoder walks the records back to front.

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

// Envelope appended to every inter-node point-to-point body:
// `[body][src u32][dst u32][tag u32][body length u32]`.  The pool sizes its
// classes for exactly this trailer, so framing a send appends in place
// instead of copying the body.
const _: () = assert!(ENVELOPE_BYTES == 4 * std::mem::size_of::<u32>());

/// One decoded point-to-point record: `(src, dst, tag, body)`.
pub(crate) type P2pRecord = (usize, usize, u32, Payload);

/// Frame a DCGN point-to-point payload as one record for transport through
/// the node-level MPI substrate.  Consumes the payload; a pooled stage (the
/// normal case) is not copied, and the returned frame is the same
/// allocation with the body still at its start.
pub(crate) fn frame_p2p(src: usize, dst: usize, tag: u32, payload: Payload) -> Payload {
    let mut envelope = [0u8; ENVELOPE_BYTES];
    let words = [src as u32, dst as u32, tag, payload.len() as u32];
    for (field, word) in envelope.chunks_exact_mut(4).zip(words) {
        field.copy_from_slice(&word.to_le_bytes());
    }
    payload.into_framed(&envelope)
}

/// Decode an inter-node DCGN point-to-point frame — records end to end —
/// back to front, and append its records to `records` in send order.  Each
/// body is a zero-copy view of the frame; a one-record frame's body is its
/// first bytes and the only reference to it once `wire` is consumed here —
/// so a CPU receiver's [`Payload::into_vec`] takes the allocation instead of
/// copying out of it.
pub(crate) fn decode_p2p(wire: Payload, records: &mut Vec<P2pRecord>) -> Result<(), DcgnError> {
    let (first, mut end) = (records.len(), wire.len());
    let malformed = || DcgnError::Internal(format!("malformed p2p frame of {} bytes", wire.len()));
    // One record at least, then records until the frame's start.
    while end > 0 || records.len() == first {
        let body_end = end.checked_sub(ENVELOPE_BYTES).ok_or_else(malformed)?;
        let [src, dst, tag, len] = std::array::from_fn(|i| {
            let at = body_end + 4 * i;
            u32::from_le_bytes(wire.as_slice()[at..at + 4].try_into().expect("4 bytes"))
        });
        let start = body_end.checked_sub(len as usize).ok_or_else(malformed)?;
        records.push((src as usize, dst as usize, tag, wire.slice(start..body_end)));
        end = start;
    }
    records[first..].reverse();
    Ok(())
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

    /// Every record of `wire`, in send order.
    fn decode(wire: Payload) -> Result<Vec<P2pRecord>, DcgnError> {
        let mut records = Vec::new();
        decode_p2p(wire, &mut records).map(|()| records)
    }

    #[test]
    fn p2p_roundtrip() {
        let payload: Vec<u8> = (0..100u8).collect();
        let wire = frame_p2p(3, 11, 42, Payload::copy_from_slice(&payload));
        assert_eq!(wire.len(), 100 + ENVELOPE_BYTES);
        // The envelope trails the body on the wire; its last word is the
        // body's length.
        assert_eq!(&wire.as_slice()[..100], &payload[..]);
        assert_eq!(&wire.as_slice()[100..104], &3u32.to_le_bytes());
        assert_eq!(&wire.as_slice()[112..], &100u32.to_le_bytes());
        let [(src, dst, tag, data)] = &decode(wire).unwrap()[..] else {
            panic!("a one-record frame decodes to one record");
        };
        assert_eq!((*src, *dst, *tag), (3, 11, 42));
        assert_eq!(data, &payload);
    }

    #[test]
    fn records_laid_end_to_end_decode_in_send_order() {
        let bodies: [&[u8]; 4] = [b"first", b"", &[7; 300], b"last"];
        let mut batch = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let wire = frame_p2p(i, 10 + i, 20 + i as u32, Payload::copy_from_slice(body));
            batch.extend_from_slice(wire.as_slice());
        }
        let records = decode(Payload::from_vec(batch)).unwrap();
        assert_eq!(records.len(), bodies.len());
        for (i, ((src, dst, tag, data), body)) in records.iter().zip(bodies).enumerate() {
            assert_eq!((*src, *dst, *tag), (i, 10 + i, 20 + i as u32));
            assert_eq!(data, &body);
        }
        // Appending keeps what the vector already held.
        let mut records = records;
        decode_p2p(frame_p2p(9, 9, 9, Payload::empty()), &mut records).unwrap();
        assert_eq!((records.len(), records[0].0, records[4].0), (5, 0, 9));
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
        let (_, _, _, body) = decode(wire).unwrap().pop().unwrap();
        assert_eq!(body.as_slice().as_ptr(), staged);
        let delivered = body.into_vec();
        assert_eq!(delivered.as_ptr(), staged);
        assert_eq!(delivered, vec![0xCD; 64]);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let wire = frame_p2p(0, 1, 0, Payload::empty());
        let [(src, dst, tag, data)] = &decode(wire).unwrap()[..] else {
            panic!("one record");
        };
        assert_eq!((*src, *dst, *tag), (0, 1, 0));
        assert!(data.is_empty());
    }

    #[test]
    fn short_frame_is_rejected() {
        assert!(decode(Payload::copy_from_slice(&[0u8; 8])).is_err());
        assert!(decode(Payload::empty()).is_err());
        // A record ahead of the last one that is too short for an envelope.
        let mut wire = vec![0u8; 8];
        wire.extend_from_slice(frame_p2p(0, 1, 2, Payload::empty()).as_slice());
        assert!(decode(Payload::from_vec(wire)).is_err());
    }

    #[test]
    fn a_length_word_past_the_frame_start_is_an_internal_error() {
        let mut wire = frame_p2p(0, 1, 2, Payload::copy_from_slice(&[1; 10])).to_vec();
        let last = wire.len() - 4;
        wire[last..].copy_from_slice(&11u32.to_le_bytes());
        assert!(matches!(
            decode(Payload::from_vec(wire)),
            Err(DcgnError::Internal(_))
        ));
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
