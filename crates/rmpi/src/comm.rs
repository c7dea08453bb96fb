//! The communicator and its single-threaded progress engine.
//!
//! # Large-message pipeline
//!
//! Messages above the eager threshold rendezvous with an RTS→CTS handshake
//! and then *stream*: the sender cuts the staged buffer into fixed-size
//! [`Packet::RdvChunk`] frames — each a pooled view into the same
//! allocation, no per-chunk copy, the last one absorbing a tail of at most
//! an envelope, the whole payload one chunk when chunking is disabled — and
//! keeps at most `window` of them in flight.  A payload of at most one chunk
//! is a one-chunk stream: RTS, CTS and one data frame, with no credit.  The
//! receiver owns no buffer of its own: it *coalesces* the chunk views back
//! into one ([`Payload::append`] grows a view over the slice that directly
//! follows it), so the payload it completes with is the sender's staged
//! allocation.  The fabric delivers one sender's frames in order, so each
//! chunk's carried offset must equal the bytes assembled so far, and a
//! duplicate, a gap or an overrun poisons the transfer instead of
//! delivering a corrupt message.  The sender lets go of the staged buffer
//! before its last chunk leaves, so the receiver ends up its only owner.
//! Between nodes, each chunk passes the fabric's receive-drain stage as it
//! lands, and that drain is the payload's only receive-side movement: the
//! receive hands the assembled buffer over whole, and its
//! [`Status::drained`] says so, so the layer above owes no copy of its own.
//! It returns
//! [`Packet::RdvCredit`] frames, each coalescing half a window's worth of
//! drained chunks ([`RdvConfig::credit_batch`]); every credited chunk opens
//! one window slot, so a slow receiver bounds the sender's in-flight frame
//! memory instead of the fabric queue absorbing the whole message.
//!
//! ```text
//! sender                          receiver
//!   | -- Rts{len, send_id} ------->  |   (posted recv matches,
//!   | <---- Cts{send_id, recv_id} -- |    allocates nothing)
//!   | -- RdvChunk{off=0}  --------->  |   ┐ up to `window`
//!   | -- RdvChunk{off=C}  --------->  |   ┘ chunks in flight
//!   | <-- RdvCredit{window/2} ------ |   (per half window drained)
//!   | -- RdvChunk{off=2C} --------->  |   …until all chunks are sent
//! ```
//!
//! A request has one id, its key in the communicator's table of ops, and
//! every rendezvous frame names the op it advances in the table of the rank
//! that receives it: the RTS and each credit carry the sender's id, the CTS
//! both, each chunk the receiver's.  Ids are never reused, so any number of
//! transfers — including several between the same rank pair — interleave
//! without cross-talk.  A frame is taken only from the op's peer and only in
//! the state that expects it; any other (a credit arriving late for a
//! finished transfer, a chunk for a tombstoned receive) is dropped.  A
//! failed mid-stream send tombstones the operation
//! (`SendState::Failed`/`RecvState::Failed`): the error surfaces from
//! the wait call, in-flight accounting is released, and no window slots or
//! pooled frames leak.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dcgn_netsim::{Delivery, Endpoint, EndpointId, Payload};
use dcgn_simtime::Stamp;

use crate::exchange::{Driver, Layout};
use crate::matcher::{Accepts, Matcher};
use crate::packet::{Packet, RmpiError, Status};
use crate::rdv::RdvConfig;
use crate::Result;

/// First tag value reserved for internal (collective) traffic.  User tags
/// must stay below this value; `ANY_TAG` receives never match internal tags.
pub const TAG_INTERNAL_BASE: u32 = 0x8000_0000;

/// The single tag carried by every frame of a layered collective exchange.
///
/// DCGN's engine runs many exchanges concurrently between the same pair of
/// ranks.  They are told apart not by tag but by the header every frame
/// carries, `(comm_epoch, comm_id, seq, phase)`, which the receiver's
/// [`crate::exchange::Driver`] demultiplexes on.  The tag only keeps
/// exchange traffic away from user receives (it sits above
/// [`TAG_INTERNAL_BASE`], so `ANY_TAG` can never steal it) and from this
/// crate's own collectives, which run under their own internal tag.
pub const TAG_EXCHANGE: u32 = TAG_INTERNAL_BASE | 0x4000_0000;

/// The single tag carried by every frame of this crate's own collectives
/// ([`Communicator::barrier`] and friends), framed like layered exchange
/// frames but under their own tag: DCGN's comm thread keeps a [`TAG_EXCHANGE`]
/// receive posted on the communicator whose shutdown barrier runs under this
/// one.  Internal, so `ANY_TAG` never matches it either.
pub(crate) const TAG_COLLECTIVE: u32 = TAG_INTERNAL_BASE;

/// Handle to a nonblocking operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(u64);

enum SendState {
    /// The RTS left; the staged payload waits for the receiver's CTS.
    WaitingCts {
        data: Payload,
    },
    /// Credit-windowed chunk stream in progress.
    Streaming {
        /// The receiver's id of the receive, from its CTS.
        recv_id: u64,
        /// The staged payload; chunks are zero-copy views into it.  Emptied
        /// before the last chunk leaves.
        data: Payload,
        /// Next byte offset to cut a chunk at.
        next_offset: usize,
        /// Window slots currently available to put chunks in flight.
        credits: usize,
        /// Chunks sent so far.
        sent: usize,
        /// Chunks the receiver has credited back.
        acked: usize,
    },
    Complete,
    /// Tombstone: the transfer failed mid-protocol (peer gone).  The error
    /// surfaces from the wait call; the slot no longer holds payload or
    /// window accounting.
    Failed(RmpiError),
}

struct SendOp {
    dst: usize,
    state: SendState,
}

enum RecvState {
    Posted,
    /// Rendezvous accepted: chunk views are coalesced, in offset order,
    /// into one growing view of the sender's staged allocation
    /// (`assembled.len()` is the bytes received).
    Assembling {
        /// The sender's id of the send, from its RTS.
        send_id: u64,
        src: usize,
        tag: u32,
        assembled: Payload,
        /// Drained chunks not yet credited back — flushed as one
        /// `RdvCredit` every [`RdvConfig::credit_batch`] chunks.
        pending_credits: usize,
        /// The transfer's length in bytes.
        total: usize,
        /// When the CTS left, for the transfer's throughput sample.
        started: Stamp,
    },
    Complete {
        data: Payload,
        status: Status,
    },
    /// Tombstone mirror of [`SendState::Failed`].
    Failed(RmpiError),
}

enum Op {
    Send(SendOp),
    Recv(RecvState),
}

enum UnexpectedKind {
    Eager(Payload),
    Rts { send_id: u64, len: usize },
}

/// A message (or a rendezvous announcement) no posted receive took yet.
struct Unexpected {
    src: usize,
    tag: u32,
    kind: UnexpectedKind,
    /// The frame's landing, when it came from another node.
    landed: Option<Stamp>,
}

/// A receive posted by op `id`, waiting in the [`Matcher`] for a message.
/// `None` filters are wildcards.
struct PostedRecv {
    id: u64,
    src: Option<usize>,
    tag: Option<u32>,
}

impl Accepts<Unexpected> for PostedRecv {
    fn accepts(&self, msg: &Unexpected) -> bool {
        // ANY_TAG never matches internal (collective) tags.
        let tag_ok = match self.tag {
            Some(t) => t == msg.tag,
            None => msg.tag < TAG_INTERNAL_BASE,
        };
        self.src.is_none_or(|s| s == msg.src) && tag_ok
    }
}

/// An MPI-style communicator bound to one rank of the world.
///
/// A communicator must be driven from a single thread; every call into it
/// (including nonblocking ones) advances the internal progress engine for all
/// outstanding operations.
pub struct Communicator {
    rank: usize,
    pub(crate) endpoint: Endpoint<Packet>,
    rank_to_ep: Arc<Vec<EndpointId>>,
    ep_to_rank: Arc<HashMap<EndpointId, usize>>,
    rdv: RdvConfig,
    progress_timeout: Duration,
    next_req: u64,
    /// Every op by its request id, which rendezvous frames name.
    ops: HashMap<u64, Op>,
    /// Unexpected messages and receives awaiting a match.
    matcher: Matcher<Unexpected, PostedRecv>,
    /// Per destination rank: the eager packets held for the next progress
    /// call, in send order, and their payload bytes.
    held: Vec<(Vec<(u32, Payload)>, usize)>,
    /// The world as this crate's collectives lay it out: rank `r` is
    /// participant `r`.
    pub(crate) layout: Arc<Layout>,
    /// This rank's side of this crate's collectives.
    pub(crate) exchanges: Driver<()>,
    // Global `rmpi.*` instruments ([`dcgn_metrics::global`]), shared across
    // every communicator: protocol split, chunk traffic, window occupancy
    // high-water, and per-transfer throughput.
    eager_sends: dcgn_metrics::Counter,
    rdv_sends: dcgn_metrics::Counter,
    rdv_chunks: dcgn_metrics::Counter,
    rdv_inflight: dcgn_metrics::Gauge,
    rdv_rate: dcgn_metrics::Histogram,
}

impl Communicator {
    pub(crate) fn new(
        rank: usize,
        endpoint: Endpoint<Packet>,
        rank_to_ep: Arc<Vec<EndpointId>>,
        ep_to_rank: Arc<HashMap<EndpointId, usize>>,
        rdv: RdvConfig,
    ) -> Self {
        let metrics = dcgn_metrics::global();
        let size = rank_to_ep.len();
        Communicator {
            rank,
            endpoint,
            rank_to_ep,
            ep_to_rank,
            rdv,
            progress_timeout: Duration::from_secs(30),
            next_req: 0,
            ops: HashMap::new(),
            matcher: Matcher::default(),
            held: (0..size).map(|_| Default::default()).collect(),
            layout: Arc::new(Layout::new((0..size).collect())),
            exchanges: Driver::new(rank, size),
            eager_sends: metrics.counter("rmpi.eager_sends"),
            rdv_sends: metrics.counter("rmpi.rdv_sends"),
            rdv_chunks: metrics.counter("rmpi.rdv.chunks"),
            rdv_inflight: metrics.gauge("rmpi.rdv.inflight"),
            rdv_rate: metrics.histogram("rmpi.rdv.transfer_bytes_per_sec"),
        }
    }

    /// This communicator's rank in the world.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.rank_to_ep.len()
    }

    /// Node index this rank's endpoint is attached to.
    pub fn node(&self) -> usize {
        self.endpoint.node()
    }

    /// Change the stall timeout of the progress engine (default 30 s).
    /// Deadlocked communication patterns surface as
    /// [`RmpiError::Stalled`] after this long.
    pub fn set_progress_timeout(&mut self, timeout: Duration) {
        self.progress_timeout = timeout;
    }

    /// Install a delivery notifier on this rank's fabric endpoint: the
    /// callback runs (on the sender's thread) every time a message lands in
    /// this communicator's inbound queue.  Pollers that multiplex the
    /// communicator with other event sources (DCGN's comm thread and its
    /// work queue) use this to sleep until *either* source has work.
    pub fn set_wake_notifier(&self, notify: dcgn_netsim::WakeNotifier) {
        self.endpoint.set_notifier(notify);
    }

    // ------------------------------------------------------------------
    // Nonblocking API
    // ------------------------------------------------------------------

    /// Start a nonblocking send of `data` to `dst` with `tag`.  The payload
    /// is a pooled, shared buffer: handing it to the substrate moves a
    /// reference (the caller typically framed it in place), and the
    /// receiver gets views of the same allocation.
    ///
    /// An eager payload is complete from the sender's point of view at once
    /// (fire-and-forget, like an MPI buffered eager send), but leaves only at
    /// this communicator's next progress call (any `test`, wait or blocking
    /// call, or its drop), as MPI's progress rule allows: a peer waiting for
    /// it needs the sender to make that call.  The call sends what each rank
    /// holds as one frame, a lone packet as [`Packet::Eager`] and more as a
    /// [`Packet::Batch`], whose receiver matches each packet as its own
    /// message, still the sender's own buffer.  The bytes held for a rank
    /// stay within the eager threshold.  A larger payload first sends what
    /// is held for `dst`, so nothing overtakes, then announces itself with an
    /// RTS and waits, staged, for the receiver's CTS.
    pub fn isend(&mut self, dst: usize, tag: u32, data: impl Into<Payload>) -> Result<Request> {
        let data = data.into();
        if dst >= self.size() {
            return Err(RmpiError::InvalidRank(dst));
        }
        let id = self.alloc_req();
        let state = if data.len() <= self.rdv.eager_threshold {
            self.eager_sends.inc();
            if self.held[dst].1 + data.len() > self.rdv.eager_threshold {
                self.send_held(dst);
            }
            let (packets, bytes) = &mut self.held[dst];
            *bytes += data.len();
            packets.push((tag, data));
            SendState::Complete
        } else {
            self.send_held(dst);
            let dst_ep = self.ep_of(dst);
            let pkt = Packet::Rts {
                tag,
                len: data.len(),
                send_id: id,
            };
            let wire = pkt.wire_bytes();
            self.rdv_sends.inc();
            match self.endpoint.send(dst_ep, pkt, wire) {
                Ok(()) => SendState::WaitingCts { data },
                Err(_) => SendState::Failed(RmpiError::Disconnected),
            }
        };
        self.ops.insert(id, Op::Send(SendOp { dst, state }));
        Ok(Request(id))
    }

    /// Post a nonblocking receive matching `src` (or any source) and `tag`
    /// (or any tag).  It takes the earliest-arrived unexpected message it
    /// matches at once, if there is one.
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Request> {
        if let Some(s) = src {
            if s >= self.size() {
                return Err(RmpiError::InvalidRank(s));
            }
        }
        let id = self.alloc_req();
        self.ops.insert(id, Op::Recv(RecvState::Posted));
        if let Some((recv, msg)) = self.matcher.post(PostedRecv { id, src, tag }) {
            self.deliver(recv.id, msg);
        }
        Ok(Request(id))
    }

    /// When this rank next has a frame to hand out, as of `by`: `by` while
    /// a receive holds one it completed with (progress absorbs a landed
    /// frame into a matching posted receive, and no wake marks that), else
    /// the first landing of a frame queued for it ([`Endpoint::first_landing`]),
    /// or `None`.  A caller that waits on other events too (DCGN's comm
    /// thread) waits no later than this.
    pub fn pending_landing(&self, by: Stamp) -> Option<Stamp> {
        let completed = |op: &Op| {
            matches!(
                op,
                Op::Recv(RecvState::Complete { .. } | RecvState::Failed(_))
            )
        };
        if self.ops.values().any(completed) {
            return Some(by);
        }
        self.endpoint.first_landing()
    }

    /// Make one nonblocking progress pass and report whether `req` has
    /// completed.  The request stays valid until waited on.
    pub fn test(&mut self, req: Request) -> Result<bool> {
        if !self.ops.contains_key(&req.0) {
            return Err(RmpiError::UnknownRequest);
        }
        self.progress_pass()?;
        Ok(self.is_complete(req.0))
    }

    /// Wait for a send request to complete.  A transfer tombstoned
    /// mid-stream (peer gone) surfaces its error here.
    pub fn wait_send(&mut self, req: Request) -> Result<()> {
        self.progress_until(&[req.0], "send completion")?;
        match self.ops.remove(&req.0) {
            Some(Op::Send(SendOp {
                state: SendState::Failed(e),
                ..
            })) => Err(e),
            Some(Op::Send(_)) => Ok(()),
            Some(op) => {
                self.ops.insert(req.0, op);
                Err(RmpiError::UnknownRequest)
            }
            None => Err(RmpiError::UnknownRequest),
        }
    }

    /// Wait for a receive request to complete and return its payload and
    /// status.  The payload is a zero-copy view of the delivered frame.
    pub fn wait_recv(&mut self, req: Request) -> Result<(Payload, Status)> {
        self.progress_until(&[req.0], "recv completion")?;
        match self.ops.remove(&req.0) {
            Some(Op::Recv(RecvState::Complete { data, status })) => Ok((data, status)),
            Some(Op::Recv(RecvState::Failed(e))) => Err(e),
            Some(op) => {
                self.ops.insert(req.0, op);
                Err(RmpiError::UnknownRequest)
            }
            None => Err(RmpiError::UnknownRequest),
        }
    }

    /// Wait for a set of requests (sends and receives) to complete.  Receive
    /// payloads can then be collected with [`Communicator::take_recv`].
    pub fn wait_all(&mut self, reqs: &[Request]) -> Result<()> {
        let ids: Vec<u64> = reqs.iter().map(|r| r.0).collect();
        self.progress_until(&ids, "wait_all")?;
        // Surface the first tombstoned operation as the call's error, then
        // remove completed send ops eagerly; recvs stay for take_recv.
        let mut failed = None;
        for id in ids {
            let op_failed = match self.ops.get(&id) {
                Some(Op::Send(s)) => match &s.state {
                    SendState::Failed(e) => Some(e.clone()),
                    _ => None,
                },
                Some(Op::Recv(RecvState::Failed(e))) => Some(e.clone()),
                Some(Op::Recv(_)) | None => None,
            };
            if let Some(e) = op_failed {
                self.ops.remove(&id);
                failed.get_or_insert(e);
            } else if matches!(self.ops.get(&id), Some(Op::Send(_))) {
                self.ops.remove(&id);
            }
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Collect the payload of a completed receive request (after
    /// [`Communicator::wait_all`] or a successful [`Communicator::test`]).
    /// The payload is a zero-copy view of the delivered frame.
    pub fn take_recv(&mut self, req: Request) -> Option<(Payload, Status)> {
        match self.ops.get(&req.0) {
            Some(Op::Recv(RecvState::Complete { .. })) => match self.ops.remove(&req.0) {
                Some(Op::Recv(RecvState::Complete { data, status })) => Some((data, status)),
                _ => unreachable!("checked above"),
            },
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Blocking API
    // ------------------------------------------------------------------

    /// Blocking send of `data` to `dst` with `tag`.
    pub fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> Result<()> {
        let req = self.isend(dst, tag, Payload::copy_from_slice(data))?;
        self.wait_send(req)
    }

    /// Blocking receive returning the payload and status.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<(Payload, Status)> {
        let req = self.irecv(src, tag)?;
        self.wait_recv(req)
    }

    /// Combined send and receive, progressed together so the pattern cannot
    /// deadlock (the equivalent of `MPI_Sendrecv`).
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u32,
        data: &[u8],
        src: Option<usize>,
        recv_tag: Option<u32>,
    ) -> Result<(Payload, Status)> {
        let send_req = self.isend(dst, send_tag, Payload::copy_from_slice(data))?;
        let recv_req = self.irecv(src, recv_tag)?;
        self.wait_all(&[send_req, recv_req])?;
        self.take_recv(recv_req).ok_or(RmpiError::UnknownRequest)
    }

    /// In-place exchange: send the contents of `buf` to `dst` and replace it
    /// with the message received from `src` (the equivalent of
    /// `MPI_Sendrecv_replace`, which Cannon's algorithm relies on).
    pub fn sendrecv_replace(
        &mut self,
        buf: &mut Vec<u8>,
        dst: usize,
        send_tag: u32,
        src: Option<usize>,
        recv_tag: Option<u32>,
    ) -> Result<Status> {
        let (data, status) = self.sendrecv(dst, send_tag, buf, src, recv_tag)?;
        *buf = data.into_vec();
        Ok(status)
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    fn alloc_req(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn ep_of(&self, rank: usize) -> EndpointId {
        self.rank_to_ep[rank]
    }

    fn rank_of(&self, ep: EndpointId) -> usize {
        *self
            .ep_to_rank
            .get(&ep)
            .expect("delivery from endpoint outside the world")
    }

    fn is_complete(&self, id: u64) -> bool {
        match self.ops.get(&id) {
            Some(Op::Send(s)) => matches!(s.state, SendState::Complete | SendState::Failed(_)),
            Some(Op::Recv(r)) => matches!(r, RecvState::Complete { .. } | RecvState::Failed(_)),
            None => false,
        }
    }

    /// Send what is held for `dst` as one frame: a lone packet as an eager
    /// one, more as a batch, whose vector leaves with the frame for one of
    /// the same capacity, so a batch costs one allocation.  Like every eager
    /// send, fire-and-forget: a peer gone is noticed by whatever waits on it.
    fn send_held(&mut self, dst: usize) {
        let (packets, bytes) = &mut self.held[dst];
        let pkt = match packets.len() {
            0 => return,
            1 => {
                let (tag, data) = packets.pop().expect("one packet");
                Packet::Eager { tag, data }
            }
            n => Packet::Batch(std::mem::replace(packets, Vec::with_capacity(n))),
        };
        *bytes = 0;
        let wire = pkt.wire_bytes();
        let _ = self.endpoint.send(self.ep_of(dst), pkt, wire);
    }

    /// Hand a matched message to posted receive `id`: an eager payload
    /// completes it, an RTS starts its rendezvous.
    fn deliver(&mut self, id: u64, msg: Unexpected) {
        match msg.kind {
            UnexpectedKind::Eager(data) => {
                let status = Status {
                    source: msg.src,
                    tag: msg.tag,
                    len: data.len(),
                    drained: false,
                    landed: msg.landed,
                };
                if let Some(Op::Recv(r)) = self.ops.get_mut(&id) {
                    *r = RecvState::Complete { data, status };
                }
            }
            UnexpectedKind::Rts { send_id, len } => {
                self.accept_rts(id, msg.src, msg.tag, send_id, len);
            }
        }
    }

    /// A posted receive matched an RTS: stand up receiver-side state and
    /// release the sender with a CTS.
    fn accept_rts(&mut self, id: u64, src: usize, tag: u32, send_id: u64, len: usize) {
        if let Some(Op::Recv(r)) = self.ops.get_mut(&id) {
            *r = RecvState::Assembling {
                send_id,
                src,
                tag,
                assembled: Payload::empty(),
                pending_credits: 0,
                total: len,
                started: self.endpoint.fabric().clock().now(),
            };
        }
        let src_ep = self.ep_of(src);
        let pkt = Packet::Cts {
            send_id,
            recv_id: id,
        };
        let wire = pkt.wire_bytes();
        if self.endpoint.send(src_ep, pkt, wire).is_err() {
            self.fail_recv(id, RmpiError::Disconnected);
        }
    }

    /// Incorporate one delivered frame into engine state.  An eager
    /// payload or an RTS goes to the earliest-posted receive that matches
    /// it, or waits for one; so does each packet of a batch, in send order,
    /// with the frame's landing.
    fn classify(&mut self, delivery: Delivery<Packet>) {
        let (src, landed) = (self.rank_of(delivery.src), delivery.at);
        let (tag, kind) = match delivery.msg {
            Packet::Eager { tag, data } => (tag, UnexpectedKind::Eager(data)),
            Packet::Batch(packets) => {
                for (tag, data) in packets {
                    let msg = Packet::Eager { tag, data };
                    self.classify(Delivery { msg, ..delivery });
                }
                return;
            }
            Packet::Rts { tag, send_id, len } => (tag, UnexpectedKind::Rts { send_id, len }),
            Packet::Cts { send_id, recv_id } => return self.handle_cts(src, send_id, recv_id),
            Packet::RdvChunk {
                recv_id,
                offset,
                data,
            } => {
                let drained = self.drain_payload(landed, data.len());
                return self.handle_chunk(src, recv_id, offset, data, drained);
            }
            // Credits for a finished or tombstoned transfer are expected
            // stragglers, and `handle_credit` drops them.
            Packet::RdvCredit { send_id, chunks } => {
                return self.handle_credit(src, send_id, chunks)
            }
        };
        let msg = Unexpected {
            src,
            tag,
            kind,
            landed,
        };
        if let Some((recv, msg)) = self.matcher.arrive(msg) {
            self.deliver(recv.id, msg);
        }
    }

    /// Charge the receive-drain engine for a rendezvous chunk that `landed`
    /// from another node; true when it did.  This is the second stage of the
    /// fabric's bandwidth pipeline: the sender's NIC booked the wire time,
    /// and the chunk was taken once it landed; the receiver pays drain time
    /// here, from the chunk's landing or from the end of the drain before
    /// it, so a transfer of several chunks overlaps the two while a
    /// one-chunk one serialises them, and a receiver that takes the chunk
    /// late waits only for what is left of its drain.  The drain moves the
    /// chunk into the buffer the receive completes with, so it is the
    /// payload's only receive-side movement: [`Status::drained`] tells the
    /// layer above that it owes no copy of its own.
    fn drain_payload(&self, landed: Option<Stamp>, bytes: usize) -> bool {
        let landed = landed.filter(|_| bytes > 0);
        if let Some(at) = landed {
            self.endpoint.charge_rx_drain(bytes, at);
        }
        landed.is_some()
    }

    /// Rank `src`'s receive `recv_id` released send `send_id`: open the
    /// credit window and start streaming.  Dropped unless the send waits for
    /// a CTS from `src`.
    fn handle_cts(&mut self, src: usize, send_id: u64, recv_id: u64) {
        let Some(Op::Send(s)) = self.ops.get_mut(&send_id) else {
            return;
        };
        let SendState::WaitingCts { data } = &mut s.state else {
            return;
        };
        if s.dst != src {
            return;
        }
        s.state = SendState::Streaming {
            recv_id,
            data: std::mem::replace(data, Payload::empty()),
            next_offset: 0,
            credits: self.rdv.window,
            sent: 0,
            acked: 0,
        };
        self.pump_chunks(send_id);
    }

    /// Send chunks while the window has credits and payload remains.  The
    /// transfer completes when the last chunk leaves; credits still in
    /// flight for it are released from the gauge here and late arrivals
    /// find it no longer streaming.
    fn pump_chunks(&mut self, id: u64) {
        loop {
            let (dst, recv_id, chunk, offset, done) = match self.ops.get_mut(&id) {
                Some(Op::Send(SendOp {
                    dst,
                    state:
                        SendState::Streaming {
                            recv_id,
                            data,
                            next_offset,
                            credits,
                            sent,
                            ..
                        },
                    ..
                })) => {
                    if *credits == 0 || *next_offset >= data.len() {
                        return;
                    }
                    let offset = *next_offset;
                    let end = self.rdv.chunk_end(offset, data.len());
                    let done = end == data.len();
                    let chunk = data.slice(offset..end);
                    if done {
                        // Let go of the staged buffer before the receiver
                        // can see the last chunk: it then finishes as the
                        // allocation's only owner, every time.
                        *data = Payload::empty();
                    }
                    *next_offset = end;
                    *credits -= 1;
                    *sent += 1;
                    (*dst, *recv_id, chunk, offset, done)
                }
                _ => return,
            };
            self.rdv_chunks.inc();
            self.rdv_inflight.add(1);
            let dst_ep = self.ep_of(dst);
            let pkt = Packet::RdvChunk {
                recv_id,
                offset,
                data: chunk,
            };
            let wire = pkt.wire_bytes();
            if self.endpoint.send(dst_ep, pkt, wire).is_err() {
                self.fail_send(id, RmpiError::Disconnected);
                return;
            }
            if done {
                self.complete_stream(id);
                return;
            }
        }
    }

    /// Transition a finished chunk stream to `Complete`, releasing its
    /// remaining in-flight accounting and its staged payload.
    fn complete_stream(&mut self, id: u64) {
        if let Some(Op::Send(s)) = self.ops.get_mut(&id) {
            if let SendState::Streaming { sent, acked, .. } = s.state {
                self.rdv_inflight.sub((sent - acked) as u64);
            }
            s.state = SendState::Complete;
        }
    }

    /// Rank `src` returned window slots to send `send_id`: account them and
    /// keep streaming.  Dropped unless the send streams to `src`.
    fn handle_credit(&mut self, src: usize, send_id: u64, chunks: usize) {
        match self.ops.get_mut(&send_id) {
            Some(Op::Send(SendOp {
                dst,
                state: SendState::Streaming { credits, acked, .. },
            })) if *dst == src => {
                *credits += chunks;
                *acked += chunks;
                self.rdv_inflight.sub(chunks as u64);
            }
            _ => return,
        }
        self.pump_chunks(send_id);
    }

    /// One streamed chunk for receive `id` landed from rank `src`
    /// (`drained`: through this node's drain stage): coalesce it into the
    /// assembled view and, every [`RdvConfig::credit_batch`] drained chunks,
    /// return one coalesced credit.  Chunks for a receive that is not
    /// assembling from `src` (finished or tombstoned, say) are dropped —
    /// their hold on the staged buffer goes on return.
    fn handle_chunk(&mut self, src: usize, id: u64, offset: usize, data: Payload, drained: bool) {
        let Some(Op::Recv(r)) = self.ops.get_mut(&id) else {
            return;
        };
        let RecvState::Assembling {
            send_id,
            src: from,
            tag,
            assembled,
            pending_credits,
            total,
            started,
        } = r
        else {
            return;
        };
        if *from != src {
            return;
        }
        let (send_id, total) = (*send_id, *total);
        // Append-only: the fabric's per-sender FIFO means the next chunk
        // starts exactly where the assembled view ends.  A duplicate (offset
        // behind), a gap (offset ahead) or an overrun cannot be assembled;
        // poison the transfer rather than deliver a corrupt message.
        if offset != assembled.len() || data.len() > total - offset {
            self.fail_recv(
                id,
                RmpiError::InvalidArgument(format!(
                    "chunk at offset {offset} is a duplicate, gap or overrun in \
                     transfer {send_id} from rank {src}"
                )),
            );
            return;
        }
        assembled.append(data);
        if assembled.len() == total {
            // The sender completed (and may have exited) when its last chunk
            // left, so nothing is owed for the finishing chunk — or for any
            // batch still pending when it lands.
            let clock = self.endpoint.fabric().clock();
            let elapsed = clock.elapsed(*started).max(Duration::from_nanos(1));
            self.rdv_rate
                .record((total as f64 / elapsed.as_secs_f64()) as u64);
            // Every chunk of a stream comes from one source, so the
            // finishing chunk speaks for the whole payload.
            let status = Status {
                source: src,
                tag: *tag,
                len: total,
                drained,
                landed: None,
            };
            let data = std::mem::replace(assembled, Payload::empty());
            *r = RecvState::Complete { data, status };
            return;
        }
        *pending_credits += 1;
        if *pending_credits >= self.rdv.credit_batch() {
            // Open a batch of window slots.  A failed credit send is not
            // itself fatal: chunks already in flight still drain, and a
            // sender that truly died mid-stream surfaces as a stall on
            // this receive.
            let pkt = Packet::RdvCredit {
                send_id,
                chunks: std::mem::take(pending_credits),
            };
            let wire = pkt.wire_bytes();
            let _ = self.endpoint.send(self.ep_of(src), pkt, wire);
        }
    }

    /// Tombstone a send: release its window accounting so nothing leaks,
    /// and park the error for the wait call.
    fn fail_send(&mut self, id: u64, err: RmpiError) {
        if let Some(Op::Send(s)) = self.ops.get_mut(&id) {
            if let SendState::Streaming { sent, acked, .. } = s.state {
                self.rdv_inflight.sub((sent - acked) as u64);
            }
            s.state = SendState::Failed(err);
        }
    }

    /// Tombstone a receive, dropping its hold on the sender's staged buffer.
    fn fail_recv(&mut self, id: u64, err: RmpiError) {
        if let Some(Op::Recv(r)) = self.ops.get_mut(&id) {
            *r = RecvState::Failed(err);
        }
    }

    /// One nonblocking pass of the engine: send what is held, then drain the
    /// endpoint (each arrival is matched as it is classified).
    fn progress_pass(&mut self) -> Result<()> {
        (0..self.size()).for_each(|dst| self.send_held(dst));
        loop {
            match self.endpoint.try_recv() {
                Ok(d) => self.classify(d),
                Err(dcgn_netsim::RecvError::Empty) => break,
                Err(_) => return Err(RmpiError::Disconnected),
            }
        }
        Ok(())
    }

    /// Drive the engine until every id in `targets` is complete.
    fn progress_until(&mut self, targets: &[u64], what: &'static str) -> Result<()> {
        for &t in targets {
            if !self.ops.contains_key(&t) {
                return Err(RmpiError::UnknownRequest);
            }
        }
        let clock = self.endpoint.fabric().clock().clone();
        let deadline = clock.deadline(self.progress_timeout);
        loop {
            self.progress_pass()?;
            if targets.iter().all(|&t| self.is_complete(t)) {
                return Ok(());
            }
            if clock.passed(deadline) {
                return Err(RmpiError::Stalled(what));
            }
            let wait = deadline.min(clock.deadline(Duration::from_millis(50)));
            match self.endpoint.recv_until(wait) {
                Ok(d) => self.classify(d),
                Err(dcgn_netsim::RecvError::Timeout) => {}
                Err(_) => return Err(RmpiError::Disconnected),
            }
        }
    }
}

/// A dropped communicator still sends what it held: an eager send is
/// complete once `isend` returns.
impl Drop for Communicator {
    fn drop(&mut self) {
        (0..self.size()).for_each(|dst| self.send_held(dst));
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("pending_ops", &self.ops.len())
            .field("unexpected", &self.matcher.queued_msgs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{MpiWorld, RankPlacement};
    use dcgn_simtime::CostModel;

    /// The FIFO queues must preserve the pre-existing matching semantics:
    /// posted receives match in posting order, and a selective receive
    /// posted first still takes the message it asked for, leaving earlier
    /// arrivals to later wildcards.
    #[test]
    fn posted_receives_match_in_posting_order() {
        let mut world = MpiWorld::create(&RankPlacement::block(2, 1), CostModel::zero());
        let mut receiver = world.pop().expect("rank 1");
        let mut sender = world.pop().expect("rank 0");

        // Two wildcard receives complete in posting order.
        sender.send(1, 1, b"first").unwrap();
        sender.send(1, 2, b"second").unwrap();
        let r1 = receiver.irecv(None, None).unwrap();
        let r2 = receiver.irecv(None, None).unwrap();
        let (data, status) = receiver.wait_recv(r1).unwrap();
        assert_eq!((data.as_slice(), status.tag), (&b"first"[..], 1));
        let (data, status) = receiver.wait_recv(r2).unwrap();
        assert_eq!((data.as_slice(), status.tag), (&b"second"[..], 2));

        // A selective receive posted before a wildcard skips non-matching
        // arrivals; the wildcard then takes the earliest arrival.
        sender.send(1, 1, b"for-wildcard").unwrap();
        sender.send(1, 2, b"for-selective").unwrap();
        let selective = receiver.irecv(None, Some(2)).unwrap();
        let wildcard = receiver.irecv(None, None).unwrap();
        let (data, _) = receiver.wait_recv(selective).unwrap();
        assert_eq!(data.as_slice(), b"for-selective");
        let (data, _) = receiver.wait_recv(wildcard).unwrap();
        assert_eq!(data.as_slice(), b"for-wildcard");
    }

    /// Three communicators out of [`world`], sender first.
    fn three() -> [Communicator; 3] {
        world().try_into().expect("three ranks")
    }

    /// `len` bytes of `byte`, as a pooled payload.
    fn bytes(byte: u8, len: usize) -> Payload {
        Payload::copy_from_slice(&vec![byte; len])
    }

    /// The frames waiting at `comm`'s endpoint, in arrival order, taken
    /// without classifying them.
    fn frames(comm: &mut Communicator) -> Vec<Packet> {
        std::iter::from_fn(|| comm.endpoint.try_recv().ok().map(|d| d.msg)).collect()
    }

    /// The tags of the messages a frame carries, in send order.
    fn tags(frame: &Packet) -> Vec<u32> {
        match frame {
            Packet::Eager { tag, .. } | Packet::Rts { tag, .. } => vec![*tag],
            Packet::Batch(packets) => packets.iter().map(|(tag, _)| *tag).collect(),
            other => panic!("not a message frame: {other:?}"),
        }
    }

    /// The tags of each frame waiting at `comm`'s endpoint.
    fn frame_tags(comm: &mut Communicator) -> Vec<Vec<u32>> {
        frames(comm).iter().map(tags).collect()
    }

    #[test]
    fn held_sends_leave_one_frame_per_destination_in_send_order() {
        let [mut sender, mut one, mut two] = three();
        for (tag, dst) in [2, 1, 2, 2, 1].into_iter().enumerate() {
            sender.isend(dst, tag as u32, bytes(tag as u8, 10)).unwrap();
        }
        assert!(frames(&mut one).is_empty() && frames(&mut two).is_empty());
        sender.progress_pass().unwrap();
        assert_eq!(frame_tags(&mut one), [[1, 4]]);
        assert_eq!(frame_tags(&mut two), [[0, 2, 3]]);
    }

    #[test]
    fn a_batch_stays_within_the_eager_threshold() {
        let [mut sender, mut one, _] = three();
        let bound = sender.rdv.eager_threshold;
        let len = bound / 2 - 1;
        for tag in 0..5 {
            sender.isend(1, tag, bytes(tag as u8, len)).unwrap();
        }
        sender.progress_pass().unwrap();
        let frames = frames(&mut one);
        assert_eq!(
            frames.iter().map(tags).collect::<Vec<_>>(),
            [&[0, 1][..], &[2, 3], &[4]]
        );
        for frame in &frames {
            let Packet::Batch(packets) = frame else {
                continue;
            };
            assert!(packets.iter().map(|(_, data)| data.len()).sum::<usize>() <= bound);
        }
    }

    #[test]
    fn a_lone_send_leaves_as_its_own_allocation() {
        let [mut sender, mut one, _] = three();
        let staged = bytes(7, 32);
        let at = staged.as_slice().as_ptr();
        sender.isend(1, 7, staged).unwrap();
        sender.progress_pass().unwrap();
        let [Packet::Eager { tag: 7, data }] = &frames(&mut one)[..] else {
            panic!("one eager frame");
        };
        assert_eq!(data.as_slice().as_ptr(), at);
    }

    #[test]
    fn a_rendezvous_sends_what_is_held_for_its_rank_first() {
        let [mut sender, mut one, mut two] = three();
        let large = sender.rdv.eager_threshold + 1;
        for (tag, dst, len) in [
            (0, 1, 10),
            (1, 2, 10),
            (2, 1, 10),
            (3, 1, large),
            (4, 1, 10),
        ] {
            sender.isend(dst, tag, bytes(tag as u8, len)).unwrap();
        }
        // Rank 1's two held sends, then the RTS; rank 2's send and the one
        // after the rendezvous are still held.
        let frames_one = frames(&mut one);
        assert!(matches!(
            frames_one[..],
            [Packet::Batch(_), Packet::Rts { .. }]
        ));
        assert_eq!(
            frames_one.iter().map(tags).collect::<Vec<_>>(),
            [&[0, 2][..], &[3]]
        );
        assert!(frames(&mut two).is_empty());
        sender.progress_pass().unwrap();
        assert_eq!(frame_tags(&mut one), [[4]]);
        assert_eq!(frame_tags(&mut two), [[1]]);
    }

    /// A batch is one frame, not one buffer: each packet arrives as the
    /// sender's own allocation, so one taken while another waits unmatched
    /// is the only reference to its bytes, and the waiting one keeps no
    /// other packet's bytes alive.
    #[test]
    fn each_packet_of_a_batch_arrives_as_the_senders_own_allocation() {
        let [mut sender, mut one, _] = three();
        let staged = [bytes(0, 16), bytes(1, 16)];
        let at = staged.each_ref().map(|data| data.as_slice().as_ptr());
        for (tag, data) in staged.into_iter().enumerate() {
            sender.isend(1, tag as u32, data).unwrap();
        }
        sender.progress_pass().unwrap();
        one.progress_pass().unwrap();
        assert_eq!(one.matcher.queued_msgs(), 2, "both wait unmatched");
        for tag in [1, 0] {
            let data = one.recv(Some(0), Some(tag)).unwrap().0.into_vec();
            assert_eq!(data.as_ptr(), at[tag as usize]);
        }
    }

    /// An eager send is complete once `isend` returns, so the sender may
    /// drop its communicator without another call.
    #[test]
    fn a_dropped_communicator_still_sends_what_it_held() {
        let [mut sender, mut one, _] = three();
        sender.isend(1, 5, bytes(5, 10)).unwrap();
        sender.isend(1, 6, bytes(6, 10)).unwrap();
        drop(sender);
        for tag in [5, 6] {
            let (data, _) = one.recv(Some(0), Some(tag)).unwrap();
            assert_eq!(data, vec![tag as u8; 10]);
        }
    }

    /// Chunk size of the hand-fed streams below; three chunks make a message
    /// whose staged buffer sits in a pool class (512 KB) no other unit test
    /// of this crate touches.
    const CHUNK: usize = 1 << 17;
    const TOTAL: usize = 3 * CHUNK;

    /// Message bytes: the low byte of their position.
    fn pattern(range: std::ops::Range<usize>) -> Vec<u8> {
        range.map(|i| i as u8).collect()
    }

    /// Three ranks, one per node, whose rendezvous streams `CHUNK`-byte
    /// chunks two at a time.  A test drives one rank's engine by hand; the
    /// others stay alive in the vector, so what it sends has somewhere to
    /// go.
    fn world() -> Vec<Communicator> {
        let rdv = RdvConfig::new(64).with_chunk_bytes(CHUNK).with_window(2);
        let cluster = dcgn_netsim::Cluster::new(3, CostModel::zero());
        MpiWorld::create_on_with(&cluster, &RankPlacement::block(3, 1), rdv).unwrap()
    }

    /// Hand `comm`'s engine `msg` as a frame from rank `src`, which lives
    /// on another node, so the frame carries its landing (now), as the
    /// fabric stamps one.
    fn feed(comm: &mut Communicator, src: usize, msg: Packet) {
        let src = comm.ep_of(src);
        let at = Some(comm.endpoint.fabric().clock().now());
        comm.classify(Delivery {
            src,
            wire_bytes: 0,
            at,
            msg,
        });
    }

    /// Post a receive on rank 1, hand-feed its engine an RTS for a
    /// `TOTAL`-byte transfer from rank 0 and then `chunks` as
    /// `(offset, data)` frames, and wait on the receive.  The receiver comes
    /// back too, so a caller can tell what the engine let go of from what
    /// dropping the communicator would have.
    fn feed_stream(chunks: Vec<(usize, Payload)>) -> (Communicator, Result<Payload>) {
        let mut world = world();
        let mut receiver = world.remove(1);
        let req = receiver.irecv(Some(0), Some(7)).unwrap();
        let rts = Packet::Rts {
            tag: 7,
            len: TOTAL,
            send_id: 0,
        };
        feed(&mut receiver, 0, rts);
        for (offset, data) in chunks {
            let chunk = Packet::RdvChunk {
                recv_id: req.0,
                offset,
                data,
            };
            feed(&mut receiver, 0, chunk);
        }
        assert!(
            !matches!(
                receiver.ops.get(&req.0),
                Some(Op::Recv(RecvState::Assembling { .. }))
            ),
            "every transfer fed here ends or is poisoned"
        );
        let outcome = receiver.wait_recv(req).map(|(data, status)| {
            let got = (status.source, status.tag, status.len, status.drained);
            assert_eq!(got, (0, 7, TOTAL, true));
            data
        });
        (receiver, outcome)
    }

    /// `cuts` as views of `staged`, the way a sender's `pump_chunks` cuts
    /// them.
    fn views(staged: &Payload, cuts: &[(usize, usize)]) -> Vec<(usize, Payload)> {
        cuts.iter()
            .map(|&(offset, len)| (offset, staged.slice(offset..offset + len)))
            .collect()
    }

    const IN_ORDER: [(usize, usize); 3] = [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, CHUNK)];

    #[test]
    fn in_order_chunks_assemble_by_appending() {
        let staged = Payload::from_vec(pattern(0..TOTAL));
        let base = staged.as_slice().as_ptr();
        let chunks = views(&staged, &IN_ORDER);
        drop(staged);
        let (_receiver, data) = feed_stream(chunks);
        let data = data.unwrap();
        assert_eq!(data, pattern(0..TOTAL));
        // Not a copy of the staged buffer: the buffer.
        assert_eq!(data.as_slice().as_ptr(), base);
        let out = data.into_vec();
        assert_eq!(out.as_ptr(), base);
    }

    /// Chunks that are not views of one allocation — nothing a sender of
    /// this crate produces — still assemble, through `append`'s copy.
    #[test]
    fn chunks_of_separate_allocations_assemble_by_copy() {
        let chunks = IN_ORDER
            .iter()
            .map(|&(offset, len)| (offset, Payload::from_vec(pattern(offset..offset + len))))
            .collect();
        let (_receiver, data) = feed_stream(chunks);
        assert_eq!(data.unwrap(), pattern(0..TOTAL));
    }

    /// A chunk that is not the next one cannot be appended: counting a
    /// duplicate would complete the transfer with a hole in it, a gap would
    /// shift every later byte.  Each malformed sequence must tombstone the
    /// receive and let go of the sender's staged buffer, which is recycled
    /// once the sender has let go of it too.
    #[test]
    fn duplicate_gap_and_overrun_chunks_poison_the_transfer() {
        let malformed: [(&str, &[(usize, usize)]); 3] = [
            ("duplicate", &[(0, CHUNK), (0, CHUNK), (CHUNK, CHUNK)]),
            ("gap", &[(0, CHUNK), (2 * CHUNK, CHUNK)]),
            (
                "overrun",
                &[(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, CHUNK + 1)],
            ),
        ];
        for (what, cuts) in malformed {
            // One byte longer than the message, for the overrun to cut.
            let staged = Payload::copy_from_slice(&pattern(0..TOTAL + 1));
            let (_receiver, outcome) = feed_stream(views(&staged, cuts));
            match outcome {
                Err(RmpiError::InvalidArgument(_)) => {}
                other => panic!("{what}: expected InvalidArgument, got {other:?}"),
            }
            // The receiver is still alive: it is the tombstone, not the
            // communicator's drop, that released the assembled view.
            let recycled = dcgn_netsim::pool_stats().recycled;
            drop(staged);
            assert!(
                dcgn_netsim::pool_stats().recycled > recycled,
                "{what}: the staged buffer must return to the pool once both \
                 sides have let go of it"
            );
        }
    }

    /// Send `id`'s stream as `(recv_id, next_offset, credits, sent, acked)`,
    /// or `None` when it is not streaming.
    fn stream(comm: &Communicator, id: u64) -> Option<(u64, usize, usize, usize, usize)> {
        match comm.ops.get(&id) {
            Some(Op::Send(SendOp {
                state:
                    SendState::Streaming {
                        recv_id,
                        next_offset,
                        credits,
                        sent,
                        acked,
                        ..
                    },
                ..
            })) => Some((*recv_id, *next_offset, *credits, *sent, *acked)),
            _ => None,
        }
    }

    /// A send takes a CTS only from its destination and only while it waits
    /// for one, and a credit only from the rank it streams to.
    #[test]
    fn a_send_takes_its_cts_and_credits_only_from_its_destination() {
        let mut world = world();
        let mut sender = world.remove(0);
        let id = sender.isend(1, 7, pattern(0..TOTAL)).unwrap().0;
        let waiting = |comm: &Communicator| {
            matches!(
                comm.ops.get(&id),
                Some(Op::Send(SendOp {
                    state: SendState::WaitingCts { .. },
                    ..
                }))
            )
        };
        let cts = |recv_id| Packet::Cts {
            send_id: id,
            recv_id,
        };
        let credit = || Packet::RdvCredit {
            send_id: id,
            chunks: 1,
        };

        feed(&mut sender, 2, cts(5));
        assert!(waiting(&sender), "a CTS from another rank started the send");
        feed(&mut sender, 1, cts(5));
        // Two of the three chunks are in flight and the window is shut.
        let shut = Some((5, 2 * CHUNK, 0, 2, 0));
        assert_eq!(stream(&sender, id), shut);
        feed(&mut sender, 1, cts(6));
        assert_eq!(stream(&sender, id), shut, "a second CTS");
        feed(&mut sender, 2, credit());
        assert_eq!(stream(&sender, id), shut, "a credit from another rank");

        // The destination's credit lets the last chunk go.
        feed(&mut sender, 1, credit());
        assert!(matches!(
            sender.ops.get(&id),
            Some(Op::Send(SendOp {
                state: SendState::Complete,
                ..
            }))
        ));
    }

    /// A receive takes a chunk only from the rank it assembles from — the
    /// RTS's source, for a wildcard receive — and one that has completed
    /// drops any chunk that names it.
    #[test]
    fn a_receive_takes_chunks_only_from_its_source() {
        let mut world = world();
        let mut receiver = world.remove(1);
        let id = receiver.irecv(None, Some(7)).unwrap().0;
        let rts = Packet::Rts {
            tag: 7,
            len: CHUNK,
            send_id: 3,
        };
        feed(&mut receiver, 0, rts);
        let chunk = |byte: u8| Packet::RdvChunk {
            recv_id: id,
            offset: 0,
            data: Payload::from_vec(vec![byte; CHUNK]),
        };

        feed(&mut receiver, 2, chunk(2));
        assert!(
            matches!(
                receiver.ops.get(&id),
                Some(Op::Recv(RecvState::Assembling { assembled, src: 0, .. }))
                    if assembled.is_empty()
            ),
            "a chunk from another rank"
        );
        feed(&mut receiver, 0, chunk(0));
        feed(&mut receiver, 0, chunk(1));
        let (data, status) = receiver.take_recv(Request(id)).expect("complete");
        assert_eq!(data, vec![0; CHUNK], "a chunk after the last one");
        assert_eq!((status.source, status.len), (0, CHUNK));
        // Waited on and gone from the table: dropped all the same.
        feed(&mut receiver, 0, chunk(1));
        assert!(receiver.ops.is_empty());
    }

    /// `Status::drained` is set exactly where the receive-drain stage moved
    /// the payload: never for an eager frame, always for a stream between
    /// nodes — one chunk or many — and never for a stream within a node,
    /// which does not drain.
    #[test]
    fn status_says_whether_the_drain_moved_the_payload() {
        let rdv = RdvConfig::new(64).with_chunk_bytes(1024).with_window(2);
        // Eager, a one-chunk stream and a four-chunk stream.
        let lens = [64, 1000, 3 * 1024 + 100];
        for (placement, remote) in [
            (RankPlacement::block(2, 1), true),
            (RankPlacement::block(1, 2), false),
        ] {
            let per_rank =
                MpiWorld::run_with(&placement, CostModel::zero(), rdv, move |mut comm| {
                    let mut statuses = Vec::new();
                    for (tag, len) in lens.into_iter().enumerate() {
                        if comm.rank() == 0 {
                            comm.send(1, tag as u32, &vec![1; len]).unwrap();
                        } else {
                            statuses.push(comm.recv(Some(0), Some(tag as u32)).unwrap().1);
                        }
                    }
                    statuses
                })
                .unwrap();
            let got: Vec<_> = per_rank[1].iter().map(|s| (s.len, s.drained)).collect();
            let want = [(lens[0], false), (lens[1], remote), (lens[2], remote)];
            assert_eq!(got, want, "ranks on different nodes: {remote}");
        }
    }

    /// `Status::landed` is the landing of an eager frame from another node,
    /// and unset for one from a rank of the same node, which is in place
    /// once queued, and for a stream, whose drain already moved it.
    #[test]
    fn status_carries_the_landing_of_an_eager_frame_from_another_node_only() {
        let rdv = RdvConfig::new(64);
        for (placement, remote) in [
            (RankPlacement::block(2, 1), true),
            (RankPlacement::block(1, 2), false),
        ] {
            let cost = CostModel::g92_cluster();
            let per_rank = MpiWorld::run_with(&placement, cost, rdv, move |mut comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, &[1; 64]).unwrap();
                    comm.send(1, 1, &[1; 1000]).unwrap();
                    return Vec::new();
                }
                let clock = comm.endpoint.fabric().clock().clone();
                let mut landed =
                    |tag| (comm.recv(Some(0), Some(tag)).unwrap().1.landed, clock.now());
                vec![landed(0), landed(1)]
            })
            .unwrap();
            let [(eager, taken), (stream, _)] = per_rank[1][..] else {
                panic!("two receives")
            };
            assert_eq!(
                eager.is_some(),
                remote,
                "ranks on different nodes: {remote}"
            );
            assert!(eager.is_none_or(|at| at <= taken), "taken before it landed");
            assert_eq!(stream, None, "a stream's payload was drained");
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time tag-space guard
    fn exchange_tag_stays_in_its_reserved_space() {
        assert!(TAG_EXCHANGE >= TAG_INTERNAL_BASE, "internal space");
        // Never collides with this crate's own collective tag.
        assert!(TAG_EXCHANGE - TAG_INTERNAL_BASE >= 0x1000);
        let accepts = |want: Option<u32>, tag| {
            let recv = PostedRecv {
                id: 0,
                src: None,
                tag: want,
            };
            recv.accepts(&Unexpected {
                src: 0,
                tag,
                kind: UnexpectedKind::Eager(Payload::empty()),
                landed: None,
            })
        };
        // ANY_TAG wildcard matching never steals an exchange frame, but an
        // explicit receive for the tag does.
        assert!(!accepts(None, TAG_EXCHANGE));
        assert!(accepts(Some(TAG_EXCHANGE), TAG_EXCHANGE));
        // The collectives' own tag is internal and is not the exchange tag:
        // DCGN's comm thread keeps a TAG_EXCHANGE receive posted on the
        // communicator its shutdown barrier runs on.
        assert!(TAG_COLLECTIVE >= TAG_INTERNAL_BASE, "internal space");
        assert_ne!(TAG_COLLECTIVE, TAG_EXCHANGE);
        assert!(!accepts(None, TAG_COLLECTIVE));
        assert!(!accepts(Some(TAG_EXCHANGE), TAG_COLLECTIVE));
    }
}
