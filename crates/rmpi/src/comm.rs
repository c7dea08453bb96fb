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
//! It returns
//! [`Packet::RdvCredit`] frames, each coalescing half a window's worth of
//! drained chunks ([`RdvConfig::credit_batch`]); every credited chunk opens
//! one window slot, so a slow receiver bounds the sender's in-flight frame
//! memory instead of the fabric queue absorbing the whole message.
//!
//! ```text
//! sender                          receiver
//!   | -- Rts{len, send_id} ------->  |   (posted recv matches,
//!   | <------------- Cts{send_id} -- |    allocates nothing)
//!   | -- RdvChunk{off=0}  --------->  |   ┐ up to `window`
//!   | -- RdvChunk{off=C}  --------->  |   ┘ chunks in flight
//!   | <-- RdvCredit{window/2} ------ |   (per half window drained)
//!   | -- RdvChunk{off=2C} --------->  |   …until all chunks are sent
//! ```
//!
//! Transfers are identified by `(source rank, send_id)` on the receiver and
//! by `send_id` on the sender, so any number of transfers — including
//! several between the same rank pair — interleave without cross-talk, and
//! credits arriving late or out of order for a finished transfer are
//! ignored.  A failed mid-stream send tombstones the operation
//! (`SendState::Failed`/`RecvState::Failed`): the error surfaces from
//! the wait call, in-flight accounting is released, and no window slots or
//! pooled frames leak.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use dcgn_netsim::{Delivery, Endpoint, EndpointId, Payload};
use dcgn_simtime::Stamp;

use crate::exchange::EarlyFrames;
use crate::packet::{Packet, RmpiError, Status};
use crate::rdv::RdvConfig;
use crate::Result;

/// First tag value reserved for internal (collective) traffic.  User tags
/// must stay below this value; `ANY_TAG` receives never match internal tags.
pub const TAG_INTERNAL_BASE: u32 = 0x8000_0000;

/// The single tag carried by every frame of a layered collective exchange.
///
/// Layers above the substrate (DCGN's communicator engine) run collectives
/// over subsets of the world using point-to-point traffic, with many
/// exchanges concurrently in flight between the same pair of ranks.  Those
/// frames are *not* told apart by tag: each one carries its full
/// [`crate::ExchangeId`] — `(comm_epoch, comm_id, seq, phase)` — in an
/// explicit header ([`crate::frame_exchange`]), and the receiving engine
/// demultiplexes on that exact identity.  The tag's only job is to keep
/// exchange traffic away from user receives (it sits above
/// [`TAG_INTERNAL_BASE`], so `ANY_TAG` can never steal it) and away from
/// this crate's own collectives, which run on the same communicator under
/// their own internal tag.
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
    NotStarted,
    WaitingCts {
        send_id: u64,
    },
    /// Credit-windowed chunk stream in progress.
    Streaming {
        send_id: u64,
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
    tag: u32,
    data: Option<Payload>,
    state: SendState,
}

enum RecvState {
    Posted,
    /// Rendezvous accepted: chunk views are coalesced, in offset order,
    /// into one growing view of the sender's staged allocation
    /// (`assembled.len()` is the bytes received).
    Assembling {
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

struct RecvOp {
    src: Option<usize>,
    tag: Option<u32>,
    state: RecvState,
}

enum Op {
    Send(SendOp),
    Recv(RecvOp),
}

enum UnexpectedKind {
    Eager(Payload),
    Rts { send_id: u64, len: usize },
}

struct Unexpected {
    src: usize,
    tag: u32,
    kind: UnexpectedKind,
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
    next_send_id: u64,
    ops: HashMap<u64, Op>,
    unexpected: VecDeque<Unexpected>,
    /// Send ops that have not yet touched the wire, in submission order.
    send_fifo: VecDeque<u64>,
    /// Posted receives awaiting a match, in posting order.
    recv_fifo: VecDeque<u64>,
    /// Sender-side rendezvous index: `send_id` → op id.  Gives CTS and
    /// credit handling O(1) lookups instead of scanning every op.
    send_streams: HashMap<u64, u64>,
    /// Receiver-side rendezvous index: `(source rank, send_id)` → op id.
    /// Keyed by source as well, because `send_id`s are per-*sender*
    /// counters and collide across senders.
    recv_streams: HashMap<(usize, u64), u64>,
    /// Sequence number of the last collective this rank entered.
    pub(crate) collective_seq: u64,
    /// Frames of collectives this rank has not entered yet — an abort among
    /// them included.
    pub(crate) early_frames: EarlyFrames,
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
        Communicator {
            rank,
            endpoint,
            rank_to_ep,
            ep_to_rank,
            rdv,
            progress_timeout: Duration::from_secs(30),
            next_req: 0,
            next_send_id: 0,
            ops: HashMap::new(),
            unexpected: VecDeque::new(),
            send_fifo: VecDeque::new(),
            recv_fifo: VecDeque::new(),
            send_streams: HashMap::new(),
            recv_streams: HashMap::new(),
            collective_seq: 0,
            early_frames: EarlyFrames::new(),
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

    /// The eager/rendezvous protocol threshold in bytes.
    pub fn eager_threshold(&self) -> usize {
        self.rdv.eager_threshold
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
    pub fn isend(&mut self, dst: usize, tag: u32, data: impl Into<Payload>) -> Result<Request> {
        let data = data.into();
        if dst >= self.size() {
            return Err(RmpiError::InvalidRank(dst));
        }
        let id = self.alloc_req();
        self.ops.insert(
            id,
            Op::Send(SendOp {
                dst,
                tag,
                data: Some(data),
                state: SendState::NotStarted,
            }),
        );
        self.send_fifo.push_back(id);
        // Kick the engine once so eager sends leave immediately.
        self.start_sends();
        Ok(Request(id))
    }

    /// Post a nonblocking receive matching `src` (or any source) and `tag`
    /// (or any tag).
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<u32>) -> Result<Request> {
        if let Some(s) = src {
            if s >= self.size() {
                return Err(RmpiError::InvalidRank(s));
            }
        }
        let id = self.alloc_req();
        self.ops.insert(
            id,
            Op::Recv(RecvOp {
                src,
                tag,
                state: RecvState::Posted,
            }),
        );
        self.recv_fifo.push_back(id);
        Ok(Request(id))
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
            Some(Op::Recv(RecvOp {
                state: RecvState::Complete { data, status },
                ..
            })) => Ok((data, status)),
            Some(Op::Recv(RecvOp {
                state: RecvState::Failed(e),
                ..
            })) => Err(e),
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
                Some(Op::Recv(r)) => match &r.state {
                    RecvState::Failed(e) => Some(e.clone()),
                    _ => None,
                },
                None => None,
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
            Some(Op::Recv(RecvOp {
                state: RecvState::Complete { .. },
                ..
            })) => match self.ops.remove(&req.0) {
                Some(Op::Recv(RecvOp {
                    state: RecvState::Complete { data, status },
                    ..
                })) => Some((data, status)),
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

    fn matches(want_src: Option<usize>, want_tag: Option<u32>, src: usize, tag: u32) -> bool {
        let src_ok = want_src.is_none_or(|s| s == src);
        // ANY_TAG never matches internal (collective) tags.
        let tag_ok = match want_tag {
            Some(t) => t == tag,
            None => tag < TAG_INTERNAL_BASE,
        };
        src_ok && tag_ok
    }

    fn is_complete(&self, id: u64) -> bool {
        match self.ops.get(&id) {
            Some(Op::Send(s)) => matches!(s.state, SendState::Complete | SendState::Failed(_)),
            Some(Op::Recv(r)) => {
                matches!(r.state, RecvState::Complete { .. } | RecvState::Failed(_))
            }
            None => false,
        }
    }

    /// Start every send that has not yet touched the wire, in submission
    /// order (the FIFO holds exactly the `NotStarted` ops, so no scan over
    /// unrelated operations is needed).
    fn start_sends(&mut self) {
        while let Some(id) = self.send_fifo.pop_front() {
            let (dst, tag, data_len) = match self.ops.get(&id) {
                Some(Op::Send(s)) if matches!(s.state, SendState::NotStarted) => {
                    (s.dst, s.tag, s.data.as_ref().map_or(0, |d| d.len()))
                }
                _ => continue,
            };
            let dst_ep = self.ep_of(dst);
            if data_len <= self.rdv.eager_threshold {
                // Eager: ship the payload immediately; the send is complete
                // from the sender's point of view (fire-and-forget, like an
                // MPI buffered eager send).
                let data = match self.ops.get_mut(&id) {
                    Some(Op::Send(s)) => s.data.take().unwrap_or_else(Payload::empty),
                    _ => continue,
                };
                let pkt = Packet::Eager { tag, data };
                let wire = pkt.wire_bytes();
                self.eager_sends.inc();
                let _ = self.endpoint.send(dst_ep, pkt, wire);
                if let Some(Op::Send(s)) = self.ops.get_mut(&id) {
                    s.state = SendState::Complete;
                }
            } else {
                // Rendezvous: announce and wait for the receiver's CTS.
                let send_id = self.next_send_id;
                self.next_send_id += 1;
                let pkt = Packet::Rts {
                    tag,
                    len: data_len,
                    send_id,
                };
                let wire = pkt.wire_bytes();
                self.rdv_sends.inc();
                match self.endpoint.send(dst_ep, pkt, wire) {
                    Ok(()) => {
                        self.send_streams.insert(send_id, id);
                        if let Some(Op::Send(s)) = self.ops.get_mut(&id) {
                            s.state = SendState::WaitingCts { send_id };
                        }
                    }
                    Err(_) => self.fail_send(id, RmpiError::Disconnected),
                }
            }
        }
    }

    /// Match posted receives against the unexpected queue in posting order
    /// (the FIFO holds exactly the `Posted` ops; matched or consumed entries
    /// drop out, unmatched ones keep their position).
    fn match_recvs(&mut self) {
        let mut unmatched = VecDeque::new();
        while let Some(id) = self.recv_fifo.pop_front() {
            let (want_src, want_tag) = match self.ops.get(&id) {
                Some(Op::Recv(r)) if matches!(r.state, RecvState::Posted) => (r.src, r.tag),
                // Consumed or progressed elsewhere: drop from the queue.
                _ => continue,
            };
            let idx = self
                .unexpected
                .iter()
                .position(|u| Self::matches(want_src, want_tag, u.src, u.tag));
            let Some(idx) = idx else {
                unmatched.push_back(id);
                continue;
            };
            let u = self.unexpected.remove(idx).expect("index valid");
            match u.kind {
                UnexpectedKind::Eager(data) => {
                    let status = Status {
                        source: u.src,
                        tag: u.tag,
                        len: data.len(),
                    };
                    if let Some(Op::Recv(r)) = self.ops.get_mut(&id) {
                        r.state = RecvState::Complete { data, status };
                    }
                }
                UnexpectedKind::Rts { send_id, len } => {
                    self.accept_rts(id, u.src, u.tag, send_id, len);
                }
            }
        }
        self.recv_fifo = unmatched;
    }

    /// A posted receive matched an RTS: stand up receiver-side state and
    /// release the sender with a CTS.
    fn accept_rts(&mut self, id: u64, src: usize, tag: u32, send_id: u64, len: usize) {
        if let Some(Op::Recv(r)) = self.ops.get_mut(&id) {
            r.state = RecvState::Assembling {
                send_id,
                src,
                tag,
                assembled: Payload::empty(),
                pending_credits: 0,
                total: len,
                started: self.endpoint.fabric().clock().now(),
            };
        }
        self.recv_streams.insert((src, send_id), id);
        let src_ep = self.ep_of(src);
        let pkt = Packet::Cts { send_id };
        let wire = pkt.wire_bytes();
        if self.endpoint.send(src_ep, pkt, wire).is_err() {
            self.fail_recv(id, RmpiError::Disconnected);
        }
    }

    /// Incorporate one delivered packet into engine state.
    fn classify(&mut self, delivery: Delivery<Packet>) {
        let src = self.rank_of(delivery.src);
        match delivery.msg {
            Packet::Eager { tag, data } => self.unexpected.push_back(Unexpected {
                src,
                tag,
                kind: UnexpectedKind::Eager(data),
            }),
            Packet::Rts { tag, send_id, len } => self.unexpected.push_back(Unexpected {
                src,
                tag,
                kind: UnexpectedKind::Rts { send_id, len },
            }),
            Packet::Cts { send_id } => self.handle_cts(send_id),
            Packet::RdvChunk {
                send_id,
                offset,
                data,
            } => {
                self.drain_payload(src, data.len());
                self.handle_chunk(src, send_id, offset, data);
            }
            // Credits for a finished or tombstoned transfer are expected
            // stragglers and are dropped by the lookup below.
            Packet::RdvCredit { send_id, chunks } => self.handle_credit(send_id, chunks),
        }
    }

    /// Charge the receive-drain engine for an inter-node rendezvous payload.
    /// This is the second stage of the fabric's bandwidth pipeline: the
    /// sender paid wire time on its thread; the receiver pays drain time
    /// here, so a transfer of several chunks overlaps the two while a
    /// one-chunk one serialises them.
    fn drain_payload(&self, src: usize, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let src_node = self.endpoint.peer_node(self.ep_of(src));
        if src_node.is_some_and(|n| n != self.endpoint.node()) {
            self.endpoint.charge_rx_drain(bytes);
        }
    }

    /// The receiver released a rendezvous transfer: open the credit window
    /// and start streaming.
    fn handle_cts(&mut self, send_id: u64) {
        let Some(&id) = self.send_streams.get(&send_id) else {
            return;
        };
        match self.ops.get_mut(&id) {
            Some(Op::Send(s)) if matches!(s.state, SendState::WaitingCts { .. }) => {
                s.state = SendState::Streaming {
                    send_id,
                    data: s.data.take().unwrap_or_else(Payload::empty),
                    next_offset: 0,
                    credits: self.rdv.window,
                    sent: 0,
                    acked: 0,
                };
            }
            _ => return,
        }
        self.pump_chunks(id);
    }

    /// Send chunks while the window has credits and payload remains.  The
    /// transfer completes when the last chunk leaves; credits still in
    /// flight for it are released from the gauge here and late arrivals are
    /// dropped by the id lookup.
    fn pump_chunks(&mut self, id: u64) {
        loop {
            let (dst, send_id, chunk, offset, done) = match self.ops.get_mut(&id) {
                Some(Op::Send(SendOp {
                    dst,
                    state:
                        SendState::Streaming {
                            send_id,
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
                    (*dst, *send_id, chunk, offset, done)
                }
                _ => return,
            };
            self.rdv_chunks.inc();
            self.rdv_inflight.add(1);
            let dst_ep = self.ep_of(dst);
            let pkt = Packet::RdvChunk {
                send_id,
                offset,
                data: chunk,
            };
            let wire = pkt.wire_bytes();
            if self.endpoint.send(dst_ep, pkt, wire).is_err() {
                self.fail_send(id, RmpiError::Disconnected);
                return;
            }
            if done {
                self.complete_stream(id, send_id);
                return;
            }
        }
    }

    /// Transition a finished chunk stream to `Complete`, releasing its
    /// remaining in-flight accounting and its staged payload.
    fn complete_stream(&mut self, id: u64, send_id: u64) {
        self.send_streams.remove(&send_id);
        if let Some(Op::Send(s)) = self.ops.get_mut(&id) {
            if let SendState::Streaming { sent, acked, .. } = s.state {
                self.rdv_inflight.sub((sent - acked) as u64);
            }
            s.state = SendState::Complete;
        }
    }

    /// A credit returned window slots: account it and keep streaming.
    fn handle_credit(&mut self, send_id: u64, chunks: usize) {
        let Some(&id) = self.send_streams.get(&send_id) else {
            return;
        };
        match self.ops.get_mut(&id) {
            Some(Op::Send(SendOp {
                state: SendState::Streaming { credits, acked, .. },
                ..
            })) => {
                *credits += chunks;
                *acked += chunks;
                self.rdv_inflight.sub(chunks as u64);
            }
            _ => return,
        }
        self.pump_chunks(id);
    }

    /// One streamed chunk landed: coalesce it into the assembled view and,
    /// every [`RdvConfig::credit_batch`] drained chunks, return one coalesced
    /// credit.  Chunks for unknown transfers (tombstoned receives) are
    /// dropped — their hold on the staged buffer goes on return.
    fn handle_chunk(&mut self, src: usize, send_id: u64, offset: usize, data: Payload) {
        let Some(&id) = self.recv_streams.get(&(src, send_id)) else {
            return;
        };
        let Some(Op::Recv(r)) = self.ops.get_mut(&id) else {
            return;
        };
        let RecvState::Assembling {
            tag,
            assembled,
            pending_credits,
            total,
            started,
            ..
        } = &mut r.state
        else {
            return;
        };
        let total = *total;
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
            let status = Status {
                source: src,
                tag: *tag,
                len: total,
            };
            let data = std::mem::replace(assembled, Payload::empty());
            r.state = RecvState::Complete { data, status };
            self.recv_streams.remove(&(src, send_id));
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

    /// Tombstone a send: release its window accounting and index entries so
    /// nothing leaks, and park the error for the wait call.
    fn fail_send(&mut self, id: u64, err: RmpiError) {
        if let Some(Op::Send(s)) = self.ops.get_mut(&id) {
            if let SendState::Streaming {
                send_id,
                sent,
                acked,
                ..
            } = s.state
            {
                self.rdv_inflight.sub((sent - acked) as u64);
                self.send_streams.remove(&send_id);
            } else if let SendState::WaitingCts { send_id } = s.state {
                self.send_streams.remove(&send_id);
            }
            s.state = SendState::Failed(err);
        }
    }

    /// Tombstone a receive, dropping its hold on the sender's staged buffer.
    fn fail_recv(&mut self, id: u64, err: RmpiError) {
        if let Some(Op::Recv(r)) = self.ops.get_mut(&id) {
            if let RecvState::Assembling { send_id, src, .. } = &r.state {
                self.recv_streams.remove(&(*src, *send_id));
            }
            r.state = RecvState::Failed(err);
        }
    }

    /// One nonblocking pass of the engine: start sends, drain the endpoint,
    /// match receives.
    fn progress_pass(&mut self) -> Result<()> {
        self.start_sends();
        loop {
            match self.endpoint.try_recv() {
                Ok(d) => self.classify(d),
                Err(dcgn_netsim::RecvError::Empty) => break,
                Err(_) => return Err(RmpiError::Disconnected),
            }
        }
        self.match_recvs();
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

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("pending_ops", &self.ops.len())
            .field("unexpected", &self.unexpected.len())
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

    /// Chunk size of the hand-fed streams below; three chunks make a message
    /// whose staged buffer sits in a pool class (512 KB) no other unit test
    /// of this crate touches.
    const CHUNK: usize = 1 << 17;
    const TOTAL: usize = 3 * CHUNK;

    /// Message bytes: the low byte of their position.
    fn pattern(range: std::ops::Range<usize>) -> Vec<u8> {
        range.map(|i| i as u8).collect()
    }

    /// Post a receive on rank 1, hand-feed its engine an RTS for a
    /// `TOTAL`-byte transfer from rank 0 and then `chunks` as
    /// `(offset, data)` frames, and wait on the receive.  The receiver comes
    /// back too, so a caller can tell what the engine let go of from what
    /// dropping the communicator would have.
    fn feed_stream(chunks: Vec<(usize, Payload)>) -> (Communicator, Result<Payload>) {
        let rdv = RdvConfig::new(64).with_chunk_bytes(CHUNK).with_window(4);
        let cluster = dcgn_netsim::Cluster::new(2, CostModel::zero());
        let mut world =
            MpiWorld::create_on_with(&cluster, &RankPlacement::block(2, 1), rdv).unwrap();
        let mut receiver = world.pop().expect("rank 1");
        // Rank 0 stays alive in `world`, so the CTS and credits have
        // somewhere to go.
        let rank0 = receiver.ep_of(0);
        let from_rank0 = |msg| Delivery {
            src: rank0,
            wire_bytes: 0,
            msg,
        };
        let req = receiver.irecv(Some(0), Some(7)).unwrap();
        receiver.classify(from_rank0(Packet::Rts {
            tag: 7,
            len: TOTAL,
            send_id: 0,
        }));
        receiver.match_recvs();
        for (offset, data) in chunks {
            receiver.classify(from_rank0(Packet::RdvChunk {
                send_id: 0,
                offset,
                data,
            }));
        }
        assert!(
            receiver.recv_streams.is_empty(),
            "a finished or poisoned transfer leaves no stream index entry"
        );
        let outcome = receiver.wait_recv(req).map(|(data, status)| {
            assert_eq!((status.source, status.tag, status.len), (0, 7, TOTAL));
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

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time tag-space guard
    fn exchange_tag_stays_in_its_reserved_space() {
        assert!(TAG_EXCHANGE >= TAG_INTERNAL_BASE, "internal space");
        // Never collides with this crate's own collective tag.
        assert!(TAG_EXCHANGE - TAG_INTERNAL_BASE >= 0x1000);
        // ANY_TAG wildcard matching never steals an exchange frame, but an
        // explicit receive for the tag does.
        assert!(!Communicator::matches(None, None, 0, TAG_EXCHANGE));
        assert!(Communicator::matches(
            None,
            Some(TAG_EXCHANGE),
            0,
            TAG_EXCHANGE
        ));
        // The collectives' own tag is internal and is not the exchange tag:
        // DCGN's comm thread keeps a TAG_EXCHANGE receive posted on the
        // communicator its shutdown barrier runs on.
        assert!(TAG_COLLECTIVE >= TAG_INTERNAL_BASE, "internal space");
        assert_ne!(TAG_COLLECTIVE, TAG_EXCHANGE);
        assert!(!Communicator::matches(None, None, 0, TAG_COLLECTIVE));
        assert!(!Communicator::matches(
            None,
            Some(TAG_EXCHANGE),
            0,
            TAG_COLLECTIVE
        ));
    }
}
