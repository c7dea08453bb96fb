//! The host-side kernel API: the context handed to every CPU-kernel thread.
//!
//! This is the `dcgn::*` API of the paper's Figure 3: untagged `send`/`recv`
//! plus collectives, all implemented by relaying requests to the node's
//! communication thread over a thread-safe queue.
//!
//! Point-to-point communication is **nonblocking at its core**: `isend` /
//! `irecv` relay the request and immediately return a [`RequestHandle`]
//! (an index into a slot-local outstanding-request table, plus a generation
//! counter so stale handles fail cleanly instead of aliasing a recycled
//! slot).  Completion is collected with [`CpuCtx::wait`], [`CpuCtx::test`],
//! [`CpuCtx::waitall`] or [`CpuCtx::waitany`].  The blocking `send`/`recv`
//! calls are thin `i* + wait` wrappers, so there is exactly one data path —
//! and one reply path: every request (collectives included) is filed in the
//! table, and its reply arrives in the rank's one completion inbox.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::Sender;
use dcgn_netsim::Payload;
use dcgn_rmpi::{ReduceElement, ReduceOp};
use dcgn_simtime::{Charge, Clock};

use crate::error::{DcgnError, Result};
use crate::group::{self, Comm, CommId};
use crate::message::{
    CollectiveResult, CommCommand, CommStatus, Inbox, Reply, ReplyTo, Request, RequestKind, Token,
};
use crate::rank::RankMap;

/// Handle to an outstanding nonblocking point-to-point operation started
/// with [`CpuCtx::isend`] or [`CpuCtx::irecv`] (and their variants).
///
/// A handle is an index into the issuing rank's outstanding-request table
/// plus a generation stamp: completing (or failing) a request frees its
/// table slot for reuse, and the generation guarantees that a stale handle —
/// waited on twice, or kept across a completed request — is rejected with a
/// clean error instead of silently observing an unrelated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle {
    index: u32,
    gen: u32,
}

impl RequestHandle {
    /// What the request's reply comes back under.
    fn token(self) -> Token {
        (self.index, self.gen)
    }
}

/// What a completed nonblocking operation produced.
#[derive(Debug)]
pub enum Completion {
    /// An `isend` completed: the payload has been accepted for delivery
    /// (and, for intra-node sends, matched by the receiver).
    Send,
    /// An `irecv` completed with a message.
    Recv {
        /// Payload bytes.
        data: Vec<u8>,
        /// Completion metadata.  `status.source` is a *global* DCGN rank,
        /// also for receives posted through [`CpuCtx::irecv_in`].
        status: CommStatus,
    },
}

impl Completion {
    /// True for a completed send.
    pub fn is_send(&self) -> bool {
        matches!(self, Completion::Send)
    }

    /// Extract a completed receive's payload and status (`None` for a send).
    pub fn into_recv(self) -> Option<(Vec<u8>, CommStatus)> {
        match self {
            Completion::Send => None,
            Completion::Recv { data, status } => Some((data, status)),
        }
    }
}

/// One outstanding request: its reply once the inbox has delivered it, plus
/// bookkeeping for diagnostics.
struct PendingReq {
    gen: u32,
    what: &'static str,
    reply: Option<Reply>,
}

/// The slot-local outstanding-request table behind [`RequestHandle`]s, and
/// the completion inbox whose replies it files.
struct RequestTable {
    slots: Vec<Option<PendingReq>>,
    free: Vec<u32>,
    next_gen: u32,
    inbox: Inbox,
}

impl RequestTable {
    /// File a new request; its reply comes back under the handle's token.
    fn insert(&mut self, what: &'static str) -> (RequestHandle, ReplyTo) {
        self.next_gen = self.next_gen.wrapping_add(1);
        let gen = self.next_gen;
        let entry = PendingReq {
            gen,
            what,
            reply: None,
        };
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = Some(entry);
                index
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        let handle = RequestHandle { index, gen };
        (handle, self.inbox.reply_to(handle.token()))
    }

    /// The outstanding request filed under `token`, if there still is one.
    fn live_mut(&mut self, (index, gen): Token) -> Option<&mut PendingReq> {
        let entry = self.slots.get_mut(index as usize)?.as_mut()?;
        (entry.gen == gen).then_some(entry)
    }

    /// Free the slot behind a live handle; returns the operation's name.
    fn remove(&mut self, handle: RequestHandle) -> Option<&'static str> {
        let what = self.live_mut(handle.token())?.what;
        self.slots[handle.index as usize] = None;
        self.free.push(handle.index);
        Some(what)
    }
}

/// Execution context of one CPU-kernel thread (one DCGN rank).
pub struct CpuCtx {
    rank: usize,
    rank_map: Arc<RankMap>,
    work_tx: Sender<CommCommand>,
    clock: Clock,
    request_timeout: Duration,
    /// Built once so the world-collective wrappers don't allocate a member
    /// table per call.
    world: Comm,
    /// The runtime's metrics registry, for point-in-time snapshots.
    metrics: dcgn_metrics::MetricsHandle,
    /// Outstanding requests and the inbox their replies arrive in.  A mutex
    /// only because `CpuCtx` is handed out by shared reference; a kernel
    /// drives its context from one thread, so the lock is never contended —
    /// and is held across the blocking inbox receive.
    requests: Mutex<RequestTable>,
}

impl CpuCtx {
    pub(crate) fn new(
        rank: usize,
        rank_map: Arc<RankMap>,
        work_tx: Sender<CommCommand>,
        clock: Clock,
        request_timeout: Duration,
        metrics: dcgn_metrics::MetricsHandle,
    ) -> Self {
        let world = Comm::world(rank, rank_map.total_ranks());
        CpuCtx {
            rank,
            rank_map,
            work_tx,
            clock,
            request_timeout,
            metrics,
            world,
            requests: Mutex::new(RequestTable {
                slots: Vec::new(),
                free: Vec::new(),
                next_gen: 0,
                inbox: Inbox::new(),
            }),
        }
    }

    /// This thread's DCGN rank (the analogue of `dcgn::getRank()`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of DCGN ranks in the job.
    pub fn size(&self) -> usize {
        self.rank_map.total_ranks()
    }

    /// The node this rank runs on.
    pub fn node(&self) -> usize {
        self.rank_map.node_of(self.rank).expect("own rank is valid")
    }

    /// The job-wide rank map (useful for topology-aware applications).
    pub fn rank_map(&self) -> &RankMap {
        &self.rank_map
    }

    /// A point-in-time snapshot of the runtime's metrics registry: DMA and
    /// fabric counters, queue and matcher gauges, per-collective latency
    /// histograms.  Kernels can delta two snapshots around a region of
    /// interest with [`MetricsSnapshot::delta_since`].
    ///
    /// [`MetricsSnapshot::delta_since`]: dcgn_metrics::MetricsSnapshot::delta_since
    pub fn metrics_snapshot(&self) -> dcgn_metrics::MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.rank_map.total_ranks() {
            Err(DcgnError::InvalidRank(rank))
        } else {
            Ok(())
        }
    }

    /// File a request in the table and relay it to the communication thread
    /// without waiting.
    fn post(&self, kind: RequestKind, what: &'static str) -> Result<RequestHandle> {
        let mut table = self.requests.lock().expect("request table");
        let (handle, reply_to) = table.insert(what);
        // Crossing the thread-safe work queue is one of the overheads the
        // paper measures; charge it explicitly.
        self.clock
            .charge(Charge::QueueHop, self.clock.model().queue_hop);
        let request = Request {
            src_rank: self.rank,
            kind,
            reply_to,
        };
        if self.work_tx.send(CommCommand::Request(request)).is_err() {
            // The returned request's `ShuttingDown` reply finds no entry.
            table.remove(handle);
            return Err(DcgnError::ShuttingDown);
        }
        Ok(handle)
    }

    /// The one place this rank receives from its inbox: file each reply under
    /// its token until one of `wanted` is answered, then free that entry and
    /// return its position, operation name and reply.  A reply to a request
    /// no longer outstanding (its wait timed out) is dropped on receipt.
    /// `None` when `wait` runs out with nothing in `wanted` answered (zero:
    /// once the inbox is empty).
    fn receive(
        &self,
        table: &mut RequestTable,
        wanted: &[RequestHandle],
        wait: Duration,
    ) -> Result<Option<(usize, &'static str, Reply)>> {
        if let Some(&dead) = wanted.iter().find(|h| table.live_mut(h.token()).is_none()) {
            return Err(stale_handle_error(self.rank, dead));
        }
        let deadline = self.clock.deadline(wait);
        loop {
            let answered = wanted.iter().enumerate().find_map(|(i, handle)| {
                let entry = table.live_mut(handle.token())?;
                Some((i, entry.what, entry.reply.take()?))
            });
            if let Some((i, what, reply)) = answered {
                // The reply crossed the work queue in the other direction.
                self.clock
                    .charge(Charge::QueueHop, self.clock.model().queue_hop);
                table.remove(wanted[i]);
                return Ok(Some((i, what, reply)));
            }
            let Some((token, reply)) = table.inbox.recv_until(&self.clock, deadline) else {
                return Ok(None);
            };
            if let Some(entry) = table.live_mut(token) {
                entry.reply = Some(reply);
            }
        }
    }

    /// Block until the request behind `handle` is answered, consuming the
    /// handle — also when the wait times out.
    fn wait_reply(&self, handle: RequestHandle) -> Result<(&'static str, Reply)> {
        let mut table = self.requests.lock().expect("request table");
        match self.receive(&mut table, &[handle], self.request_timeout)? {
            Some((_, what, reply)) => Ok((what, reply)),
            None => Err(self.timeout(table.remove(handle).unwrap_or("wait"))),
        }
    }

    fn timeout(&self, op: &'static str) -> DcgnError {
        DcgnError::Timeout {
            rank: self.rank,
            op,
            waited: self.request_timeout,
        }
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point — the primary data path.  Each i* call
    // files one request in the outstanding-request table and relays it to
    // the communication thread; completion APIs poll or block on the inbox.
    // The comm thread never blocks on the requester: it completes into the
    // (unbounded) inbox whenever a request is done.
    // ------------------------------------------------------------------

    /// Start a nonblocking send of `data` to DCGN rank `dst` (untagged).
    /// The payload is staged immediately, so `data` may be reused as soon as
    /// this returns; the returned handle must eventually be completed with
    /// [`CpuCtx::wait`]/[`CpuCtx::test`] (or abandoned — the runtime drains
    /// abandoned requests at shutdown).
    pub fn isend(&self, dst: usize, data: &[u8]) -> Result<RequestHandle> {
        self.isend_tagged(dst, 0, data)
    }

    /// Start a nonblocking tagged send.
    pub fn isend_tagged(&self, dst: usize, tag: u32, data: &[u8]) -> Result<RequestHandle> {
        self.check_rank(dst)?;
        let data = Payload::copy_from_slice(data);
        self.post(RequestKind::Send { dst, tag, data }, "isend")
    }

    /// Start a nonblocking send to sub-rank `dst` of `comm`.
    pub fn isend_in(
        &self,
        comm: &Comm,
        dst: usize,
        tag: u32,
        data: &[u8],
    ) -> Result<RequestHandle> {
        let global = comm.global_rank(dst).ok_or(DcgnError::InvalidRank(dst))?;
        self.isend_tagged(global, tag, data)
    }

    /// Post a nonblocking receive from DCGN rank `src` (untagged).
    pub fn irecv(&self, src: usize) -> Result<RequestHandle> {
        self.check_rank(src)?;
        self.irecv_tagged(Some(src), 0)
    }

    /// Post a nonblocking receive from any rank (untagged).
    pub fn irecv_any(&self) -> Result<RequestHandle> {
        self.irecv_tagged(None, 0)
    }

    /// Post a nonblocking receive with an explicit source filter and tag.
    pub fn irecv_tagged(&self, src: Option<usize>, tag: u32) -> Result<RequestHandle> {
        self.irecv_filtered(src, Some(tag))
    }

    /// Post a nonblocking receive with wildcard-capable source *and* tag
    /// filters (`None` = any) — the CPU-side mirror of the GPU mailbox's
    /// `ANY_TAG` receives.
    pub fn irecv_filtered(&self, src: Option<usize>, tag: Option<u32>) -> Result<RequestHandle> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.post(RequestKind::Recv { src, tag }, "irecv")
    }

    /// Post a nonblocking receive from sub-rank `src` of `comm` (or any of
    /// its members for `None`).  Note: matching is by global rank, and the
    /// completion's `status.source` is reported as a global rank.
    pub fn irecv_in(&self, comm: &Comm, src: Option<usize>, tag: u32) -> Result<RequestHandle> {
        let global = match src {
            Some(sub) => Some(comm.global_rank(sub).ok_or(DcgnError::InvalidRank(sub))?),
            None => None,
        };
        self.irecv_tagged(global, tag)
    }

    /// Block until the operation behind `handle` completes, consuming the
    /// handle.  Completing a request frees its table slot; waiting on the
    /// same handle twice fails with a clean invalid-argument error.
    pub fn wait(&self, handle: RequestHandle) -> Result<Completion> {
        let (what, reply) = self.wait_reply(handle)?;
        completion_from_reply(reply, what)
    }

    /// Nonblocking completion check.  Returns `Ok(None)` while the operation
    /// is still in flight (the handle stays valid); returns the completion —
    /// consuming the handle — once it is done.
    pub fn test(&self, handle: RequestHandle) -> Result<Option<Completion>> {
        let mut table = self.requests.lock().expect("request table");
        match self.receive(&mut table, &[handle], Duration::ZERO)? {
            Some((_, what, reply)) => completion_from_reply(reply, what).map(Some),
            None => Ok(None),
        }
    }

    /// Wait for every handle, returning the completions in argument order.
    pub fn waitall(&self, handles: &[RequestHandle]) -> Result<Vec<Completion>> {
        handles.iter().map(|&h| self.wait(h)).collect()
    }

    /// Wait until *one* of the handles completes; returns its index within
    /// `handles` and its completion (the other handles stay valid).
    pub fn waitany(&self, handles: &[RequestHandle]) -> Result<(usize, Completion)> {
        if handles.is_empty() {
            return Err(DcgnError::InvalidArgument(
                "waitany needs at least one request handle".into(),
            ));
        }
        let mut table = self.requests.lock().expect("request table");
        match self.receive(&mut table, handles, self.request_timeout)? {
            Some((i, what, reply)) => Ok((i, completion_from_reply(reply, what)?)),
            None => Err(self.timeout("waitany")),
        }
    }

    // ------------------------------------------------------------------
    // Blocking point-to-point — thin `i* + wait` wrappers, so blocking
    // and nonblocking traffic share one data path.
    // ------------------------------------------------------------------

    /// Send `data` to DCGN rank `dst` (untagged, like the paper's
    /// `dcgn::send`).
    pub fn send(&self, dst: usize, data: &[u8]) -> Result<()> {
        self.send_tagged(dst, 0, data)
    }

    /// Send with an explicit tag (extension over the paper's API).
    pub fn send_tagged(&self, dst: usize, tag: u32, data: &[u8]) -> Result<()> {
        let handle = self.isend_tagged(dst, tag, data)?;
        self.wait(handle).map(|_| ())
    }

    /// Receive a message from `src` (untagged).  Returns the payload and a
    /// [`CommStatus`].
    pub fn recv(&self, src: usize) -> Result<(Vec<u8>, CommStatus)> {
        self.check_rank(src)?;
        self.recv_tagged(Some(src), 0)
    }

    /// Receive from any rank (untagged).
    pub fn recv_any(&self) -> Result<(Vec<u8>, CommStatus)> {
        self.recv_tagged(None, 0)
    }

    /// Receive with an explicit source filter and tag (extension API).
    pub fn recv_tagged(&self, src: Option<usize>, tag: u32) -> Result<(Vec<u8>, CommStatus)> {
        let handle = self.irecv_tagged(src, tag)?;
        self.wait(handle)?
            .into_recv()
            .ok_or_else(|| DcgnError::Internal("recv completed as a send".into()))
    }

    /// Exchange buffers with two (possibly identical) partners: send `buf` to
    /// `dst` and replace it with the message received from `src`.  The two
    /// halves are posted together so symmetric exchanges cannot deadlock —
    /// this is the call Cannon's algorithm uses in the paper.
    pub fn sendrecv_replace(
        &self,
        buf: &mut Vec<u8>,
        dst: usize,
        src: usize,
    ) -> Result<CommStatus> {
        self.check_rank(src)?;
        let send = self.isend(dst, buf)?;
        let recv = self.irecv(src)?;
        // Complete the receive first (it carries the replacement payload);
        // an intra-node send finishes only once matched, so its wait must
        // come second.
        let recv_done = self.wait(recv);
        self.wait(send)?;
        let (data, status) = recv_done?
            .into_recv()
            .ok_or_else(|| DcgnError::Internal("recv completed as a send".into()))?;
        *buf = data;
        Ok(status)
    }

    // ------------------------------------------------------------------
    // Collectives — every operation is one relay into the comm thread's
    // generic collective engine plus a shape-check of the result.  The
    // plain methods run over the world; the `*_in` variants take a
    // communicator created with [`CpuCtx::comm_split`], with roots and
    // chunk indexing expressed in that communicator's sub-rank space.
    // ------------------------------------------------------------------

    /// Relay a collective request and return this rank's share of the result.
    fn collective(&self, kind: RequestKind, what: &'static str) -> Result<CollectiveResult> {
        let handle = self.post(kind, what)?;
        match self.wait_reply(handle)?.1 {
            Reply::CollectiveDone(result) => Ok(result),
            Reply::Error(e) => Err(e),
            other => Err(DcgnError::Internal(format!(
                "unexpected reply to {what}: {other:?}"
            ))),
        }
    }

    fn expect_bytes(result: CollectiveResult, what: &'static str) -> Result<Payload> {
        match result {
            CollectiveResult::Bytes(b) => Ok(b),
            other => Err(DcgnError::Internal(format!(
                "unexpected {what} result shape: {other:?}"
            ))),
        }
    }

    /// This rank's handle onto the world communicator.
    pub fn world_comm(&self) -> Comm {
        self.world.clone()
    }

    /// Collectively split the world into subgroups: ranks supplying the same
    /// `color` form a new communicator, ordered by `(key, rank)` — the
    /// `MPI_Comm_split` analogue.  Every rank must call it.
    pub fn comm_split(&self, color: u32, key: u32) -> Result<Comm> {
        self.comm_split_in(&self.world, color, key)
    }

    /// Split an existing communicator further.  Every member of `comm` must
    /// call it; the new group orders ranks by `(key, rank in comm)`.
    pub fn comm_split_in(&self, comm: &Comm, color: u32, key: u32) -> Result<Comm> {
        let result = self.collective(
            RequestKind::Split {
                comm: comm.id(),
                color,
                key,
            },
            "comm_split",
        )?;
        group::decode_comm_info(Self::expect_bytes(result, "comm_split")?.as_slice())
    }

    /// Release this rank's handle on a communicator created with
    /// [`CpuCtx::comm_split`].  Once every member resident on this node has
    /// freed the group, the communication thread evicts it from its
    /// registry; later collectives naming it fail with an unknown-
    /// communicator error.  The world communicator cannot be freed.
    pub fn comm_free(&self, comm: &Comm) -> Result<()> {
        self.collective(RequestKind::CommFree { comm: comm.id() }, "comm_free")?;
        Ok(())
    }

    fn check_comm_root(&self, comm: &Comm, root: usize) -> Result<()> {
        if root >= comm.size() {
            Err(DcgnError::InvalidRank(root))
        } else {
            Ok(())
        }
    }

    /// Barrier across every DCGN rank (CPU threads and GPU slots alike).
    pub fn barrier(&self) -> Result<()> {
        self.barrier_in_id(CommId::WORLD)
    }

    /// Barrier across the members of `comm`.
    pub fn barrier_in(&self, comm: &Comm) -> Result<()> {
        self.barrier_in_id(comm.id())
    }

    fn barrier_in_id(&self, comm: CommId) -> Result<()> {
        self.collective(RequestKind::Barrier { comm }, "barrier")?;
        Ok(())
    }

    /// Broadcast from `root`.  On entry only the root's `data` matters; on
    /// return every rank's `data` holds the root's bytes.
    pub fn broadcast(&self, root: usize, data: &mut Vec<u8>) -> Result<()> {
        self.check_rank(root)?;
        self.broadcast_in(&self.world, root, data)
    }

    /// Broadcast within `comm` from sub-rank `root`.
    pub fn broadcast_in(&self, comm: &Comm, root: usize, data: &mut Vec<u8>) -> Result<()> {
        self.check_comm_root(comm, root)?;
        let payload = if comm.rank() == root {
            Some(Payload::from_vec(std::mem::take(data)))
        } else {
            None
        };
        let result = self.collective(
            RequestKind::Broadcast {
                comm: comm.id(),
                root,
                data: payload,
            },
            "broadcast",
        )?;
        *data = Self::expect_bytes(result, "broadcast")?.into_vec();
        Ok(())
    }

    /// Gather every rank's `data` at `root`.  Returns `Some(chunks)` indexed
    /// by rank at the root and `None` elsewhere.
    pub fn gather(&self, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.check_rank(root)?;
        self.gather_in(&self.world, root, data)
    }

    /// Gather within `comm` at sub-rank `root`; the root's chunk table is
    /// indexed by sub-rank.
    pub fn gather_in(&self, comm: &Comm, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.check_comm_root(comm, root)?;
        match self.collective(
            RequestKind::Gather {
                comm: comm.id(),
                root,
                data: Payload::copy_from_slice(data),
            },
            "gather",
        )? {
            CollectiveResult::Chunks(chunks) => {
                Ok(Some(chunks.into_iter().map(Payload::into_vec).collect()))
            }
            CollectiveResult::Unit => Ok(None),
            other => Err(DcgnError::Internal(format!(
                "unexpected gather result shape: {other:?}"
            ))),
        }
    }

    /// Scatter per-rank chunks from `root`.  The root passes `Some(chunks)`
    /// with exactly one chunk per rank; every other rank passes `None`.
    /// Every rank (the root included) receives its own chunk.
    pub fn scatter(&self, root: usize, chunks: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        self.check_rank(root)?;
        self.scatter_in(&self.world, root, chunks)
    }

    /// Scatter within `comm` from sub-rank `root`; the root supplies one
    /// chunk per member in sub-rank order.
    pub fn scatter_in(
        &self,
        comm: &Comm,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> Result<Vec<u8>> {
        self.check_comm_root(comm, root)?;
        let payload = if comm.rank() == root {
            let chunks = chunks.ok_or_else(|| {
                DcgnError::InvalidArgument("scatter root must supply chunks".into())
            })?;
            if chunks.len() != comm.size() {
                return Err(DcgnError::InvalidArgument(format!(
                    "scatter needs {} chunks, got {}",
                    comm.size(),
                    chunks.len()
                )));
            }
            Some(
                chunks
                    .iter()
                    .map(|c| Payload::copy_from_slice(c))
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };
        let result = self.collective(
            RequestKind::Scatter {
                comm: comm.id(),
                root,
                chunks: payload,
            },
            "scatter",
        )?;
        Ok(Self::expect_bytes(result, "scatter")?.into_vec())
    }

    /// Allgather: contribute `data` and receive every rank's contribution,
    /// indexed by rank.
    pub fn allgather(&self, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.allgather_in(&self.world, data)
    }

    /// Allgather within `comm`; the result is indexed by sub-rank.
    pub fn allgather_in(&self, comm: &Comm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        match self.collective(
            RequestKind::Allgather {
                comm: comm.id(),
                data: Payload::copy_from_slice(data),
            },
            "allgather",
        )? {
            CollectiveResult::Chunks(chunks) => {
                Ok(chunks.into_iter().map(Payload::into_vec).collect())
            }
            other => Err(DcgnError::Internal(format!(
                "unexpected allgather result shape: {other:?}"
            ))),
        }
    }

    /// Element-wise reduction of every rank's `data` to `root`.  All ranks
    /// must contribute vectors of the same length.  Returns `Some(result)`
    /// at the root and `None` elsewhere.
    pub fn reduce(&self, root: usize, data: &[f64], op: ReduceOp) -> Result<Option<Vec<f64>>> {
        self.reduce_t(root, data, op)
    }

    /// Element-wise reduction within `comm` to sub-rank `root`.
    pub fn reduce_in(
        &self,
        comm: &Comm,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        self.reduce_t_in(comm, root, data, op)
    }

    /// Typed element-wise reduction to `root` over any supported element
    /// type (`f64`, `f32`, `u32`, `i64`).  All ranks of one reduction must
    /// agree on the element type — a mismatch is a collective mismatch.
    pub fn reduce_t<T: ReduceElement>(
        &self,
        root: usize,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        self.check_rank(root)?;
        self.reduce_t_in(&self.world, root, data, op)
    }

    /// Typed element-wise reduction within `comm` to sub-rank `root`.
    pub fn reduce_t_in<T: ReduceElement>(
        &self,
        comm: &Comm,
        root: usize,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        self.check_comm_root(comm, root)?;
        match self.collective(
            RequestKind::Reduce {
                comm: comm.id(),
                root,
                data: Payload::from_vec(T::slice_to_bytes(data)),
                op,
                dtype: T::DTYPE,
            },
            "reduce",
        )? {
            CollectiveResult::Bytes(bytes) => Ok(Some(T::vec_from_bytes(bytes.as_slice()))),
            CollectiveResult::Unit => Ok(None),
            other => Err(DcgnError::Internal(format!(
                "unexpected reduce result shape: {other:?}"
            ))),
        }
    }

    /// Element-wise reduction where every rank receives the result.
    pub fn allreduce(&self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        self.allreduce_t(data, op)
    }

    /// Element-wise reduction within `comm` delivered to every member.
    pub fn allreduce_in(&self, comm: &Comm, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        self.allreduce_t_in(comm, data, op)
    }

    /// Typed element-wise reduction delivered to every rank.
    pub fn allreduce_t<T: ReduceElement>(&self, data: &[T], op: ReduceOp) -> Result<Vec<T>> {
        self.allreduce_t_in(&self.world, data, op)
    }

    /// Typed element-wise reduction within `comm` delivered to every member.
    pub fn allreduce_t_in<T: ReduceElement>(
        &self,
        comm: &Comm,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Vec<T>> {
        let result = self.collective(
            RequestKind::Allreduce {
                comm: comm.id(),
                data: Payload::from_vec(T::slice_to_bytes(data)),
                op,
                dtype: T::DTYPE,
            },
            "allreduce",
        )?;
        Ok(T::vec_from_bytes(
            Self::expect_bytes(result, "allreduce")?.as_slice(),
        ))
    }
}

/// The clean failure for a handle that is stale (already completed, or never
/// issued by this rank).
fn stale_handle_error(rank: usize, handle: RequestHandle) -> DcgnError {
    DcgnError::InvalidArgument(format!(
        "rank {rank}: request handle {}.{} is not outstanding \
         (already completed, or not issued by this rank)",
        handle.index, handle.gen
    ))
}

/// Translate a comm-thread reply into the public [`Completion`].
fn completion_from_reply(reply: Reply, what: &'static str) -> Result<Completion> {
    match reply {
        Reply::SendDone => Ok(Completion::Send),
        Reply::RecvDone { data, status } => Ok(Completion::Recv {
            data: data.into_vec(),
            status,
        }),
        Reply::Error(e) => Err(e),
        other => Err(DcgnError::Internal(format!(
            "unexpected reply to {what}: {other:?}"
        ))),
    }
}

impl std::fmt::Debug for CpuCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuCtx")
            .field("rank", &self.rank)
            .field("size", &self.rank_map.total_ranks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DcgnConfig;
    use crossbeam::channel::{unbounded, Receiver};
    use dcgn_simtime::CostModel;
    use std::time::Instant;

    /// Rank 0's context wired to a plain channel standing in for the comm
    /// thread.
    fn test_ctx(request_timeout: Duration) -> (CpuCtx, Receiver<CommCommand>) {
        let rank_map = Arc::new(RankMap::new(&DcgnConfig::homogeneous(1, 2, 0, 0)));
        let (work_tx, work_rx) = unbounded();
        let metrics = dcgn_metrics::MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let ctx = CpuCtx::new(0, rank_map, work_tx, clock, request_timeout, metrics);
        (ctx, work_rx)
    }

    fn next_request(work_rx: &Receiver<CommCommand>) -> Request {
        match work_rx.try_recv() {
            Ok(CommCommand::Request(request)) => request,
            other => panic!("expected one Request, got {other:?}"),
        }
    }

    #[test]
    fn a_request_whose_comm_thread_is_gone_is_answered_shutting_down_at_once() {
        let request_timeout = Duration::from_secs(60);
        let (ctx, work_rx) = test_ctx(request_timeout);
        let started = Instant::now();
        // The comm thread exits with the request in hand ...
        let held = ctx.irecv(1).unwrap();
        drop(next_request(&work_rx));
        assert!(matches!(ctx.wait(held), Err(DcgnError::ShuttingDown)));
        // ... or with it still queued (`wait` and `test` agree) ...
        let queued = [ctx.irecv(1).unwrap(), ctx.isend(1, &[7]).unwrap()];
        drop(work_rx);
        assert!(matches!(ctx.wait(queued[0]), Err(DcgnError::ShuttingDown)));
        assert!(matches!(ctx.test(queued[1]), Err(DcgnError::ShuttingDown)));
        // ... or is gone before the request is posted.
        assert!(matches!(ctx.irecv(1), Err(DcgnError::ShuttingDown)));
        assert!(matches!(ctx.barrier(), Err(DcgnError::ShuttingDown)));
        assert!(started.elapsed() < request_timeout / 2);
    }

    #[test]
    fn a_late_reply_to_a_timed_out_wait_is_discarded_by_generation() {
        let (ctx, work_rx) = test_ctx(Duration::from_millis(20));
        let timed_out = ctx.irecv(1).unwrap();
        let late = next_request(&work_rx);
        assert!(matches!(
            ctx.wait(timed_out),
            Err(DcgnError::Timeout { op: "irecv", .. })
        ));
        // The timed-out wait freed its table slot; the next request reuses it
        // under a new generation.
        let reused = ctx.isend(1, &[1]).unwrap();
        assert_eq!(reused.index, timed_out.index);
        assert_ne!(reused.gen, timed_out.gen);
        late.reply_to.complete(Reply::RecvDone {
            data: Payload::copy_from_slice(&[9]),
            status: CommStatus {
                source: 1,
                tag: 0,
                len: 1,
            },
        });
        assert!(matches!(ctx.test(reused), Ok(None)));
        assert!(ctx.wait(timed_out).is_err(), "the old handle stays dead");
        next_request(&work_rx).reply_to.complete(Reply::SendDone);
        assert!(ctx.wait(reused).unwrap().is_send());
    }

    #[test]
    fn waitany_returns_the_answered_handle_and_leaves_the_others_outstanding() {
        let (ctx, work_rx) = test_ctx(Duration::from_secs(60));
        let handles = [ctx.irecv(1).unwrap(), ctx.isend(1, &[2]).unwrap()];
        let (_unanswered, send) = (next_request(&work_rx), next_request(&work_rx));
        send.reply_to.complete(Reply::SendDone);
        let (index, done) = ctx.waitany(&handles).unwrap();
        assert!(index == 1 && done.is_send());
        assert!(matches!(ctx.test(handles[0]), Ok(None)));
        assert!(ctx.waitany(&handles).is_err(), "handle 1 is consumed");
    }

    /// One event of the `ReplyTo`/`Inbox` walk.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Event {
        /// The comm thread answers the request: completes or drops it.
        Answer(usize),
        /// The kernel waits on the request, with no time to spare: a wait
        /// the answer has not reached times out.
        Wait(usize),
        /// The kernel posts one more request, reusing a freed table slot.
        Reuse,
        /// The comm thread completes that request.
        AnswerReused,
    }

    /// Every order of `events` in which `Reuse` precedes `AnswerReused`.
    fn orders(events: &[Event]) -> Vec<Vec<Event>> {
        if events.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, &first) in events.iter().enumerate() {
            if first == Event::AnswerReused && events.contains(&Event::Reuse) {
                continue;
            }
            let mut rest = events.to_vec();
            rest.remove(i);
            for mut order in orders(&rest) {
                order.insert(0, first);
                out.push(order);
            }
        }
        out
    }

    /// Replay one order of the walk over two requests, `drops[r]` saying
    /// whether request `r` is dropped rather than completed.
    fn walk_replies(order: &[Event], drops: [bool; 2]) {
        let (ctx, work_rx) = test_ctx(Duration::ZERO);
        let reply = |r: usize| Reply::RecvDone {
            data: Payload::copy_from_slice(&[r as u8]),
            status: CommStatus {
                source: 1,
                tag: 0,
                len: 1,
            },
        };
        let handles = [ctx.irecv(1).unwrap(), ctx.irecv(1).unwrap()];
        let mut reply_tos = [0, 1].map(|_| Some(next_request(&work_rx).reply_to));
        let mut reused = None;
        let mut reused_reply_to = None;
        let mut answered = [false; 2];
        for &event in order {
            match event {
                Event::Answer(r) => {
                    let reply_to = reply_tos[r].take().expect("answered once");
                    if drops[r] {
                        drop(reply_to);
                    } else {
                        reply_to.complete(reply(r));
                    }
                    answered[r] = true;
                }
                Event::Wait(r) => match (ctx.wait(handles[r]), answered[r], drops[r]) {
                    (Err(DcgnError::Timeout { .. }), false, _) => {}
                    (Err(DcgnError::ShuttingDown), true, true) => {}
                    (Ok(Completion::Recv { data, .. }), true, false) => assert_eq!(data, [r as u8]),
                    (got, ..) => panic!("{order:?}, {drops:?}: request {r} got {got:?}"),
                },
                Event::Reuse => {
                    reused = Some(ctx.irecv(1).unwrap());
                    reused_reply_to = Some(next_request(&work_rx).reply_to);
                }
                Event::AnswerReused => reused_reply_to.take().unwrap().complete(reply(2)),
            }
        }
        // The slot's next tenant gets its own answer, never a late one to
        // the handle it replaced; every handle was answered exactly once.
        let reused = reused.unwrap();
        match ctx.wait(reused) {
            Ok(Completion::Recv { data, .. }) => assert_eq!(data, [2], "{order:?}, {drops:?}"),
            other => panic!("{order:?}, {drops:?}: the reused slot got {other:?}"),
        }
        for handle in [handles[0], handles[1], reused] {
            assert!(matches!(
                ctx.wait(handle),
                Err(DcgnError::InvalidArgument(_))
            ));
        }
        let table = ctx.requests.lock().unwrap();
        assert!(
            table.slots.iter().all(Option::is_none),
            "the table ends empty"
        );
    }

    /// Every order of {answer, wait} on two requests, each answer a
    /// completion or a drop and each wait a timeout unless the answer came
    /// first, interleaved with a third request that reuses a freed table
    /// slot and is answered in turn.
    #[test]
    fn every_order_of_replies_and_waits_answers_each_request_once() {
        let started = Instant::now();
        let events = [
            Event::Answer(0),
            Event::Answer(1),
            Event::Wait(0),
            Event::Wait(1),
            Event::Reuse,
            Event::AnswerReused,
        ];
        let mut walked = 0;
        for order in orders(&events) {
            for drops in [[false, false], [false, true], [true, false], [true, true]] {
                walk_replies(&order, drops);
                walked += 1;
            }
        }
        println!("reply walk: {walked} orders in {:?}", started.elapsed());
        assert_eq!(walked, 360 * 4);
    }

    #[test]
    fn cpu_ctx_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CpuCtx>();
    }
}
