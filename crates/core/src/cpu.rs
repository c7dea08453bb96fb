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
//! calls are thin `i* + wait` wrappers, so there is exactly one data path.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use dcgn_netsim::Payload;
use dcgn_rmpi::{ReduceElement, ReduceOp};
use dcgn_simtime::CostModel;

use crate::error::{DcgnError, Result};
use crate::group::{self, Comm, CommId};
use crate::message::{
    CollectiveResult, CommCommand, CommStatus, CompletionEvent, Reply, Request, RequestKind,
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

/// One outstanding request: the reply channel the communication thread will
/// complete through, plus bookkeeping for diagnostics.
struct PendingReq {
    gen: u32,
    what: &'static str,
    rx: Receiver<Reply>,
}

/// The slot-local outstanding-request table behind [`RequestHandle`]s.
#[derive(Default)]
struct RequestTable {
    slots: Vec<Option<PendingReq>>,
    free: Vec<u32>,
    next_gen: u32,
}

impl RequestTable {
    fn insert(&mut self, what: &'static str, rx: Receiver<Reply>) -> RequestHandle {
        self.next_gen = self.next_gen.wrapping_add(1);
        let gen = self.next_gen;
        let entry = PendingReq { gen, what, rx };
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
        RequestHandle { index, gen }
    }

    /// Remove and return the entry behind a live handle (frees its slot).
    fn take(&mut self, handle: RequestHandle) -> Option<PendingReq> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.as_ref().is_some_and(|e| e.gen == handle.gen) {
            self.free.push(handle.index);
            slot.take()
        } else {
            None
        }
    }

    fn is_live(&self, handle: RequestHandle) -> bool {
        self.slots
            .get(handle.index as usize)
            .and_then(Option::as_ref)
            .is_some_and(|e| e.gen == handle.gen)
    }
}

/// Execution context of one CPU-kernel thread (one DCGN rank).
pub struct CpuCtx {
    rank: usize,
    rank_map: Arc<RankMap>,
    work_tx: Sender<CommCommand>,
    cost: CostModel,
    request_timeout: Duration,
    /// This node's comm-thread completion counter: `waitany` sleeps on it
    /// between handle sweeps instead of polling on a fixed interval.
    completion: Arc<CompletionEvent>,
    /// Built once so the world-collective wrappers don't allocate a member
    /// table per call.
    world: Comm,
    /// The runtime's metrics registry, for point-in-time snapshots.
    metrics: dcgn_metrics::MetricsHandle,
    /// Outstanding nonblocking requests.  A mutex only because `CpuCtx` is
    /// handed out by shared reference; a kernel drives its context from one
    /// thread, so the lock is never contended.
    requests: Mutex<RequestTable>,
}

impl CpuCtx {
    pub(crate) fn new(
        rank: usize,
        rank_map: Arc<RankMap>,
        work_tx: Sender<CommCommand>,
        cost: CostModel,
        request_timeout: Duration,
        completion: Arc<CompletionEvent>,
        metrics: dcgn_metrics::MetricsHandle,
    ) -> Self {
        let world = Comm::world(rank, rank_map.total_ranks());
        CpuCtx {
            rank,
            rank_map,
            work_tx,
            cost,
            request_timeout,
            completion,
            metrics,
            world,
            requests: Mutex::new(RequestTable::default()),
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

    /// Relay a request to the communication thread and return the reply
    /// channel without waiting.
    fn post(&self, kind: RequestKind) -> Result<Receiver<Reply>> {
        let (reply_tx, reply_rx) = bounded(1);
        // Crossing the thread-safe work queue is one of the overheads the
        // paper measures; charge it explicitly.
        self.cost.charge_queue_hop();
        self.work_tx
            .send(CommCommand::Request(Request {
                src_rank: self.rank,
                kind,
                reply_tx,
            }))
            .map_err(|_| DcgnError::ShuttingDown)?;
        Ok(reply_rx)
    }

    fn wait_reply(&self, reply_rx: &Receiver<Reply>, what: &'static str) -> Result<Reply> {
        // The reply crosses the work queue in the other direction.
        match reply_rx.recv_timeout(self.request_timeout) {
            Ok(reply) => {
                self.cost.charge_queue_hop();
                Ok(reply)
            }
            Err(_) => Err(self.timeout(what)),
        }
    }

    fn timeout(&self, op: &'static str) -> DcgnError {
        DcgnError::Timeout {
            rank: self.rank,
            op,
            waited: self.request_timeout,
        }
    }

    fn post_and_wait(&self, kind: RequestKind, what: &'static str) -> Result<Reply> {
        let rx = self.post(kind)?;
        self.wait_reply(&rx, what)
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point — the primary data path.  Each i* call
    // relays one request to the communication thread and files the reply
    // channel in the outstanding-request table; completion APIs poll or
    // block on that channel.  The comm thread never blocks the requester:
    // it writes completions into the (buffered) reply channel whenever
    // they occur.
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
        let rx = self.post(RequestKind::Send {
            dst,
            tag,
            data: Payload::copy_from_slice(data),
        })?;
        Ok(self
            .requests
            .lock()
            .expect("request table")
            .insert("isend", rx))
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
        let rx = self.post(RequestKind::Recv { src, tag })?;
        Ok(self
            .requests
            .lock()
            .expect("request table")
            .insert("irecv", rx))
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

    /// Remove a live table entry, or explain why the handle is dead.
    fn take_request(&self, handle: RequestHandle) -> Result<PendingReq> {
        self.requests
            .lock()
            .expect("request table")
            .take(handle)
            .ok_or_else(|| stale_handle_error(self.rank, handle))
    }

    /// Block until the operation behind `handle` completes, consuming the
    /// handle.  Completing a request frees its table slot; waiting on the
    /// same handle twice fails with a clean invalid-argument error.
    pub fn wait(&self, handle: RequestHandle) -> Result<Completion> {
        let entry = self.take_request(handle)?;
        let reply = self.wait_reply(&entry.rx, entry.what)?;
        completion_from_reply(reply, entry.what)
    }

    /// Nonblocking completion check.  Returns `Ok(None)` while the operation
    /// is still in flight (the handle stays valid); returns the completion —
    /// consuming the handle — once it is done.
    pub fn test(&self, handle: RequestHandle) -> Result<Option<Completion>> {
        let mut table = self.requests.lock().expect("request table");
        let entry = match table
            .slots
            .get(handle.index as usize)
            .and_then(Option::as_ref)
        {
            Some(e) if e.gen == handle.gen => e,
            _ => return Err(stale_handle_error(self.rank, handle)),
        };
        match entry.rx.try_recv() {
            Ok(reply) => {
                self.cost.charge_queue_hop();
                let what = entry.what;
                table.take(handle);
                drop(table);
                completion_from_reply(reply, what).map(Some)
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                table.take(handle);
                Err(DcgnError::ShuttingDown)
            }
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
        {
            let table = self.requests.lock().expect("request table");
            for &h in handles {
                if !table.is_live(h) {
                    return Err(stale_handle_error(self.rank, h));
                }
            }
        }
        let deadline = Instant::now() + self.request_timeout;
        loop {
            // Read the completion counter *before* sweeping: a completion
            // that lands mid-sweep bumps the counter past `seen`, so the
            // wait below returns immediately instead of losing the wakeup.
            let seen = self.completion.tick();
            for (i, &h) in handles.iter().enumerate() {
                if let Some(done) = self.test(h)? {
                    return Ok((i, done));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.timeout("waitany"));
            }
            // No completion yet: sleep until the comm thread signals one
            // (bounded so a missed edge degrades to a periodic re-sweep).
            let remaining = deadline - now;
            self.completion
                .wait_past(seen, remaining.min(Duration::from_millis(1)));
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
        match self.post_and_wait(kind, what)? {
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
