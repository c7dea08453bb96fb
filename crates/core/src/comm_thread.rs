//! The per-process communication thread.
//!
//! Exactly one of these runs per DCGN process (per node).  It is the only
//! thread that touches the MPI substrate — mirroring the paper's design for
//! coping with non-thread-safe MPI implementations — and it services the
//! work queue that CPU-kernel threads and GPU-kernel threads funnel their
//! communication requests into.
//!
//! This file is the service loop and the two things it does itself:
//! point-to-point traffic (matched on arrival by the [`Matcher`]) and the
//! per-communicator *join* of collectives.  Collectives are keyed by
//! communicator ([`CommId`]): every group assembles independently in its own
//! [`CollectiveAssembly`], so two communicators can execute collectives
//! concurrently.  The moment a group's local members have all joined, the
//! assembly is handed to the exchange [`Engine`] (`exchange/`), which runs
//! **every** cross-node collective — the world included — under one of its
//! plans and replies to the joined ranks.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use dcgn_metrics::{Counter, Gauge, MetricsHandle};
use dcgn_netsim::Payload;
use dcgn_rmpi::{Communicator, Request as MpiRequest, TAG_EXCHANGE};
use dcgn_simtime::{Charge, Clock};

use crate::config::ExchangePlan;
use crate::error::{DcgnError, Result};
use crate::exchange::{classify_collective, CollectiveAssembly, Contribution, Engine};
use crate::group::{CommGroup, CommId};
use crate::matcher::{IncomingMsg, Matcher, PendingRecv};
use crate::message::{
    decode_p2p, frame_p2p, CollectiveResult, CommCommand, CommStatus, Reply, ReplyTo, Request,
    RequestKind,
};
use crate::rank::RankMap;

/// Fallback bound on the idle wait.  Correctness does not depend on it: the
/// fabric's delivery notifier rings the work queue whenever an inter-node
/// message lands, so the comm thread is woken *by event* for both local
/// requests and substrate traffic.  The timeout only caps how stale the loop
/// can get if a wake is somehow missed.
const IDLE_FALLBACK: Duration = Duration::from_millis(1);

/// The MPI substrate as the comm thread drives it: the node's communicator
/// plus the nonblocking sends it has not yet seen complete.
pub(crate) struct Substrate {
    comm: Communicator,
    outstanding_isends: Vec<MpiRequest>,
}

impl Substrate {
    /// Start a nonblocking send and track it until [`Substrate::reap`]
    /// retires it.
    pub(crate) fn isend(&mut self, dst: usize, tag: u32, data: impl Into<Payload>) -> Result<()> {
        let req = self.comm.isend(dst, tag, data)?;
        self.outstanding_isends.push(req);
        Ok(())
    }

    /// Keep one persistent receive for `tag` (`None`: the point-to-point
    /// catch-all) posted in `slot`; if a frame has landed on it, take the
    /// frame and its source rank — one MPI rank per node, so the source *is*
    /// the sending node.
    fn poll(
        &mut self,
        slot: &mut Option<MpiRequest>,
        tag: Option<u32>,
    ) -> Result<Option<(Payload, usize)>> {
        let req = match *slot {
            Some(req) => req,
            None => *slot.insert(self.comm.irecv(None, tag)?),
        };
        if !self.comm.test(req)? {
            return Ok(None);
        }
        *slot = None;
        let (wire, status) = self
            .comm
            .take_recv(req)
            .ok_or_else(|| DcgnError::Internal("completed receive vanished".into()))?;
        Ok(Some((wire, status.source)))
    }

    /// Retire completed nonblocking sends.
    fn reap(&mut self) -> Result<()> {
        let mut i = 0;
        while i < self.outstanding_isends.len() {
            let req = self.outstanding_isends[i];
            if self.comm.test(req)? {
                self.comm.wait_send(req)?;
                self.outstanding_isends.swap_remove(i);
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

/// This node's comm-thread instruments in the unified metrics registry (the
/// exchange engine registers its own).
struct CommThreadMetrics {
    /// `comm.requests.node{N}` — kernel requests dispatched.
    requests: Counter,
    /// `comm.queue_depth.node{N}` — work-queue backlog sampled per loop
    /// iteration (the high-water mark is the interesting read).
    queue_depth: Gauge,
    /// `comm.matcher.pending_recvs.node{N}` — receives waiting for a match.
    pending_recvs: Gauge,
    /// `comm.matcher.unexpected_msgs.node{N}` — messages queued unmatched.
    unexpected_msgs: Gauge,
}

/// State and main loop of one node's communication thread.
pub(crate) struct CommThread {
    node: usize,
    rank_map: Arc<RankMap>,
    net: Substrate,
    work_rx: Receiver<CommCommand>,
    clock: Clock,

    /// Persistent wildcard receive for inter-node point-to-point frames.
    catchall: Option<MpiRequest>,
    /// Persistent receive for exchange frames ([`TAG_EXCHANGE`]); completed
    /// frames are handed to the [`Engine`], which demultiplexes them by the
    /// exact key inside the frame.
    exchange_recv: Option<MpiRequest>,
    /// Indexed point-to-point matcher (messages and receives).
    matcher: Matcher,
    /// Per-communicator collective assemblies, keyed so independent groups
    /// assemble concurrently.
    active: HashMap<CommId, CollectiveAssembly>,
    /// The communicator registry and every exchange in flight across nodes.
    engine: Engine,
    local_done: bool,
    metrics: CommThreadMetrics,
}

impl CommThread {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: usize,
        rank_map: Arc<RankMap>,
        comm: Communicator,
        work_rx: Receiver<CommCommand>,
        work_tx: Sender<CommCommand>,
        clock: Clock,
        forced_plan: Option<ExchangePlan>,
        metrics: &MetricsHandle,
    ) -> Self {
        // Ring our own work queue whenever the fabric queues a delivery for
        // this node, so the idle wait below is woken by event for substrate
        // traffic exactly like it is for local kernel requests.
        comm.set_wake_notifier(Arc::new(move || {
            let _ = work_tx.send(CommCommand::Wake);
        }));
        let counter = |name: &str| metrics.counter(&format!("{name}.node{node}"));
        let gauge = |name: &str| metrics.gauge(&format!("{name}.node{node}"));
        let matcher =
            Matcher::new(metrics.histogram(&format!("comm.matcher.wildcard_scan.node{node}")));
        CommThread {
            node,
            engine: Engine::new(node, Arc::clone(&rank_map), &clock, forced_plan, metrics),
            rank_map,
            net: Substrate {
                comm,
                outstanding_isends: Vec::new(),
            },
            work_rx,
            clock,
            catchall: None,
            exchange_recv: None,
            matcher,
            active: HashMap::new(),
            local_done: false,
            metrics: CommThreadMetrics {
                requests: counter("comm.requests"),
                queue_depth: gauge("comm.queue_depth"),
                pending_recvs: gauge("comm.matcher.pending_recvs"),
                unexpected_msgs: gauge("comm.matcher.unexpected_msgs"),
            },
        }
    }

    /// Main service loop.  Returns when all local kernels are done and no
    /// work remains.
    pub(crate) fn run(&mut self) -> Result<()> {
        loop {
            let mut did_work = false;

            // 1. Drain the local work queue (a collective's exchange starts
            //    at the join that completes its assembly).  The backlog
            //    sampled before the drain is the queue-depth gauge's
            //    observation point (its high-water mark survives in the
            //    metrics snapshot).
            self.metrics.queue_depth.set(self.work_rx.len() as u64);
            while let Ok(cmd) = self.work_rx.try_recv() {
                self.handle_command(cmd)?;
                did_work = true;
            }

            // 2. Progress the MPI substrate: harvest inter-node
            //    point-to-point messages and exchange frames (each is
            //    matched / demultiplexed on arrival, so there is no separate
            //    matching pass).
            did_work |= self.progress_mpi()?;

            // 3. Retire completed nonblocking sends.
            self.net.reap()?;

            self.metrics
                .pending_recvs
                .set(self.matcher.pending_recvs() as u64);
            self.metrics
                .unexpected_msgs
                .set(self.matcher.queued_msgs() as u64);
            self.engine.sample_gauges();

            // 4. Shut down when the process is quiescent.
            if self.local_done
                && self.matcher.pending_recvs() == 0
                && self.active.is_empty()
                && self.engine.is_idle()
                && self.net.outstanding_isends.is_empty()
            {
                // Synchronise teardown across nodes so no peer is left
                // mid-transfer when this communicator goes away.  Every node
                // reaches this point (erroneous collectives error out
                // instead of blocking), so the quiesce cannot hang.
                self.net.comm.barrier()?;
                return Ok(());
            }

            // 5. Idle: block on the work queue.  Local kernel requests land
            //    here directly and fabric deliveries ring it via the wake
            //    notifier, so this is an event wait; the timeout is only a
            //    safety net.
            if !did_work {
                let idle = self.clock.deadline(IDLE_FALLBACK);
                match self.clock.recv_until(&self.work_rx, idle) {
                    Ok(cmd) => self.handle_command(cmd)?,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        // The runtime dropped its handles; treat it as a
                        // shutdown signal so panicked launches still unwind.
                        self.local_done = true;
                    }
                }
            }
        }
    }

    fn handle_command(&mut self, cmd: CommCommand) -> Result<()> {
        match cmd {
            CommCommand::Wake => Ok(()),
            CommCommand::LocalKernelsDone => {
                self.local_done = true;
                // Every local kernel thread has returned, so nobody is left
                // to join a half-assembled collective or to consume an
                // unmatched receive; drop them now — every dropped request is
                // answered `ShuttingDown` — so shutdown cannot hang.
                self.active.clear();
                self.engine.shutdown();
                self.matcher.drain_recvs();
                Ok(())
            }
            // Receiving a command costs one hop through the thread-safe
            // queue — a whole GPU-sweep batch pays it once, not per request.
            CommCommand::Request(req) => {
                self.clock
                    .charge(Charge::QueueHop, self.clock.model().queue_hop);
                self.dispatch_request(req)
            }
            CommCommand::Batch(reqs) => {
                self.clock
                    .charge(Charge::QueueHop, self.clock.model().queue_hop);
                for req in reqs {
                    self.dispatch_request(req)?;
                }
                Ok(())
            }
        }
    }

    fn dispatch_request(&mut self, req: Request) -> Result<()> {
        self.metrics.requests.inc();
        if req.kind.is_collective() {
            return self.join_collective(req);
        }
        match req.kind {
            RequestKind::Send { dst, tag, data } => {
                self.handle_send(req.src_rank, dst, tag, data, req.reply_to)
            }
            RequestKind::Recv { src, tag } => {
                let recv = PendingRecv {
                    dst_rank: req.src_rank,
                    src,
                    tag,
                    reply_to: req.reply_to,
                    seq: self.matcher.stamp(),
                };
                match self.matcher.take_msg_for(&recv) {
                    Some(msg) => self.deliver_match(msg, recv),
                    None => self.matcher.push_recv(recv),
                }
                Ok(())
            }
            RequestKind::CommFree { comm } => {
                let reply = match self.free_comm(req.src_rank, comm) {
                    Ok(()) => Reply::CollectiveDone(CollectiveResult::Unit),
                    Err(e) => Reply::Error(e),
                };
                req.reply_to.complete(reply);
                Ok(())
            }
            _ => unreachable!("collectives handled above"),
        }
    }

    fn handle_send(
        &mut self,
        src: usize,
        dst: usize,
        tag: u32,
        data: Payload,
        reply_to: ReplyTo,
    ) -> Result<()> {
        let Some(dst_node) = self.rank_map.node_of(dst) else {
            reply_to.complete(Reply::Error(DcgnError::InvalidRank(dst)));
            return Ok(());
        };
        if dst_node == self.node {
            // Intra-node: no MPI involvement.  The message is held until a
            // local receive matches it; the sender's completion is deferred
            // until then (globally-synchronised intra-node semantics, §6.2).
            self.route_incoming(src, dst, tag, data, Some(reply_to));
        } else {
            // Inter-node: append the DCGN envelope in the staged buffer's
            // spare capacity (no body copy) and hand that frame to MPI.  The
            // MPI tag is the destination DCGN rank, which keeps messages for
            // different local ranks separable on the receiving node.
            let wire = frame_p2p(src, dst, tag, data);
            self.net.isend(dst_node, dst as u32, wire)?;
            // Remote sends complete once the data is handed to the MPI layer
            // (buffered-send semantics).
            reply_to.complete(Reply::SendDone);
        }
        Ok(())
    }

    /// Match a freshly arrived (or locally sourced, `local_sender`) message
    /// immediately, or queue it for a later receive.
    fn route_incoming(
        &mut self,
        src: usize,
        dst: usize,
        tag: u32,
        data: Payload,
        local_sender: Option<ReplyTo>,
    ) {
        let msg = IncomingMsg {
            src,
            dst,
            tag,
            data,
            local_sender,
            seq: self.matcher.stamp(),
        };
        match self.matcher.take_recv_for(msg.dst, msg.src, msg.tag) {
            Some(recv) => self.deliver_match(msg, recv),
            None => self.matcher.push_msg(msg),
        }
    }

    /// Complete a matched (message, receive) pair: the receiver gets the
    /// payload (a shared reference, not a copy) and an intra-node sender's
    /// deferred completion fires.
    fn deliver_match(&mut self, msg: IncomingMsg, recv: PendingRecv) {
        // The local copy from the sender's buffer to the receiver's buffer
        // (or staging buffer, for GPU-bound data).
        let copy = self.clock.model().intra_node.transfer_time(msg.data.len());
        self.clock.charge(Charge::IntraNode, copy);
        let status = CommStatus {
            source: msg.src,
            tag: msg.tag,
            len: msg.data.len(),
        };
        recv.reply_to.complete(Reply::RecvDone {
            data: msg.data,
            status,
        });
        if let Some(sender) = msg.local_sender {
            sender.complete(Reply::SendDone);
        }
    }

    /// The group of `comm`, provided `src_rank` is a member of it that has
    /// not freed its handle.
    fn member_group(&mut self, src_rank: usize, comm: CommId) -> Result<&mut CommGroup> {
        let invalid = |msg: String| Err(DcgnError::InvalidArgument(msg));
        let node = self.node;
        let Ok(group) = self.engine.group_mut(comm) else {
            return invalid(format!("unknown communicator {comm} on node {node}"));
        };
        if group.sub_of(src_rank).is_none() {
            return invalid(format!(
                "rank {src_rank} is not a member of communicator {comm}"
            ));
        }
        if group.freed.contains(&src_rank) {
            // Use-after-free is an error immediately, not only once every
            // local member has freed and the group is evicted.
            return invalid(format!("rank {src_rank} already freed communicator {comm}"));
        }
        Ok(group)
    }

    /// Release one rank's handle on a communicator; evict the group once
    /// every local member has freed it (the cross-node analogue needs no
    /// coordination — each node evicts independently).
    fn free_comm(&mut self, src_rank: usize, comm: CommId) -> Result<()> {
        let invalid = |msg: String| Err(DcgnError::InvalidArgument(msg));
        if comm.is_world() {
            return invalid("the world communicator cannot be freed".into());
        }
        if self.active.contains_key(&comm) || self.engine.is_exchanging(comm) {
            return invalid(format!("communicator {comm} has a collective in progress"));
        }
        let group = self.member_group(src_rank, comm)?;
        group.freed.insert(src_rank);
        if group.freed.len() == group.local_members {
            self.engine.forget(comm);
        }
        Ok(())
    }

    /// Keep exactly one catch-all point-to-point receive and one exchange
    /// receive posted.  Point-to-point completions are matched against
    /// queued receives on arrival; exchange completions go to the engine,
    /// which demultiplexes them onto the exchange named *inside* the frame.
    fn progress_mpi(&mut self) -> Result<bool> {
        let mut did_work = false;
        while let Some((wire, _)) = self.net.poll(&mut self.catchall, None)? {
            // The decoded body is a zero-copy view of the pooled wire frame.
            let (src, dst, tag, data) = decode_p2p(wire)?;
            self.route_incoming(src, dst, tag, data, None);
            did_work = true;
        }
        let tag = Some(TAG_EXCHANGE);
        while let Some((wire, src_node)) = self.net.poll(&mut self.exchange_recv, tag)? {
            self.engine.on_wire_frame(&mut self.net, src_node, wire)?;
            did_work = true;
        }
        Ok(did_work)
    }

    // ------------------------------------------------------------------
    // The collective join: classify, validate, assemble per communicator,
    // hand complete assemblies to the exchange engine.
    // ------------------------------------------------------------------

    /// Validate a classified collective request against the communicator it
    /// names; returns how many local members its assembly waits for.
    fn check_join(
        &mut self,
        src_rank: usize,
        comm: CommId,
        root: Option<usize>,
        contribution: &Contribution,
    ) -> Result<usize> {
        let group = self.member_group(src_rank, comm)?;
        let size = group.members.len();
        match (root, contribution) {
            (Some(root), _) if root >= size => Err(DcgnError::InvalidRank(root)),
            (_, Contribution::Chunks(chunks)) if chunks.len() != size => {
                Err(DcgnError::InvalidArgument(format!(
                    "scatter root must supply {size} chunks, got {}",
                    chunks.len()
                )))
            }
            _ => Ok(group.local_members),
        }
    }

    /// Join: classify the request, validate it against the named
    /// communicator, and add the rank's contribution to that group's
    /// assembly.  The join that completes the assembly hands it to the
    /// engine — world and subgroup collectives take the same path; there is
    /// no blocking substrate exchange left.
    fn join_collective(&mut self, req: Request) -> Result<()> {
        let src_rank = req.src_rank;
        let classified = classify_collective(req.kind).and_then(|(comm, id, contribution)| {
            let awaited = self.check_join(src_rank, comm, id.root, &contribution)?;
            Ok((comm, id, contribution, awaited))
        });
        let (comm, id, contribution, awaited) = match classified {
            Ok(parts) => parts,
            Err(e) => {
                req.reply_to.complete(Reply::Error(e));
                return Ok(());
            }
        };
        let assembly = match self.active.entry(comm) {
            Entry::Occupied(slot) if slot.get().id != id => {
                // Local ranks disagree about the collective.  Fail the
                // *whole* assembly — the late rank and everyone already
                // joined — and broadcast an abort for the exchange this
                // collective would have been, so the communicator's other
                // nodes error out under *any* plan instead of waiting for
                // frames that will never come.
                let aborted = slot.remove();
                let err = DcgnError::CollectiveMismatch {
                    in_progress: aborted.id.kind.name(),
                    requested: id.kind.name(),
                };
                req.reply_to.complete(Reply::Error(err.clone()));
                let codes = vec![aborted.id.kind.wire_code(), id.kind.wire_code()];
                for (_, _, reply_to) in aborted.joined {
                    reply_to.complete(Reply::Error(err.clone()));
                }
                return self.engine.abort_unstarted(&mut self.net, comm, codes);
            }
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => slot.insert(CollectiveAssembly {
                id,
                joined: Vec::with_capacity(awaited),
            }),
        };
        assembly.joined.push((src_rank, contribution, req.reply_to));
        if assembly.joined.len() == awaited {
            if let Some(assembly) = self.active.remove(&comm) {
                self.engine.start(&mut self.net, comm, assembly)?;
            }
        }
        Ok(())
    }
}
