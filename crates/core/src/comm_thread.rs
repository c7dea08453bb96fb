//! The per-process communication thread.
//!
//! Exactly one of these runs per DCGN process (per node).  It is the only
//! thread that touches the MPI substrate — mirroring the paper's design for
//! coping with non-thread-safe MPI implementations — and it services the
//! work queue that CPU-kernel threads and GPU-kernel threads funnel their
//! communication requests into.
//!
//! This file is the service loop and the two things it does itself:
//! point-to-point traffic (matched on arrival by the [`Matcher`] the MPI
//! twin uses too) and the per-communicator *join* of collectives.
//! Collectives are keyed by communicator ([`CommId`]): every group
//! assembles independently in its own [`CollectiveAssembly`], so two
//! communicators can execute collectives concurrently.  The moment a group's
//! local members have all joined, the assembly is handed to the exchange
//! [`Engine`] (`exchange/`), which runs **every** cross-node collective — the
//! world included — under one of its plans and replies to the joined ranks.
//!
//! Each inter-node point-to-point send is one MPI `isend` of one framed
//! record ([`crate::message`]), as in the paper, its request freed at once
//! ([`Substrate::isend`]).  rmpi carries a crossing's sends to one node in
//! one frame, sent by the progress call that ends a crossing with work
//! ([`Substrate::progress`]) before its senders are answered `SendDone`.
//! The receiver copies each record matched on arrival into its receive on
//! the node's one copy engine from the frame's landing (or its receive's
//! post, if later), so routing runs inside the modelled copies.
//!
//! It is also the one place that validates a request, whichever kind of
//! rank posted it: a rank outside the world, a root outside its
//! communicator and a scatter root's chunk table of the wrong shape are
//! answered with their error here.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dcgn_metrics::{Counter, Gauge, MetricsHandle};
use dcgn_netsim::Payload;
use dcgn_rmpi::exchange::{CollectiveId, CollectiveKind};
use dcgn_rmpi::{Communicator, Request as MpiRequest, Status as MpiStatus, TAG_EXCHANGE};
use dcgn_simtime::{Charge, Clock, Deadline, Receiver, Sender, Stamp, VirtualBus};

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
/// frame is queued for this node, and the wait ends no later than the next
/// frame's landing, so the comm thread is woken *by event* for both local
/// requests and substrate traffic.  The timeout only caps how stale the loop
/// can get if a wake is somehow missed (`comm.missed_landings` counts the
/// waits that overslept a landing).
const IDLE_FALLBACK: Duration = Duration::from_millis(1);

/// The MPI substrate as the comm thread drives it: the node's communicator,
/// its two persistent receives, and the copy engine that moves what arrives
/// into the ranks' buffers.
pub(crate) struct Substrate {
    comm: Communicator,
    /// Persistent wildcard receive for inter-node point-to-point frames.
    catchall: MpiRequest,
    /// Persistent receive for exchange frames ([`TAG_EXCHANGE`]); completed
    /// frames are handed to the [`Engine`], which demultiplexes them by the
    /// exact key inside the frame.
    exchange_recv: MpiRequest,
    /// The node's one copy engine: every receive-side copy into a rank's
    /// buffer (a match's, and the exchange engine's per-rank results)
    /// books it, so copies run one after another, each from when it could
    /// start or the copy before it ended, whichever is later.  A copy from
    /// a frame's landing may start before this thread gets to it, never
    /// inside a copy booked from now.
    pub(crate) copies: VirtualBus,
}

impl Substrate {
    /// Start a nonblocking send and free its request at once: rmpi keeps
    /// the send until it has left, and one that fails returns its error
    /// from the next progress call.
    pub(crate) fn isend(&mut self, dst: usize, tag: u32, data: impl Into<Payload>) -> Result<()> {
        let req = self.comm.isend(dst, tag, data)?;
        Ok(self.comm.request_free(req)?)
    }

    /// The one MPI progress call, a `test` on the catch-all: true when it
    /// is done, completed or (if [`Substrate::take`] finds nothing) failed.
    fn progress(&mut self) -> Result<bool> {
        Ok(self.comm.test(self.catchall)?)
    }

    /// Take the frame the catch-all (the exchange receive if `exchange`)
    /// completed with, if any, and post the receive again.  One MPI rank per
    /// node, so the status's source *is* the sending node, and its `drained`
    /// says whether the NIC's drain already moved the payload into place.
    fn take(&mut self, exchange: bool) -> Result<Option<(Payload, MpiStatus)>> {
        let (slot, tag) = match exchange {
            true => (&mut self.exchange_recv, Some(TAG_EXCHANGE)),
            false => (&mut self.catchall, None),
        };
        let Some(frame) = self.comm.take_recv(*slot) else {
            return Ok(None);
        };
        *slot = self.comm.irecv(None, tag)?;
        Ok(Some(frame))
    }
}

/// This node's comm-thread instruments in the unified metrics registry (the
/// exchange engine registers its own).
struct CommThreadMetrics {
    /// `comm.requests.node{N}` — kernel requests dispatched.
    requests: Counter,
    /// `comm.crossings.node{N}` — work-queue drains that carried requests,
    /// each of which paid one queue hop.
    crossings: Counter,
    /// `comm.queue_depth.node{N}` — commands each work-queue drain took
    /// (the high-water mark is the interesting read).
    queue_depth: Gauge,
    /// `comm.missed_landings.node{N}` — idle waits that ran to the fallback
    /// while a frame that had landed before the wait began was queued, or
    /// a receive held one it completed with.  A frame lands after it is
    /// queued, so every count is a landing the wait should have ended at.
    missed_landings: Counter,
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
    /// The commands of the crossing being handled, kept between crossings
    /// so that taking one allocates nothing.
    cmds: Vec<CommCommand>,
    clock: Clock,

    /// The crossing's inter-node senders, answered `SendDone` once its
    /// frames have left; kept like `cmds`.
    sent: Vec<ReplyTo>,

    /// Unmatched point-to-point messages and receives, each matched the
    /// moment it comes.
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
        mut comm: Communicator,
        work_rx: Receiver<CommCommand>,
        work_tx: Sender<CommCommand>,
        clock: Clock,
        forced_plan: Option<ExchangePlan>,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        // Ring our own work queue whenever the fabric queues a delivery for
        // this node, so the idle wait below is woken by event for substrate
        // traffic exactly like it is for local kernel requests.
        comm.set_wake_notifier(Arc::new(move || {
            let _ = work_tx.send(CommCommand::Wake);
        }));
        let counter = |name: &str| metrics.counter(&format!("{name}.node{node}"));
        let gauge = |name: &str| metrics.gauge(&format!("{name}.node{node}"));
        Ok(CommThread {
            node,
            engine: Engine::new(node, Arc::clone(&rank_map), &clock, forced_plan, metrics),
            rank_map,
            net: Substrate {
                catchall: comm.irecv(None, None)?,
                exchange_recv: comm.irecv(None, Some(TAG_EXCHANGE))?,
                copies: VirtualBus::new(Charge::IntraNode, clock.model().intra_node),
                comm,
            },
            work_rx,
            cmds: Vec::new(),
            sent: Vec::new(),
            clock,
            matcher: Matcher::default(),
            active: HashMap::new(),
            local_done: false,
            metrics: CommThreadMetrics {
                requests: counter("comm.requests"),
                crossings: counter("comm.crossings"),
                queue_depth: gauge("comm.queue_depth"),
                missed_landings: counter("comm.missed_landings"),
                pending_recvs: gauge("comm.matcher.pending_recvs"),
                unexpected_msgs: gauge("comm.matcher.unexpected_msgs"),
            },
        })
    }

    /// Main service loop.  Returns when all local kernels are done and no
    /// work remains.
    pub(crate) fn run(&mut self) -> Result<()> {
        loop {
            // 1. Drain the local work queue (a collective's exchange starts
            //    at the join that completes its assembly).
            let mut did_work = self.drain_work(self.clock.deadline(Duration::ZERO))?;

            // 2. Progress the MPI substrate: send what rmpi holds and take
            //    every landed frame, each matched or demultiplexed on
            //    arrival (there is no separate matching pass).
            did_work |= self.progress_mpi()?;

            let (recvs, msgs) = (self.matcher.pending_recvs(), self.matcher.queued_msgs());
            self.metrics.pending_recvs.set(recvs as u64);
            self.metrics.unexpected_msgs.set(msgs as u64);
            self.engine.sample_gauges();

            // 3. Shut down when the process is quiescent.
            if self.local_done
                && recvs == 0
                && self.active.is_empty()
                && self.engine.is_idle()
                && !self.net.comm.sends_in_flight()
            {
                // Synchronise teardown across nodes so no peer is left
                // mid-transfer when this communicator goes away.  Every node
                // reaches this point (erroneous collectives error out
                // instead of blocking), so the quiesce cannot hang.
                self.net.comm.barrier()?;
                return Ok(());
            }

            // 4. Idle: block on the work queue until the next frame lands
            //    here.  Local kernel requests land on the queue directly and
            //    fabric sends ring it via the wake notifier, so this is an
            //    event wait; the fallback is only a safety net.
            if !did_work {
                self.idle()?;
            }
        }
    }

    /// Wait for work: a command, or the substrate's next landing
    /// ([`Communicator::pending_landing`], due at once if a frame has landed
    /// since the last look: no wake marks that; none waits in a persistent
    /// receive, as every progress call empties them), or the fallback.
    fn idle(&mut self) -> Result<()> {
        let began = self.clock.now();
        let fallback = self.clock.deadline(IDLE_FALLBACK);
        let deadline = match self.net.comm.pending_landing() {
            Some(at) => Deadline::landing(at).min(fallback),
            None => fallback,
        };
        if !self.drain_work(deadline)? && deadline == fallback {
            // The same query, re-read: a landing due when the wait began.
            let due = self.net.comm.pending_landing();
            if due.is_some_and(|at| at <= began) {
                self.metrics.missed_landings.inc();
            }
        }
        Ok(())
    }

    /// Take one crossing of the work queue, waiting until `deadline` for it,
    /// and handle every command it carried; the crossing pays one queue hop
    /// if it carried a request, a whole GPU-sweep batch included.  A
    /// crossing that took anything ends with one progress call, which sends
    /// its frames, and then answers its inter-node senders.  The number
    /// taken is the queue-depth gauge's observation (its high-water mark
    /// survives in the metrics snapshot).  True when anything was taken.
    fn drain_work(&mut self, deadline: Deadline) -> Result<bool> {
        let mut cmds = std::mem::take(&mut self.cmds);
        let file = |cmd| {
            let work = matches!(cmd, CommCommand::Request(_) | CommCommand::Batch(_));
            cmds.push(cmd);
            work
        };
        let crossing = self.work_rx.drain(&self.clock, deadline, file);
        let taken = crossing.map_or(0, |crossing| {
            self.metrics.crossings.add(crossing.paid as u64);
            crossing.taken
        });
        self.metrics.queue_depth.set(taken as u64);
        for cmd in cmds.drain(..) {
            self.handle_command(cmd)?;
        }
        self.cmds = cmds;
        if taken > 0 {
            self.progress()?;
            for sender in self.sent.drain(..) {
                sender.complete(Reply::SendDone);
            }
        }
        Ok(taken > 0)
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
                self.matcher.clear_recvs();
                Ok(())
            }
            // The drain that took the command paid its queue hop.
            CommCommand::Request(req) => self.dispatch_request(req),
            CommCommand::Batch(reqs) => {
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
            RequestKind::Recv { src: Some(src), .. } if self.rank_map.node_of(src).is_none() => {
                req.reply_to
                    .complete(Reply::Error(DcgnError::InvalidRank(src)));
                Ok(())
            }
            RequestKind::Recv { src, tag } => {
                let recv = PendingRecv {
                    dst_rank: req.src_rank,
                    src,
                    tag,
                    posted: self.clock.now(),
                    reply_to: req.reply_to,
                };
                if let Some(pair) = self.matcher.post(recv) {
                    self.deliver_match(pair);
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
            // Nothing drained it, so the match pays the shared-memory copy,
            // whose bytes are ready now.
            let ready = Some(self.clock.now());
            self.route_incoming(src, dst, tag, data, ready, Some(reply_to));
        } else {
            // Inter-node: append the DCGN envelope in the staged buffer's
            // spare capacity (no body copy) and hand that frame to MPI on the
            // catch-all's tag 0.  Remote sends complete once the crossing's
            // frames have left (buffered-send semantics).
            let wire = frame_p2p(src, dst, tag, data);
            self.net.isend(dst_node, 0, wire)?;
            self.sent.push(reply_to);
        }
        Ok(())
    }

    /// Match a freshly arrived (or locally sourced, `local_sender`) message
    /// at once, or queue it for a later receive.  Its delivery owes one copy
    /// whose bytes are `ready` then ([`IncomingMsg::ready`]: a frame's
    /// landing, or now for a local send), unless `ready` is `None`: the
    /// substrate reported the payload drained by the NIC into the buffer the
    /// receiver takes whole.
    fn route_incoming(
        &mut self,
        src: usize,
        dst: usize,
        tag: u32,
        data: Payload,
        ready: Option<Stamp>,
        local_sender: Option<ReplyTo>,
    ) {
        let msg = IncomingMsg {
            src,
            dst,
            tag,
            data,
            ready,
            local_sender,
        };
        if let Some(pair) = self.matcher.arrive(msg) {
            self.deliver_match(pair);
        }
    }

    /// Complete a matched pair: the message pays the receive-side copy it
    /// owes on the node's copy engine, from the later of when its bytes
    /// were ready ([`IncomingMsg::ready`]) and when the receive was posted
    /// ([`PendingRecv::posted`]), so a late match copies from now and none
    /// starts before its receive's buffer is known, whichever of the frame
    /// and the receive this thread took first.  The copy is this thread's
    /// own work, so it blocks until its booking ends, at once if that has
    /// passed.  Then the receiver gets the payload (a shared reference) and
    /// an intra-node sender's deferred completion fires.
    fn deliver_match(&mut self, (recv, msg): (PendingRecv, IncomingMsg)) {
        if let Some(ready) = msg.ready {
            let start = ready.max(recv.posted);
            self.net.copies.transfer(&self.clock, start, msg.data.len());
        }
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

    /// Progress until a call takes no frame: the frames a call took may
    /// have been answered with sends, which the next call sends.
    fn progress_mpi(&mut self) -> Result<bool> {
        let mut did_work = false;
        while self.progress()? {
            did_work = true;
        }
        Ok(did_work)
    }

    /// Make the one progress call and empty both persistent receives:
    /// point-to-point frames are matched on arrival, exchange frames go to
    /// the engine (keyed inside the frame).  True when a frame was taken.
    fn progress(&mut self) -> Result<bool> {
        let catchall_done = self.net.progress()?;
        let mut took = false;
        while let Some((wire, status)) = self.net.take(false)? {
            // An eager frame is ready at its landing, however late this
            // thread took it (a receive posted since starts its copy no
            // sooner); a drained payload owes no copy.
            let landed = status.landed.unwrap_or_else(|| self.clock.now());
            let ready = (!status.drained).then_some(landed);
            // The decoded body is a zero-copy view of the pooled wire frame.
            let (src, dst, tag, data) = decode_p2p(wire)?;
            self.route_incoming(src, dst, tag, data, ready, None);
            took = true;
        }
        if catchall_done && !took {
            return Err(DcgnError::Internal("the catch-all receive failed".into()));
        }
        while let Some((wire, status)) = self.net.take(true)? {
            self.engine
                .on_wire_frame(&mut self.net, status.source, wire)?;
            took = true;
        }
        Ok(took)
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
        id: &CollectiveId,
        contribution: &Contribution,
    ) -> Result<usize> {
        let group = self.member_group(src_rank, comm)?;
        let size = group.members.len();
        let scatter_root = id.kind == CollectiveKind::Scatter && group.sub_of(src_rank) == id.root;
        match (id.root, contribution) {
            (Some(root), _) if root >= size => Err(DcgnError::InvalidRank(root)),
            (_, Contribution::Chunks(chunks)) if chunks.len() != size => {
                Err(DcgnError::InvalidArgument(format!(
                    "scatter root must supply {size} chunks, got {}",
                    chunks.len()
                )))
            }
            (_, Contribution::None) if scatter_root => Err(DcgnError::InvalidArgument(
                "scatter root must supply chunks".into(),
            )),
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
            let awaited = self.check_join(src_rank, comm, &id, &contribution)?;
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
