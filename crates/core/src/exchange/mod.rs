//! The asynchronous collective exchange engine.
//!
//! **Every** cross-node collective — the world included — runs through this
//! module.  Once a communicator's local members have all joined (the join is
//! the comm thread's; see `comm_thread.rs`), the engine builds the node's
//! contribution, picks a *plan* deterministically from `(kind, payload size,
//! node count)` ([`dcgn_rmpi::exchange::select_plan`], or forced via
//! [`ExchangePlan`] config / `DCGN_FORCE_PLAN`) and runs it to completion as
//! frames arrive, so independent exchanges — at most one per communicator —
//! overlap.
//!
//! The plans themselves — the rooted star/tree machine, the recursive
//! doubling and ring step tables, their wire codecs and the root's combine —
//! live in [`dcgn_rmpi::exchange`], where the MPI twin's own collectives
//! drive the very same machines.  Module map of what stays here:
//!
//! * this file — the **engine**: the communicator registry, exchange
//!   identity and demultiplexing (early frames, tombstones), the exchange
//!   metrics, and [`Engine::run_actions`], the one function that sends
//!   exchange frames, records latency and delivers, fails, or aborts;
//! * [`ops`] — what each collective means to a node: classify and build the
//!   node's contribution at the join, deliver its down-payload (and apply a
//!   split) to the local joiners.
//!
//! Exchange frames all travel under one MPI tag ([`TAG_EXCHANGE`]) and carry
//! their full identity — `(comm_epoch, comm_id, seq, phase)`, the
//! [`dcgn_rmpi::ExchangeId`] — in an explicit header, plus the collective's
//! own identity (kind, root, reduction operator and element type) at the head
//! of every OK body.  The engine demultiplexes on the exact exchange key, so
//! concurrent exchanges can never cross-talk, and cross-node disagreement
//! about *which* collective is executing surfaces as a clean
//! [`DcgnError::CollectiveMismatch`] on every participant.
//!
//! An erroneous collective fails *every* participating node instead of
//! leaving peers blocked inside a substrate call: any node that detects a
//! problem — a mismatched collective identity, an unparseable frame, a frame
//! its schedule has no step for (the signature of plans diverging across
//! nodes) — broadcasts a [`PHASE_ABORT`] frame directly to every group node,
//! so failure containment is identical under every plan.  Sequence numbers
//! are monotonic per communicator and a node enters a communicator's
//! exchanges in order, which bounds the bookkeeping: a frame at or below the
//! local sequence number with no live exchange is late and dropped, and an
//! abort that raced ahead of the local assembly is a tombstone only until the
//! local sequence number reaches it.
//!
//! Large frames need no special handling here: any payload above the
//! substrate's eager threshold rides the rendezvous path, and payloads beyond
//! one chunk stream through its credit-windowed chunk pipeline automatically
//! (see `dcgn_rmpi::RdvConfig` and the `DCGN_RDV_CHUNK` / `DCGN_RDV_WINDOW`
//! knobs on [`crate::DcgnConfig`]).

mod ops;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dcgn_metrics::{Counter, Gauge, Histogram, MetricsHandle};
use dcgn_netsim::Payload;
use dcgn_rmpi::exchange::{
    frame_to_error, select_plan, start_machine, Action, CollectiveId, CollectiveKind, ExFrame,
    Machine, COLLECTIVE_ID_BYTES, ST_MISMATCH,
};
use dcgn_rmpi::{
    frame_exchange, parse_exchange_header, ExchangeId, EXCHANGE_HEADER_BYTES, PHASE_ABORT,
    PHASE_DOWN, PHASE_RING_BASE, PHASE_UP, TAG_EXCHANGE,
};
use dcgn_simtime::{Clock, Stamp};

use crate::comm_thread::Substrate;
use crate::config::ExchangePlan;
use crate::error::{DcgnError, Result};
use crate::group::{CommGroup, CommId};
use crate::message::{Reply, ReplyTo};
use crate::rank::RankMap;

pub(crate) use self::ops::{classify_collective, CollectiveAssembly, Contribution};

/// Exact identity of one in-flight exchange: the communicator's registration
/// epoch, the communicator and its collective sequence number.  The phase is
/// the remaining [`ExchangeId`] field, carried per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ExchangeKey {
    epoch: u32,
    comm: CommId,
    seq: u64,
}

impl ExchangeKey {
    fn wire(&self, phase: u32) -> ExchangeId {
        ExchangeId {
            comm_epoch: self.epoch,
            comm: self.comm.raw(),
            seq: self.seq,
            phase,
        }
    }
}

/// One communicator's collective mid-exchange across nodes.  Several can be
/// live at once — at most one per communicator — and each progresses
/// independently as its frames arrive, which is what lets disjoint
/// communicators (and the world) overlap.
struct Exchange {
    id: CollectiveId,
    /// `(rank, reply address)` of every joined local member.
    joined: Vec<(usize, ReplyTo)>,
    /// The schedule this node derived for the collective.  Every correct
    /// node derives the same plan from the same `(kind, size, node count)`;
    /// a divergence surfaces as an unexpected-phase abort.
    plan: ExchangePlan,
    machine: Machine,
    /// When this node entered the exchange; successful delivery records the
    /// elapsed time in the per-`(comm, kind, plan)` latency histogram.
    started: Stamp,
}

/// Fail every joined rank of an abandoned or erroneous collective.
fn fail_joined(joined: Vec<(usize, ReplyTo)>, err: DcgnError) {
    for (_, reply_to) in joined {
        reply_to.complete(Reply::Error(err.clone()));
    }
}

/// The engine's instruments in the unified metrics registry.  Everything is
/// resolved once at construction except the per-collective latency
/// histograms, which materialize lazily as `(comm, kind, plan)` combinations
/// first complete.
struct ExchangeMetrics {
    handle: MetricsHandle,
    node: usize,
    /// `exchange.plan.{star,tree,recursive-doubling,ring}.node{N}` —
    /// exchanges started under each plan, indexed by [`ExchangePlan`].
    plans: [Counter; 4],
    /// `exchange.frames.{up,down,rd,ring}.node{N}` — exchange frames sent,
    /// by protocol phase family.
    frames: [Counter; 4],
    /// `exchange.tombstones.node{N}` — aborts that raced ahead of the local
    /// assembly and wait for it to catch up.
    tombstones: Gauge,
    /// `exchange.early_frames.node{N}` — exchanges with frames buffered
    /// ahead of the local assembly.
    early_frames: Gauge,
    /// `collective.latency.comm{C}.{kind}.{plan}.node{N}` (microseconds,
    /// join-to-delivery), cached per combination.
    latency: HashMap<(u64, &'static str, &'static str), Histogram>,
}

impl ExchangeMetrics {
    fn new(handle: &MetricsHandle, node: usize) -> Self {
        let counter = |name: &str| handle.counter(&format!("exchange.{name}.node{node}"));
        let gauge = |name: &str| handle.gauge(&format!("exchange.{name}.node{node}"));
        ExchangeMetrics {
            handle: handle.clone(),
            node,
            plans: [
                ExchangePlan::Star,
                ExchangePlan::Tree,
                ExchangePlan::RecursiveDoubling,
                ExchangePlan::Ring,
            ]
            .map(|plan| counter(&format!("plan.{}", plan.name()))),
            frames: ["up", "down", "rd", "ring"].map(|family| counter(&format!("frames.{family}"))),
            tombstones: gauge("tombstones"),
            early_frames: gauge("early_frames"),
            latency: HashMap::new(),
        }
    }

    /// The sent-frames counter of a phase's family.
    fn frames(&self, phase: u32) -> &Counter {
        &self.frames[match phase {
            PHASE_UP => 0,
            PHASE_DOWN => 1,
            phase if phase < PHASE_RING_BASE => 2,
            _ => 3,
        }]
    }

    /// Record one successful collective's join-to-delivery latency under its
    /// `(communicator, kind, plan)` histogram.
    fn record_latency(
        &mut self,
        comm: CommId,
        kind: CollectiveKind,
        plan: ExchangePlan,
        elapsed: Duration,
    ) {
        let (kind, plan, node) = (kind.name(), plan.name(), self.node);
        let handle = &self.handle;
        self.latency
            .entry((comm.raw(), kind, plan))
            .or_insert_with(|| {
                let comm = comm.raw();
                handle.histogram(&format!(
                    "collective.latency.comm{comm}.{kind}.{plan}.node{node}"
                ))
            })
            .record(elapsed.as_micros() as u64);
    }
}

/// One node's exchange engine: the communicators it knows and the exchanges
/// it has in flight.
pub(crate) struct Engine {
    node: usize,
    rank_map: Arc<RankMap>,
    clock: Clock,
    /// Communicator groups known to this node (world plus every split
    /// product with a resident member).
    groups: HashMap<CommId, CommGroup>,
    /// Exchanges in flight across nodes, keyed by exact identity.
    exchanges: HashMap<ExchangeKey, Exchange>,
    /// Exchange frames that arrived before this node started the exchange
    /// they name (its local assembly had not completed yet), carrying the
    /// phase and sending node.  Drained through the regular dispatch path
    /// the moment the exchange starts.
    early_frames: HashMap<ExchangeKey, Vec<(u32, usize, ExFrame)>>,
    /// Tombstones of exchanges a peer aborted before this node entered them:
    /// the error every local joiner resolves to the moment the local
    /// sequence number reaches the key, at which point the entry is dropped.
    aborted: HashMap<ExchangeKey, DcgnError>,
    /// Plan override from the job config / `DCGN_FORCE_PLAN`.
    forced_plan: Option<ExchangePlan>,
    metrics: ExchangeMetrics,
}

impl Engine {
    pub(crate) fn new(
        node: usize,
        rank_map: Arc<RankMap>,
        clock: &Clock,
        forced_plan: Option<ExchangePlan>,
        metrics: &MetricsHandle,
    ) -> Self {
        let members: Vec<usize> = (0..rank_map.total_ranks()).collect();
        let member_nodes = members
            .iter()
            .filter_map(|&rank| rank_map.node_of(rank))
            .collect();
        let world = CommGroup::new(members, member_nodes, node, 0);
        Engine {
            node,
            rank_map,
            clock: clock.clone(),
            groups: HashMap::from([(CommId::WORLD, world)]),
            exchanges: HashMap::new(),
            early_frames: HashMap::new(),
            aborted: HashMap::new(),
            forced_plan,
            metrics: ExchangeMetrics::new(metrics, node),
        }
    }

    /// The registered group of `comm`.  Exchanges hold their communicator
    /// (`comm_free` refuses while one is in flight), so a miss on an engine
    /// path is an internal error, not a user one.
    pub(crate) fn group(&self, comm: CommId) -> Result<&CommGroup> {
        self.groups.get(&comm).ok_or_else(|| unregistered(comm))
    }

    pub(crate) fn group_mut(&mut self, comm: CommId) -> Result<&mut CommGroup> {
        self.groups.get_mut(&comm).ok_or_else(|| unregistered(comm))
    }

    /// True when `comm` has an exchange in flight on this node.
    pub(crate) fn is_exchanging(&self, comm: CommId) -> bool {
        self.exchanges.keys().any(|key| key.comm == comm)
    }

    /// True when no exchange is in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.exchanges.is_empty()
    }

    /// Evict a communicator every local member has freed, with whatever was
    /// buffered for exchanges it will now never enter.
    pub(crate) fn forget(&mut self, comm: CommId) {
        self.groups.remove(&comm);
        self.aborted.retain(|key, _| key.comm != comm);
        self.early_frames.retain(|key, _| key.comm != comm);
    }

    /// Shutdown: nobody is left to complete an exchange, so drop them all —
    /// which answers every joined rank [`DcgnError::ShuttingDown`].
    pub(crate) fn shutdown(&mut self) {
        self.exchanges.clear();
        self.early_frames.clear();
        self.aborted.clear();
    }

    /// Publish the sizes of the maps that buffer ahead of the local assembly.
    pub(crate) fn sample_gauges(&self) {
        self.metrics.tombstones.set(self.aborted.len() as u64);
        self.metrics
            .early_frames
            .set(self.early_frames.len() as u64);
    }

    /// Consume `comm`'s next collective sequence number — every node does so
    /// exactly once per collective, whether it runs or aborts at the join, so
    /// keys align across the group.  Returns the exchange's key and, if a
    /// peer already aborted this very collective, the error it resolves to.
    fn enter(&mut self, comm: CommId) -> Result<(ExchangeKey, Option<DcgnError>)> {
        let group = self.group_mut(comm)?;
        group.seq += 1;
        let key = ExchangeKey {
            epoch: group.epoch,
            comm,
            seq: group.seq,
        };
        Ok((key, self.aborted.remove(&key)))
    }

    /// Start the cross-node exchange of a completed assembly: build this
    /// node's contribution, select the plan, run the plan's opening actions,
    /// and drain any frames that raced ahead of this node's local assembly.
    pub(crate) fn start(
        &mut self,
        net: &mut Substrate,
        comm: CommId,
        assembly: CollectiveAssembly,
    ) -> Result<()> {
        let up = ops::build_up(&assembly, self.group(comm)?);
        let id = assembly.id;
        let joined: Vec<(usize, ReplyTo)> = assembly
            .joined
            .into_iter()
            .map(|(rank, _, reply_to)| (rank, reply_to))
            .collect();
        let (key, aborted) = self.enter(comm)?;
        if let Some(err) = aborted {
            // Whatever was buffered for it is as dead as the exchange.
            self.early_frames.remove(&key);
            fail_joined(joined, err);
            return Ok(());
        }
        let layout = &self.group(comm)?.layout;
        let nodes = &layout.nodes;
        let pos = nodes
            .iter()
            .position(|&nd| nd == self.node)
            .ok_or_else(|| DcgnError::Internal(format!("node {} hosts no member", self.node)))?;
        let up_len = match &up {
            Ok(contribution) => COLLECTIVE_ID_BYTES + contribution.len(),
            Err(msg) => msg.len(),
        };
        let plan = select_plan(self.forced_plan, id, up_len, nodes.len());
        self.metrics.plans[plan as usize].inc();
        let (machine, actions) = start_machine(plan, id, layout, pos, up)?;
        let exchange = Exchange {
            id,
            joined,
            plan,
            machine,
            started: self.clock.now(),
        };
        self.exchanges.insert(key, exchange);
        self.run_actions(net, key, actions)?;
        // Re-drive frames that arrived before we entered the exchange
        // through the very path live frames take (a no-op once it completed
        // or aborted).
        for (phase, src, frame) in self.early_frames.remove(&key).unwrap_or_default() {
            self.feed(net, key, src, phase, frame)?;
        }
        Ok(())
    }

    /// Local ranks disagreed at the join: consume the sequence number the
    /// collective would have run under and abort it, so the communicator's
    /// other nodes error out under *any* plan instead of waiting for frames
    /// that will never come.  `codes` are the two kinds' wire codes.
    pub(crate) fn abort_unstarted(
        &mut self,
        net: &mut Substrate,
        comm: CommId,
        codes: Vec<u8>,
    ) -> Result<()> {
        let (key, _) = self.enter(comm)?;
        self.early_frames.remove(&key);
        self.broadcast_abort(net, key, ST_MISMATCH, codes)?;
        Ok(())
    }

    /// Demultiplex one received exchange frame onto the in-flight exchange
    /// it names, or buffer it until this node starts that exchange.
    pub(crate) fn on_wire_frame(
        &mut self,
        net: &mut Substrate,
        src_node: usize,
        wire: Payload,
    ) -> Result<()> {
        let (id, status) = parse_exchange_header(wire.as_slice())?;
        let key = ExchangeKey {
            epoch: id.comm_epoch,
            comm: CommId::from_raw(id.comm),
            seq: id.seq,
        };
        let frame: ExFrame = (status, wire.slice(EXCHANGE_HEADER_BYTES..wire.len()));
        let entered = self
            .groups
            .get(&key.comm)
            .is_some_and(|g| g.epoch == key.epoch && key.seq <= g.seq);
        if entered {
            // Live, or late: this node already settled that exchange (every
            // local joiner saw its outcome), and `feed` drops the frame.
            self.feed(net, key, src_node, id.phase, frame)
        } else if id.phase == PHASE_ABORT {
            // Abort for an exchange we have not started: tombstone it so
            // our joiners fail the moment they would have entered it.
            self.aborted
                .insert(key, frame_to_error(frame.0, frame.1.as_slice()).into());
            self.early_frames.remove(&key);
            Ok(())
        } else {
            let early = self.early_frames.entry(key).or_default();
            early.push((id.phase, src_node, frame));
            Ok(())
        }
    }

    /// Feed one frame into its live exchange and execute what the plan asks
    /// for.  A peer's abort frame fails the local joiners without echoing.
    fn feed(
        &mut self,
        net: &mut Substrate,
        key: ExchangeKey,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Result<()> {
        let (Some(ex), Some(group)) = (self.exchanges.get_mut(&key), self.groups.get(&key.comm))
        else {
            return Ok(());
        };
        let actions = ex.machine.on_frame(&group.layout, src_node, phase, frame);
        self.run_actions(net, key, actions)
    }

    /// Execute a plan's actions: the one place that sends an exchange frame,
    /// the one that records latency and delivers, and the one that aborts.
    fn run_actions(
        &mut self,
        net: &mut Substrate,
        key: ExchangeKey,
        actions: Vec<Action>,
    ) -> Result<()> {
        for action in actions {
            match action {
                Action::Send {
                    to,
                    phase,
                    status,
                    body,
                } => {
                    // A leaf has nobody to relay a down-frame to.
                    if to.is_empty() {
                        continue;
                    }
                    let wire = frame_exchange(key.wire(phase), status, body.as_slice());
                    let wire = Payload::from_vec(wire);
                    self.metrics.frames(phase).add(to.len() as u64);
                    for dst in to {
                        net.isend(dst, TAG_EXCHANGE, wire.clone())?;
                    }
                }
                Action::Deliver(payload) => {
                    if let Some(ex) = self.exchanges.remove(&key) {
                        let elapsed = self.clock.elapsed(ex.started);
                        self.metrics
                            .record_latency(key.comm, ex.id.kind, ex.plan, elapsed);
                        self.deliver(key.comm, ex.id, ex.joined, payload)?;
                    }
                }
                Action::Fail(err) => {
                    if let Some(ex) = self.exchanges.remove(&key) {
                        fail_joined(ex.joined, err.into());
                    }
                }
                Action::Abort { status, body } => {
                    let err = self.broadcast_abort(net, key, status, body)?;
                    if let Some(ex) = self.exchanges.remove(&key) {
                        fail_joined(ex.joined, err);
                    }
                }
            }
        }
        Ok(())
    }

    /// Ship a [`PHASE_ABORT`] frame for `key` to every other node of its
    /// group; returns the error the abort decodes to.  Works identically
    /// under every plan — abort propagation does not ride the (possibly
    /// disagreeing) schedule.  No local record is kept: `key` is at the
    /// communicator's current sequence number, so whatever still arrives
    /// for it is late by construction.
    fn broadcast_abort(
        &mut self,
        net: &mut Substrate,
        key: ExchangeKey,
        status: u8,
        body: Vec<u8>,
    ) -> Result<DcgnError> {
        let wire = Payload::from_vec(frame_exchange(key.wire(PHASE_ABORT), status, &body));
        for &node in &self.group(key.comm)?.layout.nodes {
            if node != self.node {
                net.isend(node, TAG_EXCHANGE, wire.clone())?;
            }
        }
        Ok(frame_to_error(status, &body).into())
    }
}

fn unregistered(comm: CommId) -> DcgnError {
    DcgnError::Internal(format!("exchange on unregistered communicator {comm}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Inbox;
    use dcgn_simtime::CostModel;

    #[test]
    fn a_dropped_assembly_or_exchange_answers_every_joined_rank_shutting_down() {
        let clock = Clock::from(CostModel::zero());
        let inbox = Inbox::new();
        let id = CollectiveId {
            kind: CollectiveKind::Barrier,
            root: None,
            reduction: None,
        };
        drop(CollectiveAssembly {
            id,
            joined: (0..2)
                .map(|rank| (rank, Contribution::None, inbox.reply_to((rank as u32, 1))))
                .collect(),
        });
        let layout = dcgn_rmpi::exchange::Layout::new(vec![0, 1]);
        let (machine, _) = start_machine(ExchangePlan::Star, id, &layout, 0, Ok(Vec::new()))
            .expect("the star applies to a barrier");
        drop(Exchange {
            id,
            joined: vec![(2, inbox.reply_to((2, 1)))],
            plan: ExchangePlan::Star,
            machine,
            started: clock.now(),
        });
        let mut replies = Vec::new();
        inbox.drain(&clock, clock.deadline(Duration::ZERO), |reply| {
            replies.push(reply);
            true
        });
        for (rank, (token, reply)) in replies.iter().enumerate() {
            assert_eq!(*token, (rank as u32, 1));
            assert!(matches!(reply, Reply::Error(DcgnError::ShuttingDown)));
        }
        assert_eq!(replies.len(), 3);
    }
}
