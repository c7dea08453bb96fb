//! The asynchronous collective exchange engine.
//!
//! **Every** cross-node collective — the world included — runs through this
//! module.  Once a communicator's local members have all joined (the join is
//! the comm thread's; see `comm_thread.rs`), the engine builds the node's
//! contribution, picks a *plan* deterministically from `(kind, payload size,
//! node count)` ([`Engine::select_plan`], or forced via [`ExchangePlan`]
//! config / `DCGN_FORCE_PLAN`) and runs it to completion as frames arrive, so
//! independent exchanges — at most one per communicator — overlap.
//!
//! Module map:
//!
//! * this file — the **engine**: the communicator registry, exchange
//!   identity and demultiplexing, plan selection, and [`Engine::run_actions`],
//!   the one function that sends exchange frames, records latency and
//!   delivers, fails, or aborts;
//! * [`rooted`] — the gather → combine → scatter machine, parameterised by a
//!   [`Topology`]: flat is the **star** plan, binomial the **tree** plan;
//! * [`allreduce`] — the ordered-step driver under which **recursive
//!   doubling** and **ring** are two step tables;
//! * [`wire`] — status bytes, [`CollectiveId`], bundle / rank-frame / reduce
//!   codecs and the single cross-node identity check;
//! * [`ops`] — what each collective means: build, combine, deliver.
//!
//! A plan is a state machine that never sees the substrate, the metrics or a
//! reply address: it is fed `(source node, phase, frame)` and returns
//! [`Action`]s.  That makes every plan a pure function of its frames —
//! testable by hand-feeding frames, with no runtime and no threads.
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

mod allreduce;
mod ops;
mod rooted;
mod wire;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcgn_metrics::{Counter, Gauge, Histogram, MetricsHandle};
use dcgn_rmpi::{
    frame_exchange, parse_exchange_header, ExchangeId, EXCHANGE_HEADER_BYTES, PHASE_ABORT,
    PHASE_DOWN, PHASE_RING_BASE, PHASE_UP, TAG_EXCHANGE,
};
use dcgn_simtime::CostModel;

use self::allreduce::{rd_steps, ring_steps, Allreduce};
use self::rooted::Rooted;
use self::wire::{frame_to_error, ExFrame, COLLECTIVE_ID_BYTES, ST_MISMATCH};
use crate::comm_thread::Substrate;
use crate::config::ExchangePlan;
use crate::error::{DcgnError, Result};
use crate::group::{CommGroup, CommId, Topology};
use crate::message::{Reply, ReplyTo};
use crate::rank::RankMap;
use dcgn_netsim::Payload;

pub(crate) use self::ops::{classify_collective, CollectiveAssembly, Contribution};
pub(crate) use self::wire::{CollectiveId, CollectiveKind};

/// Node count at which the default table switches from the star to the
/// binomial tree.  Below this the leader's serialized fan-out is at most
/// three sends, and the tree's extra hop latency is not worth paying.
const TREE_MIN_NODES: usize = 5;

/// Up-frame body size (id header + reduce frame) at which an allreduce
/// switches from latency-optimal recursive doubling to bandwidth-optimal
/// ring.  Every correct node computes the same body size, so the choice is
/// deterministic across the group; a divergence *is* a length mismatch and
/// is caught by the abort net.
const RING_MIN_UP_BYTES: usize = 32 * 1024;

/// Human-readable plan name for metrics and diagnostics.
fn plan_name(plan: ExchangePlan) -> &'static str {
    match plan {
        ExchangePlan::Star => "star",
        ExchangePlan::Tree => "tree",
        ExchangePlan::RecursiveDoubling => "recursive-doubling",
        ExchangePlan::Ring => "ring",
    }
}

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

/// What a plan asks the engine to do.  `Deliver`, `Fail` and `Abort` end the
/// exchange on this node.
#[derive(Debug, Clone, PartialEq)]
enum Action {
    /// Frame `(phase, status, body)` once and ship the shared frame to every
    /// node in `to` — reference clones, not per-node copies.
    Send {
        to: Vec<usize>,
        phase: u32,
        status: u8,
        body: Payload,
    },
    /// The collective completed: this node's down-payload, to be turned into
    /// per-rank results for the local joiners.
    Deliver(Payload),
    /// The collective failed with an error every node learns along the
    /// schedule (or already knows): fail the local joiners.
    Fail(DcgnError),
    /// This node detected the failure: broadcast the abort frame to every
    /// other node of the group, then fail the local joiners with its error.
    Abort { status: u8, body: Vec<u8> },
}

/// The plan state machine of one in-flight exchange.
enum Machine {
    Rooted(Rooted),
    Allreduce(Allreduce),
}

impl Machine {
    fn on_frame(
        &mut self,
        group: &CommGroup,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Vec<Action> {
        match self {
            Machine::Rooted(m) => m.on_frame(group, src_node, phase, frame),
            Machine::Allreduce(m) => m.on_frame(src_node, phase, frame),
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
    started: Instant,
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
            .map(|plan| counter(&format!("plan.{}", plan_name(plan)))),
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
        let (kind, plan, node) = (kind.name(), plan_name(plan), self.node);
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
    cost: CostModel,
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
        cost: CostModel,
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
            cost,
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

    /// Pick the schedule for a collective from `(op, payload size, node
    /// count)`.  Every correct node computes the same answer from the same
    /// inputs; a forced plan (config / `DCGN_FORCE_PLAN`) overrides the
    /// table, with rd/ring applying to allreduce only.
    fn select_plan(
        forced_plan: Option<ExchangePlan>,
        id: CollectiveId,
        up_body_len: usize,
        n: usize,
    ) -> ExchangePlan {
        if n <= 1 {
            return ExchangePlan::Star;
        }
        let allreduce = id.kind == CollectiveKind::Allreduce;
        match forced_plan {
            Some(forced @ (ExchangePlan::Star | ExchangePlan::Tree)) => return forced,
            // A forced allreduce schedule cannot shape other kinds; they
            // fall through to the default table.
            Some(forced) if allreduce => return forced,
            _ => {}
        }
        if n < TREE_MIN_NODES {
            ExchangePlan::Star
        } else if allreduce {
            if up_body_len < RING_MIN_UP_BYTES {
                ExchangePlan::RecursiveDoubling
            } else {
                ExchangePlan::Ring
            }
        } else {
            ExchangePlan::Tree
        }
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
        let group = self.group(comm)?;
        let nodes = &group.nodes;
        let pos = nodes
            .iter()
            .position(|&nd| nd == self.node)
            .ok_or_else(|| DcgnError::Internal(format!("node {} hosts no member", self.node)))?;
        let up_len = match &up {
            Ok(contribution) => COLLECTIVE_ID_BYTES + contribution.len(),
            Err(msg) => msg.len(),
        };
        let plan = Self::select_plan(self.forced_plan, id, up_len, nodes.len());
        self.metrics.plans[plan as usize].inc();
        let (machine, actions) = start_machine(plan, id, group, pos, up)?;
        let exchange = Exchange {
            id,
            joined,
            plan,
            machine,
            started: Instant::now(),
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
                .insert(key, frame_to_error(frame.0, frame.1.as_slice()));
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
        let actions = if phase == PHASE_ABORT {
            vec![Action::Fail(frame_to_error(frame.0, frame.1.as_slice()))]
        } else {
            ex.machine.on_frame(group, src_node, phase, frame)
        };
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
                        let elapsed = ex.started.elapsed();
                        self.metrics
                            .record_latency(key.comm, ex.id.kind, ex.plan, elapsed);
                        self.deliver(key.comm, ex.id, ex.joined, payload)?;
                    }
                }
                Action::Fail(err) => {
                    if let Some(ex) = self.exchanges.remove(&key) {
                        fail_joined(ex.joined, err);
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
        for &node in &self.group(key.comm)?.nodes {
            if node != self.node {
                net.isend(node, TAG_EXCHANGE, wire.clone())?;
            }
        }
        Ok(frame_to_error(status, &body))
    }
}

/// Enter `plan`'s machine at position `pos` of `group` with this node's
/// contribution (or local validation failure) `up`.
fn start_machine(
    plan: ExchangePlan,
    id: CollectiveId,
    group: &CommGroup,
    pos: usize,
    up: std::result::Result<Vec<u8>, String>,
) -> Result<(Machine, Vec<Action>)> {
    let name = plan_name(plan);
    let nodes = &group.nodes;
    Ok(match (plan, id.reduction) {
        (ExchangePlan::Star, _) => Rooted::start(id, Topology::Flat, name, group, pos, up),
        (ExchangePlan::Tree, _) => Rooted::start(id, Topology::Binomial, name, group, pos, up),
        (ExchangePlan::RecursiveDoubling, Some(reduction)) => {
            Allreduce::start(id, reduction, name, rd_steps(pos, nodes), nodes.len(), up)
        }
        (ExchangePlan::Ring, Some(reduction)) => {
            Allreduce::start(id, reduction, name, ring_steps(pos, nodes), nodes.len(), up)
        }
        (_, None) => {
            return Err(DcgnError::Internal(format!(
                "{name} selected for {}, which carries no reduction",
                id.kind.name()
            )))
        }
    })
}

fn unregistered(comm: CommId) -> DcgnError {
    DcgnError::Internal(format!("exchange on unregistered communicator {comm}"))
}

/// Plan machines wired back to back with no runtime, substrate or thread:
/// what one machine sends is queued and hand-fed to the machine it names.
///
/// Under a cost model the kit is also a max-plus cost oracle, with no
/// sleep: every position keeps a logical clock, every frame is stamped with
/// the time it lands, and [`Sim::run_timed`] delivers the earliest stamp
/// first.  A frame leaves when both its sender's clock and its sender's NIC
/// allow (a NIC sends one frame at a time, as `VirtualBus` does), costs
/// `network.transfer_time` of its wire bytes (rmpi header, exchange header,
/// body), and a frame above the eager threshold first pays the RTS/CTS round
/// trip.  Consuming a frame moves the receiver's clock up to its stamp; no
/// per-frame software cost is charged.
#[cfg(test)]
mod sim {
    use std::collections::VecDeque;
    use std::time::Duration;

    use dcgn_rmpi::packet::HEADER_BYTES;
    use dcgn_rmpi::EXCHANGE_HEADER_BYTES;
    use dcgn_simtime::CostModel;

    use super::{Action, CommGroup, ExFrame, Machine};

    /// A group of one single-rank node per position.  Node ids differ from
    /// positions (`2·pos + 1`), so a plan confusing the two fails.
    pub(super) fn group_for(pos: usize, n: usize) -> CommGroup {
        let nodes: Vec<usize> = (0..n).map(|p| 2 * p + 1).collect();
        CommGroup::new((0..n).collect(), nodes.clone(), nodes[pos], 0)
    }

    /// A frame on its way: `(landing stamp, src node, dst node, phase, frame)`.
    type InFlight = (Duration, usize, usize, u32, ExFrame);

    /// Every position of one exchange, each with its own view of the group.
    pub(super) struct Sim {
        groups: Vec<CommGroup>,
        machines: Vec<Machine>,
        /// Frames sent and not yet delivered, in send order.
        in_flight: VecDeque<InFlight>,
        /// Every frame sent so far: `(src node, dst node, phase, frame)`.
        pub(super) sent: Vec<(usize, usize, u32, ExFrame)>,
        /// The action that ended the exchange at each position.
        pub(super) outcome: Vec<Option<Action>>,
        /// The model frames are stamped under.
        cost: CostModel,
        /// Each position's logical clock.
        now: Vec<Duration>,
        /// When each position's NIC has finished its last send.
        nic_free: Vec<Duration>,
    }

    impl Sim {
        /// Start all `n` positions with `start(group, pos)`, at no cost.
        pub(super) fn start(
            n: usize,
            start: impl Fn(&CommGroup, usize) -> (Machine, Vec<Action>),
        ) -> Sim {
            Self::start_under(CostModel::zero(), n, start)
        }

        /// [`Sim::start`] with every frame stamped under `cost`.
        pub(super) fn start_under(
            cost: CostModel,
            n: usize,
            start: impl Fn(&CommGroup, usize) -> (Machine, Vec<Action>),
        ) -> Sim {
            let mut sim = Sim {
                groups: (0..n).map(|pos| group_for(pos, n)).collect(),
                machines: Vec::new(),
                in_flight: VecDeque::new(),
                sent: Vec::new(),
                outcome: (0..n).map(|_| None).collect(),
                cost,
                now: vec![Duration::ZERO; n],
                nic_free: vec![Duration::ZERO; n],
            };
            for pos in 0..n {
                let (machine, actions) = start(&sim.groups[pos], pos);
                sim.machines.push(machine);
                sim.absorb(pos, actions);
            }
            sim
        }

        fn absorb(&mut self, pos: usize, actions: Vec<Action>) {
            let src = self.groups[pos].nodes[pos];
            for action in actions {
                match action {
                    Action::Send {
                        to,
                        phase,
                        status,
                        body,
                    } => {
                        for dst in to {
                            let stamp = self.stamp(pos, EXCHANGE_HEADER_BYTES + body.len());
                            let frame = (status, body.clone());
                            self.sent.push((src, dst, phase, frame.clone()));
                            self.in_flight.push_back((stamp, src, dst, phase, frame));
                        }
                    }
                    terminal => {
                        let previous = self.outcome[pos].replace(terminal);
                        assert!(previous.is_none(), "position {pos} ended twice");
                    }
                }
            }
        }

        /// When an exchange frame of `len` bytes that `pos` sends now lands,
        /// occupying `pos`'s NIC until then.
        fn stamp(&mut self, pos: usize, len: usize) -> Duration {
            let network = self.cost.network;
            let handshake = if len > self.cost.eager_threshold {
                2 * network.transfer_time(HEADER_BYTES)
            } else {
                Duration::ZERO
            };
            let leaves = self.now[pos].max(self.nic_free[pos]);
            self.nic_free[pos] = leaves + handshake + network.transfer_time(HEADER_BYTES + len);
            self.nic_free[pos]
        }

        /// Deliver queued frames until none is left: oldest first, or —
        /// `newest_first` — always the most recently sent one, which hands
        /// every machine its later steps' frames before its earlier ones.
        pub(super) fn run(self, newest_first: bool) -> Sim {
            self.run_by(|in_flight| if newest_first { in_flight.len() - 1 } else { 0 })
        }

        /// Deliver queued frames earliest landing stamp first (oldest first
        /// among equal stamps): the order the modelled hardware delivers in.
        pub(super) fn run_timed(self) -> Sim {
            self.run_by(|in_flight| {
                let stamps = in_flight.iter().map(|frame| frame.0).enumerate();
                stamps.min_by_key(|&(_, stamp)| stamp).expect("a frame").0
            })
        }

        /// Deliver the frame `next` picks until none is left.
        fn run_by(mut self, next: impl Fn(&VecDeque<InFlight>) -> usize) -> Sim {
            while !self.in_flight.is_empty() {
                let index = next(&self.in_flight);
                let (stamp, src, dst, phase, frame) = self.in_flight.remove(index).expect("index");
                let pos = self.groups[0].nodes.iter().position(|&node| node == dst);
                let pos = pos.expect("frames go to group nodes");
                if self.outcome[pos].is_some() {
                    continue; // the engine drops frames of a settled exchange
                }
                self.now[pos] = self.now[pos].max(stamp);
                let actions = self.machines[pos].on_frame(&self.groups[pos], src, phase, frame);
                self.absorb(pos, actions);
            }
            self
        }

        /// The exchange's modelled time: the latest clock once every
        /// position has settled.
        pub(super) fn modelled_time(&self) -> Duration {
            assert!(self.outcome.iter().all(Option::is_some), "unsettled");
            self.now.iter().copied().max().unwrap_or_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Inbox;

    #[test]
    fn a_dropped_assembly_or_exchange_answers_every_joined_rank_shutting_down() {
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
        let group = sim::group_for(0, 2);
        let (machine, _) = Rooted::start(id, Topology::Flat, "star", &group, 0, Ok(Vec::new()));
        drop(Exchange {
            id,
            joined: vec![(2, inbox.reply_to((2, 1)))],
            plan: ExchangePlan::Star,
            machine,
            started: Instant::now(),
        });
        let replies = inbox.drain();
        for (rank, (token, reply)) in replies.iter().enumerate() {
            assert_eq!(*token, (rank as u32, 1));
            assert!(matches!(reply, Reply::Error(DcgnError::ShuttingDown)));
        }
        assert_eq!(replies.len(), 3);
    }

    /// The collectives the cost oracle times: name, kind and payload bytes
    /// (the broadcast root's, or every node's reduce vector).
    const ORACLE_COLLECTIVES: [(&str, CollectiveKind, usize); 5] = [
        ("barrier", CollectiveKind::Barrier, 0),
        ("bcast 1 KiB", CollectiveKind::Broadcast, 1 << 10),
        ("allreduce 8 B", CollectiveKind::Allreduce, 8),
        ("allreduce 32 KiB", CollectiveKind::Allreduce, 32 << 10),
        ("allreduce 1 MiB", CollectiveKind::Allreduce, 1 << 20),
    ];

    const PLANS: [ExchangePlan; 4] = [
        ExchangePlan::Star,
        ExchangePlan::Tree,
        ExchangePlan::RecursiveDoubling,
        ExchangePlan::Ring,
    ];

    /// Modelled nanoseconds of every applicable plan, in [`PLANS`] order
    /// (recursive doubling and ring apply to allreduce only), under the
    /// unscaled G92 model.
    #[rustfmt::skip]
    const MODELLED_NS: [(usize, &str, &[u64]); 40] = [
        (2, "barrier", &[6_104, 6_104]),
        (2, "bcast 1 KiB", &[6_835, 6_835]),
        (2, "allreduce 8 B", &[6_117, 6_117, 3_056, 6_118]),
        (2, "allreduce 32 KiB", &[52_917, 52_917, 26_456, 29_512]),
        (2, "allreduce 1 MiB", &[1_516_163, 1_516_163, 758_079, 767_180]),
        (3, "barrier", &[9_147, 9_147]),
        (3, "bcast 1 KiB", &[10_609, 10_609]),
        (3, "allreduce 8 B", &[9_166, 9_166, 9_168, 12_236]),
        (3, "allreduce 32 KiB", &[79_366, 79_366, 79_368, 43_436]),
        (3, "allreduce 1 MiB", &[2_274_235, 2_274_235, 2_274_237, 1_035_048]),
        (4, "barrier", &[12_190, 12_220]),
        (4, "bcast 1 KiB", &[14_383, 13_682]),
        (4, "allreduce 8 B", &[12_215, 12_253, 6_112, 18_354]),
        (4, "allreduce 32 KiB", &[105_815, 135_299, 52_912, 53_424]),
        (4, "allreduce 1 MiB", &[3_032_307, 3_781_322, 1_516_158, 1_178_070]),
        (5, "barrier", &[15_233, 15_263]),
        (5, "bcast 1 KiB", &[18_157, 17_456]),
        (5, "allreduce 8 B", &[15_264, 15_302, 12_224, 24_472]),
        (5, "allreduce 32 KiB", &[132_264, 161_748, 105_824, 61_912]),
        (5, "allreduce 1 MiB", &[3_790_379, 4_539_394, 3_032_316, 1_271_192]),
        (6, "barrier", &[18_276, 15_275]),
        (6, "bcast 1 KiB", &[21_931, 17_468]),
        (6, "allreduce 8 B", &[18_313, 15_321, 12_224, 30_590]),
        (6, "allreduce 32 KiB", &[158_713, 185_167, 105_824, 69_560]),
        (6, "allreduce 1 MiB", &[4_548_451, 5_288_391, 3_032_316, 1_339_330]),
        (8, "barrier", &[24_362, 18_360]),
        (8, "bcast 1 KiB", &[29_479, 20_553]),
        (8, "allreduce 8 B", &[24_411, 18_428, 9_168, 42_826]),
        (8, "allreduce 32 KiB", &[211_611, 264_520, 79_368, 83_706]),
        (8, "allreduce 1 MiB", &[6_064_595, 7_544_474, 2_274_237, 1_438_108]),
        (16, "barrier", &[48_706, 24_549]),
        (16, "bcast 1 KiB", &[59_671, 27_473]),
        (16, "allreduce 8 B", &[48_803, 24_680, 12_224, 91_770]),
        (16, "allreduce 32 KiB", &[423_203, 487_418, 105_824, 135_480]),
        (16, "allreduce 1 MiB", &[12_129_171, 14_303_612, 3_032_316, 1_677_300]),
        (32, "barrier", &[97_394, 30_835]),
        (32, "bcast 1 KiB", &[120_055, 34_490]),
        (32, "allreduce 8 B", &[97_587, 31_086, 15_280, 189_658]),
        (32, "allreduce 32 KiB", &[846_387, 897_670, 132_280, 234_608]),
        (32, "allreduce 1 MiB", &[24_258_323, 27_054_721, 3_790_395, 1_640_458]),
    ];

    /// Points where the default table's pick (`TREE_MIN_NODES`,
    /// `RING_MIN_UP_BYTES`) loses to the best plan by more than one network
    /// latency in the model, which charges no per-frame software cost.
    /// Moving either constant is a policy change the benchmark has to judge,
    /// so they are recorded here, not fixed.
    const PICK_LOSES: [(usize, &str); 11] = [
        // star 6_117 ns, rd 3_056 ns
        (2, "allreduce 8 B"),
        // star 52_917 ns, rd 26_456 ns
        (2, "allreduce 32 KiB"),
        // star 1_516_163 ns, rd 758_079 ns
        (2, "allreduce 1 MiB"),
        // star 79_366 ns, ring 43_436 ns
        (3, "allreduce 32 KiB"),
        // star 2_274_235 ns, ring 1_035_048 ns
        (3, "allreduce 1 MiB"),
        // star 12_215 ns, rd 6_112 ns
        (4, "allreduce 8 B"),
        // star 105_815 ns, rd 52_912 ns
        (4, "allreduce 32 KiB"),
        // star 3_032_307 ns, ring 1_178_070 ns
        (4, "allreduce 1 MiB"),
        // ring 83_706 ns, rd 79_368 ns
        (8, "allreduce 32 KiB"),
        // ring 135_480 ns, rd 105_824 ns
        (16, "allreduce 32 KiB"),
        // ring 234_608 ns, rd 132_280 ns
        (32, "allreduce 32 KiB"),
    ];

    /// Modelled nanoseconds of each applicable plan (in [`PLANS`] order) for
    /// one collective over `n` single-rank nodes, and the default table's
    /// pick.  Position 0 is the broadcast root.
    fn oracle(kind: CollectiveKind, bytes: usize, n: usize) -> (Vec<u64>, ExchangePlan) {
        use dcgn_rmpi::{frame_reduce, ReduceDtype, ReduceOp};
        let allreduce = kind == CollectiveKind::Allreduce;
        let id = CollectiveId {
            kind,
            root: (kind == CollectiveKind::Broadcast).then_some(0),
            reduction: allreduce.then_some((ReduceOp::Sum, ReduceDtype::F64)),
        };
        let up = |pos: usize| match kind {
            CollectiveKind::Allreduce => {
                frame_reduce(ReduceOp::Sum, ReduceDtype::F64, &vec![0; bytes])
            }
            _ if pos == 0 => vec![0; bytes],
            _ => Vec::new(),
        };
        let plans = if allreduce { &PLANS[..] } else { &PLANS[..2] };
        let times = plans
            .iter()
            .map(|&plan| {
                let start = |group: &CommGroup, pos: usize| {
                    start_machine(plan, id, group, pos, Ok(up(pos))).expect("plan applies")
                };
                let sim = sim::Sim::start_under(CostModel::g92_cluster(), n, start).run_timed();
                for outcome in &sim.outcome {
                    assert!(matches!(outcome, Some(Action::Deliver(_))), "{outcome:?}");
                }
                sim.modelled_time().as_nanos() as u64
            })
            .collect();
        let pick = Engine::select_plan(None, id, COLLECTIVE_ID_BYTES + up(0).len(), n);
        (times, pick)
    }

    /// The exact critical path of every plan over 2–32 nodes, and the
    /// default table's pick within one network latency of the best plan
    /// everywhere but [`PICK_LOSES`].
    #[test]
    fn cost_oracle_pins_every_plan_and_checks_the_default_pick() {
        let latency = CostModel::g92_cluster().network.latency.as_nanos() as u64;
        let mut pinned = MODELLED_NS.iter();
        for n in [2, 3, 4, 5, 6, 8, 16, 32] {
            for (name, kind, bytes) in ORACLE_COLLECTIVES {
                let (times, pick) = oracle(kind, bytes, n);
                assert_eq!(pinned.next(), Some(&(n, name, &times[..])));
                let best = times.iter().copied().min().expect("a plan applies");
                let picked = times[PLANS.iter().position(|&plan| plan == pick).expect("a plan")];
                let loses = picked > best + latency;
                assert_eq!(
                    loses,
                    PICK_LOSES.contains(&(n, name)),
                    "{name} over {n} nodes: {pick:?} takes {picked} ns, the best plan {best} ns"
                );
            }
        }
        assert_eq!(pinned.next(), None);
    }
}
