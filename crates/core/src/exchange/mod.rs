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
//! * this file — the **engine**: the communicator registry, the plan choice,
//!   the exchange metrics and what a finished exchange does to its joiners;
//! * [`ops`] — what each collective means to a node: classify and build the
//!   node's contribution at the join, deliver its down-payload (and apply a
//!   split) to the local joiners.
//!
//! Each node is one participant of a [`Driver`], which numbers a
//! communicator's exchanges, frames them and owns the rules for frames that
//! meet no running machine: early frames wait in a capped stash, an abort
//! that raced ahead of the local assembly is a tombstone, and a frame of an
//! exchange this node already settled is late and dropped.  The MPI twin's
//! own collectives run the same driver.
//!
//! Exchange frames all travel under one MPI tag ([`TAG_EXCHANGE`]) and carry
//! their full identity — `(comm_epoch, comm_id, seq, phase)` — in an
//! explicit header, plus the collective's own identity (kind, root,
//! reduction operator and element type) at the head of every OK body.  The
//! driver demultiplexes on the exact exchange, so concurrent exchanges can
//! never cross-talk, and cross-node disagreement about *which* collective is
//! executing surfaces as a clean [`DcgnError::CollectiveMismatch`] on every
//! participant.
//!
//! An erroneous collective fails *every* participating node instead of
//! leaving peers blocked inside a substrate call: any node that detects a
//! problem — a mismatched collective identity, an unparseable frame, a frame
//! its schedule has no step for (the signature of plans diverging across
//! nodes) — broadcasts a [`PHASE_ABORT`] frame directly to every group node,
//! so failure containment is identical under every plan.
//!
//! Large frames need no special handling here: any payload above the
//! substrate's eager threshold rides the rendezvous path, and payloads beyond
//! one chunk stream through its credit-windowed chunk pipeline automatically
//! (see `dcgn_rmpi::RdvConfig`, whose `from_env` reads the `DCGN_RDV_CHUNK` /
//! `DCGN_RDV_WINDOW` env vars, and [`crate::DcgnConfig::resolved_rdv_config`],
//! which applies them).

mod ops;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dcgn_metrics::{Counter, Gauge, Histogram, MetricsHandle};
use dcgn_netsim::Payload;
use dcgn_rmpi::exchange::{
    select_plan, start_machine, CollectiveId, CollectiveKind, Driver, Out, Stream,
    COLLECTIVE_ID_BYTES, ST_MISMATCH,
};
use dcgn_rmpi::{PHASE_ABORT, PHASE_DOWN, PHASE_RING_BASE, PHASE_UP, TAG_EXCHANGE};
use dcgn_simtime::{Clock, Stamp};

use crate::comm_thread::Substrate;
use crate::config::ExchangePlan;
use crate::error::{DcgnError, Result};
use crate::group::{CommGroup, CommId};
use crate::message::{Reply, ReplyTo};
use crate::rank::RankMap;

pub(crate) use self::ops::{classify_collective, CollectiveAssembly, Contribution};

/// One communicator's collective mid-exchange across nodes.  Several can be
/// live at once — at most one per communicator — and each progresses
/// independently as its frames arrive, which is what lets disjoint
/// communicators (and the world) overlap.
struct Exchange {
    comm: CommId,
    id: CollectiveId,
    /// `(rank, reply address)` of every joined local member.
    joined: Vec<(usize, ReplyTo)>,
    /// The schedule this node derived for the collective.  Every correct
    /// node derives the same plan from the same `(kind, size, node count)`;
    /// a divergence surfaces as an unexpected-phase abort.
    plan: ExchangePlan,
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
    /// `exchange.early_frames.node{N}` — exchanges with frames stashed
    /// ahead of the local assembly.
    stashed: Gauge,
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
            stashed: gauge("early_frames"),
            latency: HashMap::new(),
        }
    }

    /// The sent-frames counter of a phase's family; aborts count in none.
    fn frames(&self, phase: u32) -> Option<&Counter> {
        let family = match phase {
            PHASE_ABORT => return None,
            PHASE_UP => 0,
            PHASE_DOWN => 1,
            phase if phase < PHASE_RING_BASE => 2,
            _ => 3,
        };
        Some(&self.frames[family])
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

/// One node's exchange engine: the communicators it knows and its side of
/// their exchanges.
pub(crate) struct Engine {
    node: usize,
    rank_map: Arc<RankMap>,
    clock: Clock,
    /// Communicator groups known to this node (world plus every split
    /// product with a resident member).
    groups: HashMap<CommId, CommGroup>,
    /// This node's side of every exchange, this node a participant.
    driver: Driver<Exchange>,
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
            driver: Driver::new(node, rank_map.num_nodes()),
            rank_map,
            clock: clock.clone(),
            groups: HashMap::from([(CommId::WORLD, world)]),
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

    /// The driver stream of `comm`'s exchanges, and its group.
    fn stream(&self, comm: CommId) -> Result<(Stream, &CommGroup)> {
        let group = self.group(comm)?;
        Ok(((group.epoch, comm.raw()), group))
    }

    /// True when `comm` has an exchange in flight on this node.
    pub(crate) fn is_exchanging(&self, comm: CommId) -> bool {
        let stream = self.stream(comm);
        stream.is_ok_and(|(stream, _)| self.driver.is_live(stream))
    }

    /// True when no exchange is in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.driver.is_idle()
    }

    /// Evict a communicator every local member has freed, with whatever was
    /// stashed for exchanges it will now never enter.
    pub(crate) fn forget(&mut self, comm: CommId) {
        if let Some(group) = self.groups.remove(&comm) {
            self.driver.forget((group.epoch, comm.raw()));
        }
    }

    /// Shutdown: nobody is left to complete an exchange, so drop them all —
    /// which answers every joined rank [`DcgnError::ShuttingDown`].
    pub(crate) fn shutdown(&mut self) {
        self.driver.abandon();
    }

    /// Publish how many exchanges not entered yet hold a tombstone or
    /// stashed frames.
    pub(crate) fn sample_gauges(&self) {
        let (tombstones, stashed) = self.driver.stashed();
        self.metrics.tombstones.set(tombstones as u64);
        self.metrics.stashed.set(stashed as u64);
    }

    /// Start the cross-node exchange of a completed assembly: build this
    /// node's contribution, select the plan and enter the exchange (which
    /// runs the plan's opening actions and replays any frames that raced
    /// ahead of this node's local assembly).
    pub(crate) fn start(
        &mut self,
        net: &mut Substrate,
        comm: CommId,
        assembly: CollectiveAssembly,
    ) -> Result<()> {
        let (stream, group) = self.stream(comm)?;
        let up = ops::build_up(&assembly, group);
        let layout = Arc::clone(&group.layout);
        let id = assembly.id;
        let up_len = match &up {
            Ok(contribution) => COLLECTIVE_ID_BYTES + contribution.len(),
            Err(msg) => msg.len(),
        };
        let plan = select_plan(self.forced_plan, id, up_len, layout.nodes.len());
        let exchange = Exchange {
            comm,
            id,
            joined: assembly
                .joined
                .into_iter()
                .map(|(rank, _, reply_to)| (rank, reply_to))
                .collect(),
            plan,
            started: self.clock.now(),
        };
        let plan_counter = &self.metrics.plans[plan as usize];
        let start = |layout: &_, pos| {
            plan_counter.inc();
            start_machine(plan, id, layout, pos, up)
        };
        let mut outs = Vec::new();
        self.driver
            .enter(stream, layout, exchange, start, &mut outs)?;
        self.execute(net, outs)
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
        let (stream, group) = self.stream(comm)?;
        let layout = Arc::clone(&group.layout);
        let mut outs = Vec::new();
        self.driver
            .enter_aborted(stream, &layout, ST_MISMATCH, &codes, &mut outs);
        self.execute(net, outs)
    }

    /// Hand one received exchange frame to the driver, which feeds it to
    /// the exchange it names, stashes it, or drops it as late.
    pub(crate) fn on_wire_frame(
        &mut self,
        net: &mut Substrate,
        src_node: usize,
        wire: Payload,
    ) -> Result<()> {
        let mut outs = Vec::new();
        self.driver.on_wire(src_node, wire, &mut outs)?;
        self.execute(net, outs)
    }

    /// Do what the driver asks: the one place that sends an exchange frame,
    /// and the one that records latency and delivers or fails the joiners.
    fn execute(&mut self, net: &mut Substrate, outs: Vec<Out<Exchange>>) -> Result<()> {
        for out in outs {
            match out {
                Out::Send { to, phase, wire } => {
                    if let Some(frames) = self.metrics.frames(phase) {
                        frames.add(to.len() as u64);
                    }
                    for dst in to {
                        net.isend(dst, TAG_EXCHANGE, wire.clone())?;
                    }
                }
                Out::Done(ex, Ok(payload)) => {
                    let elapsed = self.clock.elapsed(ex.started);
                    self.metrics
                        .record_latency(ex.comm, ex.id.kind, ex.plan, elapsed);
                    self.deliver(net, ex.comm, ex.id, ex.joined, payload)?;
                }
                Out::Done(ex, Err(err)) => fail_joined(ex.joined, err.into()),
            }
        }
        Ok(())
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
        drop(Exchange {
            comm: CommId::WORLD,
            id,
            joined: vec![(2, inbox.reply_to((2, 1)))],
            plan: ExchangePlan::Star,
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
