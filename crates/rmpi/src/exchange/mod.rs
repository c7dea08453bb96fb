//! The collective exchange plans — the one collective library of the
//! workspace.
//!
//! A collective over `n` participants runs under one of four *plans*, picked
//! deterministically from `(kind, payload size, participant count)` by
//! [`select_plan`].  DCGN's comm-thread engine runs them between the nodes
//! hosting a communicator's members; this crate's own blocking collectives
//! ([`Communicator::barrier`] and friends) run the very same plans between
//! ranks, each rank a participant of its own, so a DCGN-versus-MPI ratio
//! compares one algorithm with itself.
//!
//! Module map:
//!
//! * this file — plan selection, the [`Action`]s a plan asks its caller to
//!   execute, [`start_machine`], and the blocking loop behind this crate's
//!   collectives;
//! * `driver` — the [`Driver`], one participant's side of every exchange:
//!   the frame header codec, sequence numbers, the early-frame stash and its
//!   cap, tombstones, the late-frame drop and the abort broadcast.  DCGN's
//!   engine, this crate's collectives and the plan walker all run it;
//! * `rooted` — the gather → combine → scatter machine, parameterised by a
//!   topology: flat is the **star** plan, binomial the **tree** plan; its
//!   combine is what each collective means at the root;
//! * `allreduce` — the ordered-step machine under which **recursive
//!   doubling** and **ring** are two step tables;
//! * `wire` — status bytes, [`CollectiveId`], bundle / rank-frame / reduce
//!   codecs and the single cross-participant identity check.
//!
//! A plan is a state machine that never sees the substrate, the metrics or a
//! reply address: it is fed `(source, phase, frame)` and returns [`Action`]s.
//! That makes every plan a pure function of its frames — testable by
//! hand-feeding frames, with no runtime and no threads.  Every frame a plan
//! sends carries the collective's identity (kind, root, reduction operator
//! and element type) at the head of every OK body, so participants that
//! disagree about *which* collective runs fail with
//! [`RmpiError::CollectiveMismatch`] instead of deadlocking.

mod allreduce;
mod driver;
mod rooted;
mod wire;

use std::sync::Arc;

use dcgn_netsim::Payload;

use self::allreduce::{rd_steps, ring_steps, Allreduce};
pub use self::driver::{Driver, Out, Stream};
pub use self::rooted::fold_all;
use self::rooted::{Rooted, Topology};
pub use self::wire::{
    decode_color_key, decode_rank_frames_into, encode_color_key, encode_rank_frames, CollectiveId,
    CollectiveKind, ExFrame, COLLECTIVE_ID_BYTES, ST_MISMATCH,
};
use crate::comm::{Communicator, Request, TAG_COLLECTIVE};
use crate::packet::RmpiError;
use crate::Result;

/// Which schedule an exchange runs under.
///
/// Normally the plan is picked per `(op, payload size, node count)` — see
/// [`select_plan`] — but tests and benchmarks can force one on DCGN's engine
/// via `DcgnConfig::with_exchange_plan` or the `DCGN_FORCE_PLAN`
/// environment variable (`star`, `tree`, `rd`, `ring`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangePlan {
    /// Every node sends to the leader, which combines and fans results out.
    Star,
    /// Binomial tree rooted at the leader: contributions bundle up the tree,
    /// results flow down it — O(log n) critical path.
    Tree,
    /// Recursive-doubling allreduce (latency-optimal for small payloads).
    /// Applies to allreduce only; other ops fall back to the default table.
    RecursiveDoubling,
    /// Ring allreduce (bandwidth-optimal for large payloads).  Applies to
    /// allreduce only; other ops fall back to the default table.
    Ring,
}

impl ExchangePlan {
    /// Parse the `DCGN_FORCE_PLAN` spelling of a plan.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "star" => Some(ExchangePlan::Star),
            "tree" => Some(ExchangePlan::Tree),
            "rd" | "recursive-doubling" | "recursive_doubling" => {
                Some(ExchangePlan::RecursiveDoubling)
            }
            "ring" => Some(ExchangePlan::Ring),
            _ => None,
        }
    }

    /// Human-readable plan name for metrics and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ExchangePlan::Star => "star",
            ExchangePlan::Tree => "tree",
            ExchangePlan::RecursiveDoubling => "recursive-doubling",
            ExchangePlan::Ring => "ring",
        }
    }
}

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

/// Pick the schedule for a collective from `(op, up-frame body size, node
/// count)`.  Every correct participant computes the same answer from the
/// same inputs; a forced plan overrides the table, with rd/ring applying to
/// allreduce only.
pub fn select_plan(
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

/// Who takes part in one exchange: the node hosting each member, and the
/// nodes hosting at least one.  A plan addresses participants by node id
/// and positions them by their index in [`Layout::nodes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Node hosting each member, in sub-rank order.
    pub member_nodes: Vec<usize>,
    /// Nodes hosting at least one member, ascending.  `nodes[0]` leads the
    /// group's exchanges.
    pub nodes: Vec<usize>,
}

impl Layout {
    /// The layout of members hosted on `member_nodes` (index-aligned with
    /// the members' sub-ranks).
    pub fn new(member_nodes: Vec<usize>) -> Self {
        let mut nodes = member_nodes.clone();
        nodes.sort_unstable();
        nodes.dedup();
        Layout {
            member_nodes,
            nodes,
        }
    }
}

/// What a plan asks its caller to do.  `Deliver`, `Fail` and `Abort` end the
/// exchange at this participant.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Frame `(phase, status, body)` once and ship the shared frame to every
    /// node in `to` — reference clones, not per-node copies.
    Send {
        /// Destination nodes (empty for a leaf with nobody to relay to).
        to: Vec<usize>,
        /// The frame's protocol phase.
        phase: u32,
        /// The frame's status byte.
        status: u8,
        /// The frame's body.
        body: Payload,
    },
    /// The collective completed: this participant's down-payload.
    Deliver(Payload),
    /// The collective failed with an error every participant learns along
    /// the schedule (or already knows).
    Fail(RmpiError),
    /// This participant detected the failure: broadcast the abort frame to
    /// every other participant, then fail with its error.
    Abort {
        /// The abort frame's status byte.
        status: u8,
        /// The abort frame's body.
        body: Vec<u8>,
    },
}

/// The plan state machine of one participant in one exchange.  (Cloned only
/// by the delivery-order walker in this module's tests.)
#[cfg_attr(test, derive(Clone))]
pub enum Machine {
    /// The star or tree plan.
    Rooted(Rooted),
    /// The recursive-doubling or ring plan.
    Allreduce(Allreduce),
}

impl Machine {
    /// Advance on one frame `src_node` sent under `phase`, returning what to
    /// do next.  (Abort frames never reach a machine: the [`Driver`] ends
    /// the exchange on them under every plan.)
    pub fn on_frame(
        &mut self,
        layout: &Layout,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Vec<Action> {
        match self {
            Machine::Rooted(m) => m.on_frame(layout, src_node, phase, frame),
            Machine::Allreduce(m) => m.on_frame(src_node, phase, frame),
        }
    }
}

/// Enter `plan`'s machine at position `pos` of `layout.nodes` with this
/// participant's contribution (or local validation failure) `up`, returning
/// the machine and its opening actions.
pub fn start_machine(
    plan: ExchangePlan,
    id: CollectiveId,
    layout: &Layout,
    pos: usize,
    up: std::result::Result<Vec<u8>, String>,
) -> Result<(Machine, Vec<Action>)> {
    let name = plan.name();
    let nodes = &layout.nodes;
    Ok(match (plan, id.reduction) {
        (ExchangePlan::Star, _) => Rooted::start(id, Topology::Flat, name, layout, pos, up),
        (ExchangePlan::Tree, _) => Rooted::start(id, Topology::Binomial, name, layout, pos, up),
        (ExchangePlan::RecursiveDoubling, Some(reduction)) => {
            Allreduce::start(id, reduction, name, rd_steps(pos, nodes), nodes.len(), up)
        }
        (ExchangePlan::Ring, Some(reduction)) => {
            Allreduce::start(id, reduction, name, ring_steps(pos, nodes), nodes.len(), up)
        }
        (_, None) => {
            return Err(RmpiError::Internal(format!(
                "{name} selected for {}, which carries no reduction",
                id.kind.name()
            )))
        }
    })
}

impl Communicator {
    /// Run one collective to completion under the plan DCGN's engine picks
    /// for the same `(kind, size, participants)`, every rank a participant
    /// of its own, and return this rank's down-payload.  A root outside the
    /// world is [`RmpiError::InvalidRank`] before anything is sent.
    ///
    /// Every frame travels under the internal [`TAG_COLLECTIVE`], and the
    /// communicator's [`Driver`] numbers, stashes and drops them as it does
    /// DCGN's exchange frames.  The call returns only once its own sends
    /// have completed, so no rendezvous-sized frame is left waiting for a
    /// CTS nobody services.
    pub(crate) fn run_collective(&mut self, id: CollectiveId, up: Vec<u8>) -> Result<Payload> {
        let size = self.size();
        if let Some(root) = id.root.filter(|&root| root >= size) {
            return Err(RmpiError::InvalidRank(root));
        }
        let plan = select_plan(None, id, COLLECTIVE_ID_BYTES + up.len(), size);
        let start = |layout: &Layout, pos| start_machine(plan, id, layout, pos, Ok(up));
        let mut outs = Vec::new();
        let layout = Arc::clone(&self.layout);
        self.exchanges.enter((0, 0), layout, (), start, &mut outs)?;
        let mut sends = Vec::new();
        let outcome = match self.finish_collective(outs, &mut sends) {
            Ok(outcome) => outcome,
            Err(err) => {
                // Whatever still arrives for a collective this rank gave up
                // on is late, not a frame of the next one.
                self.exchanges.abandon();
                return Err(err);
            }
        };
        // Every send is waited for, so none is left behind; the collective's
        // own error outranks a send's.
        let mut sent = Ok(());
        for req in sends {
            sent = sent.and(self.wait_send(req));
        }
        outcome.and_then(|payload| sent.map(|()| payload))
    }

    /// Do what the driver asks — send under [`TAG_COLLECTIVE`], keeping
    /// each request in `sends` — and hand it received frames until the
    /// collective it entered ends with its outcome.  An error of the
    /// substrate itself is the outer one.
    fn finish_collective(
        &mut self,
        mut outs: Vec<Out<()>>,
        sends: &mut Vec<Request>,
    ) -> Result<Result<Payload>> {
        loop {
            let mut outcome = None;
            for out in outs.drain(..) {
                match out {
                    Out::Send { to, wire, .. } => {
                        for dst in to {
                            sends.push(self.isend(dst, TAG_COLLECTIVE, wire.clone())?);
                        }
                    }
                    Out::Done((), result) => outcome = Some(result),
                }
            }
            if let Some(outcome) = outcome {
                return Ok(outcome);
            }
            let (wire, status) = self.recv(None, Some(TAG_COLLECTIVE))?;
            self.exchanges.on_wire(status.source, wire, &mut outs)?;
        }
    }
}

/// Drivers wired back to back with no runtime, substrate or thread: what
/// one position's [`Driver`] sends is queued, framed, and handed to the
/// driver it names, so every run goes through the stash, late-frame and
/// abort rules the runtime runs.
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
    use std::sync::Arc;
    use std::time::Duration;

    use dcgn_netsim::Payload;
    use dcgn_simtime::CostModel;

    use super::{Action, Driver, Layout, Machine, Out};
    use crate::packet::HEADER_BYTES;
    use crate::Result;

    /// One single-rank node per position.  Node ids differ from positions
    /// (`2·pos + 1`), so a plan confusing the two fails.
    pub(super) fn layout_for(n: usize) -> Layout {
        Layout::new((0..n).map(|p| 2 * p + 1).collect())
    }

    /// A frame on its way: `(landing stamp, src node, dst node, wire)`.
    type InFlight = (Duration, usize, usize, Payload);

    /// Every position of one exchange.
    #[derive(Clone)]
    pub(super) struct Sim {
        layout: Arc<Layout>,
        drivers: Vec<Driver<()>>,
        /// The machine and opening actions of each position that has not
        /// entered the exchange yet.
        unentered: Vec<Option<(Machine, Vec<Action>)>>,
        /// Frames sent and not yet delivered, in send order.
        pub(super) in_flight: VecDeque<InFlight>,
        /// Every frame sent so far, as it went on the wire.
        pub(super) sent: Vec<Payload>,
        /// How the exchange ended at each position.
        pub(super) outcome: Vec<Option<Result<Payload>>>,
        /// The model frames are stamped under.
        cost: CostModel,
        /// Each position's logical clock.
        now: Vec<Duration>,
        /// When each position's NIC has finished its last send.
        nic_free: Vec<Duration>,
    }

    impl Sim {
        /// Start all `n` positions with `start(layout, pos)`, at no cost.
        pub(super) fn start(
            n: usize,
            start: impl Fn(&Layout, usize) -> (Machine, Vec<Action>),
        ) -> Sim {
            Self::start_under(CostModel::zero(), n, start)
        }

        /// [`Sim::start`] with every frame stamped under `cost`.
        pub(super) fn start_under(
            cost: CostModel,
            n: usize,
            start: impl Fn(&Layout, usize) -> (Machine, Vec<Action>),
        ) -> Sim {
            let mut sim = Self::staged(cost, n, start);
            for pos in 0..n {
                sim.enter(pos);
            }
            sim
        }

        /// All `n` positions ready to enter with `start(layout, pos)`, and
        /// none entered yet.
        pub(super) fn staged(
            cost: CostModel,
            n: usize,
            start: impl Fn(&Layout, usize) -> (Machine, Vec<Action>),
        ) -> Sim {
            let layout = Arc::new(layout_for(n));
            Sim {
                drivers: layout
                    .nodes
                    .iter()
                    .map(|&node| Driver::new(node, n))
                    .collect(),
                unentered: (0..n).map(|pos| Some(start(&layout, pos))).collect(),
                layout,
                in_flight: VecDeque::new(),
                sent: Vec::new(),
                outcome: (0..n).map(|_| None).collect(),
                cost,
                now: vec![Duration::ZERO; n],
                nic_free: vec![Duration::ZERO; n],
            }
        }

        /// The positions that have not entered yet.
        pub(super) fn unentered(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.unentered.len()).filter(|&pos| self.unentered[pos].is_some())
        }

        /// Enter position `pos` through its driver.
        pub(super) fn enter(&mut self, pos: usize) {
            let opening = self.unentered[pos].take().expect("a position enters once");
            let mut outs = Vec::new();
            let layout = Arc::clone(&self.layout);
            let driver = &mut self.drivers[pos];
            let entered = driver.enter((0, 0), layout, (), |_, _| Ok(opening), &mut outs);
            entered.expect("every position is in the layout");
            self.absorb(pos, outs);
        }

        fn absorb(&mut self, pos: usize, outs: Vec<Out<()>>) {
            let src = self.layout.nodes[pos];
            for out in outs {
                match out {
                    Out::Send { to, wire, .. } => {
                        for dst in to {
                            let stamp = self.stamp(pos, wire.len());
                            self.sent.push(wire.clone());
                            self.in_flight.push_back((stamp, src, dst, wire.clone()));
                        }
                    }
                    Out::Done((), result) => {
                        let previous = self.outcome[pos].replace(result);
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
                self.deliver(index);
            }
            self
        }

        /// Deliver the `index`-th queued frame to its position's driver.  A
        /// frame that lands after its position settled does not move that
        /// position's clock.
        pub(super) fn deliver(&mut self, index: usize) {
            let (stamp, src, dst, wire) = self.in_flight.remove(index).expect("index");
            let pos = self.layout.nodes.iter().position(|&node| node == dst);
            let pos = pos.expect("frames go to group nodes");
            if self.outcome[pos].is_none() {
                self.now[pos] = self.now[pos].max(stamp);
            }
            let mut outs = Vec::new();
            let taken = self.drivers[pos].on_wire(src, wire, &mut outs);
            taken.expect("a well-formed frame");
            self.absorb(pos, outs);
        }

        /// True once every position has ended and no driver holds a running
        /// exchange or a stash.
        pub(super) fn settled(&self) -> bool {
            let idle = |driver: &Driver<()>| driver.is_idle() && driver.stashed() == (0, 0);
            self.outcome.iter().all(Option::is_some) && self.drivers.iter().all(idle)
        }

        /// The exchange's modelled time: the latest clock once every
        /// position has settled.
        pub(super) fn modelled_time(&self) -> Duration {
            assert!(self.settled(), "unsettled");
            self.now.iter().copied().max().unwrap_or_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use dcgn_netsim::Cluster;
    use dcgn_simtime::CostModel;

    use super::*;
    use crate::collectives::{frame_reduce, ReduceDtype, ReduceOp};
    use crate::rdv::RdvConfig;
    use crate::world::{MpiWorld, RankPlacement};

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

    /// The identity of one collective over single-rank positions, position
    /// 0 the broadcast root, and the up-body position `pos` contributes with
    /// `bytes` of payload (the root's, or every position's reduce vector).
    fn collective(kind: CollectiveKind, bytes: usize) -> (CollectiveId, impl Fn(usize) -> Vec<u8>) {
        let allreduce = kind == CollectiveKind::Allreduce;
        let id = CollectiveId {
            kind,
            root: (kind == CollectiveKind::Broadcast).then_some(0),
            reduction: allreduce.then_some((ReduceOp::Sum, ReduceDtype::F64)),
        };
        let up = move |pos: usize| match kind {
            CollectiveKind::Allreduce => {
                frame_reduce(ReduceOp::Sum, ReduceDtype::F64, &vec![0; bytes])
            }
            _ if pos == 0 => vec![0; bytes],
            _ => Vec::new(),
        };
        (id, up)
    }

    /// The plans that apply to `kind`: recursive doubling and ring run
    /// allreduce only.
    fn plans_for(kind: CollectiveKind) -> &'static [ExchangePlan] {
        if kind == CollectiveKind::Allreduce {
            &PLANS
        } else {
            &PLANS[..2]
        }
    }

    /// Modelled nanoseconds of each applicable plan (in [`PLANS`] order) for
    /// one collective over `n` single-rank nodes, and the default table's
    /// pick.
    fn oracle(kind: CollectiveKind, bytes: usize, n: usize) -> (Vec<u64>, ExchangePlan) {
        let (id, up) = collective(kind, bytes);
        let times = plans_for(kind)
            .iter()
            .map(|&plan| {
                let start = |layout: &Layout, pos: usize| {
                    start_machine(plan, id, layout, pos, Ok(up(pos))).expect("plan applies")
                };
                let sim = sim::Sim::start_under(CostModel::g92_cluster(), n, start).run_timed();
                for outcome in &sim.outcome {
                    assert!(matches!(outcome, Some(Ok(_))), "{outcome:?}");
                }
                sim.modelled_time().as_nanos() as u64
            })
            .collect();
        let pick = select_plan(None, id, COLLECTIVE_ID_BYTES + up(0).len(), n);
        (times, pick)
    }

    /// The exact critical path of every plan over 2–32 nodes, and the
    /// default table's pick within one network latency of the best plan
    /// everywhere but [`PICK_LOSES`].  The MPI twin's collectives run the
    /// pick over single-rank nodes, so its column is their modelled time too.
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

    /// Run `sim` in every order, depth first: each step either enters a
    /// position that has not entered yet or delivers one queued frame, so a
    /// frame can reach a position before it enters.  Every complete run
    /// must settle every position once (`absorb` panics on a second end),
    /// leave every driver idle with nothing stashed, and match `first`, the
    /// first run's outcome; returns how many runs there were.
    fn walk(sim: sim::Sim, first: &mut Option<Vec<Option<Result<Payload>>>>) -> u64 {
        let entries: Vec<usize> = sim.unentered().collect();
        if entries.is_empty() && sim.in_flight.is_empty() {
            assert!(sim.settled(), "unsettled: {:?}", sim.outcome);
            let first = first.get_or_insert_with(|| sim.outcome.clone());
            assert_eq!(&sim.outcome, first);
            return 1;
        }
        let enter = entries.into_iter().map(|pos| (true, pos));
        let deliver = (0..sim.in_flight.len()).map(|index| (false, index));
        enter
            .chain(deliver)
            .map(|(enters, at)| {
                let mut next = sim.clone();
                if enters {
                    next.enter(at);
                } else {
                    next.deliver(at);
                }
                walk(next, first)
            })
            .sum()
    }

    /// Every order of every applicable plan over two and three single-rank
    /// nodes ends every position the same way: identical bytes everywhere,
    /// whatever the order.  Over two nodes the order includes when each
    /// position enters, so frames wait in a driver's stash; over three,
    /// every position enters up front.
    #[test]
    fn every_delivery_order_of_every_plan_delivers_the_same_bytes() {
        let three_elements = (CollectiveKind::Allreduce, 3 * 8, &PLANS[3..]);
        let cases = [
            (
                CollectiveKind::Barrier,
                0,
                plans_for(CollectiveKind::Barrier),
            ),
            (
                CollectiveKind::Broadcast,
                1 << 10,
                plans_for(CollectiveKind::Broadcast),
            ),
            (
                CollectiveKind::Allreduce,
                8,
                plans_for(CollectiveKind::Allreduce),
            ),
            three_elements,
        ];
        let mut orders = 0;
        for n in [2, 3] {
            for (kind, bytes, plans) in cases {
                let (id, up) = collective(kind, bytes);
                for &plan in plans {
                    let start = |layout: &Layout, pos: usize| {
                        start_machine(plan, id, layout, pos, Ok(up(pos))).expect("plan applies")
                    };
                    let sim = match n {
                        2 => sim::Sim::staged(CostModel::zero(), n, start),
                        _ => sim::Sim::start(n, start),
                    };
                    let mut first = None;
                    orders += walk(sim, &mut first);
                    let outcome = first.expect("at least one order");
                    assert!(matches!(&outcome[0], Some(Ok(_))), "{outcome:?}");
                    assert!(outcome.iter().all(|o| o == &outcome[0]), "{outcome:?}");
                }
            }
        }
        println!("walked {orders} orders");
    }

    /// Same plan, same frames: an MPI twin's collective puts exactly the
    /// frames on the fabric that the sim kit's run of the plan
    /// [`select_plan`] picks sends, plus an RTS and a CTS for each one above
    /// the eager threshold (which then ships as one rendezvous chunk).
    #[test]
    fn the_twin_puts_the_picked_plans_frames_on_the_fabric() {
        const EAGER: usize = 1024;
        let cases = [
            (CollectiveKind::Barrier, 0),
            (CollectiveKind::Broadcast, 1 << 10),
            (CollectiveKind::Allreduce, 8),
            (CollectiveKind::Allreduce, 32 << 10),
        ];
        for n in [2, 3, 5, 8] {
            for (kind, bytes) in cases {
                let (id, up) = collective(kind, bytes);
                let plan = select_plan(None, id, COLLECTIVE_ID_BYTES + up(0).len(), n);
                let start = |layout: &Layout, pos: usize| {
                    start_machine(plan, id, layout, pos, Ok(up(pos))).expect("plan applies")
                };
                let sim = sim::Sim::start(n, start).run(false);
                let frames = |wire: &Payload| if wire.len() > EAGER { 3 } else { 1 };
                let expected: u64 = sim.sent.iter().map(frames).sum();
                let cluster = Cluster::new(n, CostModel::zero());
                let placement = RankPlacement::block(n, 1);
                let comms = MpiWorld::create_on_with(&cluster, &placement, RdvConfig::new(EAGER))
                    .expect("valid rendezvous config");
                let sent: u64 = std::thread::scope(|scope| {
                    let ranks: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(pos, mut comm)| {
                            let up = up(pos);
                            scope.spawn(move || {
                                comm.run_collective(id, up).expect("collective");
                                comm.endpoint.stats().msgs_sent.load(Ordering::Relaxed)
                            })
                        })
                        .collect();
                    ranks
                        .into_iter()
                        .map(|rank| rank.join().expect("rank"))
                        .sum()
                });
                assert_eq!(
                    sent, expected,
                    "{kind:?} of {bytes} B over {n} ranks, {plan:?}"
                );
            }
        }
    }
}
