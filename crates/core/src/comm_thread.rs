//! The per-process communication thread.
//!
//! Exactly one of these runs per DCGN process (per node).  It is the only
//! thread that touches the MPI substrate — mirroring the paper's design for
//! coping with non-thread-safe MPI implementations — and it services the
//! work queue that CPU-kernel threads and GPU-kernel threads funnel their
//! communication requests into.
//!
//! Collectives are keyed by communicator ([`CommId`]): every group assembles
//! independently in its own [`CollectiveAssembly`], so two communicators can
//! execute collectives concurrently.  **Every** cross-node collective — the
//! world included — runs through one asynchronous exchange engine.  The
//! engine executes one of several *plans*, chosen deterministically from
//! `(kind, payload size, node count)` by [`CommThread::select_plan`] (or
//! forced via [`ExchangePlan`] config / `DCGN_FORCE_PLAN`):
//!
//! * **star** — participants ship a status-framed contribution up-frame to
//!   the group's leader node, which combines and ships per-node down-frames
//!   (optimal for small groups: two hops, no relaying);
//! * **tree** — a leader-rooted binomial tree: interior nodes concatenate
//!   their subtree's opaque up-entries into bundles, the leader combines
//!   exactly as under the star, and down-frames relay back through the tree
//!   (O(log n) critical path at the leader instead of O(n) serialized sends);
//! * **recursive doubling** — allreduce only: pairwise fold rounds over a
//!   power-of-two core, with extras folding in/out at the edges (latency-
//!   optimal for small vectors);
//! * **ring** — allreduce only: reduce-scatter then allgather around a ring
//!   (bandwidth-optimal for large vectors).
//!
//! Large frames need no special handling here: any point-to-point payload
//! above the substrate's eager threshold rides the rendezvous path, and
//! payloads beyond one chunk stream through its credit-windowed chunk
//! pipeline automatically (see `dcgn_rmpi::RdvConfig` and the
//! `DCGN_RDV_CHUNK` / `DCGN_RDV_WINDOW` knobs on [`crate::DcgnConfig`]).
//!
//! All plans progress incrementally so independent exchanges overlap, and an
//! erroneous collective fails *every* participating node instead of leaving
//! peers blocked inside a substrate call: any node that detects a problem —
//! a mismatched collective identity, an unparseable frame, a frame its
//! schedule has no step for (the signature of plans diverging across nodes)
//! — broadcasts a [`PHASE_ABORT`] frame directly to every group node and
//! tombstones the exchange, so failure containment is identical under every
//! plan.
//!
//! Exchange frames all travel under one MPI tag ([`TAG_EXCHANGE`]) and carry
//! their full identity — `(comm_epoch, comm_id, seq, phase)`, the
//! [`dcgn_rmpi::ExchangeId`] — in an explicit header, plus the collective's
//! own identity (kind, root, reduction operator and element type) inside the
//! up-frame body.  The receiving engine demultiplexes on the exact exchange
//! key, so concurrent exchanges can never cross-talk, and cross-node
//! disagreement about *which* collective is executing surfaces as a clean
//! [`DcgnError::CollectiveMismatch`] echoed to every participant.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use dcgn_metrics::{Counter, Gauge, Histogram, MetricsHandle};
use dcgn_rmpi::{
    bytes_to_u32s, frame_exchange, frame_reduce, parse_exchange_header, parse_reduce_frame,
    u32s_to_bytes, Communicator, ExchangeId, ReduceDtype, ReduceOp, Request as MpiRequest,
    EXCHANGE_HEADER_BYTES, PHASE_ABORT, PHASE_DOWN, PHASE_RD_FOLD_IN, PHASE_RD_FOLD_OUT,
    PHASE_RD_ROUND_BASE, PHASE_RING_BASE, PHASE_UP, TAG_EXCHANGE,
};
use dcgn_simtime::CostModel;

use crate::buffer::Payload;
use crate::config::ExchangePlan;
use crate::error::{DcgnError, Result};
use crate::group::{
    self, binomial_children, binomial_parent, binomial_subtree, prev_power_of_two, CommId,
};
use crate::message::{
    decode_p2p, frame_p2p, CollectiveResult, CommCommand, CommStatus, CompletionEvent, Reply,
    Request, RequestKind,
};
use crate::rank::RankMap;

/// Fallback bound on the idle wait.  Correctness does not depend on it: the
/// fabric's delivery notifier rings the work queue whenever an inter-node
/// message lands, so the comm thread is woken *by event* for both local
/// requests and substrate traffic.  The timeout only caps how stale the loop
/// can get if a wake is somehow missed.
const IDLE_FALLBACK: Duration = Duration::from_millis(1);

/// A DCGN point-to-point message that arrived from another node (or was
/// sourced locally) and has not yet been matched by a local receive.
struct IncomingMsg {
    src: usize,
    dst: usize,
    tag: u32,
    data: Payload,
    /// Reply channel of the local sender, for intra-node sends whose
    /// completion is tied to the matching receive (paper §6.2: "Local sends
    /// finish upon matching with a local receive").
    local_sender: Option<Sender<Reply>>,
    /// Arrival stamp, for FIFO matching across buckets.
    seq: u64,
}

/// A local receive request that has not yet been matched.  `None` filters
/// are wildcards (any source / any tag).
struct PendingRecv {
    dst_rank: usize,
    src: Option<usize>,
    tag: Option<u32>,
    reply_tx: Sender<Reply>,
    /// Posting stamp, for FIFO matching across buckets.
    seq: u64,
}

// ---------------------------------------------------------------------------
// Indexed point-to-point matching.
// ---------------------------------------------------------------------------

/// Hash-indexed message matcher.  Unmatched messages are bucketed by
/// `(dst, src, tag)` and unmatched receives by `(dst, src-filter,
/// tag-filter)`, so a fully-qualified match is a constant number of bucket
/// probes; receives with a wildcard filter (`src = None` and/or
/// `tag = None`) fall back to comparing the heads of the candidate message
/// buckets, indexed per destination.  Sequence stamps keep the MPI-style
/// FIFO guarantees: per (src, tag) messages match in arrival order, and
/// competing receives match in posting order.
#[derive(Default)]
struct Matcher {
    next_seq: u64,
    /// Unmatched messages, keyed by (dst, src, tag); FIFO within a bucket.
    incoming: HashMap<(usize, usize, u32), VecDeque<IncomingMsg>>,
    /// Which (src, tag) buckets are non-empty for each destination — the
    /// wildcard receive's fallback index.
    incoming_keys: HashMap<usize, BTreeSet<(usize, u32)>>,
    /// Unmatched receives, keyed by (dst, src-filter, tag-filter).
    recvs: HashMap<(usize, Option<usize>, Option<u32>), VecDeque<PendingRecv>>,
    recv_count: usize,
    msg_count: usize,
    /// Number of candidate buckets a wildcard receive had to scan; the
    /// default (disabled) histogram makes standalone matchers inert.
    wildcard_scan: Histogram,
}

impl Matcher {
    fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Number of receives still waiting for a message.
    fn pending_recvs(&self) -> usize {
        self.recv_count
    }

    /// Number of messages queued without a matching receive.
    fn queued_msgs(&self) -> usize {
        self.msg_count
    }

    /// Queue a message that matched no receive.
    fn push_msg(&mut self, msg: IncomingMsg) {
        self.msg_count += 1;
        self.incoming_keys
            .entry(msg.dst)
            .or_default()
            .insert((msg.src, msg.tag));
        self.incoming
            .entry((msg.dst, msg.src, msg.tag))
            .or_default()
            .push_back(msg);
    }

    /// Queue a receive that matched no message.
    fn push_recv(&mut self, recv: PendingRecv) {
        self.recv_count += 1;
        self.recvs
            .entry((recv.dst_rank, recv.src, recv.tag))
            .or_default()
            .push_back(recv);
    }

    /// Pop the oldest queued message a new receive can match.
    fn take_msg_for(&mut self, recv: &PendingRecv) -> Option<IncomingMsg> {
        let (src, tag) = match (recv.src, recv.tag) {
            // Fully qualified: one direct bucket probe.
            (Some(src), Some(tag)) => (src, tag),
            // Wildcard on either axis: the earliest-arrived head among
            // every non-empty bucket passing the filters.
            (src_filter, tag_filter) => {
                let keys = self.incoming_keys.get(&recv.dst_rank)?;
                self.wildcard_scan.record(keys.len() as u64);
                *keys
                    .iter()
                    .filter(|(src, tag)| {
                        src_filter.is_none_or(|s| s == *src) && tag_filter.is_none_or(|t| t == *tag)
                    })
                    .min_by_key(|&&(src, tag)| {
                        self.incoming
                            .get(&(recv.dst_rank, src, tag))
                            .and_then(VecDeque::front)
                            .map_or(u64::MAX, |m| m.seq)
                    })?
            }
        };
        self.pop_msg((recv.dst_rank, src, tag))
    }

    fn pop_msg(&mut self, key: (usize, usize, u32)) -> Option<IncomingMsg> {
        let bucket = self.incoming.get_mut(&key)?;
        let msg = bucket.pop_front()?;
        self.msg_count -= 1;
        if bucket.is_empty() {
            self.incoming.remove(&key);
            if let Some(keys) = self.incoming_keys.get_mut(&key.0) {
                keys.remove(&(key.1, key.2));
                if keys.is_empty() {
                    self.incoming_keys.remove(&key.0);
                }
            }
        }
        Some(msg)
    }

    /// Pop the earliest-posted receive a new message can match: the exact
    /// bucket competes with every wildcard bucket on posting order.
    ///
    /// The posting stamp is the *only* tiebreaker — no wildcard shape is
    /// privileged over another.  In particular, when a `(src, ANY_TAG)`
    /// receive and an `(ANY_SOURCE, tag)` receive can both take the same
    /// message, whichever was posted first wins, in either posting order.
    fn take_recv_for(&mut self, dst: usize, src: usize, tag: u32) -> Option<PendingRecv> {
        let candidates = [
            (dst, Some(src), Some(tag)),
            (dst, Some(src), None),
            (dst, None, Some(tag)),
            (dst, None, None),
        ];
        let key = candidates
            .into_iter()
            .filter_map(|key| {
                self.recvs
                    .get(&key)
                    .and_then(VecDeque::front)
                    .map(|r| (r.seq, key))
            })
            .min_by_key(|&(seq, _)| seq)
            .map(|(_, key)| key)?;
        let bucket = self.recvs.get_mut(&key)?;
        let recv = bucket.pop_front()?;
        if bucket.is_empty() {
            self.recvs.remove(&key);
        }
        self.recv_count -= 1;
        Some(recv)
    }

    /// Drain every queued receive (shutdown path).
    fn drain_recvs(&mut self) -> Vec<PendingRecv> {
        self.recv_count = 0;
        self.recvs
            .drain()
            .flat_map(|(_, bucket)| bucket.into_iter())
            .collect()
    }
}

/// Which collective operation an assembly is executing.  One discriminant
/// per operation; all per-operation behaviour lives in the exchange engine's
/// combine and deliver arms, not in per-kind state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectiveKind {
    Barrier,
    Broadcast,
    Gather,
    Scatter,
    Allgather,
    Reduce,
    Allreduce,
    Split,
}

impl CollectiveKind {
    fn name(&self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Split => "comm_split",
        }
    }

    /// One-byte wire identity carried in exchange up-frames so peers can
    /// verify they agree on the operation.
    fn wire_code(self) -> u8 {
        match self {
            CollectiveKind::Barrier => 0,
            CollectiveKind::Broadcast => 1,
            CollectiveKind::Gather => 2,
            CollectiveKind::Scatter => 3,
            CollectiveKind::Allgather => 4,
            CollectiveKind::Reduce => 5,
            CollectiveKind::Allreduce => 6,
            CollectiveKind::Split => 7,
        }
    }

    fn from_wire_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => CollectiveKind::Barrier,
            1 => CollectiveKind::Broadcast,
            2 => CollectiveKind::Gather,
            3 => CollectiveKind::Scatter,
            4 => CollectiveKind::Allgather,
            5 => CollectiveKind::Reduce,
            6 => CollectiveKind::Allreduce,
            7 => CollectiveKind::Split,
            _ => return None,
        })
    }

    /// Diagnostic name of a wire code (for mismatch errors echoed from
    /// another node).
    fn wire_name(code: u8) -> &'static str {
        Self::from_wire_code(code).map_or("unknown", |kind| kind.name())
    }
}

/// Identity of a collective operation.  Every member rank on the node must
/// join its communicator's assembly with an identical id before the
/// node-level exchange runs, and every participating *node* ships the id in
/// its up-frame so the leader verifies cross-node agreement too; a
/// disagreement is the paper's "collective mismatch" error.  `root` is a
/// sub-rank of the communicator the request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CollectiveId {
    kind: CollectiveKind,
    /// Root sub-rank for rooted collectives, `None` for symmetric ones.
    root: Option<usize>,
    /// Reduction operator for reduce/allreduce.
    op: Option<ReduceOp>,
    /// Element type for reduce/allreduce; part of the identity, so ranks
    /// disagreeing on the type fail with a collective mismatch instead of
    /// misinterpreting each other's bytes.
    dtype: Option<ReduceDtype>,
}

/// Bytes of the encoded [`CollectiveId`] prefixed to every OK up-frame:
/// `[kind u8][op u8][dtype u8][pad u8][root u32]` (0xFF / u32::MAX = none).
const COLLECTIVE_ID_BYTES: usize = 8;

impl CollectiveId {
    fn encode(&self) -> [u8; COLLECTIVE_ID_BYTES] {
        let mut out = [0u8; COLLECTIVE_ID_BYTES];
        out[0] = self.kind.wire_code();
        out[1] = self.op.map_or(0xFF, ReduceOp::wire_code);
        out[2] = self.dtype.map_or(0xFF, ReduceDtype::wire_code);
        out[4..8].copy_from_slice(&self.root.map_or(u32::MAX, |root| root as u32).to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<CollectiveId> {
        if bytes.len() < COLLECTIVE_ID_BYTES {
            return None;
        }
        let kind = CollectiveKind::from_wire_code(bytes[0])?;
        let op = match bytes[1] {
            0xFF => None,
            code => Some(ReduceOp::from_wire_code(code)?),
        };
        let dtype = match bytes[2] {
            0xFF => None,
            code => Some(ReduceDtype::from_wire_code(code)?),
        };
        let root = match u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) {
            u32::MAX => None,
            root => Some(root as usize),
        };
        Some(CollectiveId {
            kind,
            root,
            op,
            dtype,
        })
    }
}

/// What one joining rank contributes to the collective.
#[derive(Debug)]
enum Contribution {
    /// Nothing (barrier; non-root joiners of broadcast/scatter).
    None,
    /// A flat payload (broadcast root, gather/allgather data, reduce vectors
    /// encoded as little-endian elements, a split's `(color, key)` pair).
    Bytes(Payload),
    /// Per-member chunks supplied by a scatter root, in sub-rank order.
    Chunks(Vec<Payload>),
}

impl Contribution {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Contribution::Bytes(b) => b.as_slice(),
            _ => &[],
        }
    }
}

/// One communicator's collective currently being assembled on this node: the
/// generic join → local-combine → exchange → scatter-back engine's state.
struct CollectiveAssembly {
    id: CollectiveId,
    /// `(rank, contribution, reply channel)` for every joined local member.
    joined: Vec<(usize, Contribution, Sender<Reply>)>,
}

/// One communicator group as known to this node's comm thread.
#[derive(Debug, Clone)]
struct CommGroup {
    /// Global DCGN ranks in sub-rank order.
    members: Vec<usize>,
    /// Nodes hosting at least one member, ascending.  `nodes[0]` leads the
    /// group's exchanges.
    nodes: Vec<usize>,
    /// Members resident on this node — the assembly-completeness threshold.
    local_members: usize,
    /// Registration epoch, part of every exchange frame's identity.  Every
    /// member node derives the same epoch deterministically (the world is 0;
    /// split products chain a hash of the parent's epoch, split sequence and
    /// color), so a recycled or colliding communicator id can never match a
    /// stale exchange frame.
    epoch: u32,
    /// Collectives executed on this communicator so far; the sequence number
    /// inside every exchange frame, so consecutive collectives on one group
    /// can never cross-talk.
    seq: u64,
    /// Splits executed on this communicator (salts child communicator ids).
    splits: u64,
    /// Local members that have called `comm_free`; the group is evicted from
    /// the registry when every local member has released its handle.
    freed: HashSet<usize>,
}

impl CommGroup {
    /// Sub-rank of global rank `global`, if it is a member.
    fn sub_of(&self, global: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == global)
    }
}

/// Deterministic epoch of a split product, chained from the parent's epoch
/// (FNV-1a, truncated).  Identical on every node computing the same split.
fn child_epoch(parent_epoch: u32, split_seq: u64, color: u32) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parent_epoch
        .to_le_bytes()
        .into_iter()
        .chain(split_seq.to_le_bytes())
        .chain(color.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as u32
}

// ---------------------------------------------------------------------------
// The asynchronous exchange engine (world and subgroups alike).
// ---------------------------------------------------------------------------

/// Wire status byte of an exchange frame: the payload is a valid
/// contribution / result.
const ST_OK: u8 = 0;
/// Error marker: the rest of the frame is a UTF-8 diagnostic.  Errors are
/// echoed to every participating node, so a malformed collective fails only
/// its own communicator's ranks instead of hanging peers.
const ST_ERR: u8 = 1;
/// Collective-mismatch marker: the body is two [`CollectiveKind`] wire codes
/// (`[in_progress][requested]`), decoded back into
/// [`DcgnError::CollectiveMismatch`] on every participant.
const ST_MISMATCH: u8 = 2;
/// Bundle marker (tree plan): the body is `[node u32][len u32][bytes]…`
/// entries keyed by *physical node*.  Up-bundles additionally lead with the
/// sender's encoded [`CollectiveId`] and carry a status byte at the head of
/// every entry; down-bundles are plain per-node result bodies that interior
/// nodes split by child subtree.
const ST_BUNDLE: u8 = 3;

// ---------------------------------------------------------------------------
// Plan selection.
// ---------------------------------------------------------------------------

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

/// A received (or locally built) status-framed exchange payload.
type ExFrame = (u8, Payload);

/// How a combined collective's results distribute over the participating
/// nodes.
enum Downs {
    /// Every node receives the same body.  The leader frames it exactly
    /// once and ships the shared pooled frame to every node — reference
    /// clones, not per-node copies.
    Uniform(Vec<u8>),
    /// Node-specific bodies (scatter chunks; rooted results, with empty
    /// bodies for non-root nodes).
    PerNode(HashMap<usize, Vec<u8>>),
}

/// Role-specific progress state of one in-flight exchange.
enum ExchangeRole {
    /// Root of the star or tree: collecting the up-frame of every
    /// participating node (its own staged at start; under the tree plan the
    /// frames of whole subtrees arrive bundled through the root's children).
    Leader {
        awaiting: HashSet<usize>,
        ups: Vec<(usize, ExFrame)>,
    },
    /// Star non-leader: up-frame sent, waiting for the leader's down-frame.
    Member,
    /// Tree non-root: aggregating its subtree's entries before bundling them
    /// to its parent, then relaying the parent's down-frame to its children.
    TreeNode(TreeState),
    /// Recursive-doubling allreduce participant.
    Rd(RdState),
    /// Ring allreduce participant.
    Ring(RingState),
}

/// Progress state of a non-root node in the binomial tree plan.
struct TreeState {
    /// Parent node id (bundles go up to it, down-frames come from it).
    parent: usize,
    /// Children whose up-bundle has not arrived yet.
    awaiting: HashSet<usize>,
    /// Accumulated bundle entries — this node's own plus every received
    /// child bundle's, concatenated verbatim (child id prefixes stripped).
    entries: Vec<u8>,
}

/// Where a recursive-doubling participant is in its schedule.
enum RdStage {
    /// Core node with an extra partner: waiting for the extra's fold-in
    /// before round 0.
    AwaitFoldIn,
    /// Waiting for the partner of round `r`.
    Round(u32),
    /// Extra node: fold-in sent, waiting for the final result.
    AwaitFoldOut,
}

/// Progress state of a recursive-doubling allreduce participant.
struct RdState {
    /// This node's position in the group's node list.
    pos: usize,
    /// Number of participating nodes.
    n: usize,
    /// Power-of-two core size (`prev_power_of_two(n)`).
    m: usize,
    stage: RdStage,
    /// Running partial (raw element bytes).
    acc: Vec<u8>,
    /// Frames for later stages that raced ahead of this node, keyed by
    /// phase.  At most one sender exists per phase, so a map suffices.
    future: HashMap<u32, ExFrame>,
}

/// Progress state of a ring allreduce participant.
struct RingState {
    /// This node's position in the group's node list.
    pos: usize,
    /// Number of participating nodes.
    n: usize,
    /// Next step whose frame this node is waiting for (`0..2(n-1)`).
    step: u32,
    /// The full vector: reduce-scatter folds chunks in place, allgather
    /// overwrites them.
    acc: Vec<u8>,
    /// Frames from a predecessor running ahead, keyed by phase.
    future: HashMap<u32, ExFrame>,
}

/// One communicator's collective mid-exchange across nodes.  Several can be
/// live at once — at most one per communicator — and each progresses
/// independently as its frames arrive, which is what lets disjoint
/// communicators (and the world) overlap.
struct Exchange {
    id: CollectiveId,
    /// `(rank, reply channel)` of every joined local member.
    joined: Vec<(usize, Sender<Reply>)>,
    /// The schedule this node derived for the collective.  Every correct
    /// node derives the same plan from the same `(kind, size, node count)`;
    /// a divergence surfaces as an unexpected-phase abort.
    plan: ExchangePlan,
    role: ExchangeRole,
    /// When this node entered the exchange; successful delivery records the
    /// elapsed time in the per-`(comm, kind, plan)` latency histogram.
    started: Instant,
}

/// Fail every joined rank of an abandoned or erroneous collective.
fn fail_joined(joined: Vec<(usize, Sender<Reply>)>, err: DcgnError) {
    for (_, reply_tx) in joined {
        let _ = reply_tx.send(Reply::Error(err.clone()));
    }
}

/// Decode a non-OK frame into the error every participant reports.
fn frame_to_error(status: u8, body: &[u8]) -> DcgnError {
    match status {
        ST_MISMATCH if body.len() >= 2 => DcgnError::CollectiveMismatch {
            in_progress: CollectiveKind::wire_name(body[0]),
            requested: CollectiveKind::wire_name(body[1]),
        },
        ST_ERR => DcgnError::InvalidArgument(String::from_utf8_lossy(body).into_owned()),
        other => DcgnError::Internal(format!("malformed exchange frame (status {other})")),
    }
}

/// Human-readable plan name for diagnostics.
fn plan_name(plan: ExchangePlan) -> &'static str {
    match plan {
        ExchangePlan::Star => "star",
        ExchangePlan::Tree => "tree",
        ExchangePlan::RecursiveDoubling => "recursive-doubling",
        ExchangePlan::Ring => "ring",
    }
}

/// Append one `[node u32][len u32][body]` bundle entry.  Up-bundles prefix
/// each body with its status byte (`status: Some`); down-bundles carry plain
/// per-node bodies (`status: None`).
fn encode_bundle_entry(out: &mut Vec<u8>, node: usize, status: Option<u8>, body: &[u8]) {
    let len = body.len() + usize::from(status.is_some());
    out.extend_from_slice(&(node as u32).to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    if let Some(st) = status {
        out.push(st);
    }
    out.extend_from_slice(body);
}

/// `(status, body)` of the abort frame a failed validation broadcasts to the
/// rest of the group.
type AbortFrame = (u8, Vec<u8>);

/// Validate a tree up-bundle against the local collective identity.  The
/// entries stay opaque to interior nodes, but the bundle's own id prefix must
/// agree — a subtree running a different collective is caught at its parent
/// instead of deadlocking the root.  On success returns the raw entry bytes
/// (id prefix stripped); on failure the abort `(status, body)` to broadcast.
fn check_up_bundle(
    own: CollectiveId,
    src_node: usize,
    frame: &ExFrame,
) -> std::result::Result<&[u8], AbortFrame> {
    let (status, body) = frame;
    if *status != ST_OK {
        return Err((*status, body.to_vec()));
    }
    let blob = body.as_slice();
    let Some(peer) = CollectiveId::decode(blob) else {
        return Err((
            ST_ERR,
            format!("malformed tree bundle from node {src_node}").into_bytes(),
        ));
    };
    if peer != own {
        return Err(if peer.kind != own.kind {
            (
                ST_MISMATCH,
                vec![own.kind.wire_code(), peer.kind.wire_code()],
            )
        } else {
            (
                ST_ERR,
                format!(
                    "collective identity mismatch across nodes: node {src_node}'s subtree \
                     disagrees about root, operator or element type"
                )
                .into_bytes(),
            )
        });
    }
    Ok(&blob[COLLECTIVE_ID_BYTES..])
}

/// Unbundle a verified tree up-bundle into the leader's `(node, up-frame)`
/// list.  Entry payloads are zero-copy views of the bundle.  `None` means a
/// malformed entry (every entry leads with its status byte).
fn decode_bundle_ups(body: &Payload) -> Option<Vec<(usize, ExFrame)>> {
    let blob = body.as_slice();
    let mut out = Vec::new();
    for (node, range) in rank_frames(&blob[COLLECTIVE_ID_BYTES..]) {
        if range.is_empty() {
            return None;
        }
        let start = COLLECTIVE_ID_BYTES + range.start;
        let end = COLLECTIVE_ID_BYTES + range.end;
        out.push((node, (blob[start], body.slice(start + 1..end))));
    }
    Some(out)
}

/// Validate an rd/ring allreduce frame: OK status, matching collective
/// identity, parseable reduce payload.  `skip` is the byte count between the
/// id and the reduce frame (4 for the ring's `total_len`, 0 for rd).
/// Returns `(total_len, element bytes)` — `total_len` is 0 when `skip < 4` —
/// or the abort `(status, body)` to broadcast.
fn check_reduce_frame(
    own: CollectiveId,
    frame: &ExFrame,
    skip: usize,
) -> std::result::Result<(u32, &[u8]), AbortFrame> {
    let (status, body) = frame;
    if *status != ST_OK {
        return Err((*status, body.to_vec()));
    }
    let blob = body.as_slice();
    let Some(peer) = CollectiveId::decode(blob) else {
        return Err((ST_ERR, b"malformed allreduce exchange frame".to_vec()));
    };
    if peer != own {
        return Err(if peer.kind != own.kind {
            (
                ST_MISMATCH,
                vec![own.kind.wire_code(), peer.kind.wire_code()],
            )
        } else {
            (
                ST_ERR,
                b"allreduce identity mismatch across nodes (operator or element type)".to_vec(),
            )
        });
    }
    if blob.len() < COLLECTIVE_ID_BYTES + skip {
        return Err((ST_ERR, b"short allreduce exchange frame".to_vec()));
    }
    let total = if skip >= 4 {
        u32::from_le_bytes(
            blob[COLLECTIVE_ID_BYTES..COLLECTIVE_ID_BYTES + 4]
                .try_into()
                .expect("4-byte slice"),
        )
    } else {
        0
    };
    let op = own.op.expect("allreduce carries an operator");
    let dtype = own.dtype.expect("allreduce carries an element type");
    match parse_reduce_frame(&blob[COLLECTIVE_ID_BYTES + skip..], op, dtype) {
        Ok(bytes) => Ok((total, bytes)),
        Err(e) => Err((ST_ERR, e.to_string().into_bytes())),
    }
}

/// Byte range of ring chunk `chunk` within the state's full vector.  Chunks
/// partition the vector element-wise; sizes differ by at most one element.
fn ring_chunk(state: &RingState, dtype: ReduceDtype, chunk: usize) -> std::ops::Range<usize> {
    let elem = dtype.element_bytes();
    let e = state.acc.len() / elem;
    (chunk * e / state.n * elem)..((chunk + 1) * e / state.n * elem)
}

fn encode_color_key(color: u32, key: u32) -> Vec<u8> {
    u32s_to_bytes(&[color, key])
}

fn decode_color_key(bytes: &[u8]) -> Option<(u32, u32)> {
    // Exact length first: `bytes_to_u32s` silently drops a partial trailing
    // word, which must not make a 9-byte frame decodable.
    if bytes.len() != 8 {
        return None;
    }
    match bytes_to_u32s(bytes)[..] {
        [color, key] => Some((color, key)),
        _ => None,
    }
}

/// This node's comm-thread instruments in the unified metrics registry.
/// Everything is resolved once at construction except the per-collective
/// latency histograms, which materialize lazily as `(comm, kind, plan)`
/// combinations first complete.
struct CommThreadMetrics {
    handle: MetricsHandle,
    node: usize,
    /// `comm.requests.node{N}` — kernel requests dispatched.
    requests: Counter,
    /// `comm.queue_depth.node{N}` — work-queue backlog sampled per loop
    /// iteration (the high-water mark is the interesting read).
    queue_depth: Gauge,
    /// `comm.matcher.pending_recvs.node{N}` — receives waiting for a match.
    pending_recvs: Gauge,
    /// `comm.matcher.unexpected_msgs.node{N}` — messages queued unmatched.
    unexpected_msgs: Gauge,
    /// `exchange.plan.{star,tree,recursive-doubling,ring}.node{N}` —
    /// exchanges started under each plan.
    plan_star: Counter,
    plan_tree: Counter,
    plan_rd: Counter,
    plan_ring: Counter,
    /// `exchange.frames.{up,down,rd,ring}.node{N}` — exchange frames sent,
    /// by protocol phase family.
    frames_up: Counter,
    frames_down: Counter,
    frames_rd: Counter,
    frames_ring: Counter,
    /// `collective.latency.comm{C}.{kind}.{plan}.node{N}` (microseconds,
    /// join-to-delivery), cached per combination.
    latency: HashMap<(u64, &'static str, &'static str), Histogram>,
}

impl CommThreadMetrics {
    fn new(handle: &MetricsHandle, node: usize) -> Self {
        let counter = |name: &str| handle.counter(&format!("{name}.node{node}"));
        let gauge = |name: &str| handle.gauge(&format!("{name}.node{node}"));
        CommThreadMetrics {
            handle: handle.clone(),
            node,
            requests: counter("comm.requests"),
            queue_depth: gauge("comm.queue_depth"),
            pending_recvs: gauge("comm.matcher.pending_recvs"),
            unexpected_msgs: gauge("comm.matcher.unexpected_msgs"),
            plan_star: counter("exchange.plan.star"),
            plan_tree: counter("exchange.plan.tree"),
            plan_rd: counter("exchange.plan.recursive-doubling"),
            plan_ring: counter("exchange.plan.ring"),
            frames_up: counter("exchange.frames.up"),
            frames_down: counter("exchange.frames.down"),
            frames_rd: counter("exchange.frames.rd"),
            frames_ring: counter("exchange.frames.ring"),
            latency: HashMap::new(),
        }
    }

    fn plan_counter(&self, plan: ExchangePlan) -> &Counter {
        match plan {
            ExchangePlan::Star => &self.plan_star,
            ExchangePlan::Tree => &self.plan_tree,
            ExchangePlan::RecursiveDoubling => &self.plan_rd,
            ExchangePlan::Ring => &self.plan_ring,
        }
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
        let Self {
            handle,
            node,
            latency,
            ..
        } = self;
        let hist = latency
            .entry((comm.raw(), kind.name(), plan_name(plan)))
            .or_insert_with(|| {
                handle.histogram(&format!(
                    "collective.latency.comm{}.{}.{}.node{node}",
                    comm.raw(),
                    kind.name(),
                    plan_name(plan)
                ))
            });
        hist.record(elapsed.as_micros() as u64);
    }
}

/// State and main loop of one node's communication thread.
pub(crate) struct CommThread {
    node: usize,
    rank_map: Arc<RankMap>,
    comm: Communicator,
    work_rx: Receiver<CommCommand>,
    cost: CostModel,

    /// Persistent wildcard receive for inter-node point-to-point frames.
    catchall: Option<MpiRequest>,
    /// Persistent receive for exchange frames ([`TAG_EXCHANGE`]); completed
    /// frames are demultiplexed onto [`CommThread::exchanges`] by the exact
    /// key inside the frame.
    exchange_recv: Option<MpiRequest>,
    /// Indexed point-to-point matcher (messages and receives).
    matcher: Matcher,
    outstanding_isends: Vec<MpiRequest>,
    /// Communicator groups known to this node (world plus every split
    /// product with a resident member).
    groups: HashMap<CommId, CommGroup>,
    /// Per-communicator collective assemblies, keyed so independent groups
    /// assemble concurrently.
    active: HashMap<CommId, CollectiveAssembly>,
    /// Exchanges in flight across nodes, keyed by exact identity.
    exchanges: HashMap<ExchangeKey, Exchange>,
    /// Exchange frames that arrived before this node started the exchange
    /// they name (its local assembly had not completed yet), carrying the
    /// phase and sending node.  Drained through the regular dispatch path
    /// the moment the exchange starts.
    early_frames: HashMap<ExchangeKey, Vec<(u32, usize, ExFrame)>>,
    /// Tombstones of aborted exchanges: the error every local joiner (and
    /// late frame) of that exact exchange resolves to.  Keys can never
    /// recur (sequence numbers are monotonic per communicator), so entries
    /// are purged only with their communicator or at shutdown.
    aborted: HashMap<ExchangeKey, DcgnError>,
    /// Plan override from the job config / `DCGN_FORCE_PLAN`.
    forced_plan: Option<ExchangePlan>,
    /// Completion event local kernel threads block on in `waitany`; bumped
    /// whenever this thread did any work (every reply precedes a bump).
    completion: Arc<CompletionEvent>,
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
        cost: CostModel,
        forced_plan: Option<ExchangePlan>,
        completion: Arc<CompletionEvent>,
        metrics: &MetricsHandle,
    ) -> Self {
        // Ring our own work queue whenever the fabric queues a delivery for
        // this node, so the idle wait below is woken by event for substrate
        // traffic exactly like it is for local kernel requests.
        comm.set_wake_notifier(Arc::new(move || {
            let _ = work_tx.send(CommCommand::Wake);
        }));
        let world_nodes: Vec<usize> = (0..rank_map.num_nodes())
            .filter(|&n| rank_map.ranks_on_node_count(n) > 0)
            .collect();
        let world = CommGroup {
            members: (0..rank_map.total_ranks()).collect(),
            nodes: world_nodes,
            local_members: rank_map.ranks_on_node_count(node),
            epoch: 0,
            seq: 0,
            splits: 0,
            freed: HashSet::new(),
        };
        let metrics = CommThreadMetrics::new(metrics, node);
        let matcher = Matcher {
            wildcard_scan: metrics
                .handle
                .histogram(&format!("comm.matcher.wildcard_scan.node{node}")),
            ..Matcher::default()
        };
        CommThread {
            node,
            rank_map,
            comm,
            work_rx,
            cost,
            catchall: None,
            exchange_recv: None,
            matcher,
            outstanding_isends: Vec::new(),
            groups: HashMap::from([(CommId::WORLD, world)]),
            active: HashMap::new(),
            exchanges: HashMap::new(),
            early_frames: HashMap::new(),
            aborted: HashMap::new(),
            forced_plan,
            completion,
            local_done: false,
            metrics,
        }
    }

    /// Main service loop.  Returns when all local kernels are done and no
    /// work remains.
    pub(crate) fn run(&mut self) -> Result<()> {
        loop {
            let mut did_work = false;

            // 1. Drain the local work queue.  The backlog sampled before the
            //    drain is the queue-depth gauge's observation point (its
            //    high-water mark survives in the metrics snapshot).
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

            // 3. Start the exchange of every communicator whose local
            //    assembly is complete (independently per communicator).
            did_work |= self.try_execute_collectives()?;

            // 4. Retire completed nonblocking sends.
            self.reap_isends()?;

            self.metrics
                .pending_recvs
                .set(self.matcher.pending_recvs() as u64);
            self.metrics
                .unexpected_msgs
                .set(self.matcher.queued_msgs() as u64);

            // 5. Shut down when the process is quiescent.
            if self.local_done
                && self.matcher.pending_recvs() == 0
                && self.active.is_empty()
                && self.exchanges.is_empty()
                && self.outstanding_isends.is_empty()
            {
                // Synchronise teardown across nodes so no peer is left
                // mid-transfer when this communicator goes away.  Every node
                // reaches this point (erroneous collectives error out
                // instead of blocking), so the quiesce cannot hang.
                self.comm.barrier()?;
                return Ok(());
            }

            // 6. Idle: block on the work queue.  Local kernel requests land
            //    here directly and fabric deliveries ring it via the wake
            //    notifier, so this is an event wait; the timeout is only a
            //    safety net.
            if !did_work {
                match self.work_rx.recv_timeout(IDLE_FALLBACK) {
                    Ok(cmd) => {
                        self.handle_command(cmd)?;
                        did_work = true;
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        // The runtime dropped its handles; treat it as a
                        // shutdown signal so panicked launches still unwind.
                        self.local_done = true;
                    }
                }
            }

            // Ring the completion event after any productive iteration:
            // every kernel-visible reply sent above happens before this
            // bump, so a kernel blocked in `waitany` that read the tick
            // before its reply landed is guaranteed a wake.
            if did_work {
                self.completion.bump();
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
                // unmatched receive; fail them now so shutdown cannot hang.
                for (_, assembly) in self.active.drain() {
                    for (_, _, reply_tx) in assembly.joined {
                        let _ = reply_tx.send(Reply::Error(DcgnError::ShuttingDown));
                    }
                }
                for (_, ex) in self.exchanges.drain() {
                    fail_joined(ex.joined, DcgnError::ShuttingDown);
                }
                self.early_frames.clear();
                self.aborted.clear();
                for recv in self.matcher.drain_recvs() {
                    let _ = recv.reply_tx.send(Reply::Error(DcgnError::ShuttingDown));
                }
                Ok(())
            }
            // Receiving a command costs one hop through the thread-safe
            // queue — a whole GPU-sweep batch pays it once, not per request.
            CommCommand::Request(req) => {
                self.cost.charge_queue_hop();
                self.dispatch_request(req)
            }
            CommCommand::Batch(reqs) => {
                self.cost.charge_queue_hop();
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
                self.handle_send(req.src_rank, dst, tag, data, req.reply_tx)
            }
            RequestKind::Recv { src, tag } => {
                let recv = PendingRecv {
                    dst_rank: req.src_rank,
                    src,
                    tag,
                    reply_tx: req.reply_tx,
                    seq: self.matcher.stamp(),
                };
                match self.matcher.take_msg_for(&recv) {
                    Some(msg) => self.deliver_match(msg, recv),
                    None => self.matcher.push_recv(recv),
                }
                Ok(())
            }
            RequestKind::CommFree { comm } => {
                self.handle_comm_free(req.src_rank, comm, req.reply_tx)
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
        reply_tx: Sender<Reply>,
    ) -> Result<()> {
        let Some(dst_node) = self.rank_map.node_of(dst) else {
            let _ = reply_tx.send(Reply::Error(DcgnError::InvalidRank(dst)));
            return Ok(());
        };
        if dst_node == self.node {
            // Intra-node: no MPI involvement.  The message is held until a
            // local receive matches it; the sender's completion is deferred
            // until then (globally-synchronised intra-node semantics, §6.2).
            let msg = IncomingMsg {
                src,
                dst,
                tag,
                data,
                local_sender: Some(reply_tx),
                seq: self.matcher.stamp(),
            };
            self.route_incoming(msg);
        } else {
            // Inter-node: append the DCGN envelope in the staged buffer's
            // spare capacity (no body copy) and hand that frame to MPI.  The
            // MPI tag is the destination DCGN rank, which keeps messages for
            // different local ranks separable on the receiving node.
            let wire = frame_p2p(src, dst, tag, data);
            let mpi_req = self.comm.isend(dst_node, dst as u32, wire)?;
            self.outstanding_isends.push(mpi_req);
            // Remote sends complete once the data is handed to the MPI layer
            // (buffered-send semantics).
            let _ = reply_tx.send(Reply::SendDone);
        }
        Ok(())
    }

    /// Match a freshly arrived (or locally sourced) message immediately, or
    /// queue it for a later receive.
    fn route_incoming(&mut self, msg: IncomingMsg) {
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
        self.cost.intra_node.charge(msg.data.len());
        let status = CommStatus {
            source: msg.src,
            tag: msg.tag,
            len: msg.data.len(),
        };
        let _ = recv.reply_tx.send(Reply::RecvDone {
            data: msg.data,
            status,
        });
        if let Some(sender) = msg.local_sender {
            let _ = sender.send(Reply::SendDone);
        }
    }

    /// Release one rank's handle on a communicator; evict the group once
    /// every local member has freed it (the cross-node analogue needs no
    /// coordination — each node evicts independently).
    fn handle_comm_free(
        &mut self,
        src_rank: usize,
        comm: CommId,
        reply_tx: Sender<Reply>,
    ) -> Result<()> {
        let fail = |reply_tx: Sender<Reply>, msg: String| {
            let _ = reply_tx.send(Reply::Error(DcgnError::InvalidArgument(msg)));
            Ok(())
        };
        if comm.is_world() {
            return fail(reply_tx, "the world communicator cannot be freed".into());
        }
        if self.active.contains_key(&comm) || self.exchanges.keys().any(|key| key.comm == comm) {
            return fail(
                reply_tx,
                format!("communicator {comm} has a collective in progress"),
            );
        }
        let Some(group) = self.groups.get_mut(&comm) else {
            return fail(
                reply_tx,
                format!("unknown communicator {comm} on node {}", self.node),
            );
        };
        if group.sub_of(src_rank).is_none() {
            return fail(
                reply_tx,
                format!("rank {src_rank} is not a member of communicator {comm}"),
            );
        }
        if !group.freed.insert(src_rank) {
            return fail(
                reply_tx,
                format!("rank {src_rank} already freed communicator {comm}"),
            );
        }
        if group.freed.len() == group.local_members {
            self.groups.remove(&comm);
            self.aborted.retain(|key, _| key.comm != comm);
        }
        let _ = reply_tx.send(Reply::CollectiveDone(CollectiveResult::Unit));
        Ok(())
    }

    /// Keep exactly one catch-all point-to-point receive and one exchange
    /// receive posted.  Point-to-point completions are matched against
    /// queued receives on arrival; exchange completions are demultiplexed
    /// onto the in-flight exchange named *inside* the frame.
    fn progress_mpi(&mut self) -> Result<bool> {
        let mut did_work = false;
        loop {
            if self.catchall.is_none() {
                self.catchall = Some(self.comm.irecv(None, None)?);
            }
            let req = self.catchall.expect("just ensured");
            if !self.comm.test(req)? {
                break;
            }
            let (wire, _status) = self
                .comm
                .take_recv(req)
                .ok_or_else(|| DcgnError::Internal("catch-all recv vanished".into()))?;
            self.catchall = None;
            // The decoded body is a zero-copy view of the pooled wire frame.
            let (src, dst, tag, data) = decode_p2p(wire)?;
            let msg = IncomingMsg {
                src,
                dst,
                tag,
                data,
                local_sender: None,
                seq: self.matcher.stamp(),
            };
            self.route_incoming(msg);
            did_work = true;
        }
        loop {
            if self.exchange_recv.is_none() {
                self.exchange_recv = Some(self.comm.irecv(None, Some(TAG_EXCHANGE))?);
            }
            let req = self.exchange_recv.expect("just ensured");
            if !self.comm.test(req)? {
                break;
            }
            let (wire, status) = self
                .comm
                .take_recv(req)
                .ok_or_else(|| DcgnError::Internal("exchange recv vanished".into()))?;
            self.exchange_recv = None;
            // One MPI rank per node: the substrate source rank *is* the
            // sending node.
            self.route_exchange_frame(status.source, wire)?;
            did_work = true;
        }
        Ok(did_work)
    }

    fn reap_isends(&mut self) -> Result<()> {
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

    // ------------------------------------------------------------------
    // The generic collective engine: join → local-combine → exchange →
    // scatter-back, independently per communicator.
    // ------------------------------------------------------------------

    /// Phase 1 — join: classify the request, validate it against the named
    /// communicator, and add the rank's contribution to that group's
    /// assembly.
    fn join_collective(&mut self, req: Request) -> Result<()> {
        let src_rank = req.src_rank;
        let (comm, id, contribution) = match classify_collective(req.kind) {
            Ok(parts) => parts,
            Err(e) => {
                let _ = req.reply_tx.send(Reply::Error(e));
                return Ok(());
            }
        };
        let Some(group) = self.groups.get(&comm) else {
            let _ = req
                .reply_tx
                .send(Reply::Error(DcgnError::InvalidArgument(format!(
                    "unknown communicator {comm} on node {}",
                    self.node
                ))));
            return Ok(());
        };
        if group.sub_of(src_rank).is_none() {
            let _ = req
                .reply_tx
                .send(Reply::Error(DcgnError::InvalidArgument(format!(
                    "rank {src_rank} is not a member of communicator {comm}"
                ))));
            return Ok(());
        }
        if group.freed.contains(&src_rank) {
            // Use-after-free is an error immediately, not only once every
            // local member has freed and the group is evicted.
            let _ = req
                .reply_tx
                .send(Reply::Error(DcgnError::InvalidArgument(format!(
                    "rank {src_rank} already freed communicator {comm}"
                ))));
            return Ok(());
        }
        if let Some(root) = id.root {
            if root >= group.members.len() {
                let _ = req
                    .reply_tx
                    .send(Reply::Error(DcgnError::InvalidRank(root)));
                return Ok(());
            }
        }
        if let Contribution::Chunks(chunks) = &contribution {
            if chunks.len() != group.members.len() {
                let _ = req
                    .reply_tx
                    .send(Reply::Error(DcgnError::InvalidArgument(format!(
                        "scatter root must supply {} chunks, got {}",
                        group.members.len(),
                        chunks.len()
                    ))));
                return Ok(());
            }
        }
        match self.active.entry(comm) {
            Entry::Vacant(slot) => {
                slot.insert(CollectiveAssembly {
                    id,
                    joined: vec![(src_rank, contribution, req.reply_tx)],
                });
            }
            Entry::Occupied(mut slot) => {
                let assembly = slot.get_mut();
                if assembly.id != id {
                    // Local ranks disagree about the collective.  Fail the
                    // *whole* assembly — the late rank and everyone already
                    // joined — and broadcast an abort for the exchange this
                    // collective would have been, so the communicator's
                    // other nodes error out under *any* plan instead of
                    // waiting for frames that will never come.
                    let aborted = slot.remove();
                    let err = DcgnError::CollectiveMismatch {
                        in_progress: aborted.id.kind.name(),
                        requested: id.kind.name(),
                    };
                    let _ = req.reply_tx.send(Reply::Error(err.clone()));
                    let codes = vec![aborted.id.kind.wire_code(), id.kind.wire_code()];
                    for (_, _, reply_tx) in aborted.joined {
                        let _ = reply_tx.send(Reply::Error(err.clone()));
                    }
                    // Consume this collective's sequence number, exactly as
                    // starting the exchange would have (peers bump theirs
                    // when their own assemblies complete, so keys align).
                    let (epoch, seq) = {
                        let g = self.groups.get_mut(&comm).expect("validated above");
                        g.seq += 1;
                        (g.epoch, g.seq)
                    };
                    let key = ExchangeKey { epoch, comm, seq };
                    return self.broadcast_abort(key, ST_MISMATCH, codes).map(|_| ());
                }
                assembly.joined.push((src_rank, contribution, req.reply_tx));
            }
        }
        Ok(())
    }

    /// Phases 2–4 — kick off the asynchronous exchange of every communicator
    /// whose local members have all joined.  World and subgroup collectives
    /// take the same path; there is no blocking substrate exchange left.
    fn try_execute_collectives(&mut self) -> Result<bool> {
        let ready: Vec<CommId> = self
            .active
            .iter()
            .filter(|(comm, assembly)| {
                self.groups
                    .get(comm)
                    .is_some_and(|g| assembly.joined.len() == g.local_members)
            })
            .map(|(comm, _)| *comm)
            .collect();
        if ready.is_empty() {
            return Ok(false);
        }
        for comm in ready {
            let assembly = self.active.remove(&comm).expect("selected above");
            self.start_exchange(comm, assembly)?;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // The keyed exchange engine: an asynchronous star around the group's
    // leader node, progressed as frames arrive so independent communicators
    // (the world included) overlap.
    // ------------------------------------------------------------------

    /// Start the cross-node exchange of a completed assembly: build this
    /// node's status-framed up contribution and enter the exchange.
    fn start_exchange(&mut self, comm: CommId, assembly: CollectiveAssembly) -> Result<()> {
        let group = self.groups.get(&comm).expect("validated at join");
        let up = match self.build_up(&assembly, group) {
            Ok(contribution) => {
                let mut body = Vec::with_capacity(COLLECTIVE_ID_BYTES + contribution.len());
                body.extend_from_slice(&assembly.id.encode());
                body.extend_from_slice(&contribution);
                (ST_OK, body)
            }
            Err(msg) => (ST_ERR, msg.into_bytes()),
        };
        let joined: Vec<(usize, Sender<Reply>)> = assembly
            .joined
            .into_iter()
            .map(|(rank, _, reply_tx)| (rank, reply_tx))
            .collect();
        self.start_exchange_with(comm, assembly.id, joined, up)
    }

    /// Pick the schedule for a collective from `(op, payload size, node
    /// count)`.  Every correct node computes the same answer from the same
    /// inputs; a forced plan (config / `DCGN_FORCE_PLAN`) overrides the
    /// table, with rd/ring applying to allreduce only.
    fn select_plan(&self, id: CollectiveId, up_body_len: usize, n: usize) -> ExchangePlan {
        if n <= 1 {
            return ExchangePlan::Star;
        }
        if let Some(forced) = self.forced_plan {
            match forced {
                ExchangePlan::Star | ExchangePlan::Tree => return forced,
                ExchangePlan::RecursiveDoubling | ExchangePlan::Ring
                    if id.kind == CollectiveKind::Allreduce =>
                {
                    return forced
                }
                // A forced allreduce schedule cannot shape other kinds;
                // they fall through to the default table.
                _ => {}
            }
        }
        if n < TREE_MIN_NODES {
            ExchangePlan::Star
        } else if id.kind == CollectiveKind::Allreduce {
            if up_body_len < RING_MIN_UP_BYTES {
                ExchangePlan::RecursiveDoubling
            } else {
                ExchangePlan::Ring
            }
        } else {
            ExchangePlan::Tree
        }
    }

    /// Enter an exchange with an explicit up-frame.  Bumps the
    /// communicator's collective sequence number, selects the plan, performs
    /// the plan's initial sends, and drains any frames that raced ahead of
    /// this node's local assembly.
    fn start_exchange_with(
        &mut self,
        comm: CommId,
        id: CollectiveId,
        joined: Vec<(usize, Sender<Reply>)>,
        own_up: (u8, Vec<u8>),
    ) -> Result<()> {
        let (epoch, seq, nodes) = {
            let g = self.groups.get_mut(&comm).expect("validated at join");
            g.seq += 1;
            (g.epoch, g.seq, g.nodes.clone())
        };
        let key = ExchangeKey { epoch, comm, seq };
        // A peer may already have aborted this very collective (e.g. a join
        // mismatch on its node) before we assembled locally.
        if let Some(err) = self.aborted.get(&key) {
            let err = err.clone();
            self.early_frames.remove(&key);
            fail_joined(joined, err);
            return Ok(());
        }
        let (status, body) = own_up;
        let n = nodes.len();
        let pos = nodes
            .iter()
            .position(|&nd| nd == self.node)
            .expect("this node hosts a member");
        let plan = self.select_plan(id, body.len(), n);
        self.metrics.plan_counter(plan).inc();
        let started = Instant::now();

        let ex = match plan {
            ExchangePlan::Star => {
                if pos == 0 {
                    Exchange {
                        id,
                        joined,
                        plan,
                        started,
                        role: ExchangeRole::Leader {
                            awaiting: nodes
                                .iter()
                                .copied()
                                .filter(|&nd| nd != self.node)
                                .collect(),
                            ups: vec![(self.node, (status, Payload::from_vec(body)))],
                        },
                    }
                } else {
                    let frame = frame_exchange(key.wire(PHASE_UP), status, &body);
                    let req = self.comm.isend(nodes[0], TAG_EXCHANGE, frame)?;
                    self.outstanding_isends.push(req);
                    self.metrics.frames_up.inc();
                    Exchange {
                        id,
                        joined,
                        plan,
                        started,
                        role: ExchangeRole::Member,
                    }
                }
            }
            ExchangePlan::Tree => {
                let children: Vec<usize> = binomial_children(pos, n)
                    .into_iter()
                    .map(|p| nodes[p])
                    .collect();
                if pos == 0 {
                    Exchange {
                        id,
                        joined,
                        plan,
                        started,
                        role: ExchangeRole::Leader {
                            awaiting: children.into_iter().collect(),
                            ups: vec![(self.node, (status, Payload::from_vec(body)))],
                        },
                    }
                } else {
                    let parent = nodes[binomial_parent(pos).expect("non-root position")];
                    let mut entries = Vec::with_capacity(9 + body.len());
                    encode_bundle_entry(&mut entries, self.node, Some(status), &body);
                    let mut state = TreeState {
                        parent,
                        awaiting: children.into_iter().collect(),
                        entries,
                    };
                    if state.awaiting.is_empty() {
                        // A leaf bundles itself up immediately.
                        self.send_tree_bundle(key, id, &mut state)?;
                    }
                    Exchange {
                        id,
                        joined,
                        plan,
                        started,
                        role: ExchangeRole::TreeNode(state),
                    }
                }
            }
            ExchangePlan::RecursiveDoubling | ExchangePlan::Ring => {
                // Both allreduce schedules fold raw partials; a node whose
                // local build failed cannot participate, so it aborts the
                // whole exchange — identical containment to the star's
                // error echo.
                if status != ST_OK {
                    let err = self.broadcast_abort(key, status, body)?;
                    fail_joined(joined, err);
                    return Ok(());
                }
                let op = id.op.expect("allreduce carries an operator");
                let dtype = id.dtype.expect("allreduce carries an element type");
                let partial = match parse_reduce_frame(&body[COLLECTIVE_ID_BYTES..], op, dtype) {
                    Ok(bytes) => bytes.to_vec(),
                    Err(e) => {
                        let err = self.broadcast_abort(key, ST_ERR, e.to_string().into_bytes())?;
                        fail_joined(joined, err);
                        return Ok(());
                    }
                };
                if plan == ExchangePlan::RecursiveDoubling {
                    let m = prev_power_of_two(n);
                    let (stage, acc) = if pos >= m {
                        // Extra: fold into the core partner, await the result.
                        self.send_reduce_frame(
                            key,
                            PHASE_RD_FOLD_IN,
                            nodes[pos - m],
                            id,
                            &partial,
                            None,
                        )?;
                        (RdStage::AwaitFoldOut, partial)
                    } else if pos + m < n {
                        // Core with an extra: its fold-in comes first.
                        (RdStage::AwaitFoldIn, partial)
                    } else {
                        // Core without an extra: open round 0 immediately.
                        self.send_reduce_frame(
                            key,
                            PHASE_RD_ROUND_BASE,
                            nodes[pos ^ 1],
                            id,
                            &partial,
                            None,
                        )?;
                        (RdStage::Round(0), partial)
                    };
                    Exchange {
                        id,
                        joined,
                        plan,
                        started,
                        role: ExchangeRole::Rd(RdState {
                            pos,
                            n,
                            m,
                            stage,
                            acc,
                            future: HashMap::new(),
                        }),
                    }
                } else {
                    let state = RingState {
                        pos,
                        n,
                        step: 0,
                        acc: partial,
                        future: HashMap::new(),
                    };
                    // Step 0 sends this node's own chunk around the ring.
                    let chunk = ring_chunk(&state, dtype, pos);
                    let payload = state.acc[chunk].to_vec();
                    self.send_reduce_frame(
                        key,
                        PHASE_RING_BASE,
                        nodes[(pos + 1) % n],
                        id,
                        &payload,
                        Some(state.acc.len() as u32),
                    )?;
                    Exchange {
                        id,
                        joined,
                        plan,
                        started,
                        role: ExchangeRole::Ring(state),
                    }
                }
            }
        };

        if matches!(&ex.role, ExchangeRole::Leader { awaiting, .. } if awaiting.is_empty()) {
            // Single-node group: the exchange completes on the spot.
            return self.finish_leader(key, ex);
        }
        self.exchanges.insert(key, ex);
        // Re-drive frames that arrived before we entered the exchange
        // through the very path live frames take.
        if let Some(frames) = self.early_frames.remove(&key) {
            for (phase, src, frame) in frames {
                if !self.exchanges.contains_key(&key) {
                    break; // completed or aborted while draining
                }
                self.dispatch_exchange_frame(key, src, phase, frame)?;
            }
        }
        Ok(())
    }

    /// Demultiplex one received exchange frame onto the in-flight exchange
    /// it names, or buffer it until this node starts that exchange.
    fn route_exchange_frame(&mut self, src_node: usize, wire: Payload) -> Result<()> {
        let (id, status) = parse_exchange_header(wire.as_slice())?;
        let key = ExchangeKey {
            epoch: id.comm_epoch,
            comm: CommId::from_raw(id.comm),
            seq: id.seq,
        };
        let phase = id.phase;
        let body = wire.slice(EXCHANGE_HEADER_BYTES..wire.len());
        let frame: ExFrame = (status, body);
        if self.aborted.contains_key(&key) {
            // Tombstoned: every local joiner already saw the error; late
            // frames from peers that progressed further are dropped.
            return Ok(());
        }
        if self.exchanges.contains_key(&key) {
            self.dispatch_exchange_frame(key, src_node, phase, frame)
        } else if phase == PHASE_ABORT {
            // Abort for an exchange we have not started: tombstone it so
            // our joiners fail the moment they would have entered it.
            self.aborted
                .insert(key, frame_to_error(frame.0, frame.1.as_slice()));
            self.early_frames.remove(&key);
            Ok(())
        } else {
            self.early_frames
                .entry(key)
                .or_default()
                .push((phase, src_node, frame));
            Ok(())
        }
    }

    /// Feed one frame into its live exchange and advance the plan's state
    /// machine.  The exchange is taken out of the registry for the duration
    /// so completion paths can consume it.
    fn dispatch_exchange_frame(
        &mut self,
        key: ExchangeKey,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Result<()> {
        let Some(ex) = self.exchanges.remove(&key) else {
            return Ok(());
        };
        if phase == PHASE_ABORT {
            let err = frame_to_error(frame.0, frame.1.as_slice());
            self.aborted.insert(key, err.clone());
            fail_joined(ex.joined, err);
            return Ok(());
        }
        if let Some(ex) = self.advance_exchange(key, ex, src_node, phase, frame)? {
            self.exchanges.insert(key, ex);
        }
        Ok(())
    }

    /// One step of an exchange's role-specific state machine.  Returns the
    /// exchange if it is still in flight, `None` once it completed or
    /// aborted.
    fn advance_exchange(
        &mut self,
        key: ExchangeKey,
        mut ex: Exchange,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Result<Option<Exchange>> {
        match (&mut ex.role, phase) {
            (ExchangeRole::Leader { awaiting, ups }, PHASE_UP) => {
                if !awaiting.remove(&src_node) {
                    // A duplicate (or non-member) up-frame is dropped: the
                    // exact key already proves it named this exchange, so
                    // it cannot belong anywhere else.
                    return Ok(Some(ex));
                }
                if ex.plan == ExchangePlan::Tree {
                    // The frame bundles the whole subtree under `src_node`.
                    match check_up_bundle(ex.id, src_node, &frame) {
                        Ok(_) => match decode_bundle_ups(&frame.1) {
                            Some(entries) => ups.extend(entries),
                            None => {
                                let body = format!("malformed tree bundle from node {src_node}")
                                    .into_bytes();
                                self.abort_and_fail(key, ex, ST_ERR, body)?;
                                return Ok(None);
                            }
                        },
                        Err((st, body)) => {
                            self.abort_and_fail(key, ex, st, body)?;
                            return Ok(None);
                        }
                    }
                } else {
                    ups.push((src_node, frame));
                }
                if matches!(&ex.role, ExchangeRole::Leader { awaiting, .. } if awaiting.is_empty())
                {
                    self.finish_leader(key, ex)?;
                    return Ok(None);
                }
                Ok(Some(ex))
            }
            (ExchangeRole::Member, PHASE_DOWN) => {
                self.finish_member(key.comm, ex, frame)?;
                Ok(None)
            }
            (ExchangeRole::TreeNode(state), PHASE_UP) => {
                if !state.awaiting.remove(&src_node) {
                    return Ok(Some(ex));
                }
                match check_up_bundle(ex.id, src_node, &frame) {
                    Ok(raw_entries) => state.entries.extend_from_slice(raw_entries),
                    Err((st, body)) => {
                        self.abort_and_fail(key, ex, st, body)?;
                        return Ok(None);
                    }
                }
                if state.awaiting.is_empty() {
                    let id = ex.id;
                    let ExchangeRole::TreeNode(state) = &mut ex.role else {
                        unreachable!("tree state")
                    };
                    self.send_tree_bundle(key, id, state)?;
                }
                Ok(Some(ex))
            }
            (ExchangeRole::TreeNode(_), PHASE_DOWN) => {
                self.finish_tree_down(key, ex, frame)?;
                Ok(None)
            }
            (ExchangeRole::Rd(_), _)
                if matches!(phase, PHASE_RD_FOLD_IN | PHASE_RD_FOLD_OUT)
                    || phase >= PHASE_RD_ROUND_BASE =>
            {
                self.advance_rd(key, ex, src_node, phase, frame)
            }
            (ExchangeRole::Ring(_), _) if phase >= PHASE_RING_BASE => {
                self.advance_ring(key, ex, src_node, phase, frame)
            }
            // Any other (role, phase) pairing means the sender derived a
            // different schedule for this very exchange — the group
            // disagrees about the collective.  Abort everyone.
            _ => {
                self.unexpected_frame_abort(key, ex, src_node, phase, frame)?;
                Ok(None)
            }
        }
    }

    /// Bundle this node's accumulated subtree entries and ship them to its
    /// tree parent.
    fn send_tree_bundle(
        &mut self,
        key: ExchangeKey,
        id: CollectiveId,
        state: &mut TreeState,
    ) -> Result<()> {
        let mut body = Vec::with_capacity(COLLECTIVE_ID_BYTES + state.entries.len());
        body.extend_from_slice(&id.encode());
        body.append(&mut state.entries);
        let frame = frame_exchange(key.wire(PHASE_UP), ST_OK, &body);
        let req = self.comm.isend(state.parent, TAG_EXCHANGE, frame)?;
        self.outstanding_isends.push(req);
        self.metrics.frames_up.inc();
        Ok(())
    }

    /// Tree non-root: the parent's down-frame arrived — relay it toward the
    /// leaves and deliver local results (or the echoed error).
    fn finish_tree_down(&mut self, key: ExchangeKey, ex: Exchange, frame: ExFrame) -> Result<()> {
        let group = self
            .groups
            .get(&key.comm)
            .expect("group outlives its exchanges")
            .clone();
        let n = group.nodes.len();
        let pos = group
            .nodes
            .iter()
            .position(|&nd| nd == self.node)
            .expect("this node hosts a member");
        let (status, body) = frame;
        if status == ST_BUNDLE {
            // Per-node results: split the bundle by child subtree, keep our
            // own entry.
            let table: HashMap<usize, Payload> = rank_frames(body.as_slice())
                .map(|(node, range)| (node, body.slice(range)))
                .collect();
            for child_pos in binomial_children(pos, n) {
                let mut sub = Vec::new();
                for p in binomial_subtree(child_pos, n) {
                    let node = group.nodes[p];
                    let bytes = table.get(&node).map_or(&[][..], Payload::as_slice);
                    encode_bundle_entry(&mut sub, node, None, bytes);
                }
                let frame = frame_exchange(key.wire(PHASE_DOWN), ST_BUNDLE, &sub);
                let req = self
                    .comm
                    .isend(group.nodes[child_pos], TAG_EXCHANGE, frame)?;
                self.outstanding_isends.push(req);
                self.metrics.frames_down.inc();
            }
            let own = table
                .get(&self.node)
                .cloned()
                .unwrap_or_else(Payload::empty);
            self.metrics
                .record_latency(key.comm, ex.id.kind, ex.plan, ex.started.elapsed());
            self.deliver(key.comm, ex.id, ex.joined, &group, own)
        } else {
            // Uniform result or error echo: every subtree node gets the
            // identical frame, so relay one pooled copy to each child.
            let relay = Payload::from_vec(frame_exchange(
                key.wire(PHASE_DOWN),
                status,
                body.as_slice(),
            ));
            for child_pos in binomial_children(pos, n) {
                let req = self
                    .comm
                    .isend(group.nodes[child_pos], TAG_EXCHANGE, relay.clone())?;
                self.outstanding_isends.push(req);
                self.metrics.frames_down.inc();
            }
            match status {
                ST_OK => {
                    self.metrics.record_latency(
                        key.comm,
                        ex.id.kind,
                        ex.plan,
                        ex.started.elapsed(),
                    );
                    self.deliver(key.comm, ex.id, ex.joined, &group, body)
                }
                status => {
                    fail_joined(ex.joined, frame_to_error(status, body.as_slice()));
                    Ok(())
                }
            }
        }
    }

    /// Recursive doubling: stash the frame and consume stashed frames in
    /// schedule order (partners of later rounds may run ahead).
    fn advance_rd(
        &mut self,
        key: ExchangeKey,
        mut ex: Exchange,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Result<Option<Exchange>> {
        let expected = {
            let ExchangeRole::Rd(state) = &ex.role else {
                unreachable!("rd role")
            };
            let rounds = state.m.trailing_zeros();
            if state.pos >= state.m {
                phase == PHASE_RD_FOLD_OUT
            } else {
                (phase == PHASE_RD_FOLD_IN && state.pos + state.m < state.n)
                    || (PHASE_RD_ROUND_BASE..PHASE_RD_ROUND_BASE + rounds).contains(&phase)
            }
        };
        if !expected {
            self.unexpected_frame_abort(key, ex, src_node, phase, frame)?;
            return Ok(None);
        }
        let nodes = self
            .groups
            .get(&key.comm)
            .expect("group outlives its exchanges")
            .nodes
            .clone();
        {
            let ExchangeRole::Rd(state) = &mut ex.role else {
                unreachable!("rd role")
            };
            state.future.insert(phase, frame);
        }
        loop {
            enum Act {
                Send {
                    phase: u32,
                    dst: usize,
                    payload: Vec<u8>,
                },
                Finish {
                    fold_out: Option<usize>,
                },
                Abort {
                    status: u8,
                    body: Vec<u8>,
                },
            }
            let act = {
                let ExchangeRole::Rd(state) = &mut ex.role else {
                    unreachable!("rd role")
                };
                let want = match state.stage {
                    RdStage::AwaitFoldIn => PHASE_RD_FOLD_IN,
                    RdStage::Round(r) => PHASE_RD_ROUND_BASE + r,
                    RdStage::AwaitFoldOut => PHASE_RD_FOLD_OUT,
                };
                let Some(frame) = state.future.remove(&want) else {
                    return Ok(Some(ex));
                };
                match check_reduce_frame(ex.id, &frame, 0) {
                    Err((status, body)) => Act::Abort { status, body },
                    Ok((_, peer_bytes)) => {
                        let op = ex.id.op.expect("allreduce carries an operator");
                        let dtype = ex.id.dtype.expect("allreduce carries an element type");
                        let rounds = state.m.trailing_zeros();
                        match state.stage {
                            RdStage::AwaitFoldOut => {
                                // The finished result from our core partner.
                                state.acc = peer_bytes.to_vec();
                                Act::Finish { fold_out: None }
                            }
                            RdStage::AwaitFoldIn | RdStage::Round(_) => {
                                match dtype.fold(op, &mut state.acc, peer_bytes) {
                                    Err(e) => Act::Abort {
                                        status: ST_ERR,
                                        body: e.to_string().into_bytes(),
                                    },
                                    Ok(()) => {
                                        let next = match state.stage {
                                            RdStage::AwaitFoldIn => 0,
                                            RdStage::Round(r) => r + 1,
                                            RdStage::AwaitFoldOut => unreachable!(),
                                        };
                                        if next < rounds {
                                            state.stage = RdStage::Round(next);
                                            Act::Send {
                                                phase: PHASE_RD_ROUND_BASE + next,
                                                dst: nodes[state.pos ^ (1 << next)],
                                                payload: state.acc.clone(),
                                            }
                                        } else {
                                            Act::Finish {
                                                fold_out: (state.pos + state.m < state.n)
                                                    .then(|| nodes[state.pos + state.m]),
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            };
            match act {
                Act::Send {
                    phase,
                    dst,
                    payload,
                } => {
                    self.send_reduce_frame(key, phase, dst, ex.id, &payload, None)?;
                }
                Act::Finish { fold_out } => {
                    let ExchangeRole::Rd(state) = &mut ex.role else {
                        unreachable!("rd role")
                    };
                    let result = std::mem::take(&mut state.acc);
                    if let Some(extra) = fold_out {
                        self.send_reduce_frame(
                            key,
                            PHASE_RD_FOLD_OUT,
                            extra,
                            ex.id,
                            &result,
                            None,
                        )?;
                    }
                    let group = self
                        .groups
                        .get(&key.comm)
                        .expect("group outlives its exchanges")
                        .clone();
                    self.metrics.record_latency(
                        key.comm,
                        ex.id.kind,
                        ex.plan,
                        ex.started.elapsed(),
                    );
                    self.deliver(
                        key.comm,
                        ex.id,
                        ex.joined,
                        &group,
                        Payload::from_vec(result),
                    )?;
                    return Ok(None);
                }
                Act::Abort { status, body } => {
                    self.abort_and_fail(key, ex, status, body)?;
                    return Ok(None);
                }
            }
        }
    }

    /// Ring allreduce: stash the frame and consume stashed frames in step
    /// order (the predecessor may run ahead).
    fn advance_ring(
        &mut self,
        key: ExchangeKey,
        mut ex: Exchange,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Result<Option<Exchange>> {
        let expected = {
            let ExchangeRole::Ring(state) = &ex.role else {
                unreachable!("ring role")
            };
            let steps = 2 * (state.n as u32 - 1);
            (PHASE_RING_BASE..PHASE_RING_BASE + steps).contains(&phase)
        };
        if !expected {
            self.unexpected_frame_abort(key, ex, src_node, phase, frame)?;
            return Ok(None);
        }
        let nodes = self
            .groups
            .get(&key.comm)
            .expect("group outlives its exchanges")
            .nodes
            .clone();
        {
            let ExchangeRole::Ring(state) = &mut ex.role else {
                unreachable!("ring role")
            };
            state.future.insert(phase, frame);
        }
        loop {
            enum Act {
                Send {
                    phase: u32,
                    payload: Vec<u8>,
                    total: u32,
                },
                Finish,
                Abort {
                    status: u8,
                    body: Vec<u8>,
                },
            }
            let (act, succ) = {
                let ExchangeRole::Ring(state) = &mut ex.role else {
                    unreachable!("ring role")
                };
                let succ = nodes[(state.pos + 1) % state.n];
                let Some(frame) = state.future.remove(&(PHASE_RING_BASE + state.step)) else {
                    return Ok(Some(ex));
                };
                let op = ex.id.op.expect("allreduce carries an operator");
                let dtype = ex.id.dtype.expect("allreduce carries an element type");
                let act = match check_reduce_frame(ex.id, &frame, 4) {
                    Err((status, body)) => Act::Abort { status, body },
                    Ok((total, peer_bytes)) => {
                        let n = state.n;
                        let s = state.step as usize;
                        if total as usize != state.acc.len() {
                            Act::Abort {
                                status: ST_ERR,
                                body: format!(
                                    "reduce length mismatch across nodes: a peer's vector has \
                                     {} bytes, this node's has {}",
                                    total,
                                    state.acc.len()
                                )
                                .into_bytes(),
                            }
                        } else {
                            // Which chunk this step receives, and what to do
                            // with it: fold during reduce-scatter, overwrite
                            // during allgather.
                            let recv_chunk = if s < n - 1 {
                                (state.pos + n - 1 - s) % n
                            } else {
                                (state.pos + n - (s - (n - 1))) % n
                            };
                            let range = ring_chunk(state, dtype, recv_chunk);
                            let fold_result = if peer_bytes.len() != range.len() {
                                Err(format!(
                                    "ring chunk length mismatch: got {} bytes, expected {}",
                                    peer_bytes.len(),
                                    range.len()
                                ))
                            } else if s < n - 1 {
                                dtype
                                    .fold(op, &mut state.acc[range], peer_bytes)
                                    .map_err(|e| e.to_string())
                            } else {
                                state.acc[range].copy_from_slice(peer_bytes);
                                Ok(())
                            };
                            match fold_result {
                                Err(msg) => Act::Abort {
                                    status: ST_ERR,
                                    body: msg.into_bytes(),
                                },
                                Ok(()) => {
                                    state.step += 1;
                                    let s = state.step as usize;
                                    if s == 2 * (n - 1) {
                                        Act::Finish
                                    } else {
                                        let send_chunk = if s < n - 1 {
                                            (state.pos + n - s) % n
                                        } else {
                                            (state.pos + 1 + n - (s - (n - 1))) % n
                                        };
                                        let range = ring_chunk(state, dtype, send_chunk);
                                        Act::Send {
                                            phase: PHASE_RING_BASE + state.step,
                                            payload: state.acc[range].to_vec(),
                                            total: state.acc.len() as u32,
                                        }
                                    }
                                }
                            }
                        }
                    }
                };
                (act, succ)
            };
            match act {
                Act::Send {
                    phase,
                    payload,
                    total,
                } => {
                    self.send_reduce_frame(key, phase, succ, ex.id, &payload, Some(total))?;
                }
                Act::Finish => {
                    let ExchangeRole::Ring(state) = &mut ex.role else {
                        unreachable!("ring role")
                    };
                    let result = std::mem::take(&mut state.acc);
                    let group = self
                        .groups
                        .get(&key.comm)
                        .expect("group outlives its exchanges")
                        .clone();
                    self.metrics.record_latency(
                        key.comm,
                        ex.id.kind,
                        ex.plan,
                        ex.started.elapsed(),
                    );
                    self.deliver(
                        key.comm,
                        ex.id,
                        ex.joined,
                        &group,
                        Payload::from_vec(result),
                    )?;
                    return Ok(None);
                }
                Act::Abort { status, body } => {
                    self.abort_and_fail(key, ex, status, body)?;
                    return Ok(None);
                }
            }
        }
    }

    /// Frame and send one allreduce-schedule payload:
    /// `[CollectiveId][total_len u32 (ring only)][frame_reduce(op, dtype, payload)]`.
    fn send_reduce_frame(
        &mut self,
        key: ExchangeKey,
        phase: u32,
        dst_node: usize,
        id: CollectiveId,
        payload: &[u8],
        total_len: Option<u32>,
    ) -> Result<()> {
        let op = id.op.expect("allreduce carries an operator");
        let dtype = id.dtype.expect("allreduce carries an element type");
        let mut body = Vec::with_capacity(COLLECTIVE_ID_BYTES + 6 + payload.len());
        body.extend_from_slice(&id.encode());
        if let Some(total) = total_len {
            body.extend_from_slice(&total.to_le_bytes());
        }
        body.extend_from_slice(&frame_reduce(op, dtype, payload));
        let frame = frame_exchange(key.wire(phase), ST_OK, &body);
        let req = self.comm.isend(dst_node, TAG_EXCHANGE, frame)?;
        self.outstanding_isends.push(req);
        // Ring frames are the only ones carrying a total length.
        if total_len.is_some() {
            self.metrics.frames_ring.inc();
        } else {
            self.metrics.frames_rd.inc();
        }
        Ok(())
    }

    /// A frame arrived whose phase this node's plan has no step for: the
    /// sender derived a different schedule, so the group disagrees about
    /// the collective (kind, payload size, or membership).  Abort everyone,
    /// as a collective mismatch when the disagreement is derivable.
    fn unexpected_frame_abort(
        &mut self,
        key: ExchangeKey,
        ex: Exchange,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Result<()> {
        let (status, body) = &frame;
        let (st, ab) = if *status == ST_OK {
            match CollectiveId::decode(body.as_slice()) {
                Some(peer) if peer.kind != ex.id.kind => (
                    ST_MISMATCH,
                    vec![ex.id.kind.wire_code(), peer.kind.wire_code()],
                ),
                _ => (
                    ST_ERR,
                    format!(
                        "node {src_node} sent an exchange frame for phase {phase}, which this \
                         node's {} schedule has no step for — the group disagrees about the \
                         collective",
                        plan_name(ex.plan)
                    )
                    .into_bytes(),
                ),
            }
        } else {
            (*status, body.to_vec())
        };
        self.abort_and_fail(key, ex, st, ab)
    }

    /// Broadcast an abort for `key`, tombstone it, and fail the exchange's
    /// local joiners with the same error.
    fn abort_and_fail(
        &mut self,
        key: ExchangeKey,
        ex: Exchange,
        status: u8,
        body: Vec<u8>,
    ) -> Result<()> {
        let err = self.broadcast_abort(key, status, body)?;
        fail_joined(ex.joined, err);
        Ok(())
    }

    /// Ship a [`PHASE_ABORT`] frame for `key` to every other node of its
    /// group and tombstone the key locally; returns the error the abort
    /// decodes to.  Works identically under every plan — abort propagation
    /// does not ride the (possibly disagreeing) schedule.
    fn broadcast_abort(
        &mut self,
        key: ExchangeKey,
        status: u8,
        body: Vec<u8>,
    ) -> Result<DcgnError> {
        let err = frame_to_error(status, &body);
        let nodes = self
            .groups
            .get(&key.comm)
            .map(|g| g.nodes.clone())
            .unwrap_or_default();
        let frame = Payload::from_vec(frame_exchange(key.wire(PHASE_ABORT), status, &body));
        for &node in &nodes {
            if node != self.node {
                let req = self.comm.isend(node, TAG_EXCHANGE, frame.clone())?;
                self.outstanding_isends.push(req);
            }
        }
        self.aborted.insert(key, err.clone());
        Ok(err)
    }

    /// Leader: all up-frames (and our own) are in — verify that every node
    /// executed the same collective, combine the contributions, ship each
    /// participating node its down-frame, and deliver local results.
    fn finish_leader(&mut self, key: ExchangeKey, ex: Exchange) -> Result<()> {
        let ups = match ex.role {
            ExchangeRole::Leader { ups, .. } => ups,
            _ => unreachable!("leader state"),
        };
        let group = self
            .groups
            .get(&key.comm)
            .expect("group outlives its exchanges")
            .clone();
        // Under the star the leader fans out to every node directly; under
        // the tree it feeds only its binomial children, which relay onward.
        let fanout: Vec<usize> = match ex.plan {
            ExchangePlan::Tree => binomial_children(0, group.nodes.len())
                .into_iter()
                .map(|p| group.nodes[p])
                .collect(),
            _ => group
                .nodes
                .iter()
                .copied()
                .filter(|&node| node != self.node)
                .collect(),
        };

        // Unwrap status frames and verify the cross-node collective
        // identity.  The first error — a local validation failure, a
        // mismatch echo from a joining node, or peers disagreeing about
        // which collective runs — fails the whole communicator, and *only*
        // this communicator, because it is echoed to every participating
        // node instead of leaving them blocked.
        let mut payloads: HashMap<usize, Payload> = HashMap::new();
        let mut error: Option<(u8, Vec<u8>)> = None;
        for (node, (status, body)) in ups {
            match status {
                ST_OK => match CollectiveId::decode(body.as_slice()) {
                    Some(peer_id) if peer_id == ex.id => {
                        payloads.insert(node, body.slice(COLLECTIVE_ID_BYTES..body.len()));
                    }
                    Some(peer_id) if error.is_none() => {
                        error = Some(if peer_id.kind != ex.id.kind {
                            (
                                ST_MISMATCH,
                                vec![ex.id.kind.wire_code(), peer_id.kind.wire_code()],
                            )
                        } else {
                            (
                                ST_ERR,
                                format!(
                                    "collective identity mismatch across nodes: node {node} \
                                     ran {} with root {:?}, op {:?}, dtype {:?}; the leader \
                                     expected root {:?}, op {:?}, dtype {:?}",
                                    peer_id.kind.name(),
                                    peer_id.root,
                                    peer_id.op,
                                    peer_id.dtype,
                                    ex.id.root,
                                    ex.id.op,
                                    ex.id.dtype
                                )
                                .into_bytes(),
                            )
                        });
                    }
                    None if error.is_none() => {
                        error = Some((
                            ST_ERR,
                            format!("malformed exchange up-frame from node {node}").into_bytes(),
                        ));
                    }
                    _ => {}
                },
                status if error.is_none() => error = Some((status, body.to_vec())),
                _ => {}
            }
        }
        let down = match error {
            Some(err) => Err(err),
            None => match self.combine(ex.id, &group, &payloads) {
                Ok(downs) => Ok(downs),
                Err(msg) => Err((ST_ERR, msg.into_bytes())),
            },
        };
        match down {
            // Errors (and uniform results below) are framed exactly once:
            // shipping the same pooled frame to every node clones a
            // reference, not the body.
            Err((status, body)) => {
                let frame = Payload::from_vec(frame_exchange(key.wire(PHASE_DOWN), status, &body));
                for &node in &fanout {
                    let req = self.comm.isend(node, TAG_EXCHANGE, frame.clone())?;
                    self.outstanding_isends.push(req);
                    self.metrics.frames_down.inc();
                }
                fail_joined(ex.joined, frame_to_error(status, &body));
                Ok(())
            }
            Ok(Downs::Uniform(body)) => {
                let frame = Payload::from_vec(frame_exchange(key.wire(PHASE_DOWN), ST_OK, &body));
                for &node in &fanout {
                    let req = self.comm.isend(node, TAG_EXCHANGE, frame.clone())?;
                    self.outstanding_isends.push(req);
                    self.metrics.frames_down.inc();
                }
                // Local delivery is a view of the same frame.
                let own = frame.slice(EXCHANGE_HEADER_BYTES..frame.len());
                self.metrics
                    .record_latency(key.comm, ex.id.kind, ex.plan, ex.started.elapsed());
                self.deliver(key.comm, ex.id, ex.joined, &group, own)
            }
            Ok(Downs::PerNode(mut downs)) => {
                if ex.plan == ExchangePlan::Tree {
                    // Per-node results travel as bundles split by subtree;
                    // each interior node re-splits for its own children.
                    let n = group.nodes.len();
                    for child_pos in binomial_children(0, n) {
                        let mut sub = Vec::new();
                        for p in binomial_subtree(child_pos, n) {
                            let node = group.nodes[p];
                            let body = downs.remove(&node).unwrap_or_default();
                            encode_bundle_entry(&mut sub, node, None, &body);
                        }
                        let frame = frame_exchange(key.wire(PHASE_DOWN), ST_BUNDLE, &sub);
                        let req = self
                            .comm
                            .isend(group.nodes[child_pos], TAG_EXCHANGE, frame)?;
                        self.outstanding_isends.push(req);
                        self.metrics.frames_down.inc();
                    }
                } else {
                    for &node in &fanout {
                        let body = downs.remove(&node).unwrap_or_default();
                        let frame = frame_exchange(key.wire(PHASE_DOWN), ST_OK, &body);
                        let req = self.comm.isend(node, TAG_EXCHANGE, frame)?;
                        self.outstanding_isends.push(req);
                        self.metrics.frames_down.inc();
                    }
                }
                let own = downs.remove(&self.node).unwrap_or_default();
                self.metrics
                    .record_latency(key.comm, ex.id.kind, ex.plan, ex.started.elapsed());
                self.deliver(key.comm, ex.id, ex.joined, &group, Payload::from_vec(own))
            }
        }
    }

    /// Member: the leader's down-frame arrived — deliver results (or the
    /// echoed error) to every local joiner.
    fn finish_member(&mut self, comm: CommId, ex: Exchange, frame: ExFrame) -> Result<()> {
        let (status, body) = frame;
        match status {
            ST_OK => {
                let group = self
                    .groups
                    .get(&comm)
                    .expect("group outlives its exchanges")
                    .clone();
                self.metrics
                    .record_latency(comm, ex.id.kind, ex.plan, ex.started.elapsed());
                self.deliver(comm, ex.id, ex.joined, &group, body)
            }
            status => {
                fail_joined(ex.joined, frame_to_error(status, body.as_slice()));
                Ok(())
            }
        }
    }

    /// Combine the per-node up-payloads of a collective into the down
    /// distribution.  `Err` carries a diagnostic that fails every member of
    /// the communicator (on every node).
    fn combine(
        &self,
        id: CollectiveId,
        group: &CommGroup,
        payloads: &HashMap<usize, Payload>,
    ) -> std::result::Result<Downs, String> {
        let size = group.members.len();
        let root_node = |root: Option<usize>| {
            let root = root.expect("rooted collective");
            self.rank_map
                .node_of(group.members[root])
                .expect("members have nodes")
        };
        let merged = || {
            let mut table: Vec<Vec<u8>> = vec![Vec::new(); size];
            for payload in payloads.values() {
                decode_rank_frames_into(payload.as_slice(), &mut table);
            }
            table
        };
        let empty_except = |node: usize, payload: Vec<u8>| {
            let mut downs: HashMap<usize, Vec<u8>> =
                group.nodes.iter().map(|&n| (n, Vec::new())).collect();
            downs.insert(node, payload);
            Downs::PerNode(downs)
        };
        Ok(match id.kind {
            CollectiveKind::Barrier => Downs::Uniform(Vec::new()),
            CollectiveKind::Broadcast => {
                let node = root_node(id.root);
                Downs::Uniform(payloads.get(&node).map_or_else(Vec::new, Payload::to_vec))
            }
            CollectiveKind::Allgather | CollectiveKind::Split => {
                let table = merged();
                Downs::Uniform(encode_rank_frames(
                    table.iter().enumerate().map(|(s, d)| (s, d.as_slice())),
                ))
            }
            CollectiveKind::Gather => {
                let table = merged();
                let blob =
                    encode_rank_frames(table.iter().enumerate().map(|(s, d)| (s, d.as_slice())));
                empty_except(root_node(id.root), blob)
            }
            CollectiveKind::Scatter => {
                let node = root_node(id.root);
                let mut table: Vec<Vec<u8>> = vec![Vec::new(); size];
                decode_rank_frames_into(
                    payloads.get(&node).map_or(&[][..], Payload::as_slice),
                    &mut table,
                );
                Downs::PerNode(
                    group
                        .nodes
                        .iter()
                        .map(|&n| {
                            let frames = group.members.iter().enumerate().filter_map(|(s, &m)| {
                                (self.rank_map.node_of(m) == Some(n))
                                    .then_some((s, table[s].as_slice()))
                            });
                            (n, encode_rank_frames(frames))
                        })
                        .collect(),
                )
            }
            CollectiveKind::Reduce | CollectiveKind::Allreduce => {
                let op = id.op.expect("reduction carries an operator");
                let dtype = id.dtype.expect("reduction carries an element type");
                let mut acc: Option<Vec<u8>> = None;
                // Fold in node order, so the result is deterministic.  Each
                // up-payload leads with its (op, dtype) identity header.
                for &node in &group.nodes {
                    let frame = payloads.get(&node).map_or(&[][..], Payload::as_slice);
                    let bytes = parse_reduce_frame(frame, op, dtype).map_err(|e| e.to_string())?;
                    match &mut acc {
                        None => acc = Some(bytes.to_vec()),
                        Some(acc) => {
                            if acc.len() != bytes.len() {
                                return Err(format!(
                                    "reduce length mismatch across nodes: \
                                     node {node} contributed {} values, expected {}",
                                    bytes.len() / dtype.element_bytes(),
                                    acc.len() / dtype.element_bytes()
                                ));
                            }
                            dtype.fold(op, acc, bytes).map_err(|e| e.to_string())?;
                        }
                    }
                }
                let result = acc.unwrap_or_default();
                if id.kind == CollectiveKind::Reduce {
                    empty_except(root_node(id.root), result)
                } else {
                    Downs::Uniform(result)
                }
            }
        })
    }

    /// Turn this node's down-payload into per-member results and reply to
    /// every local joiner.  The payload is shared, so scattering it to N
    /// local ranks clones references, not bytes.
    fn deliver(
        &mut self,
        comm: CommId,
        id: CollectiveId,
        joined: Vec<(usize, Sender<Reply>)>,
        group: &CommGroup,
        payload: Payload,
    ) -> Result<()> {
        let size = group.members.len();
        let root_global = id.root.map(|root| group.members[root]);
        // Chunked payloads decode once into a sub-rank-indexed table of
        // zero-copy views.
        let table: Vec<Payload> = match id.kind {
            CollectiveKind::Gather
            | CollectiveKind::Allgather
            | CollectiveKind::Scatter
            | CollectiveKind::Split => decode_rank_frames_payload(&payload, size),
            _ => Vec::new(),
        };
        // Splits additionally register the child groups on this node and
        // produce each member's encoded membership.
        let mut split_infos = if id.kind == CollectiveKind::Split {
            let colors = table
                .iter()
                .map(|entry| decode_color_key(entry.as_slice()))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| DcgnError::Internal("malformed comm_split contribution".into()))?;
            self.apply_split(comm, &colors)
        } else {
            HashMap::new()
        };
        let source = match id.kind {
            CollectiveKind::Broadcast | CollectiveKind::Scatter => root_global,
            _ => None,
        };
        for (rank, reply_tx) in joined {
            let sub = group.sub_of(rank).expect("membership validated at join");
            let result = match id.kind {
                CollectiveKind::Barrier => CollectiveResult::Unit,
                CollectiveKind::Broadcast | CollectiveKind::Allreduce => {
                    CollectiveResult::Bytes(payload.clone())
                }
                CollectiveKind::Reduce => {
                    if Some(rank) == root_global {
                        CollectiveResult::Bytes(payload.clone())
                    } else {
                        CollectiveResult::Unit
                    }
                }
                CollectiveKind::Gather => {
                    if Some(rank) == root_global {
                        CollectiveResult::Chunks(table.clone())
                    } else {
                        CollectiveResult::Unit
                    }
                }
                CollectiveKind::Allgather => CollectiveResult::Chunks(table.clone()),
                CollectiveKind::Scatter => CollectiveResult::Bytes(table[sub].clone()),
                CollectiveKind::Split => CollectiveResult::Bytes(Payload::from_vec(
                    split_infos
                        .remove(&rank)
                        .expect("every member belongs to one color class"),
                )),
            };
            if !matches!(result, CollectiveResult::Unit) && Some(rank) != source {
                self.cost.intra_node.charge(result_payload_len(&result));
            }
            let _ = reply_tx.send(Reply::CollectiveDone(result));
        }
        Ok(())
    }

    /// This node's local contribution to an exchange (the payload it sends
    /// toward the leader, after the encoded [`CollectiveId`]).  `Err`
    /// carries a local validation failure, which the protocol echoes to the
    /// whole communicator.
    fn build_up(
        &self,
        assembly: &CollectiveAssembly,
        group: &CommGroup,
    ) -> std::result::Result<Vec<u8>, String> {
        let sub_of = |rank: usize| group.sub_of(rank).expect("membership validated at join");
        let root_global = assembly.id.root.map(|root| group.members[root]);
        Ok(match assembly.id.kind {
            CollectiveKind::Barrier => Vec::new(),
            CollectiveKind::Broadcast => assembly
                .joined
                .iter()
                .find(|(rank, _, _)| Some(*rank) == root_global)
                .map(|(_, c, _)| c.as_bytes().to_vec())
                .unwrap_or_default(),
            CollectiveKind::Gather | CollectiveKind::Allgather | CollectiveKind::Split => {
                encode_rank_frames(
                    assembly
                        .joined
                        .iter()
                        .map(|(rank, c, _)| (sub_of(*rank), c.as_bytes())),
                )
            }
            CollectiveKind::Scatter => assembly
                .joined
                .iter()
                .find_map(|(rank, c, _)| match (rank, c) {
                    (r, Contribution::Chunks(chunks)) if Some(*r) == root_global => {
                        Some(encode_rank_frames(
                            chunks.iter().enumerate().map(|(s, d)| (s, d.as_slice())),
                        ))
                    }
                    _ => None,
                })
                .unwrap_or_default(),
            CollectiveKind::Reduce | CollectiveKind::Allreduce => {
                let op = assembly.id.op.expect("reduction carries an operator");
                let dtype = assembly
                    .id
                    .dtype
                    .expect("reduction carries an element type");
                // Carry the (op, dtype) identity on the wire: nodes whose
                // ranks disagree on the reduction fail the whole
                // communicator loudly instead of folding reinterpreted
                // bytes.
                let partial =
                    combine_local_reduce(assembly, op, dtype).map_err(|e| e.to_string())?;
                frame_reduce(op, dtype, &partial)
            }
        })
    }

    /// Register the child groups of a split (those with a resident member)
    /// and encode each local member's new membership.  `colors[s]` is the
    /// `(color, key)` pair of parent sub-rank `s`.
    fn apply_split(&mut self, parent: CommId, colors: &[(u32, u32)]) -> HashMap<usize, Vec<u8>> {
        let (parent_members, parent_epoch, split_seq) = {
            let g = self.groups.get_mut(&parent).expect("parent registered");
            g.splits += 1;
            (g.members.clone(), g.epoch, g.splits)
        };
        let mut infos = HashMap::new();
        for (color, members) in group::split_groups(&parent_members, colors) {
            let child = parent.child(split_seq, color);
            let local_members = members
                .iter()
                .filter(|&&m| self.rank_map.node_of(m) == Some(self.node))
                .count();
            if local_members == 0 {
                continue;
            }
            let mut nodes: Vec<usize> = members
                .iter()
                .filter_map(|&m| self.rank_map.node_of(m))
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            for (sub, &member) in members.iter().enumerate() {
                if self.rank_map.node_of(member) == Some(self.node) {
                    infos.insert(member, group::encode_comm_info(child, sub, &members));
                }
            }
            self.groups.insert(
                child,
                CommGroup {
                    members,
                    nodes,
                    local_members,
                    epoch: child_epoch(parent_epoch, split_seq, color),
                    seq: 0,
                    splits: 0,
                    freed: HashSet::new(),
                },
            );
        }
        infos
    }
}

/// Map a collective request onto its communicator, identity and this rank's
/// contribution.  Point-to-point kinds are a caller bug.
fn classify_collective(kind: RequestKind) -> Result<(CommId, CollectiveId, Contribution)> {
    let id = |kind, root| CollectiveId {
        kind,
        root,
        op: None,
        dtype: None,
    };
    let reduce_id = |kind, root, op, dtype| CollectiveId {
        kind,
        root,
        op: Some(op),
        dtype: Some(dtype),
    };
    Ok(match kind {
        RequestKind::Barrier { comm } => {
            (comm, id(CollectiveKind::Barrier, None), Contribution::None)
        }
        RequestKind::Broadcast { comm, root, data } => (
            comm,
            id(CollectiveKind::Broadcast, Some(root)),
            data.map_or(Contribution::None, Contribution::Bytes),
        ),
        RequestKind::Gather { comm, root, data } => (
            comm,
            id(CollectiveKind::Gather, Some(root)),
            Contribution::Bytes(data),
        ),
        RequestKind::Scatter { comm, root, chunks } => (
            comm,
            id(CollectiveKind::Scatter, Some(root)),
            chunks.map_or(Contribution::None, Contribution::Chunks),
        ),
        RequestKind::Allgather { comm, data } => (
            comm,
            id(CollectiveKind::Allgather, None),
            Contribution::Bytes(data),
        ),
        RequestKind::Reduce {
            comm,
            root,
            data,
            op,
            dtype,
        } => {
            dtype.check_aligned(data.as_slice())?;
            (
                comm,
                reduce_id(CollectiveKind::Reduce, Some(root), op, dtype),
                Contribution::Bytes(data),
            )
        }
        RequestKind::Allreduce {
            comm,
            data,
            op,
            dtype,
        } => {
            dtype.check_aligned(data.as_slice())?;
            (
                comm,
                reduce_id(CollectiveKind::Allreduce, None, op, dtype),
                Contribution::Bytes(data),
            )
        }
        RequestKind::Split { comm, color, key } => (
            comm,
            id(CollectiveKind::Split, None),
            Contribution::Bytes(Payload::from_vec(encode_color_key(color, key))),
        ),
        kind @ (RequestKind::Send { .. }
        | RequestKind::Recv { .. }
        | RequestKind::CommFree { .. }) => {
            return Err(DcgnError::Internal(format!(
                "non-collective request ({}) routed to the collective engine",
                kind.name()
            )))
        }
    })
}

/// Local-combine for reduce/allreduce: fold every joined rank's typed vector
/// (as `dtype` bytes) into one node-level partial.  All contributions must
/// have the same element count.
fn combine_local_reduce(
    assembly: &CollectiveAssembly,
    op: ReduceOp,
    dtype: ReduceDtype,
) -> Result<Vec<u8>> {
    let mut acc: Option<Vec<u8>> = None;
    for (rank, contribution, _) in &assembly.joined {
        let bytes = contribution.as_bytes();
        match &mut acc {
            None => acc = Some(bytes.to_vec()),
            Some(acc) => {
                if acc.len() != bytes.len() {
                    return Err(DcgnError::InvalidArgument(format!(
                        "reduce length mismatch: rank {rank} contributed {} values, expected {}",
                        bytes.len() / dtype.element_bytes(),
                        acc.len() / dtype.element_bytes()
                    )));
                }
                dtype.fold(op, acc, bytes)?;
            }
        }
    }
    Ok(acc.unwrap_or_default())
}

/// Byte size of the payload a rank receives, for intra-node cost accounting.
fn result_payload_len(result: &CollectiveResult) -> usize {
    match result {
        CollectiveResult::Unit => 0,
        CollectiveResult::Bytes(b) => b.len(),
        CollectiveResult::Chunks(chunks) => chunks.iter().map(Payload::len).sum(),
    }
}

/// Encode `(sub-rank, bytes)` pairs as `[rank u32][len u32][bytes]…` — the
/// framing every chunked collective uses to move per-rank data inside
/// exchange frames.
fn encode_rank_frames<'a>(frames: impl Iterator<Item = (usize, &'a [u8])>) -> Vec<u8> {
    let mut blob = Vec::new();
    for (rank, data) in frames {
        blob.extend_from_slice(&(rank as u32).to_le_bytes());
        blob.extend_from_slice(&(data.len() as u32).to_le_bytes());
        blob.extend_from_slice(data);
    }
    blob
}

/// Walk `[rank u32][len u32][bytes]…` frames, yielding each frame's rank
/// and the byte range of its payload within `blob`.  Iteration stops at a
/// truncated tail; rank filtering is the consumer's job.
fn rank_frames(blob: &[u8]) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
    let mut off = 0;
    std::iter::from_fn(move || {
        if off + 8 > blob.len() {
            return None;
        }
        let rank = u32::from_le_bytes(blob[off..off + 4].try_into().expect("4 bytes")) as usize;
        let len = u32::from_le_bytes(blob[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
        let start = off + 8;
        off = start + len;
        (off <= blob.len()).then(|| (rank, start..start + len))
    })
}

/// Decode rank frames into a rank-indexed table, ignoring malformed or
/// out-of-range entries.
fn decode_rank_frames_into(blob: &[u8], per_rank: &mut [Vec<u8>]) {
    for (rank, range) in rank_frames(blob) {
        if rank < per_rank.len() {
            per_rank[rank] = blob[range].to_vec();
        }
    }
}

/// Decode rank frames into a table of zero-copy views sharing `blob`'s
/// allocation (used when the decoded chunks are delivered, not re-merged).
fn decode_rank_frames_payload(blob: &Payload, size: usize) -> Vec<Payload> {
    let mut per_rank = vec![Payload::empty(); size];
    for (rank, range) in rank_frames(blob.as_slice()) {
        if rank < per_rank.len() {
            per_rank[rank] = blob.slice(range);
        }
    }
    per_rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_id_roundtrips_on_the_wire() {
        let ids = [
            CollectiveId {
                kind: CollectiveKind::Barrier,
                root: None,
                op: None,
                dtype: None,
            },
            CollectiveId {
                kind: CollectiveKind::Broadcast,
                root: Some(7),
                op: None,
                dtype: None,
            },
            CollectiveId {
                kind: CollectiveKind::Reduce,
                root: Some(0),
                op: Some(ReduceOp::Max),
                dtype: Some(ReduceDtype::I64),
            },
            CollectiveId {
                kind: CollectiveKind::Allreduce,
                root: None,
                op: Some(ReduceOp::Sum),
                dtype: Some(ReduceDtype::F32),
            },
            CollectiveId {
                kind: CollectiveKind::Split,
                root: None,
                op: None,
                dtype: None,
            },
        ];
        for id in ids {
            assert_eq!(CollectiveId::decode(&id.encode()), Some(id));
        }
        // Truncated and garbage inputs fail to decode instead of aliasing.
        assert_eq!(CollectiveId::decode(&[0u8; 4]), None);
        let mut bad = ids[0].encode();
        bad[0] = 0xEE;
        assert_eq!(CollectiveId::decode(&bad), None);
    }

    #[test]
    fn every_collective_kind_wire_code_roundtrips() {
        const ALL_KINDS: [CollectiveKind; 8] = [
            CollectiveKind::Barrier,
            CollectiveKind::Broadcast,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
            CollectiveKind::Allgather,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Split,
        ];
        for kind in ALL_KINDS {
            assert_eq!(CollectiveKind::from_wire_code(kind.wire_code()), Some(kind));
            assert_eq!(CollectiveKind::wire_name(kind.wire_code()), kind.name());
        }
        assert_eq!(CollectiveKind::from_wire_code(200), None);
        assert_eq!(CollectiveKind::wire_name(200), "unknown");
    }

    #[test]
    fn child_epochs_are_deterministic_and_chained() {
        assert_eq!(child_epoch(0, 1, 0), child_epoch(0, 1, 0));
        assert_ne!(child_epoch(0, 1, 0), child_epoch(0, 2, 0));
        assert_ne!(child_epoch(0, 1, 0), child_epoch(0, 1, 1));
        let child = child_epoch(0, 1, 0);
        assert_ne!(child_epoch(child, 1, 0), child_epoch(0, 1, 0));
    }

    #[test]
    fn non_ok_frames_decode_to_clean_errors() {
        let err = frame_to_error(ST_ERR, b"boom");
        assert!(matches!(err, DcgnError::InvalidArgument(msg) if msg == "boom"));
        let mism = frame_to_error(
            ST_MISMATCH,
            &[
                CollectiveKind::Barrier.wire_code(),
                CollectiveKind::Broadcast.wire_code(),
            ],
        );
        assert_eq!(
            mism,
            DcgnError::CollectiveMismatch {
                in_progress: "barrier",
                requested: "broadcast",
            }
        );
        assert!(matches!(
            frame_to_error(ST_MISMATCH, &[]),
            DcgnError::Internal(_)
        ));
    }

    #[test]
    fn rank_frames_roundtrip() {
        let frames: Vec<(usize, Vec<u8>)> = vec![(0, vec![1, 2]), (2, vec![]), (3, vec![9; 300])];
        let blob = encode_rank_frames(frames.iter().map(|(r, d)| (*r, d.as_slice())));
        let mut per_rank = vec![Vec::new(); 4];
        decode_rank_frames_into(&blob, &mut per_rank);
        assert_eq!(per_rank[0], vec![1, 2]);
        assert!(per_rank[1].is_empty());
        assert!(per_rank[2].is_empty());
        assert_eq!(per_rank[3], vec![9; 300]);
    }

    #[test]
    fn decode_ignores_out_of_range_and_truncated_frames() {
        let blob = encode_rank_frames([(7usize, &[1u8, 2][..])].into_iter());
        let mut per_rank = vec![Vec::new(); 2];
        decode_rank_frames_into(&blob, &mut per_rank);
        assert!(per_rank.iter().all(Vec::is_empty));
        // Truncated payload: header promises 100 bytes, blob ends early.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(&[5; 10]);
        decode_rank_frames_into(&bad, &mut per_rank);
        assert!(per_rank.iter().all(Vec::is_empty));
    }

    #[test]
    fn rank_frames_decode_to_zero_copy_views() {
        let frames: Vec<(usize, Vec<u8>)> = vec![(0, vec![1, 2]), (3, vec![9; 30])];
        let blob = Payload::from_vec(encode_rank_frames(
            frames.iter().map(|(r, d)| (*r, d.as_slice())),
        ));
        let table = decode_rank_frames_payload(&blob, 4);
        assert_eq!(table[0].as_slice(), &[1, 2]);
        assert!(table[1].is_empty());
        assert!(table[2].is_empty());
        assert_eq!(table[3].as_slice(), &[9; 30]);
        // The views alias the blob's allocation, not fresh copies.
        let blob_range =
            blob.as_slice().as_ptr() as usize..blob.as_slice().as_ptr() as usize + blob.len();
        assert!(blob_range.contains(&(table[3].as_slice().as_ptr() as usize)));
    }

    fn test_recv(
        dst: usize,
        src: Option<usize>,
        tag: Option<u32>,
        seq: u64,
    ) -> (PendingRecv, Receiver<Reply>) {
        let (reply_tx, reply_rx) = crossbeam::channel::bounded(1);
        (
            PendingRecv {
                dst_rank: dst,
                src,
                tag,
                reply_tx,
                seq,
            },
            reply_rx,
        )
    }

    fn test_msg(dst: usize, src: usize, tag: u32, seq: u64, byte: u8) -> IncomingMsg {
        IncomingMsg {
            src,
            dst,
            tag,
            data: Payload::copy_from_slice(&[byte]),
            local_sender: None,
            seq,
        }
    }

    #[test]
    fn matcher_is_fifo_per_source_and_tag() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 7, seq, 0xA));
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 7, seq, 0xB));
        let (recv, _rx) = test_recv(0, Some(1), Some(7), m.stamp());
        assert_eq!(m.take_msg_for(&recv).unwrap().data.as_slice(), &[0xA]);
        assert_eq!(m.take_msg_for(&recv).unwrap().data.as_slice(), &[0xB]);
        assert!(m.take_msg_for(&recv).is_none());
    }

    #[test]
    fn matcher_wildcard_takes_earliest_arrival_across_sources() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 2, 0, seq, 0xC));
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 0, seq, 0xD));
        let (wild, _rx) = test_recv(0, None, Some(0), m.stamp());
        // Source 2's message arrived first, so the wildcard gets it despite
        // source 1 sorting lower.
        assert_eq!(m.take_msg_for(&wild).unwrap().src, 2);
        assert_eq!(m.take_msg_for(&wild).unwrap().src, 1);
    }

    #[test]
    fn matcher_wildcard_tag_takes_earliest_arrival_across_tags() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 9, seq, 0xE));
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 3, seq, 0xF));
        // Any-tag receive from source 1: arrival order, not tag order.
        let (wild_tag, _rx) = test_recv(0, Some(1), None, m.stamp());
        assert_eq!(m.take_msg_for(&wild_tag).unwrap().tag, 9);
        // Fully wildcard receive drains the rest.
        let (wild, _rx) = test_recv(0, None, None, m.stamp());
        assert_eq!(m.take_msg_for(&wild).unwrap().tag, 3);
        assert!(m.take_msg_for(&wild).is_none());
    }

    #[test]
    fn matcher_ignores_wrong_dst_tag_and_src() {
        let mut m = Matcher::default();
        let seq = m.stamp();
        m.push_msg(test_msg(0, 1, 7, seq, 0xE));
        let (wrong_tag, _a) = test_recv(0, Some(1), Some(8), m.stamp());
        let (wrong_dst, _b) = test_recv(1, Some(1), Some(7), m.stamp());
        let (wrong_src, _c) = test_recv(0, Some(2), Some(7), m.stamp());
        assert!(m.take_msg_for(&wrong_tag).is_none());
        assert!(m.take_msg_for(&wrong_dst).is_none());
        assert!(m.take_msg_for(&wrong_src).is_none());
        assert!(m.take_recv_for(0, 1, 8).is_none());
    }

    #[test]
    fn matcher_prefers_earlier_posted_recv_between_exact_and_wildcard() {
        let mut m = Matcher::default();
        let (wild, _a) = test_recv(0, None, Some(0), m.stamp());
        m.push_recv(wild);
        let (exact, _b) = test_recv(0, Some(3), Some(0), m.stamp());
        m.push_recv(exact);
        assert_eq!(m.pending_recvs(), 2);
        // The wildcard was posted first, so it wins the first message.
        assert!(m.take_recv_for(0, 3, 0).unwrap().src.is_none());
        assert_eq!(m.take_recv_for(0, 3, 0).unwrap().src, Some(3));
        assert_eq!(m.pending_recvs(), 0);
        // Reversed posting order: the exact receive wins.
        let (exact, _c) = test_recv(0, Some(3), Some(0), m.stamp());
        m.push_recv(exact);
        let (wild, _d) = test_recv(0, None, Some(0), m.stamp());
        m.push_recv(wild);
        assert_eq!(m.take_recv_for(0, 3, 0).unwrap().src, Some(3));
        assert!(m.take_recv_for(0, 3, 0).unwrap().src.is_none());
    }

    #[test]
    fn matcher_any_tag_recv_competes_on_posting_order() {
        let mut m = Matcher::default();
        let (any_tag, _a) = test_recv(0, Some(1), None, m.stamp());
        m.push_recv(any_tag);
        let (exact, _b) = test_recv(0, Some(1), Some(5), m.stamp());
        m.push_recv(exact);
        // The any-tag receive was posted first, so it wins the tag-5
        // message; the exact receive stays queued for the next one.
        assert!(m.take_recv_for(0, 1, 5).unwrap().tag.is_none());
        assert_eq!(m.take_recv_for(0, 1, 5).unwrap().tag, Some(5));
        assert!(m.take_recv_for(0, 1, 5).is_none());
    }

    #[test]
    fn matcher_mixed_wildcards_race_on_posting_order_alone() {
        // A `(src, ANY_TAG)` receive and an `(ANY_SOURCE, tag)` receive
        // both match a message from that src with that tag; the winner
        // must be whichever was posted first, in either posting order.
        let mut m = Matcher::default();
        let (src_wild_tag, _a) = test_recv(0, Some(2), None, m.stamp());
        m.push_recv(src_wild_tag);
        let (wild_src_tag, _b) = test_recv(0, None, Some(7), m.stamp());
        m.push_recv(wild_src_tag);
        // (src=2, ANY_TAG) was posted first: it wins the (2, 7) message.
        let winner = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((winner.src, winner.tag), (Some(2), None));
        let loser = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((loser.src, loser.tag), (None, Some(7)));
        assert_eq!(m.pending_recvs(), 0);
        // Reversed posting order: (ANY_SOURCE, tag=7) wins instead.
        let (wild_src_tag, _c) = test_recv(0, None, Some(7), m.stamp());
        m.push_recv(wild_src_tag);
        let (src_wild_tag, _d) = test_recv(0, Some(2), None, m.stamp());
        m.push_recv(src_wild_tag);
        let winner = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((winner.src, winner.tag), (None, Some(7)));
        let loser = m.take_recv_for(0, 2, 7).unwrap();
        assert_eq!((loser.src, loser.tag), (Some(2), None));
        assert_eq!(m.pending_recvs(), 0);
    }

    #[test]
    fn matcher_drain_empties_everything() {
        let mut m = Matcher::default();
        let rxs: Vec<_> = (0..3)
            .map(|i| {
                let (recv, rx) = test_recv(i, None, None, m.stamp());
                m.push_recv(recv);
                rx
            })
            .collect();
        assert_eq!(m.drain_recvs().len(), 3);
        assert_eq!(m.pending_recvs(), 0);
        drop(rxs);
    }

    #[test]
    fn color_key_encoding_roundtrips() {
        assert_eq!(decode_color_key(&encode_color_key(3, 9)), Some((3, 9)));
        assert_eq!(
            decode_color_key(&encode_color_key(u32::MAX, 0)),
            Some((u32::MAX, 0))
        );
        assert_eq!(decode_color_key(&[1, 2, 3]), None);
    }
}
