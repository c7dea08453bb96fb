//! What travels inside exchange frames.
//!
//! Every exchange frame is `[header][status u8][body]` (the header codec is
//! the [`super::Driver`]'s).  This module owns everything
//! after the header: the status bytes, the [`CollectiveId`] every OK body
//! leads with and the one place a peer's id is compared with this node's
//! ([`check_id`]), the bundle and rank-frame codecs of the rooted plans, and
//! the reduce bodies of the allreduce schedules.

use dcgn_netsim::Payload;

use crate::collectives::{frame_reduce, parse_reduce_frame, ReduceDtype, ReduceOp};
use crate::packet::RmpiError;

/// Wire status byte of an exchange frame: the payload is a valid
/// contribution / result.
pub(crate) const ST_OK: u8 = 0;
/// Error marker: the rest of the frame is a UTF-8 diagnostic.  Errors are
/// echoed to every participating node, so a malformed collective fails only
/// its own communicator's ranks instead of hanging peers.
pub(crate) const ST_ERR: u8 = 1;
/// Collective-mismatch marker: the body is two [`CollectiveKind`] wire codes
/// (`[in_progress][requested]`), decoded back into
/// [`RmpiError::CollectiveMismatch`] on every participant.
pub const ST_MISMATCH: u8 = 2;
/// Bundle marker: the body of a rooted plan's per-node down-frame is
/// `[node u32][len u32][bytes]…` entries keyed by *physical node*, which
/// interior nodes split by child subtree.  (Up-bundles travel as [`ST_OK`]:
/// the sender's encoded [`CollectiveId`], then the same entries with a status
/// byte at the head of each.)
pub(crate) const ST_BUNDLE: u8 = 3;

/// A received (or locally built) status-framed exchange payload.
pub type ExFrame = (u8, Payload);

/// `(status, body)` of the abort frame a failed validation broadcasts to the
/// rest of the group.
pub(crate) type AbortFrame = (u8, Vec<u8>);

/// Which collective operation an exchange is executing.  One discriminant
/// per operation; what each one means lives in the rooted plan's combine
/// and in the callers' build and deliver arms, not in per-kind state
/// machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Synchronise every member.
    Barrier,
    /// The root's bytes to every member.
    Broadcast,
    /// Every member's bytes to the root, in sub-rank order.
    Gather,
    /// One chunk per member from the root.
    Scatter,
    /// Every member's bytes to every member, in sub-rank order.
    Allgather,
    /// An element-wise fold of every member's vector, at the root.
    Reduce,
    /// An element-wise fold of every member's vector, at every member.
    Allreduce,
    /// Partition the group by `(color, key)` pairs (DCGN's `comm_split`).
    Split,
}

/// Every kind with its diagnostic name, indexed by wire code (the
/// discriminant).
const KINDS: [(CollectiveKind, &str); 8] = [
    (CollectiveKind::Barrier, "barrier"),
    (CollectiveKind::Broadcast, "broadcast"),
    (CollectiveKind::Gather, "gather"),
    (CollectiveKind::Scatter, "scatter"),
    (CollectiveKind::Allgather, "allgather"),
    (CollectiveKind::Reduce, "reduce"),
    (CollectiveKind::Allreduce, "allreduce"),
    (CollectiveKind::Split, "comm_split"),
];

impl CollectiveKind {
    /// Diagnostic name, as collective-mismatch errors spell it.
    pub fn name(self) -> &'static str {
        KINDS[self as usize].1
    }

    /// One-byte wire identity carried in exchange up-frames so peers can
    /// verify they agree on the operation.
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    fn from_wire_code(code: u8) -> Option<Self> {
        KINDS.get(code as usize).map(|&(kind, _)| kind)
    }

    /// Diagnostic name of a wire code (for mismatch errors echoed from
    /// another node).
    fn wire_name(code: u8) -> &'static str {
        KINDS
            .get(code as usize)
            .map_or("unknown", |&(_, name)| name)
    }
}

/// Identity of a collective operation.  Every member rank on the node must
/// join its communicator's assembly with an identical id before the
/// node-level exchange runs, and every participating *node* ships the id at
/// the head of its frames so each receiver verifies cross-node agreement too;
/// a disagreement is the paper's "collective mismatch" error.  `root` is a
/// sub-rank of the communicator the request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveId {
    /// The operation.
    pub kind: CollectiveKind,
    /// Root sub-rank for rooted collectives, `None` for symmetric ones.
    pub root: Option<usize>,
    /// Operator and element type for reduce/allreduce; part of the identity,
    /// so ranks disagreeing on either fail with a collective mismatch instead
    /// of misinterpreting each other's bytes.
    pub reduction: Option<(ReduceOp, ReduceDtype)>,
}

/// Bytes of the encoded [`CollectiveId`] prefixed to every OK up-frame:
/// `[kind u8][op u8][dtype u8][pad u8][root u32]` (0xFF / u32::MAX = none).
pub const COLLECTIVE_ID_BYTES: usize = 8;

impl CollectiveId {
    /// The reduction a reduce/allreduce id names; an id without one is a
    /// caller bug surfaced as the collective's error, not a panic.
    pub fn required_reduction(&self) -> Result<(ReduceOp, ReduceDtype), String> {
        self.reduction
            .ok_or_else(|| format!("{} carries no reduction operator", self.kind.name()))
    }

    pub(crate) fn encode(&self) -> [u8; COLLECTIVE_ID_BYTES] {
        let mut out = [0u8; COLLECTIVE_ID_BYTES];
        out[0] = self.kind.wire_code();
        (out[1], out[2]) = self.reduction.map_or((0xFF, 0xFF), |(op, dtype)| {
            (op.wire_code(), dtype.wire_code())
        });
        out[4..8].copy_from_slice(&self.root.map_or(u32::MAX, |root| root as u32).to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<CollectiveId> {
        let (head, _) = bytes.split_first_chunk::<COLLECTIVE_ID_BYTES>()?;
        let kind = CollectiveKind::from_wire_code(head[0])?;
        let reduction = match (head[1], head[2]) {
            (0xFF, 0xFF) => None,
            (op, dtype) => Some((
                ReduceOp::from_wire_code(op)?,
                ReduceDtype::from_wire_code(dtype)?,
            )),
        };
        let root = match u32::from_le_bytes([head[4], head[5], head[6], head[7]]) {
            u32::MAX => None,
            root => Some(root as usize),
        };
        Some(CollectiveId {
            kind,
            root,
            reduction,
        })
    }
}

/// Decode a non-OK frame into the error every participant reports.
pub(crate) fn frame_to_error(status: u8, body: &[u8]) -> RmpiError {
    match status {
        ST_MISMATCH if body.len() >= 2 => RmpiError::CollectiveMismatch {
            in_progress: CollectiveKind::wire_name(body[0]),
            requested: CollectiveKind::wire_name(body[1]),
        },
        ST_ERR => RmpiError::InvalidArgument(String::from_utf8_lossy(body).into_owned()),
        other => RmpiError::Internal(format!("malformed exchange frame (status {other})")),
    }
}

/// The one place a peer's collective identity is compared with this node's.
/// Every OK frame a plan consumes — an up-bundle, a recursive-doubling
/// partial, a ring chunk — leads with the sender's encoded [`CollectiveId`];
/// a node running a different collective is caught by whichever peer hears
/// from it first instead of deadlocking the schedule.  On success returns the
/// body after the id; on failure the abort `(status, body)` to broadcast (a
/// non-OK frame is passed through as its own abort).
pub(crate) fn check_id(
    own: CollectiveId,
    src_node: usize,
    frame: &ExFrame,
) -> Result<&[u8], AbortFrame> {
    let (status, body) = frame;
    if *status != ST_OK {
        return Err((*status, body.to_vec()));
    }
    let blob = body.as_slice();
    let Some(peer) = CollectiveId::decode(blob) else {
        return Err((
            ST_ERR,
            format!("malformed exchange frame from node {src_node}").into_bytes(),
        ));
    };
    if peer.kind != own.kind {
        return Err((
            ST_MISMATCH,
            vec![own.kind.wire_code(), peer.kind.wire_code()],
        ));
    }
    if peer != own {
        return Err((
            ST_ERR,
            format!(
                "collective identity mismatch across nodes: node {src_node} ran {} with root \
                 {:?}, reduction {:?}; this node expected root {:?}, reduction {:?}",
                peer.kind.name(),
                peer.root,
                peer.reduction,
                own.root,
                own.reduction
            )
            .into_bytes(),
        ));
    }
    Ok(&blob[COLLECTIVE_ID_BYTES..])
}

/// Abort for a frame whose phase this node's `schedule` has no step for: the
/// sender derived a different schedule, so the group disagrees about the
/// collective (kind, payload size, or membership) — a collective mismatch
/// when the kinds differ, a diagnostic otherwise.
pub(crate) fn unexpected_frame(
    own: CollectiveId,
    schedule: &str,
    src_node: usize,
    phase: u32,
    frame: &ExFrame,
) -> AbortFrame {
    match check_id(own, src_node, frame) {
        // An echoed error, or a peer running another kind, explains itself.
        Err(abort) if frame.0 != ST_OK || abort.0 == ST_MISMATCH => abort,
        _ => (
            ST_ERR,
            format!(
                "node {src_node} sent an exchange frame for phase {phase}, which this node's \
                 {schedule} schedule has no step for — the group disagrees about the collective"
            )
            .into_bytes(),
        ),
    }
}

/// Append one `[node u32][len u32][body]` bundle entry, the body given in
/// `parts` so a caller can lay an id and a contribution down in place.
/// Up-bundles prefix each body with its status byte (`status: Some`);
/// down-bundles carry plain per-node bodies (`status: None`).
pub(crate) fn encode_bundle_entry(
    out: &mut Vec<u8>,
    node: usize,
    status: Option<u8>,
    parts: &[&[u8]],
) {
    let len = parts.iter().map(|p| p.len()).sum::<usize>() + usize::from(status.is_some());
    out.extend_from_slice(&(node as u32).to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend(status);
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// Body of one allreduce-schedule frame:
/// `[CollectiveId][total_len u32 (chunked steps only)][frame_reduce(op, dtype, payload)]`.
pub(crate) fn encode_reduce_body(
    id: CollectiveId,
    op: ReduceOp,
    dtype: ReduceDtype,
    total_len: Option<u32>,
    payload: &[u8],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(COLLECTIVE_ID_BYTES + 6 + payload.len());
    body.extend_from_slice(&id.encode());
    if let Some(total) = total_len {
        body.extend_from_slice(&total.to_le_bytes());
    }
    body.extend_from_slice(&frame_reduce(op, dtype, payload));
    body
}

/// Validate and split an [`encode_reduce_body`] frame: OK status, matching
/// collective identity, parseable reduce payload.  Returns the sender's
/// `total_len` (when the step is chunked) and the element bytes, or the abort
/// `(status, body)` to broadcast.
pub(crate) fn decode_reduce_body(
    own: CollectiveId,
    op: ReduceOp,
    dtype: ReduceDtype,
    src_node: usize,
    frame: &ExFrame,
    chunked: bool,
) -> Result<(Option<u32>, &[u8]), AbortFrame> {
    let mut rest = check_id(own, src_node, frame)?;
    let mut total = None;
    if chunked {
        let Some((head, tail)) = rest.split_first_chunk::<4>() else {
            return Err((ST_ERR, b"short allreduce exchange frame".to_vec()));
        };
        total = Some(u32::from_le_bytes(*head));
        rest = tail;
    }
    match parse_reduce_frame(rest, op, dtype) {
        Ok(bytes) => Ok((total, bytes)),
        Err(e) => Err((ST_ERR, e.to_string().into_bytes())),
    }
}

/// Encode a `comm_split` contribution: the `(color, key)` pair.
pub fn encode_color_key(color: u32, key: u32) -> Vec<u8> {
    [color.to_le_bytes(), key.to_le_bytes()].concat()
}

/// Decode an [`encode_color_key`] pair.
pub fn decode_color_key(bytes: &[u8]) -> Option<(u32, u32)> {
    // Exactly two words: a 9-byte frame must not decode.
    let (color, key) = bytes.split_first_chunk::<4>()?;
    let key: [u8; 4] = key.try_into().ok()?;
    Some((u32::from_le_bytes(*color), u32::from_le_bytes(key)))
}

/// Encode `(sub-rank, bytes)` pairs as `[rank u32][len u32][bytes]…` — the
/// framing every chunked collective uses to move per-rank data inside
/// exchange frames.
pub fn encode_rank_frames<'a>(frames: impl Iterator<Item = (usize, &'a [u8])>) -> Vec<u8> {
    let mut blob = Vec::new();
    for (rank, data) in frames {
        encode_bundle_entry(&mut blob, rank, None, &[data]);
    }
    blob
}

/// Walk `[rank u32][len u32][bytes]…` frames (rank frames and bundle entries
/// share the layout), yielding each frame's rank and the byte range of its
/// payload within `blob`.  Iteration stops at a truncated tail; rank
/// filtering is the consumer's job.
pub(crate) fn rank_frames(
    blob: &[u8],
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
    let mut off = 0;
    std::iter::from_fn(move || {
        let (head, _) = blob.get(off..)?.split_first_chunk::<8>()?;
        let rank = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
        let start = off + 8;
        off = start + len;
        (off <= blob.len()).then(|| (rank, start..start + len))
    })
}

/// Decode rank frames into a rank-indexed table of zero-copy views sharing
/// `blob`'s allocation, ignoring malformed or out-of-range entries.  Tables
/// merge: frames of a later blob overwrite only the ranks they name.
pub fn decode_rank_frames_into(blob: &Payload, per_rank: &mut [Payload]) {
    for (rank, range) in rank_frames(blob.as_slice()) {
        if let Some(slot) = per_rank.get_mut(rank) {
            *slot = blob.slice(range);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id_of(kind: CollectiveKind) -> CollectiveId {
        CollectiveId {
            kind,
            root: None,
            reduction: None,
        }
    }

    #[test]
    fn collective_id_roundtrips_on_the_wire() {
        let ids = [
            id_of(CollectiveKind::Barrier),
            CollectiveId {
                kind: CollectiveKind::Broadcast,
                root: Some(7),
                reduction: None,
            },
            CollectiveId {
                kind: CollectiveKind::Reduce,
                root: Some(0),
                reduction: Some((ReduceOp::Max, ReduceDtype::I64)),
            },
            CollectiveId {
                kind: CollectiveKind::Allreduce,
                root: None,
                reduction: Some((ReduceOp::Sum, ReduceDtype::F32)),
            },
            id_of(CollectiveKind::Split),
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
    fn non_ok_frames_decode_to_clean_errors() {
        let err = frame_to_error(ST_ERR, b"boom");
        assert!(matches!(err, RmpiError::InvalidArgument(msg) if msg == "boom"));
        let mism = frame_to_error(
            ST_MISMATCH,
            &[
                CollectiveKind::Barrier.wire_code(),
                CollectiveKind::Broadcast.wire_code(),
            ],
        );
        assert_eq!(
            mism,
            RmpiError::CollectiveMismatch {
                in_progress: "barrier",
                requested: "broadcast",
            }
        );
        assert!(matches!(
            frame_to_error(ST_MISMATCH, &[]),
            RmpiError::Internal(_)
        ));
    }

    #[test]
    fn id_check_passes_agreement_and_names_each_disagreement() {
        let own = CollectiveId {
            kind: CollectiveKind::Reduce,
            root: Some(0),
            reduction: Some((ReduceOp::Sum, ReduceDtype::F32)),
        };
        let frame_of = |id: CollectiveId| {
            let mut body = id.encode().to_vec();
            body.extend_from_slice(b"rest");
            (ST_OK, Payload::from_vec(body))
        };
        assert_eq!(check_id(own, 3, &frame_of(own)), Ok(&b"rest"[..]));
        // A different kind is the paper's collective mismatch …
        let (status, body) =
            check_id(own, 3, &frame_of(id_of(CollectiveKind::Barrier))).unwrap_err();
        assert_eq!(
            frame_to_error(status, &body),
            RmpiError::CollectiveMismatch {
                in_progress: "reduce",
                requested: "barrier",
            }
        );
        // … the same kind with another dtype an identity mismatch naming the node …
        let other = CollectiveId {
            reduction: Some((ReduceOp::Sum, ReduceDtype::U32)),
            ..own
        };
        let (status, body) = check_id(own, 3, &frame_of(other)).unwrap_err();
        let msg = frame_to_error(status, &body).to_string();
        assert!(
            msg.contains("identity mismatch") && msg.contains("node 3"),
            "{msg}"
        );
        // … a non-OK frame its own abort, and garbage a malformed-frame error.
        let echoed = (ST_ERR, Payload::copy_from_slice(b"upstream"));
        assert_eq!(
            check_id(own, 3, &echoed),
            Err((ST_ERR, b"upstream".to_vec()))
        );
        let short = (ST_OK, Payload::copy_from_slice(&[1, 2]));
        assert_eq!(check_id(own, 3, &short).unwrap_err().0, ST_ERR);
    }

    #[test]
    fn bundle_entries_lay_parts_down_in_place() {
        let mut out = Vec::new();
        encode_bundle_entry(&mut out, 5, Some(ST_OK), &[b"id", b"body"]);
        encode_bundle_entry(&mut out, 9, None, &[b"x"]);
        let entries: Vec<_> = rank_frames(&out)
            .map(|(n, r)| (n, out[r].to_vec()))
            .collect();
        assert_eq!(entries, vec![(5, b"\0idbody".to_vec()), (9, b"x".to_vec())]);
    }

    #[test]
    fn rank_frames_roundtrip() {
        let frames: Vec<(usize, Vec<u8>)> = vec![(0, vec![1, 2]), (2, vec![]), (3, vec![9; 300])];
        let blob = encode_rank_frames(frames.iter().map(|(r, d)| (*r, d.as_slice())));
        let mut per_rank = vec![Payload::empty(); 4];
        decode_rank_frames_into(&Payload::from_vec(blob), &mut per_rank);
        assert_eq!(per_rank[0].as_slice(), &[1, 2]);
        assert!(per_rank[1].is_empty());
        assert!(per_rank[2].is_empty());
        assert_eq!(per_rank[3].as_slice(), &[9; 300]);
    }

    #[test]
    fn decode_ignores_out_of_range_and_truncated_frames() {
        let blob = encode_rank_frames([(7usize, &[1u8, 2][..])].into_iter());
        let mut per_rank = vec![Payload::empty(); 2];
        decode_rank_frames_into(&Payload::from_vec(blob), &mut per_rank);
        assert!(per_rank.iter().all(Payload::is_empty));
        // Truncated payload: header promises 100 bytes, blob ends early.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(&[5; 10]);
        decode_rank_frames_into(&Payload::from_vec(bad), &mut per_rank);
        assert!(per_rank.iter().all(Payload::is_empty));
    }

    #[test]
    fn rank_frames_decode_to_zero_copy_views() {
        let frames: Vec<(usize, Vec<u8>)> = vec![(0, vec![1, 2]), (3, vec![9; 30])];
        let blob = Payload::from_vec(encode_rank_frames(
            frames.iter().map(|(r, d)| (*r, d.as_slice())),
        ));
        let mut table = vec![Payload::empty(); 4];
        decode_rank_frames_into(&blob, &mut table);
        assert_eq!(table[0].as_slice(), &[1, 2]);
        assert!(table[1].is_empty());
        assert!(table[2].is_empty());
        assert_eq!(table[3].as_slice(), &[9; 30]);
        // The views alias the blob's allocation, not fresh copies.
        let blob_range =
            blob.as_slice().as_ptr() as usize..blob.as_slice().as_ptr() as usize + blob.len();
        assert!(blob_range.contains(&(table[3].as_slice().as_ptr() as usize)));
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
