//! What each collective *means* to a node: the per-operation arms of the
//! generic join → local-combine → exchange → scatter-back engine.
//! [`classify_collective`] and [`build_up`] turn joined requests into a
//! node's contribution, and [`Engine::deliver`] turns a node's down payload
//! into per-rank replies.  The plans that move those bytes between nodes
//! (and the root's combine, in `dcgn_rmpi::exchange`) never look at ranks.

use std::collections::HashMap;

use dcgn_netsim::Payload;
use dcgn_rmpi::exchange::{
    decode_color_key, decode_rank_frames_into, encode_color_key, encode_rank_frames, fold_all,
    CollectiveId, CollectiveKind,
};
use dcgn_rmpi::frame_reduce;

use super::Engine;
use crate::comm_thread::Substrate;
use crate::error::{DcgnError, Result};
use crate::group::{self, child_epoch, CommGroup, CommId};
use crate::message::{CollectiveResult, Reply, ReplyTo, RequestKind};

/// What one joining rank contributes to the collective.
#[derive(Debug)]
pub(crate) enum Contribution {
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
pub(crate) struct CollectiveAssembly {
    pub(crate) id: CollectiveId,
    /// `(rank, contribution, reply address)` for every joined local member.
    pub(crate) joined: Vec<(usize, Contribution, ReplyTo)>,
}

/// Map a collective request onto its communicator, identity and this rank's
/// contribution.  Point-to-point kinds are a caller bug.
pub(crate) fn classify_collective(
    kind: RequestKind,
) -> Result<(CommId, CollectiveId, Contribution)> {
    use CollectiveKind as K;
    use Contribution::{Bytes, Chunks};
    let (comm, kind, root, reduction, contribution) = match kind {
        RequestKind::Barrier { comm } => (comm, K::Barrier, None, None, Contribution::None),
        RequestKind::Broadcast { comm, root, data } => {
            let data = data.map_or(Contribution::None, Bytes);
            (comm, K::Broadcast, Some(root), None, data)
        }
        RequestKind::Gather { comm, root, data } => {
            (comm, K::Gather, Some(root), None, Bytes(data))
        }
        RequestKind::Scatter { comm, root, chunks } => {
            let chunks = chunks.map_or(Contribution::None, Chunks);
            (comm, K::Scatter, Some(root), None, chunks)
        }
        RequestKind::Allgather { comm, data } => (comm, K::Allgather, None, None, Bytes(data)),
        RequestKind::Reduce {
            comm,
            root,
            data,
            op,
            dtype,
        } => (comm, K::Reduce, Some(root), Some((op, dtype)), Bytes(data)),
        RequestKind::Allreduce {
            comm,
            data,
            op,
            dtype,
        } => (comm, K::Allreduce, None, Some((op, dtype)), Bytes(data)),
        RequestKind::Split { comm, color, key } => {
            let pair = Payload::from_vec(encode_color_key(color, key));
            (comm, K::Split, None, None, Bytes(pair))
        }
        kind @ (RequestKind::Send { .. }
        | RequestKind::Recv { .. }
        | RequestKind::CommFree { .. }) => {
            return Err(DcgnError::Internal(format!(
                "non-collective request ({}) routed to the collective engine",
                kind.name()
            )))
        }
    };
    if let Some((_, dtype)) = reduction {
        dtype.check_aligned(contribution.as_bytes())?;
    }
    let id = CollectiveId {
        kind,
        root,
        reduction,
    };
    Ok((comm, id, contribution))
}

/// This node's local contribution to an exchange (the payload it sends
/// toward the root, after the encoded [`CollectiveId`]).  `Err` carries a
/// local validation failure, which the protocol echoes to the whole
/// communicator.
pub(super) fn build_up(
    assembly: &CollectiveAssembly,
    group: &CommGroup,
) -> std::result::Result<Vec<u8>, String> {
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
                    .filter_map(|(rank, c, _)| Some((group.sub_of(*rank)?, c.as_bytes()))),
            )
        }
        CollectiveKind::Scatter => assembly
            .joined
            .iter()
            .find_map(|(rank, c, _)| match (rank, c) {
                (r, Contribution::Chunks(chunks)) if Some(*r) == root_global => Some(
                    encode_rank_frames(chunks.iter().enumerate().map(|(s, d)| (s, d.as_slice()))),
                ),
                _ => None,
            })
            .unwrap_or_default(),
        CollectiveKind::Reduce | CollectiveKind::Allreduce => {
            let (op, dtype) = assembly.id.required_reduction()?;
            // Local-combine: one node-level partial from every joined rank's
            // vector.  It carries the (op, dtype) identity on the wire: nodes
            // whose ranks disagree on the reduction fail the whole
            // communicator loudly instead of folding reinterpreted bytes.
            let ranks = assembly
                .joined
                .iter()
                .map(|(rank, c, _)| (*rank, c.as_bytes()));
            frame_reduce(op, dtype, &fold_all((op, dtype), "", "rank", ranks)?)
        }
    })
}

impl Engine {
    /// Turn this node's down-payload into per-member results and reply to
    /// every local joiner, each rank's copy of its result on the node's copy
    /// engine.  The payload is shared, so scattering it to N local ranks
    /// clones references, not bytes.
    pub(super) fn deliver(
        &mut self,
        net: &Substrate,
        comm: CommId,
        id: CollectiveId,
        joined: Vec<(usize, ReplyTo)>,
        payload: Payload,
    ) -> Result<()> {
        let size = self.group(comm)?.members.len();
        // Chunked payloads decode once into a sub-rank-indexed table of
        // zero-copy views.
        let mut table = Vec::new();
        if matches!(
            id.kind,
            CollectiveKind::Gather
                | CollectiveKind::Allgather
                | CollectiveKind::Scatter
                | CollectiveKind::Split
        ) {
            table.resize(size, Payload::empty());
            decode_rank_frames_into(&payload, &mut table);
        }
        // Splits additionally register the child groups on this node and
        // produce each member's encoded membership.
        let mut split_infos = if id.kind == CollectiveKind::Split {
            let colors = table
                .iter()
                .map(|entry| decode_color_key(entry.as_slice()))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| DcgnError::Internal("malformed comm_split contribution".into()))?;
            self.apply_split(comm, &colors)?
        } else {
            HashMap::new()
        };
        let group = self.group(comm)?;
        let root_global = id.root.and_then(|root| group.members.get(root).copied());
        let source = match id.kind {
            CollectiveKind::Broadcast | CollectiveKind::Scatter => root_global,
            _ => None,
        };
        for (rank, reply_to) in joined {
            let result = match id.kind {
                CollectiveKind::Barrier => CollectiveResult::Unit,
                CollectiveKind::Broadcast | CollectiveKind::Allreduce => {
                    CollectiveResult::Bytes(payload.clone())
                }
                CollectiveKind::Reduce if Some(rank) == root_global => {
                    CollectiveResult::Bytes(payload.clone())
                }
                CollectiveKind::Gather if Some(rank) == root_global => {
                    CollectiveResult::Chunks(table.clone())
                }
                CollectiveKind::Reduce | CollectiveKind::Gather => CollectiveResult::Unit,
                CollectiveKind::Allgather => CollectiveResult::Chunks(table.clone()),
                CollectiveKind::Scatter => CollectiveResult::Bytes(
                    group
                        .sub_of(rank)
                        .and_then(|sub| table.get(sub).cloned())
                        .unwrap_or_else(Payload::empty),
                ),
                CollectiveKind::Split => CollectiveResult::Bytes(Payload::from_vec(
                    split_infos.remove(&rank).unwrap_or_default(),
                )),
            };
            if !matches!(result, CollectiveResult::Unit) && Some(rank) != source {
                let len = result_payload_len(&result);
                net.copies.transfer(&self.clock, self.clock.now(), len);
            }
            reply_to.complete(Reply::CollectiveDone(result));
        }
        Ok(())
    }

    /// Register the child groups of a split (those with a resident member)
    /// and encode each local member's new membership.  `colors[s]` is the
    /// `(color, key)` pair of parent sub-rank `s`.
    fn apply_split(
        &mut self,
        parent: CommId,
        colors: &[(u32, u32)],
    ) -> Result<HashMap<usize, Vec<u8>>> {
        let g = self.group_mut(parent)?;
        g.splits += 1;
        let (parent_members, parent_epoch, split_seq) = (g.members.clone(), g.epoch, g.splits);
        let mut infos = HashMap::new();
        for (color, members) in group::split_groups(&parent_members, colors) {
            let member_nodes: Vec<usize> = members
                .iter()
                .filter_map(|&m| self.rank_map.node_of(m))
                .collect();
            let child_group = CommGroup::new(
                members,
                member_nodes,
                self.node,
                child_epoch(parent_epoch, split_seq, color),
            );
            if child_group.local_members == 0 {
                continue;
            }
            let child = parent.child(split_seq, color);
            for (sub, (&member, &node)) in child_group
                .members
                .iter()
                .zip(&child_group.layout.member_nodes)
                .enumerate()
            {
                if node == self.node {
                    infos.insert(
                        member,
                        group::encode_comm_info(child, sub, &child_group.members),
                    );
                }
            }
            self.groups.insert(child, child_group);
        }
        Ok(infos)
    }
}

/// Byte size of the payload a rank receives, for intra-node cost accounting.
fn result_payload_len(result: &CollectiveResult) -> usize {
    match result {
        CollectiveResult::Unit => 0,
        CollectiveResult::Bytes(b) => b.len(),
        CollectiveResult::Chunks(chunks) => chunks.iter().map(Payload::len).sum(),
    }
}
