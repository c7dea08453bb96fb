//! First-class communicator groups — the `MPI_Comm` analogue.
//!
//! A communicator names an ordered subset of the job's DCGN ranks.
//! [`CommId::WORLD`] is implicit and contains every rank in job order;
//! further communicators are created collectively with
//! `comm_split(color, key)` (the `MPI_Comm_split` analogue): ranks supplying
//! the same color form a new group, ordered by `(key, rank in parent)`.
//!
//! Child ids are derived deterministically from the parent id, the parent's
//! split counter and the color, so every node computes identical ids from
//! identical split tables without any extra coordination round.

use std::sync::Arc;

use dcgn_rmpi::exchange::Layout;

use crate::error::{DcgnError, Result};

/// Identifier of a communicator group.  Carried by every collective request
/// so the communication thread can key independent assemblies by group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(u64);

impl CommId {
    /// The implicit world communicator containing every DCGN rank.
    pub const WORLD: CommId = CommId(0);

    /// Raw wire value (used by the GPU mailbox protocol).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild an id from its wire value.
    pub fn from_raw(raw: u64) -> Self {
        CommId(raw)
    }

    /// True for the world communicator.
    pub fn is_world(self) -> bool {
        self == Self::WORLD
    }

    /// Deterministically derive the id of the child group produced by this
    /// communicator's `split_seq`-th split for `color` (FNV-1a over the
    /// parent id, sequence number and color).  Bit 63 is forced so a child
    /// id can never equal [`CommId::WORLD`].
    pub(crate) fn child(self, split_seq: u64, color: u32) -> CommId {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self
            .0
            .to_le_bytes()
            .into_iter()
            .chain(split_seq.to_le_bytes())
            .chain(color.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        CommId(h | (1 << 63))
    }
}

impl std::fmt::Display for CommId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_world() {
            write!(f, "WORLD")
        } else {
            write!(f, "{:#018x}", self.0)
        }
    }
}

/// A rank's handle onto a communicator: the group id, this rank's position
/// within the group (its *sub-rank*) and the ordered member table mapping
/// sub-ranks back to global DCGN ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comm {
    id: CommId,
    rank: usize,
    members: Vec<usize>,
}

impl Comm {
    /// The world communicator handle for `my_rank` of `total_ranks`.
    pub(crate) fn world(my_rank: usize, total_ranks: usize) -> Self {
        Comm {
            id: CommId::WORLD,
            rank: my_rank,
            members: (0..total_ranks).collect(),
        }
    }

    /// The group id.
    pub fn id(&self) -> CommId {
        self.id
    }

    /// This rank's position within the group (root arguments of comm-taking
    /// collectives are expressed in this space).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Ordered member table: entry `s` is the global DCGN rank of sub-rank
    /// `s`.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Global DCGN rank of `sub_rank`, if it exists in the group.
    pub fn global_rank(&self, sub_rank: usize) -> Option<usize> {
        self.members.get(sub_rank).copied()
    }
}

// ---------------------------------------------------------------------------
// The comm thread's view of a group.
// ---------------------------------------------------------------------------

/// One communicator group as known to a node's comm thread.
#[derive(Debug, Clone)]
pub(crate) struct CommGroup {
    /// Global DCGN ranks in sub-rank order.
    pub(crate) members: Vec<usize>,
    /// The nodes hosting the members, which is all an exchange plan sees of
    /// the group; shared with each of its running exchanges.
    pub(crate) layout: Arc<Layout>,
    /// Members resident on this node — the assembly-completeness threshold.
    pub(crate) local_members: usize,
    /// Registration epoch, part of every exchange frame's identity.  Every
    /// member node derives the same epoch deterministically (the world is 0;
    /// split products chain a hash of the parent's epoch, split sequence and
    /// color), so a recycled or colliding communicator id can never match a
    /// stale exchange frame.
    pub(crate) epoch: u32,
    /// Splits executed on this communicator (salts child communicator ids).
    pub(crate) splits: u64,
    /// Local members that have called `comm_free`; the group is evicted from
    /// the registry when every local member has released its handle.
    pub(crate) freed: std::collections::HashSet<usize>,
}

impl CommGroup {
    /// A fresh group of `members` (hosted on `member_nodes`, index-aligned)
    /// as seen from `this_node`.
    pub(crate) fn new(
        members: Vec<usize>,
        member_nodes: Vec<usize>,
        this_node: usize,
        epoch: u32,
    ) -> Self {
        debug_assert_eq!(members.len(), member_nodes.len());
        CommGroup {
            local_members: member_nodes.iter().filter(|&&n| n == this_node).count(),
            members,
            layout: Arc::new(Layout::new(member_nodes)),
            epoch,
            splits: 0,
            freed: std::collections::HashSet::new(),
        }
    }

    /// Sub-rank of global rank `global`, if it is a member.
    pub(crate) fn sub_of(&self, global: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == global)
    }
}

/// Deterministic epoch of a split product, chained from the parent's epoch
/// (FNV-1a, truncated).  Identical on every node computing the same split.
pub(crate) fn child_epoch(parent_epoch: u32, split_seq: u64, color: u32) -> u32 {
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
// Split tables and the wire encoding of split results.
// ---------------------------------------------------------------------------

/// Partition a parent group by color.  `colors[s]` is the `(color, key)`
/// supplied by parent sub-rank `s`; the result lists, per color in ascending
/// order, the global ranks of that class ordered by `(key, parent sub-rank)`
/// — the `MPI_Comm_split` ordering rule.
pub(crate) fn split_groups(
    parent_members: &[usize],
    colors: &[(u32, u32)],
) -> Vec<(u32, Vec<usize>)> {
    debug_assert_eq!(parent_members.len(), colors.len());
    let mut classes: std::collections::BTreeMap<u32, Vec<(u32, usize)>> =
        std::collections::BTreeMap::new();
    for (sub, &(color, key)) in colors.iter().enumerate() {
        classes.entry(color).or_default().push((key, sub));
    }
    classes
        .into_iter()
        .map(|(color, mut subs)| {
            subs.sort_unstable();
            (
                color,
                subs.into_iter()
                    .map(|(_, sub)| parent_members[sub])
                    .collect(),
            )
        })
        .collect()
}

/// Encode a split result for one member:
/// `[comm id u64][sub-rank u32][size u32][member u32 × size]`.
/// The same layout is read by GPU kernels straight out of device memory.
pub(crate) fn encode_comm_info(id: CommId, sub_rank: usize, members: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 4 * members.len());
    out.extend_from_slice(&id.raw().to_le_bytes());
    out.extend_from_slice(&(sub_rank as u32).to_le_bytes());
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for &m in members {
        out.extend_from_slice(&(m as u32).to_le_bytes());
    }
    out
}

/// Decode a split result into a [`Comm`] handle.
pub(crate) fn decode_comm_info(bytes: &[u8]) -> Result<Comm> {
    let short = || DcgnError::Internal(format!("short comm_split reply: {} bytes", bytes.len()));
    if bytes.len() < 16 {
        return Err(short());
    }
    let id = CommId(u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")));
    let rank = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let size = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 16 + 4 * size {
        return Err(short());
    }
    let members = (0..size)
        .map(|s| {
            u32::from_le_bytes(bytes[16 + 4 * s..20 + 4 * s].try_into().expect("4 bytes")) as usize
        })
        .collect();
    Ok(Comm { id, rank, members })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_zero_and_children_never_are() {
        assert!(CommId::WORLD.is_world());
        assert_eq!(CommId::WORLD.raw(), 0);
        for seq in 1..50u64 {
            for color in 0..8u32 {
                assert!(!CommId::WORLD.child(seq, color).is_world());
            }
        }
    }

    #[test]
    fn child_ids_are_deterministic_and_distinct() {
        let a = CommId::WORLD.child(1, 0);
        assert_eq!(a, CommId::WORLD.child(1, 0));
        assert_ne!(a, CommId::WORLD.child(1, 1));
        assert_ne!(a, CommId::WORLD.child(2, 0));
        // Hash-chaining: grandchildren differ from children.
        assert_ne!(a.child(1, 0), CommId::WORLD.child(1, 0));
    }

    #[test]
    fn split_orders_by_key_then_parent_position() {
        // Parent members are global ranks 10, 11, 12, 13 (sub-ranks 0..4).
        let members = [10, 11, 12, 13];
        // Colors: {0: subs 0,2}, {7: subs 1,3}.  Keys reverse sub order in
        // color 0 and tie in color 7 (falling back to parent position).
        let colors = [(0, 9), (7, 1), (0, 2), (7, 1)];
        let classes = split_groups(&members, &colors);
        assert_eq!(classes, vec![(0, vec![12, 10]), (7, vec![11, 13])]);
    }

    #[test]
    fn comm_info_roundtrip() {
        let id = CommId::WORLD.child(3, 5);
        let encoded = encode_comm_info(id, 2, &[4, 9, 17]);
        let comm = decode_comm_info(&encoded).unwrap();
        assert_eq!(comm.id(), id);
        assert_eq!(comm.rank(), 2);
        assert_eq!(comm.size(), 3);
        assert_eq!(comm.members(), &[4, 9, 17]);
        assert_eq!(comm.global_rank(1), Some(9));
        assert_eq!(comm.global_rank(3), None);
    }

    #[test]
    fn truncated_comm_info_is_rejected() {
        assert!(decode_comm_info(&[0u8; 8]).is_err());
        let encoded = encode_comm_info(CommId::WORLD, 0, &[1, 2, 3]);
        assert!(decode_comm_info(&encoded[..encoded.len() - 1]).is_err());
    }

    #[test]
    fn comm_group_derives_nodes_and_local_members() {
        // Members 4, 9, 17, 2 hosted on nodes 3, 1, 3, 0, seen from node 3.
        let g = CommGroup::new(vec![4, 9, 17, 2], vec![3, 1, 3, 0], 3, 7);
        assert_eq!(g.layout.nodes, vec![0, 1, 3]);
        assert_eq!(g.local_members, 2);
        assert_eq!((g.epoch, g.splits), (7, 0));
        assert_eq!(g.sub_of(17), Some(2));
        assert_eq!(g.sub_of(5), None);
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
    fn world_handle_covers_all_ranks() {
        let w = Comm::world(2, 5);
        assert!(w.id().is_world());
        assert_eq!(w.rank(), 2);
        assert_eq!(w.members(), &[0, 1, 2, 3, 4]);
        assert_eq!(format!("{}", w.id()), "WORLD");
        assert!(format!("{}", CommId::WORLD.child(1, 0)).starts_with("0x"));
    }
}
