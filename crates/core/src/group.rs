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
// Per-node exchange topology derivation.
//
// The comm-thread exchange engine runs collectives over the *nodes* hosting a
// group's members.  Alternative plans (binomial tree, recursive doubling,
// ring) need every node to derive the same topology from the same ordered
// node list with no coordination round, so the helpers below are pure
// functions of a node's position `v` in that list and the list length `n`.
// ---------------------------------------------------------------------------

/// Parent of position `v` in the binomial tree rooted at 0: clear the highest
/// set bit.  Position 0 is the root and has no parent.
pub(crate) fn binomial_parent(v: usize) -> Option<usize> {
    if v == 0 {
        None
    } else {
        Some(v & !(1usize << (usize::BITS - 1 - v.leading_zeros())))
    }
}

/// Children of position `v` in the `n`-position binomial tree rooted at 0:
/// `v + 2^k` for every `2^k > v` (with `2^k > 0` for the root) still below
/// `n`, in ascending order.
pub(crate) fn binomial_children(v: usize, n: usize) -> Vec<usize> {
    let mut kids = Vec::new();
    let mut bit = 1usize;
    while bit <= v {
        bit <<= 1;
    }
    while v + bit < n {
        kids.push(v + bit);
        bit <<= 1;
    }
    kids
}

/// Shape of a rooted gather→scatter exchange over the `n` positions of a
/// group's node list, rooted at position 0.  The flat shape is the star plan
/// (every position a child of the root); the binomial shape is the tree plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Topology {
    /// Depth one: positions `1..n` are all leaves under the root.
    Flat,
    /// The binomial tree of [`binomial_parent`] / [`binomial_children`].
    Binomial,
}

impl Topology {
    /// Parent of position `v`; `None` for the root.
    pub(crate) fn parent(self, v: usize) -> Option<usize> {
        match self {
            Topology::Flat => (v != 0).then_some(0),
            Topology::Binomial => binomial_parent(v),
        }
    }

    /// Children of position `v` among `n` positions, ascending.
    pub(crate) fn children(self, v: usize, n: usize) -> Vec<usize> {
        match self {
            Topology::Flat if v == 0 => (1..n).collect(),
            Topology::Flat => Vec::new(),
            Topology::Binomial => binomial_children(v, n),
        }
    }

    /// Every position in the subtree rooted at `v` (including `v` itself), in
    /// BFS order.  Used to split per-node down traffic among a node's
    /// children.
    pub(crate) fn subtree(self, v: usize, n: usize) -> Vec<usize> {
        let mut out = vec![v];
        let mut i = 0;
        while i < out.len() {
            out.extend(self.children(out[i], n));
            i += 1;
        }
        out
    }
}

/// Largest power of two ≤ `n` (the "core" size of a recursive-doubling
/// schedule).  `n` must be nonzero.
pub(crate) fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n > 0);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

// ---------------------------------------------------------------------------
// The comm thread's view of a group.
// ---------------------------------------------------------------------------

/// One communicator group as known to a node's comm thread.
#[derive(Debug, Clone)]
pub(crate) struct CommGroup {
    /// Global DCGN ranks in sub-rank order.
    pub(crate) members: Vec<usize>,
    /// Node hosting each member, in sub-rank order.
    pub(crate) member_nodes: Vec<usize>,
    /// Nodes hosting at least one member, ascending.  `nodes[0]` leads the
    /// group's exchanges.
    pub(crate) nodes: Vec<usize>,
    /// Members resident on this node — the assembly-completeness threshold.
    pub(crate) local_members: usize,
    /// Registration epoch, part of every exchange frame's identity.  Every
    /// member node derives the same epoch deterministically (the world is 0;
    /// split products chain a hash of the parent's epoch, split sequence and
    /// color), so a recycled or colliding communicator id can never match a
    /// stale exchange frame.
    pub(crate) epoch: u32,
    /// Collectives executed on this communicator so far; the sequence number
    /// inside every exchange frame, so consecutive collectives on one group
    /// can never cross-talk.
    pub(crate) seq: u64,
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
        let mut nodes = member_nodes.clone();
        nodes.sort_unstable();
        nodes.dedup();
        CommGroup {
            local_members: member_nodes.iter().filter(|&&n| n == this_node).count(),
            members,
            member_nodes,
            nodes,
            epoch,
            seq: 0,
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
    fn binomial_tree_parent_child_agree() {
        for n in 1..70usize {
            for v in 0..n {
                let kids = binomial_children(v, n);
                for &c in &kids {
                    assert_eq!(binomial_parent(c), Some(v), "n={n} v={v} child={c}");
                }
                // Ascending and below n.
                assert!(kids.windows(2).all(|w| w[0] < w[1]));
                assert!(kids.iter().all(|&c| c < n));
            }
            // Every non-root position appears as exactly one child.
            let mut seen = vec![0usize; n];
            for v in 0..n {
                for c in binomial_children(v, n) {
                    seen[c] += 1;
                }
            }
            assert_eq!(seen[0], 0);
            assert!(seen[1..].iter().all(|&s| s == 1), "n={n}: {seen:?}");
        }
        assert_eq!(binomial_parent(0), None);
        assert_eq!(binomial_parent(1), Some(0));
        assert_eq!(binomial_parent(6), Some(2));
        assert_eq!(binomial_parent(13), Some(5));
        assert_eq!(binomial_children(0, 8), vec![1, 2, 4]);
        assert_eq!(binomial_children(1, 8), vec![3, 5]);
        assert_eq!(binomial_children(2, 8), vec![6]);
        assert_eq!(binomial_children(0, 32), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn binomial_subtrees_partition_positions() {
        for n in 1..40usize {
            let mut all: Vec<usize> = Topology::Binomial.subtree(0, n);
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
            // Children's subtrees are disjoint and cover everything but root.
            let mut covered = vec![false; n];
            covered[0] = true;
            for c in binomial_children(0, n) {
                for p in Topology::Binomial.subtree(c, n) {
                    assert!(!covered[p], "n={n} position {p} covered twice");
                    covered[p] = true;
                }
            }
            assert!(covered.iter().all(|&b| b));
        }
    }

    #[test]
    fn flat_topology_is_a_depth_one_tree() {
        for n in 1..10usize {
            assert_eq!(Topology::Flat.children(0, n), (1..n).collect::<Vec<_>>());
            assert_eq!(Topology::Flat.subtree(0, n), (0..n).collect::<Vec<_>>());
            assert_eq!(Topology::Flat.parent(0), None);
            for v in 1..n {
                assert_eq!(Topology::Flat.parent(v), Some(0));
                assert!(Topology::Flat.children(v, n).is_empty());
                assert_eq!(Topology::Flat.subtree(v, n), vec![v]);
            }
        }
        // The binomial shape defers to the helpers above.
        assert_eq!(Topology::Binomial.children(1, 8), vec![3, 5]);
        assert_eq!(Topology::Binomial.parent(6), Some(2));
        assert_eq!(Topology::Binomial.subtree(1, 8), vec![1, 3, 5, 7]);
    }

    #[test]
    fn comm_group_derives_nodes_and_local_members() {
        // Members 4, 9, 17, 2 hosted on nodes 3, 1, 3, 0, seen from node 3.
        let g = CommGroup::new(vec![4, 9, 17, 2], vec![3, 1, 3, 0], 3, 7);
        assert_eq!(g.nodes, vec![0, 1, 3]);
        assert_eq!(g.local_members, 2);
        assert_eq!((g.epoch, g.seq, g.splits), (7, 0, 0));
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
    fn prev_power_of_two_brackets() {
        for n in 1..200usize {
            let m = prev_power_of_two(n);
            assert!(m.is_power_of_two());
            assert!(m <= n && n < 2 * m, "n={n} m={m}");
        }
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
