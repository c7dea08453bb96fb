//! The rooted plan: gather every node's contribution up a tree to the
//! group's leader node, combine there, scatter the results back down the
//! same tree.  The [`Topology`] is the only difference between the **star**
//! (flat: every node a child of the leader — two hops, no relaying, optimal
//! for small groups) and the **tree** (binomial: O(log n) critical path at
//! the leader instead of O(n) serialized sends).
//!
//! One framing serves both.  An up-frame is a *bundle*: the sender's
//! [`CollectiveId`], then one `[node u32][len u32][status u8][id][contribution]`
//! entry per node of the sender's subtree — a node lays its own entry down in
//! place and appends its children's entries verbatim, so interior nodes never
//! parse what they relay.  A leaf's up-frame is therefore a one-entry bundle,
//! 17 bytes more than the bare `[id][contribution]` the star used to send
//! before it was folded into this machine.  A uniform result (or an error
//! echo) comes down as one frame relayed unchanged; node-specific results
//! come down as a [`ST_BUNDLE`] of `[node][len][body]` entries that every
//! node splits by child subtree.  What the root's combine makes of the
//! gathered contributions is [`combine`], the one place each collective's
//! meaning is spelled out for the plans.

use std::collections::{HashMap, HashSet};

use dcgn_netsim::Payload;

use super::wire::{
    check_id, decode_rank_frames_into, encode_bundle_entry, encode_rank_frames, frame_to_error,
    rank_frames, unexpected_frame, CollectiveId, CollectiveKind, ExFrame, COLLECTIVE_ID_BYTES,
    ST_BUNDLE, ST_ERR, ST_OK,
};
use super::{Action, Layout, Machine};
use crate::collectives::{parse_reduce_frame, ReduceDtype, ReduceOp};
use crate::packet::{PHASE_DOWN, PHASE_UP};

// ---------------------------------------------------------------------------
// Per-node exchange topology derivation.
//
// The plans run collectives over the *nodes* hosting a group's members.  The
// tree plan needs every node to derive the same topology from the same
// ordered node list with no coordination round, so the helpers below are
// pure functions of a node's position `v` in that list and the list length
// `n`.
// ---------------------------------------------------------------------------

/// Parent of position `v` in the binomial tree rooted at 0: clear the highest
/// set bit.  Position 0 is the root and has no parent.
fn binomial_parent(v: usize) -> Option<usize> {
    if v == 0 {
        None
    } else {
        Some(v & !(1usize << (usize::BITS - 1 - v.leading_zeros())))
    }
}

/// Children of position `v` in the `n`-position binomial tree rooted at 0:
/// `v + 2^k` for every `2^k > v` (with `2^k > 0` for the root) still below
/// `n`, in ascending order.
fn binomial_children(v: usize, n: usize) -> Vec<usize> {
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
    fn parent(self, v: usize) -> Option<usize> {
        match self {
            Topology::Flat => (v != 0).then_some(0),
            Topology::Binomial => binomial_parent(v),
        }
    }

    /// Children of position `v` among `n` positions, ascending.
    fn children(self, v: usize, n: usize) -> Vec<usize> {
        match self {
            Topology::Flat if v == 0 => (1..n).collect(),
            Topology::Flat => Vec::new(),
            Topology::Binomial => binomial_children(v, n),
        }
    }

    /// Every position in the subtree rooted at `v` (including `v` itself), in
    /// BFS order.  Used to split per-node down traffic among a node's
    /// children.
    fn subtree(self, v: usize, n: usize) -> Vec<usize> {
        let mut out = vec![v];
        let mut i = 0;
        while i < out.len() {
            out.extend(self.children(out[i], n));
            i += 1;
        }
        out
    }
}

/// Progress state of one node in a rooted exchange.
#[cfg_attr(test, derive(Clone))]
pub struct Rooted {
    id: CollectiveId,
    topo: Topology,
    /// Plan name, for the unexpected-phase diagnostic.
    schedule: &'static str,
    /// This node's position in the group's node list.
    pos: usize,
    /// Children whose up-bundle has not arrived yet.
    awaiting: HashSet<usize>,
    /// The up-bundle under construction: this node's id and own entry, then
    /// every received child bundle's entries (child id prefixes stripped).
    bundle: Vec<u8>,
}

impl Rooted {
    /// Enter the exchange at position `pos` of `layout.nodes` with this
    /// node's contribution (or local validation failure) `up`.  A leaf
    /// bundles itself up immediately; a single-node group completes on the
    /// spot.
    pub(crate) fn start(
        id: CollectiveId,
        topo: Topology,
        schedule: &'static str,
        layout: &Layout,
        pos: usize,
        up: Result<Vec<u8>, String>,
    ) -> (Machine, Vec<Action>) {
        let node = layout.nodes[pos];
        let head = id.encode();
        let mut bundle =
            Vec::with_capacity(2 * COLLECTIVE_ID_BYTES + 9 + up.as_ref().map_or(0, Vec::len));
        bundle.extend_from_slice(&head);
        match &up {
            Ok(contribution) => {
                encode_bundle_entry(&mut bundle, node, Some(ST_OK), &[&head, contribution])
            }
            Err(msg) => encode_bundle_entry(&mut bundle, node, Some(ST_ERR), &[msg.as_bytes()]),
        }
        let mut machine = Rooted {
            id,
            topo,
            schedule,
            pos,
            awaiting: nodes_at(layout, topo.children(pos, layout.nodes.len()))
                .into_iter()
                .collect(),
            bundle,
        };
        let actions = machine.gathered(layout);
        (Machine::Rooted(machine), actions)
    }

    /// Advance on one received frame.
    pub(crate) fn on_frame(
        &mut self,
        layout: &Layout,
        src_node: usize,
        phase: u32,
        frame: ExFrame,
    ) -> Vec<Action> {
        match phase {
            // A duplicate (or non-child) up-frame is dropped: the exact key
            // already proves it named this exchange, so it cannot belong
            // anywhere else.
            PHASE_UP if !self.awaiting.remove(&src_node) => Vec::new(),
            // The frame bundles the whole subtree under `src_node`.  Its
            // entries stay opaque here, but the bundle's own id prefix must
            // agree — a subtree running a different collective is caught at
            // its parent instead of deadlocking the root.
            PHASE_UP => match check_id(self.id, src_node, &frame) {
                Ok(entries) => {
                    self.bundle.extend_from_slice(entries);
                    self.gathered(layout)
                }
                Err((status, body)) => vec![Action::Abort { status, body }],
            },
            PHASE_DOWN if self.topo.parent(self.pos).is_some() => self.scatter(layout, frame),
            // Any other phase means the sender derived a different schedule
            // for this very exchange — the group disagrees about the
            // collective.  Abort everyone.
            _ => {
                let (status, body) =
                    unexpected_frame(self.id, self.schedule, src_node, phase, &frame);
                vec![Action::Abort { status, body }]
            }
        }
    }

    /// Once every child's bundle is in: ship the subtree's bundle to the
    /// parent, or — at the root — combine and start the way down.
    fn gathered(&mut self, layout: &Layout) -> Vec<Action> {
        if !self.awaiting.is_empty() {
            return Vec::new();
        }
        let bundle = Payload::from_vec(std::mem::take(&mut self.bundle));
        match self.topo.parent(self.pos) {
            Some(parent) => vec![Action::Send {
                to: vec![layout.nodes[parent]],
                phase: PHASE_UP,
                status: ST_OK,
                body: bundle,
            }],
            None => self.finish_root(layout, bundle),
        }
    }

    /// Root: every node's entry is in.  The first error — a local validation
    /// failure echoed by a joining node, or a combine failure such as
    /// mismatched vector lengths — fails the whole communicator, and *only*
    /// this communicator, because it is echoed to every participating node
    /// instead of leaving them blocked.
    fn finish_root(&self, layout: &Layout, bundle: Payload) -> Vec<Action> {
        let blob = bundle.as_slice();
        let mut payloads: HashMap<usize, Payload> = HashMap::new();
        let mut error: Option<(u8, Vec<u8>)> = None;
        for (node, range) in rank_frames(&blob[COLLECTIVE_ID_BYTES..]) {
            // Every entry leads with its status byte; an OK one continues
            // with the contributor's id (already verified hop by hop on the
            // way up) and its payload, kept as a zero-copy view of the bundle.
            let start = COLLECTIVE_ID_BYTES + range.start;
            let end = COLLECTIVE_ID_BYTES + range.end;
            match blob[start..end].split_first() {
                Some((&ST_OK, rest)) if rest.len() >= COLLECTIVE_ID_BYTES => {
                    payloads.insert(node, bundle.slice(start + 1 + COLLECTIVE_ID_BYTES..end));
                }
                Some((&status, rest)) if status != ST_OK => {
                    error.get_or_insert((status, rest.to_vec()));
                }
                _ => {
                    let msg = format!("malformed exchange up-frame from node {node}");
                    error.get_or_insert((ST_ERR, msg.into_bytes()));
                }
            }
        }
        let (status, body) = error.unwrap_or_else(|| {
            combine(self.id, layout, &payloads).unwrap_or_else(|msg| (ST_ERR, msg.into_bytes()))
        });
        // From here the root is a node like any other, whose "parent's
        // down-frame" happens to have been computed locally.
        self.scatter(layout, (status, Payload::from_vec(body)))
    }

    /// The down-frame for this node's subtree is known (received from the
    /// parent, or combined at the root): pass it toward the leaves and end
    /// the exchange locally with the result or the echoed error.
    fn scatter(&self, layout: &Layout, (status, body): ExFrame) -> Vec<Action> {
        let n = layout.nodes.len();
        let children = self.topo.children(self.pos, n);
        if status != ST_BUNDLE {
            // A uniform result or an error echo: every subtree node gets the
            // identical frame, so one framed copy is shared by every child,
            // and the local outcome is the same body.
            let outcome = match status {
                ST_OK => Action::Deliver(body.clone()),
                status => Action::Fail(frame_to_error(status, body.as_slice())),
            };
            let relay = Action::Send {
                to: nodes_at(layout, children),
                phase: PHASE_DOWN,
                status,
                body,
            };
            return vec![relay, outcome];
        }
        // Node-specific results: one bundle per child carrying the entries of
        // that child's subtree (absent nodes get empty bodies), which the
        // child re-splits for its own children; our own entry stays here.
        let mut table: HashMap<usize, Payload> = rank_frames(body.as_slice())
            .map(|(node, range)| (node, body.slice(range)))
            .collect();
        let mut actions: Vec<Action> = children
            .into_iter()
            .map(|child| {
                let mut sub = Vec::new();
                for node in nodes_at(layout, self.topo.subtree(child, n)) {
                    let entry = table.get(&node).map_or(&[][..], Payload::as_slice);
                    encode_bundle_entry(&mut sub, node, None, &[entry]);
                }
                Action::Send {
                    to: vec![layout.nodes[child]],
                    phase: PHASE_DOWN,
                    status: ST_BUNDLE,
                    body: Payload::from_vec(sub),
                }
            })
            .collect();
        let own = table.remove(&layout.nodes[self.pos]);
        actions.push(Action::Deliver(own.unwrap_or_else(Payload::empty)));
        actions
    }
}

/// Node ids at `positions` of the group's node list.
fn nodes_at(layout: &Layout, positions: Vec<usize>) -> Vec<usize> {
    positions.into_iter().map(|p| layout.nodes[p]).collect()
}

/// Fold equal-length typed vectors into one.  `parts` pairs each vector with
/// the rank or node (`who`) that contributed it, for the diagnostic when the
/// lengths disagree (`scope` says across what).
pub fn fold_all<'a>(
    (op, dtype): (ReduceOp, ReduceDtype),
    scope: &str,
    who: &str,
    parts: impl IntoIterator<Item = (usize, &'a [u8])>,
) -> Result<Vec<u8>, String> {
    let mut acc: Option<Vec<u8>> = None;
    for (label, bytes) in parts {
        match &mut acc {
            None => acc = Some(bytes.to_vec()),
            Some(acc) if acc.len() != bytes.len() => {
                return Err(format!(
                    "reduce length mismatch{scope}: {who} {label} contributed {} values, \
                     expected {}",
                    bytes.len() / dtype.element_bytes(),
                    acc.len() / dtype.element_bytes()
                ))
            }
            Some(acc) => dtype.fold(op, acc, bytes).map_err(|e| e.to_string())?,
        }
    }
    Ok(acc.unwrap_or_default())
}

/// Combine the per-node up-payloads of a collective into the root's
/// down-frame `(status, body)`: [`ST_OK`] with the one body every node
/// receives, or [`ST_BUNDLE`] with `[node][len][body]` entries for
/// node-specific results (scatter chunks; rooted results, which only the
/// root's node gets — absent nodes read as empty).  `Err` carries a
/// diagnostic that fails every member of the communicator (on every node).
fn combine(
    id: CollectiveId,
    layout: &Layout,
    payloads: &HashMap<usize, Payload>,
) -> Result<(u8, Vec<u8>), String> {
    let size = layout.member_nodes.len();
    let root_node = || {
        id.root
            .and_then(|root| layout.member_nodes.get(root).copied())
            .ok_or_else(|| format!("{} carries no valid root", id.kind.name()))
    };
    let merged = || {
        let mut table = vec![Payload::empty(); size];
        for payload in payloads.values() {
            decode_rank_frames_into(payload, &mut table);
        }
        encode_rank_frames(table.iter().enumerate().map(|(s, d)| (s, d.as_slice())))
    };
    let only = |node: usize, payload: &[u8]| {
        let mut bundle = Vec::with_capacity(8 + payload.len());
        encode_bundle_entry(&mut bundle, node, None, &[payload]);
        (ST_BUNDLE, bundle)
    };
    Ok(match id.kind {
        CollectiveKind::Barrier => (ST_OK, Vec::new()),
        CollectiveKind::Broadcast => {
            let data = payloads.get(&root_node()?);
            (ST_OK, data.map_or_else(Vec::new, Payload::to_vec))
        }
        CollectiveKind::Allgather | CollectiveKind::Split => (ST_OK, merged()),
        CollectiveKind::Gather => only(root_node()?, &merged()),
        CollectiveKind::Scatter => {
            let mut table = vec![Payload::empty(); size];
            if let Some(chunks) = payloads.get(&root_node()?) {
                decode_rank_frames_into(chunks, &mut table);
            }
            let mut bundle = Vec::new();
            for &node in &layout.nodes {
                let residents = layout.member_nodes.iter().enumerate();
                let frames =
                    residents.filter_map(|(s, &m)| (m == node).then_some((s, table[s].as_slice())));
                encode_bundle_entry(&mut bundle, node, None, &[&encode_rank_frames(frames)]);
            }
            (ST_BUNDLE, bundle)
        }
        CollectiveKind::Reduce | CollectiveKind::Allreduce => {
            let (op, dtype) = id.required_reduction()?;
            // Fold in node order, so the result is deterministic.  Each
            // up-payload leads with its (op, dtype) identity header.
            let partials = layout
                .nodes
                .iter()
                .map(|&node| {
                    let frame = payloads.get(&node).map_or(&[][..], Payload::as_slice);
                    Ok((node, parse_reduce_frame(frame, op, dtype)?))
                })
                .collect::<crate::Result<Vec<_>>>()
                .map_err(|e| e.to_string())?;
            let result = fold_all((op, dtype), " across nodes", "node", partials)?;
            if id.kind == CollectiveKind::Reduce {
                only(root_node()?, &result)
            } else {
                (ST_OK, result)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::sim::{layout_for, Sim};
    use super::super::wire::ST_MISMATCH;
    use super::*;
    use crate::collectives::frame_reduce;
    use crate::packet::{RmpiError, PHASE_RD_ROUND_BASE};

    fn id(kind: CollectiveKind, root: Option<usize>) -> CollectiveId {
        let reduces = matches!(kind, CollectiveKind::Reduce | CollectiveKind::Allreduce);
        CollectiveId {
            kind,
            root,
            reduction: reduces.then_some((ReduceOp::Sum, ReduceDtype::F64)),
        }
    }

    /// The three bytes position `pos` (one rank per node: also sub-rank
    /// `pos`) contributes to chunked collectives.
    fn chunk(pos: usize) -> Vec<u8> {
        vec![pos as u8; 3]
    }

    fn rank_frame(pos: usize) -> Vec<u8> {
        encode_rank_frames([(pos, &chunk(pos)[..])].into_iter())
    }

    fn everyones_rank_frames(n: usize) -> Vec<u8> {
        (0..n).flat_map(rank_frame).collect()
    }

    /// Run one collective over all `n` positions under `topo`, in both
    /// delivery orders, and return each position's outcome (asserting the
    /// two orders agree).
    fn run(
        topo: Topology,
        n: usize,
        id: CollectiveId,
        up: impl Fn(usize) -> Result<Vec<u8>, String>,
    ) -> Vec<Option<Result<Payload, RmpiError>>> {
        let start =
            |group: &Layout, pos: usize| Rooted::start(id, topo, "test", group, pos, up(pos));
        let oldest_first = Sim::start(n, start).run(false);
        let newest_first = Sim::start(n, start).run(true);
        assert_eq!(oldest_first.outcome, newest_first.outcome);
        // One frame up and one down per non-root position, whatever the shape.
        assert_eq!(oldest_first.sent.len(), 2 * (n - 1));
        oldest_first.outcome
    }

    fn delivered(bytes: Vec<u8>) -> Option<Result<Payload, RmpiError>> {
        Some(Ok(Payload::from_vec(bytes)))
    }

    #[test]
    fn flat_topology_produces_the_star_results_and_the_tree_agrees() {
        for (topo, sizes) in [
            (Topology::Flat, vec![1, 2, 3, 4]),
            (Topology::Binomial, vec![2, 5, 8, 11]),
        ] {
            for n in sizes {
                // Barrier: an empty uniform result everywhere.
                let outcome = run(topo, n, id(CollectiveKind::Barrier, None), |_| {
                    Ok(Vec::new())
                });
                assert_eq!(outcome, vec![delivered(Vec::new()); n]);

                // Broadcast from the last position: its bytes everywhere.
                let root = n - 1;
                let outcome = run(topo, n, id(CollectiveKind::Broadcast, Some(root)), |pos| {
                    Ok(if pos == root { chunk(root) } else { Vec::new() })
                });
                assert_eq!(outcome, vec![delivered(chunk(root)); n]);

                // Allgather: every rank's frame, in sub-rank order, everywhere.
                let outcome = run(topo, n, id(CollectiveKind::Allgather, None), |pos| {
                    Ok(rank_frame(pos))
                });
                assert_eq!(outcome, vec![delivered(everyones_rank_frames(n)); n]);

                // Gather to the last position: node-specific results — the
                // table at the root's node, nothing anywhere else.
                let outcome = run(topo, n, id(CollectiveKind::Gather, Some(root)), |pos| {
                    Ok(rank_frame(pos))
                });
                for (pos, outcome) in outcome.into_iter().enumerate() {
                    let expect = if pos == root {
                        everyones_rank_frames(n)
                    } else {
                        Vec::new()
                    };
                    assert_eq!(outcome, delivered(expect), "gather at {pos} of {n}");
                }

                // Scatter from position 0: each node gets its residents' chunks.
                let outcome = run(topo, n, id(CollectiveKind::Scatter, Some(0)), |pos| {
                    Ok(if pos == 0 {
                        everyones_rank_frames(n)
                    } else {
                        Vec::new()
                    })
                });
                for (pos, outcome) in outcome.into_iter().enumerate() {
                    assert_eq!(
                        outcome,
                        delivered(rank_frame(pos)),
                        "scatter at {pos} of {n}"
                    );
                }

                // Allreduce: 1 + 2 + … + n everywhere.
                let f64s = |v: f64| v.to_le_bytes().to_vec();
                let outcome = run(topo, n, id(CollectiveKind::Allreduce, None), |pos| {
                    Ok(frame_reduce(
                        ReduceOp::Sum,
                        ReduceDtype::F64,
                        &f64s((pos + 1) as f64),
                    ))
                });
                assert_eq!(outcome, vec![delivered(f64s((n * (n + 1) / 2) as f64)); n]);
            }
        }
    }

    #[test]
    fn a_leaf_up_frame_is_a_one_entry_bundle_17_bytes_over_its_contribution() {
        let id = id(CollectiveKind::Allgather, None);
        let group = layout_for(3);
        let (_, actions) = Rooted::start(id, Topology::Flat, "star", &group, 2, Ok(rank_frame(2)));
        let mut body = id.encode().to_vec();
        encode_bundle_entry(
            &mut body,
            group.nodes[2],
            Some(ST_OK),
            &[&id.encode(), &rank_frame(2)],
        );
        assert_eq!(body.len(), COLLECTIVE_ID_BYTES + rank_frame(2).len() + 17);
        assert_eq!(
            actions,
            vec![Action::Send {
                to: vec![group.nodes[0]],
                phase: PHASE_UP,
                status: ST_OK,
                body: Payload::from_vec(body),
            }]
        );
    }

    #[test]
    fn a_local_failure_or_a_combine_failure_is_echoed_to_every_position() {
        for topo in [Topology::Flat, Topology::Binomial] {
            // Position 3's local build failed: its error entry rides up like
            // a contribution and comes down as the error frame.
            let outcome = run(topo, 6, id(CollectiveKind::Allgather, None), |pos| {
                if pos == 3 {
                    Err("boom".into())
                } else {
                    Ok(rank_frame(pos))
                }
            });
            let boom = Some(Err(RmpiError::InvalidArgument("boom".into())));
            assert_eq!(outcome, vec![boom; 6]);
            // Position 2 reduces two values, everyone else one: only the
            // root's combine can see that.
            let outcome = run(topo, 6, id(CollectiveKind::Allreduce, None), |pos| {
                let values = vec![0u8; if pos == 2 { 16 } else { 8 }];
                Ok(frame_reduce(ReduceOp::Sum, ReduceDtype::F64, &values))
            });
            for outcome in outcome {
                assert!(
                    matches!(&outcome, Some(Err(RmpiError::InvalidArgument(msg)))
                        if msg.contains("reduce length mismatch across nodes: node 5")),
                    "{outcome:?}"
                );
            }
        }
    }

    /// Position 1 of the 8-position binomial tree: parent 0, children 3 (with
    /// its own child 7) and 5.
    fn interior(id: CollectiveId) -> (Layout, Rooted) {
        let group = layout_for(8);
        let (machine, opening) =
            Rooted::start(id, Topology::Binomial, "tree", &group, 1, Ok(rank_frame(1)));
        assert_eq!(opening, vec![], "an interior node waits for its children");
        let Machine::Rooted(machine) = machine else {
            panic!("rooted machine")
        };
        (group, machine)
    }

    /// The up-bundle position `pos` sends for subtree `positions` (itself
    /// first).
    fn up_bundle(id: CollectiveId, group: &Layout, positions: &[usize]) -> ExFrame {
        let mut body = id.encode().to_vec();
        for &pos in positions {
            let parts: [&[u8]; 2] = [&id.encode(), &rank_frame(pos)];
            encode_bundle_entry(&mut body, group.nodes[pos], Some(ST_OK), &parts);
        }
        (ST_OK, Payload::from_vec(body))
    }

    #[test]
    fn binomial_interior_node_bundles_its_children_up_and_splits_downs_by_subtree() {
        let id = id(CollectiveKind::Gather, Some(0));
        let (group, mut machine) = interior(id);
        let nodes = &group.nodes;
        // Child 5 (a leaf) reports first, then child 3 with its child 7; a
        // duplicate from 5 in between is dropped.
        let from_5 = up_bundle(id, &group, &[5]);
        assert_eq!(
            machine.on_frame(&group, nodes[5], PHASE_UP, from_5.clone()),
            vec![]
        );
        assert_eq!(machine.on_frame(&group, nodes[5], PHASE_UP, from_5), vec![]);
        let from_3 = up_bundle(id, &group, &[3, 7]);
        let actions = machine.on_frame(&group, nodes[3], PHASE_UP, from_3);
        // One bundle to the parent: own entry, then the children's entries
        // verbatim in arrival order, under one id prefix.
        assert_eq!(
            actions,
            vec![Action::Send {
                to: vec![nodes[0]],
                phase: PHASE_UP,
                status: ST_OK,
                body: up_bundle(id, &group, &[1, 5, 3, 7]).1,
            }]
        );
        // The parent's per-node down-bundle covers this subtree (plus a node
        // outside it, which must not leak down).
        let down_bundle = |positions: &[usize]| {
            let mut body = Vec::new();
            for &pos in positions {
                encode_bundle_entry(&mut body, nodes[pos], None, &[&chunk(pos)]);
            }
            Payload::from_vec(body)
        };
        let down = (ST_BUNDLE, down_bundle(&[7, 6, 5, 3, 1]));
        let actions = machine.on_frame(&group, nodes[0], PHASE_DOWN, down);
        let to_child = |child: usize, subtree: &[usize]| Action::Send {
            to: vec![nodes[child]],
            phase: PHASE_DOWN,
            status: ST_BUNDLE,
            body: down_bundle(subtree),
        };
        assert_eq!(
            actions,
            vec![
                to_child(3, &[3, 7]),
                to_child(5, &[5]),
                Action::Deliver(Payload::from_vec(chunk(1))),
            ]
        );
    }

    #[test]
    fn an_id_mismatch_at_an_interior_node_aborts_exactly_once() {
        let own = id(CollectiveKind::Barrier, None);
        let (group, mut machine) = interior(own);
        // Child 3's subtree runs an allreduce instead.
        let other = up_bundle(id(CollectiveKind::Allreduce, None), &group, &[3, 7]);
        let actions = machine.on_frame(&group, group.nodes[3], PHASE_UP, other);
        let codes = vec![
            CollectiveKind::Barrier.wire_code(),
            CollectiveKind::Allreduce.wire_code(),
        ];
        assert_eq!(
            actions,
            vec![Action::Abort {
                status: ST_MISMATCH,
                body: codes
            }]
        );
        // Same kind, different root: an identity mismatch naming the child.
        let (group, mut machine) = interior(id(CollectiveKind::Gather, Some(0)));
        let other = up_bundle(id(CollectiveKind::Gather, Some(2)), &group, &[5]);
        let actions = machine.on_frame(&group, group.nodes[5], PHASE_UP, other);
        let [Action::Abort {
            status: ST_ERR,
            body,
        }] = &actions[..]
        else {
            panic!("expected one abort, got {actions:?}")
        };
        let msg = String::from_utf8_lossy(body);
        assert!(
            msg.contains("identity mismatch") && msg.contains("node 11"),
            "{msg}"
        );
    }

    #[test]
    fn a_frame_of_another_schedule_aborts_exactly_once() {
        let own = id(CollectiveKind::Allreduce, None);
        let (group, mut machine) = interior(own);
        // A recursive-doubling round from a node that derived another plan.
        let frame = up_bundle(own, &group, &[3]);
        let actions = machine.on_frame(&group, group.nodes[3], PHASE_RD_ROUND_BASE, frame);
        let [Action::Abort {
            status: ST_ERR,
            body,
        }] = &actions[..]
        else {
            panic!("expected one abort, got {actions:?}")
        };
        let msg = String::from_utf8_lossy(body);
        assert!(msg.contains("tree schedule has no step for"), "{msg}");
        // The root has no parent, so a down-frame is just as unscheduled.
        let group = layout_for(4);
        let (machine, _) = Rooted::start(own, Topology::Flat, "star", &group, 0, Ok(Vec::new()));
        let Machine::Rooted(mut root) = machine else {
            panic!("rooted machine")
        };
        let down = (ST_OK, Payload::empty());
        let actions = root.on_frame(&group, group.nodes[1], PHASE_DOWN, down);
        assert!(
            matches!(actions[..], [Action::Abort { status: ST_ERR, .. }]),
            "{actions:?}"
        );
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
}
