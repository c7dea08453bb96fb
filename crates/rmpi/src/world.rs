//! World construction: rank placement onto cluster nodes and communicator
//! creation.

use std::collections::HashMap;
use std::sync::Arc;

use dcgn_netsim::Cluster;
use dcgn_simtime::CostModel;

use crate::comm::Communicator;
use crate::packet::Packet;
use crate::rdv::RdvConfig;
use crate::Result;

/// Describes which cluster node each rank lives on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlacement {
    node_of_rank: Vec<usize>,
    num_nodes: usize,
}

impl RankPlacement {
    /// Explicit placement: `node_of_rank[i]` is the node hosting rank `i`.
    pub fn explicit(node_of_rank: Vec<usize>) -> Self {
        assert!(
            !node_of_rank.is_empty(),
            "placement needs at least one rank"
        );
        let num_nodes = node_of_rank.iter().copied().max().unwrap() + 1;
        RankPlacement {
            node_of_rank,
            num_nodes,
        }
    }

    /// Block placement: `ranks_per_node` consecutive ranks on each of
    /// `num_nodes` nodes (the layout used throughout the paper's testbed:
    /// e.g. two MPI processes per node).
    pub fn block(num_nodes: usize, ranks_per_node: usize) -> Self {
        assert!(num_nodes > 0 && ranks_per_node > 0);
        let node_of_rank = (0..num_nodes)
            .flat_map(|n| std::iter::repeat_n(n, ranks_per_node))
            .collect();
        RankPlacement {
            node_of_rank,
            num_nodes,
        }
    }

    /// Round-robin placement of `total_ranks` over `num_nodes` nodes.
    pub fn round_robin(num_nodes: usize, total_ranks: usize) -> Self {
        assert!(num_nodes > 0 && total_ranks > 0);
        RankPlacement {
            node_of_rank: (0..total_ranks).map(|r| r % num_nodes).collect(),
            num_nodes,
        }
    }

    /// Number of nodes spanned by the placement.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of_rank[rank]
    }

    /// The full rank → node map.
    fn node_map(&self) -> &[usize] {
        &self.node_of_rank
    }
}

/// Factory for a set of communicators sharing one simulated cluster.
pub struct MpiWorld;

impl MpiWorld {
    /// Create one [`Communicator`] per rank of `placement`, all attached to a
    /// fresh simulated cluster using `cost`.  The returned communicators are
    /// indexed by rank and are intended to be moved onto separate threads.
    ///
    /// The transfer protocol runs with the default [`RdvConfig`] for the
    /// cost model's eager threshold, adjusted by any `DCGN_EAGER_THRESHOLD`,
    /// `DCGN_RDV_CHUNK` and `DCGN_RDV_WINDOW` environment overrides; an
    /// unparsable or invalid override panics with its validation message.
    /// Use [`MpiWorld::run_with`] or [`MpiWorld::create_on_with`] to pass an
    /// explicit configuration.
    pub fn create(placement: &RankPlacement, cost: CostModel) -> Vec<Communicator> {
        let cluster: Cluster<Packet> = Cluster::new(placement.num_nodes(), cost);
        RdvConfig::from_env(cost.eager_threshold)
            .and_then(|rdv| Self::create_on_with(&cluster, placement, rdv))
            .expect("invalid rendezvous configuration from environment")
    }

    /// Create communicators on an existing cluster (used when other
    /// components — e.g. DCGN's device simulators — share the same cluster)
    /// with an explicit transfer-protocol configuration, validated before
    /// any endpoint is attached.
    pub fn create_on_with(
        cluster: &Cluster<Packet>,
        placement: &RankPlacement,
        rdv: RdvConfig,
    ) -> Result<Vec<Communicator>> {
        rdv.validate()?;
        let endpoints: Vec<_> = placement
            .node_map()
            .iter()
            .map(|&node| cluster.attach(node))
            .collect();
        let rank_to_ep = Arc::new(endpoints.iter().map(|e| e.id()).collect::<Vec<_>>());
        let ep_to_rank = Arc::new(
            endpoints
                .iter()
                .enumerate()
                .map(|(rank, e)| (e.id(), rank))
                .collect::<HashMap<_, _>>(),
        );
        Ok(endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, endpoint)| {
                Communicator::new(
                    rank,
                    endpoint,
                    Arc::clone(&rank_to_ep),
                    Arc::clone(&ep_to_rank),
                    rdv,
                )
            })
            .collect())
    }

    /// Convenience harness: spawn one thread per rank, run `f` on each with
    /// its communicator, and return the per-rank results in rank order.
    /// Panics propagate from rank threads to the caller.
    pub fn run<R, F>(placement: &RankPlacement, cost: CostModel, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Communicator) -> R + Send + Sync + 'static,
    {
        Self::run_comms(Self::create(placement, cost), f)
    }

    /// [`MpiWorld::run`] with an explicit, validated transfer-protocol
    /// configuration (no environment overrides applied) — the race-free way for one process to compare protocol settings
    /// (environment variables are process-global; this is not).
    pub fn run_with<R, F>(
        placement: &RankPlacement,
        cost: CostModel,
        rdv: RdvConfig,
        f: F,
    ) -> Result<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(Communicator) -> R + Send + Sync + 'static,
    {
        let cluster = Cluster::new(placement.num_nodes(), cost);
        Ok(Self::run_comms(
            Self::create_on_with(&cluster, placement, rdv)?,
            f,
        ))
    }

    fn run_comms<R, F>(comms: Vec<Communicator>, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Communicator) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("rmpi-rank{rank}"))
                    .spawn(move || f(comm))
                    .expect("failed to spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(r) => r,
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "unknown panic".into());
                    panic!("rank {rank} panicked: {msg}")
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_layout() {
        let p = RankPlacement::block(4, 2);
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.node_map(), &[0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(p.node_of(5), 2);
    }

    #[test]
    fn round_robin_placement_layout() {
        let p = RankPlacement::round_robin(3, 7);
        assert_eq!(p.node_map(), &[0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.num_nodes(), 3);
    }

    #[test]
    fn explicit_placement_derives_node_count() {
        let p = RankPlacement::explicit(vec![0, 2, 1]);
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.node_map().len(), 3);
    }

    #[test]
    fn create_assigns_consecutive_ranks() {
        let comms = MpiWorld::create(&RankPlacement::block(2, 2), CostModel::zero());
        assert_eq!(comms.len(), 4);
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 4);
        }
        assert_eq!(comms[0].node(), 0);
        assert_eq!(comms[3].node(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_placement_is_rejected() {
        RankPlacement::explicit(vec![]);
    }
}
