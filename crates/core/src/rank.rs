//! Rank virtualisation: mapping DCGN ranks onto CPU-kernel threads and GPU
//! slots, exactly as §3.2.3 of the paper prescribes.
//!
//! > "Every Node_n is given Cn + (Gn × Sn) ranks … Ranks are assigned
//! > consecutively within a node, and in increasing order across successive
//! > MPI ranks.  The lowest non-issued rank is given to the first CPU, then
//! > the second, and so on.  Then slot 0 on GPU 0, then slot 1 on GPU 0, and
//! > so on, until all CPUs and GPU slots are assigned virtualized ranks."

use crate::config::DcgnConfig;

/// What a DCGN rank is physically backed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankKind {
    /// A CPU-kernel thread.
    Cpu {
        /// Node hosting the thread.
        node: usize,
        /// Index of the CPU-kernel thread within the node.
        cpu_index: usize,
    },
    /// One slot of a GPU.
    GpuSlot {
        /// Node hosting the GPU.
        node: usize,
        /// GPU index within the node.
        gpu_index: usize,
        /// Slot index within the GPU.
        slot: usize,
    },
}

impl RankKind {
    /// The node this rank lives on.
    pub fn node(&self) -> usize {
        match self {
            RankKind::Cpu { node, .. } | RankKind::GpuSlot { node, .. } => *node,
        }
    }

    /// True when the rank is backed by a GPU slot.
    pub fn is_gpu(&self) -> bool {
        matches!(self, RankKind::GpuSlot { .. })
    }
}

/// The complete rank assignment of a job.
#[derive(Debug, Clone)]
pub struct RankMap {
    kinds: Vec<RankKind>,
    node_first_rank: Vec<usize>,
    node_rank_count: Vec<usize>,
}

impl RankMap {
    /// Build the rank map for a configuration.
    pub fn new(config: &DcgnConfig) -> Self {
        let mut kinds = Vec::with_capacity(config.total_ranks());
        let mut node_first_rank = Vec::with_capacity(config.num_nodes());
        let mut node_rank_count = Vec::with_capacity(config.num_nodes());
        for (node, nc) in config.nodes.iter().enumerate() {
            node_first_rank.push(kinds.len());
            for cpu_index in 0..nc.cpu_kernel_threads {
                kinds.push(RankKind::Cpu { node, cpu_index });
            }
            for gpu_index in 0..nc.gpus {
                for slot in 0..nc.slots_per_gpu {
                    kinds.push(RankKind::GpuSlot {
                        node,
                        gpu_index,
                        slot,
                    });
                }
            }
            node_rank_count.push(kinds.len() - node_first_rank[node]);
        }
        RankMap {
            kinds,
            node_first_rank,
            node_rank_count,
        }
    }

    /// Total number of DCGN ranks.
    pub fn total_ranks(&self) -> usize {
        self.kinds.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_first_rank.len()
    }

    /// What backs `rank`.
    pub fn kind_of(&self, rank: usize) -> Option<RankKind> {
        self.kinds.get(rank).copied()
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> Option<usize> {
        self.kinds.get(rank).map(RankKind::node)
    }

    /// The contiguous rank range hosted by `node`.
    pub fn ranks_on_node(&self, node: usize) -> std::ops::Range<usize> {
        let first = self.node_first_rank[node];
        first..first + self.node_rank_count[node]
    }

    /// The rank backed by CPU-kernel thread `cpu_index` on `node`.
    pub fn cpu_rank(&self, node: usize, cpu_index: usize) -> Option<usize> {
        self.ranks_on_node(node)
            .find(|&r| self.kinds[r] == RankKind::Cpu { node, cpu_index })
    }

    /// The rank backed by `slot` of GPU `gpu_index` on `node`.
    pub fn gpu_slot_rank(&self, node: usize, gpu_index: usize, slot: usize) -> Option<usize> {
        self.ranks_on_node(node).find(|&r| {
            self.kinds[r]
                == RankKind::GpuSlot {
                    node,
                    gpu_index,
                    slot,
                }
        })
    }

    /// All ranks backed by GPU slots.
    pub fn gpu_ranks(&self) -> Vec<usize> {
        (0..self.total_ranks())
            .filter(|&r| self.kinds[r].is_gpu())
            .collect()
    }

    /// All ranks backed by CPU-kernel threads.
    pub fn cpu_ranks(&self) -> Vec<usize> {
        (0..self.total_ranks())
            .filter(|&r| !self.kinds[r].is_gpu())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DcgnConfig, NodeConfig};

    #[test]
    fn paper_example_twenty_ranks_sixteen_targets() {
        // The paper's example cluster: four nodes, two CPU-kernel threads and
        // two GPUs (one slot each) per node — 16 communication targets.
        let cfg = DcgnConfig::homogeneous(4, 2, 2, 1);
        let map = RankMap::new(&cfg);
        assert_eq!(map.total_ranks(), 16);
        assert_eq!(map.num_nodes(), 4);
        for node in 0..4 {
            assert_eq!(map.ranks_on_node(node), node * 4..node * 4 + 4);
        }
        // Within a node: CPUs first, then GPU slots.
        assert_eq!(
            map.kind_of(0).unwrap(),
            RankKind::Cpu {
                node: 0,
                cpu_index: 0
            }
        );
        assert_eq!(
            map.kind_of(1).unwrap(),
            RankKind::Cpu {
                node: 0,
                cpu_index: 1
            }
        );
        assert_eq!(
            map.kind_of(2).unwrap(),
            RankKind::GpuSlot {
                node: 0,
                gpu_index: 0,
                slot: 0
            }
        );
        assert_eq!(
            map.kind_of(3).unwrap(),
            RankKind::GpuSlot {
                node: 0,
                gpu_index: 1,
                slot: 0
            }
        );
    }

    #[test]
    fn slots_are_assigned_consecutively_per_gpu() {
        let cfg = DcgnConfig::homogeneous(1, 1, 2, 3);
        let map = RankMap::new(&cfg);
        assert_eq!(map.total_ranks(), 7);
        assert_eq!(
            map.kind_of(1).unwrap(),
            RankKind::GpuSlot {
                node: 0,
                gpu_index: 0,
                slot: 0
            }
        );
        assert_eq!(
            map.kind_of(3).unwrap(),
            RankKind::GpuSlot {
                node: 0,
                gpu_index: 0,
                slot: 2
            }
        );
        assert_eq!(
            map.kind_of(4).unwrap(),
            RankKind::GpuSlot {
                node: 0,
                gpu_index: 1,
                slot: 0
            }
        );
    }

    #[test]
    fn reverse_lookups_agree_with_forward_assignment() {
        let cfg = DcgnConfig::heterogeneous(vec![
            NodeConfig::new(1, 2, 2),
            NodeConfig::new(3, 0, 0),
            NodeConfig::new(0, 1, 4),
        ]);
        let map = RankMap::new(&cfg);
        assert_eq!(map.total_ranks(), 5 + 3 + 4);
        for rank in 0..map.total_ranks() {
            match map.kind_of(rank).unwrap() {
                RankKind::Cpu { node, cpu_index } => {
                    assert_eq!(map.cpu_rank(node, cpu_index), Some(rank));
                }
                RankKind::GpuSlot {
                    node,
                    gpu_index,
                    slot,
                } => {
                    assert_eq!(map.gpu_slot_rank(node, gpu_index, slot), Some(rank));
                }
            }
        }
    }

    #[test]
    fn gpu_and_cpu_rank_partitions_cover_everything() {
        let cfg = DcgnConfig::homogeneous(2, 2, 1, 2);
        let map = RankMap::new(&cfg);
        let mut all = map.cpu_ranks();
        all.extend(map.gpu_ranks());
        all.sort_unstable();
        assert_eq!(all, (0..map.total_ranks()).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_lookups_return_none() {
        let cfg = DcgnConfig::homogeneous(1, 1, 0, 0);
        let map = RankMap::new(&cfg);
        assert_eq!(map.kind_of(5), None);
        assert_eq!(map.node_of(5), None);
        assert_eq!(map.gpu_slot_rank(0, 0, 0), None);
    }
}
