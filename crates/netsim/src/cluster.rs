//! Cluster description: a set of nodes sharing one fabric.

use std::sync::Arc;

use dcgn_simtime::Clock;

use crate::fabric::{Endpoint, Fabric};

/// A handle describing one node of the cluster.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    index: usize,
    name: String,
}

impl NodeHandle {
    /// Zero-based index of the node in the cluster.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Human-readable node name (`node0`, `node1`, …).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A simulated cluster: `N` nodes connected by a single [`Fabric`].
///
/// The cluster is generic over the message type `T` carried on its fabric;
/// the MPI substrate instantiates it with its own envelope type.
pub struct Cluster<T> {
    fabric: Fabric<T>,
    nodes: Arc<Vec<NodeHandle>>,
}

impl<T> Clone for Cluster<T> {
    fn clone(&self) -> Self {
        Cluster {
            fabric: self.fabric.clone(),
            nodes: Arc::clone(&self.nodes),
        }
    }
}

impl<T: Send + 'static> Cluster<T> {
    /// Create a cluster of `num_nodes` nodes whose fabric charges and waits
    /// on `clock`.
    pub fn new(num_nodes: usize, clock: impl Into<Clock>) -> Self {
        assert!(num_nodes > 0, "a cluster needs at least one node");
        let nodes = (0..num_nodes)
            .map(|index| NodeHandle {
                index,
                name: format!("node{index}"),
            })
            .collect();
        Cluster {
            fabric: Fabric::new(num_nodes, clock),
            nodes: Arc::new(nodes),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node handles.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric<T> {
        &self.fabric
    }

    /// Attach a new endpoint (e.g. an MPI process) to node `node`.
    pub fn attach(&self, node: usize) -> Endpoint<T> {
        self.fabric.attach(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcgn_simtime::CostModel;

    #[test]
    fn cluster_builds_named_nodes() {
        let cluster: Cluster<u32> = Cluster::new(4, CostModel::zero());
        assert_eq!(cluster.num_nodes(), 4);
        assert_eq!(cluster.nodes()[2].name(), "node2");
        assert_eq!(cluster.nodes()[2].index(), 2);
    }

    #[test]
    fn endpoints_attach_to_requested_nodes() {
        let cluster: Cluster<u32> = Cluster::new(2, CostModel::zero());
        let a = cluster.attach(0);
        let b = cluster.attach(1);
        assert_eq!(a.node(), 0);
        assert_eq!(b.node(), 1);
        a.send(b.id(), 42, 4).unwrap();
        assert_eq!(b.recv().unwrap().msg, 42);
    }

    #[test]
    fn cluster_clone_shares_fabric() {
        let cluster: Cluster<u32> = Cluster::new(1, CostModel::zero());
        let clone = cluster.clone();
        let a = cluster.attach(0);
        let b = clone.attach(0);
        a.send(b.id(), 7, 4).unwrap();
        assert_eq!(b.recv().unwrap().msg, 7);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_is_rejected() {
        let _: Cluster<u32> = Cluster::new(0, CostModel::zero());
    }
}
