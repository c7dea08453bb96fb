//! The message fabric: endpoints, delivery, and the cost-charging send path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::RwLock;

use dcgn_simtime::{Charge, Clock, Deadline, VirtualBus};

/// Globally unique identifier of an endpoint attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub usize);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A message delivered to an endpoint.
#[derive(Debug)]
pub struct Delivery<T> {
    /// Sending endpoint.
    pub src: EndpointId,
    /// Size the message occupied on the wire, in bytes (as declared by the
    /// sender; used by higher layers for accounting).
    pub wire_bytes: usize,
    /// The message itself.
    pub msg: T,
}

/// Errors returned by the receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message is currently queued (try_recv only).
    Empty,
    /// The deadline passed before a message arrived.
    Timeout,
    /// The fabric (or the endpoint's sender side) has been torn down.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Empty => write!(f, "no message queued"),
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "fabric disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Per-endpoint traffic counters (messages/bytes in each direction).
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Messages sent from this endpoint.
    pub msgs_sent: AtomicU64,
    /// Wire bytes sent from this endpoint.
    pub bytes_sent: AtomicU64,
    /// Messages received by this endpoint.
    pub msgs_received: AtomicU64,
    /// Wire bytes received by this endpoint.
    pub bytes_received: AtomicU64,
}

impl TrafficStats {
    /// Snapshot of (msgs_sent, bytes_sent, msgs_received, bytes_received).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.msgs_sent.load(Ordering::Relaxed),
            self.bytes_sent.load(Ordering::Relaxed),
            self.msgs_received.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
        )
    }
}

/// Callback invoked (on the sender's thread) after a message is queued on an
/// endpoint — the delivery interrupt line of a real NIC.
pub type WakeNotifier = Arc<dyn Fn() + Send + Sync>;

struct EndpointEntry<T> {
    node: usize,
    tx: Sender<Delivery<T>>,
    notify: Option<WakeNotifier>,
}

struct FabricInner<T> {
    clock: Clock,
    endpoints: RwLock<HashMap<usize, EndpointEntry<T>>>,
    nics: Vec<Arc<VirtualBus>>,
    /// Per-node receive-drain engines: the DMA stage that moves a landed
    /// frame out of the NIC's bounce buffers into its destination.  Shares
    /// the network link's sustained bandwidth but pays no per-transfer
    /// latency (the inbound frame already paid it on the sending NIC), and
    /// runs on the *receiver's* thread — so a sender streaming chunks can
    /// overlap its own wire time with the receiver's drain of earlier
    /// chunks, which a single monolithic frame never can.
    rx_drains: Vec<Arc<VirtualBus>>,
    next_id: AtomicU64,
    // Global `fabric.*` instruments ([`dcgn_metrics::global`]): every
    // delivered message bumps both, on the one code path all traffic
    // funnels through.
    frames: dcgn_metrics::Counter,
    frame_bytes: dcgn_metrics::Counter,
    rx_drain_bytes: dcgn_metrics::Counter,
}

/// The interconnect shared by every endpoint in a [`crate::Cluster`].
///
/// `T` is the in-process message type carried by the fabric (the MPI layer
/// uses its own envelope struct).  Messages are moved, not serialised; the
/// *cost* of serialisation is modelled through the `wire_bytes` argument of
/// [`Endpoint::send`].
pub struct Fabric<T> {
    inner: Arc<FabricInner<T>>,
}

impl<T> Clone for Fabric<T> {
    fn clone(&self) -> Self {
        Fabric {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static> Fabric<T> {
    /// Create a fabric for `num_nodes` nodes whose sends pay their cost on
    /// `clock` (a [`dcgn_simtime::CostModel`] makes a clock with its ledger
    /// in the global registry).
    pub fn new(num_nodes: usize, clock: impl Into<Clock>) -> Self {
        let clock = clock.into();
        let network = clock.model().network;
        let nics = (0..num_nodes)
            .map(|_| Arc::new(VirtualBus::new(Charge::Network, network)))
            .collect();
        let rx_drains = (0..num_nodes)
            .map(|_| Arc::new(VirtualBus::new(Charge::Drain, network.bandwidth_only())))
            .collect();
        Fabric {
            inner: Arc::new(FabricInner {
                clock,
                endpoints: RwLock::new(HashMap::new()),
                nics,
                rx_drains,
                next_id: AtomicU64::new(0),
                frames: dcgn_metrics::global().counter("fabric.frames"),
                frame_bytes: dcgn_metrics::global().counter("fabric.frame_bytes"),
                rx_drain_bytes: dcgn_metrics::global().counter("fabric.rx_drain_bytes"),
            }),
        }
    }

    /// Number of nodes this fabric connects.
    pub fn num_nodes(&self) -> usize {
        self.inner.nics.len()
    }

    /// The clock this fabric charges and waits on.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Attach a new endpoint to `node`.  Panics if `node` is out of range.
    pub fn attach(&self, node: usize) -> Endpoint<T> {
        assert!(
            node < self.num_nodes(),
            "node {node} out of range (cluster has {} nodes)",
            self.num_nodes()
        );
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst) as usize;
        let (tx, rx) = unbounded();
        self.inner.endpoints.write().insert(
            id,
            EndpointEntry {
                node,
                tx,
                notify: None,
            },
        );
        Endpoint {
            id: EndpointId(id),
            node,
            fabric: self.clone(),
            rx,
            stats: Arc::new(TrafficStats::default()),
        }
    }

    /// The node an endpoint is attached to, if it exists.
    pub fn node_of(&self, endpoint: EndpointId) -> Option<usize> {
        self.inner.endpoints.read().get(&endpoint.0).map(|e| e.node)
    }

    fn deliver(
        &self,
        src: EndpointId,
        src_node: usize,
        dst: EndpointId,
        msg: T,
        wire_bytes: usize,
    ) -> Result<(), RecvError> {
        // Look up the destination first so that cost is not charged for a
        // send that can never be delivered.
        let (dst_node, tx, notify) = {
            let endpoints = self.inner.endpoints.read();
            let entry = endpoints.get(&dst.0).ok_or(RecvError::Disconnected)?;
            (entry.node, entry.tx.clone(), entry.notify.clone())
        };
        self.inner.frames.inc();
        self.inner.frame_bytes.add(wire_bytes as u64);
        if dst_node == src_node {
            // Intra-node path: shared-memory copy, no NIC involvement.
            let clock = &self.inner.clock;
            let copy = clock.model().intra_node.transfer_time(wire_bytes);
            clock.charge(Charge::IntraNode, copy);
        } else {
            // Inter-node path: serialise on the sending node's NIC for the
            // full wire time (store-and-forward model).
            self.inner.nics[src_node].transfer(&self.inner.clock, wire_bytes);
        }
        tx.send(Delivery {
            src,
            wire_bytes,
            msg,
        })
        .map_err(|_| RecvError::Disconnected)?;
        if let Some(notify) = notify {
            notify();
        }
        Ok(())
    }

    /// Charge the receive-drain stage of `node` for `bytes` (bandwidth-only,
    /// serialised with other drains on the same node).  Higher layers call
    /// this on the *receiver's* thread when a large inbound frame must be
    /// moved out of the NIC's landing buffers (the rendezvous payload path);
    /// small eager frames are consumed in place and never drain.
    pub fn charge_rx_drain(&self, node: usize, bytes: usize) {
        self.inner.rx_drain_bytes.add(bytes as u64);
        self.inner.rx_drains[node].transfer(&self.inner.clock, bytes);
    }

    /// Install (or replace) the delivery notifier of `endpoint`.  The
    /// callback runs on the *sender's* thread right after each message is
    /// queued, so a receiver that multiplexes several event sources can be
    /// woken instead of polling.
    pub fn set_notifier(&self, endpoint: EndpointId, notify: WakeNotifier) {
        if let Some(entry) = self.inner.endpoints.write().get_mut(&endpoint.0) {
            entry.notify = Some(notify);
        }
    }
}

impl<T> Fabric<T> {
    /// Detach an endpoint, closing its inbound queue.
    fn detach(&self, endpoint: EndpointId) {
        self.inner.endpoints.write().remove(&endpoint.0);
    }
}

/// One attachment point on the fabric — roughly a queue pair on a NIC, or the
/// shared-memory mailbox of an MPI process.
pub struct Endpoint<T> {
    id: EndpointId,
    node: usize,
    fabric: Fabric<T>,
    rx: Receiver<Delivery<T>>,
    stats: Arc<TrafficStats>,
}

impl<T: Send + 'static> Endpoint<T> {
    /// This endpoint's identifier.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Node this endpoint is attached to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Traffic counters for this endpoint.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Send `msg` to `dst`, charging the cost of a `wire_bytes`-byte message
    /// (intra-node or inter-node, depending on where `dst` lives).  The call
    /// blocks for the modelled wire time, like a blocking hardware send.
    pub fn send(&self, dst: EndpointId, msg: T, wire_bytes: usize) -> Result<(), RecvError> {
        self.fabric
            .deliver(self.id, self.node, dst, msg, wire_bytes)?;
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(wire_bytes as u64, Ordering::Relaxed);
        Ok(())
    }

    fn note_recv(&self, d: &Delivery<T>) {
        self.stats.msgs_received.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_received
            .fetch_add(d.wire_bytes as u64, Ordering::Relaxed);
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Delivery<T>, RecvError> {
        let d = self.rx.recv().map_err(|_| RecvError::Disconnected)?;
        self.note_recv(&d);
        Ok(d)
    }

    /// Return a queued message if one is available.
    pub fn try_recv(&self) -> Result<Delivery<T>, RecvError> {
        match self.rx.try_recv() {
            Ok(d) => {
                self.note_recv(&d);
                Ok(d)
            }
            Err(TryRecvError::Empty) => Err(RecvError::Empty),
            Err(TryRecvError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Block until a message arrives or `deadline` passes.
    pub fn recv_until(&self, deadline: Deadline) -> Result<Delivery<T>, RecvError> {
        match self.fabric.inner.clock.recv_until(&self.rx, deadline) {
            Ok(d) => {
                self.note_recv(&d);
                Ok(d)
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Install a delivery notifier for this endpoint (see
    /// [`Fabric::set_notifier`]).
    pub fn set_notifier(&self, notify: WakeNotifier) {
        self.fabric.set_notifier(self.id, notify);
    }

    /// The node a peer endpoint is attached to, if it is still attached.
    /// Lets protocol layers distinguish intra-node deliveries (shared
    /// memory, nothing to drain) from inter-node ones.
    pub fn peer_node(&self, peer: EndpointId) -> Option<usize> {
        self.fabric.node_of(peer)
    }

    /// Charge this endpoint's node's receive-drain engine for `bytes` (see
    /// [`Fabric::charge_rx_drain`]).  Called on the receiving thread.
    pub fn charge_rx_drain(&self, bytes: usize) {
        self.fabric.charge_rx_drain(self.node, bytes);
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Fabric<T> {
        &self.fabric
    }
}

impl<T> Drop for Endpoint<T> {
    fn drop(&mut self) {
        self.fabric.detach(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcgn_simtime::CostModel;
    use std::time::{Duration, Instant};

    #[test]
    fn point_to_point_delivery() {
        let fabric: Fabric<String> = Fabric::new(2, CostModel::zero());
        let a = fabric.attach(0);
        let b = fabric.attach(1);
        a.send(b.id(), "hello".to_string(), 5).unwrap();
        let d = b.recv().unwrap();
        assert_eq!(d.src, a.id());
        assert_eq!(d.msg, "hello");
        assert_eq!(d.wire_bytes, 5);
    }

    #[test]
    fn per_sender_ordering_is_preserved() {
        let fabric: Fabric<u32> = Fabric::new(1, CostModel::zero());
        let a = fabric.attach(0);
        let b = fabric.attach(0);
        for i in 0..100 {
            a.send(b.id(), i, 4).unwrap();
        }
        for i in 0..100 {
            assert_eq!(b.recv().unwrap().msg, i);
        }
    }

    #[test]
    fn the_ledger_holds_exactly_what_each_frame_was_charged() {
        let metrics = dcgn_metrics::MetricsHandle::new();
        let cost = CostModel::g92_cluster();
        let fabric: Fabric<u32> = Fabric::new(2, Clock::new(cost, &metrics));
        let (a, b, far) = (fabric.attach(0), fabric.attach(0), fabric.attach(1));
        let sizes = [0, 1, 100, 4096];
        for &w in &sizes {
            a.send(far.id(), 0, w).unwrap();
            a.send(b.id(), 0, w).unwrap();
            far.charge_rx_drain(w);
        }
        let sum = |link: dcgn_simtime::LinkCost| -> u64 {
            sizes
                .iter()
                .map(|&w| link.transfer_time(w).as_nanos() as u64)
                .sum()
        };
        let snap = metrics.snapshot();
        let charged = |kind: &str| snap.counter(&format!("model.charged_ns.{kind}"));
        assert_eq!(charged("network"), sum(cost.network));
        assert_eq!(charged("intra_node"), sum(cost.intra_node));
        assert_eq!(charged("drain"), sum(cost.network.bandwidth_only()));
    }

    #[test]
    fn try_recv_and_timeout() {
        let fabric: Fabric<u32> = Fabric::new(1, CostModel::zero());
        let a = fabric.attach(0);
        let b = fabric.attach(0);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(
            b.recv_until(fabric.clock().deadline(Duration::from_millis(10)))
                .unwrap_err(),
            RecvError::Timeout
        );
        a.send(b.id(), 9, 4).unwrap();
        assert_eq!(b.try_recv().unwrap().msg, 9);
    }

    #[test]
    fn send_to_detached_endpoint_fails_cleanly() {
        let fabric: Fabric<u32> = Fabric::new(1, CostModel::zero());
        let a = fabric.attach(0);
        let dead = {
            let b = fabric.attach(0);
            b.id()
        };
        assert_eq!(a.send(dead, 1, 4).unwrap_err(), RecvError::Disconnected);
    }

    #[test]
    fn inter_node_send_charges_network_cost() {
        let mut cost = CostModel::zero();
        cost.network = dcgn_simtime::LinkCost::from_us_and_mbps(400, 1e9);
        let fabric: Fabric<u32> = Fabric::new(2, cost);
        let a = fabric.attach(0);
        let b = fabric.attach(1);
        let start = Instant::now();
        a.send(b.id(), 1, 0).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(400));
        // Intra-node send does not pay the network latency.
        let c = fabric.attach(0);
        let start = Instant::now();
        a.send(c.id(), 1, 0).unwrap();
        assert!(start.elapsed() < Duration::from_micros(400));
        let _ = b.recv().unwrap();
        let _ = c.recv().unwrap();
    }

    #[test]
    fn stats_track_traffic() {
        let fabric: Fabric<u32> = Fabric::new(1, CostModel::zero());
        let a = fabric.attach(0);
        let b = fabric.attach(0);
        a.send(b.id(), 1, 10).unwrap();
        a.send(b.id(), 2, 20).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().snapshot(), (2, 30, 0, 0));
        assert_eq!(b.stats().snapshot(), (0, 0, 2, 30));
    }

    #[test]
    fn node_of_reports_attachment() {
        let fabric: Fabric<u32> = Fabric::new(3, CostModel::zero());
        let a = fabric.attach(2);
        assert_eq!(fabric.node_of(a.id()), Some(2));
        assert_eq!(fabric.num_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn attach_to_missing_node_panics() {
        let fabric: Fabric<u32> = Fabric::new(2, CostModel::zero());
        let _ = fabric.attach(5);
    }

    #[test]
    fn notifier_fires_once_per_delivery() {
        use std::sync::atomic::AtomicUsize;
        let fabric: Fabric<u32> = Fabric::new(1, CostModel::zero());
        let a = fabric.attach(0);
        let b = fabric.attach(0);
        let rings = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&rings);
        b.set_notifier(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        a.send(b.id(), 1, 4).unwrap();
        a.send(b.id(), 2, 4).unwrap();
        assert_eq!(rings.load(Ordering::SeqCst), 2);
        assert_eq!(b.recv().unwrap().msg, 1);
        assert_eq!(b.recv().unwrap().msg, 2);
    }

    #[test]
    fn cross_thread_delivery() {
        let fabric: Fabric<Vec<u8>> = Fabric::new(2, CostModel::zero());
        let a = fabric.attach(0);
        let b = fabric.attach(1);
        let b_id = b.id();
        let sender = std::thread::spawn(move || {
            for i in 0..10u8 {
                a.send(b_id, vec![i; 8], 8).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(b.recv().unwrap().msg[0]);
        }
        sender.join().unwrap();
        assert_eq!(got, (0..10u8).collect::<Vec<_>>());
    }
}
