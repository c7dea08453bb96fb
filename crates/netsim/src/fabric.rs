//! The message fabric: endpoints, delivery, and the cost-charging send path.
//!
//! An inter-node send books its sending node's NIC ([`VirtualBus::reserve`])
//! and returns at once: the frame is queued stamped with its landing
//! ([`Delivery::at`]), and a receiver takes it only once it has landed.  An
//! intra-node send is a CPU copy, so it blocks for it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use dcgn_simtime::{channel, Charge, Clock, Deadline, Receiver, Sender, Stamp, VirtualBus};

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
    /// When the frame lands: the end of its booking on the sender's NIC.
    /// `None` for an intra-node frame, which is in place once queued.
    pub at: Option<Stamp>,
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
    /// The destination endpoint is detached (sends only).
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

/// Callback invoked (on the sender's thread) right after a message is queued
/// on an endpoint, before an inter-node frame has landed: a receiver woken
/// by it waits for [`Endpoint::first_landing`].
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
    /// blocks the *receiver's* thread, since the receive completes with the
    /// moved bytes — so a stream of chunks overlaps the sender's NIC time
    /// with the receiver's drain of earlier chunks, which a single
    /// monolithic frame never can.
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
    /// Create a fabric for `num_nodes` nodes whose sends book their cost on
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
        let (tx, rx) = channel();
        let notify = None;
        let mut endpoints = self.inner.endpoints.write().expect("fabric endpoints");
        endpoints.insert(id, EndpointEntry { node, tx, notify });
        drop(endpoints);
        Endpoint {
            id: EndpointId(id),
            node,
            fabric: self.clone(),
            rx,
        }
    }

    /// The node an endpoint is attached to, if it exists.
    pub fn node_of(&self, endpoint: EndpointId) -> Option<usize> {
        let endpoints = self.inner.endpoints.read().expect("fabric endpoints");
        endpoints.get(&endpoint.0).map(|e| e.node)
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
            let endpoints = self.inner.endpoints.read().expect("fabric endpoints");
            let entry = endpoints.get(&dst.0).ok_or(RecvError::Disconnected)?;
            (entry.node, entry.tx.clone(), entry.notify.clone())
        };
        self.inner.frames.inc();
        self.inner.frame_bytes.add(wire_bytes as u64);
        let clock = &self.inner.clock;
        let at = if dst_node == src_node {
            // Intra-node path: the sender's shared-memory copy, no NIC.
            let copy = clock.model().intra_node.transfer_time(wire_bytes);
            clock.charge(Charge::IntraNode, copy);
            None
        } else {
            // Inter-node path: the sending node's NIC sends the whole frame
            // (store-and-forward) while its CPU goes on; the frame lands
            // when its booking ends.
            Some(self.inner.nics[src_node].reserve(clock, clock.now(), wire_bytes))
        };
        tx.send(Delivery {
            src,
            wire_bytes,
            at,
            msg,
        })
        .map_err(|_| RecvError::Disconnected)?;
        if let Some(notify) = notify {
            notify();
        }
        Ok(())
    }

    /// Charge the receive-drain stage of `node` for `bytes` of a frame that
    /// `landed` then (bandwidth-only, serialised with other drains on the
    /// same node).  Higher layers call this on the *receiver's* thread when
    /// a large inbound frame must be moved out of the NIC's landing buffers
    /// (the rendezvous payload path); small eager frames are consumed in
    /// place and never drain.  The drain starts at the landing or when the
    /// stage comes free, whichever is later, not when the receiver gets to
    /// it, so the receiver waits only for what is left of it.  It lands the
    /// bytes in the buffer the receive completes with, so it is a rendezvous
    /// payload's only receive-side movement: no copy follows it.
    pub fn charge_rx_drain(&self, node: usize, bytes: usize, landed: Stamp) {
        self.inner.rx_drain_bytes.add(bytes as u64);
        self.inner.rx_drains[node].transfer(&self.inner.clock, landed, bytes);
    }

    /// Install (or replace) the delivery notifier of `endpoint`.  The
    /// callback runs on the *sender's* thread right after each message is
    /// queued, so a receiver that multiplexes several event sources can be
    /// woken instead of polling; it then waits for the frame to land
    /// ([`Endpoint::first_landing`]).
    pub fn set_notifier(&self, endpoint: EndpointId, notify: WakeNotifier) {
        let mut endpoints = self.inner.endpoints.write().expect("fabric endpoints");
        if let Some(entry) = endpoints.get_mut(&endpoint.0) {
            entry.notify = Some(notify);
        }
    }
}

impl<T> Fabric<T> {
    /// Detach an endpoint, closing its inbound queue (from its `Drop`).
    fn detach(&self, endpoint: EndpointId) {
        let mut endpoints = self
            .inner
            .endpoints
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        endpoints.remove(&endpoint.0);
    }
}

/// One attachment point on the fabric — roughly a queue pair on a NIC, or the
/// shared-memory mailbox of an MPI process.
pub struct Endpoint<T> {
    id: EndpointId,
    node: usize,
    fabric: Fabric<T>,
    rx: Receiver<Delivery<T>>,
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

    /// Send `msg` to `dst`, charging the cost of a `wire_bytes`-byte message
    /// (intra-node or inter-node, depending on where `dst` lives).  An
    /// intra-node send blocks for its copy; an inter-node one books the
    /// node's NIC and returns, and the frame lands when the booking ends.
    pub fn send(&self, dst: EndpointId, msg: T, wire_bytes: usize) -> Result<(), RecvError> {
        self.fabric
            .deliver(self.id, self.node, dst, msg, wire_bytes)
    }

    fn clock(&self) -> &Clock {
        &self.fabric.inner.clock
    }

    /// Account a taken frame's lateness past its landing in
    /// `model.overshoot_ns.network`.
    fn note_recv(&self, d: Delivery<T>) -> Delivery<T> {
        if let Some(at) = d.at {
            self.clock().late(Charge::Network, at);
        }
        d
    }

    /// Take the first frame in queue order that has landed.  One NIC
    /// serialises a source's frames, so they land in send order, and a
    /// frame from an idle NIC is not held behind a busy NIC's later one.
    fn take_landed(&self, queue: &mut VecDeque<(Stamp, Delivery<T>)>) -> Option<Delivery<T>> {
        let now = self.clock().now();
        let at = queue
            .iter()
            .position(|(_, d)| d.at.is_none_or(|at| at <= now))?;
        queue.remove(at).map(|(_, d)| d)
    }

    /// The earliest landing in `queue` (an intra-node frame's is now), or
    /// `None` if nothing is queued.
    fn first_landing_in(&self, queue: &VecDeque<(Stamp, Delivery<T>)>) -> Option<Stamp> {
        let now = self.clock().now();
        queue.iter().map(|(_, d)| d.at.unwrap_or(now)).min()
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Delivery<T>, RecvError> {
        self.recv_until(Deadline::NEVER)
    }

    /// Return a landed message if one is queued.
    pub fn try_recv(&self) -> Result<Delivery<T>, RecvError> {
        let d = self.rx.with_queue(|queue| self.take_landed(queue));
        Ok(self.note_recv(d.ok_or(RecvError::Empty)?))
    }

    /// Block until a message has landed or `deadline` passes.
    pub fn recv_until(&self, deadline: Deadline) -> Result<Delivery<T>, RecvError> {
        let clock = self.clock();
        loop {
            // Take a landed frame, or learn when the first queued one lands.
            let looked = self.rx.with_queue(|queue| {
                let taken = self.take_landed(queue);
                taken.ok_or_else(|| (queue.len(), self.first_landing_in(queue)))
            });
            let (queued, landing) = match looked {
                Ok(d) => return Ok(self.note_recv(d)),
                Err(_) if clock.passed(deadline) => return Err(RecvError::Timeout),
                Err(next) => next,
            };
            // Wait for that landing, or for a send, whose frame may land
            // sooner: then look again.  Only the look scans the queue.
            let landing = landing.map_or(Deadline::NEVER, Deadline::landing);
            let sent = |queue: &mut VecDeque<_>| (queue.len() != queued).then_some(());
            self.rx.recv_with(clock, deadline.min(landing), sent);
        }
    }

    /// When the first frame queued here lands (passed while a landed one is
    /// queued), or `None` if nothing is queued.
    pub fn first_landing(&self) -> Option<Stamp> {
        self.rx.with_queue(|queue| self.first_landing_in(queue))
    }

    /// Install a delivery notifier for this endpoint (see
    /// [`Fabric::set_notifier`]).
    pub fn set_notifier(&self, notify: WakeNotifier) {
        self.fabric.set_notifier(self.id, notify);
    }

    /// Charge this endpoint's node's receive-drain engine for `bytes` of a
    /// frame that `landed` then (see [`Fabric::charge_rx_drain`]).  Called
    /// on the receiving thread.
    pub fn charge_rx_drain(&self, bytes: usize, landed: Stamp) {
        self.fabric.charge_rx_drain(self.node, bytes, landed);
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
    use std::time::Duration;

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
            far.charge_rx_drain(w, fabric.clock().now());
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
        let us = Duration::from_micros;
        let mut cost = CostModel::zero();
        cost.network = dcgn_simtime::LinkCost::from_us_and_mbps(400, 1e9);
        cost.intra_node = dcgn_simtime::LinkCost::from_us_and_mbps(400, 1e9);
        let fabric: Fabric<u32> = Fabric::new(2, cost);
        let clock = fabric.clock().clone();
        let a = fabric.attach(0);
        let b = fabric.attach(1);
        // The NIC sends while the sender goes on: two frames book it back
        // to back, and neither send waits for the wire.
        let (start, early) = (clock.now(), clock.deadline(us(200)));
        a.send(b.id(), 1, 0).unwrap();
        a.send(b.id(), 2, 0).unwrap();
        assert!(clock.elapsed(start) < us(400));
        // Nothing has landed halfway through the first frame's wire time;
        // each frame lands a wire time after the one before it.
        assert_eq!(b.recv_until(early).unwrap_err(), RecvError::Timeout);
        assert_eq!(b.recv().unwrap().msg, 1);
        assert!(clock.elapsed(start) >= us(400));
        assert_eq!(b.recv().unwrap().msg, 2);
        assert!(clock.elapsed(start) >= us(800));
        // An intra-node send blocks for its copy, and its frame is in place
        // once the send returns.
        let c = fabric.attach(0);
        let start = clock.now();
        a.send(c.id(), 3, 0).unwrap();
        assert!(clock.elapsed(start) >= us(400));
        assert_eq!(c.try_recv().unwrap().msg, 3);
    }

    #[test]
    fn frames_are_taken_as_they_land_and_in_order_per_source() {
        let mut cost = CostModel::zero();
        cost.network = dcgn_simtime::LinkCost::from_us_and_mbps(10_000, 1e9);
        let fabric: Fabric<(char, u32)> = Fabric::new(3, cost);
        let (busy, idle, dst) = (fabric.attach(0), fabric.attach(1), fabric.attach(2));
        // The busy NIC's three frames land 10, 20 and 30 ms in; the idle
        // NIC's one, queued behind all three, lands just after the first.
        for seq in 0..3 {
            busy.send(dst.id(), ('b', seq), 0).unwrap();
        }
        idle.send(dst.id(), ('i', 0), 0).unwrap();
        assert_eq!(dst.try_recv().unwrap_err(), RecvError::Empty);
        let taken: Vec<_> = (0..4).map(|_| dst.recv().unwrap().msg).collect();
        assert_eq!(taken, [('b', 0), ('i', 0), ('b', 1), ('b', 2)]);
    }

    #[test]
    fn a_flood_of_frames_drains_in_order_as_they_land() {
        // Ten thousand sends book the NIC 10 ms ahead at once, so the
        // receiver's queue is that deep: each take still looks at the queue
        // head first, and scans the whole queue only when nothing landed.
        let mut cost = CostModel::zero();
        cost.network = dcgn_simtime::LinkCost::from_us_and_mbps(1, 1e9);
        let fabric: Fabric<u32> = Fabric::new(2, cost);
        let clock = fabric.clock().clone();
        let (a, b) = (fabric.attach(0), fabric.attach(1));
        let start = clock.now();
        for seq in 0..10_000 {
            a.send(b.id(), seq, 0).unwrap();
        }
        for seq in 0..10_000 {
            assert_eq!(b.recv().unwrap().msg, seq);
        }
        // The NIC's 10 ms, with room for a loaded test host: a wait that
        // scans the whole queue on every poll takes seconds.
        assert!(clock.elapsed(start) < Duration::from_millis(500));
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
