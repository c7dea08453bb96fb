//! The hardware cost model.
//!
//! Every simulated component (PCI-e bus, NIC/fabric, intra-node loopback,
//! kernel launch path, DCGN's internal work queues and its sleep-based
//! polling loop) looks up its latency/bandwidth parameters here.  The model
//! is deliberately simple — `latency + bytes / bandwidth` per transfer — which
//! is the same first-order model the paper reasons with when explaining why
//! small GPU-sourced messages are hundreds of times slower than MVAPICH2
//! while megabyte transfers approach parity.

use std::time::Duration;

/// Latency/bandwidth description of one link or bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCost {
    /// Fixed per-transfer latency.
    pub latency: Duration,
    /// Sustained bandwidth in bytes per second.  `f64::INFINITY` disables the
    /// size-dependent term.
    pub bandwidth_bytes_per_sec: f64,
}

impl LinkCost {
    /// A link with no cost at all (used by unit tests).
    pub const fn free() -> Self {
        LinkCost {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Construct a link cost from a latency in microseconds and a bandwidth
    /// in MB/s (decimal megabytes, matching how interconnect datasheets are
    /// quoted).
    pub fn from_us_and_mbps(latency_us: u64, bandwidth_mb_per_sec: f64) -> Self {
        LinkCost {
            latency: Duration::from_micros(latency_us),
            bandwidth_bytes_per_sec: bandwidth_mb_per_sec * 1.0e6,
        }
    }

    /// Time needed to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if bytes == 0 || !self.bandwidth_bytes_per_sec.is_finite() {
            return self.latency;
        }
        let secs = bytes as f64 / self.bandwidth_bytes_per_sec;
        self.latency + Duration::from_secs_f64(secs)
    }

    /// This link with the fixed per-transfer latency stripped, keeping only
    /// the size-proportional term.  Models a second pipeline stage sharing
    /// the link's sustained bandwidth (e.g. the receive-side drain engine of
    /// a NIC) without double-charging the setup latency the first stage
    /// already paid.
    pub fn bandwidth_only(self) -> LinkCost {
        LinkCost {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec,
        }
    }
}

/// The complete cost model for a simulated DCGN deployment.
///
/// The `g92_cluster` preset approximates the paper's testbed: G92 GPUs on
/// PCI-e 1.1 x16, DDR Infiniband between nodes, MVAPICH2-style intra-node
/// shared-memory transfers, and a polling interval in the low hundreds of
/// microseconds (the paper's "sleep-based polling system").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Host ↔ device transfers over PCI-e (each direction, each transfer).
    pub pcie: LinkCost,
    /// Inter-node transfers over the fabric (per message).
    pub network: LinkCost,
    /// Intra-node transfers (shared memory / loopback path).
    pub intra_node: LinkCost,
    /// Fixed cost of launching a kernel on the device.
    pub kernel_launch: Duration,
    /// Fixed cost of one crossing of an internal DCGN work queue
    /// (CPU-kernel thread → comm thread, comm thread → GPU thread, …): one
    /// hop per crossing, everything queued when the consumer drains, due one
    /// hop after the crossing's first work item was queued and paid once, by
    /// the consumer's [`crate::channel::Receiver::drain`]; a post costs the
    /// producer nothing modelled.
    pub queue_hop: Duration,
    /// Sleep interval of the GPU-kernel thread's polling loop.
    pub poll_interval: Duration,
    /// Eager/rendezvous protocol threshold used by the MPI substrate, in
    /// bytes.  Messages at or below this size are sent eagerly.
    pub eager_threshold: usize,
}

impl CostModel {
    /// A model with no injected delays; used throughout the unit and
    /// integration test suites so that functional tests run quickly.
    pub fn zero() -> Self {
        CostModel {
            pcie: LinkCost::free(),
            network: LinkCost::free(),
            intra_node: LinkCost::free(),
            kernel_launch: Duration::ZERO,
            queue_hop: Duration::ZERO,
            poll_interval: Duration::from_micros(20),
            eager_threshold: 64 * 1024,
        }
    }

    /// Parameters approximating the paper's four-node G92/Infiniband cluster.
    ///
    /// * PCI-e: 15 µs per transfer, ~1.5 GB/s effective.
    /// * Infiniband (DDR, MVAPICH2): 3 µs latency, ~1.4 GB/s.
    /// * Intra-node shared memory: 0.8 µs, ~2.5 GB/s.
    /// * Kernel launch: 12 µs.
    /// * Work-queue hop: 6 µs (thread-safe queue + wakeup), one per crossing
    ///   (everything queued when the consumer drains), due one hop after the
    ///   crossing's first work item was queued; a post costs nothing.
    /// * Polling interval: 200 µs.
    pub fn g92_cluster() -> Self {
        CostModel {
            pcie: LinkCost::from_us_and_mbps(15, 1500.0),
            network: LinkCost::from_us_and_mbps(3, 1400.0),
            intra_node: LinkCost::from_us_and_mbps(1, 2500.0),
            kernel_launch: Duration::from_micros(12),
            queue_hop: Duration::from_micros(6),
            poll_interval: Duration::from_micros(200),
            eager_threshold: 64 * 1024,
        }
    }

    /// The `g92_cluster` model with every delay scaled down by `factor`,
    /// keeping all ratios intact.  Used to run the full benchmark sweeps in a
    /// CI-friendly amount of time.
    pub fn g92_scaled(factor: f64) -> Self {
        let scale = |l: LinkCost| LinkCost {
            latency: l.latency.div_f64(factor),
            bandwidth_bytes_per_sec: l.bandwidth_bytes_per_sec * factor,
        };
        let base = Self::g92_cluster();
        CostModel {
            pcie: scale(base.pcie),
            network: scale(base.network),
            intra_node: scale(base.intra_node),
            kernel_launch: base.kernel_launch.div_f64(factor),
            queue_hop: base.queue_hop.div_f64(factor),
            poll_interval: base.poll_interval.div_f64(factor),
            eager_threshold: base.eager_threshold,
        }
    }

    /// A reduced-delay model for fast functional benchmarking (ratios
    /// preserved, absolute times ~4x smaller than `g92_cluster`).
    pub fn fast() -> Self {
        Self::g92_scaled(4.0)
    }

    /// Replace the polling interval (builder-style helper).
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Replace the eager/rendezvous threshold (builder-style helper).
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = bytes;
        self
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_link_has_no_cost() {
        let l = LinkCost::free();
        assert_eq!(l.transfer_time(0), Duration::ZERO);
        assert_eq!(l.transfer_time(1 << 20), Duration::ZERO);
    }

    #[test]
    fn bandwidth_only_strips_latency_but_keeps_the_rate() {
        let l = LinkCost::from_us_and_mbps(10, 1000.0).bandwidth_only();
        assert_eq!(l.latency, Duration::ZERO);
        assert_eq!(l.transfer_time(1_000_000), Duration::from_millis(1));
        // A free link stays free: no bandwidth term appears from nowhere.
        assert_eq!(LinkCost::free().bandwidth_only(), LinkCost::free());
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let l = LinkCost::from_us_and_mbps(10, 1000.0); // 1 GB/s
        let small = l.transfer_time(0);
        let large = l.transfer_time(1_000_000); // 1 ms of bandwidth time
        assert_eq!(small, Duration::from_micros(10));
        assert_eq!(large, Duration::from_micros(10) + Duration::from_millis(1));
    }

    #[test]
    fn zero_model_is_free_everywhere() {
        let m = CostModel::zero();
        for link in [m.pcie, m.network, m.intra_node] {
            assert_eq!(link, LinkCost::free());
        }
        assert_eq!(m.kernel_launch, Duration::ZERO);
        assert_eq!(m.queue_hop, Duration::ZERO);
    }

    #[test]
    fn g92_cluster_orders_latencies_sensibly() {
        let m = CostModel::g92_cluster();
        // PCI-e per-transfer latency dominates the network latency, which in
        // turn dominates the intra-node path — this ordering is what produces
        // the paper's overhead hierarchy.
        assert!(m.pcie.latency > m.network.latency);
        assert!(m.network.latency > m.intra_node.latency);
        assert!(m.poll_interval > m.pcie.latency);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let base = CostModel::g92_cluster();
        let fast = CostModel::g92_scaled(4.0);
        let r = base.pcie.latency.as_secs_f64() / fast.pcie.latency.as_secs_f64();
        assert!((r - 4.0).abs() < 1e-9);
        let r = base.poll_interval.as_secs_f64() / fast.poll_interval.as_secs_f64();
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn builder_helpers_override_fields() {
        let m = CostModel::zero()
            .with_poll_interval(Duration::from_micros(5))
            .with_eager_threshold(128);
        assert_eq!(m.poll_interval, Duration::from_micros(5));
        assert_eq!(m.eager_threshold, 128);
    }
}
