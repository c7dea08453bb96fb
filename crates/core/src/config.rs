//! Job configuration: how many CPU-kernel threads, GPUs, and slots per GPU
//! each node contributes, plus the hardware cost model.

use std::time::Duration;

use dcgn_dpm::DeviceConfig;
use dcgn_metrics::MetricsHandle;
use dcgn_simtime::CostModel;

use crate::error::{DcgnError, Result};

pub use dcgn_rmpi::exchange::ExchangePlan;

/// Per-node resource request, mirroring the paper's example of "two CPU-kernel
/// threads per node and two GPU-kernel threads per node".
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Number of CPU-kernel threads (each is one DCGN rank).
    pub cpu_kernel_threads: usize,
    /// Number of GPUs controlled by this node.
    pub gpus: usize,
    /// Number of slots each GPU is virtualised into (each slot is one DCGN
    /// rank).
    pub slots_per_gpu: usize,
    /// Configuration of the simulated device backing each GPU.
    pub device: DeviceConfig,
}

impl NodeConfig {
    /// A node with `cpus` CPU-kernel threads and `gpus` GPUs of `slots` slots
    /// each.
    pub fn new(cpus: usize, gpus: usize, slots: usize) -> Self {
        NodeConfig {
            cpu_kernel_threads: cpus,
            gpus,
            slots_per_gpu: slots,
            device: DeviceConfig::default(),
        }
    }

    /// Number of DCGN ranks this node contributes: `Cn + Gn × Sn`.
    pub fn ranks(&self) -> usize {
        self.cpu_kernel_threads + self.gpus * self.slots_per_gpu
    }

    /// Builder-style override of the simulated device configuration.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }
}

const ENV_FORCE_PLAN: &str = "DCGN_FORCE_PLAN";

/// Interpret the value of `DCGN_FORCE_PLAN` (`None` = unset): an
/// unrecognised spelling is an [`DcgnError::InvalidConfig`] naming the value.
fn parse_forced_plan(value: Option<&str>) -> Result<Option<ExchangePlan>> {
    value
        .map(|v| {
            ExchangePlan::parse(v).ok_or_else(|| {
                DcgnError::InvalidConfig(format!(
                    "{ENV_FORCE_PLAN}={v:?} is not an exchange plan (star, tree, rd, ring)"
                ))
            })
        })
        .transpose()
}

/// Complete description of a DCGN job.
#[derive(Debug, Clone)]
pub struct DcgnConfig {
    /// Per-node resource requests.
    pub nodes: Vec<NodeConfig>,
    /// Hardware cost model (PCI-e, network, polling interval, …).
    pub cost: CostModel,
    /// Number of blocks launched for each GPU kernel.  Defaults to the number
    /// of slots so that block *b* naturally drives slot *b*; applications
    /// with different geometry can override it.
    pub gpu_grid_blocks: Option<usize>,
    /// Number of logical threads per GPU block.
    pub gpu_block_threads: usize,
    /// Nonblocking completion records per GPU mailbox slot — how many
    /// `isend`/`irecv` requests one slot can have outstanding at once (each
    /// slot carries one more record, reserved for its blocking calls).
    /// Defaults to [`crate::gpu::MAILBOX_REQS_PER_SLOT`]; a kernel
    /// publishing past this depth without harvesting faults cleanly instead
    /// of deadlocking.
    pub mailbox_reqs_per_slot: usize,
    /// Force one exchange plan for every collective instead of letting the
    /// engine pick per `(op, payload size, node count)`.  `None` (the
    /// default) uses the selection table; the `DCGN_FORCE_PLAN` environment
    /// variable provides the same override without code changes.
    pub exchange_plan: Option<ExchangePlan>,
    /// Metrics registry the runtime reports into.  Defaults to the
    /// process-wide [`dcgn_metrics::global`] registry; tests that need
    /// isolated counters install their own via
    /// [`DcgnConfig::with_metrics`], and [`MetricsHandle::disabled`] opts
    /// out of instrumentation entirely.
    pub metrics: MetricsHandle,
}

impl DcgnConfig {
    /// A homogeneous cluster: `num_nodes` nodes, each with `cpus` CPU-kernel
    /// threads and `gpus` GPUs virtualised into `slots` slots.
    pub fn homogeneous(num_nodes: usize, cpus: usize, gpus: usize, slots: usize) -> Self {
        Self::heterogeneous(vec![NodeConfig::new(cpus, gpus, slots); num_nodes])
    }

    /// An explicitly heterogeneous cluster.
    pub fn heterogeneous(nodes: Vec<NodeConfig>) -> Self {
        DcgnConfig {
            nodes,
            cost: CostModel::zero(),
            gpu_grid_blocks: None,
            gpu_block_threads: 32,
            mailbox_reqs_per_slot: crate::gpu::MAILBOX_REQS_PER_SLOT,
            exchange_plan: None,
            metrics: dcgn_metrics::global().clone(),
        }
    }

    /// Builder-style override of the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style override of the GPU polling interval.
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.cost.poll_interval = interval;
        self
    }

    /// Builder-style override of GPU kernel launch geometry.
    pub fn with_gpu_geometry(mut self, grid_blocks: usize, block_threads: usize) -> Self {
        self.gpu_grid_blocks = Some(grid_blocks);
        self.gpu_block_threads = block_threads;
        self
    }

    /// Builder-style override of the per-slot nonblocking-request depth (the
    /// number of completion records each GPU mailbox slot carries next to
    /// the one reserved for blocking calls).  Depth 1
    /// still works — a kernel that publishes a second `isend`/`irecv`
    /// without harvesting the first faults cleanly instead of deadlocking.
    pub fn with_mailbox_depth(mut self, reqs_per_slot: usize) -> Self {
        self.mailbox_reqs_per_slot = reqs_per_slot;
        self
    }

    /// Builder-style forcing of one exchange plan for every collective (the
    /// programmatic twin of `DCGN_FORCE_PLAN`).
    pub fn with_exchange_plan(mut self, plan: ExchangePlan) -> Self {
        self.exchange_plan = Some(plan);
        self
    }

    /// The plan override in force for this job, if any: an explicit
    /// [`DcgnConfig::exchange_plan`] wins over the `DCGN_FORCE_PLAN`
    /// environment variable.
    pub fn forced_exchange_plan(&self) -> Option<ExchangePlan> {
        self.exchange_plan
            .or_else(|| parse_forced_plan(std::env::var(ENV_FORCE_PLAN).ok().as_deref()).ok()?)
    }

    /// The transfer-protocol configuration this job runs with: defaults from
    /// the cost model, adjusted by the `DCGN_EAGER_THRESHOLD` /
    /// `DCGN_RDV_CHUNK` / `DCGN_RDV_WINDOW` environment variables.
    pub fn resolved_rdv_config(&self) -> dcgn_rmpi::RdvConfig {
        // An unparsable variable is reported by `validate`; here it only
        // means "no environment overrides".
        let eager = self.cost.eager_threshold;
        dcgn_rmpi::RdvConfig::from_env(eager).unwrap_or_else(|_| dcgn_rmpi::RdvConfig::new(eager))
    }

    /// Builder-style override of the metrics registry (e.g. an isolated
    /// [`MetricsHandle::new`] for tests, or [`MetricsHandle::disabled`] to
    /// turn instrumentation off).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builder-style override of the simulated device used on every node.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        for node in &mut self.nodes {
            node.device = device.clone();
        }
        self
    }

    /// Number of nodes in the job.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of DCGN ranks across the job.
    pub fn total_ranks(&self) -> usize {
        self.nodes.iter().map(NodeConfig::ranks).sum()
    }

    /// Validate the configuration before launch.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(DcgnError::InvalidConfig("job has no nodes".into()));
        }
        if self.total_ranks() == 0 {
            return Err(DcgnError::InvalidConfig(
                "job has no ranks (no CPU-kernel threads and no GPU slots)".into(),
            ));
        }
        if self.mailbox_reqs_per_slot == 0 {
            return Err(DcgnError::InvalidConfig(
                "mailbox_reqs_per_slot must be at least 1".into(),
            ));
        }
        // A misspelt environment override fails the job instead of silently
        // running (and soak-testing) the defaults.
        if self.exchange_plan.is_none() {
            parse_forced_plan(std::env::var(ENV_FORCE_PLAN).ok().as_deref())?;
        }
        if let Err(e) =
            dcgn_rmpi::RdvConfig::from_env(self.cost.eager_threshold).and_then(|rdv| rdv.validate())
        {
            return Err(DcgnError::InvalidConfig(e.to_string()));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.gpus > 0 && node.slots_per_gpu == 0 {
                return Err(DcgnError::InvalidConfig(format!(
                    "node {i} requests {} GPUs with zero slots; every GPU needs at least one slot",
                    node.gpus
                )));
            }
            if node.gpus > 0 {
                // The paper bounds slots by the number of concurrently
                // executing threads; we bound by the device's resident-block
                // capacity so that one block per slot can always be resident.
                let max_slots = node.device.num_multiprocessors;
                if node.slots_per_gpu > max_slots {
                    return Err(DcgnError::InvalidConfig(format!(
                        "node {i} requests {} slots per GPU but the device can only keep {max_slots} blocks resident",
                        node.slots_per_gpu
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_rank_formula_matches_paper() {
        // Cn + Gn * Sn
        assert_eq!(NodeConfig::new(2, 2, 1).ranks(), 4);
        assert_eq!(NodeConfig::new(0, 2, 4).ranks(), 8);
        assert_eq!(NodeConfig::new(3, 0, 0).ranks(), 3);
    }

    #[test]
    fn homogeneous_cluster_totals() {
        let cfg = DcgnConfig::homogeneous(4, 2, 2, 1);
        assert_eq!(cfg.num_nodes(), 4);
        assert_eq!(cfg.total_ranks(), 16);
        cfg.validate().unwrap();
    }

    #[test]
    fn empty_job_is_rejected() {
        let cfg = DcgnConfig::heterogeneous(vec![]);
        assert!(cfg.validate().is_err());
        let cfg = DcgnConfig::homogeneous(2, 0, 0, 0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn gpu_without_slots_is_rejected() {
        let cfg = DcgnConfig::heterogeneous(vec![NodeConfig::new(1, 1, 0)]);
        assert!(matches!(cfg.validate(), Err(DcgnError::InvalidConfig(_))));
    }

    #[test]
    fn too_many_slots_for_device_is_rejected() {
        let device = DeviceConfig::default().with_multiprocessors(2);
        let cfg = DcgnConfig::heterogeneous(vec![NodeConfig::new(0, 1, 8).with_device(device)]);
        assert!(matches!(cfg.validate(), Err(DcgnError::InvalidConfig(_))));
    }

    #[test]
    fn builders_compose() {
        let cfg = DcgnConfig::homogeneous(1, 1, 1, 1)
            .with_cost(CostModel::g92_cluster())
            .with_poll_interval(Duration::from_micros(50))
            .with_gpu_geometry(4, 64);
        assert_eq!(cfg.cost.poll_interval, Duration::from_micros(50));
        assert_eq!(cfg.gpu_grid_blocks, Some(4));
        assert_eq!(cfg.gpu_block_threads, 64);
    }

    #[test]
    fn rdv_knobs_resolve_and_validate() {
        let cfg = DcgnConfig::homogeneous(2, 1, 0, 0)
            .with_cost(CostModel::zero().with_eager_threshold(1024));
        // Defaults flow from the cost model unless the suite runs under the
        // DCGN_* environment overrides (as one CI pass deliberately does).
        let env = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        let rdv = cfg.resolved_rdv_config();
        assert_eq!(rdv.eager_threshold, env("DCGN_EAGER_THRESHOLD", 1024));
        assert_eq!(
            rdv.chunk_bytes,
            env("DCGN_RDV_CHUNK", dcgn_rmpi::DEFAULT_RDV_CHUNK)
        );
        assert_eq!(
            rdv.window,
            env("DCGN_RDV_WINDOW", dcgn_rmpi::DEFAULT_RDV_WINDOW)
        );
        cfg.validate().unwrap();
    }

    #[test]
    fn exchange_plan_parses_and_overrides() {
        assert_eq!(ExchangePlan::parse("star"), Some(ExchangePlan::Star));
        assert_eq!(ExchangePlan::parse("TREE"), Some(ExchangePlan::Tree));
        assert_eq!(
            ExchangePlan::parse("rd"),
            Some(ExchangePlan::RecursiveDoubling)
        );
        assert_eq!(ExchangePlan::parse(" ring "), Some(ExchangePlan::Ring));
        assert_eq!(ExchangePlan::parse("bogus"), None);
        // A misspelt DCGN_FORCE_PLAN is a configuration error naming the
        // variable and the value; unset or well-spelt values pass through.
        assert_eq!(parse_forced_plan(None).unwrap(), None);
        assert_eq!(
            parse_forced_plan(Some("ring")).unwrap(),
            Some(ExchangePlan::Ring)
        );
        match parse_forced_plan(Some("treee")) {
            Err(DcgnError::InvalidConfig(msg)) => {
                assert!(msg.contains("DCGN_FORCE_PLAN") && msg.contains("\"treee\""));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let cfg = DcgnConfig::homogeneous(2, 1, 0, 0);
        assert_eq!(cfg.exchange_plan, None);
        let cfg = cfg.with_exchange_plan(ExchangePlan::Tree);
        assert_eq!(cfg.forced_exchange_plan(), Some(ExchangePlan::Tree));
    }
}
