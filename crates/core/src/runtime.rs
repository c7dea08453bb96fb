//! Job launch and thread orchestration.
//!
//! [`Runtime::launch`] builds the simulated cluster, spawns one communication
//! thread per node, one CPU-kernel thread per requested CPU rank and one
//! GPU-kernel thread per requested GPU (which in turn launches the device
//! kernel and polls its mailboxes), runs the user's kernels to completion and
//! tears everything down.

use std::sync::Arc;
use std::time::Duration;

use dcgn_dpm::{Device, Dim, DmaMetrics};
use dcgn_metrics::MetricsSnapshot;
use dcgn_netsim::Cluster;
use dcgn_rmpi::{MpiWorld, RankPlacement};
use dcgn_simtime::{channel, Clock, Sender};

use crate::comm_thread::CommThread;
use crate::config::DcgnConfig;
use crate::cpu::CpuCtx;
use crate::error::{DcgnError, Result};
use crate::gpu::{GpuCtx, GpuKernelThread, GpuLayout, GpuPollStats, GpuSetupCtx, GpuThreadMetrics};
use crate::message::{CommCommand, Inbox};
use crate::rank::RankMap;

/// Default time a kernel thread will wait for a single communication request
/// to complete before giving up (guards tests against silent hangs).
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

/// Summary of a completed launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Wall-clock duration of the launch (kernel start to full teardown).
    pub elapsed: Duration,
    /// Polling statistics of every GPU-kernel thread.
    pub gpu_poll_stats: Vec<GpuPollStats>,
}

/// A configured DCGN job, ready to launch kernels.
pub struct Runtime {
    config: DcgnConfig,
    rank_map: Arc<RankMap>,
    request_timeout: Duration,
}

/// Type of the CPU kernel entry point.
pub type CpuKernel = dyn Fn(&CpuCtx) + Send + Sync;

impl Runtime {
    /// Validate `config` and build the rank map.
    pub fn new(config: DcgnConfig) -> Result<Self> {
        config.validate()?;
        let rank_map = Arc::new(RankMap::new(&config));
        Ok(Runtime {
            config,
            rank_map,
            request_timeout: DEFAULT_REQUEST_TIMEOUT,
        })
    }

    /// The job's rank assignment.
    pub fn rank_map(&self) -> &RankMap {
        &self.rank_map
    }

    /// The job's configuration.
    pub fn config(&self) -> &DcgnConfig {
        &self.config
    }

    /// Override the per-request timeout (useful in failure-injection tests).
    pub fn set_request_timeout(&mut self, timeout: Duration) {
        self.request_timeout = timeout;
    }

    /// A point-in-time snapshot of the runtime's metrics registry (the one
    /// from [`DcgnConfig::metrics`], by default the process-global registry).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.config.metrics.snapshot()
    }

    /// Launch a job whose ranks are all CPU-kernel threads.
    pub fn launch_cpu_only<C>(&self, cpu_kernel: C) -> Result<LaunchReport>
    where
        C: Fn(&CpuCtx) + Send + Sync + 'static,
    {
        self.launch(cpu_kernel, |_ctx: &GpuCtx| {})
    }

    /// Launch a job whose ranks are all GPU slots.
    pub fn launch_gpu_only<G>(&self, gpu_kernel: G) -> Result<LaunchReport>
    where
        G: Fn(&GpuCtx) + Send + Sync + 'static,
    {
        self.launch(|_ctx: &CpuCtx| {}, gpu_kernel)
    }

    /// Launch the job: run `cpu_kernel` on every CPU rank and `gpu_kernel` on
    /// every GPU (once per block of the device launch), wiring all of them to
    /// the per-node communication threads.
    pub fn launch<C, G>(&self, cpu_kernel: C, gpu_kernel: G) -> Result<LaunchReport>
    where
        C: Fn(&CpuCtx) + Send + Sync + 'static,
        G: Fn(&GpuCtx) + Send + Sync + 'static,
    {
        self.launch_with_gpu_setup(
            cpu_kernel,
            |_setup| (),
            move |ctx, _state: &()| gpu_kernel(ctx),
            |_setup, _state| (),
        )
    }

    /// Launch with explicit GPU memory management hooks.
    ///
    /// Per GPU, `gpu_setup` runs on the GPU-kernel thread before the kernel
    /// launches (allocate device buffers, stage input data) and returns a
    /// state value; `gpu_kernel` runs once per device block with that state;
    /// `gpu_finish` runs after the kernel retires and all communication has
    /// drained (read back results, free buffers).
    pub fn launch_with_gpu_setup<C, S, G, F, T>(
        &self,
        cpu_kernel: C,
        gpu_setup: S,
        gpu_kernel: G,
        gpu_finish: F,
    ) -> Result<LaunchReport>
    where
        C: Fn(&CpuCtx) + Send + Sync + 'static,
        S: Fn(&GpuSetupCtx) -> T + Send + Sync + 'static,
        G: Fn(&GpuCtx, &T) + Send + Sync + 'static,
        F: Fn(&GpuSetupCtx, &T) + Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        let metrics = self.config.metrics.clone();
        // The one clock every layer of this launch reads, waits and charges
        // on, its cost ledger in the job's registry.
        let clock = Clock::new(self.config.cost, &metrics);
        let started = clock.now();
        let num_nodes = self.config.num_nodes();
        let rank_map = Arc::clone(&self.rank_map);
        let cpu_kernel: Arc<CpuKernel> = Arc::new(cpu_kernel);
        let gpu_setup = Arc::new(gpu_setup);
        let gpu_kernel = Arc::new(gpu_kernel);
        let gpu_finish = Arc::new(gpu_finish);

        // One MPI rank per node, driven exclusively by that node's
        // communication thread.  The transfer protocol (eager threshold,
        // streaming chunk size and credit window) comes from the job config
        // with environment overrides already resolved; `DcgnConfig::validate`
        // vetted it, but a runtime-constructed config could skip that, so
        // surface the validation error here as well.
        let cluster: Cluster<dcgn_rmpi::Packet> = Cluster::new(num_nodes, clock.clone());
        let placement = RankPlacement::explicit((0..num_nodes).collect());
        let node_comms =
            MpiWorld::create_on_with(&cluster, &placement, self.config.resolved_rdv_config())
                .map_err(|e| crate::error::DcgnError::InvalidConfig(e.to_string()))?;

        // Per-node work queues.
        let forced_plan = self.config.forced_exchange_plan();
        let (work_txs, work_rxs): (Vec<Sender<CommCommand>>, Vec<_>) =
            (0..num_nodes).map(|_| channel()).unzip();

        // Kernel threads (CPU ranks and GPU controllers), set up in full —
        // every step that can fail — before the first thread is spawned.
        let mut kernels: Vec<(String, KernelJob)> = Vec::new();
        for (node, node_cfg) in self.config.nodes.iter().enumerate() {
            // CPU-kernel threads.
            for cpu_index in 0..node_cfg.cpu_kernel_threads {
                let rank = self
                    .rank_map
                    .cpu_rank(node, cpu_index)
                    .ok_or_else(|| DcgnError::Internal("missing CPU rank".into()))?;
                let ctx = CpuCtx::new(
                    rank,
                    Arc::clone(&rank_map),
                    work_txs[node].clone(),
                    clock.clone(),
                    self.request_timeout,
                    metrics.clone(),
                );
                let kernel = Arc::clone(&cpu_kernel);
                kernels.push((
                    format!("dcgn-cpu-n{node}-k{cpu_index}"),
                    Box::new(move || {
                        kernel(&ctx);
                        Ok(None)
                    }),
                ));
            }

            // GPU-kernel threads (one per GPU).
            for gpu_index in 0..node_cfg.gpus {
                let dma = DmaMetrics {
                    dtoh: metrics.counter(&format!("dma.dtoh.node{node}")),
                    htod: metrics.counter(&format!("dma.htod.node{node}")),
                    scattered: metrics.counter(&format!("dma.scattered.node{node}")),
                };
                let device = Device::new_with_metrics(
                    node * 16 + gpu_index,
                    node_cfg.device.clone(),
                    clock.clone(),
                    dma,
                );
                let slots = node_cfg.slots_per_gpu;
                let reqs_per_slot = self.config.mailbox_reqs_per_slot;
                let mailbox_base =
                    GpuKernelThread::allocate_mailboxes(&device, slots, reqs_per_slot)?;
                let slot_rank_base = self
                    .rank_map
                    .gpu_slot_rank(node, gpu_index, 0)
                    .ok_or_else(|| DcgnError::Internal("missing GPU slot rank".into()))?;
                let layout = GpuLayout {
                    node,
                    gpu_index,
                    slots,
                    reqs_per_slot,
                    slot_rank_base,
                    total_ranks: rank_map.total_ranks(),
                    mailbox_base,
                    memory_bytes: device.memory_capacity(),
                    request_timeout: self.request_timeout,
                };
                let grid_blocks = self.config.gpu_grid_blocks.unwrap_or(slots).max(1);
                let block_threads = self.config.gpu_block_threads.max(1);
                let gpu_thread = GpuKernelThread {
                    device: Arc::clone(&device),
                    layout: layout.clone(),
                    work_tx: work_txs[node].clone(),
                    clock: clock.clone(),
                    metrics: GpuThreadMetrics::new(&metrics, node, gpu_index),
                    inbox: Inbox::new(),
                    region: Default::default(),
                    found: Default::default(),
                };
                let setup = Arc::clone(&gpu_setup);
                let kernel = Arc::clone(&gpu_kernel);
                let finish = Arc::clone(&gpu_finish);
                kernels.push((
                    format!("dcgn-gpu-n{node}-g{gpu_index}"),
                    Box::new(move || {
                        // Stage device memory on the GPU-kernel thread
                        // before the kernel launches (the CPU manages all
                        // GPU memory, as in CUDA).
                        let setup_ctx = GpuSetupCtx {
                            device: &gpu_thread.device,
                            layout: &layout,
                        };
                        let state = Arc::new(setup(&setup_ctx));
                        // Launch the device kernel: every block receives a
                        // GpuCtx wired to this GPU's mailboxes.
                        let launch_layout = layout.clone();
                        let kernel_state = Arc::clone(&state);
                        let handle = gpu_thread.device.launch(
                            Dim::d1(grid_blocks),
                            Dim::d1(block_threads),
                            move |block| {
                                let ctx = GpuCtx::new(block, &launch_layout);
                                kernel(&ctx, &kernel_state);
                            },
                        );
                        // Poll the device until the kernel retires.
                        let stats = gpu_thread.run(&handle)?;
                        handle
                            .wait()
                            .map_err(|e| DcgnError::Device(e.to_string()))?;
                        // Read results back / release buffers.
                        finish(&setup_ctx, &state);
                        Ok(Some(stats))
                    }),
                ));
            }
        }

        // Spawn the comm threads, then the kernel threads.  From here on
        // every exit path joins every thread spawned.
        let mut comm_threads = Vec::with_capacity(num_nodes);
        let mut kernel_threads = Vec::with_capacity(kernels.len());
        let spawned = (|| -> Result<()> {
            for (node, (comm, rx)) in node_comms.into_iter().zip(work_rxs).enumerate() {
                let tx = work_txs[node].clone();
                let (rank_map, metrics, clock) =
                    (Arc::clone(&rank_map), metrics.clone(), clock.clone());
                comm_threads.push(spawn(format!("dcgn-comm-node{node}"), move || {
                    CommThread::new(node, rank_map, comm, rx, tx, clock, forced_plan, &metrics)?
                        .run()
                })?);
            }
            for (name, job) in kernels {
                kernel_threads.push(spawn(name, job)?);
            }
            Ok(())
        })();

        // Wait for every kernel thread, collecting GPU poll statistics and
        // the first failure (if any).
        let mut gpu_poll_stats = Vec::new();
        let mut first_error = spawned.err();
        for handle in kernel_threads {
            match handle.join() {
                Ok(Ok(Some(stats))) => gpu_poll_stats.push(stats),
                Ok(Ok(None)) => {}
                Ok(Err(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Err(panic) => {
                    if first_error.is_none() {
                        let msg = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "kernel thread panicked".into());
                        first_error = Some(DcgnError::Internal(msg));
                    }
                }
            }
        }

        // All kernels are done everywhere; let the communication threads
        // drain and shut down.
        for tx in &work_txs {
            let _ = tx.send(CommCommand::LocalKernelsDone);
        }
        drop(work_txs);
        for handle in comm_threads {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Err(_) => {
                    if first_error.is_none() {
                        first_error = Some(DcgnError::Internal("comm thread panicked".into()));
                    }
                }
            }
        }

        release_freed_heap();

        // Shutdown observability hook: `DCGN_METRICS=dump` prints a final
        // snapshot to stdout; any other non-empty value is a file path the
        // snapshot JSON is written to.
        if let Ok(mode) = std::env::var("DCGN_METRICS") {
            if mode == "dump" {
                println!("{}", self.config.metrics.snapshot().to_json());
            } else if !mode.is_empty() {
                if let Err(e) = std::fs::write(&mode, self.config.metrics.snapshot().to_json()) {
                    eprintln!("dcgn: failed to write DCGN_METRICS file {mode}: {e}");
                }
            }
        }

        match first_error {
            Some(e) => Err(e),
            None => Ok(LaunchReport {
                elapsed: clock.elapsed(started),
                gpu_poll_stats,
            }),
        }
    }
}

/// What one kernel thread runs: a CPU rank's kernel, or a GPU's whole
/// set-up, launch, poll loop and finish.
type KernelJob = Box<dyn FnOnce() -> Result<Option<GpuPollStats>> + Send>;

/// Spawn one of a launch's threads.
fn spawn<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>> {
    let what = format!("spawn {name}");
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .map_err(|e| DcgnError::Internal(format!("{what}: {e}")))
}

/// Hand the heap pages a launch freed back to the operating system.
///
/// A launch runs on threads of its own, and glibc gives every thread a malloc
/// arena that keeps what was freed into it — a delivered multi-megabyte
/// receive buffer, say — for whichever later thread inherits the arena, in
/// the order the previous launch's threads happened to exit.  A process that
/// launches repeatedly therefore holds the same buffers once per arena they
/// passed through, and its resident set follows thread timing instead of
/// what is live (`stream_cpu_4MiB` peaked at 31–59 MB over 20 runs, 27–43 MB
/// with the trim).  The next launch faults back only what it touches.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, locks each arena
    // itself and only releases pages of chunks that are already free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("nodes", &self.config.num_nodes())
            .field("ranks", &self.rank_map.total_ranks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;

    #[test]
    fn runtime_rejects_invalid_config() {
        assert!(Runtime::new(DcgnConfig::heterogeneous(vec![])).is_err());
        assert!(Runtime::new(DcgnConfig::heterogeneous(vec![NodeConfig::new(1, 1, 0)])).is_err());
    }

    #[test]
    fn runtime_exposes_rank_map_and_config() {
        let rt = Runtime::new(DcgnConfig::homogeneous(2, 2, 1, 1)).unwrap();
        assert_eq!(rt.rank_map().total_ranks(), 6);
        assert_eq!(rt.config().num_nodes(), 2);
    }
}
