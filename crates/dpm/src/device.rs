//! The simulated device: multiprocessors, kernel launch, and the host-side
//! memory transfer API.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use dcgn_metrics::Counter;
use dcgn_simtime::{channel, Charge, Clock, CostModel, Deadline, Receiver, Sender, VirtualBus};

use crate::kernel::{BlockCtx, Dim};
use crate::memory::{DeviceMemory, DevicePtr, MemoryError};

/// Registry-backed DMA counters a device reports into, *in addition to* its
/// own per-instance `dtoh_transfer_count`/`htod_transfer_count` totals.  The
/// runtime resolves these from its [`dcgn_metrics::MetricsHandle`] (named
/// `dma.{dtoh,htod,scattered}.node{N}`) and hands them to
/// [`Device::new_with_metrics`]; a plain [`Device::new`] device carries
/// disabled (no-op) counters.
#[derive(Debug, Clone, Default)]
pub struct DmaMetrics {
    /// One bump per device-to-host DMA operation.
    pub dtoh: Counter,
    /// One bump per host-to-device DMA operation.
    pub htod: Counter,
    /// One bump per *scattered* (descriptor-list) DMA operation, counted in
    /// addition to its direction counter.
    pub scattered: Counter,
}

/// Static description of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Number of multiprocessors.  Each multiprocessor executes one block at
    /// a time, to completion.
    pub num_multiprocessors: usize,
    /// Size of device global memory in bytes.
    pub memory_bytes: usize,
    /// Marketing name, used in traces only.
    pub name: String,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        // A deliberately small stand-in for a G92-class part: enough
        // multiprocessors to expose block-scheduling behaviour without
        // swamping a small simulation host with threads.
        DeviceConfig {
            num_multiprocessors: 4,
            memory_bytes: 64 << 20,
            name: "SimG92".to_string(),
        }
    }
}

impl DeviceConfig {
    /// Builder-style override of the multiprocessor count.
    pub fn with_multiprocessors(mut self, n: usize) -> Self {
        self.num_multiprocessors = n.max(1);
        self
    }

    /// Builder-style override of the device memory size.
    pub fn with_memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bytes = bytes;
        self
    }
}

/// Errors reported when waiting on a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// One or more blocks faulted (panicked); the message of the first fault
    /// is preserved.
    BlockFault(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::BlockFault(msg) => write!(f, "kernel block fault: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {}

struct LaunchState {
    remaining: Mutex<usize>,
    done: Condvar,
    fault: Mutex<Option<String>>,
    clock: Clock,
}

impl LaunchState {
    fn new(blocks: usize, clock: Clock) -> Self {
        LaunchState {
            remaining: Mutex::new(blocks),
            done: Condvar::new(),
            fault: Mutex::new(None),
            clock,
        }
    }

    fn block_finished(&self) {
        let mut remaining = self.remaining.lock().expect("blocks remaining");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn record_fault(&self, msg: String) {
        let mut fault = self.fault.lock().expect("launch fault");
        if fault.is_none() {
            *fault = Some(msg);
        }
    }
}

/// Handle returned by [`Device::launch`]; waits for all blocks of a kernel to
/// retire.
pub struct KernelHandle {
    state: Arc<LaunchState>,
}

impl KernelHandle {
    /// Block until every block of the launch has completed.
    pub fn wait(&self) -> Result<(), KernelError> {
        let state = &self.state;
        let mut remaining = state.remaining.lock().expect("blocks remaining");
        while *remaining > 0 {
            (remaining, _) = state
                .clock
                .wait_until(&state.done, remaining, Deadline::NEVER);
        }
        drop(remaining);
        match self.state.fault.lock().expect("launch fault").clone() {
            Some(msg) => Err(KernelError::BlockFault(msg)),
            None => Ok(()),
        }
    }

    /// True once every block has retired.
    pub fn is_done(&self) -> bool {
        *self.state.remaining.lock().expect("blocks remaining") == 0
    }

    /// True once a block has faulted; [`KernelHandle::wait`] then returns
    /// the first fault.
    pub fn faulted(&self) -> bool {
        self.state.fault.lock().expect("launch fault").is_some()
    }
}

type BlockClosure = Arc<dyn Fn(&BlockCtx) + Send + Sync + 'static>;

struct BlockTask {
    kernel: BlockClosure,
    block_id: usize,
    grid_dim: Dim,
    block_dim: Dim,
    device_id: usize,
    memory: Arc<DeviceMemory>,
    state: Arc<LaunchState>,
}

enum SmMessage {
    Run(BlockTask),
    Shutdown,
}

/// A simulated data-parallel device.
///
/// The host interacts with the device exclusively through this type: memory
/// allocation, host↔device copies (which pay the PCI-e cost and serialise on
/// the device's PCI-e link), and kernel launches.  Kernels themselves receive
/// a [`BlockCtx`] and access device memory directly.
pub struct Device {
    id: usize,
    config: DeviceConfig,
    memory: Arc<DeviceMemory>,
    pcie: VirtualBus,
    clock: Clock,
    sm_tx: Sender<SmMessage>,
    /// Kept so multiprocessor workers can be spawned lazily per launch.
    sm_rx: Arc<Receiver<SmMessage>>,
    sm_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shutdown: AtomicBool,
    /// Device-to-host DMA operations issued by the host (each is one PCI-e
    /// round trip, however many bytes it moves).
    dtoh_transfers: AtomicU64,
    /// Host-to-device DMA operations issued by the host.
    htod_transfers: AtomicU64,
    /// Registry-backed counters mirroring the instance totals (disabled
    /// unless the device was created via [`Device::new_with_metrics`]).
    metrics: DmaMetrics,
}

impl Device {
    /// Create a device with `id` and the given configuration, whose
    /// transfers and launches pay their cost on `clock` (a [`CostModel`]
    /// makes a clock with its ledger in the global registry).
    pub fn new(id: usize, config: DeviceConfig, clock: impl Into<Clock>) -> Arc<Self> {
        Self::new_with_metrics(id, config, clock, DmaMetrics::default())
    }

    /// Like [`Device::new`], but DMA operations additionally bump the given
    /// registry-backed counters.
    pub fn new_with_metrics(
        id: usize,
        config: DeviceConfig,
        clock: impl Into<Clock>,
        metrics: DmaMetrics,
    ) -> Arc<Self> {
        let clock = clock.into();
        let memory = Arc::new(DeviceMemory::new(config.memory_bytes));
        let (sm_tx, sm_rx) = channel::<SmMessage>();
        // Multiprocessor workers are spawned lazily by `launch`: a kernel of
        // B blocks needs at most min(B, num_multiprocessors) of them, and
        // spawning the full complement up front made small launches pay for
        // workers that never ran a block.
        Arc::new(Device {
            id,
            pcie: VirtualBus::new(Charge::Pcie, clock.model().pcie),
            memory,
            clock,
            sm_tx,
            sm_rx: Arc::new(sm_rx),
            sm_threads: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            dtoh_transfers: AtomicU64::new(0),
            htod_transfers: AtomicU64::new(0),
            metrics,
            config,
        })
    }

    /// Ensure at least `needed` multiprocessor workers are running (capped at
    /// the configured multiprocessor count).
    fn ensure_sm_workers(&self, needed: usize) {
        let needed = needed.min(self.config.num_multiprocessors);
        let mut threads = self.sm_threads.lock().expect("multiprocessor workers");
        while threads.len() < needed {
            let (rx, clock) = (Arc::clone(&self.sm_rx), self.clock.clone());
            let name = format!("dev{}-sm{}", self.id, threads.len());
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || Self::sm_worker(&rx, &clock))
                    .expect("failed to spawn multiprocessor worker"),
            );
        }
    }

    /// Create a device with default configuration and a zero-cost model
    /// (handy in tests).
    pub fn new_default(id: usize) -> Arc<Self> {
        Self::new(id, DeviceConfig::default(), CostModel::zero())
    }

    fn sm_worker(rx: &Receiver<SmMessage>, clock: &Clock) {
        while let Some(msg) = rx.recv_until(clock, Deadline::NEVER) {
            match msg {
                SmMessage::Shutdown => break,
                SmMessage::Run(task) => {
                    let ctx = BlockCtx {
                        memory: Arc::clone(&task.memory),
                        block_id: task.block_id,
                        grid_dim: task.grid_dim,
                        block_dim: task.block_dim,
                        device_id: task.device_id,
                        clock: task.state.clock.clone(),
                    };
                    let kernel = Arc::clone(&task.kernel);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        kernel(&ctx);
                    }));
                    if let Err(panic) = result {
                        let msg = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "unknown block fault".to_string());
                        task.state.record_fault(msg);
                    }
                    task.state.block_finished();
                }
            }
        }
    }

    /// Device identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Total device memory in bytes.
    pub fn memory_capacity(&self) -> usize {
        self.memory.capacity()
    }

    // ---- host-side memory API ----

    /// Allocate `size` bytes of device memory.
    pub fn malloc(&self, size: usize) -> Result<DevicePtr, MemoryError> {
        self.memory.malloc(size)
    }

    /// Release a device allocation.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), MemoryError> {
        self.memory.free(ptr)
    }

    /// Copy host memory to the device (blocking, pays the PCI-e cost).
    pub fn memcpy_htod(&self, dst: DevicePtr, src: &[u8]) -> Result<(), MemoryError> {
        self.htod_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.htod.inc();
        self.pcie.transfer(&self.clock, self.clock.now(), src.len());
        self.memory.write(dst, src)
    }

    /// Copy device memory to the host (blocking, pays the PCI-e cost).
    pub fn memcpy_dtoh(&self, dst: &mut [u8], src: DevicePtr) -> Result<(), MemoryError> {
        self.dtoh_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.dtoh.inc();
        self.pcie.transfer(&self.clock, self.clock.now(), dst.len());
        self.memory.read(src, dst)
    }

    /// Copy device memory to a freshly allocated host vector.
    pub fn memcpy_dtoh_vec(&self, src: DevicePtr, len: usize) -> Result<Vec<u8>, MemoryError> {
        let mut out = vec![0u8; len];
        self.memcpy_dtoh(&mut out, src)?;
        Ok(out)
    }

    /// Gather several disjoint device ranges to the host in **one** DMA
    /// operation (the descriptor-list transfer real drivers build for
    /// `cudaMemcpy2D`-style strided reads): the PCI-e link is crossed once
    /// for the summed byte count instead of once per range.
    pub fn memcpy_dtoh_scattered(
        &self,
        ranges: &[(DevicePtr, usize)],
    ) -> Result<Vec<Vec<u8>>, MemoryError> {
        self.dtoh_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.dtoh.inc();
        self.metrics.scattered.inc();
        let total: usize = ranges.iter().map(|&(_, len)| len).sum();
        self.pcie.transfer(&self.clock, self.clock.now(), total);
        ranges
            .iter()
            .map(|&(ptr, len)| self.memory.read_vec(ptr, len))
            .collect()
    }

    /// Write several scattered `u32` words to the device in **one** DMA
    /// operation (the host-to-device counterpart of
    /// [`Device::memcpy_dtoh_scattered`]): the PCI-e link is crossed once for
    /// the summed byte count instead of once per word.
    pub fn write_u32s_scattered(&self, writes: &[(DevicePtr, u32)]) -> Result<(), MemoryError> {
        self.htod_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.htod.inc();
        self.metrics.scattered.inc();
        self.pcie
            .transfer(&self.clock, self.clock.now(), writes.len() * 4);
        for &(ptr, value) in writes {
            self.memory.write_u32(ptr, value)?;
        }
        Ok(())
    }

    /// Read `count` consecutive little-endian `u32` words in one DMA
    /// operation.
    pub fn read_u32s(&self, ptr: DevicePtr, count: usize) -> Result<Vec<u32>, MemoryError> {
        self.dtoh_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.dtoh.inc();
        self.pcie.transfer(&self.clock, self.clock.now(), count * 4);
        let bytes = self.memory.read_vec(ptr, count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Number of device-to-host DMA operations the host has issued (batched
    /// reads count once, regardless of how many ranges or bytes they move).
    pub fn dtoh_transfer_count(&self) -> u64 {
        self.dtoh_transfers.load(Ordering::Relaxed)
    }

    /// Number of host-to-device DMA operations the host has issued.
    pub fn htod_transfer_count(&self) -> u64 {
        self.htod_transfers.load(Ordering::Relaxed)
    }

    /// Read a single `u32` from device memory, paying the PCI-e latency.
    pub fn read_u32(&self, ptr: DevicePtr) -> Result<u32, MemoryError> {
        self.dtoh_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.dtoh.inc();
        self.pcie.transfer(&self.clock, self.clock.now(), 4);
        self.memory.read_u32(ptr)
    }

    /// Write a single `u32` to device memory, paying the PCI-e latency.
    pub fn write_u32(&self, ptr: DevicePtr, value: u32) -> Result<(), MemoryError> {
        self.htod_transfers.fetch_add(1, Ordering::Relaxed);
        self.metrics.htod.inc();
        self.pcie.transfer(&self.clock, self.clock.now(), 4);
        self.memory.write_u32(ptr, value)
    }

    // ---- kernel launch ----

    /// Launch a kernel as a grid of `grid_dim` blocks of `block_dim` logical
    /// threads.  Returns immediately with a [`KernelHandle`]; blocks are
    /// scheduled onto multiprocessors in order and each runs to completion.
    pub fn launch<F>(
        &self,
        grid_dim: impl Into<Dim>,
        block_dim: impl Into<Dim>,
        kernel: F,
    ) -> KernelHandle
    where
        F: Fn(&BlockCtx) + Send + Sync + 'static,
    {
        let grid_dim = grid_dim.into();
        let block_dim = block_dim.into();
        let blocks = grid_dim.total().max(1);
        self.ensure_sm_workers(blocks);
        self.clock
            .charge(Charge::Launch, self.clock.model().kernel_launch);
        let state = Arc::new(LaunchState::new(blocks, self.clock.clone()));
        let kernel: BlockClosure = Arc::new(kernel);
        for block_id in 0..blocks {
            let task = BlockTask {
                kernel: Arc::clone(&kernel),
                block_id,
                grid_dim,
                block_dim,
                device_id: self.id,
                memory: Arc::clone(&self.memory),
                state: Arc::clone(&state),
            };
            let queued = self.sm_tx.send(SmMessage::Run(task)).is_ok();
            assert!(queued, "device multiprocessor pool is gone");
        }
        KernelHandle { state }
    }

    /// Launch a kernel and wait for it to finish.
    pub fn launch_sync<F>(
        &self,
        grid_dim: impl Into<Dim>,
        block_dim: impl Into<Dim>,
        kernel: F,
    ) -> Result<(), KernelError>
    where
        F: Fn(&BlockCtx) + Send + Sync + 'static,
    {
        self.launch(grid_dim, block_dim, kernel).wait()
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let mut threads = self
                .sm_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for _ in 0..threads.len() {
                let _ = self.sm_tx.send(SmMessage::Shutdown);
            }
            for handle in threads.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("id", &self.id)
            .field("name", &self.config.name)
            .field("multiprocessors", &self.config.num_multiprocessors)
            .field("memory_bytes", &self.config.memory_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn htod_dtoh_roundtrip() {
        let dev = Device::new_default(0);
        let ptr = dev.malloc(256).unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();
        dev.memcpy_htod(ptr, &payload).unwrap();
        assert_eq!(dev.memcpy_dtoh_vec(ptr, 256).unwrap(), payload);
        dev.free(ptr).unwrap();
    }

    #[test]
    fn kernel_sees_all_blocks() {
        let dev = Device::new_default(0);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        dev.launch_sync(8, 32, move |ctx| {
            assert!(ctx.block_id() < 8);
            assert_eq!(ctx.grid_dim().total(), 8);
            assert_eq!(ctx.threads_per_block(), 32);
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn kernel_writes_device_memory_visible_to_host() {
        let dev = Device::new_default(0);
        let ptr = dev.malloc(4 * 16).unwrap();
        dev.launch_sync(16, 1, move |ctx| {
            ctx.write_u32(ptr.add(4 * ctx.block_id()), ctx.block_id() as u32 * 3);
        })
        .unwrap();
        for i in 0..16 {
            assert_eq!(dev.read_u32(ptr.add(4 * i)).unwrap(), i as u32 * 3);
        }
    }

    #[test]
    fn block_fault_is_reported() {
        let dev = Device::new_default(0);
        let err = dev
            .launch_sync(2, 1, |ctx| {
                if ctx.block_id() == 1 {
                    panic!("intentional fault");
                }
            })
            .unwrap_err();
        let KernelError::BlockFault(msg) = err;
        assert!(msg.contains("intentional fault"));
    }

    #[test]
    fn more_blocks_than_multiprocessors_complete() {
        let dev = Device::new(
            0,
            DeviceConfig::default().with_multiprocessors(2),
            CostModel::zero(),
        );
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        dev.launch_sync(20, 1, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn blocks_run_to_completion_can_deadlock_when_oversubscribed() {
        // Reproduces the scheduling hazard described in §3.2.4 of the paper:
        // with 1 multiprocessor and 2 blocks where block 0 waits for a flag
        // that only block 1 would set, the kernel cannot make progress until
        // the host intervenes.
        let dev = Device::new(
            0,
            DeviceConfig::default().with_multiprocessors(1),
            CostModel::zero(),
        );
        let flag = dev.malloc(4).unwrap();
        dev.memcpy_htod(flag, &0u32.to_le_bytes()).unwrap();
        let handle = dev.launch(2, 1, move |ctx| {
            if ctx.block_id() == 0 {
                ctx.wait_for_u32(flag, 1);
            } else {
                ctx.write_u32(flag, 1);
            }
        });
        // The kernel is stuck: block 1 can never be scheduled.
        std::thread::sleep(Duration::from_millis(150));
        assert!(!handle.is_done());
        // The host breaks the deadlock by setting the flag itself (this is
        // exactly the kind of intervention DCGN's GPU-kernel thread performs).
        dev.write_u32(flag, 1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !handle.is_done() {
            assert!(
                Instant::now() < deadline,
                "kernel still stuck after the host set the flag"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.wait().unwrap();
    }

    #[test]
    fn concurrent_blocks_use_multiple_multiprocessors() {
        // With 2 multiprocessors, two blocks that rendezvous through device
        // memory can complete only if they run concurrently.
        let dev = Device::new(
            0,
            DeviceConfig::default().with_multiprocessors(2),
            CostModel::zero(),
        );
        let flags = dev.malloc(8).unwrap();
        dev.memcpy_htod(flags, &[0u8; 8]).unwrap();
        dev.launch_sync(2, 1, move |ctx| {
            let mine = flags.add(4 * ctx.block_id());
            let theirs = flags.add(4 * (1 - ctx.block_id()));
            ctx.write_u32(mine, 1);
            ctx.wait_for_u32(theirs, 1);
        })
        .unwrap();
    }

    #[test]
    fn pcie_cost_is_charged_for_host_copies() {
        let mut cost = CostModel::zero();
        cost.pcie = dcgn_simtime::LinkCost::from_us_and_mbps(300, 1e9);
        let dev = Device::new(0, DeviceConfig::default(), cost);
        let ptr = dev.malloc(64).unwrap();
        let start = std::time::Instant::now();
        dev.memcpy_htod(ptr, &[0u8; 64]).unwrap();
        dev.memcpy_dtoh_vec(ptr, 64).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(600));
    }

    #[test]
    fn scattered_read_is_one_dma_operation() {
        let dev = Device::new_default(0);
        let a = dev.malloc(64).unwrap();
        let b = dev.malloc(64).unwrap();
        dev.memcpy_htod(a, &[1u8; 64]).unwrap();
        dev.memcpy_htod(b, &[2u8; 64]).unwrap();
        let before = dev.dtoh_transfer_count();
        let parts = dev
            .memcpy_dtoh_scattered(&[(a, 64), (b.add(32), 16)])
            .unwrap();
        assert_eq!(dev.dtoh_transfer_count(), before + 1);
        assert_eq!(parts, vec![vec![1u8; 64], vec![2u8; 16]]);
    }

    #[test]
    fn scattered_u32_write_is_one_dma_operation() {
        let dev = Device::new_default(0);
        let p = dev.malloc(32).unwrap();
        let before = dev.htod_transfer_count();
        dev.write_u32s_scattered(&[(p, 5), (p.add(12), 9), (p.add(28), 11)])
            .unwrap();
        assert_eq!(dev.htod_transfer_count(), before + 1);
        assert_eq!(dev.read_u32(p).unwrap(), 5);
        assert_eq!(dev.read_u32(p.add(12)).unwrap(), 9);
        assert_eq!(dev.read_u32(p.add(28)).unwrap(), 11);
    }

    #[test]
    fn u32_column_read_is_one_dma_operation() {
        let dev = Device::new_default(0);
        let p = dev.malloc(16).unwrap();
        for i in 0..4u32 {
            dev.write_u32(p.add(4 * i as usize), i * 7).unwrap();
        }
        let before = dev.dtoh_transfer_count();
        assert_eq!(dev.read_u32s(p, 4).unwrap(), vec![0, 7, 14, 21]);
        assert_eq!(dev.dtoh_transfer_count(), before + 1);
    }

    #[test]
    fn transfer_counters_track_host_dma_operations() {
        let dev = Device::new_default(0);
        let p = dev.malloc(64).unwrap();
        let (r0, w0) = (dev.dtoh_transfer_count(), dev.htod_transfer_count());
        dev.memcpy_htod(p, &[0u8; 64]).unwrap();
        dev.write_u32(p, 1).unwrap();
        dev.memcpy_dtoh_vec(p, 8).unwrap();
        dev.read_u32(p).unwrap();
        assert_eq!(dev.htod_transfer_count(), w0 + 2);
        assert_eq!(dev.dtoh_transfer_count(), r0 + 2);
    }

    #[test]
    fn every_write_rings_while_a_block_waits_and_no_read_ever_does() {
        let metrics = dcgn_metrics::MetricsHandle::new();
        let clock = Clock::new(CostModel::zero(), &metrics);
        let dev = Device::new(0, DeviceConfig::default(), clock);
        let p = dev.malloc(64).unwrap();
        let flag = dev.malloc(4).unwrap();
        dev.write_u32(flag, 0).unwrap();
        let rings = || dev.memory.rings();
        let block_writes = move |b: &BlockCtx| {
            b.write_u32(p, 5);
            b.write(p.add(4), &[9; 4]);
            b.atomic_add_u32(p, 1);
            b.atomic_cas_u32(p, 6, 7);
        };

        // Nobody waits: no write rings, so a kernel's plain stores stay free.
        let before = rings();
        dev.memcpy_htod(p, &[1u8; 8]).unwrap();
        dev.write_u32(p, 2).unwrap();
        dev.launch_sync(1, 1, block_writes).unwrap();
        assert_eq!(rings(), before, "a write nobody waits on rang");

        // A block waits, parked on `flag`: every write rings, once per
        // write, and no read does.  Its idle twin leaves a multiprocessor
        // free for the kernels below.
        let waiting = dev.launch(2, 1, move |b| {
            if b.block_id() == 0 {
                b.wait_for_u32(flag, 1);
            }
        });
        while metrics.snapshot().counter("clock.parks") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = rings();
        dev.memcpy_dtoh_vec(p, 8).unwrap();
        dev.read_u32(p).unwrap();
        dev.read_u32s(p, 2).unwrap();
        dev.memcpy_dtoh_scattered(&[(p, 4), (p.add(8), 4)]).unwrap();
        dev.launch_sync(1, 1, move |b| {
            b.read_u32(p);
            b.read_vec(p, 8);
        })
        .unwrap();
        assert_eq!(rings(), before, "a read rang");
        dev.memcpy_htod(p, &[1u8; 8]).unwrap();
        dev.write_u32(p, 2).unwrap();
        dev.write_u32s_scattered(&[(p, 3), (p.add(4), 4)]).unwrap();
        assert_eq!(rings(), before + 4, "host writes");
        dev.launch_sync(1, 1, block_writes).unwrap();
        assert_eq!(rings(), before + 8, "block writes");
        dev.write_u32(flag, 1).unwrap();
        waiting.wait().unwrap();
    }

    /// A wake-up lost between a block's last poll and its park leaves it
    /// parked for good: nothing else ends a wait with no deadline.  Two
    /// blocks hand one word back and forth, each holding it for 0–100 µs
    /// first, so the other's spin ends on both sides of the write — parked
    /// long before it, or just as it lands.
    #[test]
    fn a_ping_pong_between_two_blocks_loses_no_wake_up() {
        const ROUNDS: u32 = 10_000;
        let dev = Device::new(
            0,
            DeviceConfig::default().with_multiprocessors(2),
            CostModel::zero(),
        );
        let word = dev.malloc(4).unwrap();
        dev.write_u32(word, 0).unwrap();
        let handle = dev.launch(2, 1, move |b| {
            let me = b.block_id() as u32;
            for round in 0..ROUNDS {
                b.wait_for_u32(word, 2 * round + me);
                let hold = Instant::now() + Duration::from_micros(u64::from(round % 101));
                while Instant::now() < hold {
                    std::hint::spin_loop();
                }
                b.write_u32(word, 2 * round + me + 1);
            }
        });
        let watchdog = Instant::now() + Duration::from_secs(120);
        while !handle.is_done() {
            if Instant::now() > watchdog {
                let stuck = dev.read_u32(word).unwrap();
                // The parked blocks never retire; dropping the device would
                // join them forever.
                std::mem::forget(dev);
                panic!("a wake-up was lost: the word is stuck at {stuck}");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.wait().unwrap();
        assert_eq!(dev.read_u32(word).unwrap(), 2 * ROUNDS);
    }
}
