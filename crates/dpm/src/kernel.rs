//! Kernel execution context: grid/block geometry and device-side memory
//! access for kernel closures.

use std::sync::Arc;

use dcgn_simtime::{Clock, Deadline};

use crate::memory::{DeviceMemory, DevicePtr, MemoryError};

/// A three-dimensional extent, mirroring CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Extent along x.
    pub x: usize,
    /// Extent along y.
    pub y: usize,
    /// Extent along z.
    pub z: usize,
}

impl Dim {
    /// A one-dimensional extent.
    pub const fn d1(x: usize) -> Self {
        Dim { x, y: 1, z: 1 }
    }

    /// Total number of elements covered by this extent.
    pub const fn total(&self) -> usize {
        self.x * self.y * self.z
    }
}

impl From<usize> for Dim {
    fn from(x: usize) -> Self {
        Dim::d1(x)
    }
}

/// Execution context handed to a kernel closure, once per block.
///
/// A block is modelled as a single thread of control that may iterate over
/// its [`BlockCtx::threads_per_block`] logical threads with [`BlockCtx::for_each_thread`]
/// or [`BlockCtx::thread_range`].  Device-memory accessors fault (panic) on
/// out-of-bounds access, like a real device would.
pub struct BlockCtx {
    pub(crate) memory: Arc<DeviceMemory>,
    pub(crate) block_id: usize,
    pub(crate) grid_dim: Dim,
    pub(crate) block_dim: Dim,
    pub(crate) device_id: usize,
    pub(crate) clock: Clock,
}

impl BlockCtx {
    /// Identifier of the device executing this block.
    pub fn device_id(&self) -> usize {
        self.device_id
    }

    /// Linear index of this block within the grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Grid extent of the launch.
    pub fn grid_dim(&self) -> Dim {
        self.grid_dim
    }

    /// Number of logical threads in this block.
    pub fn threads_per_block(&self) -> usize {
        self.block_dim.total()
    }

    /// Run `f` once per logical thread in this block.
    pub fn for_each_thread(&self, mut f: impl FnMut(usize)) {
        for tid in 0..self.threads_per_block() {
            f(tid);
        }
    }

    /// The contiguous slice of `total_items` owned by logical thread `tid`
    /// when work is block-partitioned across the block's threads.
    pub fn thread_range(&self, tid: usize, total_items: usize) -> std::ops::Range<usize> {
        let threads = self.threads_per_block();
        let per = total_items.div_ceil(threads);
        let start = (tid * per).min(total_items);
        let end = ((tid + 1) * per).min(total_items);
        start..end
    }

    /// Block-wide barrier.  Because a block executes as a single thread of
    /// control, this is a scheduling no-op kept for source fidelity with the
    /// CUDA kernels in the paper (`__syncthreads()`).
    pub fn syncthreads(&self) {}

    /// The clock this block's device runs on: its deadlines bound
    /// [`spin_until`](Self::spin_until).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Wait until `poll` yields, the way a block busy-waits on a word, or
    /// until `deadline` passes (`None`): the device's one wait.  The block
    /// polls, spins through the clock's budget ([`Clock::poll_until`]), then
    /// parks until the next write to device memory, the host's or another
    /// block's, so a word flipped at any point is seen at once and a long
    /// wait leaves the host idle.  Writes ring only while a block waits.
    pub fn spin_until<T>(&self, deadline: Deadline, poll: impl FnMut() -> Option<T>) -> Option<T> {
        self.memory.wait(&self.clock, deadline, poll)
    }

    // ---- device global memory access (no PCI-e cost: this is the device) ----

    /// `r`'s value, or a device fault (a panic) in this block.
    fn or_fault<T>(&self, r: Result<T, MemoryError>) -> T {
        r.unwrap_or_else(|e| panic!("device fault in block {}: {e}", self.block_id))
    }

    /// Read `out.len()` bytes from device global memory.
    pub fn read(&self, ptr: DevicePtr, out: &mut [u8]) {
        self.or_fault(self.memory.read(ptr, out));
    }

    /// Read `len` bytes from device global memory into a new vector.
    pub fn read_vec(&self, ptr: DevicePtr, len: usize) -> Vec<u8> {
        self.or_fault(self.memory.read_vec(ptr, len))
    }

    /// Write bytes to device global memory.
    pub fn write(&self, ptr: DevicePtr, bytes: &[u8]) {
        self.or_fault(self.memory.write(ptr, bytes));
    }

    /// Read a little-endian `u32` from device global memory.
    pub fn read_u32(&self, ptr: DevicePtr) -> u32 {
        self.or_fault(self.memory.read_u32(ptr))
    }

    /// Write a little-endian `u32` to device global memory.
    pub fn write_u32(&self, ptr: DevicePtr, value: u32) {
        self.or_fault(self.memory.write_u32(ptr, value));
    }

    /// Read a little-endian `u64` from device global memory.
    pub fn read_u64(&self, ptr: DevicePtr) -> u64 {
        self.or_fault(self.memory.read_u64(ptr))
    }

    /// Read a vector of `f32` values from device global memory.
    pub fn read_f32_slice(&self, ptr: DevicePtr, count: usize) -> Vec<f32> {
        let bytes = self.read_vec(ptr, count * 4);
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Atomic compare-and-swap on a device word; returns the previous value.
    pub fn atomic_cas_u32(&self, ptr: DevicePtr, expected: u32, new: u32) -> u32 {
        self.or_fault(self.memory.atomic_cas_u32(ptr, expected, new))
    }

    /// Atomic fetch-add on a device word; returns the previous value.
    pub fn atomic_add_u32(&self, ptr: DevicePtr, delta: u32) -> u32 {
        self.or_fault(self.memory.atomic_add_u32(ptr, delta))
    }

    /// Wait, with no deadline, until the `u32` at `ptr` equals `value` (see
    /// [`spin_until`](Self::spin_until)).
    pub fn wait_for_u32(&self, ptr: DevicePtr, value: u32) {
        self.spin_until(Deadline::NEVER, || {
            (self.read_u32(ptr) == value).then_some(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> BlockCtx {
        BlockCtx {
            memory: Arc::new(DeviceMemory::new(1 << 16)),
            block_id: 0,
            grid_dim: Dim::d1(1),
            block_dim: Dim::d1(threads),
            device_id: 0,
            clock: Clock::from(dcgn_simtime::CostModel::zero()),
        }
    }

    #[test]
    fn dim_totals() {
        assert_eq!(Dim::d1(7).total(), 7);
        assert_eq!(Dim { x: 2, y: 3, z: 4 }.total(), 24);
        let d: Dim = 5usize.into();
        assert_eq!(d, Dim::d1(5));
    }

    #[test]
    fn thread_range_partitions_exactly() {
        let c = ctx(4);
        let total = 10;
        let mut covered = Vec::new();
        for tid in 0..4 {
            covered.extend(c.thread_range(tid, total));
        }
        assert_eq!(covered, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn thread_range_handles_more_threads_than_items() {
        let c = ctx(8);
        let mut covered = Vec::new();
        for tid in 0..8 {
            covered.extend(c.thread_range(tid, 3));
        }
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn for_each_thread_visits_all() {
        let c = ctx(5);
        let mut seen = Vec::new();
        c.for_each_thread(|t| seen.push(t));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn f32_slice_roundtrip() {
        let c = ctx(1);
        let ptr = c.memory.malloc(64).unwrap();
        let vals = [1.5f32, -2.25, 3.0, 0.0];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        c.write(ptr, &bytes);
        assert_eq!(c.read_f32_slice(ptr, 4), vals.to_vec());
    }

    #[test]
    #[should_panic(expected = "device fault")]
    fn out_of_bounds_device_access_faults() {
        let c = ctx(1);
        c.read_u32(DevicePtr((1 << 16) + 8));
    }
}
