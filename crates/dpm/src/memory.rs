//! Device global memory: a byte-addressable arena with a first-fit allocator.
//!
//! Host-side access to this arena always goes through [`crate::Device`]
//! methods that charge the PCI-e cost model; device-side access (from kernel
//! blocks, via [`crate::BlockCtx`]) is direct.  Control words used for
//! synchronisation between the host and running kernels are accessed with the
//! `atomic_*` helpers, which take the arena lock only for the duration of the
//! word access so that a kernel spinning on a flag never starves a host copy.
//! Every write, the host's or a block's, takes one path that rings the blocks
//! waiting on device memory while any is registered, so a kernel's plain
//! stores pay one atomic load when nobody waits.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use dcgn_simtime::{Clock, Deadline};

/// An address in device global memory.  Device pointers are plain offsets
/// into the device arena; they are only meaningful for the device that
/// allocated them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevicePtr(pub(crate) usize);

impl DevicePtr {
    /// The null device pointer (offset 0 is never handed out by `malloc`).
    pub const NULL: DevicePtr = DevicePtr(0);

    /// Offset of this pointer within device memory.
    pub fn offset(&self) -> usize {
        self.0
    }

    /// A pointer `bytes` past this one.
    #[must_use]
    pub fn add(&self, bytes: usize) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev+0x{:x}", self.0)
    }
}

/// Errors raised by device memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The allocation request could not be satisfied.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Largest free block available.
        largest_free: usize,
    },
    /// An access touched bytes outside the arena or outside a live
    /// allocation boundary check.
    OutOfBounds {
        /// Start offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Total arena size.
        capacity: usize,
    },
    /// `free` was called with a pointer that is not the start of a live
    /// allocation.
    InvalidFree(usize),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, largest free block {largest_free} bytes"
            ),
            MemoryError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "device memory access out of bounds: [{offset}, {})+{len} exceeds capacity {capacity}",
                offset + len
            ),
            MemoryError::InvalidFree(offset) => {
                write!(f, "free of non-allocated device pointer at offset {offset}")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Allocation metadata: offset -> size of live allocations, plus a free list.
struct Allocator {
    /// Live allocations: offset -> length.
    live: BTreeMap<usize, usize>,
    /// Free blocks: offset -> length (kept coalesced).
    free: BTreeMap<usize, usize>,
}

impl Allocator {
    fn new(capacity: usize) -> Self {
        let mut free = BTreeMap::new();
        // Offset 0 is reserved so DevicePtr::NULL is never a valid allocation.
        if capacity > ALIGN {
            free.insert(ALIGN, capacity - ALIGN);
        }
        Allocator {
            live: BTreeMap::new(),
            free,
        }
    }

    fn out_of_memory(&self, requested: usize) -> MemoryError {
        MemoryError::OutOfMemory {
            requested,
            largest_free: self.free.values().copied().max().unwrap_or(0),
        }
    }

    fn alloc(&mut self, size: usize) -> Result<usize, MemoryError> {
        // A size within ALIGN of usize::MAX has no aligned length: it fits
        // nowhere, like any other oversized request.
        let Some(size) = size.max(1).checked_next_multiple_of(ALIGN) else {
            return Err(self.out_of_memory(size));
        };
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&off, &len)| (off, len));
        match slot {
            Some((off, len)) => {
                self.free.remove(&off);
                if len > size {
                    self.free.insert(off + size, len - size);
                }
                self.live.insert(off, size);
                Ok(off)
            }
            None => Err(self.out_of_memory(size)),
        }
    }

    fn dealloc(&mut self, offset: usize) -> Result<(), MemoryError> {
        let size = self
            .live
            .remove(&offset)
            .ok_or(MemoryError::InvalidFree(offset))?;
        self.free.insert(offset, size);
        self.coalesce(offset);
        Ok(())
    }

    fn coalesce(&mut self, around: usize) {
        // Merge with the following block.
        if let Some(&len) = self.free.get(&around) {
            let next = around + len;
            if let Some(&next_len) = self.free.get(&next) {
                self.free.remove(&next);
                *self.free.get_mut(&around).unwrap() = len + next_len;
            }
        }
        // Merge with the preceding block.
        if let Some((&prev_off, &prev_len)) = self.free.range(..around).next_back() {
            if prev_off + prev_len == around {
                let len = self.free.remove(&around).unwrap();
                *self.free.get_mut(&prev_off).unwrap() = prev_len + len;
            }
        }
    }
}

const ALIGN: usize = 256;

/// The device memory arena.  Shared between the host-facing [`crate::Device`]
/// and the kernel-facing [`crate::BlockCtx`].
pub(crate) struct DeviceMemory {
    data: Mutex<Vec<u8>>,
    alloc: Mutex<Allocator>,
    capacity: usize,
    /// Blocks inside `wait`: while there is one, every write — the host's
    /// or a block's — rings `ring`.
    waiters: AtomicUsize,
    /// Writes rung so far.
    rings: Mutex<u64>,
    ring: Condvar,
}

impl DeviceMemory {
    pub(crate) fn new(capacity: usize) -> Self {
        DeviceMemory {
            data: Mutex::new(vec![0u8; capacity]),
            alloc: Mutex::new(Allocator::new(capacity)),
            capacity,
            waiters: AtomicUsize::new(0),
            rings: Mutex::new(0),
            ring: Condvar::new(),
        }
    }

    /// Wait on `clock` until `poll` yields or `deadline` passes, parked
    /// between polls until a write rings: [`crate::BlockCtx::spin_until`].
    pub(crate) fn wait<T>(
        &self,
        clock: &Clock,
        deadline: Deadline,
        mut poll: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        // Register, then poll; against write, then check `waiters`: a store
        // → load race on each side.  Either the poll reads the write, or the
        // writer's check sees the waiter and rings.  The arena lock both
        // sides take in between orders them today; SeqCst here and in
        // `mutate` keeps the pairing without it.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let _registered = Registered(&self.waiters);
        let seen = Cell::new(0);
        let mark_then_poll = || {
            seen.set(self.rings());
            poll()
        };
        let park = |deadline| {
            let mut rings = self.rings.lock().expect("memory rings");
            let mut timed_out = false;
            while *rings == seen.get() && !timed_out {
                (rings, timed_out) = clock.wait_until(&self.ring, rings, deadline);
            }
        };
        clock.poll_until(deadline, mark_then_poll, park)
    }

    /// Writes rung so far.
    pub(crate) fn rings(&self) -> u64 {
        *self.rings.lock().expect("memory rings")
    }

    /// Apply `f` to the `len` bytes at `ptr`, then ring the waiting blocks,
    /// if any: the one path every write takes.
    fn mutate<R>(
        &self,
        ptr: DevicePtr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MemoryError> {
        self.check(ptr.0, len)?;
        let out = f(&mut self.data.lock().expect("device memory")[ptr.0..ptr.0 + len]);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            *self.rings.lock().expect("memory rings") += 1;
            self.ring.notify_all();
        }
        Ok(out)
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn malloc(&self, size: usize) -> Result<DevicePtr, MemoryError> {
        let mut alloc = self.alloc.lock().expect("allocator");
        alloc.alloc(size).map(DevicePtr)
    }

    pub(crate) fn free(&self, ptr: DevicePtr) -> Result<(), MemoryError> {
        self.alloc.lock().expect("allocator").dealloc(ptr.0)
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), MemoryError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            Err(MemoryError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn write(&self, ptr: DevicePtr, bytes: &[u8]) -> Result<(), MemoryError> {
        self.mutate(ptr, bytes.len(), |data| data.copy_from_slice(bytes))
    }

    pub(crate) fn read(&self, ptr: DevicePtr, out: &mut [u8]) -> Result<(), MemoryError> {
        self.check(ptr.0, out.len())?;
        let data = self.data.lock().expect("device memory");
        out.copy_from_slice(&data[ptr.0..ptr.0 + out.len()]);
        Ok(())
    }

    pub(crate) fn read_vec(&self, ptr: DevicePtr, len: usize) -> Result<Vec<u8>, MemoryError> {
        let mut out = vec![0u8; len];
        self.read(ptr, &mut out)?;
        Ok(out)
    }

    pub(crate) fn write_u32(&self, ptr: DevicePtr, value: u32) -> Result<(), MemoryError> {
        self.write(ptr, &value.to_le_bytes())
    }

    pub(crate) fn read_u32(&self, ptr: DevicePtr) -> Result<u32, MemoryError> {
        let mut buf = [0u8; 4];
        self.read(ptr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    pub(crate) fn read_u64(&self, ptr: DevicePtr) -> Result<u64, MemoryError> {
        let mut buf = [0u8; 8];
        self.read(ptr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Atomic compare-and-swap on a 32-bit word (device-side primitive).
    pub(crate) fn atomic_cas_u32(
        &self,
        ptr: DevicePtr,
        expected: u32,
        new: u32,
    ) -> Result<u32, MemoryError> {
        self.mutate(ptr, 4, |word| {
            let current = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            if current == expected {
                word.copy_from_slice(&new.to_le_bytes());
            }
            current
        })
    }

    /// Atomic fetch-add on a 32-bit word (device-side primitive).
    pub(crate) fn atomic_add_u32(&self, ptr: DevicePtr, delta: u32) -> Result<u32, MemoryError> {
        self.mutate(ptr, 4, |word| {
            let current = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            word.copy_from_slice(&current.wrapping_add(delta).to_le_bytes());
            current
        })
    }
}

/// Deregisters a waiting block however its wait ends, a fault included.
struct Registered<'a>(&'a AtomicUsize);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn malloc_never_returns_null_and_respects_alignment() {
        let mem = DeviceMemory::new(1 << 20);
        let a = mem.malloc(10).unwrap();
        let b = mem.malloc(10).unwrap();
        assert_ne!(a, DevicePtr::NULL);
        assert_ne!(b, DevicePtr::NULL);
        assert_ne!(a, b);
        assert_eq!(a.offset() % ALIGN, 0);
        assert_eq!(b.offset() % ALIGN, 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mem = DeviceMemory::new(1 << 16);
        let ptr = mem.malloc(64).unwrap();
        let payload: Vec<u8> = (0..64u8).collect();
        mem.write(ptr, &payload).unwrap();
        let back = mem.read_vec(ptr, 64).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let mem = DeviceMemory::new(1024);
        let err = mem.write(DevicePtr(1020), &[0u8; 8]).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfBounds { .. }));
        let mut buf = [0u8; 16];
        let err = mem.read(DevicePtr(1020), &mut buf).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfBounds { .. }));
    }

    #[test]
    fn out_of_memory_reports_largest_free() {
        let mem = DeviceMemory::new(4096);
        // Arena has capacity-ALIGN usable bytes.
        let err = mem.malloc(1 << 20).unwrap_err();
        match err {
            MemoryError::OutOfMemory { largest_free, .. } => {
                assert!(largest_free <= 4096);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Rounding a size within ALIGN of usize::MAX up to the granule
    /// overflows; it must be refused, not wrap to a 0-byte block that the
    /// next allocation is handed again.
    #[test]
    fn oversized_malloc_is_refused_without_aliasing() {
        let mem = DeviceMemory::new(8192);
        let live = [mem.malloc(64).unwrap()];
        let err = mem.malloc(usize::MAX).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfMemory { .. }), "{err}");
        let next = mem.malloc(64).unwrap();
        assert!(!live.contains(&next), "{next} aliases a live allocation");
    }

    #[test]
    fn free_and_reuse() {
        let mem = DeviceMemory::new(8192);
        let a = mem.malloc(2048).unwrap();
        mem.free(a).unwrap();
        // The freed block can be reused.
        let b = mem.malloc(2048).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn double_free_is_an_error() {
        let mem = DeviceMemory::new(8192);
        let a = mem.malloc(128).unwrap();
        mem.free(a).unwrap();
        assert!(matches!(mem.free(a), Err(MemoryError::InvalidFree(_))));
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mem = DeviceMemory::new(ALIGN * 16);
        let ptrs: Vec<_> = (0..4).map(|_| mem.malloc(ALIGN).unwrap()).collect();
        for p in &ptrs {
            mem.free(*p).unwrap();
        }
        // After freeing everything we can allocate one block covering the
        // whole arena again.
        let big = mem.malloc(ALIGN * 15).unwrap();
        assert_ne!(big, DevicePtr::NULL);
    }

    #[test]
    fn u32_and_u64_helpers() {
        let mem = DeviceMemory::new(4096);
        let p = mem.malloc(16).unwrap();
        mem.write_u32(p, 0xDEADBEEF).unwrap();
        assert_eq!(mem.read_u32(p).unwrap(), 0xDEADBEEF);
        mem.write(p.add(8), &0x0123_4567_89AB_CDEFu64.to_le_bytes())
            .unwrap();
        assert_eq!(mem.read_u64(p.add(8)).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn atomic_cas_and_add() {
        let mem = DeviceMemory::new(4096);
        let p = mem.malloc(4).unwrap();
        mem.write_u32(p, 5).unwrap();
        assert_eq!(mem.atomic_cas_u32(p, 5, 9).unwrap(), 5);
        assert_eq!(mem.read_u32(p).unwrap(), 9);
        // Failed CAS leaves the value alone and returns the current value.
        assert_eq!(mem.atomic_cas_u32(p, 5, 1).unwrap(), 9);
        assert_eq!(mem.read_u32(p).unwrap(), 9);
        assert_eq!(mem.atomic_add_u32(p, 3).unwrap(), 9);
        assert_eq!(mem.read_u32(p).unwrap(), 12);
    }

    #[test]
    fn a_write_ends_a_parked_wait_and_rings_only_while_one_is_registered() {
        let mem = Arc::new(DeviceMemory::new(4096));
        let metrics = dcgn_metrics::MetricsHandle::new();
        let clock = Clock::new(dcgn_simtime::CostModel::zero(), &metrics);
        let p = mem.malloc(4).unwrap();
        let rings = mem.rings();
        mem.write_u32(p, 1).unwrap();
        assert_eq!(mem.rings(), rings, "a write nobody waits on rang");

        let host = Arc::clone(&mem);
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            host.write_u32(p, 2).unwrap();
        });
        let is_two = || (mem.read_u32(p).unwrap() == 2).then_some(());
        let start = Instant::now();
        assert_eq!(
            mem.wait(&clock, clock.deadline(Duration::from_secs(60)), is_two),
            Some(())
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "woken by the write"
        );
        assert!(
            metrics.snapshot().counter("clock.parks") >= 1,
            "never parked"
        );
        writer.join().unwrap();

        let is_three = || (mem.read_u32(p).unwrap() == 3).then_some(());
        let soon = clock.deadline(Duration::from_millis(5));
        assert_eq!(
            mem.wait(&clock, soon, is_three),
            None,
            "a wait past its deadline"
        );
        let fault = std::panic::catch_unwind(|| {
            mem.wait(&clock, Deadline::NEVER, || -> Option<()> {
                panic!("device fault")
            })
        });
        assert!(fault.is_err());
        let rings = mem.rings();
        mem.write_u32(p, 3).unwrap();
        assert_eq!(mem.rings(), rings, "a finished or faulted wait still rings");
    }

    #[test]
    fn device_ptr_display_and_add() {
        let p = DevicePtr(256);
        assert_eq!(p.add(16).offset(), 272);
        assert_eq!(format!("{p}"), "dev+0x100");
        assert_eq!(DevicePtr::NULL.offset(), 0);
    }
}
