//! Pooled, reference-counted payload buffers — the zero-copy backbone of the
//! data path, from kernel staging through the MPI substrate's wire frames.
//!
//! The module lives in the fabric crate so every layer above it — the
//! `dcgn_rmpi` substrate's eager/rendezvous packets and the DCGN runtime's
//! request/reply plumbing alike — can move one shared allocation instead of
//! memcpy'ing a fresh `Vec<u8>` per hop.  A [`Payload`] wraps one
//! slab-recycled allocation behind an `Arc`:
//!
//! * **clone is free** — handing a payload to another layer (or scattering a
//!   collective result to N ranks) bumps a reference count instead of
//!   copying bytes;
//! * **slicing is free** — [`Payload::slice`] returns a view into the same
//!   allocation, so decoding a wire frame into its body costs nothing;
//! * **re-joining is free** — [`Payload::append`] grows a view over the
//!   slice that directly follows it, so a receiver puts a streamed
//!   transfer's chunks back together without an assembly buffer;
//! * **framing is (usually) free** — every pool class is a power of two plus
//!   one point-to-point envelope, so [`Payload::into_framed`] appends the
//!   envelope in the buffer's spare capacity instead of copying the body
//!   into a fresh frame, and the body stays at offset 0 of its allocation;
//! * **delivery is free** — a body at offset 0 of a buffer nobody else
//!   references leaves through [`Payload::into_vec`] as the allocation
//!   itself, not as a copy of it;
//! * **allocations are recycled** — when the last reference drops, the
//!   backing buffer returns to a size-classed slab pool and is handed out
//!   again.  A buffer can only re-enter the pool once *no* payload
//!   references it, so recycling can never alias live data (see the
//!   property test in `crates/core/tests/payload_pool.rs`).

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dcgn_metrics::{Counter, Gauge};

/// Size of the point-to-point envelope [`Payload::into_framed`] appends
/// behind a body.  Every pool class is a power of two plus this, so a
/// power-of-two body and its envelope share one pooled allocation.
pub const ENVELOPE_BYTES: usize = 16;

// ---------------------------------------------------------------------------
// The slab pool
// ---------------------------------------------------------------------------

/// Smallest pooled capacity class (everything below rounds up to this).
const MIN_CLASS_SHIFT: u32 = 8; // 256 B + envelope
/// Largest pooled capacity class; bigger buffers are not recycled.  Sized to
/// cover the rendezvous pipeline's multi-megabyte staging buffers so huge
/// transfers recycle their allocation instead of re-allocating it per
/// message.
const MAX_CLASS_SHIFT: u32 = 22; // 4 MB + envelope
const NUM_CLASSES: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;
/// Retained buffers per class for the small classes, bounding idle pool
/// memory.  Large classes retain fewer (see [`max_retained`]).
const MAX_PER_CLASS: usize = 64;
/// Idle-byte budget per large class: classes whose buffers are big enough
/// that `MAX_PER_CLASS` of them would dwarf this budget retain only
/// `budget / class_size` buffers instead.
const LARGE_CLASS_IDLE_BYTES: usize = 1 << 24; // 16 MB

/// Size-aware retention cap for one class: 64 buffers for classes up to
/// 256 KB, then halving per doubling (1 MB keeps 16, 4 MB keeps 4) so the
/// worst-case idle memory of a large class stays at 16 MB.
fn max_retained(class: usize) -> usize {
    MAX_PER_CLASS.min(LARGE_CLASS_IDLE_BYTES >> (class as u32 + MIN_CLASS_SHIFT))
}

struct Pool {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    // Registry-backed instruments in [`dcgn_metrics::global`] (the pool is a
    // process-wide singleton, so it reports to the process-wide registry):
    // relaxed atomics, so the stats path adds no lock to acquire/release.
    reused: Counter,
    allocated: Counter,
    recycled: Counter,
    /// Buffers currently retained in the slab, with a high-water mark; the
    /// lifetime maximum is bounded by `NUM_CLASSES × MAX_PER_CLASS`.
    retained: Gauge,
}

/// Allocation-recycling counters, exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out from the slab (no heap allocation).
    pub reused: u64,
    /// Buffers freshly allocated because the slab had none of the right
    /// class (or the request exceeded the largest class).
    pub allocated: u64,
    /// Buffers returned to the slab on final release.
    pub recycled: u64,
}

/// Capacity of every buffer in `class`: its power of two plus one envelope.
fn class_capacity(class: usize) -> usize {
    (1 << (class as u32 + MIN_CLASS_SHIFT)) + ENVELOPE_BYTES
}

/// The smallest class whose buffers hold `capacity` bytes.
fn class_of(capacity: usize) -> Option<usize> {
    let shift = capacity
        .saturating_sub(ENVELOPE_BYTES)
        .next_power_of_two()
        .trailing_zeros()
        .max(MIN_CLASS_SHIFT);
    (shift <= MAX_CLASS_SHIFT).then_some((shift - MIN_CLASS_SHIFT) as usize)
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let metrics = dcgn_metrics::global();
            Pool {
                classes: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
                reused: metrics.counter("pool.acquire_reuse"),
                allocated: metrics.counter("pool.acquire_miss"),
                recycled: metrics.counter("pool.recycled"),
                retained: metrics.gauge("pool.retained"),
            }
        })
    }

    fn acquire(&self, capacity: usize) -> Vec<u8> {
        if let Some(class) = class_of(capacity) {
            if let Some(mut buf) = self.classes[class].lock().expect("pool lock").pop() {
                buf.clear();
                self.reused.inc();
                self.retained.sub(1);
                return buf;
            }
            self.allocated.inc();
            return Vec::with_capacity(class_capacity(class));
        }
        self.allocated.inc();
        Vec::with_capacity(capacity)
    }

    /// Return `buf` to its class's slab (from a `Drop`); true when the slab
    /// kept it.
    fn release(&self, buf: Vec<u8>) -> bool {
        // Only exact class-sized capacities are retained, so acquire() can
        // trust that a pooled buffer fits its class.
        let Some(class) = class_of(buf.capacity()) else {
            return false;
        };
        if buf.capacity() != class_capacity(class) {
            return false;
        }
        let mut slab = self.classes[class]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slab.len() >= max_retained(class) {
            return false;
        }
        slab.push(buf);
        self.recycled.inc();
        self.retained.add(1);
        true
    }
}

/// Snapshot of the global pool's recycling counters (a view over the
/// `pool.*` instruments in [`dcgn_metrics::global`]).
pub fn pool_stats() -> PoolStats {
    let pool = Pool::global();
    PoolStats {
        reused: pool.reused.get(),
        allocated: pool.allocated.get(),
        recycled: pool.recycled.get(),
    }
}

/// Upper bound on buffers the slab can retain at once — the ceiling for the
/// `pool.retained` gauge's high-water mark.
pub fn pool_capacity() -> u64 {
    (0..NUM_CLASSES).map(|c| max_retained(c) as u64).sum()
}

// ---------------------------------------------------------------------------
// PayloadBuf: the unique, writable stage
// ---------------------------------------------------------------------------

/// A uniquely-owned, writable buffer drawn from the slab pool.  Fill it, then
/// [`freeze`](PayloadBuf::freeze) it into a shareable [`Payload`].
#[derive(Debug)]
pub struct PayloadBuf {
    data: Vec<u8>,
}

impl PayloadBuf {
    /// An empty buffer sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        PayloadBuf {
            data: Pool::global().acquire(capacity),
        }
    }

    /// Append bytes to the body.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Grow the body to exactly `len` zero-filled bytes and return it
    /// mutably — the staging surface for device reads
    /// (`memcpy_dtoh` writes straight into the pooled buffer).
    pub fn body_mut(&mut self, len: usize) -> &mut [u8] {
        // Zero-extend in memcpy-sized blocks rather than `Vec::resize`:
        // resize's per-element extend loop only becomes a memset under
        // optimization, which made megabyte staging buffers cost
        // milliseconds in debug builds.
        const ZEROS: [u8; 4096] = [0; 4096];
        while self.data.len() < len {
            let step = (len - self.data.len()).min(ZEROS.len());
            self.data.extend_from_slice(&ZEROS[..step]);
        }
        self.data.truncate(len);
        &mut self.data
    }

    /// Body length so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no body bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Seal the buffer into an immutable, cheaply-cloneable [`Payload`].
    pub fn freeze(mut self) -> Payload {
        Payload::from_vec(std::mem::take(&mut self.data))
    }
}

impl Drop for PayloadBuf {
    /// A stage abandoned before [`freeze`](PayloadBuf::freeze) — e.g. a
    /// device read that faulted half-way — still returns its allocation to
    /// the slab.  (`freeze` takes the Vec out,
    /// leaving a zero-capacity husk that `release` ignores.)
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        if data.capacity() > 0 {
            Pool::global().release(data);
        }
    }
}

// ---------------------------------------------------------------------------
// Payload: the shared, immutable view
// ---------------------------------------------------------------------------

/// The backing allocation.  Returns to the slab pool when the last
/// [`Payload`] referencing it is dropped — never earlier, so a recycled
/// buffer can never alias a live view.
struct Inner {
    data: Vec<u8>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        if data.capacity() > 0 {
            Pool::global().release(data);
        }
    }
}

/// An immutable byte payload backed by a pooled, reference-counted
/// allocation.  Cloning and slicing are O(1); the bytes are copied at most
/// once, when they first enter the buffer.
#[derive(Clone)]
pub struct Payload {
    inner: Arc<Inner>,
    off: usize,
    len: usize,
}

impl Payload {
    /// The empty payload (no backing allocation traffic).
    pub fn empty() -> Payload {
        static EMPTY: OnceLock<Payload> = OnceLock::new();
        EMPTY
            .get_or_init(|| Payload {
                inner: Arc::new(Inner { data: Vec::new() }),
                off: 0,
                len: 0,
            })
            .clone()
    }

    /// Copy `bytes` into a pooled buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Payload {
        let mut buf = PayloadBuf::with_capacity(bytes.len());
        buf.extend_from_slice(bytes);
        buf.freeze()
    }

    /// Adopt an existing vector without copying (the vector is recycled
    /// through the pool when the payload is released, if its capacity
    /// matches a pool class).
    pub fn from_vec(data: Vec<u8>) -> Payload {
        let len = data.len();
        Payload {
            inner: Arc::new(Inner { data }),
            off: 0,
            len,
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.data[self.off..self.off + self.len]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-view sharing this payload's allocation.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for payload of {} bytes",
            self.len
        );
        Payload {
            inner: Arc::clone(&self.inner),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Copy the bytes out into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Extract the bytes as a vector, reusing the backing allocation when
    /// this is the only reference and the view starts at the buffer's
    /// beginning; otherwise copies.
    pub fn into_vec(self) -> Vec<u8> {
        let off = self.off;
        let len = self.len;
        match Arc::try_unwrap(self.inner) {
            Ok(mut inner) if off == 0 => {
                let mut data = std::mem::take(&mut inner.data);
                data.truncate(len);
                data
            }
            Ok(inner) => inner.data[off..off + len].to_vec(),
            Err(shared) => shared.data[off..off + len].to_vec(),
        }
    }

    /// Consume the payload into a wire frame of `body ++ envelope`.
    ///
    /// When this is the sole reference to a buffer whose body starts at
    /// offset 0 and leaves an envelope's worth of spare capacity — any
    /// pooled stage of a body up to its class's power of two — the envelope
    /// is appended in place and the payload comes back as the frame, with
    /// its allocation and its `Arc`: the body is **not** copied and nothing
    /// is allocated.  Shared, sliced or brim-full payloads are copied into a
    /// pooled frame instead.
    pub fn into_framed(mut self, envelope: &[u8; ENVELOPE_BYTES]) -> Payload {
        // Sole owner (no clone can appear while `self` is held by value).
        let len = self.len;
        match Arc::get_mut(&mut self.inner) {
            Some(inner) if self.off == 0 && inner.data.capacity() - len >= ENVELOPE_BYTES => {
                inner.data.truncate(len);
                inner.data.extend_from_slice(envelope);
                self.len += ENVELOPE_BYTES;
                self
            }
            _ => {
                let mut frame = PayloadBuf::with_capacity(len + ENVELOPE_BYTES);
                frame.extend_from_slice(self.as_slice());
                frame.extend_from_slice(envelope);
                frame.freeze()
            }
        }
    }

    /// Append `next` to this payload.
    ///
    /// When `next` is the view that directly follows this one in the same
    /// allocation — consecutive [`slice`](Payload::slice)s of one staged
    /// buffer, which is what a streamed transfer's chunks are — the view
    /// just grows over it: nothing is copied and nothing is acquired.  An
    /// empty payload takes `next` over as it is, and an empty `next` changes
    /// nothing.  Anything else (a gap, an overlap, another allocation) is
    /// joined by one pooled copy.
    pub fn append(&mut self, next: Payload) {
        if self.is_empty() {
            *self = next;
        } else if Arc::ptr_eq(&self.inner, &next.inner) && self.off + self.len == next.off {
            self.len += next.len;
        } else if !next.is_empty() {
            let mut joined = PayloadBuf::with_capacity(self.len + next.len);
            joined.extend_from_slice(self.as_slice());
            joined.extend_from_slice(next.as_slice());
            *self = joined.freeze();
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} bytes)", self.len)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Payload {
        Payload::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_views() {
        let p = Payload::copy_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(p.len(), 5);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4, 5]);
        let s = p.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        // The view shares the parent's allocation.
        assert_eq!(s.to_vec(), vec![2, 3, 4]);
        assert_eq!(p.clone(), p);
        assert!(Payload::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Payload::copy_from_slice(&[1, 2]).slice(0..3);
    }

    #[test]
    fn into_framed_appends_the_envelope_without_moving_the_body() {
        let p = Payload::copy_from_slice(&[9u8; 256]);
        let body_ptr = p.as_slice().as_ptr();
        let envelope = [7u8; ENVELOPE_BYTES];
        let frame = p.into_framed(&envelope);
        assert_eq!(&frame.as_slice()[..256], &[9u8; 256]);
        assert_eq!(&frame.as_slice()[256..], &envelope);
        // A power-of-two body and its envelope fit one class: the frame is
        // the staged allocation, body still at offset 0.
        assert_eq!(frame.as_slice().as_ptr(), body_ptr);
        // So the receiver's body view, once the frame view is gone, leaves
        // as that same allocation — no copy-out.
        let body = frame.slice(0..256);
        drop(frame);
        let out = body.into_vec();
        assert_eq!(out.as_ptr(), body_ptr);
        assert_eq!(out, vec![9u8; 256]);
    }

    #[test]
    fn into_framed_copies_when_shared_sliced_or_full() {
        let envelope = [1u8; ENVELOPE_BYTES];
        // Shared: a clone exists, so the frame must copy.
        let p = Payload::copy_from_slice(&[5u8; 10]);
        let keep = p.clone();
        let frame = p.into_framed(&envelope);
        assert_eq!(&frame.as_slice()[..10], keep.as_slice());
        assert_ne!(frame.as_slice().as_ptr(), keep.as_slice().as_ptr());
        assert_eq!(keep.as_slice(), &[5u8; 10], "clone must be untouched");
        // A view that does not start the buffer.
        let p = Payload::copy_from_slice(&[8u8; 10]).slice(2..8);
        let frame = p.into_framed(&envelope);
        assert_eq!(&frame.as_slice()[..6], &[8u8; 6]);
        assert_eq!(&frame.as_slice()[6..], &envelope);
        // No spare capacity: an adopted exact-size vector, and a pooled
        // body just past its class's power of two.
        for staged in [
            Payload::from_vec(vec![6u8; 3]),
            Payload::copy_from_slice(&[6u8; 257]),
        ] {
            let len = staged.len();
            let frame = staged.into_framed(&envelope);
            assert_eq!(&frame.as_slice()[..len], &vec![6u8; len][..]);
            assert_eq!(&frame.as_slice()[len..], &envelope);
        }
    }

    #[test]
    fn append_grows_over_the_adjacent_view_without_copying() {
        // (That this moves no pool counter is asserted where the counters
        // are quiet: `tests/integration_zero_copy.rs`.)
        let whole = Payload::copy_from_slice(&[7u8; 5000]);
        let base = whole.as_slice().as_ptr();
        let cuts = [0, 10, 10, 4096, whole.len()];
        let mut joined = Payload::empty();
        for pair in cuts.windows(2) {
            joined.append(whole.slice(pair[0]..pair[1]));
        }
        assert_eq!(joined.len(), whole.len());
        assert_eq!(joined.as_slice().as_ptr(), base);
        // Once the other handles are gone the coalesced view is the buffer.
        drop(whole);
        let out = joined.into_vec();
        assert_eq!(out.as_ptr(), base);
        // A run that starts past the buffer's beginning coalesces too; it is
        // `into_vec` that copies such a view out.
        let whole = Payload::from_vec((0..100).collect());
        let mut mid = whole.slice(20..50);
        mid.append(whole.slice(50..90));
        assert_eq!(mid.as_slice().as_ptr(), whole.as_slice()[20..].as_ptr());
        assert_eq!(mid, whole.as_slice()[20..90]);
    }

    #[test]
    fn append_copies_what_it_cannot_coalesce() {
        let whole = Payload::from_vec((0..100).collect());
        let other = Payload::from_vec((50..80).collect());
        let cases = [
            ("gap", whole.slice(0..40), whole.slice(50..80)),
            ("overlap", whole.slice(0..60), whole.slice(50..80)),
            ("another allocation", whole.slice(0..50), other),
        ];
        // Nothing to join: no copy either.
        let mut same = whole.slice(0..50);
        same.append(Payload::empty());
        assert_eq!(same.as_slice().as_ptr(), whole.as_slice().as_ptr());
        assert_eq!(same.len(), 50);
        for (what, mut first, next) in cases {
            let want = [first.as_slice(), next.as_slice()].concat();
            first.append(next);
            assert_eq!(first, want, "{what}");
            assert_ne!(first.as_slice().as_ptr(), whole.as_slice().as_ptr());
            assert_eq!(whole, (0..100).collect::<Vec<u8>>(), "{what}: source");
        }
    }

    #[test]
    fn into_vec_moves_when_unique_and_unoffset() {
        let v = Payload::from_vec(vec![1, 2, 3]).into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        // Slices and clones copy instead.
        let p = Payload::from_vec(vec![1, 2, 3, 4]);
        let s = p.slice(1..3);
        assert_eq!(s.into_vec(), vec![2, 3]);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        // A large size class no other unit test touches, so the global
        // counters move only for this test's buffers.
        let size = (1 << 18) + 5;
        let before = pool_stats();
        drop(Payload::copy_from_slice(&vec![3u8; size]));
        let after = pool_stats();
        assert!(after.recycled > before.recycled, "drop must recycle");
        let p = Payload::copy_from_slice(&vec![4u8; size]);
        assert!(pool_stats().reused > before.reused, "alloc must reuse");
        assert_eq!(p.as_slice(), &vec![4u8; size][..]);
    }

    /// Whether the slab holds the allocation that starts at `ptr`.  Other
    /// tests recycle into the same process-wide pool concurrently, so the
    /// tests below look for their own buffer rather than at the counters.
    fn pooled(ptr: *const u8) -> bool {
        let slabs = &Pool::global().classes;
        slabs
            .iter()
            .any(|slab| slab.lock().unwrap().iter().any(|b| b.as_ptr() == ptr))
    }

    #[test]
    fn recycling_waits_for_the_last_reference() {
        let size = (1 << 19) + 1; // quiet 1 MB class, see above
        let p = Payload::copy_from_slice(&vec![0xAB; size]);
        let buffer = p.as_slice().as_ptr();
        let view = p.slice(100..200);
        drop(p);
        // The slice still pins the buffer: it is not in the slab yet.
        assert!(!pooled(buffer));
        assert_eq!(view.as_slice(), &[0xAB; 100]);
        drop(view);
        assert!(pooled(buffer));
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let huge = vec![1u8; (1 << 22) + ENVELOPE_BYTES + 1];
        assert!(!Pool::global().release(huge));
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(256 + ENVELOPE_BYTES), Some(0));
        assert_eq!(class_of(256 + ENVELOPE_BYTES + 1), Some(1));
        assert_eq!(class_capacity(0), 256 + ENVELOPE_BYTES);
        // A 4 MB body plus its envelope is the largest class, not a miss.
        let top = (1 << 22) + ENVELOPE_BYTES;
        assert_eq!(class_of(1 << 22), Some(NUM_CLASSES - 1));
        assert_eq!(class_of(top), Some(NUM_CLASSES - 1));
        assert_eq!(class_capacity(NUM_CLASSES - 1), top);
        assert_eq!(class_of(top + 1), None);
    }

    #[test]
    fn retention_caps_shrink_with_class_size() {
        // ≤256 KB classes keep the full complement; bigger classes halve per
        // doubling so no class idles more than 16 MB (plus envelopes).
        let class = |shift: u32| class_of((1 << shift) + ENVELOPE_BYTES).unwrap();
        assert_eq!(max_retained(class(16)), 64);
        assert_eq!(max_retained(class(18)), 64);
        assert_eq!(max_retained(class(20)), 16);
        assert_eq!(max_retained(class(22)), 4);
        // 11 classes (256 B – 256 KB) × 64, then 32 + 16 + 8 + 4.
        assert_eq!(pool_capacity(), 11 * 64 + 60);
    }

    #[test]
    fn payload_buf_body_staging() {
        let mut buf = PayloadBuf::with_capacity(64);
        assert!(buf.is_empty());
        buf.body_mut(8).copy_from_slice(&[7u8; 8]);
        assert_eq!(buf.len(), 8);
        let p = buf.freeze();
        assert_eq!(p.as_slice(), &[7u8; 8]);
    }
}
