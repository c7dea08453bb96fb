//! Collective operations built from point-to-point messages, and the typed
//! reductions they fold with.
//!
//! Every collective is a thin wrapper over one blocking loop in
//! [`crate::exchange`]: it builds this rank's contribution, runs the plan DCGN's engine picks for
//! the same `(kind, size, ranks)` — star, tree, recursive doubling or ring —
//! and decodes its result.  All their traffic travels under one internal
//! tag at or above [`crate::comm::TAG_INTERNAL_BASE`], so it can never be
//! stolen by user wildcard receives.

use dcgn_netsim::Payload;

use crate::comm::Communicator;
use crate::exchange::{decode_rank_frames_into, encode_rank_frames, CollectiveId, CollectiveKind};
use crate::packet::RmpiError;
use crate::typed::{bytes_to_f64s, f64s_to_bytes};
use crate::Result;

/// Element-wise reduction operators for the typed reduce/allreduce helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// One-byte wire identity, prefixed to typed-reduction frames so peers
    /// can verify they agree on the operator.
    pub fn wire_code(self) -> u8 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => 1,
            ReduceOp::Max => 2,
        }
    }

    /// Decode a [`ReduceOp::wire_code`].
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ReduceOp::Sum),
            1 => Some(ReduceOp::Min),
            2 => Some(ReduceOp::Max),
            _ => None,
        }
    }

    /// Fold `other` into `acc` element-wise.  Public so layers above the
    /// substrate (e.g. DCGN's comm thread) can pre-combine local
    /// contributions before the node-level exchange.
    pub fn apply(&self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Min => a.min(*b),
                ReduceOp::Max => a.max(*b),
            };
        }
    }
}

/// Element type of a typed reduction, carried alongside [`ReduceOp`]
/// everywhere a reduction crosses a process or device boundary.  The
/// payloads themselves travel as little-endian bytes; this code says how to
/// interpret them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceDtype {
    /// 64-bit IEEE float (the historical default).
    F64,
    /// 32-bit IEEE float.
    F32,
    /// 32-bit unsigned integer (sum wraps on overflow).
    U32,
    /// 64-bit signed integer (sum wraps on overflow).
    I64,
}

/// Fold little-endian `N`-byte elements of `other` into `acc` with `f`.
fn fold_chunks<const N: usize>(
    acc: &mut [u8],
    other: &[u8],
    f: impl Fn([u8; N], [u8; N]) -> [u8; N],
) {
    for (a, b) in acc.chunks_exact_mut(N).zip(other.chunks_exact(N)) {
        let folded = f(
            a.try_into().expect("exact chunk"),
            b.try_into().expect("exact chunk"),
        );
        a.copy_from_slice(&folded);
    }
}

macro_rules! fold_as {
    ($ty:ty, $n:expr, $op:expr, $acc:expr, $other:expr) => {
        fold_chunks::<$n>($acc, $other, |a, b| {
            let (a, b) = (<$ty>::from_le_bytes(a), <$ty>::from_le_bytes(b));
            let r = match $op {
                ReduceOp::Sum => <$ty>::reduce_sum(a, b),
                ReduceOp::Min => <$ty>::reduce_min(a, b),
                ReduceOp::Max => <$ty>::reduce_max(a, b),
            };
            r.to_le_bytes()
        })
    };
}

/// The element-wise combine of each supported type.  Integer sums wrap (like
/// `MPI_SUM` over fixed-width integers in practice); float min/max follow
/// `f32::min`/`f64::min` NaN semantics.
trait ReduceScalar: Sized {
    fn reduce_sum(a: Self, b: Self) -> Self;
    fn reduce_min(a: Self, b: Self) -> Self;
    fn reduce_max(a: Self, b: Self) -> Self;
}

macro_rules! float_scalar {
    ($ty:ty) => {
        impl ReduceScalar for $ty {
            fn reduce_sum(a: Self, b: Self) -> Self {
                a + b
            }
            fn reduce_min(a: Self, b: Self) -> Self {
                a.min(b)
            }
            fn reduce_max(a: Self, b: Self) -> Self {
                a.max(b)
            }
        }
    };
}

macro_rules! int_scalar {
    ($ty:ty) => {
        impl ReduceScalar for $ty {
            fn reduce_sum(a: Self, b: Self) -> Self {
                a.wrapping_add(b)
            }
            fn reduce_min(a: Self, b: Self) -> Self {
                a.min(b)
            }
            fn reduce_max(a: Self, b: Self) -> Self {
                a.max(b)
            }
        }
    };
}

float_scalar!(f64);
float_scalar!(f32);
int_scalar!(u32);
int_scalar!(i64);

impl ReduceDtype {
    /// Size of one element in bytes.
    pub fn element_bytes(self) -> usize {
        match self {
            ReduceDtype::F64 | ReduceDtype::I64 => 8,
            ReduceDtype::F32 | ReduceDtype::U32 => 4,
        }
    }

    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ReduceDtype::F64 => "f64",
            ReduceDtype::F32 => "f32",
            ReduceDtype::U32 => "u32",
            ReduceDtype::I64 => "i64",
        }
    }

    /// Validate that `bytes` holds a whole number of elements.
    pub fn check_aligned(self, bytes: &[u8]) -> Result<()> {
        if !bytes.len().is_multiple_of(self.element_bytes()) {
            return Err(RmpiError::InvalidArgument(format!(
                "{}-byte reduce payload is not a whole number of {} elements",
                bytes.len(),
                self.name()
            )));
        }
        Ok(())
    }

    /// One-byte wire identity, prefixed to typed-reduction frames so peers
    /// can verify they agree on the element type.
    pub fn wire_code(self) -> u8 {
        match self {
            ReduceDtype::F64 => 0,
            ReduceDtype::F32 => 1,
            ReduceDtype::U32 => 2,
            ReduceDtype::I64 => 3,
        }
    }

    /// Decode a [`ReduceDtype::wire_code`].
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ReduceDtype::F64),
            1 => Some(ReduceDtype::F32),
            2 => Some(ReduceDtype::U32),
            3 => Some(ReduceDtype::I64),
            _ => None,
        }
    }

    /// Fold `other` into `acc` element-wise under `op`.  Both buffers must be
    /// aligned to the element size and of equal length (in elements).
    pub fn fold(self, op: ReduceOp, acc: &mut [u8], other: &[u8]) -> Result<()> {
        if acc.len() != other.len() {
            return Err(RmpiError::InvalidArgument(format!(
                "reduce length mismatch: {} vs {} {} elements",
                other.len() / self.element_bytes(),
                acc.len() / self.element_bytes(),
                self.name()
            )));
        }
        self.check_aligned(acc)?;
        match self {
            ReduceDtype::F64 => fold_as!(f64, 8, op, acc, other),
            ReduceDtype::F32 => fold_as!(f32, 4, op, acc, other),
            ReduceDtype::U32 => fold_as!(u32, 4, op, acc, other),
            ReduceDtype::I64 => fold_as!(i64, 8, op, acc, other),
        }
        Ok(())
    }
}

/// Prefix a typed-reduction payload with its `(op, dtype)` identity so the
/// receiving peer can verify agreement before folding the bytes.
pub fn frame_reduce(op: ReduceOp, dtype: ReduceDtype, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + payload.len());
    out.push(op.wire_code());
    out.push(dtype.wire_code());
    out.extend_from_slice(payload);
    out
}

/// Split a [`frame_reduce`] frame, verifying the peer used the same operator
/// and element type.  A disagreement is reported instead of reinterpreting
/// the peer's bytes under the wrong type.
pub fn parse_reduce_frame(frame: &[u8], op: ReduceOp, dtype: ReduceDtype) -> Result<&[u8]> {
    let (&[op_code, dtype_code], payload) = frame
        .split_first_chunk::<2>()
        .ok_or_else(|| RmpiError::InvalidArgument("truncated typed-reduction frame".into()))?;
    let peer_op = ReduceOp::from_wire_code(op_code);
    let peer_dtype = ReduceDtype::from_wire_code(dtype_code);
    if peer_op != Some(op) || peer_dtype != Some(dtype) {
        return Err(RmpiError::InvalidArgument(format!(
            "reduce identity mismatch across ranks: peer folded {:?}/{}, this rank {op:?}/{}",
            peer_op,
            peer_dtype.map_or("?", ReduceDtype::name),
            dtype.name()
        )));
    }
    Ok(payload)
}

impl Communicator {
    /// Synchronise every rank.
    pub fn barrier(&mut self) -> Result<()> {
        self.run_collective(collective(CollectiveKind::Barrier, None, None), Vec::new())?;
        Ok(())
    }

    /// Broadcast `data` from `root` to every rank.  On entry only the root's
    /// `data` matters; on return every rank holds the root's bytes.
    pub fn bcast(&mut self, root: usize, data: &mut Vec<u8>) -> Result<()> {
        let id = collective(CollectiveKind::Broadcast, Some(root), None);
        if self.rank() == root {
            self.run_collective(id, data.clone())?;
        } else {
            *data = self.run_collective(id, Vec::new())?.into_vec();
        }
        Ok(())
    }

    /// Gather per-rank buffers of possibly different sizes at `root`.
    /// Returns `Some(contributions)` (indexed by rank) at the root, `None`
    /// elsewhere.
    pub fn gatherv(&mut self, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        let up = encode_rank_frames([(self.rank(), data)].into_iter());
        let id = collective(CollectiveKind::Gather, Some(root), None);
        let table = self.rank_table(id, up)?;
        Ok((self.rank() == root).then(|| table.into_iter().map(Payload::into_vec).collect()))
    }

    /// Gather equal-sized buffers at `root`, concatenated in rank order.
    pub fn gather(&mut self, root: usize, data: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.gatherv(root, data)?.map(|parts| parts.concat()))
    }

    /// Scatter per-rank chunks from `root`.  The root passes
    /// `Some(chunks)` with exactly one chunk per rank; other ranks pass
    /// `None`.  Every rank returns its own chunk.
    pub fn scatterv(&mut self, root: usize, chunks: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        let size = self.size();
        let up = if self.rank() == root {
            let chunks = chunks.ok_or_else(|| {
                RmpiError::InvalidArgument("root must supply scatter chunks".into())
            })?;
            if chunks.len() != size {
                return Err(RmpiError::InvalidArgument(format!(
                    "scatter needs {} chunks, got {}",
                    size,
                    chunks.len()
                )));
            }
            encode_rank_frames(chunks.iter().map(Vec::as_slice).enumerate())
        } else {
            Vec::new()
        };
        let id = collective(CollectiveKind::Scatter, Some(root), None);
        let mut table = self.rank_table(id, up)?;
        Ok(table.swap_remove(self.rank()).into_vec())
    }

    /// Scatter an evenly divisible byte buffer from `root`.
    pub fn scatter(&mut self, root: usize, data: Option<&[u8]>) -> Result<Vec<u8>> {
        let size = self.size();
        let chunks = if self.rank() == root {
            let data = data.ok_or_else(|| {
                RmpiError::InvalidArgument("root must supply scatter data".into())
            })?;
            if data.len() % size != 0 {
                return Err(RmpiError::InvalidArgument(format!(
                    "scatter buffer of {} bytes not divisible by {} ranks",
                    data.len(),
                    size
                )));
            }
            let chunk = data.len() / size;
            Some(
                (0..size)
                    .map(|i| data[i * chunk..(i + 1) * chunk].to_vec())
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };
        self.scatterv(root, chunks.as_deref())
    }

    /// Element-wise reduction of typed vectors (carried as little-endian
    /// bytes of `dtype` elements) to `root`.  Returns `Some(result)` at the
    /// root, `None` elsewhere.
    pub fn reduce_bytes(
        &mut self,
        root: usize,
        data: &[u8],
        op: ReduceOp,
        dtype: ReduceDtype,
    ) -> Result<Option<Vec<u8>>> {
        dtype.check_aligned(data)?;
        let id = collective(CollectiveKind::Reduce, Some(root), Some((op, dtype)));
        let result = self.run_collective(id, frame_reduce(op, dtype, data))?;
        Ok((self.rank() == root).then(|| result.into_vec()))
    }

    /// Typed element-wise reduction where every rank receives the result.
    pub fn allreduce_bytes(
        &mut self,
        data: &[u8],
        op: ReduceOp,
        dtype: ReduceDtype,
    ) -> Result<Vec<u8>> {
        dtype.check_aligned(data)?;
        let id = collective(CollectiveKind::Allreduce, None, Some((op, dtype)));
        Ok(self
            .run_collective(id, frame_reduce(op, dtype, data))?
            .into_vec())
    }

    /// Element-wise `f64` reduction where every rank receives the result.
    pub fn allreduce_f64(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        let bytes = self.allreduce_bytes(&f64s_to_bytes(data), op, ReduceDtype::F64)?;
        Ok(bytes_to_f64s(&bytes))
    }

    /// Run a gather or scatter and decode this rank's down-payload into a
    /// rank-indexed table of views.
    fn rank_table(&mut self, id: CollectiveId, up: Vec<u8>) -> Result<Vec<Payload>> {
        let payload = self.run_collective(id, up)?;
        let mut table = vec![Payload::empty(); self.size()];
        decode_rank_frames_into(&payload, &mut table);
        Ok(table)
    }
}

/// The identity of one of this crate's collectives.
fn collective(
    kind: CollectiveKind,
    root: Option<usize>,
    reduction: Option<(ReduceOp, ReduceDtype)>,
) -> CollectiveId {
    CollectiveId {
        kind,
        root,
        reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::ReduceElement;

    fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
        f32::slice_to_bytes(values)
    }

    fn u32s_to_bytes(values: &[u32]) -> Vec<u8> {
        u32::slice_to_bytes(values)
    }

    fn i64s_to_bytes(values: &[i64]) -> Vec<u8> {
        i64::slice_to_bytes(values)
    }

    #[test]
    fn dtype_fold_matches_scalar_semantics_per_type() {
        let check = |dtype: ReduceDtype, op: ReduceOp, a: Vec<u8>, b: Vec<u8>, want: Vec<u8>| {
            let mut acc = a;
            dtype.fold(op, &mut acc, &b).unwrap();
            assert_eq!(acc, want, "{} {op:?}", dtype.name());
        };
        check(
            ReduceDtype::F64,
            ReduceOp::Sum,
            f64s_to_bytes(&[1.5, -2.0]),
            f64s_to_bytes(&[0.25, 4.0]),
            f64s_to_bytes(&[1.75, 2.0]),
        );
        check(
            ReduceDtype::F32,
            ReduceOp::Min,
            f32s_to_bytes(&[1.0, -3.0]),
            f32s_to_bytes(&[0.5, 7.0]),
            f32s_to_bytes(&[0.5, -3.0]),
        );
        check(
            ReduceDtype::U32,
            ReduceOp::Max,
            u32s_to_bytes(&[3, u32::MAX]),
            u32s_to_bytes(&[9, 0]),
            u32s_to_bytes(&[9, u32::MAX]),
        );
        check(
            ReduceDtype::I64,
            ReduceOp::Sum,
            i64s_to_bytes(&[i64::MIN, -5]),
            i64s_to_bytes(&[-1, 6]),
            // Integer sums wrap, like MPI_SUM over fixed-width integers.
            i64s_to_bytes(&[i64::MAX, 1]),
        );
    }

    #[test]
    fn dtype_fold_rejects_mismatched_and_misaligned_buffers() {
        let mut acc = u32s_to_bytes(&[1, 2]);
        assert!(ReduceDtype::U32
            .fold(ReduceOp::Sum, &mut acc, &u32s_to_bytes(&[1]))
            .is_err());
        let mut ragged = vec![0u8; 6];
        assert!(ReduceDtype::U32
            .fold(ReduceOp::Sum, &mut ragged, &[0u8; 6])
            .is_err());
        assert!(ReduceDtype::I64.check_aligned(&[0u8; 12]).is_err());
        assert!(ReduceDtype::F32.check_aligned(&[0u8; 12]).is_ok());
    }

    #[test]
    fn reduce_element_dtypes_and_roundtrips_line_up() {
        assert_eq!(<f64 as ReduceElement>::DTYPE, ReduceDtype::F64);
        assert_eq!(<f32 as ReduceElement>::DTYPE, ReduceDtype::F32);
        assert_eq!(<u32 as ReduceElement>::DTYPE, ReduceDtype::U32);
        assert_eq!(<i64 as ReduceElement>::DTYPE, ReduceDtype::I64);
        assert_eq!(
            i64::vec_from_bytes(&i64::slice_to_bytes(&[-7, i64::MAX])),
            vec![-7, i64::MAX]
        );
        for dtype in [
            ReduceDtype::F64,
            ReduceDtype::F32,
            ReduceDtype::U32,
            ReduceDtype::I64,
        ] {
            assert!(dtype.element_bytes() == 4 || dtype.element_bytes() == 8);
        }
    }
}
