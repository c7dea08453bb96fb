//! Conversions between typed slices and the byte buffers carried by the
//! message layer, and the [`ReduceElement`] trait tying each supported
//! reduction element type to its [`ReduceDtype`] wire code.

use crate::collectives::ReduceDtype;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
    impl Sealed for u32 {}
    impl Sealed for i64 {}
}

/// An element type reductions can operate over (`f64`, `f32`, `u32` or
/// `i64`).  Sealed: the set must stay in sync with [`ReduceDtype`], which is
/// what crosses process and device boundaries.
pub trait ReduceElement: sealed::Sealed + Copy + Send + Sync + 'static {
    /// The wire identity of this element type.
    const DTYPE: ReduceDtype;

    /// Serialise a slice to little-endian bytes.
    fn slice_to_bytes(values: &[Self]) -> Vec<u8>;

    /// Deserialise little-endian bytes (must be a whole number of elements).
    fn vec_from_bytes(bytes: &[u8]) -> Vec<Self>;
}

/// One [`ReduceElement`] impl: little-endian bytes, `N` per element.
macro_rules! reduce_element {
    ($ty:ty, $dtype:expr) => {
        impl ReduceElement for $ty {
            const DTYPE: ReduceDtype = $dtype;

            fn slice_to_bytes(values: &[Self]) -> Vec<u8> {
                values.iter().flat_map(|v| v.to_le_bytes()).collect()
            }

            fn vec_from_bytes(bytes: &[u8]) -> Vec<Self> {
                const N: usize = std::mem::size_of::<$ty>();
                assert!(
                    bytes.len().is_multiple_of(N),
                    "byte length {} is not a multiple of {N}",
                    bytes.len()
                );
                bytes
                    .chunks_exact(N)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().expect("whole element")))
                    .collect()
            }
        }
    };
}

reduce_element!(f64, ReduceDtype::F64);
reduce_element!(f32, ReduceDtype::F32);
reduce_element!(u32, ReduceDtype::U32);
reduce_element!(i64, ReduceDtype::I64);

/// Convert a slice of `f64` values to little-endian bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    f64::slice_to_bytes(values)
}

/// Convert little-endian bytes back to `f64` values.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of 8.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    f64::vec_from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let vals = [0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&vals)), vals.to_vec());
    }

    #[test]
    fn f32_roundtrip() {
        let vals = [0.0f32, -2.25, 1e30, f32::EPSILON];
        assert_eq!(
            f32::vec_from_bytes(&f32::slice_to_bytes(&vals)),
            vals.to_vec()
        );
    }

    #[test]
    fn u32_roundtrip() {
        let vals = [0u32, 1, u32::MAX, 0xDEADBEEF];
        assert_eq!(
            u32::vec_from_bytes(&u32::slice_to_bytes(&vals)),
            vals.to_vec()
        );
    }

    #[test]
    fn empty_slices_are_fine() {
        assert!(bytes_to_f64s(&f64s_to_bytes(&[])).is_empty());
        assert!(u32::vec_from_bytes(&u32::slice_to_bytes(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple of 8")]
    fn misaligned_f64_bytes_panic() {
        bytes_to_f64s(&[0u8; 7]);
    }
}
