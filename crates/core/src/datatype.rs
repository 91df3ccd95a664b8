//! Minimal datatype support: conversions between typed slices and wire
//! bytes, and the reduction operators the benchmarks use.

/// Reduction operators (`MPI_SUM`, `MPI_MIN`, `MPI_MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

/// A fixed-width scalar that can cross the simulated wire.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Send + 'static {
    /// Wire width in bytes.
    const WIDTH: usize;
    /// Serialize one value into exactly `WIDTH` bytes.
    fn write(self, out: &mut [u8]);
    /// Deserialize one value from exactly `WIDTH` bytes.
    fn read(buf: &[u8]) -> Self;
    /// Apply a reduction operator.
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self;
}

impl Scalar for f64 {
    const WIDTH: usize = 8;
    #[inline]
    fn write(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read(buf: &[u8]) -> Self {
        f64::from_le_bytes(buf.try_into().expect("WIDTH bytes"))
    }
    #[inline]
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Scalar for i64 {
    const WIDTH: usize = 8;
    #[inline]
    fn write(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read(buf: &[u8]) -> Self {
        i64::from_le_bytes(buf.try_into().expect("WIDTH bytes"))
    }
    #[inline]
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl Scalar for u32 {
    const WIDTH: usize = 4;
    #[inline]
    fn write(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read(buf: &[u8]) -> Self {
        u32::from_le_bytes(buf.try_into().expect("WIDTH bytes"))
    }
    #[inline]
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// Serialize a typed slice: one sized buffer filled chunk by chunk, which
/// compiles to a block copy on little-endian targets.
pub fn to_bytes<T: Scalar>(vals: &[T]) -> Vec<u8> {
    let mut out = vec![0; vals.len() * T::WIDTH];
    for (chunk, &v) in out.chunks_exact_mut(T::WIDTH).zip(vals) {
        v.write(chunk);
    }
    out
}

/// Deserialize a typed vector.
pub fn from_bytes<T: Scalar>(buf: &[u8]) -> Vec<T> {
    assert_eq!(
        buf.len() % T::WIDTH,
        0,
        "byte length {} not a multiple of scalar width {}",
        buf.len(),
        T::WIDTH
    );
    buf.chunks_exact(T::WIDTH).map(T::read).collect()
}

/// Elementwise in-place reduction: `acc[i] = op(acc[i], other[i])`.
pub fn reduce_into<T: Scalar>(op: ReduceOp, acc: &mut [T], other: &[T]) {
    assert_eq!(acc.len(), other.len(), "reduction length mismatch");
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = T::reduce(op, *a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, f64::MAX, 0.0, f64::MIN_POSITIVE];
        assert_eq!(from_bytes::<f64>(&to_bytes(&v)), v);
    }

    #[test]
    fn i64_roundtrip() {
        let v = vec![i64::MIN, -1, 0, 1, i64::MAX];
        assert_eq!(from_bytes::<i64>(&to_bytes(&v)), v);
    }

    #[test]
    fn u32_roundtrip() {
        let v = vec![0u32, 1, u32::MAX];
        assert_eq!(from_bytes::<u32>(&to_bytes(&v)), v);
    }

    #[test]
    fn roundtrip_at_every_length_and_width() {
        // Empty, one element, an odd count, and a block large enough that
        // the bulk path runs many vector widths.
        for n in [0usize, 1, 1023, 1 << 20] {
            let f: Vec<f64> = (0..n).map(|i| i as f64 * -0.75 + 1e-300).collect();
            let i: Vec<i64> = (0..n)
                .map(|i| (i as i64).wrapping_mul(i64::MAX / 7))
                .collect();
            let u: Vec<u32> = (0..n)
                .map(|i| (i as u32).wrapping_mul(0x9E37_79B9))
                .collect();
            let (fb, ib, ub) = (to_bytes(&f), to_bytes(&i), to_bytes(&u));
            assert_eq!((fb.len(), ib.len(), ub.len()), (n * 8, n * 8, n * 4));
            assert_eq!(from_bytes::<f64>(&fb), f);
            assert_eq!(from_bytes::<i64>(&ib), i);
            assert_eq!(from_bytes::<u32>(&ub), u);
            // The wire format is little-endian, element by element.
            if let Some(&last) = u.last() {
                assert_eq!(ub[ub.len() - 4..], last.to_le_bytes());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_bytes_rejected() {
        from_bytes::<f64>(&[0u8; 7]);
    }

    #[test]
    fn reduce_ops() {
        let mut acc = vec![1.0, 5.0, -3.0];
        reduce_into(ReduceOp::Sum, &mut acc, &[1.0, 1.0, 1.0]);
        assert_eq!(acc, vec![2.0, 6.0, -2.0]);
        reduce_into(ReduceOp::Max, &mut acc, &[0.0, 10.0, 0.0]);
        assert_eq!(acc, vec![2.0, 10.0, 0.0]);
        reduce_into(ReduceOp::Min, &mut acc, &[5.0, 5.0, -5.0]);
        assert_eq!(acc, vec![2.0, 5.0, -5.0]);
    }

    #[test]
    fn integer_sum_wraps_not_panics() {
        let mut acc = vec![i64::MAX];
        reduce_into(ReduceOp::Sum, &mut acc, &[1]);
        assert_eq!(acc, vec![i64::MIN]);
    }
}
