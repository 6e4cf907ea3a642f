//! Element types a vector register can be viewed as.
//!
//! SVE registers are untyped bit containers; each instruction imposes an
//! element interpretation (`.b`, `.h`, `.s`, `.d` in the assembly of the
//! paper's listings). [`SveElem`] is that interpretation: a fixed-width
//! scalar that can be read from / written to a lane of the byte-backed
//! register file. [`SveFloat`] adds the arithmetic the floating-point
//! instructions need.

use crate::f16::F16;

/// A scalar type that can occupy vector-register lanes.
pub trait SveElem: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Lane width in bytes (1, 2, 4 or 8).
    const BYTES: usize;
    /// Assembly suffix for this element size (`b`, `h`, `s`, `d`), as used
    /// in the paper's listings (`z0.d`, `p1.b`, ...).
    const SUFFIX: char;
    /// Whether loops over lanes of this type are compiled per vector length
    /// and per host instruction set. True where lane arithmetic is a host
    /// instruction; software arithmetic ([`F16`]) measured slower that way.
    #[doc(hidden)]
    const LOWERED: bool = true;

    /// The additive identity; also what predicated-zeroing loads place in
    /// inactive lanes (`p1/z` in listing IV-A).
    fn zero() -> Self;

    /// Serialize into `dst` (little endian, `dst.len() == Self::BYTES`).
    fn write_le(self, dst: &mut [u8]);

    /// Deserialize from `src` (little endian, `src.len() == Self::BYTES`).
    fn read_le(src: &[u8]) -> Self;
}

/// Floating-point element: the operations behind `fmul`, `fmla`, `fcmla`
/// and friends. All arithmetic is performed in the element's own precision.
/// For [`F16`] this means round-tripping through `f32` per operation — not
/// an approximation: f32's 24-bit significand satisfies 24 ≥ 2·11 + 2, so
/// the intermediate rounding is innocuous and every op is the *correctly
/// rounded* binary16 result, matching a hardware half-precision unit bit
/// for bit (the property-test suite pins this). The solver's f16 compute
/// tier depends on it.
pub trait SveFloat: SveElem {
    /// The multiplicative identity.
    fn one() -> Self;
    /// Lane addition.
    fn add(self, rhs: Self) -> Self;
    /// Lane subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Lane multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Lane negation.
    fn neg(self) -> Self;
    /// Fused multiply-add `self * rhs + acc` (single rounding for f32/f64).
    fn mul_add(self, rhs: Self, acc: Self) -> Self;
    /// Lane absolute value.
    fn abs(self) -> Self;
    /// Lane maximum.
    fn max(self, rhs: Self) -> Self;
    /// Lane minimum.
    fn min(self, rhs: Self) -> Self;
    /// Lane square root.
    fn sqrt(self) -> Self;
    /// Convert from `f64` (rounding to this precision).
    fn from_f64(x: f64) -> Self;
    /// Convert to `f64` exactly.
    fn to_f64(self) -> f64;
}

impl SveElem for f64 {
    const BYTES: usize = 8;
    const SUFFIX: char = 'd';

    #[inline]
    fn zero() -> Self {
        0.0
    }

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        f64::from_le_bytes(src.try_into().expect("8-byte lane"))
    }
}

impl SveFloat for f64 {
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn mul_add(self, rhs: Self, acc: Self) -> Self {
        f64::mul_add(self, rhs, acc)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        f64::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        f64::min(self, rhs)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl SveElem for f32 {
    const BYTES: usize = 4;
    const SUFFIX: char = 's';

    #[inline]
    fn zero() -> Self {
        0.0
    }

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        f32::from_le_bytes(src.try_into().expect("4-byte lane"))
    }
}

impl SveFloat for f32 {
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn mul_add(self, rhs: Self, acc: Self) -> Self {
        f32::mul_add(self, rhs, acc)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        f32::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        f32::min(self, rhs)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl SveElem for F16 {
    const BYTES: usize = 2;
    const SUFFIX: char = 'h';
    const LOWERED: bool = false;

    #[inline]
    fn zero() -> Self {
        F16::ZERO
    }

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        F16(u16::from_le_bytes(src.try_into().expect("2-byte lane")))
    }
}

impl SveFloat for F16 {
    #[inline]
    fn one() -> Self {
        F16::from_f32(1.0)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
    #[inline]
    fn neg(self) -> Self {
        F16(self.0 ^ 0x8000)
    }
    #[inline]
    fn mul_add(self, rhs: Self, acc: Self) -> Self {
        // f32 holds the exact product of two f16s, so a single rounding at
        // the end matches a fused half-precision unit.
        F16::from_f32(self.to_f32() * rhs.to_f32() + acc.to_f32())
    }
    #[inline]
    fn abs(self) -> Self {
        F16(self.0 & 0x7fff)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32().max(rhs.to_f32()))
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32().min(rhs.to_f32()))
    }
    #[inline]
    fn sqrt(self) -> Self {
        F16::from_f32(self.to_f32().sqrt())
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        F16::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.to_f64()
    }
}

impl SveElem for i32 {
    const BYTES: usize = 4;
    const SUFFIX: char = 's';

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        i32::from_le_bytes(src.try_into().expect("4-byte lane"))
    }
}

impl SveElem for u64 {
    const BYTES: usize = 8;
    const SUFFIX: char = 'd';

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn write_le(self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        u64::from_le_bytes(src.try_into().expect("8-byte lane"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<E: SveElem>(v: E) {
        let mut buf = vec![0u8; E::BYTES];
        v.write_le(&mut buf);
        assert_eq!(E::read_le(&buf), v);
    }

    #[test]
    fn lane_serialization_round_trips() {
        round_trip(3.5f64);
        round_trip(-0.25f32);
        round_trip(F16::from_f32(1.5));
        round_trip(-7i32);
        round_trip(0xdead_beef_u64);
    }

    #[test]
    fn suffixes_match_element_sizes() {
        assert_eq!(<f64 as SveElem>::SUFFIX, 'd');
        assert_eq!(<f32 as SveElem>::SUFFIX, 's');
        assert_eq!(<F16 as SveElem>::SUFFIX, 'h');
        assert_eq!(<f64 as SveElem>::BYTES, 8);
        assert_eq!(<F16 as SveElem>::BYTES, 2);
    }

    #[test]
    fn f16_neg_and_abs_are_sign_ops() {
        let x = F16::from_f32(2.5);
        assert_eq!(SveFloat::neg(x).to_f32(), -2.5);
        assert_eq!(SveFloat::abs(SveFloat::neg(x)).to_f32(), 2.5);
    }

    #[test]
    fn fused_mul_add_is_single_rounding_f64() {
        // x*x with x = 1 + 2^-52 has a 2^-104 tail that only survives a
        // fused multiply-add: x*x - (1 + 2^-51) == 2^-104 exactly.
        let x = 1.0 + f64::EPSILON;
        let c = -(1.0 + 2.0 * f64::EPSILON);
        let fused = SveFloat::mul_add(x, x, c);
        assert_eq!(fused, f64::EPSILON * f64::EPSILON);
        assert_eq!(x * x + c, 0.0, "non-fused path loses the tail");
    }
}
