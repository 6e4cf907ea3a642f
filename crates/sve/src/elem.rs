//! Element types a vector register can be viewed as.
//!
//! SVE registers are untyped bit containers; each instruction imposes an
//! element interpretation (`.b`, `.h`, `.s`, `.d` in the assembly of the
//! paper's listings). [`SveElem`] is that interpretation: a fixed-width
//! scalar that can be read from / written to a lane of the byte-backed
//! register file. [`SveFloat`] adds the arithmetic the floating-point
//! instructions need.

use crate::f16::F16;
use crate::vreg::{Direct, Widened};

/// A scalar type that can occupy vector-register lanes.
pub trait SveElem: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Lane width in bytes (1, 2, 4 or 8).
    const BYTES: usize;
    /// Assembly suffix for this element size (`b`, `h`, `s`, `d`), as used
    /// in the paper's listings (`z0.d`, `p1.b`, ...).
    const SUFFIX: char;
    /// The additive identity; also what predicated-zeroing loads place in
    /// inactive lanes (`p1/z` in listing IV-A).
    fn zero() -> Self;

    /// Serialize into `dst` (little endian, `dst.len() == Self::BYTES`).
    fn write_le(self, dst: &mut [u8]);

    /// Deserialize from `src` (little endian, `src.len() == Self::BYTES`).
    fn read_le(src: &[u8]) -> Self;
}

/// Floating-point element: the operations behind `fmul`, `fmla`, `fcmla`
/// and friends, one lane at a time. For `f32` and `f64` these are the host's
/// operations. For [`F16`] every operation widens its operands to `f32`
/// (exact), operates there, and narrows the result (round to nearest even):
///
/// * `add`, `sub`, `mul` and `sqrt` are thereby the *correctly rounded*
///   binary16 results, bit for bit what a hardware half-precision unit
///   returns — f32's 24-bit significand satisfies 24 ≥ 2·11 + 2, which
///   makes the intermediate rounding innocuous (the property-test suite
///   pins this);
/// * `mul_add` is **not** a fused binary16 multiply-add. The product is
///   exact in f32, but the sum is rounded to f32 and then again to
///   binary16, and the second rounding can land on the other side of a
///   tie the first one created: `0x3c01 · 0x0ffe + 0x3c01` is 2⁻³¹ below
///   the midpoint of `0x3c01` and `0x3c02`; a fused unit returns `0x3c01`,
///   this returns `0x3c02`. It is "accumulate in f32, then narrow" —
///   which is also exactly what `vcvtph2ps`, an f32 multiply-add (fused
///   or not) and `vcvtps2ph` compute, so the lowered lane loops agree
///   with it on every bit. The solver's f16 tier is pinned to this
///   definition.
///
/// The intrinsics do not call the [`F16`] methods: they convert a whole
/// register per instruction ([`SveFloat::Wide`]). The methods are the
/// per-lane definition the tests hold the intrinsics to.
pub trait SveFloat: SveElem {
    /// What this element's arithmetic is carried out on, and an intrinsic's
    /// lane body is written for: the element itself, except for [`F16`],
    /// whose lanes become `f32`s once per instruction, eight to an
    /// [`Octet`].
    type Wide: Lane;
    /// How the arithmetic intrinsics get from lanes to `Wide` values.
    #[doc(hidden)]
    type Lanes: crate::vreg::ArithLanes<Self>;

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

/// What the lane body of an arithmetic intrinsic is written on
/// ([`SveFloat::Wide`]): the rounding operations of a lane, on one lane or on
/// several at once.
pub trait Lane: Copy {
    /// Lane addition.
    fn add(self, rhs: Self) -> Self;
    /// Lane subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Lane multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Lane negation.
    fn neg(self) -> Self;
    /// `self * rhs + acc`, the sum rounded once.
    fn mul_add(self, rhs: Self, acc: Self) -> Self;
    /// Lane maximum.
    fn max(self, rhs: Self) -> Self;
    /// Lane minimum.
    fn min(self, rhs: Self) -> Self;
    /// Lane square root.
    fn sqrt(self) -> Self;
}

impl<E: SveFloat> Lane for E {
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        SveFloat::add(self, rhs)
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        SveFloat::sub(self, rhs)
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        SveFloat::mul(self, rhs)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        SveFloat::neg(self)
    }
    #[inline(always)]
    fn mul_add(self, rhs: Self, acc: Self) -> Self {
        SveFloat::mul_add(self, rhs, acc)
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        SveFloat::max(self, rhs)
    }
    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        SveFloat::min(self, rhs)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        SveFloat::sqrt(self)
    }
}

/// Eight binary16 lanes widened to `f32`: what one `vcvtph2ps` yields, and
/// a `ymm` register's worth for the lane body to work on.
pub type Octet = [f32; 8];

/// The octet whose lane `i` is `$e`, written out lane by lane:
/// `std::array::from_fn` and `map` go through helpers that a large caller —
/// a body entered once per chunk of sites — may leave out of line, compiled
/// without the copy's instruction set. Eight isomorphic lanes in a row are
/// one vector operation to the compiler.
macro_rules! octet {
    (|$i:ident| $e:expr) => {
        [
            {
                let $i = 0;
                $e
            },
            {
                let $i = 1;
                $e
            },
            {
                let $i = 2;
                $e
            },
            {
                let $i = 3;
                $e
            },
            {
                let $i = 4;
                $e
            },
            {
                let $i = 5;
                $e
            },
            {
                let $i = 6;
                $e
            },
            {
                let $i = 7;
                $e
            },
        ]
    };
}

impl Lane for Octet {
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        octet!(|i| self[i] + rhs[i])
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        octet!(|i| self[i] - rhs[i])
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        octet!(|i| self[i] * rhs[i])
    }
    #[inline(always)]
    fn neg(self) -> Self {
        octet!(|i| -self[i])
    }
    /// The product of two widened binary16 values is exact in `f32`, so a
    /// multiplication and an addition round once, like an `fma` — and need
    /// no `fma`, which on a host without the instruction is a call into
    /// libm per lane.
    #[inline(always)]
    fn mul_add(self, rhs: Self, acc: Self) -> Self {
        octet!(|i| self[i] * rhs[i] + acc[i])
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        octet!(|i| self[i].max(rhs[i]))
    }
    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        octet!(|i| self[i].min(rhs[i]))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        octet!(|i| self[i].sqrt())
    }
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
    type Wide = f64;
    type Lanes = Direct;

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
    type Wide = f32;
    type Lanes = Direct;

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
    type Wide = Octet;
    type Lanes = Widened;

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
        // f32 holds the exact product of two f16s; the sum is rounded to
        // f32 and then to f16 (see the trait's documentation).
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
    // Inline in a fused sweep body too: the per-site sums widen every
    // binary16 component they read.
    #[inline(always)]
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

    /// Pins the answer the model gives today, which is *not* the fused
    /// one: with a = c = 1 + 2⁻¹⁰ and b = (1 − 2⁻¹⁰)·2⁻¹¹, the exact a·b + c
    /// is 1 + 2⁻¹⁰ + 2⁻¹¹ − 2⁻³¹, just below the midpoint of `0x3c01` and
    /// `0x3c02`. A fused binary16 unit rounds once and returns `0x3c01`;
    /// here the sum is first rounded to f32, which cannot hold the 2⁻³¹
    /// and lands on the midpoint, and the second rounding takes the tie to
    /// even. Every f16 pin in the workspace is generated with this
    /// arithmetic, and `vcvtph2ps`, an f32 multiply-add and `vcvtps2ph`
    /// compute the same; a true fused f16 FMA is a ROADMAP item that
    /// regenerates them all.
    #[test]
    fn f16_mul_add_accumulates_in_f32_then_narrows() {
        let (a, b, c) = (F16(0x3c01), F16(0x0ffe), F16(0x3c01));
        let exact = a.to_f64().mul_add(b.to_f64(), c.to_f64());
        let tie = 1.0 + 2f64.powi(-10) + 2f64.powi(-11);
        assert_eq!(exact, tie - 2f64.powi(-31));
        assert_eq!(a.to_f32() * b.to_f32() + c.to_f32(), tie as f32);
        assert_eq!(
            SveFloat::mul_add(a, b, c),
            F16(0x3c02),
            "the model's answer"
        );
        // A fused unit's answer is the nearer neighbour, `0x3c01`.
        let (below, above) = (F16(0x3c01).to_f64(), F16(0x3c02).to_f64());
        assert!(exact - below < above - exact);
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
