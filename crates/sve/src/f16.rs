//! Software IEEE 754 binary16 ("half precision").
//!
//! SVE supports vectorized 16-bit floating point (paper, Section III-A).
//! Grid does not compute in fp16; it uses the format only to compress data
//! exchanged over the communications network (Section V-B). This module
//! provides a storage type plus round-to-nearest-even conversions, enough
//! for the precision-conversion intrinsics and the comms-compression path.

/// IEEE 754 binary16 value, stored as its bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Largest finite half-precision value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon of binary16, 2^-10.
    pub const EPSILON: f64 = 9.765625e-4;

    /// Raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Construct from a raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Convert from `f32` with round-to-nearest-even, the rounding mode SVE
    /// `fcvt` uses by default.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = bits & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN. Preserve a quiet-NaN payload bit.
            let m = if mant == 0 {
                0
            } else {
                0x0200 | ((mant >> 13) as u16 & 0x03ff) | 1
            };
            return F16(sign | 0x7c00 | m);
        }

        // Unbiased exponent; f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows to infinity.
            return F16(sign | 0x7c00);
        }
        if unbiased >= -14 {
            // Normal range. Keep 10 mantissa bits, round-to-nearest-even on
            // the 13 discarded bits.
            let mant16 = (mant >> 13) as u16;
            let rest = mant & 0x1fff;
            let half = 0x1000;
            let mut out = ((unbiased + 15) as u16) << 10 | mant16;
            if rest > half || (rest == half && (mant16 & 1) == 1) {
                out += 1; // may carry into exponent: correct (rounds up to inf)
            }
            return F16(sign | out);
        }
        if unbiased >= -25 {
            // Subnormal result: shift the implicit leading 1 into the
            // mantissa. -25 is included because inputs above 2^-25 round up
            // to the smallest subnormal 2^-24 (the tie at exactly 2^-25
            // goes to even, i.e. zero), which the rounding below produces.
            let full = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let mant16 = (full >> shift) as u16;
            let rest = full & ((1u32 << shift) - 1);
            let half = 1u32 << (shift - 1);
            let mut out = mant16;
            if rest > half || (rest == half && (mant16 & 1) == 1) {
                out += 1;
            }
            return F16(sign | out);
        }
        // Underflows to signed zero.
        F16(sign)
    }

    /// Convert to `f32` (exact: every binary16 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1f) as u32;
        let mant = (self.0 & 0x03ff) as u32;

        let bits = if exp == 0x1f {
            // Inf / NaN
            sign | 0x7f80_0000 | (mant << 13)
        } else if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalize.
                let lead = mant.leading_zeros() - 22; // zeros within the 10-bit field
                let exp32 = 127 - 15 - lead;
                let mant32 = (mant << (lead + 1)) & 0x03ff;
                sign | (exp32 << 23) | (mant32 << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Convert from `f64` (via `f32`; double rounding is harmless here
    /// because f32 keeps 13 more mantissa bits than f16 — this matches the
    /// two-step `fcvt` sequence the hardware would execute).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self::from_f32(x as f32)
    }

    /// Convert to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// True for any NaN payload.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// True for positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// True when the sign bit is set (including -0.0 and NaNs).
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }
}

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let h = F16::from_f32(i as f32);
            assert_eq!(h.to_f32(), i as f32, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn powers_of_two_round_trip() {
        for e in -14..=15 {
            let x = (2.0f32).powi(e);
            assert_eq!(F16::from_f32(x).to_f32(), x);
        }
    }

    #[test]
    fn subnormals() {
        let tiny = (2.0f32).powi(-24); // smallest positive subnormal
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        let below = (2.0f32).powi(-26);
        assert_eq!(F16::from_f32(below).to_bits(), 0x0000);
        // The half-subnormal boundary: exactly 2^-25 ties to even (zero),
        // anything above it rounds up to the smallest subnormal.
        let half_tiny = (2.0f32).powi(-25);
        assert_eq!(F16::from_f32(half_tiny).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(half_tiny * 1.0001).to_bits(), 0x0001);
        assert_eq!(F16::from_f32(-half_tiny * 1.5).to_bits(), 0x8001);
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(1.0e6).is_infinite());
        assert!(F16::from_f32(-1.0e6).is_infinite());
        assert!(F16::from_f32(-1.0e6).is_sign_negative());
        assert_eq!(F16::from_f32(65504.0).0, F16::MAX.0);
        // 65520 rounds up to infinity under round-to-nearest-even.
        assert!(F16::from_f32(65520.0).is_infinite());
        // 65519 rounds down to MAX.
        assert_eq!(F16::from_f32(65519.0).0, F16::MAX.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_bits(0x7e00).to_f32().is_nan());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; ties to
        // even should pick 1.0 (mantissa even).
        let halfway = 1.0f32 + (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // 1 + 3*2^-11 is halfway between nextafter(1) and the one after;
        // ties to even picks the latter (even mantissa).
        let halfway_up = 1.0f32 + 3.0 * (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(halfway_up).to_f32(), 1.0 + (2.0f32).powi(-9));
    }

    #[test]
    fn relative_error_bound_in_normal_range() {
        // |x - f16(x)|/|x| <= 2^-11 for normal-range values: the bound that
        // justifies fp16 comms compression.
        let mut x = 6.1e-5f32;
        while x < 6.0e4 {
            let h = F16::from_f32(x).to_f32();
            let rel = ((x - h) / x).abs();
            assert!(rel <= 4.9e-4, "x={x} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn f64_path_matches_f32_path() {
        for &x in &[0.0, 1.0, -1.5, 2.71875, 1e-6, 6e4, -6e4] {
            assert_eq!(F16::from_f64(x).0, F16::from_f32(x as f32).0);
        }
    }

    #[test]
    fn all_bit_patterns_round_trip_through_f32() {
        // Every finite f16 must survive f16 -> f32 -> f16 unchanged.
        for bits in 0u16..=0xffff {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).0, bits, "bits {bits:#06x}");
            }
        }
    }
}
