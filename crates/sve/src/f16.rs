//! IEEE 754 binary16 ("half precision"), and the only binary16 ↔ binary32
//! conversion code in the workspace.
//!
//! SVE supports vectorized 16-bit floating point (paper, Section III-A).
//! Grid uses the format to compress data exchanged over the communications
//! network (Section V-B); this reproduction also computes in it (the solver's
//! f16 tier). Binary16 arithmetic here *is* binary32 arithmetic between two
//! conversions — widen the operands (exact), operate, narrow the result
//! (round to nearest even) — so the conversions are what the type is made
//! of. They exist three times, bit for bit the same:
//!
//! * [`F16::to_f32`] / [`F16::from_f32`], one scalar at a time and written
//!   for the reader: the definition the tests compare the other two
//!   against. Nothing on a hot path calls them;
//! * [`widen8_portable`] / [`narrow8_portable`], eight lanes at a time:
//!   branch-free integer code the compiler vectorises on any target;
//! * [`widen8_f16c`] / [`narrow8_f16c`], eight lanes at a time:
//!   `vcvtph2ps` / `vcvtps2ph` on x86-64.
//!
//! Which of the last two runs is the host's lowering (`host.rs`): the lane
//! loops of the arithmetic intrinsics convert a register's worth of lanes
//! once per instruction through it, and [`F16::widen_slice`] /
//! [`F16::narrow_slice`] take the same route for streams (the halo wire and
//! the `qcd-io` f16 tier).

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

    /// Convert to `f32` (exact: every binary16 value is representable). A
    /// signalling NaN comes out quiet, payload kept, as from `fcvt` and from
    /// `vcvtph2ps`.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1f) as u32;
        let mant = (self.0 & 0x03ff) as u32;

        let bits = if exp == 0x1f {
            // Inf / NaN
            let quiet = if mant == 0 { 0 } else { 0x0040_0000 };
            sign | 0x7f80_0000 | quiet | (mant << 13)
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
    #[inline(always)]
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

    /// Widen a stream of little-endian binary16 values into `dst`, exactly:
    /// [`F16::to_f32`] of every element, in the conversion compiled for this
    /// host. Panics unless `src` holds two bytes for every element of `dst`.
    pub fn widen_slice(src: &[u8], dst: &mut [f32]) {
        crate::host::widen_slice(src, dst);
    }

    /// Narrow `src` into a stream of little-endian binary16 values, rounding
    /// to nearest even: [`F16::from_f32`] of every element, in the
    /// conversion compiled for this host. Panics unless `dst` holds two
    /// bytes for every element of `src`.
    pub fn narrow_slice(src: &[f32], dst: &mut [u8]) {
        crate::host::narrow_slice(src, dst);
    }
}

/// All ones if `cond`, else zero: what selects between candidates without
/// a branch (`(a & m) | (b & !m)`), which is what lets the compiler run
/// the conversions below on a vector of lanes.
#[inline(always)]
fn mask(cond: bool) -> u32 {
    u32::from(cond).wrapping_neg()
}

/// The binary32 bits of a binary16 bit pattern: [`F16::to_f32`] without a
/// branch. A subnormal `m·2⁻²⁴` is computed as `(1 + m/1024)·2⁻¹⁴ − 2⁻¹⁴`,
/// a subtraction of two *normal* numbers: the textbook `m·2⁻²⁴ = bits ×
/// 2¹¹²` hands the multiplier a binary32-denormal operand, which takes a
/// microcode assist of ~150 cycles on x86 — and the solver's f16 tier keeps
/// its residuals in the binary16 subnormal range.
#[inline(always)]
fn widen_bits(h: u16) -> u32 {
    let h = u32::from(h);
    let sign = (h & 0x8000) << 16;
    let em = h & 0x7fff;
    let normal = (em << 13) + (112 << 23);
    let special = 0x7f80_0000 | (mask(em > 0x7c00) & 0x0040_0000) | (em << 13);
    const TWO_M14: u32 = 113 << 23;
    // Meaningless above the subnormals, where it is not selected — but still
    // a difference of normal numbers.
    let subnormal = (f32::from_bits(TWO_M14 | (em << 13)) - f32::from_bits(TWO_M14)).to_bits();
    let (is_special, is_subnormal) = (mask(em >= 0x7c00), mask(em < 0x0400));
    let finite = (subnormal & is_subnormal) | (normal & !is_subnormal);
    sign | (special & is_special) | (finite & !is_special)
}

/// The binary16 bit pattern nearest (ties to even) to binary32 bits:
/// [`F16::from_f32`] without a branch. Below 2⁻¹⁴ the rounding is done by
/// the adder: `x + 0.5` has its last place at 2⁻²⁴, the binary16 subnormal
/// spacing. Inputs at or below 2⁻²⁵ round to zero and are replaced by it
/// before the addition, so no binary32 denormal reaches the adder either
/// (nor does anything from 2⁻¹⁴ up, a NaN included, whose sum is not used).
#[inline(always)]
fn narrow_bits(x: u32) -> u16 {
    let sign = (x >> 16) & 0x8000;
    let abs = x & 0x7fff_ffff;
    let nan = 0x7e01 | ((abs >> 13) & 0x03ff);
    let odd = (abs >> 13) & 1;
    // Wraps below 2⁻¹⁴, where the value is not used.
    let normal = abs.wrapping_sub(112 << 23).wrapping_add(0x0fff + odd) >> 13;
    let is_subnormal = mask(abs < (113 << 23));
    let addend = abs & is_subnormal & mask(abs > 0x3300_0000);
    let subnormal = (f32::from_bits(addend) + 0.5)
        .to_bits()
        .wrapping_sub(0.5f32.to_bits());
    let (is_nan, is_huge) = (mask(abs > 0x7f80_0000), mask(abs >= 0x4780_0000));
    let finite = (subnormal & is_subnormal) | (normal & !is_subnormal);
    let magnitude = (nan & is_nan) | (!is_nan & ((0x7c00 & is_huge) | (finite & !is_huge)));
    (sign | magnitude) as u16
}

/// Eight binary16 bit patterns widened: the portable copy. On x86-64, where
/// this is the copy hardly any host runs, it is compiled once, here: the
/// lane loops call it rather than inline it, which would put a copy of the
/// integer sequence into every arithmetic intrinsic of every kernel.
#[cfg_attr(target_arch = "x86_64", inline(never))]
#[cfg_attr(not(target_arch = "x86_64"), inline)]
pub(crate) fn widen8_portable(src: [u16; 8]) -> [f32; 8] {
    let mut dst = [0.0; 8];
    for (d, h) in dst.iter_mut().zip(src) {
        *d = f32::from_bits(widen_bits(h));
    }
    dst
}

/// Eight binary32 lanes narrowed to binary16 bit patterns: the portable
/// copy.
#[cfg_attr(target_arch = "x86_64", inline(never))]
#[cfg_attr(not(target_arch = "x86_64"), inline)]
pub(crate) fn narrow8_portable(src: [f32; 8]) -> [u16; 8] {
    let mut dst = [0; 8];
    for (d, x) in dst.iter_mut().zip(src) {
        *d = narrow_bits(x.to_bits());
    }
    dst
}

#[cfg(target_arch = "x86_64")]
pub(crate) use f16c::{narrow8_f16c, widen8_f16c};

/// The F16C copy of the two conversions. Written with the intrinsics that
/// take and return values only, which are safe to call from a function
/// compiled with the features they need — so no `unsafe` in here; the one
/// in `host.rs` is the call that enters such a function at all.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use std::arch::x86_64::*;

    /// Eight binary16 bit patterns widened: `vcvtph2ps`.
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(crate) fn widen8_f16c(s: [u16; 8]) -> [f32; 8] {
        // Written out rather than through `map`, whose helpers a large
        // caller may leave out of line.
        let s = |i: usize| s[i] as i16;
        let h = _mm_set_epi16(s(7), s(6), s(5), s(4), s(3), s(2), s(1), s(0));
        let w = _mm256_castps_si256(_mm256_cvtph_ps(h));
        let f = |bits: i32| f32::from_bits(bits as u32);
        [
            f(_mm256_extract_epi32::<0>(w)),
            f(_mm256_extract_epi32::<1>(w)),
            f(_mm256_extract_epi32::<2>(w)),
            f(_mm256_extract_epi32::<3>(w)),
            f(_mm256_extract_epi32::<4>(w)),
            f(_mm256_extract_epi32::<5>(w)),
            f(_mm256_extract_epi32::<6>(w)),
            f(_mm256_extract_epi32::<7>(w)),
        ]
    }

    /// Eight binary32 lanes narrowed: `vcvtps2ph`, which rounds to nearest
    /// even, subnormals included, and quiets a NaN keeping the top ten
    /// payload bits; [`F16::from_f32`] also sets the lowest one (so that a
    /// payload that does not fit cannot turn a NaN into an infinity), which
    /// is OR-ed into the NaN lanes here. A macro, expanded in the wide copy
    /// itself: a function with the features enabled cannot be forced inline,
    /// and a body entered once per chunk of sites left it out of line.
    ///
    /// [`F16::from_f32`]: super::F16::from_f32
    macro_rules! narrow8_f16c {
        ($w:expr) => {{
            use std::arch::x86_64::*;
            let w: [f32; 8] = $w;
            let v = _mm256_set_ps(w[7], w[6], w[5], w[4], w[3], w[2], w[1], w[0]);
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            let magnitude = _mm_and_si128(h, _mm_set1_epi16(0x7fff));
            let nan = _mm_cmpgt_epi16(magnitude, _mm_set1_epi16(0x7c00));
            let h = _mm_or_si128(h, _mm_srli_epi16::<15>(nan));
            [
                _mm_extract_epi16::<0>(h) as u16,
                _mm_extract_epi16::<1>(h) as u16,
                _mm_extract_epi16::<2>(h) as u16,
                _mm_extract_epi16::<3>(h) as u16,
                _mm_extract_epi16::<4>(h) as u16,
                _mm_extract_epi16::<5>(h) as u16,
                _mm_extract_epi16::<6>(h) as u16,
                _mm_extract_epi16::<7>(h) as u16,
            ]
        }};
    }
    pub(crate) use narrow8_f16c;
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
    use crate::host::{Convert, Portable};

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

    /// Every way there is to widen `halves` gives [`F16::to_f32`], bit for
    /// bit: the host's copy (F16C where the CPU has it) and the portable
    /// copy.
    fn widen_all_ways(halves: &[u16]) {
        let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        let want: Vec<u32> = halves.iter().map(|&h| F16(h).to_f32().to_bits()).collect();
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut got = vec![0.0; halves.len()];
        F16::widen_slice(&bytes, &mut got);
        assert_eq!(bits(&got), want, "host copy ({})", crate::host_lanes());
        got.fill(0.0);
        Portable.widen(&bytes, &mut got);
        assert_eq!(bits(&got), want, "portable copy");
    }

    /// Every way there is to narrow `singles` gives [`F16::from_f32`].
    fn narrow_all_ways(singles: &[f32]) {
        let want: Vec<u16> = singles.iter().map(|&x| F16::from_f32(x).0).collect();
        let halves = |bytes: &[u8]| -> Vec<u16> {
            bytes
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]))
                .collect()
        };
        let report = |copy: &str, got: Vec<u16>| {
            for ((&x, g), w) in singles.iter().zip(got).zip(&want) {
                let bits = x.to_bits();
                assert_eq!(
                    g, *w,
                    "{copy}: {x:e} ({bits:#010x}) gave {g:#06x}, not {w:#06x}"
                );
            }
        };
        let mut got = vec![0; 2 * singles.len()];
        F16::narrow_slice(singles, &mut got);
        report(crate::host_lanes(), halves(&got));
        got.fill(0);
        Portable.narrow(singles, &mut got);
        report("portable", halves(&got));
    }

    #[test]
    fn every_bit_pattern_widens_the_same_in_every_copy() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        widen_all_ways(&all);
        // A tail shorter than a block, at every length.
        for n in 0..17 {
            widen_all_ways(&all[0x3bf9..0x3bf9 + n]);
        }
        // A signalling NaN comes out quiet, as from `fcvt` and `vcvtph2ps`:
        // the payload is kept and the top fraction bit set.
        assert_eq!(F16(0x7d01).to_f32().to_bits(), 0x7fe0_2000);
        assert_eq!(F16(0xfc01).to_f32().to_bits(), 0xffc0_2000);
        // A quiet one is unchanged, and infinity is not a NaN.
        assert_eq!(F16(0x7e2a).to_f32().to_bits(), 0x7fc5_4000);
        assert_eq!(F16(0x7c00).to_f32().to_bits(), 0x7f80_0000);
    }

    #[test]
    fn narrowing_rounds_the_same_in_every_copy() {
        let mut singles = Vec::new();
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            // The value itself and its two neighbours in binary32.
            let x = h.to_f32();
            singles.extend([x, f32::from_bits(x.to_bits() + 1)]);
            singles.push(f32::from_bits(x.to_bits().wrapping_sub(1)));
            // The midpoint to the next binary16 away from zero — a tie,
            // exact in binary32 — and its neighbours. Past the largest
            // finite value that is 65520, which rounds to infinity.
            if !h.is_infinite() {
                let next = F16(bits + 1).to_f32();
                let next = if next.is_infinite() {
                    65536.0f32.copysign(x)
                } else {
                    next
                };
                let tie = (x + next) / 2.0;
                singles.extend([tie, f32::from_bits(tie.to_bits() + 1)]);
                singles.push(f32::from_bits(tie.to_bits() - 1));
            }
        }
        let tiny = 2.0f32.powi(-25);
        singles.extend([tiny, -tiny, tiny * 1.0001, -tiny * 1.0001, tiny * 0.9999]);
        singles.extend([
            65519.0,
            65520.0,
            -65519.0,
            -65520.0,
            65536.0,
            1.0e9,
            f32::MAX,
        ]);
        singles.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY]);
        // Binary32 denormals, the smallest normal, and what lies around the
        // power of two below which everything rounds to zero.
        singles
            .extend([1, 2, 0x007f_ffff, 0x0080_0000, 0x3300_0000, 0x32ff_ffff].map(f32::from_bits));
        singles.extend([0x8000_0001, 0x807f_ffff, 0xb300_0000, 0xb300_0001].map(f32::from_bits));
        // NaNs: quiet and signalling, odd and even payloads, payloads that
        // lie wholly below the bits binary16 keeps, either sign.
        for payload in [
            0x1, 0x2000, 0x4000, 0x2a_a000, 0x15_4000, 0x3f_ffff, 0x20_0001,
        ] {
            for top in [0x7f80_0000, 0x7fc0_0000, 0xff80_0000, 0xffc0_0000u32] {
                singles.push(f32::from_bits(top | payload));
            }
        }
        narrow_all_ways(&singles);
        // A tail shorter than a block, at every length.
        for n in 0..17 {
            let mut got = vec![0; 2 * n];
            F16::narrow_slice(&singles[100..100 + n], &mut got);
            let want: Vec<u8> = singles[100..100 + n]
                .iter()
                .flat_map(|&x| F16::from_f32(x).0.to_le_bytes())
                .collect();
            assert_eq!(got, want, "a stream of {n}");
        }
        // And a few million bit patterns nobody chose.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let random: Vec<f32> = (0..1 << 21)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits((state >> 16) as u32)
            })
            .collect();
        narrow_all_ways(&random);
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
