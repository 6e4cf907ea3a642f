//! Floating-point precision conversion.
//!
//! "Conversion of floating-point precision" is one of the machine-specific
//! operations Grid implements per architecture (paper Section II-C), and
//! vectorized 16-bit conversions are how Grid compresses data "upon data
//! exchange over the communications network" (Section V-B).
//!
//! The ARM `fcvt` instruction converts in place within element containers:
//! narrowing `.d -> .s` leaves each `f32` in the low half of its 64-bit
//! container. Packing a full vector therefore pairs `fcvt` with `uzp1`
//! (narrow) or `zip1/zip2` with `fcvt` (widen); the `pack`/`unpack` helpers
//! below execute — and account — exactly those sequences.

use super::shape::{moved, Inactive};
use crate::count::Opcode;
use crate::ctx::SveCtx;
use crate::f16::F16;
use crate::host::{Convert, LaneLoop};
use crate::intrinsics::{svuzp1, svzip1, svzip2};
use crate::pred::PReg;
use crate::vl::VL_MAX_BYTES;
use crate::vreg::VReg;

/// `svcvt_f32_f64` — narrow each active 64-bit element's `f64` to an `f32`
/// stored in the low 32 bits of the same container (high half zeroed).
#[inline]
pub fn svcvt_f32_f64(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.exec(Opcode::Fcvt);
    moved(&ctx.sized(), pg, Inactive::Zero, a, |d: u64| {
        (f64::from_bits(d) as f32).to_bits() as u64
    })
}

/// `svcvt_f64_f32` — widen the `f32` in the low half of each active 64-bit
/// container to an `f64`.
#[inline]
pub fn svcvt_f64_f32(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.exec(Opcode::Fcvt);
    moved(&ctx.sized(), pg, Inactive::Zero, a, |d: u64| {
        (f32::from_bits(d as u32) as f64).to_bits()
    })
}

/// The `fcvt` between binary32 and binary16 inside 32-bit containers, all
/// containers computed: the binary16 sits in the low half of its container,
/// the high half is zero.
struct InContainers<'a> {
    a: &'a VReg,
    narrow: bool,
}

impl LaneLoop<i32> for InContainers<'_> {
    type Out = VReg;
    const CAPACITY: usize = VL_MAX_BYTES;
    #[inline(always)]
    fn run<C: Convert>(self, bytes: usize, cv: C) -> VReg {
        const CONTAINERS: usize = VL_MAX_BYTES / 4;
        let n = bytes / 4;
        let (mut single, mut half) = ([0.0f32; CONTAINERS], [0u8; 2 * CONTAINERS]);
        let src = self.a.bytes()[..bytes].chunks_exact(4);
        let mut r = VReg::zeroed();
        let dst = r.bytes_mut()[..bytes].chunks_exact_mut(4);
        if self.narrow {
            for (w, s) in single.iter_mut().zip(src) {
                *w = f32::from_le_bytes(s.try_into().expect("4-byte container"));
            }
            cv.narrow(&single[..n], &mut half[..2 * n]);
            for (d, h) in dst.zip(half.chunks_exact(2)) {
                d[..2].copy_from_slice(h);
            }
        } else {
            for (h, s) in half.chunks_exact_mut(2).zip(src) {
                h.copy_from_slice(&s[..2]);
            }
            cv.widen(&half[..2 * n], &mut single[..n]);
            for (d, w) in dst.zip(single) {
                d.copy_from_slice(&w.to_le_bytes());
            }
        }
        r
    }
}

/// An [`InContainers`] conversion with the containers `pg` leaves out
/// zeroed.
#[inline]
fn cvt_in_containers(ctx: &SveCtx, pg: &PReg, a: &VReg, narrow: bool) -> VReg {
    ctx.exec(Opcode::Fcvt);
    let all = ctx.lowering().run(InContainers { a, narrow });
    moved(&ctx.sized(), pg, Inactive::Zero, &all, |s: i32| s)
}

/// `svcvt_f16_f32` — narrow each active 32-bit element's `f32` to binary16
/// in the low 16 bits of the container.
#[inline]
pub fn svcvt_f16_f32(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    cvt_in_containers(ctx, pg, a, true)
}

/// `svcvt_f32_f16` — widen binary16 in the low half of each active 32-bit
/// container to `f32`.
#[inline]
pub fn svcvt_f32_f16(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    cvt_in_containers(ctx, pg, a, false)
}

/// Narrow two double-precision vectors into one single-precision vector
/// (`fcvt` x2 + `uzp1`): lanes of `a` land in the low half, `b` in the high
/// half — Grid's precision-change pattern.
#[inline]
pub fn cvt_pack_f64_to_f32(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    let la = svcvt_f32_f64(ctx, pg, a);
    let lb = svcvt_f32_f64(ctx, pg, b);
    svuzp1::<f32>(ctx, &la, &lb)
}

/// Widen one single-precision vector into two double-precision vectors
/// (`zip1`/`zip2` + `fcvt` x2) — inverse of [`cvt_pack_f64_to_f32`].
#[inline]
pub fn cvt_unpack_f32_to_f64(ctx: &SveCtx, pg: &PReg, a: &VReg) -> (VReg, VReg) {
    let lo = svzip1::<f32>(ctx, a, a);
    let hi = svzip2::<f32>(ctx, a, a);
    // After zip with itself, each 64-bit container's low half holds the f32.
    (svcvt_f64_f32(ctx, pg, &lo), svcvt_f64_f32(ctx, pg, &hi))
}

/// Narrow two single-precision vectors into one half-precision vector —
/// the comms-compression kernel (Section V-B).
#[inline]
pub fn cvt_pack_f32_to_f16(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    let la = svcvt_f16_f32(ctx, pg, a);
    let lb = svcvt_f16_f32(ctx, pg, b);
    svuzp1::<F16>(ctx, &la, &lb)
}

/// Widen one half-precision vector into two single-precision vectors —
/// comms decompression.
#[inline]
pub fn cvt_unpack_f16_to_f32(ctx: &SveCtx, pg: &PReg, a: &VReg) -> (VReg, VReg) {
    let lo = svzip1::<F16>(ctx, a, a);
    let hi = svzip2::<F16>(ctx, a, a);
    (svcvt_f32_f16(ctx, pg, &lo), svcvt_f32_f16(ctx, pg, &hi))
}

/// Convenience: the scalar conversion chain f64 → f16 → f64 used by the
/// comms codec tests to bound compression error.
pub fn f64_through_f16(x: f64) -> f64 {
    F16::from_f64(x).to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::SveFloat as _;
    use crate::intrinsics::svptrue;
    use crate::vl::VectorLength;

    #[test]
    fn narrow_widen_f64_f32_in_container() {
        let ctx = SveCtx::new(VectorLength::of(256)); // 4 d-lanes
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::from_fn::<f64>(ctx.vl(), |i| 1.5 * (i as f64 + 1.0));
        let narrow = svcvt_f32_f64(&ctx, &pg, &a);
        assert_eq!(narrow.lane::<f32>(0), 1.5);
        assert_eq!(narrow.lane::<f32>(1), 0.0); // high half of container zero
        assert_eq!(narrow.lane::<f32>(2), 3.0);
        let wide = svcvt_f64_f32(&ctx, &pg, &narrow);
        assert!(wide.lanes_eq::<f64>(&a, ctx.vl()));
    }

    #[test]
    fn pack_unpack_f64_f32_round_trips() {
        let ctx = SveCtx::new(VectorLength::of(512)); // 8 d-lanes
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::from_fn::<f64>(ctx.vl(), |i| i as f64 + 0.25);
        let b = VReg::from_fn::<f64>(ctx.vl(), |i| -(i as f64) - 0.5);
        let packed = cvt_pack_f64_to_f32(&ctx, &pg, &a, &b);
        // Low half = a, high half = b, as f32 lanes.
        assert_eq!(packed.lane::<f32>(0), 0.25);
        assert_eq!(packed.lane::<f32>(7), 7.25);
        assert_eq!(packed.lane::<f32>(8), -0.5);
        let (ra, rb) = cvt_unpack_f32_to_f64(&ctx, &pg, &packed);
        assert!(ra.lanes_eq::<f64>(&a, ctx.vl()));
        assert!(rb.lanes_eq::<f64>(&b, ctx.vl()));
    }

    #[test]
    fn pack_unpack_f32_f16_round_trips_representable_values() {
        let ctx = SveCtx::new(VectorLength::of(256)); // 8 s-lanes
        let pg = svptrue::<f32>(&ctx);
        // Halves of small integers are exact in f16.
        let a = VReg::from_fn::<f32>(ctx.vl(), |i| i as f32 * 0.5);
        let b = VReg::from_fn::<f32>(ctx.vl(), |i| 10.0 - i as f32);
        let packed = cvt_pack_f32_to_f16(&ctx, &pg, &a, &b);
        let (ra, rb) = cvt_unpack_f16_to_f32(&ctx, &pg, &packed);
        assert!(ra.lanes_eq::<f32>(&a, ctx.vl()));
        assert!(rb.lanes_eq::<f32>(&b, ctx.vl()));
    }

    #[test]
    fn f16_compression_error_is_bounded() {
        let mut worst: f64 = 0.0;
        let mut x = 1.0e-3;
        while x < 1.0e3 {
            let rel = ((x - f64_through_f16(x)) / x).abs();
            worst = worst.max(rel);
            x *= 1.173;
        }
        assert!(worst <= F16::EPSILON, "worst rel err {worst}");
    }

    #[test]
    fn conversion_counts_fcvt_and_permutes() {
        let ctx = SveCtx::new(VectorLength::of(256));
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::zeroed();
        let _ = cvt_pack_f64_to_f32(&ctx, &pg, &a, &a);
        assert_eq!(ctx.counters().get(Opcode::Fcvt), 2);
        assert_eq!(ctx.counters().get(Opcode::Uzp1), 1);
    }

    #[test]
    fn f16_sve_float_arithmetic_sane() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.0);
        assert_eq!(a.mul(b).to_f32(), 3.0);
        assert_eq!(a.add(b).to_f32(), 3.5);
    }
}
