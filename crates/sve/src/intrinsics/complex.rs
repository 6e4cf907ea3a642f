//! Vectorized complex arithmetic — the paper's centrepiece (Section III-D).
//!
//! `FCMLA` takes three vectors whose even lanes hold real components and odd
//! lanes imaginary components, plus an immediate rotation. Per complex
//! element, with accumulator `z`, operands `x`, `y`:
//!
//! | rotation | effect |
//! |---|---|
//! | 0°   | `z.re += x.re*y.re; z.im += x.re*y.im` |
//! | 90°  | `z.re -= x.im*y.im; z.im += x.im*y.re` |
//! | 180° | `z.re -= x.re*y.re; z.im -= x.re*y.im` |
//! | 270° | `z.re += x.im*y.im; z.im -= x.im*y.re` |
//!
//! Concatenating two FCMLAs yields a full complex multiply-add (paper
//! Eq. (2)): rotations (0°, 90°) give `z + x*y`; (0°, 270°) give
//! `z + conj(x)*y`. `FCADD` rotates one operand by ±90° before adding,
//! i.e. `x ± i*y` — which also provides multiplication by ±i.

use super::shape::complex;
use crate::count::Opcode;
use crate::ctx::{SizedCtx, SveCtx};
use crate::elem::{Lane, SveFloat};
use crate::pred::PReg;
use crate::vreg::{Reg, VReg};

/// Rotation immediate of `FCMLA`/`FCADD`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rot {
    /// 0 degrees.
    R0 = 0,
    /// 90 degrees.
    R90 = 90,
    /// 180 degrees.
    R180 = 180,
    /// 270 degrees.
    R270 = 270,
}

/// The complex instructions a fixed-length kernel issues, on `N`-byte
/// registers; the free functions of the same names below are these at the
/// maximum capacity.
impl<const N: usize> SizedCtx<'_, N> {
    /// [`svcmla`] on `N`-byte registers.
    #[inline]
    pub fn svcmla<E: SveFloat>(
        &self,
        pg: &PReg,
        acc: &Reg<N>,
        x: &Reg<N>,
        y: &Reg<N>,
        rot: Rot,
    ) -> Reg<N> {
        self.ctx.exec(Opcode::Fcmla);
        complex::<E, N>(
            self.ctx,
            pg,
            [acc, x, y],
            #[inline(always)]
            |[zr, zi], [xr, xi], [yr, yi]| match rot {
                Rot::R0 => [xr.mul_add(yr, zr), xr.mul_add(yi, zi)],
                Rot::R90 => [xi.neg().mul_add(yi, zr), xi.mul_add(yr, zi)],
                Rot::R180 => [xr.neg().mul_add(yr, zr), xr.neg().mul_add(yi, zi)],
                Rot::R270 => [xi.mul_add(yi, zr), xi.neg().mul_add(yr, zi)],
            },
        )
    }

    /// [`svcadd`] on `N`-byte registers.
    #[inline]
    pub fn svcadd<E: SveFloat>(&self, pg: &PReg, x: &Reg<N>, y: &Reg<N>, rot: Rot) -> Reg<N> {
        self.ctx.exec(Opcode::Fcadd);
        assert!(
            matches!(rot, Rot::R90 | Rot::R270),
            "fcadd only supports 90/270 degree rotations"
        );
        complex::<E, N>(
            self.ctx,
            pg,
            [x, x, y],
            #[inline(always)]
            |[xr, xi], _, [yr, yi]| match rot {
                Rot::R90 => [xr.sub(yi), xi.add(yr)],
                _ => [xr.add(yi), xi.sub(yr)],
            },
        )
    }

    /// [`fcmla_mul_add`] on `N`-byte registers.
    #[inline]
    pub fn fcmla_mul_add<E: SveFloat>(
        &self,
        pg: &PReg,
        acc: &Reg<N>,
        x: &Reg<N>,
        y: &Reg<N>,
    ) -> Reg<N> {
        let t = self.svcmla::<E>(pg, acc, x, y, Rot::R90);
        self.svcmla::<E>(pg, &t, x, y, Rot::R0)
    }

    /// [`fcmla_conj_mul_add`] on `N`-byte registers.
    #[inline]
    pub fn fcmla_conj_mul_add<E: SveFloat>(
        &self,
        pg: &PReg,
        acc: &Reg<N>,
        x: &Reg<N>,
        y: &Reg<N>,
    ) -> Reg<N> {
        let t = self.svcmla::<E>(pg, acc, x, y, Rot::R0);
        self.svcmla::<E>(pg, &t, x, y, Rot::R270)
    }
}

/// `svcmla` — complex fused multiply-add with rotation; merging
/// predication (inactive lanes keep `acc`). The ACLE `_x` form behaves the
/// same here.
#[inline]
pub fn svcmla<E: SveFloat>(
    ctx: &SveCtx,
    pg: &PReg,
    acc: &VReg,
    x: &VReg,
    y: &VReg,
    rot: Rot,
) -> VReg {
    ctx.sized().svcmla::<E>(pg, acc, x, y, rot)
}

/// `svcadd` — complex add with rotation: 90° gives `x + i*y`, 270° gives
/// `x - i*y`, per complex element; inactive lanes keep `x`. (Rotations
/// 0/180 are plain `fadd`/`fsub` and are not valid immediates for the
/// instruction.)
#[inline]
pub fn svcadd<E: SveFloat>(ctx: &SveCtx, pg: &PReg, x: &VReg, y: &VReg, rot: Rot) -> VReg {
    ctx.sized().svcadd::<E>(pg, x, y, rot)
}

/// Complex multiply-accumulate `acc + x*y` as the paper's two-FCMLA idiom
/// (Eq. (2)): rotation 90° then 0°. Counts exactly two `fcmla`.
#[inline]
pub fn fcmla_mul_add<E: SveFloat>(ctx: &SveCtx, pg: &PReg, acc: &VReg, x: &VReg, y: &VReg) -> VReg {
    ctx.sized().fcmla_mul_add::<E>(pg, acc, x, y)
}

/// Complex multiply-accumulate with conjugated first operand,
/// `acc + conj(x)*y`: rotations 0° then 270°.
#[inline]
pub fn fcmla_conj_mul_add<E: SveFloat>(
    ctx: &SveCtx,
    pg: &PReg,
    acc: &VReg,
    x: &VReg,
    y: &VReg,
) -> VReg {
    ctx.sized().fcmla_conj_mul_add::<E>(pg, acc, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::{svdup, svptrue};
    use crate::vl::VectorLength;

    fn ctx() -> SveCtx {
        SveCtx::new(VectorLength::of(512)) // 8 f64 lanes = 4 complex
    }

    /// Scalar complex multiply for reference.
    fn cmul(x: (f64, f64), y: (f64, f64)) -> (f64, f64) {
        (x.0 * y.0 - x.1 * y.1, x.0 * y.1 + x.1 * y.0)
    }

    fn cvec(ctx: &SveCtx, c: &[(f64, f64)]) -> VReg {
        VReg::from_fn::<f64>(
            ctx.vl(),
            |i| if i % 2 == 0 { c[i / 2].0 } else { c[i / 2].1 },
        )
    }

    const XS: [(f64, f64); 4] = [(1.0, 2.0), (-0.5, 3.0), (0.0, 1.0), (2.5, -1.5)];
    const YS: [(f64, f64); 4] = [(3.0, -1.0), (2.0, 2.0), (-1.0, 0.5), (0.0, -2.0)];

    #[test]
    fn two_fcmla_make_a_complex_multiply() {
        // The paper's listing IV-C/IV-D pattern: acc = 0, rotate 90 then 0.
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let zero = svdup::<f64>(&ctx, 0.0);
        let x = cvec(&ctx, &XS);
        let y = cvec(&ctx, &YS);
        let r = fcmla_mul_add::<f64>(&ctx, &pg, &zero, &x, &y);
        for p in 0..4 {
            let want = cmul(XS[p], YS[p]);
            assert!((r.lane::<f64>(2 * p) - want.0).abs() < 1e-12, "re pair {p}");
            assert!(
                (r.lane::<f64>(2 * p + 1) - want.1).abs() < 1e-12,
                "im pair {p}"
            );
        }
        assert_eq!(ctx.counters().get(Opcode::Fcmla), 2);
    }

    #[test]
    fn conjugated_multiply() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let zero = svdup::<f64>(&ctx, 0.0);
        let x = cvec(&ctx, &XS);
        let y = cvec(&ctx, &YS);
        let r = fcmla_conj_mul_add::<f64>(&ctx, &pg, &zero, &x, &y);
        for p in 0..4 {
            let want = cmul((XS[p].0, -XS[p].1), YS[p]);
            assert!((r.lane::<f64>(2 * p) - want.0).abs() < 1e-12);
            assert!((r.lane::<f64>(2 * p + 1) - want.1).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulation_adds_to_existing_value() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let acc = cvec(&ctx, &[(10.0, 20.0); 4]);
        let x = cvec(&ctx, &XS);
        let y = cvec(&ctx, &YS);
        let r = fcmla_mul_add::<f64>(&ctx, &pg, &acc, &x, &y);
        let want = cmul(XS[0], YS[0]);
        assert!((r.lane::<f64>(0) - (10.0 + want.0)).abs() < 1e-12);
        assert!((r.lane::<f64>(1) - (20.0 + want.1)).abs() < 1e-12);
    }

    #[test]
    fn each_rotation_individually() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let zero = svdup::<f64>(&ctx, 0.0);
        let x = cvec(&ctx, &[(2.0, 3.0); 4]);
        let y = cvec(&ctx, &[(5.0, 7.0); 4]);
        let cases = [
            (Rot::R0, (2.0 * 5.0, 2.0 * 7.0)),
            (Rot::R90, (-3.0 * 7.0, 3.0 * 5.0)),
            (Rot::R180, (-2.0 * 5.0, -2.0 * 7.0)),
            (Rot::R270, (3.0 * 7.0, -3.0 * 5.0)),
        ];
        for (rot, want) in cases {
            let r = svcmla::<f64>(&ctx, &pg, &zero, &x, &y, rot);
            assert_eq!((r.lane::<f64>(0), r.lane::<f64>(1)), want, "{rot:?}");
        }
    }

    #[test]
    fn fcadd_is_multiplication_by_plus_minus_i() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let zero = svdup::<f64>(&ctx, 0.0);
        let y = cvec(&ctx, &XS);
        // 0 + i*y
        let plus_i = svcadd::<f64>(&ctx, &pg, &zero, &y, Rot::R90);
        // 0 - i*y
        let minus_i = svcadd::<f64>(&ctx, &pg, &zero, &y, Rot::R270);
        for (p, &(re, im)) in XS.iter().enumerate() {
            assert_eq!(plus_i.lane::<f64>(2 * p), -im);
            assert_eq!(plus_i.lane::<f64>(2 * p + 1), re);
            assert_eq!(minus_i.lane::<f64>(2 * p), im);
            assert_eq!(minus_i.lane::<f64>(2 * p + 1), -re);
        }
    }

    #[test]
    #[should_panic(expected = "90/270")]
    fn fcadd_rejects_invalid_rotation() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let z = svdup::<f64>(&ctx, 0.0);
        let _ = svcadd::<f64>(&ctx, &pg, &z, &z, Rot::R0);
    }

    #[test]
    fn predication_masks_complex_pairs() {
        let ctx = ctx();
        let mut pg = PReg::none();
        // Activate only pair 1 (lanes 2 and 3).
        pg.set_elem_active::<f64>(2, true);
        pg.set_elem_active::<f64>(3, true);
        let acc = cvec(&ctx, &[(9.0, 9.0); 4]);
        let x = cvec(&ctx, &XS);
        let y = cvec(&ctx, &YS);
        let r = fcmla_mul_add::<f64>(&ctx, &pg, &acc, &x, &y);
        // Pair 0 untouched.
        assert_eq!((r.lane::<f64>(0), r.lane::<f64>(1)), (9.0, 9.0));
        // Pair 1 updated.
        let want = cmul(XS[1], YS[1]);
        assert!((r.lane::<f64>(2) - (9.0 + want.0)).abs() < 1e-12);
    }

    #[test]
    fn f32_complex_multiply() {
        let ctx = SveCtx::new(VectorLength::of(256)); // 8 f32 = 4 complex
        let pg = svptrue::<f32>(&ctx);
        let zero = svdup::<f32>(&ctx, 0.0);
        let x = VReg::from_fn::<f32>(ctx.vl(), |i| (i as f32 + 1.0) * 0.5);
        let y = VReg::from_fn::<f32>(ctx.vl(), |i| 2.0 - i as f32 * 0.25);
        let r = fcmla_mul_add::<f32>(&ctx, &pg, &zero, &x, &y);
        for p in 0..4 {
            let (xr, xi) = (x.lane::<f32>(2 * p), x.lane::<f32>(2 * p + 1));
            let (yr, yi) = (y.lane::<f32>(2 * p), y.lane::<f32>(2 * p + 1));
            let want_re = xr * yr - xi * yi;
            let want_im = xr * yi + xi * yr;
            assert!((r.lane::<f32>(2 * p) - want_re).abs() < 1e-5);
            assert!((r.lane::<f32>(2 * p + 1) - want_im).abs() < 1e-5);
        }
    }
}
