//! Real floating-point arithmetic intrinsics.
//!
//! These are the instructions the auto-vectorizer falls back to for complex
//! multiplication (listing IV-B: `fmul`, `fmla`, `fnmls`, `movprfx`) and the
//! building blocks of the paper's Section V-E "alternative implementation of
//! complex arithmetics based on instructions for real arithmetics".

use super::shape::{arith1, arith2, fold_arith, moved, ternary, Inactive};
use crate::count::Opcode;
use crate::ctx::{SizedCtx, SveCtx};
use crate::elem::{Lane, SveElem, SveFloat};
use crate::host::HostCopy;
use crate::pred::PReg;
use crate::vreg::{Reg, VReg};

/// The real-arithmetic instructions a fixed-length kernel issues, on
/// `N`-byte registers; the free functions of the same names below are these
/// at the maximum capacity.
impl<const N: usize, C: HostCopy> SizedCtx<'_, N, C> {
    /// [`svdup`] into an `N`-byte register.
    #[inline(always)]
    pub fn svdup<E: SveElem>(&self, x: E) -> Reg<N> {
        self.exec(Opcode::Dup);
        Reg::from_fn::<E>(self.vl(), |_| x)
    }

    /// [`svadd_x`] on `N`-byte registers.
    #[inline(always)]
    pub fn svadd_x<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fadd);
        arith2::<E, N, C>(self, pg, Inactive::Computed, a, b, E::Wide::add)
    }

    /// [`svsub_x`] on `N`-byte registers.
    #[inline(always)]
    pub fn svsub_x<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fsub);
        arith2::<E, N, C>(self, pg, Inactive::Computed, a, b, E::Wide::sub)
    }

    /// [`svmul_x`] on `N`-byte registers.
    #[inline(always)]
    pub fn svmul_x<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fmul);
        arith2::<E, N, C>(self, pg, Inactive::Computed, a, b, E::Wide::mul)
    }

    /// [`svneg_x`] on an `N`-byte register.
    #[inline(always)]
    pub fn svneg_x<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fneg);
        moved(self, pg, Inactive::Computed, a, E::neg)
    }

    /// [`svneg_m`] on an `N`-byte register.
    #[inline(always)]
    pub fn svneg_m<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fneg);
        moved(self, pg, Inactive::First, a, E::neg)
    }

    /// [`svmla_m`] on `N`-byte registers.
    #[inline(always)]
    pub fn svmla_m<E: SveFloat>(&self, pg: &PReg, acc: &Reg<N>, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fmla);
        ternary::<E, N, C>(
            self,
            pg,
            acc,
            a,
            b,
            #[inline(always)]
            |z, x, y| x.mul_add(y, z),
        )
    }

    /// [`svnmls_m`] on `N`-byte registers.
    #[inline(always)]
    pub fn svnmls_m<E: SveFloat>(&self, pg: &PReg, acc: &Reg<N>, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Fnmls);
        ternary::<E, N, C>(
            self,
            pg,
            acc,
            a,
            b,
            #[inline(always)]
            |z, x, y| x.mul_add(y, z.neg()),
        )
    }

    /// [`movprfx`] of an `N`-byte register.
    #[inline(always)]
    pub fn movprfx(&self, src: &Reg<N>) -> Reg<N> {
        self.exec(Opcode::Movprfx);
        *src
    }
}

/// `svdup` — broadcast a scalar into every lane (`mov z0.d, #imm` /
/// `dup z0.d, x0`).
#[inline]
pub fn svdup<E: SveElem>(ctx: &SveCtx, x: E) -> VReg {
    ctx.sized().svdup(x)
}

/// `svadd_x` — lane-wise add; inactive lanes computed unpredicated.
#[inline]
pub fn svadd_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svadd_x::<E>(pg, a, b)
}

/// `svadd_m` — lane-wise add, inactive lanes keep `a`.
#[inline]
pub fn svadd_m<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Fadd);
    arith2::<E, _, _>(&ctx.sized(), pg, Inactive::First, a, b, E::Wide::add)
}

/// `svsub_x` — lane-wise subtract.
#[inline]
pub fn svsub_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svsub_x::<E>(pg, a, b)
}

/// `svmul_x` — lane-wise multiply (listing IV-A's `fmul`).
#[inline]
pub fn svmul_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svmul_x::<E>(pg, a, b)
}

/// `svmul_z` — lane-wise multiply with zeroing predication.
#[inline]
pub fn svmul_z<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Fmul);
    arith2::<E, _, _>(&ctx.sized(), pg, Inactive::Zero, a, b, E::Wide::mul)
}

/// `svneg_x` — lane-wise negate.
#[inline]
pub fn svneg_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.sized().svneg_x::<E>(pg, a)
}

/// `svneg_m` — lane-wise negate with merging predication: active lanes are
/// negated, inactive lanes keep their value. One instruction; this is how
/// the real-arithmetic complex kernels flip signs on alternating lanes.
#[inline]
pub fn svneg_m<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.sized().svneg_m::<E>(pg, a)
}

/// `svabs_x` — lane-wise absolute value.
#[inline]
pub fn svabs_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.exec(Opcode::Fabs);
    moved(&ctx.sized(), pg, Inactive::Computed, a, E::abs)
}

/// `svsqrt_x` — lane-wise square root.
#[inline]
pub fn svsqrt_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.exec(Opcode::Fsqrt);
    arith1::<E, _, _>(&ctx.sized(), pg, Inactive::Computed, a, E::Wide::sqrt)
}

/// `svmax_x` / `svmin_x` — lane-wise max/min.
#[inline]
pub fn svmax_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Fmax);
    arith2::<E, _, _>(&ctx.sized(), pg, Inactive::Computed, a, b, E::Wide::max)
}

/// `svmin_x` — lane-wise minimum.
#[inline]
pub fn svmin_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Fmin);
    arith2::<E, _, _>(&ctx.sized(), pg, Inactive::Computed, a, b, E::Wide::min)
}

/// `svmla_m` — fused multiply-add: `acc + a*b` per lane, inactive lanes keep
/// `acc` (listing IV-B's `fmla z7.d, p1/m, z3.d, z0.d`).
#[inline]
pub fn svmla_m<E: SveFloat>(ctx: &SveCtx, pg: &PReg, acc: &VReg, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svmla_m::<E>(pg, acc, a, b)
}

/// `svmls_m` — fused multiply-subtract: `acc - a*b` per lane.
#[inline]
pub fn svmls_m<E: SveFloat>(ctx: &SveCtx, pg: &PReg, acc: &VReg, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Fmls);
    ternary::<E, _, _>(
        &ctx.sized(),
        pg,
        acc,
        a,
        b,
        #[inline(always)]
        |z, x, y| x.neg().mul_add(y, z),
    )
}

/// `svnmls_m` — negated multiply-subtract: `a*b - acc` per lane (listing
/// IV-B's `fnmls z6.d, p1/m, z2.d, z0.d`).
#[inline]
pub fn svnmls_m<E: SveFloat>(ctx: &SveCtx, pg: &PReg, acc: &VReg, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svnmls_m::<E>(pg, acc, a, b)
}

/// `svindex` — lane `i` gets `base + i * step` (64-bit integer lanes); the
/// standard way to materialize gather indices.
pub fn svindex(ctx: &SveCtx, base: u64, step: u64) -> VReg {
    ctx.exec(Opcode::Dup);
    VReg::from_fn::<u64>(ctx.vl(), |i| base.wrapping_add(step.wrapping_mul(i as u64)))
}

/// `svadda` — strictly-ordered add-accumulate: fold the active lanes into
/// `init` in lane order. Unlike the tree-reducing `faddv`, the result is
/// bit-identical to a scalar loop — what reproducible global sums use.
#[inline]
pub fn svadda<E: SveFloat>(ctx: &SveCtx, pg: &PReg, init: E, a: &VReg) -> E {
    ctx.exec(Opcode::Faddv);
    fold_arith(&ctx.sized(), pg, a, Some(init), E::Wide::add).expect("a chain from `init`")
}

/// `svscale_x` — multiply each active lane by `2^exp[i]` (integer exponent
/// lanes); exact scaling used by range-reduction kernels. Inactive lanes
/// keep `a`.
pub fn svscale_x<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg, exp: &VReg) -> VReg {
    ctx.exec(Opcode::Fscale);
    VReg::from_fn::<E>(ctx.vl(), |e| {
        let x: E = a.lane(e);
        if pg.elem_active::<E>(e) {
            let k = exp.lane::<u64>(e * E::BYTES / 8) as i32;
            E::from_f64(x.to_f64() * (2.0f64).powi(k))
        } else {
            x
        }
    })
}

/// `movprfx` — move-prefix: copies a register so a destructive FMA can have
/// an independent destination (listing IV-B lines 12/14). Functionally a
/// register copy; accounted separately because it occupies an issue slot.
#[inline]
pub fn movprfx(ctx: &SveCtx, src: &VReg) -> VReg {
    ctx.sized().movprfx(src)
}

/// `mov z, z` — plain vector register move.
#[inline]
pub fn movz(ctx: &SveCtx, src: &VReg) -> VReg {
    ctx.exec(Opcode::MovZ);
    *src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::{svptrue, svwhilelt};
    use crate::vl::VectorLength;

    fn ctx() -> SveCtx {
        SveCtx::new(VectorLength::of(256))
    }

    fn v(ctx: &SveCtx, vals: &[f64]) -> VReg {
        VReg::from_fn::<f64>(ctx.vl(), |i| vals[i])
    }

    #[test]
    fn dup_broadcasts() {
        let ctx = ctx();
        let r = svdup::<f64>(&ctx, 2.5);
        assert_eq!(r.to_vec::<f64>(ctx.vl()), vec![2.5; 4]);
    }

    #[test]
    fn elementwise_ops() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let a = v(&ctx, &[1.0, 2.0, 3.0, 4.0]);
        let b = v(&ctx, &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(
            svadd_x::<f64>(&ctx, &pg, &a, &b).to_vec::<f64>(ctx.vl()),
            vec![11.0, 22.0, 33.0, 44.0]
        );
        assert_eq!(
            svsub_x::<f64>(&ctx, &pg, &b, &a).to_vec::<f64>(ctx.vl()),
            vec![9.0, 18.0, 27.0, 36.0]
        );
        assert_eq!(
            svmul_x::<f64>(&ctx, &pg, &a, &b).to_vec::<f64>(ctx.vl()),
            vec![10.0, 40.0, 90.0, 160.0]
        );
        assert_eq!(
            svneg_x::<f64>(&ctx, &pg, &a).to_vec::<f64>(ctx.vl()),
            vec![-1.0, -2.0, -3.0, -4.0]
        );
        assert_eq!(
            svmax_x::<f64>(&ctx, &pg, &a, &b).to_vec::<f64>(ctx.vl()),
            vec![10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn fma_family_matches_arm_semantics() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let acc = v(&ctx, &[100.0, 100.0, 100.0, 100.0]);
        let a = v(&ctx, &[2.0, 3.0, 4.0, 5.0]);
        let b = v(&ctx, &[10.0, 10.0, 10.0, 10.0]);
        // fmla: acc + a*b
        assert_eq!(
            svmla_m::<f64>(&ctx, &pg, &acc, &a, &b).to_vec::<f64>(ctx.vl()),
            vec![120.0, 130.0, 140.0, 150.0]
        );
        // fmls: acc - a*b
        assert_eq!(
            svmls_m::<f64>(&ctx, &pg, &acc, &a, &b).to_vec::<f64>(ctx.vl()),
            vec![80.0, 70.0, 60.0, 50.0]
        );
        // fnmls: a*b - acc
        assert_eq!(
            svnmls_m::<f64>(&ctx, &pg, &acc, &a, &b).to_vec::<f64>(ctx.vl()),
            vec![-80.0, -70.0, -60.0, -50.0]
        );
    }

    #[test]
    fn merge_predication_keeps_inactive_lanes() {
        let ctx = ctx();
        let pg = svwhilelt::<f64>(&ctx, 0, 2);
        let acc = v(&ctx, &[1.0, 1.0, 1.0, 1.0]);
        let a = v(&ctx, &[5.0, 5.0, 5.0, 5.0]);
        let b = v(&ctx, &[2.0, 2.0, 2.0, 2.0]);
        let r = svmla_m::<f64>(&ctx, &pg, &acc, &a, &b);
        assert_eq!(r.to_vec::<f64>(ctx.vl()), vec![11.0, 11.0, 1.0, 1.0]);
        let rz = svmul_z::<f64>(&ctx, &pg, &a, &b);
        assert_eq!(rz.to_vec::<f64>(ctx.vl()), vec![10.0, 10.0, 0.0, 0.0]);
        let rm = svadd_m::<f64>(&ctx, &pg, &a, &b);
        assert_eq!(rm.to_vec::<f64>(ctx.vl()), vec![7.0, 7.0, 5.0, 5.0]);
    }

    #[test]
    fn sqrt_abs() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let a = v(&ctx, &[4.0, 9.0, 16.0, 25.0]);
        assert_eq!(
            svsqrt_x::<f64>(&ctx, &pg, &a).to_vec::<f64>(ctx.vl()),
            vec![2.0, 3.0, 4.0, 5.0]
        );
        let n = svneg_x::<f64>(&ctx, &pg, &a);
        assert_eq!(
            svabs_x::<f64>(&ctx, &pg, &n).to_vec::<f64>(ctx.vl()),
            vec![4.0, 9.0, 16.0, 25.0]
        );
    }

    #[test]
    fn movprfx_copies_and_counts() {
        let ctx = ctx();
        let a = v(&ctx, &[1.0, 2.0, 3.0, 4.0]);
        let c = movprfx(&ctx, &a);
        assert!(c.lanes_eq::<f64>(&a, ctx.vl()));
        assert_eq!(ctx.counters().get(Opcode::Movprfx), 1);
    }

    #[test]
    fn f32_lanes() {
        let ctx = ctx(); // 8 x f32
        let pg = svptrue::<f32>(&ctx);
        let a = VReg::from_fn::<f32>(ctx.vl(), |i| i as f32);
        let b = svdup::<f32>(&ctx, 2.0);
        let r = svmul_x::<f32>(&ctx, &pg, &a, &b);
        assert_eq!(r.lane::<f32>(7), 14.0);
    }

    #[test]
    fn index_materializes_arithmetic_sequence() {
        let ctx = ctx();
        let r = svindex(&ctx, 10, 3);
        assert_eq!(r.lane::<u64>(0), 10);
        assert_eq!(r.lane::<u64>(3), 19);
    }

    #[test]
    fn adda_is_strictly_ordered() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let a = v(&ctx, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(svadda::<f64>(&ctx, &pg, 100.0, &a), 110.0);
        let partial = svwhilelt::<f64>(&ctx, 0, 2);
        assert_eq!(svadda::<f64>(&ctx, &partial, 0.0, &a), 3.0);
    }

    #[test]
    fn scale_multiplies_by_powers_of_two() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let a = v(&ctx, &[1.5, 1.5, 1.5, 1.5]);
        let exp = VReg::from_fn::<u64>(ctx.vl(), |i| i as u64);
        let r = svscale_x::<f64>(&ctx, &pg, &a, &exp);
        assert_eq!(r.to_vec::<f64>(ctx.vl()), vec![1.5, 3.0, 6.0, 12.0]);
    }
}
