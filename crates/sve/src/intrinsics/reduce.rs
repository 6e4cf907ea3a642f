//! Horizontal reductions — used by Grid for inner products and norms, the
//! scalars that drive the Conjugate Gradient iteration.

use super::shape::fold_arith;
use crate::count::Opcode;
use crate::ctx::{SizedCtx, SveCtx};
use crate::elem::{Lane, SveFloat};
use crate::pred::PReg;
use crate::vl::VL_MAX_BYTES;
use crate::vreg::{Reg, VReg};

impl<const N: usize> SizedCtx<'_, N> {
    /// [`svaddv`] of an `N`-byte register.
    #[inline]
    pub fn svaddv<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>) -> E {
        self.ctx.exec(Opcode::Faddv);
        let lanes = self.ctx.vl().bytes() / E::BYTES;
        let mut sums = [E::zero(); VL_MAX_BYTES / 2];
        for (e, sum) in sums[..lanes].iter_mut().enumerate() {
            if pg.elem_active::<E>(e) {
                *sum = a.lane(e);
            }
        }
        // Level by level: lane pairs, then pairs of pair sums, the lower
        // half always the first operand.
        let mut width = lanes.next_power_of_two();
        while width > 1 {
            width /= 2;
            for i in 0..width {
                sums[i] = SveFloat::add(sums[2 * i], sums[2 * i + 1]);
            }
        }
        sums[0]
    }
}

/// `svaddv` — sum of the active lanes, as the architecture defines `FADDV`:
/// inactive lanes read as `+0.0`, the vector is padded with `+0.0` to a
/// power-of-two number of lanes, and the sum is the recursive pairwise tree
/// — the sum of the lower half plus the sum of the upper half, each rounded
/// to `E`. The grouping depends on the vector length, so the same data
/// summed at two lengths can differ in the last bits; a strictly-ordered
/// sum is [`svadda`](crate::intrinsics::svadda).
#[inline]
pub fn svaddv<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> E {
    ctx.sized().svaddv(pg, a)
}

/// `svmaxv` — maximum of the active lanes (zero when none is active).
pub fn svmaxv<E: SveFloat>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> E {
    ctx.exec(Opcode::Fmaxv);
    fold_arith(ctx, pg, a, None, E::Wide::max).unwrap_or_else(E::zero)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::{svptrue, svwhilelt};
    use crate::vl::VectorLength;

    #[test]
    fn addv_sums_active_lanes() {
        let ctx = SveCtx::new(VectorLength::of(512));
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::from_fn::<f64>(ctx.vl(), |i| i as f64 + 1.0);
        assert_eq!(svaddv::<f64>(&ctx, &pg, &a), 36.0); // 1+..+8
        let partial = svwhilelt::<f64>(&ctx, 0, 3);
        assert_eq!(svaddv::<f64>(&ctx, &partial, &a), 6.0);
    }

    #[test]
    fn addv_groups_by_halves_and_reads_inactive_lanes_as_plus_zero() {
        let ctx = SveCtx::new(VectorLength::of(256));
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::from_fn::<f64>(ctx.vl(), |i| [1e16, 1.0, -1e16, 1.0][i]);
        // (1e16 + 1) + (-1e16 + 1) rounds both pairs to ±1e16; the lane
        // order ((1e16 + 1) - 1e16) + 1 would give 1.
        assert_eq!(svaddv::<f64>(&ctx, &pg, &a), 0.0);
        let negative_zeros = VReg::from_fn::<f64>(ctx.vl(), |_| -0.0);
        let three = svwhilelt::<f64>(&ctx, 0, 3);
        assert_eq!(
            svaddv::<f64>(&ctx, &pg, &negative_zeros).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(svaddv::<f64>(&ctx, &three, &negative_zeros).to_bits(), 0);
        // VL384 holds six lanes, padded to eight:
        // ((1 + 2) + (3 + 4)) + ((5 + 6) + (0 + 0)).
        let ctx = SveCtx::new(VectorLength::of(384));
        let six = VReg::from_fn::<f64>(ctx.vl(), |i| i as f64 + 1.0);
        assert_eq!(svaddv::<f64>(&ctx, &svptrue::<f64>(&ctx), &six), 21.0);
    }

    #[test]
    fn maxv_of_active_lanes() {
        let ctx = SveCtx::new(VectorLength::of(256));
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::from_fn::<f64>(ctx.vl(), |i| [3.0, -7.0, 11.0, 2.0][i]);
        assert_eq!(svmaxv::<f64>(&ctx, &pg, &a), 11.0);
        let first_two = svwhilelt::<f64>(&ctx, 0, 2);
        assert_eq!(svmaxv::<f64>(&ctx, &first_two, &a), 3.0);
    }

    #[test]
    fn reductions_counted() {
        use crate::count::OpClass;
        let ctx = SveCtx::new(VectorLength::of(128));
        let pg = svptrue::<f64>(&ctx);
        let a = VReg::zeroed();
        let _ = svaddv::<f64>(&ctx, &pg, &a);
        let _ = svmaxv::<f64>(&ctx, &pg, &a);
        assert_eq!(ctx.counters().total_class(OpClass::Reduce), 2);
    }
}
