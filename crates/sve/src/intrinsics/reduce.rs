//! Horizontal reductions — used by Grid for inner products and norms, the
//! scalars that drive the Conjugate Gradient iteration.

use super::shape::fold_arith;
use crate::count::Opcode;
use crate::ctx::{SizedCtx, SveCtx};
use crate::elem::{Lane, SveFloat};
use crate::pred::PReg;
use crate::vreg::{Reg, VReg};

impl<const N: usize> SizedCtx<'_, N> {
    /// [`svaddv`] of an `N`-byte register.
    #[inline]
    pub fn svaddv<E: SveFloat>(&self, pg: &PReg, a: &Reg<N>) -> E {
        self.ctx.exec(Opcode::Faddv);
        fold_arith(self.ctx, pg, a, Some(E::zero()), E::Wide::add).expect("a chain from zero")
    }
}

/// `svaddv` — sum of the active lanes. Hardware performs a tree reduction;
/// this model sums in lane order, which is what a strictly-ordered `fadda`
/// would produce (deterministic across runs, and the ordering used by the
/// reference implementations in tests).
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
