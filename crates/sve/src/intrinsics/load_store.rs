//! Predicated loads and stores, including the structure forms.
//!
//! Structure load/store is one of the SVE features the paper singles out as
//! beneficial for LQCD (Section III-A): `ld2d` loads an array of 2-element
//! structures into 2 vectors, one per structure element — which is exactly
//! how the auto-vectorizer de-interleaves `std::complex<double>` in listing
//! IV-B. Inactive lanes perform no memory access (so a predicate may mask
//! out-of-bounds tails, as hardware fault suppression would) and are zeroed
//! in the destination (`p/z`).

use super::shape::{active_lanes, load, store};
use crate::count::Opcode;
use crate::ctx::{SizedCtx, SveCtx};
use crate::elem::SveElem;
use crate::pred::PReg;
use crate::vreg::{Reg, VReg};

impl<const N: usize> SizedCtx<'_, N> {
    /// [`svld1`] into an `N`-byte register.
    #[inline]
    pub fn svld1<E: SveElem>(&self, pg: &PReg, src: &[E]) -> Reg<N> {
        self.ctx.exec(Opcode::Ld1);
        load(self.ctx, pg, src, 1, 0)
    }

    /// [`svst1`] from an `N`-byte register.
    #[inline]
    pub fn svst1<E: SveElem>(&self, pg: &PReg, dst: &mut [E], v: &Reg<N>) {
        self.ctx.exec(Opcode::St1);
        store(self.ctx, pg, dst, 1, 0, v);
    }
}

/// `svld1` — contiguous predicated load with zeroing.
#[inline]
pub fn svld1<E: SveElem>(ctx: &SveCtx, pg: &PReg, src: &[E]) -> VReg {
    ctx.sized().svld1(pg, src)
}

/// `svst1` — contiguous predicated store; only active lanes touch memory.
#[inline]
pub fn svst1<E: SveElem>(ctx: &SveCtx, pg: &PReg, dst: &mut [E], v: &VReg) {
    ctx.sized().svst1(pg, dst, v);
}

/// `svld2` — structure load of 2-element records: lane `e` of the first
/// result takes `src[2e]`, of the second `src[2e+1]` (listing IV-B's
/// `ld2d {z0.d, z1.d}`).
pub fn svld2<E: SveElem>(ctx: &SveCtx, pg: &PReg, src: &[E]) -> (VReg, VReg) {
    ctx.exec(Opcode::Ld2);
    (load(ctx, pg, src, 2, 0), load(ctx, pg, src, 2, 1))
}

/// `svst2` — structure store of 2-element records (listing IV-B's `st2d`).
pub fn svst2<E: SveElem>(ctx: &SveCtx, pg: &PReg, dst: &mut [E], a: &VReg, b: &VReg) {
    ctx.exec(Opcode::St2);
    for (k, reg) in [a, b].into_iter().enumerate() {
        store(ctx, pg, dst, 2, k, reg);
    }
}

/// `svld3` — structure load of 3-element records (e.g. color vectors).
pub fn svld3<E: SveElem>(ctx: &SveCtx, pg: &PReg, src: &[E]) -> (VReg, VReg, VReg) {
    ctx.exec(Opcode::Ld3);
    (
        load(ctx, pg, src, 3, 0),
        load(ctx, pg, src, 3, 1),
        load(ctx, pg, src, 3, 2),
    )
}

/// `svst3` — structure store of 3-element records.
pub fn svst3<E: SveElem>(ctx: &SveCtx, pg: &PReg, dst: &mut [E], a: &VReg, b: &VReg, c: &VReg) {
    ctx.exec(Opcode::St3);
    for (k, reg) in [a, b, c].into_iter().enumerate() {
        store(ctx, pg, dst, 3, k, reg);
    }
}

/// `svld4` — structure load of 4-element records (e.g. spinor components).
pub fn svld4<E: SveElem>(ctx: &SveCtx, pg: &PReg, src: &[E]) -> [VReg; 4] {
    ctx.exec(Opcode::Ld4);
    [0, 1, 2, 3].map(|k| load(ctx, pg, src, 4, k))
}

/// `svst4` — structure store of 4-element records.
pub fn svst4<E: SveElem>(ctx: &SveCtx, pg: &PReg, dst: &mut [E], v: &[VReg; 4]) {
    ctx.exec(Opcode::St4);
    for (k, reg) in v.iter().enumerate() {
        store(ctx, pg, dst, 4, k, reg);
    }
}

/// `svld1_gather_index` — gather load: lane `e` takes `src[idx.lane::<u64>(e)]`.
pub fn svld1_gather<E: SveElem>(ctx: &SveCtx, pg: &PReg, src: &[E], idx: &VReg) -> VReg {
    ctx.exec(Opcode::Ld1Gather);
    VReg::from_fn::<E>(ctx.vl(), |e| {
        if !pg.elem_active::<E>(e) {
            return E::zero();
        }
        let i = idx_lane::<E>(idx, e);
        *src.get(i).unwrap_or_else(|| {
            panic!(
                "sve: active lane reads out of bounds (index {i}, slice len {})",
                src.len()
            )
        })
    })
}

/// `svst1_scatter_index` — scatter store.
pub fn svst1_scatter<E: SveElem>(ctx: &SveCtx, pg: &PReg, dst: &mut [E], idx: &VReg, v: &VReg) {
    ctx.exec(Opcode::St1Scatter);
    for (e, x) in active_lanes::<E, _>(ctx, pg, v) {
        dst[idx_lane::<E>(idx, e)] = x;
    }
}

/// Read an index lane sized like `E` from an index vector (64-bit indices
/// for `.d` views, 32-bit for `.s`/`.h` views — the widths hardware gathers
/// support).
fn idx_lane<E: SveElem>(idx: &VReg, e: usize) -> usize {
    match E::BYTES {
        8 => idx.lane::<u64>(e) as usize,
        4 | 2 => idx.lane::<i32>(e * E::BYTES / 4) as usize,
        _ => panic!("gather/scatter: unsupported element width"),
    }
}

/// `svprf` — prefetch hint; accounted, no functional effect.
pub fn svprf(ctx: &SveCtx) {
    ctx.exec(Opcode::Prf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::{svptrue, svwhilelt};
    use crate::vl::VectorLength;

    fn ctx() -> SveCtx {
        SveCtx::new(VectorLength::of(256)) // 4 x f64
    }

    #[test]
    fn ld1_st1_round_trip() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let src = [1.0, 2.0, 3.0, 4.0];
        let v = svld1(&ctx, &pg, &src);
        let mut dst = [0.0; 4];
        svst1(&ctx, &pg, &mut dst, &v);
        assert_eq!(dst, src);
    }

    #[test]
    fn partial_predicate_masks_memory_access() {
        let ctx = ctx();
        // Slice of 3 < 4 lanes: whilelt predicate keeps lane 3 inactive so
        // no out-of-bounds access happens.
        let pg = svwhilelt::<f64>(&ctx, 0, 3);
        let src = [1.0, 2.0, 3.0];
        let v = svld1(&ctx, &pg, &src);
        assert_eq!(v.lane::<f64>(2), 3.0);
        assert_eq!(v.lane::<f64>(3), 0.0, "inactive lane zeroed (p/z)");
        let mut dst = [9.0; 3];
        svst1(&ctx, &pg, &mut dst, &v);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn active_lane_out_of_bounds_panics() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let src = [1.0, 2.0]; // 2 < 4 active lanes
        let _ = svld1(&ctx, &pg, &src);
    }

    #[test]
    fn ld2_deinterleaves_st2_reinterleaves() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        // (re, im) pairs as in listing IV-B.
        let src = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0];
        let (re, im) = svld2(&ctx, &pg, &src);
        assert_eq!(re.to_vec::<f64>(ctx.vl()), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(im.to_vec::<f64>(ctx.vl()), vec![10.0, 20.0, 30.0, 40.0]);
        let mut dst = [0.0; 8];
        svst2(&ctx, &pg, &mut dst, &re, &im);
        assert_eq!(dst, src);
    }

    #[test]
    fn ld3_ld4_round_trip() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let src3: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let (a, b, c) = svld3(&ctx, &pg, &src3);
        assert_eq!(a.lane::<f64>(1), 3.0);
        assert_eq!(b.lane::<f64>(1), 4.0);
        assert_eq!(c.lane::<f64>(1), 5.0);
        let mut dst3 = vec![0.0; 12];
        svst3(&ctx, &pg, &mut dst3, &a, &b, &c);
        assert_eq!(dst3, src3);

        let src4: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        let regs = svld4(&ctx, &pg, &src4);
        let mut dst4 = vec![0.0; 16];
        svst4(&ctx, &pg, &mut dst4, &regs);
        assert_eq!(dst4, src4);
    }

    #[test]
    fn gather_scatter() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let src = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        let idx = VReg::from_fn::<u64>(ctx.vl(), |e| (5 - e) as u64);
        let v = svld1_gather::<f64>(&ctx, &pg, &src, &idx);
        assert_eq!(v.to_vec::<f64>(ctx.vl()), vec![15.0, 14.0, 13.0, 12.0]);
        let mut dst = [0.0; 6];
        svst1_scatter::<f64>(&ctx, &pg, &mut dst, &idx, &v);
        assert_eq!(&dst[2..], &src[2..]);
    }

    #[test]
    fn f32_views_use_32bit_lane_count() {
        let ctx = ctx(); // VL256: 8 x f32
        let pg = svptrue::<f32>(&ctx);
        let src: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v = svld1(&ctx, &pg, &src);
        assert_eq!(v.lane::<f32>(7), 7.0);
        assert_eq!(v.lane::<f32>(8), 0.0);
    }

    #[test]
    fn opcode_accounting() {
        let ctx = ctx();
        let pg = svptrue::<f64>(&ctx);
        let src = [0.0; 8];
        let _ = svld1(&ctx, &pg, &src[..4]);
        let _ = svld2(&ctx, &pg, &src);
        let mut dst = [0.0; 8];
        svst2(&ctx, &pg, &mut dst, &VReg::zeroed(), &VReg::zeroed());
        svprf(&ctx);
        assert_eq!(ctx.counters().get(Opcode::Ld1), 1);
        assert_eq!(ctx.counters().get(Opcode::Ld2), 1);
        assert_eq!(ctx.counters().get(Opcode::St2), 1);
        assert_eq!(ctx.counters().get(Opcode::Prf), 1);
    }
}
