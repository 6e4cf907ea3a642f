//! Permutation intrinsics.
//!
//! "Permutations of vector elements" are one of the machine-specific
//! operations Grid confines to its abstraction layer (paper, Section II-C):
//! the virtual-node layout turns nearest-neighbour access at sub-lattice
//! boundaries into lane permutations, and the Section V-E real-arithmetic
//! complex kernels need `trn1/trn2`-style de-interleaving inside registers.

use super::shape::{active_lanes, moved2, Inactive};
use crate::count::Opcode;
use crate::ctx::{SizedCtx, SveCtx};
use crate::elem::SveElem;
use crate::pred::PReg;
use crate::vreg::{Reg, VReg};

/// The permutes a fixed-length kernel issues, on `N`-byte registers; the
/// free functions of the same names below are these at the maximum
/// capacity.
impl<const N: usize> SizedCtx<'_, N> {
    /// [`svzip1`] on `N`-byte registers.
    #[inline]
    pub fn svzip1<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.ctx.exec(Opcode::Zip1);
        Reg::from_fn::<E>(self.ctx.vl(), |e| {
            if e % 2 == 0 {
                a.lane(e / 2)
            } else {
                b.lane(e / 2)
            }
        })
    }

    /// [`svuzp1`] on `N`-byte registers.
    #[inline]
    pub fn svuzp1<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.ctx.exec(Opcode::Uzp1);
        self.uzp::<E>(a, b, 0)
    }

    /// [`svuzp2`] on `N`-byte registers.
    #[inline]
    pub fn svuzp2<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.ctx.exec(Opcode::Uzp2);
        self.uzp::<E>(a, b, 1)
    }

    /// Concatenate the even (`odd = 0`) or odd (`odd = 1`) lanes of `a`,
    /// then of `b`.
    #[inline]
    fn uzp<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>, odd: usize) -> Reg<N> {
        let half = self.ctx.vl().lanes_of(E::BYTES) / 2;
        Reg::from_fn::<E>(self.ctx.vl(), |e| {
            if e < half {
                a.lane(2 * e + odd)
            } else {
                b.lane(2 * (e - half) + odd)
            }
        })
    }

    /// [`svtrn1`] on `N`-byte registers.
    #[inline]
    pub fn svtrn1<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.ctx.exec(Opcode::Trn1);
        self.trn::<E>(a, b, 0)
    }

    /// [`svtrn2`] on `N`-byte registers.
    #[inline]
    pub fn svtrn2<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.ctx.exec(Opcode::Trn2);
        self.trn::<E>(a, b, 1)
    }

    /// Lane `2k` of the result is `a[2k + odd]`, lane `2k+1` is
    /// `b[2k + odd]`.
    #[inline]
    fn trn<E: SveElem>(&self, a: &Reg<N>, b: &Reg<N>, odd: usize) -> Reg<N> {
        Reg::from_fn::<E>(self.ctx.vl(), |e| {
            let base = (e & !1) + odd;
            if e % 2 == 0 {
                a.lane(base)
            } else {
                b.lane(base)
            }
        })
    }

    /// [`svtbl`] on an `N`-byte register.
    #[inline]
    pub fn svtbl<E: SveElem>(&self, a: &Reg<N>, idx: &[usize]) -> Reg<N> {
        self.ctx.exec(Opcode::Tbl);
        let lanes = self.ctx.vl().lanes_of(E::BYTES);
        Reg::from_fn::<E>(self.ctx.vl(), |e| {
            let i = idx[e];
            if i < lanes {
                a.lane(i)
            } else {
                E::zero()
            }
        })
    }

    /// [`svsel`] on `N`-byte registers.
    #[inline]
    pub fn svsel<E: SveElem>(&self, pg: &PReg, a: &Reg<N>, b: &Reg<N>) -> Reg<N> {
        self.ctx.exec(Opcode::Sel);
        moved2(self.ctx, pg, Inactive::First, b, a, |_: E, x| x)
    }
}

/// `svext` — extract a vector spanning two sources: result lane `e` is
/// `a[e + shift]` while in range, continuing into `b`. The classic
/// rotate-lanes idiom is `svext(v, v, shift)`.
#[inline]
pub fn svext<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg, shift: usize) -> VReg {
    ctx.exec(Opcode::Ext);
    let lanes = ctx.vl().lanes_of(E::BYTES);
    assert!(shift <= lanes, "ext shift beyond vector length");
    VReg::from_fn::<E>(ctx.vl(), |e| {
        let i = e + shift;
        if i < lanes {
            a.lane(i)
        } else {
            b.lane(i - lanes)
        }
    })
}

/// `svrev` — reverse all lanes.
#[inline]
pub fn svrev<E: SveElem>(ctx: &SveCtx, a: &VReg) -> VReg {
    ctx.exec(Opcode::Rev);
    let lanes = ctx.vl().lanes_of(E::BYTES);
    VReg::from_fn::<E>(ctx.vl(), |e| a.lane(lanes - 1 - e))
}

/// `svzip1` — interleave the low halves of two vectors.
#[inline]
pub fn svzip1<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svzip1::<E>(a, b)
}

/// `svzip2` — interleave the high halves of two vectors.
#[inline]
pub fn svzip2<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Zip2);
    let half = ctx.vl().lanes_of(E::BYTES) / 2;
    VReg::from_fn::<E>(ctx.vl(), |e| {
        if e % 2 == 0 {
            a.lane(half + e / 2)
        } else {
            b.lane(half + e / 2)
        }
    })
}

/// `svuzp1` — concatenate even lanes of `a` then `b` (de-interleave).
#[inline]
pub fn svuzp1<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svuzp1::<E>(a, b)
}

/// `svuzp2` — concatenate odd lanes of `a` then `b`.
#[inline]
pub fn svuzp2<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svuzp2::<E>(a, b)
}

/// `svtrn1` — even lanes of both vectors, pairwise transposed: result lane
/// `2k` = `a[2k]`, lane `2k+1` = `b[2k]`.
#[inline]
pub fn svtrn1<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svtrn1::<E>(a, b)
}

/// `svtrn2` — odd-lane counterpart of [`svtrn1`].
#[inline]
pub fn svtrn2<E: SveElem>(ctx: &SveCtx, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svtrn2::<E>(a, b)
}

/// `svtbl` — table lookup: result lane `e` is `a[idx[e]]`, or zero when the
/// index is out of range (hardware behaviour). The general permutation used
/// by Grid's virtual-node boundary shuffles.
#[inline]
pub fn svtbl<E: SveElem>(ctx: &SveCtx, a: &VReg, idx: &[usize]) -> VReg {
    ctx.sized().svtbl::<E>(a, idx)
}

/// `svsel` — lane select: active lanes from `a`, inactive from `b`.
#[inline]
pub fn svsel<E: SveElem>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.sized().svsel::<E>(pg, a, b)
}

/// `svdup_lane` — broadcast lane `i` of `a` to all lanes.
pub fn svdup_lane<E: SveElem>(ctx: &SveCtx, a: &VReg, i: usize) -> VReg {
    ctx.exec(Opcode::DupLane);
    let v: E = a.lane(i);
    VReg::from_fn::<E>(ctx.vl(), |_| v)
}

/// `svsplice` — active lanes of `a` (under `pg`), then leading lanes of `b`.
pub fn svsplice<E: SveElem>(ctx: &SveCtx, pg: &PReg, a: &VReg, b: &VReg) -> VReg {
    ctx.exec(Opcode::Splice);
    let picked = active_lanes::<E, _>(ctx, pg, a).map(|(_, v)| v);
    VReg::from_lanes(ctx.vl(), picked.chain(b.lanes::<E>(ctx.vl())))
}

/// `svcompact` — pack the active lanes of `a` contiguously into the low
/// lanes of the result (inactive upper lanes zeroed). Only `.s`/`.d`
/// element sizes exist in hardware; modelled generically.
pub fn svcompact<E: SveElem>(ctx: &SveCtx, pg: &PReg, a: &VReg) -> VReg {
    ctx.exec(Opcode::Splice);
    VReg::from_lanes(ctx.vl(), active_lanes::<E, _>(ctx, pg, a).map(|(_, v)| v))
}

/// `svclasta` — conditionally extract: the element *after* the last active
/// one (wrapping to the fallback when the predicate is empty or the last
/// active lane is the final lane).
pub fn svclasta<E: SveElem>(ctx: &SveCtx, pg: &PReg, fallback: E, a: &VReg) -> E {
    ctx.exec(Opcode::Sel);
    let lanes = ctx.vl().lanes_of(E::BYTES);
    match active_lanes::<E, _>(ctx, pg, a).last() {
        Some((e, _)) if e + 1 < lanes => a.lane(e + 1),
        _ => fallback,
    }
}

/// `svclastb` — extract the last active element (or the fallback when the
/// predicate is empty).
pub fn svclastb<E: SveElem>(ctx: &SveCtx, pg: &PReg, fallback: E, a: &VReg) -> E {
    ctx.exec(Opcode::Sel);
    active_lanes::<E, _>(ctx, pg, a)
        .last()
        .map_or(fallback, |(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::svwhilelt;
    use crate::vl::VectorLength;

    fn ctx() -> SveCtx {
        SveCtx::new(VectorLength::of(512)) // 8 x f64
    }

    fn iota(ctx: &SveCtx) -> VReg {
        VReg::from_fn::<f64>(ctx.vl(), |i| i as f64)
    }

    fn hund(ctx: &SveCtx) -> VReg {
        VReg::from_fn::<f64>(ctx.vl(), |i| 100.0 + i as f64)
    }

    #[test]
    fn ext_rotates_lanes() {
        let ctx = ctx();
        let a = iota(&ctx);
        let r = svext::<f64>(&ctx, &a, &a, 3);
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![3.0, 4.0, 5.0, 6.0, 7.0, 0.0, 1.0, 2.0]
        );
    }

    #[test]
    fn ext_spans_two_vectors() {
        let ctx = ctx();
        let r = svext::<f64>(&ctx, &iota(&ctx), &hund(&ctx), 6);
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![6.0, 7.0, 100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
        );
    }

    #[test]
    fn rev_reverses() {
        let ctx = ctx();
        let r = svrev::<f64>(&ctx, &iota(&ctx));
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        );
    }

    #[test]
    fn zip_uzp_are_inverses() {
        let ctx = ctx();
        let a = iota(&ctx);
        let b = hund(&ctx);
        let lo = svzip1::<f64>(&ctx, &a, &b);
        let hi = svzip2::<f64>(&ctx, &a, &b);
        assert_eq!(
            lo.to_vec::<f64>(ctx.vl()),
            vec![0.0, 100.0, 1.0, 101.0, 2.0, 102.0, 3.0, 103.0]
        );
        // uzp1/uzp2 of (lo, hi) recover a and b.
        let ra = svuzp1::<f64>(&ctx, &lo, &hi);
        let rb = svuzp2::<f64>(&ctx, &lo, &hi);
        assert!(ra.lanes_eq::<f64>(&a, ctx.vl()));
        assert!(rb.lanes_eq::<f64>(&b, ctx.vl()));
    }

    #[test]
    fn trn_transposes_pairs() {
        let ctx = ctx();
        let r1 = svtrn1::<f64>(&ctx, &iota(&ctx), &hund(&ctx));
        let r2 = svtrn2::<f64>(&ctx, &iota(&ctx), &hund(&ctx));
        assert_eq!(
            r1.to_vec::<f64>(ctx.vl()),
            vec![0.0, 100.0, 2.0, 102.0, 4.0, 104.0, 6.0, 106.0]
        );
        assert_eq!(
            r2.to_vec::<f64>(ctx.vl()),
            vec![1.0, 101.0, 3.0, 103.0, 5.0, 105.0, 7.0, 107.0]
        );
    }

    #[test]
    fn tbl_general_permutation_and_oob_zero() {
        let ctx = ctx();
        let r = svtbl::<f64>(&ctx, &iota(&ctx), &[7, 6, 5, 4, 3, 2, 1, 99]);
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        );
    }

    #[test]
    fn sel_merges_by_predicate() {
        let ctx = ctx();
        let pg = svwhilelt::<f64>(&ctx, 0, 3);
        let r = svsel::<f64>(&ctx, &pg, &iota(&ctx), &hund(&ctx));
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![0.0, 1.0, 2.0, 103.0, 104.0, 105.0, 106.0, 107.0]
        );
    }

    #[test]
    fn dup_lane_broadcasts_one_lane() {
        let ctx = ctx();
        let r = svdup_lane::<f64>(&ctx, &iota(&ctx), 5);
        assert_eq!(r.to_vec::<f64>(ctx.vl()), vec![5.0; 8]);
    }

    #[test]
    fn splice_concatenates() {
        let ctx = ctx();
        let pg = svwhilelt::<f64>(&ctx, 0, 2);
        let r = svsplice::<f64>(&ctx, &pg, &iota(&ctx), &hund(&ctx));
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![0.0, 1.0, 100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
        );
    }

    #[test]
    fn permute_ops_counted_as_permute_class() {
        use crate::count::OpClass;
        let ctx = ctx();
        let a = iota(&ctx);
        let _ = svext::<f64>(&ctx, &a, &a, 1);
        let _ = svrev::<f64>(&ctx, &a);
        let _ = svtbl::<f64>(&ctx, &a, &[0; 8]);
        assert_eq!(ctx.counters().total_class(OpClass::Permute), 3);
    }

    #[test]
    fn compact_packs_active_lanes() {
        let ctx = ctx();
        let mut pg = crate::pred::PReg::none();
        for e in [1usize, 3, 6] {
            pg.set_elem_active::<f64>(e, true);
        }
        let r = svcompact::<f64>(&ctx, &pg, &iota(&ctx));
        assert_eq!(
            r.to_vec::<f64>(ctx.vl()),
            vec![1.0, 3.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn clasta_and_clastb_extract_around_the_last_active() {
        let ctx = ctx();
        let pg = svwhilelt::<f64>(&ctx, 0, 3); // lanes 0..3 active
        let a = iota(&ctx);
        assert_eq!(svclastb::<f64>(&ctx, &pg, -1.0, &a), 2.0);
        assert_eq!(svclasta::<f64>(&ctx, &pg, -1.0, &a), 3.0);
        let empty = svwhilelt::<f64>(&ctx, 5, 5);
        assert_eq!(svclastb::<f64>(&ctx, &empty, -1.0, &a), -1.0);
        assert_eq!(svclasta::<f64>(&ctx, &empty, -1.0, &a), -1.0);
        // Last active lane is the final lane: clasta falls back.
        let full = svwhilelt::<f64>(&ctx, 0, 8);
        assert_eq!(svclasta::<f64>(&ctx, &full, -1.0, &a), -1.0);
    }
}
