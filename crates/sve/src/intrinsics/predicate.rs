//! Predicate-construction and element-count intrinsics.

use crate::count::Opcode;
use crate::ctx::SveCtx;
use crate::elem::SveElem;
use crate::pred::{PReg, PredFlags};

/// `svptrue_b{8,16,32,64}` — all elements of view `E` active.
#[inline]
pub fn svptrue<E: SveElem>(ctx: &SveCtx) -> PReg {
    ctx.exec(Opcode::Ptrue);
    PReg::ptrue::<E>(ctx.vl())
}

/// `svpfalse` — no elements active.
pub fn svpfalse(ctx: &SveCtx) -> PReg {
    ctx.exec(Opcode::Ptrue);
    PReg::none()
}

/// `svwhilelt_b{…}(base, bound)` — element `e` active iff `base + e <
/// bound`. This is the loop predicate of the paper's VLA listings; it is
/// also where the optional [`crate::ToolchainFault`] distorts results.
pub fn svwhilelt<E: SveElem>(ctx: &SveCtx, base: u64, bound: u64) -> PReg {
    ctx.exec(Opcode::Whilelo);
    let p = PReg::whilelt::<E>(ctx.vl(), base, bound);
    ctx.distort_whilelt::<E>(p)
}

/// `svwhilelt` plus the NZCV flags the hardware instruction sets; `flags.n`
/// is the `b.mi` "continue looping" condition of listing IV-A.
pub fn svwhilelt_with_flags<E: SveElem>(ctx: &SveCtx, base: u64, bound: u64) -> (PReg, PredFlags) {
    let p = svwhilelt::<E>(ctx, base, bound);
    let g = PReg::ptrue::<E>(ctx.vl());
    let flags = p.flags::<E>(&g, ctx.vl());
    (p, flags)
}

/// `svcntb/h/w/d` — number of elements of view `E` per vector. Listing IV-C
/// uses `svcntd()` as the loop stride.
pub fn svcnt<E: SveElem>(ctx: &SveCtx) -> usize {
    ctx.exec(Opcode::Cnt);
    ctx.vl().lanes_of(E::BYTES)
}

/// `svcntp` — number of active elements of `p` (within governing `g`).
pub fn svcntp<E: SveElem>(ctx: &SveCtx, g: &PReg, p: &PReg) -> usize {
    ctx.exec(Opcode::Cntp);
    g.and(p).active_count::<E>(ctx.vl())
}

/// `svbrkn` — propagate break: result is `pm` if the last active element of
/// `pn` under `g` is true, else all-false; also returns the flags the `s`
/// form sets (listing IV-A line 11 is `brkns`).
pub fn svbrkn_s(ctx: &SveCtx, g: &PReg, pn: &PReg, pm: &PReg) -> (PReg, PredFlags) {
    ctx.exec(Opcode::Brkns);
    let out = PReg::brkn(g, pn, pm, ctx.vl());
    let flags = out.flags::<u8_elem::U8>(g, ctx.vl());
    (out, flags)
}

/// `svand_z` — predicate AND under governing predicate.
pub fn svand_pred_z(ctx: &SveCtx, g: &PReg, a: &PReg, b: &PReg) -> PReg {
    ctx.exec(Opcode::PredLogic);
    a.and(b).and(g)
}

/// `svorr_z` — predicate OR under governing predicate.
pub fn svorr_pred_z(ctx: &SveCtx, g: &PReg, a: &PReg, b: &PReg) -> PReg {
    ctx.exec(Opcode::PredLogic);
    a.or(b).and(g)
}

/// Byte-granule element stand-in so `brkns` can compute `.b`-view flags.
mod u8_elem {
    use crate::elem::SveElem;

    #[derive(Clone, Copy, PartialEq, Debug)]
    pub struct U8(pub u8);

    impl SveElem for U8 {
        const BYTES: usize = 1;
        const SUFFIX: char = 'b';

        fn zero() -> Self {
            U8(0)
        }

        #[inline]
        fn write_le(self, dst: &mut [u8]) {
            dst[0] = self.0;
        }

        #[inline]
        fn read_le(src: &[u8]) -> Self {
            U8(src[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vl::VectorLength;

    fn ctx512() -> SveCtx {
        SveCtx::new(VectorLength::of(512))
    }

    #[test]
    fn ptrue_and_cnt() {
        let ctx = ctx512();
        let pg = svptrue::<f64>(&ctx);
        assert!(pg.is_full::<f64>(ctx.vl()));
        assert_eq!(svcnt::<f64>(&ctx), 8);
        assert_eq!(svcnt::<f32>(&ctx), 16);
    }

    #[test]
    fn whilelt_flags_match_loop_semantics() {
        let ctx = ctx512();
        let (_, f) = svwhilelt_with_flags::<f64>(&ctx, 0, 20);
        assert!(f.n && !f.z);
        let (_, f) = svwhilelt_with_flags::<f64>(&ctx, 24, 20);
        assert!(!f.n && f.z);
    }

    #[test]
    fn cntp_counts_intersection() {
        let ctx = ctx512();
        let g = svptrue::<f64>(&ctx);
        let p = svwhilelt::<f64>(&ctx, 0, 5);
        assert_eq!(svcntp::<f64>(&ctx, &g, &p), 5);
        let h = svwhilelt::<f64>(&ctx, 0, 3);
        assert_eq!(svcntp::<f64>(&ctx, &h, &p), 3);
    }

    #[test]
    fn brkn_sequences_vla_iterations() {
        // Reproduce the predicate dance of listing IV-A for n = 10 at
        // VL512 (8 d-lanes): iteration 0 full, iteration 1 partial (2),
        // then loop exit.
        let ctx = ctx512();
        let p0 = svptrue::<f64>(&ctx);
        let mut p1 = svwhilelt::<f64>(&ctx, 0, 10);
        assert_eq!(p1.active_count::<f64>(ctx.vl()), 8);
        let p2 = svwhilelt::<f64>(&ctx, 8, 10);
        let (next, flags) = svbrkn_s(&ctx, &p0, &p1, &p2);
        assert!(flags.n, "b.mi must take the branch: more work remains");
        p1 = next;
        assert_eq!(p1.active_count::<f64>(ctx.vl()), 2);
        let p2 = svwhilelt::<f64>(&ctx, 16, 10);
        let (_, flags) = svbrkn_s(&ctx, &p0, &p1, &p2);
        assert!(!flags.n, "loop must exit");
    }

    #[test]
    fn predicate_logic() {
        let ctx = ctx512();
        let g = svptrue::<f64>(&ctx);
        let a = svwhilelt::<f64>(&ctx, 0, 6);
        let b = svwhilelt::<f64>(&ctx, 0, 3);
        assert_eq!(
            svand_pred_z(&ctx, &g, &a, &b).active_count::<f64>(ctx.vl()),
            3
        );
        assert_eq!(
            svorr_pred_z(&ctx, &g, &a, &b).active_count::<f64>(ctx.vl()),
            6
        );
    }

    #[test]
    fn intrinsics_are_counted() {
        let ctx = ctx512();
        let _ = svptrue::<f64>(&ctx);
        let _ = svwhilelt::<f64>(&ctx, 0, 4);
        let _ = svcnt::<f64>(&ctx);
        assert_eq!(ctx.counters().get(Opcode::Ptrue), 1);
        assert_eq!(ctx.counters().get(Opcode::Whilelo), 1);
        assert_eq!(ctx.counters().get(Opcode::Cnt), 1);
    }
}
