//! Property-based tests for the SVE functional model: invariants that must
//! hold for every vector length, predicate and operand values. These are the
//! contracts the Grid port (paper, Section V) relies on.

use proptest::prelude::*;
use sve::intrinsics::*;
use sve::{Reg, SveCtx, SveFloat, VReg, VectorLength, F16};

/// Strategy: any architecturally valid vector length.
fn any_vl() -> impl Strategy<Value = VectorLength> {
    (1usize..=16).prop_map(|k| VectorLength::of(k * 128))
}

/// Strategy: a vector length plus finite f64 lane data covering it.
fn vl_and_lanes() -> impl Strategy<Value = (VectorLength, Vec<f64>, Vec<f64>)> {
    any_vl().prop_flat_map(|vl| {
        let n = vl.lanes64();
        (
            Just(vl),
            proptest::collection::vec(-1.0e6f64..1.0e6, n..=n),
            proptest::collection::vec(-1.0e6f64..1.0e6, n..=n),
        )
    })
}

fn vreg_from(vl: VectorLength, data: &[f64]) -> VReg {
    VReg::from_fn::<f64>(vl, |i| data[i])
}

proptest! {
    /// st1(ld1(x)) == x for any vector length and any slice covering the
    /// vector.
    #[test]
    fn ld1_st1_round_trip((vl, data, _) in vl_and_lanes()) {
        let ctx = SveCtx::new(vl);
        let pg = svptrue::<f64>(&ctx);
        let v = svld1(&ctx, &pg, &data);
        let mut out = vec![0.0; data.len()];
        svst1(&ctx, &pg, &mut out, &v);
        prop_assert_eq!(out, data);
    }

    /// A whilelt predicate never activates more lanes than remain, and a
    /// loop of whilelt steps covers 0..n exactly once.
    #[test]
    fn whilelt_partitions_the_index_space(vl in any_vl(), n in 0u64..10_000) {
        let ctx = SveCtx::new(vl);
        let lanes = vl.lanes64() as u64;
        let mut covered = 0u64;
        let mut i = 0u64;
        while i < n + lanes {
            let pg = svwhilelt::<f64>(&ctx, i, n);
            let active = pg.active_count::<f64>(vl) as u64;
            prop_assert!(active <= lanes);
            prop_assert_eq!(active, n.saturating_sub(i).min(lanes));
            covered += active;
            if active == 0 { break; }
            i += lanes;
        }
        prop_assert_eq!(covered, n);
    }

    /// Structure load/store are inverses: st2(ld2(x)) == x.
    #[test]
    fn ld2_st2_round_trip(vl in any_vl(), seed in any::<u64>()) {
        let ctx = SveCtx::new(vl);
        let pg = svptrue::<f64>(&ctx);
        let n = 2 * vl.lanes64();
        let data: Vec<f64> = (0..n)
            .map(|i| ((seed.wrapping_add(i as u64 * 0x9e37_79b9) % 2048) as f64) - 1024.0)
            .collect();
        let (a, b) = svld2(&ctx, &pg, &data);
        let mut out = vec![0.0; n];
        svst2(&ctx, &pg, &mut out, &a, &b);
        prop_assert_eq!(out, data);
    }

    /// The two-FCMLA idiom equals the scalar complex product on every pair,
    /// for every vector length.
    #[test]
    fn fcmla_pair_is_complex_multiply((vl, xs, ys) in vl_and_lanes()) {
        let ctx = SveCtx::new(vl);
        let pg = svptrue::<f64>(&ctx);
        let x = vreg_from(vl, &xs);
        let y = vreg_from(vl, &ys);
        let zero = svdup::<f64>(&ctx, 0.0);
        let r = fcmla_mul_add::<f64>(&ctx, &pg, &zero, &x, &y);
        for p in 0..vl.lanes64() / 2 {
            let (xr, xi) = (xs[2 * p], xs[2 * p + 1]);
            let (yr, yi) = (ys[2 * p], ys[2 * p + 1]);
            let re = xr * yr - xi * yi;
            let im = xr * yi + xi * yr;
            let scale = re.abs().max(im.abs()).max(1.0);
            prop_assert!((r.lane::<f64>(2 * p) - re).abs() / scale < 1e-12);
            prop_assert!((r.lane::<f64>(2 * p + 1) - im).abs() / scale < 1e-12);
        }
    }

    /// conj(x)*y via FCMLA rotations (0, 270) matches scalar reference.
    #[test]
    fn fcmla_conjugate_matches_reference((vl, xs, ys) in vl_and_lanes()) {
        let ctx = SveCtx::new(vl);
        let pg = svptrue::<f64>(&ctx);
        let x = vreg_from(vl, &xs);
        let y = vreg_from(vl, &ys);
        let zero = svdup::<f64>(&ctx, 0.0);
        let r = fcmla_conj_mul_add::<f64>(&ctx, &pg, &zero, &x, &y);
        for p in 0..vl.lanes64() / 2 {
            let (xr, xi) = (xs[2 * p], -xs[2 * p + 1]);
            let (yr, yi) = (ys[2 * p], ys[2 * p + 1]);
            let re = xr * yr - xi * yi;
            let im = xr * yi + xi * yr;
            let scale = re.abs().max(im.abs()).max(1.0);
            prop_assert!((r.lane::<f64>(2 * p) - re).abs() / scale < 1e-12);
            prop_assert!((r.lane::<f64>(2 * p + 1) - im).abs() / scale < 1e-12);
        }
    }

    /// Predicated arithmetic only writes active lanes (merge form).
    #[test]
    fn merge_predication_is_surgical((vl, xs, ys) in vl_and_lanes(), cut in 0usize..33) {
        let ctx = SveCtx::new(vl);
        let cut = cut.min(vl.lanes64());
        let pg = svwhilelt::<f64>(&ctx, 0, cut as u64);
        let acc = vreg_from(vl, &xs);
        let a = vreg_from(vl, &ys);
        let r = svmla_m::<f64>(&ctx, &pg, &acc, &a, &a);
        for (e, &x) in xs.iter().enumerate().take(vl.lanes64()) {
            if e >= cut {
                prop_assert_eq!(r.lane::<f64>(e), x, "inactive lane {} must merge", e);
            }
        }
    }

    /// zip1/zip2 followed by uzp1/uzp2 is the identity (the de/re-interleave
    /// pair behind precision packing).
    #[test]
    fn zip_uzp_identity((vl, xs, ys) in vl_and_lanes()) {
        let ctx = SveCtx::new(vl);
        let a = vreg_from(vl, &xs);
        let b = vreg_from(vl, &ys);
        let lo = svzip1::<f64>(&ctx, &a, &b);
        let hi = svzip2::<f64>(&ctx, &a, &b);
        let ra = svuzp1::<f64>(&ctx, &lo, &hi);
        let rb = svuzp2::<f64>(&ctx, &lo, &hi);
        prop_assert!(ra.lanes_eq::<f64>(&a, vl));
        prop_assert!(rb.lanes_eq::<f64>(&b, vl));
    }

    /// ext(v, v, k) is a rotation: applying it lanes times returns v.
    #[test]
    fn ext_rotation_has_full_period((vl, xs, _) in vl_and_lanes(), k in 1usize..8) {
        let ctx = SveCtx::new(vl);
        let lanes = vl.lanes64();
        let k = k % lanes.max(1);
        prop_assume!(k != 0);
        let v = vreg_from(vl, &xs);
        let mut r = v;
        // Rotate by k, lanes/gcd(k,lanes) ... simpler: rotate `lanes` times by k
        // equals rotating by k*lanes ≡ 0 (mod lanes).
        for _ in 0..lanes {
            r = svext::<f64>(&ctx, &r, &r, k);
        }
        prop_assert!(r.lanes_eq::<f64>(&v, vl));
    }

    /// rev(rev(v)) == v.
    #[test]
    fn rev_is_involution((vl, xs, _) in vl_and_lanes()) {
        let ctx = SveCtx::new(vl);
        let v = vreg_from(vl, &xs);
        let r = svrev::<f64>(&ctx, &svrev::<f64>(&ctx, &v));
        prop_assert!(r.lanes_eq::<f64>(&v, vl));
    }

    /// addv of a vector is the pairwise tree of its lanes, bit for bit, and
    /// the sequential sum to rounding.
    #[test]
    fn addv_is_the_pairwise_tree((vl, xs, _) in vl_and_lanes()) {
        let ctx = SveCtx::new(vl);
        let pg = svptrue::<f64>(&ctx);
        let v = vreg_from(vl, &xs);
        let got = svaddv::<f64>(&ctx, &pg, &v);
        prop_assert_eq!(got.to_bits(), pairwise(xs.len(), &|e| xs[e]).to_bits());
        let sequential: f64 = xs.iter().sum();
        prop_assert!((got - sequential).abs() <= 1e-9 * sequential.abs().max(1.0));
    }

    /// f64 -> f32 -> f16 -> f32 compression path error stays within the
    /// binary16 epsilon bound for normal-range values.
    #[test]
    fn f16_codec_error_bounded(x in -6.0e4f64..6.0e4) {
        prop_assume!(x.abs() > 6.2e-5); // stay in f16 normal range
        let rel = ((x - f64_through_f16(x)) / x).abs();
        prop_assert!(rel <= 4.9e-4, "x={} rel={}", x, rel);
    }

    /// Executing any predicated op never touches memory out of bounds when
    /// the predicate comes from whilelt over the slice length.
    #[test]
    fn whilelt_guards_short_slices(vl in any_vl(), n in 0usize..64) {
        let ctx = SveCtx::new(vl);
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let pg = svwhilelt::<f64>(&ctx, 0, n as u64);
        let v = svld1(&ctx, &pg, &data); // must not panic
        let mut out = vec![0.0; n];
        svst1(&ctx, &pg, &mut out, &v);
        let m = n.min(vl.lanes64());
        prop_assert_eq!(&out[..m], &data[..m]);
    }

    /// The toolchain-fault model only corrupts partial predicates at its
    /// target vector length — full vectors are immune (why the paper's
    /// fixed-size style, listing IV-D, dodges such bugs).
    #[test]
    fn fault_model_spares_full_vectors(vl in any_vl(), n in 1u64..1000) {
        let ctx = SveCtx::with_fault(vl, sve::ToolchainFault::TailPredicationBug(vl));
        let pg = svwhilelt::<f64>(&ctx, 0, n);
        let lanes = vl.lanes64() as u64;
        if n >= lanes {
            prop_assert!(pg.is_full::<f64>(vl));
        } else {
            // Partial predicate: fault drops exactly one lane.
            prop_assert_eq!(pg.active_count::<f64>(vl) as u64, n - 1);
        }
    }
}

// --- binary16 conversion audit: `F16::from_f64`/`to_f64` must implement
// IEEE round-to-nearest-even with correct NaN/inf/subnormal handling,
// because the qcd-io container and the halo-exchange compression both
// trust it for on-disk / on-wire scalar rounding. ---

/// The finite binary16 values adjacent to `h` (crossing zero if needed).
fn f16_finite_neighbors(h: F16) -> Vec<F16> {
    let bits = h.to_bits();
    let sign = bits & 0x8000;
    let mag = bits & 0x7fff;
    let mut out = Vec::new();
    if mag == 0 {
        // ±0: the neighbors are the smallest subnormals of either sign.
        out.push(F16::from_bits(0x0001));
        out.push(F16::from_bits(0x8001));
    } else {
        out.push(F16::from_bits(sign | (mag - 1)));
        if mag + 1 < 0x7c00 {
            out.push(F16::from_bits(sign | (mag + 1)));
        }
    }
    out
}

proptest! {
    /// Nearest-representable: no finite f16 neighbor of the conversion
    /// result lies strictly closer to the input. This is the whole of
    /// "round to nearest" in one property.
    #[test]
    fn from_f64_picks_the_nearest_representable(x in -7.0e4f64..7.0e4) {
        let h = F16::from_f64(x);
        prop_assume!(!h.is_infinite()); // overflow handled separately
        let hv = h.to_f64();
        let err = (hv - x).abs();
        for n in f16_finite_neighbors(h) {
            let nerr = (n.to_f64() - x).abs();
            prop_assert!(
                err <= nerr,
                "x={} chose {:?} (err {}) over neighbor {:?} (err {})",
                x, h, err, n, nerr
            );
            // And exact ties must land on the even bit pattern.
            if err == nerr && h.to_bits() != n.to_bits() {
                prop_assert_eq!(h.to_bits() & 1, 0, "tie at x={} not to even", x);
            }
        }
    }

    /// Ties-to-even, constructed exactly: a value halfway between two
    /// adjacent normal f16 values rounds to the one with even mantissa.
    #[test]
    fn exact_midpoints_round_to_even(mag in 0x0400u16..0x7bff, neg in any::<bool>()) {
        // Midpoint between consecutive f16 values is exact in f64.
        let sign = if neg { -1.0 } else { 1.0 };
        let lo = F16::from_bits(mag);
        let hi = F16::from_bits(mag + 1);
        let mid = sign * (lo.to_f64() + hi.to_f64()) / 2.0;
        let got = F16::from_f64(mid);
        let want_mag = if mag & 1 == 0 { mag } else { mag + 1 };
        prop_assert_eq!(
            got.to_bits() & 0x7fff, want_mag,
            "midpoint of {:#06x}/{:#06x} (x={})", mag, mag + 1, mid
        );
        prop_assert_eq!(got.is_sign_negative(), neg);
    }

    /// Every f16 bit pattern survives a trip through f64 (NaNs stay NaN).
    #[test]
    fn to_f64_from_f64_is_identity_on_f16(bits in any::<u16>()) {
        let h = F16::from_bits(bits);
        let back = F16::from_f64(h.to_f64());
        if h.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back.to_bits(), bits, "bits {:#06x}", bits);
        }
    }

    /// Subnormal f16 results are still nearest-representable: exercise the
    /// denormalized rounding path with inputs across 2^-26..2^-14.
    #[test]
    fn subnormal_range_rounds_nearest(frac in 0.0f64..1.0, e in -26i32..-13, neg in any::<bool>()) {
        let sign = if neg { -1.0 } else { 1.0 };
        let x = sign * (1.0 + frac) * (2.0f64).powi(e);
        let h = F16::from_f64(x);
        prop_assert!(!h.is_infinite());
        let err = (h.to_f64() - x).abs();
        for n in f16_finite_neighbors(h) {
            prop_assert!(err <= (n.to_f64() - x).abs(), "x={x} h={h:?} n={n:?}");
        }
        // A subnormal ulp is 2^-24; nearest means within half of it.
        prop_assert!(err <= (2.0f64).powi(-25) * 1.0000001 || err <= x.abs() * 4.89e-4);
    }

    /// Large magnitudes: overflow to infinity happens exactly at the
    /// rounding boundary 65520 = midpoint(MAX, 2^16), ties-to-even sending
    /// the midpoint itself up to infinity.
    #[test]
    fn overflow_boundary_is_exact(x in 6.0e4f64..7.0e4, neg in any::<bool>()) {
        let sign = if neg { -1.0 } else { 1.0 };
        let h = F16::from_f64(sign * x);
        prop_assert_eq!(h.is_sign_negative(), neg);
        if x >= 65520.0 {
            prop_assert!(h.is_infinite(), "x={x} must overflow");
        } else if x <= 65519.0 {
            prop_assert!(!h.is_infinite(), "x={x} must stay finite");
            // Anything past the last midpoint below MAX saturates to MAX.
            if x >= 65488.0 {
                prop_assert_eq!(h.to_bits() & 0x7fff, F16::MAX.to_bits());
            }
        }
    }
}

// --- binary16 *arithmetic* audit: the `SveFloat` ops for `F16` widen to
// f32, operate there and narrow. Because f32's 24-bit significand satisfies
// 24 ≥ 2·11 + 2, the intermediate rounding of `add`, `sub`, `mul` and
// `sqrt` is innocuous (the classic double-rounding bound): each must equal
// the correctly rounded binary16 result of the exact real value, bit for
// bit. `mul_add` is f32-accumulate-then-narrow, which is the fused result
// except where the f32 rounding of the sum lands on a binary16 tie. The
// solver's f16 compute tier — and its canonical reductions, which
// accumulate f16 products in f32 — lean on exactly these properties. ---

/// `a·b + c` as [`SveFloat::mul_add`] returns it for `F16`, held to the
/// fused result: equal, unless the f32 sum differs from the exact one *and*
/// sits on the boundary between two binary16 values — the one way the
/// second rounding can undo the first (`elem.rs` pins an instance).
fn f16_mul_add_is_fused_or_tied(a: F16, b: F16, c: F16) -> Result<(), String> {
    let got = a.mul_add(b, c);
    let exact = a.to_f64().mul_add(b.to_f64(), c.to_f64());
    // Rounded once: `from_f64` goes through f32 and would round twice, the
    // very thing under test. Whichever of its answer and that answer's
    // neighbours is nearest wins, the even one on a tie.
    let near = F16::from_f64(exact);
    let mut want = near;
    for h in f16_finite_neighbors(near) {
        let (d_h, d_want) = ((h.to_f64() - exact).abs(), (want.to_f64() - exact).abs());
        if !near.is_infinite() && (d_h < d_want || (d_h == d_want && h.to_bits() & 1 == 0)) {
            want = h;
        }
    }
    if got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()) {
        return Ok(());
    }
    let sum = a.to_f32() * b.to_f32() + c.to_f32();
    let beside = |step: i32| F16::from_f32(f32::from_bits(sum.to_bits().wrapping_add_signed(step)));
    if f64::from(sum) != exact && beside(-1).to_bits() != beside(1).to_bits() {
        return Ok(());
    }
    Err(format!(
        "mul_add({a:?}, {b:?}, {c:?}): got {got:?}, fused {want:?}, and no tie to blame"
    ))
}

/// Strategy: any finite binary16 value, normals and subnormals alike.
fn any_finite_f16() -> impl Strategy<Value = F16> {
    any::<u16>()
        .prop_map(F16::from_bits)
        .prop_filter("finite", |h| !h.is_nan() && !h.is_infinite())
}

/// Strategy: a binary16 value in a moderate range (no overflow in sums).
fn moderate_f16() -> impl Strategy<Value = F16> {
    (-8.0f64..8.0).prop_map(F16::from_f64)
}

proptest! {
    /// add/sub/mul through the f32 leg are *correctly rounded*: the sum or
    /// product of two f16 values is exact in f64, so `from_f64` of it is
    /// the one true RTNE result — and the f32 path must hit it exactly,
    /// including results that land in the subnormal range around 2⁻²⁵.
    #[test]
    fn f16_add_sub_mul_are_correctly_rounded(a in any_finite_f16(), b in any_finite_f16()) {
        let cases = [
            (a.add(b), a.to_f64() + b.to_f64(), "add"),
            (a.sub(b), a.to_f64() - b.to_f64(), "sub"),
            (a.mul(b), a.to_f64() * b.to_f64(), "mul"),
        ];
        for (got, exact, op) in cases {
            let want = F16::from_f64(exact);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "{}({:?}, {:?}): got {:?}, correctly rounded {:?}",
                op, a, b, got, want
            );
        }
    }

    /// `mul_add` is the fused result wherever f32 can hold the sum well
    /// enough: the f16·f16 product is exact in f32, and the one f32
    /// rounding of the subsequent add shifts the final f16 rounding only
    /// from just beside a tie onto it. The reference rounds the *fused* f64
    /// result, itself innocuous at 53 bits.
    #[test]
    fn f16_mul_add_is_fused_except_onto_a_tie(
        a in any_finite_f16(), b in any_finite_f16(), c in any_finite_f16()
    ) {
        let verdict = f16_mul_add_is_fused_or_tied(a, b, c);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The keystone of the ladder's f32-accumulated reductions: the
    /// product of any two finite f16 values is **exact** in f32 (22
    /// significand bits, exponents within ±48 — comfortably inside f32).
    #[test]
    fn f16_products_are_exact_in_f32(a in any_finite_f16(), b in any_finite_f16()) {
        let f32_product = (a.to_f32() * b.to_f32()) as f64;
        prop_assert_eq!(f32_product, a.to_f64() * b.to_f64());
    }

    /// A fused axpy + norm² sweep at binary16 with f32 scalar accumulation
    /// — the exact shape of the inner tier's `cg_update_x_r`-style pass.
    /// Every updated lane must be the fused f16 axpy (or one tie away from
    /// it, as above), and the fixed-order f32 accumulator must track the
    /// exact f64 sum of the rounded lanes to accumulation grain: the
    /// squares themselves are exact in f32, so no double-rounding drift
    /// leaks into the scalar.
    #[test]
    fn fused_axpy_norm2_sweep_has_no_double_rounding_drift(
        a in moderate_f16(),
        lanes in proptest::collection::vec((moderate_f16(), moderate_f16()), 1..64)
    ) {
        let mut acc32 = 0.0f32;
        let mut exact = 0.0f64;
        for &(x, y) in &lanes {
            let h = a.mul_add(x, y);
            let verdict = f16_mul_add_is_fused_or_tied(a, x, y);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            acc32 += h.to_f32() * h.to_f32();
            exact += h.to_f64() * h.to_f64();
        }
        // Only the fixed-order f32 adds round: (n-1) of them, each within
        // eps32 of the running sum, which never exceeds the final sum here
        // (all terms are non-negative).
        let bound = lanes.len() as f64 * f64::from(f32::EPSILON) * exact.max(1.0);
        prop_assert!(
            ((acc32 as f64) - exact).abs() <= bound,
            "f32 accumulation drifted: acc={} exact={}", acc32, exact
        );
    }
}

#[test]
fn the_2pow_minus_25_subnormal_boundary_is_exact() {
    // 2⁻²⁵ is exactly half the smallest f16 subnormal (2⁻²⁴): a tie, and
    // ties-to-even flushes it to (signed) zero…
    let tiny = (2.0f64).powi(-25);
    assert_eq!(F16::from_f64(tiny).to_bits(), 0x0000);
    assert_eq!(F16::from_f64(-tiny).to_bits(), 0x8000);
    // …while anything past the midpoint survives as the smallest
    // subnormal. (The nudge must exceed f32's half-ulp ≈ 6·10⁻⁸: `from_f64`
    // models the hardware's two-step fcvt through f32, and a smaller nudge
    // is legitimately folded back onto the tie by the f32 leg.)
    assert_eq!(F16::from_f64(tiny * (1.0 + 1e-6)).to_bits(), 0x0001);

    // The same boundary reached through *arithmetic*: an exact product on
    // the midpoint must flush via the f32 leg too (f32 holds 2⁻²⁵ exactly,
    // so the tie is preserved, not double-rounded upward)…
    let a = F16::from_f64((2.0f64).powi(-13));
    let b = F16::from_f64((2.0f64).powi(-12));
    assert_eq!(a.mul(b).to_bits(), 0x0000);
    // …and a product one f16-ulp above the tie must round *up* to the
    // smallest subnormal, not collapse to zero.
    let b_up = F16::from_f64((2.0f64).powi(-12) * (1.0 + (2.0f64).powi(-10)));
    assert_eq!(a.mul(b_up).to_bits(), 0x0001);
}

#[test]
fn f16_special_values_convert_exactly() {
    assert!(F16::from_f64(f64::NAN).is_nan());
    assert!(F16::from_f64(f64::NAN).to_f64().is_nan());
    assert_eq!(
        F16::from_f64(f64::INFINITY).to_bits(),
        F16::INFINITY.to_bits()
    );
    assert_eq!(
        F16::from_f64(f64::NEG_INFINITY).to_bits(),
        F16::NEG_INFINITY.to_bits()
    );
    // Signed zeros survive, including the sign of -0.0.
    assert_eq!(F16::from_f64(0.0).to_bits(), 0x0000);
    assert_eq!(F16::from_f64(-0.0).to_bits(), 0x8000);
    assert_eq!(F16::from_f64(-0.0).to_f64().to_bits(), (-0.0f64).to_bits());
    // Values beyond f32 range funnel through the f32 cast to ±inf.
    assert!(F16::from_f64(1.0e308).is_infinite());
    assert!(F16::from_f64(-1.0e308).is_infinite());
    assert!(F16::from_f64(-1.0e308).is_sign_negative());
    // f64 subnormals flush to f16 zero with the sign kept.
    assert_eq!(F16::from_f64(5.0e-324).to_bits(), 0x0000);
    assert_eq!(F16::from_f64(-5.0e-324).to_bits(), 0x8000);
}

// --- differential suite: every intrinsic against a lane-by-lane reference
// written here from `lane` / `set_lane` / `elem_active` only, for every
// swept vector length, element type and predicate shape, compared bit for
// bit (NaN payloads included). The intrinsics decide predication once per
// instruction and run shared lane loops; this is what says those loops
// compute what the per-lane definition of each instruction says. ---

use sve::{Opcode, PReg, Rot, SveElem};

/// Deterministic bit source (xorshift64*).
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Bit patterns worth meeting at width `bytes`: quiet NaN with a payload,
/// signalling NaN, infinities, signed zeros, a subnormal, the largest finite.
fn special_bits(bytes: usize, which: usize) -> u64 {
    let table: [[u64; 8]; 3] = [
        [
            0x7e2a, 0x7d01, 0x7c00, 0xfc00, 0x8000, 0x0000, 0x0003, 0x7bff,
        ],
        [
            0x7fc0_beef,
            0x7f80_0001,
            0x7f80_0000,
            0xff80_0000,
            0x8000_0000,
            0,
            0x0000_0007,
            0x7f7f_ffff,
        ],
        [
            0x7ff8_0000_dead_beef,
            0x7ff0_0000_0000_0001,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
            0x8000_0000_0000_0000,
            0,
            0x0000_0000_0000_0009,
            0x7fef_ffff_ffff_ffff,
        ],
    ];
    table[bytes.trailing_zeros() as usize - 1][which % 8]
}

/// Where the finite lanes of a test operand lie.
#[derive(Clone, Copy, Debug)]
enum Range {
    /// Multiples of 1/64 up to ±31.
    Normal,
    /// Subnormals of either sign (and the zeros): where the f16 tier's
    /// residuals live, and where a conversion is likeliest to be wrong.
    Subnormal,
    /// Any bit pattern below 2 in magnitude, so that a sum over a register
    /// cannot overflow: normals of every exponent and subnormals, mixed.
    Mixed,
}

const RANGES: [Range; 3] = [Range::Normal, Range::Subnormal, Range::Mixed];

/// Operand `which` (0, 1, 2) of a test: finite values of `range` in every
/// lane, and a special bit pattern in one lane of every fourth (re, im) pair
/// — a different pair for each operand, so no lane and no complex pair ever
/// sees two NaN inputs (whose payload choice the compiler is free to make
/// differently in two code paths).
fn operand<E: SveFloat>(vl: VectorLength, range: Range, which: usize, rng: &mut Bits) -> VReg {
    let mut r = VReg::from_fn::<E>(vl, |_| {
        E::from_f64(((rng.next() % 4001) as f64 - 2000.0) / 64.0)
    });
    let width = 8 * E::BYTES as u32;
    let fraction_bits = [10, 23, 52][E::BYTES.trailing_zeros() as usize - 1];
    // Sign and fraction for a subnormal; all but the top exponent bit below 2.
    let keep = match range {
        Range::Normal => 0,
        Range::Subnormal => 1 << (width - 1) | ((1 << fraction_bits) - 1),
        Range::Mixed => !(1u64 << (width - 2)),
    };
    for e in 0..vl.lanes_of(E::BYTES) {
        let lane = e * E::BYTES..(e + 1) * E::BYTES;
        if keep != 0 {
            let bits = (rng.next() & keep).to_le_bytes();
            r.bytes_mut()[lane.clone()].copy_from_slice(&bits[..E::BYTES]);
        }
        let pair = e / 2;
        if pair % 4 == which && e % 2 == (pair / 4) % 2 {
            let bits = special_bits(E::BYTES, pair / 4 + which).to_le_bytes();
            r.bytes_mut()[lane].copy_from_slice(&bits[..E::BYTES]);
        }
    }
    r
}

/// The governing predicates every intrinsic is tried under, for view `E`.
fn predicates<E: SveElem>(vl: VectorLength, rng: &mut Bits) -> Vec<(&'static str, PReg)> {
    let lanes = vl.lanes_of(E::BYTES);
    let mut every_byte = PReg::none();
    for b in 0..vl.bytes() {
        every_byte.set_byte_bit(b, true);
    }
    let (mut even, mut odd, mut random) = (PReg::none(), PReg::none(), PReg::none());
    for e in 0..lanes {
        even.set_elem_active::<E>(e, e % 2 == 0);
        odd.set_elem_active::<E>(e, e % 2 == 1);
    }
    // Random over all 256 bits: between element starts and above VL too.
    for b in 0..sve::VL_MAX_BYTES {
        random.set_byte_bit(b, rng.next() & 1 == 1);
    }
    let mut out = vec![
        ("ptrue", PReg::ptrue::<E>(vl)),
        ("ptrue.b", every_byte),
        ("even", even),
        ("odd", odd),
        ("random", random),
    ];
    for n in [0, 1, lanes / 2, lanes - 1] {
        out.push(("whilelt", PReg::whilelt::<E>(vl, 0, n as u64)));
    }
    out
}

/// Whether `got` and `want`, the little-endian bytes of one float lane each,
/// hold the same value bit for bit. One bit is forgiven: the sign of a NaN,
/// which depends on the instruction the compiler picks (`x - y` or
/// `x + (-y)`, `vfnmadd` or a negation and `vfmadd`) and so differs between
/// two compiled copies of one expression; the payload must still match.
/// NaN is read off the bits — exponent all ones, fraction not zero — since
/// `F16` compares bitwise and `lane != lane` never sees one.
fn same_float_lane(got: &[u8], want: &[u8]) -> bool {
    let (g, w) = (lane_bits(got), lane_bits(want));
    let sign = 1u64 << (8 * got.len() - 1);
    g == w || (is_nan_lane(got) && is_nan_lane(want) && g | sign == w | sign)
}

/// The little-endian bytes of one lane, as an integer.
fn lane_bits(lane: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw[..lane.len()].copy_from_slice(lane);
    u64::from_le_bytes(raw)
}

/// Whether the little-endian bytes of one float lane hold a NaN.
fn is_nan_lane(lane: &[u8]) -> bool {
    let (top_exponent, fraction) = exponent_and_fraction(lane);
    top_exponent && fraction != 0
}

/// Whether the little-endian bytes of one float lane hold a NaN or an
/// infinity.
fn is_non_finite_lane(lane: &[u8]) -> bool {
    exponent_and_fraction(lane).0
}

/// Whether the exponent of a float lane is all ones, and its fraction.
fn exponent_and_fraction(lane: &[u8]) -> (bool, u64) {
    let fraction_bits = match lane.len() {
        2 => 10,
        4 => 23,
        8 => 52,
        n => panic!("no float lane is {n} bytes wide"),
    };
    let magnitude = lane_bits(lane) & ((1 << (8 * lane.len() - 1)) - 1);
    (
        magnitude >> fraction_bits == (1 << (8 * lane.len() - 1 - fraction_bits)) - 1,
        magnitude & ((1 << fraction_bits) - 1),
    )
}

/// `r` with every NaN lane after the first replaced by one: what an ordered
/// fold is tried on. A chain that carries one NaN and meets a second adds
/// two NaNs, and whose payload survives that is the compiler's choice of
/// operand order — different in the intrinsic and in the reference.
fn at_most_one_nan<E: SveFloat>(vl: VectorLength, r: &VReg) -> VReg {
    at_most_one::<E>(vl, r, is_nan_lane)
}

/// `r` with every NaN or infinite lane after the first replaced by one:
/// what the pairwise `faddv` is tried on. Its tree adds `+inf` and `-inf`
/// where the lanes happen to meet, and their sum is a second NaN.
fn at_most_one_non_finite<E: SveFloat>(vl: VectorLength, r: &VReg) -> VReg {
    at_most_one::<E>(vl, r, is_non_finite_lane)
}

/// `r` with every `special` lane after the first replaced by one.
fn at_most_one<E: SveFloat>(vl: VectorLength, r: &VReg, special: fn(&[u8]) -> bool) -> VReg {
    let mut seen = false;
    by_lane(vl, |e| {
        let hit = special(&r.bytes()[e * E::BYTES..(e + 1) * E::BYTES]);
        let keep = !(hit && seen);
        seen |= hit;
        if keep {
            r.lane(e)
        } else {
            E::one()
        }
    })
}

/// Every `width`-byte float lane of `got` equals that of `want` in the
/// sense of [`same_float_lane`].
fn same_float_lanes(got: &[u8], want: &[u8], width: usize) -> bool {
    got.len() == want.len()
        && got
            .chunks_exact(width)
            .zip(want.chunks_exact(width))
            .all(|(g, w)| same_float_lane(g, w))
}

/// Equality of every lane under the float view `E` ([`same_float_lane`]),
/// and zero storage above `vl`.
fn assert_reg<E: SveElem>(what: &str, vl: VectorLength, pred: &str, got: &VReg, want: &VReg) {
    for e in 0..vl.lanes_of(E::BYTES) {
        let lane = e * E::BYTES..(e + 1) * E::BYTES;
        assert!(
            same_float_lane(&got.bytes()[lane.clone()], &want.bytes()[lane]),
            "{what} at {vl} under {pred}, lane {e}:\n got {got:?}\nwant {want:?}"
        );
    }
    assert!(
        got.bytes()[vl.bytes()..].iter().all(|&b| b == 0),
        "{what} at {vl} under {pred}: storage above VL written"
    );
}

/// Reference builder: lane `e` of the result is `f(e)`.
fn by_lane<E: SveElem>(vl: VectorLength, mut f: impl FnMut(usize) -> E) -> VReg {
    let mut r = VReg::zeroed();
    for e in 0..vl.lanes_of(E::BYTES) {
        r.set_lane(e, f(e));
    }
    r
}

fn scalar_reg<E: SveElem>(x: E) -> VReg {
    let mut r = VReg::zeroed();
    r.set_lane(0, x);
    r
}

/// `FADDV` as the architecture writes it: `lanes` padded with `+0.0` to a
/// power of two, then the lower half's sum plus the upper half's.
fn pairwise<E: SveFloat>(lanes: usize, lane: &dyn Fn(usize) -> E) -> E {
    fn half<E: SveFloat>(lo: usize, n: usize, lanes: usize, lane: &dyn Fn(usize) -> E) -> E {
        match n {
            1 if lo < lanes => lane(lo),
            1 => E::zero(),
            _ => half(lo, n / 2, lanes, lane).add(half(lo + n / 2, n / 2, lanes, lane)),
        }
    }
    half(0, lanes.next_power_of_two(), lanes, lane)
}

fn differential_float<E: SveFloat>() {
    let mut rng = Bits(0x9e37_79b9_7f4a_7c15 ^ E::BYTES as u64);
    for (vl, range) in VectorLength::sweep()
        .into_iter()
        .flat_map(|vl| RANGES.map(|range| (vl, range)))
    {
        let ctx = SveCtx::new(vl);
        let lanes = vl.lanes_of(E::BYTES);
        let a = operand::<E>(vl, range, 0, &mut rng);
        let b = operand::<E>(vl, range, 1, &mut rng);
        let c = operand::<E>(vl, range, 2, &mut rng);
        let (al, bl, cl) = (
            |e: usize| a.lane::<E>(e),
            |e: usize| b.lane::<E>(e),
            |e: usize| c.lane::<E>(e),
        );
        let exp = VReg::from_fn::<u64>(vl, |i| (i % 7) as u64);
        let mem: Vec<E> = (0..4 * lanes)
            .map(|i| E::from_f64(0.5 * i as f64 - 3.0))
            .collect();

        for (name, pg) in predicates::<E>(vl, &mut rng) {
            let on = |e: usize| pg.elem_active::<E>(e);
            let check = |what: &str, got: VReg, want: VReg| {
                assert_reg::<E>(&format!("{what} on {range:?}"), vl, name, &got, &want)
            };

            // Predicate queries against their per-lane definitions.
            let n_active = (0..lanes).filter(|&e| on(e)).count();
            assert_eq!(pg.active_count::<E>(vl), n_active, "{vl} {name}");
            assert_eq!(pg.all_active::<E>(vl), n_active == lanes, "{vl} {name}");
            assert_eq!(pg.is_full::<E>(vl), n_active == lanes, "{vl} {name}");
            assert_eq!(pg.is_empty::<E>(vl), n_active == 0, "{vl} {name}");
            assert_eq!(pg.first_active::<E>(vl), (0..lanes).find(|&e| on(e)));
            assert_eq!(svcntp::<E>(&ctx, &pg, &PReg::ptrue::<E>(vl)), n_active);

            // Element-wise arithmetic: `_x` computes every lane, `_z` zeroes
            // and `_m` keeps the first operand in inactive lanes.
            let merge = |f: &dyn Fn(usize) -> E| by_lane(vl, |e| if on(e) { f(e) } else { al(e) });
            check(
                "add_x",
                svadd_x::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| al(e).add(bl(e))),
            );
            check(
                "sub_x",
                svsub_x::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| al(e).sub(bl(e))),
            );
            check(
                "mul_x",
                svmul_x::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| al(e).mul(bl(e))),
            );
            check(
                "max_x",
                svmax_x::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| al(e).max(bl(e))),
            );
            check(
                "min_x",
                svmin_x::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| al(e).min(bl(e))),
            );
            check(
                "neg_x",
                svneg_x::<E>(&ctx, &pg, &a),
                by_lane(vl, |e| al(e).neg()),
            );
            check(
                "abs_x",
                svabs_x::<E>(&ctx, &pg, &a),
                by_lane(vl, |e| al(e).abs()),
            );
            check(
                "sqrt_x",
                svsqrt_x::<E>(&ctx, &pg, &a),
                by_lane(vl, |e| al(e).sqrt()),
            );
            check(
                "add_m",
                svadd_m::<E>(&ctx, &pg, &a, &b),
                merge(&|e| al(e).add(bl(e))),
            );
            check(
                "neg_m",
                svneg_m::<E>(&ctx, &pg, &a),
                merge(&|e| al(e).neg()),
            );
            check(
                "mul_z",
                svmul_z::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| if on(e) { al(e).mul(bl(e)) } else { E::zero() }),
            );
            check(
                "scale_x",
                svscale_x::<E>(&ctx, &pg, &a, &exp),
                merge(&|e| {
                    let k = exp.lane::<u64>(e * E::BYTES / 8) as i32;
                    E::from_f64(al(e).to_f64() * 2.0f64.powi(k))
                }),
            );
            check(
                "sel",
                svsel::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| if on(e) { al(e) } else { bl(e) }),
            );

            // fmla family: inactive lanes keep the accumulator.
            let acc = |f: &dyn Fn(usize) -> E| by_lane(vl, |e| if on(e) { f(e) } else { cl(e) });
            check(
                "mla_m",
                svmla_m::<E>(&ctx, &pg, &c, &a, &b),
                acc(&|e| al(e).mul_add(bl(e), cl(e))),
            );
            check(
                "mls_m",
                svmls_m::<E>(&ctx, &pg, &c, &a, &b),
                acc(&|e| al(e).neg().mul_add(bl(e), cl(e))),
            );
            check(
                "nmls_m",
                svnmls_m::<E>(&ctx, &pg, &c, &a, &b),
                acc(&|e| al(e).mul_add(bl(e), cl(e).neg())),
            );

            // fcmla / fcadd: each lane of a pair has its own predicate bit.
            for rot in [Rot::R0, Rot::R90, Rot::R180, Rot::R270] {
                let want = by_lane(vl, |e| {
                    let (re, im) = (e & !1, e | 1);
                    let (xr, xi, yr, yi) = (al(re), al(im), bl(re), bl(im));
                    let new = match (rot, e % 2) {
                        (Rot::R0, 0) => xr.mul_add(yr, cl(e)),
                        (Rot::R0, _) => xr.mul_add(yi, cl(e)),
                        (Rot::R90, 0) => xi.neg().mul_add(yi, cl(e)),
                        (Rot::R90, _) => xi.mul_add(yr, cl(e)),
                        (Rot::R180, 0) => xr.neg().mul_add(yr, cl(e)),
                        (Rot::R180, _) => xr.neg().mul_add(yi, cl(e)),
                        (Rot::R270, 0) => xi.mul_add(yi, cl(e)),
                        (Rot::R270, _) => xi.neg().mul_add(yr, cl(e)),
                    };
                    if on(e) {
                        new
                    } else {
                        cl(e)
                    }
                });
                check("cmla", svcmla::<E>(&ctx, &pg, &c, &a, &b, rot), want);
            }
            for rot in [Rot::R90, Rot::R270] {
                let want = by_lane(vl, |e| {
                    let other = bl(e ^ 1);
                    let new = match (rot, e % 2) {
                        (Rot::R90, 0) | (Rot::R270, 1) => al(e).sub(other),
                        _ => al(e).add(other),
                    };
                    if on(e) {
                        new
                    } else {
                        al(e)
                    }
                });
                check("cadd", svcadd::<E>(&ctx, &pg, &a, &b, rot), want);
            }
            check(
                "fcmla_mul_add",
                fcmla_mul_add::<E>(&ctx, &pg, &c, &a, &b),
                svcmla::<E>(
                    &ctx,
                    &pg,
                    &svcmla::<E>(&ctx, &pg, &c, &a, &b, Rot::R90),
                    &a,
                    &b,
                    Rot::R0,
                ),
            );
            check(
                "fcmla_conj_mul_add",
                fcmla_conj_mul_add::<E>(&ctx, &pg, &c, &a, &b),
                svcmla::<E>(
                    &ctx,
                    &pg,
                    &svcmla::<E>(&ctx, &pg, &c, &a, &b, Rot::R0),
                    &a,
                    &b,
                    Rot::R270,
                ),
            );

            // The pairwise `faddv`, then the folds over the active lanes in
            // lane order.
            let active = || (0..lanes).filter(|&e| on(e));
            let summed = at_most_one_non_finite::<E>(vl, &a);
            let sl = |e: usize| summed.lane::<E>(e);
            check(
                "addv",
                scalar_reg(svaddv::<E>(&ctx, &pg, &summed)),
                scalar_reg(pairwise(lanes, &|e| if on(e) { sl(e) } else { E::zero() })),
            );
            let folded = at_most_one_nan::<E>(vl, &a);
            let fl = |e: usize| folded.lane::<E>(e);
            check(
                "adda",
                scalar_reg(svadda::<E>(&ctx, &pg, cl(0), &folded)),
                scalar_reg(active().fold(cl(0), |s, e| s.add(fl(e)))),
            );
            let max = active()
                .map(fl)
                .reduce(|m, v| m.max(v))
                .unwrap_or_else(E::zero);
            check(
                "maxv",
                scalar_reg(svmaxv::<E>(&ctx, &pg, &folded)),
                scalar_reg(max),
            );
            let last = active().next_back();
            check(
                "clastb",
                scalar_reg(svclastb::<E>(&ctx, &pg, cl(0), &a)),
                scalar_reg(last.map_or(cl(0), al)),
            );
            let after = last.filter(|&e| e + 1 < lanes).map_or(cl(0), |e| al(e + 1));
            check(
                "clasta",
                scalar_reg(svclasta::<E>(&ctx, &pg, cl(0), &a)),
                scalar_reg(after),
            );
            let picked: Vec<E> = active().map(al).collect();
            check(
                "compact",
                svcompact::<E>(&ctx, &pg, &a),
                by_lane(vl, |e| picked.get(e).copied().unwrap_or_else(E::zero)),
            );
            check(
                "splice",
                svsplice::<E>(&ctx, &pg, &a, &b),
                by_lane(vl, |e| {
                    picked
                        .get(e)
                        .copied()
                        .unwrap_or_else(|| bl(e - picked.len()))
                }),
            );

            // Loads: inactive lanes are zeroed and touch no memory.
            let ld = |stride: usize, k: usize| {
                by_lane(vl, |e| {
                    if on(e) {
                        mem[stride * e + k]
                    } else {
                        E::zero()
                    }
                })
            };
            check("ld1", svld1(&ctx, &pg, &mem[..lanes]), ld(1, 0));
            let (l0, l1) = svld2(&ctx, &pg, &mem[..2 * lanes]);
            check("ld2.0", l0, ld(2, 0));
            check("ld2.1", l1, ld(2, 1));
            let (l0, l1, l2) = svld3(&ctx, &pg, &mem[..3 * lanes]);
            check("ld3.0", l0, ld(3, 0));
            check("ld3.1", l1, ld(3, 1));
            check("ld3.2", l2, ld(3, 2));
            for (k, l) in svld4(&ctx, &pg, &mem).into_iter().enumerate() {
                check("ld4", l, ld(4, k));
            }
            // A slice that ends right after the last active lane is enough.
            let reach = last.map_or(0, |e| e + 1);
            check("ld1 short", svld1(&ctx, &pg, &mem[..reach]), ld(1, 0));

            // Stores: only active lanes touch memory.
            let regs = [a, b, c, a];
            let stored = |stride: usize| -> Vec<E> {
                let mut want = mem.clone();
                for e in active() {
                    for k in 0..stride {
                        want[stride * e + k] = regs[k].lane(e);
                    }
                }
                want
            };
            let bits = |v: &[E]| -> Vec<u8> {
                let mut r = VReg::zeroed();
                v.iter()
                    .flat_map(|&x| {
                        r.set_lane(0, x);
                        r.bytes()[..E::BYTES].to_vec()
                    })
                    .collect()
            };
            let mut dst = mem.clone();
            svst1(&ctx, &pg, &mut dst[..reach], &a);
            assert_eq!(bits(&dst), bits(&stored(1)), "st1 {vl} {name}");
            let mut dst = mem.clone();
            svst2(&ctx, &pg, &mut dst[..2 * lanes], &a, &b);
            assert_eq!(bits(&dst), bits(&stored(2)), "st2 {vl} {name}");
            let mut dst = mem.clone();
            svst3(&ctx, &pg, &mut dst[..3 * lanes], &a, &b, &c);
            assert_eq!(bits(&dst), bits(&stored(3)), "st3 {vl} {name}");
            let mut dst = mem.clone();
            svst4(&ctx, &pg, &mut dst, &regs);
            assert_eq!(bits(&dst), bits(&stored(4)), "st4 {vl} {name}");

            // Gather / scatter through a reversing index vector: 64-bit
            // index lanes for `.d`, 32-bit ones (shared by two `.h` lanes)
            // otherwise.
            let idx = if E::BYTES == 8 {
                VReg::from_fn::<u64>(vl, |i| (lanes - 1 - i) as u64)
            } else {
                VReg::from_fn::<i32>(vl, |i| (lanes - 1 - i) as i32)
            };
            let ix = |e: usize| lanes - 1 - e * E::BYTES.min(4) / 4;
            check(
                "gather",
                svld1_gather::<E>(&ctx, &pg, &mem[..lanes], &idx),
                by_lane(vl, |e| if on(e) { mem[ix(e)] } else { E::zero() }),
            );
            let mut dst = mem[..lanes].to_vec();
            svst1_scatter::<E>(&ctx, &pg, &mut dst, &idx, &a);
            let mut want = mem[..lanes].to_vec();
            for e in active() {
                want[ix(e)] = al(e);
            }
            assert_eq!(bits(&dst), bits(&want), "scatter {vl} {name}");

            // Out of bounds: an active lane beyond the slice panics, with
            // the index of the first such lane in the message.
            if let Some(first_oob) = active().find(|&e| e >= lanes / 2) {
                let short = &mem[..lanes / 2];
                let msg = panic_message(|| {
                    let _ = svld1(&ctx, &pg, short);
                });
                let idx = if n_active == lanes {
                    lanes / 2
                } else {
                    first_oob
                };
                let want = format!(
                    "sve: active lane reads out of bounds (index {idx}, slice len {})",
                    lanes / 2
                );
                assert_eq!(msg, want, "{vl} {name}");
                let mut dst = short.to_vec();
                let msg = panic_message(|| svst1(&ctx, &pg, &mut dst, &a));
                let want = format!(
                    "sve: active lane writes out of bounds (index {idx}, slice len {})",
                    lanes / 2
                );
                assert_eq!(msg, want, "{vl} {name}");
                let mut dst = mem[..lanes].to_vec();
                let msg = panic_message(|| svst2(&ctx, &pg, &mut dst, &a, &b));
                assert!(
                    msg.starts_with(&format!(
                        "sve: active lane writes out of bounds (record {idx}, slice len {lanes}"
                    )),
                    "{vl} {name}: {msg}"
                );
            }
        }

        // Unpredicated permutes and broadcasts.
        let check = |what: &str, got: VReg, want: VReg| assert_reg::<E>(what, vl, "-", &got, &want);
        let half = lanes / 2;
        check("dup", svdup::<E>(&ctx, cl(1)), by_lane(vl, |_| cl(1)));
        check(
            "dup_lane",
            svdup_lane::<E>(&ctx, &a, lanes - 1),
            by_lane(vl, |_| al(lanes - 1)),
        );
        check("movprfx", movprfx(&ctx, &a), a);
        check("movz", movz(&ctx, &a), a);
        check(
            "rev",
            svrev::<E>(&ctx, &a),
            by_lane(vl, |e| al(lanes - 1 - e)),
        );
        for shift in [0, 1, half, lanes] {
            let want = by_lane(vl, |e| {
                if e + shift < lanes {
                    al(e + shift)
                } else {
                    bl(e + shift - lanes)
                }
            });
            check("ext", svext::<E>(&ctx, &a, &b, shift), want);
        }
        let pick = |e: usize, x: E, y: E| if e.is_multiple_of(2) { x } else { y };
        check(
            "zip1",
            svzip1::<E>(&ctx, &a, &b),
            by_lane(vl, |e| pick(e, al(e / 2), bl(e / 2))),
        );
        check(
            "zip2",
            svzip2::<E>(&ctx, &a, &b),
            by_lane(vl, |e| pick(e, al(half + e / 2), bl(half + e / 2))),
        );
        check(
            "uzp1",
            svuzp1::<E>(&ctx, &a, &b),
            by_lane(vl, |e| {
                if e < half {
                    al(2 * e)
                } else {
                    bl(2 * (e - half))
                }
            }),
        );
        check(
            "uzp2",
            svuzp2::<E>(&ctx, &a, &b),
            by_lane(vl, |e| {
                if e < half {
                    al(2 * e + 1)
                } else {
                    bl(2 * (e - half) + 1)
                }
            }),
        );
        check(
            "trn1",
            svtrn1::<E>(&ctx, &a, &b),
            by_lane(vl, |e| pick(e, al(e & !1), bl(e & !1))),
        );
        check(
            "trn2",
            svtrn2::<E>(&ctx, &a, &b),
            by_lane(vl, |e| pick(e, al(e | 1), bl(e | 1))),
        );
        let table: Vec<usize> = (0..lanes)
            .map(|e| {
                if e % 5 == 4 {
                    lanes + e
                } else {
                    (7 * e + 3) % lanes
                }
            })
            .collect();
        check(
            "tbl",
            svtbl::<E>(&ctx, &a, &table),
            by_lane(vl, |e| {
                if table[e] < lanes {
                    al(table[e])
                } else {
                    E::zero()
                }
            }),
        );
        assert_eq!(svcnt::<E>(&ctx), lanes);
    }
}

fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn every_float_intrinsic_matches_its_per_lane_definition_f64() {
    differential_float::<f64>();
}

#[test]
fn every_float_intrinsic_matches_its_per_lane_definition_f32() {
    differential_float::<f32>();
}

#[test]
fn every_float_intrinsic_matches_its_per_lane_definition_f16() {
    differential_float::<F16>();
}

/// `fcvt` works inside 64-bit (f64 <-> f32) or 32-bit (f32 <-> f16)
/// containers, governed by the container's predicate bit; inactive
/// containers are zeroed.
#[test]
fn conversions_match_their_per_container_definition() {
    let mut rng = Bits(0xc0ff_ee00_dead_beef);
    for (vl, range) in VectorLength::sweep()
        .into_iter()
        .flat_map(|vl| RANGES.map(|range| (vl, range)))
    {
        let ctx = SveCtx::new(vl);
        let wide = operand::<f64>(vl, range, 0, &mut rng);
        let single = operand::<f32>(vl, range, 1, &mut rng);
        let half = operand::<F16>(vl, range, 2, &mut rng);
        for (name, pg) in predicates::<f64>(vl, &mut rng) {
            let on = |e: usize| pg.elem_active::<f64>(e);
            let mut want = VReg::zeroed();
            let mut back = VReg::zeroed();
            for e in (0..vl.lanes64()).filter(|&e| on(e)) {
                want.set_lane::<f32>(2 * e, wide.lane::<f64>(e) as f32);
                back.set_lane::<f64>(e, single.lane::<f32>(2 * e) as f64);
            }
            assert_reg::<f32>(
                "cvt_f32_f64",
                vl,
                name,
                &svcvt_f32_f64(&ctx, &pg, &wide),
                &want,
            );
            assert_reg::<f64>(
                "cvt_f64_f32",
                vl,
                name,
                &svcvt_f64_f32(&ctx, &pg, &single),
                &back,
            );
        }
        for (name, pg) in predicates::<f32>(vl, &mut rng) {
            let on = |e: usize| pg.elem_active::<f32>(e);
            let mut want = VReg::zeroed();
            let mut back = VReg::zeroed();
            for e in (0..vl.lanes32()).filter(|&e| on(e)) {
                want.set_lane::<F16>(2 * e, F16::from_f32(single.lane::<f32>(e)));
                back.set_lane::<f32>(e, half.lane::<F16>(2 * e).to_f32());
            }
            assert_reg::<F16>(
                "cvt_f16_f32",
                vl,
                name,
                &svcvt_f16_f32(&ctx, &pg, &single),
                &want,
            );
            assert_reg::<f32>(
                "cvt_f32_f16",
                vl,
                name,
                &svcvt_f32_f16(&ctx, &pg, &half),
                &back,
            );
        }
        // The pack / unpack helpers are the documented compositions.
        let pg = PReg::ptrue::<f64>(vl);
        let (a, b) = (
            operand::<f64>(vl, range, 0, &mut rng),
            operand::<f64>(vl, range, 1, &mut rng),
        );
        let packed = cvt_pack_f64_to_f32(&ctx, &pg, &a, &b);
        let want = svuzp1::<f32>(
            &ctx,
            &svcvt_f32_f64(&ctx, &pg, &a),
            &svcvt_f32_f64(&ctx, &pg, &b),
        );
        assert_reg::<f32>("pack", vl, "ptrue", &packed, &want);
        let (lo, hi) = cvt_unpack_f32_to_f64(&ctx, &pg, &packed);
        assert_reg::<f64>(
            "unpack.lo",
            vl,
            "ptrue",
            &lo,
            &svcvt_f64_f32(&ctx, &pg, &svzip1::<f32>(&ctx, &packed, &packed)),
        );
        assert_reg::<f64>(
            "unpack.hi",
            vl,
            "ptrue",
            &hi,
            &svcvt_f64_f32(&ctx, &pg, &svzip2::<f32>(&ctx, &packed, &packed)),
        );
    }
}

/// Predicate construction and logic against bit-by-bit definitions, and the
/// opcode each intrinsic of this file's suites retires.
#[test]
fn predicate_intrinsics_match_their_per_element_definition() {
    let mut rng = Bits(0x1234_5678_9abc_def1);
    for vl in VectorLength::sweep() {
        let ctx = SveCtx::new(vl);
        let lanes = vl.lanes64();
        let by_elem = |f: &dyn Fn(usize) -> bool| {
            let mut p = PReg::none();
            for e in 0..lanes {
                p.set_elem_active::<f64>(e, f(e));
            }
            p
        };
        assert_eq!(svptrue::<f64>(&ctx), by_elem(&|_| true));
        assert_eq!(svpfalse(&ctx), PReg::none());
        for (base, bound) in [
            (0, 0),
            (0, 1),
            (3, 5),
            (0, 1000),
            (u64::MAX - 1, u64::MAX),
            (9, 2),
        ] {
            let want = by_elem(&|e| base.checked_add(e as u64).is_some_and(|i| i < bound));
            assert_eq!(
                svwhilelt::<f64>(&ctx, base, bound),
                want,
                "{vl} whilelt({base}, {bound})"
            );
            let (p, flags) = svwhilelt_with_flags::<f64>(&ctx, base, bound);
            assert_eq!(p, want);
            assert_eq!(flags.n, want.elem_active::<f64>(0));
            assert_eq!(flags.z, want.is_empty::<f64>(vl));
        }
        let preds = predicates::<f64>(vl, &mut rng);
        for (_, g) in &preds {
            for (_, p) in &preds {
                let both = (0..lanes)
                    .filter(|&e| g.elem_active::<f64>(e) && p.elem_active::<f64>(e))
                    .count();
                assert_eq!(svcntp::<f64>(&ctx, g, p), both);
                for b in 0..vl.bytes() {
                    let (gb, pb) = (g.byte_bit(b), p.byte_bit(b));
                    assert_eq!(svand_pred_z(&ctx, g, p, p).byte_bit(b), gb && pb);
                    assert_eq!(
                        svorr_pred_z(&ctx, g, p, &PReg::none()).byte_bit(b),
                        gb && pb
                    );
                }
            }
        }
        svprf(&ctx);
        assert_eq!(ctx.counters().get(Opcode::Prf), 1);
        assert_eq!(
            svindex(&ctx, 5, 3).to_vec::<u64>(vl),
            (0..lanes as u64).map(|i| 5 + 3 * i).collect::<Vec<_>>()
        );
    }
}

/// The little-endian bytes of `v`, for bitwise comparison.
fn bits<E: SveElem>(v: &[E]) -> Vec<u8> {
    let mut r = VReg::zeroed();
    v.iter()
        .flat_map(|&x| {
            r.set_lane(0, x);
            r.bytes()[..E::BYTES].to_vec()
        })
        .collect()
}

/// The first `N` bytes of a maximum-capacity register, as an `N`-byte one.
fn narrow<const N: usize>(r: &VReg) -> Reg<N> {
    let mut out = Reg::<N>::zeroed();
    out.bytes_mut().copy_from_slice(&r.bytes()[..N]);
    out
}

/// Every intrinsic that has a sized form, on `N`-byte registers at vector
/// length `vl`, against the `VReg` form on the same operands under a second
/// context: the bytes are the first `N` of the `VReg` result and both
/// contexts retired the same opcodes.
fn sized_forms_match<E: SveFloat, const N: usize>(vl: VectorLength, range: Range) {
    let lanes = vl.lanes_of(E::BYTES);
    let mut rng = Bits(0x51_7ed0 ^ (N * vl.bytes() * E::BYTES) as u64);
    let [a, b, c] = [0, 1, 2].map(|k| operand::<E>(vl, range, k, &mut rng));
    let [sa, sb, sc] = [&a, &b, &c].map(narrow::<N>);
    let mem: Vec<E> = (0..lanes)
        .map(|i| E::from_f64(0.25 * i as f64 - 1.0))
        .collect();
    // A table with in-range, repeated and out-of-range indices.
    let tbl: Vec<usize> = (0..lanes).map(|e| (5 * e + 3) % (lanes + 2)).collect();
    let x = a.lane::<E>(1);
    for (name, pg) in predicates::<E>(vl, &mut rng) {
        let (wide, fixed) = (SveCtx::new(vl), SveCtx::new(vl));
        let sz = fixed.sized::<N>();
        let same_counts = |what: &str| {
            assert_eq!(
                fixed.counters().snapshot(),
                wide.counters().snapshot(),
                "{what} .{} at {vl} under {name}: opcode counts",
                E::SUFFIX
            );
        };
        let same = |what: &str, got: Reg<N>, want: VReg| {
            assert!(
                same_float_lanes(&got.bytes()[..], &want.bytes()[..N], E::BYTES),
                "{what} .{} on {range:?} at {vl} under {name}:\n got {got:?}\nwant {want:?}",
                E::SUFFIX
            );
            same_counts(what);
        };
        same("ld1", sz.svld1(&pg, &mem), svld1(&wide, &pg, &mem));
        let (mut got, mut want) = (mem.clone(), mem.clone());
        sz.svst1(&pg, &mut got, &sa);
        svst1(&wide, &pg, &mut want, &a);
        assert_eq!(bits(&got), bits(&want), "st1 at {vl} under {name}");
        same_counts("st1");
        same("dup", sz.svdup(x), svdup(&wide, x));
        same(
            "add_x",
            sz.svadd_x::<E>(&pg, &sa, &sb),
            svadd_x::<E>(&wide, &pg, &a, &b),
        );
        same(
            "sub_x",
            sz.svsub_x::<E>(&pg, &sa, &sb),
            svsub_x::<E>(&wide, &pg, &a, &b),
        );
        same(
            "mul_x",
            sz.svmul_x::<E>(&pg, &sa, &sb),
            svmul_x::<E>(&wide, &pg, &a, &b),
        );
        same(
            "neg_x",
            sz.svneg_x::<E>(&pg, &sa),
            svneg_x::<E>(&wide, &pg, &a),
        );
        same(
            "neg_m",
            sz.svneg_m::<E>(&pg, &sa),
            svneg_m::<E>(&wide, &pg, &a),
        );
        same(
            "mla_m",
            sz.svmla_m::<E>(&pg, &sc, &sa, &sb),
            svmla_m::<E>(&wide, &pg, &c, &a, &b),
        );
        same(
            "nmls_m",
            sz.svnmls_m::<E>(&pg, &sc, &sa, &sb),
            svnmls_m::<E>(&wide, &pg, &c, &a, &b),
        );
        same("movprfx", sz.movprfx(&sa), movprfx(&wide, &a));
        same("zip1", sz.svzip1::<E>(&sa, &sb), svzip1::<E>(&wide, &a, &b));
        same("uzp1", sz.svuzp1::<E>(&sa, &sb), svuzp1::<E>(&wide, &a, &b));
        same("uzp2", sz.svuzp2::<E>(&sa, &sb), svuzp2::<E>(&wide, &a, &b));
        same("trn1", sz.svtrn1::<E>(&sa, &sb), svtrn1::<E>(&wide, &a, &b));
        same("trn2", sz.svtrn2::<E>(&sa, &sb), svtrn2::<E>(&wide, &a, &b));
        same("tbl", sz.svtbl::<E>(&sa, &tbl), svtbl::<E>(&wide, &a, &tbl));
        same(
            "sel",
            sz.svsel::<E>(&pg, &sa, &sb),
            svsel::<E>(&wide, &pg, &a, &b),
        );
        for rot in [Rot::R0, Rot::R90, Rot::R180, Rot::R270] {
            same(
                "cmla",
                sz.svcmla::<E>(&pg, &sc, &sa, &sb, rot),
                svcmla::<E>(&wide, &pg, &c, &a, &b, rot),
            );
        }
        for rot in [Rot::R90, Rot::R270] {
            same(
                "cadd",
                sz.svcadd::<E>(&pg, &sa, &sb, rot),
                svcadd::<E>(&wide, &pg, &a, &b, rot),
            );
        }
        same(
            "fcmla_mul_add",
            sz.fcmla_mul_add::<E>(&pg, &sc, &sa, &sb),
            fcmla_mul_add::<E>(&wide, &pg, &c, &a, &b),
        );
        same(
            "fcmla_conj_mul_add",
            sz.fcmla_conj_mul_add::<E>(&pg, &sc, &sa, &sb),
            fcmla_conj_mul_add::<E>(&wide, &pg, &c, &a, &b),
        );
        let summed = at_most_one_non_finite::<E>(vl, &a);
        let (got, want) = (
            sz.svaddv::<E>(&pg, &narrow(&summed)),
            svaddv::<E>(&wide, &pg, &summed),
        );
        assert!(
            same_float_lane(&bits(&[got]), &bits(&[want])),
            "addv .{} at {vl} under {name}: {got:?} vs {want:?}",
            E::SUFFIX
        );
        same_counts("addv");
    }
}

/// Every swept vector length in every register capacity that holds it.
fn sized_forms_match_at_every_length<E: SveFloat>() {
    for (vl, range) in VectorLength::sweep()
        .into_iter()
        .flat_map(|vl| RANGES.map(|range| (vl, range)))
    {
        if vl.bytes() <= 64 {
            sized_forms_match::<E, 64>(vl, range);
        }
        if vl.bytes() <= 128 {
            sized_forms_match::<E, 128>(vl, range);
        }
        sized_forms_match::<E, 256>(vl, range);
    }
}

#[test]
fn sized_forms_equal_the_vreg_forms_f64() {
    sized_forms_match_at_every_length::<f64>();
}

#[test]
fn sized_forms_equal_the_vreg_forms_f32() {
    sized_forms_match_at_every_length::<f32>();
}

#[test]
fn sized_forms_equal_the_vreg_forms_f16() {
    sized_forms_match_at_every_length::<F16>();
}

/// A register shorter than the context's vector cannot hold an instruction's
/// result; the panic names both sizes.
#[test]
#[should_panic(expected = "a 64-byte register cannot hold a VL1024 vector (128 bytes)")]
fn a_register_shorter_than_the_vector_panics() {
    let ctx = SveCtx::new(VectorLength::of(1024));
    let a = Reg::<64>::zeroed();
    let _ = ctx
        .sized()
        .svadd_x::<f64>(&PReg::ptrue::<f64>(ctx.vl()), &a, &a);
}

/// A shorter vector uses a prefix of a longer register, like `VReg` does.
#[test]
fn a_register_longer_than_the_vector_holds_a_prefix() {
    let ctx = SveCtx::new(VectorLength::of(128));
    let pg = PReg::ptrue::<f64>(ctx.vl());
    let a = ctx.sized::<64>().svdup(1.5f64);
    let sum = ctx.sized().svadd_x::<f64>(&pg, &a, &a);
    assert_eq!(sum.to_vec::<f64>(ctx.vl()), vec![3.0, 3.0]);
    assert!(sum.bytes()[16..].iter().all(|&b| b == 0));
}
