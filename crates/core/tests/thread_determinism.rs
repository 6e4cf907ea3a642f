//! Thread-count and vector-length determinism of the field reductions.
//!
//! Every reduction sums one value per site in global lexicographic order
//! (`grid::reduce`), so `inner`, `norm2`, the fused `*_norm2` sweeps, the CG
//! update and the curvature fused into `mdag_m_into_dot` produce the same
//! bits, and write the same fields, whether they run on 1, 2 or 8 workers
//! and at every vector length — at f64, f32 and binary16 — and every fused
//! form equals the standalone sweeps it replaces: the property that makes
//! checkpoints, residual histories and CI logs reproducible across machines.
//!
//! `rayon::set_num_threads` mutates process-global state, so this file is a
//! single `#[test]` in its own integration-test binary.

use grid::field::FermionKind;
use grid::krylov::Vector;
use grid::prelude::*;
use grid::{Field, FieldKind};
use sve::{SveFloat, F16};

/// Every reduction of two random fields at `bits`, and every field a fused
/// sweep writes (read in global lexicographic order), as bits, after
/// checking each fused form against its standalone sweeps at that vector
/// length.
fn sample<E: SveFloat>(bits: usize) -> Vec<u64> {
    let g = Grid::<E>::new([4, 4, 4, 8], VectorLength::of(bits), SimdBackend::Fcmla);
    let x = Field::<FermionKind, E>::random(g.clone(), 41);
    let y = Field::<FermionKind, E>::random(g.clone(), 42);
    let ip = x.inner(&y);
    let mut out = vec![ip.re.to_bits(), ip.im.to_bits(), x.norm2().to_bits()];
    let mut same =
        |what: &str, fused: (&Field<FermionKind, E>, f64), parts: (&Field<_, E>, f64)| {
            assert_eq!(fused.0.max_abs_diff(parts.0), 0.0, "{what} field");
            assert_eq!(fused.1.to_bits(), parts.1.to_bits(), "{what} reduction");
            out.push(fused.1.to_bits());
            for c in g.coords() {
                for comp in 0..FermionKind::NCOMP {
                    let z = fused.0.peek(&c, comp);
                    out.extend([z.re.to_bits(), z.im.to_bits()]);
                }
            }
        };

    let (mut fused, mut parts) = (y.clone(), y.clone());
    let n = fused.axpy_norm2(-0.375, &x);
    parts.axpy_inplace(-0.375, &x);
    same("axpy_norm2", (&fused, n), (&parts, parts.norm2()));

    let (mut fused, mut parts, mut n) = (y.zero_like(), y.zero_like(), [0.0]);
    fused.sub_norms2(&x, &y, &mut n);
    parts.sub(&x, &y);
    same("sub_norms2", (&fused, n[0]), (&parts, parts.norm2()));

    let (mut fx, mut fr, mut px, mut pr) = (x.clone(), y.clone(), x.clone(), y.clone());
    let n = cg_update_x_r(&mut fx, &mut fr, 0.6875, &y, &x);
    px.axpy_inplace(0.6875, &y);
    pr.axpy_inplace(-0.6875, &x);
    same("cg_update_x_r iterate", (&fx, 0.0), (&px, 0.0));
    same("cg_update_x_r", (&fr, n), (&pr, pr.norm2()));

    let op = WilsonDirac::<E>::new(random_gauge(g.clone(), 43), 0.3);
    let (mut tmp, mut fused, mut parts) = (x.zero_like(), x.zero_like(), x.zero_like());
    let dot = op.mdag_m_into_dot(&x, &mut tmp, &mut fused);
    op.mdag_m_into(&x, &mut tmp, &mut parts);
    same(
        "mdag_m_into_dot",
        (&fused, dot),
        (&parts, x.inner(&parts).re),
    );
    out
}

/// Every precision's sample at every vector length and thread count must
/// be the single-thread VL128 one.
fn check<E: SveFloat>() {
    rayon::set_num_threads(1);
    let reference = sample::<E>(128);
    for bits in [128usize, 512, 2048] {
        for threads in [1usize, 2, 8] {
            rayon::set_num_threads(threads);
            let got = sample::<E>(bits);
            assert_eq!(
                got,
                reference,
                "{} at VL{bits} × {threads} threads",
                E::SUFFIX
            );
        }
    }
}

#[test]
fn reductions_are_bit_identical_across_threads_and_vector_lengths() {
    check::<f64>();
    check::<f32>();
    check::<F16>();

    // A full solve — reductions feed step acceptance, so any divergence
    // would compound. The whole history must match, not just the answer.
    let g = Grid::new([4, 4, 4, 8], VectorLength::of(512), SimdBackend::Fcmla);
    let y = FermionField::random(g.clone(), 42);
    rayon::set_num_threads(1);
    let u = random_gauge(g.clone(), 43);
    let d = WilsonDirac::new(u, 0.3);
    let (x1, rep1) = cg(&d, &y, 1e-8, 500);
    rayon::set_num_threads(8);
    let (x8, rep8) = cg(&d, &y, 1e-8, 500);
    rayon::set_num_threads(0);
    assert_eq!(rep1.iterations, rep8.iterations);
    assert_eq!(rep1.residual.to_bits(), rep8.residual.to_bits());
    assert_eq!(
        rep1.history.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        rep8.history.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(x1.max_abs_diff(&x8), 0.0);
}
