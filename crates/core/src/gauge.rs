//! Gauge transformations and gauge-invariant observables.
//!
//! The deepest correctness check available for a lattice Dirac operator:
//! under a local SU(3) rotation `g(x)` the links transform as
//! `U'_µ(x) = g(x) U_µ(x) g†(x+µ̂)` and fermions as `ψ'(x) = g(x) ψ(x)`;
//! the hopping term must transform *covariantly*, `Dh[U'] ψ' = g · Dh[U] ψ`,
//! and the plaquette must not change at all. These identities exercise every
//! piece of the stack at once — layout, permutes, complex backends, spin
//! projection and SU(3) algebra — which is why Grid's own test suite leans
//! on them.

use crate::complex::Complex;
use crate::field::{spinor_comp, FermionField, Field, FieldKind, GaugeField};
use crate::layout::{Grid, NCOLOR, NDIM, NSPIN};
use crate::rng::stream_id;
use crate::simd::CVec;
use crate::tensor::su3::{dagger, mat_mul_scalar, mat_vec, random_su3, ColorMatrix};
use std::sync::Arc;

/// One SU(3) matrix per site (a gauge-transformation field).
pub struct ColourMatrixKind;
impl FieldKind for ColourMatrixKind {
    const NCOMP: usize = 9;
    const NAME: &'static str = "colour matrix";
}

/// A site-local SU(3) rotation field.
pub type TransformField = Field<ColourMatrixKind>;

fn tf_comp(row: usize, col: usize) -> usize {
    row * 3 + col
}

/// Read the matrix of a transform field at a site.
pub fn peek_transform(g: &TransformField, x: &crate::layout::Coor) -> ColorMatrix {
    std::array::from_fn(|r| std::array::from_fn(|c| g.peek(x, tf_comp(r, c))))
}

/// A deterministic random gauge-transformation field (independent SU(3)
/// per site).
pub fn random_transform(grid: Arc<Grid>, seed: u64) -> TransformField {
    let mut g = TransformField::zero(grid.clone());
    for x in grid.coords() {
        let gi = grid.global_index(&x);
        let m = random_su3(seed, stream_id(gi, 17, 0) | 1);
        for r in 0..NCOLOR {
            for c in 0..NCOLOR {
                g.poke(&x, tf_comp(r, c), m[r][c]);
            }
        }
    }
    g
}

/// Transform the gauge links: `U'_µ(x) = g(x) U_µ(x) g†(x + µ̂)`.
pub fn transform_links(u: &GaugeField, g: &TransformField) -> GaugeField {
    let grid = u.grid().clone();
    let mut out = GaugeField::zero(grid.clone());
    let fd = grid.fdims();
    for x in grid.coords() {
        let gx = peek_transform(g, &x);
        for mu in 0..NDIM {
            let mut xp = x;
            xp[mu] = (xp[mu] + 1) % fd[mu];
            let gxp = peek_transform(g, &xp);
            let link = crate::tensor::su3::peek_link(u, &x, mu);
            let new = mat_mul_scalar(&mat_mul_scalar(&gx, &link), &dagger(&gxp));
            for r in 0..NCOLOR {
                for c in 0..NCOLOR {
                    out.poke(&x, crate::field::gauge_comp(mu, r, c), new[r][c]);
                }
            }
        }
    }
    out
}

/// Transform a fermion field: `ψ'(x) = g(x) ψ(x)` — site-local SU(3)
/// multiply on every spin component, through the vectorized SU(3) kernel.
pub fn transform_fermion(psi: &FermionField, g: &TransformField) -> FermionField {
    let grid = psi.grid().clone();
    crate::sized!(grid.engine(), |eng| {
        let mut out = FermionField::zero(grid.clone());
        for osite in 0..grid.osites() {
            let gw: [[CVec<_>; NCOLOR]; NCOLOR] = std::array::from_fn(|r| {
                std::array::from_fn(|c| eng.load(g.word(osite, tf_comp(r, c))))
            });
            for s in 0..NSPIN {
                let v: [CVec<_>; NCOLOR] =
                    std::array::from_fn(|c| eng.load(psi.word(osite, spinor_comp(s, c))));
                let r = mat_vec(eng, &gw, &v);
                for c in 0..NCOLOR {
                    eng.store(out.word_mut(osite, spinor_comp(s, c)), r[c]);
                }
            }
        }
        out
    })
}

/// Largest entry-wise deviation from unitarity over every link of a gauge
/// field: `max_{x,µ} max_ij |U†U - 1|_ij`. The drift diagnostic long HMC
/// chains run after restoring a checkpoint — molecular-dynamics updates
/// multiply links by matrix exponentials, so rounding error accumulates
/// multiplicatively and this number grows slowly with trajectory count.
pub fn max_unitarity_deviation<E: sve::SveFloat>(u: &Field<crate::field::GaugeKind, E>) -> f64 {
    let grid = u.grid().clone();
    let mut worst: f64 = 0.0;
    for x in grid.coords() {
        for mu in 0..NDIM {
            worst = worst.max(crate::tensor::su3::unitarity_defect(
                &crate::tensor::su3::peek_link(u, &x, mu),
            ));
        }
    }
    worst
}

impl<E: sve::SveFloat> Field<crate::field::GaugeKind, E> {
    /// Project every link back onto SU(3)
    /// ([`crate::tensor::su3::project_su3`]: Gram-Schmidt rows, unitary
    /// completion with `det = +1`).
    ///
    /// This is an *explicit* maintenance step for long molecular-dynamics
    /// chains, never applied implicitly: silently projecting on checkpoint
    /// load would break the bit-exact resume contract, so loaders only
    /// *diagnose* drift ([`max_unitarity_deviation`]) and leave the links
    /// untouched.
    pub fn reunitarize(&mut self) {
        let grid = self.grid().clone();
        for x in grid.coords() {
            for mu in 0..NDIM {
                let fixed =
                    crate::tensor::su3::project_su3(&crate::tensor::su3::peek_link(self, &x, mu));
                for r in 0..NCOLOR {
                    for c in 0..NCOLOR {
                        self.poke(&x, crate::field::gauge_comp(mu, r, c), fixed[r][c]);
                    }
                }
            }
        }
    }
}

/// Average plaquette: `(1/6V) Σ_x Σ_{µ<ν} Re tr[U_µ(x) U_ν(x+µ̂) U†_µ(x+ν̂)
/// U†_ν(x)] / 3` — the basic gauge-invariant observable (1 on a unit gauge
/// configuration, ~0 deep in the random/strong-coupling regime).
pub fn average_plaquette(u: &GaugeField) -> f64 {
    let grid = u.grid().clone();
    let fd = grid.fdims();
    let mut total = 0.0;
    let mut count = 0usize;
    for x in grid.coords() {
        for mu in 0..NDIM {
            for nu in (mu + 1)..NDIM {
                let mut xp_mu = x;
                xp_mu[mu] = (xp_mu[mu] + 1) % fd[mu];
                let mut xp_nu = x;
                xp_nu[nu] = (xp_nu[nu] + 1) % fd[nu];
                let u1 = crate::tensor::su3::peek_link(u, &x, mu);
                let u2 = crate::tensor::su3::peek_link(u, &xp_mu, nu);
                let u3 = crate::tensor::su3::peek_link(u, &xp_nu, mu);
                let u4 = crate::tensor::su3::peek_link(u, &x, nu);
                let p = mat_mul_scalar(
                    &mat_mul_scalar(&u1, &u2),
                    &mat_mul_scalar(&dagger(&u3), &dagger(&u4)),
                );
                let tr: Complex = (0..NCOLOR).fold(Complex::ZERO, |acc, i| acc + p[i][i]);
                total += tr.re / NCOLOR as f64;
                count += 1;
            }
        }
    }
    total / count as f64
}

/// Product of links along a straight line of `len` steps in direction `mu`
/// starting at `x` (helper for loops).
fn line_product(u: &GaugeField, x: &crate::layout::Coor, mu: usize, len: usize) -> ColorMatrix {
    let fd = u.grid().fdims();
    let mut m: ColorMatrix = std::array::from_fn(|r| {
        std::array::from_fn(|c| if r == c { Complex::ONE } else { Complex::ZERO })
    });
    let mut pos = *x;
    for _ in 0..len {
        m = mat_mul_scalar(&m, &crate::tensor::su3::peek_link(u, &pos, mu));
        pos[mu] = (pos[mu] + 1) % fd[mu];
    }
    m
}

/// Average Polyakov loop: `(1/V_s) Σ_x⃗ tr Π_t U_t(x⃗,t) / 3` — the order
/// parameter of deconfinement; a closed gauge-invariant line winding the
/// time direction.
pub fn average_polyakov_loop(u: &GaugeField) -> Complex {
    let grid = u.grid().clone();
    let fd = grid.fdims();
    let mut total = Complex::ZERO;
    let mut count = 0usize;
    for x in grid.coords() {
        if x[3] != 0 {
            continue; // one line per spatial site
        }
        let m = line_product(u, &x, 3, fd[3]);
        let tr = (0..NCOLOR).fold(Complex::ZERO, |acc, i| acc + m[i][i]);
        total += tr.scale(1.0 / NCOLOR as f64);
        count += 1;
    }
    total.scale(1.0 / count as f64)
}

/// Average `R x T` Wilson loop in the (`mu`, `nu`) plane:
/// `Re tr [ line_µ(R) · line_ν(T) · line_µ(R)† · line_ν(T)† ] / 3`,
/// averaged over all sites. `wilson_loop(u, mu, nu, 1, 1)` is the
/// (`mu`,`nu`) plaquette.
pub fn wilson_loop(u: &GaugeField, mu: usize, nu: usize, r: usize, t: usize) -> f64 {
    assert!(mu != nu);
    let grid = u.grid().clone();
    let fd = grid.fdims();
    let mut total = 0.0;
    let mut count = 0usize;
    for x in grid.coords() {
        let bottom = line_product(u, &x, mu, r);
        let mut xr = x;
        xr[mu] = (xr[mu] + r) % fd[mu];
        let right = line_product(u, &xr, nu, t);
        let mut xt = x;
        xt[nu] = (xt[nu] + t) % fd[nu];
        let top = line_product(u, &xt, mu, r);
        let left = line_product(u, &x, nu, t);
        let m = mat_mul_scalar(
            &mat_mul_scalar(&bottom, &right),
            &mat_mul_scalar(&dagger(&top), &dagger(&left)),
        );
        let tr = (0..NCOLOR).fold(Complex::ZERO, |acc, i| acc + m[i][i]);
        total += tr.re / NCOLOR as f64;
        count += 1;
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::WilsonDirac;
    use crate::simd::SimdBackend;
    use crate::tensor::su3::{peek_link, random_gauge, unit_gauge, unitarity_defect};
    use sve::VectorLength;

    fn grid(bits: usize) -> Arc<Grid> {
        Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla)
    }

    #[test]
    fn transformed_links_stay_in_su3() {
        let gr = grid(512);
        let u = random_gauge(gr.clone(), 81);
        let g = random_transform(gr.clone(), 82);
        let up = transform_links(&u, &g);
        for x in gr.coords().step_by(11) {
            for mu in 0..4 {
                assert!(unitarity_defect(&peek_link(&up, &x, mu)) < 1e-11);
            }
        }
    }

    #[test]
    fn reunitarize_removes_injected_drift() {
        let gr = grid(256);
        let mut u = random_gauge(gr.clone(), 41);
        assert!(max_unitarity_deviation(&u) < 1e-12);
        // Inject multiplicative rounding-style drift on every link entry.
        for (i, v) in u.data_mut().iter_mut().enumerate() {
            *v *= 1.0 + 1e-7 * ((i % 13) as f64 - 6.0);
        }
        let drifted = max_unitarity_deviation(&u);
        assert!(drifted > 1e-8, "injected drift invisible: {drifted}");
        let before = u.clone();
        u.reunitarize();
        assert!(max_unitarity_deviation(&u) < 1e-13);
        // The projection is a small correction, not a rebuild.
        assert!(u.max_abs_diff(&before) < 1e-5);
        for x in gr.coords().step_by(17) {
            for mu in 0..4 {
                let d = crate::tensor::su3::det(&peek_link(&u, &x, mu));
                assert!((d - Complex::ONE).abs() < 1e-13, "det {d:?}");
            }
        }
    }

    #[test]
    fn unit_gauge_plaquette_is_one() {
        let gr = grid(256);
        assert!((average_plaquette(&unit_gauge(gr)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_gauge_plaquette_is_small() {
        // Haar-random links: <P> = 0 in expectation; on a 4^4 lattice the
        // average should be well inside (-0.2, 0.2).
        let gr = grid(256);
        let p = average_plaquette(&random_gauge(gr, 83));
        assert!(p.abs() < 0.2, "plaquette {p}");
    }

    #[test]
    fn plaquette_is_gauge_invariant() {
        let gr = grid(512);
        let u = random_gauge(gr.clone(), 84);
        let g = random_transform(gr.clone(), 85);
        let p0 = average_plaquette(&u);
        let p1 = average_plaquette(&transform_links(&u, &g));
        assert!((p0 - p1).abs() < 1e-11, "{p0} vs {p1}");
    }

    #[test]
    fn hopping_term_is_gauge_covariant() {
        // Dh[U'] (gψ) == g (Dh[U] ψ): the whole stack in one identity,
        // for every backend.
        for backend in SimdBackend::all() {
            let gr = Grid::new([4, 4, 4, 4], VectorLength::of(512), backend);
            let u = random_gauge(gr.clone(), 86);
            let g = random_transform(gr.clone(), 87);
            let psi = FermionField::random(gr.clone(), 88);

            let lhs = WilsonDirac::new(transform_links(&u, &g), 0.1)
                .hopping(&transform_fermion(&psi, &g));
            let rhs = transform_fermion(&WilsonDirac::new(u, 0.1).hopping(&psi), &g);
            let diff = lhs.max_abs_diff(&rhs);
            assert!(diff < 1e-11, "{backend:?}: covariance broken by {diff}");
        }
    }

    #[test]
    fn covariance_holds_across_vector_lengths() {
        for bits in [128usize, 1024] {
            let gr = grid(bits);
            let u = random_gauge(gr.clone(), 89);
            let g = random_transform(gr.clone(), 90);
            let psi = FermionField::random(gr.clone(), 91);
            let lhs = WilsonDirac::new(transform_links(&u, &g), 0.1)
                .hopping(&transform_fermion(&psi, &g));
            let rhs = transform_fermion(&WilsonDirac::new(u, 0.1).hopping(&psi), &g);
            assert!(lhs.max_abs_diff(&rhs) < 1e-11, "vl={bits}");
        }
    }

    #[test]
    fn one_by_one_wilson_loop_is_the_plaquette() {
        let gr = grid(256);
        let u = random_gauge(gr.clone(), 97);
        // Average of W(1,1) over all planes equals the average plaquette.
        let mut total = 0.0;
        let mut n = 0;
        for mu in 0..4 {
            for nu in (mu + 1)..4 {
                total += wilson_loop(&u, mu, nu, 1, 1);
                n += 1;
            }
        }
        let p = average_plaquette(&u);
        assert!((total / n as f64 - p).abs() < 1e-12);
    }

    #[test]
    fn loops_on_unit_gauge_are_one() {
        let gr = grid(128);
        let u = unit_gauge(gr.clone());
        assert!((wilson_loop(&u, 0, 3, 2, 3) - 1.0).abs() < 1e-12);
        let p = average_polyakov_loop(&u);
        assert!((p - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn wilson_and_polyakov_loops_are_gauge_invariant() {
        let gr = grid(512);
        let u = random_gauge(gr.clone(), 98);
        let g = random_transform(gr.clone(), 99);
        let up = transform_links(&u, &g);
        for (r, t) in [(1, 2), (2, 2)] {
            let a = wilson_loop(&u, 1, 3, r, t);
            let b = wilson_loop(&up, 1, 3, r, t);
            assert!((a - b).abs() < 1e-11, "W({r},{t}): {a} vs {b}");
        }
        let pa = average_polyakov_loop(&u);
        let pb = average_polyakov_loop(&up);
        assert!((pa - pb).abs() < 1e-11);
    }

    #[test]
    fn larger_loops_decay_on_random_backgrounds() {
        // Area-law-like behaviour on strongly fluctuating links: bigger
        // loops average closer to zero.
        let gr = grid(256);
        let u = random_gauge(gr.clone(), 100);
        let w11 = wilson_loop(&u, 0, 1, 1, 1).abs();
        let w22 = wilson_loop(&u, 0, 1, 2, 2).abs();
        assert!(w22 < w11.max(0.05), "W(2,2)={w22} W(1,1)={w11}");
    }

    #[test]
    fn plaquette_survives_two_row_compression() {
        // The compressed operator mode stores only two rows per link and
        // rebuilds the third in registers. Round-tripping every link
        // through that compression must leave the plaquette (and every
        // other observable of the links) unchanged to rounding, because
        // SU(3) makes the third row redundant.
        use crate::tensor::su3::{compress_su3, reconstruct_su3};
        let gr = grid(512);
        let u = random_gauge(gr.clone(), 101);
        let mut rec = u.clone();
        for x in gr.coords() {
            for mu in 0..4 {
                let link = reconstruct_su3(&compress_su3(&peek_link(&u, &x, mu)));
                for r in 0..NCOLOR {
                    for c in 0..NCOLOR {
                        rec.poke(&x, crate::field::gauge_comp(mu, r, c), link[r][c]);
                    }
                }
            }
        }
        // Rows 0 and 1 are carried verbatim; only row 2 is rebuilt.
        assert!(rec.max_abs_diff(&u) <= 1e-13);
        let p0 = average_plaquette(&u);
        let p1 = average_plaquette(&rec);
        assert!((p0 - p1).abs() <= 1e-13, "{p0} vs {p1}");
        assert!(max_unitarity_deviation(&rec) < 1e-12);
    }

    #[test]
    fn fermion_transform_preserves_norm() {
        let gr = grid(256);
        let g = random_transform(gr.clone(), 92);
        let psi = FermionField::random(gr.clone(), 93);
        let tpsi = transform_fermion(&psi, &g);
        assert!((tpsi.norm2() - psi.norm2()).abs() < 1e-9 * psi.norm2());
    }

    #[test]
    fn wilson_spectrum_is_gauge_invariant() {
        // CG iteration count and solution norm are gauge invariant (the
        // operator is unitarily equivalent).
        let gr = grid(256);
        let u = random_gauge(gr.clone(), 94);
        let g = random_transform(gr.clone(), 95);
        let b = FermionField::random(gr.clone(), 96);
        let op = WilsonDirac::new(u.clone(), 0.3);
        let opp = WilsonDirac::new(transform_links(&u, &g), 0.3);
        let (x, r1) = crate::solver::cg(&op, &b, 1e-8, 1000);
        let (xp, r2) = crate::solver::cg(&opp, &transform_fermion(&b, &g), 1e-8, 1000);
        assert_eq!(r1.iterations, r2.iterations);
        assert!((x.norm2() - xp.norm2()).abs() < 1e-6 * x.norm2());
    }
}
