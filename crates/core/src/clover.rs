//! The clover-improved Wilson operator (Sheikholeslami–Wohlert).
//!
//! Grid ships `WilsonClover` alongside plain Wilson fermions: the O(a)
//! lattice artefacts of Eq. (1) are cancelled by the site-local *clover
//! term* `(c_sw/2) Σ_{µ<ν} σ_µν F_µν`, where `F_µν` is the field strength
//! built from the four plaquette "leaves" around each site (whose shape
//! gives the term its name) and `σ_µν = (i/2)[γµ, γν]` comes from the
//! Clifford algebra of [`crate::tensor::gamma_algebra`]. Computationally it
//! is exactly the paper's favourite pattern — SU(3) matrix times spinor,
//! lowered through the complex-arithmetic backends — applied site-locally.

use crate::complex::Complex;
use crate::dirac::{Dirac, WilsonDirac};
use crate::field::{spinor_comp, FermionField, GaugeField};
use crate::gauge::TransformField;
use crate::layout::{Coor, Grid, NCOLOR, NSPIN};
use crate::simd::{CVec, Words};
use crate::tensor::gamma::Coeff;
use crate::tensor::gamma_algebra::{GammaElement, SpinPerm};
use crate::tensor::su3::{dagger, mat_mul_scalar, mat_vec, peek_link, ColorMatrix};
use rayon::prelude::*;
use std::sync::Arc;

/// The six independent planes, in pair order.
pub const PLANES: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

fn add_mat(a: &mut ColorMatrix, b: &ColorMatrix) {
    for r in 0..NCOLOR {
        for c in 0..NCOLOR {
            a[r][c] += b[r][c];
        }
    }
}

fn shifted(x: &Coor, dims: &Coor, mu: usize, steps: i32) -> Coor {
    let mut y = *x;
    let l = dims[mu] as i32;
    y[mu] = ((y[mu] as i32 + steps).rem_euclid(l)) as usize;
    y
}

/// The clover-leaf sum `Q_µν(x)`: four plaquettes around `x` in the
/// (µ,ν) plane, all taken counter-clockwise starting and ending at `x`.
fn clover_leaves(u: &GaugeField, x: &Coor, mu: usize, nu: usize) -> ColorMatrix {
    let d = u.grid().fdims();
    let xp_mu = shifted(x, &d, mu, 1);
    let xp_nu = shifted(x, &d, nu, 1);
    let xm_mu = shifted(x, &d, mu, -1);
    let xm_nu = shifted(x, &d, nu, -1);
    let xm_mu_p_nu = shifted(&xm_mu, &d, nu, 1);
    let xm_mu_m_nu = shifted(&xm_mu, &d, nu, -1);
    let xp_mu_m_nu = shifted(&xp_mu, &d, nu, -1);

    let mut q = [[Complex::ZERO; NCOLOR]; NCOLOR];
    // Leaf 1: x -> +µ -> +ν -> -µ -> -ν.
    let l1 = mat_mul_scalar(
        &mat_mul_scalar(&peek_link(u, x, mu), &peek_link(u, &xp_mu, nu)),
        &mat_mul_scalar(
            &dagger(&peek_link(u, &xp_nu, mu)),
            &dagger(&peek_link(u, x, nu)),
        ),
    );
    add_mat(&mut q, &l1);
    // Leaf 2: x -> +ν -> -µ -> -ν -> +µ.
    let l2 = mat_mul_scalar(
        &mat_mul_scalar(
            &peek_link(u, x, nu),
            &dagger(&peek_link(u, &xm_mu_p_nu, mu)),
        ),
        &mat_mul_scalar(
            &dagger(&peek_link(u, &xm_mu, nu)),
            &peek_link(u, &xm_mu, mu),
        ),
    );
    add_mat(&mut q, &l2);
    // Leaf 3: x -> -µ -> -ν -> +µ -> +ν.
    let l3 = mat_mul_scalar(
        &mat_mul_scalar(
            &dagger(&peek_link(u, &xm_mu, mu)),
            &dagger(&peek_link(u, &xm_mu_m_nu, nu)),
        ),
        &mat_mul_scalar(&peek_link(u, &xm_mu_m_nu, mu), &peek_link(u, &xm_nu, nu)),
    );
    add_mat(&mut q, &l3);
    // Leaf 4: x -> -ν -> +µ -> +ν -> -µ (closing with U_µ†(x): the link
    // from x+µ back to x).
    let l4 = mat_mul_scalar(
        &mat_mul_scalar(
            &dagger(&peek_link(u, &xm_nu, nu)),
            &peek_link(u, &xm_nu, mu),
        ),
        &mat_mul_scalar(
            &peek_link(u, &xp_mu_m_nu, nu),
            &dagger(&peek_link(u, x, mu)),
        ),
    );
    add_mat(&mut q, &l4);
    q
}

/// The lattice field strength `F_µν(x) = (Q_µν − Q†_µν) / (8i)` — a
/// hermitian color matrix per site, one field per plane (pair order
/// [`PLANES`]).
pub fn field_strength(u: &GaugeField) -> [TransformField; 6] {
    let grid = u.grid().clone();
    let mut out: [TransformField; 6] = std::array::from_fn(|_| TransformField::zero(grid.clone()));
    for x in grid.coords() {
        for (p, &(mu, nu)) in PLANES.iter().enumerate() {
            let q = clover_leaves(u, &x, mu, nu);
            let qd = dagger(&q);
            for r in 0..NCOLOR {
                for c in 0..NCOLOR {
                    // (q - q†) / (8 i) = -i (q - q†) / 8.
                    let v = (q[r][c] - qd[r][c]).times_minus_i().scale(1.0 / 8.0);
                    out[p].poke(&x, r * 3 + c, v);
                }
            }
        }
    }
    out
}

/// `σ_µν = (i/2)[γµ, γν] = i γµ γν` (µ≠ν) as a signed spin permutation —
/// hermitian, so the clover term is hermitian and commutes with γ5.
pub fn sigma_munu(mu: usize, nu: usize) -> SpinPerm {
    use GammaElement::*;
    let base = match (mu, nu) {
        (0, 1) => SigmaXY,
        (0, 2) => SigmaXZ,
        (0, 3) => SigmaXT,
        (1, 2) => SigmaYZ,
        (1, 3) => SigmaYT,
        (2, 3) => SigmaZT,
        _ => panic!("plane must have mu < nu"),
    };
    // Multiply every coefficient by i.
    let mut p = base.perm();
    for c in &mut p.coeff {
        *c = *c * Coeff::I;
    }
    p
}

/// The clover-improved Wilson operator
/// `M = (m + 4) − ½ Dh − (c_sw/2) Σ_{µ<ν} σ_µν F_µν`.
pub struct CloverWilson {
    wilson: WilsonDirac<f64>,
    f: [TransformField; 6],
    /// The Sheikholeslami–Wohlert improvement coefficient.
    pub c_sw: f64,
}

impl CloverWilson {
    /// Build from a gauge configuration, bare mass and `c_sw`.
    pub fn new(u: GaugeField, mass: f64, c_sw: f64) -> Self {
        let f = field_strength(&u);
        CloverWilson {
            wilson: WilsonDirac::new(u, mass),
            f,
            c_sw,
        }
    }

    /// The lattice.
    pub fn grid(&self) -> &Arc<Grid> {
        self.wilson.grid()
    }

    /// The plain Wilson part.
    pub fn wilson(&self) -> &WilsonDirac<f64> {
        &self.wilson
    }

    /// One site of the clover sum `Σ_{µ<ν} σ_µν F_µν ψ`: SU(3)
    /// matrix-vector products through the engine backends plus spin
    /// coefficient ops, accumulated in registers.
    fn site_clover<const N: usize>(
        &self,
        eng: &Words<'_, f64, N>,
        psi: &FermionField,
        osite: usize,
        sigmas: &[SpinPerm; 6],
    ) -> [[CVec<N>; NCOLOR]; NSPIN] {
        let mut acc = [[eng.zero(); NCOLOR]; NSPIN];
        for (p, sigma) in sigmas.iter().enumerate() {
            // Load F words once per plane.
            let fw: [[CVec<N>; NCOLOR]; NCOLOR] = std::array::from_fn(|r| {
                std::array::from_fn(|c| eng.load(self.f[p].word(osite, r * 3 + c)))
            });
            // F ψ for all four spins.
            let f_psi: [[CVec<N>; NCOLOR]; NSPIN] = std::array::from_fn(|s| {
                let v: [CVec<N>; NCOLOR] =
                    std::array::from_fn(|c| eng.load(psi.word(osite, spinor_comp(s, c))));
                mat_vec(eng, &fw, &v)
            });
            // Spin structure: out[r] += coeff[r] * (Fψ)[src[r]].
            for r in 0..NSPIN {
                let src = sigma.src[r];
                for c in 0..NCOLOR {
                    let term = match sigma.coeff[r] {
                        Coeff::One => f_psi[src][c],
                        Coeff::MinusOne => eng.neg(f_psi[src][c]),
                        Coeff::I => eng.times_i(f_psi[src][c]),
                        Coeff::MinusI => eng.times_minus_i(f_psi[src][c]),
                    };
                    acc[r][c] = eng.add(acc[r][c], term);
                }
            }
        }
        acc
    }

    /// The site-local clover term `Σ_{µ<ν} σ_µν F_µν ψ`, computed in
    /// parallel over outer sites.
    pub fn clover_term(&self, psi: &FermionField) -> FermionField {
        let grid = self.grid().clone();
        crate::sized!(grid.engine(), |eng| {
            let _span = qcd_trace::span!("clover.term", eng.ctx());
            let sites = grid.volume() as u64;
            // Per site: 6 planes x (F matrix 18 reals + matrix-vector products on
            // a full spinor), one spinor read and one written.
            qcd_trace::record_sites(sites);
            qcd_trace::record_bytes(sites * (6 * 18 + 24) * 8, sites * 24 * 8);
            let mut out = FermionField::zero(grid.clone());
            let sigmas: [SpinPerm; 6] =
                std::array::from_fn(|p| sigma_munu(PLANES[p].0, PLANES[p].1));
            let word = eng.word_len();
            let stride = out.site_stride();
            out.data_mut()
                .par_chunks_mut(stride)
                .enumerate()
                .for_each(|(osite, sw)| {
                    let acc = self.site_clover(eng, psi, osite, &sigmas);
                    for r in 0..NSPIN {
                        for c in 0..NCOLOR {
                            let comp = spinor_comp(r, c);
                            eng.store(&mut sw[comp * word..(comp + 1) * word], acc[r][c]);
                        }
                    }
                });
            out
        })
    }

    /// `out += coef · Σ_{µ<ν} σ_µν F_µν ψ` with the scale-and-add fused
    /// into the site store loop (one `fmla` per word) — the allocation-free
    /// form the operator's sweep uses, sparing the full-field `scale` and
    /// `add` passes of the unfused formulation. Opens no telemetry span
    /// (span entry allocates); sites and bytes are recorded on the calling
    /// thread and attributed to the enclosing span.
    pub fn clover_term_axpy_into(&self, psi: &FermionField, coef: f64, out: &mut FermionField) {
        let grid = self.grid().clone();
        crate::sized!(grid.engine(), |eng| {
            let sites = grid.volume() as u64;
            // As clover_term, plus the read of the destination spinor.
            qcd_trace::record_sites(sites);
            qcd_trace::record_bytes(sites * (6 * 18 + 2 * 24) * 8, sites * 24 * 8);
            let sigmas: [SpinPerm; 6] =
                std::array::from_fn(|p| sigma_munu(PLANES[p].0, PLANES[p].1));
            let c_dup = eng.dup_real(coef);
            let word = eng.word_len();
            let stride = out.site_stride();
            out.data_mut()
                .par_chunks_mut(stride)
                .enumerate()
                .for_each(|(osite, sw)| {
                    let acc = self.site_clover(eng, psi, osite, &sigmas);
                    for r in 0..NSPIN {
                        for c in 0..NCOLOR {
                            let comp = spinor_comp(r, c);
                            let w = &mut sw[comp * word..(comp + 1) * word];
                            let sv = eng.load(w);
                            eng.store(w, eng.axpy_word(c_dup, acc[r][c], sv));
                        }
                    }
                });
        })
    }
}

/// `M ψ` in two fused sweeps: the Wilson dslash+mass store loop, then the
/// clover term fma'd on top. The clover term is hermitian and γ5-even, so
/// `M†` changes only the Wilson part. The dot is an inner product after the
/// sweeps.
impl Dirac<FermionField> for CloverWilson {
    fn m_into(
        &self,
        psi: &FermionField,
        out: &mut FermionField,
        dagger: bool,
        dot: Option<(&FermionField, &mut [f64])>,
    ) {
        self.wilson.m_into(psi, out, dagger, None);
        self.clover_term_axpy_into(psi, -0.5 * self.c_sw, out);
        if let Some((d, sums)) = dot {
            sums[0] = d.inner(out).re;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::gamma5;
    use crate::krylov::{cg_solve, no_observer, Start, Vector};
    use crate::simd::SimdBackend;
    use crate::tensor::su3::{random_gauge, unit_gauge};
    use sve::VectorLength;

    fn grid() -> Arc<Grid> {
        Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla)
    }

    #[test]
    fn field_strength_vanishes_on_unit_gauge() {
        let g = grid();
        let f = field_strength(&unit_gauge(g.clone()));
        for fp in &f {
            assert!(fp.norm2() < 1e-24, "F must vanish on the free field");
        }
    }

    #[test]
    fn field_strength_is_hermitian() {
        let g = grid();
        let f = field_strength(&random_gauge(g.clone(), 141));
        for fp in &f {
            for x in g.coords().step_by(13) {
                for r in 0..NCOLOR {
                    for c in 0..NCOLOR {
                        let a = fp.peek(&x, r * 3 + c);
                        let b = fp.peek(&x, c * 3 + r).conj();
                        assert!((a - b).abs() < 1e-12, "{x:?} ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn field_strength_is_gauge_covariant() {
        // F'_µν(x) = g(x) F_µν(x) g†(x).
        use crate::gauge::{peek_transform, random_transform, transform_links};
        let g = grid();
        let u = random_gauge(g.clone(), 142);
        let t = random_transform(g.clone(), 143);
        let f = field_strength(&u);
        let fp = field_strength(&transform_links(&u, &t));
        for x in g.coords().step_by(17) {
            let gx = peek_transform(&t, &x);
            for p in 0..6 {
                let orig: ColorMatrix =
                    std::array::from_fn(|r| std::array::from_fn(|c| f[p].peek(&x, r * 3 + c)));
                let want = mat_mul_scalar(&mat_mul_scalar(&gx, &orig), &dagger(&gx));
                for r in 0..NCOLOR {
                    for c in 0..NCOLOR {
                        let got = fp[p].peek(&x, r * 3 + c);
                        assert!((got - want[r][c]).abs() < 1e-11, "plane {p} {x:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sigma_munu_is_hermitian() {
        for &(mu, nu) in &PLANES {
            let s = sigma_munu(mu, nu);
            assert_eq!(s.adjoint(), s, "sigma({mu},{nu})");
        }
    }

    #[test]
    fn clover_term_is_hermitian() {
        let g = grid();
        let op = CloverWilson::new(random_gauge(g.clone(), 144), 0.2, 1.0);
        let phi = FermionField::random(g.clone(), 145);
        let psi = FermionField::random(g.clone(), 146);
        let a = phi.inner(&op.clover_term(&psi));
        let b = op.clover_term(&phi).inner(&psi);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a:?} vs {b:?}");
    }

    #[test]
    fn clover_operator_is_g5_hermitian() {
        let g = grid();
        let op = CloverWilson::new(random_gauge(g.clone(), 147), 0.2, 1.3);
        let psi = FermionField::random(g.clone(), 148);
        let lhs = gamma5(&op.apply(&gamma5(&psi)));
        let rhs = op.apply_dag(&psi);
        assert!(lhs.max_abs_diff(&rhs) < 1e-11);
    }

    #[test]
    fn csw_zero_reduces_to_plain_wilson() {
        let g = grid();
        let u = random_gauge(g.clone(), 149);
        let clover = CloverWilson::new(u.clone(), 0.2, 0.0);
        let wilson = WilsonDirac::new(u, 0.2);
        let psi = FermionField::random(g.clone(), 150);
        assert_eq!(clover.apply(&psi).max_abs_diff(&wilson.apply(&psi)), 0.0);
    }

    #[test]
    fn clover_term_changes_the_operator() {
        let g = grid();
        let u = random_gauge(g.clone(), 151);
        let psi = FermionField::random(g.clone(), 152);
        let with = CloverWilson::new(u.clone(), 0.2, 1.0).apply(&psi);
        let without = WilsonDirac::new(u, 0.2).apply(&psi);
        assert!(with.max_abs_diff(&without) > 1e-3);
    }

    #[test]
    fn cg_inverts_the_clover_normal_operator() {
        let g = grid();
        let op = CloverWilson::new(random_gauge(g.clone(), 153), 0.3, 1.0);
        let b = FermionField::random(g.clone(), 154);
        let (x, report) = cg_solve(
            &mut op.normal(&mut b.zero_like()),
            &b,
            Start::Zero,
            1e-8,
            2000,
            qcd_trace::span!("solver.cg", g.engine().ctx()),
            "solver.cg",
            no_observer,
        );
        assert!(report.converged, "{report:?}");
        let ax = op.mdag_m(&x);
        let mut diff = FermionField::zero(g);
        diff.sub(&ax, &b);
        assert!(diff.norm2() / b.norm2() < 1e-13);
    }

    #[test]
    fn clover_term_is_backend_independent() {
        let reference = {
            let g = grid();
            let op = CloverWilson::new(random_gauge(g.clone(), 155), 0.2, 1.0);
            op.clover_term(&FermionField::random(g.clone(), 156))
        };
        for backend in [SimdBackend::RealArith, SimdBackend::GenericAutovec] {
            let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), backend);
            let op = CloverWilson::new(random_gauge(g.clone(), 155), 0.2, 1.0);
            let out = op.clover_term(&FermionField::random(g.clone(), 156));
            let diff = out
                .data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-12, "{backend:?} deviates by {diff}");
        }
    }
}
