//! Domain-wall fermions — Grid's flagship operator.
//!
//! Grid was built for domain-wall QCD (its headline benchmark is
//! `Benchmark_dwf`, one of the "ready-made tests and benchmarks" behind the
//! paper's Section V-D campaign). The Shamir operator adds a fifth
//! dimension of extent `Ls`: each slice carries a 4-D Wilson operator at
//! negative mass `−M5`, and slices couple through the chiral projectors
//! `P± = (1 ± γ5)/2`, with the physical quark mass `m_f` entering only at
//! the 5-D boundary:
//!
//! ```text
//! (D ψ)_s = (D_W(−M5) + 1) ψ_s − P₋ ψ_{s+1} − P₊ ψ_{s−1}
//! (D ψ)_0      : P₊ leg wraps to s = Ls−1 with factor −m_f → +m_f P₊ ψ_{Ls−1}
//! (D ψ)_{Ls−1} : P₋ leg wraps to s = 0     with factor −m_f → +m_f P₋ ψ_0
//! ```
//!
//! Computationally this is `Ls` independent Wilson hopping terms (the
//! paper's Eq. (1) kernel) plus cheap slice-local chiral projections —
//! which is exactly why wide vectors pay off for domain-wall QCD.

use crate::dirac::{gamma5, WilsonDirac};
use crate::field::{spinor_comp, FermionField, GaugeField};
use crate::krylov::{self, Operator, Start, Vector};
use crate::layout::NCOLOR;
use crate::solver::SolveReport;
use crate::Complex;
use rayon::prelude::*;

/// Chiral projection `P₊ ψ = (ψ + γ5 ψ)/2`.
pub fn chiral_plus(psi: &FermionField) -> FermionField {
    let mut out = gamma5(psi);
    out.add_assign_field(psi);
    out.scale(0.5);
    out
}

/// Chiral projection `P₋ ψ = (ψ − γ5 ψ)/2`.
pub fn chiral_minus(psi: &FermionField) -> FermionField {
    let g = gamma5(psi);
    let mut out = psi.clone();
    out.axpy_inplace(-1.0, &g);
    out.scale(0.5);
    out
}

/// `out += coef · P± x` without materializing the projection: γ5 is
/// `diag(1,1,−1,−1)` on spin, so `P₊` keeps spin rows 0,1 and `P₋` keeps
/// rows 2,3 exactly — the kept components take one fused `fmla` per word
/// and the dropped ones are untouched. This is the 5-D hopping leg of the
/// domain-wall operator as a single allocation-free parallel sweep.
pub fn axpy_chiral(out: &mut FermionField, coef: f64, x: &FermionField, plus: bool) {
    let grid = out.grid().clone();
    crate::sized!(grid.engine(), |eng| {
        let word = eng.word_len();
        let stride = out.site_stride();
        let c_dup = eng.dup_real(coef);
        let spins = if plus { 0..2 } else { 2..4 };
        let xd = x.data();
        out.data_mut()
            .par_chunks_mut(stride)
            .enumerate()
            .for_each(|(site, sw)| {
                let base = site * stride;
                for s in spins.clone() {
                    for c in 0..NCOLOR {
                        let comp = spinor_comp(s, c);
                        let w = &mut sw[comp * word..(comp + 1) * word];
                        let off = base + comp * word;
                        let xv = eng.load(&xd[off..off + word]);
                        let sv = eng.load(w);
                        eng.store(w, eng.axpy_word(c_dup, xv, sv));
                    }
                }
            });
    })
}

/// A 5-D fermion: `Ls` four-dimensional spinor fields.
#[derive(Clone)]
pub struct Fermion5 {
    /// The 4-D slices, `s = 0 .. Ls`.
    pub slices: Vec<FermionField>,
}

impl Fermion5 {
    /// A zero 5-D fermion with `ls` slices.
    pub fn zero(grid: std::sync::Arc<crate::Grid>, ls: usize) -> Self {
        Fermion5 {
            slices: (0..ls).map(|_| FermionField::zero(grid.clone())).collect(),
        }
    }

    /// Deterministic random content (per-slice seeds derived from `seed`).
    pub fn random(grid: std::sync::Arc<crate::Grid>, ls: usize, seed: u64) -> Self {
        Fermion5 {
            slices: (0..ls)
                .map(|s| FermionField::random(grid.clone(), seed.wrapping_add(s as u64 * 7919)))
                .collect(),
        }
    }

    /// Number of 5th-dimension slices.
    pub fn ls(&self) -> usize {
        self.slices.len()
    }

    /// Global squared norm over all slices.
    pub fn norm2(&self) -> f64 {
        self.slices.iter().map(|f| f.norm2()).sum()
    }

    /// Global inner product over all slices.
    pub fn inner(&self, other: &Fermion5) -> Complex {
        self.slices
            .iter()
            .zip(&other.slices)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.inner(b))
    }

    /// `self += a * x` slice-wise.
    pub fn axpy_inplace(&mut self, a: f64, x: &Fermion5) {
        for (s, xs) in self.slices.iter_mut().zip(&x.slices) {
            s.axpy_inplace(a, xs);
        }
    }

    /// `self = x + a * self` slice-wise.
    pub fn aypx(&mut self, a: f64, x: &Fermion5) {
        for (s, xs) in self.slices.iter_mut().zip(&x.slices) {
            s.aypx(a, xs);
        }
    }

    /// `self = x - y` slice-wise.
    pub fn sub(&mut self, x: &Fermion5, y: &Fermion5) {
        for ((s, xs), ys) in self.slices.iter_mut().zip(&x.slices).zip(&y.slices) {
            s.sub(xs, ys);
        }
    }

    /// Fused `self += a * x` returning the new `|self|²`, slice-wise (one
    /// pass per slice, partial norms summed in slice order so the result is
    /// deterministic).
    pub fn axpy_norm2(&mut self, a: f64, x: &Fermion5) -> f64 {
        self.slices
            .iter_mut()
            .zip(&x.slices)
            .map(|(s, xs)| s.axpy_norm2(a, xs))
            .sum()
    }

    /// Maximum absolute difference across all slices.
    pub fn max_abs_diff(&self, other: &Fermion5) -> f64 {
        self.slices
            .iter()
            .zip(&other.slices)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }
}

/// The Shamir domain-wall operator.
pub struct DomainWall {
    wilson: WilsonDirac<f64>,
    /// 5th-dimension extent.
    pub ls: usize,
    /// Domain-wall height (the Wilson operator runs at mass `−M5`).
    pub m5: f64,
    /// Physical quark mass (the 5-D boundary coupling).
    pub mf: f64,
}

impl DomainWall {
    /// Build from a gauge configuration, `Ls`, domain-wall height `m5` and
    /// quark mass `mf`.
    pub fn new(u: GaugeField, ls: usize, m5: f64, mf: f64) -> Self {
        assert!(ls >= 2, "domain-wall fermions need Ls >= 2");
        DomainWall {
            wilson: WilsonDirac::new(u, -m5),
            ls,
            m5,
            mf,
        }
    }

    /// The underlying 4-D Wilson operator (at mass `−M5`).
    pub fn wilson(&self) -> &WilsonDirac<f64> {
        &self.wilson
    }

    fn apply_impl_into(&self, psi: &Fermion5, out: &mut Fermion5, dagger: bool) {
        assert_eq!(psi.ls(), self.ls);
        assert_eq!(out.ls(), self.ls);
        let ls = self.ls;
        // 5-D hopping projectors: the adjoint swaps P₋ and P₊ (they are
        // hermitian and the shift direction reverses).
        let (up_plus, dn_plus) = if dagger { (true, false) } else { (false, true) };
        for s in 0..ls {
            let slice = &mut out.slices[s];
            // 4-D part: (D_W + 1) ψ_s, slice-diagonal; the Wilson mass axpy
            // is fused into the hopping sweep.
            if dagger {
                self.wilson.apply_dag_into(&psi.slices[s], slice);
            } else {
                self.wilson.apply_into(&psi.slices[s], slice);
            }
            slice.axpy_inplace(1.0, &psi.slices[s]);

            // Up leg (needs slice s+1): −P ψ_{s+1}, wrapping with −m_f.
            let (up_idx, up_coef) = if s + 1 == ls {
                (0, self.mf)
            } else {
                (s + 1, -1.0)
            };
            axpy_chiral(slice, up_coef, &psi.slices[up_idx], up_plus);
            // Down leg (needs slice s−1): −P ψ_{s−1}, wrapping with −m_f.
            let (dn_idx, dn_coef) = if s == 0 {
                (ls - 1, self.mf)
            } else {
                (s - 1, -1.0)
            };
            axpy_chiral(slice, dn_coef, &psi.slices[dn_idx], dn_plus);
        }
    }

    /// `D ψ`.
    pub fn apply(&self, psi: &Fermion5) -> Fermion5 {
        let mut out = Fermion5::zero(psi.slices[0].grid().clone(), psi.ls());
        self.apply_into(psi, &mut out);
        out
    }

    /// `D† ψ`.
    pub fn apply_dag(&self, psi: &Fermion5) -> Fermion5 {
        let mut out = Fermion5::zero(psi.slices[0].grid().clone(), psi.ls());
        self.apply_dag_into(psi, &mut out);
        out
    }

    /// `out = D ψ` without allocating.
    pub fn apply_into(&self, psi: &Fermion5, out: &mut Fermion5) {
        self.apply_impl_into(psi, out, false);
    }

    /// `out = D† ψ` without allocating.
    pub fn apply_dag_into(&self, psi: &Fermion5, out: &mut Fermion5) {
        self.apply_impl_into(psi, out, true);
    }

    /// The normal operator `D†D`.
    pub fn ddag_d(&self, psi: &Fermion5) -> Fermion5 {
        let grid = psi.slices[0].grid().clone();
        let mut tmp = Fermion5::zero(grid.clone(), psi.ls());
        let mut out = Fermion5::zero(grid, psi.ls());
        self.ddag_d_into(psi, &mut tmp, &mut out);
        out
    }

    /// `out = D†D ψ` using caller-provided storage (`tmp` holds `D ψ`).
    pub fn ddag_d_into(&self, psi: &Fermion5, tmp: &mut Fermion5, out: &mut Fermion5) {
        self.apply_into(psi, tmp);
        self.apply_dag_into(tmp, out);
    }
}

/// Apply the 5-D reflection `R5: s → Ls−1−s` composed with slice-wise γ5 —
/// the unitary involution behind domain-wall Γ5-hermiticity,
/// `D† = (R5 γ5) D (R5 γ5)`.
pub fn r5_gamma5(psi: &Fermion5) -> Fermion5 {
    Fermion5 {
        slices: psi.slices.iter().rev().map(gamma5).collect(),
    }
}

impl Vector for Fermion5 {
    type Report = SolveReport;

    fn zero_like(&self) -> Self {
        Fermion5::zero(self.slices[0].grid().clone(), self.ls())
    }

    fn norms2_into(&self, out: &mut [f64]) {
        out[0] = self.norm2();
    }

    fn sub_norms2_into(&mut self, x: &Self, y: &Self, out: &mut [f64]) {
        self.sub(x, y);
        out[0] = self.norm2();
    }

    fn cg_update(
        x: &mut Self,
        r: &mut Self,
        alpha: &[f64],
        p: &Self,
        ap: &Self,
        _active: &[bool],
        r2: &mut [f64],
    ) {
        x.axpy_inplace(alpha[0], p);
        r2[0] = r.axpy_norm2(-alpha[0], ap);
    }

    fn aypx_active(&mut self, beta: &[f64], x: &Self, _active: &[bool]) {
        self.aypx(beta[0], x);
    }
}

/// Conjugate Gradient on the domain-wall normal equations `D†D x = b`, in
/// the space of `D†D` through a held `D ψ` intermediate with the curvature
/// a separate inner product summed over the slices in order.
///
/// Runs allocation-free in steady state: the `D ψ` intermediate and the
/// operator output are preallocated 5-D fermions reused across iterations,
/// and the residual update is the fused `axpy_norm2` sweep.
pub fn cg_dwf(op: &DomainWall, b: &Fermion5, tol: f64, max_iter: usize) -> (Fermion5, SolveReport) {
    let grid = b.slices[0].grid().clone();
    let span = qcd_trace::span!("solver.cg_dwf", grid.engine().ctx());
    let mut tmp = b.zero_like();
    let mut space = Operator::new(|p: &Fermion5, ap: &mut Fermion5, curv: &mut [f64]| {
        op.ddag_d_into(p, &mut tmp, ap);
        curv[0] = p.inner(ap).re;
    });
    krylov::cg_solve(
        &mut space,
        b,
        Start::Zero,
        tol,
        max_iter,
        span,
        "solver.cg_dwf",
        krylov::no_observer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdBackend;
    use crate::tensor::su3::random_gauge;
    use crate::Grid;
    use std::sync::Arc;
    use sve::VectorLength;

    fn setup(ls: usize) -> (DomainWall, Arc<Grid>) {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 161);
        (DomainWall::new(u, ls, 1.8, 0.04), g)
    }

    #[test]
    fn chiral_projectors_are_projectors() {
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let psi = FermionField::random(g.clone(), 162);
        let p = chiral_plus(&psi);
        let m = chiral_minus(&psi);
        // P² = P.
        assert!(chiral_plus(&p).max_abs_diff(&p) < 1e-13);
        assert!(chiral_minus(&m).max_abs_diff(&m) < 1e-13);
        // P₊ P₋ = 0.
        assert!(chiral_plus(&m).norm2() < 1e-24);
        // P₊ + P₋ = 1.
        let mut sum = p.clone();
        sum.add_assign_field(&m);
        assert!(sum.max_abs_diff(&psi) < 1e-13);
        // γ5 P₊ = P₊.
        assert!(gamma5(&p).max_abs_diff(&p) < 1e-13);
    }

    #[test]
    fn operator_is_linear_over_slices() {
        let (op, g) = setup(4);
        let a = Fermion5::random(g.clone(), 4, 163);
        let b = Fermion5::random(g.clone(), 4, 164);
        let mut combo = a.clone();
        combo.axpy_inplace(2.0, &b);
        let lhs = op.apply(&combo);
        let mut rhs = op.apply(&a);
        rhs.axpy_inplace(2.0, &op.apply(&b));
        assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn adjoint_is_the_true_adjoint() {
        let (op, g) = setup(4);
        let phi = Fermion5::random(g.clone(), 4, 165);
        let psi = Fermion5::random(g.clone(), 4, 166);
        let a = phi.inner(&op.apply(&psi));
        let b = op.apply_dag(&phi).inner(&psi);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a:?} vs {b:?}");
    }

    #[test]
    fn r5_gamma5_hermiticity() {
        // D† = (R5 γ5) D (R5 γ5): the domain-wall form of γ5-hermiticity.
        let (op, g) = setup(6);
        let psi = Fermion5::random(g.clone(), 6, 167);
        let lhs = r5_gamma5(&op.apply(&r5_gamma5(&psi)));
        let rhs = op.apply_dag(&psi);
        assert!(
            lhs.max_abs_diff(&rhs) < 1e-11,
            "diff {}",
            lhs.max_abs_diff(&rhs)
        );
    }

    #[test]
    fn r5_gamma5_is_an_involution() {
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let psi = Fermion5::random(g.clone(), 4, 168);
        assert_eq!(r5_gamma5(&r5_gamma5(&psi)).max_abs_diff(&psi), 0.0);
    }

    #[test]
    fn cg_inverts_the_normal_operator() {
        let (op, g) = setup(4);
        let b = Fermion5::random(g.clone(), 4, 169);
        let (x, report) = cg_dwf(&op, &b, 1e-8, 3000);
        assert!(report.converged, "{report:?}");
        let ax = op.ddag_d(&x);
        let mut diff = Fermion5::zero(g, 4);
        diff.sub(&ax, &b);
        assert!((diff.norm2() / b.norm2()).sqrt() < 1e-7);
    }

    #[test]
    fn mass_term_couples_only_the_boundary() {
        // Changing m_f must change only the s=0 and s=Ls−1 output slices
        // (for input supported on the boundary slices' neighbours... simplest:
        // compare full operators on the same input).
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 170);
        let psi = Fermion5::random(g.clone(), 4, 171);
        let a = DomainWall::new(u.clone(), 4, 1.8, 0.04).apply(&psi);
        let b = DomainWall::new(u, 4, 1.8, 0.9).apply(&psi);
        assert!(a.slices[0].max_abs_diff(&b.slices[0]) > 1e-6);
        assert!(a.slices[3].max_abs_diff(&b.slices[3]) > 1e-6);
        for s in 1..3 {
            assert_eq!(
                a.slices[s].max_abs_diff(&b.slices[s]),
                0.0,
                "bulk slice {s}"
            );
        }
    }

    #[test]
    fn instruction_count_scales_linearly_in_ls() {
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 172);
        let mut counts = Vec::new();
        for ls in [2usize, 4, 8] {
            let op = DomainWall::new(u.clone(), ls, 1.8, 0.04);
            let psi = Fermion5::random(g.clone(), ls, 173);
            g.engine().ctx().counters().reset();
            let _ = op.apply(&psi);
            counts.push(g.engine().ctx().counters().total() as f64 / ls as f64);
        }
        // Per-slice cost is Ls-independent (within a few percent).
        for w in counts.windows(2) {
            assert!((w[0] - w[1]).abs() < 0.05 * w[0], "{counts:?}");
        }
    }
}
