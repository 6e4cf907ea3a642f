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
//! A 5-d fermion is a field of width `Ls` — the slices are its right-hand
//! sides, contiguous at every 4-d site, `s` innermost as Grid stores it —
//! so the operator is **one** hopping sweep over the `Ls`-wide block: each
//! link is loaded once per site for every slice, and the `+1` and the two
//! chiral legs are site-local terms of the store. `P₊` keeps spin rows 0–1
//! and `P₋` rows 2–3 exactly, so each output word gets one chiral term
//! ([`slice_legs`]).

use crate::dirac::{gamma5, Dirac, WilsonDirac};
use crate::field::{FermionField, FermionKind, Field, GaugeField};
use crate::krylov::Vector;
use crate::mixed::Replica;
use crate::solver::SolveReport;
use crate::Grid;
use std::sync::Arc;
use sve::SveFloat;

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

/// The two 5-d hopping legs of slice `s` of `ls`, for spin rows 0–1 (kept
/// by `P₊`) and rows 2–3 (`P₋`): the source slice, and whether the leg
/// wraps around the fifth dimension (coefficient `m_f`, else `−1`). `D`
/// takes `P₋ ψ_{s+1}` and `P₊ ψ_{s−1}`; the adjoint swaps the directions.
pub(crate) fn slice_legs(ls: usize, s: usize, dagger: bool) -> [(usize, bool); 2] {
    let up = ((s + 1) % ls, s + 1 == ls);
    let down = ((s + ls - 1) % ls, s == 0);
    if dagger {
        [up, down]
    } else {
        [down, up]
    }
}

/// A 5-D fermion: a field of width `Ls`, one right-hand side per slice,
/// and one right-hand side to a Krylov solve — its norms and inner products
/// are the per-slice canonical sums added in slice order.
#[derive(Clone)]
pub struct Fermion5<E: SveFloat = f64>(Field<FermionKind, E>);

impl<E: SveFloat> Fermion5<E> {
    /// A zero 5-D fermion with `ls` slices.
    pub fn zero(grid: Arc<Grid<E>>, ls: usize) -> Self {
        Fermion5(Field::zero_width(grid, ls))
    }

    /// Deterministic random content (per-slice seeds derived from `seed`).
    pub fn random(grid: Arc<Grid<E>>, ls: usize, seed: u64) -> Self {
        let slices: Vec<Field<FermionKind, E>> = (0..ls)
            .map(|s| Field::random(grid.clone(), seed.wrapping_add(s as u64 * 7919)))
            .collect();
        Fermion5(Field::from_fields(&slices))
    }

    /// Number of 5th-dimension slices.
    pub fn ls(&self) -> usize {
        self.width()
    }
}

impl<E: SveFloat> std::ops::Deref for Fermion5<E> {
    type Target = Field<FermionKind, E>;

    fn deref(&self) -> &Field<FermionKind, E> {
        &self.0
    }
}

impl<E: SveFloat> std::ops::DerefMut for Fermion5<E> {
    fn deref_mut(&mut self) -> &mut Field<FermionKind, E> {
        &mut self.0
    }
}

/// The Shamir domain-wall operator.
pub struct DomainWall<E: SveFloat = f64> {
    wilson: WilsonDirac<E>,
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
}

impl<E: SveFloat> DomainWall<E> {
    /// The underlying 4-D Wilson operator (at mass `−M5`).
    pub fn wilson(&self) -> &WilsonDirac<E> {
        &self.wilson
    }
}

/// `D ψ` (or `D† ψ`) in one hopping sweep over the `Ls` slices, with
/// `Re ⟨dot_with, out⟩` fused when asked for.
impl<E: SveFloat> Dirac<Fermion5<E>> for DomainWall<E> {
    fn m_into(
        &self,
        psi: &Fermion5<E>,
        out: &mut Fermion5<E>,
        dagger: bool,
        dot: Option<(&Fermion5<E>, &mut [f64])>,
    ) {
        assert_eq!(psi.ls(), self.ls);
        assert_eq!(out.ls(), self.ls);
        let mass = Some(self.wilson.mass + 4.0);
        let dot = dot.map(|(d, sums)| (&d.0, sums));
        self.wilson
            .hopping_fused(psi, out, dagger, mass, dot, Some(self.mf));
    }
}

/// The same `Ls`, `M5` and `m_f` over the Wilson operator's replica.
impl<E: SveFloat> Replica for DomainWall<E> {
    type V<E2: SveFloat> = Fermion5<E2>;
    type At<E2: SveFloat> = DomainWall<E2>;

    fn replica<E2: SveFloat>(&self) -> DomainWall<E2> {
        DomainWall {
            wilson: self.wilson.replica(),
            ls: self.ls,
            m5: self.m5,
            mf: self.mf,
        }
    }
}

impl<E: SveFloat> AsRef<Arc<Grid<E>>> for DomainWall<E> {
    fn as_ref(&self) -> &Arc<Grid<E>> {
        self.wilson.grid()
    }
}

/// Apply the 5-D reflection `R5: s → Ls−1−s` composed with slice-wise γ5 —
/// the unitary involution behind domain-wall Γ5-hermiticity,
/// `D† = (R5 γ5) D (R5 γ5)`.
pub fn r5_gamma5(psi: &Fermion5) -> Fermion5 {
    let slices: Vec<FermionField> = (0..psi.ls())
        .rev()
        .map(|s| gamma5(&psi.rhs_field(s)))
        .collect();
    Fermion5(Field::from_fields(&slices))
}

/// One right-hand side stored as `Ls` fields: its scalars are the sums over
/// the slices, added in slice order.
impl<E: SveFloat> Vector for Fermion5<E> {
    type E = E;
    type Report = SolveReport;

    fn field(&self) -> &Field<FermionKind, E> {
        self
    }

    fn field_mut(&mut self) -> &mut Field<FermionKind, E> {
        self
    }

    fn from_field(f: Field<FermionKind, E>, nrhs: usize) -> Option<Self> {
        (nrhs == 1 && f.width() >= 2).then_some(Fermion5(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::spinor_comp;
    use crate::krylov::{cg_solve, no_observer, Start};
    use crate::simd::SimdBackend;
    use crate::tensor::su3::random_gauge;
    use sve::VectorLength;

    /// `out += coef · P± x` on the spin rows `P±` keeps, one `fmla` per
    /// word: a 5-d leg as it was once a sweep of its own.
    fn chiral_leg(out: &mut FermionField, coef: f64, x: &FermionField, plus: bool) {
        let grid = out.grid().clone();
        crate::sized!(grid.engine(), |eng| {
            let c_dup = eng.dup_real(coef);
            let spins = if plus { 0..2 } else { 2..4 };
            for osite in 0..grid.osites() {
                for comp in spins
                    .clone()
                    .flat_map(|s| (0..3).map(move |c| spinor_comp(s, c)))
                {
                    let (xv, sv) = (
                        eng.load(x.word(osite, comp)),
                        eng.load(out.word(osite, comp)),
                    );
                    eng.store(out.word_mut(osite, comp), eng.axpy_word(c_dup, xv, sv));
                }
            }
        })
    }

    /// The oracle: the operator slice by slice, as it was computed before
    /// it was one sweep — per slice the fused Wilson apply, then `+ψ_s`,
    /// then the up and the down chiral leg, each a sweep of its own.
    fn apply_by_slices(op: &DomainWall, psi: &Fermion5, dagger: bool) -> Fermion5 {
        let ls = op.ls;
        let slices: Vec<FermionField> = (0..ls).map(|s| psi.rhs_field(s)).collect();
        // The adjoint swaps P₋ and P₊ (they are hermitian and the shift
        // direction reverses).
        let (up_plus, dn_plus) = if dagger { (true, false) } else { (false, true) };
        let out: Vec<FermionField> = (0..ls)
            .map(|s| {
                let mut slice = FermionField::zero(psi.grid().clone());
                if dagger {
                    op.wilson.apply_dag_into(&slices[s], &mut slice);
                } else {
                    op.wilson.apply_into(&slices[s], &mut slice);
                }
                slice.axpy_inplace(1.0, &slices[s]);
                let (up, up_coef) = if s + 1 == ls {
                    (0, op.mf)
                } else {
                    (s + 1, -1.0)
                };
                chiral_leg(&mut slice, up_coef, &slices[up], up_plus);
                let (dn, dn_coef) = if s == 0 {
                    (ls - 1, op.mf)
                } else {
                    (s - 1, -1.0)
                };
                chiral_leg(&mut slice, dn_coef, &slices[dn], dn_plus);
                slice
            })
            .collect();
        Fermion5(Field::from_fields(&out))
    }

    fn bits(f: &Fermion5) -> Vec<u64> {
        f.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_sweep_is_the_slice_by_slice_operator_bit_for_bit() {
        for vl in [128, 512, 2048] {
            for threads in [1, 2] {
                rayon::set_num_threads(threads);
                let g = Grid::new([4, 4, 4, 4], VectorLength::of(vl), SimdBackend::Fcmla);
                let op = DomainWall::new(random_gauge(g.clone(), 174), 4, 1.8, 0.04);
                let psi = Fermion5::random(g.clone(), 4, 175);
                let what = format!("VL{vl} × {threads} threads");
                let want = apply_by_slices(&op, &psi, false);
                assert_eq!(bits(&op.apply(&psi)), bits(&want), "D ψ, {what}");
                let want = apply_by_slices(&op, &psi, true);
                assert_eq!(bits(&op.apply_dag(&psi)), bits(&want), "D† ψ, {what}");
            }
        }
        rayon::set_num_threads(0);
    }

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
        let (x, report) = cg_solve(
            &mut op.normal(&mut b.zero_like()),
            &b,
            Start::Zero,
            1e-8,
            3000,
            qcd_trace::span!("solver.dwf"),
            "solver.dwf",
            no_observer,
        );
        assert!(report.converged, "{report:?}");
        let ax = op.mdag_m(&x);
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
        let slice_diff = |s| a.rhs_field(s).max_abs_diff(&b.rhs_field(s));
        assert!(slice_diff(0) > 1e-6);
        assert!(slice_diff(3) > 1e-6);
        for s in 1..3 {
            assert_eq!(slice_diff(s), 0.0, "bulk slice {s}");
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
