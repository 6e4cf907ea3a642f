//! Multigrid-style coarse-grid correction: a two-level preconditioner for
//! CG built from blocked near-null vectors.
//!
//! Deflation (see [`crate::defl`]) removes the low modes it has *exactly*;
//! the coarse-grid correction removes the whole *subspace they locally
//! span*. The lattice is blocked into cells, the near-null vectors are
//! orthonormalized cell by cell (each vector chopped into per-cell
//! fragments — the classic "blocking" that gives the coarse space local
//! resolution), and their span defines a prolongator `P`. The coarse
//! operator is the Galerkin triple product `A_c = P† A P`, assembled
//! column by column (prolong a unit coarse vector, apply the fine
//! operator, restrict) and factored once by a deterministic complex
//! Cholesky. The preconditioner is then
//!
//! ```text
//! M⁻¹ r = (I − P P†) r + P A_c⁻¹ P† r
//! ```
//!
//! — identity on the complement of the coarse space, the exact coarse
//! solve on it. Both terms are Hermitian positive-definite, so `M⁻¹` is a
//! valid (fixed, linear) CG preconditioner, and
//! [`CoarseSpace::two_level`] is the space the Krylov driver runs
//! preconditioned CG in.
//!
//! # Determinism
//!
//! The intergrid transfers walk sites in **global lexicographic order**
//! through the layout-independent scalar accessors (`peek`/`poke`), the
//! coarse solve is fixed-order scalar arithmetic, and the fine-grid
//! scalars are canonical reductions — the whole preconditioned solve is
//! bit-identical across vector lengths and thread counts, like everything
//! else in this crate.

use crate::dense::Cholesky;
use grid::dirac::{Dirac, WilsonDirac};
use grid::field::FermionKind;
use grid::krylov::CgSpace;
use grid::layout::{delex, lex};
use grid::mixed::{to_precision, to_precision_into};
use grid::{Complex, Coor, Field, FieldKind, Grid};
use std::sync::Arc;
use sve::{SveFloat, F16};

/// A built two-level coarse space: blocked orthonormal near-null vectors
/// plus the factored Galerkin coarse operator.
pub struct CoarseSpace<E: SveFloat = f64> {
    grid: Arc<Grid<E>>,
    /// Coarse-lattice extent per dimension (`fdims / cell`).
    cdims: Coor,
    /// Sites of each cell, in global lexicographic order.
    cell_sites: Vec<Vec<Coor>>,
    /// Near-null vectors after per-cell orthonormalization. `chi[k]`
    /// restricted to one cell is one column of the prolongator.
    chi: Vec<Field<FermionKind, E>>,
    /// Cholesky factor of the Galerkin coarse operator `P† A P`.
    chol: Cholesky,
}

impl<E: SveFloat> CoarseSpace<E> {
    /// Dimension of the coarse space (`ncells × nv`).
    pub fn ncoarse(&self) -> usize {
        self.cell_sites.len() * self.chi.len()
    }

    /// Number of near-null vectors per cell.
    pub fn nv(&self) -> usize {
        self.chi.len()
    }

    /// Block `near_null` over cells of extent `cell`, orthonormalize per
    /// cell, and assemble + factor the Galerkin coarse operator for `op`.
    /// Runs under an `mg.coarse` span; the coarse dimension lands in the
    /// `mg.coarse.dim` histogram.
    pub fn build(op: &WilsonDirac<E>, near_null: &[Field<FermionKind, E>], cell: Coor) -> Self {
        let grid = op.grid().clone();
        let span = qcd_trace::span!("mg.coarse", grid.engine().ctx());
        let nv = near_null.len();
        assert!(nv > 0, "need at least one near-null vector");
        let fdims = grid.fdims();
        let mut cdims = [0usize; 4];
        for d in 0..4 {
            assert!(
                cell[d] >= 1 && fdims[d].is_multiple_of(cell[d]),
                "cell extent {} does not divide lattice extent {} in dim {d}",
                cell[d],
                fdims[d]
            );
            cdims[d] = fdims[d] / cell[d];
        }
        let ncells: usize = cdims.iter().product();

        // Bucket global sites into cells, preserving lexicographic order
        // within each bucket.
        let mut cell_sites: Vec<Vec<Coor>> = vec![Vec::new(); ncells];
        for idx in 0..grid.volume() {
            let x = delex(idx, &fdims);
            let cx = [
                x[0] / cell[0],
                x[1] / cell[1],
                x[2] / cell[2],
                x[3] / cell[3],
            ];
            cell_sites[lex(&cx, &cdims)].push(x);
        }

        // Per-cell modified Gram–Schmidt over the near-null vectors, in
        // fixed (cell, vector, site) order through the scalar accessors.
        let mut chi: Vec<Field<FermionKind, E>> = near_null.to_vec();
        for sites in &cell_sites {
            for k in 0..nv {
                for l in 0..k {
                    let mut h = Complex::ZERO;
                    for x in sites {
                        for comp in 0..FermionKind::NCOMP {
                            h += chi[l].peek(x, comp).conj() * chi[k].peek(x, comp);
                        }
                    }
                    for x in sites {
                        for comp in 0..FermionKind::NCOMP {
                            let z = chi[k].peek(x, comp) - h * chi[l].peek(x, comp);
                            chi[k].poke(x, comp, z);
                        }
                    }
                }
                let mut n2 = 0.0;
                for x in sites {
                    for comp in 0..FermionKind::NCOMP {
                        n2 += chi[k].peek(x, comp).norm2();
                    }
                }
                assert!(
                    n2 > 0.0,
                    "near-null vectors are rank-deficient on a cell \
                     (vector {k}): coarse space would be singular"
                );
                let inv = 1.0 / n2.sqrt();
                for x in sites {
                    for comp in 0..FermionKind::NCOMP {
                        let z = chi[k].peek(x, comp).scale(inv);
                        chi[k].poke(x, comp, z);
                    }
                }
            }
        }

        // Galerkin triple product, column by column: A_c e = P† A P e.
        let nc = ncells * nv;
        let mut half = CoarseSpace {
            grid: grid.clone(),
            cdims,
            cell_sites,
            chi,
            chol: Cholesky::factor(&[Complex::ONE], 1), // placeholder
        };
        let mut ac = vec![Complex::ZERO; nc * nc];
        let mut fine = Field::<FermionKind, E>::zero(grid.clone());
        let mut tmp = Field::<FermionKind, E>::zero(grid.clone());
        let mut afine = Field::<FermionKind, E>::zero(grid.clone());
        let mut unit = vec![Complex::ZERO; nc];
        for col in 0..nc {
            unit[col] = Complex::ONE;
            half.prolong_into(&unit, &mut fine);
            unit[col] = Complex::ZERO;
            op.mdag_m_into(&fine, &mut tmp, &mut afine);
            let column = half.restrict(&afine);
            for (row, &z) in column.iter().enumerate() {
                ac[row * nc + col] = z;
            }
        }
        // A is Hermitian, so A_c is too up to rounding; symmetrize exactly
        // so the Cholesky sees a Hermitian matrix bit for bit.
        for i in 0..nc {
            for j in 0..i {
                let z = (ac[i * nc + j] + ac[j * nc + i].conj()).scale(0.5);
                ac[i * nc + j] = z;
                ac[j * nc + i] = z.conj();
            }
            ac[i * nc + i] = Complex::new(ac[i * nc + i].re, 0.0);
        }
        half.chol = Cholesky::factor(&ac, nc);
        qcd_trace::histogram("mg.coarse.dim").record(nc as u64);
        span.finish();
        half
    }

    /// Restriction `P† f`: coarse coefficient `(c, k)` is the inner
    /// product of `chi_k`'s cell-`c` fragment with `f`.
    pub fn restrict(&self, f: &Field<FermionKind, E>) -> Vec<Complex> {
        let nv = self.chi.len();
        let mut y = vec![Complex::ZERO; self.ncoarse()];
        for (c, sites) in self.cell_sites.iter().enumerate() {
            for (k, chi) in self.chi.iter().enumerate() {
                let mut s = Complex::ZERO;
                for x in sites {
                    for comp in 0..FermionKind::NCOMP {
                        s += chi.peek(x, comp).conj() * f.peek(x, comp);
                    }
                }
                y[c * nv + k] = s;
            }
        }
        y
    }

    /// Prolongation `out = P y`: each coarse coefficient scales its
    /// vector's cell fragment into the fine field.
    pub fn prolong_into(&self, y: &[Complex], out: &mut Field<FermionKind, E>) {
        assert_eq!(y.len(), self.ncoarse(), "coarse vector length mismatch");
        let nv = self.chi.len();
        out.data_mut().fill(E::zero());
        for (c, sites) in self.cell_sites.iter().enumerate() {
            for (k, chi) in self.chi.iter().enumerate() {
                let coef = y[c * nv + k];
                if coef == Complex::ZERO {
                    continue;
                }
                for x in sites {
                    for comp in 0..FermionKind::NCOMP {
                        let z = out.peek(x, comp) + coef * chi.peek(x, comp);
                        out.poke(x, comp, z);
                    }
                }
            }
        }
    }

    /// Apply the two-level preconditioner:
    /// `M⁻¹ r = r + P (A_c⁻¹ P† r − P† r)`.
    pub fn precondition(&self, r: &Field<FermionKind, E>) -> Field<FermionKind, E> {
        let y = self.restrict(r);
        let mut z = y.clone();
        self.chol.solve(&mut z);
        for (zi, yi) in z.iter_mut().zip(y.iter()) {
            *zi -= *yi;
        }
        let mut correction = Field::<FermionKind, E>::zero(self.grid.clone());
        self.prolong_into(&z, &mut correction);
        correction.add_assign_field(r);
        correction
    }

    /// The coarse-lattice extent (`fdims / cell`).
    pub fn cdims(&self) -> Coor {
        self.cdims
    }

    /// The space `fine` (e.g. `op.normal(&mut tmp)` on `M†M`) preconditioned by
    /// this two-level correction, `M⁻¹ r = (I − P P†) r + P A_c⁻¹ P† r`,
    /// for `krylov::cg_solve` with any start and observer. With a
    /// `smoother`, the additive term `p_k(A) r` joins it, computed in
    /// binary16: the coarse solve removes the low end of the spectrum, the
    /// smoother damps the high end. Every steering scalar is canonical, and
    /// convergence is tested on `|r|/|b|` like the unpreconditioned CG, so
    /// iteration counts compare directly; the benchmarks solve under an
    /// `mg.coarse` span in the `solver.coarse_pcg` region.
    pub fn two_level<'a, A: CgSpace<V = Field<FermionKind, E>>>(
        &'a self,
        fine: A,
        smoother: Option<&'a mut F16Smoother<E>>,
    ) -> TwoLevel<'a, E, A> {
        TwoLevel {
            fine,
            cs: self,
            smoother,
        }
    }
}

/// A fixed-polynomial **binary16 smoother**: [`STEPS`](Self::STEPS)
/// Richardson sweeps `s ← s + ω (r − A s)`, `ω =` [`OMEGA`](Self::OMEGA),
/// on the normal operator, run entirely in f16
/// arithmetic through the real Dirac kernels on an F16 replica of the
/// gauge field. After `k` steps `s = p_k(A) r` with
/// `p_k(A) = ω Σ_{j<k} (I − ωA)^j`, a polynomial in `A` that is Hermitian
/// positive-definite whenever `0 < ω ≤ 1/λ_max` — so adding it to the
/// two-level correction keeps the preconditioner HPD.
///
/// The input residual is normalized to unit norm before the f16
/// conversion (the smoother is linear, so the scale commutes out
/// exactly up to f16 rounding of the scaled field) — the same range
/// trick the solver ladder's inner tier uses, keeping the iterate clear
/// of the binary16 floor as CG drives `r` down. Every sweep is
/// pointwise fixed-order arithmetic with **no reductions**, so the
/// smoother is bit-identical across vector lengths and thread counts
/// like the rest of the preconditioner.
pub struct F16Smoother<E: SveFloat = f64> {
    op16: WilsonDirac<F16>,
    // The normalized residual `r`, the iterate `s`, `A s`, its `M s`
    // intermediate and `r − A s`, all binary16.
    r16: Field<FermionKind, F16>,
    s16: Field<FermionKind, F16>,
    t16: Field<FermionKind, F16>,
    ms16: Field<FermionKind, F16>,
    d16: Field<FermionKind, F16>,
    fine: Field<FermionKind, E>,
}

impl<E: SveFloat> F16Smoother<E> {
    /// Damping factor `1/64`: an under-estimate of `1/λ_max(M†M)` for
    /// Wilson operators anywhere near the physical region
    /// (`λ_max ≲ (8 + 2|m|)²/…` is safely below 64 on the lattices this
    /// crate targets).
    pub const OMEGA: f64 = 1.0 / 64.0;
    /// Sweep count: enough to damp the top of the spectrum, cheap enough
    /// (in f16 bytes) to disappear next to the fine operator applications
    /// of the CG iteration itself.
    pub const STEPS: usize = 4;

    /// Build the F16 replica of `op` and the smoother's fields.
    pub fn new(op: &WilsonDirac<E>) -> Self {
        let g = op.grid();
        let g16 = Grid::<F16>::new(g.fdims(), g.vl(), g.engine().backend());
        let u16 = to_precision(op.gauge(), &g16);
        let zero = Field::zero(g16);
        F16Smoother {
            op16: WilsonDirac::<F16>::new(u16, op.mass),
            r16: zero.clone(),
            s16: zero.clone(),
            t16: zero.clone(),
            ms16: zero.clone(),
            d16: zero,
            fine: Field::zero(g.clone()),
        }
    }

    /// Accumulate the smoothed residual: `out += p_k(A) r`, the polynomial
    /// applied in binary16.
    pub fn accumulate(&mut self, r: &Field<FermionKind, E>, out: &mut Field<FermionKind, E>) {
        let rn2 = r.norm2();
        if rn2.is_nan() || rn2 <= 0.0 {
            return; // smoothing a zero residual is a no-op
        }
        let scale = rn2.sqrt();
        self.fine.clone_from(r);
        self.fine.scale(1.0 / scale);
        to_precision_into(&self.fine, &mut self.r16);
        self.s16.scale(0.0);
        for _ in 0..Self::STEPS {
            self.op16
                .mdag_m_into(&self.s16, &mut self.ms16, &mut self.t16);
            self.d16.sub(&self.r16, &self.t16);
            self.s16.axpy_inplace(Self::OMEGA, &self.d16);
        }
        to_precision_into(&self.s16, &mut self.fine);
        out.axpy_inplace(scale, &self.fine);
        qcd_trace::counter("mg.smoother.f16_sweeps").add(Self::STEPS as u64);
    }
}

/// A space with the two-level correction of a [`CoarseSpace`] (plus an
/// optional [`F16Smoother`] term) as its preconditioner
/// ([`CoarseSpace::two_level`]); the recurrence, including "skip `M⁻¹` once
/// converged", is the driver's.
pub struct TwoLevel<'a, E: SveFloat, A> {
    fine: A,
    cs: &'a CoarseSpace<E>,
    smoother: Option<&'a mut F16Smoother<E>>,
}

impl<E: SveFloat, A: CgSpace<V = Field<FermionKind, E>>> CgSpace for TwoLevel<'_, E, A> {
    type V = Field<FermionKind, E>;

    fn apply(&mut self, p: &Self::V, ap: &mut Self::V, curv: &mut [f64]) {
        self.fine.apply(p, ap, curv);
    }

    fn precondition(&mut self, r: &Self::V, z: &mut Self::V, rz: &mut [f64]) -> bool {
        *z = self.cs.precondition(r);
        if let Some(sm) = self.smoother.as_deref_mut() {
            sm.accumulate(r, z);
        }
        rz[0] = r.inner(z).re;
        true
    }
}
