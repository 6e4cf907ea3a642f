//! Deflated Conjugate Gradient: project the low modes out of every solve.
//!
//! CG's iteration count scales with `√κ` of the operator, and for `M†M`
//! near the physical mass the condition number is dominated by a handful
//! of tiny eigenvalues. Given a converged [`Subspace`] those modes are
//! solved *exactly* in one shot — the **Galerkin initial guess**
//! `x₀ = V (V†AV)⁻¹ V† b`, which for Ritz pairs is simply
//! `x₀ = Σ_i v_i ⟨v_i, b⟩ / θ_i` — and CG starts from the residual
//! `r₀ = b − A x₀` whose low-mode content is already at the eigensolver's
//! residual level. The Krylov iteration then only has to traverse the
//! deflated spectrum `[θ_{nev}, λ_max]`, cutting iterations while each
//! iteration costs exactly what plain CG costs (the subspace is touched
//! only in the setup), so an iteration win is a wall-clock win by
//! construction.
//!
//! The batched [`defl_block_cg`] recycles one subspace across a whole
//! N-RHS [`FermionBlock`] — the amortization the eigensolver setup is paid
//! back by — with the per-RHS guarantee the rest of the stack is built on:
//! RHS `j` of a block solve is **bit-identical** to [`defl_cg`] of that
//! RHS alone, for any batch width and composition. [`defl_ladder_solve`]
//! composes deflation with the precision ladder: the Galerkin guess seeds
//! the outer double-precision loop.
//!
//! There is no recurrence here: deflation is a *start* of the one CG
//! driver ([`grid::krylov`]) — [`Start::Guess`] in the canonical space.
//!
//! Determinism follows the same rule as the eigensolver: every steering
//! scalar is a canonical reduction, every field update is pointwise, so
//! residual histories are bit-identical across vector lengths and thread
//! counts.

use crate::lanczos::Subspace;
use grid::dirac::WilsonDirac;
use grid::field::{FermionBlock, FermionKind};
use grid::krylov::{self, Canonical, CgSpace, Start, Vector};
use grid::mixed::{ladder_solve_from, to_precision, to_precision_into, LadderConfig, LadderReport};
use grid::reduce::canonical_sum;
use grid::solver::{BlockCgState, BlockSolveReport, CgState, SolveReport};
use grid::{FermionField, Field, Grid};
use sve::{SveFloat, F16};

/// Check that `sub` belongs to `op`: same lattice, bit-identical mass.
fn assert_subspace_matches<E: SveFloat>(op: &WilsonDirac<E>, sub: &Subspace<E>) {
    assert!(sub.nev() > 0, "deflation needs a non-empty subspace");
    assert_eq!(
        sub.vectors[0].grid().fdims(),
        op.grid().fdims(),
        "subspace lattice does not match the operator"
    );
    assert_eq!(
        sub.mass.to_bits(),
        op.mass.to_bits(),
        "subspace was built at mass {} but the operator solves at {} — \
         a subspace deflates M†M at exactly one mass",
        sub.mass,
        op.mass
    );
}

/// The Galerkin (exact-deflation) initial guess for `A x = b`:
/// `x₀ = Σ_i v_i ⟨v_i, b⟩ / θ_i`. For Ritz pairs `V†AV = diag(θ)`, so this
/// is `V (V†AV)⁻¹ V† b` without a dense solve. All inner products are
/// canonical; the accumulation order over `i` is fixed.
pub fn galerkin_guess<E: SveFloat>(
    sub: &Subspace<E>,
    b: &Field<FermionKind, E>,
) -> Field<FermionKind, E> {
    let mut x0 = Field::<FermionKind, E>::zero(b.grid().clone());
    for (v, &theta) in sub.vectors.iter().zip(sub.values.iter()) {
        let c = v.canonical_inner(b);
        x0.axpy_complex(c.scale(1.0 / theta), v);
    }
    x0
}

/// The Galerkin guess with the subspace **applied at binary16**: the Ritz
/// vectors and the right-hand side are re-laid-out to F16 fields, the
/// projection coefficients `⟨v_i, b⟩` are canonical reductions over the
/// f16 data, and the accumulation `x₀ += (c_i/θ_i) v_i` runs in f16
/// arithmetic. Storing and streaming the subspace at 2 bytes/scalar is
/// the point — a 16-vector subspace applied this way moves a quarter of
/// the bytes of the f64 [`galerkin_guess`].
///
/// The guess is an *initial iterate*, so binary16 grain (`~5·10⁻⁴`
/// relative) is harmless: whatever low-mode content the rounding
/// re-introduces, the outer loop it seeds removes again. Use it to seed
/// defect-correction solvers ([`defl_ladder_solve`]), not as a
/// standalone projector.
pub fn galerkin_guess_f16(sub: &Subspace<f64>, b: &FermionField) -> FermionField {
    let g = b.grid();
    let g16 = Grid::<F16>::new(g.fdims(), g.vl(), g.engine().backend());
    let b16 = to_precision(b, &g16);
    let mut x0_16 = Field::<FermionKind, F16>::zero(g16.clone());
    for (v, &theta) in sub.vectors.iter().zip(sub.values.iter()) {
        let v16 = to_precision(v, &g16);
        let c = v16.canonical_inner(&b16);
        x0_16.axpy_complex(c.scale(1.0 / theta), &v16);
    }
    let mut x0 = FermionField::zero(g.clone());
    to_precision_into(&x0_16, &mut x0);
    x0
}

/// Deflation composed with the three-level precision ladder: solve
/// `M x = b` (not the normal equations) seeded by the **f16-applied**
/// Galerkin guess for `x = (M†M)⁻¹ M† b`, then run the f64 ↔ f32 ↔ f16
/// reliable-update ladder from there. The subspace projection and the
/// bulk of the Krylov work both execute on the binary16 compute tier;
/// the f64 outer loop still certifies the final residual, so the
/// accuracy contract of [`ladder_solve_from`] is untouched.
pub fn defl_ladder_solve(
    op: &WilsonDirac<f64>,
    sub: &Subspace<f64>,
    b: &FermionField,
    cfg: &LadderConfig,
) -> (FermionField, LadderReport) {
    assert_subspace_matches(op, sub);
    let _span = qcd_trace::span!("solver.deflate", op.grid().engine().ctx());
    let rhs_dag = op.apply_dag(b);
    let x0 = galerkin_guess_f16(sub, &rhs_dag);
    ladder_solve_from(op, b, x0, cfg)
}

/// Deflated Conjugate Gradient on the Wilson normal equations:
/// `M†M x = b` from the Galerkin guess of `sub`, with every steering
/// scalar canonical. Runs under a `solver.deflate` span with health
/// monitoring in the `solver.defl_cg` region.
pub fn defl_cg<E: SveFloat>(
    op: &WilsonDirac<E>,
    sub: &Subspace<E>,
    b: &Field<FermionKind, E>,
    tol: f64,
    max_iter: usize,
) -> (Field<FermionKind, E>, SolveReport) {
    assert_subspace_matches(op, sub);
    let grid = b.grid().clone();
    let span = qcd_trace::span!("solver.deflate", grid.engine().ctx());
    let mut tmp = b.zero_like();
    let mut buf = vec![0.0; grid.volume()];
    let (x, report) = krylov::cg_solve(
        &mut Canonical::new(op, &mut tmp, &mut buf),
        b,
        Start::<CgState<E>>::Guess(galerkin_guess(sub, b)),
        tol,
        max_iter,
        span,
        "solver.defl_cg",
        krylov::no_observer,
    );
    (x, report.into_single())
}

/// The block counterpart of [`Canonical`]: the batched Wilson normal
/// operator with per-RHS canonical scalars — each RHS's sites scattered
/// into global lexicographic order and summed through the fixed chunk
/// tree, bit-identical to the canonical reductions of the extracted RHS.
struct BlockCanonical<'a, E: SveFloat> {
    op: &'a WilsonDirac<E>,
    tmp: FermionBlock<E>,
    /// `nrhs × volume` scatter buffer, RHS-major.
    buf: Vec<f64>,
}

impl<E: SveFloat> BlockCanonical<'_, E> {
    fn sums(&self, out: &mut [f64]) {
        let vol = self.tmp.grid().volume();
        for (o, row) in out.iter_mut().zip(self.buf.chunks_exact(vol)) {
            *o = canonical_sum(row);
        }
    }
}

impl<E: SveFloat> CgSpace for BlockCanonical<'_, E> {
    type V = FermionBlock<E>;
    const CANONICAL: bool = true;

    fn apply(&mut self, p: &Self::V, ap: &mut Self::V, curv: &mut [f64]) {
        self.op.mdag_m_block_into(p, &mut self.tmp, ap);
        p.site_inners_re_lex(ap, &mut self.buf);
        self.sums(curv);
    }

    fn operator(&mut self, x: &Self::V, ax: &mut Self::V, _unused: &mut [f64]) {
        self.op.mdag_m_block_into(x, &mut self.tmp, ax);
    }

    fn norms2(&mut self, v: &Self::V, out: &mut [f64]) {
        v.site_norms2_lex(&mut self.buf);
        self.sums(out);
    }
}

/// Deflated **block** Conjugate Gradient: solve `M†M x_j = b_j` for every
/// RHS of `b` at once, recycling one subspace across the whole batch. The
/// Galerkin guess is computed per RHS with the exact [`galerkin_guess`]
/// operation sequence, and the masked batch recurrence freezes converged
/// RHS without perturbing the rest — RHS `j` (solution, history, report)
/// is bit-identical to a standalone [`defl_cg`] of `b_j`.
pub fn defl_block_cg<E: SveFloat>(
    op: &WilsonDirac<E>,
    sub: &Subspace<E>,
    b: &FermionBlock<E>,
    tol: f64,
    max_iter: usize,
) -> (FermionBlock<E>, BlockSolveReport) {
    assert_subspace_matches(op, sub);
    let grid = b.grid().clone();
    let nrhs = b.nrhs();
    let span = qcd_trace::span!("solver.deflate", grid.engine().ctx());
    // Per-RHS Galerkin guesses through the single-field path (identical
    // bits to defl_cg's setup), assembled into the block iterate.
    let mut x0 = b.zero_like();
    for j in 0..nrhs {
        x0.set_rhs(j, &galerkin_guess(sub, &b.rhs_field(j)));
    }
    let mut space = BlockCanonical {
        op,
        tmp: b.zero_like(),
        buf: vec![0.0; nrhs * grid.volume()],
    };
    krylov::cg_solve(
        &mut space,
        b,
        Start::<BlockCgState<E>>::Guess(x0),
        tol,
        max_iter,
        span,
        "solver.defl_block_cg",
        krylov::no_observer,
    )
}
