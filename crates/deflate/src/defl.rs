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
//! [`defl_cg`] takes one field or a whole N-RHS `FermionBlock`. On a
//! block it recycles one subspace across the batch — the amortization the
//! eigensolver setup is paid back by — with the per-RHS guarantee the rest
//! of the stack is built on: RHS `j` of a block solve is **bit-identical**
//! to [`defl_cg`] of that RHS alone, for any batch width and composition.
//!
//! There is no recurrence here, and no solver per combination: deflation
//! is a *start* of the one CG driver ([`grid::krylov`]) — [`Start::Guess`]
//! in the operator's [`Dirac::normal`] space. It composes with the precision ladder the same
//! way: `ladder_solve_from(op, b, galerkin_guess_f16(sub, &op.apply_dag(b)),
//! cfg)` seeds the outer double-precision loop with the f16-applied guess.
//!
//! Determinism follows the same rule as the eigensolver: every steering
//! scalar is a canonical reduction, every field update is pointwise, so
//! residual histories are bit-identical across vector lengths and thread
//! counts.

use crate::lanczos::Subspace;
use grid::dirac::{Dirac, WilsonDirac};
use grid::field::FermionKind;
use grid::krylov::{self, Start, Stored};
use grid::mixed::{to_precision, to_precision_into};
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

/// The Galerkin (exact-deflation) initial guess for `A x = b`, per
/// right-hand side: `x₀ = Σ_i v_i ⟨v_i, b⟩ / θ_i`. For Ritz pairs
/// `V†AV = diag(θ)`, so this is `V (V†AV)⁻¹ V† b` without a dense solve.
/// All inner products are canonical; the accumulation order over `i` is
/// fixed, and a block's RHS `j` goes through the single-field operation
/// sequence, so it is bit-identical to the guess for that field alone.
pub fn galerkin_guess<V: Stored>(sub: &Subspace<V::E>, b: &V) -> V {
    let guesses: Vec<_> = (0..b.nrhs())
        .map(|j| {
            let bj = b.field().rhs_field(j);
            let mut x0 = Field::<FermionKind, V::E>::zero(bj.grid().clone());
            for (v, &theta) in sub.vectors.iter().zip(sub.values.iter()) {
                let c = v.inner(&bj);
                x0.axpy_complex(c.scale(1.0 / theta), v);
            }
            x0
        })
        .collect();
    V::from_field(Field::from_fields(&guesses), guesses.len()).expect("one field per RHS")
}

/// The Galerkin guess with the subspace **applied at binary16**: the Ritz
/// vectors and the right-hand side are re-laid-out to F16 fields, the
/// projection coefficients `⟨v_i, b⟩` are canonical reductions over the
/// f16 data (each site summed in f32), and the accumulation
/// `x₀ += (c_i/θ_i) v_i` runs in f16 arithmetic. Storing and streaming the subspace at 2 bytes/scalar is
/// the point — a 16-vector subspace applied this way moves a quarter of
/// the bytes of the f64 [`galerkin_guess`].
///
/// The guess is an *initial iterate*, so binary16 grain (`~5·10⁻⁴`
/// relative) is harmless: whatever low-mode content the rounding
/// re-introduces, the outer loop it seeds removes again. Use it to seed
/// defect-correction solvers (`ladder_solve_from`), not as a standalone
/// projector.
pub fn galerkin_guess_f16(sub: &Subspace<f64>, b: &FermionField) -> FermionField {
    let g = b.grid();
    let g16 = Grid::<F16>::new(g.fdims(), g.vl(), g.engine().backend());
    let b16 = to_precision(b, &g16);
    let mut x0_16 = Field::<FermionKind, F16>::zero(g16.clone());
    for (v, &theta) in sub.vectors.iter().zip(sub.values.iter()) {
        let v16 = to_precision(v, &g16);
        let c = v16.inner(&b16);
        x0_16.axpy_complex(c.scale(1.0 / theta), &v16);
    }
    let mut x0 = FermionField::zero(g.clone());
    to_precision_into(&x0_16, &mut x0);
    x0
}

/// Deflated Conjugate Gradient on the Wilson normal equations:
/// `M†M x_j = b_j` from the Galerkin guess of `sub`, for one field or for
/// every RHS of a block at once, with every steering scalar canonical. The
/// masked batch recurrence freezes converged RHS without perturbing the
/// rest — RHS `j` (solution, history, report) is bit-identical to a
/// standalone solve of `b_j`. Runs under a `solver.deflate` span with
/// health monitoring in the `solver.defl_cg` region (`solver.defl_block_cg`
/// for a block).
pub fn defl_cg<V: Stored>(
    op: &WilsonDirac<V::E>,
    sub: &Subspace<V::E>,
    b: &V,
    tol: f64,
    max_iter: usize,
) -> (V, V::Report)
where
    WilsonDirac<V::E>: Dirac<V>,
{
    assert_subspace_matches(op, sub);
    let grid = b.field().grid().clone();
    let span = qcd_trace::span!("solver.deflate", grid.engine().ctx());
    let mut tmp = b.zero_like();
    let mut space = op.normal(&mut tmp);
    let region = if V::BATCHED {
        "solver.defl_block_cg"
    } else {
        "solver.defl_cg"
    };
    krylov::cg_solve(
        &mut space,
        b,
        Start::Guess(galerkin_guess(sub, b)),
        tol,
        max_iter,
        span,
        region,
        krylov::no_observer,
    )
}
