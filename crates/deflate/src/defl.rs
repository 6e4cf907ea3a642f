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
//! of [`galerkin_guess`] in any operator's [`Dirac::normal`] space;
//! [`defl_cg`] is that composition for the Wilson operator. Precision
//! composes the same way: the guess of the subspace vectors and the
//! right-hand side `to_precision`-converted to binary16 (a quarter of the
//! f64 bytes), widened back, seeds `ladder_solve_from` — an initial
//! iterate, so the outer loop removes whatever binary16 grain it carries.
//!
//! Determinism follows the same rule as the eigensolver: every steering
//! scalar is a canonical reduction, every field update is pointwise, so
//! residual histories are bit-identical across vector lengths and thread
//! counts.

use grid::dirac::{Dirac, WilsonDirac};
use grid::field::FermionKind;
use grid::krylov::{self, Start, Vector};
use grid::Field;
use qcd_io::Subspace;
use sve::SveFloat;

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
/// A right-hand side has the shape of the subspace's vectors — a field, a
/// 5-d fermion, a rank's slab — and a block's RHS `j` is one field, which
/// goes through the single-field operation sequence, so it is
/// bit-identical to the guess for that field alone. All inner products
/// are canonical; the accumulation order over `i` is fixed.
pub fn galerkin_guess<V: Vector>(sub: &Subspace<V::E>, b: &V) -> V {
    let project = |bj: &Field<FermionKind, V::E>| {
        let mut x0 = Field::zero_width(bj.grid().clone(), bj.width());
        for (v, &theta) in sub.vectors.iter().zip(sub.values.iter()) {
            let c = v.inner(bj);
            x0.axpy_complex(c.scale(1.0 / theta), v);
        }
        x0
    };
    let n = b.nrhs();
    let x0 = if n == 1 {
        project(b.field())
    } else {
        let guesses: Vec<_> = (0..n).map(|j| project(&b.field().rhs_field(j))).collect();
        Field::from_fields(&guesses)
    };
    V::from_field(x0, n).expect("the guess has the shape of the right-hand side")
}

/// Deflated Conjugate Gradient on the Wilson normal equations:
/// `M†M x_j = b_j` from the Galerkin guess of `sub`, for one field or for
/// every RHS of a block at once, with every steering scalar canonical. The
/// masked batch recurrence freezes converged RHS without perturbing the
/// rest — RHS `j` (solution, history, report) is bit-identical to a
/// standalone solve of `b_j`. Runs under a `solver.deflate` span with
/// health monitoring in the `solver.defl_cg` region (`solver.defl_block_cg`
/// for a block).
pub fn defl_cg<V: Vector>(
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
