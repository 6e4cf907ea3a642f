//! The deflated start: project the low modes out of every solve.
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
//! There is no recurrence here, and no solver: deflation is a *start* of
//! the one CG driver ([`grid::krylov`]), `Start::Guess(galerkin_guess(..))`
//! of `cg_solve` in any operator's normal space, or of
//! `krylov::solve_normal` from the guess of `M†b`. On a block one subspace
//! serves the batch, and RHS `j` is **bit-identical** to the solve of that
//! RHS alone. At binary16, the guess of `to_precision`-converted vectors
//! and right-hand side, widened back, seeds `ladder_solve_from`, whose
//! outer loop removes the binary16 grain. Every steering scalar is a
//! canonical reduction, so residual histories are bit-identical across
//! vector lengths and thread counts.

use grid::field::FermionKind;
use grid::krylov::Vector;
use grid::Field;
use qcd_io::Subspace;

/// The Galerkin (exact-deflation) initial guess for `A x = b`, per
/// right-hand side: `x₀ = Σ_i v_i ⟨v_i, b⟩ / θ_i`. For Ritz pairs
/// `V†AV = diag(θ)`, so this is `V (V†AV)⁻¹ V† b` without a dense solve.
/// A right-hand side has the shape of the subspace's vectors — a field, a
/// 5-d fermion, a rank's slab — and a block's RHS `j` is one field, which
/// goes through the single-field operation sequence, so it is
/// bit-identical to the guess for that field alone. All inner products
/// are canonical; the accumulation order over `i` is fixed.
///
/// `mass` is the operator's, as [`lanczos`](crate::lanczos()) takes it: a subspace
/// deflates `M†M` at exactly one mass. Panics on an empty subspace, on
/// vectors of another lattice than `b`'s, and on a mass that differs from
/// the subspace's in any bit.
pub fn galerkin_guess<V: Vector>(sub: &Subspace<V::E>, mass: f64, b: &V) -> V {
    assert!(sub.nev() > 0, "deflation needs a non-empty subspace");
    assert_eq!(
        sub.vectors[0].grid().fdims(),
        b.field().grid().fdims(),
        "subspace lattice does not match the right-hand side"
    );
    assert_eq!(
        sub.mass.to_bits(),
        mass.to_bits(),
        "subspace was built at mass {} but the operator solves at {} — \
         a subspace deflates M†M at exactly one mass",
        sub.mass,
        mass
    );
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
