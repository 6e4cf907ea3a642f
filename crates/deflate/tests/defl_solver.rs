//! Behavioural tests of the deflated solvers on a thermalized gauge
//! configuration: eigenpair validation, iteration gains over plain CG,
//! per-RHS bit-identity of the batched path, and composition with the
//! precision ladder.
//!
//! A *thermalized* configuration matters here: a random gauge field has no
//! low modes (`λ_min(M†M) ≳ 2.5` even at zero quark mass, because maximal
//! link disorder pushes the additive mass renormalization far from
//! criticality), so deflation would have nothing to deflate. After a short
//! HMC equilibration the spectrum develops the small eigenvalues the
//! subspace is built to remove.

use std::sync::{Arc, OnceLock};

use grid::krylov::{self, Start, Vector};
use grid::mixed::to_precision;
use grid::prelude::*;
use qcd_deflate::{galerkin_guess, lanczos, CoarseSpace, F16Smoother, LanczosParams, Subspace};
use qcd_hmc::{HmcParams, IntegratorKind, MarkovChain};
use sve::F16;

const MASS: f64 = -0.2;
const TOL: f64 = 1e-8;

struct Fixture {
    grid: Arc<Grid>,
    op: WilsonDirac,
    sub: Subspace,
}

/// Thermalize once, build the subspace once; every test shares the result.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let grid = Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let hp = HmcParams {
            beta: 5.6,
            n_steps: 8,
            step_size: 0.0625,
            integrator: IntegratorKind::Omelyan,
        };
        let mut chain = MarkovChain::cold_start(grid.clone(), hp, 5);
        chain.thermalize(12);
        let op = WilsonDirac::new(chain.links().clone(), MASS);
        let params = LanczosParams {
            nev: 8,
            m: 24,
            tol: TOL,
            max_restarts: 80,
        };
        let (sub, rep) = lanczos(
            &op,
            &params,
            FermionField::random(op.grid().clone(), 99),
            op.mass,
        );
        assert!(
            rep.converged,
            "fixture eigensolve did not converge: {rep:?}"
        );
        Fixture { grid, op, sub }
    })
}

/// The deflated solve of `M†M x = b`: CG in the operator's normal space
/// from the Galerkin guess of `sub`, for a field or a block.
fn deflated<V: Vector<E = f64>>(
    op: &WilsonDirac,
    sub: &Subspace,
    b: &V,
    tol: f64,
    max_iter: usize,
) -> (V, V::Report)
where
    WilsonDirac: Dirac<V>,
{
    krylov::cg_solve(
        &mut op.normal(&mut b.zero_like()),
        b,
        Start::Guess(galerkin_guess(sub, op.mass, b)),
        tol,
        max_iter,
        qcd_trace::span!("solver.deflate"),
        "solver.defl_cg",
        krylov::no_observer,
    )
}

#[test]
fn lanczos_eigenpairs_are_validated_and_positive() {
    let f = fixture();
    assert_eq!(f.sub.nev(), 8);
    for i in 0..f.sub.nev() {
        assert!(
            f.sub.values[i] > 0.0,
            "M†M eigenvalue {i} not positive: {}",
            f.sub.values[i]
        );
        assert!(
            f.sub.residuals[i] <= TOL,
            "eigenpair {i} residual {} above tol",
            f.sub.residuals[i]
        );
        if i > 0 {
            assert!(
                f.sub.values[i] >= f.sub.values[i - 1],
                "values not ascending"
            );
        }
    }
    // Ritz vectors are orthonormal to solver accuracy.
    for i in 0..f.sub.nev() {
        for j in 0..=i {
            let ip = f.sub.vectors[j].inner(&f.sub.vectors[i]);
            let want = if i == j { 1.0 } else { 0.0 };
            assert!(
                (ip.re - want).abs() < 1e-7 && ip.im.abs() < 1e-7,
                "⟨v{j}, v{i}⟩ = {ip:?}"
            );
        }
    }
}

#[test]
fn deflated_cg_converges_in_fewer_iterations_than_plain_cg() {
    let f = fixture();
    let b = FermionField::random(f.grid.clone(), 11);
    let (x_plain, rep_plain) = cg(&f.op, &b, TOL, 6000);
    let (x_defl, rep_defl) = deflated(&f.op, &f.sub, &b, TOL, 6000);
    assert!(rep_plain.converged && rep_defl.converged);
    assert!(
        rep_defl.iterations < rep_plain.iterations,
        "deflation gained nothing: {} vs {} iterations",
        rep_defl.iterations,
        rep_plain.iterations
    );
    // Same solution to solver accuracy.
    let mut d = FermionField::zero(f.grid.clone());
    d.sub(&x_plain, &x_defl);
    assert!(d.norm2().sqrt() / x_plain.norm2().sqrt() < 1e-5);
}

#[test]
fn galerkin_guess_nails_in_subspace_rhs() {
    let f = fixture();
    // b = A v0: the exact solution is v0, which lies in the subspace, so
    // the Galerkin guess alone reaches the tolerance almost immediately.
    let b = f.op.mdag_m(&f.sub.vectors[0]);
    let (x, rep) = deflated(&f.op, &f.sub, &b, 1e-6, 100);
    assert!(rep.converged);
    assert!(
        rep.iterations <= 2,
        "in-subspace RHS took {} iterations",
        rep.iterations
    );
    let mut d = x.clone();
    d.sub(&x, &f.sub.vectors[0]);
    assert!(d.norm2().sqrt() < 1e-4, "solution is not v0");
}

#[test]
fn block_deflated_solve_is_bit_identical_to_single_rhs_solves() {
    let f = fixture();
    let rhss: Vec<FermionField> = (0..3)
        .map(|k| FermionField::random(f.grid.clone(), 21 + k))
        .collect();
    let solo: Vec<_> = rhss
        .iter()
        .map(|b| deflated(&f.op, &f.sub, b, TOL, 6000))
        .collect();
    let block = FermionBlock::from_fields(&rhss);
    let (x, rep) = deflated(&f.op, &f.sub, &block, TOL, 6000);
    for (j, (sx, srep)) in solo.iter().enumerate() {
        assert_eq!(rep.per_rhs_iterations[j], srep.iterations, "RHS {j}");
        assert_eq!(
            rep.residuals[j].to_bits(),
            srep.residual.to_bits(),
            "RHS {j} residual"
        );
        assert_eq!(rep.histories[j].len(), srep.history.len());
        for (a, b) in rep.histories[j].iter().zip(&srep.history) {
            assert_eq!(a.to_bits(), b.to_bits(), "RHS {j} history");
        }
        assert_eq!(x.rhs_field(j).max_abs_diff(sx), 0.0, "RHS {j} solution");
    }
}

#[test]
fn deflation_composes_with_the_mixed_precision_ladder() {
    let f = fixture();
    let b = FermionField::random(f.grid.clone(), 41);
    // The two-level ladder, cold and seeded with the Galerkin guess for
    // x = (M†M)⁻¹ M† b.
    let cfg = LadderConfig {
        inner_tol: 1e-5,
        max_outer: 50,
        max_inner: 600,
        ..LadderConfig::f32_only(TOL)
    };
    let (x_mixed, rep_mixed) = ladder_solve(&f.op, &b, &cfg);
    let x0 = galerkin_guess(&f.sub, MASS, &f.op.apply_dag(&b));
    let (x_defl, rep_defl) = ladder_solve_from(&f.op, &b, x0, &cfg);
    assert!(rep_mixed.converged && rep_defl.converged);
    assert!(
        rep_defl.f32_iterations <= rep_mixed.f32_iterations,
        "deflated ladder spent more inner iterations: {} vs {}",
        rep_defl.f32_iterations,
        rep_mixed.f32_iterations
    );
    let mut d = x_mixed.clone();
    d.sub(&x_mixed, &x_defl);
    assert!(d.norm2().sqrt() / x_mixed.norm2().sqrt() < 1e-5);
}

// The Galerkin start refuses a subspace that cannot deflate the solve, one
// refusal per test.

#[test]
#[should_panic(expected = "subspace was built at mass")]
fn wrong_mass_subspace_is_rejected() {
    let f = fixture();
    let b = FermionField::random(f.grid.clone(), 11);
    let _ = galerkin_guess(&f.sub, 0.25, &b);
}

#[test]
#[should_panic(expected = "deflation needs a non-empty subspace")]
fn empty_subspace_is_rejected() {
    let grid = Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
    let empty = Subspace {
        vectors: Vec::new(),
        values: Vec::new(),
        residuals: Vec::new(),
        mass: MASS,
    };
    let _ = galerkin_guess(&empty, MASS, &FermionField::random(grid, 11));
}

#[test]
#[should_panic(expected = "subspace lattice does not match the right-hand side")]
fn subspace_of_another_lattice_is_rejected() {
    // The vectors of a 4⁴ subspace, on a 2²×4² right-hand side.
    let f = fixture();
    let grid = Grid::new([2, 2, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
    let _ = galerkin_guess(&f.sub, MASS, &FermionField::random(grid, 11));
}

/// The coarse space of `near_null` over 2⁴ cells, built in the fused space.
fn coarse_space(f: &Fixture, near_null: &[FermionField]) -> CoarseSpace {
    let mut tmp = FermionField::zero(f.grid.clone());
    CoarseSpace::build(f.op.normal(&mut tmp), near_null, [2, 2, 2, 2])
}

/// The Galerkin guess applied at binary16: the subspace vectors and the
/// right-hand side converted, the guess taken there, and widened back.
fn galerkin_guess_at_f16(sub: &Subspace, b: &FermionField) -> FermionField {
    let g = b.grid();
    let g16 = Grid::<F16>::new(g.fdims(), g.vl(), g.engine().backend());
    let sub16 = Subspace {
        vectors: sub.vectors.iter().map(|v| to_precision(v, &g16)).collect(),
        values: sub.values.clone(),
        residuals: sub.residuals.clone(),
        mass: sub.mass,
    };
    to_precision(&galerkin_guess(&sub16, MASS, &to_precision(b, &g16)), g)
}

/// CG on `M†M` in the fused space preconditioned by `cs` (and `smoother`),
/// as the deflation benchmark runs it.
fn two_level_cg(
    f: &Fixture,
    cs: &CoarseSpace,
    smoother: Option<&mut F16Smoother>,
    b: &FermionField,
) -> (FermionField, SolveReport) {
    let mut tmp = FermionField::zero(f.grid.clone());
    let mut space = cs.two_level(f.op.normal(&mut tmp), smoother);
    let span = qcd_trace::span!("mg.coarse", f.grid.engine().ctx());
    let region = "solver.coarse_pcg";
    krylov::cg_solve(
        &mut space,
        b,
        Start::Zero,
        TOL,
        6000,
        span,
        region,
        krylov::no_observer,
    )
}

#[test]
fn two_level_cg_beats_plain_cg_on_the_thermalized_config() {
    let f = fixture();
    let cs = coarse_space(f, &f.sub.vectors);
    assert_eq!(cs.cdims(), [2, 2, 2, 2]);
    assert_eq!(cs.ncoarse(), 16 * f.sub.nev());
    let b = FermionField::random(f.grid.clone(), 11);
    let (x_plain, rep_plain) = cg(&f.op, &b, TOL, 6000);
    let (x_pcg, rep_pcg) = two_level_cg(f, &cs, None, &b);
    assert!(rep_plain.converged && rep_pcg.converged);
    assert!(
        rep_pcg.iterations < rep_plain.iterations,
        "coarse correction gained nothing: {} vs {} iterations",
        rep_pcg.iterations,
        rep_plain.iterations
    );
    let mut d = FermionField::zero(f.grid.clone());
    d.sub(&x_plain, &x_pcg);
    assert!(d.norm2().sqrt() / x_plain.norm2().sqrt() < 1e-5);
}

#[test]
fn restriction_is_the_adjoint_of_prolongation() {
    let f = fixture();
    let cs = coarse_space(f, &f.sub.vectors[..4]);
    let fine = FermionField::random(f.grid.clone(), 61);
    // Any coarse vector with deterministic non-trivial entries.
    let y: Vec<Complex> = (0..cs.ncoarse())
        .map(|k| Complex::new(0.3 + 0.01 * k as f64, -0.2 + 0.02 * k as f64))
        .collect();
    let mut py = FermionField::zero(f.grid.clone());
    cs.prolong_into(&y, &mut py);
    let rf = cs.restrict(&fine);
    // ⟨P† f, y⟩_coarse must equal ⟨f, P y⟩_fine.
    let lhs: Complex = rf
        .iter()
        .zip(&y)
        .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b);
    let rhs = fine.inner(&py);
    assert!(
        (lhs - rhs).abs() < 1e-10 * (1.0 + rhs.abs()),
        "⟨P†f, y⟩ = {lhs:?} vs ⟨f, Py⟩ = {rhs:?}"
    );
}

#[test]
fn coarse_preconditioner_is_positive_definite() {
    let f = fixture();
    let cs = coarse_space(f, &f.sub.vectors[..4]);
    for seed in [71u64, 72, 73] {
        let r = FermionField::random(f.grid.clone(), seed);
        let z = cs.precondition(&r);
        let rz = r.inner(&z);
        assert!(
            rz.re > 0.0 && rz.im.abs() < 1e-9 * rz.re,
            "⟨r, M⁻¹r⟩ = {rz:?} not real-positive (seed {seed})"
        );
    }
}

#[test]
fn f16_galerkin_guess_tracks_the_f64_projection() {
    let f = fixture();
    let b = FermionField::random(f.grid.clone(), 51);
    let x64 = galerkin_guess(&f.sub, MASS, &b);
    let x16 = galerkin_guess_at_f16(&f.sub, &b);
    let mut d = FermionField::zero(f.grid.clone());
    d.sub(&x64, &x16);
    let rel = (d.norm2() / x64.norm2()).sqrt();
    // Each projection term carries binary16 grain (~5·10⁻⁴ relative) from
    // the re-laid-out vectors, twice (inner product and accumulation).
    assert!(rel < 5e-2, "f16 projection off by {rel}");
    assert!(rel > 0.0, "suspiciously exact — f16 path not exercised?");
}

#[test]
fn deflation_composes_with_the_f16_inner_ladder() {
    let f = fixture();
    let b = FermionField::random(f.grid.clone(), 41);
    let cfg = grid::mixed::LadderConfig::new(TOL);
    let (x_plain, rep_plain) = grid::mixed::ladder_solve(&f.op, &b, &cfg);
    let x0 = galerkin_guess_at_f16(&f.sub, &f.op.apply_dag(&b));
    let (x_defl, rep_defl) = grid::mixed::ladder_solve_from(&f.op, &b, x0, &cfg);
    assert!(rep_plain.converged && rep_defl.converged);
    assert!(
        rep_defl.f16_iterations > 0,
        "f16 tier never ran: {rep_defl:?}"
    );
    // The f16-applied guess removes the low modes to binary16 grain, so
    // the deflated ladder never needs *more* total inner work.
    let inner = |r: &grid::mixed::LadderReport| r.f16_iterations + r.f32_iterations;
    assert!(
        inner(&rep_defl) <= inner(&rep_plain),
        "deflated ladder spent more inner iterations: {} vs {}",
        inner(&rep_defl),
        inner(&rep_plain)
    );
    let mut d = FermionField::zero(f.grid.clone());
    d.sub(&x_plain, &x_defl);
    assert!(d.norm2().sqrt() / x_plain.norm2().sqrt() < 1e-5);
}

#[test]
fn f16_smoothed_pcg_converges_to_the_same_solution() {
    let f = fixture();
    let cs = coarse_space(f, &f.sub.vectors);
    let b = FermionField::random(f.grid.clone(), 11);
    let (x_pcg, rep_pcg) = two_level_cg(f, &cs, None, &b);
    let mut sm = F16Smoother::new(&f.op);
    let (x_sm, rep_sm) = two_level_cg(f, &cs, Some(&mut sm), &b);
    assert!(rep_pcg.converged && rep_sm.converged);
    // The additive f16 term perturbs the preconditioner at the binary16
    // grain — it must not derail convergence (small slack over the
    // unsmoothed count covers the perturbation).
    assert!(
        rep_sm.iterations <= rep_pcg.iterations + rep_pcg.iterations / 5 + 2,
        "smoothing derailed PCG: {} vs {} iterations",
        rep_sm.iterations,
        rep_pcg.iterations
    );
    let mut d = FermionField::zero(f.grid.clone());
    d.sub(&x_pcg, &x_sm);
    assert!(d.norm2().sqrt() / x_pcg.norm2().sqrt() < 1e-5);
    // The smoother genuinely ran in binary16, and rerunning it on the
    // same right-hand side is deterministic bit for bit.
    let (x_sm2, rep_sm2) = two_level_cg(f, &cs, Some(&mut sm), &b);
    assert_eq!(rep_sm2.iterations, rep_sm.iterations);
    assert_eq!(rep_sm2.residual.to_bits(), rep_sm.residual.to_bits());
    assert_eq!(x_sm2.max_abs_diff(&x_sm), 0.0);
}

#[test]
fn galerkin_guess_is_the_projected_exact_solve() {
    let f = fixture();
    let b = FermionField::random(f.grid.clone(), 51);
    let x0 = galerkin_guess(&f.sub, MASS, &b);
    // ⟨v_i, A x₀⟩ = ⟨v_i, b⟩ for every subspace direction: the low-mode
    // part of the residual b − A x₀ vanishes to eigensolver accuracy.
    let ax0 = f.op.mdag_m(&x0);
    for (i, v) in f.sub.vectors.iter().enumerate() {
        let lhs = v.inner(&ax0);
        let rhs = v.inner(&b);
        assert!(
            (lhs - rhs).abs() < 1e-6,
            "direction {i}: ⟨v,Ax₀⟩ = {lhs:?} vs ⟨v,b⟩ = {rhs:?}"
        );
    }
}
