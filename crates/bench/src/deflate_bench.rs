//! The `deflation` section of the solver document: low-mode deflation and
//! the coarse-grid preconditioner on the thermalized configuration
//! ([`Thermalized`] says why it must be thermalized).
//!
//! Three legs on the same operator:
//!
//! - **undeflated** — plain [`cg`] over the N-RHS batch.
//! - **deflated** — CG on the batch from the Galerkin guess
//!   ([`galerkin_guess`]) of a thick-restart Lanczos subspace built once on
//!   `M†M`.
//! - **coarse** — CG on RHS 0 in [`CoarseSpace::two_level`]: the two-level
//!   preconditioner assembled from the same subspace's cell-blocked
//!   near-null vectors.
//!
//! Every iteration count and eigenvalue is a pure function of the seeded
//! configuration (canonical reductions make them VL- and thread-invariant).
//! What the subspace costs to build and a deflated batch saves on a clock is
//! stackbench's business, not this section's.

use crate::doc::{get_num, num, nums, obj};
use crate::solver_bench::Thermalized;
use grid::krylov::{self, Start, Vector};
use grid::prelude::*;
use qcd_deflate::{galerkin_guess, lanczos, CoarseSpace, LanczosParams};
use qcd_trace::Json;

/// The sizes of the deflation legs (the seeds, the iteration budget and the
/// 2⁴ blocking cell are fixed). Exported as configuration members: a
/// comparison of runs of different shapes fails on them.
#[derive(Debug, Clone, PartialEq)]
pub struct DeflationConfig {
    /// Eigenpairs the Lanczos subspace holds.
    pub nev: usize,
    /// Thick-restart basis size.
    pub m: usize,
    /// Eigenpair residual tolerance `‖M†M v − θv‖ ≤ eig_tol`.
    pub eig_tol: f64,
    /// Restart budget of the eigensolver.
    pub max_restarts: usize,
    /// Right-hand sides in the batch.
    pub nrhs: usize,
    /// Relative solve tolerance of all three legs.
    pub tol: f64,
}

impl Default for DeflationConfig {
    /// The CI recipe: eight pairs at 1e-8 from a basis of 24, sixteen
    /// right-hand sides solved to 1e-8.
    fn default() -> Self {
        DeflationConfig {
            nev: 8,
            m: 24,
            eig_tol: 1e-8,
            max_restarts: 80,
            nrhs: 16,
            tol: 1e-8,
        }
    }
}

/// Seed of the Lanczos starting vector.
const EIG_SEED: u64 = 99;
/// Seed base of the random right-hand sides (`RHS_SEED + j`).
const RHS_SEED: u64 = 401;
/// Iteration budget per RHS.
const MAX_ITER: usize = 2000;
/// Blocking cell of the coarse space.
const CELL: [usize; 4] = [2, 2, 2, 2];

/// Build the subspace, run all three legs, and return the section. Errors
/// (eigensolver or any solve not converging, an unusable recipe) abort the
/// benchmark — a half-measured comparison is not an artifact.
pub fn run(therm: &Thermalized, cfg: &DeflationConfig) -> Result<Json, String> {
    if cfg.nrhs == 0 || cfg.nev == 0 {
        return Err("the deflation legs need nev > 0 and nrhs > 0".into());
    }
    let op = &therm.op;
    let params = LanczosParams {
        nev: cfg.nev,
        m: cfg.m,
        tol: cfg.eig_tol,
        max_restarts: cfg.max_restarts,
    };
    let start = FermionField::random(op.grid().clone(), EIG_SEED);
    let (sub, eig) = lanczos(op, &params, start, op.mass);
    if !eig.converged {
        return Err(format!(
            "eigensolver did not converge within {} restarts (nev {}, m {})",
            cfg.max_restarts, cfg.nev, cfg.m
        ));
    }

    let fields: Vec<FermionField> = (0..cfg.nrhs)
        .map(|j| FermionField::random(op.grid().clone(), RHS_SEED + j as u64))
        .collect();
    let block = FermionBlock::from_fields(&fields);
    let total = |per_rhs: &[usize]| per_rhs.iter().sum::<usize>() as f64;

    let (_, plain) = cg(op, &block, cfg.tol, MAX_ITER);
    if plain.converged.iter().any(|&c| !c) {
        return Err("undeflated block solve did not converge".into());
    }
    let span = qcd_trace::span!("solver.deflate", op.grid().engine().ctx());
    let (_, defl) = krylov::cg_solve(
        &mut op.normal(&mut block.zero_like()),
        &block,
        Start::Guess(galerkin_guess(&sub, op.mass, &block)),
        cfg.tol,
        MAX_ITER,
        span,
        "solver.defl_block_cg",
        krylov::no_observer,
    );
    if defl.converged.iter().any(|&c| !c) {
        return Err("deflated block solve did not converge".into());
    }
    let mut tmp = FermionField::zero(op.grid().clone());
    let cs = CoarseSpace::build(op.normal(&mut tmp), &sub.vectors, CELL);
    let span = qcd_trace::span!("mg.coarse", op.grid().engine().ctx());
    let (_, coarse) = krylov::cg_solve(
        &mut cs.two_level(op.normal(&mut tmp), None),
        &fields[0],
        Start::Zero,
        cfg.tol,
        MAX_ITER,
        span,
        "solver.coarse_pcg",
        krylov::no_observer,
    );
    if !coarse.converged {
        return Err("coarse-preconditioned solve did not converge".into());
    }

    let (undeflated, deflated) = (
        total(&plain.per_rhs_iterations),
        total(&defl.per_rhs_iterations),
    );
    Ok(obj(therm.recipe().into_iter().chain([
        ("nev", num(cfg.nev as f64)),
        ("basis", num(cfg.m as f64)),
        ("eig_tol", num(cfg.eig_tol)),
        ("eig_seed", num(EIG_SEED as f64)),
        ("nrhs", num(cfg.nrhs as f64)),
        ("rhs_seed", num(RHS_SEED as f64)),
        ("tol", num(cfg.tol)),
        ("cell", nums(&CELL)),
        ("plaquette", num(therm.plaquette)),
        ("eig_restarts", num(eig.restarts as f64)),
        ("eig_mvps", num(eig.mvps as f64)),
        ("lambda_min", num(sub.values[0])),
        ("lambda_max", num(sub.values[sub.nev() - 1])),
        ("undeflated_iters", num(undeflated)),
        ("deflated_iters", num(deflated)),
        (
            "undeflated_rhs0_iters",
            num(plain.per_rhs_iterations[0] as f64),
        ),
        ("coarse_rhs0_iters", num(coarse.iterations as f64)),
        ("iter_gain", num(undeflated / deflated)),
    ])))
}

/// Gates: the deflated N-RHS batch beats the undeflated one in total
/// iterations, and the coarse-grid two-level preconditioner beats plain CG
/// on RHS 0 in iterations.
pub fn check(section: &Json) -> Result<(), String> {
    let n = |key: &str| get_num(section, key);
    let (deflated, undeflated) = (n("deflated_iters")?, n("undeflated_iters")?);
    if deflated >= undeflated {
        return Err(format!(
            "deflation gained nothing: {deflated} deflated iterations vs {undeflated} undeflated"
        ));
    }
    let (coarse, plain) = (n("coarse_rhs0_iters")?, n("undeflated_rhs0_iters")?);
    if coarse >= plain {
        return Err(format!(
            "coarse preconditioner gained nothing: {coarse} iterations vs {plain} plain CG"
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A shrunken recipe for test wall-clock: four pairs at 1e-6 on the
    /// [4,4,2,2] thermalized fixture of the eigenpair property suite.
    pub(crate) fn small_cfg() -> DeflationConfig {
        DeflationConfig {
            nev: 4,
            eig_tol: 1e-6,
            max_restarts: 40,
            nrhs: 2,
            tol: 1e-6,
            ..DeflationConfig::default()
        }
    }

    fn small_therm() -> Thermalized {
        Thermalized::new([4, 4, 2, 2], 10)
    }

    #[test]
    fn the_section_shows_modes_worth_deflating() {
        let therm = small_therm();
        let d = run(&therm, &small_cfg()).unwrap();
        let n = |key: &str| get_num(&d, key).unwrap();
        assert!(n("plaquette") > 0.0 && n("plaquette") < 1.0);
        assert!(n("lambda_min") > 0.0 && n("lambda_min") <= n("lambda_max"));
        assert!(n("deflated_iters") > 0.0);
        assert!(
            n("deflated_iters") < n("undeflated_iters"),
            "no iteration gain: {} vs {}",
            n("deflated_iters"),
            n("undeflated_iters")
        );
        assert!(n("iter_gain") > 1.0);
        assert_eq!(d.get("lattice"), Some(&nums(&[4, 4, 2, 2])));
        check(&d).unwrap();
    }

    #[test]
    fn gates_pass_at_the_bound_and_fail_just_past_it() {
        let forged = |deflated: f64, coarse: f64| {
            obj([
                ("undeflated_iters", num(1949.0)),
                ("deflated_iters", num(deflated)),
                ("undeflated_rhs0_iters", num(122.0)),
                ("coarse_rhs0_iters", num(coarse)),
            ])
        };
        check(&forged(1948.0, 121.0)).unwrap();
        assert!(check(&forged(1949.0, 121.0))
            .unwrap_err()
            .contains("deflation gained nothing"));
        assert!(check(&forged(1948.0, 122.0))
            .unwrap_err()
            .contains("coarse preconditioner gained nothing"));
        assert!(check(&obj([("deflated_iters", num(1.0))]))
            .unwrap_err()
            .contains("`undeflated_iters` missing"));
    }

    #[test]
    fn degenerate_recipes_are_refused() {
        let therm = small_therm();
        let with = |edit: fn(&mut DeflationConfig)| {
            let mut cfg = small_cfg();
            edit(&mut cfg);
            run(&therm, &cfg)
        };
        assert!(with(|c| c.nrhs = 0).is_err());
        assert!(with(|c| c.nev = 0).is_err());
        // A basis too small to converge is an error, not a silent artifact.
        let starved = with(|c| {
            c.m = 6;
            c.max_restarts = 2;
        });
        assert!(starved.unwrap_err().contains("did not converge"));
    }
}
