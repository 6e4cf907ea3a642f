//! The deflation benchmark behind `wilson_report --bench --deflate`: the
//! `deflation` section of the `qcd-bench-solver/v1` document.
//!
//! Deflation only pays on a configuration that *has* low modes. A random
//! gauge background is maximally disordered — its additive mass
//! renormalization pushes `λ_min(M†M)` to O(1) even near zero bare mass,
//! so there is nothing to deflate and the comparison would be vacuous.
//! This benchmark therefore thermalizes a short quenched HMC chain first
//! (the ISSUE's "thermalized, not free-field" requirement): at β = 5.6 the
//! link disorder relaxes enough that `M†M` at a slightly negative bare
//! mass develops a genuine low-mode tail, and the measured comparison is
//! the one campaigns actually run.
//!
//! Three legs on the same thermalized operator:
//!
//! - **undeflated** — plain [`block_cg`] over the N-RHS batch.
//! - **deflated** — [`defl_block_cg`] from the Galerkin guess of a
//!   thick-restart Lanczos subspace built once on `M†M`.
//! - **coarse** — [`coarse_pcg`] on RHS 0: the two-level preconditioner
//!   assembled from the same subspace's cell-blocked near-null vectors.
//!
//! Every iteration count, eigenvalue, and the thermalized plaquette is a
//! pure function of the seeded configuration (canonical reductions make
//! them VL- and thread-invariant), so they hard-fail the `bench_diff`
//! gate on any drift; wall clocks and the setup-amortization crossover
//! vary with the host and only warn. The CI gate
//! ([`check_deflation_gain`]) requires the deflated batch to beat the
//! undeflated one in **total iterations and wall time**, and the coarse
//! leg to beat plain CG in iterations.

use grid::prelude::*;
use grid::Coor;
use qcd_deflate::{coarse_pcg, defl_block_cg, lanczos, CoarseSpace, LanczosParams};
use qcd_hmc::{average_plaquette_fast, HmcParams, IntegratorKind, MarkovChain};
use qcd_trace::Json;
use std::time::Instant;

/// Everything that pins the deflation benchmark problem. Exported into
/// the document's `deflation` section as config keys: `bench_diff` refuses
/// to compare runs of different shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct DeflationConfig {
    /// Lattice extents.
    pub dims: Coor,
    /// Gauge coupling of the thermalization chain.
    pub beta: f64,
    /// Thermalization trajectories from the cold start.
    pub therm: usize,
    /// RNG seed of the HMC chain.
    pub chain_seed: u64,
    /// Bare Wilson mass of the solved operator (negative: toward the
    /// critical mass, where the low-mode tail lives).
    pub mass: f64,
    /// Eigenpairs the Lanczos subspace holds.
    pub nev: usize,
    /// Thick-restart basis size.
    pub m: usize,
    /// Eigenpair residual tolerance `‖M†M v − θv‖ ≤ eig_tol`.
    pub eig_tol: f64,
    /// Restart budget of the eigensolver.
    pub max_restarts: usize,
    /// Seed of the Lanczos starting vector.
    pub eig_seed: u64,
    /// Right-hand sides in the batch.
    pub nrhs: usize,
    /// Seed base of the random right-hand sides (`rhs_seed + j`).
    pub rhs_seed: u64,
    /// Relative solve tolerance of all three legs.
    pub tol: f64,
    /// Iteration budget per RHS.
    pub max_iter: usize,
    /// Blocking cell of the coarse space.
    pub cell: Coor,
}

impl Default for DeflationConfig {
    /// The CI recipe: a 4⁴ lattice thermalized for 12 trajectories at
    /// β = 5.6 develops a clear low-mode tail at bare mass −0.2
    /// (`λ_min ≈ 0.26` vs ≈ 3 on the random start), where an 8-pair
    /// subspace cuts plain CG by roughly a quarter.
    fn default() -> Self {
        DeflationConfig {
            dims: [4, 4, 4, 4],
            beta: 5.6,
            therm: 12,
            chain_seed: 5,
            mass: -0.2,
            nev: 8,
            m: 24,
            eig_tol: 1e-8,
            max_restarts: 80,
            eig_seed: 99,
            nrhs: 16,
            rhs_seed: 401,
            tol: 1e-8,
            max_iter: 2000,
            cell: [2, 2, 2, 2],
        }
    }
}

/// Integrator of the thermalization chain (fixed: part of the recipe).
const THERM_STEPS: usize = 8;
/// MD step size of the thermalization chain.
const THERM_STEP_SIZE: f64 = 0.0625;

/// Measured deflation benchmark: the `deflation` section of the
/// `qcd-bench-solver/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct DeflationBench {
    /// The problem recipe.
    pub config: DeflationConfig,
    /// Average plaquette of the thermalized configuration — the
    /// fingerprint that the chain reproduced bit-for-bit.
    pub plaquette: f64,
    /// Restart cycles the eigensolver consumed.
    pub eig_restarts: u64,
    /// `M†M` applications the eigensolver performed.
    pub eig_mvps: u64,
    /// Wall time of the subspace build (the setup the batch amortizes).
    pub eig_wall_ns: u64,
    /// Smallest converged Ritz value.
    pub lambda_min: f64,
    /// Largest converged Ritz value.
    pub lambda_max: f64,
    /// Total CG iterations of the undeflated batch (sum over RHS).
    pub undeflated_iters: u64,
    /// Wall time of the undeflated batch solve.
    pub undeflated_wall_ns: u64,
    /// Total CG iterations of the deflated batch (sum over RHS).
    pub deflated_iters: u64,
    /// Wall time of the deflated batch solve.
    pub deflated_wall_ns: u64,
    /// Undeflated iterations of RHS 0 alone (the coarse leg's baseline).
    pub undeflated_rhs0_iters: u64,
    /// Iterations of the coarse-grid-preconditioned CG on RHS 0.
    pub coarse_rhs0_iters: u64,
    /// `undeflated_iters / deflated_iters`.
    pub iter_gain: f64,
    /// `undeflated_wall_ns / deflated_wall_ns`.
    pub wall_gain: f64,
    /// Right-hand sides after which the eigensolver setup is amortized:
    /// `eig_wall / (per-RHS wall saved)`. Zero when the deflated batch
    /// saved no wall time (the gate then fails anyway).
    pub crossover_rhs: f64,
}

/// Thermalize, build the subspace, run all three legs, and return the
/// measured section. Errors (eigensolver or any solve not converging,
/// an unusable recipe) abort the benchmark — a half-measured comparison
/// is not an artifact.
pub fn run_deflation_bench(cfg: &DeflationConfig) -> Result<DeflationBench, String> {
    if cfg.nrhs == 0 || cfg.nev == 0 {
        return Err("--deflate needs nev > 0 and nrhs > 0".into());
    }
    let g = Grid::new(cfg.dims, VectorLength::of(512), SimdBackend::Fcmla);
    let hp = HmcParams {
        beta: cfg.beta,
        n_steps: THERM_STEPS,
        step_size: THERM_STEP_SIZE,
        integrator: IntegratorKind::Omelyan,
    };
    let mut chain = MarkovChain::cold_start(g.clone(), hp, cfg.chain_seed);
    chain.thermalize(cfg.therm);
    let plaquette = average_plaquette_fast(chain.links());
    let op = WilsonDirac::new(chain.links().clone(), cfg.mass);
    drop(chain);

    let params = LanczosParams {
        nev: cfg.nev,
        m: cfg.m,
        tol: cfg.eig_tol,
        max_restarts: cfg.max_restarts,
    };
    let t0 = Instant::now();
    let (sub, eig) = lanczos(&op, &params, cfg.eig_seed);
    let eig_wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
    if !eig.converged {
        return Err(format!(
            "eigensolver did not converge within {} restarts (nev {}, m {})",
            cfg.max_restarts, cfg.nev, cfg.m
        ));
    }

    let fields: Vec<FermionField> = (0..cfg.nrhs)
        .map(|j| FermionField::random(g.clone(), cfg.rhs_seed + j as u64))
        .collect();
    let block = FermionBlock::from_fields(&fields);

    let t0 = Instant::now();
    let (_, plain) = block_cg(&op, &block, cfg.tol, cfg.max_iter);
    let undeflated_wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
    if plain.converged.iter().any(|&c| !c) {
        return Err("undeflated block solve did not converge".into());
    }
    let undeflated_iters: u64 = plain.per_rhs_iterations.iter().map(|&i| i as u64).sum();

    let t0 = Instant::now();
    let (_, defl) = defl_block_cg(&op, &sub, &block, cfg.tol, cfg.max_iter);
    let deflated_wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
    if defl.converged.iter().any(|&c| !c) {
        return Err("deflated block solve did not converge".into());
    }
    let deflated_iters: u64 = defl.per_rhs_iterations.iter().map(|&i| i as u64).sum();

    let cs = CoarseSpace::build(&op, &sub.vectors, cfg.cell);
    let (_, coarse) = coarse_pcg(&op, &cs, None, &fields[0], cfg.tol, cfg.max_iter);
    if !coarse.converged {
        return Err("coarse-preconditioned solve did not converge".into());
    }

    let saved_per_rhs = (undeflated_wall_ns as f64 - deflated_wall_ns as f64) / cfg.nrhs as f64;
    Ok(DeflationBench {
        config: cfg.clone(),
        plaquette,
        eig_restarts: eig.restarts as u64,
        eig_mvps: eig.mvps as u64,
        eig_wall_ns,
        lambda_min: sub.values[0],
        lambda_max: sub.values[sub.nev() - 1],
        undeflated_iters,
        undeflated_wall_ns,
        deflated_iters,
        deflated_wall_ns,
        undeflated_rhs0_iters: plain.per_rhs_iterations[0] as u64,
        coarse_rhs0_iters: coarse.iterations as u64,
        iter_gain: undeflated_iters as f64 / deflated_iters as f64,
        wall_gain: undeflated_wall_ns as f64 / deflated_wall_ns as f64,
        crossover_rhs: if saved_per_rhs > 0.0 {
            eig_wall_ns as f64 / saved_per_rhs
        } else {
            0.0
        },
    })
}

/// The CI gate: on the thermalized configuration the deflated N-RHS batch
/// must beat the undeflated one in total iterations **and** wall time, and
/// the coarse-grid two-level preconditioner must beat plain CG on RHS 0 in
/// iterations (its per-iteration cost differs, so wall is not gated).
pub fn check_deflation_gain(d: &DeflationBench) -> Result<(), String> {
    if d.deflated_iters >= d.undeflated_iters {
        return Err(format!(
            "deflation gained nothing: {} deflated iterations vs {} undeflated",
            d.deflated_iters, d.undeflated_iters
        ));
    }
    if d.deflated_wall_ns >= d.undeflated_wall_ns {
        return Err(format!(
            "deflated batch was not faster: {} ns vs {} ns undeflated",
            d.deflated_wall_ns, d.undeflated_wall_ns
        ));
    }
    if d.coarse_rhs0_iters >= d.undeflated_rhs0_iters {
        return Err(format!(
            "coarse preconditioner gained nothing: {} iterations vs {} plain CG",
            d.coarse_rhs0_iters, d.undeflated_rhs0_iters
        ));
    }
    Ok(())
}

/// Render the `deflation` section.
pub fn deflation_to_json(d: &DeflationBench) -> Json {
    let c = &d.config;
    Json::Obj(vec![
        (
            "lattice".into(),
            Json::Arr(c.dims.iter().map(|&v| Json::Num(v as f64)).collect()),
        ),
        ("beta".into(), Json::Num(c.beta)),
        ("therm".into(), Json::Num(c.therm as f64)),
        ("chain_seed".into(), Json::Num(c.chain_seed as f64)),
        ("mass".into(), Json::Num(c.mass)),
        ("nev".into(), Json::Num(c.nev as f64)),
        ("basis".into(), Json::Num(c.m as f64)),
        ("eig_tol".into(), Json::Num(c.eig_tol)),
        ("eig_seed".into(), Json::Num(c.eig_seed as f64)),
        ("nrhs".into(), Json::Num(c.nrhs as f64)),
        ("rhs_seed".into(), Json::Num(c.rhs_seed as f64)),
        ("tol".into(), Json::Num(c.tol)),
        (
            "cell".into(),
            Json::Arr(c.cell.iter().map(|&v| Json::Num(v as f64)).collect()),
        ),
        ("plaquette".into(), Json::Num(d.plaquette)),
        ("eig_restarts".into(), Json::Num(d.eig_restarts as f64)),
        ("eig_mvps".into(), Json::Num(d.eig_mvps as f64)),
        ("eig_wall_ns".into(), Json::Num(d.eig_wall_ns as f64)),
        ("lambda_min".into(), Json::Num(d.lambda_min)),
        ("lambda_max".into(), Json::Num(d.lambda_max)),
        (
            "undeflated_iters".into(),
            Json::Num(d.undeflated_iters as f64),
        ),
        (
            "undeflated_wall_ns".into(),
            Json::Num(d.undeflated_wall_ns as f64),
        ),
        ("deflated_iters".into(), Json::Num(d.deflated_iters as f64)),
        (
            "deflated_wall_ns".into(),
            Json::Num(d.deflated_wall_ns as f64),
        ),
        (
            "undeflated_rhs0_iters".into(),
            Json::Num(d.undeflated_rhs0_iters as f64),
        ),
        (
            "coarse_rhs0_iters".into(),
            Json::Num(d.coarse_rhs0_iters as f64),
        ),
        ("iter_gain".into(), Json::Num(d.iter_gain)),
        ("wall_gain".into(), Json::Num(d.wall_gain)),
        ("crossover_rhs".into(), Json::Num(d.crossover_rhs)),
    ])
}

/// Validate a parsed `deflation` section (called from the solver-bench
/// schema check when the section is present).
pub fn validate_deflation_json(doc: &Json) -> Result<(), String> {
    for arr in ["lattice", "cell"] {
        let a = doc
            .get(arr)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array `deflation.{arr}`"))?;
        if a.len() != 4 || a.iter().any(|d| d.as_u64().is_none_or(|v| v == 0)) {
            return Err(format!("`deflation.{arr}` must be four positive extents"));
        }
    }
    for field in [
        "beta",
        "therm",
        "nev",
        "basis",
        "eig_tol",
        "nrhs",
        "tol",
        "plaquette",
        "eig_mvps",
        "eig_wall_ns",
        "lambda_min",
        "lambda_max",
        "undeflated_iters",
        "undeflated_wall_ns",
        "deflated_iters",
        "deflated_wall_ns",
        "undeflated_rhs0_iters",
        "coarse_rhs0_iters",
        "iter_gain",
        "wall_gain",
    ] {
        let v = doc
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`deflation.{field}` missing or not a number"))?;
        if v <= 0.0 || !v.is_finite() {
            return Err(format!("`deflation.{field}` must be positive, got {v}"));
        }
    }
    // The mass is negative by design, restarts may be zero, and the
    // crossover is zero when deflation saved no wall time.
    for field in [
        "mass",
        "chain_seed",
        "eig_seed",
        "rhs_seed",
        "eig_restarts",
        "crossover_rhs",
    ] {
        let v = doc
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`deflation.{field}` missing or not a number"))?;
        if !v.is_finite() {
            return Err(format!("`deflation.{field}` must be finite, got {v}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken recipe for test wall-clock: the [4,4,2,2] thermalized
    /// fixture of the eigenpair property suite, four pairs at 1e-6.
    fn small_cfg() -> DeflationConfig {
        DeflationConfig {
            dims: [4, 4, 2, 2],
            therm: 10,
            nev: 4,
            m: 24,
            eig_tol: 1e-6,
            max_restarts: 40,
            nrhs: 2,
            tol: 1e-6,
            ..DeflationConfig::default()
        }
    }

    #[test]
    fn deflation_bench_measures_and_exports_a_valid_section() {
        let d = run_deflation_bench(&small_cfg()).unwrap();
        assert!(d.plaquette > 0.0 && d.plaquette < 1.0);
        assert!(d.lambda_min > 0.0 && d.lambda_min <= d.lambda_max);
        assert!(d.undeflated_iters > 0 && d.deflated_iters > 0);
        // Even the small thermalized fixture has modes worth deflating.
        assert!(
            d.deflated_iters < d.undeflated_iters,
            "no iteration gain: {} vs {}",
            d.deflated_iters,
            d.undeflated_iters
        );
        assert!(d.iter_gain > 1.0);
        let json = deflation_to_json(&d);
        validate_deflation_json(&json).unwrap();
        let parsed = Json::parse(&json.render()).unwrap();
        validate_deflation_json(&parsed).unwrap();
        assert_eq!(parsed, json);
    }

    #[test]
    fn gate_rejects_forged_regressions() {
        let d = run_deflation_bench(&small_cfg()).unwrap();
        // Wall gates compare two measured runs; forge them deterministic.
        let mut healthy = d.clone();
        healthy.undeflated_wall_ns = 2 * healthy.deflated_wall_ns;
        check_deflation_gain(&healthy).unwrap();
        let mut forged = healthy.clone();
        forged.deflated_iters = forged.undeflated_iters;
        assert!(check_deflation_gain(&forged)
            .unwrap_err()
            .contains("gained nothing"));
        let mut forged = healthy.clone();
        forged.deflated_wall_ns = forged.undeflated_wall_ns + 1;
        assert!(check_deflation_gain(&forged)
            .unwrap_err()
            .contains("not faster"));
        let mut forged = healthy;
        forged.coarse_rhs0_iters = forged.undeflated_rhs0_iters;
        assert!(check_deflation_gain(&forged)
            .unwrap_err()
            .contains("coarse"));
    }

    #[test]
    fn degenerate_recipes_are_refused() {
        let mut cfg = small_cfg();
        cfg.nrhs = 0;
        assert!(run_deflation_bench(&cfg).is_err());
        let mut cfg = small_cfg();
        cfg.nev = 0;
        assert!(run_deflation_bench(&cfg).is_err());
        // A basis too small to converge is an error, not a silent artifact.
        let mut cfg = small_cfg();
        cfg.m = 6;
        cfg.max_restarts = 2;
        assert!(run_deflation_bench(&cfg)
            .unwrap_err()
            .contains("did not converge"));
    }

    #[test]
    fn malformed_sections_fail_validation() {
        let d = run_deflation_bench(&small_cfg()).unwrap();
        let Json::Obj(members) = deflation_to_json(&d) else {
            panic!("section must be an object");
        };
        let mut missing = members.clone();
        missing.retain(|(k, _)| k != "deflated_iters");
        assert!(validate_deflation_json(&Json::Obj(missing))
            .unwrap_err()
            .contains("deflated_iters"));
        let mut zeroed = members;
        for (k, v) in zeroed.iter_mut() {
            if k == "lambda_min" {
                *v = Json::Num(0.0);
            }
        }
        assert!(validate_deflation_json(&Json::Obj(zeroed))
            .unwrap_err()
            .contains("lambda_min"));
    }
}
