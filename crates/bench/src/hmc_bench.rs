//! The ensemble-generation document behind `wilson_report --bench hmc`
//! (`qcd-bench-hmc/v2`).
//!
//! Runs a short pure-gauge HMC chain (cold start → thermalization →
//! measurement window) and records the observables of the seeded chain:
//! acceptance, Creutz's `⟨exp(-ΔH)⟩` with its standard error, the mean
//! plaquette. The chain is a pure function of (configuration, seed), so
//! they reproduce bit for bit; [`check`] holds them to the two equilibrium
//! identities any correct implementation must satisfy. What a trajectory
//! costs on a clock is stackbench's `hmc_quenched`.

use crate::doc::{get_num, num, nums, obj};
use grid::prelude::*;
use qcd_hmc::{HmcParams, IntegratorKind, MarkovChain, FORCE_FLOPS_PER_SITE};
use qcd_trace::Json;

/// Schema identifier of the exported document.
pub const HMC_BENCH_SCHEMA: &str = "qcd-bench-hmc/v2";

/// Configuration of one HMC benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcBenchConfig {
    /// Lattice extent (an `l⁴` lattice).
    pub l: usize,
    /// Wilson gauge coupling.
    pub beta: f64,
    /// Trajectories discarded as thermalization.
    pub therm: usize,
    /// Measured trajectories.
    pub traj: usize,
    /// Molecular-dynamics steps per trajectory.
    pub n_steps: usize,
    /// Molecular-dynamics step size.
    pub step_size: f64,
    /// Chain seed.
    pub seed: u64,
}

impl Default for HmcBenchConfig {
    fn default() -> Self {
        HmcBenchConfig {
            l: 8,
            beta: 5.7,
            therm: 10,
            traj: 20,
            n_steps: 10,
            step_size: 0.1,
            seed: 7,
        }
    }
}

/// Run the chain at 512-bit SVE with the FCMLA backend. The time series
/// behind `wilson_report --bench hmc --metrics` is the chain's own
/// `hmc.trajectory` flight events, one per trajectory (thermalization
/// included) with its `dh` and `plaquette`.
pub fn run_hmc_bench(cfg: HmcBenchConfig) -> Result<Json, String> {
    if cfg.traj == 0 || cfg.n_steps == 0 {
        return Err("measured trajectories and MD steps must be positive".into());
    }
    if !(cfg.beta.is_finite() && cfg.beta > 0.0 && cfg.step_size > 0.0) {
        return Err(format!(
            "unphysical HMC parameters beta={} eps={}",
            cfg.beta, cfg.step_size
        ));
    }
    let dims = [cfg.l; 4];
    let vl = VectorLength::of(512);
    let backend = SimdBackend::Fcmla;
    let mut chain = MarkovChain::cold_start(
        Grid::new(dims, vl, backend),
        HmcParams {
            beta: cfg.beta,
            n_steps: cfg.n_steps,
            step_size: cfg.step_size,
            integrator: IntegratorKind::Omelyan,
        },
        cfg.seed,
    );
    // Thermalization accepts unconditionally — from the cold start the
    // relaxation phase has systematically positive ΔH, and a Metropolis
    // gate would pin the chain at U = 1 forever. The measurement window
    // below is a proper detailed-balance chain.
    chain.thermalize(cfg.therm);

    let (reports, force_flops, _) =
        crate::probe(|| chain.run(cfg.traj), |path| path.ends_with("hmc.force"));
    // The hmc.force spans must have credited exactly the model's flops.
    let expected_flops = (cfg.traj * 3 * cfg.n_steps) as u64
        * dims.iter().product::<usize>() as u64
        * FORCE_FLOPS_PER_SITE;
    if force_flops != expected_flops {
        return Err(format!(
            "force flop accounting drifted: spans say {force_flops}, expected {expected_flops}"
        ));
    }

    let n = reports.len() as f64;
    let exp_dh: Vec<f64> = reports.iter().map(|r| (-r.dh).exp()).collect();
    let mean_exp_dh = exp_dh.iter().sum::<f64>() / n;
    let var = exp_dh
        .iter()
        .map(|e| (e - mean_exp_dh).powi(2))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    let accepted = reports.iter().filter(|r| r.accepted).count() as f64;

    Ok(obj([
        ("schema", Json::Str(HMC_BENCH_SCHEMA.into())),
        ("lattice", nums(&dims)),
        ("vl_bits", num(vl.bits() as f64)),
        ("backend", Json::Str(backend.name().into())),
        ("beta", num(cfg.beta)),
        ("therm", num(cfg.therm as f64)),
        ("trajectories", num(cfg.traj as f64)),
        ("n_steps", num(cfg.n_steps as f64)),
        ("step_size", num(cfg.step_size)),
        ("seed", num(cfg.seed as f64)),
        ("acceptance", num(accepted / n)),
        ("mean_exp_dh", num(mean_exp_dh)),
        ("stderr_exp_dh", num((var / n).sqrt())),
        (
            "avg_plaquette",
            num(reports.iter().map(|r| r.plaquette).sum::<f64>() / n),
        ),
    ]))
}

/// Gate: Metropolis acceptance above one half, Creutz's `⟨exp(-ΔH)⟩ = 1`
/// within 3σ (with a small σ floor so a freakishly quiet chain cannot fail
/// on roundoff), and a mean plaquette inside (0, 1).
pub fn check(doc: &Json) -> Result<(), String> {
    let acceptance = get_num(doc, "acceptance")?;
    if acceptance <= 0.5 {
        return Err(format!(
            "Metropolis acceptance {acceptance} is not above 0.5 — step size too coarse or \
             force wrong"
        ));
    }
    let (mean, stderr) = (get_num(doc, "mean_exp_dh")?, get_num(doc, "stderr_exp_dh")?);
    let pull = (mean - 1.0).abs() / stderr.max(1e-3);
    if pull > 3.0 {
        return Err(format!(
            "⟨exp(-ΔH)⟩ = {mean} ± {stderr} is {pull:.1}σ from 1 — detailed balance violated"
        ));
    }
    let plaquette = get_num(doc, "avg_plaquette")?;
    if plaquette <= 0.0 || plaquette >= 1.0 {
        return Err(format!("plaquette {plaquette} outside (0, 1)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HmcBenchConfig {
        HmcBenchConfig {
            l: 4,
            beta: 5.6,
            therm: 1,
            traj: 3,
            n_steps: 2,
            step_size: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn physics_gate_passes_at_the_bound_and_fails_just_past_it() {
        let forged = |acceptance: f64, mean: f64, stderr: f64, plaquette: f64| {
            obj([
                ("acceptance", num(acceptance)),
                ("mean_exp_dh", num(mean)),
                ("stderr_exp_dh", num(stderr)),
                ("avg_plaquette", num(plaquette)),
            ])
        };
        check(&forged(0.5001, 1.25, 0.25, 0.56)).unwrap(); // 1.0σ, and 3.0σ:
        check(&forged(1.0, 1.75, 0.25, 0.56)).unwrap();
        assert!(check(&forged(0.5, 1.0, 0.1, 0.56))
            .unwrap_err()
            .contains("acceptance"));
        assert!(check(&forged(0.9, 1.7501, 0.25, 0.56))
            .unwrap_err()
            .contains("exp(-ΔH)"));
        // The σ floor: a quiet chain is held to 3 × 1e-3, not to roundoff.
        check(&forged(0.9, 1.003, 0.0, 0.56)).unwrap();
        assert!(check(&forged(0.9, 1.0031, 0.0, 0.56)).is_err());
        for plaquette in [0.0, 1.0, -0.2] {
            assert!(check(&forged(0.9, 1.0, 0.1, plaquette))
                .unwrap_err()
                .contains("plaquette"));
        }
        assert!(check(&obj([("acceptance", num(0.9))]))
            .unwrap_err()
            .contains("`mean_exp_dh` missing"));
    }

    #[test]
    fn degenerate_configs_are_refused() {
        assert!(run_hmc_bench(HmcBenchConfig { traj: 0, ..tiny() }).is_err());
        let frozen = HmcBenchConfig {
            step_size: 0.0,
            ..tiny()
        };
        assert!(run_hmc_bench(frozen).is_err());
    }
}
