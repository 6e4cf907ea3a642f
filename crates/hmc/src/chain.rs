//! The Markov-chain driver: momentum refresh, molecular-dynamics
//! trajectory, Metropolis accept/reject, and checkpoint/resume.
//!
//! **Determinism and restart model.** Every source of randomness is
//! counter-based and keyed so that drawing order never matters:
//!
//! * the momenta of trajectory `k` come from a seed that is a pure
//!   function of `(chain seed, k)` — a restarted chain refreshes the
//!   exact same momenta without replaying anything;
//! * the Metropolis [`StreamRng`] consumes exactly one draw per
//!   trajectory (the uniform is drawn even when `ΔH ≤ 0`, where it cannot
//!   change the outcome), so its counter equals the trajectory index and
//!   survives checkpointing as a single `u64`.
//!
//! Together with the fixed-chunk deterministic reductions in
//! [`crate::action`], a chain checkpointed at trajectory `k` and resumed
//! produces bit-identical links, `ΔH` history, and accept/reject sequence
//! to the uninterrupted run — at any worker-thread count (the cross-VL
//! story is different: changing the vector length relayouts the reduction
//! leaves, so different VLs are different — each equally valid — chains).

use crate::action::{action, kinetic_energy, refresh_momenta_into};
use crate::algebra::ta_project;
use crate::integrator::IntegratorKind;
use grid::gauge::max_unitarity_deviation;
use grid::prelude::StreamRng;
use grid::rng::splitmix64;
use grid::stencil::Stencil;
use grid::tensor::su3::{peek_link, unit_gauge};
use grid::{GaugeField, Grid, NCOLOR, NDIM};
use qcd_io::{read_hmc_chain, write_hmc_chain, HmcChainState, IoError};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Unitarity drift above which [`MarkovChain::load`] attaches a warning.
pub const UNITARITY_WARN_THRESHOLD: f64 = 1e-10;

/// Parameters of an HMC run (fixed over the life of a chain).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HmcParams {
    /// Wilson gauge coupling β.
    pub beta: f64,
    /// Molecular-dynamics steps per trajectory.
    pub n_steps: usize,
    /// Molecular-dynamics step size ε.
    pub step_size: f64,
    /// Integration scheme.
    pub integrator: IntegratorKind,
}

/// What one trajectory did — returned by [`MarkovChain::step`].
#[derive(Clone, Copy, Debug)]
pub struct TrajectoryReport {
    /// 1-based index of the completed trajectory.
    pub trajectory: u64,
    /// Energy violation `H₁ - H₀` of the candidate trajectory.
    pub dh: f64,
    /// Whether the Metropolis test accepted the candidate.
    pub accepted: bool,
    /// Hamiltonian at trajectory start (after momentum refresh).
    pub h0: f64,
    /// Hamiltonian at trajectory end (before accept/reject).
    pub h1: f64,
    /// Average plaquette of the chain state *after* accept/reject.
    pub plaquette: f64,
}

/// Diagnostic attached by [`MarkovChain::load`] when the restored links
/// have drifted measurably off the group manifold.
///
/// The loader never repairs the field itself — reprojection would break
/// bit-exact resume — it only reports; call
/// [`MarkovChain::reunitarize`] explicitly to accept the perturbation.
#[derive(Clone, Copy, Debug)]
pub struct UnitarityWarning {
    /// Worst `‖U U† - 1‖ + |det U - 1|` over all restored links.
    pub max_deviation: f64,
    /// The [`UNITARITY_WARN_THRESHOLD`] that was exceeded.
    pub threshold: f64,
}

/// What a chunked [`MarkovChain::run_trajectories`] call accomplished.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Reports of the trajectories that completed, in order.
    pub reports: Vec<TrajectoryReport>,
    /// Whether the stop flag cut the chunk short. When `true`, fewer than
    /// the requested `k` trajectories ran (possibly zero) and the caller
    /// should re-enqueue the remaining work.
    pub stopped: bool,
}

/// A pure-gauge Wilson-action HMC Markov chain.
pub struct MarkovChain {
    links: GaugeField,
    params: HmcParams,
    seed: u64,
    trajectory: u64,
    accepted: u64,
    rejected: u64,
    dh_history: Vec<f64>,
    accept_history: Vec<bool>,
    metropolis: StreamRng,
    // The trajectory's fields, kept across trajectories so a steady-state
    // trajectory allocates none: the links' stencil, the candidate links
    // the integrator evolves, and the momenta refreshed in place.
    stencil: Stencil,
    candidate: GaugeField,
    momenta: GaugeField,
}

impl MarkovChain {
    /// Start a chain from the unit (cold) configuration.
    pub fn cold_start(grid: Arc<Grid>, params: HmcParams, seed: u64) -> Self {
        Self::from_links(unit_gauge(grid), params, seed)
    }

    /// Start a chain from an existing gauge configuration.
    pub fn from_links(links: GaugeField, params: HmcParams, seed: u64) -> Self {
        let grid = links.grid().clone();
        MarkovChain {
            stencil: Stencil::new(grid.clone()),
            candidate: GaugeField::zero(grid.clone()),
            momenta: GaugeField::zero(grid),
            links,
            params,
            seed,
            trajectory: 0,
            accepted: 0,
            rejected: 0,
            dh_history: Vec::new(),
            accept_history: Vec::new(),
            metropolis: StreamRng::new(splitmix64(seed ^ 0x4d45_5452_4f50_4f4c)), // "METROPOL"
        }
    }

    /// The momentum-refresh seed of trajectory `k` — a pure function of
    /// the chain seed and `k`, so restarts refresh identical momenta.
    fn momentum_seed(&self, k: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(k.wrapping_add(1)))
    }

    /// Run one HMC trajectory: refresh momenta, integrate, accept/reject.
    pub fn step(&mut self) -> TrajectoryReport {
        self.advance(false)
    }

    /// One trajectory; with `force_accept` the Metropolis verdict is
    /// overridden to "accept" (the uniform is still drawn and discarded so
    /// the RNG counter keeps equalling the trajectory index).
    fn advance(&mut self, force_accept: bool) -> TrajectoryReport {
        let grid = self.links.grid().clone();
        let beta = self.params.beta;
        let seed = self.momentum_seed(self.trajectory);
        refresh_momenta_into(&mut self.momenta, seed);
        let s0 = action(&self.stencil, &self.links, beta);
        let h0 = kinetic_energy(&self.momenta) + s0;

        self.candidate.data_mut().copy_from_slice(self.links.data());
        {
            let _span = qcd_trace::span!("hmc.integrate", grid.engine().ctx());
            self.params.integrator.integrate(
                &self.stencil,
                &mut self.candidate,
                &mut self.momenta,
                beta,
                self.params.n_steps,
                self.params.step_size,
            );
        }
        let s1 = action(&self.stencil, &self.candidate, beta);
        let h1 = kinetic_energy(&self.momenta) + s1;
        let dh = h1 - h0;

        // Exactly one uniform per trajectory, drawn unconditionally so the
        // Metropolis counter equals the trajectory index.
        let accepted = {
            let _span = qcd_trace::span!("hmc.metropolis", grid.engine().ctx());
            let metropolis = self.metropolis.next_uniform01() < (-dh).exp();
            metropolis || force_accept
        };
        let s_now = if accepted {
            std::mem::swap(&mut self.links, &mut self.candidate);
            s1
        } else {
            s0
        };
        self.trajectory += 1;
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        self.dh_history.push(dh);
        self.accept_history.push(accepted);

        // ⟨plaq⟩ falls out of the action: S = β·6V·(1 - ⟨plaq⟩).
        let n_plaq = (grid.volume() * NDIM * (NDIM - 1) / 2) as f64;
        let plaquette = 1.0 - s_now / (beta * n_plaq);
        qcd_trace::counter(if accepted {
            "hmc.accepted"
        } else {
            "hmc.rejected"
        })
        .inc();
        qcd_trace::gauge("hmc.plaquette").set(plaquette);
        // |ΔH| in micro-units so the log2-bucket histogram resolves the
        // typical 1e-4..1e-1 range of a well-tuned integrator.
        qcd_trace::histogram("hmc.abs_dh_micro").record((dh.abs() * 1e6) as u64);
        qcd_trace::record_event(
            "hmc.trajectory",
            if accepted { "accept" } else { "reject" },
            &[
                ("trajectory", self.trajectory as f64),
                ("dh", dh),
                ("plaquette", plaquette),
            ],
        );
        TrajectoryReport {
            trajectory: self.trajectory,
            dh,
            accepted,
            h0,
            h1,
            plaquette,
        }
    }

    /// Run `n` trajectories, returning the report of each.
    pub fn run(&mut self, n: usize) -> Vec<TrajectoryReport> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Run up to `k` trajectories as one preemptible work chunk.
    ///
    /// This is the step-K entry point a job scheduler drives: the `stop`
    /// flag is polled at every trajectory boundary (a trajectory is the
    /// atomic unit of work — a flag raised mid-integration finishes the
    /// current trajectory first), and when `checkpoint` is given the chain
    /// is snapshotted once at chunk exit — normal completion *or* early
    /// stop — so an accepted trajectory is never lost to a SIGTERM-style
    /// shutdown whose handler raises the flag. Because [`MarkovChain`]
    /// randomness is counter-based, `run_trajectories(a)` followed by
    /// `run_trajectories(b)` — across any number of checkpoint/resume
    /// cycles — is bit-identical to one uninterrupted `run(a + b)`.
    ///
    /// Callers that dump the [`qcd_trace`] flight recorder should flush
    /// it after the chunk that observed the stop (the `qcd_farm` binary
    /// does), so the shutdown's trailing events reach the postmortem file.
    pub fn run_trajectories(
        &mut self,
        k: usize,
        stop: &AtomicBool,
        checkpoint: Option<&Path>,
    ) -> Result<RunOutcome, IoError> {
        let mut reports = Vec::with_capacity(k);
        let mut stopped = false;
        for _ in 0..k {
            if stop.load(Ordering::SeqCst) {
                stopped = true;
                break;
            }
            reports.push(self.step());
        }
        // One snapshot per chunk, at the boundary: everything in `reports`
        // is durable once this returns.
        if let Some(path) = checkpoint {
            self.save(path)?;
        }
        Ok(RunOutcome { reports, stopped })
    }

    /// Run `n` trajectories with the Metropolis verdict overridden to
    /// "accept" — the standard escape from the cold-start catch-22, where
    /// the systematically positive `ΔH` of the relaxation phase would
    /// reject every move and the chain could never leave `U = 1`.
    ///
    /// This breaks detailed balance, so it is for *thermalization only*:
    /// discard these trajectories and take measurements from a subsequent
    /// [`MarkovChain::run`] window. Everything else matches [`step`]:
    /// momenta still come from the per-trajectory counter streams, the
    /// Metropolis uniform is still drawn (and discarded), and the
    /// trajectories land in the histories — so checkpoint/resume stays
    /// bit-identical through a thermalization phase.
    ///
    /// [`step`]: MarkovChain::step
    pub fn thermalize(&mut self, n: usize) -> Vec<TrajectoryReport> {
        (0..n).map(|_| self.advance(true)).collect()
    }

    /// Snapshot the complete chain (links, history, RNG cursor) to `path`.
    pub fn save(&self, path: &Path) -> Result<u64, IoError> {
        let state = HmcChainState {
            beta: self.params.beta,
            step_size: self.params.step_size,
            n_steps: self.params.n_steps as u64,
            integrator: self.params.integrator.id(),
            seed: self.seed,
            trajectory: self.trajectory,
            accepted: self.accepted,
            rejected: self.rejected,
            dh_history: self.dh_history.clone(),
            accept_history: self.accept_history.clone(),
        };
        write_hmc_chain(&state, &self.metropolis, &self.links, path)
    }

    /// Restore a chain saved by [`MarkovChain::save`] onto `grid`.
    ///
    /// The links are used exactly as stored — never reprojected — so the
    /// resumed chain is bit-identical to the uninterrupted one; any
    /// measurable drift off SU(3) is surfaced as a [`UnitarityWarning`]
    /// for the caller to act on.
    pub fn load(
        path: &Path,
        grid: &Arc<Grid>,
    ) -> Result<(Self, Option<UnitarityWarning>), IoError> {
        let (state, metropolis, links) = read_hmc_chain(path, grid)?;
        let integrator =
            IntegratorKind::from_id(state.integrator).map_err(|msg| IoError::BadRecord {
                record: qcd_io::HMC_RECORD.to_string(),
                msg,
            })?;
        let max_deviation = max_unitarity_deviation(&links);
        let warning = (max_deviation > UNITARITY_WARN_THRESHOLD).then_some(UnitarityWarning {
            max_deviation,
            threshold: UNITARITY_WARN_THRESHOLD,
        });
        let params = HmcParams {
            beta: state.beta,
            n_steps: state.n_steps as usize,
            step_size: state.step_size,
            integrator,
        };
        Ok((
            MarkovChain {
                trajectory: state.trajectory,
                accepted: state.accepted,
                rejected: state.rejected,
                dh_history: state.dh_history,
                accept_history: state.accept_history,
                metropolis,
                ..Self::from_links(links, params, state.seed)
            },
            warning,
        ))
    }

    /// Project every link back onto SU(3) (explicit opt-in; breaks
    /// bit-exact equivalence with a never-reprojected chain).
    pub fn reunitarize(&mut self) {
        self.links.reunitarize();
    }

    /// The current gauge configuration.
    pub fn links(&self) -> &GaugeField {
        &self.links
    }

    /// Completed trajectories.
    pub fn trajectory(&self) -> u64 {
        self.trajectory
    }

    /// Fraction of trajectories accepted so far (1 for an empty chain).
    pub fn acceptance_rate(&self) -> f64 {
        if self.trajectory == 0 {
            1.0
        } else {
            self.accepted as f64 / self.trajectory as f64
        }
    }

    /// `ΔH` of every completed trajectory.
    pub fn dh_history(&self) -> &[f64] {
        &self.dh_history
    }

    /// Metropolis decision of every completed trajectory.
    pub fn accept_history(&self) -> &[bool] {
        &self.accept_history
    }

    /// The chain parameters.
    pub fn params(&self) -> &HmcParams {
        &self.params
    }

    /// The chain master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Maximum distance of any link from its own traceless anti-Hermitian
/// projection — a cheap "is this field still a momentum?" diagnostic used
/// by tests.
pub fn max_algebra_defect(p: &GaugeField) -> f64 {
    let grid = p.grid().clone();
    let mut worst: f64 = 0.0;
    for x in grid.coords() {
        for mu in 0..NDIM {
            let m = peek_link(p, &x, mu);
            let t = ta_project(&m);
            for r in 0..NCOLOR {
                for c in 0..NCOLOR {
                    worst = worst.max((m[r][c] - t[r][c]).abs());
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::prelude::*;

    fn small_params() -> HmcParams {
        HmcParams {
            beta: 5.6,
            n_steps: 8,
            step_size: 0.0625,
            integrator: IntegratorKind::Omelyan,
        }
    }

    fn grid4() -> Arc<Grid> {
        Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla)
    }

    #[test]
    fn metropolis_consumes_one_draw_per_trajectory() {
        let mut chain = MarkovChain::cold_start(grid4(), small_params(), 11);
        chain.run(3);
        assert_eq!(chain.metropolis.draws(), 3);
        assert_eq!(chain.trajectory(), 3);
        assert_eq!(chain.dh_history().len(), 3);
        assert_eq!(chain.accept_history().len(), 3);
    }

    #[test]
    fn cold_start_thermalizes_toward_equilibrium() {
        // From U = 1 the action can only rise toward equilibrium; a short
        // chain must accept generously at this step size and move the
        // plaquette strictly below 1.
        let mut chain = MarkovChain::cold_start(grid4(), small_params(), 5);
        let reports = chain.run(4);
        assert!(chain.acceptance_rate() > 0.5, "{}", chain.acceptance_rate());
        let last = reports.last().unwrap();
        assert!(last.plaquette < 1.0 && last.plaquette > 0.3, "{last:?}");
        assert!(max_unitarity_deviation(chain.links()) < 1e-11);
    }

    #[test]
    fn chunked_run_is_bit_identical_to_one_uninterrupted_run() {
        let g = grid4();
        let stop = AtomicBool::new(false);
        let mut whole = MarkovChain::cold_start(g.clone(), small_params(), 31);
        let whole_reports = whole.run(4);

        let mut chunked = MarkovChain::cold_start(g.clone(), small_params(), 31);
        let a = chunked.run_trajectories(2, &stop, None).unwrap();
        let b = chunked.run_trajectories(2, &stop, None).unwrap();
        assert!(!a.stopped && !b.stopped);
        let chunk_reports: Vec<_> = a.reports.into_iter().chain(b.reports).collect();

        assert_eq!(chunk_reports.len(), whole_reports.len());
        for (x, y) in chunk_reports.iter().zip(&whole_reports) {
            assert_eq!(x.dh.to_bits(), y.dh.to_bits());
            assert_eq!(x.plaquette.to_bits(), y.plaquette.to_bits());
            assert_eq!(x.accepted, y.accepted);
        }
        assert_eq!(chunked.links().max_abs_diff(whole.links()), 0.0);
    }

    #[test]
    fn raised_stop_flag_checkpoints_before_any_work() {
        let g = grid4();
        let stop = AtomicBool::new(true);
        let mut chain = MarkovChain::cold_start(g.clone(), small_params(), 17);
        let mut path = std::env::temp_dir();
        path.push(format!("qcd-hmc-stop-{}", std::process::id()));
        let out = chain.run_trajectories(3, &stop, Some(&path)).unwrap();
        assert!(out.stopped);
        assert!(out.reports.is_empty());
        assert_eq!(chain.trajectory(), 0);
        // The checkpoint was still written, so a supervisor that re-enqueues
        // from disk resumes exactly where the flag caught the chain.
        let (back, _) = MarkovChain::load(&path, &g).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.trajectory(), 0);
        assert_eq!(back.links().max_abs_diff(chain.links()), 0.0);
    }

    #[test]
    fn stop_then_resume_from_checkpoint_loses_no_trajectory() {
        let g = grid4();
        let mut reference = MarkovChain::cold_start(g.clone(), small_params(), 23);
        reference.run(4);

        let stop = AtomicBool::new(false);
        let mut chain = MarkovChain::cold_start(g.clone(), small_params(), 23);
        let mut path = std::env::temp_dir();
        path.push(format!("qcd-hmc-resume-{}", std::process::id()));
        // Chunk of 2 with a checkpoint at the boundary, then "crash": drop
        // the in-memory chain and restart from disk for the rest.
        let first = chain.run_trajectories(2, &stop, Some(&path)).unwrap();
        assert_eq!(first.reports.len(), 2);
        drop(chain);
        let (mut resumed, warn) = MarkovChain::load(&path, &g).unwrap();
        assert!(warn.is_none());
        let second = resumed.run_trajectories(2, &stop, Some(&path)).unwrap();
        assert_eq!(second.reports.len(), 2);
        std::fs::remove_file(&path).ok();

        assert_eq!(resumed.trajectory(), reference.trajectory());
        assert_eq!(resumed.links().max_abs_diff(reference.links()), 0.0);
        for (a, b) in resumed.dh_history().iter().zip(reference.dh_history()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn save_load_round_trips_everything() {
        let g = grid4();
        let mut chain = MarkovChain::cold_start(g.clone(), small_params(), 21);
        chain.run(2);
        let mut path = std::env::temp_dir();
        path.push(format!("qcd-hmc-chain-{}", std::process::id()));
        chain.save(&path).unwrap();
        let (back, warn) = MarkovChain::load(&path, &g).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(warn.is_none());
        assert_eq!(back.params(), chain.params());
        assert_eq!(back.trajectory(), 2);
        assert_eq!(back.metropolis.state(), chain.metropolis.state());
        assert_eq!(back.links().max_abs_diff(chain.links()), 0.0);
        for (a, b) in back.dh_history().iter().zip(chain.dh_history()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
