//! `qcd-hmc`: pure-gauge SU(3) Wilson-action Hybrid Monte Carlo on top of
//! the SVE lattice stack.
//!
//! The crate closes the loop the paper's kernels leave open: the stack can
//! *apply* operators to gauge configurations at any vector length, and this
//! crate *generates* those configurations, with the same determinism
//! guarantees the solvers have. Layering:
//!
//! * [`algebra`] — scalar su(3): the TA projection, the matrix exponential
//!   (scaling-and-squaring with a proven truncation bound), the Gell-Mann
//!   generator basis for Gaussian momenta;
//! * [`action`] — the word-level compute kernels: Wilson action, the gauge
//!   force `F = -(β/6)·TA(UΣ)` as one stencil sweep that can add the
//!   integrator's kick into the momenta, momentum refresh on counter-based
//!   RNG streams, and the `U ← exp(εP)U` drift;
//! * [`integrator`] — reversible symplectic schemes (leapfrog and the
//!   Omelyan 2nd-order minimum-norm composition) as one enum;
//! * [`chain`] — the Markov-chain driver: trajectories, Metropolis,
//!   per-trajectory trace spans, and checkpoint/resume through `qcd-io`
//!   that is bit-identical to an uninterrupted run. A chain keeps its
//!   stencil, candidate links and momenta across trajectories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod algebra;
pub mod chain;
pub mod integrator;

pub use action::{
    average_plaquette_fast, force, kinetic_energy, refresh_momenta, update_links, wilson_action,
    ACTION_FLOPS_PER_SITE, FORCE_FLOPS_PER_SITE,
};
pub use algebra::{exp_su3, momentum_from_gaussians, ta_project};
pub use chain::{
    max_algebra_defect, HmcParams, MarkovChain, RunOutcome, TrajectoryReport, UnitarityWarning,
    UNITARITY_WARN_THRESHOLD,
};
pub use integrator::{IntegratorKind, OMELYAN_LAMBDA};
