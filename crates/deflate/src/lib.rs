//! `qcd-deflate`: low-mode deflation and coarse-grid preconditioning for
//! many-RHS campaigns.
//!
//! Lattice campaigns solve the same operator against dozens to
//! thousands of right-hand sides per gauge configuration. Near the
//! physical mass the cost is dominated by a handful of tiny `M†M`
//! eigenvalues that every solve re-discovers the hard way. This crate
//! computes that low-mode subspace **once** and recycles it, for any
//! `grid::dirac::Dirac` operator: a field, an even-parity field, a 5-d
//! fermion or a rank's slab.
//!
//! * **Eigensolver** ([`lanczos`]): deterministic thick-restart Lanczos
//!   with full reorthogonalization in `op.normal(&mut tmp)`, producing a
//!   [`Subspace`] of validated eigenpairs (explicit `‖Av − θv‖` residuals).
//! * **Deflated solves** ([`defl`]): the start [`galerkin_guess`],
//!   `x₀ = V (V†AV)⁻¹ V† b` per RHS, of the one CG driver in any operator —
//!   for a block, per-RHS bit-identical to the single-RHS path (what a job
//!   farm runs). At binary16, the guess of `to_precision`-converted vectors
//!   and right-hand side.
//! * **Coarse grid** ([`coarse`]): cell-blocked near-null vectors, the
//!   Galerkin coarse operator of a fine space, and a two-level
//!   preconditioner inside CG ([`CoarseSpace::two_level`]).
//! * **Persistence** ([`Subspace::save`] / [`Subspace::load`], defined in
//!   `qcd-io`): `defl.*` records at f64/f32/f16 tiers, validated on load
//!   (wrong lattice, wrong mass and unusable eigenvalues are typed errors),
//!   so farm jobs load a shared subspace instead of recomputing it.
//!
//! # Determinism
//!
//! Everything here is bit-identical across SVE vector lengths, thread
//! counts, and (the eigensolver and the guess on a rank grid) ranks:
//! every scalar that steers an iteration is a *canonical* reduction
//! (global-lexicographic scatter, fixed chunk-tree sum), dense linear
//! algebra is fixed-order scalar arithmetic ([`dense`]), and intergrid
//! transfers use the layout-independent scalar accessors. Eigenpairs,
//! deflated residual histories, and coarse-corrected solves reproduce to
//! the last bit on any machine — the property the determinism suites
//! assert across VL ∈ {128…2048} × threads ∈ {1,2,8}.
//!
//! Solves run under `solver.deflate` spans, the eigensolver under
//! `eig.lanczos`, the coarse machinery under `mg.coarse`; health events
//! surface through the shared [`qcd_trace`] monitor exactly like the
//! `grid` solvers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarse;
pub mod defl;
pub mod dense;
pub mod lanczos;

pub use coarse::{CoarseSpace, F16Smoother, TwoLevel};
pub use defl::galerkin_guess;
pub use lanczos::{lanczos, EigenReport, LanczosParams};
pub use qcd_io::Subspace;
