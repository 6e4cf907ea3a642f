//! `qcd-deflate`: low-mode deflation and coarse-grid preconditioning for
//! many-RHS campaigns.
//!
//! Lattice campaigns solve the same Wilson operator against dozens to
//! thousands of right-hand sides per gauge configuration. Near the
//! physical mass the cost is dominated by a handful of tiny `M†M`
//! eigenvalues that every solve re-discovers the hard way. This crate
//! computes that low-mode subspace **once** and recycles it:
//!
//! * **Eigensolver** ([`lanczos`]): deterministic thick-restart Lanczos
//!   with full reorthogonalization on `M†M`, producing a [`Subspace`] of
//!   validated eigenpairs (explicit `‖Av − θv‖` residuals, not estimates).
//! * **Deflated solves** ([`defl`]): [`defl_cg`] projects the low modes
//!   out of each RHS via the Galerkin guess `x₀ = V (V†AV)⁻¹ V† b`, for
//!   one field or — recycling one subspace across a whole N-RHS batch,
//!   per-RHS results bit-identical to the single-RHS path — a block (what
//!   a job farm runs on its coalesced requests); [`galerkin_guess_f16`]
//!   seeds the precision ladder.
//! * **Coarse grid** ([`coarse`]): cell-blocked near-null vectors,
//!   Galerkin triple-product coarse operator, and a two-level
//!   preconditioner inside CG ([`CoarseSpace::two_level`]).
//! * **Persistence** ([`persist`]): subspaces stored as `qcd-io/v1`
//!   `defl.*` records at f64/f32/f16 tiers, validated on load
//!   (wrong-lattice and wrong-mass are typed errors), so farm jobs load a
//!   shared subspace instead of recomputing it.
//!
//! # Determinism
//!
//! Everything here is bit-identical across SVE vector lengths, thread
//! counts, and (for the building blocks it shares with `dist`) ranks:
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
pub mod persist;

pub use coarse::{CoarseSpace, F16Smoother, TwoLevel};
pub use defl::{defl_cg, galerkin_guess, galerkin_guess_f16};
pub use lanczos::{build_subspace, lanczos, EigenReport, LanczosParams, Subspace};
