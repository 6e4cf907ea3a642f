// Matrix algebra throughout this crate loops over explicit row/column
// indices; the iterator-with-enumerate form clippy prefers obscures which
// index walks which side of the product.
#![allow(clippy::needless_range_loop)]

//! A Grid-style lattice QCD library with SVE backends — the primary
//! contribution of the reproduced paper, *"SVE-enabling Lattice QCD Codes"*
//! (Meyer et al., IEEE CLUSTER 2018).
//!
//! The paper ports the Grid framework to the ARM Scalable Vector Extension.
//! This crate rebuilds the relevant slice of Grid on top of the [`sve`]
//! functional model, following the port's architecture decision for
//! decision:
//!
//! * **Data layout** ([`layout`], [`field`]): sub-lattices decompose over
//!   *virtual nodes*, one per SIMD complex lane (paper Fig. 1); fields store
//!   ordinary `f64` arrays (SVE sizeless types cannot be members — Section
//!   V-A), interleaved (re,im) as the `FCMLA` instruction expects.
//! * **SIMD abstraction** ([`simd`]): the `vec<T>`/`acle<T>` layer with
//!   three interchangeable lowerings of complex arithmetic — `FCMLA`
//!   (Sections IV-C/D), real-arithmetic (Section V-E), and the
//!   auto-vectorizer's split formulation (Section IV-B) — all bit-tracked by
//!   instruction counters.
//! * **Physics** ([`tensor`], [`dirac`]): SU(3) gauge links, Dirac gamma
//!   algebra with spin projectors, and the Wilson hopping term of Eq. (1),
//!   "the most compute-intensive task" of LQCD.
//! * **Solvers** ([`krylov`], [`solver`]): one Krylov driver, CG and
//!   BiCGStab as steps of one loop over spaces of fields (field, block, 5-d,
//!   on a rank grid, binary16), `M x = b` of any operator, and `cg` on `M†M`.
//! * **Comms** ([`comms`]): simulated multi-rank domain decomposition with
//!   halo exchange, binary16 wire compression (Section V-B), rank grids.
//!
//! # Quickstart
//!
//! ```
//! use grid::krylov::{no_observer, Start};
//! use grid::prelude::*;
//!
//! // A 4^4 lattice on 512-bit SVE silicon, FCMLA complex arithmetic.
//! let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
//! let u = random_gauge(g.clone(), 7);
//! let d = WilsonDirac::new(u, 0.2);
//! let b = FermionField::random(g.clone(), 8);
//! let span = qcd_trace::span!("solver.cg", g.engine().ctx());
//! let (x, report) = solve_normal(&d, &b, Start::Zero, 1e-8, 1000, span, "solver.cg", no_observer);
//! assert!(report.residual < 1e-6);
//! # let _ = x;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clover;
pub mod codec;
pub mod comms;
pub mod complex;
pub mod cshift;
pub mod dirac;
pub mod dist;
pub mod dwf;
pub mod eo;
pub mod field;
pub mod gauge;
pub mod krylov;
pub mod layout;
pub mod mixed;
pub mod reduce;
pub mod requests;
pub mod rng;
pub mod simd;
pub mod solver;
pub mod stencil;
pub mod tensor;
pub mod topology;

pub use complex::Complex;
pub use field::{
    gauge_comp, spinor_comp, ComplexField, FermionBlock, FermionField, Field, FieldKind, GaugeField,
};
pub use layout::{Coor, Grid, NCOLOR, NDIM, NSPIN};
pub use simd::{CVec, SimdBackend, SimdEngine, Words};

/// Everything a downstream application typically needs.
pub mod prelude {
    pub use crate::clover::{field_strength, CloverWilson};
    pub use crate::codec::{
        compress_two_row, decompress_two_row, Precision, LINK_SCALARS_FULL, LINK_SCALARS_TWO_ROW,
    };
    pub use crate::comms::{
        run_multinode_grid, run_multinode_topo, Compression, GaugeWire, HaloMsg, NetworkModel,
        RankCtx,
    };
    pub use crate::cshift::cshift;
    pub use crate::dirac::{
        gamma5, gamma5_inplace, hopping_via_cshift, mult_gauge, Dirac, WilsonDirac,
    };
    pub use crate::dist::{dist_cg, restrict_field, DistWilson, DistWorkspace};
    pub use crate::dwf::{chiral_minus, chiral_plus, DomainWall, Fermion5};
    pub use crate::eo::{parity_project, solve_eo, Schur};
    pub use crate::field::cg_update_x_r;
    pub use crate::field::{
        gauge_comp, spinor_comp, ComplexField, FermionBlock, FermionField, Field, GaugeField,
    };
    pub use crate::gauge::{
        average_plaquette, average_polyakov_loop, max_unitarity_deviation, random_transform,
        transform_fermion, transform_links, wilson_loop, TransformField,
    };
    pub use crate::krylov::{bicgstab, solve_normal};
    pub use crate::layout::Grid;
    pub use crate::mixed::{
        ladder_solve, ladder_solve_from, to_precision, to_precision_into, LadderConfig,
        LadderReport, F16_RESIDUAL_FLOOR,
    };
    pub use crate::requests::{solve_cg_requests, SolveOutcome, SolveRequest};
    pub use crate::rng::StreamRng;
    pub use crate::simd::{SimdBackend, SimdEngine};
    pub use crate::solver::{cg, BlockSolveReport, SolveReport};
    pub use crate::tensor::gamma_algebra::{mult_gamma, GammaElement};
    pub use crate::tensor::su3::{
        compress_su3, random_gauge, reconstruct_row2, reconstruct_su3, unit_gauge, TwoRowMatrix,
    };
    pub use crate::topology::{
        fermion_face_bytes, gauge_face_bytes, link_ghost_bytes, FaceGeometry, RankTopology,
    };
    pub use crate::Complex;
    pub use sve::{CostModel, SveCtx, VectorLength};
}
