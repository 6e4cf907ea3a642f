//! ACLE-style intrinsics over the functional model.
//!
//! These functions mirror the ARM C Language Extensions for SVE (paper
//! reference \[6\]) that the Grid port uses: predicated loads/stores including
//! structure loads, real and complex arithmetic, permutes, reductions,
//! precision conversion and predicate construction. Naming follows ACLE
//! (`svld1`, `svcmla`, `svwhilelt`, ...) with the element type supplied as a
//! Rust generic instead of a suffix, and the [`crate::SveCtx`] supplied
//! explicitly where hardware has implicit state.
//!
//! Predication-variant suffixes follow ACLE:
//! * `_z` — inactive lanes of the result are zero,
//! * `_m` — inactive lanes merge from the first data operand,
//! * `_x` — inactive lanes are "don't care"; this model computes them anyway
//!   (deterministically), as unpredicated hardware forms would.

mod arith;
mod complex;
mod convert;
mod load_store;
mod perm;
mod predicate;
mod reduce;
mod shape;

pub use arith::*;
pub use complex::*;
pub use convert::*;
pub use load_store::*;
pub use perm::*;
pub use predicate::*;
pub use reduce::*;
