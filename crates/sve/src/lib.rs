//! Functional model of the ARM Scalable Vector Extension (SVE).
//!
//! This crate is the hardware substrate for the reproduction of
//! *"SVE-enabling Lattice QCD Codes"* (Meyer et al., IEEE CLUSTER 2018).
//! The paper ported the Grid lattice-QCD framework to SVE before any SVE
//! silicon existed, verifying functionally under ARM's instruction emulator
//! (ArmIE). This crate plays the role of that missing hardware/emulator
//! stack in Rust, where SVE intrinsics are nightly-only and scalable vectors
//! are not expressible:
//!
//! * [`VectorLength`] — the vector-length-agnostic register size
//!   (128..2048 bits in multiples of 128, Section III-B of the paper);
//! * [`Reg`] / [`PReg`] — untyped vector registers and per-byte predicate
//!   registers, exactly as architected; a register is sized by the vector
//!   length of the kernel that holds it, and [`VReg`] is the 2048-bit
//!   capacity for code that learns its length at run time;
//! * [`intrinsics`] — an ACLE-style API (the paper's reference \[6\]): predicated
//!   loads/stores, structure loads, real and complex arithmetic (`FCMLA`,
//!   `FCADD`, Section III-D), permutes, reductions, precision conversion and
//!   predicate construction;
//! * [`SveCtx`] — the "silicon": fixes the vector length, tallies every
//!   executed operation per [`Opcode`], prices tallies under pluggable
//!   [`CostModel`]s, and can inject the toolchain faults that made some of
//!   the paper's verification runs fail (Section V-D);
//! * [`F16`] — binary16, for the comms-compression data path (Section V-B)
//!   and as a compute precision: its lanes are widened to `f32` once per
//!   arithmetic instruction and narrowed once ([`SveFloat::Wide`]).
//!
//! The lane loops behind the arithmetic intrinsics are compiled once per
//! swept vector length and, on x86-64, a second time for AVX2+FMA+F16C; the
//! copy is picked from the CPU at context construction ([`host_lanes`] names
//! it) and cannot change a result bit.
//!
//! # Example: the paper's two-FCMLA complex multiply (Section IV-D)
//!
//! ```
//! use sve::{SveCtx, VectorLength, VReg};
//! use sve::intrinsics::*;
//!
//! let ctx = SveCtx::new(VectorLength::of(512));
//! let pg = svptrue::<f64>(&ctx);
//! // Interleaved (re, im) data, one full vector: 4 complex doubles.
//! let x: Vec<f64> = vec![1.0, 2.0, -0.5, 3.0, 0.0, 1.0, 2.5, -1.5];
//! let y: Vec<f64> = vec![3.0, -1.0, 2.0, 2.0, -1.0, 0.5, 0.0, -2.0];
//! let sx = svld1(&ctx, &pg, &x);
//! let sy = svld1(&ctx, &pg, &y);
//! let zero = svdup::<f64>(&ctx, 0.0);
//! let t = svcmla::<f64>(&ctx, &pg, &zero, &sx, &sy, Rot::R90);
//! let sz = svcmla::<f64>(&ctx, &pg, &t, &sx, &sy, Rot::R0);
//! let mut z = vec![0.0; 8];
//! svst1(&ctx, &pg, &mut z, &sz);
//! assert_eq!(z[0], 1.0 * 3.0 - 2.0 * (-1.0)); // re(x0 * y0)
//! assert_eq!(z[1], 1.0 * (-1.0) + 2.0 * 3.0); // im(x0 * y0)
//! ```

// One `unsafe` block in the crate: the call into the AVX2+FMA+F16C copy of
// the lane loops in `host.rs`, behind the CPU detection it needs.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod count;
mod ctx;
mod elem;
mod f16;
mod host;
mod pred;
mod vl;
mod vreg;

pub mod acle;
pub mod intrinsics;

pub use count::{CostModel, Counters, OpClass, Opcode};
pub use ctx::{SizedCtx, SveCtx, ToolchainFault};
pub use elem::{Lane, Octet, SveElem, SveFloat};
pub use f16::F16;
pub use host::host_lanes;
pub use intrinsics::Rot;
pub use pred::{PReg, PredFlags};
pub use vl::{VectorLength, VL_MAX_BITS, VL_MAX_BYTES, VL_MIN_BITS, VL_STEP_BITS};
pub use vreg::{Reg, VReg};
