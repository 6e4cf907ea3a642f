//! The SIMD abstraction layer — the machine-specific core of the port.
//!
//! Grid is "designed to maximize the flexibility in choosing the data layout
//! ... without compromising on portability", confining machine-specific
//! code to a small abstraction layer (paper, Section II-C). This module is
//! that layer for SVE: [`SimdEngine`] (the `acle<T>` analog) lowers complex
//! arithmetic to one of three instruction strategies ([`SimdBackend`]), and
//! the [`functors`] mirror the paper's Section V-C function objects.

pub mod backend;
pub mod engine;
pub mod functors;

pub use backend::{architecture_table, supported_vector_lengths, ArchRow, SimdBackend};
pub use engine::{CVec, SimdEngine, Words, PORT_WORD_BYTES};
pub use sve::VL_MAX_BYTES;
