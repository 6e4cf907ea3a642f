//! `qcd-io` — checkpoint/restart for the lattice QCD stack.
//!
//! Production lattice QCD campaigns run for weeks on machines where node
//! failure is routine; the SVE port this repository reproduces targets
//! exactly such systems (the Post-K/Fugaku line). This crate supplies the
//! persistence layer that makes long solves survivable:
//!
//! * **Container format** ([`container`]): `qcd-io/v1`, a LIME-inspired
//!   flat record stream — magic, version, then typed records, each
//!   protected by an in-crate CRC-32 ([`crc`]). Writes are atomic
//!   (temp file + fsync + rename), so a crash never leaves a torn
//!   checkpoint.
//! * **Field records** ([`fields`]): gauge/fermion fields and RNG state at
//!   a selectable on-disk precision (f64/f32/f16 via the shared
//!   [`grid::codec`] path). Scalars are serialized in global site order, so
//!   files are portable across SVE vector lengths. Gauge metadata carries
//!   the average plaquette for physics validation on load.
//! * **Solver checkpoints** ([`checkpoint`]): one codec for the CG
//!   recurrence state at either width, a checkpoint-every-k observer for
//!   any solve, and `resume`; a killed solve resumes bit-identically.
//! * **Fault injection** ([`fault`]): wrap any reader/writer with bit
//!   flips, truncation, or mid-stream failures and assert every corruption
//!   class maps to a typed [`IoError`] — never a panic, never silent wrong
//!   data.
//!
//! I/O paths run under [`qcd_trace`] spans (`io.write`, `io.read`,
//! `io.validate`) with byte counts attached, so checkpoint bandwidth shows
//! up in the same profile as solver arithmetic. Failures additionally land
//! in the [`qcd_trace`] flight recorder as typed `io.error` events
//! (labelled by [`IoError::variant_name`]), and checkpoint writes as
//! `checkpoint.write` events, so a postmortem dump shows what I/O happened
//! around a crash.
//!
//! # Quickstart
//!
//! ```
//! use grid::prelude::*;
//! use qcd_io::{read_gauge, write_gauge};
//!
//! let g = Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
//! let u = random_gauge(g.clone(), 11);
//! let path = std::env::temp_dir().join("qcd-io-doc.qio");
//! write_gauge(&u, &path, Precision::F64).unwrap();
//! let v = read_gauge(&path, &g).unwrap(); // CRC + plaquette validated
//! assert_eq!(u.max_abs_diff(&v), 0.0);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod container;
pub mod crc;
pub mod error;
pub mod fault;
pub mod fields;
pub mod hmc;
pub mod scan;
pub mod subspace;

pub use checkpoint::{load_state, resume, save_state, Checkpointer, STATE_SCALARS};
pub use container::{Container, ContainerReader, ContainerWriter, Record, MAGIC, VERSION};
pub use crc::{crc32, Crc32};
pub use error::{IoError, Result};
pub use fault::{Fault, FaultyReader, FaultyWriter};
pub use fields::{
    plaquette_tolerance, read_field, read_gauge, rng_from_record, rng_record, write_field,
    write_gauge, Cursor, FieldMeta, Writer,
};
pub use hmc::{read_hmc_chain, write_hmc_chain, HmcChainState, HMC_HISTORY_RECORD, HMC_RECORD};
pub use scan::{scan_checkpoints, CheckpointEntry, CheckpointKind, ScanReport, SkippedCheckpoint};
pub use subspace::{
    defl_vector_record, read_subspace, write_subspace, Subspace, DEFL_META_RECORD,
    DEFL_SCALARS_RECORD,
};

/// Record a typed `io.error` flight event and bump the `io.errors` counter.
/// Called by every read/write/validate path the moment a failure surfaces,
/// before the error propagates to the caller.
pub(crate) fn record_io_error(e: &IoError) {
    qcd_trace::counter("io.errors").inc();
    qcd_trace::record_event("io.error", e.variant_name(), &[]);
}
