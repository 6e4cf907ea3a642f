//! Deflation subspace records: persist a low-mode eigenspace of `M†M`.
//!
//! A deflation subspace is expensive to build (a Lanczos run costing many
//! operator applications) and cheap to apply, so campaigns want to compute
//! it once per configuration and share it across every solve at the same
//! mass — including farm jobs in other processes. This module stores the
//! subspace as `qcd-io/v1` records:
//!
//! * `defl.meta` — a [`FieldMeta`] describing the eigenvector geometry and
//!   on-disk precision (reusing the field metadata codec, so the payload is
//!   portable across SVE vector lengths exactly like field files).
//! * `defl.scalars` — the Wilson mass the subspace was built at (exact
//!   bits), then per-eigenpair eigenvalue and validated residual bits.
//! * `defl.v.<i>` — one field record per eigenvector, serialized in global
//!   lexicographic site order at the chosen precision tier (f64/f32/f16).
//!
//! Loads are validated: a wrong-geometry file raises
//! [`IoError::GridMismatch`], and a subspace built at a different operator
//! mass raises [`IoError::MassMismatch`] — the comparison is bit-exact,
//! because the stored vectors deflate `M†M(mass)` and nothing else.
//!
//! This module deliberately speaks only in primitives (`Field`s and `f64`
//! slices) so `qcd-io` needs no dependency on `qcd-deflate`; the deflate
//! crate wraps these functions with its `Subspace::save`/`load` methods.

use crate::container::{Container, Record};
use crate::error::{IoError, Result};
use crate::fields::{decode_field, encode_field, Cursor, FieldMeta, Writer};
use grid::codec::Precision;
use grid::field::FermionKind;
use grid::{Field, Grid};
use std::path::Path;
use std::sync::Arc;
use sve::SveFloat;

/// Record type of the subspace metadata record (a [`FieldMeta`]).
pub const DEFL_META_RECORD: &str = "defl.meta";
/// Record type of the scalar record (mass, eigenvalues, residuals).
pub const DEFL_SCALARS_RECORD: &str = "defl.scalars";

/// Record type of the `i`-th eigenvector payload.
pub fn defl_vector_record(i: usize) -> String {
    format!("defl.v.{i}")
}

/// A loaded deflation subspace: eigenvectors of `M†M` with their
/// eigenvalues, the residuals validated at build time, and the operator
/// mass the subspace belongs to.
pub struct SubspaceData<E: SveFloat = f64> {
    /// Approximate eigenvectors, lowest eigenvalue first.
    pub vectors: Vec<Field<FermionKind, E>>,
    /// Eigenvalues `θ_i` matching `vectors` (real and positive: `M†M` is
    /// Hermitian positive-definite).
    pub values: Vec<f64>,
    /// Explicit residuals `‖M†M v_i − θ_i v_i‖ / ‖v_i‖` validated when the
    /// subspace was built.
    pub residuals: Vec<f64>,
    /// Wilson mass of the operator the subspace deflates.
    pub mass: f64,
}

fn scalars_record(mass: f64, values: &[f64], residuals: &[f64]) -> Record {
    let mut w = Writer::default();
    w.f64(mass);
    w.u64(values.len() as u64);
    for (&v, &r) in values.iter().zip(residuals.iter()) {
        w.f64(v);
        w.f64(r);
    }
    Record::new(DEFL_SCALARS_RECORD, w.0)
}

fn decode_scalars(record: &Record) -> Result<(f64, Vec<f64>, Vec<f64>)> {
    let mut cur = Cursor::new(&record.payload, DEFL_SCALARS_RECORD);
    let mass = cur.f64("operator mass")?;
    let nev = cur.count("eigenpair count", 16)?; // eigenvalue + residual
    let mut values = Vec::with_capacity(nev);
    let mut residuals = Vec::with_capacity(nev);
    for _ in 0..nev {
        values.push(cur.f64("eigenvalue")?);
        residuals.push(cur.f64("residual")?);
    }
    cur.done()?;
    Ok((mass, values, residuals))
}

/// Write a deflation subspace to `path` atomically at the chosen on-disk
/// precision tier. `values` and `residuals` must match `vectors` in length.
pub fn write_subspace<E: SveFloat>(
    vectors: &[Field<FermionKind, E>],
    values: &[f64],
    residuals: &[f64],
    mass: f64,
    path: &Path,
    precision: Precision,
) -> Result<u64> {
    assert!(!vectors.is_empty(), "cannot persist an empty subspace");
    assert_eq!(vectors.len(), values.len(), "one eigenvalue per vector");
    assert_eq!(vectors.len(), residuals.len(), "one residual per vector");
    let mut c = Container::new();
    c.push(Record::new(
        DEFL_META_RECORD,
        FieldMeta::of(&vectors[0], precision).encode(),
    ));
    c.push(scalars_record(mass, values, residuals));
    for (i, v) in vectors.iter().enumerate() {
        c.push(Record::new(
            &defl_vector_record(i),
            encode_field(v, precision),
        ));
    }
    c.write_atomic(path)
}

/// Read a subspace written by [`write_subspace`] into fields on `grid`,
/// for use with an operator at `want_mass`.
///
/// Fails typed: [`IoError::GridMismatch`] when the file's lattice geometry
/// does not match `grid`, [`IoError::MassMismatch`] when the stored mass is
/// not bit-identical to `want_mass`, plus the usual container-level errors
/// (CRC, truncation, missing records).
pub fn read_subspace<E: SveFloat>(
    path: &Path,
    grid: &Arc<Grid<E>>,
    want_mass: f64,
) -> Result<SubspaceData<E>> {
    let c = Container::open(path)?;
    read_subspace_inner(&c, grid, want_mass).inspect_err(crate::record_io_error)
}

fn read_subspace_inner<E: SveFloat>(
    c: &Container,
    grid: &Arc<Grid<E>>,
    want_mass: f64,
) -> Result<SubspaceData<E>> {
    let meta = FieldMeta::decode(&c.expect(DEFL_META_RECORD)?.payload, DEFL_META_RECORD)?;
    let (mass, values, residuals) = decode_scalars(c.expect(DEFL_SCALARS_RECORD)?)?;
    if mass.to_bits() != want_mass.to_bits() {
        return Err(IoError::MassMismatch {
            want: want_mass,
            found: mass,
        });
    }
    let mut vectors = Vec::with_capacity(values.len());
    for i in 0..values.len() {
        let name = defl_vector_record(i);
        let record = c.expect(&name)?;
        vectors.push(decode_field(&meta, &record.payload, grid, &name)?);
    }
    Ok(SubspaceData {
        vectors,
        values,
        residuals,
        mass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::prelude::*;
    use grid::FieldKind;

    fn small_grid(bits: usize) -> Arc<Grid<f64>> {
        Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla)
    }

    fn sample_subspace(grid: &Arc<Grid<f64>>) -> (Vec<FermionField>, Vec<f64>, Vec<f64>) {
        let vectors: Vec<FermionField> = (0..3)
            .map(|i| FermionField::random(grid.clone(), 70 + i))
            .collect();
        let values = vec![0.017, 0.092, 0.213];
        let residuals = vec![1e-9, 3e-9, 8e-9];
        (vectors, values, residuals)
    }

    #[test]
    fn subspace_round_trips_bit_exactly_at_f64() {
        let grid = small_grid(256);
        let (vectors, values, residuals) = sample_subspace(&grid);
        let path = std::env::temp_dir().join("qcd-io-subspace-roundtrip.qio");
        write_subspace(&vectors, &values, &residuals, 0.08, &path, Precision::F64).unwrap();
        let back = read_subspace::<f64>(&path, &grid, 0.08).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.values, values);
        assert_eq!(back.residuals, residuals);
        assert_eq!(back.mass, 0.08);
        for (v, w) in vectors.iter().zip(back.vectors.iter()) {
            assert_eq!(v.max_abs_diff(w), 0.0);
        }
    }

    #[test]
    fn subspace_is_portable_across_vector_lengths() {
        let g_write = small_grid(512);
        let (vectors, values, residuals) = sample_subspace(&g_write);
        let path = std::env::temp_dir().join("qcd-io-subspace-portable.qio");
        write_subspace(&vectors, &values, &residuals, 0.08, &path, Precision::F64).unwrap();
        let g_read = small_grid(128);
        let back = read_subspace::<f64>(&path, &g_read, 0.08).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Compare in layout-independent site order via peek.
        for (v, w) in vectors.iter().zip(back.vectors.iter()) {
            for x in v.grid().coords() {
                for comp in 0..grid::field::FermionKind::NCOMP {
                    assert_eq!(v.peek(&x, comp), w.peek(&x, comp));
                }
            }
        }
    }

    #[test]
    fn wrong_mass_is_a_typed_error() {
        let grid = small_grid(256);
        let (vectors, values, residuals) = sample_subspace(&grid);
        let path = std::env::temp_dir().join("qcd-io-subspace-mass.qio");
        write_subspace(&vectors, &values, &residuals, 0.08, &path, Precision::F64).unwrap();
        let err = read_subspace::<f64>(&path, &grid, 0.0800000001)
            .err()
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, IoError::MassMismatch { .. }), "got {err}");
    }

    #[test]
    fn wrong_lattice_is_a_typed_error() {
        let grid = small_grid(256);
        let (vectors, values, residuals) = sample_subspace(&grid);
        let path = std::env::temp_dir().join("qcd-io-subspace-grid.qio");
        write_subspace(&vectors, &values, &residuals, 0.08, &path, Precision::F64).unwrap();
        let other = Grid::new([4, 4, 4, 8], VectorLength::of(256), SimdBackend::Fcmla);
        let err = read_subspace::<f64>(&path, &other, 0.08).err().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, IoError::GridMismatch { .. }), "got {err}");
    }

    #[test]
    fn lossy_tiers_round_scalars_but_keep_metadata_exact() {
        let grid = small_grid(256);
        let (vectors, values, residuals) = sample_subspace(&grid);
        let path = std::env::temp_dir().join("qcd-io-subspace-f32.qio");
        write_subspace(&vectors, &values, &residuals, 0.08, &path, Precision::F32).unwrap();
        let back = read_subspace::<f64>(&path, &grid, 0.08).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Eigenvalues/residuals/mass are stored at full width regardless of
        // the vector payload tier.
        assert_eq!(back.values, values);
        assert_eq!(back.residuals, residuals);
        for (v, w) in vectors.iter().zip(back.vectors.iter()) {
            let d = v.max_abs_diff(w);
            assert!(d > 0.0 && d < 1e-6, "f32 tier rounding out of range: {d}");
        }
    }
}
