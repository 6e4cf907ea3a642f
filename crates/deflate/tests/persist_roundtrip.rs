//! Subspace checkpoint kill/resume: a deflated solve driven by a subspace
//! reloaded from `defl.*` records is bit-identical to the solve driven by
//! the in-memory original — including across a vector-length change on
//! reload, because the records store sites in global lexicographic order
//! and every steering scalar is a canonical reduction. Wrong-lattice and
//! wrong-mass loads raise typed errors instead of corrupting the solve.

use grid::krylov::{self, Start};
use grid::prelude::*;
use qcd_deflate::{galerkin_guess, lanczos, EigenReport, LanczosParams, Subspace};
use qcd_io::IoError;

const MASS: f64 = 0.1;

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "qcd-deflate-persist-{tag}-{}.qio",
        std::process::id()
    ))
}

/// The subspace of `nev` pairs from the seed-99 start, at default
/// parameters.
fn subspace_of(op: &WilsonDirac, nev: usize) -> (Subspace, EigenReport) {
    let start = FermionField::random(op.grid().clone(), 99);
    lanczos(op, &LanczosParams::for_nev(nev), start, op.mass)
}

/// The deflated solve of `M†M x = b` from the Galerkin guess of `sub`.
fn deflated(op: &WilsonDirac, sub: &Subspace, b: &FermionField) -> (FermionField, SolveReport) {
    krylov::cg_solve(
        &mut op.normal(&mut FermionField::zero(op.grid().clone())),
        b,
        Start::Guess(galerkin_guess(sub, op.mass, b)),
        1e-8,
        2000,
        qcd_trace::span!("solver.deflate"),
        "solver.defl_cg",
        krylov::no_observer,
    )
}

fn op_on(bits: usize) -> WilsonDirac {
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
    WilsonDirac::new(random_gauge(g, 7), MASS)
}

#[test]
fn reloaded_subspace_reproduces_the_deflated_solve_bitwise() {
    let path = tmp("resume");
    let op = op_on(256);
    let (sub, _rep) = subspace_of(&op, 4);
    sub.save(&path, Precision::F64).unwrap();

    let b = FermionField::random(op.grid().clone(), 11);
    let (x_ref, rep_ref) = deflated(&op, &sub, &b);

    // Same-layout resume: the killed-and-restarted farm job case.
    let back = Subspace::load(&path, op.grid(), MASS).unwrap();
    let (x, rep) = deflated(&op, &back, &b);
    assert_eq!(rep.iterations, rep_ref.iterations);
    assert_eq!(rep.residual.to_bits(), rep_ref.residual.to_bits());
    assert_eq!(rep.history.len(), rep_ref.history.len());
    for (a, r) in rep.history.iter().zip(&rep_ref.history) {
        assert_eq!(a.to_bits(), r.to_bits());
    }
    assert_eq!(x.max_abs_diff(&x_ref), 0.0);

    // Cross-VL resume: a different machine picks up the same checkpoint.
    let op512 = op_on(512);
    let back512 = Subspace::load(&path, op512.grid(), MASS).unwrap();
    let b512 = FermionField::random(op512.grid().clone(), 11);
    let (_x512, rep512) = deflated(&op512, &back512, &b512);
    assert_eq!(rep512.iterations, rep_ref.iterations);
    assert_eq!(rep512.residual.to_bits(), rep_ref.residual.to_bits());
    for (a, r) in rep512.history.iter().zip(&rep_ref.history) {
        assert_eq!(a.to_bits(), r.to_bits());
    }
}

#[test]
fn wrong_mass_load_is_a_typed_error() {
    let path = tmp("mass");
    let op = op_on(256);
    let (sub, _) = subspace_of(&op, 2);
    sub.save(&path, Precision::F64).unwrap();
    let err = Subspace::load(&path, op.grid(), 0.25).err().unwrap();
    match err {
        IoError::MassMismatch { want, found } => {
            assert_eq!(want, 0.25);
            assert_eq!(found, MASS);
        }
        other => panic!("expected MassMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_lattice_load_is_a_typed_error() {
    let path = tmp("lattice");
    let op = op_on(256);
    let (sub, _) = subspace_of(&op, 2);
    sub.save(&path, Precision::F64).unwrap();
    let wrong: std::sync::Arc<Grid> =
        Grid::new([4, 4, 4, 8], VectorLength::of(256), SimdBackend::Fcmla);
    let err = Subspace::load(&path, &wrong, MASS).err().unwrap();
    assert!(
        matches!(err, IoError::GridMismatch { .. }),
        "expected GridMismatch, got {err:?}"
    );
}
