//! Hostile and obsolete files: a container whose framing and CRCs are
//! valid but whose *payload* lies — a count its bytes cannot hold, a record
//! set of a format this reader no longer speaks — is a typed error, never
//! an abort, a panic or a misparse.
//!
//! Every file here is built with [`Container`], so the bytes reach the
//! decoders: the CRC layer has nothing to object to.

use grid::codec::Precision;
use grid::prelude::*;
use qcd_io::fields::{encode_field, META_RECORD};
use qcd_io::{
    defl_vector_record, load_state, read_hmc_chain, read_subspace, resume, scan_checkpoints,
    CheckpointKind, Container, FieldMeta, HmcChainState, IoError, Record, DEFL_META_RECORD,
    DEFL_SCALARS_RECORD, HMC_HISTORY_RECORD, HMC_RECORD, STATE_SCALARS,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcd-io-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grid() -> Arc<Grid<f64>> {
    Grid::new([2, 2, 2, 2], VectorLength::of(128), SimdBackend::Fcmla)
}

fn u64s(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn write(path: &Path, records: Vec<Record>) {
    let mut c = Container::new();
    records.into_iter().for_each(|r| c.push(r));
    c.write_atomic(path).unwrap();
}

fn field_record(name: &str, f: &FermionField) -> Record {
    Record::new(name, encode_field(f, Precision::F64))
}

fn expect_bad_record<T>(outcome: Result<T, IoError>, record: &str, what: &str) {
    match outcome {
        Err(IoError::BadRecord { record: r, msg }) => {
            assert_eq!(r, record, "{what}: {msg}");
            assert!(msg.contains("exceeds"), "{what}: {msg}");
        }
        other => panic!(
            "{what}: expected a refused count, got {:?}",
            other.map(|_| ()).map_err(|e| e.to_string())
        ),
    }
}

#[test]
fn a_forged_count_is_refused_before_it_sizes_an_allocation() {
    let d = dir("counts");
    let g = grid();
    let f = FermionField::random(g.clone(), 3);
    let meta = || Record::new(META_RECORD, FieldMeta::of(&f, Precision::F64).encode());
    let one = 1.0f64.to_bits();

    // A solver state whose history claims 2⁴⁴ entries (an attempted
    // 128 TiB reservation at the parent commit: SIGABRT), 2⁶¹ (a capacity
    // overflow panic), and one whose RHS count does.
    for (tag, scalars) in [
        ("history-2^44", u64s(&[1, 7, one, one, 1 << 44])),
        ("history-2^61", u64s(&[1, 7, one, one, 1 << 61])),
        ("nrhs-2^44", u64s(&[1 << 44, 7, one, one, 0])),
    ] {
        let path = d.join(format!("{tag}.qio"));
        write(
            &path,
            vec![
                meta(),
                Record::new(STATE_SCALARS, scalars),
                field_record("state.x", &f),
                field_record("state.r", &f),
                field_record("state.p", &f),
            ],
        );
        expect_bad_record(load_state::<FermionField>(&path, &g), STATE_SCALARS, tag);
        expect_bad_record(load_state::<FermionBlock>(&path, &g), STATE_SCALARS, tag);
    }

    // The chain history the farm reloads at every chunk boundary.
    let state = HmcChainState {
        beta: 5.6,
        step_size: 0.1,
        n_steps: 4,
        integrator: 0,
        seed: 11,
        trajectory: 0,
        accepted: 0,
        rejected: 0,
        dh_history: vec![],
        accept_history: vec![],
    };
    let (chain, _) = state.to_records();
    let path = d.join("chain.qio");
    write(
        &path,
        vec![chain, Record::new(HMC_HISTORY_RECORD, u64s(&[1 << 44]))],
    );
    expect_bad_record(read_hmc_chain(&path, &g), HMC_HISTORY_RECORD, "chain");

    // The eigenpair count of the subspace a `SolveSpec.subspace` names.
    let path = d.join("subspace.qio");
    write(
        &path,
        vec![
            Record::new(DEFL_META_RECORD, FieldMeta::of(&f, Precision::F64).encode()),
            Record::new(DEFL_SCALARS_RECORD, u64s(&[0.25f64.to_bits(), 1 << 44])),
        ],
    );
    expect_bad_record(read_subspace(&path, &g, 0.25), DEFL_SCALARS_RECORD, "nev");
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn a_subspace_without_usable_eigenvalues_is_refused() {
    // Deflation needs at least one pair, and the Galerkin guess divides by
    // every eigenvalue: a file with none panics the farm worker that loads
    // it (`galerkin_guess`'s non-empty assert), and a θ that is zero,
    // negative or not finite makes the guess non-finite.
    let d = dir("eigenvalues");
    let g = grid();
    let f = FermionField::random(g.clone(), 3);
    let path = d.join("subspace.qio");
    for (tag, values) in [
        ("nev 0", vec![]),
        ("zero", vec![0.0]),
        ("negative", vec![-0.5]),
        ("NaN", vec![f64::NAN]),
        ("infinite", vec![f64::INFINITY]),
        ("second zero", vec![0.5, 0.0]),
    ] {
        let mut scalars = vec![0.25f64.to_bits(), values.len() as u64];
        scalars.extend(values.iter().flat_map(|v: &f64| [v.to_bits(), 0]));
        let mut records = vec![
            Record::new(DEFL_META_RECORD, FieldMeta::of(&f, Precision::F64).encode()),
            Record::new(DEFL_SCALARS_RECORD, u64s(&scalars)),
        ];
        records.extend((0..values.len()).map(|i| field_record(&defl_vector_record(i), &f)));
        write(&path, records);
        match read_subspace(&path, &g, 0.25) {
            Err(IoError::BadRecord { record, msg }) => {
                assert_eq!(record, DEFL_SCALARS_RECORD, "{tag}: {msg}");
                assert!(msg.contains("eigen"), "{tag}: {msg}");
            }
            other => panic!(
                "{tag}: expected a refused subspace, got {:?}",
                other.map(|_| ()).map_err(|e| e.to_string())
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn a_subspace_with_a_non_finite_vector_is_refused() {
    // Eigenvalues fine, but one component of `defl.v.1` is NaN or infinite:
    // the file passes its CRC and decodes, and the Galerkin guess built
    // from it is NaN.
    let d = dir("vectors");
    let g = grid();
    let f = FermionField::random(g.clone(), 3);
    let path = d.join("subspace.qio");
    for (tag, bad) in [("NaN", f64::NAN), ("infinite", f64::NEG_INFINITY)] {
        let mut poisoned = f.clone();
        poisoned.poke(&[1, 0, 1, 0], 5, Complex::new(0.5, bad));
        let [mass, theta0, theta1] = [0.25f64, 0.5, 0.75].map(f64::to_bits);
        let scalars = [mass, 2, theta0, 0, theta1, 0];
        write(
            &path,
            vec![
                Record::new(DEFL_META_RECORD, FieldMeta::of(&f, Precision::F64).encode()),
                Record::new(DEFL_SCALARS_RECORD, u64s(&scalars)),
                field_record(&defl_vector_record(0), &f),
                field_record(&defl_vector_record(1), &poisoned),
            ],
        );
        match read_subspace(&path, &g, 0.25) {
            Err(IoError::BadRecord { record, msg }) => {
                assert_eq!(record, defl_vector_record(1), "{tag}: {msg}");
                assert!(msg.contains("not finite"), "{tag}: {msg}");
            }
            other => panic!(
                "{tag}: expected a refused vector, got {:?}",
                other.map(|_| ()).map_err(|e| e.to_string())
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn forged_tallies_whose_sum_overflows_are_refused_not_added() {
    // accepted + rejected overflows u64: a panic in the dev profile and a
    // wrapped sum in the release profile at the parent commit. The loader
    // and the recovery scan must both come back with an answer.
    let d = dir("tallies");
    let state = HmcChainState {
        beta: 5.6,
        step_size: 0.1,
        n_steps: 4,
        integrator: 0,
        seed: 11,
        trajectory: 0,
        accepted: u64::MAX,
        rejected: 1,
        dh_history: vec![],
        accept_history: vec![],
    };
    let (chain, history) = state.to_records();
    let path = d.join("forged.qio");
    write(&path, vec![chain, history]);
    match read_hmc_chain(&path, &grid()) {
        Err(IoError::BadRecord { record, msg }) => {
            assert_eq!(record, HMC_RECORD);
            assert!(msg.contains("tallies"), "{msg}");
        }
        other => panic!(
            "expected forged tallies to be refused, got {:?}",
            other.map(|_| ()).map_err(|e| e.to_string())
        ),
    }
    let report = scan_checkpoints(&d).unwrap();
    assert_eq!(report.entries.len(), 1);
    assert_eq!(report.entries[0].kind, CheckpointKind::HmcChain);
    assert_eq!(report.entries[0].progress, 0);
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn files_of_the_four_retired_solver_layouts_are_refused_by_name() {
    // The byte layouts `save_cg`, `save_block_cg`, `save_bicgstab` and
    // `save_mixed` wrote before the one state codec. None carries a
    // `state.scalars` record, so none can be misread as one (`cg.scalars`
    // begins with an iteration count where the RHS count now sits).
    let d = dir("retired");
    let g = grid();
    let f = FermionField::random(g.clone(), 5);
    let meta = || Record::new(META_RECORD, FieldMeta::of(&f, Precision::F64).encode());
    let one = 1.0f64.to_bits();
    let fields = |names: &[&str]| {
        names
            .iter()
            .map(|n| field_record(n, &f))
            .collect::<Vec<_>>()
    };
    let layouts: [(&str, Record, Vec<Record>); 4] = [
        (
            "cg",
            Record::new("cg.scalars", u64s(&[2, one, one, 1, one])),
            fields(&["cg.x", "cg.r", "cg.p"]),
        ),
        (
            "blk",
            Record::new("blk.scalars", u64s(&[1, 2, one, one, 1, one])),
            fields(&["blk.x.0", "blk.r.0", "blk.p.0"]),
        ),
        (
            "bi",
            Record::new("bi.scalars", u64s(&[2, one, 0, one, 1, one])),
            fields(&["bi.x", "bi.r", "bi.r0", "bi.p"]),
        ),
        (
            "mx",
            Record::new("mx.scalars", u64s(&[2, 40])),
            fields(&["mx.x"]),
        ),
    ];
    for (stem, scalars, fields) in layouts {
        let path = d.join(format!("{stem}.qio"));
        write(&path, [vec![meta(), scalars], fields].concat());
        let missing = |outcome: Option<IoError>| match outcome {
            Some(IoError::MissingRecord { record }) => assert_eq!(record, STATE_SCALARS, "{stem}"),
            other => panic!("{stem}: expected a missing `state.scalars`, got {other:?}"),
        };
        missing(load_state::<FermionField>(&path, &g).err());
        missing(load_state::<FermionBlock>(&path, &g).err());
        missing(resume(&f, &path).err());
    }

    // The recovery scan files all four under `Other`, never as a solver
    // state it might hand to a resume.
    let report = scan_checkpoints(&d).unwrap();
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert_eq!(report.entries.len(), 4);
    for entry in &report.entries {
        assert_eq!(entry.kind, CheckpointKind::Other(META_RECORD.to_string()));
        assert_eq!(entry.progress, 0);
    }

    // And a state of the current layout with no right-hand side is still
    // rejected, as `load_block_cg` rejected it.
    let path = d.join("empty.qio");
    write(&path, vec![meta(), Record::new(STATE_SCALARS, u64s(&[0]))]);
    match load_state::<FermionBlock>(&path, &g) {
        Err(IoError::BadRecord { record, msg }) => {
            assert_eq!(record, STATE_SCALARS);
            assert!(msg.contains("at least one right-hand side"), "{msg}");
        }
        other => panic!(
            "expected an empty state to be refused, got {:?}",
            other.err()
        ),
    }
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn a_fermion5_checkpoint_is_not_a_field_or_a_block() {
    // A 5-d fermion is one right-hand side stored as Ls fields: read as a
    // field (one RHS, one field) or as a block (one field per RHS) its
    // shape is wrong, and the reader says so rather than panicking; read
    // as a 5-d fermion of another Ls it is refused too.
    let d = dir("fermion5");
    let g = grid();
    let op = DomainWall::new(random_gauge(g.clone(), 3), 4, 1.8, 0.04);
    let b = Fermion5::random(g.clone(), 4, 4);
    let path = d.join("five.qio");
    let mut checkpointer = qcd_io::Checkpointer::every(2, &path);
    let _ = grid::krylov::cg_solve(
        &mut op.normal(&mut Fermion5::zero(g.clone(), 4)),
        &b,
        grid::krylov::Start::Zero,
        1e-10,
        2,
        qcd_trace::span!("test.solve"),
        "test.solve",
        checkpointer.observer(),
    );
    assert_eq!(checkpointer.finish().unwrap(), 1);
    let shape = |outcome: Option<IoError>, what: &str| match outcome {
        Some(IoError::BadRecord { record, msg }) => {
            assert_eq!(record, STATE_SCALARS, "{what}: {msg}");
            assert!(msg.contains("fields per iterate"), "{what}: {msg}");
        }
        other => panic!("{what}: expected a refused shape, got {other:?}"),
    };
    shape(load_state::<FermionField>(&path, &g).err(), "as a field");
    shape(load_state::<FermionBlock>(&path, &g).err(), "as a block");
    shape(
        resume(&Fermion5::random(g.clone(), 2, 4), &path).err(),
        "as Ls 2",
    );
    assert!(load_state::<Fermion5>(&path, &g).is_ok());
    assert!(resume(&b, &path).is_ok());
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn a_checkpoint_with_a_non_finite_state_is_refused() {
    // CRC-valid snapshots whose iterate or scalars hold a NaN or an
    // infinity: resumed, the solve would take the RHS as finished and
    // report a NaN residual as converged.
    let d = dir("state");
    let g = grid();
    let op = WilsonDirac::new(random_gauge(g.clone(), 3), 0.2);
    let b = FermionField::random(g.clone(), 4);
    let mut state = None;
    let _ = grid::krylov::cg_solve(
        &mut op.normal(&mut FermionField::zero(g.clone())),
        &b,
        grid::krylov::Start::Zero,
        1e-10,
        3,
        qcd_trace::span!("test.solve"),
        "test.solve",
        |s: &grid::krylov::State<FermionField>, _: &[qcd_trace::HealthMonitor]| {
            state = Some(s.clone());
            std::ops::ControlFlow::Continue(())
        },
    );
    let state = state.expect("three iterations ran");
    let path = d.join("state.qio");
    for (tag, bad) in [("NaN", f64::NAN), ("infinite", f64::INFINITY)] {
        let refused = |state: &grid::krylov::State<FermionField>, record: &str| {
            qcd_io::save_state(state, &path).unwrap();
            match load_state::<FermionField>(&path, &g) {
                Err(IoError::BadRecord { record: r, msg }) => {
                    assert_eq!(r, record, "{tag}: {msg}");
                    assert!(msg.contains("not finite"), "{tag}: {msg}");
                }
                other => panic!(
                    "{tag} {record}: expected a refused state, got {:?}",
                    other.map(|_| ()).map_err(|e| e.to_string())
                ),
            }
        };
        let mut poisoned = state.clone();
        poisoned.p.poke(&[1, 0, 1, 0], 5, Complex::new(bad, 0.5));
        refused(&poisoned, "state.p");
        let mut poisoned = state.clone();
        poisoned.r2[0] = bad;
        refused(&poisoned, STATE_SCALARS);
    }
    qcd_io::save_state(&state, &path).unwrap();
    assert!(load_state::<FermionField>(&path, &g).is_ok());
    let _ = std::fs::remove_dir_all(&d);
}
