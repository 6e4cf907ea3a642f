//! End-to-end farm tests: a mixed workload runs to completion with a valid
//! status surface, an interrupted service recovers bit-identically, and
//! preemption never perturbs chain results.

use grid::krylov::{self, Start};
use grid::prelude::*;
use qcd_farm::{
    read_done, render_validated_status, validate_status_json, verify_dirs, DoneDigest, Farm,
    FarmConfig, HmcStreamSpec, JobPaths, JobSpec, Priority, SolveSpec,
};
use qcd_hmc::{HmcParams, IntegratorKind};
use qcd_trace::Json;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

fn cfg() -> FarmConfig {
    FarmConfig {
        dims: [4, 4, 4, 4],
        vl_bits: 256,
        backend: SimdBackend::Fcmla,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcd-farm-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn stream(name: &str, seed: u64, trajectories: u64, chunk: u64) -> JobSpec {
    JobSpec::Hmc(HmcStreamSpec {
        name: name.into(),
        priority: Priority::Low,
        seed,
        params: HmcParams {
            beta: 5.6,
            n_steps: 4,
            step_size: 0.125,
            integrator: IntegratorKind::Omelyan,
        },
        trajectories,
        chunk,
    })
}

fn burst(name: &str, requests: u64) -> JobSpec {
    JobSpec::Solve(SolveSpec {
        name: name.into(),
        priority: Priority::High,
        gauge_seed: 77,
        mass: 0.2,
        rhs_seeds: (0..requests).map(|i| 500 + i).collect(),
        tol: 1e-6,
        max_iter: 2000,
        subspace: None,
    })
}

#[test]
fn a_mixed_workload_runs_to_completion_with_a_valid_status_surface() {
    let dir = scratch("mixed");
    let farm = Farm::open(&dir, cfg()).unwrap();
    farm.submit(stream("stream-a", 11, 2, 1)).unwrap();
    farm.submit(stream("stream-b", 12, 2, 1)).unwrap();
    farm.submit(burst("burst-0", 6)).unwrap();
    let stop = AtomicBool::new(false);
    let report = farm.run(2, &stop, None).unwrap();
    assert!(farm.all_done(), "every job must reach done");
    assert!(!report.stopped);
    // 2 trajectories/stream at chunk 1, plus plan_batches(6) = [4, 2].
    assert_eq!(report.units, 2 + 2 + 2);

    // Every job left a digest that reads back.
    for name in ["stream-a", "stream-b"] {
        let DoneDigest::Hmc { trajectory, .. } = read_done(&JobPaths::done(&dir, name)).unwrap()
        else {
            panic!("stream digest expected")
        };
        assert_eq!(trajectory, 2);
    }
    let DoneDigest::Solve(reqs) = read_done(&JobPaths::done(&dir, "burst-0")).unwrap() else {
        panic!("solve digest expected")
    };
    assert_eq!(reqs.len(), 6);
    assert!(reqs.iter().enumerate().all(|(i, r)| r.index == i as u64));

    // The status document validates and reports the drained state.
    let doc = render_validated_status(&farm).unwrap();
    let parsed = Json::parse(&doc).unwrap();
    validate_status_json(&parsed).unwrap();
    let jobs = parsed.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 3);
    assert!(jobs
        .iter()
        .all(|j| j.get("state").and_then(Json::as_str) == Some("done")));
    assert_eq!(
        parsed.get("units_done").and_then(Json::as_u64),
        Some(report.units)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_solve_job_with_an_unbounded_iteration_budget_completes() {
    // `max_iter` is a `u64` straight out of the job record. The solver used
    // to size its history reservation by it, so this spec took the whole
    // service down (overflow panic, or a multi-terabyte allocation abort).
    let dir = scratch("unbounded");
    let farm = Farm::open(&dir, cfg()).unwrap();
    let JobSpec::Solve(mut spec) = burst("burst-max", 2) else {
        unreachable!()
    };
    spec.max_iter = u64::MAX;
    farm.submit(JobSpec::Solve(spec)).unwrap();
    let stop = AtomicBool::new(false);
    farm.run(1, &stop, None).unwrap();
    assert!(farm.all_done());
    let DoneDigest::Solve(unbounded) = read_done(&JobPaths::done(&dir, "burst-max")).unwrap()
    else {
        panic!("solve digest expected")
    };
    // Same answers as the budget every other test uses.
    let bounded_dir = scratch("bounded");
    let bounded_farm = Farm::open(&bounded_dir, cfg()).unwrap();
    bounded_farm.submit(burst("burst-max", 2)).unwrap();
    bounded_farm.run(1, &stop, None).unwrap();
    let DoneDigest::Solve(bounded) = read_done(&JobPaths::done(&bounded_dir, "burst-max")).unwrap()
    else {
        panic!("solve digest expected")
    };
    assert_eq!(unbounded, bounded);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&bounded_dir).ok();
}

#[test]
fn an_interrupted_service_recovers_bit_identically() {
    let mix = |farm: &Farm| {
        farm.submit(stream("stream-a", 21, 3, 1)).unwrap();
        farm.submit(stream("stream-b", 22, 3, 1)).unwrap();
        farm.submit(burst("burst-0", 5)).unwrap();
    };

    // Reference: the same mix drained without interruption.
    let ref_dir = scratch("recover-ref");
    let reference = Farm::open(&ref_dir, cfg()).unwrap();
    mix(&reference);
    reference.run(1, &AtomicBool::new(false), None).unwrap();
    assert!(reference.all_done());

    // Interrupted service: the unit budget cuts the run mid-mix, exactly
    // like a SIGTERM at a checkpoint boundary.
    let cut_dir = scratch("recover-cut");
    let first = Farm::open(&cut_dir, cfg()).unwrap();
    mix(&first);
    let report = first.run(1, &AtomicBool::new(false), Some(3)).unwrap();
    assert!(report.stopped, "the budget must stop the service early");
    assert!(!first.all_done(), "work must remain after the cut");
    drop(first);

    // Recovery: reopen the directory and drain what the scan re-enqueues.
    let second = Farm::open(&cut_dir, cfg()).unwrap();
    second.run(1, &AtomicBool::new(false), None).unwrap();
    assert!(second.all_done(), "recovery must finish every job");

    verify_dirs(&ref_dir, &cut_dir).unwrap();
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&cut_dir).ok();
}

#[test]
fn a_shared_subspace_deflates_farm_bursts_bit_identically() {
    // Build the subspace for the exact operator the bursts solve against
    // (gauge seed 77, mass 0.2) and park it in the farm directory.
    let dir = scratch("deflated");
    std::fs::create_dir_all(&dir).unwrap();
    let grid = cfg().grid();
    let op = WilsonDirac::new(random_gauge(grid.clone(), 77), 0.2);
    let start = FermionField::random(grid.clone(), 99);
    let params = qcd_deflate::LanczosParams::for_nev(4);
    let (sub, _) = qcd_deflate::lanczos(&op, &params, start, op.mass);
    sub.save(&JobPaths::subspace(&dir, "shared"), Precision::F64)
        .unwrap();

    // Two bursts share the one subspace; a third runs undeflated.
    let deflated = |name: &str, seeds: std::ops::Range<u64>| {
        JobSpec::Solve(SolveSpec {
            name: name.into(),
            priority: Priority::Normal,
            gauge_seed: 77,
            mass: 0.2,
            rhs_seeds: seeds.map(|i| 500 + i).collect(),
            tol: 1e-6,
            max_iter: 2000,
            subspace: Some("shared".into()),
        })
    };
    let farm = Farm::open(&dir, cfg()).unwrap();
    farm.submit(deflated("defl-a", 0..3)).unwrap();
    farm.submit(deflated("defl-b", 3..5)).unwrap();
    farm.submit(burst("plain", 2)).unwrap();
    farm.run(2, &AtomicBool::new(false), None).unwrap();
    assert!(farm.all_done());

    // Every deflated request digest matches a standalone deflated solve of
    // the same seed (CG from the Galerkin guess), regardless of which
    // job/batch carried it.
    let reload =
        qcd_deflate::Subspace::load(&JobPaths::subspace(&dir, "shared"), &grid, 0.2).unwrap();
    let expect = |seed: u64| {
        let b = FermionField::random(grid.clone(), 500 + seed);
        let (x, rep) = krylov::cg_solve(
            &mut op.normal(&mut FermionField::zero(grid.clone())),
            &b,
            Start::Guess(qcd_deflate::galerkin_guess(&reload, 0.2, &b)),
            1e-6,
            2000,
            qcd_trace::span!("solver.deflate"),
            "solver.defl_cg",
            krylov::no_observer,
        );
        (
            rep.iterations as u64,
            rep.residual.to_bits(),
            x.norm2().to_bits(),
        )
    };
    for (name, seeds) in [("defl-a", 0..3u64), ("defl-b", 3..5)] {
        let DoneDigest::Solve(reqs) = read_done(&JobPaths::done(&dir, name)).unwrap() else {
            panic!("solve digest expected for {name}")
        };
        for (slot, seed) in seeds.enumerate() {
            let (iters, res, norm) = expect(seed);
            assert_eq!(reqs[slot].iterations, iters, "{name} req {slot}");
            assert_eq!(reqs[slot].residual_bits, res, "{name} req {slot}");
            assert_eq!(reqs[slot].norm2_bits, norm, "{name} req {slot}");
        }
    }

    // The plain burst is unaffected by deflated neighbours.
    let DoneDigest::Solve(plain) = read_done(&JobPaths::done(&dir, "plain")).unwrap() else {
        panic!("solve digest expected")
    };
    let (x, rep) = cg(&op, &FermionField::random(grid.clone(), 500), 1e-6, 2000);
    assert_eq!(plain[0].iterations, rep.iterations as u64);
    assert_eq!(plain[0].residual_bits, rep.residual.to_bits());
    assert_eq!(plain[0].norm2_bits, x.norm2().to_bits());

    // A burst naming a missing subspace fails the run as a typed IO error.
    let missing = Farm::open(&scratch("deflated-missing"), cfg()).unwrap();
    missing
        .submit(JobSpec::Solve(SolveSpec {
            name: "orphan".into(),
            priority: Priority::Normal,
            gauge_seed: 77,
            mass: 0.2,
            rhs_seeds: vec![900],
            tol: 1e-6,
            max_iter: 2000,
            subspace: Some("nowhere".into()),
        }))
        .unwrap();
    assert!(missing.run(1, &AtomicBool::new(false), None).is_err());
    std::fs::remove_dir_all(missing.dir()).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Write a subspace file that passes its CRC — mass 0.2, `values`, one
/// `vectors` entry per value — as the shared subspace of a fresh farm
/// directory `tag`, submit one burst naming it, and return the error
/// `Farm::run` fails with.
fn run_against_hostile_subspace(
    tag: &str,
    values: &[f64],
    vectors: &[FermionField],
) -> qcd_io::IoError {
    let dir = scratch(&format!("hostile-subspace-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut scalars = qcd_io::Writer::default();
    scalars.f64(0.2);
    scalars.u64(values.len() as u64);
    for &theta in values {
        scalars.f64(theta);
        scalars.f64(0.0);
    }
    let mut file = qcd_io::Container::new();
    file.push(qcd_io::Record::new(
        qcd_io::DEFL_META_RECORD,
        qcd_io::FieldMeta::of(&FermionField::random(cfg().grid(), 1), Precision::F64).encode(),
    ));
    file.push(qcd_io::Record::new(qcd_io::DEFL_SCALARS_RECORD, scalars.0));
    for (i, v) in vectors.iter().enumerate() {
        let payload = qcd_io::fields::encode_field(v, Precision::F64);
        file.push(qcd_io::Record::new(&qcd_io::defl_vector_record(i), payload));
    }
    file.write_atomic(&JobPaths::subspace(&dir, "shared"))
        .unwrap();
    let farm = Farm::open(&dir, cfg()).unwrap();
    farm.submit(JobSpec::Solve(SolveSpec {
        name: "hostile".into(),
        priority: Priority::Normal,
        gauge_seed: 77,
        mass: 0.2,
        rhs_seeds: vec![900],
        tol: 1e-6,
        max_iter: 2000,
        subspace: Some("shared".into()),
    }))
    .unwrap();
    let err = farm.run(1, &AtomicBool::new(false), None).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    err
}

#[test]
fn a_subspace_without_usable_eigenvalues_fails_its_unit_not_the_worker() {
    // Files that pass their CRC but hold no eigenpair, or a zero θ the
    // Galerkin guess would divide by: the unit that loads one fails with
    // the typed error, and `Farm::run` returns it — neither a worker's
    // panic escaping the scope nor a solve from a non-finite guess.
    let v = FermionField::random(cfg().grid(), 1);
    for (tag, values) in [("zero", vec![0.0]), ("empty", vec![])] {
        let vectors = vec![v.clone(); values.len()];
        let err = run_against_hostile_subspace(tag, &values, &vectors);
        assert!(
            matches!(err, qcd_io::IoError::BadRecord { .. }),
            "{tag}: {err}"
        );
    }
}

#[test]
fn a_subspace_with_a_non_finite_vector_fails_its_unit() {
    // Usable eigenvalues, but one component of the eigenvector is NaN: the
    // Galerkin guess is NaN, and a driver that took it would report the
    // job done with a NaN residual.
    let mut v = FermionField::random(cfg().grid(), 1);
    v.poke(&[0, 1, 2, 3], 7, Complex::new(f64::NAN, 0.25));
    let err = run_against_hostile_subspace("nan-vector", &[0.5], &[v]);
    match err {
        qcd_io::IoError::BadRecord { record, .. } => {
            assert_eq!(record, qcd_io::defl_vector_record(0))
        }
        other => panic!("expected a refused vector, got {other}"),
    }
}

#[test]
fn preemption_checkpoints_the_stream_without_changing_its_results() {
    // Reference: the stream alone, uninterrupted, one giant chunk.
    let ref_dir = scratch("preempt-ref");
    let reference = Farm::open(&ref_dir, cfg()).unwrap();
    reference.submit(stream("stream-a", 31, 8, 8)).unwrap();
    reference.run(1, &AtomicBool::new(false), None).unwrap();
    assert!(reference.all_done());

    // Contended: the same stream on one worker, with a high-priority burst
    // submitted while the chunk is mid-flight. The burst must preempt the
    // stream at a trajectory boundary and run first.
    let dir = scratch("preempt");
    let farm = Farm::open(&dir, cfg()).unwrap();
    farm.submit(stream("stream-a", 31, 8, 8)).unwrap();
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| farm.run(1, &stop, None));
        std::thread::sleep(Duration::from_millis(120));
        farm.submit(burst("burst-hi", 4)).unwrap();
        handle.join().unwrap().unwrap()
    });
    assert!(farm.all_done(), "both jobs must finish");
    assert!(
        report.preemptions >= 1,
        "the high-priority burst must preempt the running chunk"
    );

    // The preempted-and-resumed chain is bit-identical to the
    // uninterrupted one; so is its digest.
    for artifact in [JobPaths::chain, JobPaths::done] {
        let a = std::fs::read(artifact(&ref_dir, "stream-a")).unwrap();
        let b = std::fs::read(artifact(&dir, "stream-a")).unwrap();
        assert_eq!(a, b, "stream artifacts must be byte-identical");
    }
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
