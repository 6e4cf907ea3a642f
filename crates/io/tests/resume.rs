//! Resume-equivalence tests: a solve killed mid-flight and restored from
//! its on-disk checkpoint must retrace the uninterrupted iteration
//! sequence bit-for-bit — at either width, in any space: durability is an
//! observer of the one `cg_solve`, not a solver.

use grid::krylov::{self, Allocating, CgSpace, Start, State, Stored, Vector};
use grid::prelude::*;
use qcd_io::{load_state, read_field, resume, save_state, write_field, Checkpointer, IoError};
use std::path::PathBuf;
use std::sync::Arc;

const TOL: f64 = 1e-10;
const MAX_ITER: usize = 500;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qcd-io-resume");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn setup() -> (WilsonDirac<f64>, FermionField) {
    let g: Arc<Grid<f64>> = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 81);
    let b = FermionField::random(g.clone(), 82);
    (WilsonDirac::new(u, 0.3), b)
}

fn two_rhs(b0: &FermionField, seed: u64) -> FermionBlock {
    FermionBlock::from_fields(&[b0.clone(), FermionField::random(b0.grid().clone(), seed)])
}

/// One solve in `space` with a checkpoint to `path` every `every`
/// iterations; the snapshot count rides along.
fn durable<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    start: Start<S::V>,
    budget: usize,
    every: usize,
    path: &std::path::Path,
) -> (S::V, <S::V as Vector>::Report, usize)
where
    S::V: Stored<E = f64>,
{
    let mut checkpointer = Checkpointer::every(every, path);
    let (x, report) = krylov::cg_solve(
        space,
        b,
        start,
        TOL,
        budget,
        qcd_trace::span!("test.solve"),
        "test.solve",
        checkpointer.observer(),
    );
    (x, report, checkpointer.finish().unwrap())
}

/// The contract, at any width and in any space: kill a checkpointing solve
/// by capping its budget at 12 (the snapshot on disk is then the one
/// written at iteration 10), resume from disk with the full budget, and
/// return (uninterrupted, resumed) for the caller to compare bit for bit.
#[allow(clippy::type_complexity)]
fn kill_and_resume<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    file: &str,
) -> [(S::V, <S::V as Vector>::Report); 2]
where
    S::V: Stored<E = f64>,
{
    let path = tmp(file);
    let (x_ref, reference, _) = durable(space, b, Start::Zero, MAX_ITER, MAX_ITER, &tmp("unused"));
    let (_, _, snapshots) = durable(space, b, Start::Zero, 12, 5, &path);
    assert_eq!(snapshots, 2, "snapshots at iterations 5 and 10");
    let on_disk: State<S::V> = load_state(&path, b.field().grid()).unwrap();
    assert!(on_disk.iterations.iter().all(|&n| n == 10));

    let start = resume(b, &path).unwrap();
    let (x, resumed, _) = durable(space, b, start, MAX_ITER, 50, &path);
    for j in 0..b.nrhs() {
        assert_eq!(
            x.field()
                .rhs_field(j)
                .max_abs_diff(&x_ref.field().rhs_field(j)),
            0.0,
            "RHS {j}: solutions must be bit-identical"
        );
    }
    [(x_ref, reference), (x, resumed)]
}

fn assert_same_bits(what: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: entry {i} diverged");
    }
}

fn assert_same_solve(reference: &SolveReport, resumed: &SolveReport) {
    assert_eq!(resumed.iterations, reference.iterations);
    assert_same_bits("residual", &[resumed.residual], &[reference.residual]);
    assert_same_bits("history", &resumed.history, &reference.history);
    assert_eq!(resumed.health, reference.health);
    assert!(resumed.converged);
}

fn assert_same_block_solve(reference: &BlockSolveReport, resumed: &BlockSolveReport) {
    assert_eq!(resumed.per_rhs_iterations, reference.per_rhs_iterations);
    assert_same_bits("residuals", &resumed.residuals, &reference.residuals);
    for (j, (a, r)) in resumed
        .histories
        .iter()
        .zip(&reference.histories)
        .enumerate()
    {
        assert_same_bits(&format!("RHS {j} history"), a, r);
    }
    assert!(resumed.converged.iter().all(|&c| c));
}

#[test]
fn cg_killed_and_resumed_from_disk_is_bit_identical() {
    let (op, b) = setup();
    let mut tmp_field = b.zero_like();
    let [(x_ref, reference), (_, resumed)] =
        kill_and_resume(&mut op.normal(&mut tmp_field), &b, "cg.qio");
    assert_same_solve(&reference, &resumed);
    // The durable solve *is* `cg`: same space, same bits.
    let (x_cg, cg_report) = cg(&op, &b, TOL, MAX_ITER);
    assert_eq!(x_ref.max_abs_diff(&x_cg), 0.0);
    assert_same_solve(&cg_report, &resumed);
}

#[test]
fn block_cg_killed_and_resumed_from_disk_is_bit_identical() {
    let (op, b0) = setup();
    let b = two_rhs(&b0, 83);
    let mut tmp_block = b.zero_like();
    let [(x_ref, reference), (_, resumed)] =
        kill_and_resume(&mut op.normal(&mut tmp_block), &b, "blk.qio");
    assert_same_block_solve(&reference, &resumed);
    let (x_block, block_report) = cg(&op, &b, TOL, MAX_ITER);
    assert_eq!(x_ref.max_abs_diff(&x_block), 0.0);
    assert_same_block_solve(&block_report, &resumed);
}

#[test]
fn a_checkpoint_is_interchangeable_between_spaces_with_the_same_bits() {
    // A checkpoint written in the allocating closure space, resumed in the
    // allocation-free fused space (the fused `M†M` + curvature-dot kernel),
    // retraces the fused reference solve bit for bit — the fused kernels
    // retire the same engine ops in the same order and take the same
    // reductions.
    let (op, b) = setup();
    let (x_ref, reference) = cg(&op, &b, TOL, MAX_ITER);

    let path = tmp("cg_closure.qio");
    let mut closure = Allocating::new(|v: &FermionField| op.mdag_m(v));
    let (_, _, snapshots) = durable(&mut closure, &b, Start::Zero, 12, 5, &path);
    assert_eq!(snapshots, 2);

    let mut tmp_field = b.zero_like();
    let mut space = op.normal(&mut tmp_field);
    let start = resume(&b, &path).unwrap();
    let (x, resumed, _) = durable(&mut space, &b, start, MAX_ITER, MAX_ITER, &path);
    assert_eq!(x.max_abs_diff(&x_ref), 0.0);
    assert_same_solve(&reference, &resumed);
}

/// A state seven iterations into the fused solve of `b`.
fn seven_iterations_in<V: Stored<E = f64>>(op: &WilsonDirac, b: &V) -> State<V>
where
    WilsonDirac: Dirac<V>,
{
    let mut snapshot = None;
    let _ = krylov::cg_solve(
        &mut op.normal(&mut b.zero_like()),
        b,
        Start::Zero,
        TOL,
        7,
        qcd_trace::span!("test.solve"),
        "test.solve",
        |state: &State<V>, _: &[qcd_trace::HealthMonitor]| {
            snapshot = Some(state.clone());
            std::ops::ControlFlow::Continue(())
        },
    );
    snapshot.expect("seven iterations ran")
}

fn state_survives_a_save_load_cycle<V: Stored<E = f64>>(op: &WilsonDirac, b: &V, file: &str)
where
    WilsonDirac: Dirac<V>,
{
    let state = seven_iterations_in(op, b);
    let path = tmp(file);
    save_state(&state, &path).unwrap();
    let back: State<V> = load_state(&path, b.field().grid()).unwrap();
    assert_eq!(back.iterations, state.iterations);
    assert_same_bits("r2", &back.r2, &state.r2);
    assert_same_bits("b_norm2", &back.b_norm2, &state.b_norm2);
    for j in 0..b.nrhs() {
        assert_same_bits("history", &back.histories[j], &state.histories[j]);
        for (got, want) in [
            (&back.x, &state.x),
            (&back.r, &state.r),
            (&back.p, &state.p),
        ] {
            assert_eq!(
                got.field()
                    .rhs_field(j)
                    .max_abs_diff(&want.field().rhs_field(j)),
                0.0
            );
        }
    }
}

#[test]
fn a_state_survives_a_save_load_cycle_bit_exactly_at_both_widths() {
    let (op, b0) = setup();
    state_survives_a_save_load_cycle(&op, &b0, "cg_state.qio");
    state_survives_a_save_load_cycle(&op, &two_rhs(&b0, 84), "blk_state.qio");
}

/// Checkpoint the solve of `b` in `space`; resuming against `other` — which
/// differs from `b` in right-hand side `index` only — must be refused by
/// that index, resuming against `b` accepted.
fn wrong_rhs_is_refused<S: CgSpace>(space: &mut S, b: &S::V, other: &S::V, index: usize, file: &str)
where
    S::V: Stored<E = f64>,
{
    let path = tmp(file);
    durable(space, b, Start::Zero, 12, 5, &path);
    match resume(other, &path) {
        Err(IoError::BadRecord { record, msg }) => {
            assert_eq!(record, "state.scalars");
            assert!(msg.contains(&format!("right-hand side {index}")), "{msg}");
        }
        other => panic!("expected a right-hand-side mismatch, got {:?}", other.err()),
    }
    assert!(resume(b, &path).is_ok());
}

#[test]
fn resuming_against_the_wrong_rhs_is_refused_by_index_in_every_space() {
    let (op, b0) = setup();
    let b = two_rhs(&b0, 85);
    // Swap out the second right-hand side only: the error must name it.
    let other_b = two_rhs(&b0, 998);
    let other_b0 = FermionField::random(b0.grid().clone(), 999);
    let (mut tmp_field, mut tmp_block) = (b0.zero_like(), b.zero_like());

    let fused_field = &mut op.normal(&mut tmp_field);
    wrong_rhs_is_refused(fused_field, &b0, &other_b0, 0, "wrong_rhs.qio");
    let fused_block = &mut op.normal(&mut tmp_block);
    wrong_rhs_is_refused(fused_block, &b, &other_b, 1, "wrong_rhs_blk.qio");
    // A checkpoint of one width is not the other's, whatever it holds.
    for (wrong_width, path) in [
        (
            resume(&b0, &tmp("wrong_rhs_blk.qio")).err(),
            "block as field",
        ),
        (resume(&b, &tmp("wrong_rhs.qio")).err(), "field as block"),
    ] {
        assert!(
            matches!(wrong_width, Some(IoError::BadRecord { .. })),
            "{path}"
        );
    }
}

#[test]
fn a_failed_snapshot_stops_the_solve_and_finish_returns_the_error() {
    let (op, b) = setup();
    let nowhere = tmp("no-such-directory").join("cg.qio");
    let mut checkpointer = Checkpointer::every(5, &nowhere);
    let (_, report) = krylov::cg_solve(
        &mut op.normal(&mut b.zero_like()),
        &b,
        Start::Zero,
        TOL,
        MAX_ITER,
        qcd_trace::span!("test.solve"),
        "test.solve",
        checkpointer.observer(),
    );
    assert_eq!(report.iterations, 5, "the first due snapshot must stop it");
    assert!(matches!(checkpointer.finish(), Err(IoError::Io(_))));
}

#[test]
fn two_level_solve_resumes_from_a_disk_checkpoint() {
    let (op, b) = setup();
    // Partial solve, snapshot the f64 iterate — a complete ladder
    // checkpoint is one field — reload, and finish.
    let cut = LadderConfig {
        max_outer: 2,
        ..LadderConfig::f32_only(1e-4)
    };
    let (x_partial, _) = ladder_solve(&op, &b, &cut);
    let path = tmp("mixed.qio");
    write_field(&x_partial, &path, Precision::F64).unwrap();

    let x0 = read_field(&path, b.grid()).unwrap();
    assert_eq!(x0.max_abs_diff(&x_partial), 0.0);
    let cfg = LadderConfig::f32_only(1e-10);
    let (x, resumed) = ladder_solve_from(&op, &b, x0, &cfg);
    assert!(resumed.converged, "{resumed:?}");
    assert!(resumed.residual <= 1e-10);
    let (_, cold) = ladder_solve(&op, &b, &cfg);
    assert!(
        resumed.outer_iterations < cold.outer_iterations,
        "the checkpointed progress must be reused ({} vs {})",
        resumed.outer_iterations,
        cold.outer_iterations
    );
    let (x_ref, _) = solve_wilson(&op, &b, 1e-10, 3000);
    let mut diff = FermionField::zero(b.grid().clone());
    diff.sub(&x, &x_ref);
    assert!((diff.norm2() / x_ref.norm2()).sqrt() < 1e-8);
}

#[test]
fn ladder_solve_killed_and_resumed_from_disk_is_bit_identical() {
    let (op, b) = setup();

    // Reference: the uninterrupted f16-inner ladder.
    let cfg = LadderConfig::new(TOL);
    let (x_ref, full) = ladder_solve(&op, &b, &cfg);
    assert!(full.converged, "{full:?}");
    assert!(full.f16_iterations > 0, "f16 tier never ran");

    // "Kill" the solve after two outer rounds; the f64 iterate is a
    // complete restart point (each outer round is a memoryless function
    // of x), so the checkpoint is one field record.
    let mut cut = cfg.clone();
    cut.max_outer = 2;
    let (x_partial, partial) = ladder_solve(&op, &b, &cut);
    assert!(!partial.converged, "cut solve must stop early");
    let path = tmp("ladder.qio");
    write_field(&x_partial, &path, Precision::F64).unwrap();

    // Reload and finish: the resumed trajectory must retrace the
    // uninterrupted one bit for bit — outer histories align round for
    // round past the kill point, and the solutions are identical.
    let x0 = read_field(&path, b.grid()).unwrap();
    let (x, resumed) = ladder_solve_from(&op, &b, x0, &cfg);
    assert!(resumed.converged, "{resumed:?}");
    assert_eq!(x.max_abs_diff(&x_ref), 0.0, "resumed solution diverged");
    assert_eq!(
        resumed.outer_iterations + partial.outer_iterations,
        full.outer_iterations,
        "checkpointed progress must be reused"
    );
    let tail = &full.outer_history[partial.outer_iterations..];
    assert_same_bits("outer history tail", &resumed.outer_history, tail);
}
