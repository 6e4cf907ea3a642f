//! Resume-equivalence tests: a solve killed mid-flight and restored from
//! its on-disk checkpoint must retrace the uninterrupted iteration
//! sequence bit-for-bit.

use grid::krylov::{self, cg_step, Allocating, Layout, Scratch, Start};
use grid::prelude::*;
use qcd_io::checkpoint::bicgstab_checkpointed_from;
use qcd_io::{
    block_cg_checkpointed, cg_checkpointed, load_bicgstab, load_block_cg, load_cg, load_mixed,
    resume_bicgstab, resume_block_cg, resume_cg, save_bicgstab, save_block_cg, save_cg, save_mixed,
    IoError, MixedCheckpoint,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qcd-io-resume");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The uninterrupted reference: CG on `M†M` through the allocating closure
/// adapter the checkpointed solves run on.
fn cg_closure(
    op: &WilsonDirac,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
) -> (FermionField, SolveReport) {
    let grid = b.grid().clone();
    let (x, report) = krylov::cg_solve(
        &mut Allocating::new(grid.clone(), |v: &FermionField| op.mdag_m(v)),
        b,
        Start::<CgState>::Zero,
        tol,
        max_iter,
        qcd_trace::span!("solver.cg", grid.engine().ctx()),
        "solver.cg",
        krylov::no_observer,
    );
    (x, report.into_single())
}

fn setup() -> (WilsonDirac<f64>, FermionField) {
    let g: Arc<Grid<f64>> = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 81);
    let b = FermionField::random(g.clone(), 82);
    (WilsonDirac::new(u, 0.3), b)
}

#[test]
fn cg_killed_and_resumed_from_disk_is_bit_identical() {
    let (op, b) = setup();
    let apply = |v: &FermionField| op.mdag_m(v);
    let tol = 1e-10;
    let max_iter = 500;

    // Reference: the uninterrupted solve.
    let (x_ref, ref_report) = cg_closure(&op, &b, tol, max_iter);

    // "Kill" a checkpointing solve by capping its iteration budget at 12;
    // the snapshot on disk is then the one written at iteration 10.
    let path = tmp("cg.qio");
    let (_, partial, snapshots) =
        cg_checkpointed(apply, &b, CgState::new(&b), tol, 12, 5, &path).unwrap();
    assert_eq!(partial.iterations, 12);
    assert_eq!(snapshots, 2, "snapshots at iterations 5 and 10");
    let on_disk = load_cg(&path, b.grid()).unwrap();
    assert_eq!(on_disk.iterations, 10);

    // Resume from disk with the full budget.
    let (x, resumed, _) = resume_cg(apply, &b, tol, max_iter, 50, &path).unwrap();

    assert_eq!(resumed.iterations, ref_report.iterations);
    assert_eq!(
        resumed.residual.to_bits(),
        ref_report.residual.to_bits(),
        "final residual must match to the last bit ({} vs {})",
        resumed.residual,
        ref_report.residual
    );
    assert_eq!(
        x.max_abs_diff(&x_ref),
        0.0,
        "solutions must be bit-identical"
    );
    assert_eq!(resumed.history.len(), ref_report.history.len());
    for (i, (a, r)) in resumed.history.iter().zip(&ref_report.history).enumerate() {
        assert_eq!(a.to_bits(), r.to_bits(), "history entry {i} diverged");
    }
    assert!(resumed.converged);
    assert!((resumed.residual / tol) < 10.0);
}

#[test]
fn checkpoint_resumes_bit_identically_on_the_fused_workspace_path() {
    // A checkpoint written by the allocating closure space, resumed in the
    // allocation-free layout space (the fused `M†M` + curvature-dot
    // kernel), must retrace the fused reference solve bit for bit — the
    // fused kernels retire the same engine ops in the same order, so
    // checkpoints are interchangeable between the two spaces.
    let (op, b) = setup();
    let tol = 1e-10;
    let max_iter = 500;

    let (x_ref, ref_report) = cg(&op, &b, tol, max_iter);

    let path = tmp("cg_fused.qio");
    let apply = |v: &FermionField| op.mdag_m(v);
    let (_, _, snapshots) =
        cg_checkpointed(apply, &b, CgState::new(&b), tol, 12, 5, &path).unwrap();
    assert_eq!(snapshots, 2);
    let state = load_cg(&path, b.grid()).unwrap();
    assert_eq!(state.iterations, 10);

    let mut mp = FermionField::zero(b.grid().clone());
    let (x, resumed) = krylov::cg_solve(
        &mut Layout::new(|p: &FermionField, ap: &mut FermionField, c: &mut [f64]| {
            c[0] = op.mdag_m_into_dot(p, &mut mp, ap);
        }),
        &b,
        Start::State(state),
        tol,
        max_iter,
        qcd_trace::span!("solver.cg", b.grid().engine().ctx()),
        "solver.cg",
        krylov::no_observer,
    );
    let resumed = resumed.into_single();

    assert_eq!(resumed.iterations, ref_report.iterations);
    assert_eq!(resumed.residual.to_bits(), ref_report.residual.to_bits());
    assert_eq!(x.max_abs_diff(&x_ref), 0.0);
    assert_eq!(resumed.history.len(), ref_report.history.len());
    for (i, (a, r)) in resumed.history.iter().zip(&ref_report.history).enumerate() {
        assert_eq!(a.to_bits(), r.to_bits(), "history entry {i} diverged");
    }
    assert!(resumed.converged);
}

#[test]
fn cg_state_survives_a_save_load_cycle_bit_exactly() {
    let (op, b) = setup();
    let mut state = CgState::new(&b);
    let mut space = Allocating::new(b.grid().clone(), |v: &FermionField| op.mdag_m(v));
    let mut scratch = Scratch::new(&b);
    for _ in 0..7 {
        let _ = cg_step(&mut space, &mut state, &mut scratch, 1e-10, 500);
    }
    let path = tmp("cg_state.qio");
    save_cg(&state, &path).unwrap();
    let back = load_cg(&path, b.grid()).unwrap();
    assert_eq!(back.iterations, state.iterations);
    assert_eq!(back.r2.to_bits(), state.r2.to_bits());
    assert_eq!(back.b_norm2.to_bits(), state.b_norm2.to_bits());
    assert_eq!(back.x.max_abs_diff(&state.x), 0.0);
    assert_eq!(back.r.max_abs_diff(&state.r), 0.0);
    assert_eq!(back.p.max_abs_diff(&state.p), 0.0);
    for (a, s) in back.history.iter().zip(&state.history) {
        assert_eq!(a.to_bits(), s.to_bits());
    }
}

#[test]
fn bicgstab_killed_and_resumed_from_disk_is_bit_identical() {
    let (op, b) = setup();
    let tol = 1e-8;
    let max_iter = 300;
    let (x_ref, ref_report) = bicgstab(&op, &b, tol, max_iter);

    let path = tmp("bicgstab.qio");
    let (_, _, snapshots) =
        bicgstab_checkpointed_from(&op, &b, BicgStabState::new(&b), tol, 9, 4, &path).unwrap();
    assert_eq!(snapshots, 2, "snapshots at iterations 4 and 8");
    let on_disk = load_bicgstab(&path, b.grid()).unwrap();
    assert_eq!(on_disk.iterations, 8);

    let (x, resumed, _) = resume_bicgstab(&op, &b, tol, max_iter, 100, &path).unwrap();
    assert_eq!(resumed.iterations, ref_report.iterations);
    assert_eq!(resumed.residual.to_bits(), ref_report.residual.to_bits());
    assert_eq!(x.max_abs_diff(&x_ref), 0.0);
}

#[test]
fn bicgstab_state_survives_a_save_load_cycle_bit_exactly() {
    let (op, b) = setup();
    let mut state = BicgStabState::new(&b);
    for _ in 0..5 {
        state.step(|v| op.apply(v));
    }
    let path = tmp("bicgstab_state.qio");
    save_bicgstab(&state, &path).unwrap();
    let back = load_bicgstab(&path, b.grid()).unwrap();
    assert_eq!(back.iterations, state.iterations);
    assert_eq!(back.rho.re.to_bits(), state.rho.re.to_bits());
    assert_eq!(back.rho.im.to_bits(), state.rho.im.to_bits());
    assert_eq!(back.b_norm2.to_bits(), state.b_norm2.to_bits());
    for (f_back, f_state) in [
        (&back.x, &state.x),
        (&back.r, &state.r),
        (&back.r0, &state.r0),
        (&back.p, &state.p),
    ] {
        assert_eq!(f_back.max_abs_diff(f_state), 0.0);
    }
}

#[test]
fn block_cg_killed_and_resumed_from_disk_is_bit_identical() {
    let (op, b0) = setup();
    let b1 = FermionField::random(b0.grid().clone(), 83);
    let b = FermionBlock::from_fields(&[b0.clone(), b1]);
    let tol = 1e-10;
    let max_iter = 500;

    // Reference: the uninterrupted batched solve.
    let (x_ref, ref_report) = block_cg(&op, &b, tol, max_iter);

    // "Kill" a checkpointing solve by capping its budget at 12 outer
    // steps; the snapshot on disk is then the one written at step 10.
    let path = tmp("blk.qio");
    let (_, partial, snapshots) =
        block_cg_checkpointed(&op, &b, BlockCgState::new(&b), tol, 12, 5, &path).unwrap();
    assert_eq!(partial.iterations, 12);
    assert_eq!(snapshots, 2, "snapshots at steps 5 and 10");
    let on_disk = load_block_cg(&path, b.grid()).unwrap();
    assert_eq!(on_disk.iterations, vec![10, 10]);

    // Resume from disk with the full budget: every right-hand side must
    // retrace the uninterrupted batched solve bit for bit.
    let (x, resumed, _) = resume_block_cg(&op, &b, tol, max_iter, 50, &path).unwrap();
    assert_eq!(resumed.per_rhs_iterations, ref_report.per_rhs_iterations);
    assert_eq!(
        x.max_abs_diff(&x_ref),
        0.0,
        "solutions must be bit-identical"
    );
    for j in 0..b.nrhs() {
        assert_eq!(
            resumed.residuals[j].to_bits(),
            ref_report.residuals[j].to_bits(),
            "RHS {j} residual diverged"
        );
        assert!(resumed.converged[j]);
        assert_eq!(resumed.histories[j].len(), ref_report.histories[j].len());
        for (i, (a, r)) in resumed.histories[j]
            .iter()
            .zip(&ref_report.histories[j])
            .enumerate()
        {
            assert_eq!(a.to_bits(), r.to_bits(), "RHS {j} history entry {i}");
        }
    }
}

#[test]
fn block_cg_state_survives_a_save_load_cycle_bit_exactly() {
    let (op, b0) = setup();
    let b1 = FermionField::random(b0.grid().clone(), 84);
    let b = FermionBlock::from_fields(&[b0, b1]);
    let mut state = BlockCgState::new(&b);
    let mut mp = FermionBlock::zero(b.grid().clone(), b.nrhs());
    let mut space = Layout::new(|p: &FermionBlock, ap: &mut FermionBlock, c: &mut [f64]| {
        c.copy_from_slice(&op.mdag_m_block_into_dot(p, &mut mp, ap));
    });
    let mut scratch = Scratch::new(&b);
    for _ in 0..7 {
        let _ = cg_step(&mut space, &mut state, &mut scratch, 1e-10, 500);
    }
    let path = tmp("blk_state.qio");
    save_block_cg(&state, &path).unwrap();
    let back = load_block_cg(&path, b.grid()).unwrap();
    assert_eq!(back.iterations, state.iterations);
    for j in 0..b.nrhs() {
        assert_eq!(back.r2[j].to_bits(), state.r2[j].to_bits());
        assert_eq!(back.b_norm2[j].to_bits(), state.b_norm2[j].to_bits());
        for (a, s) in back.histories[j].iter().zip(&state.histories[j]) {
            assert_eq!(a.to_bits(), s.to_bits());
        }
    }
    assert_eq!(back.x.max_abs_diff(&state.x), 0.0);
    assert_eq!(back.r.max_abs_diff(&state.r), 0.0);
    assert_eq!(back.p.max_abs_diff(&state.p), 0.0);
}

#[test]
fn block_resume_against_the_wrong_rhs_is_refused_by_index() {
    let (op, b0) = setup();
    let b1 = FermionField::random(b0.grid().clone(), 85);
    let b = FermionBlock::from_fields(&[b0.clone(), b1]);
    let path = tmp("blk_wrong_rhs.qio");
    block_cg_checkpointed(&op, &b, BlockCgState::new(&b), 1e-10, 12, 5, &path).unwrap();
    // Swap out the second right-hand side only: the error must name it.
    let other =
        FermionBlock::from_fields(&[b0.clone(), FermionField::random(b0.grid().clone(), 998)]);
    match resume_block_cg(&op, &other, 1e-10, 500, 50, &path) {
        Err(IoError::BadRecord { record, msg }) => {
            assert_eq!(record, "blk.scalars");
            assert!(msg.contains("right-hand side 1"), "{msg}");
        }
        other => panic!(
            "expected a right-hand-side mismatch, got {other:?}",
            other = other.err()
        ),
    }
}

#[test]
fn two_level_solve_resumes_from_a_disk_checkpoint() {
    let (op, b) = setup();
    // Partial solve, snapshot the f64 iterate, reload, and finish.
    let cut = LadderConfig {
        max_outer: 2,
        ..LadderConfig::f32_only(1e-4)
    };
    let (x_partial, partial) = ladder_solve(&op, &b, &cut);
    let path = tmp("mixed.qio");
    save_mixed(
        &MixedCheckpoint {
            x: x_partial,
            outer_done: partial.outer_iterations,
            inner_done: partial.f32_iterations,
        },
        &path,
    )
    .unwrap();

    let ck = load_mixed(&path, b.grid()).unwrap();
    assert_eq!(ck.outer_done, partial.outer_iterations);
    assert_eq!(ck.inner_done, partial.f32_iterations);
    let cfg = LadderConfig::f32_only(1e-10);
    let (x, resumed) = ladder_solve_from(&op, &b, ck.x, &cfg);
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
    let tol = 1e-10;

    // Reference: the uninterrupted f16-inner ladder.
    let cfg = LadderConfig::new(tol);
    let (x_ref, full) = ladder_solve(&op, &b, &cfg);
    assert!(full.converged, "{full:?}");
    assert!(full.f16_iterations > 0, "f16 tier never ran");

    // "Kill" the solve after two outer rounds; the f64 iterate is a
    // complete restart point (each outer round is a memoryless function
    // of x), so the MixedCheckpoint container fits the ladder unchanged.
    let mut cut = cfg.clone();
    cut.max_outer = 2;
    let (x_partial, partial) = ladder_solve(&op, &b, &cut);
    assert!(!partial.converged, "cut solve must stop early");
    let path = tmp("ladder.qio");
    save_mixed(
        &MixedCheckpoint {
            x: x_partial,
            outer_done: partial.outer_iterations,
            inner_done: partial.f32_iterations + partial.f16_iterations,
        },
        &path,
    )
    .unwrap();

    // Reload and finish: the resumed trajectory must retrace the
    // uninterrupted one bit for bit — outer histories align round for
    // round past the kill point, and the solutions are identical.
    let ck = load_mixed(&path, b.grid()).unwrap();
    assert_eq!(ck.outer_done, partial.outer_iterations);
    let (x, resumed) = ladder_solve_from(&op, &b, ck.x, &cfg);
    assert!(resumed.converged, "{resumed:?}");
    assert_eq!(x.max_abs_diff(&x_ref), 0.0, "resumed solution diverged");
    assert_eq!(
        resumed.outer_iterations + ck.outer_done,
        full.outer_iterations,
        "checkpointed progress must be reused"
    );
    let tail = &full.outer_history[ck.outer_done..];
    assert_eq!(resumed.outer_history.len(), tail.len());
    for (a, r) in resumed.outer_history.iter().zip(tail) {
        assert_eq!(a.to_bits(), r.to_bits(), "outer history tail diverged");
    }
}

#[test]
fn resuming_against_the_wrong_rhs_is_refused() {
    let (op, b) = setup();
    let apply = |v: &FermionField| op.mdag_m(v);
    let path = tmp("cg_wrong_rhs.qio");
    let (_, _, _) = cg_checkpointed(apply, &b, CgState::new(&b), 1e-10, 12, 5, &path).unwrap();
    let other_b = FermionField::random(b.grid().clone(), 999);
    match resume_cg(apply, &other_b, 1e-10, 500, 50, &path) {
        Err(IoError::BadRecord { record, .. }) => assert_eq!(record, "cg.scalars"),
        other => panic!(
            "expected a right-hand-side mismatch, got {other:?}",
            other = other.err()
        ),
    }
}
