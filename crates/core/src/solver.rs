//! Iterative Krylov solvers.
//!
//! "A significant fraction of time-to-solution of LQCD applications is spent
//! in solving a linear set of equations, for which iterative solvers like
//! Conjugate Gradient are used" (paper, Section II-A). CG inverts the
//! hermitian positive-definite normal operator `M†M`; BiCGStab works on `M`
//! directly. Both are built from the field primitives (`axpy`, inner
//! products, norms). The updates are SVE instructions and the counters see
//! every one; the reductions are not: the per-site dots and norms are host
//! `f64` code (`reduce::site_dots`, `reduce::site_inners`) and the canonical
//! sum a collective, so no inner product or norm is in an instruction
//! count (ROADMAP item 5).
//!
//! Both recurrences live in [`crate::krylov`], once, as steps of its one
//! loop over one checkpointable state ([`krylov::State`]): CG in an
//! operator's [`Dirac::normal`] space, BiCGStab ([`krylov::bicgstab`]) in
//! its [`Dirac::direct`] space. This module holds what a solve is made of
//! around them: the report types and the Wilson entry point [`cg`] — the
//! normal space from a zero start at either width, whose steady-state
//! iteration performs no heap allocation of its own.

use crate::dirac::{Dirac, WilsonDirac};
use crate::field::FermionField;
use crate::krylov::{self, Start, Vector};
use qcd_trace::HealthEvent;

/// Cap on the residual history surfaced in a [`SolveReport`]. Longer
/// histories are downsampled by [`qcd_trace::bound_history`], keeping the
/// endpoints and every health-flagged entry. The history inside the solver
/// *state* (the checkpoint unit) is never capped, so resume stays
/// bit-identical.
pub const HISTORY_CAP: usize = 512;

/// Solver outcome.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `|b - A x| / |b|`.
    pub residual: f64,
    /// Whether the target tolerance was reached.
    pub converged: bool,
    /// Relative true residual per iteration (preconditioned residual norm
    /// history), for convergence plots. Capped at [`HISTORY_CAP`] entries
    /// (first, last, and health-flagged iterations always survive).
    pub history: Vec<f64>,
    /// Typed health events the monitor raised while consuming the residual
    /// history (stall, divergence, NaN/Inf). Empty for a healthy solve.
    pub health: Vec<HealthEvent>,
    /// Profile of the solve: wall time, per-iteration child time, and the
    /// SVE instruction delta the solve retired (see [`qcd_trace`]).
    pub telemetry: qcd_trace::RegionSummary,
}

/// Conjugate Gradient on the Wilson normal equations: solves `M†M x = b`
/// in the operator's [`Dirac::normal`] space — dslash+mass in one pass, the
/// curvature dot fused into the second hopping pass, zero steady-state
/// allocations.
/// Bit-identical to the allocating [`krylov::Allocating`] adapter over
/// `|p| op.mdag_m(p)`.
///
/// `b` is one field or a block of right-hand sides. A block runs every RHS
/// at once, each dslash sweep loading every gauge link once per site for
/// the whole batch, and sweeps until every RHS has converged or exhausted
/// `max_iter`; per-RHS masking freezes finished recurrences without
/// branching the shared sweeps, so RHS `j` — solution, history, reported
/// residual — is bit-identical to `cg` of `b_j` alone. The span and health
/// region are `solver.cg` for a field and `solver.block_cg` for a block
/// (monitors `solver.block_cg[j]`).
pub fn cg<V: Vector>(op: &WilsonDirac<V::E>, b: &V, tol: f64, max_iter: usize) -> (V, V::Report)
where
    WilsonDirac<V::E>: Dirac<V>,
{
    let region = if V::BATCHED {
        "solver.block_cg"
    } else {
        "solver.cg"
    };
    let grid = b.field().grid().clone();
    krylov::cg_solve(
        &mut op.normal(&mut b.zero_like()),
        b,
        Start::Zero,
        tol,
        max_iter,
        qcd_trace::span!(region, grid.engine().ctx()),
        region,
        krylov::no_observer,
    )
}

/// Solve `M x = b` through the normal equations: CG on `M†M x = M†b`.
pub fn solve_wilson(
    op: &WilsonDirac,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
) -> (FermionField, SolveReport) {
    let rhs = op.apply_dag(b);
    let (x, mut report) = cg(op, &rhs, tol, max_iter);
    // Report the residual of the original system; `M x` lands in a scratch
    // field and the subtract-and-norm runs as one fused sweep.
    let mut mx = FermionField::zero(b.grid().clone());
    op.apply_into(&x, &mut mx);
    let mut true_r = rhs; // reuse the spent right-hand side as scratch
    report.residual = (true_r.sub_norm2(b, &mx) / b.norm2()).sqrt();
    (x, report)
}

/// Outcome of a batched block-CG solve: the per-RHS counterparts of every
/// [`SolveReport`] member, plus the shared solve-level telemetry.
#[derive(Clone, Debug)]
pub struct BlockSolveReport {
    /// Iterations performed by the slowest RHS (the solve's wall-clock
    /// iteration count — the batch sweeps until the last RHS converges).
    pub iterations: usize,
    /// Iterations each RHS took before it converged (or hit the budget).
    pub per_rhs_iterations: Vec<usize>,
    /// Final relative true residual per RHS.
    pub residuals: Vec<f64>,
    /// Whether each RHS reached the target tolerance.
    pub converged: Vec<bool>,
    /// Relative residual history per RHS, entry 0 = before iteration 1.
    /// Capped at [`HISTORY_CAP`] entries per RHS like
    /// [`SolveReport::history`].
    pub histories: Vec<Vec<f64>>,
    /// Typed health events per RHS (stall, divergence, NaN/Inf).
    pub health: Vec<Vec<HealthEvent>>,
    /// Profile of the whole batched solve (see [`qcd_trace`]).
    pub telemetry: qcd_trace::RegionSummary,
}

/// The single-vector view of a one-RHS report.
impl From<BlockSolveReport> for SolveReport {
    fn from(mut per_rhs: BlockSolveReport) -> Self {
        assert_eq!(per_rhs.residuals.len(), 1, "not a single-RHS report");
        SolveReport {
            iterations: per_rhs.iterations,
            residual: per_rhs.residuals[0],
            converged: per_rhs.converged[0],
            history: per_rhs.histories.swap_remove(0),
            health: per_rhs.health.swap_remove(0),
            telemetry: per_rhs.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::field::{FermionBlock, FermionKind, Field};
    use crate::krylov::{bicgstab, cg_solve, no_observer, Allocating, CgSpace, State};
    use crate::layout::Grid;
    use crate::simd::SimdBackend;
    use crate::tensor::su3::random_gauge;
    use qcd_trace::HealthMonitor;
    use sve::VectorLength;

    /// BiCGStab on `M` in the operator's own space from `start`.
    fn bicgstab_from(
        op: &WilsonDirac,
        b: &FermionField,
        start: Start<FermionField>,
        tol: f64,
        max_iter: usize,
    ) -> (FermionField, SolveReport) {
        let span = qcd_trace::span!("solver.bicgstab", b.grid().engine().ctx());
        let region = "solver.bicgstab";
        bicgstab(
            &mut op.direct(),
            b,
            start,
            tol,
            max_iter,
            span,
            region,
            no_observer,
        )
    }

    /// CG on `M†M` through the allocating closure adapter — the oracle the
    /// fused path is held to.
    fn cg_closure(
        op: &WilsonDirac,
        b: &FermionField,
        start: Start<FermionField>,
        tol: f64,
        max_iter: usize,
    ) -> (FermionField, SolveReport) {
        let grid = b.grid().clone();
        let mut space = Allocating::new(|p: &FermionField| op.mdag_m(p));
        let span = qcd_trace::span!("solver.cg", grid.engine().ctx());
        cg_solve(
            &mut space,
            b,
            start,
            tol,
            max_iter,
            span,
            "solver.cg",
            no_observer,
        )
    }

    /// The state of a zero-start solve in `space` after `k` iterations —
    /// what a checkpoint observer would have written — the solve stopped
    /// there through the observer hook.
    fn snapshot_at<S: CgSpace>(space: &mut S, b: &S::V, k: usize) -> State<S::V> {
        let mut snapshot = None;
        let _ = cg_solve(
            space,
            b,
            Start::Zero,
            1e-8,
            2000,
            qcd_trace::span!("test.snapshot"),
            "test.snapshot",
            |state: &State<S::V>, _: &[HealthMonitor]| {
                if state.iterations.iter().max() == Some(&k) {
                    snapshot = Some(state.clone());
                    return std::ops::ControlFlow::Break(());
                }
                std::ops::ControlFlow::Continue(())
            },
        );
        snapshot.expect("the solve ended before the cut")
    }

    fn setup(bits: usize, backend: SimdBackend) -> (WilsonDirac, FermionField) {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), backend);
        let u = random_gauge(g.clone(), 21);
        let b = FermionField::random(g.clone(), 22);
        (WilsonDirac::new(u, 0.2), b)
    }

    #[test]
    fn cg_converges_on_the_normal_operator() {
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (x, report) = cg(&op, &b, 1e-8, 2000);
        assert!(report.converged, "CG failed: {report:?}");
        assert!(report.residual < 1e-7, "true residual {}", report.residual);
        // Verify by direct application.
        let ax = op.mdag_m(&x);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&ax, &b);
        assert!(diff.norm2() / b.norm2() < 1e-13);
    }

    #[test]
    fn residual_history_is_monotone_enough() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (_, report) = cg(&op, &b, 1e-8, 2000);
        // CG residuals may wobble, but first and last tell the story.
        assert!(report.history.first().unwrap() > report.history.last().unwrap());
        assert_eq!(report.history.len(), report.iterations + 1);
    }

    #[test]
    fn solve_wilson_inverts_m() {
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (x, report) = solve_wilson(&op, &b, 1e-8, 2000);
        assert!(report.residual < 1e-6, "residual {}", report.residual);
        let mx = op.apply(&x);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&mx, &b);
        assert!((diff.norm2() / b.norm2()).sqrt() < 1e-6);
    }

    #[test]
    fn bicgstab_inverts_m_directly() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (x, report) = bicgstab_from(&op, &b, Start::Zero, 1e-8, 2000);
        assert!(report.residual < 1e-6, "residual {}", report.residual);
        let mx = op.apply(&x);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&mx, &b);
        assert!((diff.norm2() / b.norm2()).sqrt() < 1e-6);
    }

    #[test]
    fn backends_converge_to_the_same_solution() {
        let mut solutions = Vec::new();
        for backend in SimdBackend::all() {
            let (op, b) = setup(512, backend);
            let (x, report) = cg(&op, &b, 1e-10, 2000);
            assert!(report.converged, "{backend:?}");
            solutions.push(x);
        }
        let norm = solutions[0].norm2().sqrt();
        for other in &solutions[1..] {
            // Fields live on per-backend grids: compare raw storage (layout
            // is identical — same dims, same vector length).
            let d = solutions[0]
                .data()
                .iter()
                .zip(other.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(d < 1e-7 * norm.max(1.0), "solutions differ by {d}");
        }
    }

    #[test]
    fn convergence_is_vl_independent() {
        // Same physics at every vector length: iteration counts match and
        // solutions agree site by site (the V-D verification idea applied
        // to a full solve).
        let mut reports = Vec::new();
        let mut sols = Vec::new();
        for bits in [128usize, 1024] {
            let (op, b) = setup(bits, SimdBackend::Fcmla);
            let (x, report) = cg(&op, &b, 1e-8, 2000);
            reports.push(report);
            sols.push(x);
        }
        assert_eq!(reports[0].iterations, reports[1].iterations);
        let g0 = sols[0].grid().clone();
        for x in g0.coords().step_by(5) {
            for comp in 0..12 {
                let a = sols[0].peek(&x, comp);
                let b = sols[1].peek(&x, comp);
                assert!((a - b).abs() < 1e-8, "{x:?} {comp}");
            }
        }
    }

    #[test]
    fn fused_cg_is_bit_identical_to_the_closure_path() {
        // The tentpole contract: the allocation-free workspace solve and
        // the allocating closure solve retire the same engine ops per word
        // in the same order — solutions, histories, and the reported
        // residual must agree bit for bit.
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (x_ws, ws_report) = cg(&op, &b, 1e-8, 2000);
        let (x_cl, cl_report) = cg_closure(&op, &b, Start::Zero, 1e-8, 2000);
        assert_eq!(ws_report.iterations, cl_report.iterations);
        assert_eq!(ws_report.residual.to_bits(), cl_report.residual.to_bits());
        for (a, c) in ws_report.history.iter().zip(&cl_report.history) {
            assert_eq!(a.to_bits(), c.to_bits(), "history diverged");
        }
        for (a, c) in x_ws.data().iter().zip(x_cl.data()) {
            assert_eq!(a.to_bits(), c.to_bits(), "solution bits diverged");
        }
    }

    #[test]
    fn a_space_is_reusable_across_solves() {
        // A second solve through the same space (and its `M p`
        // intermediate) must match a solve through a fresh one bitwise: no
        // state leaks between solves.
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let b2 = FermionField::random(b.grid().clone(), 23);
        let grid = b.grid().clone();
        let mut tmp = FermionField::zero(grid.clone());
        let mut space = op.normal(&mut tmp);
        let mut solve = |rhs: &FermionField| {
            let span = qcd_trace::span!("solver.cg", grid.engine().ctx());
            cg_solve(
                &mut space,
                rhs,
                Start::Zero,
                1e-8,
                2000,
                span,
                "solver.cg",
                no_observer,
            )
        };
        let _ = solve(&b);
        let (x_reused, rep_reused) = solve(&b2);
        let (x_fresh, rep_fresh) = cg(&op, &b2, 1e-8, 2000);
        assert_eq!(rep_reused.iterations, rep_fresh.iterations);
        for (a, c) in x_reused.data().iter().zip(x_fresh.data()) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn cg_resumed_from_mid_solve_state_is_bit_identical() {
        // The checkpoint/restart contract: interrupt CG at iteration k,
        // snapshot the state, continue from the snapshot — iteration count,
        // history, and the solution *bits* must match an uninterrupted run.
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (x_full, full) = cg(&op, &b, 1e-8, 2000);

        let mut space = Allocating::new(|p: &FermionField| op.mdag_m(p));
        let snapshot = snapshot_at(&mut space, &b, 10); // what qcd-io serializes
        let (x_res, res) = cg_closure(&op, &b, Start::State(snapshot), 1e-8, 2000);

        assert_eq!(res.iterations, full.iterations);
        assert_eq!(res.history.len(), full.history.len());
        for (a, c) in full.history.iter().zip(&res.history) {
            assert_eq!(a.to_bits(), c.to_bits(), "history diverged");
        }
        for (a, c) in x_full.data().iter().zip(x_res.data()) {
            assert_eq!(a.to_bits(), c.to_bits(), "solution bits diverged");
        }
        assert_eq!(res.residual.to_bits(), full.residual.to_bits());
        // Health is replayed through the restored history, so the resumed
        // report carries the same typed events as the uninterrupted one.
        assert_eq!(res.health, full.health);
    }

    #[test]
    fn a_huge_iteration_budget_neither_overflows_nor_reserves_the_budget() {
        // The history reservation used to be sized by `max_iter`:
        // `usize::MAX` overflowed the `+ 1` under the dev profile and
        // `1 << 45` aborted the process with a 256 TiB allocation.
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (_, reference) = cg(&op, &b, 1e-8, 2000);
        for budget in [usize::MAX, 1 << 45] {
            let (_, report) = cg(&op, &b, 1e-8, budget);
            assert!(report.converged, "budget {budget}: {report:?}");
            assert_eq!(report.iterations, reference.iterations);
        }
        let block = FermionBlock::from_fields(std::slice::from_ref(&b));
        let (_, report) = cg(&op, &block, 1e-8, usize::MAX);
        assert!(report.converged[0]);
        let (_, report) = bicgstab_from(&op, &b, Start::Zero, 1e-8, usize::MAX);
        assert!(report.converged, "{report:?}");
    }

    #[test]
    #[should_panic(expected = "nonzero right-hand side")]
    fn cg_rejects_zero_rhs() {
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let zero = FermionField::zero(b.grid().clone());
        let _ = cg(&op, &zero, 1e-8, 10);
    }

    #[test]
    fn block_cg_is_bit_identical_to_independent_solves() {
        // The batched solver's contract: RHS j of the block solve — solution
        // bits, iteration count, history, and reported residual — matches an
        // independent single-RHS cg() of that RHS exactly. Different seeds
        // give different convergence points, so the masking path (frozen
        // early converges while others iterate) is exercised for real.
        let (op, b0) = setup(512, SimdBackend::Fcmla);
        let g = b0.grid().clone();
        let rhss = vec![
            b0,
            FermionField::random(g.clone(), 31),
            FermionField::random(g.clone(), 32),
        ];
        let block = FermionBlock::from_fields(&rhss);
        let (bx, brep) = cg(&op, &block, 1e-8, 2000);
        let mut iteration_counts = Vec::new();
        for (j, rhs) in rhss.iter().enumerate() {
            let (x, rep) = cg(&op, rhs, 1e-8, 2000);
            assert!(rep.converged, "rhs {j} failed");
            assert_eq!(brep.per_rhs_iterations[j], rep.iterations, "rhs {j}");
            assert!(brep.converged[j], "rhs {j}");
            assert_eq!(
                brep.residuals[j].to_bits(),
                rep.residual.to_bits(),
                "rhs {j} residual"
            );
            assert_eq!(brep.histories[j].len(), rep.history.len(), "rhs {j}");
            for (a, c) in brep.histories[j].iter().zip(&rep.history) {
                assert_eq!(a.to_bits(), c.to_bits(), "rhs {j} history diverged");
            }
            let xb = bx.rhs_field(j);
            assert_eq!(xb.max_abs_diff(&x), 0.0, "rhs {j} solution diverged");
            iteration_counts.push(rep.iterations);
        }
        assert_eq!(
            brep.iterations,
            *iteration_counts.iter().max().unwrap(),
            "block iteration count must be the slowest RHS"
        );
    }

    #[test]
    fn block_cg_with_one_rhs_matches_cg_bitwise() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let block = FermionBlock::from_fields(std::slice::from_ref(&b));
        let (bx, brep) = cg(&op, &block, 1e-8, 2000);
        let (x, rep) = cg(&op, &b, 1e-8, 2000);
        assert_eq!(brep.per_rhs_iterations[0], rep.iterations);
        assert_eq!(brep.residuals[0].to_bits(), rep.residual.to_bits());
        assert_eq!(bx.rhs_field(0).max_abs_diff(&x), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero right-hand side (RHS 1)")]
    fn block_cg_rejects_zero_rhs_by_index() {
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let zero = FermionField::zero(b.grid().clone());
        let block = FermionBlock::from_fields(&[b, zero]);
        let _ = cg(&op, &block, 1e-8, 10);
    }

    #[test]
    #[should_panic(expected = "non-finite residual (RHS 0)")]
    fn cg_solve_rejects_a_nan_guess() {
        // A guess with one NaN component (a Galerkin guess from a poisoned
        // subspace) would make the RHS inactive from the start and return a
        // NaN residual as if the solve had run.
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let mut guess = FermionField::random(b.grid().clone(), 5);
        guess.poke(&[0; 4], 3, Complex::new(f64::NAN, 0.0));
        let _ = cg_solve(
            &mut op.normal(&mut FermionField::zero(b.grid().clone())),
            &b,
            Start::Guess(guess),
            1e-8,
            10,
            qcd_trace::span!("solver.cg"),
            "solver.cg",
            no_observer,
        );
    }

    #[test]
    #[should_panic(expected = "restored state's x is not finite (RHS 0)")]
    fn cg_solve_rejects_a_non_finite_state() {
        // A state cut at iteration 10 whose iterate holds one NaN (a
        // forged or corrupted snapshot) would make the RHS inactive from
        // the start and return a NaN residual as converged.
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let mut tmp = FermionField::zero(b.grid().clone());
        let mut state = snapshot_at(&mut op.normal(&mut tmp), &b, 10);
        state.x.poke(&[1, 0, 0, 0], 7, Complex::new(0.0, f64::NAN));
        let _ = cg_solve(
            &mut op.normal(&mut tmp),
            &b,
            Start::State(state),
            1e-8,
            2000,
            qcd_trace::span!("solver.cg"),
            "solver.cg",
            no_observer,
        );
    }

    #[test]
    #[should_panic(expected = "broke down (RHS 0)")]
    fn a_bicgstab_breakdown_names_the_rhs() {
        // `M = 0` (no links, mass −4): `⟨b, M p⟩ = 0` at the first step.
        let (_, b) = setup(128, SimdBackend::Fcmla);
        let op = WilsonDirac::new(Field::zero(b.grid().clone()), -4.0);
        let _ = bicgstab_from(&op, &b, Start::Zero, 1e-8, 10);
    }

    /// A space whose `n`-th application (from 0) writes `script(n, p, ap)`:
    /// an operator made up to meet exactly one of BiCGStab's denominators.
    struct Scripted<F>(usize, F);

    impl<F: FnMut(usize, &FermionField, &mut FermionField)> CgSpace for Scripted<F> {
        type V = FermionField;
        fn apply(&mut self, p: &FermionField, ap: &mut FermionField, _: &mut [f64]) {
            (self.1)(self.0, p, ap);
            self.0 += 1;
        }
    }

    /// `f` with component `from` of every site moved to component `to`
    /// (added to what `to` holds when `keep`), every other component zero.
    fn moved(f: &FermionField, from: usize, to: usize, keep: bool) -> FermionField {
        let word = f.grid().engine().word_len();
        let mut out = FermionField::zero(f.grid().clone());
        for (o, i) in out
            .data_mut()
            .chunks_exact_mut(12 * word)
            .zip(f.data().chunks_exact(12 * word))
        {
            if keep {
                o[from * word..(from + 1) * word]
                    .copy_from_slice(&i[from * word..(from + 1) * word]);
            }
            for (d, s) in o[to * word..(to + 1) * word]
                .iter_mut()
                .zip(&i[from * word..])
            {
                *d += s;
            }
        }
        out
    }

    /// BiCGStab from zero on a right-hand side in spin-colour component 0
    /// only, in the scripted space: it breaks down at the denominator
    /// `script` makes zero, and the panic names it.
    fn break_down(script: impl FnMut(usize, &FermionField, &mut FermionField)) {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(128), SimdBackend::Fcmla);
        let b = moved(&FermionField::random(g.clone(), 41), 0, 0, false);
        let mut space = Scripted(0, script);
        let span = qcd_trace::span!("solver.bicgstab");
        let _ = bicgstab(
            &mut space,
            &b,
            Start::Zero,
            1e-8,
            10,
            span,
            "solver.bicgstab",
            no_observer,
        );
    }

    // Each guard of `krylov::bicgstab_step` is reached alone: with any one
    // of them deleted, its own test below meets a different guard (or none)
    // and fails, and the other two still pass.

    #[test]
    #[should_panic(expected = "broke down (RHS 0): ⟨b, v⟩ = 0")]
    fn bicgstab_breaks_down_at_b_v_alone() {
        // `v = M b` moves component 0 to 1: `⟨b, v⟩ = 0` exactly. Without
        // the guard `α` is not a number and so is `t`.
        break_down(|_, p, ap| *ap = moved(p, 0, 1, false));
    }

    #[test]
    #[should_panic(expected = "broke down (RHS 0): |t|² = 0")]
    fn bicgstab_breaks_down_at_t_norm_alone() {
        // `M` is the identity once and zero after: `t = M s = 0`. Without
        // the guard `ω` is not a number and so is `ρω`.
        break_down(|n, p, ap| *ap = if n == 0 { p.clone() } else { p.zero_like() });
    }

    #[test]
    #[should_panic(expected = "broke down (RHS 0): ρω = 0")]
    fn bicgstab_breaks_down_at_rho_omega_alone() {
        // `v` copies component 0 to 1, so `s` has a component 1; `t` moves
        // that to component 2, orthogonal to `s`: `ω = 0`. Without the
        // guard `β` is not a number, and so are `p` and the next `⟨b, v⟩`.
        break_down(|n, p, ap| {
            *ap = if n == 1 {
                moved(p, 1, 2, false)
            } else {
                moved(p, 0, 1, true)
            }
        });
    }

    #[test]
    #[should_panic(expected = "BiCGStab takes one right-hand side")]
    fn bicgstab_refuses_a_block() {
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let block = FermionBlock::from_fields(std::slice::from_ref(&b));
        let _ = bicgstab(
            &mut op.direct(),
            &block,
            Start::Zero,
            1e-8,
            10,
            qcd_trace::span!("solver.bicgstab"),
            "solver.bicgstab",
            no_observer,
        );
    }

    #[test]
    fn block_cg_state_snapshot_resumes_bit_identically() {
        // The checkpoint contract extends to the batch: snapshot the block
        // state mid-solve, continue from the clone — everything matches the
        // uninterrupted run bitwise.
        let (op, b0) = setup(256, SimdBackend::Fcmla);
        let g = b0.grid().clone();
        let rhss = vec![b0, FermionField::random(g.clone(), 33)];
        let block = FermionBlock::from_fields(&rhss);
        let (x_full, full) = cg(&op, &block, 1e-8, 2000);

        let mut tmp = FermionBlock::zero(g.clone(), 2);
        let mut space = op.normal(&mut tmp);
        let snapshot = snapshot_at(&mut space, &block, 10);
        let span = qcd_trace::span!("solver.block_cg", g.engine().ctx());
        let (x_res, res) = cg_solve(
            &mut space,
            &block,
            Start::State(snapshot),
            1e-8,
            2000,
            span,
            "solver.block_cg",
            no_observer,
        );
        assert_eq!(res.per_rhs_iterations, full.per_rhs_iterations);
        assert_eq!(x_res.max_abs_diff(&x_full), 0.0);
        for j in 0..2 {
            assert_eq!(res.residuals[j].to_bits(), full.residuals[j].to_bits());
        }
        assert_eq!(res.health, full.health);
    }

    #[test]
    fn a_stalled_f32_solve_reports_stall_events_and_caps_history() {
        use qcd_trace::HealthEventKind;
        // Ask the f32 path for a tolerance single precision cannot reach:
        // the norms accumulate in f64, but the residual is stored in f32,
        // so the recurrence floors where its entries reach the binary32
        // subnormals (~1e-45 relative) and the monitor must flag the
        // stall. The long run also exercises the report-time history cap.
        let _guard = qcd_trace::global_test_lock();
        qcd_trace::flight_reset();
        let g = Grid::<f32>::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 21);
        let op = WilsonDirac::<f32>::new(u, 0.2);
        let b = Field::<FermionKind, f32>::random(g.clone(), 22);
        let (_, report) = cg(&op, &b, 1e-60, 700);

        assert!(!report.converged, "f32 cannot reach 1e-60");
        assert_eq!(report.iterations, 700, "must burn the whole budget");
        assert!(
            report
                .health
                .iter()
                .any(|e| e.kind == HealthEventKind::Stall),
            "no stall event in {:?}",
            report.health
        );
        assert!(
            report.history.len() <= HISTORY_CAP,
            "history not capped: {} entries",
            report.history.len()
        );
        // Endpoints survive the cap.
        assert_eq!(report.history[0].to_bits(), 1.0f64.to_bits());
        // Every health event also landed in the flight recorder, typed.
        let flight = qcd_trace::flight_snapshot();
        let stalls: Vec<_> = flight
            .iter()
            .filter(|ev| ev.kind == "health" && ev.label == "solver.cg:stall")
            .collect();
        assert!(!stalls.is_empty(), "stall missing from flight ring");
        let dump = qcd_trace::flight_dump_jsonl();
        assert!(dump.contains("\"label\":\"solver.cg:stall\""));
        qcd_trace::validate_jsonl(&dump).expect("flight dump must validate");
    }

    #[test]
    fn cg_names_its_span_and_health_region_by_width() {
        // A field solve is `solver.cg`; a block solve is `solver.block_cg`,
        // its monitors `solver.block_cg[j]`. Single precision asked for
        // 1e-60 stalls every RHS (at iterations 230 and 231), so each
        // monitor raises an episode under its own label.
        let _guard = qcd_trace::global_test_lock();
        qcd_trace::flight_reset();
        let g = Grid::<f32>::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let op = WilsonDirac::<f32>::new(random_gauge(g.clone(), 21), 0.2);
        let b = Field::<FermionKind, f32>::random(g.clone(), 22);
        let (_, field) = cg(&op, &b, 1e-60, 300);
        let block = FermionBlock::from_fields(&[b, Field::random(g.clone(), 23)]);
        let (_, batch) = cg(&op, &block, 1e-60, 300);
        assert_eq!(field.telemetry.path, "solver.cg");
        assert_eq!(batch.telemetry.path, "solver.block_cg");
        let labels: Vec<String> = qcd_trace::flight_snapshot()
            .into_iter()
            .filter(|ev| ev.kind == "health")
            .map(|ev| ev.label)
            .collect();
        for want in [
            "solver.cg:stall",
            "solver.block_cg[0]:stall",
            "solver.block_cg[1]:stall",
        ] {
            assert!(labels.iter().any(|l| l == want), "{want} not in {labels:?}");
        }
    }

    #[test]
    fn a_solve_cut_short_of_tol_does_not_report_convergence() {
        // `converged` means the recurrence reached `tol`, not that the true
        // residual came within some factor of it: both solves, cut short
        // of `tol` (residuals 4.2e-8 and 5.0e-7), must say so.
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (_, cut) = bicgstab_from(&op, &b, Start::Zero, 1e-8, 12);
        assert!(!cut.converged && cut.residual > 1e-8, "{cut:?}");
        let (_, cut) = crate::eo::solve_eo(&op, &b, 1e-8, 13);
        assert!(!cut.converged && cut.residual > 1e-8, "{cut:?}");
        let (_, full) = bicgstab_from(&op, &b, Start::Zero, 1e-8, 2000);
        assert!(full.converged && full.residual <= 1e-8, "{full:?}");
        let (_, full) = crate::eo::solve_eo(&op, &b, 1e-8, 2000);
        assert!(full.converged && full.residual <= 1e-8, "{full:?}");
    }

    #[test]
    fn a_healthy_solve_reports_no_events_and_full_history() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (_, report) = cg(&op, &b, 1e-8, 2000);
        assert!(report.health.is_empty(), "events: {:?}", report.health);
        // Short histories pass through the cap untouched.
        assert_eq!(report.history.len(), report.iterations + 1);
    }
}
