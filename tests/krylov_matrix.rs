//! The solver product matrix: every space the Krylov driver runs in ×
//! start {zero, Galerkin guess} × durability {none, checkpoint to disk and
//! `resume`} × vector length {128, 512, 2048} × threads {1, 2}, printed
//! like the paper's Table V — the cells that cannot be run are printed too,
//! each with the reason (§V-D prints its failing cells and says why).
//!
//! A solve is composed, not named: each cell hands `krylov::cg_solve` a
//! space, a start and an observer (or calls the public preset that does)
//! and fingerprints the solve: solution bits in global lexicographic site
//! order, the full residual history, the iteration counts. Every reduction
//! is summed in the one canonical order, so **every row is one print**:
//! each cell must equal the row's first, bit for bit, at every vector
//! length and thread count. Within a cell, the field and block spaces must
//! also equal the allocating closure adapter on the same operator and
//! start, and a block's RHS `j` the field solved alone. Every cell whose
//! vector type allows it adds a stop-at-iteration-k / restore / continue
//! leg — the stop is the public observer hook — and every **ckpt** cell a
//! kill / `qcd_io::resume` / continue leg through a file; both must equal
//! the uninterrupted run.
//!
//! The **ladder** rows run the three-level precision ladder in the same
//! operators' narrow replicas: the field, the even-odd Schur complement, a
//! 5-d fermion and the rank slabs. Their checkpoint is the f64 iterate: a
//! **ckpt** cell cuts the solve after outer round 2, writes the iterate
//! with `qcd_io` and reads it back, and resumes with `ladder_solve_from`;
//! the continuation must be the uninterrupted tail, bit for bit.
//!
//! The **bicgstab** rows run the driver's second recurrence, BiCGStab on
//! `M` itself in the same operators' own spaces (`Dirac::direct`), with
//! the same legs as a CG cell: its state is CG's, so it stops, restores and
//! checkpoints through the same observer and codec.
//!
//! The **clover** row runs the one solve of `M x = b` (`solve_normal`) on
//! the clover operator, from zero and from the Galerkin guess of `M†b` — a
//! deflated solve of `M x = b` — through the same cells.
//!
//! `rayon::set_num_threads` is process-global, so the matrix is one test.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::{Arc, Mutex};

use grid::field::FermionKind;
use grid::krylov::{self, Allocating, CgSpace, Start, State, Vector};
use grid::layout::{delex, lex};
use grid::mixed::{to_precision, Replica};
use grid::prelude::*;
use grid::{Field, FieldKind};
use qcd_deflate::{galerkin_guess, CoarseSpace, Subspace};
use qcd_io::Checkpointer;
use qcd_trace::HealthMonitor;
use sve::{SveFloat, F16};

const DIMS: [usize; 4] = [2, 2, 4, 4];
const MASS: f64 = 0.2;
/// The mass of the distributed rows' operator.
const DIST_MASS: f64 = 0.3;
/// The clover row's Sheikholeslami–Wohlert coefficient.
const C_SW: f64 = 1.0;
const TOL: f64 = 1e-6;
const BUDGET: usize = 2000;
/// Iteration at which the resume legs stop, snapshot and continue.
const CUT: usize = 5;
const VLS: [usize; 3] = [128, 512, 2048];
const THREADS: [usize; 2] = [1, 2];

/// What a solve is compared by.
#[derive(Clone, PartialEq)]
struct Print {
    x: Vec<u64>,
    histories: Vec<Vec<u64>>,
    iterations: Vec<usize>,
}

impl Print {
    fn of(x: Vec<u64>, report: &BlockSolveReport) -> Print {
        assert!(report.converged.iter().all(|&c| c), "did not converge");
        Print {
            x,
            histories: report
                .histories
                .iter()
                .map(|h| h.iter().map(|v| v.to_bits()).collect())
                .collect(),
            iterations: report.per_rhs_iterations.clone(),
        }
    }

    fn of_single(x: Vec<u64>, report: &SolveReport) -> Print {
        assert!(report.converged, "did not converge");
        Print {
            x,
            histories: vec![report.history.iter().map(|v| v.to_bits()).collect()],
            iterations: vec![report.iterations],
        }
    }

    /// The `j`-th right-hand side of a batched print.
    fn rhs(&self, j: usize, nrhs: usize) -> Print {
        let per = self.x.len() / nrhs;
        Print {
            x: self.x[j * per..(j + 1) * per].to_vec(),
            histories: vec![self.histories[j].clone()],
            iterations: vec![self.iterations[j]],
        }
    }
}

/// Field content in global lexicographic site order — the same at every
/// vector length, whatever the virtual-node interleaving.
fn field_bits<E: SveFloat>(f: &Field<FermionKind, E>) -> Vec<u64> {
    let g = f.grid();
    let mut bits = Vec::with_capacity(g.volume() * FermionKind::NCOMP * 2);
    for site in 0..g.volume() {
        let x = delex(site, &g.fdims());
        for comp in 0..FermionKind::NCOMP {
            let z = f.peek(&x, comp);
            bits.extend([z.re.to_bits(), z.im.to_bits()]);
        }
    }
    bits
}

fn block_bits(b: &FermionBlock) -> Vec<u64> {
    (0..b.nrhs())
        .flat_map(|j| field_bits(&b.rhs_field(j)))
        .collect()
}

fn five_bits(f: &Fermion5) -> Vec<u64> {
    (0..f.ls())
        .flat_map(|s| field_bits(&f.rhs_field(s)))
        .collect()
}

/// What a cell needs of its vector type to be fingerprinted.
trait Printed: Vector {
    fn print(x: &Self, report: &Self::Report) -> Print;
}

impl<E: SveFloat> Printed for Field<FermionKind, E> {
    fn print(x: &Self, report: &SolveReport) -> Print {
        Print::of_single(field_bits(x), report)
    }
}

impl Printed for FermionBlock {
    fn print(x: &Self, report: &BlockSolveReport) -> Print {
        Print::of(block_bits(x), report)
    }
}

impl Printed for Fermion5 {
    fn print(x: &Self, report: &SolveReport) -> Print {
        Print::of_single(five_bits(x), report)
    }
}

/// The recurrence a cell's solves run in a space: CG in a normal space,
/// BiCGStab in an operator's own.
#[derive(Clone, Copy)]
enum Rec {
    Cg,
    BiCgStab,
}

/// What a cell solves with: a recurrence in a space, `(Rec, &mut space)`,
/// or the solve of `M x = b` of an operator, [`OfM`].
trait Solver {
    type V: Printed;

    /// One solve under `observer`, to at most `budget` iterations.
    fn run(
        &mut self,
        b: &Self::V,
        start: Start<Self::V>,
        tol: f64,
        budget: usize,
        observer: impl FnMut(&State<Self::V>, &[HealthMonitor]) -> ControlFlow<()>,
    ) -> (Self::V, <Self::V as Vector>::Report);

    /// The start that continues the solve of `b` from the snapshot at
    /// `path`.
    fn resume(&self, b: &Self::V, path: &Path) -> Result<Start<Self::V>, qcd_io::IoError> {
        qcd_io::resume(b, path)
    }
}

impl<S: CgSpace> Solver for (Rec, &mut S)
where
    S::V: Printed,
{
    type V = S::V;

    fn run(
        &mut self,
        b: &S::V,
        start: Start<S::V>,
        tol: f64,
        budget: usize,
        observer: impl FnMut(&State<S::V>, &[HealthMonitor]) -> ControlFlow<()>,
    ) -> (S::V, <S::V as Vector>::Report) {
        let span = qcd_trace::span!("matrix.solve");
        let solve = match self.0 {
            Rec::Cg => krylov::cg_solve,
            Rec::BiCgStab => krylov::bicgstab,
        };
        solve(self.1, b, start, tol, budget, span, "matrix", observer)
    }
}

/// `M x = b` of an operator on fields, by `krylov::solve_normal`: its
/// states are those of CG on `M†M x = M†b`.
struct OfM<'d, D>(&'d D);

impl<D: Dirac<FermionField>> Solver for OfM<'_, D> {
    type V = FermionField;

    fn run(
        &mut self,
        b: &FermionField,
        start: Start<FermionField>,
        tol: f64,
        budget: usize,
        observer: impl FnMut(&State<FermionField>, &[HealthMonitor]) -> ControlFlow<()>,
    ) -> (FermionField, SolveReport) {
        let span = qcd_trace::span!("matrix.solve");
        krylov::solve_normal(self.0, b, start, tol, budget, span, "matrix", observer)
    }

    /// A snapshot is a state of `M†M x = M†b`: it resumes with `M†b`.
    fn resume(
        &self,
        b: &FermionField,
        path: &Path,
    ) -> Result<Start<FermionField>, qcd_io::IoError> {
        qcd_io::resume(&self.0.apply_dag(b), path)
    }
}

/// One unobserved solve by `solver`.
fn solve<S: Solver>(solver: &mut S, b: &S::V, start: Start<S::V>, tol: f64) -> Print {
    let (x, report) = solver.run(b, start, tol, BUDGET, krylov::no_observer);
    S::V::print(&x, &report)
}

/// Solve by `solver` from `start()` uninterrupted; then again, stopped by
/// the observer after `cut` iterations, the snapshot restored and
/// continued. The two prints must be equal; returns the first.
fn solve_and_resume<S: Solver>(
    solver: &mut S,
    b: &S::V,
    start: impl Fn() -> Start<S::V>,
    tol: f64,
    cut: usize,
) -> Result<Print, String> {
    let whole = solve(solver, b, start(), tol);

    let mut seen = 0;
    let mut snapshot = None;
    let _ = solver.run(
        b,
        start(),
        tol,
        BUDGET,
        |state: &State<S::V>, _: &[HealthMonitor]| {
            seen += 1;
            if seen == cut {
                snapshot = Some(state.clone());
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        },
    );
    let restored = snapshot.ok_or("the solve ended before the cut")?;
    let resumed = solve(solver, b, Start::State(restored), tol);
    same("resume", &whole, &resumed)?;
    Ok(whole)
}

/// A cell of the product by `solver`, to [`TOL`] with the legs cut at
/// [`CUT`].
fn cell<S: Solver>(
    mut solver: S,
    b: &S::V,
    start: impl Fn() -> Start<S::V>,
    durable: bool,
) -> Result<Print, String> {
    cell_at(&mut solver, b, start, durable, TOL, CUT)
}

/// A cell to `tol`. Undurable: the solve from `start()` uninterrupted and
/// through the in-memory resume leg cut at `cut`. Durable: uninterrupted,
/// and once more checkpointed to disk every `cut` iterations, killed at
/// `2·cut + 1` (the snapshot on disk is then the one at `2·cut`), restored
/// by [`Solver::resume`] and continued, still checkpointing. Either way the
/// legs must be the same solve.
fn cell_at<S: Solver>(
    solver: &mut S,
    b: &S::V,
    start: impl Fn() -> Start<S::V>,
    durable: bool,
    tol: f64,
    cut: usize,
) -> Result<Print, String> {
    if !durable {
        return solve_and_resume(solver, b, &start, tol, cut);
    }
    let whole = solve(solver, b, start(), tol);
    static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("krylov-matrix-{}-{n}.qio", std::process::id()));
    let io = |e: qcd_io::IoError| e.to_string();
    let mut checkpointer = Checkpointer::every(cut, &path);
    let observer = checkpointer.observer();
    let _ = solver.run(b, start(), tol, 2 * cut + 1, observer);
    let written = checkpointer.finish().map_err(io)?;
    if written != 2 {
        return Err(format!("{written} snapshots, expected 2"));
    }
    let restored = solver.resume(b, &path).map_err(io)?;
    let mut checkpointer = Checkpointer::every(cut, &path);
    let (x, report) = solver.run(b, restored, tol, BUDGET, checkpointer.observer());
    checkpointer.finish().map_err(io)?;
    std::fs::remove_file(&path).ok();
    same("disk resume", &whole, &S::V::print(&x, &report))?;
    Ok(whole)
}

struct Problem {
    grid: Arc<Grid>,
    op: WilsonDirac,
    b: FermionField,
    b2: FermionField,
}

fn problem(bits: usize) -> Problem {
    let grid = Grid::new(DIMS, VectorLength::of(bits), SimdBackend::Fcmla);
    Problem {
        op: WilsonDirac::new(random_gauge(grid.clone(), 7), MASS),
        b: FermionField::random(grid.clone(), 11),
        b2: FermionField::random(grid.clone(), 12),
        grid,
    }
}

/// The allocating closure adapter on `M†M`: the oracle.
fn oracle(p: &Problem, b: &FermionField, start: Start<FermionField>) -> Print {
    let mut space = Allocating::new(|v: &FermionField| p.op.mdag_m(v));
    solve(&mut (Rec::Cg, &mut space), b, start, TOL)
}

/// `a` and `b` are the same answer to solver accuracy (a preconditioner
/// walks another trajectory to it).
fn close(a: &Print, b: &Print) -> Result<(), String> {
    let worst =
        a.x.iter()
            .zip(&b.x)
            .map(|(&p, &q)| (f64::from_bits(p) - f64::from_bits(q)).abs())
            .fold(0.0, f64::max);
    if worst > 1e-4 {
        return Err(format!("solutions differ by {worst:e}"));
    }
    Ok(())
}

fn same(what: &str, a: &Print, b: &Print) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    Err(format!(
        "{what}: iterations {:?} vs {:?}, solution bits {}",
        a.iterations,
        b.iterations,
        if a.x == b.x { "equal" } else { "differ" }
    ))
}

/// A stand-in subspace of two vectors of the operator's shape, tagged with
/// the operator's `mass`: any vectors and positive values make a Galerkin
/// *guess*, which is all a start has to be.
fn stand_in(vectors: [FermionField; 2], mass: f64) -> Subspace {
    Subspace {
        vectors: vectors.into(),
        values: vec![40.0, 55.0],
        residuals: vec![0.0; 2],
        mass,
    }
}

/// The stand-in subspace of the Wilson rows at `mass`: fields of seeds 21
/// and 22 on `grid`, each through `shape` (a restriction to the even
/// checkerboard or to a rank's slab).
fn subspace_on(
    grid: &Arc<Grid>,
    mass: f64,
    shape: impl Fn(FermionField) -> FermionField,
) -> Subspace {
    let vectors = [21, 22].map(|seed| shape(FermionField::random(grid.clone(), seed)));
    stand_in(vectors, mass)
}

fn subspace(p: &Problem) -> Subspace {
    subspace_on(&p.grid, MASS, |v| v)
}

/// The start axis, and the two solves that start from zero their own way:
/// the precision ladder (in the operator's narrow replicas) and BiCGStab
/// (in the operator's own space).
#[derive(Clone, Copy, PartialEq)]
enum StartAt {
    Zero,
    Galerkin,
    Ladder,
    BiCgStab,
}

impl StartAt {
    /// The start for `b`, the Galerkin guess of `sub` for an operator at
    /// `mass`.
    fn start<V: Vector<E = f64>>(self, sub: &Subspace, mass: f64, b: &V) -> Start<V> {
        match self {
            StartAt::Zero | StartAt::Ladder | StartAt::BiCgStab => Start::Zero,
            StartAt::Galerkin => Start::Guess(galerkin_guess(sub, mass, b)),
        }
    }
}

/// A ladder solve's print: the solution, the outer and inner histories,
/// and the tallies of rounds, iterations per tier, reliable updates and
/// demotions.
fn ladder_print(x: Vec<u64>, report: &LadderReport) -> Result<Print, String> {
    if !report.converged {
        return Err(format!("the ladder stopped at {:e}", report.residual));
    }
    let bits = |h: &Vec<f64>| h.iter().map(|v| v.to_bits()).collect();
    Ok(Print {
        x,
        histories: vec![bits(&report.outer_history), bits(&report.inner_history)],
        iterations: vec![
            report.outer_iterations,
            report.f32_iterations,
            report.f16_iterations,
            report.reliable_updates,
            report.tier_fallbacks,
        ],
    })
}

/// `x` written by `qcd_io` as one field record and read back onto its
/// grid.
fn through_disk<V: Vector<E = f64>>(x: &V) -> Result<V, String> {
    static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = format!("krylov-matrix-ladder-{}-{n}.qio", std::process::id());
    let (path, f, io) = (
        std::env::temp_dir().join(name),
        x.field(),
        |e: qcd_io::IoError| e.to_string(),
    );
    qcd_io::write_field(f, &path, Precision::F64).map_err(io)?;
    let back = qcd_io::read_field(&path, f.grid()).map_err(io)?;
    std::fs::remove_file(&path).ok();
    V::from_field(back, x.nrhs()).ok_or("not the iterate's shape".into())
}

/// A ladder cell: `b` solved to [`TOL`] in `op`'s replicas. Durable: once
/// more, cut after outer round 2, the iterate through [`through_disk`] and
/// resumed with the tiers the cut left on; the continuation must be the
/// uninterrupted tail, bit for bit. The uninterrupted solve is the one the
/// row's undurable cell ran at the same vector length and thread count
/// (kept by operator type, right-hand side and both), not run again.
fn ladder_cell<D>(op: &D, b: &D::V<f64>, durable: bool) -> Result<(D::V<f64>, LadderReport), String>
where
    D: Replica + Dirac<D::V<f64>>,
{
    type Kept = BTreeMap<u64, (Vec<u64>, LadderReport)>;
    static UNINTERRUPTED: Mutex<Kept> = Mutex::new(BTreeMap::new());
    let data =
        |v: &D::V<f64>| -> Vec<u64> { v.field().data().iter().map(|s| s.to_bits()).collect() };
    let key = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let f = b.field();
        (std::any::type_name::<D>(), f.grid().vl().bits(), f.width()).hash(&mut h);
        (rayon::current_num_threads(), data(b)).hash(&mut h);
        h.finish()
    };
    let kept = || UNINTERRUPTED.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = LadderConfig::new(TOL);
    if !durable {
        let (x, full) = ladder_solve(op, b, &cfg);
        kept().insert(key, (data(&x), full.clone()));
        return Ok((x, full));
    }
    let uninterrupted = kept().remove(&key);
    let (x, full) = uninterrupted.unwrap_or_else(|| {
        let (x, full) = ladder_solve(op, b, &cfg);
        (data(&x), full)
    });
    let cut = LadderConfig {
        max_outer: 2,
        ..cfg.clone()
    };
    let (partial, first) = ladder_solve(op, b, &cut);
    if first.outer_iterations != 2 {
        return Err(format!("cut after {} rounds", first.outer_iterations));
    }
    let cfg = LadderConfig {
        use_f16: first.f16_active_at_exit,
        ..cfg
    };
    let (resumed, tail) = ladder_solve_from(op, b, through_disk(&partial)?, &cfg);
    if data(&resumed) != x {
        return Err("disk resume: the solution differs".into());
    }
    if tail.outer_history != full.outer_history[2..] {
        return Err("disk resume: the outer history is not the tail".into());
    }
    Ok((resumed, full))
}

/// The reported residual is the true one: `|b − M x| / |b|` through
/// `apply`, at most `bound`, bit for bit.
fn true_residual<D: Dirac<V>, V: Vector<E = f64>>(
    op: &D,
    b: &V,
    x: &V,
    reported: f64,
    bound: f64,
) -> Result<(), String> {
    let mut r = b.zero_like();
    r.field_mut().sub(b.field(), op.apply(x).field());
    let residual = (r.field().norm2() / b.field().norm2()).sqrt();
    if residual > bound || residual.to_bits() != reported.to_bits() {
        return Err(format!("true residual {residual:e}, reported {reported:e}"));
    }
    Ok(())
}

/// A BiCGStab cell: `b` solved from zero in `op`'s own space through
/// [`cell_at`], the legs cut at `cut`; the allocating closure adapter over
/// `apply` is the same solve, and the reported residual is the true one.
fn bicgstab_cell<D, V>(op: &D, b: &V, durable: bool, cut: usize) -> Result<Print, String>
where
    D: Dirac<V>,
    V: Printed<E = f64, Report = SolveReport>,
{
    let solver = &mut (Rec::BiCgStab, &mut op.direct());
    let whole = cell_at(solver, b, || Start::Zero, durable, TOL, cut)?;
    let mut oracle = Allocating::new(|v: &V| op.apply(v));
    let zero = Start::Zero;
    let (x, report) = (Rec::BiCgStab, &mut oracle).run(b, zero, TOL, BUDGET, krylov::no_observer);
    same("oracle", &whole, &V::print(&x, &report))?;
    true_residual(op, b, &x, report.residual, TOL)?;
    Ok(whole)
}

/// BiCGStab on the Wilson operator.
fn field_bicgstab(bits: usize, _: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    bicgstab_cell(&p.op, &p.b, durable, CUT)
}

/// BiCGStab on the Schur complement, for the even-parity right-hand side:
/// six iterations, so its legs are cut at the second.
fn eo_bicgstab(bits: usize, _: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    bicgstab_cell(&Schur::new(&p.op), &parity_project(&p.b, 0), durable, 2)
}

/// BiCGStab on the domain-wall operator of the `Fermion5` rows.
fn fermion5_bicgstab(bits: usize, _: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let op = DomainWall::new(random_gauge(p.grid.clone(), 7), 2, 1.8, 0.1);
    bicgstab_cell(&op, &Fermion5::random(p.grid.clone(), 2, 31), durable, CUT)
}

/// The ladder on the Wilson operator.
fn field_ladder(bits: usize, _: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let (x, report) = ladder_cell(&p.op, &p.b, durable)?;
    ladder_print(field_bits(&x), &report)
}

/// The ladder on the Schur complement, for the even-parity right-hand side
/// of the EO-Schur rows.
fn eo_ladder(bits: usize, _: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let rhs = parity_project(&p.b, 0);
    let schur = Schur::new(&p.op);
    let (x, report) = ladder_cell(&schur, &rhs, durable)?;
    true_residual(&schur, &rhs, &x, report.residual, TOL)?;
    ladder_print(field_bits(&x), &report)
}

/// The ladder on the domain-wall operator of the `Fermion5` rows: its
/// replicas act on 5-d fermions at f32 and binary16.
fn fermion5_ladder(bits: usize, _: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let op = DomainWall::new(random_gauge(p.grid.clone(), 7), 2, 1.8, 0.1);
    let b = Fermion5::random(p.grid.clone(), 2, 31);
    let (x, report) = ladder_cell(&op, &b, durable)?;
    true_residual(&op, &b, &x, report.residual, TOL)?;
    ladder_print(five_bits(&x), &report)
}

/// A guess that leaves the starting residual at `|b|` was not applied.
fn moved_by_the_guess(from: StartAt, print: &Print) -> Result<(), String> {
    let untouched = print.histories.iter().any(|h| h[0] == 1.0f64.to_bits());
    if from == StartAt::Galerkin && untouched {
        return Err("the guess did not move the starting residual".into());
    }
    Ok(())
}

/// The deflated solve as the farm and the benchmarks write it: CG in the
/// normal space from the Galerkin guess, under their span and region.
fn deflated<V>(p: &Problem, sub: &Subspace, b: &V) -> (V, V::Report)
where
    V: Vector<E = f64>,
    WilsonDirac: Dirac<V>,
{
    krylov::cg_solve(
        &mut p.op.normal(&mut b.zero_like()),
        b,
        StartAt::Galerkin.start(sub, MASS, b),
        TOL,
        BUDGET,
        qcd_trace::span!("solver.deflate", p.grid.engine().ctx()),
        "solver.defl_cg",
        krylov::no_observer,
    )
}

/// The fused field space: bit-equal to the oracle from the same start; from
/// zero, undurable, the body of `cg()`; from the Galerkin guess, the
/// deflated solve.
fn field_fused(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let sub = subspace(&p);
    let mut tmp = p.b.zero_like();
    let whole = cell(
        (Rec::Cg, &mut p.op.normal(&mut tmp)),
        &p.b,
        || from.start(&sub, MASS, &p.b),
        durable,
    )?;
    same(
        "oracle",
        &whole,
        &oracle(&p, &p.b, from.start(&sub, MASS, &p.b)),
    )?;
    let (x, report) = match from {
        StartAt::Galerkin => deflated(&p, &sub, &p.b),
        _ => cg(&p.op, &p.b, TOL, BUDGET),
    };
    same("preset", &whole, &Print::of_single(field_bits(&x), &report))?;
    moved_by_the_guess(from, &whole)?;
    Ok(whole)
}

/// The fused block space: per RHS bit-equal to the oracle and to the field
/// space on that field; from zero `cg` of the block, from the Galerkin guess
/// the deflated solve of the block and of each RHS alone.
fn block_fused(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let sub = subspace(&p);
    let block = FermionBlock::from_fields(&[p.b.clone(), p.b2.clone()]);
    let mut tmp = block.zero_like();
    let whole = cell(
        (Rec::Cg, &mut p.op.normal(&mut tmp)),
        &block,
        || from.start(&sub, MASS, &block),
        durable,
    )?;
    let mut tmp = p.b.zero_like();
    let mut single = (Rec::Cg, &mut p.op.normal(&mut tmp));
    for (j, b) in [&p.b, &p.b2].into_iter().enumerate() {
        let solo = solve(&mut single, b, from.start(&sub, MASS, b), TOL);
        same("field space per RHS", &whole.rhs(j, 2), &solo)?;
        same(
            "oracle per RHS",
            &solo,
            &oracle(&p, b, from.start(&sub, MASS, b)),
        )?;
    }
    let (x, report) = match from {
        StartAt::Galerkin => deflated(&p, &sub, &block),
        _ => cg(&p.op, &block, TOL, BUDGET),
    };
    same("preset", &whole, &Print::of(block_bits(&x), &report))?;
    if from == StartAt::Galerkin {
        for (j, b) in [&p.b, &p.b2].into_iter().enumerate() {
            let (x, report) = deflated(&p, &sub, b);
            let solo = Print::of_single(field_bits(&x), &report);
            same("deflated per RHS", &whole.rhs(j, 2), &solo)?;
        }
    }
    moved_by_the_guess(from, &whole).map(|()| whole)
}

/// `S†S` on the even checkerboard, in place (the space `solve_eo` runs its
/// CG in): bit-equal to the same operator allocating, from the same start —
/// the Galerkin guess of a subspace of even-parity fields.
fn eo_schur(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let a = MASS + 4.0;
    let rhs = parity_project(&p.b, 0);
    let sub = subspace_on(&p.grid, MASS, |v| parity_project(&v, 0));
    let schur = |v: &FermionField| {
        let mut s = p.op.hopping(&p.op.hopping(v));
        s.scale_axpy_from(a, v, -0.25 / a, &s.clone());
        s
    };
    let mut allocating = Allocating::new(|v: &FermionField| gamma5(&schur(&gamma5(&schur(v)))));
    let start = || from.start(&sub, MASS, &rhs);
    let reference = solve(&mut (Rec::Cg, &mut allocating), &rhs, start(), TOL);

    let schur = Schur::new(&p.op);
    let whole = cell(
        (Rec::Cg, &mut schur.normal(&mut rhs.zero_like())),
        &rhs,
        start,
        durable,
    )?;
    same("oracle", &whole, &reference)?;
    moved_by_the_guess(from, &whole).map(|()| whole)
}

/// The distributed normal space, run through [`cell`] inside every rank
/// (the file counter gives each rank its own checkpoint path); the print's
/// solution is the ranks' sites in global lexicographic order. The Galerkin
/// start projects with each rank's slab of the subspace vectors.
fn dist(bits: usize, ranks: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let global = [DIMS[0], DIMS[1], DIMS[2], 2 * DIMS[3]];
    let vl = VectorLength::of(bits);
    let per_rank = run_multinode_grid(global, [1, 1, 1, ranks], vl, SimdBackend::Fcmla, |ctx| {
        let g = Grid::new(global, vl, SimdBackend::Fcmla);
        let u = restrict_field(ctx, &random_gauge(g.clone(), 7));
        let b = restrict_field(ctx, &FermionField::random(g.clone(), 13));
        let sub = subspace_on(&g, DIST_MASS, |v| restrict_field(ctx, &v));
        let dw = DistWilson::new(ctx, u, DIST_MASS, GaugeWire::TwoRow, Compression::None);
        let print = match from {
            StartAt::Ladder => {
                let (x, report) = ladder_cell(&dw, &b, durable)?;
                ladder_print(field_bits(&x), &report)?
            }
            StartAt::BiCgStab => bicgstab_cell(&dw, &b, durable, CUT)?,
            _ => cell(
                (Rec::Cg, &mut dw.normal(&mut b.zero_like())),
                &b,
                || from.start(&sub, DIST_MASS, &b),
                durable,
            )?,
        };
        let local = ctx.grid.fdims();
        let sites: Vec<(usize, Vec<u64>)> = (print.x.chunks(2 * FermionKind::NCOMP).enumerate())
            .map(|(j, bits)| {
                (
                    lex(&ctx.to_global(&delex(j, &local)), &global),
                    bits.to_vec(),
                )
            })
            .collect();
        Ok::<_, String>((
            sites,
            Print {
                x: Vec::new(),
                ..print
            },
        ))
    });
    let mut per_rank = per_rank.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut sites: Vec<_> = per_rank.iter_mut().flat_map(|(s, _)| s.drain(..)).collect();
    sites.sort_unstable();
    let mut print = per_rank.pop().expect("at least one rank").1;
    for (_, other) in &per_rank {
        same("ranks", &print, other)?;
    }
    print.x = sites.into_iter().flat_map(|(_, bits)| bits).collect();
    if ranks == 1 {
        // Ranks are a placement, not a different solve: one rank is the
        // fused field space on the same global operator, from the guess of
        // the global subspace, bit for bit — or the ladder or BiCGStab on it.
        let g = Grid::new(global, vl, SimdBackend::Fcmla);
        let op = WilsonDirac::new_two_row(random_gauge(g.clone(), 7), DIST_MASS);
        let b = FermionField::random(g.clone(), 13);
        let field = match from {
            StartAt::Ladder => {
                let (x, report) = ladder_solve(&op, &b, &LadderConfig::new(TOL));
                ladder_print(field_bits(&x), &report)?
            }
            StartAt::BiCgStab => {
                solve(&mut (Rec::BiCgStab, &mut op.direct()), &b, Start::Zero, TOL)
            }
            _ => {
                let start = from.start(&subspace_on(&g, DIST_MASS, |v| v), DIST_MASS, &b);
                solve(
                    &mut (Rec::Cg, &mut op.normal(&mut b.zero_like())),
                    &b,
                    start,
                    TOL,
                )
            }
        };
        same("one process", &print, &field)?;
    }
    moved_by_the_guess(from, &print).map(|()| print)
}

fn dist_r2(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    // One rank's print per start, once: the row above checks it is the
    // same in every cell.
    static ONE_RANK: [std::sync::OnceLock<Print>; 4] = [const { std::sync::OnceLock::new() }; 4];
    let two = dist(bits, 2, from, durable)?;
    let one = ONE_RANK[from as usize].get_or_init(|| dist(512, 1, from, false).expect("R=1"));
    same("R=1", &two, one)?;
    Ok(two)
}

/// The domain-wall normal space, whose iterates are 5-d fermions: one
/// right-hand side stored as `Ls` fields. Its subspace holds 5-d vectors,
/// fields of width `Ls`.
fn fermion5(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let op = DomainWall::new(random_gauge(p.grid.clone(), 7), 2, 1.8, 0.1);
    let b = Fermion5::random(p.grid.clone(), 2, 31);
    let vectors = [41, 42].map(|seed| Fermion5::random(p.grid.clone(), 2, seed).field().clone());
    let sub = stand_in(vectors, op.mf);
    let start = || from.start(&sub, op.mf, &b);
    let mut tmp = b.zero_like();
    let whole = cell((Rec::Cg, &mut op.normal(&mut tmp)), &b, start, durable)?;
    // The oracle: the same operator as an allocating closure.
    let mut space = Allocating::new(|v: &Fermion5| op.mdag_m(v));
    let oracle = solve_and_resume(&mut (Rec::Cg, &mut space), &b, start, TOL, CUT)?;
    same("oracle", &whole, &oracle)?;
    moved_by_the_guess(from, &whole).map(|()| whole)
}

/// The fused space at binary16: the space of the ladder's inner tier,
/// checkpointed as its f64 widening (exact).
fn f16_fused(bits: usize, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let g16 = Grid::<F16>::new(DIMS, VectorLength::of(bits), SimdBackend::Fcmla);
    let op = WilsonDirac::<F16>::new(to_precision(p.op.gauge(), &g16), MASS);
    let mut b = p.b.clone();
    b.scale(1.0 / p.b.norm2().sqrt()); // into binary16 range, like the ladder
    let b = to_precision(&b, &g16);
    let mut tmp = b.zero_like();
    let mut space = op.normal(&mut tmp);
    // Binary16 carries ~3 digits: stop well above its floor (nine
    // iterations), and cut after the first, or checkpoint every third.
    let cut = if durable { 3 } else { 1 };
    cell_at(
        &mut (Rec::Cg, &mut space),
        &b,
        || Start::Zero,
        durable,
        1e-2,
        cut,
    )
}

/// The fused space preconditioned by the two-level coarse correction:
/// close to the oracle (the preconditioner walks another trajectory to the
/// same solution), and the same solve under the benchmarks' span and region.
fn coarse_preconditioned(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let sub = subspace(&p);
    let mut tmp = p.b.zero_like();
    let cs = CoarseSpace::build(p.op.normal(&mut tmp), &sub.vectors, [2, 2, 2, 2]);
    let mut space = cs.two_level(p.op.normal(&mut tmp), None);
    let start = || from.start(&sub, MASS, &p.b);
    let whole = cell((Rec::Cg, &mut space), &p.b, start, durable)?;
    close(&whole, &oracle(&p, &p.b, Start::Zero))?;
    let span = qcd_trace::span!("mg.coarse", p.grid.engine().ctx());
    let start = start();
    let (x, report) = krylov::cg_solve(
        &mut space,
        &p.b,
        start,
        TOL,
        BUDGET,
        span,
        "solver.coarse_pcg",
        krylov::no_observer,
    );
    same("preset", &whole, &Print::of_single(field_bits(&x), &report))?;
    moved_by_the_guess(from, &whole).map(|()| whole)
}

/// The solve of `M x = b` of the clover operator ([`OfM`]), from zero or
/// from the Galerkin guess of `M†b` (a deflated solve of `M x = b`): CG on
/// `M†M x = M†b` in the clover normal space and in the allocating closure
/// adapter from the same start, bit for bit, and the reported residual is
/// the true one of `M x = b`.
fn clover(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let op = CloverWilson::new(p.op.gauge().clone(), MASS, C_SW);
    let sub = subspace(&p);
    let mdag_b = op.apply_dag(&p.b);
    let start = || from.start(&sub, MASS, &mdag_b);
    let whole = cell(OfM(&op), &p.b, start, durable)?;
    let normal = solve(
        &mut (Rec::Cg, &mut op.normal(&mut p.b.zero_like())),
        &mdag_b,
        start(),
        TOL,
    );
    same("normal space", &whole, &normal)?;
    let mut allocating = Allocating::new(|v: &FermionField| op.mdag_m(v));
    same(
        "oracle",
        &whole,
        &solve(&mut (Rec::Cg, &mut allocating), &mdag_b, start(), TOL),
    )?;
    let (x, report) = OfM(&op).run(&p.b, start(), TOL, BUDGET, krylov::no_observer);
    // `TOL` bounds the normal equations' residual, `|M†(b − M x)| / |M†b|`;
    // that of `M x = b` only up to the condition number of `M` (1.05e-6
    // from zero here).
    true_residual(&op, &p.b, &x, report.residual, 10.0 * TOL)?;
    moved_by_the_guess(from, &whole).map(|()| whole)
}

/// One row of the product: a space, a start and a durability, run at
/// every vector length and thread count. A cell returns its print, already
/// checked against whatever it must equal *at that vector length*; every
/// cell must moreover equal the row's first.
struct Row {
    space: &'static str,
    from: StartAt,
    durable: bool,
    cell: Cell,
}

type Cell = fn(usize, StartAt, bool) -> Result<Print, String>;

/// The cells of the product nobody can run without writing the missing
/// piece first, and what that piece is.
const UNREACHABLE: [(&str, &str); 1] = [(
    "ladder × ckpt (as a state)",
    "a ladder checkpoint is the f64 iterate (write_field), not a recurrence state",
)];

#[test]
fn every_space_conforms_across_vector_lengths_and_threads() {
    let mut rows = Vec::new();
    let mut row = |space, starts: &[StartAt], durabilities: &[bool], cell: Cell| {
        for &from in starts {
            for &durable in durabilities {
                rows.push(Row {
                    space,
                    from,
                    durable,
                    cell,
                });
            }
        }
    };
    let (both, zero) = ([StartAt::Zero, StartAt::Galerkin], [StartAt::Zero]);
    let ladder = [StartAt::Ladder];
    row("field fused", &both, &[false, true], field_fused);
    row("block fused", &both, &[false, true], block_fused);
    row("EO-Schur", &both, &[false, true], eo_schur);
    row("dist R=1", &both, &[false, true], |bits, from, durable| {
        dist(bits, 1, from, durable)
    });
    row("dist R=2", &both, &[false, true], dist_r2);
    row("Fermion5", &both, &[false, true], fermion5);
    row("clover", &both, &[false, true], clover);
    row("f16 fused", &zero, &[false, true], |bits, _, durable| {
        f16_fused(bits, durable)
    });
    row(
        "coarse-preconditioned",
        &both,
        &[false, true],
        coarse_preconditioned,
    );
    row("field", &ladder, &[false, true], field_ladder);
    row("EO-Schur", &ladder, &[false, true], eo_ladder);
    row("Fermion5", &ladder, &[false, true], fermion5_ladder);
    row(
        "dist R=1",
        &ladder,
        &[false, true],
        |bits, from, durable| dist(bits, 1, from, durable),
    );
    row("dist R=2", &ladder, &[false, true], dist_r2);
    let bicg = [StartAt::BiCgStab];
    row("field", &bicg, &[false, true], field_bicgstab);
    row("EO-Schur", &bicg, &[false, true], eo_bicgstab);
    row("Fermion5", &bicg, &[false, true], fermion5_bicgstab);
    row("dist R=1", &bicg, &[false, true], |bits, from, durable| {
        dist(bits, 1, from, durable)
    });
    row("dist R=2", &bicg, &[false, true], dist_r2);

    let mut failures = Vec::new();
    let mut table = format!("{:<22} {:<8} {:<5}", "space", "start", "dur.");
    for bits in VLS {
        for threads in THREADS {
            table += &format!(" {:>7}", format!("{bits}/{threads}"));
        }
    }
    for row in &rows {
        let start = match row.from {
            StartAt::Zero => "zero",
            StartAt::Galerkin => "Galerkin",
            StartAt::Ladder => "ladder",
            StartAt::BiCgStab => "bicgstab",
        };
        let durable = if row.durable { "ckpt" } else { "none" };
        let name = format!("{:<22} {:<8} {:<5}", row.space, start, durable);
        table += &format!("\n{name}");
        // A row is one print.
        let mut reference: Option<Print> = None;
        for bits in VLS {
            for threads in THREADS {
                rayon::set_num_threads(threads);
                let cell =
                    (row.cell)(bits, row.from, row.durable).and_then(|print| match &reference {
                        Some(reference) => same("row", &print, reference),
                        None => {
                            reference = Some(print);
                            Ok(())
                        }
                    });
                table += &format!(" {:>7}", if cell.is_ok() { "ok" } else { "FAIL" });
                if let Err(why) = cell {
                    failures.push(format!(
                        "{} @ VL{bits} × {threads} threads: {why}",
                        name.split_whitespace().collect::<Vec<_>>().join(" ")
                    ));
                }
            }
        }
    }
    rayon::set_num_threads(0);
    table += "\n\nnot reachable (each needs the piece named, which is a feature, not a cell):";
    for (cells, why) in UNREACHABLE {
        table += &format!("\n  {cells:<46} {why}");
    }
    println!("{table}");
    assert!(failures.is_empty(), "{table}\n\n{}", failures.join("\n"));
}
