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
//! `rayon::set_num_threads` is process-global, so the matrix is one test.

use std::ops::ControlFlow;
use std::sync::Arc;

use grid::field::FermionKind;
use grid::krylov::{self, Allocating, CgSpace, Start, State, Stored, Vector};
use grid::layout::{delex, lex};
use grid::mixed::to_precision;
use grid::prelude::*;
use grid::{Field, FieldKind};
use qcd_deflate::{defl_cg, galerkin_guess, CoarseSpace, Subspace};
use qcd_io::Checkpointer;
use qcd_trace::HealthMonitor;
use sve::{SveFloat, F16};

const DIMS: [usize; 4] = [2, 2, 4, 4];
const MASS: f64 = 0.2;
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

/// One solve in `space` under `observer`, to at most `budget` iterations.
fn observed<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    start: Start<S::V>,
    tol: f64,
    budget: usize,
    observer: impl FnMut(&State<S::V>, &[HealthMonitor]) -> ControlFlow<()>,
) -> (S::V, <S::V as Vector>::Report) {
    let span = qcd_trace::span!("matrix.solve");
    krylov::cg_solve(space, b, start, tol, budget, span, "matrix", observer)
}

/// One unobserved solve in `space`.
fn solve<S: CgSpace>(space: &mut S, b: &S::V, start: Start<S::V>, tol: f64) -> Print
where
    S::V: Printed,
{
    let (x, report) = observed(space, b, start, tol, BUDGET, krylov::no_observer);
    S::V::print(&x, &report)
}

/// Solve in `space` from `start()` uninterrupted; then again, stopped by
/// the observer after `cut` iterations, the snapshot restored and
/// continued. The two prints must be equal; returns the first.
fn solve_and_resume<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    start: impl Fn() -> Start<S::V>,
    tol: f64,
    cut: usize,
) -> Result<Print, String>
where
    S::V: Printed,
{
    let whole = solve(space, b, start(), tol);

    let mut seen = 0;
    let mut snapshot = None;
    let _ = observed(
        space,
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
    let resumed = solve(space, b, Start::State(restored), tol);
    same("resume", &whole, &resumed)?;
    Ok(whole)
}

/// A cell of the product in a space over stored vectors, to [`TOL`] with
/// the legs cut at [`CUT`].
fn cell<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    start: impl Fn() -> Start<S::V>,
    durable: bool,
) -> Result<Print, String>
where
    S::V: Printed + Stored,
{
    cell_at(space, b, start, durable, TOL, CUT)
}

/// A cell to `tol`. Undurable: the solve from `start()` uninterrupted and
/// through the in-memory resume leg cut at `cut`. Durable: uninterrupted,
/// and once more checkpointed to disk every `cut` iterations, killed at
/// `2·cut + 2` (the snapshot on disk is then the one at `2·cut`), restored
/// by `qcd_io::resume` and continued, still checkpointing. Either way the
/// legs must be the same solve.
fn cell_at<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    start: impl Fn() -> Start<S::V>,
    durable: bool,
    tol: f64,
    cut: usize,
) -> Result<Print, String>
where
    S::V: Printed + Stored,
{
    if !durable {
        return solve_and_resume(space, b, &start, tol, cut);
    }
    let whole = solve(space, b, start(), tol);
    static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("krylov-matrix-{}-{n}.qio", std::process::id()));
    let io = |e: qcd_io::IoError| e.to_string();
    let mut checkpointer = Checkpointer::every(cut, &path);
    let _ = observed(space, b, start(), tol, 2 * cut + 2, checkpointer.observer());
    let written = checkpointer.finish().map_err(io)?;
    if written != 2 {
        return Err(format!("{written} snapshots, expected 2"));
    }
    let restored = qcd_io::resume(b, &path).map_err(io)?;
    let mut checkpointer = Checkpointer::every(cut, &path);
    let (x, report) = observed(space, b, restored, tol, BUDGET, checkpointer.observer());
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
    solve(&mut space, b, start, TOL)
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

/// A stand-in subspace: any vectors and positive values make a Galerkin
/// *guess*, which is all a start has to be.
fn subspace(p: &Problem) -> Subspace {
    Subspace {
        vectors: vec![
            FermionField::random(p.grid.clone(), 21),
            FermionField::random(p.grid.clone(), 22),
        ],
        values: vec![40.0, 55.0],
        residuals: vec![0.0; 2],
        mass: MASS,
    }
}

/// The start axis.
#[derive(Clone, Copy, PartialEq)]
enum StartAt {
    Zero,
    Galerkin,
}

impl StartAt {
    fn start<V: Stored<E = f64>>(self, p: &Problem, b: &V) -> Start<V> {
        match self {
            StartAt::Zero => Start::Zero,
            StartAt::Galerkin => Start::Guess(galerkin_guess(&subspace(p), b)),
        }
    }
}

/// A guess that leaves the starting residual at `|b|` was not applied.
fn moved_by_the_guess(from: StartAt, print: &Print) -> Result<(), String> {
    let untouched = print.histories.iter().any(|h| h[0] == 1.0f64.to_bits());
    if from == StartAt::Galerkin && untouched {
        return Err("the guess did not move the starting residual".into());
    }
    Ok(())
}

/// The fused field space: bit-equal to the oracle from the same start; from
/// zero, undurable, the body of `cg()`; from the Galerkin guess, `defl_cg`.
fn field_fused(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let mut tmp = p.b.zero_like();
    let whole = cell(
        &mut p.op.normal(&mut tmp),
        &p.b,
        || from.start(&p, &p.b),
        durable,
    )?;
    same("oracle", &whole, &oracle(&p, &p.b, from.start(&p, &p.b)))?;
    let (x, report) = match from {
        StartAt::Zero => cg(&p.op, &p.b, TOL, BUDGET),
        StartAt::Galerkin => defl_cg(&p.op, &subspace(&p), &p.b, TOL, BUDGET),
    };
    same("preset", &whole, &Print::of_single(field_bits(&x), &report))?;
    moved_by_the_guess(from, &whole)?;
    Ok(whole)
}

/// The fused block space: per RHS bit-equal to the oracle and to the field
/// space on that field; from zero `cg` of the block, from the Galerkin guess
/// `defl_cg` of the block and of each RHS alone.
fn block_fused(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let block = FermionBlock::from_fields(&[p.b.clone(), p.b2.clone()]);
    let mut tmp = block.zero_like();
    let whole = cell(
        &mut p.op.normal(&mut tmp),
        &block,
        || from.start(&p, &block),
        durable,
    )?;
    let mut tmp = p.b.zero_like();
    let mut single = p.op.normal(&mut tmp);
    for (j, b) in [&p.b, &p.b2].into_iter().enumerate() {
        let solo = solve(&mut single, b, from.start(&p, b), TOL);
        same("field space per RHS", &whole.rhs(j, 2), &solo)?;
        same("oracle per RHS", &solo, &oracle(&p, b, from.start(&p, b)))?;
    }
    let sub = subspace(&p);
    let (x, report) = match from {
        StartAt::Zero => cg(&p.op, &block, TOL, BUDGET),
        StartAt::Galerkin => defl_cg(&p.op, &sub, &block, TOL, BUDGET),
    };
    same("preset", &whole, &Print::of(block_bits(&x), &report))?;
    if from == StartAt::Galerkin {
        for (j, b) in [&p.b, &p.b2].into_iter().enumerate() {
            let (x, report) = defl_cg(&p.op, &sub, b, TOL, BUDGET);
            let solo = Print::of_single(field_bits(&x), &report);
            same("defl_cg per RHS", &whole.rhs(j, 2), &solo)?;
        }
    }
    moved_by_the_guess(from, &whole).map(|()| whole)
}

/// `S†S` on the even checkerboard, in place (the space `solve_eo` runs its
/// CG in): bit-equal to the same operator allocating.
fn eo_schur(bits: usize, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let a = MASS + 4.0;
    let rhs = parity_project(&p.b, 0);
    let schur = |v: &FermionField| {
        let mut s = p.op.hopping(&p.op.hopping(v));
        s.scale_axpy_from(a, v, -0.25 / a, &s.clone());
        s
    };
    let mut allocating = Allocating::new(|v: &FermionField| gamma5(&schur(&gamma5(&schur(v)))));
    let reference = solve(&mut allocating, &rhs, Start::Zero, TOL);

    let schur = Schur::new(&p.op);
    let whole = cell(
        &mut schur.normal(&mut rhs.zero_like()),
        &rhs,
        || Start::Zero,
        durable,
    )?;
    same("oracle", &whole, &reference)?;
    Ok(whole)
}

/// The distributed normal space, run through [`cell`] inside every rank
/// (the file counter gives each rank its own checkpoint path); the print's
/// solution is the ranks' sites in global lexicographic order.
fn dist(bits: usize, ranks: usize, durable: bool) -> Result<Print, String> {
    let global = [DIMS[0], DIMS[1], DIMS[2], 2 * DIMS[3]];
    let vl = VectorLength::of(bits);
    let per_rank = run_multinode_grid(global, [1, 1, 1, ranks], vl, SimdBackend::Fcmla, |ctx| {
        let g = Grid::new(global, vl, SimdBackend::Fcmla);
        let u = restrict_field(ctx, &random_gauge(g.clone(), 7));
        let b = restrict_field(ctx, &FermionField::random(g, 13));
        let dw = DistWilson::new(ctx, u, 0.3, GaugeWire::TwoRow, Compression::None);
        let print = cell(
            &mut dw.normal(&mut b.zero_like()),
            &b,
            || Start::Zero,
            durable,
        )?;
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
        // fused field space on the same global operator, bit for bit.
        let g = Grid::new(global, vl, SimdBackend::Fcmla);
        let op = WilsonDirac::new_two_row(random_gauge(g.clone(), 7), 0.3);
        let b = FermionField::random(g, 13);
        let mut tmp = b.zero_like();
        let field = solve(&mut op.normal(&mut tmp), &b, Start::Zero, TOL);
        same("field fused", &print, &field)?;
    }
    Ok(print)
}

fn dist_r2(bits: usize, durable: bool) -> Result<Print, String> {
    // One rank's print, once: the row above checks it is the same in
    // every cell.
    static ONE_RANK: std::sync::OnceLock<Print> = std::sync::OnceLock::new();
    let two = dist(bits, 2, durable)?;
    same(
        "R=1",
        &two,
        ONE_RANK.get_or_init(|| dist(512, 1, false).expect("R=1")),
    )?;
    Ok(two)
}

/// The domain-wall normal space, whose iterates are 5-d fermions: one
/// right-hand side stored as `Ls` fields.
fn fermion5(bits: usize, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let op = DomainWall::new(random_gauge(p.grid.clone(), 7), 2, 1.8, 0.1);
    let b = Fermion5::random(p.grid.clone(), 2, 31);
    let mut tmp = b.zero_like();
    let whole = cell(&mut op.normal(&mut tmp), &b, || Start::Zero, durable)?;
    // The oracle: the same operator as an allocating closure.
    let mut space = Allocating::new(|v: &Fermion5| op.mdag_m(v));
    same(
        "oracle",
        &whole,
        &solve_and_resume(&mut space, &b, || Start::Zero, TOL, CUT)?,
    )?;
    Ok(whole)
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
    cell_at(&mut space, &b, || Start::Zero, durable, 1e-2, cut)
}

/// The fused space preconditioned by the two-level coarse correction:
/// close to the oracle (the preconditioner walks another trajectory to the
/// same solution), and the same solve under the benchmarks' span and region.
fn coarse_preconditioned(bits: usize, from: StartAt, durable: bool) -> Result<Print, String> {
    let p = problem(bits);
    let cs = CoarseSpace::build(&p.op, &subspace(&p).vectors, [2, 2, 2, 2]);
    let mut tmp = p.b.zero_like();
    let mut space = cs.two_level(p.op.normal(&mut tmp), None);
    let whole = cell(&mut space, &p.b, || from.start(&p, &p.b), durable)?;
    close(&whole, &oracle(&p, &p.b, Start::Zero))?;
    let span = qcd_trace::span!("mg.coarse", p.grid.engine().ctx());
    let start = from.start(&p, &p.b);
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
const UNREACHABLE: [(&str, &str); 6] = [
    (
        "dist × {Galerkin start, deflation}",
        "a Subspace holds f64 fields of the global lattice; DistWilson acts on a rank grid's",
    ),
    (
        "dist × ladder",
        "DistWilson is f64-only: the f32 and f16 tiers have no rank-local operator",
    ),
    (
        "Fermion5 × {Galerkin start, ladder}",
        "no eigensolver over 5-d vectors; precision is not yet a wrapper (item 4)",
    ),
    (
        "EO-Schur × Galerkin start",
        "a Subspace deflates M†M, not the Schur complement S†S",
    ),
    (
        "EO-Schur × ladder",
        "ladder_solve owns its f32/f16 operator replicas, which have no Schur form",
    ),
    (
        "ladder × ckpt (as a state)",
        "a ladder checkpoint is one f64 field (write_field), not a recurrence state",
    ),
];

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
    row("field fused", &both, &[false, true], field_fused);
    row("block fused", &both, &[false, true], block_fused);
    row("EO-Schur", &zero, &[false, true], |bits, _, durable| {
        eo_schur(bits, durable)
    });
    row("dist R=1", &zero, &[false, true], |bits, _, durable| {
        dist(bits, 1, durable)
    });
    row("dist R=2", &zero, &[false, true], |bits, _, durable| {
        dist_r2(bits, durable)
    });
    row("Fermion5", &zero, &[false, true], |bits, _, durable| {
        fermion5(bits, durable)
    });
    row("f16 fused", &zero, &[false, true], |bits, _, durable| {
        f16_fused(bits, durable)
    });
    row(
        "coarse-preconditioned",
        &both,
        &[false, true],
        coarse_preconditioned,
    );

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
