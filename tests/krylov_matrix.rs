//! The solver conformance matrix: every space the Krylov driver runs in ×
//! vector length {128, 512, 2048} × threads {1, 2}, printed like the
//! paper's Table V.
//!
//! Each cell drives `krylov::cg_solve` (directly, or through the public
//! wrapper that owns the space) and fingerprints the solve: solution bits
//! in global lexicographic site order, the full residual history, the
//! iteration counts. A **layout** space must equal the allocating closure
//! adapter on the same operator at the same vector length, bit for bit; a
//! **canonical** space must be bit-equal across its whole row (and agree
//! with the adapter to solver accuracy). Every resumable space adds a
//! stop-at-iteration-k / restore / continue leg — the stop is the public
//! observer hook — that must equal the uninterrupted run.
//!
//! `rayon::set_num_threads` is process-global, so the matrix is one test.

use std::ops::ControlFlow;
use std::sync::Arc;

use grid::field::FermionKind;
use grid::krylov::{
    self, Allocating, Canonical, CgSpace, Layout, Recurrence, Start, State, Vector,
};
use grid::layout::delex;
use grid::mixed::{to_precision, F16Canonical};
use grid::prelude::*;
use grid::{Field, FieldKind};
use qcd_deflate::{coarse_pcg, defl_block_cg, defl_cg, CoarseSpace, Subspace};
use qcd_metrics::HealthMonitor;
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
    f.slices.iter().flat_map(field_bits).collect()
}

/// One unobserved solve in `space`.
fn solve<S: CgSpace, St: Recurrence<V = S::V>>(
    space: &mut S,
    b: &S::V,
    start: Start<St>,
    tol: f64,
    bits: impl Fn(&S::V) -> Vec<u64>,
) -> Print {
    let span = qcd_trace::span!("matrix.solve");
    let (x, report) = krylov::cg_solve(
        space,
        b,
        start,
        tol,
        BUDGET,
        span,
        "matrix",
        krylov::no_observer,
    );
    Print::of(bits(&x), &report)
}

/// Solve in `space` from `start()` uninterrupted; then again, stopped by
/// the observer after `cut` iterations, the snapshot restored and
/// continued. The two prints must be equal; returns the first.
fn solve_and_resume<S: CgSpace, St: Recurrence<V = S::V> + Clone>(
    space: &mut S,
    b: &S::V,
    start: impl Fn() -> Start<St>,
    tol: f64,
    cut: usize,
    bits: impl Fn(&S::V) -> Vec<u64>,
) -> Result<Print, String> {
    let whole = solve(space, b, start(), tol, &bits);

    let mut seen = 0;
    let mut snapshot = None;
    let span = qcd_trace::span!("matrix.solve");
    let _ = krylov::cg_solve(
        space,
        b,
        start(),
        tol,
        BUDGET,
        span,
        "matrix",
        |state: &St, _: &[HealthMonitor]| {
            seen += 1;
            if seen == cut {
                snapshot = Some(state.clone());
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        },
    );
    let restored = snapshot.ok_or("the solve ended before the cut")?;
    let resumed = solve(space, b, Start::State(restored), tol, &bits);
    same("resume", &whole, &resumed)?;
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
fn oracle(p: &Problem, b: &FermionField) -> Print {
    let mut space = Allocating::new(p.grid.clone(), |v: &FermionField| p.op.mdag_m(v));
    solve(&mut space, b, Start::<CgState>::Zero, TOL, field_bits)
}

/// `a` and `b` are the same answer to solver accuracy (another inner
/// product, or a preconditioner, walks another trajectory to it).
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

/// One row: a cell runs at a vector length and returns its print (already
/// checked against whatever it must equal *at that vector length*) plus
/// whether the row is canonical — then every cell must equal the first.
struct Row {
    name: &'static str,
    canonical: bool,
    cell: fn(usize) -> Result<Print, String>,
}

fn field_fused(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let mut tmp = FermionField::zero(p.grid.clone());
    let mut space = Layout::new(|v: &FermionField, ap: &mut FermionField, c: &mut [f64]| {
        c[0] = p.op.mdag_m_into_dot(v, &mut tmp, ap);
    });
    let whole = solve_and_resume(
        &mut space,
        &p.b,
        || Start::State(CgState::new(&p.b)),
        TOL,
        CUT,
        field_bits,
    )?;
    same("oracle", &whole, &oracle(&p, &p.b))?;
    let (x, report) = cg(&p.op, &p.b, TOL, BUDGET);
    same("cg()", &whole, &Print::of_single(field_bits(&x), &report))?;
    Ok(whole)
}

fn field_canonical(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let (mut tmp, mut buf) = (p.b.zero_like(), vec![0.0; p.grid.volume()]);
    let mut space = Canonical::new(&p.op, &mut tmp, &mut buf);
    let whole = solve_and_resume(
        &mut space,
        &p.b,
        || Start::<CgState>::Zero,
        TOL,
        CUT,
        field_bits,
    )?;
    close(&whole, &oracle(&p, &p.b))?;
    Ok(whole)
}

fn block_layout(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let block = FermionBlock::from_fields(&[p.b.clone(), p.b2.clone()]);
    let mut tmp = block.zero_like();
    let mut space = Layout::new(|v: &FermionBlock, ap: &mut FermionBlock, c: &mut [f64]| {
        c.copy_from_slice(&p.op.mdag_m_block_into_dot(v, &mut tmp, ap));
    });
    let whole = solve_and_resume(
        &mut space,
        &block,
        || Start::State(BlockCgState::new(&block)),
        TOL,
        CUT,
        block_bits,
    )?;
    for (j, b) in [&p.b, &p.b2].into_iter().enumerate() {
        same("oracle per RHS", &whole.rhs(j, 2), &oracle(&p, b))?;
    }
    Ok(whole)
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

fn block_canonical(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let sub = subspace(&p);
    let block = FermionBlock::from_fields(&[p.b.clone(), p.b2.clone()]);
    let (x, report) = defl_block_cg(&p.op, &sub, &block, TOL, BUDGET);
    let whole = Print::of(block_bits(&x), &report);
    for (j, b) in [&p.b, &p.b2].into_iter().enumerate() {
        let (x, report) = defl_cg(&p.op, &sub, b, TOL, BUDGET);
        let solo = Print::of_single(field_bits(&x), &report);
        same("defl_cg per RHS", &whole.rhs(j, 2), &solo)?;
    }
    Ok(whole)
}

fn galerkin_start(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let x0 = qcd_deflate::galerkin_guess(&subspace(&p), &p.b);
    let (mut tmp, mut buf) = (p.b.zero_like(), vec![0.0; p.grid.volume()]);
    let mut space = Canonical::new(&p.op, &mut tmp, &mut buf);
    let whole = solve_and_resume(
        &mut space,
        &p.b,
        || Start::<CgState>::Guess(x0.clone()),
        TOL,
        CUT,
        field_bits,
    )?;
    let (x, report) = defl_cg(&p.op, &subspace(&p), &p.b, TOL, BUDGET);
    same(
        "defl_cg",
        &whole,
        &Print::of_single(field_bits(&x), &report),
    )?;
    if whole.histories[0][0] == 1.0f64.to_bits() {
        return Err("the guess did not move the starting residual".into());
    }
    Ok(whole)
}

fn dist(bits: usize, ranks: usize) -> Result<Print, String> {
    let global = [DIMS[0], DIMS[1], DIMS[2], 2 * DIMS[3]];
    let vl = VectorLength::of(bits);
    let mut per_rank =
        run_multinode_grid(global, [1, 1, 1, ranks], vl, SimdBackend::Fcmla, |ctx| {
            let g = Grid::new(global, vl, SimdBackend::Fcmla);
            let u = restrict_field(ctx, &random_gauge(g.clone(), 7));
            let b = restrict_field(ctx, &FermionField::random(g, 13));
            let dw = DistWilson::new(ctx, u, 0.3, GaugeWire::TwoRow, Compression::None);
            let (x, report) = dist_cg(&dw, &b, TOL, BUDGET);
            let mut sites = Vec::new();
            for local in ctx.grid.coords() {
                let at = grid::layout::lex(&ctx.to_global(&local), &global);
                for comp in 0..FermionKind::NCOMP {
                    let z = x.peek(&local, comp);
                    sites.push((
                        at * FermionKind::NCOMP + comp,
                        z.re.to_bits(),
                        z.im.to_bits(),
                    ));
                }
            }
            (sites, Print::of_single(Vec::new(), &report))
        });
    let mut sites: Vec<_> = per_rank.iter_mut().flat_map(|(s, _)| s.drain(..)).collect();
    sites.sort_unstable();
    let mut print = per_rank.pop().expect("at least one rank").1;
    for (_, other) in &per_rank {
        same("ranks", &print, other)?;
    }
    print.x = sites.into_iter().flat_map(|(_, re, im)| [re, im]).collect();
    Ok(print)
}

fn dist_r1(bits: usize) -> Result<Print, String> {
    dist(bits, 1)
}

fn dist_r2(bits: usize) -> Result<Print, String> {
    // One rank's print, once: the row above checks it is the same in
    // every cell.
    static ONE_RANK: std::sync::OnceLock<Print> = std::sync::OnceLock::new();
    let two = dist(bits, 2)?;
    same(
        "R=1",
        &two,
        ONE_RANK.get_or_init(|| dist(512, 1).expect("R=1")),
    )?;
    Ok(two)
}

fn fermion5(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let op = DomainWall::new(random_gauge(p.grid.clone(), 7), 2, 1.8, 0.1);
    let b = Fermion5::random(p.grid.clone(), 2, 31);
    let (x, report) = cg_dwf(&op, &b, TOL, BUDGET);
    let whole = Print::of_single(five_bits(&x), &report);
    // The oracle: the same operator as an allocating closure.
    let mut space = Layout::new(|v: &Fermion5, ap: &mut Fermion5, c: &mut [f64]| {
        *ap = op.ddag_d(v);
        c[0] = v.inner(ap).re;
    });
    let start = || Start::<State<Fermion5>>::Zero;
    same(
        "oracle",
        &whole,
        &solve_and_resume(&mut space, &b, start, TOL, CUT, five_bits)?,
    )?;
    Ok(whole)
}

fn f16_canonical(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let g16 = Grid::<F16>::new(DIMS, VectorLength::of(bits), SimdBackend::Fcmla);
    let op = WilsonDirac::<F16>::new(to_precision(p.op.gauge(), &g16), MASS);
    let mut b = p.b.clone();
    b.scale(1.0 / p.b.norm2().sqrt()); // into binary16 range, like the ladder
    let b = to_precision(&b, &g16);
    let (mut tmp, mut buf) = (b.zero_like(), vec![0.0; g16.volume()]);
    let mut space = F16Canonical::new(&op, &mut tmp, &mut buf);
    // Binary16 carries ~3 digits: stop well above its floor, and cut
    // after the first iteration.
    let start = || Start::<State<Field<FermionKind, F16>>>::Zero;
    solve_and_resume(&mut space, &b, start, 1e-2, 1, field_bits)
}

/// `S†S` on the even checkerboard, in place and allocating.
fn eo_schur(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let a = MASS + 4.0;
    let rhs = parity_project(&p.b, 0);
    let schur = |v: &FermionField| {
        let mut s = p.op.hopping(&p.op.hopping(v));
        s.scale_axpy_from(a, v, -0.25 / a, &s.clone());
        s
    };
    let mut allocating = Allocating::new(p.grid.clone(), |v: &FermionField| {
        gamma5(&schur(&gamma5(&schur(v))))
    });
    let reference = solve(
        &mut allocating,
        &rhs,
        Start::<CgState>::Zero,
        TOL,
        field_bits,
    );

    let (mut hop, mut tmp) = (rhs.zero_like(), rhs.zero_like());
    let mut space = Layout::new(|v: &FermionField, ap: &mut FermionField, c: &mut [f64]| {
        p.op.hopping_into(v, &mut hop);
        p.op.hopping_into(&hop, &mut tmp);
        ap.scale_axpy_from(a, v, -0.25 / a, &tmp);
        gamma5_inplace(ap);
        p.op.hopping_into(ap, &mut hop);
        p.op.hopping_into(&hop, &mut tmp);
        ap.scale(a);
        ap.axpy_inplace(-0.25 / a, &tmp);
        gamma5_inplace(ap);
        c[0] = v.inner(ap).re;
    });
    let whole = solve_and_resume(
        &mut space,
        &rhs,
        || Start::State(CgState::new(&rhs)),
        TOL,
        CUT,
        field_bits,
    )?;
    close(&whole, &reference)?;
    Ok(whole)
}

fn coarse_preconditioned(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let cs = CoarseSpace::build(&p.op, &subspace(&p).vectors, [2, 2, 2, 2]);
    let (x, report) = coarse_pcg(&p.op, &cs, None, &p.b, TOL, BUDGET);
    let whole = Print::of_single(field_bits(&x), &report);
    close(&whole, &oracle(&p, &p.b))?;
    Ok(whole)
}

fn checkpoint_observer(bits: usize) -> Result<Print, String> {
    let p = problem(bits);
    let apply = |v: &FermionField| p.op.mdag_m(v);
    let path =
        std::env::temp_dir().join(format!("krylov-matrix-{}-{bits}.qio", std::process::id()));
    let io = |e: qcd_io::IoError| e.to_string();
    // Killed at iteration 2·CUT+2; the snapshot on disk is the one at 2·CUT.
    let (_, _, written) = qcd_io::cg_checkpointed(
        apply,
        &p.b,
        CgState::new(&p.b),
        TOL,
        2 * CUT + 2,
        CUT,
        &path,
    )
    .map_err(io)?;
    if written != 2 {
        return Err(format!("{written} snapshots, expected 2"));
    }
    let (x, report, _) = qcd_io::resume_cg(apply, &p.b, TOL, BUDGET, CUT, &path).map_err(io)?;
    std::fs::remove_file(&path).ok();
    let whole = Print::of_single(field_bits(&x), &report);
    same("oracle", &whole, &oracle(&p, &p.b))?;
    Ok(whole)
}

#[test]
fn every_space_conforms_across_vector_lengths_and_threads() {
    let rows = [
        Row {
            name: "field fused",
            canonical: false,
            cell: field_fused,
        },
        Row {
            name: "field canonical",
            canonical: true,
            cell: field_canonical,
        },
        Row {
            name: "block layout",
            canonical: false,
            cell: block_layout,
        },
        Row {
            name: "block canonical",
            canonical: true,
            cell: block_canonical,
        },
        Row {
            name: "dist R=1",
            canonical: true,
            cell: dist_r1,
        },
        Row {
            name: "dist R=2",
            canonical: true,
            cell: dist_r2,
        },
        Row {
            name: "Fermion5",
            canonical: false,
            cell: fermion5,
        },
        Row {
            name: "f16 canonical",
            canonical: true,
            cell: f16_canonical,
        },
        Row {
            name: "EO-Schur closure",
            canonical: false,
            cell: eo_schur,
        },
        Row {
            name: "Galerkin-guess start",
            canonical: true,
            cell: galerkin_start,
        },
        Row {
            name: "coarse-preconditioned",
            canonical: true,
            cell: coarse_preconditioned,
        },
        Row {
            name: "checkpoint observer",
            canonical: false,
            cell: checkpoint_observer,
        },
    ];

    let mut failures = Vec::new();
    let mut table = format!("{:<24}", "space \\ VL/threads");
    for bits in VLS {
        for threads in THREADS {
            table += &format!(" {:>7}", format!("{bits}/{threads}"));
        }
    }
    for row in &rows {
        table += &format!("\n{:<24}", row.name);
        // A canonical row is one print; a layout row is one print per
        // vector length (the thread count never shows).
        let mut reference: Option<Print> = None;
        for bits in VLS {
            if !row.canonical {
                reference = None;
            }
            for threads in THREADS {
                rayon::set_num_threads(threads);
                let cell = (row.cell)(bits).and_then(|print| match &reference {
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
                        row.name
                    ));
                }
            }
        }
    }
    rayon::set_num_threads(0);
    println!("{table}");
    assert!(failures.is_empty(), "{table}\n\n{}", failures.join("\n"));
}
