//! Determinism sweep for the distributed solver: for a fixed global
//! lattice, the distributed CG solution and residual history must be
//! **bit-identical** across every combination of rank count, vector
//! length, and worker thread count.
//!
//! This is the distributed extension of `thread_determinism.rs`: the
//! canonical scalar reductions of `dist_cg` (per-site scalars allgathered
//! into global lexical order, summed by the fixed chunk tree) remove the
//! rank count and the SIMD layout from every α and β, and the halo-patched
//! site kernel runs the exact op sequence of the global operator — so
//! nothing in the configuration can move a single bit.

use grid::field::cg_update_x_r;
use grid::prelude::*;
use grid::{Coor, NDIM};

const GLOBAL: Coor = [4, 4, 4, 8];
const NCOMP: usize = 12;
const MASS: f64 = 0.3;
const ITERS: usize = 12;

/// One configuration's outcome: sorted (global site × component) solution
/// bits plus the residual-history bits.
type SolveBits = (Vec<(usize, u64, u64)>, Vec<u64>);

/// Solve on `nranks` t-ranks at `vl` and return the solution bits (keyed
/// by global site and component) plus the residual-history bits.
fn dist_solve_bits(nranks: usize, vl: VectorLength) -> SolveBits {
    let mut rank_grid = [1; NDIM];
    rank_grid[3] = nranks;
    let mut per_rank = run_multinode_grid(GLOBAL, rank_grid, vl, SimdBackend::Fcmla, |ctx| {
        let g = Grid::new(GLOBAL, vl, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 7);
        let b = FermionField::random(g, 13);
        let dw = DistWilson::new(
            ctx,
            restrict_field(ctx, &u),
            MASS,
            GaugeWire::TwoRow,
            Compression::None,
        );
        // Tiny tolerance pins the iteration count: every configuration
        // runs exactly ITERS iterations and compares mid-convergence bits.
        let (x, report) = dist_cg(&dw, &restrict_field(ctx, &b), 1e-30, ITERS);
        assert_eq!(report.iterations, ITERS);
        let mut bits = Vec::new();
        for local in ctx.grid.coords() {
            let gc = ctx.to_global(&local);
            let gidx = grid::layout::lex(&gc, &ctx.global_dims);
            for comp in 0..NCOMP {
                let v = x.peek(&local, comp);
                bits.push((gidx * NCOMP + comp, v.re.to_bits(), v.im.to_bits()));
            }
        }
        let history: Vec<u64> = report.history.iter().map(|h| h.to_bits()).collect();
        (bits, history)
    });
    let mut bits: Vec<(usize, u64, u64)> = per_rank
        .iter_mut()
        .flat_map(|(b, _)| std::mem::take(b))
        .collect();
    bits.sort_unstable();
    let history = per_rank.pop().unwrap().1;
    for (_, h) in &per_rank {
        assert_eq!(h, &history, "ranks disagree on the residual history");
    }
    (bits, history)
}

#[test]
fn distributed_solve_is_invariant_across_ranks_vl_and_threads() {
    let mut reference: Option<SolveBits> = None;
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        for nranks in [1usize, 2, 4] {
            for bits in [128usize, 256, 512, 1024, 2048] {
                let vl = VectorLength::of(bits);
                let run = dist_solve_bits(nranks, vl);
                match &reference {
                    None => reference = Some(run),
                    Some(r) => {
                        assert_eq!(
                            run.1, r.1,
                            "history differs at R={nranks} VL={bits} threads={threads}"
                        );
                        assert_eq!(
                            run.0, r.0,
                            "solution differs at R={nranks} VL={bits} threads={threads}"
                        );
                    }
                }
            }
        }
    }
    rayon::set_num_threads(0);
}

/// The bits of every kind of reduction the Krylov driver steers by, over
/// fields of one grid: `|a|²`, `⟨a, b⟩`, the fused `sub_norms2` and the
/// fused CG update's `|r|²`.
fn reduction_bits(a: &FermionField, b: &FermionField, c: &FermionField) -> Vec<u64> {
    let z = a.inner(b);
    let mut diff = FermionField::zero(a.grid().clone());
    let mut sub = [0.0];
    diff.sub_norms2(a, b, &mut sub);
    let (mut x, mut r) = (c.clone(), b.clone());
    let r2 = cg_update_x_r(&mut x, &mut r, 0.37, a, c);
    [a.norm2(), z.re, z.im, sub[0], r2]
        .map(f64::to_bits)
        .to_vec()
}

#[test]
fn rank_grid_reductions_are_the_global_fields_bitwise() {
    // A reduction over a rank-local field is the canonical sum over the
    // global lattice: every rank gets the global field's bits.
    for threads in [1usize, 2] {
        rayon::set_num_threads(threads);
        for rank_grid in [[1, 1, 1, 2], [1, 1, 2, 2], [2, 1, 2, 2]] {
            for bits in [128usize, 512, 2048] {
                let vl = VectorLength::of(bits);
                let g = Grid::new(GLOBAL, vl, SimdBackend::Fcmla);
                let [a, b, c] = [21, 22, 23].map(|seed| FermionField::random(g.clone(), seed));
                let want = reduction_bits(&a, &b, &c);
                let per_rank =
                    run_multinode_grid(GLOBAL, rank_grid, vl, SimdBackend::Fcmla, |ctx| {
                        let [a, b, c] = [&a, &b, &c].map(|f| restrict_field(ctx, f));
                        reduction_bits(&a, &b, &c)
                    });
                for (rank, got) in per_rank.iter().enumerate() {
                    assert_eq!(
                        got, &want,
                        "rank {rank} of {rank_grid:?} at VL{bits} × {threads} threads"
                    );
                }
            }
        }
    }
    rayon::set_num_threads(0);
}
