//! The acceptance property of the deflation subsystem: eigenpairs and
//! deflated residual histories are **bit-identical** across every SVE
//! vector length (128…2048 bits) and thread count (1, 2, 8).
//!
//! Eigenvector *storage* is layout-dependent (virtual-node interleaving
//! differs per VL), so vectors are compared through the layout-independent
//! scalar accessor in global lexicographic site order — the same canonical
//! order every steering reduction uses.
//!
//! `rayon::set_num_threads` mutates process-global state, so this file is a
//! single `#[test]` in its own integration-test binary.

use grid::krylov::{self, Start};
use grid::prelude::*;
use grid::FieldKind;
use qcd_deflate::{galerkin_guess, lanczos, LanczosParams};

struct Signature {
    values: Vec<u64>,
    eig_residuals: Vec<u64>,
    vector_bits: Vec<u64>,
    iterations: usize,
    residual: u64,
    history: Vec<u64>,
    solution_bits: Vec<u64>,
}

fn field_bits(f: &FermionField) -> Vec<u64> {
    let g = f.grid();
    let mut bits = Vec::with_capacity(g.volume() * grid::field::FermionKind::NCOMP * 2);
    for site in 0..g.volume() {
        let x = grid::layout::delex(site, &g.fdims());
        for comp in 0..grid::field::FermionKind::NCOMP {
            let z = f.peek(&x, comp);
            bits.push(z.re.to_bits());
            bits.push(z.im.to_bits());
        }
    }
    bits
}

fn run(bits: usize) -> Signature {
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 7);
    let op = WilsonDirac::new(u, 0.1);
    let params = LanczosParams {
        nev: 4,
        m: 12,
        tol: 1e-8,
        max_restarts: 4,
    };
    // 4 restarts on a random-gauge spectrum do not converge — irrelevant
    // here: the claim is that whatever the solver computes is the same to
    // the last bit everywhere, converged or not.
    let (sub, _rep) = lanczos(
        &op,
        &params,
        FermionField::random(op.grid().clone(), 99),
        op.mass,
    );
    let b = FermionField::random(g.clone(), 11);
    let (x, rep) = krylov::cg_solve(
        &mut op.normal(&mut FermionField::zero(g.clone())),
        &b,
        Start::Guess(galerkin_guess(&sub, op.mass, &b)),
        1e-8,
        2000,
        qcd_trace::span!("solver.deflate"),
        "solver.defl_cg",
        krylov::no_observer,
    );
    assert!(rep.converged, "deflated solve must converge at VL {bits}");
    Signature {
        values: sub.values.iter().map(|v| v.to_bits()).collect(),
        eig_residuals: sub.residuals.iter().map(|v| v.to_bits()).collect(),
        vector_bits: sub.vectors.iter().flat_map(field_bits).collect(),
        iterations: rep.iterations,
        residual: rep.residual.to_bits(),
        history: rep.history.iter().map(|v| v.to_bits()).collect(),
        solution_bits: field_bits(&x),
    }
}

#[test]
fn eigenpairs_and_deflated_histories_are_bit_identical_across_vl_and_threads() {
    rayon::set_num_threads(1);
    let reference = run(128);
    assert!(!reference.values.is_empty());

    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        for bits in [128usize, 256, 512, 1024, 2048] {
            if threads == 1 && bits == 128 {
                continue; // the reference itself
            }
            let s = run(bits);
            let tag = format!("VL {bits} × {threads} threads");
            assert_eq!(s.values, reference.values, "eigenvalues @ {tag}");
            assert_eq!(
                s.eig_residuals, reference.eig_residuals,
                "eigen residuals @ {tag}"
            );
            assert_eq!(s.vector_bits, reference.vector_bits, "Ritz vectors @ {tag}");
            assert_eq!(s.iterations, reference.iterations, "iterations @ {tag}");
            assert_eq!(s.residual, reference.residual, "final residual @ {tag}");
            assert_eq!(s.history, reference.history, "residual history @ {tag}");
            assert_eq!(s.solution_bits, reference.solution_bits, "solution @ {tag}");
        }
    }
    rayon::set_num_threads(0);
}
