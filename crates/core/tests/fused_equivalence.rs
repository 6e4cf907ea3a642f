//! Bit-for-bit equivalence of the fused hot-path kernels against the same
//! math composed from separate full-field primitives, across precisions
//! (f64, f32, binary16) and vector lengths (128 through 2048 bits).
//!
//! The fusion contract is that `apply_into`, `apply_dag_into` and the
//! fused curvature dot retire the *exact same engine ops per word in the
//! same order* as the unfused formulation — so solutions, residual
//! histories and checkpoints are interchangeable between the two paths.

use grid::field::FermionKind;
use grid::krylov::{cg_solve, no_observer, Allocating, Start};
use grid::prelude::*;
use grid::Field;
use sve::SveFloat;

/// CG on `M†M` through the allocating closure adapter.
fn cg_closure<E: SveFloat>(
    d: &WilsonDirac<E>,
    b: &Field<FermionKind, E>,
    tol: f64,
    max_iter: usize,
) -> (Field<FermionKind, E>, SolveReport) {
    let grid = b.grid().clone();
    let mut space = Allocating::new(|p: &Field<FermionKind, E>| d.mdag_m(p));
    let span = qcd_trace::span!("solver.cg", grid.engine().ctx());
    cg_solve(
        &mut space,
        b,
        Start::Zero,
        tol,
        max_iter,
        span,
        "solver.cg",
        no_observer,
    )
}

macro_rules! fused_equivalence_for {
    ($name:ident, $ty:ty) => {
        #[test]
        fn $name() {
            for bits in [128usize, 256, 512, 1024, 2048] {
                let g = Grid::<$ty>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
                let u = random_gauge(g.clone(), 31);
                let d = WilsonDirac::<$ty>::new(u, 0.2);
                let psi = Field::<FermionKind, $ty>::random(g.clone(), 32);
                let m = 0.2 + 4.0;

                // M ψ = (m+4)ψ − ½ Dh ψ: the fused sweep vs the hopping
                // kernel followed by the two-term linear combination with
                // the matching mul-then-fmla op order.
                let hop = d.hopping(&psi);
                let mut reference = Field::<FermionKind, $ty>::zero(g.clone());
                reference.scale_axpy_from(-0.5, &hop, m, &psi);
                let fused = d.apply(&psi);
                for (i, (a, r)) in fused.data().iter().zip(reference.data()).enumerate() {
                    assert_eq!(a.to_bits(), r.to_bits(), "vl={bits} apply word {i}");
                }

                // Same for the adjoint.
                let hop_dag = d.hopping_dag(&psi);
                let mut ref_dag = Field::<FermionKind, $ty>::zero(g.clone());
                ref_dag.scale_axpy_from(-0.5, &hop_dag, m, &psi);
                let fused_dag = d.apply_dag(&psi);
                for (i, (a, r)) in fused_dag.data().iter().zip(ref_dag.data()).enumerate() {
                    assert_eq!(a.to_bits(), r.to_bits(), "vl={bits} apply_dag word {i}");
                }

                // The curvature dot fused into the second hopping sweep vs
                // the inner product taken afterwards.
                let mut tmp = Field::<FermionKind, $ty>::zero(g.clone());
                let mut ap = Field::<FermionKind, $ty>::zero(g.clone());
                let fused_dot = d.mdag_m_into_dot(&psi, &mut tmp, &mut ap);
                let after_dot = psi.inner(&ap).re;
                assert_eq!(
                    fused_dot.to_bits(),
                    after_dot.to_bits(),
                    "vl={bits} fused curvature dot"
                );

                // And the workspace normal operator vs the allocating one.
                let ref_mm = d.mdag_m(&psi);
                for (i, (a, r)) in ap.data().iter().zip(ref_mm.data()).enumerate() {
                    assert_eq!(a.to_bits(), r.to_bits(), "vl={bits} mdag_m word {i}");
                }
            }
        }
    };
}

fused_equivalence_for!(fused_sweeps_are_bit_identical_in_f64, f64);
fused_equivalence_for!(fused_sweeps_are_bit_identical_in_f32, f32);
fused_equivalence_for!(fused_sweeps_are_bit_identical_in_f16, sve::F16);

#[test]
fn fused_solvers_are_bit_identical_to_the_closure_solvers() {
    // End-to-end: full fused CG vs closure CG at several vector lengths in
    // both precisions (the unit tests cover one; this sweeps the matrix).
    for bits in [128usize, 256, 512, 1024, 2048] {
        let g = Grid::<f64>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 33);
        let d = WilsonDirac::new(u, 0.25);
        let b = FermionField::random(g.clone(), 34);
        let (x_ws, rep_ws) = cg(&d, &b, 1e-8, 2000);
        let (x_cl, rep_cl) = cg_closure(&d, &b, 1e-8, 2000);
        assert_eq!(rep_ws.iterations, rep_cl.iterations, "vl={bits}");
        assert_eq!(rep_ws.residual.to_bits(), rep_cl.residual.to_bits());
        assert_eq!(x_ws.max_abs_diff(&x_cl), 0.0, "vl={bits}");
    }
    for bits in [128usize, 256, 512, 1024, 2048] {
        let g = Grid::<f32>::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 35);
        let d = WilsonDirac::<f32>::new(u, 0.25);
        let b = Field::<FermionKind, f32>::random(g.clone(), 36);
        let (x_ws, rep_ws) = cg(&d, &b, 1e-4, 1000);
        let (x_cl, rep_cl) = cg_closure(&d, &b, 1e-4, 1000);
        assert_eq!(rep_ws.iterations, rep_cl.iterations, "vl={bits}");
        assert_eq!(rep_ws.residual.to_bits(), rep_cl.residual.to_bits());
        for (a, c) in x_ws.data().iter().zip(x_cl.data()) {
            assert_eq!(a.to_bits(), c.to_bits(), "vl={bits}");
        }
    }
}
