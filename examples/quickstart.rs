//! Quickstart: the paper's complex multiply on simulated SVE silicon, then
//! a small Wilson solve.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use grid::krylov::{no_observer, Start};
use grid::prelude::*;
use grid::simd::functors::{MultComplex, WordFunctor};
use std::sync::Arc;

fn main() {
    // --- Part 1: the Section V-C MultComplex functor, three backends ----
    println!("== MultComplex on one SIMD word (512-bit SVE) ==\n");
    let vl = VectorLength::of(512);
    for backend in SimdBackend::all() {
        let eng = SimdEngine::new(Arc::new(SveCtx::new(vl)), backend);
        // One vector's worth of interleaved complex data: 4 complex doubles.
        let x = [1.0, 2.0, -0.5, 3.0, 0.0, 1.0, 2.5, -1.5];
        let y = [3.0, -1.0, 2.0, 2.0, -1.0, 0.5, 0.0, -2.0];
        let mut z = [0.0; 8];
        eng.ctx().counters().reset(); // exclude engine-construction ops
        MultComplex.apply(&eng, &x, &y, &mut z);
        let counters = eng.ctx().counters();
        println!(
            "  backend {:<10}  z0 = {:+.2} {:+.2}i   instructions: {:>2}  (fcmla {}, fmla/fmul {})",
            backend.name(),
            z[0],
            z[1],
            counters.total(),
            counters.get(sve::Opcode::Fcmla),
            counters.get(sve::Opcode::Fmla) + counters.get(sve::Opcode::Fmul),
        );
    }

    // --- Part 2: invert the Wilson operator on a random gauge field -----
    println!("\n== Wilson solve on a 4^4 lattice (FCMLA backend) ==\n");
    let g = Grid::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
    println!(
        "  lattice {:?}, virtual nodes {:?} x sub-lattice {:?}",
        g.fdims(),
        g.simd_layout(),
        g.rdims()
    );
    let u = random_gauge(g.clone(), 7);
    let d = WilsonDirac::new(u, 0.2);
    let b = FermionField::random(g.clone(), 8);
    let span = qcd_trace::span!("solver.cg", g.engine().ctx());
    let zero = Start::Zero;
    let (x, report) = solve_normal(&d, &b, zero, 1e-10, 2000, span, "solver.cg", no_observer);
    println!(
        "  CG converged in {} iterations, true residual {:.2e}",
        report.iterations, report.residual
    );
    let mx = d.apply(&x);
    let mut diff = FermionField::zero(g.clone());
    diff.sub(&mx, &b);
    println!(
        "  verification |Mx - b| / |b| = {:.2e}",
        (diff.norm2() / b.norm2()).sqrt()
    );
    let c = g.engine().ctx().counters();
    println!(
        "  SVE instructions retired: {:.1}M  ({:.1}M fcmla, {:.1}M loads)",
        c.total() as f64 / 1e6,
        c.get(sve::Opcode::Fcmla) as f64 / 1e6,
        c.get(sve::Opcode::Ld1) as f64 / 1e6,
    );
}
