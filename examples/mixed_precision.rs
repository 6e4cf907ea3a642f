//! Mixed-precision solving — the production payoff of SVE's vectorized
//! precision conversion (paper, Sections II-C and III-A).
//!
//! Single-precision vectors carry twice the complex lanes, so the f32
//! lattice has twice the virtual nodes per vector; the defect-correction
//! loop keeps the answer at full double precision while retiring the bulk
//! of instructions at the cheaper width.
//!
//! ```text
//! cargo run --release --example mixed_precision
//! ```

use grid::krylov::{no_observer, Start};
use grid::prelude::*;

fn main() {
    let dims = [4, 4, 4, 8];
    let vl = VectorLength::of(512);
    let g = Grid::new(dims, vl, SimdBackend::Fcmla);
    println!(
        "Mixed-precision Wilson solve on {dims:?} at VL {vl}\n\
         f64 layout: {} virtual nodes/vector; f32 layout: {} virtual nodes/vector\n",
        g.lanes_c(),
        Grid::<f32>::new(dims, vl, SimdBackend::Fcmla).lanes_c()
    );

    let op = WilsonDirac::new(random_gauge(g.clone(), 5), 0.3);
    let b = FermionField::random(g.clone(), 6);

    // Reference: pure double precision.
    g.engine().ctx().counters().reset();
    let span = qcd_trace::span!("solver.cg", g.engine().ctx());
    let zero = Start::Zero;
    let (x_ref, rep) = solve_normal(&op, &b, zero, 1e-10, 4000, span, "solver.cg", no_observer);
    let f64_only = g.engine().ctx().counters().total();
    println!(
        "pure f64 CG      : {} iterations, residual {:.2e}, {:.1}M instructions",
        rep.iterations,
        rep.residual,
        f64_only as f64 / 1e6
    );

    // Mixed precision.
    g.engine().ctx().counters().reset();
    let two_level = LadderConfig {
        max_inner: 2000,
        ..LadderConfig::f32_only(1e-10)
    };
    let (x, mrep) = ladder_solve(&op, &b, &two_level);
    println!(
        "mixed f32/f64    : {} outer + {} inner iterations, residual {:.2e}",
        mrep.outer_iterations, mrep.f32_iterations, mrep.residual
    );
    println!(
        "                   {:.1}M f64 instructions + {:.1}M f32 instructions \
         ({:.0}% at single precision)",
        mrep.f64_instructions as f64 / 1e6,
        mrep.f32_instructions as f64 / 1e6,
        100.0 * mrep.f32_instructions as f64
            / (mrep.f32_instructions + mrep.f64_instructions) as f64
    );

    let diff = x.max_abs_diff(&x_ref);
    println!("\nsolutions agree to {diff:.2e} (both satisfy |Mx-b|/|b| < 1e-10)");
    println!(
        "\nOn silicon, f32 vectors process 2x the lanes per instruction, so\n\
         moving ~90% of the instruction stream to single precision is ~2x\n\
         arithmetic throughput — why Grid templates everything over precision\n\
         and why the port implements vectorized fcvt (paper, Section II-C)."
    );
}
