//! Solver ablation: the design choices DESIGN.md calls out, measured.
//!
//! * plain CG on `M†M` (baseline),
//! * BiCGStab on `M`,
//! * even-odd (Schur) preconditioned CG,
//! * mixed-precision defect correction (f32 inner, f64 outer) — the payoff
//!   of SVE's precision-conversion support (paper, Sections II-C/III-A).
//!
//! Reported per solver: iterations, true residual, vector instructions, and
//! cycle estimates under the silicon profiles.

use grid::krylov::{no_observer, Start};
use grid::prelude::*;

fn main() {
    let dims = [4, 4, 4, 8];
    let vl = VectorLength::of(512);
    println!("SOLVER ABLATION — Wilson operator on {dims:?}, VL {vl}, FCMLA backend\n");
    println!(
        "{:<26} {:>7} {:>11} {:>13} {:>13}",
        "solver", "iters", "residual", "insts (f64)", "insts (f32)"
    );

    let tol = 1e-9;

    // Baseline CG.
    {
        let g = Grid::new(dims, vl, SimdBackend::Fcmla);
        let op = WilsonDirac::new(random_gauge(g.clone(), 11), 0.3);
        let b = FermionField::random(g.clone(), 12);
        g.engine().ctx().counters().reset();
        let span = qcd_trace::span!("solver.cg", g.engine().ctx());
        let zero = Start::Zero;
        let (_, r) = solve_normal(&op, &b, zero, tol, 4000, span, "solver.cg", no_observer);
        println!(
            "{:<26} {:>7} {:>11.2e} {:>12.1}M {:>13}",
            "CG on M†M",
            r.iterations,
            r.residual,
            g.engine().ctx().counters().total() as f64 / 1e6,
            "-"
        );
    }

    // BiCGStab.
    {
        let g = Grid::new(dims, vl, SimdBackend::Fcmla);
        let op = WilsonDirac::new(random_gauge(g.clone(), 11), 0.3);
        let b = FermionField::random(g.clone(), 12);
        g.engine().ctx().counters().reset();
        let span = qcd_trace::span!("solver.bicgstab", g.engine().ctx());
        let region = "solver.bicgstab";
        let (_, r) = bicgstab(
            &mut op.direct(),
            &b,
            Start::Zero,
            tol,
            4000,
            span,
            region,
            no_observer,
        );
        println!(
            "{:<26} {:>7} {:>11.2e} {:>12.1}M {:>13}",
            "BiCGStab on M",
            r.iterations,
            r.residual,
            g.engine().ctx().counters().total() as f64 / 1e6,
            "-"
        );
    }

    // Even-odd preconditioned.
    {
        let g = Grid::new(dims, vl, SimdBackend::Fcmla);
        let op = WilsonDirac::new(random_gauge(g.clone(), 11), 0.3);
        let b = FermionField::random(g.clone(), 12);
        g.engine().ctx().counters().reset();
        let (_, r) = solve_eo(&op, &b, tol, 4000);
        println!(
            "{:<26} {:>7} {:>11.2e} {:>12.1}M {:>13}",
            "even-odd (Schur) CG",
            r.iterations,
            r.residual,
            g.engine().ctx().counters().total() as f64 / 1e6,
            "-"
        );
    }

    // Mixed precision.
    {
        let g = Grid::new(dims, vl, SimdBackend::Fcmla);
        let op = WilsonDirac::new(random_gauge(g.clone(), 11), 0.3);
        let b = FermionField::random(g.clone(), 12);
        g.engine().ctx().counters().reset();
        let cfg = LadderConfig {
            max_inner: 1000,
            ..LadderConfig::f32_only(tol)
        };
        let (_, r) = ladder_solve(&op, &b, &cfg);
        println!(
            "{:<26} {:>5}+{:<3} {:>9.2e} {:>12.1}M {:>12.1}M",
            "mixed f32/f64 defect-corr",
            r.outer_iterations,
            r.f32_iterations,
            r.residual,
            r.f64_instructions as f64 / 1e6,
            r.f32_instructions as f64 / 1e6,
        );
    }

    println!(
        "\nReading: even-odd cuts iterations; mixed precision moves the bulk\n\
         of instructions to f32 vectors, which carry twice the complex lanes\n\
         per register — on real silicon that is ~2x arithmetic throughput,\n\
         exactly why Grid fields are templated over precision and why the\n\
         port cares about vectorized precision conversion."
    );

    // Fusion ablation: the stencil-fused kernel vs the cshift composition.
    println!("\nFUSION ABLATION — one Dh application, instructions:\n");
    let g = Grid::new(dims, vl, SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 21);
    let psi = FermionField::random(g.clone(), 22);
    let op = WilsonDirac::new(u.clone(), 0.3);
    g.engine().ctx().counters().reset();
    let _ = op.hopping(&psi);
    let fused = g.engine().ctx().counters().total();
    g.engine().ctx().counters().reset();
    let _ = grid::dirac::hopping_via_cshift(&u, &psi);
    let composed = g.engine().ctx().counters().total();
    println!("  fused stencil kernel : {fused}");
    println!("  cshift composition   : {composed}");
    println!(
        "  fusion saves {:.0}% of vector instructions (whole-field\n\
         temporaries cost loads/stores the fused kernel never issues).",
        100.0 * (1.0 - fused as f64 / composed as f64)
    );
}
