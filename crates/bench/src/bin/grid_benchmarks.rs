//! Grid-style ready-made benchmarks (the "benchmarks" half of the paper's
//! Section V-D "tests and benchmarks"): `Benchmark_memory` (streaming
//! axpy), `Benchmark_su3` (SU(3) matrix x vector throughput) and
//! `Benchmark_wilson` (the Dirac kernel), reported in simulated-traffic and
//! simulated-FLOP terms per vector instruction — and one leg on a clock,
//! `Benchmark_f16_scale`: the binary16 normal operator on data of order 1
//! and of order 10⁻⁴, which must cost the same.

use bench::BENCH_LATTICE;
use grid::field::{FermionKind, Field};
use grid::prelude::*;
use grid::tensor::su3::{mat_vec, random_su3};
use std::sync::Arc;
use std::time::Instant;
use sve::F16;

fn main() {
    let vl = VectorLength::of(512);
    println!("GRID-STYLE BENCHMARKS (VL {vl}, FCMLA backend)\n");

    // ---- Benchmark_memory: streaming axpy over a fermion field ----------
    {
        let g = Grid::new(BENCH_LATTICE, vl, SimdBackend::Fcmla);
        let x = FermionField::random(g.clone(), 1);
        let y = FermionField::random(g.clone(), 2);
        let mut z = FermionField::zero(g.clone());
        g.engine().ctx().counters().reset();
        z.axpy(0.5, &x, &y);
        let c = g.engine().ctx().counters();
        let bytes = 3 * x.data().len() * 8; // 2 reads + 1 write
        println!("Benchmark_memory (axpy, {} sites):", g.volume());
        println!("  vector instructions : {}", c.total());
        println!(
            "  simulated traffic   : {} KiB ({:.1} bytes/instruction)",
            bytes / 1024,
            bytes as f64 / c.total() as f64
        );
    }

    // ---- Benchmark_su3: register-resident matrix-vector ----------------
    {
        let eng = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
        let m = random_su3(7, 1);
        let reps = 1000;
        // On words of the vector length, as a kernel would hold them.
        grid::sized!(&eng, |w| {
            let uw: [[_; 3]; 3] =
                std::array::from_fn(|r| std::array::from_fn(|c| w.from_fn(|_| m[r][c])));
            let vw: [_; 3] =
                std::array::from_fn(|c| w.from_fn(|l| Complex::new(l as f64, c as f64 - 1.0)));
            w.ctx().counters().reset();
            let mut acc = vw;
            for _ in 0..reps {
                acc = mat_vec(w, &uw, &acc);
            }
        });
        let c = eng.ctx().counters();
        // 3x3 complex mat-vec = 9 cmul + 6 cadd = 66 flops per complex lane.
        let flops = 66 * eng.lanes_c() * reps;
        println!(
            "\nBenchmark_su3 ({} reps, {} complex lanes):",
            reps,
            eng.lanes_c()
        );
        println!("  vector instructions : {}", c.total());
        println!(
            "  simulated flops     : {} ({:.1} flops/instruction)",
            flops,
            flops as f64 / c.total() as f64
        );
    }

    // ---- Benchmark_wilson: the Dirac kernel -----------------------------
    {
        println!("\nBenchmark_wilson (hopping term, {:?}):", BENCH_LATTICE);
        println!(
            "{:<10} {:>12} {:>14} {:>16}",
            "VL", "insts/site", "flops/inst", "cycles/site*"
        );
        for vl in VectorLength::sweep() {
            let g = Grid::new(BENCH_LATTICE, vl, SimdBackend::Fcmla);
            let d = WilsonDirac::new(random_gauge(g.clone(), 3), 0.2);
            let psi = FermionField::random(g.clone(), 4);
            g.engine().ctx().counters().reset();
            let _ = d.hopping(&psi);
            let per_site = g.engine().ctx().counters().total() as f64 / g.volume() as f64;
            let cycles = g.engine().ctx().cycles(CostModel::FcmlaFast) as f64 / g.volume() as f64;
            println!(
                "{:<10} {:>12.1} {:>14.2} {:>16.1}",
                format!("{vl}"),
                per_site,
                1320.0 / per_site,
                cycles
            );
        }
        println!("  (*fcmla-fast profile; 1320 flops/site is the standard Wilson count)");
    }

    // ---- Benchmark_f16_scale: the clock must not see the data ------------
    //
    // The f16 tier normalises its right-hand side, so its residuals end up
    // in the binary16 subnormal range: the regime in which a conversion
    // that hands the FPU a denormal operand pays a microcode assist per
    // lane (DESIGN.md §5). Medians of ten on a 4⁴ lattice; not a gate.
    {
        let g64 = Grid::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let g16 = Grid::<F16>::new(g64.fdims(), vl, SimdBackend::Fcmla);
        let op = WilsonDirac::<F16>::new(to_precision(&random_gauge(g64.clone(), 8), &g16), 0.2);
        println!(
            "\nBenchmark_f16_scale (f16 mdag_m_into, {} sites, host lanes: {})",
            g16.volume(),
            sve::host_lanes()
        );
        for scale in [1.0, 1.0e-4] {
            let mut psi64 = FermionField::random(g64.clone(), 9);
            psi64.scale(scale);
            let psi: Field<FermionKind, F16> = to_precision(&psi64, &g16);
            let (mut tmp, mut out) = (psi.clone(), psi.clone());
            let mut times: Vec<_> = (0..10)
                .map(|_| {
                    let t0 = Instant::now();
                    op.mdag_m_into(&psi, &mut tmp, &mut out);
                    t0.elapsed()
                })
                .collect();
            times.sort();
            println!("  scale {scale:e}: {:>12.2?}", times[times.len() / 2]);
        }
    }

    // ---- Benchmark_dwf: the domain-wall operator -------------------------
    {
        use grid::prelude::*;
        let vl = VectorLength::of(512);
        let ls = 8;
        let g = Grid::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let op = DomainWall::new(random_gauge(g.clone(), 5), ls, 1.8, 0.04);
        let psi = Fermion5::random(g.clone(), ls, 6);
        g.engine().ctx().counters().reset();
        let _ = op.apply(&psi);
        let c = g.engine().ctx().counters().total();
        // One Wilson apply on one slice: the 5-D apply is one sweep over
        // the Ls-wide block, so it loads each link once for all slices.
        let mut out = FermionField::zero(g.clone());
        g.engine().ctx().counters().reset();
        op.wilson().apply_into(&psi.rhs_field(0), &mut out);
        let wilson = g.engine().ctx().counters().total() * ls as u64;
        println!("\nBenchmark_dwf (Ls = {ls}, {} 4-D sites):", g.volume());
        println!("  vector instructions : {c}");
        println!(
            "  Ls x Wilson apply   : {wilson} (the 5-D apply is {:.3} x that)",
            c as f64 / wilson as f64
        );
        println!(
            "  insts per 5-D site  : {:.1} (Wilson kernel + chiral projections)",
            c as f64 / (ls * g.volume()) as f64
        );
    }
}
