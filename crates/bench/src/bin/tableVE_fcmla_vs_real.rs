//! The **Section V-E ablation**: FCMLA versus the "alternative
//! implementation of complex arithmetics based on instructions for real
//! arithmetics", across kernels, vector lengths and silicon cost profiles.
//!
//! The paper's claim is qualitative ("at the cost of higher instruction
//! count and cutting down on the effectiveness of SVE vector register
//! usage", with the caveat that "it is not guaranteed that the FCMLA
//! instruction outperforms alternative implementations"). This table makes
//! both halves quantitative.

use bench::interleaved;
use grid::prelude::*;
use grid::simd::functors::{MultComplex, WordFunctor};
use grid::tensor::su3::{mat_vec, random_su3};
use std::sync::Arc;

fn main() {
    println!("SECTION V-E — FCMLA vs REAL-ARITHMETIC COMPLEX KERNELS\n");

    // ---- kernel 1: MultComplex word (the Section V-C listing) ----------
    println!("instructions per MultComplex word (load + compute + store):\n");
    println!(
        "{:<10} {:>11} {:>11} {:>11}",
        "VL", "sve-fcmla", "sve-real", "generic"
    );
    for vl in VectorLength::sweep() {
        let mut counts = Vec::new();
        for backend in SimdBackend::all() {
            let eng = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), backend);
            let x = interleaved(vl.lanes64(), 0.1);
            let y = interleaved(vl.lanes64(), 0.7);
            let mut out = vec![0.0; vl.lanes64()];
            eng.ctx().counters().reset();
            MultComplex.apply(&eng, &x, &y, &mut out);
            counts.push(eng.ctx().counters().total());
        }
        println!(
            "{:<10} {:>11} {:>11} {:>11}",
            format!("{vl}"),
            counts[0],
            counts[1],
            counts[2]
        );
    }

    // ---- kernel 2: SU(3) matrix x color vector --------------------------
    println!("\ninstructions per SU(3) matrix-vector product (register resident):\n");
    println!(
        "{:<10} {:>11} {:>11} {:>11}",
        "VL", "sve-fcmla", "sve-real", "generic"
    );
    let vl = VectorLength::of(512);
    let mut su3_counts = Vec::new();
    for backend in SimdBackend::all() {
        let eng = SimdEngine::<f64>::new(Arc::new(SveCtx::new(vl)), backend);
        let m = random_su3(5, 1);
        // On words of the vector length, as a kernel would hold them.
        su3_counts.push(grid::sized!(&eng, |w| {
            let uw: [[_; 3]; 3] =
                std::array::from_fn(|r| std::array::from_fn(|c| w.from_fn(|_| m[r][c])));
            let vw: [_; 3] =
                std::array::from_fn(|c| w.from_fn(|l| Complex::new(l as f64, c as f64)));
            w.ctx().counters().reset();
            let _ = mat_vec(w, &uw, &vw);
            w.ctx().counters().total()
        }));
    }
    println!(
        "{:<10} {:>11} {:>11} {:>11}",
        format!("{vl}"),
        su3_counts[0],
        su3_counts[1],
        su3_counts[2]
    );

    // ---- kernel 3: the full Wilson hopping term -------------------------
    println!("\ninstructions per lattice site, one Dh application (4^4 lattice):\n");
    println!(
        "{:<10} {:>11} {:>11} {:>11}",
        "VL", "sve-fcmla", "sve-real", "generic"
    );
    for vl in [
        VectorLength::of(128),
        VectorLength::of(512),
        VectorLength::of(2048),
    ] {
        let mut per_site = Vec::new();
        for backend in SimdBackend::all() {
            let g = Grid::new([4, 4, 4, 4], vl, backend);
            let d = WilsonDirac::new(random_gauge(g.clone(), 31), 0.1);
            let psi = FermionField::random(g.clone(), 32);
            g.engine().ctx().counters().reset();
            let _ = d.hopping(&psi);
            per_site.push(g.engine().ctx().counters().total() as f64 / g.volume() as f64);
        }
        println!(
            "{:<10} {:>11.1} {:>11.1} {:>11.1}",
            format!("{vl}"),
            per_site[0],
            per_site[1],
            per_site[2]
        );
    }

    // ---- the caveat: silicon cost profiles decide ----------------------
    println!("\ncycle estimate per Dh application under silicon profiles (VL512):\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "profile", "sve-fcmla", "sve-real", "generic"
    );
    let mut cycles = vec![Vec::new(); 3];
    for (bi, backend) in SimdBackend::all().into_iter().enumerate() {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), backend);
        let d = WilsonDirac::new(random_gauge(g.clone(), 31), 0.1);
        let psi = FermionField::random(g.clone(), 32);
        g.engine().ctx().counters().reset();
        let _ = d.hopping(&psi);
        for model in CostModel::all() {
            cycles[bi].push(g.engine().ctx().cycles(model));
        }
    }
    for (mi, model) in CostModel::all().into_iter().enumerate() {
        println!(
            "{:<12} {:>12} {:>12} {:>12}",
            model.name(),
            cycles[0][mi],
            cycles[1][mi],
            cycles[2][mi]
        );
    }
    println!(
        "\nReading: FCMLA needs the fewest instructions everywhere (the V-E\n\
         trade-off), but under the fcmla-slow profile the real-arithmetic\n\
         kernels overtake it — exactly the paper's reason for keeping both."
    );
}
