//! Multi-rank domain decomposition with halo exchange — the coarsest level
//! of LQCD parallelism (paper, Section II-A) — including binary16
//! compression of the wire traffic, the paper's only use of fp16
//! (Section V-B).
//!
//! Each rank runs the distributed Wilson operator ([`DistWilson`]): it
//! posts its boundary faces, sweeps its interior while they are in flight,
//! then finishes the boundary sites with the neighbours' faces patched in.
//! On the lossless wire the result is the single-rank hopping term bit for
//! bit; on the f16 wire it deviates on halo sites only, by at most a few
//! binary16 grains.
//!
//! ```text
//! cargo run --release --example multinode_halo [nranks]
//! ```

use grid::prelude::*;
use grid::Coor;

fn main() {
    let nranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let global: Coor = [4, 4, 4, 4 * nranks.max(1)];
    let vl = VectorLength::of(512);
    println!(
        "Global lattice {:?} split over {nranks} ranks along t (VL {vl})\n",
        global
    );

    // Single-rank reference.
    let gg = Grid::new(global, vl, SimdBackend::Fcmla);
    let u = random_gauge(gg.clone(), 42);
    let psi = FermionField::random(gg.clone(), 43);
    let reference = WilsonDirac::new(u.clone(), 0.1).hopping(&psi);

    let rank_grid = [1, 1, 1, nranks.max(1)];
    for compression in [Compression::None, Compression::F16] {
        let results = run_multinode_grid(global, rank_grid, vl, SimdBackend::Fcmla, |ctx| {
            // Each rank keeps its block of the global fields (layout-
            // independent seeding makes this embarrassingly local).
            let ul = restrict_field(ctx, &u);
            let dw = DistWilson::new(ctx, ul, 0.1, GaugeWire::Full, compression);
            let mut hop = FermionField::zero(ctx.grid.clone());
            let mut ws = DistWorkspace::new(&dw);
            dw.hopping_into(&restrict_field(ctx, &psi), &mut ws, &mut hop);
            let mut worst: f64 = 0.0;
            for lx in ctx.grid.coords() {
                let gx = ctx.to_global(&lx);
                for comp in 0..12 {
                    worst = worst.max((hop.peek(&lx, comp) - reference.peek(&gx, comp)).abs());
                }
            }
            (ctx.sent_bytes.get(), dw.modeled_wire_bytes(), worst)
        });

        let wire: usize = results.iter().map(|r| r.0).sum();
        let modeled: usize = results.iter().map(|r| r.1).sum();
        let worst = results.iter().map(|r| r.2).fold(0.0, f64::max);
        println!(
            "compression {:?}: wire volume {:>9} bytes (model {modeled}), \
             max deviation from single-rank {:.3e}",
            compression, wire, worst
        );
    }
    println!(
        "\n(The wire volume is the one-time ghost-link exchange plus one sweep's\n\
         faces. f16 quarters it; the deviation it introduces is bounded by the\n\
         binary16 epsilon and confined to halo sites.)"
    );
}
