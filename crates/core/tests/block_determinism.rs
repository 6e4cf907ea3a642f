//! Determinism and single-RHS equivalence of the batched multi-RHS path.
//!
//! The batching contract is that a `FermionBlock` never changes the math:
//! per right-hand side, the block kernels and `cg` of a block retire the exact
//! op sequence of the single-RHS fused path, so every RHS of a batched
//! solve is bit-identical to its own independent `cg` solve — per-RHS
//! convergence masking included — at every precision, vector length and
//! thread count. Every per-RHS reduction is the canonical one, so the
//! signatures do not depend on the vector length either.
//!
//! `rayon::set_num_threads` mutates process-global state, so this file is
//! a single `#[test]` in its own integration-test binary.

use grid::field::{cg_updates, FermionKind};
use grid::krylov::Vector;
use grid::prelude::*;
use grid::{FermionBlock, Field, FieldKind};

/// One precision × vector-length case: assert the block path against the
/// single-RHS path RHS by RHS, and distill every result into a bit
/// signature for the cross-thread comparison.
macro_rules! block_case {
    ($ty:ty, $vl:expr, $tol:expr) => {{
        let g = Grid::<$ty>::new([4, 4, 4, 4], VectorLength::of($vl), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 51);
        let op = WilsonDirac::<$ty>::new(u, 0.2);
        let fields: Vec<Field<FermionKind, $ty>> = (0..3)
            .map(|j| Field::random(g.clone(), 52 + j as u64))
            .collect();
        let mut sig: Vec<u64> = Vec::new();

        // Batched fused M†M + curvature dot vs the single-RHS workspace
        // kernel, for N = 1 and N = 3: bit-identical per RHS.
        for n in [1usize, 3] {
            let block = FermionBlock::from_fields(&fields[..n]);
            let mut tmp = FermionBlock::zero(g.clone(), n);
            let mut out = FermionBlock::zero(g.clone(), n);
            let dots = op.mdag_m_block_into_dot(&block, &mut tmp, &mut out);
            for j in 0..n {
                let mut stmp = Field::<FermionKind, $ty>::zero(g.clone());
                let mut sout = Field::<FermionKind, $ty>::zero(g.clone());
                let sdot = op.mdag_m_into_dot(&fields[j], &mut stmp, &mut sout);
                assert_eq!(
                    dots[j].to_bits(),
                    sdot.to_bits(),
                    "vl={} N={n} rhs={j} curvature dot",
                    $vl
                );
                assert_eq!(
                    out.rhs_field(j).max_abs_diff(&sout),
                    0.0,
                    "vl={} N={n} rhs={j} M†M output",
                    $vl
                );
                sig.push(sdot.to_bits() as u64);
            }
        }

        // The masked update with the middle RHS frozen, and the batched
        // subtract-and-norm, vs the single-RHS sweeps: the frozen RHS keeps
        // its words and reduces to zero.
        let block = FermionBlock::from_fields(&fields);
        let (mut x, mut r) = (block.clone(), block.clone());
        let shifted =
            FermionBlock::from_fields(&[fields[1].clone(), fields[2].clone(), fields[0].clone()]);
        let (alpha, active) = ([0.6875, 99.0, -0.3125], [true, false, true]);
        let mut r2 = [f64::NAN; 3];
        let (x, r) = (x.field_mut(), r.field_mut());
        cg_updates(x, r, &alpha, (&shifted, &block), &active, &mut r2);
        let mut sub = FermionBlock::zero(g.clone(), 3);
        let mut sub2 = [0.0; 3];
        sub.sub_norms2(&block, &shifted, &mut sub2);
        for j in 0..3 {
            let (mut fx, mut fr) = (fields[j].clone(), fields[j].clone());
            if active[j] {
                let want =
                    cg_update_x_r(&mut fx, &mut fr, alpha[j], &fields[(j + 1) % 3], &fields[j]);
                assert_eq!(
                    r2[j].to_bits(),
                    want.to_bits(),
                    "vl={} rhs={j} masked |r|²",
                    $vl
                );
            } else {
                assert_eq!(r2[j], 0.0, "vl={} frozen rhs", $vl);
            }
            assert_eq!(
                x.rhs_field(j).max_abs_diff(&fx),
                0.0,
                "vl={} rhs={j} x",
                $vl
            );
            assert_eq!(
                r.rhs_field(j).max_abs_diff(&fr),
                0.0,
                "vl={} rhs={j} r",
                $vl
            );
            let (mut fs, mut want) = (Field::<FermionKind, $ty>::zero(g.clone()), [0.0]);
            fs.sub_norms2(&fields[j], &fields[(j + 1) % 3], &mut want);
            assert_eq!(
                sub2[j].to_bits(),
                want[0].to_bits(),
                "vl={} rhs={j} sub_norms2",
                $vl
            );
            sig.push(r2[j].to_bits());
        }

        // Batched CG with per-RHS convergence masking vs three independent
        // single-RHS solves: iteration counts, residuals, histories and
        // solutions must all match bit for bit even though the RHS
        // converge at different iterations.
        let (x, rep) = cg(&op, &block, $tol, 60);
        for (j, f) in fields.iter().enumerate() {
            let (xs, rs) = cg(&op, f, $tol, 60);
            assert_eq!(
                rep.per_rhs_iterations[j], rs.iterations,
                "vl={} rhs={j} iterations",
                $vl
            );
            assert_eq!(
                rep.residuals[j].to_bits(),
                rs.residual.to_bits(),
                "vl={} rhs={j} residual",
                $vl
            );
            assert_eq!(
                rep.histories[j]
                    .iter()
                    .map(|r| r.to_bits())
                    .collect::<Vec<_>>(),
                rs.history.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                "vl={} rhs={j} history",
                $vl
            );
            assert_eq!(
                x.rhs_field(j).max_abs_diff(&xs),
                0.0,
                "vl={} rhs={j} solution",
                $vl
            );
            sig.push(rs.iterations as u64);
            sig.push(rs.residual.to_bits());
        }
        // The solution in lexicographic order: the same at every length.
        let xs: Vec<_> = (0..3).map(|j| x.rhs_field(j)).collect();
        for c in g.coords() {
            for xj in &xs {
                for comp in 0..FermionKind::NCOMP {
                    let z = xj.peek(&c, comp);
                    sig.extend([z.re.to_bits(), z.im.to_bits()]);
                }
            }
        }
        sig
    }};
}

/// The signature of each precision at vector length `vl`.
fn signatures(vl: usize) -> Vec<Vec<u64>> {
    vec![
        block_case!(f64, vl, 1e-8),
        block_case!(f32, vl, 1e-3),
        block_case!(sve::F16, vl, 1e-2),
    ]
}

#[test]
fn block_path_is_deterministic_across_threads_precisions_and_vls() {
    rayon::set_num_threads(1);
    let reference = signatures(128);

    for vl in [128usize, 256, 512, 1024, 2048] {
        for threads in [1usize, 2, 8] {
            rayon::set_num_threads(threads);
            let got = signatures(vl);
            assert_eq!(
                got, reference,
                "block path diverged at VL{vl} × {threads} threads (vs the VL128 single-thread reference)"
            );
        }
    }
    rayon::set_num_threads(0);
}
