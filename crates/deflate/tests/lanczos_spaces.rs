//! The one eigensolver in every normal space: `lanczos` on a rank grid is
//! the one-process eigensolve, slab by slab and bit for bit; in the Schur
//! complement's and the domain-wall operator's normal spaces it converges
//! with explicit residuals this file recomputes, and the Galerkin guess of
//! a 5-d subspace projects a 5-d right-hand side.
//!
//! The rank test sets the global rayon thread count; the others compute
//! the same bits at any count.

use grid::field::FermionKind;
use grid::krylov::Vector;
use grid::layout::delex;
use grid::prelude::*;
use grid::FieldKind;
use qcd_deflate::{galerkin_guess, lanczos, LanczosParams, Subspace};

const GLOBAL: [usize; 4] = [2, 2, 4, 8];
const MASS: f64 = 0.3;

/// Bits of `f` at `sites` (coordinates of the field's own lattice), in
/// that order.
fn bits_at(f: &FermionField, sites: &[[usize; 4]]) -> Vec<u64> {
    sites
        .iter()
        .flat_map(|x| (0..FermionKind::NCOMP).map(move |c| f.peek(x, c)))
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// Eigenvalues, eigen-residuals and each vector's bits at `sites`.
fn fingerprint(sub: &Subspace, sites: &[[usize; 4]]) -> (Vec<u64>, Vec<u64>, Vec<Vec<u64>>) {
    (
        sub.values.iter().map(|v| v.to_bits()).collect(),
        sub.residuals.iter().map(|v| v.to_bits()).collect(),
        sub.vectors.iter().map(|v| bits_at(v, sites)).collect(),
    )
}

fn params() -> LanczosParams {
    LanczosParams {
        nev: 2,
        m: 8,
        tol: 1e-10,
        max_restarts: 3,
    }
}

#[test]
fn a_rank_grid_eigensolve_is_the_one_process_eigensolve_slab_by_slab() {
    for bits in [128, 2048] {
        for threads in [1, 2] {
            rayon::set_num_threads(threads);
            let vl = VectorLength::of(bits);
            let g = Grid::new(GLOBAL, vl, SimdBackend::Fcmla);
            let op = WilsonDirac::new(random_gauge(g.clone(), 7), MASS);
            let start = FermionField::random(g.clone(), 99);
            let (whole, report) = lanczos(&op, &params(), start, MASS);
            assert!(report.mvps > 0);

            let topo = RankTopology::new([1, 1, 1, 2]);
            let ranks = run_multinode_topo(
                GLOBAL,
                topo,
                vl,
                SimdBackend::Fcmla,
                NetworkModel::instant(),
                |ctx| {
                    let g = Grid::new(GLOBAL, vl, SimdBackend::Fcmla);
                    let u = restrict_field(ctx, &random_gauge(g.clone(), 7));
                    let start = restrict_field(ctx, &FermionField::random(g, 99));
                    let dw = DistWilson::new(ctx, u, MASS, GaugeWire::Full, Compression::None);
                    let (slab, report) = lanczos(&dw, &params(), start, MASS);
                    let local = ctx.grid.fdims();
                    let (locals, globals): (Vec<_>, Vec<_>) = (0..ctx.grid.volume())
                        .map(|i| {
                            let x = delex(i, &local);
                            (x, ctx.to_global(&x))
                        })
                        .unzip();
                    (fingerprint(&slab, &locals), report.mvps, globals)
                },
            );
            assert_eq!(ranks.len(), 2);
            let tag = format!("VL {bits} × {threads} threads");
            for (rank, ((values, residuals, vectors), mvps, globals)) in ranks.iter().enumerate() {
                let (want_values, want_residuals, want_vectors) = fingerprint(&whole, globals);
                assert_eq!(*mvps, report.mvps, "mvps, rank {rank} @ {tag}");
                assert_eq!(values, &want_values, "eigenvalues, rank {rank} @ {tag}");
                assert_eq!(residuals, &want_residuals, "residuals, rank {rank} @ {tag}");
                assert_eq!(
                    vectors, &want_vectors,
                    "eigenvector slab, rank {rank} @ {tag}"
                );
            }
        }
    }
    rayon::set_num_threads(0);
}

fn grid() -> std::sync::Arc<Grid> {
    Grid::new([2, 2, 4, 4], VectorLength::of(256), SimdBackend::Fcmla)
}

fn converging() -> LanczosParams {
    LanczosParams {
        nev: 2,
        m: 16,
        tol: 1e-8,
        max_restarts: 60,
    }
}

/// `‖A v − θ v‖` recomputed through the operator's own `mdag_m`.
fn explicit_residual<V: Vector<E = f64>>(apply: impl Fn(&V) -> V, v: &V, theta: f64) -> f64 {
    let mut r = apply(v);
    r.field_mut().axpy_inplace(-theta, v.field());
    r.field().norm2().sqrt()
}

#[test]
fn the_schur_normal_space_has_validated_even_eigenpairs() {
    let g = grid();
    let op = WilsonDirac::new(random_gauge(g.clone(), 7), MASS);
    let schur = Schur::new(&op);
    let start = parity_project(&FermionField::random(g.clone(), 99), 0);
    let (sub, report) = lanczos(&schur, &converging(), start, MASS);
    assert!(report.converged, "{report:?}");
    for (i, v) in sub.vectors.iter().enumerate() {
        let r = explicit_residual(|v| schur.mdag_m(v), v, sub.values[i]);
        assert!(r <= 1e-8, "pair {i}: ‖S†S v − θv‖ = {r:e}");
        assert_eq!(r.to_bits(), sub.residuals[i].to_bits(), "pair {i}");
        assert_eq!(
            parity_project(v, 1).norm2(),
            0.0,
            "pair {i} left the even sites"
        );
        assert!(sub.values[i] > 0.0);
    }
}

#[test]
fn the_domain_wall_normal_space_has_validated_5d_eigenpairs() {
    let g = grid();
    let op = DomainWall::new(random_gauge(g.clone(), 7), 4, 1.8, 0.1);
    let start = Fermion5::random(g.clone(), 4, 99);
    // The two lowest 5-d modes lie 4 % apart: a wider basis separates them.
    let params = LanczosParams {
        m: 32,
        ..converging()
    };
    let (sub, report) = lanczos(&op, &params, start, op.mf);
    assert!(report.converged, "{report:?}");
    let five = |v: &FermionField| Fermion5::from_field(v.clone(), 1).expect("width Ls");
    for (i, v) in sub.vectors.iter().enumerate() {
        assert_eq!(v.width(), 4, "pair {i} is not a 5-d vector");
        let r = explicit_residual(|v| op.mdag_m(v), &five(v), sub.values[i]);
        assert!(r <= 1e-8, "pair {i}: ‖D†D v − θv‖ = {r:e}");
        assert_eq!(r.to_bits(), sub.residuals[i].to_bits(), "pair {i}");
    }

    // The guess of a 5-d subspace takes a 5-d right-hand side whole: its
    // residual has no component along the eigenvectors.
    let b = Fermion5::random(g.clone(), 4, 5);
    let x0 = galerkin_guess(&sub, op.mf, &b);
    let ax0 = op.mdag_m(&x0);
    for (i, v) in sub.vectors.iter().enumerate() {
        let (lhs, rhs) = (v.inner(&ax0), v.inner(&b));
        assert!(
            (lhs - rhs).abs() <= 1e-6 * rhs.abs(),
            "direction {i}: ⟨v, A x₀⟩ = {lhs:?}, ⟨v, b⟩ = {rhs:?}"
        );
    }
}

#[test]
fn a_5d_subspace_is_one_record_per_vector() {
    // A vector of a 5-d subspace is a field of Ls slices, saved as one
    // record and read back at its width, bit for bit.
    let g = grid();
    let sub = Subspace {
        vectors: vec![Fermion5::random(g.clone(), 4, 1).field().clone()],
        values: vec![1.0],
        residuals: vec![0.0],
        mass: 0.1,
    };
    let path = std::env::temp_dir().join(format!("subspace-5d-{}.qio", std::process::id()));
    sub.save(&path, Precision::F64).unwrap();
    let back = Subspace::load(&path, &g, 0.1).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(back.vectors[0].width(), 4);
    assert_eq!(back.vectors[0].max_abs_diff(&sub.vectors[0]), 0.0);
}
