//! Property tests of the spectral machinery.
//!
//! * γ₅-Hermiticity: `M† = γ₅ M γ₅` for every lattice shape, vector
//!   length and backend in the sweep — the identity that makes `M†M`
//!   Hermitian positive-definite and the whole deflation story sound.
//! * Eigenpair validity across VL × threads: on one thermalized gauge
//!   configuration (transported between vector lengths through the
//!   layout-independent `qcd-io` records), every Lanczos eigenpair has a
//!   real-positive eigenvalue and an explicitly validated residual
//!   `‖M†M v − θv‖ ≤ tol`, at every vector length and thread count.
//!
//! The VL × threads sweep mutates the global rayon pool, so it lives in a
//! single `#[test]`; the proptest blocks never touch thread state and are
//! insensitive to it (canonical reductions are thread-invariant).

use grid::prelude::*;
use grid::Coor;
use proptest::prelude::*;
use qcd_deflate::{lanczos, LanczosParams};
use qcd_hmc::{HmcParams, IntegratorKind, MarkovChain};
use std::sync::Arc;

/// Random valid configuration: small even lattice dims + any sweep VL +
/// any backend (the `any_cfg` idiom of the core property suite).
fn any_cfg() -> impl Strategy<Value = (Coor, VectorLength, SimdBackend)> {
    (
        proptest::sample::select(vec![
            [2usize, 2, 2, 2],
            [4, 2, 2, 2],
            [2, 4, 2, 4],
            [4, 4, 2, 2],
            [4, 4, 4, 4],
        ]),
        proptest::sample::select(VectorLength::sweep().to_vec()),
        proptest::sample::select(SimdBackend::all().to_vec()),
    )
        .prop_filter("lattice must host the virtual nodes", |(dims, vl, _)| {
            let lanes = vl.lanes64() / 2;
            let twos: u32 = dims.iter().map(|d| d.trailing_zeros()).sum();
            lanes.trailing_zeros() <= twos && lanes.is_power_of_two()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `M† = γ₅ M γ₅`: the Wilson operator is γ₅-Hermitian on every
    /// configuration the sweep can produce.
    #[test]
    fn wilson_operator_is_gamma5_hermitian(
        (dims, vl, backend) in any_cfg(),
        seed in 1u64..500,
        mass in -0.3f64..0.5,
    ) {
        let g = Grid::new(dims, vl, backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), seed), mass);
        let y = FermionField::random(g.clone(), seed + 1000);
        let direct = op.apply_dag(&y);
        let sandwiched = gamma5(&op.apply(&gamma5(&y)));
        let mut d = FermionField::zero(g);
        d.sub(&direct, &sandwiched);
        let scale = direct.norm2().sqrt().max(1.0);
        prop_assert!(
            d.norm2().sqrt() <= 1e-12 * scale,
            "‖M†y − γ₅Mγ₅y‖ = {} (scale {})", d.norm2().sqrt(), scale
        );
    }

    /// ⟨M†x, y⟩ = ⟨x, M y⟩: the dagger really is the adjoint under the
    /// canonical inner product.
    #[test]
    fn dagger_is_the_adjoint(
        (dims, vl, backend) in any_cfg(),
        seed in 1u64..500,
        mass in -0.3f64..0.5,
    ) {
        let g = Grid::new(dims, vl, backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), seed), mass);
        let x = FermionField::random(g.clone(), seed + 2000);
        let y = FermionField::random(g, seed + 3000);
        let lhs = op.apply_dag(&x).inner(&y);
        let rhs = x.inner(&op.apply(&y));
        let scale = lhs.abs().max(1.0);
        prop_assert!((lhs - rhs).abs() <= 1e-10 * scale, "{lhs:?} vs {rhs:?}");
    }

    /// `M†M` is positive-definite: ⟨x, M†M x⟩ = ‖Mx‖² > 0 for any
    /// non-trivial field.
    #[test]
    fn normal_operator_is_positive_definite(
        (dims, vl, backend) in any_cfg(),
        seed in 1u64..500,
        mass in -0.3f64..0.5,
    ) {
        let g = Grid::new(dims, vl, backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), seed), mass);
        let x = FermionField::random(g, seed + 4000);
        let quad = x.inner(&op.mdag_m(&x));
        prop_assert!(quad.re > 0.0, "⟨x, M†Mx⟩ = {quad:?}");
        prop_assert!(quad.im.abs() <= 1e-10 * quad.re, "⟨x, M†Mx⟩ = {quad:?}");
    }
}

/// Eigenpairs stay real-positive with validated residuals at every vector
/// length and thread count. The thermalized configuration is generated
/// once and transported between VLs through its `qcd-io` record (site data
/// is stored in global lexicographic order, so the decode is exact at any
/// layout).
#[test]
fn eigenpairs_are_valid_across_vl_and_threads() {
    const TOL: f64 = 1e-6;
    let gen_grid: Arc<Grid> = Grid::new([4, 4, 2, 2], VectorLength::of(256), SimdBackend::Fcmla);
    let hp = HmcParams {
        beta: 5.6,
        n_steps: 8,
        step_size: 0.0625,
        integrator: IntegratorKind::Omelyan,
    };
    let mut chain = MarkovChain::cold_start(gen_grid.clone(), hp, 5);
    chain.thermalize(10);
    let path =
        std::env::temp_dir().join(format!("qcd-deflate-eigenprops-{}.qio", std::process::id()));
    qcd_io::write_gauge(chain.links(), &path, Precision::F64).unwrap();
    drop(chain);

    let params = LanczosParams {
        nev: 4,
        m: 24,
        tol: TOL,
        max_restarts: 40,
    };
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        for bits in [128usize, 256, 512, 1024, 2048] {
            let g: Arc<Grid> = Grid::new([4, 4, 2, 2], VectorLength::of(bits), SimdBackend::Fcmla);
            let u = qcd_io::read_gauge(&path, &g).unwrap();
            let op = WilsonDirac::new(u, -0.2);
            let (sub, rep) = lanczos(
                &op,
                &params,
                FermionField::random(op.grid().clone(), 99),
                op.mass,
            );
            let tag = format!("VL {bits} × {threads} threads");
            assert!(
                rep.converged,
                "eigensolve did not converge @ {tag}: {rep:?}"
            );
            for i in 0..sub.nev() {
                assert!(
                    sub.values[i] > 0.0,
                    "eigenvalue {i} = {} not positive @ {tag}",
                    sub.values[i]
                );
                assert!(
                    sub.residuals[i] <= TOL,
                    "residual {i} = {} above {TOL} @ {tag}",
                    sub.residuals[i]
                );
            }
        }
    }
    rayon::set_num_threads(0);
    let _ = std::fs::remove_file(&path);
}
