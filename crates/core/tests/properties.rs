//! Property-based tests of the lattice library: algebraic laws that must
//! hold for random lattices, vector lengths, backends and field content.

use grid::prelude::*;
use grid::Coor;
use proptest::prelude::*;
use std::sync::Arc;

/// Random valid configuration: small even lattice dims + any sweep VL +
/// any backend.
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
            // lanes_c must factor into the even dims.
            let lanes = vl.lanes64() / 2;
            let twos: u32 = dims.iter().map(|d| d.trailing_zeros()).sum();
            lanes.trailing_zeros() <= twos && lanes.is_power_of_two()
        })
}

fn make_grid(dims: Coor, vl: VectorLength, backend: SimdBackend) -> Arc<Grid> {
    Grid::new(dims, vl, backend)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// cshift(+mu) and cshift(-mu) are inverse bijections on field data.
    #[test]
    fn cshift_round_trips((dims, vl, backend) in any_cfg(), mu in 0usize..4, seed in 1u64..500) {
        let g = make_grid(dims, vl, backend);
        let f = FermionField::random(g.clone(), seed);
        let round = cshift(&cshift(&f, mu, 1), mu, -1);
        prop_assert_eq!(round.max_abs_diff(&f), 0.0);
    }

    /// cshift preserves the norm exactly (pure data movement).
    #[test]
    fn cshift_preserves_norm((dims, vl, backend) in any_cfg(), mu in 0usize..4, seed in 1u64..500) {
        let g = make_grid(dims, vl, backend);
        let f = FermionField::random(g.clone(), seed);
        let s = cshift(&f, mu, 1);
        prop_assert!((s.norm2() - f.norm2()).abs() < 1e-9 * f.norm2().max(1.0));
    }

    /// Storage mapping is a bijection for every valid configuration.
    #[test]
    fn layout_is_a_bijection((dims, vl, backend) in any_cfg()) {
        let g = make_grid(dims, vl, backend);
        let mut seen = vec![false; g.volume()];
        for x in g.coords() {
            let (o, l) = g.coor_to_osite_lane(&x);
            prop_assert_eq!(g.osite_lane_to_coor(o, l), x);
            let slot = o * g.lanes_c() + l;
            prop_assert!(!seen[slot]);
            seen[slot] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Field inner product is a positive-definite sesquilinear form.
    #[test]
    fn inner_product_axioms((dims, vl, backend) in any_cfg(), s1 in 1u64..200, s2 in 200u64..400, a in -3.0f64..3.0) {
        let g = make_grid(dims, vl, backend);
        let x = FermionField::random(g.clone(), s1);
        let y = FermionField::random(g.clone(), s2);
        // conjugate symmetry
        let xy = x.inner(&y);
        let yx = y.inner(&x);
        prop_assert!((xy - yx.conj()).abs() < 1e-8 * xy.abs().max(1.0));
        // linearity in the second argument (real scalar)
        let mut ay = y.clone();
        ay.scale(a);
        let x_ay = x.inner(&ay);
        prop_assert!((x_ay - xy * a).abs() < 1e-8 * xy.abs().max(1.0));
        // positivity
        let xx = x.inner(&x);
        prop_assert!(xx.re > 0.0);
        prop_assert!(xx.im.abs() < 1e-8 * xx.re);
    }

    /// The Wilson operator is linear: M(aψ + φ) == a·Mψ + Mφ.
    #[test]
    fn wilson_operator_is_linear((dims, vl, backend) in any_cfg(), a in -2.0f64..2.0, seed in 1u64..100) {
        let g = make_grid(dims, vl, backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), seed), 0.2);
        let psi = FermionField::random(g.clone(), seed + 1000);
        let phi = FermionField::random(g.clone(), seed + 2000);
        let mut combo = FermionField::zero(g.clone());
        combo.axpy(a, &psi, &phi);
        let lhs = op.apply(&combo);
        let mut rhs = FermionField::zero(g.clone());
        rhs.axpy(a, &op.apply(&psi), &op.apply(&phi));
        let scale = rhs.norm2().sqrt().max(1.0);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10 * scale);
    }

    /// γ5-hermiticity holds for random masses and gauge backgrounds.
    #[test]
    fn g5_hermiticity_random_mass((dims, vl, backend) in any_cfg(), mass in -0.5f64..2.0, seed in 1u64..100) {
        let g = make_grid(dims, vl, backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), seed), mass);
        let psi = FermionField::random(g.clone(), seed + 500);
        let lhs = gamma5(&op.apply(&gamma5(&psi)));
        let rhs = op.apply_dag(&psi);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10 * rhs.norm2().sqrt().max(1.0));
    }

    /// Checkerboard projections decompose every field orthogonally.
    #[test]
    fn parity_decomposition((dims, vl, backend) in any_cfg(), seed in 1u64..500) {
        let g = make_grid(dims, vl, backend);
        let f = FermionField::random(g.clone(), seed);
        let even = parity_project(&f, 0);
        let odd = parity_project(&f, 1);
        let mut sum = even.clone();
        sum.add_assign_field(&odd);
        prop_assert_eq!(sum.max_abs_diff(&f), 0.0);
        prop_assert!((even.norm2() + odd.norm2() - f.norm2()).abs() < 1e-9 * f.norm2().max(1.0));
        prop_assert!((even.inner(&odd)).abs() < 1e-12);
    }

    /// The hopping term swaps checkerboards: Dh P_e = P_o Dh P_e.
    #[test]
    fn hopping_swaps_parities((dims, vl, backend) in any_cfg(), seed in 1u64..100) {
        let g = make_grid(dims, vl, backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), seed), 0.1);
        let f = parity_project(&FermionField::random(g.clone(), seed + 300), 0);
        prop_assume!(f.norm2() > 0.0);
        let hop = op.hopping(&f);
        let leak = parity_project(&hop, 0);
        prop_assert!(leak.norm2() < 1e-20 * hop.norm2().max(1.0));
    }

    /// Plaquette is gauge invariant for random transformations.
    #[test]
    fn plaquette_gauge_invariance(seed in 1u64..200, gseed in 200u64..400) {
        let g = Grid::new([4, 4, 2, 2], VectorLength::of(256), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), seed);
        let t = random_transform(g.clone(), gseed);
        let p0 = average_plaquette(&u);
        let p1 = average_plaquette(&transform_links(&u, &t));
        prop_assert!((p0 - p1).abs() < 1e-10);
    }

    /// A Gaussian stream checkpointed at an arbitrary cursor — including
    /// between the two raw draws of a single Box–Muller pair — resumes
    /// bit-identically, and the stateful cursor agrees bit for bit with
    /// the stateless generator at the same stream. `(seed, counter)` is
    /// the complete RNG state: there is no cached spare normal to lose.
    #[test]
    fn gaussian_pairs_survive_mid_pair_checkpoints(
        seed in any::<u64>(), prefix in 0u64..96, pairs in 1usize..12,
    ) {
        use grid::rng::{box_muller, gaussian};

        let mut whole = StreamRng::new(seed);
        for _ in 0..prefix {
            whole.next_u64();
        }
        let want: Vec<(f64, f64)> = (0..pairs).map(|_| whole.next_gaussian_pair()).collect();

        // Replay with a kill/restore between the two halves of every pair.
        let mut cursor = StreamRng::from_state(seed, prefix);
        for w in &want {
            let h1 = cursor.next_u64();
            let (s, c) = cursor.state();
            cursor = StreamRng::from_state(s, c); // the checkpoint boundary
            let h2 = cursor.next_u64();
            let got = box_muller(h1, h2);
            prop_assert_eq!(w.0.to_bits(), got.0.to_bits());
            prop_assert_eq!(w.1.to_bits(), got.1.to_bits());
        }

        // Stateless/stateful agreement at the restored cursor.
        let mut check = StreamRng::from_state(seed, prefix);
        prop_assert_eq!(
            check.next_gaussian().to_bits(),
            gaussian(seed, prefix).to_bits()
        );
    }

    /// Two-row reconstruction of a reunitarized link is exact to rounding
    /// — in fact bit-exact: `project_su3`'s unitary completion and
    /// `reconstruct_su3` build row 2 from rows 0–1 with the identical
    /// conjugate-cross-product expression, so compressing a freshly
    /// reunitarized link loses nothing at all.
    #[test]
    fn two_row_reconstruction_of_a_reunitarized_link_is_exact(
        seed in 1u64..500,
        stream in 0u64..8,
        drift in 0.0f64..1e-6,
    ) {
        use grid::tensor::su3::{compress_su3, project_su3, random_su3, reconstruct_su3, unitarity_defect};
        // A random SU(3) link with injected non-unitary drift, as
        // accumulated by long HMC chains.
        let mut m = random_su3(seed, stream);
        for (r, row) in m.iter_mut().enumerate() {
            for (c, e) in row.iter_mut().enumerate() {
                *e = e.scale(1.0 + drift * ((r * 3 + c) as f64 - 4.0) / 4.0);
            }
        }
        let u = project_su3(&m); // reunitarize
        prop_assert!(unitarity_defect(&u) < 1e-12);
        let rec = reconstruct_su3(&compress_su3(&u));
        for r in 0..3 {
            for c in 0..3 {
                prop_assert_eq!(rec[r][c].re.to_bits(), u[r][c].re.to_bits());
                prop_assert_eq!(rec[r][c].im.to_bits(), u[r][c].im.to_bits());
            }
        }
    }

    /// `(1 ± γµ)² = 2(1 ± γµ)`: the spin projector of every hopping leg is
    /// twice a projection.
    #[test]
    fn spin_projector_squares_to_twice_itself(mu in 0usize..4, plus in any::<bool>(), seed in 1u64..500) {
        use grid::dirac::proj_recon;
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let psi = FermionField::random(g.clone(), seed);
        let once = proj_recon(mu, plus, &psi);
        let twice = proj_recon(mu, plus, &once);
        let mut doubled = once.clone();
        doubled.scale(2.0);
        prop_assert!(twice.max_abs_diff(&doubled) < 1e-10 * doubled.norm2().sqrt().max(1.0));
    }
}
