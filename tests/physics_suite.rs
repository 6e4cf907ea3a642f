//! Physics-level integration: gauge covariance, preconditioning and mixed
//! precision working together across vector lengths — the extension layer
//! on top of the paper's verification campaign.

use grid::krylov::{no_observer, Start};
use grid::prelude::*;

/// `M x = b` to 1e-10 by CG on the normal equations, from zero.
fn solve_m(op: &WilsonDirac, b: &FermionField) -> FermionField {
    let span = qcd_trace::span!("solver.cg", b.grid().engine().ctx());
    let zero = Start::Zero;
    solve_normal(op, b, zero, 1e-10, 3000, span, "solver.cg", no_observer).0
}

#[test]
fn full_pipeline_at_every_grid_supported_vl() {
    // The paper enables 128/256/512 in Grid (Section V-B); run the whole
    // pipeline (gauge generation -> observables -> EO solve -> verification)
    // at each.
    for vl in VectorLength::grid_supported() {
        let g = Grid::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 201);
        // Observables sane.
        let p = average_plaquette(&u);
        assert!(p.abs() < 0.3, "{vl}: plaquette {p}");
        // EO-preconditioned solve verifies against the operator.
        let op = WilsonDirac::new(u, 0.25);
        let b = FermionField::random(g.clone(), 202);
        let (x, report) = solve_eo(&op, &b, 1e-9, 2000);
        assert!(report.residual < 1e-7, "{vl}: {report:?}");
        let mx = op.apply(&x);
        let mut diff = FermionField::zero(g.clone());
        diff.sub(&mx, &b);
        assert!((diff.norm2() / b.norm2()).sqrt() < 1e-7, "{vl}");
    }
}

#[test]
fn gauge_covariance_composes_with_solving() {
    // Solving in a gauge-rotated frame gives the rotated solution.
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 203);
    let t = random_transform(g.clone(), 204);
    let b = FermionField::random(g.clone(), 205);

    let x = solve_m(&WilsonDirac::new(u.clone(), 0.3), &b);
    let x_rot = solve_m(
        &WilsonDirac::new(transform_links(&u, &t), 0.3),
        &transform_fermion(&b, &t),
    );
    let expected = transform_fermion(&x, &t);
    let diff = x_rot.max_abs_diff(&expected);
    assert!(diff < 1e-7, "covariance of the solve broken by {diff}");
}

#[test]
fn mixed_precision_agrees_with_pure_double_across_backends() {
    for backend in [SimdBackend::Fcmla, SimdBackend::RealArith] {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), backend);
        let op = WilsonDirac::new(random_gauge(g.clone(), 206), 0.3);
        let b = FermionField::random(g.clone(), 207);
        let cfg = LadderConfig {
            max_inner: 1000,
            ..LadderConfig::f32_only(1e-10)
        };
        let (x_mixed, rep) = ladder_solve(&op, &b, &cfg);
        assert!(rep.converged, "{backend:?}: {rep:?}");
        let x_ref = solve_m(&op, &b);
        let diff = x_mixed.max_abs_diff(&x_ref);
        assert!(diff < 1e-7, "{backend:?}: solutions differ by {diff}");
    }
}

#[test]
fn dist_wilson_on_the_f16_wire_meets_its_contract() {
    // The paper's one use of binary16: halo compression on the wire (§V-B).
    // Over two t-ranks the distributed hopping term deviates from the
    // single-rank one only on boundary sites, each of which has one crossing
    // leg. That leg's half spinor (|h| ≤ 2√6·max|ψ|) and, backward, its
    // ghost link (‖U‖_F = √3) each carry a relative error ≤ F16_WIRE_EPS per
    // scalar, and U is unitary, so no component moves by more than
    // (2√6 + 6√2)·F16_WIRE_EPS·max|ψ| < 16·F16_WIRE_EPS·max|ψ|.
    use grid::comms::F16_WIRE_EPS;
    use grid::Coor;
    let global: Coor = [4, 4, 4, 8];
    let vl = VectorLength::of(256);
    let gg = Grid::new(global, vl, SimdBackend::Fcmla);
    let u = random_gauge(gg.clone(), 208);
    let psi = FermionField::random(gg.clone(), 209);
    let want = WilsonDirac::new(u.clone(), 0.1).hopping(&psi);
    let max_psi = psi.data().iter().fold(0.0f64, |m, x| m.max(x.abs()));

    let ranks = run_multinode_grid(global, [1, 1, 1, 2], vl, SimdBackend::Fcmla, |ctx| {
        let ul = restrict_field(ctx, &u);
        let dw = DistWilson::new(ctx, ul, 0.1, GaugeWire::Full, Compression::F16);
        let mut out = FermionField::zero(ctx.grid.clone());
        dw.hopping_into(
            &restrict_field(ctx, &psi),
            &mut DistWorkspace::new(&dw),
            &mut out,
        );
        assert_eq!(
            ctx.sent_bytes.get(),
            dw.modeled_wire_bytes(),
            "rank {}: wire bytes off the model",
            ctx.rank
        );
        let mut worst: f64 = 0.0;
        for lx in ctx.grid.coords() {
            let gx = ctx.to_global(&lx);
            for comp in 0..12 {
                worst = worst.max((out.peek(&lx, comp) - want.peek(&gx, comp)).abs());
            }
        }
        worst
    });
    let worst = ranks.into_iter().fold(0.0, f64::max);
    assert!(worst > 0.0, "the f16 wire rounded nothing");
    assert!(
        worst < 16.0 * F16_WIRE_EPS * max_psi,
        "f16 halo deviation {worst} outside the wire contract"
    );
}

#[test]
fn observables_are_layout_invariant() {
    // Plaquette / Polyakov / Wilson loops must not depend on the vector
    // length (they are computed from the same physical configuration).
    let mut values = Vec::new();
    for vl in [VectorLength::of(128), VectorLength::of(1024)] {
        let g = Grid::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 210);
        values.push((
            average_plaquette(&u),
            average_polyakov_loop(&u),
            wilson_loop(&u, 0, 3, 2, 2),
        ));
    }
    assert!((values[0].0 - values[1].0).abs() < 1e-13);
    assert!((values[0].1 - values[1].1).abs() < 1e-13);
    assert!((values[0].2 - values[1].2).abs() < 1e-13);
}

#[test]
fn hmc_trajectories_are_bit_identical_across_vector_lengths() {
    // The links of a trajectory were always the same at every vector
    // length; the energies are now too — action and kinetic energy are
    // canonical reductions — so ΔH, the accept/reject decisions and the
    // plaquettes are one set of bits, not one per layout.
    use qcd_hmc::{HmcParams, IntegratorKind, MarkovChain};
    let params = HmcParams {
        beta: 5.7,
        n_steps: 8,
        step_size: 0.0625,
        integrator: IntegratorKind::Omelyan,
    };
    let run = |bits: usize| {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let mut chain = MarkovChain::cold_start(g.clone(), params, 11);
        chain.thermalize(2);
        let reports = chain.run(2);
        let links: Vec<u64> = g
            .coords()
            .flat_map(|x| {
                let u = chain.links();
                (0..36).flat_map(move |comp| {
                    let z = u.peek(&x, comp);
                    [z.re.to_bits(), z.im.to_bits()]
                })
            })
            .collect();
        let per_trajectory: Vec<(u64, bool, u64)> = reports
            .iter()
            .map(|r| (r.dh.to_bits(), r.accepted, r.plaquette.to_bits()))
            .collect();
        (per_trajectory, chain.acceptance_rate().to_bits(), links)
    };
    let reference = run(128);
    for bits in [512, 2048] {
        let got = run(bits);
        assert_eq!(got.0, reference.0, "ΔH, acceptance, plaquette at VL{bits}");
        assert_eq!(got.1, reference.1, "acceptance rate at VL{bits}");
        assert!(got.2 == reference.2, "links at VL{bits}");
    }
}
