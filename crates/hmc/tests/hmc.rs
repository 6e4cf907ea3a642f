//! Physics-level integration tests of the HMC machinery: gauge
//! invariance of the action, time-reversibility of the integrators, and
//! the ΔH step-size scaling that separates a symplectic integrator from a
//! merely stable one.

use grid::prelude::*;
use grid::stencil::Stencil;
use qcd_hmc::{
    kinetic_energy, refresh_momenta, wilson_action, HmcParams, IntegratorKind, MarkovChain,
};
use std::sync::Arc;

fn grid4(bits: usize) -> Arc<Grid> {
    Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla)
}

/// A configuration a few trajectories off cold start — rough enough to be
/// generic, smooth enough that modest step sizes sit in the asymptotic
/// scaling regime.
fn warm_links(grid: Arc<Grid>) -> grid::GaugeField {
    let mut chain = MarkovChain::cold_start(
        grid,
        HmcParams {
            beta: 5.7,
            n_steps: 4,
            step_size: 0.1,
            integrator: IntegratorKind::Omelyan,
        },
        23,
    );
    chain.run(3);
    chain.links().clone()
}

#[test]
fn action_and_observables_are_gauge_invariant() {
    let g = grid4(256);
    let u = random_gauge(g.clone(), 61);
    let t = random_transform(g.clone(), 62);
    let v = transform_links(&u, &t);
    let beta = 5.7;

    let s0 = wilson_action(&u, beta);
    let s1 = wilson_action(&v, beta);
    assert!(
        (s0 - s1).abs() < 1e-12 * s0.abs().max(1.0),
        "action not gauge invariant: {s0} vs {s1}"
    );

    let p0 = average_plaquette(&u);
    let p1 = average_plaquette(&v);
    assert!((p0 - p1).abs() < 1e-12, "plaquette: {p0} vs {p1}");

    let w0 = wilson_loop(&u, 0, 3, 2, 2);
    let w1 = wilson_loop(&v, 0, 3, 2, 2);
    assert!((w0 - w1).abs() < 1e-12, "wilson loop: {w0} vs {w1}");
}

#[test]
fn integrators_are_time_reversible() {
    let g = grid4(256);
    let u0 = warm_links(g.clone());
    let p0 = refresh_momenta(g.clone(), 71);
    let beta = 5.7;
    let st = Stencil::new(g.clone());

    for kind in [IntegratorKind::Leapfrog, IntegratorKind::Omelyan] {
        let mut u = u0.clone();
        let mut p = p0.clone();
        kind.integrate(&st, &mut u, &mut p, beta, 4, 0.1);
        // Momentum flip + the same forward integration runs the
        // palindrome backwards.
        p.scale(-1.0);
        kind.integrate(&st, &mut u, &mut p, beta, 4, 0.1);
        let dev = u.max_abs_diff(&u0);
        assert!(dev < 1e-10, "{kind:?} irreversible: link deviation {dev:e}");
        // The momenta must return to -P0.
        p.scale(-1.0);
        let pdev = p.max_abs_diff(&p0);
        assert!(pdev < 1e-10, "{kind:?}: momentum deviation {pdev:e}");
    }
}

/// ΔH of one trajectory of physical length τ = n·ε.
fn trajectory_dh(
    u0: &grid::GaugeField,
    p0: &grid::GaugeField,
    kind: IntegratorKind,
    beta: f64,
    n: usize,
    eps: f64,
) -> f64 {
    let h0 = kinetic_energy(p0) + wilson_action(u0, beta);
    let (mut u, mut p) = (u0.clone(), p0.clone());
    let st = Stencil::new(u0.grid().clone());
    kind.integrate(&st, &mut u, &mut p, beta, n, eps);
    kinetic_energy(&p) + wilson_action(&u, beta) - h0
}

#[test]
fn energy_violation_scales_with_the_integrator_order() {
    let g = grid4(256);
    let u = warm_links(g.clone());
    let p = refresh_momenta(g.clone(), 81);
    let beta = 5.7;

    // Fixed trajectory length τ = 0.5, halving ε twice.
    let steps = [(4usize, 0.125f64), (8, 0.0625), (16, 0.03125)];
    let lf: Vec<f64> = steps
        .iter()
        .map(|&(n, eps)| trajectory_dh(&u, &p, IntegratorKind::Leapfrog, beta, n, eps))
        .collect();
    let om: Vec<f64> = steps[..2]
        .iter()
        .map(|&(n, eps)| trajectory_dh(&u, &p, IntegratorKind::Omelyan, beta, n, eps))
        .collect();

    // Leapfrog: ΔH ∝ ε² at fixed τ — halving ε quarters ΔH.
    for w in lf.windows(2) {
        let order = (w[0].abs() / w[1].abs()).log2();
        assert!(
            (1.6..=2.4).contains(&order),
            "leapfrog order {order} from ΔH {lf:?}"
        );
    }

    // Omelyan: same formal order but a far smaller error constant — the
    // tuned λ cancels most of the ε² coefficient, so at these step sizes
    // the violation is dominated by higher powers of ε.
    for (o, l) in om.iter().zip(&lf) {
        assert!(
            o.abs() < l.abs() / 5.0,
            "omelyan ΔH {o:e} not ≪ leapfrog {l:e}"
        );
    }
    let om_order = (om[0].abs() / om[1].abs()).log2();
    assert!(om_order > 1.6, "omelyan order {om_order} from ΔH {om:?}");
}

#[test]
fn acceptance_and_exp_dh_look_like_equilibrium() {
    // Creutz equality ⟨exp(-ΔH)⟩ = 1 holds trajectory by trajectory in
    // equilibrium; a short warm chain must already hover near it.
    let g = grid4(128);
    let mut chain = MarkovChain::cold_start(
        g,
        HmcParams {
            beta: 5.6,
            n_steps: 6,
            step_size: 0.1,
            integrator: IntegratorKind::Omelyan,
        },
        31,
    );
    chain.thermalize(3); // discard (force-accepted) thermalization
    let reports = chain.run(8);
    let mean_exp: f64 = reports.iter().map(|r| (-r.dh).exp()).sum::<f64>() / reports.len() as f64;
    assert!(
        (0.5..2.0).contains(&mean_exp),
        "⟨exp(-ΔH)⟩ = {mean_exp} far from 1"
    );
    let acc = reports.iter().filter(|r| r.accepted).count() as f64 / reports.len() as f64;
    assert!(acc > 0.5, "measured-window acceptance {acc}");
    for r in &reports {
        assert!((0.0..1.0).contains(&r.plaquette), "{r:?}");
        assert_eq!(r.dh, r.h1 - r.h0);
    }
}
