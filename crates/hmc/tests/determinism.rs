//! Bit-level determinism of the Markov chain: a chain checkpointed at
//! trajectory `k` and resumed must be indistinguishable — links, ΔH
//! history, accept/reject sequence, bit for bit — from the chain that
//! never stopped, at every vector length and worker-thread count.
//!
//! `rayon::set_num_threads` mutates process-global state, so the thread
//! sweep lives in a single `#[test]` (same discipline as the core
//! `thread_determinism` suite); the resume sweep runs single-threaded
//! configurations side by side.

use grid::prelude::*;
use qcd_hmc::{
    kinetic_energy, refresh_momenta, wilson_action, HmcParams, IntegratorKind, MarkovChain,
};
use std::path::PathBuf;
use std::sync::Arc;

fn params() -> HmcParams {
    HmcParams {
        beta: 5.7,
        n_steps: 4,
        step_size: 0.1,
        integrator: IntegratorKind::Omelyan,
    }
}

fn grid4(bits: usize) -> Arc<Grid> {
    Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla)
}

fn tmp(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qcd-hmc-det-{tag}-{}", std::process::id()));
    p
}

fn link_bits(u: &grid::GaugeField) -> Vec<u64> {
    u.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn resume_is_bit_identical_to_uninterrupted_chain() {
    for bits in [128usize, 256, 512, 1024, 2048] {
        let g = grid4(bits);

        // The chain that never stops: 4 trajectories straight.
        let mut whole = MarkovChain::cold_start(g.clone(), params(), 97);
        whole.run(4);

        // The chain that dies at trajectory 2 and is restored from disk.
        let mut head = MarkovChain::cold_start(g.clone(), params(), 97);
        head.run(2);
        let path = tmp(&format!("vl{bits}"));
        head.save(&path).unwrap();
        drop(head); // the "crash"
        let (mut resumed, warn) = MarkovChain::load(&path, &g).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(warn.is_none(), "fresh checkpoint must be on the manifold");
        resumed.run(2);

        assert_eq!(
            link_bits(whole.links()),
            link_bits(resumed.links()),
            "VL{bits}: links diverged after resume"
        );
        assert_eq!(
            whole
                .dh_history()
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<_>>(),
            resumed
                .dh_history()
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<_>>(),
            "VL{bits}: ΔH history diverged"
        );
        assert_eq!(
            whole.accept_history(),
            resumed.accept_history(),
            "VL{bits}: accept/reject sequence diverged"
        );
        assert_eq!(whole.trajectory(), resumed.trajectory());
    }
}

#[test]
fn trajectories_are_bit_identical_across_thread_counts_and_vector_lengths() {
    // Links, ΔH, the accept sequence, and the action and kinetic energy the
    // chain's ΔH is made of: one set of bits at every worker count and
    // vector length (the energies are canonical reductions).
    let run = |bits: usize| {
        let g = grid4(bits);
        let mut chain = MarkovChain::cold_start(g.clone(), params(), 101);
        chain.run(3);
        let u = chain.links();
        let links: Vec<u64> = g
            .coords()
            .flat_map(|x| {
                (0..36).flat_map(move |comp| {
                    let z = u.peek(&x, comp);
                    [z.re.to_bits(), z.im.to_bits()]
                })
            })
            .collect();
        let energies = [
            wilson_action(u, 5.7).to_bits(),
            kinetic_energy(&refresh_momenta(g, 5)).to_bits(),
        ];
        let dh: Vec<u64> = chain.dh_history().iter().map(|d| d.to_bits()).collect();
        (links, dh, chain.accept_history().to_vec(), energies)
    };
    rayon::set_num_threads(1);
    let reference = run(128);
    for bits in [128usize, 512, 2048] {
        for threads in [1usize, 2, 8] {
            rayon::set_num_threads(threads);
            let got = run(bits);
            assert!(got.0 == reference.0, "links @ VL{bits} × {threads} threads");
            assert_eq!(
                got.1, reference.1,
                "ΔH history @ VL{bits} × {threads} threads"
            );
            assert_eq!(got.2, reference.2, "accepts @ VL{bits} × {threads} threads");
            assert_eq!(
                got.3, reference.3,
                "action, kinetic energy @ VL{bits} × {threads}"
            );
        }
    }
    rayon::set_num_threads(0);
}

/// The physics acceptance gate: a thermalized 8⁴ chain at β = 5.7 must
/// reproduce the known plaquette ≈ 0.549. Minutes of software-SIMD work,
/// so opt-in (`cargo test -p qcd-hmc -- --ignored`); the CI `hmc-smoke`
/// job runs the same physics through the release-mode bench driver.
#[test]
#[ignore = "long: thermalizes an 8^4 lattice (CI covers it in release mode)"]
fn thermalized_plaquette_matches_literature() {
    let g = Grid::new([8, 8, 8, 8], VectorLength::of(512), SimdBackend::Fcmla);
    let mut chain = MarkovChain::cold_start(
        g,
        HmcParams {
            beta: 5.7,
            n_steps: 10,
            step_size: 0.1,
            integrator: IntegratorKind::Omelyan,
        },
        7,
    );
    chain.thermalize(30); // force-accepted relaxation out of the cold start
    let reports = chain.run(30);
    let plaq: f64 = reports.iter().map(|r| r.plaquette).sum::<f64>() / reports.len() as f64;
    assert!(
        (plaq - 0.549).abs() < 0.01,
        "8^4 β=5.7 plaquette {plaq} off the literature value 0.549"
    );
    let acc = reports.iter().filter(|r| r.accepted).count() as f64 / reports.len() as f64;
    assert!(acc > 0.5, "measured-window acceptance {acc}");
}
