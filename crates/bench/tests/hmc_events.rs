//! The HMC time series of `wilson_report --bench hmc --metrics` is the
//! chain's own `hmc.trajectory` flight events: one per trajectory, carrying
//! the `dh` and `plaquette` the document's averages are taken over.
//!
//! The flight ring is process-global and every chain in the process writes
//! to it, so this file is a test binary of its own with a single test.

use bench::hmc_bench::{run_hmc_bench, HmcBenchConfig};
use qcd_trace::Json;

#[test]
fn one_trajectory_event_per_trajectory_reproduces_the_document() {
    let cfg = HmcBenchConfig {
        l: 4,
        beta: 5.6,
        therm: 2,
        traj: 3,
        n_steps: 2,
        step_size: 0.1,
        seed: 3,
    };
    let doc = run_hmc_bench(cfg).unwrap();
    let events: Vec<_> = qcd_trace::flight_snapshot()
        .into_iter()
        .filter(|e| e.kind == "hmc.trajectory")
        .collect();
    let datum = |e: &qcd_trace::FlightEvent, name: &str| {
        e.data.iter().find(|(k, _)| k == name).expect(name).1
    };
    // Thermalization and measurement, in order, none twice.
    let indices: Vec<f64> = events.iter().map(|e| datum(e, "trajectory")).collect();
    assert_eq!(indices, [1.0, 2.0, 3.0, 4.0, 5.0]);

    // The measured ones are what the document averaged, to the bit: the same
    // values folded in the same order.
    let measured = &events[cfg.therm..];
    let n = cfg.traj as f64;
    let mean = |f: &dyn Fn(&qcd_trace::FlightEvent) -> f64| measured.iter().map(f).sum::<f64>() / n;
    let member = |name: &str| doc.get(name).and_then(Json::as_f64).expect(name);
    assert_eq!(member("trajectories"), n);
    assert_eq!(member("avg_plaquette"), mean(&|e| datum(e, "plaquette")));
    assert_eq!(member("mean_exp_dh"), mean(&|e| (-datum(e, "dh")).exp()));
    assert_eq!(
        member("acceptance"),
        mean(&|e| f64::from(u8::from(e.label == "accept")))
    );

    // The same seed walks the same chain.
    assert_eq!(run_hmc_bench(cfg).unwrap(), doc);
}
