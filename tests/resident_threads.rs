//! A solve in steady state starts no threads: the rayon shim's helpers are
//! started by the first parallel region of a thread, stay when it ends and
//! are reused by every later one. A binary of its own: it sets the global rayon thread count and
//! counts the threads of the whole process.

use grid::prelude::*;

/// `Threads:` of this process, from `/proc/self/status`.
fn live_threads() -> usize {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("Linux serves /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
fn repeated_solves_reuse_their_threads_and_agree_bit_for_bit() {
    let g = Grid::new([4, 4, 4, 8], VectorLength::of(512), SimdBackend::Fcmla);
    let d = WilsonDirac::new(random_gauge(g.clone(), 5), 0.25);
    let b = FermionField::random(g.clone(), 6);
    let solve = |threads: usize| {
        rayon::set_num_threads(threads);
        let (x, report) = cg(&d, &b, 1e-8, 500);
        (
            x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            report.iterations,
        )
    };

    let idle = live_threads();
    let first = solve(2);
    let resident = live_threads();
    let second = solve(2);
    let before = live_threads();
    let third = solve(2);
    let after = live_threads();
    let serial = solve(1);
    rayon::set_num_threads(0);

    assert_eq!(
        resident,
        idle + 1,
        "the first 2-thread solve leaves its one helper behind, parked"
    );
    assert!(
        after <= before,
        "the third 2-thread solve left {after} threads, the second {before}"
    );
    for (name, run) in [
        ("second", &second),
        ("third", &third),
        ("1-thread", &serial),
    ] {
        assert_eq!(run.1, first.1, "{name} solve's iterations");
        assert!(
            run.0 == first.0,
            "{name} solve's solution differs from the first's"
        );
    }
}
