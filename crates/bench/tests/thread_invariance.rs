//! The contract the bench documents rely on, stated where they rely on it:
//! every member outside `host` is a canonical reduction, a count or a byte
//! model, so a document is the same bytes at any thread count. That is why
//! documents carry no `threads` key and `bench_diff` needs no
//! `RAYON_NUM_THREADS` to pass (CI repeats this check on the full recipes).
//!
//! `rayon::set_num_threads` mutates process-global state, so this file is a
//! test binary of its own with a single test.

use bench::comms_bench::run_comms_bench;
use bench::deflate_bench::DeflationConfig;
use bench::doc::HOST;
use bench::solver_bench::{solver_document, Thermalized};
use qcd_trace::Json;

fn without_host(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != HOST)
                .map(|(k, v)| (k.clone(), without_host(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_host).collect()),
        other => other.clone(),
    }
}

#[test]
fn solver_and_comms_documents_are_byte_identical_at_one_and_two_threads() {
    let small = DeflationConfig {
        nev: 4,
        eig_tol: 1e-6,
        max_restarts: 40,
        nrhs: 2,
        tol: 1e-6,
        ..DeflationConfig::default()
    };
    let documents = |threads: usize| -> [String; 2] {
        rayon::set_num_threads(threads);
        let therm = Thermalized::new([4, 4, 2, 2], 10);
        let solver = solver_document(4, &[8], &therm, &small, 1e-8).unwrap();
        let comms = run_comms_bench([4, 4, 4, 8], &[1, 2], 2, 2).unwrap();
        assert!(comms.render().contains("\"host\":{"), "nothing was dropped");
        [solver, comms].map(|doc| without_host(&doc).render())
    };
    let (one, two) = (documents(1), documents(2));
    rayon::set_num_threads(0);
    assert_eq!(
        one[0], two[0],
        "solver document moved with the thread count"
    );
    assert_eq!(one[1], two[1], "comms document moved with the thread count");
}
