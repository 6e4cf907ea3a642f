//! The CI bench-regression gate CLI.
//!
//! Usage: `bench_diff <baseline.json> <current.json>`.
//!
//! Compares two bench documents of the same `schema` structurally
//! ([`bench::doc::diff`]): the same members in the same order, arrays of
//! the same length, strings equal, numbers within 1e-9 relative; members
//! named `host` are skipped. A document holds only what reproduces, so any
//! difference means the code changed, not the machine.
//!
//! Exit codes: `0` the documents agree (the count of numbers compared is
//! printed), `1` at least one difference (each named by its path), `2`
//! usage, an unreadable or unparseable file, or a comparison that could
//! not have failed (no `schema`, two schemas, no number compared).

use bench::doc;
use qcd_trace::Json;

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, current] = args.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <current.json>");
        std::process::exit(2);
    };
    let diff = read(baseline)
        .and_then(|b| Ok((b, read(current)?)))
        .and_then(|(b, c)| doc::diff(&b, &c))
        .unwrap_or_else(|e| {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        });
    for finding in &diff.findings {
        println!("REGRESSION: {finding}");
    }
    if !diff.findings.is_empty() {
        eprintln!(
            "bench_diff: FAILED — {} difference(s) against {baseline}",
            diff.findings.len()
        );
        std::process::exit(1);
    }
    println!(
        "bench_diff: OK — {} values equal ({baseline} vs {current})",
        diff.compared
    );
}
