//! `--aa`: the benchmark run against itself.
//!
//! Two sets of runs of this same binary, interleaved (A B A B …) so that
//! both see the same drift of the host. For every end-to-end metric and
//! workload it prints the two medians, their relative difference beside the
//! metric's bound, and each set's quartile spread; one traced run per set
//! checks that the exact per-layer counts repeat. Exits non-zero when a
//! difference exceeds its bound or a count differs: with nothing changed
//! between the sets, that is the noise a real comparison would drown in.

use crate::spec::{Better, Json, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::process::{Command, ExitCode, Stdio};

pub struct AaOptions {
    /// Untraced runs per set and workload.
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
}

/// Run this binary once and return its result line.
fn child(workload: &str, opts: &AaOptions, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("the run's last line: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("the run failed its checks: {last}"));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("the run reported no `{name}`"))
}

/// Per-layer metrics that must repeat exactly for a seed.
fn is_exact(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "B")
        || matches!(
            name,
            "grid.dist.boundary_frac" | "qcd-hmc.acceptance" | "qcd-hmc.plaquette"
        )
}

fn compare_workload(workload: &str, opts: &AaOptions) -> Result<bool, String> {
    let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..opts.runs {
        for set in &mut sets {
            set.push(child(workload, opts, false)?);
        }
    }
    let mut ok = true;
    for m in &END_TO_END {
        let values = |set: &[Json]| -> Result<Vec<f64>, String> {
            set.iter().map(|r| metric(r, m.name)).collect()
        };
        let (a, b) = (values(&sets[0])?, values(&sets[1])?);
        let (ma, mb) = (stats::median(&a), stats::median(&b));
        // How much worse B is than A, as a share of A.
        let worse = match m.better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        };
        let within = worse.abs() <= m.bound;
        ok &= within;
        println!(
            "  {:<13} A {:>12.6}  B {:>12.6}  diff {:>+7.2} %  bound {:>4.0} %  spread A {:.2} % B {:.2} %  {}",
            m.name,
            ma,
            mb,
            worse * 100.0,
            m.bound * 100.0,
            stats::spread(&a) * 100.0,
            stats::spread(&b) * 100.0,
            if within { "ok" } else { "EXCEEDS ITS BOUND" }
        );
    }
    let (ta, tb) = (child(workload, opts, true)?, child(workload, opts, true)?);
    let mut exact = 0;
    for m in PER_LAYER.iter().filter(|m| is_exact(m.name, m.unit)) {
        let (a, b) = (metric(&ta, m.name)?, metric(&tb, m.name)?);
        exact += 1;
        if a != b {
            ok = false;
            println!("  {} differs between the sets: {a} and {b}", m.name);
        }
    }
    println!("  {exact} exact per-layer counts compared");
    Ok(ok)
}

pub fn run(opts: &AaOptions) -> ExitCode {
    println!(
        "A/A: 2 sets of {} untraced run(s) and 1 traced run per workload, seed {}, {} s",
        opts.runs, opts.seed, opts.seconds
    );
    let mut ok = true;
    for w in &WORKLOADS {
        println!("{}:", w.name);
        match compare_workload(w.name, opts) {
            Ok(within) => ok &= within,
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        println!("A/A: every difference is within its bound, every exact count repeats");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_metrics_are_read_back() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 0.25, "unit": "s/unit"}}}"#;
        let result = Json::parse(line).unwrap();
        assert_eq!(metric(&result, "wall_s"), Ok(0.25));
        assert!(metric(&result, "cpu_s").is_err());
    }

    #[test]
    fn counts_and_pins_are_exact_times_are_not() {
        assert!(is_exact("sve.insts_per_unit", "count"));
        assert!(is_exact("qcd-io.chain_bytes", "B"));
        assert!(is_exact("qcd-hmc.plaquette", "ratio"));
        assert!(!is_exact("sve.ns_per_inst", "ns"));
    }
}
