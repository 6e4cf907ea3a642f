//! `qcd-metrics`: stateful observability for the lattice QCD stack.
//!
//! `qcd-trace` (PR 1) answers *where did the time and instructions go* per
//! region. This crate layers the stateful questions on top:
//!
//! * **Metrics** ([`metrics`]): global counters, gauges, and deterministic
//!   log2-bucket histograms with p50/p90/p99, snapshot/reset like the span
//!   registry.
//! * **Health** ([`health`]): a [`HealthMonitor`] consuming per-iteration
//!   relative residuals live, emitting typed [`HealthEvent`]s for stalls,
//!   divergence, and NaN/Inf — surfaced in `SolveReport.health` by the
//!   solvers in `grid`.
//! * **Flight recorder** ([`recorder`]): a bounded ring of structured
//!   events (span closes, health events, `qcd-io` faults, checkpoint
//!   writes, HMC accept/reject) dumped as JSONL for postmortem.
//! * **Sampler** ([`sampler`]): periodic metric snapshots over logical
//!   ticks, for time series across long solves and HMC chains.
//!
//! Everything exports in one line-oriented schema, `qcd-metrics/v1`
//! ([`SCHEMA`]): each line is a self-describing JSON object whose `type`
//! field is one of `counter`, `gauge`, `histogram`, `flight`, or `sample`.
//! The exact layouts are documented in DESIGN.md §11. [`validate_jsonl`]
//! parses a dump back and checks the schema tags — the write paths use it
//! before anything touches disk, mirroring the `qcd-trace` exporters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod metrics;
pub mod recorder;
pub mod sampler;

pub use health::{
    HealthEvent, HealthEventKind, HealthMonitor, DEFAULT_DIVERGENCE_FACTOR, DEFAULT_STALL_WINDOW,
};
pub use metrics::{
    bucket_index, bucket_upper, counter, gauge, histogram, metrics_reset, metrics_snapshot,
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{
    flight_dropped, flight_dump_jsonl, flight_enabled, flight_reset, flight_snapshot,
    global_test_lock, install_span_observer, record_event, set_flight_enabled,
    uninstall_span_observer, FlightEvent, FLIGHT_CAP,
};
pub use sampler::{SampleFrame, Sampler};

use qcd_trace::Json;

/// Schema tag carried by every JSONL line this crate emits.
pub const SCHEMA: &str = "qcd-metrics/v1";

/// Render the full observable state — every registered metric followed by
/// the retained flight events — as one `qcd-metrics/v1` JSONL document.
pub fn dump_all_jsonl() -> String {
    let mut out = metrics_snapshot().to_json_lines();
    out.push_str(&flight_dump_jsonl());
    out
}

/// Check that every line of `text` parses as JSON and carries the
/// `qcd-metrics/v1` schema tag plus a known `type`. Returns the number of
/// lines on success.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("line {}: bad schema tag {other:?}", i + 1)),
        }
        match doc.get("type").and_then(Json::as_str) {
            Some("counter" | "gauge" | "histogram" | "flight" | "sample") => {}
            other => return Err(format!("line {}: unknown type {other:?}", i + 1)),
        }
        n += 1;
    }
    Ok(n)
}

/// Finish a solve's health bookkeeping in one call: cap the reported
/// residual history with [`bound_history`] (keeping every health-flagged
/// iteration), feed the `<region>.iterations` histogram and the global
/// `solver.solves` counter, and drain the monitor into its typed event
/// list. Every solver concludes through here — `grid`'s one CG driver
/// (`krylov::cg_solve`, whatever the space: field, block, 5-d, rank-local,
/// deflated, coarse-preconditioned) and BiCGStab — so solve-level metrics
/// stay uniform across subsystems. The monitor must have observed every entry
/// of `history` (restored prefix replayed, new entries live), so a resumed
/// solve reports exactly what the uninterrupted one would.
pub fn conclude_solver_health(
    region: &str,
    monitor: HealthMonitor,
    history: &[f64],
    iterations: usize,
    cap: usize,
) -> (Vec<f64>, Vec<HealthEvent>) {
    let (capped, _kept) = bound_history(history, &monitor.flagged_iterations(), cap);
    histogram(&format!("{region}.iterations")).record(iterations as u64);
    counter("solver.solves").inc();
    (capped, monitor.into_events())
}

/// Cap a solver residual history for reporting: keep the first and last
/// entries and every `flagged` index (health events), then fill the rest by
/// uniform striding, doubling the stride until the result fits `cap`. The
/// checkpointed history is never capped — only the copy surfaced in
/// `SolveReport.history` — so resume stays bit-identical.
///
/// Returns `(kept_values, kept_indices)`; indices refer to the original
/// history.
pub fn bound_history(history: &[f64], flagged: &[usize], cap: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(cap >= 2, "history cap must keep at least the endpoints");
    if history.len() <= cap {
        return (history.to_vec(), (0..history.len()).collect());
    }
    let last = history.len() - 1;
    let mut keep: Vec<usize> = Vec::new();
    let mut stride = 1usize;
    loop {
        stride *= 2;
        keep.clear();
        keep.push(0);
        keep.extend(flagged.iter().copied().filter(|&i| i <= last));
        keep.extend((0..=last).step_by(stride));
        keep.push(last);
        keep.sort_unstable();
        keep.dedup();
        if keep.len() <= cap {
            break;
        }
    }
    let values = keep.iter().map(|&i| history[i]).collect();
    (values, keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_histories_pass_through_unchanged() {
        let h: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let (v, idx) = bound_history(&h, &[], 512);
        assert_eq!(v, h);
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn capping_keeps_endpoints_and_flagged_entries() {
        let h: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        let flagged = [613, 1777];
        let (v, idx) = bound_history(&h, &flagged, 512);
        assert!(v.len() <= 512, "cap violated: {}", v.len());
        assert_eq!(idx.first(), Some(&0));
        assert_eq!(idx.last(), Some(&1999));
        for f in flagged {
            assert!(idx.contains(&f), "flagged index {f} was dropped");
        }
        for (&i, &val) in idx.iter().zip(v.iter()) {
            assert_eq!(val, h[i], "kept value must come from its index");
        }
        // Indices are strictly increasing — the kept history stays ordered.
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn validate_jsonl_accepts_own_output_and_rejects_garbage() {
        let good = format!(
            "{{\"schema\":\"{SCHEMA}\",\"type\":\"counter\",\"name\":\"x\",\"value\":1}}\n"
        );
        assert_eq!(validate_jsonl(&good), Ok(1));
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl("{\"schema\":\"other/v1\",\"type\":\"counter\"}").is_err());
        assert!(validate_jsonl(&good.replace("counter", "mystery")).is_err());
    }
}
