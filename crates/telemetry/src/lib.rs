//! `qcd-trace`: the observability crate of the lattice QCD stack —
//! hierarchical region profiling, metrics, solver health, a flight recorder.
//!
//! The paper this repository reproduces (*SVE-Enabling Lattice QCD Codes*,
//! CLUSTER 2018) argues about kernels in three currencies at once: wall
//! time, per-opcode SVE instruction counts (its Tables/Listings IV-A..IV-D),
//! and derived roofline quantities (flops, bytes, arithmetic intensity).
//! This crate makes all three observable from one instrument:
//!
//! ```
//! use qcd_trace::span;
//! use sve::{SveCtx, VectorLength};
//!
//! qcd_trace::reset();
//! let ctx = SveCtx::new(VectorLength::new(512).unwrap());
//! {
//!     let _outer = span!("dirac.hop");
//!     let _inner = span!("dirac.hop.site", &ctx); // counts ctx instructions
//!     qcd_trace::record_flops(1320);
//!     qcd_trace::record_sites(1);
//! }
//! let snap = qcd_trace::snapshot();
//! assert_eq!(snap.region("dirac.hop/dirac.hop.site").unwrap().flops, 1320);
//! ```
//!
//! # Model
//!
//! - A [`span!`] opens a region on the current thread's frame stack; nesting
//!   is lexical per thread, and paths join with `/`.
//! - Passing an [`sve::SveCtx`] attributes the delta of its per-opcode
//!   [`sve::Counters`] to the region — *exclusively*: a child span
//!   with the same context claims its own delta and the parent reports the
//!   remainder.
//! - Free functions ([`record_flops`], [`record_sites`], [`record_bytes`],
//!   [`record_wire_bytes`], [`record_predicted_insts`]) credit quantities to
//!   the innermost open region.
//! - Closed spans merge into a process-global registry; [`snapshot`] copies
//!   it, [`reset`] clears it. [`SpanGuard::finish`] additionally returns a
//!   race-free per-invocation [`RegionSummary`] (used by solver reports).
//!
//! # Stateful observability
//!
//! What a region profile cannot say — how often, how distributed, what
//! happened last — is kept beside it:
//!
//! - [`metrics`]: global counters, gauges, and deterministic log2-bucket
//!   histograms with p50/p90/p99.
//! - [`health`]: a [`HealthMonitor`] consuming per-iteration relative
//!   residuals live, emitting typed [`HealthEvent`]s for stalls, divergence,
//!   and NaN/Inf — surfaced in `SolveReport.health` by the solvers in `grid`.
//! - [`recorder`]: a bounded ring of structured events (health events,
//!   `qcd-io` faults, checkpoint writes, HMC accept/reject, `farm.*`) for
//!   postmortem, and — once [`set_span_events`] has turned them on — a
//!   second ring of span closes, with a `span.<leaf>` wall-time histogram
//!   per span name. An untraced process retains no span events.
//!
//! # Export
//!
//! [`render_table`] prints an aligned profile with derived metrics
//! (self time, arithmetic intensity, percent of the paper-predicted
//! instruction count, cycle estimates under every [`sve::CostModel`]).
//! [`Snapshot::to_json`] / [`Snapshot::from_json`] round-trip the
//! `qcd-trace/v1` schema (documented on [`Snapshot::to_json`]) — CI validates
//! emitted profiles by parsing them back. [`dump_all_jsonl`] renders the
//! metrics and both rings in one line-oriented schema, `qcd-metrics/v1`
//! ([`METRICS_SCHEMA`]): each line is a self-describing JSON object whose
//! `type` is one of `counter`, `gauge`, `histogram` or `flight` (layouts in
//! DESIGN.md §11); [`validate_jsonl`] parses a dump back and checks the tags
//! — the write paths use it before anything touches disk.
//! [`to_chrome_trace`] renders the retained span events for
//! `chrome://tracing` / Perfetto.

#![forbid(unsafe_code)]

pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod region;
pub mod span;

pub use export::{dump_all_jsonl, render_table, to_chrome_trace, validate_jsonl, METRICS_SCHEMA};
pub use health::{
    bound_history, conclude_solver_health, HealthEvent, HealthEventKind, HealthMonitor,
    DEFAULT_DIVERGENCE_FACTOR, DEFAULT_STALL_WINDOW,
};
pub use json::{Json, JsonError};
pub use metrics::{
    bucket_index, bucket_upper, counter, gauge, histogram, metrics_snapshot, Counter, Gauge,
    Histogram, HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{
    flight_dropped, flight_dump_jsonl, flight_reset, flight_snapshot, global_test_lock,
    record_event, set_span_events, span_dropped, FlightEvent, FLIGHT_CAP, SPAN_CAP,
};
pub use region::{RegionStat, RegionSummary, Snapshot, SCHEMA};
pub use span::{
    record_bytes, record_flops, record_predicted_insts, record_sites, record_wire_bytes, reset,
    snapshot, snapshot_counters, CounterSnapshot, SpanGuard,
};

/// Open a profiling region for the enclosing scope.
///
/// `span!("name")` times the region; `span!("name", &ctx)` additionally
/// attributes the `SveCtx` instruction-counter delta to it. Bind the result
/// (`let _span = span!(...)`) — an unbound guard drops immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::core::option::Option::None)
    };
    ($name:expr, $ctx:expr) => {
        $crate::SpanGuard::enter($name, ::core::option::Option::Some($ctx))
    };
}
