//! Facade: everything that was `qcd-metrics` is `qcd-trace` now. This crate
//! remains only because stackbench's pinned source (`benchmark/`)
//! path-depends on it for `record_event`; a `[benchmark]` PR that points
//! stackbench at `qcd_trace::record_event` removes it.

pub use qcd_trace::record_event;
