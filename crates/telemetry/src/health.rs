//! Solver health monitoring: a small state machine over the per-iteration
//! relative-residual sequence.
//!
//! The monitor is a pure function of the residual history — replaying a
//! checkpointed history through a fresh monitor reproduces exactly the
//! events the uninterrupted solve would have reported, which is what keeps
//! `SolveReport.health` bit-stable across kill/resume.

use crate::metrics::{counter, histogram};
use crate::recorder::record_event;

/// Default stall window: iterations without a new best relative residual
/// before a [`HealthEventKind::Stall`] fires. Chosen well above the
/// short-range non-monotonicity of CG/BiCGStab on the lattices in this
/// repository, so converging solves report no events.
pub const DEFAULT_STALL_WINDOW: usize = 25;

/// Default divergence factor: a relative residual this many times above the
/// best seen so far fires a [`HealthEventKind::Divergence`].
pub const DEFAULT_DIVERGENCE_FACTOR: f64 = 100.0;

/// What went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEventKind {
    /// No new best relative residual for a full window of iterations.
    Stall,
    /// The relative residual blew up far above the best seen so far.
    Divergence,
    /// A NaN or infinity reached the residual reduction.
    NonFinite,
}

impl HealthEventKind {
    /// Stable lowercase name used in JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            HealthEventKind::Stall => "stall",
            HealthEventKind::Divergence => "divergence",
            HealthEventKind::NonFinite => "non_finite",
        }
    }
}

/// One detected health episode.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// Event class.
    pub kind: HealthEventKind,
    /// Iteration (index into the residual history) at which it fired.
    pub iteration: usize,
    /// Relative residual observed at that iteration.
    pub rel_residual: f64,
}

/// Streaming monitor over a relative-residual sequence. Feed it every
/// history entry in order via [`HealthMonitor::observe`]; episodes are
/// de-duplicated, so a 300-iteration stall yields one event, not 275.
pub struct HealthMonitor {
    label: String,
    stall_window: usize,
    divergence_factor: f64,
    best: f64,
    best_iteration: usize,
    iteration: usize,
    in_stall: bool,
    in_divergence: bool,
    in_non_finite: bool,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// Monitor with the default thresholds. `label` names the solve in
    /// flight-recorder events (e.g. `solver.cg`, `solver.block_cg[3]`).
    pub fn new(label: &str) -> Self {
        Self::with_thresholds(label, DEFAULT_STALL_WINDOW, DEFAULT_DIVERGENCE_FACTOR)
    }

    /// Monitor with explicit thresholds.
    pub fn with_thresholds(label: &str, stall_window: usize, divergence_factor: f64) -> Self {
        assert!(stall_window > 0, "stall window must be positive");
        HealthMonitor {
            label: label.to_string(),
            stall_window,
            divergence_factor,
            best: f64::INFINITY,
            best_iteration: 0,
            iteration: 0,
            in_stall: false,
            in_divergence: false,
            in_non_finite: false,
            events: Vec::new(),
        }
    }

    /// Feed the next relative residual (history entry `iteration`).
    pub fn observe(&mut self, rel_residual: f64) {
        let iteration = self.iteration;
        self.iteration += 1;
        if !rel_residual.is_finite() {
            if !self.in_non_finite {
                self.in_non_finite = true;
                self.push(HealthEventKind::NonFinite, iteration, rel_residual);
            }
            return;
        }
        self.in_non_finite = false;
        if rel_residual < self.best {
            self.best = rel_residual;
            self.best_iteration = iteration;
            self.in_stall = false;
            self.in_divergence = false;
            return;
        }
        if rel_residual > self.divergence_factor * self.best && !self.in_divergence {
            self.in_divergence = true;
            self.push(HealthEventKind::Divergence, iteration, rel_residual);
        }
        if iteration - self.best_iteration >= self.stall_window && !self.in_stall {
            self.in_stall = true;
            self.push(HealthEventKind::Stall, iteration, rel_residual);
        }
    }

    fn push(&mut self, kind: HealthEventKind, iteration: usize, rel_residual: f64) {
        record_event(
            "health",
            &format!("{}:{}", self.label, kind.name()),
            &[
                ("iteration", iteration as f64),
                ("rel_residual", rel_residual),
            ],
        );
        counter("health.events").inc();
        self.events.push(HealthEvent {
            kind,
            iteration,
            rel_residual,
        });
    }

    /// Feed a whole (checkpointed) history prefix in order.
    pub fn replay(&mut self, history: &[f64]) {
        for &rel in history {
            self.observe(rel);
        }
    }

    /// Events detected so far.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Consume the monitor, returning its events.
    pub fn into_events(self) -> Vec<HealthEvent> {
        self.events
    }
}

/// Finish a solve's health bookkeeping in one call: cap the reported
/// residual history with [`bound_history`] (keeping every health-flagged
/// iteration), feed the `<region>.iterations` histogram and the global
/// `solver.solves` counter, and drain the monitor into its typed event
/// list. Every solver concludes through here — `grid`'s one Krylov driver
/// (`krylov::cg_solve` and `krylov::bicgstab`, whatever the space: field,
/// block, 5-d, rank-local, deflated, coarse-preconditioned) — so
/// solve-level metrics stay uniform across subsystems. The monitor must have observed every entry
/// of `history` (restored prefix replayed, new entries live), so a resumed
/// solve reports exactly what the uninterrupted one would.
pub fn conclude_solver_health(
    region: &str,
    monitor: HealthMonitor,
    history: &[f64],
    iterations: usize,
    cap: usize,
) -> (Vec<f64>, Vec<HealthEvent>) {
    let flagged: Vec<usize> = monitor.events.iter().map(|e| e.iteration).collect();
    let (capped, _kept) = bound_history(history, &flagged, cap);
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

    fn events_of(history: &[f64]) -> Vec<HealthEvent> {
        let mut m = HealthMonitor::with_thresholds("test", 5, 100.0);
        m.replay(history);
        m.into_events()
    }

    #[test]
    fn a_converging_history_is_healthy() {
        let history: Vec<f64> = (0..40).map(|i| 1.0 / (1.5f64.powi(i))).collect();
        assert!(events_of(&history).is_empty());
    }

    #[test]
    fn a_plateau_fires_exactly_one_stall() {
        let mut history = vec![1.0, 0.5, 0.25];
        history.extend_from_slice(&[0.3; 20]);
        let events = events_of(&history);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, HealthEventKind::Stall);
        // Best was at index 2; window 5 → fires at index 7.
        assert_eq!(events[0].iteration, 7);
    }

    #[test]
    fn progress_after_a_stall_rearms_the_detector() {
        let mut history = vec![1.0];
        history.extend_from_slice(&[0.9; 6]); // stall #1
        history.push(0.1); // recovery
        history.extend_from_slice(&[0.09; 6]); // stall #2
        let events = events_of(&history);
        let stalls = events
            .iter()
            .filter(|e| e.kind == HealthEventKind::Stall)
            .count();
        assert_eq!(stalls, 2);
    }

    #[test]
    fn divergence_and_non_finite_are_typed() {
        let events = events_of(&[1.0, 0.5, 900.0, f64::NAN, f64::NAN]);
        assert_eq!(events[0].kind, HealthEventKind::Divergence);
        assert_eq!(events[0].iteration, 2);
        let nans: Vec<_> = events
            .iter()
            .filter(|e| e.kind == HealthEventKind::NonFinite)
            .collect();
        assert_eq!(nans.len(), 1, "consecutive NaNs dedupe to one event");
        assert_eq!(nans[0].iteration, 3);
    }

    #[test]
    fn replay_equals_streaming() {
        let history = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.01, f64::INFINITY];
        let mut streamed = HealthMonitor::with_thresholds("s", 3, 10.0);
        for &r in &history {
            streamed.observe(r);
        }
        let mut replayed = HealthMonitor::with_thresholds("s", 3, 10.0);
        replayed.replay(&history);
        assert_eq!(streamed.events(), replayed.events());
    }

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
}
