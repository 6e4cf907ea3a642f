//! The harness's own in-memory span recorder.
//!
//! Spans are opened and closed (`Harness::scope`) on the harness thread
//! around calls into the stack, kept in memory, and written out as Chrome-trace JSON when the run
//! ends. A disabled recorder does nothing, which is how the untraced run and
//! the untraced half of the overhead measurement execute.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

pub struct Recorder {
    enabled: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// While paused, scopes run without being recorded. This is how the
    /// traced run times the untraced half of its overhead measurement.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span called `name`, a child of whichever span is open now.
    /// Returns what [`Recorder::exit`] needs to close it: `None` when the
    /// recorder is off or paused and nothing was recorded.
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.enabled || self.paused {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span [`Recorder::enter`] opened.
    pub fn exit(&mut self, span: Option<usize>) {
        let Some(idx) = span else { return };
        let closed = self.open.pop();
        assert_eq!(closed, Some(idx), "spans close in the order they opened");
        self.spans[idx].end_ns = Some(self.now_ns());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Check the accounting the trace is read by: every span is closed, a
    /// child lies inside its parent, and the children of one parent sum to
    /// no more than the parent (so every self time is non-negative).
    pub fn check(&self) -> Result<(), String> {
        check_spans(&self.spans)
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete `X`
    /// event per span, microsecond timestamps, `args.self_us` carrying the
    /// span's self time.
    pub fn chrome_trace(&self, process_name: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            crate::spec::json_string(process_name)
        );
        for (s, self_ns) in self.spans.iter().zip(&self_ns) {
            let end = s.end_ns.unwrap_or(s.start_ns);
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3}}}}}",
                crate::spec::json_string(&s.name),
                s.start_ns as f64 / 1e3,
                (end - s.start_ns) as f64 / 1e3,
                *self_ns as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part its children cover.
/// Saturates at zero; [`check_spans`] is what reports an overrun.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let dur = |s: &Span| s.end_ns.unwrap_or(s.start_ns).saturating_sub(s.start_ns);
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += dur(s);
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, c)| dur(s).saturating_sub(c))
        .collect()
}

pub fn check_spans(spans: &[Span]) -> Result<(), String> {
    let mut child_sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let end = s
            .end_ns
            .ok_or_else(|| format!("span `{}` was never closed", s.name))?;
        if end < s.start_ns {
            return Err(format!("span `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            if p >= i {
                return Err(format!("span `{}` names a later span as parent", s.name));
            }
            let parent = &spans[p];
            let parent_end = parent
                .end_ns
                .ok_or_else(|| format!("span `{}` was never closed", parent.name))?;
            if s.start_ns < parent.start_ns || end > parent_end {
                return Err(format!(
                    "span `{}` is not inside its parent `{}`",
                    s.name, parent.name
                ));
            }
            child_sum[p] += end - s.start_ns;
        }
    }
    for (s, c) in spans.iter().zip(child_sum) {
        let dur = s.end_ns.unwrap_or(s.start_ns) - s.start_ns;
        if c > dur {
            return Err(format!(
                "children of `{}` sum to {c} ns, more than its {dur} ns",
                s.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(r: &mut Recorder, name: &str, f: impl FnOnce(&mut Recorder)) {
        let span = r.enter(name);
        f(r);
        r.exit(span);
    }

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: Some(end),
            parent,
        }
    }

    #[test]
    fn nested_scopes_record_parents_and_pass_the_check() {
        let mut r = Recorder::new(true);
        scope(&mut r, "root", |r| {
            scope(r, "a", |r| scope(r, "a.1", |_| ()));
            scope(r, "b", |_| ());
        });
        let names: Vec<_> = r.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "a.1", "b"]);
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        r.check().unwrap();
        assert!(r.chrome_trace("t").contains("\"name\":\"a.1\""));
    }

    #[test]
    fn disabled_or_paused_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        scope(&mut r, "x", |_| ());
        assert!(r.spans().is_empty());
        let mut r = Recorder::new(true);
        scope(&mut r, "root", |r| {
            r.set_paused(true);
            scope(r, "hidden", |_| ());
            r.set_paused(false);
            scope(r, "seen", |_| ());
        });
        let names: Vec<_> = r.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "seen"]);
    }

    #[test]
    fn self_time_is_duration_minus_children_and_never_negative() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.1", 60, 70, Some(2)),
        ];
        check_spans(&spans).unwrap();
        assert_eq!(self_times(&spans), [30, 30, 30, 10]);
    }

    #[test]
    fn child_sum_over_parent_is_reported() {
        // Overlapping siblings: each lies inside the parent, together they
        // cover more than it.
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 80, Some(0)),
            span("b", 20, 100, Some(0)),
        ];
        assert!(check_spans(&spans)
            .unwrap_err()
            .contains("children of `root`"));
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn child_outside_parent_and_open_span_are_reported() {
        let spans = [span("root", 10, 20, None), span("a", 5, 15, Some(0))];
        assert!(check_spans(&spans).unwrap_err().contains("not inside"));
        let mut open = span("root", 0, 0, None);
        open.end_ns = None;
        assert!(check_spans(&[open]).unwrap_err().contains("never closed"));
    }
}
