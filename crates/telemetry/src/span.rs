//! RAII region spans, thread-local frame stacks, and the global registry.
//!
//! Every thread keeps its own stack of open frames, so instrumented code in
//! rayon-style worker threads never contends on a lock while running. A
//! frame folds into the process-global registry exactly once, when its
//! [`SpanGuard`] drops (or [`SpanGuard::finish`] consumes it), which keeps
//! merged results deterministic regardless of thread scheduling.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sve::{Opcode, SveCtx};

use crate::region::{RegionStat, RegionSummary, Snapshot};

/// A point-in-time copy of an `SveCtx`'s per-opcode counters, for manual
/// attribution with [`SpanGuard::add_counters_since`] when holding `&SveCtx`
/// across the instrumented call is impossible (e.g. the context lives inside
/// a machine passed by `&mut`).
#[derive(Clone, Copy, Debug)]
pub struct CounterSnapshot {
    vals: [u64; Opcode::COUNT],
}

/// Capture the current counter values of `ctx`.
pub fn snapshot_counters(ctx: &SveCtx) -> CounterSnapshot {
    CounterSnapshot {
        vals: Opcode::ALL.map(|op| ctx.counters().get(op)),
    }
}

impl CounterSnapshot {
    /// Per-opcode difference `now - self` (saturating).
    fn delta_to(&self, ctx: &SveCtx) -> [u64; Opcode::COUNT] {
        let mut out = [0u64; Opcode::COUNT];
        for op in Opcode::ALL {
            out[op as usize] = ctx
                .counters()
                .get(op)
                .saturating_sub(self.vals[op as usize]);
        }
        out
    }
}

/// One open region on a thread's stack.
struct Frame {
    path: String,
    start: Instant,
    /// Wall time of already-finished direct children.
    child_ns: u64,
    /// Inclusive instruction deltas of already-finished children (subtracted
    /// from this frame's own delta so registry counts are exclusive).
    child_insts: [u64; Opcode::COUNT],
    /// Instruction deltas attributed to this frame so far (manual adds).
    own_insts: [u64; Opcode::COUNT],
    flops: u64,
    sites: u64,
    bytes_read: u64,
    bytes_written: u64,
    wire_bytes: u64,
    predicted_insts: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static Mutex<BTreeMap<String, RegionStat>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, RegionStat>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A completed-span event for Chrome `trace_event` export. The span path is
/// an index into [`TraceLog::paths`]: an event costs 16 bytes and no
/// allocation, so what a run retains grows by the spans it closes, not by
/// the length of their names. Durations saturate at `u32::MAX` (71 minutes
/// for one span) and thread ordinals at `u16::MAX`; a span on a path beyond
/// the first 65 536 distinct ones is not logged.
struct TraceEvent {
    start_us: u64,
    dur_us: u32,
    path: u16,
    tid: u16,
}

/// Events per block of the log: 64 KiB, so a full log is 25 blocks.
const TRACE_BLOCK_EVENTS: usize = 4096;

/// Trace-event log, bounded so long solver runs cannot grow without limit.
/// Spans are logged in untraced runs too, so the log's footprint is part of
/// every process's peak memory: events go into fixed-size blocks that are
/// never reallocated, and a faster run that closes more spans pays for them
/// one block at a time.
#[derive(Default)]
pub(crate) struct TraceLog {
    /// Distinct span paths in order of first appearance.
    paths: Vec<String>,
    path_ids: BTreeMap<String, u16>,
    /// Every block but the last holds `TRACE_BLOCK_EVENTS` events.
    blocks: Vec<Vec<TraceEvent>>,
}

impl TraceLog {
    fn len(&self) -> usize {
        match self.blocks.split_last() {
            Some((last, full)) => full.len() * TRACE_BLOCK_EVENTS + last.len(),
            None => 0,
        }
    }

    fn push(&mut self, path: &str, start_us: u64, dur_us: u64, tid: u64) {
        if self.len() >= TRACE_EVENT_CAP {
            return;
        }
        let path = match self.path_ids.get(path) {
            Some(&id) => id,
            None => {
                let Ok(id) = u16::try_from(self.paths.len()) else {
                    return;
                };
                self.paths.push(path.to_string());
                self.path_ids.insert(path.to_string(), id);
                id
            }
        };
        if self
            .blocks
            .last()
            .is_none_or(|b| b.len() == TRACE_BLOCK_EVENTS)
        {
            self.blocks.push(Vec::with_capacity(TRACE_BLOCK_EVENTS));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.push(TraceEvent {
            start_us,
            dur_us: u32::try_from(dur_us).unwrap_or(u32::MAX),
            path,
            tid: u16::try_from(tid).unwrap_or(u16::MAX),
        });
    }

    /// `(path, start_us, dur_us, tid)` of every retained event, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = (&str, u64, u64, u64)> {
        self.blocks.iter().flatten().map(|e| {
            (
                self.paths[e.path as usize].as_str(),
                e.start_us,
                u64::from(e.dur_us),
                u64::from(e.tid),
            )
        })
    }
}

pub(crate) fn trace_log() -> &'static Mutex<TraceLog> {
    static LOG: OnceLock<Mutex<TraceLog>> = OnceLock::new();
    LOG.get_or_init(Mutex::default)
}

/// Hard cap on retained trace events; later events are dropped, not rotated,
/// so the retained prefix stays a faithful start-of-run timeline.
pub(crate) const TRACE_EVENT_CAP: usize = 100_000;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_names() -> &'static Mutex<BTreeMap<u64, String>> {
    static NAMES: OnceLock<Mutex<BTreeMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // Registering the thread's name at ordinal assignment guarantees
        // every tid that ever appears in the trace log has a name.
        static ORDINAL: u64 = {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{n}"));
            thread_names().lock().unwrap().insert(n, name);
            n
        };
    }
    ORDINAL.with(|t| *t)
}

/// Names of every thread that has closed a span, keyed by the `tid` used in
/// the trace log. Unnamed threads get `thread-<ordinal>`. Survives
/// [`reset`] — ordinals are process-lifetime identities.
pub fn thread_name_map() -> BTreeMap<u64, String> {
    thread_names().lock().unwrap().clone()
}

/// A completed span as seen by the registered observer: the full region
/// path, its inclusive wall time, and the closing thread's trace ordinal.
#[derive(Clone, Debug)]
pub struct SpanClose {
    /// Full `/`-joined region path.
    pub path: String,
    /// Inclusive wall time of the span.
    pub wall_ns: u64,
    /// Trace-log thread ordinal (see [`thread_name_map`]).
    pub tid: u64,
}

/// Observer callback type: called after every span close, outside all
/// internal locks. The callback must not open spans.
pub type SpanObserver = Arc<dyn Fn(&SpanClose) + Send + Sync>;

static OBSERVER_ACTIVE: AtomicBool = AtomicBool::new(false);

fn observer_slot() -> &'static Mutex<Option<SpanObserver>> {
    static OBSERVER: OnceLock<Mutex<Option<SpanObserver>>> = OnceLock::new();
    OBSERVER.get_or_init(|| Mutex::new(None))
}

/// Install (or with `None`, remove) the global span observer. The fast path
/// of a span close checks one relaxed atomic, so an uninstalled observer
/// costs nothing measurable.
pub fn set_span_observer(observer: Option<SpanObserver>) {
    let mut slot = observer_slot().lock().unwrap();
    OBSERVER_ACTIVE.store(observer.is_some(), Ordering::Release);
    *slot = observer;
}

fn notify_observer(close: &SpanClose) {
    if !OBSERVER_ACTIVE.load(Ordering::Acquire) {
        return;
    }
    // Clone the Arc under the lock, call outside it, so a slow observer
    // never blocks installation/removal from other threads.
    let observer = observer_slot().lock().unwrap().clone();
    if let Some(observer) = observer {
        observer(close);
    }
}

/// An open profiling region. Created by [`crate::span!`] or
/// [`SpanGuard::enter`]; folds its measurements into the global registry when
/// dropped or [`finish`](SpanGuard::finish)ed.
#[must_use = "a span measures nothing unless it is held"]
pub struct SpanGuard<'a> {
    /// Index of this guard's frame in the thread-local stack; used to detect
    /// out-of-order drops (which would corrupt parent/child attribution).
    depth: usize,
    ctx: Option<&'a SveCtx>,
    baseline: Option<CounterSnapshot>,
    done: bool,
}

impl<'a> SpanGuard<'a> {
    /// Open a region named `name` nested under the innermost open region on
    /// this thread (if any). With `Some(ctx)`, the guard snapshots the
    /// context's instruction counters and attributes the delta to the region
    /// when it closes.
    pub fn enter(name: &str, ctx: Option<&'a SveCtx>) -> SpanGuard<'a> {
        let depth = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{name}", parent.path),
                None => name.to_string(),
            };
            stack.push(Frame {
                path,
                start: Instant::now(),
                child_ns: 0,
                child_insts: [0; Opcode::COUNT],
                own_insts: [0; Opcode::COUNT],
                flops: 0,
                sites: 0,
                bytes_read: 0,
                bytes_written: 0,
                wire_bytes: 0,
                predicted_insts: 0,
            });
            stack.len() - 1
        });
        // Touch the epoch so trace timestamps are monotone from first span.
        epoch();
        SpanGuard {
            depth,
            ctx,
            baseline: ctx.map(snapshot_counters),
            done: false,
        }
    }

    /// Attribute `now - base` of `ctx`'s counters to this span. For call
    /// sites that cannot keep `&SveCtx` borrowed across the measured call.
    pub fn add_counters_since(&mut self, ctx: &SveCtx, base: &CounterSnapshot) {
        let delta = base.delta_to(ctx);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = &mut stack[self.depth];
            for (acc, v) in frame.own_insts.iter_mut().zip(delta.iter()) {
                *acc += v;
            }
        });
    }

    /// Close the span and return a per-invocation summary (race-free: built
    /// from this frame alone, not the shared registry).
    pub fn finish(mut self) -> RegionSummary {
        self.complete()
    }

    fn complete(&mut self) -> RegionSummary {
        self.done = true;
        let ctx_delta = self
            .ctx
            .and_then(|ctx| self.baseline.as_ref().map(|base| base.delta_to(ctx)));
        let (summary, close) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            assert_eq!(
                stack.len(),
                self.depth + 1,
                "span closed out of order: `{}` is not the innermost open region",
                stack[self.depth].path
            );
            let frame = stack.pop().expect("span stack underflow");
            let wall_ns = frame.start.elapsed().as_nanos() as u64;

            // Inclusive delta for this frame: manual adds plus the ctx
            // baseline delta (which itself includes any child activity).
            let mut inclusive = frame.own_insts;
            if let Some(delta) = &ctx_delta {
                for (acc, v) in inclusive.iter_mut().zip(delta.iter()) {
                    *acc += v;
                }
            }
            // Exclusive = inclusive minus what finished children claimed.
            let mut exclusive = inclusive;
            for (acc, v) in exclusive.iter_mut().zip(frame.child_insts.iter()) {
                *acc = acc.saturating_sub(*v);
            }

            let summary = RegionSummary {
                path: frame.path.clone(),
                wall_ns,
                child_ns: frame.child_ns,
                insts: exclusive.iter().sum(),
                fcmla_insts: exclusive[Opcode::Fcmla as usize],
                flops: frame.flops,
                sites: frame.sites,
                bytes_read: frame.bytes_read,
                bytes_written: frame.bytes_written,
                wire_bytes: frame.wire_bytes,
            };

            // Propagate to the parent frame before taking the global lock.
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += wall_ns;
                for (acc, v) in parent.child_insts.iter_mut().zip(inclusive.iter()) {
                    *acc += v;
                }
            }

            let contribution = RegionStat {
                count: 1,
                wall_ns,
                child_ns: frame.child_ns,
                insts: exclusive,
                flops: frame.flops,
                sites: frame.sites,
                bytes_read: frame.bytes_read,
                bytes_written: frame.bytes_written,
                wire_bytes: frame.wire_bytes,
                predicted_insts: frame.predicted_insts,
            };
            registry()
                .lock()
                .unwrap()
                .entry(frame.path.clone())
                .or_default()
                .merge(&contribution);

            let start_us = frame.start.saturating_duration_since(epoch()).as_micros() as u64;
            let tid = thread_ordinal();
            trace_log()
                .lock()
                .unwrap()
                .push(&frame.path, start_us, wall_ns / 1_000, tid);

            let close = SpanClose {
                path: frame.path,
                wall_ns,
                tid,
            };
            (summary, close)
        });
        // Outside the thread-local borrow and all internal locks.
        notify_observer(&close);
        summary
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.complete();
        }
    }
}

fn with_innermost(f: impl FnOnce(&mut Frame)) {
    STACK.with(|stack| {
        if let Some(frame) = stack.borrow_mut().last_mut() {
            f(frame);
        }
    });
}

/// Credit `n` floating-point operations to the innermost open region on this
/// thread. No-op outside any span.
pub fn record_flops(n: u64) {
    with_innermost(|frame| frame.flops += n);
}

/// Credit `n` processed lattice sites to the innermost open region.
pub fn record_sites(n: u64) {
    with_innermost(|frame| frame.sites += n);
}

/// Credit field-storage traffic to the innermost open region.
pub fn record_bytes(read: u64, written: u64) {
    with_innermost(|frame| {
        frame.bytes_read += read;
        frame.bytes_written += written;
    });
}

/// Credit post-compression wire traffic to the innermost open region.
pub fn record_wire_bytes(n: u64) {
    with_innermost(|frame| frame.wire_bytes += n);
}

/// Credit `n` paper-predicted instructions to the innermost open region
/// (accumulates, like the measured counters).
pub fn record_predicted_insts(n: u64) {
    with_innermost(|frame| frame.predicted_insts += n);
}

/// Copy the global registry.
pub fn snapshot() -> Snapshot {
    Snapshot {
        regions: registry().lock().unwrap().clone(),
    }
}

/// Clear the global registry and the trace-event log. Open spans are
/// unaffected: they fold into the cleared registry when they close.
pub fn reset() {
    registry().lock().unwrap().clear();
    *trace_log().lock().unwrap() = TraceLog::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_log_keeps_a_capped_prefix_in_fixed_blocks() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
        let mut log = TraceLog::default();
        for i in 0..TRACE_EVENT_CAP as u64 + 10 {
            log.push(if i % 2 == 0 { "a" } else { "a/b" }, i, 7, 3);
        }
        assert_eq!(log.len(), TRACE_EVENT_CAP);
        assert_eq!(
            log.blocks.len(),
            TRACE_EVENT_CAP.div_ceil(TRACE_BLOCK_EVENTS)
        );
        assert!(log
            .blocks
            .iter()
            .all(|b| b.capacity() == TRACE_BLOCK_EVENTS));
        assert_eq!(log.paths, ["a", "a/b"]);
        // Oldest first, later events dropped.
        let starts: Vec<u64> = log.events().map(|(_, start, _, _)| start).collect();
        assert!(starts.iter().copied().eq(0..TRACE_EVENT_CAP as u64));
        let (path, _, dur, tid) = log.events().nth(TRACE_BLOCK_EVENTS + 1).unwrap();
        assert_eq!((path, dur, tid), ("a/b", 7, 3));
    }

    #[test]
    fn trace_event_durations_and_thread_ordinals_saturate() {
        let mut log = TraceLog::default();
        log.push("a", 5, u64::MAX, u64::MAX);
        log.push("a", 6, u64::from(u32::MAX) - 1, 2);
        let got: Vec<_> = log.events().collect();
        assert_eq!(got[0], ("a", 5, u64::from(u32::MAX), u64::from(u16::MAX)));
        assert_eq!(got[1], ("a", 6, u64::from(u32::MAX) - 1, 2));
    }

    #[test]
    fn spans_on_paths_beyond_the_id_space_are_not_logged() {
        let mut log = TraceLog::default();
        for i in 0..=u32::from(u16::MAX) + 1 {
            log.push(&format!("p{i}"), 0, 1, 1);
        }
        assert_eq!(log.len(), usize::from(u16::MAX) + 1);
        log.push("p0", 9, 1, 1);
        assert_eq!(log.events().last().map(|e| (e.0, e.1)), Some(("p0", 9)));
    }
}
