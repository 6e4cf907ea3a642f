//! RAII region spans, thread-local frame stacks, and the global registry.
//!
//! Every thread keeps its own stack of open frames, so instrumented code in
//! rayon-style worker threads never contends on a lock while running. A
//! frame folds into the process-global registry exactly once, when its
//! [`SpanGuard`] drops (or [`SpanGuard::finish`] consumes it), which keeps
//! merged results deterministic regardless of thread scheduling.
//!
//! The path of the innermost open region is the thread's path buffer:
//! entering a span appends `/name` to it and closing truncates it again, so
//! neither allocates once the buffer has held its longest path, and the
//! registry clones a path only the first time it sees it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
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
        Opcode::ALL.map(|op| {
            let now = ctx.counters().get(op);
            now.saturating_sub(self.vals[op as usize])
        })
    }
}

/// One open region on a thread's stack.
struct Frame {
    /// Length of the thread's path buffer before this region's name (and
    /// the `/` before it) went on: what closing the region truncates to.
    parent_len: usize,
    start: Instant,
    /// What the region will fold into the registry, so far: the wall time
    /// of already-finished direct children, instruction deltas attributed
    /// by hand (the context's own delta joins them at close), and the
    /// quantities credited through `record_*`.
    stat: RegionStat,
    /// Inclusive instruction deltas of already-finished children (subtracted
    /// from this frame's own delta so registry counts are exclusive).
    child_insts: [u64; Opcode::COUNT],
}

/// A thread's open regions and the `/`-joined path of the innermost.
struct Stack {
    frames: Vec<Frame>,
    path: String,
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack {
            frames: Vec::new(),
            path: String::new(),
        })
    };
}

static REGISTRY: Mutex<BTreeMap<String, RegionStat>> = Mutex::new(BTreeMap::new());

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
            let parent_len = stack.path.len();
            if !stack.frames.is_empty() {
                stack.path.push('/');
            }
            stack.path.push_str(name);
            stack.frames.push(Frame {
                parent_len,
                start: Instant::now(),
                stat: RegionStat::default(),
                child_insts: [0; Opcode::COUNT],
            });
            stack.frames.len() - 1
        });
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
            let frame = &mut stack.borrow_mut().frames[self.depth];
            for (acc, v) in frame.stat.insts.iter_mut().zip(delta.iter()) {
                *acc += v;
            }
        });
    }

    /// Close the span and return a per-invocation summary (race-free: built
    /// from this frame alone, not the shared registry).
    pub fn finish(mut self) -> RegionSummary {
        // Building the path is the one allocation of a close: only here.
        let path = STACK.with(|stack| stack.borrow().path.clone());
        RegionSummary {
            path,
            ..self.complete()
        }
    }

    /// Close the span; the summary's path is left empty.
    fn complete(&mut self) -> RegionSummary {
        self.done = true;
        let ctx_delta = self
            .ctx
            .and_then(|ctx| self.baseline.as_ref().map(|base| base.delta_to(ctx)));
        STACK.with(|stack| {
            let stack = &mut *stack.borrow_mut();
            assert_eq!(
                stack.frames.len(),
                self.depth + 1,
                "span closed out of order: the region at depth {} of `{}` is not the innermost",
                self.depth,
                stack.path
            );
            let frame = stack.frames.pop().expect("span stack underflow");
            let wall_ns = frame.start.elapsed().as_nanos() as u64;

            // Inclusive delta for this frame: manual adds plus the ctx
            // baseline delta (which itself includes any child activity).
            let mut inclusive = frame.stat.insts;
            if let Some(delta) = &ctx_delta {
                for (acc, v) in inclusive.iter_mut().zip(delta.iter()) {
                    *acc += v;
                }
            }
            // Exclusive = inclusive minus what finished children claimed.
            let mut stat = RegionStat {
                count: 1,
                wall_ns,
                ..frame.stat
            };
            for ((acc, all), children) in
                stat.insts.iter_mut().zip(inclusive).zip(frame.child_insts)
            {
                *acc = all.saturating_sub(children);
            }

            // Propagate to the parent frame before taking the global lock.
            if let Some(parent) = stack.frames.last_mut() {
                parent.stat.child_ns += wall_ns;
                for (acc, v) in parent.child_insts.iter_mut().zip(inclusive.iter()) {
                    *acc += v;
                }
            }

            let path = stack.path.as_str();
            let summary = RegionSummary {
                path: String::new(),
                wall_ns,
                child_ns: stat.child_ns,
                insts: stat.total_insts(),
                fcmla_insts: stat.insts_for(Opcode::Fcmla),
                flops: stat.flops,
                sites: stat.sites,
                bytes_read: stat.bytes_read,
                bytes_written: stat.bytes_written,
                wire_bytes: stat.wire_bytes,
            };
            {
                let mut registry = REGISTRY.lock().unwrap();
                match registry.get_mut(path) {
                    Some(total) => total.merge(&stat),
                    None => {
                        registry.insert(path.to_string(), stat);
                    }
                }
            }
            crate::recorder::span_closed(path, wall_ns);
            stack.path.truncate(frame.parent_len);
            summary
        })
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.complete();
        }
    }
}

fn with_innermost(f: impl FnOnce(&mut RegionStat)) {
    STACK.with(|stack| {
        if let Some(frame) = stack.borrow_mut().frames.last_mut() {
            f(&mut frame.stat);
        }
    });
}

/// Credit `n` floating-point operations to the innermost open region on this
/// thread. No-op outside any span.
pub fn record_flops(n: u64) {
    with_innermost(|stat| stat.flops += n);
}

/// Credit `n` processed lattice sites to the innermost open region.
pub fn record_sites(n: u64) {
    with_innermost(|stat| stat.sites += n);
}

/// Credit field-storage traffic to the innermost open region.
pub fn record_bytes(read: u64, written: u64) {
    with_innermost(|stat| {
        stat.bytes_read += read;
        stat.bytes_written += written;
    });
}

/// Credit post-compression wire traffic to the innermost open region.
pub fn record_wire_bytes(n: u64) {
    with_innermost(|stat| stat.wire_bytes += n);
}

/// Credit `n` paper-predicted instructions to the innermost open region
/// (accumulates, like the measured counters).
pub fn record_predicted_insts(n: u64) {
    with_innermost(|stat| stat.predicted_insts += n);
}

/// Copy the global registry.
pub fn snapshot() -> Snapshot {
    Snapshot {
        regions: REGISTRY.lock().unwrap().clone(),
    }
}

/// Clear the global registry and the retained span events. Open spans are
/// unaffected: they fold into the cleared registry when they close.
pub fn reset() {
    REGISTRY.lock().unwrap().clear();
    crate::recorder::span_reset();
}
