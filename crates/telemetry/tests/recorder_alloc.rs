//! The flight recorder allocates once, at its first event, and never again;
//! a span allocates the first time its path is seen, and never again.
//!
//! A counting global allocator wraps `System`; after one warm-up event
//! (which allocates the ring and initialises the epoch), 10 000 more — more
//! than the ring holds, so eviction runs too — must leave the allocation
//! counter untouched, and so must 10 000 nested span enter/close pairs after
//! one warm-up visit of each path, with span events off and on. Only the
//! test's own thread is counted: the test is short enough that libtest's
//! main thread is still doing its bookkeeping when the first window opens
//! (on a loaded host that was 4 allocations, one run in ten).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use qcd_trace::{
    flight_dropped, flight_reset, flight_snapshot, record_event, set_span_events, span,
    span_dropped, FLIGHT_CAP, SPAN_CAP,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `pairs` rounds of an outer span around two inner ones.
fn nested_spans(pairs: usize) {
    for _ in 0..pairs {
        let _outer = span!("alloc.outer");
        {
            let _inner = span!("alloc.inner");
            qcd_trace::record_sites(1);
        }
        let _again = span!("alloc.inner.second");
    }
}

#[test]
fn events_and_spans_allocate_nothing_after_their_first() {
    COUNTED.set(true);
    flight_reset();
    record_event("warm-up", "allocates the ring", &[]);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(before > 0, "the ring's own allocation was not counted");
    for i in 0..10_000 {
        // The shape of the ladder's tier-switch events.
        record_event(
            "tier",
            "solver.ladder.switch:f32_to_f16",
            &[
                ("outer", (i / 4) as f64),
                ("cycle", (i % 4) as f64),
                ("rel_residual", 1.0 / (i + 1) as f64),
            ],
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(allocated, 0, "10 000 events allocated {allocated} times");

    // They were recorded, not skipped: the ring is full of the newest.
    let events = flight_snapshot();
    assert_eq!(events.len(), FLIGHT_CAP);
    assert_eq!(flight_dropped(), 10_001 - FLIGHT_CAP as u64);
    let last = events.last().expect("a full ring");
    assert_eq!((last.seq, last.kind.as_str()), (10_000, "tier"));
    assert_eq!(last.data[2], ("rel_residual".to_string(), 1.0e-4));

    // Spans: the warm-up visit grows the thread's frame stack and path
    // buffer, registers the three paths and, with span events on, the three
    // `span.<leaf>` histograms, this thread's ordinal and the span ring.
    for events_on in [false, true] {
        set_span_events(events_on);
        nested_spans(1);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        nested_spans(10_000);
        let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "30 000 span closes allocated {allocated} times (span events on: {events_on})"
        );
    }
    set_span_events(false);
    let snap = qcd_trace::snapshot();
    assert_eq!(snap.region("alloc.outer").unwrap().count, 20_002);
    assert_eq!(
        snap.region("alloc.outer/alloc.inner").unwrap().sites,
        20_002
    );
    // Recorded, not skipped: the span ring turned over, the other did not.
    assert_eq!(span_dropped(), 30_003 - SPAN_CAP as u64);
    assert_eq!(flight_dropped(), 10_001 - FLIGHT_CAP as u64);
    let histograms = qcd_trace::metrics_snapshot().histograms;
    assert_eq!(histograms["span.alloc.inner.second"].count, 10_001);
}
