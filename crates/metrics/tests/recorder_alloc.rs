//! The flight recorder allocates once, at its first event, and never again.
//!
//! A counting global allocator wraps `System`; after one warm-up event
//! (which allocates the ring and initialises the epoch), 10 000 more — more
//! than the ring holds, so eviction runs too — must leave the allocation
//! counter untouched. The allocator is process-global and parallel test
//! threads would pollute the measurement window, hence this file is a
//! single test in its own binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qcd_metrics::{flight_dropped, flight_reset, flight_snapshot, record_event, FLIGHT_CAP};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn recording_an_event_allocates_nothing_after_the_first() {
    flight_reset();
    record_event("warm-up", "allocates the ring", &[]);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
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
}
