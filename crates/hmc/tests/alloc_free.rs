//! Proof that a steady-state HMC trajectory allocates no field.
//!
//! A counting global allocator wraps `System` and tallies allocations,
//! their bytes, and those of 4 KiB or more — at 4⁴ a single colour matrix
//! field is 18 KiB, so any temporary field, shifted copy or stencil table
//! lands in the last tally. After two warm-up trajectories (span paths,
//! metric registrations and the histories' first growth), six `step()`s
//! must make no large allocation and allocate under 64 KiB in total: the
//! chain keeps its stencil, candidate links and momenta across
//! trajectories, and the force sweep adds its kick into the momenta.
//!
//! The guarantee is for the serial sweep path (`rayon` worker spawning
//! allocates thread stacks by design), so the test pins one worker. The
//! allocator is process-global and parallel test threads would pollute
//! the measurement window, hence this file is a single test in its own
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use grid::prelude::*;
use qcd_hmc::{force, HmcParams, IntegratorKind, MarkovChain};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicU64 = AtomicU64::new(0);

/// Allocations of at least this many bytes count as large.
const LARGE_BYTES: usize = 4096;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE_BYTES {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, bytes, large allocations)` so far.
fn tally() -> [u64; 3] {
    [&ALLOCATIONS, &BYTES, &LARGE].map(|c| c.load(Ordering::SeqCst))
}

/// What `f` allocated: `(allocations, bytes, large allocations)`.
fn allocated_by(f: impl FnOnce()) -> [u64; 3] {
    let before = tally();
    f();
    let after = tally();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn steady_state_trajectories_allocate_no_field() {
    rayon::set_num_threads(1);
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let params = HmcParams {
        beta: 5.7,
        n_steps: 8,
        step_size: 0.0625,
        integrator: IntegratorKind::Omelyan,
    };
    let mut chain = MarkovChain::cold_start(g, params, 11);
    chain.thermalize(2);

    let [n, bytes, large] = allocated_by(|| {
        for _ in 0..6 {
            chain.step();
        }
    });
    let [fn_, fbytes, flarge] = allocated_by(|| drop(force(chain.links(), params.beta)));
    eprintln!(
        "six trajectories: {n} allocations, {bytes} B, {large} of ≥ {LARGE_BYTES} B; \
         one force(): {fn_} allocations, {fbytes} B, {flarge} large"
    );
    assert_eq!(large, 0, "six trajectories made {large} large allocations");
    assert!(bytes < 64 * 1024, "six trajectories allocated {bytes} B");
    rayon::set_num_threads(0);
}
