//! The distributed solve path's steady state performs **zero heap
//! allocations** — the multi-rank extension of `alloc_free.rs`.
//!
//! One overlapped normal-operator application plus one canonical global
//! reduction touches every comms mechanism: face packing, `HaloMsg`
//! encode-into-shell (the recycled-shell pool), bounded-channel send/recv,
//! `decode_into` the pre-registered halo buffers, and the ring allgather
//! circulating reduction slabs. After a warm-up that fills the shell pool,
//! ten such sweeps must leave the global allocation counter untouched on
//! every rank simultaneously.
//!
//! Telemetry detail (per-face spans, flight events) is disabled: those are
//! debugging surfaces and allocate by design. The guarantee is for the
//! serial sweep path, so the test pins one rayon worker; ranks themselves
//! are scoped threads spawned once, outside the measured region. The
//! allocator is process-global, hence this file is its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use grid::prelude::*;

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Warm, barrier, measure `iters` overlapped `M†M` + canonical-norm
/// sweeps, barrier, and return the counter delta observed by this rank.
fn measured_sweeps(
    dw: &DistWilson,
    ws: &mut DistWorkspace,
    psi: &FermionField,
    out: &mut FermionField,
) -> u64 {
    for _ in 0..3 {
        dw.mdag_m_into(psi, ws, out);
        let _ = dw.canon_norm2(out, ws);
    }
    // All ranks finish warm-up (shell pools filled, halo buffers sized)
    // before anyone snapshots the process-global counter: a reduction on
    // the rank grid is a collective, so it is a barrier.
    let _ = psi.norm2();
    let before = allocations();
    for _ in 0..10 {
        dw.mdag_m_into(psi, ws, out);
        let _ = dw.canon_norm2(out, ws);
    }
    // All ranks leave the measured region before the counter is read.
    let _ = psi.norm2();
    allocations() - before
}

#[test]
fn distributed_steady_state_allocates_nothing() {
    rayon::set_num_threads(1);
    const GLOBAL: [usize; 4] = [4, 4, 4, 8];
    for compression in [Compression::None, Compression::F16] {
        let deltas = run_multinode_grid(
            GLOBAL,
            [1, 1, 1, 2],
            VectorLength::of(512),
            SimdBackend::Fcmla,
            |ctx| {
                ctx.set_detail_spans(false);
                let g = Grid::new(GLOBAL, VectorLength::of(512), SimdBackend::Fcmla);
                let u = restrict_field(ctx, &random_gauge(g.clone(), 51));
                let psi = restrict_field(ctx, &FermionField::random(g, 52));
                let dw = DistWilson::new(ctx, u, 0.2, GaugeWire::TwoRow, compression);
                let mut ws = DistWorkspace::new(&dw);
                let mut out = FermionField::zero(ctx.grid.clone());
                measured_sweeps(&dw, &mut ws, &psi, &mut out)
            },
        );
        for (rank, delta) in deltas.iter().enumerate() {
            assert_eq!(
                *delta, 0,
                "rank {rank} steady state performed {delta} allocations ({compression:?})"
            );
        }
    }
    rayon::set_num_threads(0);
}
