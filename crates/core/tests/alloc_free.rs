//! Proof that the solvers' steady state performs **zero heap allocations**.
//!
//! A counting global allocator wraps `System`; after a warm-up (which may
//! grow the residual-history vector to its reserved capacity), a block of
//! `krylov::cg_step` iterations must leave the allocation counter untouched
//! — in the fused-layout, canonical and 5-d spaces — as must BiCGStab's
//! `step_ws` on `apply_into` and all six precision-pair directions of
//! `to_precision_into` (f64/f32/f16, both ways) into preallocated
//! destinations. The block space is held to its kernels' own floor: the
//! batched sweeps return their per-RHS scalars as `Vec`s, and the driver
//! must add nothing on top (it owns `α`, `β`, the mask and the curvature).
//!
//! The guarantee is for the serial sweep path (`rayon` worker spawning
//! allocates thread stacks by design), so the test pins one worker. The
//! allocator is process-global and parallel test threads would pollute
//! the measurement window, hence this file is a single test in its own
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use grid::field::FermionKind;
use grid::krylov::{
    cg_step, Canonical, CgSpace, Layout as LayoutSpace, Recurrence, Scratch, State,
};
use grid::prelude::*;
use sve::F16;

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

/// Allocations of ten steady-state `cg_step`s in `space`, after three
/// warm-up steps. The state must not converge inside the window.
fn ten_steps<S: CgSpace, St: Recurrence<V = S::V>>(space: &mut S, state: &mut St) -> u64 {
    let mut scratch = Scratch::new(&*state.parts().x);
    for history in state.parts().histories.iter_mut() {
        history.reserve(64);
    }
    for _ in 0..3 {
        let _ = cg_step(space, state, &mut scratch, 1e-30, 64); // warm-up
    }
    let before = allocations();
    for _ in 0..10 {
        assert!(
            cg_step(space, state, &mut scratch, 1e-30, 64).is_continue(),
            "test lattice converged too fast"
        );
    }
    allocations() - before
}

#[test]
fn solver_steady_state_allocates_nothing() {
    rayon::set_num_threads(1);
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 51);
    let d = WilsonDirac::new(u, 0.2);
    let b = FermionField::random(g.clone(), 52);

    // --- CG in the fused-layout space --------------------------------
    let mut ws = SolverWorkspace::new(g.clone());
    let mut fused = LayoutSpace::new(|p: &FermionField, ap: &mut FermionField, c: &mut [f64]| {
        c[0] = d.mdag_m_into_dot(p, &mut ws.tmp, ap);
    });
    let delta = ten_steps(&mut fused, &mut CgState::new(&b));
    assert_eq!(delta, 0, "CG steady state performed {delta} allocations");

    // --- CG in the canonical space: the scatter buffer is the space's --
    let mut buf = vec![0.0; g.volume()];
    let mut canonical = Canonical::new(&d, &mut ws.hop, &mut buf);
    let delta = ten_steps(&mut canonical, &mut CgState::new(&b));
    assert_eq!(delta, 0, "canonical CG performed {delta} allocations");

    // --- CG on the 5-d domain-wall normal operator ---------------------
    let dwf = DomainWall::new(random_gauge(g.clone(), 54), 4, 1.8, 0.04);
    let b5 = Fermion5::random(g.clone(), 4, 55);
    let mut tmp5 = Fermion5::zero(g.clone(), 4);
    let mut five_d = LayoutSpace::new(|p: &Fermion5, ap: &mut Fermion5, c: &mut [f64]| {
        dwf.ddag_d_into(p, &mut tmp5, ap);
        c[0] = p.inner(ap).re;
    });
    let n5 = b5.norm2();
    let mut state5 = State::assemble(
        Fermion5::zero(g.clone(), 4),
        b5.clone(),
        b5.clone(),
        &[n5],
        &[n5],
    );
    let delta = ten_steps(&mut five_d, &mut state5);
    assert_eq!(
        delta, 0,
        "5-d CG steady state performed {delta} allocations"
    );

    // --- Block CG: the driver adds nothing to the kernels' own floor ---
    let block = FermionBlock::from_fields(&[b.clone(), FermionField::random(g.clone(), 56)]);
    let mut btmp = FermionBlock::zero(g.clone(), 2);
    let floor = {
        let mut st = BlockCgState::new(&block);
        let mut ap = FermionBlock::zero(g.clone(), 2);
        let (alpha, active) = ([1e-3, 1e-3], [true, true]);
        let mut before = 0;
        for sweep in 0..13 {
            if sweep == 3 {
                before = allocations(); // three warm-up sweeps, as `ten_steps`
            }
            let _ = d.mdag_m_block_into_dot(&st.p, &mut btmp, &mut ap);
            let _ = block_cg_update_x_r(&mut st.x, &mut st.r, &alpha, &st.p, &ap, &active);
            st.p.aypx_masked(&alpha, &st.r, &active);
        }
        allocations() - before
    };
    let mut batched = LayoutSpace::new(|p: &FermionBlock, ap: &mut FermionBlock, c: &mut [f64]| {
        c.copy_from_slice(&d.mdag_m_block_into_dot(p, &mut btmp, ap));
    });
    let delta = ten_steps(&mut batched, &mut BlockCgState::new(&block));
    assert_eq!(
        delta, floor,
        "block CG: {delta} allocations against the kernels' own {floor}"
    );

    // --- BiCGStab on the fused Wilson apply ----------------------------
    let mut bstate = BicgStabState::new(&b);
    bstate.history.reserve(64);
    let mut bapply = |p: &FermionField, out: &mut FermionField| d.apply_into(p, out);
    for _ in 0..3 {
        bstate.step_ws(&mut ws, &mut bapply);
    }
    let before = allocations();
    for _ in 0..10 {
        bstate.step_ws(&mut ws, &mut bapply);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "BiCGStab steady state performed {delta} allocations"
    );

    // --- to_precision_into: all six precision-pair directions ----------
    // The re-layout walks the allocation-free `coords()` iterator and
    // pokes into a preallocated destination; once the fields exist, no
    // direction may touch the heap.
    let g32 = Grid::<f32>::new(g.fdims(), g.vl(), g.engine().backend());
    let g16 = Grid::<F16>::new(g.fdims(), g.vl(), g.engine().backend());
    let f64a = FermionField::random(g.clone(), 53);
    let mut f64b = FermionField::zero(g.clone());
    let mut f32a = Field::<FermionKind, f32>::zero(g32.clone());
    let mut f16a = Field::<FermionKind, F16>::zero(g16.clone());
    let mut convert_all = || {
        to_precision_into(&f64a, &mut f32a); // f64 -> f32
        to_precision_into(&f64a, &mut f16a); // f64 -> f16
        to_precision_into(&f32a, &mut f16a); // f32 -> f16
        to_precision_into(&f16a, &mut f32a); // f16 -> f32
        to_precision_into(&f32a, &mut f64b); // f32 -> f64
        to_precision_into(&f16a, &mut f64b); // f16 -> f64
    };
    convert_all(); // warm-up (first trace-counter touch may intern)
    let before = allocations();
    for _ in 0..5 {
        convert_all();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "to_precision_into steady state performed {delta} allocations"
    );
    // And the chain was lossy in the expected, bounded way: the final
    // f16 -> f64 image differs from the source by at most the binary16
    // grain per scalar.
    let mut diff = FermionField::zero(g.clone());
    diff.sub(&f64a, &f64b);
    let rel = (diff.norm2() / f64a.norm2()).sqrt();
    assert!(rel > 0.0 && rel < 2e-3, "f16 round-trip error {rel}");
    rayon::set_num_threads(0);
}
