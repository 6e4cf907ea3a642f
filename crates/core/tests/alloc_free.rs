//! Proof that the solvers' steady state performs **zero heap allocations**.
//!
//! A counting global allocator wraps `System`; after a warm-up, ten
//! iterations of `krylov::cg_solve` — the whole driver loop: step, health
//! monitors, observer — must leave the allocation counter untouched in the
//! fused space at f64 and at binary16 and in the 5-d space, **and with a
//! checkpoint observer attached** whose interval is not reached (durability must not move a
//! solve off the zero-allocation path); so must all six precision-pair
//! directions of `to_precision_into` (f64/f32/f16, both ways) into
//! preallocated destinations. BiCGStab is one function: after a warm-up
//! call, a solve of thirteen iterations allocates exactly what one of three
//! does. The block space is held to its kernels' own floor: the
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

use std::ops::ControlFlow;

use grid::field::FermionKind;
use grid::krylov::{cg_solve, no_observer, CgSpace, Start, State, Vector};
use grid::prelude::*;
use qcd_trace::HealthMonitor;
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

/// Allocations of ten steady-state iterations of a zero-start `cg_solve`
/// in `space`, after three warm-up iterations, with `observer` attached.
/// The solve must not converge inside the window.
fn ten_iterations<S: CgSpace>(
    space: &mut S,
    b: &S::V,
    mut observer: impl FnMut(&State<S::V>, &[HealthMonitor]) -> ControlFlow<()>,
) -> u64 {
    let (mut seen, mut before, mut delta) = (0, 0, None);
    let _ = cg_solve(
        space,
        b,
        Start::Zero,
        1e-30,
        64,
        qcd_trace::span!("alloc.solve"),
        "alloc.solve",
        |state: &State<S::V>, monitors: &[HealthMonitor]| {
            seen += 1;
            if seen == 3 {
                before = allocations();
            }
            if seen == 13 {
                delta = Some(allocations() - before);
                return ControlFlow::Break(());
            }
            observer(state, monitors)
        },
    );
    delta.expect("test lattice converged too fast")
}

#[test]
fn solver_steady_state_allocates_nothing() {
    rayon::set_num_threads(1);
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 51);
    let d = WilsonDirac::new(u, 0.2);
    let b = FermionField::random(g.clone(), 52);

    // --- CG in the fused space ---------------------------------------
    let mut tmp = FermionField::zero(g.clone());
    let delta = ten_iterations(&mut d.normal(&mut tmp), &b, no_observer);
    assert_eq!(delta, 0, "CG steady state performed {delta} allocations");

    // --- The same solve made durable: a checkpoint observer between
    // snapshots costs the hot loop nothing -------------------------------
    let path = std::env::temp_dir().join(format!("alloc-free-{}.qio", std::process::id()));
    let mut checkpointer = qcd_io::Checkpointer::every(1000, &path);
    let delta = ten_iterations(&mut d.normal(&mut tmp), &b, checkpointer.observer());
    assert_eq!(delta, 0, "checkpointed CG performed {delta} allocations");
    assert_eq!(checkpointer.finish().expect("no write was attempted"), 0);

    // --- The same space at binary16: the precision ladder's inner tier --
    let g16 = Grid::<F16>::new(g.fdims(), g.vl(), g.engine().backend());
    let d16 = WilsonDirac::<F16>::new(to_precision(d.gauge(), &g16), 0.2);
    let b16 = to_precision(&b, &g16);
    let mut tmp16 = Field::<FermionKind, F16>::zero(g16.clone());
    let delta = ten_iterations(&mut d16.normal(&mut tmp16), &b16, no_observer);
    assert_eq!(delta, 0, "binary16 CG performed {delta} allocations");

    // --- CG on the 5-d domain-wall normal operator ---------------------
    let dwf = DomainWall::new(random_gauge(g.clone(), 54), 4, 1.8, 0.04);
    let b5 = Fermion5::random(g.clone(), 4, 55);
    let mut tmp5 = Fermion5::zero(g.clone(), 4);
    let delta = ten_iterations(&mut dwf.normal(&mut tmp5), &b5, no_observer);
    assert_eq!(
        delta, 0,
        "5-d CG steady state performed {delta} allocations"
    );

    // --- Block CG: the driver adds nothing to the kernels' own floor ---
    let block = FermionBlock::from_fields(&[b.clone(), FermionField::random(g.clone(), 56)]);
    let mut btmp = FermionBlock::zero(g.clone(), 2);
    let floor = {
        // Under a solve-level span, as every solve is: the batched sweeps
        // open a `dirac.block` child span, and entering a child allocates
        // its path.
        let _span = qcd_trace::span!("alloc.solve");
        let (mut x, mut r, mut p) = (
            FermionBlock::zero(g.clone(), 2),
            block.clone(),
            block.clone(),
        );
        let mut ap = FermionBlock::zero(g.clone(), 2);
        let (alpha, active, mut r2, mut curv) = ([1e-3, 1e-3], [true, true], [0.0; 2], [0.0; 2]);
        let mut before = 0;
        for sweep in 0..13 {
            if sweep == 3 {
                before = allocations(); // three warm-up sweeps, as `ten_iterations`
            }
            d.normal(&mut btmp).apply(&p, &mut ap, &mut curv);
            Vector::cg_update(&mut x, &mut r, &alpha, &p, &ap, &active, &mut r2);
            p.aypx_active(&alpha, &r, &active);
        }
        allocations() - before
    };
    let delta = ten_iterations(&mut d.normal(&mut btmp), &block, no_observer);
    assert_eq!(
        delta, floor,
        "block CG: {delta} allocations against the kernels' own {floor}"
    );

    // --- BiCGStab: ten more iterations cost nothing ---------------------
    // `tol = 0` runs the whole budget.
    let bicgstab_allocations = |iterations: usize| {
        let before = allocations();
        let (_, report) = bicgstab(&d, &b, 0.0, iterations);
        assert_eq!(report.iterations, iterations);
        allocations() - before
    };
    bicgstab_allocations(3); // warm-up (span path, histogram, counters)
    let (three, thirteen) = (bicgstab_allocations(3), bicgstab_allocations(13));
    assert_eq!(
        thirteen, three,
        "BiCGStab: {thirteen} allocations in 13 iterations, {three} in 3"
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
