//! Mixed-precision solving — the payoff of the SIMD layer's precision
//! genericity.
//!
//! "Conversion of floating-point precision" is one of the machine-specific
//! operations Grid's abstraction layer provides per architecture (paper,
//! Section II-C), and SVE supports "vectorized 16-, 32-, 64-bit
//! floating-point operations, including ... conversion of precision"
//! (Section III-A). The production use of that machinery is the
//! mixed-precision defect-correction solver: run the expensive Krylov
//! iterations in single precision — twice the SIMD lanes per vector, twice
//! the virtual nodes — and restore full double-precision accuracy with a
//! cheap outer correction loop.
//!
//! Single precision doubles `lanes_c`, so the f32 lattice has a *different
//! virtual-node decomposition* than the f64 one — converting a field is a
//! genuine re-layout, exactly as in Grid (separate `GridF`/`GridD`). The
//! ladder is written once, as Grid's mixed-precision CG is, for any
//! [`Dirac`] operator with narrow replicas ([`Replica`]): Wilson, its Schur
//! complement, domain wall on 5-d vectors, the distributed operator.

use crate::dirac::Dirac;
use crate::field::{Field, FieldKind};
use crate::krylov::{self, Recurrence, Scratch, Start, State, Stop, Vector};
use crate::layout::Grid;
use crate::solver::SolveReport;
use qcd_trace::{HealthEvent, HealthMonitor};
use std::ops::ControlFlow;
use std::sync::Arc;
use sve::{Opcode, SveFloat, F16};

/// Convert a field into a preallocated field of another precision (and its
/// grid's layout), every right-hand side of it. The per-scalar conversions
/// are accounted as vectorized `fcvt` on the target context. Operands of
/// unequal width are refused.
pub fn to_precision_into<K: FieldKind, E1: SveFloat, E2: SveFloat>(
    f: &Field<K, E1>,
    out: &mut Field<K, E2>,
) {
    assert_eq!(
        f.width(),
        out.width(),
        "operands hold different numbers of right-hand sides"
    );
    assert_eq!(f.grid().fdims(), out.grid().fdims(), "lattices must match");
    let ncomp = f.width() * K::NCOMP;
    for x in f.grid().coords() {
        for comp in 0..ncomp {
            out.poke(&x, comp, f.peek(&x, comp));
        }
    }
    // One fcvt per vector of scalars converted (2 per complex).
    let scalars = (f.grid().volume() * ncomp * 2) as u64;
    let eng = out.grid().engine();
    let fcvts = scalars.div_ceil(eng.word_len() as u64);
    eng.ctx().counters().bump_n(Opcode::Fcvt, fcvts);
}

/// Convert a field to another precision (and its grid's layout), allocating
/// the destination.
pub fn to_precision<K: FieldKind, E1: SveFloat, E2: SveFloat>(
    f: &Field<K, E1>,
    grid2: &Arc<Grid<E2>>,
) -> Field<K, E2> {
    let mut out = Field::<K, E2>::zero_width(grid2.clone(), f.width());
    to_precision_into(f, &mut out);
    out
}

/// An operator at every element type: [`replica`](Self::replica) is the
/// same operator at `E2` — its gauge field converted onto this lattice at
/// `E2` with a context of its own (a rank grid's shares its communicator)
/// — acting on vectors of the same shape. The tiers of [`ladder_solve`] and
/// the binary16 smoother are replicas.
pub trait Replica {
    /// The vector, one right-hand side, it acts on at element type `E`.
    type V<E: SveFloat>: Vector<E = E, Report = SolveReport>;
    /// The operator at element type `E`, and the grid its vectors live on.
    type At<E: SveFloat>: Dirac<Self::V<E>> + AsRef<Arc<Grid<E>>>;

    /// This operator at element type `E2`.
    fn replica<E2: SveFloat>(&self) -> Self::At<E2>;
}

/// A zero vector of `like`'s shape on `grid`.
fn zero_on<V: Vector, W: Vector>(like: &V, grid: &Arc<Grid<W::E>>) -> W {
    let f = Field::zero_width(grid.clone(), like.field().width());
    W::from_field(f, like.nrhs()).expect("a replica acts on vectors of its operator's shape")
}

/// Relative-residual floor of the binary16 compute tier: the f16 unit
/// roundoff `2⁻¹⁰`  ≈ 9.8 × 10⁻⁴. A recurrence residual driven below this
/// level is dominated by representation noise of the iterate and stops
/// carrying information, so an inner f16 cycle exits here and hands the
/// true residual back to the f32 tier (a *reliable update*).
pub const F16_RESIDUAL_FLOOR: f64 = 9.765625e-4;

/// Binary16 cycles per outer round of the ladder before the round is
/// handed to the f32 tier regardless of progress.
const MAX_CYCLES: usize = 8;

// ---------------------------------------------------------------------------
// The three-level precision ladder
// ---------------------------------------------------------------------------

/// Configuration of the three-level reliable-update ladder
/// ([`ladder_solve`]). The defaults of [`LadderConfig::new`] are the
/// production recipe; [`LadderConfig::f32_only`] is the two-level
/// comparison baseline (identical outer/middle structure, binary16 tier
/// disabled).
#[derive(Clone, Debug)]
pub struct LadderConfig {
    /// Target relative residual of the outer double-precision system.
    pub tol: f64,
    /// Per-outer-round target of the f32 middle level, relative to the
    /// round's normal-equation right-hand side.
    pub inner_tol: f64,
    /// Per-cycle target of the binary16 tier on its *normalized* residual
    /// system. Production values sit above [`F16_RESIDUAL_FLOOR`]; a value
    /// below the floor asks the f16 recurrence for more than it can
    /// represent, stalls it, and exercises the health-driven fallback.
    pub f16_cycle_tol: f64,
    /// Outer defect-correction round budget.
    pub max_outer: usize,
    /// Iteration budget per inner cycle (f16) or per middle round (f32).
    pub max_inner: usize,
    /// Whether the binary16 tier starts enabled. The ladder may demote
    /// itself (f16 → f32) at runtime; [`LadderReport::f16_active_at_exit`]
    /// reports the final state so a resume can carry it over.
    pub use_f16: bool,
}

impl LadderConfig {
    /// Production three-level recipe targeting `tol`.
    pub fn new(tol: f64) -> Self {
        LadderConfig {
            tol,
            inner_tol: 1e-4,
            f16_cycle_tol: 3.90625e-3, // 2⁻⁸: four f16 bits above the floor
            max_outer: 30,
            max_inner: 500,
            use_f16: true,
        }
    }

    /// The two-level baseline: same outer/middle structure, f16 tier off.
    pub fn f32_only(tol: f64) -> Self {
        LadderConfig {
            use_f16: false,
            ..LadderConfig::new(tol)
        }
    }
}

/// Report of a [`ladder_solve`].
#[derive(Clone, Debug)]
pub struct LadderReport {
    /// Outer (double-precision) defect-correction rounds.
    pub outer_iterations: usize,
    /// Total binary16 inner-CG iterations.
    pub f16_iterations: usize,
    /// Total f32 CG iterations (fallback rounds and f32-only ladders).
    pub f32_iterations: usize,
    /// Reliable updates performed: f32 residual recomputations closing an
    /// f16 cycle.
    pub reliable_updates: usize,
    /// Health-driven tier demotions (f16 → f32).
    pub tier_fallbacks: usize,
    /// Whether the binary16 tier was still enabled when the solve ended.
    /// Pass this back via [`LadderConfig::use_f16`] when resuming from a
    /// checkpointed iterate so the continuation replays the same tiers.
    pub f16_active_at_exit: bool,
    /// Final true relative residual in double precision.
    pub residual: f64,
    /// Whether the target tolerance was reached.
    pub converged: bool,
    /// Outer relative residuals, entry 0 = before the first correction.
    /// Every entry is a canonical reduction: bit-identical across vector
    /// lengths and thread counts.
    pub outer_history: Vec<f64>,
    /// Concatenated inner-tier relative-residual histories (f16 cycles in
    /// order, then any f32 rounds), likewise canonical.
    pub inner_history: Vec<f64>,
    /// Health events the inner-tier monitors raised.
    pub health: Vec<HealthEvent>,
    /// Vector instructions retired on the binary16 context.
    pub f16_instructions: u64,
    /// Vector instructions retired on the f32 context.
    pub f32_instructions: u64,
    /// Vector instructions retired on the f64 context during the solve.
    pub f64_instructions: u64,
}

/// Storage of the binary16 tier, hoisted across all cycles: the operator
/// replica, the normalized right-hand side, and the recurrence state and
/// driver scratch every cycle restarts in place.
struct F16Tier<O, V> {
    op: O,
    b: V,
    tmp: V,
    state: State<V>,
    scratch: Scratch<V>,
}

/// One binary16 inner-CG cycle on the normalized residual system
/// `A†A e = ŝ`: a zero start rebuilt in the tier's storage, then
/// [`krylov::iterate`] of CG in the [`Dirac::normal`] space at binary16 (whose
/// per-site sums accumulate in f32, [`crate::reduce::site_dot`]) — a
/// cycle, not a solve: no span of its own, no true residual (the reliable
/// update takes it at f32), the caller's monitor. Appends the cycle's relative
/// residuals to `history`; returns `(iterations, aborted)` where `aborted`
/// means the tier must be demoted: `|b|²` underflowed binary16, the
/// curvature was lost to binary16 noise (surfaced as a non-finite
/// episode), or the monitor raised an episode (stall / divergence /
/// non-finite) during the cycle.
fn f16_cycle<O: Dirac<V>, V: Vector>(
    t: &mut F16Tier<O, V>,
    tol: f64,
    max_iter: usize,
    monitor: &mut HealthMonitor,
    history: &mut Vec<f64>,
) -> (usize, bool) {
    // x = 0, r = p = b  (computed as b − A·0 so no copy primitive is needed).
    let st = &mut t.state;
    st.x.field_mut().scale(0.0);
    t.op.mdag_m_into(&st.x, &mut t.tmp, &mut t.scratch.ap);
    st.r.field_mut().sub(t.b.field(), t.scratch.ap.field());
    st.p.field_mut().sub(t.b.field(), t.scratch.ap.field());
    let mut space = t.op.normal(&mut t.tmp);
    st.b_norm2[0] = t.b.field().norm2();
    let b2 = st.b_norm2[0];
    if b2.is_nan() || b2 <= 0.0 {
        // The residual underflowed binary16 entirely: nothing to solve at
        // this tier.
        monitor.observe(f64::NAN);
        return (0, true);
    }
    st.r2[0] = st.r.field().norm2();
    st.iterations[0] = 0;
    st.histories[0].clear();
    st.histories[0].push((st.r2[0] / b2).sqrt());
    let events_at_entry = monitor.events().len();
    monitor.observe(st.histories[0][0]);

    let stop = krylov::iterate(
        Recurrence::Cg,
        &mut space,
        &mut t.state,
        &mut t.scratch,
        std::slice::from_mut(monitor),
        tol,
        max_iter,
        &mut |_, monitors| {
            if monitors[0].events().len() > events_at_entry {
                return ControlFlow::Break(()); // a new episode: demote
            }
            ControlFlow::Continue(())
        },
    );
    if let Stop::Breakdown(..) = stop {
        monitor.observe(f64::NAN);
    }
    history.extend_from_slice(&t.state.histories[0]);
    (t.state.iterations[0], stop != Stop::Finished)
}

/// A `tier`-kind flight event of outer round `outer`, binary16 cycle
/// `cycle`, at relative residual `rel`.
fn tier_event(name: &str, outer: usize, cycle: usize, rel: f64) {
    let fields = [
        ("outer", outer as f64),
        ("cycle", cycle as f64),
        ("rel_residual", rel),
    ];
    qcd_trace::record_event("tier", name, &fields);
}

/// Three-level reliable-update mixed-precision solve of `M x = b`:
/// f64 outer defect correction ↔ f32 middle ↔ binary16 inner CG, for any
/// operator with narrow replicas ([`Replica`]) and one right-hand side (a
/// field, an even-parity field, a 5-d fermion, a rank's slab).
///
/// Each outer round converts the double-precision defect to f32 and solves
/// the normal-equation correction system at the lowest tier that still
/// makes progress. With the binary16 tier enabled, the f32 residual is
/// **normalized to unit norm** (binary16 spans only ±65504 with ~2⁻¹¹
/// relative grain, so the raw residual of a late round would denormalize),
/// converted down, and attacked by an inner f16 CG whose steering scalars
/// are canonical f32-accumulated reductions. The cycle exits at
/// [`LadderConfig::f16_cycle_tol`] or at the [`F16_RESIDUAL_FLOOR`]; the
/// correction is promoted back and the **reliable update** recomputes the
/// true f32 residual before the next cycle. A [`HealthMonitor`] watches
/// every inner history: a stall, divergence or non-finite episode demotes
/// the ladder to the f32 tier for the rest of the solve (a `tier`-kind
/// flight event records the switch), where CG in the [`Dirac::normal`]
/// space finishes the round.
///
/// Every steering scalar at every level is a canonical reduction, so
/// residual histories and the solution are **bit-identical across vector
/// lengths and thread counts** (and, on rank grids, rank counts).
pub fn ladder_solve<D>(op: &D, b: &D::V<f64>, cfg: &LadderConfig) -> (D::V<f64>, LadderReport)
where
    D: Replica + Dirac<D::V<f64>>,
{
    ladder_solve_from(op, b, b.zero_like(), cfg)
}

/// [`ladder_solve`] from an arbitrary initial guess — the resume entry
/// point. A checkpoint of a ladder solve is just the double-precision
/// iterate (defect correction is self-correcting): every outer round is a
/// memoryless function of `x`, so resuming at a round boundary replays the
/// uninterrupted trajectory bit for bit (carry
/// [`LadderReport::f16_active_at_exit`] into [`LadderConfig::use_f16`] if
/// the interrupted run had demoted tiers).
pub fn ladder_solve_from<D>(
    op: &D,
    b: &D::V<f64>,
    x0: D::V<f64>,
    cfg: &LadderConfig,
) -> (D::V<f64>, LadderReport)
where
    D: Replica + Dirac<D::V<f64>>,
{
    let grid64 = b.field().grid().clone();
    let _span = qcd_trace::span!("solver.ladder", grid64.engine().ctx());
    let f64_before = grid64.engine().ctx().counters().total();
    let op32 = op.replica::<f32>();
    let grid32 = op32.as_ref().clone();

    let mut f16_on = cfg.use_f16;
    let cycle_tol = cfg.f16_cycle_tol;
    let mut tier16 = f16_on.then(|| {
        let op16 = op.replica::<F16>();
        let zero: D::V<F16> = zero_on(b, op16.as_ref());
        F16Tier {
            op: op16,
            b: zero.clone(),
            tmp: zero.clone(),
            // Placeholder scalars: every cycle rebuilds the state in place.
            state: State::new(zero.clone(), zero.clone(), zero.clone(), &[1.0], &[1.0]),
            scratch: Scratch::new(&zero),
        }
    });

    let b_norm2 = b.field().norm2();
    assert!(
        b_norm2 > 0.0,
        "ladder solve needs a nonzero right-hand side"
    );
    let mut x = x0;
    let mut outer = 0;
    let mut f16_iters = 0;
    let mut f32_iters = 0;
    let mut reliable_updates = 0;
    let mut tier_fallbacks = 0;
    let mut residual;
    let mut outer_history = Vec::new();
    let mut inner_history = Vec::new();
    let mut health = Vec::new();

    // Outer-loop buffers hoisted across every round. `md32` holds `M d` of
    // every f32 `M†M` (the tier's CG included), `ad32` `M†M d` outside CG.
    let [mut ax, mut r, mut d64] = [(); 3].map(|()| b.zero_like());
    let zero32: D::V<f32> = zero_on(b, &grid32);
    let [mut r32, mut rhs32, mut d32, mut s32, mut e32, mut md32, mut ad32] =
        [(); 7].map(|()| zero32.clone());

    loop {
        // Double-precision defect, canonically reduced.
        op.apply_into(&x, &mut ax);
        r.field_mut().sub(b.field(), ax.field());
        residual = (r.field().norm2() / b_norm2).sqrt();
        assert!(
            outer > 0 || residual.is_finite(),
            "the ladder's initial iterate leaves a non-finite defect"
        );
        outer_history.push(residual);
        if residual <= cfg.tol || outer >= cfg.max_outer {
            break;
        }

        to_precision_into(r.field(), r32.field_mut());
        let rhs_n2;
        {
            let _t32 = qcd_trace::span!("solver.tier.f32", grid32.engine().ctx());
            op32.apply_dag_into(&r32, &mut rhs32);
            rhs_n2 = rhs32.field().norm2();
            d32.field_mut().scale(0.0);
            s32.field_mut().clone_from(rhs32.field());
        }
        let mid_target = cfg.inner_tol * cfg.inner_tol * rhs_n2;
        let mut s2 = rhs_n2;
        let mut cycles = 0;

        // Binary16 cycles with reliable updates in between.
        while f16_on && s2 > mid_target && cycles < MAX_CYCLES {
            let t = tier16.as_mut().expect("f16 tier enabled but not built");
            let scale = s2.sqrt();
            let rel = (s2 / rhs_n2).sqrt();
            tier_event("solver.ladder.switch:f32_to_f16", outer, cycles, rel);
            let mut monitor = HealthMonitor::new("solver.ladder.f16");
            let (it, aborted) = {
                let g16 = t.b.field().grid().clone();
                let _t16 = qcd_trace::span!("solver.tier.f16", g16.engine().ctx());
                // Normalize into binary16 range; `s32` is rebuilt by the
                // reliable update (or the fallback path) before reuse.
                s32.field_mut().scale(1.0 / scale);
                to_precision_into(s32.field(), t.b.field_mut());
                f16_cycle(
                    t,
                    cycle_tol,
                    cfg.max_inner,
                    &mut monitor,
                    &mut inner_history,
                )
            };
            f16_iters += it;
            health.extend(monitor.into_events());
            let demoted_at = if aborted {
                // Rebuild the residual the cycle consumed.
                let _t32 = qcd_trace::span!("solver.tier.f32", grid32.engine().ctx());
                op32.mdag_m_into(&d32, &mut md32, &mut ad32);
                s32.field_mut().sub(rhs32.field(), ad32.field());
                s2 = s32.field().norm2();
                rel
            } else {
                // Promote the correction and perform the reliable update:
                // recompute the true f32 residual of the accumulated `d32`.
                {
                    let _t32 = qcd_trace::span!("solver.tier.f32", grid32.engine().ctx());
                    to_precision_into(t.state.x.field(), e32.field_mut());
                    d32.field_mut().axpy_inplace(scale, e32.field());
                    op32.mdag_m_into(&d32, &mut md32, &mut ad32);
                    s32.field_mut().sub(rhs32.field(), ad32.field());
                }
                let s2_new = s32.field().norm2();
                reliable_updates += 1;
                let rel_new = (s2_new / rhs_n2).sqrt();
                tier_event("solver.ladder.switch:f16_to_f32", outer, cycles, rel_new);
                let stalled = s2_new >= s2;
                s2 = s2_new;
                if !stalled {
                    cycles += 1;
                    continue;
                }
                rel_new
            };
            // The cycle aborted, or the f16 tier stopped paying for itself
            // (floor reached before the middle target): demote for good.
            tier_fallbacks += 1;
            f16_on = false;
            tier_event(
                "solver.ladder.fallback:f16_to_f32",
                outer,
                cycles,
                demoted_at,
            );
            qcd_trace::counter("ladder.tier_fallbacks").inc();
        }

        // Whatever the binary16 tier left behind is finished at f32.
        if s2 > mid_target {
            let _t32 = qcd_trace::span!("solver.tier.f32", grid32.engine().ctx());
            // Aim the leftover system so the *round's* residual lands at
            // `inner_tol` relative to `rhs32`.
            let eff_tol = (mid_target / s2).sqrt().min(0.9);
            let (e, rep) = krylov::cg_solve(
                &mut op32.normal(&mut md32),
                &s32,
                Start::Zero,
                eff_tol,
                cfg.max_inner,
                qcd_trace::span!("solver.cg", grid32.engine().ctx()),
                "solver.ladder.f32",
                krylov::no_observer,
            );
            f32_iters += rep.iterations;
            inner_history.extend_from_slice(&rep.history);
            health.extend(rep.health);
            d32.field_mut().add_assign_field(e.field());
        }

        to_precision_into(d32.field(), d64.field_mut());
        x.field_mut().add_assign_field(d64.field());
        outer += 1;
    }

    qcd_trace::counter("ladder.iterations.f64").add(outer as u64);
    qcd_trace::counter("ladder.iterations.f32").add(f32_iters as u64);
    qcd_trace::counter("ladder.iterations.f16").add(f16_iters as u64);
    qcd_trace::counter("ladder.reliable_updates").add(reliable_updates as u64);

    let f16_instructions = tier16
        .as_ref()
        .map(|t| t.b.field().grid().engine().ctx().counters().total())
        .unwrap_or(0);
    let f32_instructions = grid32.engine().ctx().counters().total();
    let f64_instructions = grid64.engine().ctx().counters().total() - f64_before;
    (
        x,
        LadderReport {
            outer_iterations: outer,
            f16_iterations: f16_iters,
            f32_iterations: f32_iters,
            reliable_updates,
            tier_fallbacks,
            f16_active_at_exit: f16_on,
            residual,
            converged: residual <= cfg.tol,
            outer_history,
            inner_history,
            health,
            f16_instructions,
            f32_instructions,
            f64_instructions,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::WilsonDirac;
    use crate::field::FermionKind;
    use crate::simd::SimdBackend;
    use crate::solver::{cg, solve_wilson};
    use crate::tensor::su3::random_gauge;
    use crate::FermionField;
    use sve::VectorLength;

    fn setup() -> (WilsonDirac<f64>, FermionField) {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 121);
        let b = FermionField::random(g.clone(), 122);
        (WilsonDirac::new(u, 0.3), b)
    }

    #[test]
    fn f32_lattice_has_twice_the_virtual_nodes() {
        let vl = VectorLength::of(512);
        let g64 = Grid::<f64>::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let g32 = Grid::<f32>::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        assert_eq!(g32.lanes_c(), 2 * g64.lanes_c());
        assert_eq!(2 * g32.osites(), g64.osites());
    }

    /// A 2-wide block on the `[4, 4, 4, 4]` f64 lattice, and that
    /// lattice's f32 twin.
    fn wide() -> (crate::field::FermionBlock, Arc<Grid<f32>>) {
        let (_, b) = setup();
        let g = b.grid();
        let g32 = Grid::<f32>::new(g.fdims(), g.vl(), g.engine().backend());
        let other = FermionField::random(g.clone(), 123);
        (crate::field::FermionBlock::from_fields(&[b, other]), g32)
    }

    fn bits<E: SveFloat>(f: &Field<FermionKind, E>) -> Vec<u64> {
        f.data().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Each RHS of `narrow` (a conversion of `block`) is its field converted
    /// alone, and converting it back is too, bit for bit.
    fn assert_converted_per_rhs(block: &FermionField, narrow: &Field<FermionKind, f32>) {
        let back = to_precision(narrow, block.grid());
        for j in 0..2 {
            let alone = to_precision(&block.rhs_field(j), narrow.grid());
            assert_eq!(bits(&narrow.rhs_field(j)), bits(&alone), "RHS {j} down");
            let alone_back = to_precision(&alone, block.grid());
            assert_eq!(bits(&back.rhs_field(j)), bits(&alone_back), "RHS {j} back");
        }
    }

    #[test]
    fn to_precision_round_trips_a_block_per_rhs() {
        let (block, g32) = wide();
        let narrow = to_precision(&*block, &g32);
        assert_eq!(narrow.width(), 2);
        assert_converted_per_rhs(&block, &narrow);
    }

    #[test]
    fn to_precision_into_round_trips_a_block_per_rhs() {
        let (block, g32) = wide();
        let mut out = Field::<FermionKind, f32>::zero_width(g32, 2);
        to_precision_into(&*block, &mut out);
        assert_converted_per_rhs(&block, &out);
    }

    #[test]
    #[should_panic(expected = "different numbers of right-hand sides")]
    fn to_precision_into_refuses_operands_of_unequal_width() {
        let (block, g32) = wide();
        let mut out = Field::<FermionKind, f32>::zero_width(g32, 2);
        to_precision_into(&block.rhs_field(0), &mut out);
    }

    #[test]
    fn precision_round_trip_is_f32_exact() {
        let vl = VectorLength::of(512);
        let g64 = Grid::<f64>::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let g32 = Grid::<f32>::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let f = FermionField::random(g64.clone(), 7);
        let f32v = to_precision(&f, &g32);
        let back = to_precision(&f32v, &g64);
        // Error bounded by f32 epsilon relative to each value.
        for x in g64.coords().step_by(7) {
            for comp in 0..12 {
                let a = f.peek(&x, comp);
                let b = back.peek(&x, comp);
                assert!((a - b).abs() <= 1.2e-7 * a.abs().max(1e-3));
            }
        }
        // And converting twice is idempotent (f32 values are exact in f64).
        let again = to_precision(&to_precision(&back, &g32), &g64);
        assert_eq!(again.max_abs_diff(&back), 0.0);
    }

    #[test]
    fn single_precision_wilson_operator_works() {
        // The whole operator stack runs at f32 on its own layout.
        let g32 = Grid::<f32>::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let u = random_gauge(g32.clone(), 123);
        let op = WilsonDirac::<f32>::new(u, 0.3);
        let b = Field::<crate::field::FermionKind, f32>::random(g32.clone(), 124);
        let (x, report) = cg(&op, &b, 1e-4, 1000);
        assert!(report.converged, "{report:?}");
        assert!(report.residual < 1e-3);
        let _ = x;
    }

    #[test]
    fn f32_only_ladder_resumed_from_an_iterate_still_converges() {
        // Kill a two-level solve after a couple of outer rounds, keep only
        // the f64 iterate (the mixed checkpoint payload), resume from it:
        // same final accuracy, strictly fewer additional outer rounds than
        // a cold start.
        let (op, b) = setup();
        let mut cut = LadderConfig::f32_only(1e-4);
        cut.max_outer = 2;
        let (x_partial, partial) = ladder_solve(&op, &b, &cut);
        assert!(partial.outer_iterations <= 2);
        let cfg = LadderConfig::f32_only(1e-10);
        let (x, resumed) = ladder_solve_from(&op, &b, x_partial, &cfg);
        assert!(resumed.converged, "{resumed:?}");
        assert!(resumed.residual <= 1e-10);
        let (_, cold) = ladder_solve(&op, &b, &cfg);
        assert!(
            resumed.outer_iterations < cold.outer_iterations,
            "resume must reuse the checkpointed progress ({} vs {})",
            resumed.outer_iterations,
            cold.outer_iterations
        );
        let (x_ref, _) = solve_wilson(&op, &b, 1e-10, 3000);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&x, &x_ref);
        assert!((diff.norm2() / x_ref.norm2()).sqrt() < 1e-8);
    }

    /// The ladder under `cfg` from an iterate with one NaN component: at
    /// the parent it ran every outer round at no tier and returned a NaN
    /// residual.
    fn ladder_from_a_nan_iterate(cfg: &LadderConfig) {
        let (op, b) = setup();
        let mut x0 = FermionField::random(b.grid().clone(), 5);
        x0.poke(&[0, 1, 0, 0], 2, crate::Complex::new(f64::NAN, 0.0));
        let _ = ladder_solve_from(&op, &b, x0, cfg);
    }

    #[test]
    #[should_panic(expected = "initial iterate leaves a non-finite defect")]
    fn ladder_refuses_a_non_finite_iterate() {
        ladder_from_a_nan_iterate(&LadderConfig::new(1e-8));
    }

    #[test]
    #[should_panic(expected = "initial iterate leaves a non-finite defect")]
    fn f32_only_ladder_refuses_a_non_finite_iterate() {
        ladder_from_a_nan_iterate(&LadderConfig::f32_only(1e-8));
    }

    #[test]
    fn ladder_reaches_double_precision_accuracy() {
        // The inner tier computes in binary16 (≈3 decimal digits), yet the
        // reliable-update ladder drives the f64 residual to 1e-10.
        let (op, b) = setup();
        let cfg = LadderConfig::new(1e-10);
        let (x, report) = ladder_solve(&op, &b, &cfg);
        assert!(report.converged, "{report:?}");
        assert!(report.residual <= 1e-10, "residual {}", report.residual);
        assert!(report.f16_iterations > 0, "f16 tier never ran");
        assert!(report.reliable_updates >= 1, "no reliable updates");
        assert_eq!(report.tier_fallbacks, 0, "healthy solve demoted tiers");
        assert!(report.f16_active_at_exit);
        let (x_ref, _) = solve_wilson(&op, &b, 1e-10, 3000);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&x, &x_ref);
        assert!((diff.norm2() / x_ref.norm2()).sqrt() < 1e-8);
    }

    #[test]
    fn ladder_runs_the_bulk_of_inner_work_at_binary16() {
        let (op, b) = setup();
        let (_, report) = ladder_solve(&op, &b, &LadderConfig::new(1e-9));
        assert!(
            report.f16_iterations > report.f32_iterations,
            "f16 {} vs f32 {} iterations",
            report.f16_iterations,
            report.f32_iterations
        );
        assert!(
            report.f16_instructions > report.f64_instructions,
            "f16 {} vs f64 {} instructions",
            report.f16_instructions,
            report.f64_instructions
        );
    }

    #[test]
    fn f32_only_ladder_matches_the_target_too() {
        // The comparison baseline: identical outer/middle structure with
        // the binary16 tier disabled.
        let (op, b) = setup();
        let (x, report) = ladder_solve(&op, &b, &LadderConfig::f32_only(1e-10));
        assert!(report.converged, "{report:?}");
        assert!(report.residual <= 1e-10, "residual {}", report.residual);
        // The inner solver is single precision (can't go below ~1e-6), so
        // reaching 1e-10 takes several defect corrections.
        assert!(report.outer_iterations >= 2, "needs multiple corrections");
        assert_eq!(report.f16_iterations, 0);
        assert!(report.f32_iterations > 0);
        let (x_ref, _) = solve_wilson(&op, &b, 1e-10, 3000);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&x, &x_ref);
        assert!((diff.norm2() / x_ref.norm2()).sqrt() < 1e-8);
    }

    #[test]
    fn under_precise_f16_cycle_falls_back_to_f32_and_still_converges() {
        // A cycle tolerance below the representable floor stalls the f16
        // recurrence; the monitor must demote the tier instead of spinning.
        let (op, b) = setup();
        let mut cfg = LadderConfig::new(1e-10);
        cfg.f16_cycle_tol = 1e-7; // far below F16_RESIDUAL_FLOOR
        let (x, report) = ladder_solve(&op, &b, &cfg);
        assert!(report.tier_fallbacks >= 1, "no fallback: {report:?}");
        assert!(!report.f16_active_at_exit);
        assert!(report.converged, "{report:?}");
        assert!(
            report
                .health
                .iter()
                .any(|e| matches!(e.kind, qcd_trace::HealthEventKind::Stall)),
            "expected a typed stall episode, got {:?}",
            report.health
        );
        let (x_ref, _) = solve_wilson(&op, &b, 1e-10, 3000);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&x, &x_ref);
        assert!((diff.norm2() / x_ref.norm2()).sqrt() < 1e-8);
    }

    #[test]
    fn ladder_resumed_from_an_iterate_replays_the_tail_bit_for_bit() {
        // Interrupt at an outer-round boundary, keep only the f64 iterate
        // (the mixed checkpoint payload), resume: every outer round is a
        // memoryless function of x, so the continuation's history is the
        // uninterrupted run's tail, bit for bit.
        let (op, b) = setup();
        let cfg = LadderConfig::new(1e-10);
        let (x_full, full) = ladder_solve(&op, &b, &cfg);
        let mut cut = cfg.clone();
        cut.max_outer = 2;
        let (x_partial, partial) = ladder_solve(&op, &b, &cut);
        assert_eq!(partial.outer_iterations, 2);
        let (x_res, resumed) = ladder_solve_from(&op, &b, x_partial, &cfg);
        assert!(resumed.converged, "{resumed:?}");
        assert_eq!(x_res.max_abs_diff(&x_full), 0.0, "resumed solution differs");
        let tail = &full.outer_history[2..];
        assert_eq!(
            resumed.outer_history.len(),
            tail.len(),
            "resumed {} vs tail {} outer entries",
            resumed.outer_history.len(),
            tail.len()
        );
        for (a, c) in resumed.outer_history.iter().zip(tail) {
            assert_eq!(a.to_bits(), c.to_bits(), "outer history diverged");
        }
    }

    #[test]
    fn bulk_of_the_work_runs_in_single_precision() {
        let (op, b) = setup();
        let (_, report) = ladder_solve(&op, &b, &LadderConfig::f32_only(1e-9));
        assert!(
            report.f32_instructions > 4 * report.f64_instructions,
            "f32 {} vs f64 {}",
            report.f32_instructions,
            report.f64_instructions
        );
        assert!(report.f32_iterations > 10 * report.outer_iterations);
    }
}
