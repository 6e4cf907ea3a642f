//! The Krylov driver: both recurrences, written once.
//!
//! Grid writes its solvers once — over one linear-operator base, with
//! mixed-precision and block solvers as compositions of them — and so does
//! this crate. [`cg_step`] is the only function that computes CG's
//! `α = ρ/⟨p,Ap⟩` and `β`, `bicgstab_step` the only one that computes
//! BiCGStab's `α`, `ω` and `β`; [`iterate`] is the only loop, and it drives
//! either ([`Recurrence`]). [`cg_solve`] and [`bicgstab`] wrap that loop in
//! a start, the health monitors, the true-residual check and the
//! solve-level report; [`solve_normal`] is the solve of `M x = b` of any
//! operator, CG on its normal equations reporting the residual of `M x = b`.
//! Everything else that used to be a hand-written loop
//! is a **space** ([`CgSpace`]: an operator bound to a vector type), a
//! **start** ([`Start`]) and an **observer** (a closure called after every
//! iteration). A fermion operator's spaces are written once too, as
//! [`crate::dirac::Dirac::normal`] (`M†M`, for CG) and
//! [`crate::dirac::Dirac::direct`] (`M`, for BiCGStab). A solve is composed
//! from those three at the call site; nothing here is named after a
//! combination of them. Both recurrences share the one [`State`]: BiCGStab
//! needs only `x`, `r` and `p` at the top of an iteration, so it starts,
//! stops, restores and checkpoints exactly as CG does. Spaces and observers
//! are taken behind `dyn`: the driver is compiled once per vector type.
//!
//! Scalars travel as slices of length `nrhs` — one entry for single-vector
//! spaces — so a field, a block of right-hand sides, a 5-d fermion, a
//! field on a rank grid and a binary16 field all run the same loop. The
//! driver owns every per-iteration scratch vector ([`Scratch`]); a
//! steady-state step allocates nothing the space's kernels do not.
//!
//! Every scalar a recurrence steers by is a reduction in the one order of
//! [`crate::reduce`] — the vector type's own, taken inside the sweep that
//! produces the vector — so a solve in any space is the same solve at every
//! vector length, thread count and (for `dist_cg`) rank count.

use crate::complex::Complex;
use crate::dirac::Dirac;
use crate::field::{cg_updates, FermionBlock, FermionKind, Field};
use crate::solver::{BlockSolveReport, SolveReport, HISTORY_CAP};
use qcd_trace::HealthMonitor;
use std::marker::PhantomData;
use std::ops::ControlFlow;
use sve::SveFloat;

/// Upper bound on the residual-history capacity reserved up front. The
/// reservation is `min(remaining budget, this)`; longer solves grow the
/// vector amortised. Sizing it by the budget alone let a large `max_iter`
/// (a `u64` straight out of a farm job record) abort the process.
pub const HISTORY_RESERVE: usize = 1024;

/// A vector the recurrences run over: a fermion field, a block of
/// right-hand sides or a 5-d fermion, stored as one fermion [`Field`] — a
/// field in one slot, a block in one per right-hand side, a 5-d fermion in
/// one per slice. Its norms and fused update sweeps are the field's own,
/// each returning the canonical reductions of what it wrote; the storage is
/// what the checkpoint codec writes and reads, slot by slot.
pub trait Vector: Clone {
    /// The element type.
    type E: SveFloat;

    /// What a finished solve reports for this type: a [`SolveReport`] for
    /// one right-hand side, the per-RHS [`BlockSolveReport`] for a batch.
    type Report: From<BlockSolveReport>;

    /// Whether the type carries several right-hand sides (health monitors
    /// of a batch are labelled `region[j]`, even at batch width one).
    const BATCHED: bool = false;

    /// The storage.
    fn field(&self) -> &Field<FermionKind, Self::E>;

    /// The storage, mutably: the BLAS of [`Field`] on any vector.
    fn field_mut(&mut self) -> &mut Field<FermionKind, Self::E>;

    /// The vector of `nrhs` right-hand sides stored as `f`, if `f` has its
    /// shape.
    fn from_field(f: Field<FermionKind, Self::E>, nrhs: usize) -> Option<Self>;

    /// Right-hand sides carried.
    fn nrhs(&self) -> usize {
        1
    }

    /// A zero vector of the same shape (retires no instruction).
    fn zero_like(&self) -> Self {
        let f = self.field();
        let zero = Field::zero_width(f.grid().clone(), f.width());
        Self::from_field(zero, self.nrhs()).expect("a vector's own shape")
    }

    /// Per-RHS `|self|²` (at a width above the RHS count, a 5-d fermion's
    /// slices, the per-slice sums added in slice order).
    fn norms2_into(&self, out: &mut [f64]) {
        self.field().norms2_into(out);
    }

    /// `self = x − y` and per-RHS `|self|²`, in one sweep.
    fn sub_norms2_into(&mut self, x: &Self, y: &Self, out: &mut [f64]) {
        self.field_mut().sub_norms2(x.field(), y.field(), out);
    }
}

/// A field is one right-hand side.
impl<E: SveFloat> Vector for Field<FermionKind, E> {
    type E = E;
    type Report = SolveReport;

    fn field(&self) -> &Self {
        self
    }

    fn field_mut(&mut self) -> &mut Self {
        self
    }

    fn from_field(f: Self, nrhs: usize) -> Option<Self> {
        (nrhs == 1 && f.width() == 1).then_some(f)
    }
}

/// A block has one scalar per right-hand side.
impl<E: SveFloat> Vector for FermionBlock<E> {
    type E = E;
    type Report = BlockSolveReport;
    const BATCHED: bool = true;

    fn field(&self) -> &Field<FermionKind, E> {
        self
    }

    fn field_mut(&mut self) -> &mut Field<FermionKind, E> {
        self
    }

    fn from_field(f: Field<FermionKind, E>, nrhs: usize) -> Option<Self> {
        (f.width() == nrhs).then_some(FermionBlock(f))
    }

    fn nrhs(&self) -> usize {
        self.width()
    }
}

/// An operator bound to a vector type. Only [`apply`](Self::apply) is
/// required: every scalar the recurrence steers by is a reduction of the
/// vector type itself ([`Vector`]), so a space contains neither a
/// recurrence nor an inner product of its own.
pub trait CgSpace {
    /// The vector type of iterates, residuals and search directions.
    type V: Vector;

    /// `ap = A p` and the per-RHS curvature `Re ⟨p_j, A p_j⟩`, fused where
    /// the operator fuses it.
    fn apply(&mut self, p: &Self::V, ap: &mut Self::V, curv: &mut [f64]);

    /// `z = M⁻¹ r` and per-RHS `Re ⟨r_j, z_j⟩` for a preconditioned space;
    /// `false` (the default, touching nothing) for an unpreconditioned one.
    fn precondition(&mut self, _r: &Self::V, _z: &mut Self::V, _rz: &mut [f64]) -> bool {
        false
    }
}

/// `out = b − A x` through `ax` and its per-RHS `|out|²`: the true-residual
/// check, and the residual of a [`Start::Guess`]. The curvature `apply`
/// computes on the way lands in `n2` and is overwritten.
fn residual<V: Vector>(
    space: &mut dyn CgSpace<V = V>,
    b: &V,
    x: &V,
    ax: &mut V,
    out: &mut V,
    n2: &mut [f64],
) {
    space.apply(x, ax, n2);
    out.sub_norms2_into(b, ax, n2);
}

/// The allocating closure adapter: any hermitian positive-definite
/// operator on a vector of one right-hand side, given as `Fn(&V) -> V` (the
/// shape Grid's `ConjugateGradient` template takes, and the oracle the
/// conformance matrix compares every other space against). It allocates
/// each operator output, takes the curvature as a separate inner product
/// and opens an `iter` span per application — bit-identical to the fused
/// spaces all the same.
pub struct Allocating<V, F> {
    op: F,
    _vector: PhantomData<fn(&V) -> V>,
}

impl<V: Vector, F: Fn(&V) -> V> Allocating<V, F> {
    /// Bind `op`.
    pub fn new(op: F) -> Self {
        Allocating {
            op,
            _vector: PhantomData,
        }
    }
}

impl<V: Vector, F: Fn(&V) -> V> CgSpace for Allocating<V, F> {
    type V = V;

    fn apply(&mut self, p: &V, ap: &mut V, curv: &mut [f64]) {
        assert_eq!(
            p.nrhs(),
            1,
            "the allocating adapter takes one right-hand side"
        );
        let _iter_span = qcd_trace::span!("iter", p.field().grid().engine().ctx());
        *ap = (self.op)(p);
        curv[0] = p.field().inner(ap.field()).re;
    }
}

/// The complete state of an in-flight CG over `nrhs` right-hand sides
/// sharing every operator sweep (one, for a single field) — the checkpoint
/// unit: every member is exactly the f64 data an uninterrupted run would
/// hold, so a restored state continues bit-identically. There is no stored
/// "active" mask — which RHS still iterate is *derived* from `iterations`
/// and `r2` exactly like a single-RHS loop condition, so a snapshot carries
/// everything a resume needs.
#[derive(Clone)]
pub struct State<V> {
    /// Current solution estimates.
    pub x: V,
    /// Recurrence residuals `b_j − A x_j`.
    pub r: V,
    /// Search directions.
    pub p: V,
    /// Squared norm of each `r_j` (recurrence values, not recomputed).
    pub r2: Vec<f64>,
    /// Squared norm of each right-hand side.
    pub b_norm2: Vec<f64>,
    /// Iterations completed per RHS.
    pub iterations: Vec<usize>,
    /// Relative residual history per RHS.
    pub histories: Vec<Vec<f64>>,
}

impl<V> State<V> {
    /// A state at iteration zero from its vectors and per-RHS scalars.
    pub fn new(x: V, r: V, p: V, r2: &[f64], b_norm2: &[f64]) -> Self {
        State {
            x,
            r,
            p,
            r2: r2.to_vec(),
            b_norm2: b_norm2.to_vec(),
            iterations: vec![0; r2.len()],
            histories: r2
                .iter()
                .zip(b_norm2)
                .map(|(r2, b2)| vec![(r2 / b2).sqrt()])
                .collect(),
        }
    }

    /// The batch width.
    pub fn nrhs(&self) -> usize {
        self.r2.len()
    }
}

/// Where a solve begins.
pub enum Start<V> {
    /// `x = 0`, `r = p = b`.
    Zero,
    /// From an initial guess (deflation's Galerkin guess): `r = b − A x₀`,
    /// `p = r`.
    Guess(V),
    /// From a restored (or hand-stepped) state. The budget counts *total*
    /// iterations including those already inside it.
    State(State<V>),
}

/// Why a step or [`iterate`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// Every RHS has converged or spent its budget.
    Finished,
    /// The observer asked to stop.
    Observer,
    /// A denominator of this RHS's recurrence was zero or not a number:
    /// CG's curvature `⟨p,Ap⟩` not positive, or BiCGStab's `⟨b,v⟩`, `|t|²`
    /// or `ρω` zero — named by the second field. What that means is the
    /// caller's decision: a solve panics, naming the RHS and the
    /// denominator; the binary16 tier demotes itself.
    Breakdown(usize, &'static str),
}

/// The driver-owned per-iteration storage: the operator output, the
/// preconditioned residual when the space has one, BiCGStab's vectors and
/// `ρ` when it runs, and the per-RHS scalars. Built once per solve (or once
/// per tier and reused).
pub struct Scratch<V> {
    /// The operator output `A p`.
    pub ap: V,
    z: Option<V>,
    /// BiCGStab's `s`, `t` and `ρ = ⟨b, r⟩`, made by its first step.
    stab: Option<(V, V, Complex)>,
    k: Scalars,
}

/// The per-RHS scalars of one iteration.
struct Scalars {
    /// `⟨r,z⟩` of a preconditioned space (an unpreconditioned one steers
    /// by the state's `|r|²`).
    rho: Vec<f64>,
    curv: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    fresh: Vec<f64>,
    active: Vec<bool>,
    onward: Vec<bool>,
}

impl Scalars {
    fn new(n: usize) -> Self {
        Scalars {
            rho: vec![0.0; n],
            curv: vec![0.0; n],
            alpha: vec![0.0; n],
            beta: vec![0.0; n],
            fresh: vec![0.0; n],
            active: vec![false; n],
            onward: vec![false; n],
        }
    }
}

impl<V: Vector> Scratch<V> {
    /// Storage shaped like `like`.
    pub fn new(like: &V) -> Self {
        Scratch {
            ap: like.zero_like(),
            z: None,
            stab: None,
            k: Scalars::new(like.nrhs()),
        }
    }
}

/// An observer that never stops a solve.
pub fn no_observer<St>(_: &St, _: &[HealthMonitor]) -> ControlFlow<()> {
    ControlFlow::Continue(())
}

/// One Hestenes–Stiefel iteration over the RHS that are still active
/// (`iterations < max_iter` and `|r|² > tol²|b|²`, derived per RHS):
/// `α = ρ/⟨p,Ap⟩`, the fused iterate/residual update, `β = ρ'/ρ`, the
/// masked search-direction update, and the history push. `ρ` is `|r|²`, or
/// `⟨r,z⟩` in a preconditioned space — where the new direction is built
/// only for RHS that go on, so a converged RHS skips the preconditioner.
/// Inactive RHS are frozen: the masked sweeps do not load their words.
///
/// This is the only place in the workspace that computes the CG scalars.
pub fn cg_step<V: Vector>(
    space: &mut dyn CgSpace<V = V>,
    s: &mut State<V>,
    w: &mut Scratch<V>,
    tol: f64,
    max_iter: usize,
) -> ControlFlow<Stop> {
    let Scratch { ap, z, k, .. } = w;
    let nrhs = s.r2.len();
    let target = |j: usize| tol * tol * s.b_norm2[j];
    for j in 0..nrhs {
        k.active[j] = s.iterations[j] < max_iter && s.r2[j] > target(j);
    }
    if !k.active.contains(&true) {
        return ControlFlow::Break(Stop::Finished);
    }
    space.apply(&s.p, ap, &mut k.curv);
    for j in 0..nrhs {
        if k.active[j] {
            if k.curv[j].is_nan() || k.curv[j] <= 0.0 {
                return ControlFlow::Break(Stop::Breakdown(j, "⟨p, A p⟩ ≤ 0"));
            }
            let rho = if z.is_some() { k.rho[j] } else { s.r2[j] };
            k.alpha[j] = rho / k.curv[j];
        }
    }
    let (x, r, p) = (s.x.field_mut(), s.r.field_mut(), s.p.field());
    cg_updates(x, r, &k.alpha, (p, ap.field()), &k.active, &mut k.fresh);
    for j in 0..nrhs {
        if k.active[j] {
            k.beta[j] = k.fresh[j] / s.r2[j];
            s.r2[j] = k.fresh[j];
            s.iterations[j] += 1;
            s.histories[j].push((s.r2[j] / s.b_norm2[j]).sqrt());
        }
    }
    let Some(z) = z else {
        s.p.field_mut().aypx_rhs(&k.beta, s.r.field(), &k.active);
        return ControlFlow::Continue(());
    };
    for j in 0..nrhs {
        k.onward[j] = k.active[j] && s.r2[j] > target(j);
    }
    if k.onward.contains(&true) {
        space.precondition(&s.r, z, &mut k.fresh);
        for j in 0..nrhs {
            if k.onward[j] {
                k.beta[j] = k.fresh[j] / k.rho[j];
                k.rho[j] = k.fresh[j];
            }
        }
        s.p.field_mut().aypx_rhs(&k.beta, z.field(), &k.onward);
    }
    ControlFlow::Continue(())
}

/// One BiCGStab iteration on `M x = b` for one right-hand side, its shadow
/// residual `b` (the `r₀` of a zero start): `v = M p`, `α = ρ/⟨b,v⟩`,
/// `s = r − α v`, `t = M s`, `ω = ⟨t,s⟩/|t|²`, `x += α p + ω s`,
/// `r = s − ω t`, `β = (ρ'/ρ)(α/ω)`, `p = r + β (p − ω v)`, and the
/// history push. Its state is CG's: `v` is recomputed from `p` each
/// iteration and `ρ' = ⟨b, r⟩` is carried to the next in the scratch (the
/// first step takes it from the state), so a restored state continues bit
/// for bit. The space is `M` itself ([`crate::dirac::Dirac::direct`]);
/// its curvature slot is ignored.
fn bicgstab_step<V: Vector>(
    space: &mut dyn CgSpace<V = V>,
    b: &V,
    st: &mut State<V>,
    w: &mut Scratch<V>,
    tol: f64,
    max_iter: usize,
) -> ControlFlow<Stop> {
    let Scratch { ap: v, stab, k, .. } = w;
    k.active[0] = st.iterations[0] < max_iter && st.r2[0] > tol * tol * st.b_norm2[0];
    if !k.active[0] {
        return ControlFlow::Break(Stop::Finished);
    }
    let shadow = b.field();
    let (s, t, rho) =
        stab.get_or_insert_with(|| (b.zero_like(), b.zero_like(), shadow.inner(st.r.field())));
    // `1 / d` through the conjugate; `None` at the `d = 0` breakdown.
    let inverse = |d: Complex| {
        let n2 = d.norm2();
        (n2 > 0.0).then(|| d.conj().scale(1.0 / n2))
    };
    space.apply(&st.p, v, &mut k.curv);
    let Some(alpha) = inverse(shadow.inner(v.field())).map(|d| *rho * d) else {
        return ControlFlow::Break(Stop::Breakdown(0, "⟨b, v⟩ = 0"));
    };
    s.field_mut().caxpy_from(-alpha, v.field(), st.r.field());
    space.apply(s, t, &mut k.curv);
    let t2 = t.field().norm2();
    if t2.is_nan() || t2 <= 0.0 {
        return ControlFlow::Break(Stop::Breakdown(0, "|t|² = 0"));
    }
    let omega = t.field().inner(s.field()).scale(1.0 / t2);
    st.x.field_mut()
        .caxpy2(alpha, st.p.field(), omega, s.field());
    st.r.field_mut().caxpy_from(-omega, t.field(), s.field());
    let rho_next = shadow.inner(st.r.field());
    let Some(beta) = inverse(*rho * omega).map(|d| (rho_next * alpha) * d) else {
        return ControlFlow::Break(Stop::Breakdown(0, "ρω = 0"));
    };
    st.p.field_mut()
        .bicg_p_update(beta, omega, v.field(), st.r.field());
    *rho = rho_next;
    st.r2[0] = st.r.field().norm2();
    st.iterations[0] += 1;
    st.histories[0].push((st.r2[0] / st.b_norm2[0]).sqrt());
    ControlFlow::Continue(())
}

/// Build the state a solve starts from, and the preconditioned residual
/// `z` (with `ρ = ⟨r,z⟩`, both pure functions of `r`) when the space has a
/// preconditioner.
fn begin<V: Vector>(
    space: &mut dyn CgSpace<V = V>,
    b: &V,
    w: &mut Scratch<V>,
    start: Start<V>,
) -> State<V> {
    let mut s = match start {
        Start::State(state) => {
            assert_finite(&state);
            state
        }
        fresh => {
            let mut b_norm2 = vec![0.0; b.nrhs()];
            b.norms2_into(&mut b_norm2);
            assert_nonzero(&b_norm2);
            // From zero, `r` is `b` and `|r|²` is `|b|²`.
            let mut r2 = b_norm2.clone();
            let (x, r) = match fresh {
                Start::Guess(x0) => {
                    let mut r = b.zero_like();
                    residual(space, b, &x0, &mut w.ap, &mut r, &mut r2);
                    for (j, &n) in r2.iter().enumerate() {
                        assert!(
                            n.is_finite(),
                            "the initial guess leaves a non-finite residual (RHS {j})"
                        );
                    }
                    (x0, r)
                }
                _ => (b.zero_like(), b.clone()),
            };
            let p = r.clone();
            State::new(x, r, p, &r2, &b_norm2)
        }
    };
    if space.precondition(&s.r, &mut w.ap, &mut w.k.rho) {
        // A restored direction is kept; a fresh one starts at z.
        if s.iterations.iter().all(|&done| done == 0) {
            s.p.clone_from(&w.ap);
        }
        w.z = Some(w.ap.clone());
    }
    s
}

fn assert_nonzero(b_norm2: &[f64]) {
    for (j, &n) in b_norm2.iter().enumerate() {
        assert!(n > 0.0, "a solve needs a nonzero right-hand side (RHS {j})");
    }
}

/// A restored state with a non-finite scalar or iterate would make its RHS
/// inactive from the start and report a NaN residual as converged.
fn assert_finite<V: Vector>(s: &State<V>) {
    for (j, (r2, b2)) in s.r2.iter().zip(&s.b_norm2).enumerate() {
        let finite = r2.is_finite() && b2.is_finite();
        assert!(
            finite,
            "the restored state's |r|² or |b|² is not finite (RHS {j})"
        );
    }
    for (name, v) in [("x", &s.x), ("r", &s.r), ("p", &s.p)] {
        let f = v.field();
        if let Some(i) = f.data().iter().position(|e| !e.to_f64().is_finite()) {
            // Site-major storage: a block's right-hand sides are the slots of a site.
            let j = (i / (f.site_stride() / f.width())) % s.nrhs();
            panic!("the restored state's {name} is not finite (RHS {j})");
        }
    }
}

/// The recurrence the driver steps.
#[derive(Clone, Copy)]
pub enum Recurrence<'b, V> {
    /// Conjugate Gradient ([`cg_step`]), any number of right-hand sides.
    Cg,
    /// BiCGStab on one right-hand side, with its shadow residual.
    BiCgStab(&'b V),
}

/// The one loop: a step of `rec` until every RHS has converged or spent
/// its budget, feeding each advanced RHS's new history entry to its
/// monitor and then asking the observer whether to go on. `monitors` must
/// already have seen the history inside `state`.
///
/// Solves go through [`cg_solve`] and [`bicgstab`]; this is public for a
/// caller that is a *cycle* of something larger and owns its own monitor,
/// state and scratch across cycles — the binary16 tier of the precision
/// ladder.
#[allow(clippy::too_many_arguments)]
pub fn iterate<V: Vector>(
    rec: Recurrence<'_, V>,
    space: &mut dyn CgSpace<V = V>,
    state: &mut State<V>,
    w: &mut Scratch<V>,
    monitors: &mut [HealthMonitor],
    tol: f64,
    max_iter: usize,
    observer: &mut Observer<'_, V>,
) -> Stop {
    for (history, &done) in state.histories.iter_mut().zip(&state.iterations) {
        history.reserve(max_iter.saturating_sub(done).min(HISTORY_RESERVE));
    }
    loop {
        let step = match rec {
            Recurrence::Cg => cg_step(space, state, w, tol, max_iter),
            Recurrence::BiCgStab(b) => bicgstab_step(space, b, state, w, tol, max_iter),
        };
        if let ControlFlow::Break(stop) = step {
            return stop;
        }
        for (j, monitor) in monitors.iter_mut().enumerate() {
            if w.k.active[j] {
                monitor.observe(*state.histories[j].last().expect("a step pushes its entry"));
            }
        }
        if observer(state, monitors).is_break() {
            return Stop::Observer;
        }
    }
}

/// Solve `A x_j = b_j` by Conjugate Gradient in `space`, to `tol` relative
/// to `|b_j|` or `max_iter` *total* iterations per RHS.
///
/// `span` is the caller's already-open solve-level span (its name is the
/// caller's, its summary becomes the report's telemetry); `region` labels
/// the health monitors (`region[j]` for batched vectors), the
/// `<region>.iterations` histogram and the flight events. `observer` runs
/// after every iteration with the state and the monitors — a checkpoint
/// writer, or [`no_observer`]. The report is the vector type's own
/// ([`Vector::Report`]). These arguments are the whole plan of a solve.
///
/// The true residual `b − A x` is taken once at the end through the spent
/// search direction, guarding the reported residual against recurrence
/// drift. A [`Stop::Breakdown`] panics, naming the RHS: the operator is not
/// hermitian positive-definite.
#[allow(clippy::too_many_arguments)]
pub fn cg_solve<V: Vector>(
    space: &mut dyn CgSpace<V = V>,
    b: &V,
    start: Start<V>,
    tol: f64,
    max_iter: usize,
    span: qcd_trace::SpanGuard<'_>,
    region: &str,
    mut observer: impl FnMut(&State<V>, &[HealthMonitor]) -> ControlFlow<()>,
) -> (V, V::Report) {
    let rec = Recurrence::Cg;
    solve(
        rec,
        space,
        b,
        start,
        tol,
        max_iter,
        span,
        region,
        &mut observer,
        None,
    )
}

/// Solve `M x_j = b_j` for any fermion operator by CG on `M†M x = M†b` in
/// [`Dirac::normal`], with [`cg_solve`]'s arguments, the operator in place
/// of the space. A [`Start::Guess`] guesses `x`; a [`Start::State`] is a
/// state of `M†M x = M†b` (`qcd_io::resume` checks one against `M†b`).
/// `span` covers `M†b` and the CG. `tol` bounds the residual of the normal
/// equations, `|M†(b_j − M x_j)| / |M†b_j|`, which is what the CG iterates
/// on; the reported residual is the true one of `M x = b`,
/// `|b_j − M x_j| / |b_j|` per RHS, and can exceed `tol` by up to the
/// condition number of `M` (the solver matrix's clover cell reports 1.05e-6
/// at `tol` 1e-6). `converged` means the CG reached `tol`.
#[allow(clippy::too_many_arguments)]
pub fn solve_normal<V: Vector, D: Dirac<V>>(
    op: &D,
    b: &V,
    start: Start<V>,
    tol: f64,
    max_iter: usize,
    span: qcd_trace::SpanGuard<'_>,
    region: &str,
    mut observer: impl FnMut(&State<V>, &[HealthMonitor]) -> ControlFlow<()>,
) -> (V, V::Report) {
    let (rhs, mut tmp) = (op.apply_dag(b), b.zero_like());
    let m = |x: &V, mx: &mut V| op.apply_into(x, mx);
    solve(
        Recurrence::Cg,
        &mut op.normal(&mut tmp),
        &rhs,
        start,
        tol,
        max_iter,
        span,
        region,
        &mut observer,
        Some((&m, b)),
    )
}

/// Solve `M x = b` by BiCGStab in `space` — the operator's own space,
/// [`crate::dirac::Dirac::direct`], not its normal equations — with
/// [`cg_solve`]'s arguments and everything it supplies: the starts (a
/// restored [`State`] included, so [`Start::State`] and a checkpoint
/// observer work unchanged), the monitors, the true residual and the
/// report. One right-hand side (a field, a 5-d fermion, a field on a rank
/// grid); `converged` means the recurrence residual reached `tol`. A
/// [`Stop::Breakdown`] panics, naming the RHS.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab<V: Vector>(
    space: &mut dyn CgSpace<V = V>,
    b: &V,
    start: Start<V>,
    tol: f64,
    max_iter: usize,
    span: qcd_trace::SpanGuard<'_>,
    region: &str,
    mut observer: impl FnMut(&State<V>, &[HealthMonitor]) -> ControlFlow<()>,
) -> (V, V::Report) {
    assert!(
        !V::BATCHED && b.nrhs() == 1,
        "BiCGStab takes one right-hand side"
    );
    let rec = Recurrence::BiCgStab(b);
    solve(
        rec,
        space,
        b,
        start,
        tol,
        max_iter,
        span,
        region,
        &mut observer,
        None,
    )
}

// The space and the observer are each called once per iteration, beside
// sweeps over the whole lattice: behind `dyn`, the driver is compiled once
// per vector type rather than once per (space, observer). The one true
// residual is taken in the space, or, with `of_m`, of the system `M x = b`
// whose normal equations the space solves.
#[allow(clippy::too_many_arguments)]
fn solve<V: Vector>(
    rec: Recurrence<'_, V>,
    space: &mut dyn CgSpace<V = V>,
    b: &V,
    start: Start<V>,
    tol: f64,
    max_iter: usize,
    span: qcd_trace::SpanGuard<'_>,
    region: &str,
    observer: &mut Observer<'_, V>,
    of_m: Option<System<'_, V>>,
) -> (V, V::Report) {
    let mut w = Scratch::new(b);
    let mut state = begin(space, b, &mut w, start);
    let mut monitors = health_monitors(region, V::BATCHED, &state.histories);
    let stop = iterate(
        rec,
        space,
        &mut state,
        &mut w,
        &mut monitors,
        tol,
        max_iter,
        observer,
    );
    if let Stop::Breakdown(j, at) = stop {
        panic!("the Krylov recurrence broke down (RHS {j}): {at}");
    }
    let (x, ax, r2) = (&state.x, &mut w.ap, &mut w.k.fresh);
    let of_m_b_norm2 = match of_m {
        None => {
            residual(space, b, x, ax, &mut state.p, r2);
            None
        }
        Some((m, b)) => {
            m(x, ax);
            state.p.sub_norms2_into(b, ax, r2);
            let mut b_norm2 = vec![0.0; b.nrhs()];
            b.norms2_into(&mut b_norm2);
            Some(b_norm2)
        }
    };
    let b_norm2 = of_m_b_norm2.as_deref().unwrap_or(&state.b_norm2);
    let true_r2 = (&w.k.fresh[..], b_norm2);
    let report = conclude(region, monitors, &state, true_r2, tol, span.finish());
    (state.x, report.into())
}

/// `M` (as `x ↦ M x`) and `b` of the system `M x = b` whose normal
/// equations a space solves ([`solve_normal`]).
type System<'a, V> = (&'a dyn Fn(&V, &mut V), &'a V);

/// What the driver asks after every iteration, type-erased.
type Observer<'a, V> = dyn FnMut(&State<V>, &[HealthMonitor]) -> ControlFlow<()> + 'a;

/// One monitor per RHS, labelled `region` (or `region[j]` in a batch) and
/// caught up on the history a restored state already holds.
fn health_monitors(region: &str, batched: bool, histories: &[Vec<f64>]) -> Vec<HealthMonitor> {
    let monitor = |(j, history): (usize, &Vec<f64>)| {
        let mut monitor = if batched {
            HealthMonitor::new(&format!("{region}[{j}]"))
        } else {
            HealthMonitor::new(region)
        };
        monitor.replay(history);
        monitor
    };
    histories.iter().enumerate().map(monitor).collect()
}

/// The per-RHS report of a finished solve: convergence of the recurrence,
/// the true residuals `|b_j − A x_j|` relative to `|b_j|` (their squares in
/// `true_r2`), and each monitor concluded into its capped history and typed
/// events.
fn conclude<V>(
    region: &str,
    monitors: Vec<HealthMonitor>,
    s: &State<V>,
    (true_r2, b_norm2): (&[f64], &[f64]),
    tol: f64,
    telemetry: qcd_trace::RegionSummary,
) -> BlockSolveReport {
    let nrhs = s.r2.len();
    let mut histories = Vec::with_capacity(nrhs);
    let mut health = Vec::with_capacity(nrhs);
    for (j, monitor) in monitors.into_iter().enumerate() {
        let (history, done) = (&s.histories[j], s.iterations[j]);
        let (capped, events) =
            qcd_trace::conclude_solver_health(region, monitor, history, done, HISTORY_CAP);
        histories.push(capped);
        health.push(events);
    }
    BlockSolveReport {
        iterations: s.iterations.iter().copied().max().unwrap_or(0),
        per_rhs_iterations: s.iterations.clone(),
        residuals: (0..nrhs)
            .map(|j| (true_r2[j] / b_norm2[j]).sqrt())
            .collect(),
        converged: (0..nrhs)
            .map(|j| s.r2[j] <= tol * tol * s.b_norm2[j])
            .collect(),
        histories,
        health,
        telemetry,
    }
}
