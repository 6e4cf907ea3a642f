//! Multi-rank domain decomposition with comms/compute overlap.
//!
//! [`DistWilson`] is the Wilson operator of [`crate::dirac`] run across the
//! ranks of a [`RankTopology`]: each rank owns a sub-lattice, and hopping
//! legs that cross a rank boundary read *halo* data received from the
//! neighbour instead of wrapping around the local periodic stencil. The
//! sweep is split so communication hides under compute:
//!
//! 1. **Post** — pack the ±d boundary faces of the source fermion and queue
//!    them to both neighbours along every split dimension
//!    ([`RankCtx::post_face_send`], non-blocking).
//! 2. **Interior** — run the unmodified eight-leg site kernel over every
//!    outer site whose legs stay on-rank, while the faces are in flight.
//! 3. **Collect** — block on each face as it lands
//!    ([`RankCtx::wait_face_into`]); only time not already covered by the
//!    interior sweep shows up as exposed wait.
//! 4. **Boundary** — finish the outer sites that touch a halo with the same
//!    kernel, its neighbour words from a patching source ([`Neighbours`]):
//!    the crossing SIMD lanes of each fetched word take face data (and
//!    ghost links on backward legs) before the spin projection runs.
//!
//! Because the patch replaces exactly the lanes whose stencil fetch wrapped
//! around the local lattice — after the fetch's lane permutation, before
//! any arithmetic — every engine operation sees the same per-lane values
//! the single-rank global operator would, and the distributed dslash is
//! **bit-identical** to it at any rank count (with uncompressed wire).
//!
//! Gauge links only move once: at construction each rank sends its
//! `x_d = L−1` link slice `U_d` toward `+d` and keeps the slice received
//! from `−d` as *ghost links* for its backward boundary legs, reusing the
//! two-row wire format (rows 0 and 1 on the wire, third row reconstructed
//! in registers after patching).
//!
//! A rank's vector is a plain [`FermionField`] on its rank grid, whose
//! every reduction is the canonical sum over the *global* lattice
//! ([`crate::reduce`]). So [`dist_cg`] is the Krylov driver in the
//! operator's [`Dirac::normal`] space, over fields, and α and β (and
//! therefore every iterate) are bitwise independent of the rank count, the
//! vector length, and the worker thread count.
//!
//! The operator is generic over its element type. Its narrow replicas
//! ([`Replica`]) run on the rank's grid at that type, which shares the
//! rank's communicator, so the precision ladder runs on ranks; faces and
//! ghost links stay f64 on the wire (exact for f32 and binary16).
//!
//! [`RankTopology`]: crate::topology::RankTopology
//! [`RankCtx::post_face_send`]: crate::comms::RankCtx::post_face_send
//! [`RankCtx::wait_face_into`]: crate::comms::RankCtx::wait_face_into

use crate::comms::{Compression, GaugeWire, RankCtx};
use crate::dirac::{Dirac, HopSites, Local, Neighbours, Sites, Sweep, WilsonDirac};
use crate::field::{gauge_comp, FermionField, FermionKind, Field, FieldKind, GaugeKind};
use crate::krylov::{self, Start, Vector};
use crate::layout::{Grid, NCOLOR, NDIM, NSPIN};
use crate::mixed::{to_precision, Replica};
use crate::simd::{CVec, Words};
use crate::solver::SolveReport;
use crate::topology::{fermion_face_bytes, link_ghost_bytes, FERMION_FACE_SCALARS};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use sve::{HostCopy, SveFloat};

/// Complex components per spinor.
const NCOMP: usize = NSPIN * NCOLOR;

/// Everything precomputed for one split dimension: which `(outer site,
/// lane)` pairs form the two faces, and — inverted — which lanes of which
/// outer sites must be patched with halo data during the boundary pass.
struct DimPlan {
    /// The split dimension.
    dim: usize,
    /// Sites per face (`volume / L_dim`).
    face_sites: usize,
    /// My `x_d = 0` face in canonical (transverse-lex) order — sent toward
    /// the `−d` neighbour.
    send_prev: Vec<(u32, u16)>,
    /// My `x_d = L−1` face — sent toward the `+d` neighbour.
    send_next: Vec<(u32, u16)>,
    /// `patch_fwd[osite]` = the `(lane, face index)` pairs whose *forward*
    /// leg along `dim` crosses the rank boundary (sites at `x_d = L−1`);
    /// the halo value comes from the `+d` neighbour's `x_d = 0` face.
    patch_fwd: Vec<Vec<(u16, u32)>>,
    /// Same for the *backward* leg (sites at `x_d = 0`), patched from the
    /// `−d` neighbour's `x_d = L−1` face and its ghost links.
    patch_bwd: Vec<Vec<(u16, u32)>>,
}

/// The Wilson operator distributed over the ranks of a [`RankCtx`], with
/// overlapped halo exchange (see the module docs), at element type `E`. It
/// owns the face buffers its sweeps pack and receive into, as the context
/// owns its message shells: the distributed hot path allocates nothing in
/// the steady state.
pub struct DistWilson<'a, E: SveFloat = f64> {
    ctx: &'a RankCtx,
    op: WilsonDirac<E>,
    wire: GaugeWire,
    compression: Compression,
    plans: Vec<DimPlan>,
    plan_of_dim: [Option<usize>; NDIM],
    /// Outer sites with no off-rank neighbour: the overlap window.
    interior: Vec<u32>,
    /// Outer sites holding at least one lane on a rank boundary.
    boundary: Vec<u32>,
    /// Per-plan ghost links `U_d` from the `−d` neighbour's `x_d = L−1`
    /// face, decoded once at construction.
    ghosts: Vec<Vec<f64>>,
    /// Per-plan face buffers, reused by every sweep.
    faces: RefCell<Vec<Faces>>,
    dslash_count: Cell<u64>,
}

/// A field on the rank grid for the `M p` intermediate: it derefs to the
/// field, so it is the `tmp` of [`Dirac::mdag_m_into`] and
/// [`Dirac::normal`]. It stays a type of its own because the benchmark's
/// pinned [`DistWilson::hopping_into`] and [`DistWilson::canon_norm2`]
/// take one.
pub struct DistWorkspace(FermionField);

/// One split dimension's face buffers: the two faces a sweep sends and the
/// two halos it receives.
struct Faces {
    send_prev: Vec<f64>,
    send_next: Vec<f64>,
    halo_fwd: Vec<f64>,
    halo_bwd: Vec<f64>,
}

impl DistWorkspace {
    /// A zero field on `dw`'s rank grid.
    pub fn new(dw: &DistWilson) -> Self {
        DistWorkspace(Field::zero(dw.op.grid().clone()))
    }
}

impl std::ops::Deref for DistWorkspace {
    type Target = FermionField;

    fn deref(&self) -> &FermionField {
        &self.0
    }
}

impl std::ops::DerefMut for DistWorkspace {
    fn deref_mut(&mut self) -> &mut FermionField {
        &mut self.0
    }
}

impl<'a> DistWilson<'a> {
    /// `out = Dh ψ` (distributed hopping term, no mass).
    pub fn hopping_into(
        &self,
        psi: &FermionField,
        _ws: &mut DistWorkspace,
        out: &mut FermionField,
    ) {
        self.dslash_overlapped(psi, out, false, None);
    }

    /// Globally canonical `|f|²`: the norm of a field on the rank grid.
    pub fn canon_norm2(&self, f: &FermionField, _ws: &mut DistWorkspace) -> f64 {
        f.norm2()
    }
}

impl<'a, E: SveFloat> DistWilson<'a, E> {
    /// Build the distributed operator on `ctx` from the *rank-local* gauge
    /// field (see [`restrict_field`]; at `E`, on the rank's grid at `E`),
    /// exchanging ghost links with both neighbours along every split
    /// dimension — a collective. `wire` selects the gauge wire format *and*
    /// the in-memory link mode (two-row wire ⇒ two-row operator, so the
    /// third row is reconstructed after halo patching); `compression`
    /// applies binary16 to every face payload.
    pub fn new(
        ctx: &'a RankCtx,
        u: Field<GaugeKind, E>,
        mass: f64,
        wire: GaugeWire,
        compression: Compression,
    ) -> Self {
        assert!(
            u.grid().comm().is_some_and(|c| std::ptr::eq(c, &*ctx.comm)),
            "gauge field must live on the rank-local grid"
        );
        let op = match wire {
            GaugeWire::TwoRow => WilsonDirac::new_two_row(u, mass),
            GaugeWire::Full => WilsonDirac::new(u, mass),
        };
        let grid = op.grid().clone();
        let fdims = grid.fdims();
        let mut plans = Vec::new();
        let mut plan_of_dim = [None; NDIM];
        for d in 0..NDIM {
            if ctx.rank_grid[d] <= 1 {
                continue;
            }
            let l = fdims[d];
            assert!(
                l >= 2,
                "split dimension {d} leaves fewer than 2 local sites"
            );
            let st = op.stencil();
            let f0 = st.face_sites(d, 0);
            let f1 = st.face_sites(d, l - 1);
            let mut patch_fwd = vec![Vec::new(); grid.osites()];
            let mut patch_bwd = vec![Vec::new(); grid.osites()];
            for (i, &(o, lane)) in f1.iter().enumerate() {
                patch_fwd[o].push((lane as u16, i as u32));
            }
            for (i, &(o, lane)) in f0.iter().enumerate() {
                patch_bwd[o].push((lane as u16, i as u32));
            }
            plan_of_dim[d] = Some(plans.len());
            plans.push(DimPlan {
                dim: d,
                face_sites: f1.len(),
                send_prev: f0.iter().map(|&(o, l)| (o as u32, l as u16)).collect(),
                send_next: f1.iter().map(|&(o, l)| (o as u32, l as u16)).collect(),
                patch_fwd,
                patch_bwd,
            });
        }
        let mut interior = Vec::new();
        let mut boundary = Vec::new();
        for o in 0..grid.osites() {
            if plans
                .iter()
                .any(|p| op.stencil().osite_touches_face(o, p.dim))
            {
                boundary.push(o as u32);
            } else {
                interior.push(o as u32);
            }
        }
        let faces = plans.iter().map(|p| {
            let face = vec![0.0; p.face_sites * FERMION_FACE_SCALARS];
            Faces {
                send_prev: face.clone(),
                send_next: face.clone(),
                halo_fwd: face.clone(),
                halo_bwd: face,
            }
        });
        let mut dw = DistWilson {
            ctx,
            op,
            wire,
            compression,
            faces: RefCell::new(faces.collect()),
            plans,
            plan_of_dim,
            interior,
            boundary,
            ghosts: Vec::new(),
            dslash_count: Cell::new(0),
        };
        dw.exchange_ghost_links();
        dw
    }

    /// The communication context.
    pub fn ctx(&self) -> &RankCtx {
        self.ctx
    }

    /// Outer sites with no off-rank neighbour (the overlap window) and
    /// outer sites touching a halo, as counts.
    pub fn interior_boundary_sites(&self) -> (usize, usize) {
        (self.interior.len(), self.boundary.len())
    }

    /// Overlapped dslash sweeps performed so far (each normal-operator
    /// application counts two).
    pub fn dslash_count(&self) -> u64 {
        self.dslash_count.get()
    }

    /// Fermion face bytes one overlapped sweep puts on the wire (both
    /// directions of every split dimension), per the pinned wire model.
    pub fn face_bytes_per_sweep(&self) -> usize {
        self.plans
            .iter()
            .map(|p| 2 * fermion_face_bytes(p.face_sites, self.compression))
            .sum()
    }

    /// Ghost-link bytes the construction-time exchange put on the wire.
    pub fn ghost_bytes(&self) -> usize {
        self.plans
            .iter()
            .map(|p| link_ghost_bytes(p.face_sites, self.wire, self.compression))
            .sum()
    }

    /// Model-predicted total face bytes: the one-time ghost exchange plus
    /// [`face_bytes_per_sweep`](Self::face_bytes_per_sweep) per sweep.
    /// Equals [`RankCtx::sent_bytes`] exactly — the proptest in
    /// `tests/dist_wire_model.rs` pins this.
    ///
    /// [`RankCtx::sent_bytes`]: crate::comms::RankCtx::sent_bytes
    pub fn modeled_wire_bytes(&self) -> usize {
        self.ghost_bytes() + self.dslash_count.get() as usize * self.face_bytes_per_sweep()
    }

    /// Send my `x_d = L−1` link slice toward `+d` and keep the slice
    /// arriving from `−d`: the ghost links backward boundary legs multiply
    /// by. One face per split dimension, once per operator lifetime.
    fn exchange_ghost_links(&mut self) {
        let (u, ncomp) = (self.op.gauge(), self.op.link_rows() * NCOLOR);
        for plan in &self.plans {
            let mut buf = vec![0.0; plan.face_sites * self.op.link_scalars()];
            let comp = |k| gauge_comp(plan.dim, k / NCOLOR, k % NCOLOR);
            pack_face(u, &plan.send_next, ncomp, comp, &mut buf);
            let mut ghost = vec![0.0; buf.len()];
            self.ctx
                .post_face_send(plan.dim, true, &buf, self.compression);
            self.ctx.wait_face_into(plan.dim, false, &mut ghost);
            self.ghosts.push(ghost);
        }
    }

    /// One overlapped hopping sweep: post faces, interior pass, collect
    /// halos, boundary pass. `mass_axpy = Some(m+4)` fuses the Wilson mass
    /// term into the store exactly like the single-process fused sweep.
    fn dslash_overlapped(
        &self,
        psi: &Field<FermionKind, E>,
        out: &mut Field<FermionKind, E>,
        dagger: bool,
        mass_axpy: Option<f64>,
    ) {
        let grid = self.op.grid();
        let faces = &mut *self.faces.borrow_mut();
        let _span = self.ctx.detail_spans().then(|| {
            qcd_trace::span!(
                if dagger { "dist.hop_dag" } else { "dist.hop" },
                grid.engine().ctx()
            )
        });
        crate::sized!(grid.engine(), |eng| {
            let sweep = Sweep::new(eng, dagger, mass_axpy);
            let lanes = grid.lanes_c();
            self.op
                .record_pass(psi, out, &sweep, self.interior.len() * lanes);

            // 1. Post both faces of every split dimension; the network
            // carries them while the interior pass runs.
            for (plan, f) in self.plans.iter().zip(faces.iter_mut()) {
                pack_face(psi, &plan.send_prev, NCOMP, |c| c, &mut f.send_prev);
                self.ctx
                    .post_face_send(plan.dim, false, &f.send_prev, self.compression);
                pack_face(psi, &plan.send_next, NCOMP, |c| c, &mut f.send_next);
                self.ctx
                    .post_face_send(plan.dim, true, &f.send_next, self.compression);
            }

            // 2. Interior pass — no leg leaves the rank: the stencil's words.
            eng.fused(HopSites {
                op: &self.op,
                src: &Local,
                psi,
                sweep: &sweep,
                sites: Sites::Listed(&self.interior),
                out: out.data_mut(),
                part: None,
            });

            // 3. Collect the halos (exposed wait is whatever the interior pass
            // did not hide).
            for (plan, f) in self.plans.iter().zip(faces.iter_mut()) {
                self.ctx.wait_face_into(plan.dim, false, &mut f.halo_bwd);
                self.ctx.wait_face_into(plan.dim, true, &mut f.halo_fwd);
            }

            // 4. Boundary pass — the same kernel, crossing lanes patched.
            self.op
                .record_pass(psi, out, &sweep, self.boundary.len() * lanes);
            eng.fused(HopSites {
                op: &self.op,
                src: &Halos { dw: self, faces },
                psi,
                sweep: &sweep,
                sites: Sites::Listed(&self.boundary),
                out: out.data_mut(),
                part: None,
            });
            self.dslash_count.set(self.dslash_count.get() + 1);
        })
    }
}

/// The boundary pass's neighbours: crossing lanes take the neighbour rank's
/// halo (spinors) and ghost links; every other lane is untouched bit for bit.
struct Halos<'s, 'a, E: SveFloat> {
    dw: &'s DistWilson<'a, E>,
    faces: &'s [Faces],
}

impl<E: SveFloat> Neighbours for Halos<'_, '_, E> {
    #[inline(always)]
    fn crossing(&self, osite: usize, mu: usize, forward: bool) -> Option<Crossing<'_>> {
        let i = self.dw.plan_of_dim[mu]?;
        let (plan, faces) = (&self.dw.plans[i], &self.faces[i]);
        let (lanes, halo) = if forward {
            (&plan.patch_fwd[osite], &faces.halo_fwd)
        } else {
            (&plan.patch_bwd[osite], &faces.halo_bwd)
        };
        (!lanes.is_empty()).then_some(Crossing {
            lanes,
            halo,
            ghost: &self.dw.ghosts[i],
            link_scalars: self.dw.op.link_scalars(),
        })
    }
}

/// A leg of a site that crosses a rank boundary: its `(lane, face index)`
/// pairs, the halo of its spinor lanes, the ghost links of its dimension.
#[derive(Clone, Copy)]
pub(crate) struct Crossing<'s> {
    lanes: &'s [(u16, u32)],
    halo: &'s [f64],
    ghost: &'s [f64],
    link_scalars: usize,
}

impl Crossing<'_> {
    /// Word `v` of spinor component `comp`, its crossing lanes from the halo.
    #[inline(always)]
    pub(crate) fn spinor<E: SveFloat, const N: usize, C: HostCopy>(
        self,
        eng: &Words<'_, E, N, C>,
        comp: usize,
        v: CVec<N>,
    ) -> CVec<N> {
        patched(
            eng,
            v,
            self.lanes,
            self.halo,
            FERMION_FACE_SCALARS,
            2 * comp,
        )
    }

    /// Word `v` of row `r`, column `c` of a backward leg's link, its
    /// crossing lanes from the ghost links.
    #[inline(always)]
    pub(crate) fn link<E: SveFloat, const N: usize, C: HostCopy>(
        self,
        eng: &Words<'_, E, N, C>,
        r: usize,
        c: usize,
        v: CVec<N>,
    ) -> CVec<N> {
        let at = 2 * (r * NCOLOR + c);
        patched(eng, v, self.lanes, self.ghost, self.link_scalars, at)
    }
}

/// `M ψ = (m+4)ψ − ½ Dh ψ` (or `M† ψ`) in one overlapped sweep, mass fused
/// into the store. The dot is a reduction of the rank grid after the sweep:
/// every rank must apply the operator together.
impl<E: SveFloat> Dirac<Field<FermionKind, E>> for DistWilson<'_, E> {
    fn m_into(
        &self,
        psi: &Field<FermionKind, E>,
        out: &mut Field<FermionKind, E>,
        dagger: bool,
        dot: Option<(&Field<FermionKind, E>, &mut [f64])>,
    ) {
        self.dslash_overlapped(psi, out, dagger, Some(self.op.mass + 4.0));
        if let Some((d, sums)) = dot {
            sums[0] = d.inner(out).re;
        }
    }
}

/// The distributed operator over the Wilson operator's replica, on the
/// rank's grid at `E2`, in the same wire format. A collective: its
/// construction exchanges ghost links, so every rank builds it together.
impl<'a, E: SveFloat> Replica for DistWilson<'a, E> {
    type V<E2: SveFloat> = Field<FermionKind, E2>;
    type At<E2: SveFloat> = DistWilson<'a, E2>;

    fn replica<E2: SveFloat>(&self) -> DistWilson<'a, E2> {
        let u = to_precision(self.op.gauge(), &self.op.grid().at());
        DistWilson::new(self.ctx, u, self.op.mass, self.wire, self.compression)
    }
}

impl<E: SveFloat> AsRef<Arc<Grid<E>>> for DistWilson<'_, E> {
    fn as_ref(&self) -> &Arc<Grid<E>> {
        self.op.grid()
    }
}

/// `v` with the complex number of each listed lane replaced by `halo`'s:
/// `halo` holds `stride` scalars per face site, the number at scalar
/// `offset` within the site.
#[inline(always)]
fn patched<E: SveFloat, const N: usize, C: HostCopy>(
    eng: &Words<'_, E, N, C>,
    v: CVec<N>,
    patches: &[(u16, u32)],
    halo: &[f64],
    stride: usize,
    offset: usize,
) -> CVec<N> {
    // An `N`-byte word holds at most `N` elements.
    let word = eng.word_len();
    let mut buf = [E::zero(); N];
    eng.store(&mut buf[..word], v);
    for &(lane, fidx) in patches {
        let base = fidx as usize * stride + offset;
        buf[2 * lane as usize] = E::from_f64(halo[base]);
        buf[2 * lane as usize + 1] = E::from_f64(halo[base + 1]);
    }
    eng.load(&buf[..word])
}

/// Serialize components `comp(0)`, …, `comp(ncomp − 1)` of the listed
/// `(outer site, lane)` pairs of a field into a face buffer, `2 · ncomp`
/// scalars per site.
fn pack_face<K: FieldKind, E: SveFloat>(
    f: &Field<K, E>,
    list: &[(u32, u16)],
    ncomp: usize,
    comp: impl Fn(usize) -> usize,
    buf: &mut [f64],
) {
    for (&(o, lane), site) in list.iter().zip(buf.chunks_exact_mut(2 * ncomp)) {
        let li = 2 * lane as usize;
        for (k, z) in site.chunks_exact_mut(2).enumerate() {
            let w = &f.word(o as usize, comp(k))[li..li + 2];
            z[0] = w[0].to_f64();
            z[1] = w[1].to_f64();
        }
    }
}

/// Restrict a globally-seeded field to the rank-local lattice, site by
/// site: each rank builds the same global field and keeps its own block.
pub fn restrict_field<K: FieldKind>(ctx: &RankCtx, global: &Field<K>) -> Field<K> {
    let mut out = Field::<K>::zero(ctx.grid.clone());
    for local in ctx.grid.coords() {
        let g = ctx.to_global(&local);
        for comp in 0..K::NCOMP {
            out.poke(&local, comp, global.peek(&g, comp));
        }
    }
    out
}

/// Distributed Conjugate Gradient on `M†M x = b`: the Krylov driver in
/// the operator's [`Dirac::normal`] space. The operator applications overlap comms with
/// interior compute; every recurrence scalar is a reduction of the rank
/// grid, so for a fixed global lattice the solution and residual history
/// are **bit-identical at any rank count** (uncompressed wire), and
/// invariant under vector length and worker thread count. Every rank must
/// call it, with the same arguments but its own slab of `b`.
pub fn dist_cg(
    dw: &DistWilson,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
) -> (FermionField, SolveReport) {
    let span = qcd_trace::span!("solver.dist_cg", b.grid().engine().ctx());
    krylov::cg_solve(
        &mut dw.normal(&mut b.zero_like()),
        b,
        Start::Zero,
        tol,
        max_iter,
        span,
        "solver.dist_cg",
        krylov::no_observer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comms::{run_multinode_grid, run_multinode_topo, NetworkModel};
    use crate::layout::{lex, Coor, Grid};
    use crate::simd::SimdBackend;
    use crate::solver::cg;
    use crate::tensor::su3::random_gauge;
    use crate::topology::RankTopology;
    use sve::VectorLength;

    const GLOBAL: Coor = [4, 4, 4, 8];
    const VL: VectorLength = VectorLength::of(256);

    fn global_op(two_row: bool) -> (WilsonDirac, FermionField) {
        let g = Grid::new(GLOBAL, VL, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 7);
        let psi = FermionField::random(g.clone(), 11);
        let d = if two_row {
            WilsonDirac::new_two_row(u, 0.3)
        } else {
            WilsonDirac::new(u, 0.3)
        };
        (d, psi)
    }

    fn local_setup<'c>(ctx: &'c RankCtx, wire: GaugeWire) -> (DistWilson<'c>, FermionField) {
        let g = Grid::new(GLOBAL, VL, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 7);
        let psi = FermionField::random(g, 11);
        let ul = restrict_field(ctx, &u);
        let psil = restrict_field(ctx, &psi);
        (DistWilson::new(ctx, ul, 0.3, wire, Compression::None), psil)
    }

    /// Per-site bit comparison of a rank-local field against the matching
    /// block of a global reference field.
    fn assert_matches_global(ctx: &RankCtx, local: &FermionField, global: &FermionField) {
        for x in ctx.grid.coords() {
            let g = ctx.to_global(&x);
            for comp in 0..NCOMP {
                let lv = local.peek(&x, comp);
                let gv = global.peek(&g, comp);
                assert_eq!(
                    (lv.re.to_bits(), lv.im.to_bits()),
                    (gv.re.to_bits(), gv.im.to_bits()),
                    "site {g:?} comp {comp} rank {}",
                    ctx.rank
                );
            }
        }
    }

    #[test]
    fn distributed_hopping_matches_the_global_operator_bitwise() {
        // 1-d along t and along x, 2-d, 3-d and the full 4-d decomposition
        // ("domain decomposition in 1 to 4 dimensions", paper §II-A).
        let rank_grids = [
            [1, 1, 1, 2],
            [1, 1, 2, 2],
            [1, 1, 1, 4],
            [2, 1, 1, 2],
            [2, 2, 1, 2],
            [2, 2, 2, 2],
            [2, 1, 1, 1],
        ];
        for rank_grid in rank_grids {
            for wire in [GaugeWire::Full, GaugeWire::TwoRow] {
                for dagger in [false, true] {
                    let (d, psi) = global_op(matches!(wire, GaugeWire::TwoRow));
                    let reference = if dagger {
                        d.hopping_dag(&psi)
                    } else {
                        d.hopping(&psi)
                    };
                    run_multinode_grid(GLOBAL, rank_grid, VL, SimdBackend::Fcmla, |ctx| {
                        let (dw, psil) = local_setup(ctx, wire);
                        let mut out = FermionField::zero(ctx.grid.clone());
                        dw.dslash_overlapped(&psil, &mut out, dagger, None);
                        assert_matches_global(ctx, &out, &reference);
                    });
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "split dimension 0 leaves fewer than 2 local sites")]
    fn a_split_leaving_one_site_per_rank_is_refused() {
        // [4,4,4,8] over four x-ranks: one local site along x, so a face
        // would be both faces of the rank.
        run_multinode_grid(GLOBAL, [4, 1, 1, 1], VL, SimdBackend::Fcmla, |ctx| {
            local_setup(ctx, GaugeWire::Full);
        });
    }

    #[test]
    fn distributed_normal_operator_matches_the_global_one_bitwise() {
        let (d, psi) = global_op(true);
        let reference = d.mdag_m(&psi);
        run_multinode_grid(GLOBAL, [1, 1, 2, 2], VL, SimdBackend::Fcmla, |ctx| {
            let (dw, psil) = local_setup(ctx, GaugeWire::TwoRow);
            let mut out = FermionField::zero(ctx.grid.clone());
            dw.mdag_m_into(&psil, &mut psil.zero_like(), &mut out);
            assert_matches_global(ctx, &out, &reference);
        });
    }

    /// One rank count's outcome: sorted per-component solution bits plus
    /// the residual-history bits.
    type SolveBits = (Vec<(usize, u64, u64)>, Vec<u64>);

    /// Gather one rank's solution into (global site, comp) → bit pairs.
    fn solution_bits(ctx: &RankCtx, x: &FermionField) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        for local in ctx.grid.coords() {
            let g = ctx.to_global(&local);
            let gidx = lex(&g, &ctx.global_dims);
            for comp in 0..NCOMP {
                let v = x.peek(&local, comp);
                out.push((gidx * NCOMP + comp, v.re.to_bits(), v.im.to_bits()));
            }
        }
        out
    }

    #[test]
    fn distributed_solve_is_bit_identical_across_rank_counts() {
        let mut runs: Vec<SolveBits> = Vec::new();
        for nranks in [1usize, 2, 4] {
            let mut rank_grid = [1; NDIM];
            rank_grid[3] = nranks;
            let mut per_rank =
                run_multinode_grid(GLOBAL, rank_grid, VL, SimdBackend::Fcmla, |ctx| {
                    let g = Grid::new(GLOBAL, VL, SimdBackend::Fcmla);
                    let u = random_gauge(g.clone(), 7);
                    let b = FermionField::random(g, 13);
                    let ul = restrict_field(ctx, &u);
                    let bl = restrict_field(ctx, &b);
                    let dw = DistWilson::new(ctx, ul, 0.3, GaugeWire::TwoRow, Compression::None);
                    let (x, report) = dist_cg(&dw, &bl, 1e-8, 60);
                    assert!(report.converged, "R={nranks} failed to converge");
                    assert!(report.residual < 1e-7);
                    (
                        solution_bits(ctx, &x),
                        report
                            .history
                            .iter()
                            .map(|h| h.to_bits())
                            .collect::<Vec<_>>(),
                    )
                });
            let mut bits: Vec<(usize, u64, u64)> = per_rank
                .iter_mut()
                .flat_map(|(b, _)| std::mem::take(b))
                .collect();
            bits.sort_unstable();
            let history = per_rank.pop().unwrap().1;
            for (_, h) in &per_rank {
                assert_eq!(*h, history, "ranks disagree on the residual history");
            }
            runs.push((bits, history));
        }
        for run in &runs[1..] {
            assert_eq!(run.0, runs[0].0, "solutions differ across rank counts");
            assert_eq!(run.1, runs[0].1, "histories differ across rank counts");
        }
    }

    #[test]
    fn distributed_solve_agrees_with_the_single_process_solver() {
        let g = Grid::new(GLOBAL, VL, SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 7);
        let b = FermionField::random(g.clone(), 13);
        let d = WilsonDirac::new_two_row(u.clone(), 0.3);
        let (x_ref, rep_ref) = cg(&d, &b, 1e-10, 120);
        assert!(rep_ref.converged);
        run_multinode_grid(GLOBAL, [1, 1, 1, 2], VL, SimdBackend::Fcmla, |ctx| {
            let ul = restrict_field(ctx, &u);
            let bl = restrict_field(ctx, &b);
            let dw = DistWilson::new(ctx, ul, 0.3, GaugeWire::TwoRow, Compression::None);
            let (x, report) = dist_cg(&dw, &bl, 1e-10, 120);
            assert!(report.converged);
            for local in ctx.grid.coords() {
                let gc = ctx.to_global(&local);
                for comp in 0..NCOMP {
                    let a = x.peek(&local, comp);
                    let r = x_ref.peek(&gc, comp);
                    assert!(
                        (a.re - r.re).abs() < 1e-6 && (a.im - r.im).abs() < 1e-6,
                        "distributed and single-process solutions disagree at {gc:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn face_traffic_matches_the_pinned_wire_model() {
        for (wire, compression) in [
            (GaugeWire::Full, Compression::None),
            (GaugeWire::TwoRow, Compression::None),
            (GaugeWire::TwoRow, Compression::F16),
        ] {
            run_multinode_grid(GLOBAL, [1, 1, 1, 2], VL, SimdBackend::Fcmla, |ctx| {
                let g = Grid::new(GLOBAL, VL, SimdBackend::Fcmla);
                let u = random_gauge(g.clone(), 7);
                let psi = FermionField::random(g, 11);
                let ul = restrict_field(ctx, &u);
                let psil = restrict_field(ctx, &psi);
                let dw = DistWilson::new(ctx, ul, 0.3, wire, compression);
                assert_eq!(
                    ctx.sent_bytes.get(),
                    dw.ghost_bytes(),
                    "ghost exchange off-model for {wire:?}/{compression:?}"
                );
                let mut out = FermionField::zero(ctx.grid.clone());
                for _ in 0..3 {
                    dw.apply_into(&psil, &mut out);
                }
                assert_eq!(
                    ctx.sent_bytes.get(),
                    dw.modeled_wire_bytes(),
                    "face traffic off-model for {wire:?}/{compression:?}"
                );
            });
        }
    }

    #[test]
    fn overlap_accounting_attributes_flight_time_to_every_sweep() {
        // [4,4,8,8] over 2 t-ranks: the local [4,4,8,4] lattice puts its
        // vnode split on dim 2 (largest extent), leaving rdims[3] = 4 and a
        // genuine interior window between the two t-faces.
        run_multinode_topo(
            [4, 4, 8, 8],
            RankTopology::one_dim(2),
            VL,
            SimdBackend::Fcmla,
            NetworkModel::custom(10_000, 1.0),
            |ctx| {
                let g = Grid::new([4, 4, 8, 8], VL, SimdBackend::Fcmla);
                let ul = restrict_field(ctx, &random_gauge(g.clone(), 7));
                let psil = restrict_field(ctx, &FermionField::random(g, 11));
                let dw = DistWilson::new(ctx, ul, 0.3, GaugeWire::TwoRow, Compression::None);
                let (interior, boundary) = dw.interior_boundary_sites();
                assert!(interior > 0, "no overlap window on this geometry");
                assert!(boundary > 0);
                ctx.reset_comm_counters();
                let mut out = FermionField::zero(ctx.grid.clone());
                dw.apply_into(&psil, &mut out);
                // Two faces landed, each with ≥ 10 µs modeled latency.
                assert!(ctx.flight_ns() >= 20_000, "flight {}", ctx.flight_ns());
            },
        );
    }

    #[test]
    fn r1_topology_needs_no_channels_and_still_solves() {
        run_multinode_grid(GLOBAL, [1, 1, 1, 1], VL, SimdBackend::Fcmla, |ctx| {
            let g = Grid::new(GLOBAL, VL, SimdBackend::Fcmla);
            let u = random_gauge(g.clone(), 7);
            let b = FermionField::random(g, 13);
            let dw = DistWilson::new(
                ctx,
                restrict_field(ctx, &u),
                0.3,
                GaugeWire::TwoRow,
                Compression::None,
            );
            let (interior, boundary) = dw.interior_boundary_sites();
            assert_eq!(boundary, 0);
            assert_eq!(interior, ctx.grid.osites());
            let (x, report) = dist_cg(&dw, &restrict_field(ctx, &b), 1e-8, 60);
            assert!(report.converged);
            assert_eq!(ctx.sent_bytes.get(), 0);
            drop(x);
        });
    }
}
