//! Nearest-neighbour stencil over the virtual-node layout.
//!
//! With the Fig. 1 decomposition, a stencil leg from outer site `o` in
//! direction `±µ` lands either (a) inside the same virtual-node block —
//! neighbour outer site, identical lanes — or (b) across the block
//! boundary — wrapped outer site, plus a *lane permutation* rotating the
//! virtual-node grid by one step in `µ`. The permutation is the same for
//! every boundary site of a given direction, so the stencil stores at most
//! eight tables ("permutations of vector elements" are one of the
//! machine-specific operations of Grid's abstraction layer, Section II-C).

use crate::field::{Field, FieldKind};
use crate::layout::{delex, lex, Coor, Grid, NDIM};
use crate::simd::{CVec, Words};
use std::sync::Arc;
use sve::{HostCopy, SveFloat};

/// One stencil leg: which outer site supplies the data and whether its
/// lanes must be permuted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StencilEntry {
    /// Source outer site.
    pub nbr: u32,
    /// Index into [`Stencil::perm_table`], or `None` when lanes align.
    pub perm: Option<u8>,
}

/// Direction encoding: `mu * 2` = forward (`x + µ̂`), `mu * 2 + 1` =
/// backward (`x - µ̂`).
pub fn dir_index(mu: usize, forward: bool) -> usize {
    mu * 2 + usize::from(!forward)
}

/// Precomputed neighbour tables for all eight directions.
pub struct Stencil<E: SveFloat = f64> {
    grid: Arc<Grid<E>>,
    /// `entries[dir][osite]`.
    entries: Vec<Vec<StencilEntry>>,
    /// Lane-permutation tables; `perms[dir]` is `Some` only if direction
    /// `dir` crosses a split dimension.
    perms: Vec<Option<Vec<usize>>>,
    /// The same tables expanded to element indices (one entry per f64
    /// lane), precomputed so [`Stencil::fetch`] permutes without
    /// allocating.
    eperms: Vec<Option<Vec<usize>>>,
}

impl<E: SveFloat> Stencil<E> {
    /// Build the stencil for `grid`.
    pub fn new(grid: Arc<Grid<E>>) -> Self {
        let rdims = grid.rdims();
        let sl = grid.simd_layout();
        let lanes_c = grid.lanes_c();
        let mut entries = Vec::with_capacity(2 * NDIM);
        let mut perms = Vec::with_capacity(2 * NDIM);
        for mu in 0..NDIM {
            for forward in [true, false] {
                // Lane permutation: out lane (vnode n) sources lane of the
                // vnode one step further along ±µ.
                let table: Vec<usize> = (0..lanes_c)
                    .map(|l| {
                        let mut n = delex(l, &sl);
                        n[mu] = if forward {
                            (n[mu] + 1) % sl[mu]
                        } else {
                            (n[mu] + sl[mu] - 1) % sl[mu]
                        };
                        lex(&n, &sl)
                    })
                    .collect();
                let is_identity = table.iter().enumerate().all(|(i, &t)| i == t);
                let perm_id = if is_identity {
                    None
                } else {
                    Some(entries.len() as u8)
                };
                let legs: Vec<StencilEntry> = (0..grid.osites())
                    .map(|o| {
                        let mut i = delex(o, &rdims);
                        let crossing = if forward {
                            let cross = i[mu] + 1 == rdims[mu];
                            i[mu] = (i[mu] + 1) % rdims[mu];
                            cross
                        } else {
                            let cross = i[mu] == 0;
                            i[mu] = (i[mu] + rdims[mu] - 1) % rdims[mu];
                            cross
                        };
                        StencilEntry {
                            nbr: lex(&i, &rdims) as u32,
                            perm: if crossing { perm_id } else { None },
                        }
                    })
                    .collect();
                entries.push(legs);
                perms.push(if is_identity { None } else { Some(table) });
            }
        }
        let eperms = perms
            .iter()
            .map(|p| p.as_deref().map(|t| grid.engine().expand_perm(t)))
            .collect();
        Stencil {
            grid,
            entries,
            perms,
            eperms,
        }
    }

    /// The grid this stencil indexes.
    pub fn grid(&self) -> &Arc<Grid<E>> {
        &self.grid
    }

    /// The leg for (`dir`, `osite`).
    #[inline]
    pub fn leg(&self, dir: usize, osite: usize) -> StencilEntry {
        self.entries[dir][osite]
    }

    /// A permutation table by id.
    pub fn perm_table(&self, id: u8) -> &[usize] {
        self.perms[id as usize]
            .as_deref()
            .expect("permutation id refers to an identity direction")
    }

    /// Fetch one component word through a stencil leg: load the neighbour's
    /// word and permute lanes if the leg crosses a virtual-node boundary.
    #[inline(always)]
    pub fn fetch<K: FieldKind, const N: usize, C: HostCopy>(
        &self,
        eng: &Words<'_, E, N, C>,
        field: &Field<K, E>,
        comp: usize,
        entry: StencilEntry,
    ) -> CVec<N> {
        let v = eng.load(field.word(entry.nbr as usize, comp));
        self.permute(eng, v, entry)
    }

    /// Apply a leg's lane permutation to an already-loaded word — the
    /// [`Stencil::fetch`] tail for containers that are not [`Field`]s (the
    /// multi-RHS block path loads its own words, then permutes through
    /// here so its dataflow matches `fetch` exactly).
    #[inline(always)]
    pub fn permute<const N: usize, C: HostCopy>(
        &self,
        eng: &Words<'_, E, N, C>,
        v: CVec<N>,
        entry: StencilEntry,
    ) -> CVec<N> {
        match entry.perm {
            None => v,
            Some(id) => eng.permute_elems(
                v,
                self.eperms[id as usize]
                    .as_deref()
                    .expect("permutation id refers to an identity direction"),
            ),
        }
    }

    /// All `(outer site, lane)` pairs of the slice `x[d] = idx`, in global
    /// coordinate (lex) order — the canonical face ordering both ends of a
    /// halo exchange agree on. The transverse ordering is independent of
    /// `idx`, so entry `i` of one rank's `x[d] = L−1` face lines up with
    /// entry `i` of its neighbour's `x[d] = 0` face.
    pub fn face_sites(&self, d: usize, idx: usize) -> Vec<(usize, usize)> {
        self.grid
            .coords()
            .filter(|x| x[d] == idx)
            .map(|x| self.grid.coor_to_osite_lane(&x))
            .collect()
    }

    /// Whether outer site `osite` holds any lane whose site sits on the
    /// local lattice boundary along `d` (`x[d] = 0` or `x[d] = L−1`). When
    /// `d` is split across ranks these are exactly the outer sites whose
    /// `±d` legs wrap around the local lattice and must be patched with
    /// halo data — the *boundary pass* of the overlapped dslash; every
    /// other outer site is pure interior work.
    pub fn osite_touches_face(&self, osite: usize, d: usize) -> bool {
        let rdims = self.grid.rdims();
        let i = delex(osite, &rdims);
        i[d] == 0 || i[d] + 1 == rdims[d]
    }

    /// Scalar oracle: the global coordinate supplying data for global site
    /// `x` through direction `dir`.
    pub fn neighbour_coor(&self, x: &Coor, dir: usize) -> Coor {
        let mu = dir / 2;
        let forward = dir.is_multiple_of(2);
        let f = self.grid.fdims();
        let mut y = *x;
        y[mu] = if forward {
            (y[mu] + 1) % f[mu]
        } else {
            (y[mu] + f[mu] - 1) % f[mu]
        };
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::field::ComplexField;
    use crate::simd::SimdBackend;
    use sve::VectorLength;

    fn grid(bits: usize) -> Arc<Grid> {
        Grid::new([4, 4, 4, 8], VectorLength::of(bits), SimdBackend::Fcmla)
    }

    /// Tag each site with its global index so fetches are verifiable.
    fn tagged(grid: &Arc<Grid>) -> ComplexField {
        let mut f = ComplexField::zero(grid.clone());
        for x in grid.coords() {
            f.poke(&x, 0, Complex::new(grid.global_index(&x) as f64, 0.0));
        }
        f
    }

    #[test]
    fn every_leg_fetches_the_correct_global_site() {
        for bits in [128, 256, 512, 1024, 2048] {
            let g = grid(bits);
            let st = Stencil::new(g.clone());
            let f = tagged(&g);
            for dir in 0..8 {
                for x in g.coords() {
                    let (osite, lane) = g.coor_to_osite_lane(&x);
                    let eng = g.engine().words::<256>();
                    let fetched = st.fetch(&eng, &f, 0, st.leg(dir, osite));
                    let got = g.engine().lane(fetched, lane).re as usize;
                    let want = g.global_index(&st.neighbour_coor(&x, dir));
                    assert_eq!(got, want, "vl={bits} dir={dir} x={x:?}");
                }
            }
        }
    }

    #[test]
    fn interior_legs_have_no_permutation() {
        let g = grid(512);
        let st = Stencil::new(g.clone());
        // Site strictly inside a virtual-node block in every direction.
        let rd = g.rdims();
        if rd.iter().all(|&r| r >= 3) {
            let x = [1, 1, 1, 1];
            let (osite, _) = g.coor_to_osite_lane(&x);
            for dir in 0..8 {
                assert_eq!(st.leg(dir, osite).perm, None);
            }
        }
    }

    #[test]
    fn boundary_legs_permute_only_in_split_dimensions() {
        let g = grid(512); // lanes_c = 4: two dimensions are split
        let st = Stencil::new(g.clone());
        let sl = g.simd_layout();
        for mu in 0..NDIM {
            let dir = dir_index(mu, true);
            let has_perm = (0..g.osites()).any(|o| st.leg(dir, o).perm.is_some());
            assert_eq!(has_perm, sl[mu] > 1, "mu={mu} sl={sl:?}");
        }
    }

    #[test]
    fn forward_then_backward_is_identity() {
        let g = grid(1024);
        let st = Stencil::new(g.clone());
        let f = tagged(&g);
        // cshift-style round trip through raw legs, per site.
        for x in g.coords().step_by(7) {
            let fwd = st.neighbour_coor(&x, dir_index(2, true));
            let back = st.neighbour_coor(&fwd, dir_index(2, false));
            assert_eq!(back, x);
        }
        drop(f);
    }

    #[test]
    fn vl128_never_permutes() {
        let g = Grid::<f64>::new([4, 4, 4, 4], VectorLength::of(128), SimdBackend::Fcmla);
        let st = Stencil::new(g.clone());
        for dir in 0..8 {
            for o in 0..g.osites() {
                assert_eq!(st.leg(dir, o).perm, None);
            }
        }
    }
}
