//! Lattice geometry and the virtual-node data layout (paper, Section II-B).
//!
//! Grid decomposes the sub-lattice owned by one thread over a set of
//! "virtual nodes", one per SIMD lane (Fig. 1): lane `l` of every vector
//! holds the data of virtual node `l`, whose sub-lattice is an
//! `rdims = fdims / simd_layout` block. Because neighbouring sites then
//! live in *different vectors* (same lane, different outer site), the
//! hopping term needs no lane shuffles except when a stencil leg crosses a
//! virtual-node boundary — where it becomes a single lane permutation.
//!
//! A [`Grid`] couples this geometry to a [`SimdEngine`]: the vector length
//! is fixed at construction, the paper's `SVE_VECTOR_LENGTH` discipline
//! ("we have to set a vector length at compile time, despite SVE being
//! vector-length agnostic", Section V-A). A grid is also its own
//! communicator: the grid of one rank of a domain decomposition knows its
//! place in the global lattice, and every reduction over it ends in the
//! global sum (Grid's `GlobalSum`).

use crate::comms::Communicator;
use crate::simd::{SimdBackend, SimdEngine};
use std::sync::Arc;
use sve::SveFloat;
use sve::{SveCtx, VectorLength};

/// Space-time dimensionality.
pub const NDIM: usize = 4;
/// Number of spinor components.
pub const NSPIN: usize = 4;
/// Number of colors (SU(3)).
pub const NCOLOR: usize = 3;

/// A 4-dimensional coordinate or extent vector.
pub type Coor = [usize; NDIM];

/// Lexicographic index of `x` within `dims` (dimension 0 fastest).
pub fn lex(x: &Coor, dims: &Coor) -> usize {
    debug_assert!((0..NDIM).all(|d| x[d] < dims[d]));
    ((x[3] * dims[2] + x[2]) * dims[1] + x[1]) * dims[0] + x[0]
}

/// Inverse of [`lex`].
pub fn delex(mut idx: usize, dims: &Coor) -> Coor {
    let mut x = [0; NDIM];
    for d in 0..NDIM {
        x[d] = idx % dims[d];
        idx /= dims[d];
    }
    x
}

/// The lattice: geometry (full dims, virtual-node layout) plus the SIMD
/// engine everything on it computes with.
///
/// The grid of one rank (built only by
/// [`run_multinode_topo`](crate::comms::run_multinode_topo)) is a *rank
/// grid*: its extents are the rank's sub-lattice, and every reduction over
/// a field on it is the canonical sum over the *global* lattice. Such a
/// reduction is a **collective**, as Grid's `GlobalSum` is: every rank must
/// make it, and all ranks must make their reductions in the same order.
pub struct Grid<E: SveFloat = f64> {
    fdims: Coor,
    simd_layout: Coor,
    rdims: Coor,
    osites: usize,
    volume: usize,
    engine: SimdEngine<E>,
    lex_slots: Vec<u32>,
    /// A rank grid's place: the rank grid's extents and the rank's
    /// communicator.
    rank: Option<(Coor, Arc<Communicator>)>,
}

impl<E: SveFloat> Grid<E> {
    /// Build a lattice of extents `fdims` on "silicon" of vector length
    /// `vl`, lowering complex arithmetic with `backend`.
    ///
    /// Panics if the lattice cannot host the virtual-node decomposition
    /// (every `simd_layout` factor must divide its dimension).
    pub fn new(fdims: Coor, vl: VectorLength, backend: SimdBackend) -> Arc<Self> {
        Self::with_ctx(fdims, Arc::new(SveCtx::new(vl)), backend)
    }

    /// Build over an existing context (shared counters / injected faults).
    pub fn with_ctx(fdims: Coor, ctx: Arc<SveCtx>, backend: SimdBackend) -> Arc<Self> {
        Self::build(fdims, ctx, backend, None)
    }

    /// [`Self::with_ctx`], or with `rank = Some((rank grid, communicator))` the
    /// rank grid of one rank's sub-lattice `fdims`.
    pub(crate) fn build(
        fdims: Coor,
        ctx: Arc<SveCtx>,
        backend: SimdBackend,
        rank: Option<(Coor, Arc<Communicator>)>,
    ) -> Arc<Self> {
        let engine = SimdEngine::new(ctx, backend);
        let lanes_c = engine.lanes_c();
        let simd_layout = Self::decompose(fdims, lanes_c);
        let mut rdims = [0; NDIM];
        for d in 0..NDIM {
            assert!(
                fdims[d].is_multiple_of(simd_layout[d]),
                "dimension {d} ({}) not divisible by simd layout {}",
                fdims[d],
                simd_layout[d]
            );
            rdims[d] = fdims[d] / simd_layout[d];
        }
        let volume: usize = fdims.iter().product();
        let osites: usize = rdims.iter().product();
        debug_assert_eq!(osites * lanes_c, volume);
        let rank_grid = rank.as_ref().map_or([1; NDIM], |(g, _)| *g);
        let global: Coor = std::array::from_fn(|d| fdims[d] * rank_grid[d]);
        let mut grid = Grid {
            fdims,
            simd_layout,
            rdims,
            osites,
            volume,
            engine,
            lex_slots: Vec::with_capacity(global.iter().product()),
            rank,
        };
        for i in 0..global.iter().product() {
            let x = delex(i, &global);
            let rank = lex(&std::array::from_fn(|d| x[d] / fdims[d]), &rank_grid);
            let (osite, lane) = grid.coor_to_osite_lane(&std::array::from_fn(|d| x[d] % fdims[d]));
            let slot = (rank * osites + osite) * lanes_c + lane;
            grid.lex_slots
                .push(u32::try_from(slot).expect("lattice too large"));
        }
        Arc::new(grid)
    }

    /// Split `lanes_c` (a power of two) across dimensions: repeatedly halve
    /// the dimension with the largest remaining extent, preferring the
    /// highest index on ties (Grid spreads the SIMD grid over the later
    /// dimensions first). Keeps every virtual-node sub-lattice "sufficiently
    /// large" and as cubic as possible (paper, Section II-B).
    fn decompose(fdims: Coor, lanes_c: usize) -> Coor {
        assert!(lanes_c.is_power_of_two(), "complex lanes must be 2^k");
        let mut layout = [1; NDIM];
        let mut rem = [0; NDIM];
        rem.copy_from_slice(&fdims);
        let mut todo = lanes_c;
        while todo > 1 {
            let mut best = None;
            for d in 0..NDIM {
                if rem[d] % 2 == 0 {
                    match best {
                        None => best = Some(d),
                        Some(b) if rem[d] >= rem[b] => best = Some(d),
                        _ => {}
                    }
                }
            }
            let d = best.unwrap_or_else(|| {
                panic!("cannot decompose {fdims:?} over {lanes_c} virtual nodes")
            });
            layout[d] *= 2;
            rem[d] /= 2;
            todo /= 2;
        }
        layout
    }

    /// Full lattice extents.
    pub fn fdims(&self) -> Coor {
        self.fdims
    }

    /// Virtual-node grid extents (product = SIMD complex lanes).
    pub fn simd_layout(&self) -> Coor {
        self.simd_layout
    }

    /// Per-virtual-node sub-lattice extents.
    pub fn rdims(&self) -> Coor {
        self.rdims
    }

    /// Number of outer sites (vector words per field component).
    pub fn osites(&self) -> usize {
        self.osites
    }

    /// Total number of lattice sites `V`.
    pub fn volume(&self) -> usize {
        self.volume
    }

    /// Complex SIMD lanes = number of virtual nodes.
    pub fn lanes_c(&self) -> usize {
        self.engine.lanes_c()
    }

    /// The SIMD engine (vector length, backend, counters).
    pub fn engine(&self) -> &SimdEngine<E> {
        &self.engine
    }

    /// The configured vector length.
    pub fn vl(&self) -> VectorLength {
        self.engine.ctx().vl()
    }

    /// Map a global coordinate to its storage location:
    /// `(outer site, complex lane)`.
    pub fn coor_to_osite_lane(&self, x: &Coor) -> (usize, usize) {
        let mut inner = [0; NDIM];
        let mut vnode = [0; NDIM];
        for d in 0..NDIM {
            debug_assert!(x[d] < self.fdims[d], "coordinate out of range");
            vnode[d] = x[d] / self.rdims[d];
            inner[d] = x[d] % self.rdims[d];
        }
        (lex(&inner, &self.rdims), lex(&vnode, &self.simd_layout))
    }

    /// Inverse of [`Self::coor_to_osite_lane`].
    pub fn osite_lane_to_coor(&self, osite: usize, lane: usize) -> Coor {
        let inner = delex(osite, &self.rdims);
        let vnode = delex(lane, &self.simd_layout);
        let mut x = [0; NDIM];
        for d in 0..NDIM {
            x[d] = vnode[d] * self.rdims[d] + inner[d];
        }
        x
    }

    /// The storage slot `osite · lanes_c + lane` of every site, in global
    /// lexicographic site order: the permutation through which a reduction
    /// reads per-site values a sweep wrote in storage order. On a rank grid
    /// it covers the global lattice, rank `r`'s slots offset by `r ·
    /// volume`: it reads the ranks' values allgathered in rank order.
    pub(crate) fn lex_slots(&self) -> &[u32] {
        &self.lex_slots
    }

    /// The communicator a rank grid's reductions travel; `None` on a grid
    /// of the whole lattice.
    pub(crate) fn comm(&self) -> Option<&Communicator> {
        self.rank.as_ref().map(|(_, comm)| &**comm)
    }

    /// This lattice at element type `E2`: the same extents, vector length
    /// and backend on a context of its own. The replica of a rank grid is
    /// the same rank's grid at `E2`, sharing its communicator, so a
    /// reduction over either is the one global sum.
    pub(crate) fn at<E2: SveFloat>(&self) -> Arc<Grid<E2>> {
        let ctx = Arc::new(SveCtx::new(self.vl()));
        Grid::build(self.fdims, ctx, self.engine.backend(), self.rank.clone())
    }

    /// Global lexicographic site index (layout independent; seeds the RNG
    /// so field contents do not depend on the vector length).
    pub fn global_index(&self, x: &Coor) -> usize {
        lex(x, &self.fdims)
    }

    /// Site parity (even/odd checkerboard).
    pub fn parity(&self, x: &Coor) -> usize {
        x.iter().sum::<usize>() % 2
    }

    /// Iterate all global coordinates (test/setup helper).
    pub fn coords(&self) -> impl Iterator<Item = Coor> + '_ {
        (0..self.volume).map(|i| delex(i, &self.fdims))
    }
}

impl<E: SveFloat> std::fmt::Debug for Grid<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid")
            .field("fdims", &self.fdims)
            .field("simd_layout", &self.simd_layout)
            .field("rdims", &self.rdims)
            .field("vl", &self.vl())
            .field("backend", &self.engine.backend())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(fdims: Coor, bits: usize) -> Arc<Grid> {
        Grid::new(fdims, VectorLength::of(bits), SimdBackend::Fcmla)
    }

    #[test]
    fn lex_delex_round_trip() {
        let dims = [4, 3, 5, 2];
        for i in 0..dims.iter().product::<usize>() {
            assert_eq!(lex(&delex(i, &dims), &dims), i);
        }
    }

    #[test]
    fn volume_accounting() {
        // VL512: 8 f64 lanes = 4 complex lanes = 4 virtual nodes.
        let g = grid([4, 4, 4, 8], 512);
        assert_eq!(g.volume(), 512);
        assert_eq!(g.lanes_c(), 4);
        assert_eq!(g.osites(), 128);
        assert_eq!(g.simd_layout().iter().product::<usize>(), g.lanes_c());
        for d in 0..NDIM {
            assert_eq!(g.rdims()[d] * g.simd_layout()[d], g.fdims()[d]);
        }
    }

    #[test]
    fn vl128_has_single_virtual_node() {
        let g = grid([4, 4, 4, 4], 128);
        assert_eq!(g.lanes_c(), 1);
        assert_eq!(g.simd_layout(), [1, 1, 1, 1]);
        assert_eq!(g.osites(), g.volume());
    }

    #[test]
    fn vl2048_decomposes_over_sixteen_vnodes() {
        let g = grid([8, 8, 8, 8], 2048);
        assert_eq!(g.lanes_c(), 16);
        assert_eq!(g.simd_layout().iter().product::<usize>(), 16);
        // Split as evenly as possible: each factor <= 2 here.
        assert!(g.simd_layout().iter().all(|&s| s == 2));
    }

    #[test]
    fn decomposition_prefers_larger_dimensions() {
        // T = 8 is the largest dim: it should be split first.
        let g = grid([2, 2, 2, 8], 256); // 2 vnodes
        assert_eq!(g.simd_layout(), [1, 1, 1, 2]);
    }

    #[test]
    fn coor_storage_round_trip_across_vls() {
        for bits in [128, 256, 512, 1024, 2048] {
            let g = grid([4, 4, 4, 8], bits);
            for x in g.coords() {
                let (osite, lane) = g.coor_to_osite_lane(&x);
                assert!(osite < g.osites());
                assert!(lane < g.lanes_c());
                assert_eq!(g.osite_lane_to_coor(osite, lane), x, "vl={bits}");
            }
        }
    }

    #[test]
    fn every_storage_slot_is_hit_exactly_once() {
        let g = grid([4, 4, 2, 4], 512);
        let mut seen = vec![false; g.osites() * g.lanes_c()];
        for x in g.coords() {
            let (osite, lane) = g.coor_to_osite_lane(&x);
            let slot = osite * g.lanes_c() + lane;
            assert!(!seen[slot], "slot collision at {x:?}");
            seen[slot] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lex_slots_invert_the_storage_map() {
        for bits in [128, 512, 2048] {
            let g = grid([4, 4, 4, 8], bits);
            for (i, &slot) in g.lex_slots().iter().enumerate() {
                let slot = slot as usize;
                let x = g.osite_lane_to_coor(slot / g.lanes_c(), slot % g.lanes_c());
                assert_eq!(g.global_index(&x), i, "vl={bits}");
            }
        }
    }

    #[test]
    fn neighbouring_sites_share_a_lane_inside_a_virtual_node() {
        // The whole point of the layout (paper Fig. 1): sites adjacent
        // within a virtual node block live in the same lane.
        let g = grid([4, 4, 4, 8], 512);
        let (_, lane_a) = g.coor_to_osite_lane(&[0, 0, 0, 0]);
        let (_, lane_b) = g.coor_to_osite_lane(&[1, 0, 0, 0]);
        assert_eq!(lane_a, lane_b);
    }

    #[test]
    #[should_panic(expected = "cannot decompose")]
    fn odd_lattice_with_many_lanes_panics() {
        let _ = grid([3, 3, 3, 3], 512);
    }

    #[test]
    fn parity_checkerboards() {
        let g = grid([4, 4, 4, 4], 128);
        assert_eq!(g.parity(&[0, 0, 0, 0]), 0);
        assert_eq!(g.parity(&[1, 0, 0, 0]), 1);
        assert_eq!(g.parity(&[1, 1, 0, 0]), 0);
    }
}
