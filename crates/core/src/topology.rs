//! Explicit rank topology for multi-rank domain decomposition.
//!
//! "For the coarsest level a set of sub-lattices is distributed over (a
//! very large number of) different processes" (paper, Section II-A). This
//! module owns the *geometry* of that level: how R ranks tile the global
//! lattice ([`RankTopology`]), which dimensions are split, what the halo
//! faces of one rank look like ([`FaceGeometry`]), and exactly how many
//! bytes each face puts on the wire under every wire format — the model
//! the comms telemetry and the `qcd-bench-comms/v1` regression gate pin
//! against.

use crate::comms::{Compression, GaugeWire};
use crate::layout::{delex, lex, Coor, NDIM};

/// Scalars per site in a full-spinor fermion halo (12 complex components).
pub const FERMION_FACE_SCALARS: usize = 24;

/// How R ranks tile the four lattice dimensions: entry `d` is the number
/// of ranks along dimension `d`, ranks are numbered in lexicographic order
/// of their rank-grid coordinate (x0 fastest), and every split dimension
/// is a periodic ring — the same convention the site layout uses, so rank
/// and virtual-node decompositions compose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankTopology {
    rank_grid: Coor,
    nranks: usize,
}

impl RankTopology {
    /// Topology over an explicit rank grid ("domain decomposition in 1 to
    /// 4 dimensions", paper Section II-A).
    pub fn new(rank_grid: Coor) -> Self {
        let nranks: usize = rank_grid.iter().product();
        assert!(nranks >= 1, "rank grid must hold at least one rank");
        RankTopology { rank_grid, nranks }
    }

    /// The single-rank topology (no split dimensions, no faces).
    pub fn single() -> Self {
        RankTopology::new([1; NDIM])
    }

    /// The legacy 1-D decomposition: all ranks along the time dimension.
    pub fn one_dim(nranks: usize) -> Self {
        let mut rank_grid = [1; NDIM];
        rank_grid[crate::comms::SPLIT_DIM] = nranks;
        RankTopology::new(rank_grid)
    }

    /// Canonical topology for a power-of-two rank count: fold ranks onto
    /// dimensions from the time direction down (R=2 → `[1,1,1,2]`,
    /// R=4 → `[1,1,2,2]`, R=16 → `[2,2,2,2]`), mirroring how
    /// [`Grid`](crate::layout::Grid) prefers to split its highest even
    /// dimension for virtual nodes.
    pub fn from_nranks(nranks: usize) -> Self {
        assert!(
            nranks >= 1 && nranks.is_power_of_two(),
            "canonical decomposition needs a power-of-two rank count, got {nranks}"
        );
        let mut rank_grid = [1; NDIM];
        let mut left = nranks;
        let mut d = NDIM - 1;
        while left > 1 {
            rank_grid[d] *= 2;
            left /= 2;
            d = if d == 0 { NDIM - 1 } else { d - 1 };
        }
        RankTopology::new(rank_grid)
    }

    /// Ranks per dimension.
    pub fn rank_grid(&self) -> Coor {
        self.rank_grid
    }

    /// Total ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The dimensions actually split across ranks, in ascending order.
    pub fn split_dims(&self) -> impl Iterator<Item = usize> + '_ {
        (0..NDIM).filter(|&d| self.rank_grid[d] > 1)
    }

    /// This rank's coordinate in the rank grid.
    pub fn rank_coor(&self, rank: usize) -> Coor {
        assert!(rank < self.nranks);
        delex(rank, &self.rank_grid)
    }

    /// Linear rank id of a rank-grid coordinate.
    pub fn rank_of(&self, coor: &Coor) -> usize {
        lex(coor, &self.rank_grid)
    }

    /// The neighbouring rank one step along `±d` (periodic).
    pub fn neighbour(&self, rank: usize, d: usize, forward: bool) -> usize {
        let mut c = self.rank_coor(rank);
        c[d] = if forward {
            (c[d] + 1) % self.rank_grid[d]
        } else {
            (c[d] + self.rank_grid[d] - 1) % self.rank_grid[d]
        };
        self.rank_of(&c)
    }

    /// Local lattice extents for a given global lattice; every split
    /// dimension must divide evenly.
    pub fn local_dims(&self, global_dims: &Coor) -> Coor {
        std::array::from_fn(|d| {
            assert!(
                global_dims[d].is_multiple_of(self.rank_grid[d]),
                "dimension {d} ({} sites) must divide evenly over {} ranks",
                global_dims[d],
                self.rank_grid[d]
            );
            global_dims[d] / self.rank_grid[d]
        })
    }

    /// Global coordinate of `rank`'s local origin.
    pub fn offset(&self, rank: usize, global_dims: &Coor) -> Coor {
        let local = self.local_dims(global_dims);
        let coor = self.rank_coor(rank);
        std::array::from_fn(|d| coor[d] * local[d])
    }

    /// The halo faces of one rank (every rank has the same set): one
    /// [`FaceGeometry`] per split dimension, covering both the `+d` and
    /// `−d` exchange.
    pub fn faces(&self, global_dims: &Coor) -> Vec<FaceGeometry> {
        let local = self.local_dims(global_dims);
        self.split_dims()
            .map(|d| FaceGeometry {
                dim: d,
                sites: local.iter().product::<usize>() / local[d],
            })
            .collect()
    }
}

/// One halo face of a rank: the slice of sites orthogonal to a split
/// dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaceGeometry {
    /// The split dimension this face is orthogonal to.
    pub dim: usize,
    /// Sites in the face (local volume / local extent along `dim`).
    pub sites: usize,
}

/// Bytes one scalar occupies on the wire under `compression`.
fn scalar_bytes(compression: Compression) -> usize {
    match compression {
        Compression::None => 8,
        Compression::F16 => 2,
    }
}

/// Wire bytes of a full-spinor fermion face: 12 complex components per
/// site, (re, im) interleaved.
pub fn fermion_face_bytes(sites: usize, compression: Compression) -> usize {
    sites * FERMION_FACE_SCALARS * scalar_bytes(compression)
}

/// Wire bytes of a gauge face carrying all four link directions per site;
/// the distributed operator's ghost exchange
/// ([`DistWilson::new`](crate::dist::DistWilson::new)) sends only the split
/// direction's link, a quarter of it ([`link_ghost_bytes`]). This is the
/// pinned per-site model:
///
/// | wire    | compression | bytes/site |
/// |---------|-------------|------------|
/// | full    | f64         | 576        |
/// | two-row | f64         | 384        |
/// | two-row | f16         | 96         |
pub fn gauge_face_bytes(sites: usize, wire: GaugeWire, compression: Compression) -> usize {
    let scalars_per_link = match wire {
        GaugeWire::Full => crate::codec::LINK_SCALARS_FULL,
        GaugeWire::TwoRow => crate::codec::LINK_SCALARS_TWO_ROW,
    };
    sites * NDIM * scalars_per_link * scalar_bytes(compression)
}

/// Wire bytes of the operator's one-direction gauge ghost (only `U_d`
/// crosses a `d` face): one link per site.
pub fn link_ghost_bytes(sites: usize, wire: GaugeWire, compression: Compression) -> usize {
    gauge_face_bytes(sites, wire, compression) / NDIM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_decomposition_folds_from_time_down() {
        assert_eq!(RankTopology::from_nranks(1).rank_grid(), [1, 1, 1, 1]);
        assert_eq!(RankTopology::from_nranks(2).rank_grid(), [1, 1, 1, 2]);
        assert_eq!(RankTopology::from_nranks(4).rank_grid(), [1, 1, 2, 2]);
        assert_eq!(RankTopology::from_nranks(8).rank_grid(), [1, 2, 2, 2]);
        assert_eq!(RankTopology::from_nranks(16).rank_grid(), [2, 2, 2, 2]);
        assert_eq!(RankTopology::from_nranks(32).rank_grid(), [2, 2, 2, 4]);
    }

    #[test]
    fn neighbours_form_periodic_rings() {
        let t = RankTopology::new([1, 1, 2, 4]);
        assert_eq!(t.nranks(), 8);
        assert_eq!(t.split_dims().collect::<Vec<_>>(), vec![2, 3]);
        for r in 0..t.nranks() {
            for d in t.split_dims().collect::<Vec<_>>() {
                let up = t.neighbour(r, d, true);
                assert_eq!(t.neighbour(up, d, false), r, "rank {r} dim {d}");
            }
        }
        // Wrap-around along the 4-long time ring.
        let last_t = t.rank_of(&[0, 0, 0, 3]);
        assert_eq!(t.neighbour(last_t, 3, true), t.rank_of(&[0, 0, 0, 0]));
    }

    #[test]
    fn offsets_tile_the_global_lattice() {
        let t = RankTopology::new([2, 1, 2, 2]);
        let global = [4, 4, 4, 8];
        assert_eq!(t.local_dims(&global), [2, 4, 2, 4]);
        let mut seen = std::collections::HashSet::new();
        for r in 0..t.nranks() {
            assert!(seen.insert(t.offset(r, &global)));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn face_sites_match_slice_volumes() {
        let t = RankTopology::new([1, 1, 2, 2]);
        let faces = t.faces(&[4, 4, 4, 8]);
        // Local lattice is [4,4,2,4]: the z face is 4*4*4, the t face 4*4*2.
        assert_eq!(faces.len(), 2);
        assert_eq!(faces[0], FaceGeometry { dim: 2, sites: 64 });
        assert_eq!(faces[1], FaceGeometry { dim: 3, sites: 32 });
    }

    #[test]
    fn gauge_wire_model_is_pinned() {
        // The 576/384/96 B/site model the comms tests and the bench gate
        // both pin.
        for (wire, comp, per_site) in [
            (GaugeWire::Full, Compression::None, 576),
            (GaugeWire::TwoRow, Compression::None, 384),
            (GaugeWire::TwoRow, Compression::F16, 96),
        ] {
            assert_eq!(gauge_face_bytes(1, wire, comp), per_site);
            assert_eq!(gauge_face_bytes(64, wire, comp), 64 * per_site);
            assert_eq!(link_ghost_bytes(1, wire, comp), per_site / 4);
        }
        assert_eq!(fermion_face_bytes(1, Compression::None), 192);
        assert_eq!(fermion_face_bytes(1, Compression::F16), 48);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_dimension_is_rejected() {
        RankTopology::new([1, 1, 1, 3]).local_dims(&[4, 4, 4, 8]);
    }
}
