//! Circular shift of whole fields — Grid's `Cshift`.
//!
//! `cshift(f, mu, +1)(x) = f(x + µ̂)` with periodic wrap-around. On the
//! virtual-node layout this is a pure data-movement kernel: one load per
//! word, plus a lane permutation on the sub-lattice boundary — the
//! data-parallel primitive many of Grid's ready-made tests are built from
//! (paper, Section V-D).

use crate::field::{Field, FieldKind};
use crate::stencil::{dir_index, Stencil};
use sve::SveFloat;

/// Shifted copy: `out(x) = f(x + disp * µ̂)` for `disp = ±1`.
pub fn cshift<K: FieldKind, E: SveFloat>(f: &Field<K, E>, mu: usize, disp: i32) -> Field<K, E> {
    assert!(disp == 1 || disp == -1, "cshift supports displacement ±1");
    let grid = f.grid().clone();
    let stencil = Stencil::new(grid.clone());
    let eng = grid.engine();
    let _span = qcd_trace::span!("cshift", eng.ctx());
    let sites = grid.volume() as u64;
    let word_bytes = (K::NCOMP * 2 * std::mem::size_of::<E>()) as u64;
    qcd_trace::record_sites(sites);
    qcd_trace::record_bytes(sites * word_bytes, sites * word_bytes);
    let dir = dir_index(mu, disp == 1);
    let mut out = Field::<K, E>::zero(grid.clone());
    crate::sized!(eng, |eng| {
        for osite in 0..grid.osites() {
            let entry = stencil.leg(dir, osite);
            for comp in 0..K::NCOMP {
                let v = stencil.fetch(eng, f, comp, entry);
                eng.store(out.word_mut(osite, comp), v);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::field::{ComplexField, FermionField};
    use crate::layout::Grid;
    use crate::simd::SimdBackend;
    use sve::VectorLength;

    fn coord_field(grid: &std::sync::Arc<Grid>) -> ComplexField {
        let mut f = ComplexField::zero(grid.clone());
        for x in grid.coords() {
            f.poke(
                &x,
                0,
                Complex::new(grid.global_index(&x) as f64, x[0] as f64),
            );
        }
        f
    }

    #[test]
    fn shift_moves_every_site_correctly() {
        for bits in [128, 512, 2048] {
            let grid = Grid::new([4, 4, 4, 8], VectorLength::of(bits), SimdBackend::Fcmla);
            let f = coord_field(&grid);
            for mu in 0..4 {
                let s = cshift(&f, mu, 1);
                for x in grid.coords() {
                    let mut y = x;
                    y[mu] = (y[mu] + 1) % grid.fdims()[mu];
                    assert_eq!(s.peek(&x, 0), f.peek(&y, 0), "vl={bits} mu={mu} {x:?}");
                }
            }
        }
    }

    #[test]
    fn forward_backward_round_trip() {
        let grid = Grid::new([4, 4, 4, 8], VectorLength::of(512), SimdBackend::Fcmla);
        let f = FermionField::random(grid.clone(), 3);
        for mu in 0..4 {
            let round = cshift(&cshift(&f, mu, 1), mu, -1);
            assert_eq!(round.max_abs_diff(&f), 0.0, "mu={mu}");
        }
    }

    #[test]
    fn l_shifts_wrap_to_identity() {
        let grid = Grid::new([4, 4, 4, 8], VectorLength::of(1024), SimdBackend::Fcmla);
        let f = FermionField::random(grid.clone(), 4);
        for mu in 0..4 {
            let mut s = f.clone();
            for _ in 0..grid.fdims()[mu] {
                s = cshift(&s, mu, 1);
            }
            assert_eq!(s.max_abs_diff(&f), 0.0, "mu={mu}");
        }
    }

    #[test]
    fn shift_is_norm_preserving() {
        let grid = Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let f = FermionField::random(grid.clone(), 5);
        let s = cshift(&f, 3, 1);
        assert!((s.norm2() - f.norm2()).abs() < 1e-9 * f.norm2());
    }
}
