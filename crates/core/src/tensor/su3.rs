//! SU(3) color algebra.
//!
//! "The gauge matrices carry color indices and are represented by 3 × 3
//! matrices with complex entries" (paper, Section II-A). Scalar routines
//! build and validate gauge configurations; the word-level routines are the
//! color kernels of the hopping term, running on SIMD words so every call
//! processes one matrix-vector product per virtual node.

use crate::complex::Complex;
use crate::field::{gauge_comp, Field, GaugeKind};
use crate::layout::{Coor, Grid, NCOLOR, NDIM};
use crate::rng::{stream_id, uniform};
use crate::simd::{CVec, SimdEngine};
use std::sync::Arc;
use sve::SveFloat;

/// A scalar 3x3 complex matrix.
pub type ColorMatrix = [[Complex; NCOLOR]; NCOLOR];
/// A scalar color 3-vector.
pub type ColorVector = [Complex; NCOLOR];

/// Matrix-vector product `U v` (scalar reference path).
pub fn mat_vec_scalar(u: &ColorMatrix, v: &ColorVector) -> ColorVector {
    std::array::from_fn(|r| (0..NCOLOR).fold(Complex::ZERO, |acc, c| acc + u[r][c] * v[c]))
}

/// Adjoint matrix-vector product `U† v` (scalar reference path).
pub fn mat_dag_vec_scalar(u: &ColorMatrix, v: &ColorVector) -> ColorVector {
    std::array::from_fn(|r| (0..NCOLOR).fold(Complex::ZERO, |acc, c| acc + u[c][r].conj() * v[c]))
}

/// Matrix product `A B` (scalar path).
pub fn mat_mul_scalar(a: &ColorMatrix, b: &ColorMatrix) -> ColorMatrix {
    std::array::from_fn(|r| {
        std::array::from_fn(|c| (0..NCOLOR).fold(Complex::ZERO, |acc, k| acc + a[r][k] * b[k][c]))
    })
}

/// Hermitian conjugate `U†`.
pub fn dagger(u: &ColorMatrix) -> ColorMatrix {
    std::array::from_fn(|r| std::array::from_fn(|c| u[c][r].conj()))
}

/// Determinant of a 3x3 complex matrix.
pub fn det(u: &ColorMatrix) -> Complex {
    u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
        - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
        + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
}

/// Deviation from unitarity: `max |U†U - 1|` entry-wise.
pub fn unitarity_defect(u: &ColorMatrix) -> f64 {
    let udu = mat_mul_scalar(&dagger(u), u);
    let mut worst: f64 = 0.0;
    for r in 0..NCOLOR {
        for c in 0..NCOLOR {
            let want = if r == c { Complex::ONE } else { Complex::ZERO };
            worst = worst.max((udu[r][c] - want).abs());
        }
    }
    worst
}

fn cdot(a: &ColorVector, b: &ColorVector) -> Complex {
    (0..NCOLOR).fold(Complex::ZERO, |acc, i| acc + a[i].conj() * b[i])
}

fn vnorm(a: &ColorVector) -> f64 {
    cdot(a, a).re.sqrt()
}

/// Project a (near-)invertible matrix onto SU(3): Gram-Schmidt the first
/// two rows, third row = conjugate cross product (guarantees unitarity and
/// `det = +1`). For a matrix that is already special unitary up to rounding
/// drift this is the standard reunitarization used on long HMC chains: it
/// removes the `O(drift)` defect while moving each entry by `O(drift)`.
pub fn project_su3(m: &ColorMatrix) -> ColorMatrix {
    let mut rows: [ColorVector; 2] = [m[0], m[1]];
    // Normalize row 0.
    let n0 = vnorm(&rows[0]);
    for c in 0..NCOLOR {
        rows[0][c] = rows[0][c].scale(1.0 / n0);
    }
    // Orthogonalize and normalize row 1.
    let overlap = cdot(&rows[0], &rows[1]);
    for c in 0..NCOLOR {
        rows[1][c] -= rows[0][c] * overlap;
    }
    let n1 = vnorm(&rows[1]);
    for c in 0..NCOLOR {
        rows[1][c] = rows[1][c].scale(1.0 / n1);
    }
    // Row 2 = conj(row0 x row1): unitary completion with det = 1.
    let r0 = rows[0];
    let r1 = rows[1];
    let row2: ColorVector = [
        (r0[1] * r1[2] - r0[2] * r1[1]).conj(),
        (r0[2] * r1[0] - r0[0] * r1[2]).conj(),
        (r0[0] * r1[1] - r0[1] * r1[0]).conj(),
    ];
    [rows[0], rows[1], row2]
}

/// The two stored rows of a two-row compressed SU(3) link.
pub type TwoRowMatrix = [ColorVector; 2];

/// Two-row compression of an SU(3) link: keep rows 0 and 1 verbatim (12
/// reals instead of 18). Lossless for special-unitary matrices, whose third
/// row is determined by the first two.
pub fn compress_su3(u: &ColorMatrix) -> TwoRowMatrix {
    [u[0], u[1]]
}

/// Rebuild the full link from its two stored rows: the third row is the
/// conjugate cross product `conj(row0 × row1)` — the same unitary
/// completion [`project_su3`] uses, so for an exactly special-unitary input
/// `reconstruct_su3(&compress_su3(u))` recovers `u` to rounding.
pub fn reconstruct_su3(rows: &TwoRowMatrix) -> ColorMatrix {
    let (r0, r1) = (rows[0], rows[1]);
    let row2: ColorVector = [
        (r0[1] * r1[2] - r0[2] * r1[1]).conj(),
        (r0[2] * r1[0] - r0[0] * r1[2]).conj(),
        (r0[0] * r1[1] - r0[1] * r1[0]).conj(),
    ];
    [rows[0], rows[1], row2]
}

/// A deterministic pseudo-random SU(3) matrix for (seed, stream): two
/// random complex rows pushed through [`project_su3`].
pub fn random_su3(seed: u64, stream: u64) -> ColorMatrix {
    let rows: [ColorVector; 2] = std::array::from_fn(|r| {
        std::array::from_fn(|c| {
            Complex::new(
                uniform(seed, stream.wrapping_mul(64) + (r * 6 + c * 2) as u64),
                uniform(seed, stream.wrapping_mul(64) + (r * 6 + c * 2 + 1) as u64),
            )
        })
    });
    let zero: ColorVector = [Complex::ZERO; NCOLOR];
    project_su3(&[rows[0], rows[1], zero])
}

/// Fill a gauge field with deterministic random SU(3) links (one matrix per
/// site and direction, layout independent).
pub fn random_gauge<E: SveFloat>(grid: Arc<Grid<E>>, seed: u64) -> Field<GaugeKind, E> {
    let mut u = Field::<GaugeKind, E>::zero(grid.clone());
    for x in grid.coords() {
        let gidx = grid.global_index(&x);
        for mu in 0..NDIM {
            let m = random_su3(seed, stream_id(gidx, mu, 0) | 1);
            for r in 0..NCOLOR {
                for c in 0..NCOLOR {
                    u.poke(&x, gauge_comp(mu, r, c), m[r][c]);
                }
            }
        }
    }
    u
}

/// A unit (free-field) gauge configuration: every link the identity.
pub fn unit_gauge<E: SveFloat>(grid: Arc<Grid<E>>) -> Field<GaugeKind, E> {
    let mut u = Field::<GaugeKind, E>::zero(grid.clone());
    for x in grid.coords() {
        for mu in 0..NDIM {
            for r in 0..NCOLOR {
                u.poke(&x, gauge_comp(mu, r, r), Complex::ONE);
            }
        }
    }
    u
}

/// Read one link matrix at a site (scalar/test path).
pub fn peek_link<E: SveFloat>(u: &Field<GaugeKind, E>, x: &Coor, mu: usize) -> ColorMatrix {
    std::array::from_fn(|r| std::array::from_fn(|c| u.peek(x, gauge_comp(mu, r, c))))
}

// ---- word-level kernels (one product per virtual node per call) ----

/// `out[r] = Σ_c u[r][c] * v[c]` over SIMD words: 9 complex multiply-adds.
#[inline]
pub fn mat_vec<E: SveFloat, const N: usize>(
    eng: &SimdEngine<E>,
    u: &[[CVec<N>; NCOLOR]; NCOLOR],
    v: &[CVec<N>; NCOLOR],
) -> [CVec<N>; NCOLOR] {
    std::array::from_fn(|r| {
        let mut acc = eng.mult(u[r][0], v[0]);
        acc = eng.madd(acc, u[r][1], v[1]);
        eng.madd(acc, u[r][2], v[2])
    })
}

/// `out[r] = Σ_c conj(u[c][r]) * v[c]` over SIMD words — the `U†` leg of the
/// hopping term, using the conjugated-FCMLA idiom (paper Eq. (2), second
/// line) instead of materializing the adjoint.
#[inline]
pub fn mat_dag_vec<E: SveFloat, const N: usize>(
    eng: &SimdEngine<E>,
    u: &[[CVec<N>; NCOLOR]; NCOLOR],
    v: &[CVec<N>; NCOLOR],
) -> [CVec<N>; NCOLOR] {
    std::array::from_fn(|r| {
        let mut acc = eng.mult_conj(u[0][r], v[0]);
        acc = eng.madd_conj(acc, u[1][r], v[1]);
        eng.madd_conj(acc, u[2][r], v[2])
    })
}

/// Word-level third-row reconstruction: `row2[c] = conj(r0[a]·r1[b] −
/// r0[b]·r1[a])` with `(a, b)` cycling over colors — 6 complex multiplies
/// per word where loading the row would cost 3 word loads. This is the
/// compute the two-row operator mode trades for gauge bandwidth.
#[inline]
pub fn reconstruct_row2<E: SveFloat, const N: usize>(
    eng: &SimdEngine<E>,
    r0: &[CVec<N>; NCOLOR],
    r1: &[CVec<N>; NCOLOR],
) -> [CVec<N>; NCOLOR] {
    std::array::from_fn(|c| {
        let (a, b) = ((c + 1) % NCOLOR, (c + 2) % NCOLOR);
        eng.conj(eng.sub(eng.mult(r0[a], r1[b]), eng.mult(r0[b], r1[a])))
    })
}

/// `out = a b` over SIMD words: the 3×3 complex matrix product (27
/// multiply-adds), one product per virtual node per call — the plaquette /
/// staple building block of the HMC gauge force.
#[inline]
pub fn mat_mul<E: SveFloat, const N: usize>(
    eng: &SimdEngine<E>,
    a: &[[CVec<N>; NCOLOR]; NCOLOR],
    b: &[[CVec<N>; NCOLOR]; NCOLOR],
) -> [[CVec<N>; NCOLOR]; NCOLOR] {
    std::array::from_fn(|r| {
        std::array::from_fn(|c| {
            let mut acc = eng.mult(a[r][0], b[0][c]);
            acc = eng.madd(acc, a[r][1], b[1][c]);
            eng.madd(acc, a[r][2], b[2][c])
        })
    })
}

/// `out = a b†` over SIMD words, via the conjugated-FCMLA idiom
/// (`conj(b[c][k]) * a[r][k]` — complex multiplication commutes) instead of
/// materializing the adjoint.
#[inline]
pub fn mat_mul_dag<E: SveFloat, const N: usize>(
    eng: &SimdEngine<E>,
    a: &[[CVec<N>; NCOLOR]; NCOLOR],
    b: &[[CVec<N>; NCOLOR]; NCOLOR],
) -> [[CVec<N>; NCOLOR]; NCOLOR] {
    std::array::from_fn(|r| {
        std::array::from_fn(|c| {
            let mut acc = eng.mult_conj(b[c][0], a[r][0]);
            acc = eng.madd_conj(acc, b[c][1], a[r][1]);
            eng.madd_conj(acc, b[c][2], a[r][2])
        })
    })
}

/// `out = a† b` over SIMD words (conjugated-FCMLA on the left factor).
#[inline]
pub fn mat_dag_mul<E: SveFloat, const N: usize>(
    eng: &SimdEngine<E>,
    a: &[[CVec<N>; NCOLOR]; NCOLOR],
    b: &[[CVec<N>; NCOLOR]; NCOLOR],
) -> [[CVec<N>; NCOLOR]; NCOLOR] {
    std::array::from_fn(|r| {
        std::array::from_fn(|c| {
            let mut acc = eng.mult_conj(a[0][r], b[0][c]);
            acc = eng.madd_conj(acc, a[1][r], b[1][c]);
            eng.madd_conj(acc, a[2][r], b[2][c])
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdBackend;
    use sve::VectorLength;

    #[test]
    fn random_su3_is_special_unitary() {
        for stream in 1..64u64 {
            let u = random_su3(11, stream);
            assert!(
                unitarity_defect(&u) < 1e-12,
                "stream {stream}: defect {}",
                unitarity_defect(&u)
            );
            let d = det(&u);
            assert!(
                (d - Complex::ONE).abs() < 1e-12,
                "stream {stream}: det {d:?}"
            );
        }
    }

    #[test]
    fn distinct_streams_give_distinct_matrices() {
        let a = random_su3(11, 1);
        let b = random_su3(11, 2);
        assert!((a[0][0] - b[0][0]).abs() > 1e-6);
    }

    #[test]
    fn scalar_mat_vec_identities() {
        let u = random_su3(3, 5);
        let v: ColorVector = [
            Complex::new(1.0, 2.0),
            Complex::new(-0.5, 0.25),
            Complex::new(0.0, -1.0),
        ];
        // U†(Uv) = v (unitarity).
        let uv = mat_vec_scalar(&u, &v);
        let back = mat_dag_vec_scalar(&u, &uv);
        for c in 0..NCOLOR {
            assert!((back[c] - v[c]).abs() < 1e-12);
        }
        // mat_dag_vec == mat_vec with the explicit adjoint.
        let explicit = mat_vec_scalar(&dagger(&u), &v);
        let implicit = mat_dag_vec_scalar(&u, &v);
        for c in 0..NCOLOR {
            assert!((explicit[c] - implicit[c]).abs() < 1e-13);
        }
    }

    #[test]
    fn word_level_matches_scalar_all_backends() {
        for backend in SimdBackend::all() {
            let eng = SimdEngine::<f64>::new(
                std::sync::Arc::new(sve::SveCtx::new(VectorLength::of(512))),
                backend,
            );
            // Different matrix/vector per lane.
            let mats: Vec<ColorMatrix> = (0..eng.lanes_c())
                .map(|l| random_su3(5, l as u64 + 1))
                .collect();
            let vecs: Vec<ColorVector> = (0..eng.lanes_c())
                .map(|l| {
                    std::array::from_fn(|c| Complex::new(l as f64 + c as f64 * 0.5, 1.0 - c as f64))
                })
                .collect();
            let u_words: [[CVec<_>; 3]; 3] =
                std::array::from_fn(|r| std::array::from_fn(|c| eng.from_fn(|l| mats[l][r][c])));
            let v_words: [CVec<_>; 3] = std::array::from_fn(|c| eng.from_fn(|l| vecs[l][c]));
            let uv = mat_vec(&eng, &u_words, &v_words);
            let udv = mat_dag_vec(&eng, &u_words, &v_words);
            for l in 0..eng.lanes_c() {
                let want = mat_vec_scalar(&mats[l], &vecs[l]);
                let want_dag = mat_dag_vec_scalar(&mats[l], &vecs[l]);
                for r in 0..NCOLOR {
                    assert!(
                        (eng.lane(uv[r], l) - want[r]).abs() < 1e-12,
                        "{backend:?} Uv lane {l} row {r}"
                    );
                    assert!(
                        (eng.lane(udv[r], l) - want_dag[r]).abs() < 1e-12,
                        "{backend:?} U†v lane {l} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn project_su3_restores_special_unitarity() {
        // Drift a good matrix by O(1e-6) per entry; the projection must
        // land back on SU(3) and stay within O(drift) of the original.
        let u = random_su3(19, 3);
        let mut drifted = u;
        for r in 0..NCOLOR {
            for c in 0..NCOLOR {
                drifted[r][c] += Complex::new(1e-6 * (r + 1) as f64, -1e-6 * (c as f64 - 1.0));
            }
        }
        assert!(unitarity_defect(&drifted) > 1e-7);
        let fixed = project_su3(&drifted);
        assert!(unitarity_defect(&fixed) < 1e-14);
        assert!((det(&fixed) - Complex::ONE).abs() < 1e-14);
        for r in 0..NCOLOR {
            for c in 0..NCOLOR {
                assert!((fixed[r][c] - u[r][c]).abs() < 1e-5, "moved too far");
            }
        }
        // Idempotent on an exact SU(3) matrix (up to rounding).
        let again = project_su3(&fixed);
        for r in 0..NCOLOR {
            for c in 0..NCOLOR {
                assert!((again[r][c] - fixed[r][c]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn word_level_matmul_matches_scalar_all_backends() {
        for backend in SimdBackend::all() {
            let eng = SimdEngine::<f64>::new(
                std::sync::Arc::new(sve::SveCtx::new(VectorLength::of(256))),
                backend,
            );
            let am: Vec<ColorMatrix> = (0..eng.lanes_c())
                .map(|l| random_su3(7, l as u64 + 1))
                .collect();
            let bm: Vec<ColorMatrix> = (0..eng.lanes_c())
                .map(|l| random_su3(8, l as u64 + 1))
                .collect();
            let aw: [[CVec<_>; 3]; 3] =
                std::array::from_fn(|r| std::array::from_fn(|c| eng.from_fn(|l| am[l][r][c])));
            let bw: [[CVec<_>; 3]; 3] =
                std::array::from_fn(|r| std::array::from_fn(|c| eng.from_fn(|l| bm[l][r][c])));
            let ab = mat_mul(&eng, &aw, &bw);
            let abd = mat_mul_dag(&eng, &aw, &bw);
            let adb = mat_dag_mul(&eng, &aw, &bw);
            for l in 0..eng.lanes_c() {
                let want_ab = mat_mul_scalar(&am[l], &bm[l]);
                let want_abd = mat_mul_scalar(&am[l], &dagger(&bm[l]));
                let want_adb = mat_mul_scalar(&dagger(&am[l]), &bm[l]);
                for r in 0..NCOLOR {
                    for c in 0..NCOLOR {
                        assert!(
                            (eng.lane(ab[r][c], l) - want_ab[r][c]).abs() < 1e-12,
                            "{backend:?} AB lane {l} ({r},{c})"
                        );
                        assert!(
                            (eng.lane(abd[r][c], l) - want_abd[r][c]).abs() < 1e-12,
                            "{backend:?} AB† lane {l} ({r},{c})"
                        );
                        assert!(
                            (eng.lane(adb[r][c], l) - want_adb[r][c]).abs() < 1e-12,
                            "{backend:?} A†B lane {l} ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_row_round_trip_is_exact_to_rounding() {
        // Satellite: ‖U − rec(compress(U))‖ ≤ 1e-13 on random SU(3) links.
        for stream in 1..64u64 {
            let u = random_su3(41, stream);
            let back = reconstruct_su3(&compress_su3(&u));
            let mut worst: f64 = 0.0;
            for r in 0..NCOLOR {
                for c in 0..NCOLOR {
                    worst = worst.max((u[r][c] - back[r][c]).abs());
                }
            }
            assert!(worst <= 1e-13, "stream {stream}: error {worst}");
            // Rows 0 and 1 are bit-identical (carried verbatim).
            for r in 0..2 {
                for c in 0..NCOLOR {
                    assert_eq!(u[r][c], back[r][c], "stream {stream} row {r}");
                }
            }
        }
    }

    #[test]
    fn word_level_row2_matches_scalar_all_backends() {
        for backend in SimdBackend::all() {
            let eng = SimdEngine::<f64>::new(
                std::sync::Arc::new(sve::SveCtx::new(VectorLength::of(512))),
                backend,
            );
            let mats: Vec<ColorMatrix> = (0..eng.lanes_c())
                .map(|l| random_su3(13, l as u64 + 1))
                .collect();
            let r0: [CVec<_>; 3] = std::array::from_fn(|c| eng.from_fn(|l| mats[l][0][c]));
            let r1: [CVec<_>; 3] = std::array::from_fn(|c| eng.from_fn(|l| mats[l][1][c]));
            let row2 = reconstruct_row2(&eng, &r0, &r1);
            for l in 0..eng.lanes_c() {
                let want = reconstruct_su3(&compress_su3(&mats[l]))[2];
                for c in 0..NCOLOR {
                    assert!(
                        (eng.lane(row2[c], l) - want[c]).abs() < 1e-13,
                        "{backend:?} lane {l} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn gauge_field_fill_and_peek() {
        let grid = Grid::<f64>::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let u = random_gauge(grid.clone(), 2);
        for x in grid.coords().take(8) {
            for mu in 0..NDIM {
                let link = peek_link(&u, &x, mu);
                assert!(unitarity_defect(&link) < 1e-12, "{x:?} mu={mu}");
            }
        }
        // Layout independence.
        let u2 = random_gauge(
            Grid::<f64>::new([4, 4, 4, 4], VectorLength::of(1024), SimdBackend::Fcmla),
            2,
        );
        let x = [1, 2, 3, 0];
        assert_eq!(peek_link(&u, &x, 1), peek_link(&u2, &x, 1));
    }

    #[test]
    fn unit_gauge_links_are_identity() {
        let grid = Grid::<f64>::new([2, 2, 2, 2], VectorLength::of(128), SimdBackend::Fcmla);
        let u = unit_gauge(grid.clone());
        let link = peek_link(&u, &[1, 0, 1, 0], 2);
        for r in 0..NCOLOR {
            for c in 0..NCOLOR {
                let want = if r == c { Complex::ONE } else { Complex::ZERO };
                assert_eq!(link[r][c], want);
            }
        }
    }
}
