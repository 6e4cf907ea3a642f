//! The full Clifford algebra of gamma matrices.
//!
//! Grid exposes every product of gamma matrices as a named algebra element
//! (`Gamma::Algebra::GammaX`, `SigmaXY`, `GammaXGamma5`, ...), because
//! physics code multiplies spinors by them constantly (currents, bilinears,
//! clover terms). In the chiral basis every such element is a *signed spin
//! permutation*: each row has exactly one nonzero entry, `±1` or `±i`.
//! [`SpinPerm`] captures that closed form — products, adjoints and field
//! application never touch a dense 4×4 matrix, and applying an element to a
//! fermion field costs one coefficient op per spin component per color.

use crate::complex::Complex;
use crate::field::{spinor_comp, FermionKind, Field};
use crate::layout::{NCOLOR, NSPIN};
use crate::tensor::gamma::{Coeff, Gamma};
use sve::SveFloat;

impl std::ops::Mul for Coeff {
    type Output = Coeff;

    /// Multiply two fourth-roots-of-unity coefficients.
    fn mul(self, rhs: Coeff) -> Coeff {
        use Coeff::*;
        let to_k = |c: Coeff| match c {
            One => 0u8,
            I => 1,
            MinusOne => 2,
            MinusI => 3,
        };
        match (to_k(self) + to_k(rhs)) % 4 {
            0 => One,
            1 => I,
            2 => MinusOne,
            _ => MinusI,
        }
    }
}

impl Coeff {
    /// Complex conjugate of the coefficient.
    pub fn conj(self) -> Coeff {
        match self {
            Coeff::I => Coeff::MinusI,
            Coeff::MinusI => Coeff::I,
            other => other,
        }
    }

    /// As a scalar complex number.
    pub fn value(self) -> Complex {
        self.apply(Complex::ONE)
    }
}

/// A signed spin permutation: row `r` of the matrix has its only nonzero
/// entry `coeff[r]` in column `src[r]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinPerm {
    /// Source spin index per output row.
    pub src: [usize; NSPIN],
    /// Coefficient per output row.
    pub coeff: [Coeff; NSPIN],
}

impl SpinPerm {
    /// The identity element.
    pub const IDENTITY: SpinPerm = SpinPerm {
        src: [0, 1, 2, 3],
        coeff: [Coeff::One; 4],
    };

    /// Build from a dense matrix that is a signed permutation (panics
    /// otherwise — all Clifford elements in this basis are).
    pub fn from_matrix(m: &[[Complex; NSPIN]; NSPIN]) -> SpinPerm {
        let mut src = [0; NSPIN];
        let mut coeff = [Coeff::One; NSPIN];
        for r in 0..NSPIN {
            let mut found = None;
            for c in 0..NSPIN {
                let z = m[r][c];
                if z.abs() > 0.5 {
                    assert!(found.is_none(), "row {r} has multiple entries");
                    let k = if (z - Complex::ONE).abs() < 1e-12 {
                        Coeff::One
                    } else if (z + Complex::ONE).abs() < 1e-12 {
                        Coeff::MinusOne
                    } else if (z - Complex::I).abs() < 1e-12 {
                        Coeff::I
                    } else if (z + Complex::I).abs() < 1e-12 {
                        Coeff::MinusI
                    } else {
                        panic!("entry {z:?} is not a fourth root of unity");
                    };
                    found = Some((c, k));
                }
            }
            let (c, k) = found.expect("row without entries");
            src[r] = c;
            coeff[r] = k;
        }
        SpinPerm { src, coeff }
    }

    /// Hermitian conjugate.
    pub fn adjoint(self) -> SpinPerm {
        let mut out = SpinPerm::IDENTITY;
        for r in 0..NSPIN {
            // Entry (r, src[r]) = coeff[r] maps to entry (src[r], r) =
            // conj(coeff[r]).
            out.src[self.src[r]] = r;
            out.coeff[self.src[r]] = self.coeff[r].conj();
        }
        out
    }

    /// Apply to a scalar spin vector.
    pub fn apply(&self, s: &[Complex; NSPIN]) -> [Complex; NSPIN] {
        std::array::from_fn(|r| self.coeff[r].apply(s[self.src[r]]))
    }

    /// Dense matrix form (test/interop path).
    pub fn matrix(&self) -> [[Complex; NSPIN]; NSPIN] {
        let mut m = [[Complex::ZERO; NSPIN]; NSPIN];
        for r in 0..NSPIN {
            m[r][self.src[r]] = self.coeff[r].value();
        }
        m
    }
}

impl std::ops::Mul for SpinPerm {
    type Output = SpinPerm;

    /// Matrix product `self * rhs`.
    fn mul(self, rhs: SpinPerm) -> SpinPerm {
        let mut out = SpinPerm::IDENTITY;
        for r in 0..NSPIN {
            // (A B) row r: A picks column src_a with coeff_a; B's row src_a
            // picks column src_b with coeff_b.
            let (sa, ca) = (self.src[r], self.coeff[r]);
            out.src[r] = rhs.src[sa];
            out.coeff[r] = ca * rhs.coeff[sa];
        }
        out
    }
}

impl std::ops::Neg for SpinPerm {
    type Output = SpinPerm;

    /// Negate (multiply by −1).
    fn neg(self) -> SpinPerm {
        let mut out = self;
        for c in &mut out.coeff {
            *c = *c * Coeff::MinusOne;
        }
        out
    }
}

/// The sixteen basis elements of the Clifford algebra, named as Grid names
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GammaElement {
    /// The identity.
    Identity,
    /// γx.
    GammaX,
    /// γy.
    GammaY,
    /// γz.
    GammaZ,
    /// γt.
    GammaT,
    /// γ5.
    Gamma5,
    /// γx γ5.
    GammaXGamma5,
    /// γy γ5.
    GammaYGamma5,
    /// γz γ5.
    GammaZGamma5,
    /// γt γ5.
    GammaTGamma5,
    /// σxy = γx γy.
    SigmaXY,
    /// σxz = γx γz.
    SigmaXZ,
    /// σxt = γx γt.
    SigmaXT,
    /// σyz = γy γz.
    SigmaYZ,
    /// σyt = γy γt.
    SigmaYT,
    /// σzt = γz γt.
    SigmaZT,
}

impl GammaElement {
    /// All sixteen elements.
    pub fn all() -> [GammaElement; 16] {
        use GammaElement::*;
        [
            Identity,
            GammaX,
            GammaY,
            GammaZ,
            GammaT,
            Gamma5,
            GammaXGamma5,
            GammaYGamma5,
            GammaZGamma5,
            GammaTGamma5,
            SigmaXY,
            SigmaXZ,
            SigmaXT,
            SigmaYZ,
            SigmaYT,
            SigmaZT,
        ]
    }

    /// The signed spin permutation of this element.
    pub fn perm(self) -> SpinPerm {
        use GammaElement::*;
        let g = |gm: Gamma| SpinPerm::from_matrix(&gm.matrix());
        match self {
            Identity => SpinPerm::IDENTITY,
            GammaX => g(Gamma::X),
            GammaY => g(Gamma::Y),
            GammaZ => g(Gamma::Z),
            GammaT => g(Gamma::T),
            Gamma5 => g(Gamma::Five),
            GammaXGamma5 => g(Gamma::X) * g(Gamma::Five),
            GammaYGamma5 => g(Gamma::Y) * g(Gamma::Five),
            GammaZGamma5 => g(Gamma::Z) * g(Gamma::Five),
            GammaTGamma5 => g(Gamma::T) * g(Gamma::Five),
            SigmaXY => g(Gamma::X) * g(Gamma::Y),
            SigmaXZ => g(Gamma::X) * g(Gamma::Z),
            SigmaXT => g(Gamma::X) * g(Gamma::T),
            SigmaYZ => g(Gamma::Y) * g(Gamma::Z),
            SigmaYT => g(Gamma::Y) * g(Gamma::T),
            SigmaZT => g(Gamma::Z) * g(Gamma::T),
        }
    }
}

/// Multiply a fermion field by a Clifford element: one coefficient op
/// (`fneg`/`fcadd`/nothing) per spin component per color — never a dense
/// matrix multiply.
pub fn mult_gamma<E: SveFloat>(
    element: GammaElement,
    psi: &Field<FermionKind, E>,
) -> Field<FermionKind, E> {
    let perm = element.perm();
    let grid = psi.grid().clone();
    crate::sized!(grid.engine(), |eng| {
        let mut out = Field::<FermionKind, E>::zero(grid.clone());
        for osite in 0..grid.osites() {
            for r in 0..NSPIN {
                for c in 0..NCOLOR {
                    let v = eng.load(psi.word(osite, spinor_comp(perm.src[r], c)));
                    let w = match perm.coeff[r] {
                        Coeff::One => v,
                        Coeff::MinusOne => eng.neg(v),
                        Coeff::I => eng.times_i(v),
                        Coeff::MinusI => eng.times_minus_i(v),
                    };
                    eng.store(out.word_mut(osite, spinor_comp(r, c)), w);
                }
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Grid;
    use crate::simd::SimdBackend;
    use sve::VectorLength;

    fn dense_mul(a: &[[Complex; 4]; 4], b: &[[Complex; 4]; 4]) -> [[Complex; 4]; 4] {
        std::array::from_fn(|r| {
            std::array::from_fn(|c| (0..4).fold(Complex::ZERO, |acc, k| acc + a[r][k] * b[k][c]))
        })
    }

    fn close(a: &[[Complex; 4]; 4], b: &[[Complex; 4]; 4]) -> bool {
        (0..4).all(|r| (0..4).all(|c| (a[r][c] - b[r][c]).abs() < 1e-13))
    }

    #[test]
    fn coeff_group_is_z4() {
        use Coeff::*;
        assert_eq!(I * I, MinusOne);
        assert_eq!(I * MinusI, One);
        assert_eq!(MinusOne * MinusOne, One);
        assert_eq!(I.conj(), MinusI);
        assert_eq!(One.conj(), One);
        for a in [One, I, MinusOne, MinusI] {
            assert_eq!(a * One, a);
            // |c|^2 = 1: c * conj(c) = 1.
            assert_eq!(a * a.conj(), One);
        }
    }

    #[test]
    fn every_gamma_is_a_signed_permutation() {
        for g in [Gamma::X, Gamma::Y, Gamma::Z, Gamma::T, Gamma::Five] {
            let p = SpinPerm::from_matrix(&g.matrix());
            assert!(close(&p.matrix(), &g.matrix()), "{g:?}");
        }
    }

    #[test]
    fn perm_product_matches_dense_product_exhaustively() {
        // All 16 x 16 products agree with dense matrix multiplication.
        for a in GammaElement::all() {
            for b in GammaElement::all() {
                let lhs = (a.perm() * b.perm()).matrix();
                let rhs = dense_mul(&a.perm().matrix(), &b.perm().matrix());
                assert!(close(&lhs, &rhs), "{a:?} * {b:?}");
            }
        }
    }

    #[test]
    fn adjoint_matches_dense_conjugate_transpose() {
        for a in GammaElement::all() {
            let adj = a.perm().adjoint().matrix();
            let dense = a.perm().matrix();
            let want: [[Complex; 4]; 4] =
                std::array::from_fn(|r| std::array::from_fn(|c| dense[c][r].conj()));
            assert!(close(&adj, &want), "{a:?}");
        }
    }

    #[test]
    fn gammas_are_hermitian_and_sigmas_antihermitian() {
        use GammaElement::*;
        for g in [GammaX, GammaY, GammaZ, GammaT, Gamma5] {
            assert_eq!(g.perm().adjoint(), g.perm(), "{g:?} must be hermitian");
        }
        for s in [
            SigmaXY,
            SigmaXZ,
            SigmaXT,
            SigmaYZ,
            SigmaYT,
            SigmaZT,
            GammaXGamma5,
            GammaYGamma5,
            GammaZGamma5,
            GammaTGamma5,
        ] {
            assert_eq!(s.perm().adjoint(), -s.perm(), "{s:?} must be antihermitian");
        }
    }

    #[test]
    fn algebra_squares() {
        use GammaElement::*;
        // γµ² = 1, γ5² = 1, σµν² = −1.
        for g in [GammaX, GammaY, GammaZ, GammaT, Gamma5] {
            assert_eq!(g.perm() * g.perm(), SpinPerm::IDENTITY);
        }
        for s in [SigmaXY, SigmaXZ, SigmaXT, SigmaYZ, SigmaYT, SigmaZT] {
            assert_eq!(s.perm() * s.perm(), -SpinPerm::IDENTITY);
        }
    }

    #[test]
    fn gamma5_is_odd_under_each_direction() {
        use GammaElement::*;
        for (g, g5g) in [
            (GammaX, GammaXGamma5),
            (GammaY, GammaYGamma5),
            (GammaZ, GammaZGamma5),
            (GammaT, GammaTGamma5),
        ] {
            // γµ γ5 as built equals the named element, and γ5 γµ = −γµ γ5.
            assert_eq!(g.perm() * Gamma5.perm(), g5g.perm());
            assert_eq!(Gamma5.perm() * g.perm(), -g5g.perm());
        }
    }

    #[test]
    fn sixteen_elements_are_linearly_independent() {
        // In this basis they are distinct signed permutations; pairwise
        // distinct up to sign is enough to span the 4x4 algebra.
        let all = GammaElement::all();
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert_ne!(a.perm(), b.perm(), "{a:?} == {b:?}");
                assert_ne!(a.perm(), -b.perm(), "{a:?} == -{b:?}");
            }
        }
    }

    #[test]
    fn field_multiplication_matches_scalar_application() {
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let psi = Field::<FermionKind, f64>::random(g.clone(), 31);
        for element in GammaElement::all() {
            let out = mult_gamma(element, &psi);
            let perm = element.perm();
            for x in g.coords().step_by(3) {
                for c in 0..NCOLOR {
                    let s: [Complex; 4] =
                        std::array::from_fn(|sp| psi.peek(&x, spinor_comp(sp, c)));
                    let want = perm.apply(&s);
                    for sp in 0..NSPIN {
                        let got = out.peek(&x, spinor_comp(sp, c));
                        assert_eq!(got, want[sp], "{element:?} {x:?} spin {sp}");
                    }
                }
            }
        }
    }

    #[test]
    fn field_gamma5_matches_dirac_gamma5() {
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let psi = Field::<FermionKind, f64>::random(g.clone(), 32);
        let a = mult_gamma(GammaElement::Gamma5, &psi);
        let b = crate::dirac::gamma5(&psi);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn gamma_bilinears_are_computable() {
        // <ψ| Γ |ψ> for hermitian Γ is real — a standard physics smoke test
        // of the algebra + inner-product machinery together.
        use GammaElement::*;
        let g = Grid::new([2, 2, 2, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let psi = Field::<FermionKind, f64>::random(g.clone(), 33);
        // Hermitian elements -> real bilinears.
        for element in [Identity, GammaX, GammaT, Gamma5] {
            let bilinear = psi.inner(&mult_gamma(element, &psi));
            assert!(
                bilinear.im.abs() < 1e-9 * bilinear.re.abs().max(1.0),
                "{element:?}: <ψ|Γ|ψ> = {bilinear:?} not real"
            );
        }
        // Antihermitian elements (γµγ5, σµν) -> purely imaginary bilinears.
        for element in [GammaXGamma5, GammaTGamma5, SigmaXY, SigmaZT] {
            let bilinear = psi.inner(&mult_gamma(element, &psi));
            assert!(
                bilinear.re.abs() < 1e-9 * bilinear.im.abs().max(1.0),
                "{element:?}: <ψ|Γ|ψ> = {bilinear:?} not imaginary"
            );
        }
    }
}
