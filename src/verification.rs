//! The Section V-D verification campaign.
//!
//! "Grid implements about 100 ready-made tests and benchmarks. We have
//! selected 40 representative tests and benchmarks for verification of the
//! SVE-enabled version of Grid for different SVE vector lengths using ...
//! the ARM SVE instruction emulator ArmIE 18.1." (paper, Section V-D)
//!
//! This module is those 40 checks for the reproduction: each is a named,
//! self-contained validation that runs at any [`VectorLength`], against any
//! [`SimdBackend`], and optionally under an injected [`ToolchainFault`] —
//! reproducing the paper's observation that "some tests fail due to
//! incorrect results for some choices of the SVE vector length and
//! implementations of the predication".

use armie::listings;
use grid::krylov::{no_observer, Start};
use grid::prelude::*;
use grid::simd::SimdEngine;
use grid::{Coor, FermionField};
use std::sync::Arc;
use sve::{SveCtx, ToolchainFault, VectorLength};

/// Configuration one check runs under.
#[derive(Clone, Copy, Debug)]
pub struct CheckCfg {
    /// Vector length of the simulated silicon.
    pub vl: VectorLength,
    /// Complex-arithmetic lowering.
    pub backend: SimdBackend,
    /// Simulated toolchain defect ([`ToolchainFault::None`] = faithful).
    pub fault: ToolchainFault,
}

impl CheckCfg {
    /// A faithful configuration.
    pub fn new(vl: VectorLength, backend: SimdBackend) -> Self {
        CheckCfg {
            vl,
            backend,
            fault: ToolchainFault::None,
        }
    }

    fn ctx(&self) -> SveCtx {
        SveCtx::with_fault(self.vl, self.fault)
    }

    fn grid(&self) -> Arc<Grid> {
        Grid::with_ctx(LAT, Arc::new(self.ctx()), self.backend)
    }

    fn engine(&self) -> SimdEngine {
        SimdEngine::new(Arc::new(self.ctx()), self.backend)
    }
}

/// One verification check.
pub struct Check {
    /// Grid-style test name.
    pub name: &'static str,
    /// Subsystem grouping for the report.
    pub group: &'static str,
    /// The check body.
    pub run: fn(&CheckCfg) -> Result<(), String>,
}

const LAT: Coor = [4, 4, 4, 4];

fn ensure(cond: bool, msg: impl Into<String>) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.into())
    }
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

// ---------- SVE / listing level (VLA code paths — fault-sensitive) ----------

fn test_simd_real_vla(cfg: &CheckCfg) -> Result<(), String> {
    // Listing IV-A at a size that does NOT divide the vector length, so the
    // final iteration runs under a partial predicate.
    let n = 101;
    let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 5.0).collect();
    let y: Vec<f64> = (0..n).map(|i| 3.0 - i as f64 * 0.125).collect();
    let run = listings::run_mult_real(cfg.ctx(), &x, &y);
    let want = listings::mult_real_ref(&x, &y);
    for i in 0..n {
        if !close(run.z[i], want[i], 1e-13) {
            return Err(format!("element {i}: {} != {}", run.z[i], want[i]));
        }
    }
    Ok(())
}

fn test_simd_cplx_autovec(cfg: &CheckCfg) -> Result<(), String> {
    let n = 53; // prime: guarantees a partial tail at every VL
    let x: Vec<f64> = (0..2 * n).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.7).cos()).collect();
    let run = listings::run_mult_cplx_autovec(cfg.ctx(), &x, &y);
    let want = listings::mult_cplx_ref(&x, &y);
    for i in 0..2 * n {
        if !close(run.z[i], want[i], 1e-12) {
            return Err(format!("element {i}: {} != {}", run.z[i], want[i]));
        }
    }
    Ok(())
}

fn test_simd_cplx_fcmla_vla(cfg: &CheckCfg) -> Result<(), String> {
    let n = 53;
    let x: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.3).sin()).collect();
    let y: Vec<f64> = (0..2 * n).map(|i| 1.0 - (i as f64 * 0.1)).collect();
    let run = listings::run_mult_cplx_fcmla_vla(cfg.ctx(), &x, &y);
    let want = listings::mult_cplx_ref(&x, &y);
    for i in 0..2 * n {
        if !close(run.z[i], want[i], 1e-12) {
            return Err(format!("element {i}: {} != {}", run.z[i], want[i]));
        }
    }
    Ok(())
}

fn test_simd_cplx_fcmla_fixed(cfg: &CheckCfg) -> Result<(), String> {
    // The paper's fixed-size style: full vectors only, immune to
    // tail-predication toolchain bugs.
    let n = cfg.vl.lanes64();
    let x: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
    let y: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 + 1.0).collect();
    let run = listings::run_mult_cplx_fcmla_fixed(cfg.ctx(), &x, &y);
    let want = listings::mult_cplx_ref(&x, &y);
    for i in 0..n {
        if !close(run.z[i], want[i], 1e-12) {
            return Err(format!("element {i}"));
        }
    }
    Ok(())
}

fn test_predication_whilelt(cfg: &CheckCfg) -> Result<(), String> {
    // whilelt predicates partition 0..n exactly — the invariant the VLA
    // loop depends on; a tail-predication bug breaks it.
    use sve::intrinsics::svwhilelt;
    let ctx = cfg.ctx();
    let lanes = cfg.vl.lanes64() as u64;
    for n in [1u64, 5, lanes, lanes + 1, 3 * lanes - 1] {
        let mut covered = 0;
        let mut i = 0;
        while i < n {
            let pg = svwhilelt::<f64>(&ctx, i, n);
            covered += pg.active_count::<f64>(cfg.vl) as u64;
            i += lanes;
        }
        if covered != n {
            return Err(format!("whilelt covered {covered} of {n} elements"));
        }
    }
    Ok(())
}

fn test_structure_loads(cfg: &CheckCfg) -> Result<(), String> {
    use sve::intrinsics::{svld2, svptrue, svst2};
    let ctx = cfg.ctx();
    let pg = svptrue::<f64>(&ctx);
    let n = 2 * cfg.vl.lanes64();
    let data: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
    let (a, b) = svld2(&ctx, &pg, &data);
    let mut out = vec![0.0; n];
    svst2(&ctx, &pg, &mut out, &a, &b);
    ensure(out == data, "ld2/st2 round trip failed")
}

fn test_precision_convert(cfg: &CheckCfg) -> Result<(), String> {
    use sve::intrinsics::{cvt_pack_f64_to_f32, cvt_unpack_f32_to_f64, svptrue};
    use sve::VReg;
    let ctx = cfg.ctx();
    let pg = svptrue::<f64>(&ctx);
    let a = VReg::from_fn::<f64>(cfg.vl, |i| i as f64 + 0.5);
    let b = VReg::from_fn::<f64>(cfg.vl, |i| -(i as f64) * 2.0);
    let packed = cvt_pack_f64_to_f32(&ctx, &pg, &a, &b);
    let (ra, rb) = cvt_unpack_f32_to_f64(&ctx, &pg, &packed);
    ensure(
        ra.lanes_eq::<f64>(&a, cfg.vl) && rb.lanes_eq::<f64>(&b, cfg.vl),
        "f64<->f32 pack/unpack failed",
    )
}

fn test_f16_compression(cfg: &CheckCfg) -> Result<(), String> {
    let _ = cfg;
    let mut x = 1.0e-2;
    while x < 1.0e3 {
        let rel = ((x - sve::intrinsics::f64_through_f16(x)) / x).abs();
        if rel > 4.9e-4 {
            return Err(format!("f16 error {rel} at {x}"));
        }
        x *= 1.618;
    }
    Ok(())
}

// ---------- SIMD engine level ----------

fn test_mult_complex(cfg: &CheckCfg) -> Result<(), String> {
    let eng = cfg.engine();
    let a = eng.from_fn(|p| Complex::new(p as f64 + 1.0, -0.5 * p as f64));
    let b = eng.from_fn(|p| Complex::new(0.25 * p as f64 - 1.0, 2.0));
    let r = eng.words().mult(a, b);
    for p in 0..eng.lanes_c() {
        let want = Complex::new(p as f64 + 1.0, -0.5 * p as f64)
            * Complex::new(0.25 * p as f64 - 1.0, 2.0);
        if (eng.lane(r, p) - want).abs() > 1e-12 {
            return Err(format!("lane {p}"));
        }
    }
    Ok(())
}

fn test_mult_conj(cfg: &CheckCfg) -> Result<(), String> {
    let eng = cfg.engine();
    let a = eng.from_fn(|p| Complex::new(1.0, p as f64));
    let b = eng.from_fn(|p| Complex::new(p as f64, -2.0));
    let r = eng.words().mult_conj(a, b);
    for p in 0..eng.lanes_c() {
        let want = Complex::new(1.0, p as f64).conj() * Complex::new(p as f64, -2.0);
        if (eng.lane(r, p) - want).abs() > 1e-12 {
            return Err(format!("lane {p}"));
        }
    }
    Ok(())
}

fn test_times_i(cfg: &CheckCfg) -> Result<(), String> {
    let eng = cfg.engine();
    let a = eng.from_fn(|p| Complex::new(2.0 - p as f64, 0.5 * p as f64));
    let ti = eng.words().times_i(a);
    let tmi = eng.words().times_minus_i(ti);
    for p in 0..eng.lanes_c() {
        let z = Complex::new(2.0 - p as f64, 0.5 * p as f64);
        if eng.lane(ti, p) != z.times_i() || eng.lane(tmi, p) != z {
            return Err(format!("lane {p}"));
        }
    }
    Ok(())
}

fn test_madd(cfg: &CheckCfg) -> Result<(), String> {
    let eng = cfg.engine();
    let acc = eng.from_fn(|_| Complex::new(5.0, -5.0));
    let a = eng.from_fn(|p| Complex::new(p as f64, 1.0));
    let b = eng.from_fn(|_| Complex::new(1.0, 1.0));
    let r = eng.words().madd(acc, a, b);
    for p in 0..eng.lanes_c() {
        let want = Complex::new(5.0, -5.0) + Complex::new(p as f64, 1.0) * Complex::new(1.0, 1.0);
        if (eng.lane(r, p) - want).abs() > 1e-12 {
            return Err(format!("lane {p}"));
        }
    }
    Ok(())
}

fn test_reduce(cfg: &CheckCfg) -> Result<(), String> {
    let eng = cfg.engine();
    let a = eng.from_fn(|p| Complex::new(p as f64 + 1.0, -(p as f64)));
    let sum = eng.words().reduce_sum(a);
    let n = eng.lanes_c() as f64;
    ensure(
        close(sum.re, n * (n + 1.0) / 2.0, 1e-12) && close(sum.im, -n * (n - 1.0) / 2.0, 1e-12),
        format!("reduce gave {sum:?}"),
    )
}

fn test_permute(cfg: &CheckCfg) -> Result<(), String> {
    let eng = cfg.engine();
    let lanes = eng.lanes_c();
    let a = eng.from_fn(|p| Complex::new(p as f64, 100.0 + p as f64));
    let perm: Vec<usize> = (0..lanes).map(|p| (p + 1) % lanes).collect();
    let r = eng.words().permute(a, &perm);
    for p in 0..lanes {
        let src = (p + 1) % lanes;
        if eng.lane(r, p) != Complex::new(src as f64, 100.0 + src as f64) {
            return Err(format!("lane {p}"));
        }
    }
    Ok(())
}

fn test_inner_product(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let x = FermionField::random(g.clone(), 101);
    let y = FermionField::random(g.clone(), 102);
    let fast = x.inner(&y);
    // Scalar oracle.
    let mut want = Complex::ZERO;
    for c in g.coords() {
        for comp in 0..12 {
            want += x.peek(&c, comp).conj() * y.peek(&c, comp);
        }
    }
    ensure(
        (fast - want).abs() < 1e-9 * want.abs().max(1.0),
        format!("{fast:?} vs {want:?}"),
    )
}

fn test_norm2(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let x = FermionField::random(g.clone(), 103);
    let n = x.norm2();
    let mut want = 0.0;
    for c in g.coords() {
        for comp in 0..12 {
            want += x.peek(&c, comp).norm2();
        }
    }
    ensure(close(n, want, 1e-10), format!("{n} vs {want}"))
}

// ---------- tensor level ----------

fn test_gamma_algebra(cfg: &CheckCfg) -> Result<(), String> {
    let _ = cfg;
    use grid::tensor::gamma::Gamma;
    for mu in 0..4 {
        for nu in 0..4 {
            let a = Gamma::dir(mu).matrix();
            let b = Gamma::dir(nu).matrix();
            for r in 0..4 {
                for c in 0..4 {
                    let mut anti = Complex::ZERO;
                    for k in 0..4 {
                        anti += a[r][k] * b[k][c] + b[r][k] * a[k][c];
                    }
                    let want = if mu == nu && r == c { 2.0 } else { 0.0 };
                    if (anti - Complex::new(want, 0.0)).abs() > 1e-13 {
                        return Err(format!("{{γ{mu},γ{nu}}} at ({r},{c})"));
                    }
                }
            }
        }
    }
    Ok(())
}

fn test_gamma5(cfg: &CheckCfg) -> Result<(), String> {
    let _ = cfg;
    use grid::tensor::gamma::Gamma;
    let g5 = Gamma::Five.matrix();
    let mut prod = [[Complex::ZERO; 4]; 4];
    for (r, row) in prod.iter_mut().enumerate() {
        row[r] = Complex::ONE;
    }
    for g in [Gamma::X, Gamma::Y, Gamma::Z, Gamma::T] {
        let m = g.matrix();
        let mut next = [[Complex::ZERO; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                for k in 0..4 {
                    next[r][c] += prod[r][k] * m[k][c];
                }
            }
        }
        prod = next;
    }
    for r in 0..4 {
        for c in 0..4 {
            if (prod[r][c] - g5[r][c]).abs() > 1e-13 {
                return Err(format!("γxγyγzγt != γ5 at ({r},{c})"));
            }
        }
    }
    Ok(())
}

fn test_proj_recon(cfg: &CheckCfg) -> Result<(), String> {
    let _ = cfg;
    use grid::tensor::gamma::{project, reconstruct, Gamma};
    let s: [Complex; 4] =
        std::array::from_fn(|i| Complex::new(i as f64 - 1.5, 0.5 * i as f64 + 0.25));
    for mu in 0..4 {
        for plus in [true, false] {
            let got = reconstruct(mu, plus, &project(mu, plus, &s));
            let gs = Gamma::dir(mu).apply(&s);
            let sign = if plus { 1.0 } else { -1.0 };
            for r in 0..4 {
                if (got[r] - (s[r] + gs[r] * sign)).abs() > 1e-13 {
                    return Err(format!("mu={mu} plus={plus} row {r}"));
                }
            }
        }
    }
    Ok(())
}

fn test_su3_unitarity(cfg: &CheckCfg) -> Result<(), String> {
    let _ = cfg;
    use grid::tensor::su3::{det, random_su3, unitarity_defect};
    for stream in 1..32 {
        let u = random_su3(7, stream);
        if unitarity_defect(&u) > 1e-12 {
            return Err(format!("stream {stream} not unitary"));
        }
        if (det(&u) - Complex::ONE).abs() > 1e-12 {
            return Err(format!("stream {stream} det != 1"));
        }
    }
    Ok(())
}

fn test_su3_matvec(cfg: &CheckCfg) -> Result<(), String> {
    use grid::tensor::su3::{mat_dag_vec, mat_vec, mat_vec_scalar, random_su3};
    let eng = cfg.engine();
    let mats: Vec<_> = (0..eng.lanes_c())
        .map(|l| random_su3(9, l as u64 + 1))
        .collect();
    let vecs: Vec<[Complex; 3]> = (0..eng.lanes_c())
        .map(|l| std::array::from_fn(|c| Complex::new(l as f64 - c as f64, 0.5)))
        .collect();
    let uw: [[grid::CVec<{ sve::VL_MAX_BYTES }>; 3]; 3] =
        std::array::from_fn(|r| std::array::from_fn(|c| eng.from_fn(|l| mats[l][r][c])));
    let vw: [grid::CVec<{ sve::VL_MAX_BYTES }>; 3] =
        std::array::from_fn(|c| eng.from_fn(|l| vecs[l][c]));
    let uv = mat_vec(&eng, &uw, &vw);
    for l in 0..eng.lanes_c() {
        let want = mat_vec_scalar(&mats[l], &vecs[l]);
        for r in 0..3 {
            if (eng.lane(uv[r], l) - want[r]).abs() > 1e-12 {
                return Err(format!("Uv lane {l} row {r}"));
            }
        }
    }
    // U†(Uv) == v.
    let back = mat_dag_vec(&eng, &uw, &uv);
    for l in 0..eng.lanes_c() {
        for r in 0..3 {
            if (eng.lane(back[r], l) - vecs[l][r]).abs() > 1e-11 {
                return Err(format!("U†Uv lane {l} row {r}"));
            }
        }
    }
    Ok(())
}

fn test_su3_gauge_field(cfg: &CheckCfg) -> Result<(), String> {
    use grid::tensor::su3::{peek_link, unitarity_defect};
    let g = cfg.grid();
    let u = random_gauge(g.clone(), 13);
    for x in g.coords().step_by(17) {
        for mu in 0..4 {
            if unitarity_defect(&peek_link(&u, &x, mu)) > 1e-12 {
                return Err(format!("{x:?} mu={mu}"));
            }
        }
    }
    Ok(())
}

// ---------- lattice / cshift level ----------

fn test_layout_roundtrip(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    for x in g.coords() {
        let (o, l) = g.coor_to_osite_lane(&x);
        if g.osite_lane_to_coor(o, l) != x {
            return Err(format!("{x:?}"));
        }
    }
    Ok(())
}

fn test_layout_cover(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let mut seen = vec![false; g.osites() * g.lanes_c()];
    for x in g.coords() {
        let (o, l) = g.coor_to_osite_lane(&x);
        let slot = o * g.lanes_c() + l;
        if seen[slot] {
            return Err(format!("slot collision at {x:?}"));
        }
        seen[slot] = true;
    }
    ensure(seen.iter().all(|&s| s), "uncovered storage slots")
}

fn test_cshift_roundtrip(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let f = FermionField::random(g.clone(), 23);
    for mu in 0..4 {
        let round = cshift(&cshift(&f, mu, 1), mu, -1);
        if round.max_abs_diff(&f) != 0.0 {
            return Err(format!("mu={mu}"));
        }
    }
    Ok(())
}

fn test_cshift_wrap(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let f = FermionField::random(g.clone(), 24);
    let mut s = f.clone();
    for _ in 0..g.fdims()[1] {
        s = cshift(&s, 1, 1);
    }
    ensure(s.max_abs_diff(&f) == 0.0, "L shifts != identity")
}

fn test_cshift_sites(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let mut f = grid::ComplexField::zero(g.clone());
    for x in g.coords() {
        f.poke(&x, 0, Complex::new(g.global_index(&x) as f64, 0.0));
    }
    for mu in 0..4 {
        let s = cshift(&f, mu, 1);
        for x in g.coords().step_by(7) {
            let mut y = x;
            y[mu] = (y[mu] + 1) % g.fdims()[mu];
            if s.peek(&x, 0) != f.peek(&y, 0) {
                return Err(format!("mu={mu} {x:?}"));
            }
        }
    }
    Ok(())
}

// ---------- Wilson operator level ----------

fn wilson(cfg: &CheckCfg, useed: u64, mass: f64) -> (WilsonDirac, Arc<Grid>) {
    let g = cfg.grid();
    (WilsonDirac::new(random_gauge(g.clone(), useed), mass), g)
}

fn test_wilson_free_field(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let d = WilsonDirac::new(unit_gauge(g.clone()), 0.25);
    let mut psi = FermionField::zero(g.clone());
    for x in g.coords() {
        for comp in 0..12 {
            psi.poke(&x, comp, Complex::new(comp as f64 + 1.0, -1.0));
        }
    }
    let m = d.apply(&psi);
    let mut want = psi.clone();
    want.scale(0.25);
    ensure(
        m.max_abs_diff(&want) < 1e-12 * 13.0,
        "free constant field is not an m-eigenvector",
    )
}

fn test_wilson_parity(cfg: &CheckCfg) -> Result<(), String> {
    let (d, g) = wilson(cfg, 31, 0.1);
    let mut psi = FermionField::zero(g.clone());
    for x in g.coords() {
        if g.parity(&x) == 0 {
            psi.poke(&x, 0, Complex::ONE);
        }
    }
    let hop = d.hopping(&psi);
    for x in g.coords() {
        if g.parity(&x) == 0 {
            let n: f64 = (0..12).map(|c| hop.peek(&x, c).norm2()).sum();
            if n > 1e-24 {
                return Err(format!("Dh leaks onto even site {x:?}"));
            }
        }
    }
    Ok(())
}

fn test_wilson_g5_hermiticity(cfg: &CheckCfg) -> Result<(), String> {
    let (d, g) = wilson(cfg, 32, 0.2);
    let psi = FermionField::random(g.clone(), 33);
    let lhs = gamma5(&d.apply(&gamma5(&psi)));
    let rhs = d.apply_dag(&psi);
    ensure(
        lhs.max_abs_diff(&rhs) < 1e-11,
        format!("γ5Mγ5 != M† (diff {})", lhs.max_abs_diff(&rhs)),
    )
}

fn test_wilson_adjoint(cfg: &CheckCfg) -> Result<(), String> {
    let (d, g) = wilson(cfg, 34, 0.15);
    let phi = FermionField::random(g.clone(), 35);
    let psi = FermionField::random(g.clone(), 36);
    let a = phi.inner(&d.apply(&psi));
    let b = d.apply_dag(&phi).inner(&psi);
    ensure((a - b).abs() < 1e-9 * a.abs().max(1.0), "adjoint mismatch")
}

fn test_wilson_backend_consistency(cfg: &CheckCfg) -> Result<(), String> {
    // This configuration's backend vs the FCMLA reference.
    let g = cfg.grid();
    let d = WilsonDirac::new(random_gauge(g.clone(), 37), 0.1);
    let hop = d.hopping(&FermionField::random(g.clone(), 38));
    let gref = Grid::with_ctx(LAT, Arc::new(cfg.ctx()), SimdBackend::Fcmla);
    let dref = WilsonDirac::new(random_gauge(gref.clone(), 37), 0.1);
    let href = dref.hopping(&FermionField::random(gref.clone(), 38));
    let diff = hop
        .data()
        .iter()
        .zip(href.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    ensure(diff < 1e-11, format!("backend deviates by {diff}"))
}

fn test_wilson_cshift_composition(cfg: &CheckCfg) -> Result<(), String> {
    let g = cfg.grid();
    let u = random_gauge(g.clone(), 39);
    let psi = FermionField::random(g.clone(), 40);
    let d = WilsonDirac::new(u.clone(), 0.1);
    let a = d.hopping(&psi);
    let b = hopping_via_cshift(&u, &psi);
    ensure(
        a.max_abs_diff(&b) < 1e-11,
        format!("formulations differ by {}", a.max_abs_diff(&b)),
    )
}

fn test_wilson_vl_independence(cfg: &CheckCfg) -> Result<(), String> {
    // Site values must match a VL128 reference run exactly.
    let (d, g) = wilson(cfg, 41, 0.1);
    let hop = d.hopping(&FermionField::random(g.clone(), 42));
    let gref = Grid::new(LAT, VectorLength::of(128), cfg.backend);
    let dref = WilsonDirac::new(random_gauge(gref.clone(), 41), 0.1);
    let href = dref.hopping(&FermionField::random(gref.clone(), 42));
    for x in g.coords().step_by(3) {
        for comp in 0..12 {
            if hop.peek(&x, comp) != href.peek(&x, comp) {
                return Err(format!("site {x:?} comp {comp} differs from VL128"));
            }
        }
    }
    Ok(())
}

// ---------- solver level ----------

fn test_cg(cfg: &CheckCfg) -> Result<(), String> {
    let (d, g) = wilson(cfg, 51, 0.3);
    let b = FermionField::random(g.clone(), 52);
    let (_, report) = cg(&d, &b, 1e-7, 1000);
    ensure(
        report.converged && report.residual < 1e-6,
        format!("CG: {report:?}"),
    )
}

fn test_bicgstab(cfg: &CheckCfg) -> Result<(), String> {
    let (d, g) = wilson(cfg, 53, 0.3);
    let b = FermionField::random(g.clone(), 54);
    let span = qcd_trace::span!("solver.bicgstab", g.engine().ctx());
    let (x, report) = bicgstab(
        &mut d.direct(),
        &b,
        Start::Zero,
        1e-7,
        1000,
        span,
        "solver.bicgstab",
        no_observer,
    );
    let mx = d.apply(&x);
    let mut diff = FermionField::zero(g);
    diff.sub(&mx, &b);
    let rel = (diff.norm2() / b.norm2()).sqrt();
    ensure(rel < 1e-5, format!("BiCGStab residual {rel}, {report:?}"))
}

fn test_solver_verifies(cfg: &CheckCfg) -> Result<(), String> {
    let (d, g) = wilson(cfg, 55, 0.4);
    let b = FermionField::random(g.clone(), 56);
    let span = qcd_trace::span!("solver.cg", g.engine().ctx());
    let zero = Start::Zero;
    let (x, _) = solve_normal(&d, &b, zero, 1e-8, 1000, span, "solver.cg", no_observer);
    let mx = d.apply(&x);
    let mut diff = FermionField::zero(g);
    diff.sub(&mx, &b);
    let rel = (diff.norm2() / b.norm2()).sqrt();
    ensure(rel < 1e-6, format!("solution residual {rel}"))
}

// ---------- comms level ----------

/// The global lattice the rank checks split over two t-ranks.
const DIST_LAT: Coor = [4, 4, 4, 8];

/// A rank's field against the same global sites of `want`, bit for bit.
fn matches_global(ctx: &RankCtx, local: &FermionField, want: &FermionField) -> Result<(), String> {
    for lx in ctx.grid.coords() {
        let gx = ctx.to_global(&lx);
        for comp in 0..12 {
            let (a, b) = (local.peek(&lx, comp), want.peek(&gx, comp));
            if (a.re.to_bits(), a.im.to_bits()) != (b.re.to_bits(), b.im.to_bits()) {
                return Err(format!("rank {} site {gx:?} comp {comp}", ctx.rank));
            }
        }
    }
    Ok(())
}

fn test_dist_cg(cfg: &CheckCfg) -> Result<(), String> {
    // Ranks are a placement, not a different solve: every reduction is
    // canonical, so dist_cg over two ranks is cg on the global problem.
    let gg = Grid::with_ctx(DIST_LAT, Arc::new(cfg.ctx()), cfg.backend);
    let u = random_gauge(gg.clone(), 61);
    let b = FermionField::random(gg.clone(), 62);
    let (want, want_report) = cg(&WilsonDirac::new_two_row(u.clone(), 0.3), &b, 1e-8, 200);
    let history = |r: &SolveReport| r.history.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
    run_multinode_grid(DIST_LAT, [1, 1, 1, 2], cfg.vl, cfg.backend, |ctx| {
        let ul = restrict_field(ctx, &u);
        let dw = DistWilson::new(ctx, ul, 0.3, GaugeWire::TwoRow, Compression::None);
        let (x, report) = dist_cg(&dw, &restrict_field(ctx, &b), 1e-8, 200);
        ensure(
            report.converged && history(&report) == history(&want_report),
            format!("residual history differs from cg: {report:?}"),
        )?;
        matches_global(ctx, &x, &want)
    })
    .into_iter()
    .collect()
}

fn test_dist_hopping(cfg: &CheckCfg) -> Result<(), String> {
    let gg = Grid::with_ctx(DIST_LAT, Arc::new(cfg.ctx()), cfg.backend);
    let u = random_gauge(gg.clone(), 62);
    let psi = FermionField::random(gg.clone(), 63);
    let want = WilsonDirac::new(u.clone(), 0.1).hopping(&psi);
    run_multinode_grid(DIST_LAT, [1, 1, 1, 2], cfg.vl, cfg.backend, |ctx| {
        let ul = restrict_field(ctx, &u);
        let dw = DistWilson::new(ctx, ul, 0.1, GaugeWire::Full, Compression::None);
        let mut out = FermionField::zero(ctx.grid.clone());
        dw.hopping_into(
            &restrict_field(ctx, &psi),
            &mut DistWorkspace::new(&dw),
            &mut out,
        );
        matches_global(ctx, &out, &want)
    })
    .into_iter()
    .collect()
}

fn test_comms_f16(cfg: &CheckCfg) -> Result<(), String> {
    let _ = cfg;
    let data: Vec<f64> = (0..512).map(|i| ((i as f64) * 0.11).sin()).collect();
    let msg = grid::comms::HaloMsg::encode(&data, Compression::F16);
    if msg.wire_bytes() * 4 != data.len() * 8 {
        return Err("compression ratio != 4".into());
    }
    for (a, b) in data.iter().zip(msg.decode()) {
        if (a - b).abs() > 5e-4 {
            return Err(format!("f16 error too large: {a} -> {b}"));
        }
    }
    Ok(())
}

/// The 40 representative checks of the Section V-D campaign.
pub fn all_checks() -> Vec<Check> {
    macro_rules! checks {
        ($(($name:literal, $group:literal, $f:ident),)*) => {
            vec![$(Check { name: $name, group: $group, run: $f },)*]
        };
    }
    checks![
        // SVE ISA / listings (VLA paths — sensitive to predication bugs)
        ("Test_simd_real_vla", "sve", test_simd_real_vla),
        ("Test_simd_cplx_autovec", "sve", test_simd_cplx_autovec),
        ("Test_simd_cplx_fcmla_vla", "sve", test_simd_cplx_fcmla_vla),
        (
            "Test_simd_cplx_fcmla_fixed",
            "sve",
            test_simd_cplx_fcmla_fixed
        ),
        ("Test_predication_whilelt", "sve", test_predication_whilelt),
        ("Test_structure_loads", "sve", test_structure_loads),
        ("Test_precision_convert", "sve", test_precision_convert),
        ("Test_f16_compression", "sve", test_f16_compression),
        // SIMD engine
        ("Test_simd_mult_complex", "simd", test_mult_complex),
        ("Test_simd_mult_conj", "simd", test_mult_conj),
        ("Test_simd_times_i", "simd", test_times_i),
        ("Test_simd_madd", "simd", test_madd),
        ("Test_simd_reduce", "simd", test_reduce),
        ("Test_simd_permute", "simd", test_permute),
        ("Test_inner_product", "simd", test_inner_product),
        ("Test_norm2", "simd", test_norm2),
        // Tensor algebra
        ("Test_gamma_algebra", "tensor", test_gamma_algebra),
        ("Test_gamma5_product", "tensor", test_gamma5),
        ("Test_spin_projection", "tensor", test_proj_recon),
        ("Test_su3_unitarity", "tensor", test_su3_unitarity),
        ("Test_su3_matvec", "tensor", test_su3_matvec),
        ("Test_su3_gauge_field", "tensor", test_su3_gauge_field),
        // Lattice / cshift
        ("Test_layout_roundtrip", "lattice", test_layout_roundtrip),
        ("Test_layout_cover", "lattice", test_layout_cover),
        ("Test_cshift_roundtrip", "lattice", test_cshift_roundtrip),
        ("Test_cshift_wrap", "lattice", test_cshift_wrap),
        ("Test_cshift_sites", "lattice", test_cshift_sites),
        // Wilson operator
        ("Test_wilson_free_field", "dirac", test_wilson_free_field),
        ("Test_wilson_parity", "dirac", test_wilson_parity),
        (
            "Test_wilson_g5_hermiticity",
            "dirac",
            test_wilson_g5_hermiticity
        ),
        ("Test_wilson_adjoint", "dirac", test_wilson_adjoint),
        (
            "Test_wilson_backends",
            "dirac",
            test_wilson_backend_consistency
        ),
        (
            "Test_wilson_cshift_form",
            "dirac",
            test_wilson_cshift_composition
        ),
        (
            "Test_wilson_vl_independent",
            "dirac",
            test_wilson_vl_independence
        ),
        // Solvers
        ("Benchmark_cg", "solver", test_cg),
        ("Benchmark_bicgstab", "solver", test_bicgstab),
        ("Test_solver_residual", "solver", test_solver_verifies),
        // Comms
        ("Test_dist_cg", "comms", test_dist_cg),
        ("Test_dist_hopping", "comms", test_dist_hopping),
        ("Test_comms_f16", "comms", test_comms_f16),
    ]
}

/// Result matrix of a verification sweep: `results[check][vl]`.
pub struct Matrix {
    /// Check names, row order.
    pub names: Vec<&'static str>,
    /// Check groups, row order.
    pub groups: Vec<&'static str>,
    /// Vector lengths, column order.
    pub vls: Vec<VectorLength>,
    /// `Ok(())` or the failure message.
    pub results: Vec<Vec<Result<(), String>>>,
}

impl Matrix {
    /// Number of passing cells.
    pub fn passed(&self) -> usize {
        self.results
            .iter()
            .flat_map(|row| row.iter())
            .filter(|r| r.is_ok())
            .count()
    }

    /// Total cells.
    pub fn total(&self) -> usize {
        self.results.iter().map(|r| r.len()).sum()
    }
}

/// Run the full campaign: every check at every vector length in `vls`.
pub fn run_matrix(vls: &[VectorLength], backend: SimdBackend, fault: ToolchainFault) -> Matrix {
    let checks = all_checks();
    let names = checks.iter().map(|c| c.name).collect();
    let groups = checks.iter().map(|c| c.group).collect();
    let results = checks
        .iter()
        .map(|check| {
            vls.iter()
                .map(|&vl| {
                    let cfg = CheckCfg { vl, backend, fault };
                    (check.run)(&cfg)
                })
                .collect()
        })
        .collect();
    Matrix {
        names,
        groups,
        vls: vls.to_vec(),
        results,
    }
}
