//! Cross-crate consistency: the three levels of the stack — emulated
//! assembly (armie), ACLE intrinsics (sve), and the Grid abstraction layer
//! (grid) — must compute identical complex arithmetic, and their instruction
//! accounting must agree where the code paths are the same.

use grid::simd::functors::{MultComplex, WordFunctor};
use grid::simd::{SimdBackend, SimdEngine};
use std::sync::Arc;
use sve::intrinsics::*;
use sve::{CostModel, Opcode, SveCtx, VectorLength};

fn interleaved(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37 + phase).sin() * 2.0)
        .collect()
}

#[test]
fn emulator_intrinsics_and_grid_agree_on_complex_multiply() {
    for vl in VectorLength::sweep() {
        let n = vl.lanes64();
        let x = interleaved(n, 0.0);
        let y = interleaved(n, 1.0);

        // Level 1: the paper's listing IV-D under the emulator.
        let run = armie::listings::run_mult_cplx_fcmla_fixed(SveCtx::new(vl), &x, &y);

        // Level 2: direct ACLE intrinsics (the listing's source code).
        let ctx = SveCtx::new(vl);
        let pg = svptrue::<f64>(&ctx);
        let sx = svld1(&ctx, &pg, &x);
        let sy = svld1(&ctx, &pg, &y);
        let zero = svdup::<f64>(&ctx, 0.0);
        let t = svcmla::<f64>(&ctx, &pg, &zero, &sx, &sy, Rot::R90);
        let sz = svcmla::<f64>(&ctx, &pg, &t, &sx, &sy, Rot::R0);
        let mut z_acle = vec![0.0; n];
        svst1(&ctx, &pg, &mut z_acle, &sz);

        // Level 3: Grid's MultComplex functor (Section V-C).
        let eng = SimdEngine::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
        let mut z_grid = vec![0.0; n];
        MultComplex.apply(&eng, &x, &y, &mut z_grid);

        assert_eq!(run.z, z_acle, "emulator vs intrinsics at {vl}");
        assert_eq!(z_acle, z_grid, "intrinsics vs grid functor at {vl}");
    }
}

#[test]
fn fcmla_counts_match_across_stack_levels() {
    let vl = VectorLength::of(512);
    let n = vl.lanes64();
    let x = interleaved(n, 0.3);
    let y = interleaved(n, 0.9);

    let run = armie::listings::run_mult_cplx_fcmla_fixed(SveCtx::new(vl), &x, &y);
    let emulator_fcmla = run.machine.ctx.counters().get(Opcode::Fcmla);

    let eng = SimdEngine::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
    let mut out = vec![0.0; n];
    MultComplex.apply(&eng, &x, &y, &mut out);
    let grid_fcmla = eng.ctx().counters().get(Opcode::Fcmla);

    assert_eq!(emulator_fcmla, 2);
    assert_eq!(grid_fcmla, 2);
    // Both levels also perform exactly 2 loads and 1 store.
    assert_eq!(run.machine.ctx.counters().get(Opcode::Ld1), 2);
    assert_eq!(eng.ctx().counters().get(Opcode::Ld1), 2);
    assert_eq!(run.machine.ctx.counters().get(Opcode::St1), 1);
    assert_eq!(eng.ctx().counters().get(Opcode::St1), 1);
}

#[test]
fn cost_model_ranks_backends_consistently_at_every_vl() {
    // Section V-E quantified: per MultComplex word, fcmla wins under the
    // fcmla-fast profile and loses under fcmla-slow to the real-arithmetic
    // alternative, at every vector length.
    for vl in VectorLength::sweep() {
        let mut cycles = std::collections::HashMap::new();
        for backend in SimdBackend::all() {
            let eng = SimdEngine::new(Arc::new(SveCtx::new(vl)), backend);
            let x = interleaved(vl.lanes64(), 0.1);
            let y = interleaved(vl.lanes64(), 0.2);
            let mut out = vec![0.0; vl.lanes64()];
            eng.ctx().counters().reset();
            for _ in 0..100 {
                MultComplex.apply(&eng, &x, &y, &mut out);
            }
            cycles.insert(
                backend,
                (
                    eng.ctx().cycles(CostModel::FcmlaFast),
                    eng.ctx().cycles(CostModel::FcmlaSlow),
                ),
            );
        }
        let fcmla = cycles[&SimdBackend::Fcmla];
        let real = cycles[&SimdBackend::RealArith];
        assert!(fcmla.0 < real.0, "{vl}: fast profile must favour FCMLA");
        assert!(
            fcmla.1 > real.1,
            "{vl}: slow profile must favour real arithmetic"
        );
    }
}

#[test]
fn vla_loop_overhead_disappears_in_fixed_size_style() {
    // Section IV-D's point: for one vector's worth of data the fixed-size
    // kernel runs 8 instructions; the VLA loop (IV-C) pays loop control.
    let vl = VectorLength::of(512);
    let n = vl.lanes64();
    let x = interleaved(n, 0.0);
    let y = interleaved(n, 0.5);
    let fixed = armie::listings::run_mult_cplx_fcmla_fixed(SveCtx::new(vl), &x, &y);
    let vla = armie::listings::run_mult_cplx_fcmla_vla(SveCtx::new(vl), &x, &y);
    assert_eq!(fixed.z, vla.z, "same values either way");
    assert!(fixed.report.steps < vla.report.steps);
    assert_eq!(fixed.report.steps, 8);
}

#[test]
fn whole_stack_runs_at_the_architectural_extremes() {
    // 128-bit (NEON-width) and 2048-bit (architectural max) both work end
    // to end: listing, functor, Wilson operator, solver.
    use grid::prelude::*;
    for vl in [VectorLength::of(128), VectorLength::of(2048)] {
        let g = Grid::new([4, 4, 4, 4], vl, SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 5), 0.3);
        let b = FermionField::random(g.clone(), 6);
        let (_, report) = cg(&d, &b, 1e-7, 600);
        assert!(report.converged, "{vl}: {report:?}");
    }
}

#[test]
fn hopping_opcode_counts_are_pinned_and_thread_invariant() {
    // The counters are sharded per thread; the tally they add up to must
    // not depend on how many threads did the work, and must stay the
    // integers the operator has always retired (4^4, VL512, FCMLA).
    use grid::prelude::*;
    let counts = |threads: usize| {
        rayon::set_num_threads(threads);
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 5), 0.3);
        let psi = FermionField::random(g.clone(), 6);
        let mut out = FermionField::zero(g.clone());
        let counters = g.engine().ctx().counters();
        counters.reset();
        d.hopping_into(&psi, &mut out);
        counters.snapshot()
    };
    let (one, two) = (counts(1), counts(2));
    rayon::set_num_threads(0);
    assert_eq!(one, two, "1 thread vs 2 threads");
    assert_eq!(
        one,
        vec![
            (Opcode::Fcmla, 18432),
            (Opcode::Ld1, 10752),
            (Opcode::Fadd, 9216),
            (Opcode::Fcadd, 3072),
            (Opcode::Tbl, 2112),
            (Opcode::Fneg, 1536),
            (Opcode::St1, 768),
            (Opcode::Dup, 1),
        ]
    );
}

/// FNV-1a over the little-endian lane bytes of `data`.
fn fnv1a<E: sve::SveElem>(data: &[E]) -> u64 {
    let mut lane = [0u8; 8];
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in data {
        v.write_le(&mut lane[..E::BYTES]);
        for &b in &lane[..E::BYTES] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn hopping_and_cg_bits_are_pinned() {
    // Every bit of the operator's output and of a solve, at the three
    // element types: which compiled copy of the lane loops the host runs
    // (sve::host_lanes) must not be observable. The hopping constants were
    // generated before the lane loops had a second copy; `CG_F64` is the
    // solve the parent's canonical space gave, bit for bit.
    use grid::prelude::*;
    fn hop<E: sve::SveFloat>() -> u64 {
        let g = Grid::<E>::new([4, 4, 4, 8], VectorLength::of(512), SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 5), 0.25);
        let psi = Field::random(g.clone(), 6);
        let mut out = Field::zero(g);
        d.hopping_into(&psi, &mut out);
        fnv1a(out.data())
    }
    assert_eq!(hop::<f64>(), HOP_F64, "f64 hopping_into");
    assert_eq!(hop::<f32>(), HOP_F32, "f32 hopping_into");
    assert_eq!(hop::<sve::F16>(), HOP_F16, "f16 hopping_into");

    // The solve is the same at every vector length: its solution is hashed
    // in global lexicographic site order, which no layout changes.
    for bits in [128, 512, 2048] {
        let g = Grid::new([4, 4, 4, 8], VectorLength::of(bits), SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 5), 0.25);
        let b = FermionField::random(g.clone(), 6);
        let (x, report) = cg(&d, &b, 1e-8, 500);
        let x = &x;
        let lex: Vec<f64> = g
            .coords()
            .flat_map(|c| (0..12).map(move |comp| x.peek(&c, comp)))
            .flat_map(|z| [z.re, z.im])
            .collect();
        assert_eq!(
            (fnv1a(&lex), report.iterations, report.residual.to_bits()),
            CG_F64,
            "cg solution, iterations, residual at VL{bits}"
        );
    }
}

const HOP_F64: u64 = 0xc39a_40d1_b9ed_c71b;
const HOP_F32: u64 = 0xba9e_2003_471f_9790;
const HOP_F16: u64 = 0x8a53_2da2_4e2e_3091;
const CG_F64: (u64, usize, u64) = (0x0b5f_2c6e_7e9c_dfda, 36, 0x3e3d_4c68_147f_4603);

#[test]
fn bicgstab_bits_are_pinned() {
    // Every bit of a BiCGStab solve of `M x = b` on the problem above: the
    // solution in global lexicographic site order, the residual history,
    // the iteration count and the reported residual, the same at every
    // vector length; then the modeled instructions the solve retired, the
    // vector length's own. The constants are what BiCGStab gave while it
    // was a hand-written loop outside the Krylov driver.
    use grid::krylov::{no_observer, Start};
    use grid::prelude::*;
    for (k, bits) in [128, 512, 2048].into_iter().enumerate() {
        let g = Grid::new([4, 4, 4, 8], VectorLength::of(bits), SimdBackend::Fcmla);
        let d = WilsonDirac::new(random_gauge(g.clone(), 5), 0.25);
        let b = FermionField::random(g.clone(), 6);
        let counters = g.engine().ctx().counters();
        counters.reset();
        let (x, report) = bicgstab(
            &mut d.direct(),
            &b,
            Start::Zero,
            1e-8,
            500,
            qcd_trace::span!("solver.bicgstab", g.engine().ctx()),
            "solver.bicgstab",
            no_observer,
        );
        assert_eq!(
            (
                fnv1a(&lex_bits(&g, &x)),
                fnv1a(&report.history),
                report.iterations,
                report.residual.to_bits()
            ),
            BICGSTAB_F64,
            "bicgstab solution, history, iterations, residual at VL{bits}"
        );
        let insts = counters.total();
        assert_eq!(
            insts, BICGSTAB_INSTS[k],
            "bicgstab instructions at VL{bits}"
        );
    }
}

const BICGSTAB_INSTS: [u64; 3] = [12_134_688, 3_090_912, 801_456];

const BICGSTAB_F64: (u64, u64, usize, u64) = (
    0x3a4b_6fb7_d522_81e8,
    0x2c0d_31a8_1354_4364,
    13,
    0x3e42_2d01_eff0_131b,
);

#[test]
fn hmc_chain_bits_are_pinned() {
    // Every bit of a short chain: the links in global lexicographic order
    // and each trajectory's ΔH, Metropolis decision and plaquette (4⁴,
    // VL512, β 5.7, Omelyan 8 × 0.0625, seed 11; two thermalization and
    // two Metropolis trajectories). The constant is the chain the gauge
    // force gave while it still composed its staples from shifted copies.
    use grid::prelude::*;
    use qcd_hmc::{HmcParams, IntegratorKind, MarkovChain};
    let params = HmcParams {
        beta: 5.7,
        n_steps: 8,
        step_size: 0.0625,
        integrator: IntegratorKind::Omelyan,
    };
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let mut chain = MarkovChain::cold_start(g.clone(), params, 11);
    let mut reports = chain.thermalize(2);
    reports.extend(chain.run(2));
    let u = chain.links();
    let lex: Vec<f64> = g
        .coords()
        .flat_map(|x| (0..36).map(move |comp| u.peek(&x, comp)))
        .flat_map(|z| [z.re, z.im])
        .collect();
    let per_trajectory: Vec<(u64, bool, u64)> = reports
        .iter()
        .map(|r| (r.dh.to_bits(), r.accepted, r.plaquette.to_bits()))
        .collect();
    assert_eq!(
        (fnv1a(&lex), per_trajectory.as_slice()),
        (HMC_F64.0, HMC_F64.1.as_slice()),
        "links, then ΔH / accept / plaquette per trajectory"
    );
}

const HMC_F64: (u64, [(u64, bool, u64); 4]) = (
    0x4564_49e8_7db5_6314,
    [
        (0x3fe3_a892_106b_f000, true, 0x3fe6_db57_6f2b_cc51),
        (0x3fca_7b99_366b_0000, true, 0x3fe4_d526_eee0_4900),
        (0x3fb3_9e81_c7a7_0000, true, 0x3fe4_0a7e_f60b_1ce9),
        (0x3fb1_241c_f45b_0000, true, 0x3fe3_631d_117f_4111),
    ],
);

#[test]
fn domain_wall_bits_are_pinned() {
    // Every bit of the domain-wall operator and of a solve in its normal
    // space: `D ψ`, `D† ψ` and the CG solution, each slice by slice in
    // global lexicographic site order, then the iteration count and the
    // final residual (4⁴, Ls 4, M5 1.8, m_f 0.04). The constant is what the
    // operator gave while it still ran one Wilson sweep per slice.
    use grid::krylov::{cg_solve, no_observer, Start, Vector};
    use grid::prelude::*;
    for bits in [128, 512, 2048] {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let op = DomainWall::new(random_gauge(g.clone(), 7), 4, 1.8, 0.04);
        let psi = Fermion5::random(g.clone(), 4, 8);
        let (x, report) = cg_solve(
            &mut op.normal(&mut psi.zero_like()),
            &psi,
            Start::Zero,
            1e-8,
            1000,
            qcd_trace::span!("solver.dwf"),
            "solver.dwf",
            no_observer,
        );
        let mut lex = Vec::new();
        for f in [op.apply(&psi), op.apply_dag(&psi), x] {
            for s in (0..f.ls()).map(|s| f.rhs_field(s)) {
                for c in g.coords() {
                    lex.extend((0..12).flat_map(|comp| {
                        let z = s.peek(&c, comp);
                        [z.re, z.im]
                    }));
                }
            }
        }
        assert_eq!(
            (fnv1a(&lex), report.iterations, report.residual.to_bits()),
            DWF_F64,
            "D ψ, D† ψ, cg solution, iterations, residual at VL{bits}"
        );
    }
}

const DWF_F64: (u64, usize, u64) = (0x13ab_c30f_f509_09b2, 163, 0x3e44_cf75_f3e3_a837);

/// A fermion field's every bit in global lexicographic site order.
fn lex_bits(g: &grid::Grid, f: &grid::FermionField) -> Vec<f64> {
    g.coords()
        .flat_map(|c| (0..12).map(move |comp| f.peek(&c, comp)))
        .flat_map(|z| [z.re, z.im])
        .collect()
}

#[test]
fn even_odd_solve_bits_are_pinned() {
    // Every bit of the even-odd Schur solve: the solution in global
    // lexicographic site order, the iteration count, the residual and the
    // modeled instructions the whole solve retired (4⁴, m 0.2). The bits
    // are the same at every vector length; the instruction total is the
    // vector length's own.
    use grid::prelude::*;
    for (k, bits) in [128, 512, 2048].into_iter().enumerate() {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let op = WilsonDirac::new(random_gauge(g.clone(), 9), 0.2);
        let b = FermionField::random(g.clone(), 10);
        let counters = g.engine().ctx().counters();
        counters.reset();
        let (x, report) = solve_eo(&op, &b, 1e-8, 1000);
        let insts = counters.total();
        assert_eq!(
            (
                fnv1a(&lex_bits(&g, &x)),
                report.iterations,
                report.residual.to_bits()
            ),
            (EO_F64.0, EO_F64.1, EO_F64.2),
            "eo solution, iterations, residual at VL{bits}"
        );
        assert_eq!(insts, EO_F64.3[k], "eo solve instructions at VL{bits}");
    }
}

const EO_F64: (u64, usize, u64, [u64; 3]) = (
    0x87e6_2376_480e_81e3,
    17,
    0x3e3e_36f6_50ea_89e1,
    [15_086_798, 3_934_478, 1_024_430],
);

#[test]
fn clover_bits_are_pinned() {
    // Every bit of the clover operator and of a CG solve of its normal
    // equations: `M ψ`, `M† ψ` and the solution in global lexicographic
    // site order, then the iteration count and the residual (4⁴, m 0.3,
    // c_sw 1.0).
    use grid::krylov::{cg_solve, no_observer, Start, Vector};
    use grid::prelude::*;
    for bits in [128, 512, 2048] {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), SimdBackend::Fcmla);
        let op = CloverWilson::new(random_gauge(g.clone(), 11), 0.3, 1.0);
        let psi = FermionField::random(g.clone(), 12);
        let (x, report) = cg_solve(
            &mut op.normal(&mut psi.zero_like()),
            &psi,
            Start::Zero,
            1e-8,
            1000,
            qcd_trace::span!("solver.clover"),
            "solver.clover",
            no_observer,
        );
        let mut lex = Vec::new();
        for f in [op.apply(&psi), op.apply_dag(&psi), x] {
            lex.extend(lex_bits(&g, &f));
        }
        assert_eq!(
            (fnv1a(&lex), report.iterations, report.residual.to_bits()),
            CLOVER_F64,
            "M ψ, M† ψ, cg solution, iterations, residual at VL{bits}"
        );
    }
}

const CLOVER_F64: (u64, usize, u64) = (0x9128_aa35_a434_ccf2, 42, 0x3e3f_4f42_2b9b_f14e);

#[test]
fn distributed_solve_bits_are_pinned() {
    // Every bit of a CG solve of the distributed operator's normal
    // equations on two ranks split along t ([4,4,4,12], two-row wire, m
    // 0.2): the solution in global lexicographic site order, the residual
    // history, the iteration count and the residual, the same at every
    // vector length; then the modeled instructions the solve retired,
    // summed over the ranks, the vector length's own. Every rank reports
    // the same history: each recurrence scalar is a reduction of the rank
    // grid.
    use grid::prelude::*;
    let global = [4, 4, 4, 12];
    for (k, bits) in [128, 512, 2048].into_iter().enumerate() {
        let vl = VectorLength::of(bits);
        let ranks = run_multinode_grid(global, [1, 1, 1, 2], vl, SimdBackend::Fcmla, |ctx| {
            let g = Grid::new(global, vl, SimdBackend::Fcmla);
            let u = restrict_field(ctx, &random_gauge(g.clone(), 15));
            let b = restrict_field(ctx, &FermionField::random(g, 16));
            let dw = DistWilson::new(ctx, u, 0.2, GaugeWire::TwoRow, Compression::None);
            let counters = ctx.grid.engine().ctx().counters();
            counters.reset();
            let (x, report) = dist_cg(&dw, &b, 1e-8, 500);
            let sites: Vec<(usize, Vec<f64>)> = ctx
                .grid
                .coords()
                .map(|c| {
                    let z = (0..12).map(|comp| x.peek(&c, comp));
                    let bits = z.flat_map(|z| [z.re, z.im]).collect();
                    (grid::layout::lex(&ctx.to_global(&c), &global), bits)
                })
                .collect();
            (sites, report, counters.total())
        });
        let history = fnv1a(&ranks[0].1.history);
        assert!(
            ranks.iter().all(|r| fnv1a(&r.1.history) == history),
            "the ranks' residual histories differ at VL{bits}"
        );
        let (iterations, residual) = (ranks[0].1.iterations, ranks[0].1.residual);
        let insts: u64 = ranks.iter().map(|r| r.2).sum();
        let mut sites: Vec<_> = ranks.into_iter().flat_map(|r| r.0).collect();
        sites.sort_unstable_by_key(|s| s.0);
        let lex: Vec<f64> = sites.into_iter().flat_map(|s| s.1).collect();
        assert_eq!(
            (fnv1a(&lex), history, iterations, residual.to_bits()),
            DIST_F64,
            "dist_cg solution, history, iterations, residual at VL{bits}"
        );
        assert_eq!(insts, DIST_INSTS[k], "dist_cg instructions at VL{bits}");
    }
}

const DIST_F64: (u64, u64, usize, u64) = (
    0x3384_8528_1a63_3355,
    0x9f65_30f2_d8fc_3a1a,
    37,
    0x3e3a_4c99_797f_82fc,
);

const DIST_INSTS: [u64; 3] = [53_742_094, 13_946_638, 3_596_494];

#[test]
fn registers_and_words_take_the_bytes_they_are_sized_for() {
    // The point of sizing lane storage: a word of the paper's vector
    // lengths is 64 bytes to hold, copy and return, not the 256 of the
    // architectural maximum (capacities are whole cache lines).
    fn check<const N: usize>() {
        assert_eq!(std::mem::size_of::<sve::Reg<N>>(), N);
        assert_eq!(std::mem::size_of::<grid::CVec<N>>(), N);
    }
    check::<64>();
    check::<128>();
    check::<256>();
    assert_eq!(grid::simd::PORT_WORD_BYTES, 64);
    assert_eq!(std::mem::size_of::<sve::VReg>(), sve::VL_MAX_BYTES);
}

#[test]
fn the_functor_layer_runs_at_lengths_no_grid_has() {
    // An engine exists at any architectural length and the width dispatch
    // is total: VL384 (48 bytes) runs in the 64-byte word.
    let vl = VectorLength::of(384);
    let eng = SimdEngine::new(Arc::new(SveCtx::new(vl)), SimdBackend::Fcmla);
    let x = interleaved(vl.lanes64(), 0.0);
    let mut out = vec![0.0; vl.lanes64()];
    MultComplex.apply(&eng, &x, &x, &mut out);
    for p in 0..vl.lanes64() / 2 {
        let (re, im) = (x[2 * p], x[2 * p + 1]);
        assert!((out[2 * p] - (re * re - im * im)).abs() < 1e-12);
        assert!((out[2 * p + 1] - 2.0 * re * im).abs() < 1e-12);
    }
}
