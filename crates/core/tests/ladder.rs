//! The binary16 compute tier, end to end: F16 instantiations of the real
//! Dirac kernels (single-field and block paths), the accuracy bound of the
//! f16-inner ladder against a pure double-precision solve, and the
//! health-driven tier fallback as seen by the flight recorder.

use grid::krylov::{no_observer, Start};
use grid::mixed::{ladder_solve, LadderConfig};
use grid::prelude::*;
use sve::F16;

type F16Field = Field<grid::field::FermionKind, F16>;

fn setup64() -> (WilsonDirac<f64>, FermionField) {
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 121);
    let b = FermionField::random(g.clone(), 122);
    (WilsonDirac::new(u, 0.3), b)
}

/// Binary16 replica of an f64 operator on its own (denser) layout.
fn replicate_f16(op: &WilsonDirac<f64>) -> WilsonDirac<F16> {
    let g64 = op.grid();
    let g16 = Grid::<F16>::new(g64.fdims(), g64.vl(), g64.engine().backend());
    let u16 = grid::mixed::to_precision(op.gauge(), &g16);
    WilsonDirac::<F16>::new(u16, op.mass)
}

#[test]
fn f16_wilson_kernels_track_the_f64_operator() {
    // The generic dslash/mass sweeps instantiated at F16 must reproduce
    // the f64 operator to binary16 grain (~2⁻¹¹ per op, a site value is a
    // short fixed-order sum of products).
    let (op, psi) = setup64();
    let op16 = replicate_f16(&op);
    let g16 = op16.grid().clone();
    let psi16 = grid::mixed::to_precision(&psi, &g16);

    let mut out64 = FermionField::zero(psi.grid().clone());
    op.apply_into(&psi, &mut out64);
    let mut out16 = F16Field::zero(g16.clone());
    op16.apply_into(&psi16, &mut out16);

    let out16_up = grid::mixed::to_precision(&out16, psi.grid());
    let mut diff = FermionField::zero(psi.grid().clone());
    diff.sub(&out64, &out16_up);
    let rel = (diff.norm2() / out64.norm2()).sqrt();
    assert!(rel < 2e-2, "f16 dslash off by {rel}");
    assert!(rel > 0.0, "suspiciously exact — f16 path not exercised?");

    // Normal operator too (two hopping sweeps back to back).
    let mut tmp16 = F16Field::zero(g16.clone());
    let mut nrm16 = F16Field::zero(g16.clone());
    op16.mdag_m_into(&psi16, &mut tmp16, &mut nrm16);
    let mut nrm64 = FermionField::zero(psi.grid().clone());
    let mut tmp64 = FermionField::zero(psi.grid().clone());
    op.mdag_m_into(&psi, &mut tmp64, &mut nrm64);
    let nrm16_up = grid::mixed::to_precision(&nrm16, psi.grid());
    diff.sub(&nrm64, &nrm16_up);
    let rel = (diff.norm2() / nrm64.norm2()).sqrt();
    assert!(rel < 5e-2, "f16 normal operator off by {rel}");
}

#[test]
fn f16_block_path_is_bit_identical_to_single_field_kernels() {
    // The batched kernels at F16 carry the same per-RHS guarantee as at
    // f64: RHS j of a block sweep is bit-identical to the single-field
    // sweep of that RHS alone.
    let (op, _) = setup64();
    let op16 = replicate_f16(&op);
    let g16 = op16.grid().clone();
    let fields: Vec<F16Field> = (0..3)
        .map(|j| {
            let f = FermionField::random(op.grid().clone(), 300 + j);
            grid::mixed::to_precision(&f, &g16)
        })
        .collect();
    let block = FermionBlock::from_fields(&fields);
    let mut tmp = FermionBlock::zero(g16.clone(), fields.len());
    let mut out = FermionBlock::zero(g16.clone(), fields.len());
    op16.mdag_m_into(&block, &mut tmp, &mut out);

    let mut tmp16 = F16Field::zero(g16.clone());
    for (j, f) in fields.iter().enumerate() {
        let mut single = F16Field::zero(g16.clone());
        op16.mdag_m_into(f, &mut tmp16, &mut single);
        assert_eq!(
            out.rhs_field(j).max_abs_diff(&single),
            0.0,
            "block RHS {j} diverged from the single-field F16 kernel"
        );
    }
}

#[test]
fn f16_inner_ladder_meets_the_accuracy_bound() {
    // The asserted contract: ‖x − x_f64‖ / ‖x_f64‖ ≤ tol for an f16-inner
    // solve targeting tol, with x_f64 a pure double-precision solve driven
    // two decades tighter.
    let (op, b) = setup64();
    let tol = 1e-10;
    let (x, report) = ladder_solve(&op, &b, &LadderConfig::new(tol));
    assert!(report.converged, "{report:?}");
    assert!(report.f16_iterations > 0, "f16 tier never ran");
    let span = qcd_trace::span!("solver.cg", b.grid().engine().ctx());
    let zero = Start::Zero;
    let (x_ref, ref_report) =
        solve_normal(&op, &b, zero, 1e-12, 5000, span, "solver.cg", no_observer);
    assert!(ref_report.converged);
    let mut diff = FermionField::zero(b.grid().clone());
    diff.sub(&x, &x_ref);
    let err = (diff.norm2() / x_ref.norm2()).sqrt();
    assert!(err <= tol, "accuracy bound violated: {err} > {tol}");
}

#[test]
fn tier_fallback_is_visible_in_the_flight_recorder() {
    // A deliberately under-precise f16 cycle tolerance stalls the inner
    // recurrence. The dump must show (a) the typed stall episode from the
    // inner-tier monitor, (b) the tier-switch events of the healthy
    // cycles, and (c) the fallback event of the demotion — and the whole
    // dump must be schema-valid qcd-metrics/v1.
    let _guard = qcd_trace::global_test_lock();
    qcd_trace::flight_reset();
    let (op, b) = setup64();
    let mut cfg = LadderConfig::new(1e-10);
    cfg.f16_cycle_tol = 1e-7; // below F16_RESIDUAL_FLOOR: unreachable
    let (_, report) = ladder_solve(&op, &b, &cfg);
    assert!(report.tier_fallbacks >= 1, "no fallback: {report:?}");
    assert!(report.converged, "fallback must still converge: {report:?}");

    let dump = qcd_trace::flight_dump_jsonl();
    assert!(
        dump.contains("\"label\":\"solver.ladder.f16:stall\""),
        "typed stall episode missing from flight dump"
    );
    assert!(
        dump.contains("\"label\":\"solver.ladder.switch:f32_to_f16\""),
        "tier-switch event missing from flight dump"
    );
    assert!(
        dump.contains("\"label\":\"solver.ladder.fallback:f16_to_f32\""),
        "fallback event missing from flight dump"
    );
    qcd_trace::validate_jsonl(&dump).expect("flight dump must be schema-valid");
}
