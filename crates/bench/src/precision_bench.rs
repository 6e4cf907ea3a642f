//! The `precision` section of the solver document: the f16-inner against
//! the f32-inner reliable-update ladder on the thermalized configuration.
//!
//! The headline claim of the binary16 compute tier is not that f16
//! arithmetic is accurate — it is not — but that the three-level
//! reliable-update ladder ([`ladder_solve`]) reaches **full f64 accuracy**
//! while moving roughly **half the bytes per inner iteration**, because the
//! bulk of the Krylov work runs on 16-bit operands (the trace-span byte
//! accounting scales with `size_of::<E>()`, the regime a bandwidth-bound
//! machine lives in):
//!
//! - **f32-inner** — [`LadderConfig::f32_only`]: the two-level baseline,
//!   identical outer/middle structure with the binary16 tier disabled.
//! - **f16-inner** — [`LadderConfig::new`]: binary16 inner cycles with
//!   reliable updates and health-driven fallback.
//!
//! The bytes credited to the `solver.tier.f16` / `solver.tier.f32` span
//! subtrees divided by the inner iteration count give **inner-sweep bytes
//! per iteration** per leg. If the f16 tier silently stopped carrying the
//! work (a fallback on every cycle), their ratio climbs toward 1 and the
//! gate fails. Iteration counts, residuals (canonical reductions) and the
//! byte model are pure functions of the seeded recipe.

use crate::doc::{get_num, num, obj};
use crate::solver_bench::Thermalized;
use grid::prelude::*;
use qcd_trace::Json;

/// Seed of the random right-hand side.
const RHS_SEED: u64 = 501;

/// Ceiling on `byte_ratio`: the f16-inner ladder must move at most this
/// fraction of the f32-inner baseline's bytes per inner iteration. A pure
/// f16 sweep moves 0.5×; the reliable updates and any f32 cleanup rounds
/// eat into the margin, and a ladder whose binary16 tier stopped carrying
/// the work drifts toward 1× and fails.
pub const PRECISION_BYTE_RATIO_LIMIT: f64 = 0.6;

/// Run one ladder leg and derive its inner-sweep byte model from the
/// `solver.tier.*` subtree telemetry: the leg's object and its bytes per
/// inner iteration.
fn ladder_leg(
    op: &WilsonDirac<f64>,
    b: &FermionField,
    cfg: &LadderConfig,
) -> Result<(Json, f64), String> {
    let ((_, rep), _, inner_bytes) = crate::probe(
        || ladder_solve(op, b, cfg),
        |path| path.contains("solver.tier.f16") || path.contains("solver.tier.f32"),
    );
    let inner_iters = rep.f16_iterations + rep.f32_iterations;
    if inner_iters == 0 || inner_bytes == 0 {
        return Err(format!(
            "ladder probe recorded no inner-tier work ({inner_iters} iterations, \
             {inner_bytes} bytes)"
        ));
    }
    let bytes_per_iter = inner_bytes as f64 / inner_iters as f64;
    let leg = obj([
        ("outer_rounds", num(rep.outer_iterations as f64)),
        ("f16_iters", num(rep.f16_iterations as f64)),
        ("f32_iters", num(rep.f32_iterations as f64)),
        ("reliable_updates", num(rep.reliable_updates as f64)),
        ("tier_fallbacks", num(rep.tier_fallbacks as f64)),
        ("inner_iters", num(inner_iters as f64)),
        ("residual", num(rep.residual)),
        ("inner_bytes", num(inner_bytes as f64)),
        ("bytes_per_iter", num(bytes_per_iter)),
    ]);
    Ok((leg, bytes_per_iter))
}

/// Run both ladder legs on the same right-hand side to relative residual
/// `tol` and return the section. A leg that misses `tol` is still
/// recorded — the gate ([`check`]) is what turns red.
pub fn run(therm: &Thermalized, tol: f64) -> Result<Json, String> {
    if tol.is_nan() || tol <= 0.0 {
        return Err("the precision legs need tol > 0".into());
    }
    let op = &therm.op;
    let b = FermionField::random(op.grid().clone(), RHS_SEED);
    let (f32_inner, f32_bytes) = ladder_leg(op, &b, &LadderConfig::f32_only(tol))?;
    let (f16_inner, f16_bytes) = ladder_leg(op, &b, &LadderConfig::new(tol))?;
    Ok(obj(therm.recipe().into_iter().chain([
        ("rhs_seed", num(RHS_SEED as f64)),
        ("tol", num(tol)),
        ("plaquette", num(therm.plaquette)),
        ("f32_inner", f32_inner),
        ("f16_inner", f16_inner),
        ("byte_ratio", num(f16_bytes / f32_bytes)),
    ])))
}

/// Gates: both ladders reach the f64 tolerance, and the f16-inner leg moves
/// at most [`PRECISION_BYTE_RATIO_LIMIT`] of the f32-inner leg's bytes per
/// inner iteration.
pub fn check(section: &Json) -> Result<(), String> {
    let tol = get_num(section, "tol")?;
    for leg in ["f32_inner", "f16_inner"] {
        let residual = section
            .get(leg)
            .ok_or(format!("`{leg}` missing"))
            .and_then(|l| get_num(l, "residual"))?;
        if residual > tol {
            return Err(format!(
                "{leg} ladder did not converge: residual {residual:.3e} above tol {tol:.0e}"
            ));
        }
    }
    let ratio = get_num(section, "byte_ratio")?;
    if ratio > PRECISION_BYTE_RATIO_LIMIT {
        return Err(format!(
            "f16 inner-sweep byte model regressed: {ratio:.3}x f32-inner bytes/iteration \
             exceeds the {PRECISION_BYTE_RATIO_LIMIT}x limit"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_f16_tier_carries_the_work_at_half_the_bytes() {
        // The [4,4,2,2] thermalized fixture of the deflation suite at the
        // campaign tolerance.
        let p = run(&Thermalized::new([4, 4, 2, 2], 10), 1e-8).unwrap();
        let leg = |leg: &str, key: &str| get_num(p.get(leg).unwrap(), key).unwrap();
        // Both legs reach the f64 tolerance...
        assert!(leg("f32_inner", "residual") <= 1e-8);
        assert!(leg("f16_inner", "residual") <= 1e-8);
        // ...and the f16 leg actually ran its binary16 tier.
        assert!(leg("f16_inner", "f16_iters") > 0.0, "f16 tier never ran");
        assert_eq!(leg("f32_inner", "f16_iters"), 0.0, "f32-only leg ran f16");
        assert!(leg("f16_inner", "reliable_updates") > 0.0);
        // 16-bit inner sweeps move roughly half the bytes of 32-bit ones,
        // so even with reliable-update overhead the ratio clears the gate.
        check(&p).unwrap();
    }

    #[test]
    fn gates_pass_at_the_bound_and_fail_just_past_it() {
        let forged = |f32_res: f64, f16_res: f64, ratio: f64| {
            obj([
                ("tol", num(1e-10)),
                ("f32_inner", obj([("residual", num(f32_res))])),
                ("f16_inner", obj([("residual", num(f16_res))])),
                ("byte_ratio", num(ratio)),
            ])
        };
        check(&forged(1e-10, 1e-10, 0.6)).unwrap();
        assert!(check(&forged(1.0001e-10, 1e-12, 0.5))
            .unwrap_err()
            .contains("f32_inner ladder did not converge"));
        assert!(check(&forged(1e-12, 1e-3, 0.5))
            .unwrap_err()
            .contains("f16_inner ladder did not converge"));
        assert!(check(&forged(1e-12, 1e-12, 0.6001))
            .unwrap_err()
            .contains("byte model"));
        assert!(check(&obj([("tol", num(1e-10))]))
            .unwrap_err()
            .contains("`f32_inner` missing"));
    }

    #[test]
    fn a_degenerate_tolerance_is_refused() {
        let therm = Thermalized::new([4, 4, 2, 2], 1);
        assert!(run(&therm, 0.0).is_err());
        assert!(run(&therm, f64::NAN).is_err());
    }
}
