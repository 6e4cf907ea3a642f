//! Solve-request coalescing: turn many independent "invert on this source"
//! requests into one batched kernel dispatch, then hand each caller back
//! exactly the answer it would have gotten alone.
//!
//! This is the compute entry point a job service (the `qcd-farm` crate)
//! drives. Requests arrive one at a time in arbitrary order; the scheduler
//! coalesces whatever is pending into a [`FermionBlock`] ([`coalesce`]),
//! runs one batched solve on it — [`solve_cg_requests`] is that around
//! [`cg`] of the block; a deflated batch is `krylov::cg_solve` on the same
//! block from `qcd_deflate::galerkin_guess` — and splits the result per request ([`demux`]). The whole
//! scheme is only sound because of the block-path contract
//! ([`FermionBlock`], [`cg`]): per-RHS results of a batched solve are
//! bit-identical to independent single-RHS solves, for *any* batch width
//! and *any* RHS composition. That makes batching purely
//! an amortization decision — the scheduler can group requests however
//! throughput dictates without changing a single answer bit, and a crashed
//! batch can be re-run in a differently-shaped batch after recovery and
//! still reproduce the original results exactly.
//!
//! The demultiplexed [`SolveReport`] carries the *per-request* view:
//! iteration count, residual, history, and health events of that RHS alone
//! (identical to its solo solve), while `telemetry` is the shared profile
//! of the batched dispatch that actually ran.

use crate::dirac::WilsonDirac;
use crate::field::{FermionBlock, FermionField};
use crate::solver::{cg, BlockSolveReport, SolveReport};

/// One pending inversion request, as a job queue holds it.
#[derive(Clone)]
pub struct SolveRequest {
    /// Caller-chosen identifier, carried through to the matching
    /// [`SolveOutcome`] so results can be routed back after coalescing.
    pub id: u64,
    /// The source (right-hand side) to invert the operator on.
    pub rhs: FermionField,
}

/// The demultiplexed result of one request from a coalesced batch.
pub struct SolveOutcome {
    /// The [`SolveRequest::id`] this outcome answers.
    pub id: u64,
    /// The solution for this request's RHS — bit-identical to what a
    /// standalone single-RHS solve of the same source would produce.
    pub solution: FermionField,
    /// Per-request solver report (iterations/residual/history/health of
    /// this RHS; telemetry is the shared batch profile).
    pub report: SolveReport,
}

/// Gather request sources into one site-major block, in arrival order.
pub fn coalesce(requests: &[SolveRequest]) -> FermionBlock {
    assert!(
        !requests.is_empty(),
        "cannot coalesce an empty request batch"
    );
    let grid = requests[0].rhs.grid().clone();
    let mut block = FermionBlock::zero(grid, requests.len());
    for (i, req) in requests.iter().enumerate() {
        block.set_rhs(i, &req.rhs);
    }
    block
}

/// Split a batched solve back into per-request outcomes, in request order.
pub fn demux(
    requests: &[SolveRequest],
    x: &FermionBlock,
    rep: &BlockSolveReport,
) -> Vec<SolveOutcome> {
    requests
        .iter()
        .enumerate()
        .map(|(j, req)| SolveOutcome {
            id: req.id,
            solution: x.rhs_field(j),
            report: SolveReport {
                iterations: rep.per_rhs_iterations[j],
                residual: rep.residuals[j],
                converged: rep.converged[j],
                history: rep.histories[j].clone(),
                health: rep.health[j].clone(),
                telemetry: rep.telemetry.clone(),
            },
        })
        .collect()
}

/// Coalesce `requests` into one block [`cg`] dispatch on the normal
/// operator `M†M` and demultiplex the results per request.
///
/// Each outcome is bit-identical (solution, iterations, residual, history)
/// to an independent field [`cg`] of the same RHS, regardless
/// of how many other requests shared the batch or in what order they
/// arrived. Batch fill is recorded in the `solver.requests.batch_fill`
/// histogram so a service layer can audit its coalescing behaviour.
pub fn solve_cg_requests(
    op: &WilsonDirac,
    requests: &[SolveRequest],
    tol: f64,
    max_iter: usize,
) -> Vec<SolveOutcome> {
    let block = coalesce(requests);
    let span = qcd_trace::span!("solver.requests", block.grid().engine().ctx());
    qcd_trace::histogram("solver.requests.batch_fill").record(requests.len() as u64);
    let (x, rep) = cg(op, &block, tol, max_iter);
    drop(span);
    demux(requests, &x, &rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Grid;
    use crate::simd::SimdBackend;
    use crate::tensor::su3::random_gauge;
    use sve::VectorLength;

    fn setup() -> (WilsonDirac, Vec<FermionField>) {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(256), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 21);
        let rhss = (0..4)
            .map(|k| FermionField::random(g.clone(), 41 + k))
            .collect();
        (WilsonDirac::new(u, 0.2), rhss)
    }

    fn assert_matches_solo(out: &SolveOutcome, solo_x: &FermionField, solo: &SolveReport) {
        assert_eq!(out.report.iterations, solo.iterations);
        assert_eq!(out.report.converged, solo.converged);
        assert_eq!(out.report.residual.to_bits(), solo.residual.to_bits());
        assert_eq!(out.report.history.len(), solo.history.len());
        for (a, b) in out.report.history.iter().zip(&solo.history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(out.solution.max_abs_diff(solo_x), 0.0);
    }

    #[test]
    fn demuxed_outcomes_are_bit_identical_to_solo_cg_in_any_arrival_order() {
        // The property the farm depends on: whatever order requests arrive
        // in — and therefore whatever batch slot each RHS lands in — every
        // demuxed outcome matches the independent cg() of its RHS exactly.
        let (op, rhss) = setup();
        let solo: Vec<_> = rhss.iter().map(|b| cg(&op, b, 1e-8, 2000)).collect();
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let requests: Vec<_> = order
                .iter()
                .map(|&k| SolveRequest {
                    id: 100 + k as u64,
                    rhs: rhss[k].clone(),
                })
                .collect();
            let outcomes = solve_cg_requests(&op, &requests, 1e-8, 2000);
            assert_eq!(outcomes.len(), requests.len());
            for (slot, &k) in order.iter().enumerate() {
                assert_eq!(outcomes[slot].id, 100 + k as u64, "order {order:?}");
                assert_matches_solo(&outcomes[slot], &solo[k].0, &solo[k].1);
            }
        }
    }

    #[test]
    fn batch_composition_does_not_change_any_outcome() {
        // Two half batches vs one full batch: the scheduler's grouping
        // decision must be invisible in the results.
        let (op, rhss) = setup();
        let reqs: Vec<_> = rhss
            .iter()
            .enumerate()
            .map(|(k, b)| SolveRequest {
                id: k as u64,
                rhs: b.clone(),
            })
            .collect();
        let full = solve_cg_requests(&op, &reqs, 1e-8, 2000);
        let first = solve_cg_requests(&op, &reqs[..2], 1e-8, 2000);
        let second = solve_cg_requests(&op, &reqs[2..], 1e-8, 2000);
        for (a, b) in full.iter().zip(first.iter().chain(&second)) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.report.iterations, b.report.iterations);
            assert_eq!(a.report.residual.to_bits(), b.report.residual.to_bits());
            assert_eq!(a.solution.max_abs_diff(&b.solution), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty request batch")]
    fn empty_batch_is_rejected() {
        let (op, _) = setup();
        let _ = solve_cg_requests(&op, &[], 1e-8, 10);
    }
}
