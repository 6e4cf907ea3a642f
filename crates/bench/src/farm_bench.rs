//! The request-coalescing document behind `wilson_report --bench farm`
//! (`qcd-bench-farm/v2`): what does the farm's batching buy?
//!
//! The answer is a model, not a clock: trace-span byte accounting of one
//! batched block `cg` dispatch against one-at-a-time dispatches of the same
//! requests. Gauge links are loaded once per site regardless of batch
//! width, so bytes per RHS fall as the batch fills; on the bandwidth-bound
//! hardware the paper targets, RHS throughput scales as the inverse. The
//! legs need only `grid` and the farm's public batching policy
//! ([`plan_batches`]); how two workers scale on a clock is stackbench's
//! `farm_mix` and `qcd-farm.worker_scaling_eff`.

use crate::doc::{get_num, num, nums, obj};
use grid::prelude::*;
use grid::Coor;
use qcd_farm::plan_batches;
use qcd_trace::Json;

/// Schema identifier of the exported document.
pub const FARM_BENCH_SCHEMA: &str = "qcd-bench-farm/v2";

/// Required RHS-throughput gain (bytes-per-RHS model) of a 16-wide batch
/// over one-at-a-time dispatch — the farm's whole reason to coalesce.
pub const COALESCE_TARGET: f64 = 1.3;

/// The coalescing legs: `requests` concurrent solve requests on a `dims`
/// lattice (256-bit FCMLA, the farm's default grid), dispatched at every
/// width of 1/4/8/16 that divides them, each dispatch probed for exactly
/// `probe_iters` CG iterations so legs compare equal work.
pub fn run_farm_bench(dims: Coor, requests: usize, probe_iters: usize) -> Result<Json, String> {
    if probe_iters == 0 || requests == 0 {
        return Err("the coalescing legs need requests and probe iterations".into());
    }
    let vl = VectorLength::of(256);
    let backend = SimdBackend::Fcmla;
    let g = Grid::new(dims, vl, backend);
    let op = WilsonDirac::new(random_gauge(g.clone(), 181), 0.2);
    let fields: Vec<FermionField> = (0..requests)
        .map(|j| FermionField::random(g.clone(), 200 + j as u64))
        .collect();

    let mut rows = Vec::new();
    let mut gain = 1.0;
    let mut base_bytes_per_rhs = None;
    for n in [1usize, 4, 8, 16] {
        if !requests.is_multiple_of(n) {
            continue;
        }
        let block = FermionBlock::from_fields(&fields[..n]);
        // tol 0: exactly `probe_iters` sweeps
        let (_, _, bytes) = crate::probe(|| cg(&op, &block, 0.0, probe_iters), |_| true);
        if bytes == 0 {
            return Err(format!("dispatch probe recorded no telemetry for N={n}"));
        }
        let bytes_per_rhs = bytes as f64 / n as f64;
        gain = *base_bytes_per_rhs.get_or_insert(bytes_per_rhs) / bytes_per_rhs;
        rows.push(obj([
            ("nrhs", num(n as f64)),
            ("bytes_per_rhs", num(bytes_per_rhs)),
            ("model_speedup", num(gain)),
        ]));
    }
    Ok(obj([
        ("schema", Json::Str(FARM_BENCH_SCHEMA.into())),
        ("lattice", nums(&dims)),
        ("vl_bits", num(vl.bits() as f64)),
        ("backend", Json::Str(backend.name().into())),
        ("probe_iters", num(probe_iters as f64)),
        ("requests", num(requests as f64)),
        ("coalesce", Json::Arr(rows)),
        // `model_speedup` of the widest leg — the gated headline.
        ("coalesce_gain", num(gain)),
        // Mean planned batch width: a pure function of the batching policy.
        (
            "mean_planned_fill",
            num(requests as f64 / plan_batches(requests).len() as f64),
        ),
    ]))
}

/// Gate: coalescing the requests models at least [`COALESCE_TARGET`]× the
/// RHS throughput of one-at-a-time dispatch.
pub fn check(doc: &Json) -> Result<(), String> {
    let gain = get_num(doc, "coalesce_gain")?;
    if gain < COALESCE_TARGET {
        return Err(format!(
            "coalescing model regressed: {gain:.3}x < {COALESCE_TARGET}x target"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::get_rows;

    #[test]
    fn bytes_per_rhs_fall_as_the_batch_fills() {
        let doc = run_farm_bench([4; 4], 16, 2).unwrap();
        let rows = get_rows(&doc, "coalesce").unwrap();
        let n = |i: usize, key: &str| get_num(&rows[i], key).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!((n(0, "nrhs"), n(0, "model_speedup")), (1.0, 1.0));
        // Link loads amortise over the batch: bytes per RHS must strictly
        // fall, so the model speedup strictly grows.
        for i in 1..4 {
            assert!(n(i, "bytes_per_rhs") < n(i - 1, "bytes_per_rhs"));
        }
        assert_eq!(get_num(&doc, "coalesce_gain"), Ok(n(3, "model_speedup")));
        assert_eq!(get_num(&doc, "mean_planned_fill"), Ok(16.0));
        check(&doc).unwrap();
        // Widths that do not divide the requests are skipped.
        let doc = run_farm_bench([4; 4], 4, 1).unwrap();
        assert_eq!(get_rows(&doc, "coalesce").unwrap().len(), 2);
    }

    #[test]
    fn gate_passes_at_the_bound_and_fails_just_past_it() {
        check(&obj([("coalesce_gain", num(1.3))])).unwrap();
        assert!(check(&obj([("coalesce_gain", num(1.2999))]))
            .unwrap_err()
            .contains("regressed"));
        assert!(check(&obj([("requests", num(16.0))]))
            .unwrap_err()
            .contains("`coalesce_gain` missing"));
    }

    #[test]
    fn degenerate_configurations_are_refused() {
        assert!(run_farm_bench([4; 4], 16, 0).is_err());
        assert!(run_farm_bench([4; 4], 0, 2).is_err());
    }
}
