//! The solver document behind `wilson_report --bench solver`
//! (`qcd-bench-solver/v2`): the batched multi-RHS byte model, and the
//! `deflation` ([`crate::deflate_bench`]) and `precision`
//! ([`crate::precision_bench`]) sections on one thermalized configuration.
//!
//! Every member is a pure function of the seeded recipe — trace-span byte
//! accounting, iteration counts, Ritz values, canonical residuals — so the
//! document is the same at any thread count and on any host. What a solve
//! costs on a clock is stackbench's `wilson_cg_f64` `wall_s`,
//! `grid.solver.cg_serial_s` and `grid.dirac.block_ns_per_rhs_site`.

use crate::doc::{get_num, get_rows, num, nums, obj};
use crate::{deflate_bench, precision_bench};
use grid::prelude::*;
use grid::Coor;
use qcd_hmc::{average_plaquette_fast, HmcParams, IntegratorKind, MarkovChain};
use qcd_trace::Json;
use std::sync::Arc;

/// Schema identifier of the exported document.
pub const SOLVER_BENCH_SCHEMA: &str = "qcd-bench-solver/v2";

/// Batch sizes of the multi-RHS legs.
pub const BLOCK_RHS_COUNTS: [usize; 4] = [1, 4, 8, 16];

/// Target factor for the batched memory-bound model: with eight
/// right-hand sides amortising each two-row link load, the trace-span
/// byte accounting must show at least 1.5× the single-RHS full-link
/// throughput in the bandwidth-bound regime.
pub const BLOCK_MEM_BOUND_TARGET: f64 = 1.5;

/// One traced application of the batched `M†M` + curvature-dot kernel: the
/// flops and bytes its `dirac.block` spans credited, and the per-RHS dots.
fn probe_block(
    op: &WilsonDirac,
    block: &FermionBlock,
    tmp: &mut FermionBlock,
    out: &mut FermionBlock,
) -> Result<(u64, u64, Vec<f64>), String> {
    let (dots, flops, traffic) =
        crate::probe(|| op.mdag_m_block_into_dot(block, tmp, out), |_| true);
    if flops == 0 || traffic == 0 {
        return Err(format!(
            "block probe recorded no telemetry for N={}",
            block.width()
        ));
    }
    Ok((flops, traffic, dots))
}

/// The `block` rows, one per batch size (N = 1 always first): arithmetic
/// intensity of one batched application through full and through two-row
/// links (12 link scalars on the bus instead of 18, third row rebuilt in
/// registers), and the two ratios against the N = 1 full-link leg. Links
/// are loaded once per site regardless of N, so `ai` grows with the batch;
/// `mem_bound_speedup` is bytes per RHS-site of the N = 1 full-link leg
/// over bytes per RHS-site of this leg under two-row links — on
/// bandwidth-bound hardware, sites/s scales as its inverse. The N = 1
/// batch is required bit-identical to the single-RHS fused kernel:
/// batching must change the memory traffic, never the math.
fn block_rows(g: &Arc<Grid>, rhs_counts: &[usize]) -> Result<Json, String> {
    if rhs_counts.contains(&0) {
        return Err("a block leg needs at least one right-hand side".into());
    }
    let u = random_gauge(g.clone(), 91);
    let op_two_row = WilsonDirac::new_two_row(u.clone(), 0.2);
    let op = WilsonDirac::new(u, 0.2);
    let mut counts: Vec<usize> = rhs_counts.to_vec();
    counts.push(1);
    counts.sort_unstable();
    counts.dedup();
    let max_n = *counts.last().expect("at least one batch size");
    let fields: Vec<FermionField> = (0..max_n)
        .map(|j| FermionField::random(g.clone(), 92 + j as u64))
        .collect();

    let mut rows = Vec::with_capacity(counts.len());
    let mut base: Option<(f64, f64)> = None; // (ai, bytes per RHS) of N = 1
    for &n in &counts {
        let block = FermionBlock::from_fields(&fields[..n]);
        let mut tmp = FermionBlock::zero(g.clone(), n);
        let mut out = FermionBlock::zero(g.clone(), n);
        let (flops, traffic, dots) = probe_block(&op, &block, &mut tmp, &mut out)?;
        if n == 1 {
            let mut stmp = FermionField::zero(g.clone());
            let mut sout = FermionField::zero(g.clone());
            let sdot = op.mdag_m_into_dot(&fields[0], &mut stmp, &mut sout);
            if dots[0].to_bits() != sdot.to_bits() || out.rhs_field(0).max_abs_diff(&sout) != 0.0 {
                return Err(
                    "block leg diverged: N=1 batch is not bit-identical to single RHS".into(),
                );
            }
        }
        let (tr_flops, tr_traffic, _) = probe_block(&op_two_row, &block, &mut tmp, &mut out)?;
        let ai = flops as f64 / traffic as f64;
        let (base_ai, base_bytes_per_rhs) = *base.get_or_insert((ai, traffic as f64));
        rows.push(obj([
            ("nrhs", num(n as f64)),
            ("ai", num(ai)),
            ("ai_two_row", num(tr_flops as f64 / tr_traffic as f64)),
            ("ai_gain", num(ai / base_ai)),
            (
                "mem_bound_speedup",
                num(base_bytes_per_rhs / (tr_traffic as f64 / n as f64)),
            ),
        ]));
    }
    Ok(Json::Arr(rows))
}

/// Gate: the N = 8 leg's memory-bound model (batching + two-row links)
/// reaches [`BLOCK_MEM_BOUND_TARGET`] over the N = 1 full-link leg.
pub fn check_block(doc: &Json) -> Result<(), String> {
    let rows = get_rows(doc, "block")?;
    let eight = rows
        .iter()
        .find(|row| get_num(row, "nrhs") == Ok(8.0))
        .ok_or("`block` has no N=8 leg")?;
    let model = get_num(eight, "mem_bound_speedup")?;
    if model < BLOCK_MEM_BOUND_TARGET {
        return Err(format!(
            "block memory-bound model regressed: N=8 two-row {model:.3}× < \
             {BLOCK_MEM_BOUND_TARGET}× target"
        ));
    }
    Ok(())
}

/// Gauge coupling of the thermalization chain.
const THERM_BETA: f64 = 5.6;
/// RNG seed of the thermalization chain.
const THERM_CHAIN_SEED: u64 = 5;
/// Bare Wilson mass of the solved operator (negative: toward the critical
/// mass, where the low-mode tail lives).
const THERM_MASS: f64 = -0.2;

/// The thermalized operator the `deflation` and `precision` sections share.
///
/// Deflation only pays, and a ladder is only exercised, on a configuration
/// that *has* low modes. A random gauge background is maximally disordered
/// — its additive mass renormalization pushes `λ_min(M†M)` to O(1) even
/// near zero bare mass — so a short quenched HMC chain is thermalized
/// first: at β = 5.6 the link disorder relaxes enough that `M†M` at a
/// slightly negative bare mass develops a genuine low-mode tail
/// (`λ_min ≈ 0.23` after 12 trajectories on 4⁴, vs ≈ 3 on a random start).
pub struct Thermalized {
    /// Lattice extents.
    pub dims: Coor,
    /// Thermalization trajectories from the cold start.
    pub therm: usize,
    /// Average plaquette of the configuration — the fingerprint that the
    /// chain reproduced bit for bit.
    pub plaquette: f64,
    /// `M` at bare mass −0.2 on the thermalized links.
    pub op: WilsonDirac,
}

impl Thermalized {
    /// Cold start, `therm` Omelyan trajectories (8 steps of 0.0625) at
    /// β = 5.6, 512-bit FCMLA.
    pub fn new(dims: Coor, therm: usize) -> Thermalized {
        let g = Grid::new(dims, VectorLength::of(512), SimdBackend::Fcmla);
        let hp = HmcParams {
            beta: THERM_BETA,
            n_steps: 8,
            step_size: 0.0625,
            integrator: IntegratorKind::Omelyan,
        };
        let mut chain = MarkovChain::cold_start(g, hp, THERM_CHAIN_SEED);
        chain.thermalize(therm);
        Thermalized {
            dims,
            therm,
            plaquette: average_plaquette_fast(chain.links()),
            op: WilsonDirac::new(chain.links().clone(), THERM_MASS),
        }
    }

    /// The configuration members both sections start with: a comparison of
    /// runs on different recipes fails on these before it reaches a metric.
    pub fn recipe(&self) -> [(&'static str, Json); 5] {
        [
            ("lattice", nums(&self.dims)),
            ("beta", num(THERM_BETA)),
            ("therm", num(self.therm as f64)),
            ("chain_seed", num(THERM_CHAIN_SEED as f64)),
            ("mass", num(THERM_MASS)),
        ]
    }
}

/// The document from caller-chosen sizes: block legs on an `l⁴` random
/// gauge background at the batch sizes `rhs_counts` (N = 1 is always
/// included), then the two sections on `therm`.
pub fn solver_document(
    l: usize,
    rhs_counts: &[usize],
    therm: &Thermalized,
    deflation: &deflate_bench::DeflationConfig,
    precision_tol: f64,
) -> Result<Json, String> {
    let (vl, backend) = (VectorLength::of(512), SimdBackend::Fcmla);
    Ok(obj([
        ("schema", Json::Str(SOLVER_BENCH_SCHEMA.into())),
        ("lattice", nums(&[l; 4])),
        ("vl_bits", num(vl.bits() as f64)),
        ("backend", Json::Str(backend.name().into())),
        (
            "block",
            block_rows(&Grid::new([l; 4], vl, backend), rhs_counts)?,
        ),
        ("deflation", deflate_bench::run(therm, deflation)?),
        ("precision", precision_bench::run(therm, precision_tol)?),
    ]))
}

/// The CI recipe: 8⁴ block legs at N ∈ {1, 4, 8, 16}; a 4⁴ lattice
/// thermalized for 12 trajectories, where an 8-pair subspace cuts plain CG
/// by roughly a quarter and both ladders are solved to 1e-10 — deep in f64
/// territory, seven orders below what binary16 can represent.
pub fn run_solver_bench() -> Result<Json, String> {
    solver_document(
        8,
        &BLOCK_RHS_COUNTS,
        &Thermalized::new([4; 4], 12),
        &deflate_bench::DeflationConfig::default(),
        1e-10,
    )
}

/// The gates of a solver document: [`check_block`],
/// [`deflate_bench::check`] and [`precision_bench::check`].
pub fn check(doc: &Json) -> Result<(), String> {
    let section = |key: &str| doc.get(key).ok_or(format!("`{key}` section missing"));
    check_block(doc)?;
    deflate_bench::check(section("deflation")?)?;
    precision_bench::check(section("precision")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> Arc<Grid> {
        Grid::new([4; 4], VectorLength::of(512), SimdBackend::Fcmla)
    }

    #[test]
    fn block_rows_model_what_batching_and_two_row_links_buy() {
        let rows = block_rows(&grid4(), &[2, 8]).unwrap();
        let rows = rows.as_arr().unwrap();
        let field = |i: usize, key: &str| get_num(&rows[i], key).unwrap();
        assert_eq!(
            [field(0, "nrhs"), field(1, "nrhs"), field(2, "nrhs")],
            [1.0, 2.0, 8.0]
        );
        assert_eq!(field(0, "ai_gain"), 1.0);
        for i in 0..3 {
            // Two-row loads shrink the byte denominator at equal flops.
            assert!(field(i, "ai_two_row") > field(i, "ai"));
            assert!(field(i, "mem_bound_speedup") > 1.0);
        }
        // Link loads amortise over the batch, so the telemetry-measured
        // arithmetic intensity must strictly grow with N.
        assert!(field(1, "ai") > field(0, "ai") && field(2, "ai") > field(1, "ai"));
        // The byte model does not depend on the lattice: N=8 sits exactly
        // at the gate's bound here as in the committed baseline.
        assert_eq!(field(2, "mem_bound_speedup"), BLOCK_MEM_BOUND_TARGET);
        check_block(&obj([("block", Json::Arr(rows.to_vec()))])).unwrap();
    }

    #[test]
    fn block_gate_passes_at_the_bound_and_fails_just_past_it() {
        let forged = |model: f64| {
            let row = |n: f64, m: f64| obj([("nrhs", num(n)), ("mem_bound_speedup", num(m))]);
            obj([("block", Json::Arr(vec![row(1.0, 1.1), row(8.0, model)]))])
        };
        check_block(&forged(1.5)).unwrap();
        assert!(check_block(&forged(1.4999))
            .unwrap_err()
            .contains("memory-bound"));
        // A sweep without the N=8 leg, or without the metric, is not green.
        let no_eight = obj([("block", Json::Arr(vec![obj([("nrhs", num(1.0))])]))]);
        assert!(check_block(&no_eight).unwrap_err().contains("N=8"));
        let no_metric = obj([("block", Json::Arr(vec![obj([("nrhs", num(8.0))])]))]);
        assert!(check_block(&no_metric)
            .unwrap_err()
            .contains("mem_bound_speedup"));
    }

    #[test]
    fn zero_rhs_is_refused() {
        assert!(block_rows(&grid4(), &[0]).is_err());
    }

    #[test]
    fn the_document_carries_all_three_sections_and_passes_its_gates() {
        let therm = Thermalized::new([4, 4, 2, 2], 10);
        let defl = deflate_bench::tests::small_cfg();
        let doc = solver_document(4, &[8], &therm, &defl, 1e-8).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "schema",
                "lattice",
                "vl_bits",
                "backend",
                "block",
                "deflation",
                "precision"
            ]
        );
        check(&doc).unwrap();
        // Both sections ran on the one configuration.
        let plaquette = |s: &str| get_num(doc.get(s).unwrap(), "plaquette").unwrap();
        assert_eq!(plaquette("deflation"), therm.plaquette);
        assert_eq!(plaquette("precision"), therm.plaquette);
        // It survives the writer's round trip and compares clean with itself.
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert!(crate::doc::diff(&doc, &parsed).unwrap().findings.is_empty());
        // A missing section is a red gate, not a skipped one.
        let Json::Obj(mut members) = doc else {
            unreachable!()
        };
        members.retain(|(k, _)| k != "precision");
        assert!(check(&Json::Obj(members))
            .unwrap_err()
            .contains("precision"));
    }
}
