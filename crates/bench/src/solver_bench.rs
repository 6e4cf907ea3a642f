//! The before/after solver benchmark behind `wilson_report --bench`.
//!
//! Two Conjugate Gradient legs run the *same math* on the same problem for
//! a fixed iteration count:
//!
//! - **baseline** — the unfused formulation this codebase used before the
//!   allocation-free hot path: `M ψ` as a hopping sweep followed by a
//!   separate `(m+4)ψ − ½(·)` linear-combination sweep (fresh fields each
//!   application), the curvature dot as its own pass, and a per-iteration
//!   telemetry span.
//! - **fused** — the workspace path: dslash with the mass axpy fused into
//!   the store loop, the curvature dot fused into the second hopping sweep
//!   ([`WilsonDirac::mdag_m_into_dot`]), preallocated
//!   [`SolverWorkspace`] storage, and zero steady-state allocations.
//!
//! Both legs retire bit-identical iterates (asserted), so the throughput
//! ratio isolates the memory-traffic and allocation savings. The result is
//! exported as a `qcd-bench-solver/v1` JSON document, validated by a
//! parse-back schema check before anything touches disk — the artifact the
//! CI bench-smoke job uploads.

use grid::dirac::{
    FUSED_DOT_FLOPS_PER_SITE, FUSED_MASS_AXPY_FLOPS_PER_SITE, HOPPING_FLOPS_PER_SITE,
};
use grid::krylov::{cg_step, Allocating, Layout, Scratch};
use grid::prelude::*;
use grid::Coor;
use qcd_trace::Json;
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier of the exported benchmark document.
pub const SOLVER_BENCH_SCHEMA: &str = "qcd-bench-solver/v1";

/// Default batch sizes of the multi-RHS legs.
pub const BLOCK_RHS_COUNTS: [usize; 4] = [1, 4, 8, 16];

/// Useful floating-point work per lattice site per CG iteration, identical
/// for both legs (they compute the same recurrence):
/// two fused operator applications (hopping + mass axpy), the curvature
/// dot, the fused `x += αp / r −= αAp / |r|²` sweep (3 × 48 flops), and
/// the `p = r + βp` update (48 flops).
pub const CG_FLOPS_PER_SITE_PER_ITER: u64 = 2
    * (HOPPING_FLOPS_PER_SITE + FUSED_MASS_AXPY_FLOPS_PER_SITE)
    + FUSED_DOT_FLOPS_PER_SITE
    + 3 * 48
    + 48;

/// Full-field memory sweeps per CG iteration *beyond* the two dslash
/// stencil passes, baseline leg: one `scale_axpy` pass after each hopping
/// sweep, the standalone curvature inner product, the fused x/r update,
/// and the search-direction update. (Fresh-field zero-fills and
/// allocations come on top and are part of what the wall clock measures.)
pub const BASELINE_SWEEPS_PER_ITER: f64 = 5.0;

/// Fused leg: the mass axpy and curvature dot ride the dslash store loops,
/// leaving only the fused x/r update and the search-direction update.
pub const FUSED_SWEEPS_PER_ITER: f64 = 2.0;

/// Throughput of one benchmark leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegResult {
    /// Wall time of the iteration loop.
    pub wall_ns: u64,
    /// Lattice sites retired per second (volume × iterations / wall).
    pub sites_per_sec: f64,
    /// Useful GFLOP/s ([`CG_FLOPS_PER_SITE_PER_ITER`] per site-iteration).
    pub gflops: f64,
    /// Full-field sweeps per iteration beyond the dslash.
    pub sweeps_per_iter: f64,
}

/// Throughput of one multi-RHS operator leg: `iters` applications of the
/// fused `M†M` + curvature-dot kernel to a batch of `nrhs` spinors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockLeg {
    /// Right-hand sides in the batch.
    pub nrhs: usize,
    /// Wall time of the application loop.
    pub wall_ns: u64,
    /// RHS-site applications retired per second (volume × nrhs ×
    /// iterations / wall) — the figure the batched layout is meant to
    /// raise by amortising link loads.
    pub sites_per_sec: f64,
    /// Useful GFLOP/s (model flops from the telemetry of one
    /// application, scaled by the loop count).
    pub gflops: f64,
    /// Measured arithmetic intensity (telemetry flops / telemetry bytes)
    /// of one batched application. Links are loaded once per site
    /// regardless of `nrhs`, so this grows with the batch.
    pub ai: f64,
    /// Arithmetic intensity of the same batched application through the
    /// two-row operator mode (12 link scalars on the bus instead of 18,
    /// third row rebuilt in registers).
    pub ai_two_row: f64,
    /// `sites_per_sec / (N=1 leg's sites_per_sec)`.
    pub speedup: f64,
    /// `ai / (N=1 leg's ai)` — the AI gain of batching alone.
    pub ai_gain: f64,
    /// Projected throughput gain in the memory-bandwidth-bound regime the
    /// paper targets, with both levers engaged: bytes per RHS-site of the
    /// N=1 full-link leg over bytes per RHS-site of this leg under
    /// two-row links (all from trace-span byte accounting — on
    /// bandwidth-bound hardware, sites/s scales as the inverse of bytes
    /// moved per site).
    pub mem_bound_speedup: f64,
}

/// A complete before/after solver benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverBench {
    /// Lattice extents.
    pub dims: Coor,
    /// SVE vector length in bits.
    pub vl_bits: u64,
    /// Complex-arithmetic backend name.
    pub backend: String,
    /// Worker threads the parallel field kernels used.
    pub threads: usize,
    /// CG iterations each leg ran.
    pub iterations: usize,
    /// The unfused allocating leg.
    pub baseline: LegResult,
    /// The fused workspace leg.
    pub fused: LegResult,
    /// `fused.sites_per_sec / baseline.sites_per_sec`.
    pub speedup: f64,
    /// Multi-RHS operator legs, one per batch size (N=1 first).
    pub block: Vec<BlockLeg>,
    /// Wall-time ratios of an N=8 block solve with the metrics layer
    /// (flight recorder + span observer) enabled over disabled — the
    /// observability tax. Their **median** is gated at
    /// [`METRICS_OVERHEAD_LIMIT`] by the CI bench-smoke job and exported
    /// under the `metrics_overhead` key.
    pub metrics_overhead: OverheadPairs,
    /// The low-mode deflation comparison on a thermalized configuration
    /// (`--deflate`): present when the deflation legs ran, gated by
    /// [`crate::deflate_bench::check_deflation_gain`] in CI.
    pub deflation: Option<crate::deflate_bench::DeflationBench>,
    /// The f16-inner vs f32-inner mixed-precision ladder comparison on a
    /// thermalized configuration (`--precision`): present when the
    /// precision legs ran, gated by
    /// [`crate::precision_bench::check_precision`] in CI.
    pub precision: Option<crate::precision_bench::PrecisionBench>,
}

/// Ceiling on [`SolverBench::metrics_overhead`]: the metrics layer may
/// cost at most 2% of N=8 block-solve wall time.
pub const METRICS_OVERHEAD_LIMIT: f64 = 1.02;

/// Spread of the paired on/off wall ratios of [`metrics_overhead_probe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadPairs {
    /// Number of off/on pairs timed.
    pub pairs: usize,
    /// Smallest paired ratio.
    pub min: f64,
    /// Median paired ratio — the gated figure.
    pub median: f64,
    /// Median absolute deviation of the paired ratios from their median.
    pub mad: f64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Fewest off/on pairs [`metrics_overhead_probe`] times.
pub const METRICS_OVERHEAD_MIN_PAIRS: usize = 5;

/// Measure the observability tax: time an N=8 block solve with the flight
/// recorder and span observer disabled and enabled, in `pairs` (at least
/// [`METRICS_OVERHEAD_MIN_PAIRS`]) back-to-back pairs whose order
/// alternates, and take the ratio on/off within each pair. Host drift
/// between one pair and the next cancels in the ratios, drift inside a pair
/// changes sign with the order, and the median ignores the pair an
/// interruption landed in. The solver's health monitors run in both legs
/// (they are part of the solve); what toggles is event recording and the
/// span histogram feed. The prior enabled/disabled state is restored.
pub fn metrics_overhead_probe(
    g: &Arc<Grid>,
    op: &WilsonDirac,
    iters: usize,
    pairs: usize,
) -> OverheadPairs {
    let fields: Vec<FermionField> = (0..8)
        .map(|j| FermionField::random(g.clone(), 292 + j as u64))
        .collect();
    let block = FermionBlock::from_fields(&fields);
    let was_enabled = qcd_metrics::flight_enabled();
    qcd_metrics::install_span_observer();
    let _ = block_cg(op, &block, 1e-8, iters); // warm-up
    let time_leg = |enabled: bool| -> f64 {
        qcd_metrics::set_flight_enabled(enabled);
        let t0 = Instant::now();
        let _ = block_cg(op, &block, 1e-8, iters);
        (t0.elapsed().as_nanos() as f64).max(1.0)
    };
    let pairs = pairs.max(METRICS_OVERHEAD_MIN_PAIRS);
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let on_first = i % 2 == 1;
            let first = time_leg(on_first);
            let second = time_leg(!on_first);
            if on_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    qcd_metrics::set_flight_enabled(was_enabled);
    let median_ratio = median(&mut ratios);
    let mut deviations: Vec<f64> = ratios.iter().map(|r| (r - median_ratio).abs()).collect();
    OverheadPairs {
        pairs,
        min: ratios[0],
        median: median_ratio,
        mad: median(&mut deviations),
    }
}

/// The CI gate on the observability tax.
pub fn check_metrics_overhead(b: &SolverBench) -> Result<(), String> {
    if b.metrics_overhead.median > METRICS_OVERHEAD_LIMIT {
        return Err(format!(
            "metrics overhead {:.4}x exceeds the {METRICS_OVERHEAD_LIMIT}x limit",
            b.metrics_overhead.median
        ));
    }
    Ok(())
}

fn leg_result(dims: Coor, iters: usize, wall_ns: u64, sweeps: f64) -> LegResult {
    let sites = dims.iter().product::<usize>() as f64;
    let secs = wall_ns as f64 / 1e9;
    let site_iters = sites * iters as f64;
    LegResult {
        wall_ns,
        sites_per_sec: site_iters / secs,
        gflops: site_iters * CG_FLOPS_PER_SITE_PER_ITER as f64 / secs / 1e9,
        sweeps_per_iter: sweeps,
    }
}

/// One traced application of the batched kernel: the flops and bytes its
/// `dirac.block` spans credited to the registry, plus the per-RHS
/// curvature dots. The spans land under a uniquely named parent so the
/// subtree sum is race-free against concurrent telemetry; the registry
/// lock keeps a concurrent `qcd_trace::reset` (the profile/HMC paths)
/// from wiping the subtree before it is read back.
fn probe_block(
    op: &WilsonDirac,
    block: &FermionBlock,
    tmp: &mut FermionBlock,
    out: &mut FermionBlock,
) -> Result<(u64, u64, Vec<f64>), String> {
    static SPAN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let probe = format!(
        "bench.block.{}",
        SPAN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let guard = crate::registry_lock();
    let span = qcd_trace::SpanGuard::enter(&probe, None);
    let dots = op.mdag_m_block_into_dot(block, tmp, out);
    let _ = span.finish();
    let prefix = format!("{probe}/");
    let (flops, traffic) = qcd_trace::snapshot()
        .regions
        .iter()
        .filter(|(path, _)| path.starts_with(&prefix))
        .fold((0u64, 0u64), |(f, t), (_, stat)| {
            (f + stat.flops, t + stat.bytes_read + stat.bytes_written)
        });
    drop(guard);
    if flops == 0 || traffic == 0 {
        return Err(format!(
            "block probe recorded no telemetry for N={}",
            block.nrhs()
        ));
    }
    Ok((flops, traffic, dots))
}

/// Time the batched `M†M` legs: `iters` applications of
/// [`WilsonDirac::mdag_m_block_into_dot`] per batch size. The `N = 1` leg
/// is asserted bit-identical to the single-RHS fused kernel — batching
/// must change the memory traffic, never the math. Each leg is also
/// probed through `op_two_row` (same links, two-row compressed loads) to
/// derive the combined batching + compression bandwidth model.
fn run_block_legs(
    g: &Arc<Grid>,
    op: &WilsonDirac,
    op_two_row: &WilsonDirac,
    iters: usize,
    rhs_counts: &[usize],
) -> Result<Vec<BlockLeg>, String> {
    // Always measure N = 1: it anchors `speedup` and `ai_gain`.
    let mut counts: Vec<usize> = rhs_counts.to_vec();
    counts.push(1);
    counts.sort_unstable();
    counts.dedup();
    let max_n = *counts.last().expect("at least one batch size");
    let fields: Vec<FermionField> = (0..max_n)
        .map(|j| FermionField::random(g.clone(), 92 + j as u64))
        .collect();
    let volume = g.fdims().iter().product::<usize>() as f64;

    let mut legs = Vec::with_capacity(counts.len());
    let mut full_bytes = Vec::with_capacity(counts.len());
    let mut two_row_bytes = Vec::with_capacity(counts.len());
    for &n in &counts {
        let block = FermionBlock::from_fields(&fields[..n]);
        let mut tmp = FermionBlock::zero(g.clone(), n);
        let mut out = FermionBlock::zero(g.clone(), n);
        let _ = op.mdag_m_block_into_dot(&block, &mut tmp, &mut out); // warm-up

        // Measured arithmetic intensity of one batched application.
        let (flops, traffic, dots) = probe_block(op, &block, &mut tmp, &mut out)?;
        let ai = flops as f64 / traffic as f64;

        if n == 1 {
            // The batched kernel with one RHS must retire the exact bits
            // of the single-RHS fused path.
            let mut stmp = FermionField::zero(g.clone());
            let mut sout = FermionField::zero(g.clone());
            let sdot = op.mdag_m_into_dot(&fields[0], &mut stmp, &mut sout);
            if dots[0].to_bits() != sdot.to_bits() || out.rhs_field(0).max_abs_diff(&sout) != 0.0 {
                return Err(
                    "block leg diverged: N=1 batch is not bit-identical to single RHS".into(),
                );
            }
        }

        // Same batch through two-row compressed links: same flops, 12
        // link scalars on the bus per leg instead of 18.
        let (tr_flops, tr_traffic, _) = probe_block(op_two_row, &block, &mut tmp, &mut out)?;
        let ai_two_row = tr_flops as f64 / tr_traffic as f64;
        full_bytes.push(traffic);
        two_row_bytes.push(tr_traffic);

        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = op.mdag_m_block_into_dot(&block, &mut tmp, &mut out);
        }
        let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
        let secs = wall_ns as f64 / 1e9;
        legs.push(BlockLeg {
            nrhs: n,
            wall_ns,
            sites_per_sec: volume * n as f64 * iters as f64 / secs,
            gflops: flops as f64 * iters as f64 / secs / 1e9,
            ai,
            ai_two_row,
            speedup: 1.0, // filled in once the N=1 leg is known
            ai_gain: 1.0,
            mem_bound_speedup: 1.0,
        });
    }
    let base = legs[0];
    // `counts` starts at 1, so the base leg's traffic IS bytes per RHS.
    let base_bytes_per_rhs = full_bytes[0] as f64;
    for (leg, &tr) in legs.iter_mut().zip(&two_row_bytes) {
        leg.speedup = leg.sites_per_sec / base.sites_per_sec;
        leg.ai_gain = leg.ai / base.ai;
        leg.mem_bound_speedup = base_bytes_per_rhs / (tr as f64 / leg.nrhs as f64);
    }
    Ok(legs)
}

/// Target factor for the batched memory-bound model: with eight
/// right-hand sides amortising each two-row link load, the trace-span
/// byte accounting must show at least 1.5× the single-RHS full-link
/// throughput in the bandwidth-bound regime.
pub const BLOCK_MEM_BOUND_TARGET: f64 = 1.5;

/// The CI gate on the exported block legs: batching eight right-hand
/// sides must retire at least as many RHS-sites per second as running
/// them one at a time, and the derived memory-bound model (batching +
/// two-row links, from trace-span byte accounting) must reach
/// [`BLOCK_MEM_BOUND_TARGET`] over the N=1 full-link leg.
pub fn check_block_throughput(b: &SolverBench) -> Result<(), String> {
    let leg = |n: usize| b.block.iter().find(|l| l.nrhs == n);
    match (leg(1), leg(8)) {
        (Some(one), Some(eight)) => {
            if eight.sites_per_sec < one.sites_per_sec {
                return Err(format!(
                    "block throughput regressed: N=8 {:.0} sites/s < N=1 {:.0} sites/s",
                    eight.sites_per_sec, one.sites_per_sec
                ));
            }
            if eight.mem_bound_speedup < BLOCK_MEM_BOUND_TARGET {
                return Err(format!(
                    "block memory-bound model regressed: N=8 two-row {:.3}× < {}× target",
                    eight.mem_bound_speedup, BLOCK_MEM_BOUND_TARGET
                ));
            }
            Ok(())
        }
        // A custom --rhs sweep without both anchors: nothing to gate.
        _ => Ok(()),
    }
}

/// [`run_solver_bench`] with a caller-chosen set of multi-RHS batch sizes
/// (`--rhs`). N = 1 is always included as the batching baseline.
pub fn run_solver_bench_with_rhs(
    l: usize,
    iters: usize,
    rhs_counts: &[usize],
) -> Result<SolverBench, String> {
    if iters == 0 {
        return Err("--bench-iters must be positive".into());
    }
    if rhs_counts.contains(&0) {
        return Err("--rhs must be positive".into());
    }
    let dims: Coor = [l, l, l, l];
    let vl = VectorLength::of(512);
    let backend = SimdBackend::Fcmla;
    let g = Grid::new(dims, vl, backend);
    let u = random_gauge(g.clone(), 91);
    let op_two_row = WilsonDirac::new_two_row(u.clone(), 0.2);
    let op = WilsonDirac::new(u, 0.2);
    let b = FermionField::random(g.clone(), 92);
    let a = 0.2 + 4.0;

    // Both legs step the one recurrence; tolerance 0 never converges, so
    // each runs exactly `iters` iterations after a warm-up step.
    let mut scratch = Scratch::new(&b);

    // Baseline: hopping sweep + separate mass linear combination, fresh
    // fields per application, standalone curvature dot (the allocating
    // closure adapter).
    let mut unfused = Allocating::new(g.clone(), |p: &FermionField| {
        let h = op.hopping(p);
        let mut mp = FermionField::zero(g.clone());
        mp.scale_axpy_from(-0.5, &h, a, p);
        let hd = op.hopping_dag(&mp);
        let mut out = FermionField::zero(g.clone());
        out.scale_axpy_from(-0.5, &hd, a, &mp);
        out
    });
    let mut base_state = CgState::new(&b);
    let _ = cg_step(&mut unfused, &mut base_state, &mut scratch, 0.0, iters); // warm-up
    let mut base_state = CgState::new(&b);
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = cg_step(&mut unfused, &mut base_state, &mut scratch, 0.0, iters);
    }
    let base_wall = t0.elapsed().as_nanos() as u64;

    // Fused: preallocated intermediate, fused dslash+mass+dot sweeps.
    let mut tmp = FermionField::zero(g.clone());
    let mut fused = Layout::new(
        |p: &FermionField, ap: &mut FermionField, curv: &mut [f64]| {
            curv[0] = op.mdag_m_into_dot(p, &mut tmp, ap);
        },
    );
    let mut fused_state = CgState::new(&b);
    fused_state.history.reserve(iters + 1);
    let _ = cg_step(&mut fused, &mut fused_state, &mut scratch, 0.0, iters); // warm-up
    let mut fused_state = CgState::new(&b);
    fused_state.history.reserve(iters + 1);
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = cg_step(&mut fused, &mut fused_state, &mut scratch, 0.0, iters);
    }
    let fused_wall = t0.elapsed().as_nanos() as u64;

    // The legs must have walked the same trajectory — the benchmark is
    // meaningless if fusion changed the math.
    if base_state.r2.to_bits() != fused_state.r2.to_bits()
        || base_state.x.max_abs_diff(&fused_state.x) != 0.0
    {
        return Err("benchmark legs diverged: fused iterates are not bit-identical".into());
    }

    let baseline = leg_result(dims, iters, base_wall.max(1), BASELINE_SWEEPS_PER_ITER);
    let fused = leg_result(dims, iters, fused_wall.max(1), FUSED_SWEEPS_PER_ITER);
    let block = run_block_legs(&g, &op, &op_two_row, iters, rhs_counts)?;
    let metrics_overhead = metrics_overhead_probe(&g, &op, iters, METRICS_OVERHEAD_MIN_PAIRS);
    Ok(SolverBench {
        dims,
        vl_bits: vl.bits() as u64,
        backend: backend.name().to_string(),
        threads: rayon::current_num_threads(),
        iterations: iters,
        speedup: fused.sites_per_sec / baseline.sites_per_sec,
        baseline,
        fused,
        block,
        metrics_overhead,
        deflation: None,
        precision: None,
    })
}

/// Run both single-RHS legs plus the default multi-RHS sweep
/// ([`BLOCK_RHS_COUNTS`]) for exactly `iters` iterations on an `l⁴`
/// lattice at 512-bit SVE with the FCMLA backend, assert the legs agree
/// bit for bit, and return the throughput comparison.
pub fn run_solver_bench(l: usize, iters: usize) -> Result<SolverBench, String> {
    run_solver_bench_with_rhs(l, iters, &BLOCK_RHS_COUNTS)
}

fn leg_json(leg: &LegResult) -> Json {
    Json::Obj(vec![
        ("wall_ns".into(), Json::Num(leg.wall_ns as f64)),
        ("sites_per_sec".into(), Json::Num(leg.sites_per_sec)),
        ("gflops".into(), Json::Num(leg.gflops)),
        ("sweeps_per_iter".into(), Json::Num(leg.sweeps_per_iter)),
    ])
}

fn block_leg_json(leg: &BlockLeg) -> Json {
    Json::Obj(vec![
        ("nrhs".into(), Json::Num(leg.nrhs as f64)),
        ("wall_ns".into(), Json::Num(leg.wall_ns as f64)),
        ("sites_per_sec".into(), Json::Num(leg.sites_per_sec)),
        ("gflops".into(), Json::Num(leg.gflops)),
        ("ai".into(), Json::Num(leg.ai)),
        ("ai_two_row".into(), Json::Num(leg.ai_two_row)),
        ("speedup".into(), Json::Num(leg.speedup)),
        ("ai_gain".into(), Json::Num(leg.ai_gain)),
        ("mem_bound_speedup".into(), Json::Num(leg.mem_bound_speedup)),
    ])
}

/// Render a benchmark as a `qcd-bench-solver/v1` document.
pub fn bench_to_json(b: &SolverBench) -> Json {
    let mut members = vec![
        ("schema".into(), Json::Str(SOLVER_BENCH_SCHEMA.into())),
        (
            "lattice".into(),
            Json::Arr(b.dims.iter().map(|&d| Json::Num(d as f64)).collect()),
        ),
        ("vl_bits".into(), Json::Num(b.vl_bits as f64)),
        ("backend".into(), Json::Str(b.backend.clone())),
        ("threads".into(), Json::Num(b.threads as f64)),
        ("iterations".into(), Json::Num(b.iterations as f64)),
        ("baseline".into(), leg_json(&b.baseline)),
        ("fused".into(), leg_json(&b.fused)),
        ("speedup".into(), Json::Num(b.speedup)),
        (
            "block".into(),
            Json::Arr(b.block.iter().map(block_leg_json).collect()),
        ),
        (
            "metrics_overhead".into(),
            Json::Num(b.metrics_overhead.median),
        ),
        (
            "metrics_overhead_pairs".into(),
            Json::Obj(vec![
                ("pairs".into(), Json::Num(b.metrics_overhead.pairs as f64)),
                ("min".into(), Json::Num(b.metrics_overhead.min)),
                ("mad".into(), Json::Num(b.metrics_overhead.mad)),
            ]),
        ),
    ];
    if let Some(d) = &b.deflation {
        members.push((
            "deflation".into(),
            crate::deflate_bench::deflation_to_json(d),
        ));
    }
    if let Some(p) = &b.precision {
        members.push((
            "precision".into(),
            crate::precision_bench::precision_to_json(p),
        ));
    }
    Json::Obj(members)
}

fn check_leg(doc: &Json, key: &str) -> Result<(), String> {
    let leg = doc
        .get(key)
        .ok_or_else(|| format!("missing object `{key}`"))?;
    for field in ["wall_ns", "sites_per_sec", "gflops", "sweeps_per_iter"] {
        let v = leg
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{key}.{field}` missing or not a number"))?;
        if v <= 0.0 || !v.is_finite() {
            return Err(format!("`{key}.{field}` must be positive, got {v}"));
        }
    }
    Ok(())
}

/// Validate a parsed document against the `qcd-bench-solver/v1` schema —
/// the check the CI bench-smoke job runs on the uploaded artifact.
pub fn validate_solver_bench_json(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SOLVER_BENCH_SCHEMA) => {}
        Some(other) => return Err(format!("schema `{other}` != `{SOLVER_BENCH_SCHEMA}`")),
        None => return Err("missing `schema`".into()),
    }
    let lat = doc
        .get("lattice")
        .and_then(Json::as_arr)
        .ok_or("missing array `lattice`")?;
    if lat.len() != 4 || lat.iter().any(|d| d.as_u64().is_none_or(|v| v == 0)) {
        return Err("`lattice` must be four positive extents".into());
    }
    for field in ["vl_bits", "threads", "iterations"] {
        if doc.get(field).and_then(Json::as_u64).is_none_or(|v| v == 0) {
            return Err(format!("`{field}` missing or not a positive integer"));
        }
    }
    if doc.get("backend").and_then(Json::as_str).is_none() {
        return Err("missing string `backend`".into());
    }
    check_leg(doc, "baseline")?;
    check_leg(doc, "fused")?;
    if !doc
        .get("speedup")
        .and_then(Json::as_f64)
        .is_some_and(|v| v > 0.0)
    {
        return Err("`speedup` missing or not positive".into());
    }
    let block = doc
        .get("block")
        .and_then(Json::as_arr)
        .ok_or("missing array `block`")?;
    if block.is_empty() {
        return Err("`block` must hold at least the N=1 leg".into());
    }
    for (i, row) in block.iter().enumerate() {
        if row
            .get("nrhs")
            .and_then(Json::as_u64)
            .is_none_or(|v| v == 0)
        {
            return Err(format!("`block[{i}].nrhs` missing or not positive"));
        }
        for field in [
            "wall_ns",
            "sites_per_sec",
            "gflops",
            "ai",
            "ai_two_row",
            "speedup",
            "ai_gain",
            "mem_bound_speedup",
        ] {
            let v = row
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`block[{i}].{field}` missing or not a number"))?;
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("`block[{i}].{field}` must be positive, got {v}"));
            }
        }
    }
    if !doc
        .get("metrics_overhead")
        .and_then(Json::as_f64)
        .is_some_and(|v| v > 0.0 && v.is_finite())
    {
        return Err("`metrics_overhead` missing or not positive".into());
    }
    // Documents written before the probe timed pairs carry no spread.
    if let Some(pairs) = doc.get("metrics_overhead_pairs") {
        for field in ["pairs", "min", "mad"] {
            if !pairs
                .get(field)
                .and_then(Json::as_f64)
                .is_some_and(|v| v >= 0.0 && v.is_finite())
            {
                return Err(format!(
                    "`metrics_overhead_pairs.{field}` missing or negative"
                ));
            }
        }
    }
    // The deflation and precision sections are optional (--deflate,
    // --precision); when present each must be a complete, well-formed
    // comparison.
    if let Some(d) = doc.get("deflation") {
        crate::deflate_bench::validate_deflation_json(d)?;
    }
    if let Some(p) = doc.get("precision") {
        crate::precision_bench::validate_precision_json(p)?;
    }
    Ok(())
}

/// Render, validate by parse-back, and write `BENCH_solver.json`. An
/// invalid document is an error, not an artifact.
pub fn write_validated_bench_json(b: &SolverBench, path: &str) -> Result<(), String> {
    let json = bench_to_json(b);
    let doc = json.render();
    let parsed = Json::parse(&doc)
        .map_err(|e| format!("emitted JSON does not parse: {} at byte {}", e.msg, e.at))?;
    validate_solver_bench_json(&parsed)?;
    if parsed != json {
        return Err("JSON round-trip did not reproduce the benchmark document".into());
    }
    std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_exports_a_valid_document() {
        let bench = run_solver_bench_with_rhs(4, 3, &[1, 2]).unwrap();
        assert_eq!(bench.iterations, 3);
        assert!(bench.baseline.sites_per_sec > 0.0);
        assert!(bench.fused.sites_per_sec > 0.0);
        assert!(bench.speedup > 0.0);
        assert_eq!(bench.block.len(), 2);
        assert_eq!(bench.block[0].nrhs, 1);
        assert_eq!(bench.block[0].speedup, 1.0);
        assert_eq!(bench.block[0].ai_gain, 1.0);
        // Link loads amortise over the batch, so the telemetry-measured
        // arithmetic intensity must strictly grow with N.
        assert!(
            bench.block[1].ai > bench.block[0].ai,
            "AI must grow with the batch: {} vs {}",
            bench.block[1].ai,
            bench.block[0].ai
        );
        for leg in &bench.block {
            // Two-row loads shrink the byte denominator at equal flops.
            assert!(
                leg.ai_two_row > leg.ai,
                "two-row AI must beat full links at N={}: {} vs {}",
                leg.nrhs,
                leg.ai_two_row,
                leg.ai
            );
            assert!(leg.mem_bound_speedup > 1.0);
        }
        let doc = bench_to_json(&bench);
        validate_solver_bench_json(&doc).unwrap();
        // Rendered → parsed survives the schema check too (what CI does).
        let parsed = Json::parse(&doc.render()).unwrap();
        validate_solver_bench_json(&parsed).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn block_gate_flags_a_throughput_regression() {
        let mut bench = run_solver_bench_with_rhs(4, 1, &[1, 8]).unwrap();
        // This test is about the gate's logic, so it gates fixed
        // throughputs: one measured debug-profile 4^4 iteration per leg is
        // noise. `wilson_report --bench` gates the measured ones in CI.
        bench.block[0].sites_per_sec = 1.0e4;
        bench.block.last_mut().unwrap().sites_per_sec = 2.0e4;
        check_block_throughput(&bench).unwrap();
        // Eight RHS amortising two-row link loads must clear the 1.5×
        // bandwidth-model target over the N=1 full-link leg.
        let eight = bench.block.iter().find(|l| l.nrhs == 8).unwrap();
        assert!(
            eight.mem_bound_speedup >= BLOCK_MEM_BOUND_TARGET,
            "memory-bound model below target: {}",
            eight.mem_bound_speedup
        );
        // Forge regressions: the gate must reject both.
        let forged = bench.clone();
        let one = bench.block[0].sites_per_sec;
        bench.block.last_mut().unwrap().sites_per_sec = one / 2.0;
        assert!(check_block_throughput(&bench)
            .unwrap_err()
            .contains("regressed"));
        let mut bench = forged;
        bench.block.last_mut().unwrap().mem_bound_speedup = 1.2;
        assert!(check_block_throughput(&bench)
            .unwrap_err()
            .contains("memory-bound"));
        // A sweep without both anchors has nothing to gate.
        bench.block.retain(|l| l.nrhs != 8);
        check_block_throughput(&bench).unwrap();
    }

    #[test]
    fn zero_rhs_is_refused() {
        assert!(run_solver_bench_with_rhs(4, 1, &[0]).is_err());
    }

    #[test]
    fn metrics_overhead_is_measured_and_gated() {
        let mut bench = run_solver_bench_with_rhs(4, 2, &[1]).unwrap();
        let p = bench.metrics_overhead;
        assert!(
            p.median > 0.0 && p.median.is_finite(),
            "probe must produce a positive ratio, got {}",
            p.median
        );
        assert!(p.pairs >= METRICS_OVERHEAD_MIN_PAIRS);
        assert!(p.min > 0.0 && p.min <= p.median && p.mad >= 0.0);
        // A forged over-budget ratio must be rejected, a healthy one pass.
        bench.metrics_overhead.median = METRICS_OVERHEAD_LIMIT + 0.03;
        assert!(check_metrics_overhead(&bench)
            .unwrap_err()
            .contains("overhead"));
        bench.metrics_overhead.median = 1.001;
        check_metrics_overhead(&bench).unwrap();
    }

    #[test]
    fn schema_validation_rejects_malformed_documents() {
        let bad = Json::parse(r#"{"schema":"qcd-bench-solver/v2"}"#).unwrap();
        assert!(validate_solver_bench_json(&bad)
            .unwrap_err()
            .contains("schema"));
        let bench = run_solver_bench(4, 1).unwrap();
        let Json::Obj(mut members) = bench_to_json(&bench) else {
            panic!("bench document must be an object");
        };
        members.retain(|(k, _)| k != "fused");
        assert!(validate_solver_bench_json(&Json::Obj(members))
            .unwrap_err()
            .contains("fused"));
        let Json::Obj(mut members) = bench_to_json(&bench) else {
            panic!("bench document must be an object");
        };
        members.retain(|(k, _)| k != "block");
        assert!(validate_solver_bench_json(&Json::Obj(members))
            .unwrap_err()
            .contains("block"));
        let zero_lat = Json::parse(
            r#"{"schema":"qcd-bench-solver/v1","lattice":[4,4,4,0],"vl_bits":512,
                "threads":1,"iterations":1,"backend":"fcmla"}"#,
        )
        .unwrap();
        assert!(validate_solver_bench_json(&zero_lat)
            .unwrap_err()
            .contains("lattice"));
    }

    #[test]
    fn zero_iterations_is_refused() {
        assert!(run_solver_bench(4, 0).is_err());
    }
}
