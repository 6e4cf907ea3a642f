//! Registry-backed profiles behind the `wilson_report` and
//! `table_inst_counts` binaries.
//!
//! Both binaries drive the instrumented library under [`qcd_trace`] spans,
//! snapshot the global registry, print the rendered profile, and can export
//! the snapshot with `--json <path>`. The JSON document is the
//! self-describing `qcd-trace/v1` schema documented on
//! [`qcd_trace::Snapshot::to_json`]; [`write_validated_json`] refuses to
//! write a document that does not parse back into an identical snapshot.

use armie::listings;
use grid::krylov::{self, CgSpace, Start};
use grid::prelude::*;
use grid::Coor;
use sve::SveCtx;

use crate::interleaved;

/// Paper listing IV-D as an intrinsics kernel, minus the final `ret` the
/// emulator executes: ptrue + 2x ld1d + dup + 2x fcmla + st1d.
pub const FIXED_KERNEL_PREDICTED_INSTS: u64 = 7;

/// FCMLA instructions per vector in listings IV-C/IV-D: one rotation-90 and
/// one rotation-0 per complex multiply.
pub const FCMLA_PER_VECTOR: u64 = 2;

/// Complex elements the VLA kernels process per profile invocation.
pub const MULT_CPLX_ELEMS: usize = 240;

/// Registry path of the ACLE fixed-length FCMLA complex multiply (the
/// intrinsics form of paper listing IV-D).
pub const MULT_CPLX_FIXED_REGION: &str = "mult_cplx/acle_fixed";

/// Registry path of the ACLE VLA FCMLA complex multiply (listing IV-C).
pub const MULT_CPLX_VLA_REGION: &str = "mult_cplx/acle_vla";

/// Predicted dynamic instruction count of the ACLE VLA kernel (listing
/// IV-C) for `n` complex elements: a `dup` prologue plus, per iteration,
/// scalar bookkeeping + whilelt + 2x ld1d + 2x fcmla + st1d + cntd.
pub fn vla_kernel_predicted_insts(vl: VectorLength, n: usize) -> u64 {
    let iters = (2 * n).div_ceil(vl.lanes64()) as u64;
    1 + 8 * iters
}

/// Registry path of one vector-length x backend combination in the Wilson
/// sweep.
pub fn wilson_region(vl: VectorLength, backend: SimdBackend) -> String {
    format!("wilson/{}@{}b", backend.name(), vl.bits())
}

/// Registry path of the hopping-term span the instrumented Dirac operator
/// opens inside one sweep combination.
pub fn wilson_hop_region(vl: VectorLength, backend: SimdBackend) -> String {
    format!("{}/dirac.hop", wilson_region(vl, backend))
}

/// Registry path of the emulated listing IV-D run inside the `mult_cplx`
/// profile (the emulator names its own span after the program).
pub fn armie_fixed_region() -> String {
    format!(
        "mult_cplx/armie.{}",
        listings::mult_cplx_fcmla_fixed_program().name
    )
}

/// Run the Wilson hopping term at every vector length and backend under
/// profiling spans, plus the FCMLA complex-multiply kernels of paper
/// Sections IV-C/IV-D, and return the registry snapshot.
///
/// Region layout: `wilson/<backend>@<bits>b/dirac.hop` for the sweep, and
/// `mult_cplx/{acle_fixed,acle_vla,armie.<listing IV-D>}` for the kernels.
pub fn build_wilson_profile(dims: Coor) -> qcd_trace::Snapshot {
    qcd_trace::reset();
    {
        let _sweep = qcd_trace::span!("wilson");
        for vl in VectorLength::sweep() {
            for backend in SimdBackend::all() {
                let g = Grid::new(dims, vl, backend);
                let d = WilsonDirac::new(random_gauge(g.clone(), 77), 0.2);
                let psi = FermionField::random(g.clone(), 78);
                let name = format!("{}@{}b", backend.name(), vl.bits());
                let _combo = qcd_trace::SpanGuard::enter(&name, None);
                let _ = d.hopping(&psi);
            }
        }
    }
    profile_mult_cplx();
    qcd_trace::snapshot()
}

/// Profile the FCMLA complex-multiply kernels across the vector-length
/// sweep, recording the paper-predicted instruction counts so
/// `percent_of_predicted` validates the listings (100% = the measured
/// opcode stream matches the paper's).
pub fn profile_mult_cplx() {
    let n = MULT_CPLX_ELEMS;
    let xs = interleaved(2 * n, 0.0);
    let ys = interleaved(2 * n, 1.0);
    let _root = qcd_trace::span!("mult_cplx");
    for vl in VectorLength::sweep() {
        let lanes = vl.lanes64();
        let ctx = SveCtx::new(vl);
        {
            // One vector of interleaved complex data: lanes/2 complex
            // multiplies at 6 flops each; two operand vectors in, one out.
            let mut z = vec![0.0; lanes];
            let _s = qcd_trace::span!("acle_fixed", &ctx);
            qcd_trace::record_predicted_insts(FIXED_KERNEL_PREDICTED_INSTS);
            qcd_trace::record_flops(6 * (lanes as u64 / 2));
            qcd_trace::record_bytes(16 * lanes as u64, 8 * lanes as u64);
            sve::acle::mult_cplx_acle_fixed(&ctx, &xs[..lanes], &ys[..lanes], &mut z);
        }
        {
            let mut z = vec![0.0; 2 * n];
            let _s = qcd_trace::span!("acle_vla", &ctx);
            qcd_trace::record_predicted_insts(vla_kernel_predicted_insts(vl, n));
            qcd_trace::record_flops(6 * n as u64);
            qcd_trace::record_bytes(2 * 16 * n as u64, 16 * n as u64);
            sve::acle::mult_cplx_acle_vla(&ctx, n, &xs, &ys, &mut z);
        }
        // The same IV-D kernel as an emulated binary; the emulator opens
        // its own `armie.<name>` span, which nests under `mult_cplx` here.
        let _ = listings::run_mult_cplx_fcmla_fixed(SveCtx::new(vl), &xs[..lanes], &ys[..lanes]);
    }
}

/// Registry path of one listing run in the Section IV profile.
pub fn listing_region(vl: VectorLength, program_name: &str) -> String {
    format!("listings/{}b/armie.{}", vl.bits(), program_name)
}

/// Run the four Section IV listings at every vector length under profiling
/// spans. Returns the per-run results (for the per-listing table) and the
/// registry snapshot (for export).
#[allow(clippy::type_complexity)]
pub fn build_listings_profile(
    n: usize,
) -> (
    Vec<(VectorLength, Vec<(&'static str, listings::ListingRun)>)>,
    qcd_trace::Snapshot,
) {
    qcd_trace::reset();
    let x = interleaved(2 * n, 0.0);
    let y = interleaved(2 * n, 1.0);
    let mut all = Vec::new();
    {
        let _root = qcd_trace::span!("listings");
        for vl in VectorLength::sweep() {
            let lanes = vl.lanes64();
            let _per_vl = qcd_trace::SpanGuard::enter(&format!("{}b", vl.bits()), None);
            let runs = vec![
                (
                    "IV-A real VLA",
                    listings::run_mult_real(SveCtx::new(vl), &x, &y),
                ),
                (
                    "IV-B cplx autovec",
                    listings::run_mult_cplx_autovec(SveCtx::new(vl), &x, &y),
                ),
                (
                    "IV-C cplx FCMLA VLA",
                    listings::run_mult_cplx_fcmla_vla(SveCtx::new(vl), &x, &y),
                ),
                (
                    "IV-D cplx FCMLA fixed",
                    listings::run_mult_cplx_fcmla_fixed(SveCtx::new(vl), &x[..lanes], &y[..lanes]),
                ),
            ];
            all.push((vl, runs));
        }
    }
    (all, qcd_trace::snapshot())
}

/// Parse `--json <path>` out of a raw argument list. Returns
/// `Ok(Some(path))` when present, `Ok(None)` when absent, and an error for
/// a dangling `--json` or an unrecognised argument.
pub fn parse_json_arg(args: &[String]) -> Result<Option<String>, String> {
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => return Err("--json requires a path argument".into()),
            },
            other => {
                return Err(format!(
                    "unrecognised argument `{other}` (expected --json <path>)"
                ))
            }
        }
    }
    Ok(out)
}

/// Which document `wilson_report --bench <kind> <path>` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// `qcd-bench-solver/v2`: block legs, deflation, precision.
    Solver,
    /// `qcd-bench-hmc/v2`: the seeded pure-gauge chain.
    Hmc,
    /// `qcd-bench-comms/v2`: the multi-rank sweep.
    Comms,
    /// `qcd-bench-farm/v2`: request coalescing.
    Farm,
}

/// Parsed command line of `wilson_report`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReportArgs {
    /// `--json <path>`: export the profile snapshot.
    pub json: Option<String>,
    /// `--metrics <path>`: dump the `qcd-metrics/v1` JSONL document —
    /// every registered metric, the flight-recorder ring, and (for
    /// `--bench hmc`) the per-trajectory sampler series — after the run.
    pub metrics: Option<String>,
    /// `--checkpoint <path>`: run the interrupted checkpointed solve demo,
    /// leaving a mid-solve snapshot at the path.
    pub checkpoint: Option<String>,
    /// `--resume <path>`: restore a snapshot and finish the solve,
    /// verifying bit-equivalence against the uninterrupted run.
    pub resume: Option<String>,
    /// `--bench <kind> <path>`: run one benchmark at its CI recipe, write
    /// its document to the path, then enforce its gates.
    pub bench: Option<(BenchKind, String)>,
}

/// The usage line of `wilson_report`: every option there is.
pub const REPORT_USAGE: &str = "usage: wilson_report [--json <path>] [--metrics <path>] \
     [--checkpoint <path>] [--resume <path>] [--bench <solver|hmc|comms|farm> <path>]";

/// Parse the `wilson_report` command line ([`REPORT_USAGE`]). Benchmark
/// sizes are not options: a document of any other shape is a hard
/// mismatch against the committed baseline.
pub fn parse_report_args(args: &[String]) -> Result<ReportArgs, String> {
    let mut out = ReportArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a {what}\n{REPORT_USAGE}"))
        };
        match arg.as_str() {
            "--json" => out.json = Some(value("path")?),
            "--metrics" => out.metrics = Some(value("path")?),
            "--checkpoint" => out.checkpoint = Some(value("path")?),
            "--resume" => out.resume = Some(value("path")?),
            "--bench" => {
                let kind = match value("kind")?.as_str() {
                    "solver" => BenchKind::Solver,
                    "hmc" => BenchKind::Hmc,
                    "comms" => BenchKind::Comms,
                    "farm" => BenchKind::Farm,
                    other => {
                        return Err(format!("unknown benchmark `{other}`\n{REPORT_USAGE}"));
                    }
                };
                out.bench = Some((kind, value("path")?));
            }
            other => return Err(format!("unrecognised argument `{other}`\n{REPORT_USAGE}")),
        }
    }
    Ok(out)
}

/// Lattice, operator and right-hand side of the checkpoint/resume demo —
/// fixed seeds, so the interrupted and resumed runs are comparable across
/// separate process invocations.
fn checkpoint_demo_problem() -> (WilsonDirac<f64>, FermionField) {
    let g = Grid::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
    let u = random_gauge(g.clone(), 77);
    let b = FermionField::random(g.clone(), 78);
    (WilsonDirac::new(u, 0.2), b)
}

/// Checkpoint interval of the demo solve, in CG iterations.
pub const CHECKPOINT_DEMO_EVERY: usize = 5;
/// Iteration budget at which the "interrupted" solve is killed.
pub const CHECKPOINT_DEMO_KILL_AT: usize = 12;
/// Relative tolerance of the demo solve.
pub const CHECKPOINT_DEMO_TOL: f64 = 1e-10;
/// Full iteration budget of the resumed solve.
pub const CHECKPOINT_DEMO_MAX_ITER: usize = 500;

/// The demo solve: `cg` made durable — its fused space (`space`), another
/// start and a checkpoint observer.
fn checkpoint_demo_solve(
    space: &mut impl CgSpace<V = FermionField>,
    b: &FermionField,
    start: Start<FermionField>,
    max_iter: usize,
    checkpointer: &mut qcd_io::Checkpointer,
) -> (FermionField, SolveReport) {
    krylov::cg_solve(
        space,
        b,
        start,
        CHECKPOINT_DEMO_TOL,
        max_iter,
        qcd_trace::span!("solver.cg", b.grid().engine().ctx()),
        "solver.cg",
        checkpointer.observer(),
    )
}

/// Run a checkpointed CG solve on the demo problem and kill it after
/// [`CHECKPOINT_DEMO_KILL_AT`] iterations, leaving the latest snapshot at
/// `path`. Returns `(iterations run, snapshots written, bytes on disk)`.
pub fn write_interrupted_checkpoint(path: &str) -> Result<(usize, usize, u64), String> {
    let (op, b) = checkpoint_demo_problem();
    let mut checkpointer =
        qcd_io::Checkpointer::every(CHECKPOINT_DEMO_EVERY, std::path::Path::new(path));
    let (_, report) = checkpoint_demo_solve(
        &mut op.normal(&mut FermionField::zero(b.grid().clone())),
        &b,
        Start::Zero,
        CHECKPOINT_DEMO_KILL_AT,
        &mut checkpointer,
    );
    let snapshots = checkpointer
        .finish()
        .map_err(|e| format!("checkpoint demo: {e}"))?;
    if snapshots == 0 {
        return Err(format!(
            "interval {CHECKPOINT_DEMO_EVERY} wrote no snapshot within \
             {CHECKPOINT_DEMO_KILL_AT} iterations"
        ));
    }
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("stat {path}: {e}"))?
        .len();
    Ok((report.iterations, snapshots, bytes))
}

/// Resume the demo solve from the snapshot at `path`, run it to
/// convergence, and verify the result is bit-identical to the
/// uninterrupted solve. Returns `(resumed-from iteration, final report)`.
pub fn resume_from_checkpoint(path: &str) -> Result<(usize, SolveReport), String> {
    let (op, b) = checkpoint_demo_problem();
    let path = std::path::Path::new(path);
    let mut tmp = FermionField::zero(b.grid().clone());
    let mut space = op.normal(&mut tmp);
    let start = qcd_io::resume(&b, path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let resumed_from = match &start {
        Start::State(state) => state.iterations[0],
        _ => 0,
    };
    let mut checkpointer = qcd_io::Checkpointer::every(CHECKPOINT_DEMO_MAX_ITER, path);
    let (x, report) = checkpoint_demo_solve(
        &mut space,
        &b,
        start,
        CHECKPOINT_DEMO_MAX_ITER,
        &mut checkpointer,
    );
    checkpointer.finish().map_err(|e| format!("resume: {e}"))?;

    // Bit-equivalence against the uninterrupted in-process reference.
    let (x_ref, ref_report) = cg(&op, &b, CHECKPOINT_DEMO_TOL, CHECKPOINT_DEMO_MAX_ITER);
    if report.residual.to_bits() != ref_report.residual.to_bits()
        || x.max_abs_diff(&x_ref) != 0.0
        || report.iterations != ref_report.iterations
    {
        return Err(format!(
            "resumed solve diverged from the uninterrupted run: {} iters / residual {} vs {} iters / residual {}",
            report.iterations, report.residual, ref_report.iterations, ref_report.residual
        ));
    }
    Ok((resumed_from, report))
}

/// Render `snap` as a `qcd-trace/v1` document, validate it by parsing it
/// back into an identical snapshot, then write it to `path`. An invalid
/// document is an error, not an artifact.
pub fn write_validated_json(snap: &qcd_trace::Snapshot, path: &str) -> Result<(), String> {
    let doc = snap.to_json().render();
    let parsed = qcd_trace::Json::parse(&doc)
        .map_err(|e| format!("emitted JSON does not parse: {} at byte {}", e.msg, e.at))?;
    let back = qcd_trace::Snapshot::from_json(&parsed)
        .map_err(|e| format!("emitted JSON fails schema validation: {}", e.msg))?;
    if &back != snap {
        return Err("JSON round-trip did not reproduce the snapshot".into());
    }
    std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sve::Opcode;

    #[test]
    fn fcmla_regions_match_paper_listings() {
        // ISSUE acceptance: the FCMLA-backend complex-multiply regions must
        // reproduce the instruction counts of paper listings IV-C/IV-D.
        let _guard = qcd_trace::global_test_lock();
        qcd_trace::reset();
        profile_mult_cplx();
        let snap = qcd_trace::snapshot();

        // Listing IV-D (intrinsics): exactly 7 instructions per invocation
        // — ptrue + 2 ld1d + dup + 2 fcmla + st1d — at every vector length.
        let fixed = snap.region(MULT_CPLX_FIXED_REGION).unwrap();
        assert_eq!(fixed.count, 5, "one invocation per swept vector length");
        assert_eq!(
            fixed.total_insts(),
            fixed.count * FIXED_KERNEL_PREDICTED_INSTS
        );
        assert_eq!(
            fixed.insts_for(Opcode::Fcmla),
            fixed.count * FCMLA_PER_VECTOR
        );
        assert_eq!(fixed.percent_of_predicted(), Some(100.0));

        // Listing IV-C (VLA loop): dup prologue + 7 instructions per
        // iteration, iterations = ceil(2n / lanes) per vector length.
        let vla = snap.region(MULT_CPLX_VLA_REGION).unwrap();
        assert_eq!(vla.percent_of_predicted(), Some(100.0));
        let expected: u64 = VectorLength::sweep()
            .iter()
            .map(|&vl| vla_kernel_predicted_insts(vl, MULT_CPLX_ELEMS))
            .sum();
        assert_eq!(vla.total_insts(), expected);

        // Listing IV-D under the emulator: the same seven instructions plus
        // the `ret` the machine executes, and the same opcode mix.
        let armie = snap.region(&armie_fixed_region()).unwrap();
        assert_eq!(armie.count, 5);
        assert_eq!(
            armie.insts_for(Opcode::Fcmla),
            armie.count * FCMLA_PER_VECTOR
        );
        for (op, per_run) in [
            (Opcode::Ptrue, 1),
            (Opcode::Ld1, 2),
            (Opcode::Dup, 1),
            (Opcode::St1, 1),
        ] {
            assert_eq!(
                armie.insts_for(op),
                armie.count * per_run,
                "listing IV-D opcode mix: {}",
                op.mnemonic()
            );
        }
    }

    #[test]
    fn wilson_profile_nests_and_nested_times_fit_parents() {
        let _guard = qcd_trace::global_test_lock();
        let snap = build_wilson_profile([4, 4, 4, 4]);

        // Every sweep combination produced an instrumented hopping region
        // with sites/flops accounting attached.
        let sites = 4u64 * 4 * 4 * 4;
        for vl in VectorLength::sweep() {
            for backend in SimdBackend::all() {
                let hop = snap.region(&wilson_hop_region(vl, backend)).unwrap();
                assert_eq!(hop.count, 1);
                assert_eq!(hop.sites, sites);
                assert_eq!(hop.flops, sites * 1320);
                assert!(hop.total_insts() > 0, "{vl} {} counted", backend.name());
            }
        }

        // ISSUE acceptance: nested region times sum to <= the parent time,
        // for every parent in the snapshot.
        for (path, stat) in &snap.regions {
            let child_sum: u64 = snap.children(path).iter().map(|(_, c)| c.wall_ns).sum();
            assert!(
                child_sum <= stat.wall_ns,
                "children of `{path}` ({child_sum} ns) exceed parent ({} ns)",
                stat.wall_ns
            );
            assert!(
                stat.child_ns <= stat.wall_ns,
                "`{path}` self time underflow"
            );
        }

        // The sweep exports cleanly through the schema round-trip.
        let doc = snap.to_json().render();
        let back = qcd_trace::Snapshot::from_json(&qcd_trace::Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn listings_profile_matches_run_reports() {
        let _guard = qcd_trace::global_test_lock();
        let (all, snap) = build_listings_profile(24);
        // Region totals equal the per-run counter totals the old table used.
        for (vl, runs) in &all {
            for (label, run) in runs {
                let program_name = match *label {
                    "IV-A real VLA" => listings::mult_real_program().name,
                    "IV-B cplx autovec" => listings::mult_cplx_autovec_program().name,
                    "IV-C cplx FCMLA VLA" => listings::mult_cplx_fcmla_vla_program().name,
                    _ => listings::mult_cplx_fcmla_fixed_program().name,
                };
                let stat = snap.region(&listing_region(*vl, &program_name)).unwrap();
                assert_eq!(stat.total_insts(), run.machine.ctx.counters().total());
            }
        }
    }

    #[test]
    fn report_args_are_five_options_and_an_old_flag_is_a_usage_error() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_report_args(&args)
        };
        assert_eq!(parse("").unwrap(), ReportArgs::default());
        let all = parse(
            "--json p.json --metrics m.jsonl --checkpoint c.qio --resume r.qio --bench comms b.json",
        )
        .unwrap();
        assert_eq!(all.json.as_deref(), Some("p.json"));
        assert_eq!(all.metrics.as_deref(), Some("m.jsonl"));
        assert_eq!(all.checkpoint.as_deref(), Some("c.qio"));
        assert_eq!(all.resume.as_deref(), Some("r.qio"));
        assert_eq!(all.bench, Some((BenchKind::Comms, "b.json".into())));
        for (kind, name) in [
            (BenchKind::Solver, "solver"),
            (BenchKind::Hmc, "hmc"),
            (BenchKind::Farm, "farm"),
        ] {
            let parsed = parse(&format!("--bench {name} x")).unwrap();
            assert_eq!(parsed.bench, Some((kind, "x".into())));
        }
        // A flag that is not one of the five is an error with the usage
        // line, not ignored: every size flag there once was.
        let old = "--bench-l --bench-iters --rhs --deflate --precision --hmc --hmc-l --hmc-traj \
                   --hmc-therm --bench-comms --comms-rhs --comms-iters --ckpt-every";
        for flag in old.split_whitespace() {
            let e = parse(&format!("{flag} 8")).unwrap_err();
            assert!(e.contains(flag) && e.contains(REPORT_USAGE), "{e}");
        }
        // So are the old one-value `--bench <path>` and a dangling value.
        for bad in [
            "--bench BENCH_solver.json",
            "--bench solver",
            "--bench",
            "--json",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains(REPORT_USAGE), "{bad}: {e}");
        }
    }

    #[test]
    fn json_arg_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_json_arg(&args(&[])).unwrap(), None);
        assert_eq!(
            parse_json_arg(&args(&["--json", "out.json"])).unwrap(),
            Some("out.json".into())
        );
        assert!(parse_json_arg(&args(&["--json"])).is_err());
        assert!(parse_json_arg(&args(&["--frobnicate"])).is_err());
    }
}
