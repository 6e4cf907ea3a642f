//! The headline-claim report: "the SVE ISA allows for an efficient
//! implementation of key computational patterns used in LQCD applications"
//! (paper, contribution 3).
//!
//! Built on the `qcd-trace` region registry: one profiled sweep of the
//! Wilson hopping term over every vector length and backend, plus the
//! FCMLA complex-multiply kernels of Sections IV-C/IV-D with their
//! paper-predicted instruction counts. Prints per-region efficiency
//! numbers, the VL-scaling of the FCMLA backend, and the full region
//! profile.
//!
//! Usage: `wilson_report [--json <path>] [--metrics <path>]
//! [--checkpoint <path>] [--resume <path>]
//! [--bench <solver|hmc|comms|farm> <path>]`.
//!
//! With `--json`, additionally writes the registry snapshot as a
//! `qcd-trace/v1` document (schema documented on
//! `qcd_trace::Snapshot::to_json`), validated by a parse-back round-trip
//! before anything touches disk.
//!
//! With `--checkpoint`, runs a CG solve on a fixed demo problem, kills it
//! after a few iterations, and leaves the latest `qcd-io` snapshot at the
//! path. A later invocation with `--resume` restores that snapshot,
//! finishes the solve, and verifies the result is bit-identical to an
//! uninterrupted run — the kill-and-resume smoke test CI executes.
//!
//! With `--bench <kind> <path>`, runs one benchmark at its CI recipe (the
//! sizes are not options: any other shape is a hard mismatch against the
//! committed baseline), prints the document as text, writes it to the path
//! and then enforces its gates — after the write, so a red gate still
//! leaves the artifact `bench_diff` compares (DESIGN.md "Bench documents"):
//!
//! - `solver` — batched multi-RHS `M†M` byte model at N ∈ {1,4,8,16}, and
//!   on one thermalized 4⁴ configuration the deflated-vs-undeflated N=16
//!   block solve, the coarse-grid leg and the f16-inner vs f32-inner
//!   ladder. Gates: N=8 `mem_bound_speedup` ≥ 1.5; deflated < undeflated
//!   iterations; coarse < plain iterations on RHS 0; both ladders ≤ tol;
//!   `byte_ratio` ≤ 0.6.
//! - `hmc` — a short 8⁴ pure-gauge chain. Gate: acceptance > 0.5,
//!   `⟨exp(-ΔH)⟩ = 1` within 3σ, plaquette in (0, 1).
//! - `comms` — the same global problem solved by a distributed block CG
//!   at R ∈ {1,2,4} over a modeled interconnect. Gates: measured = modeled
//!   wire bytes; every multi-rank leg hides ≥ 50 % of its flight time.
//! - `farm` — 16 solve requests dispatched at widths 1/4/8/16. Gate:
//!   `coalesce_gain` ≥ 1.3.
//!
//! No wall-clock number enters a document: timing is stackbench's
//! (`benchmark/`). The elapsed seconds of the run are printed for the log.
//!
//! With `--metrics <path>`, additionally dumps the observability state —
//! every registered counter/gauge/histogram, the flight-recorder ring (for
//! `--bench hmc` it holds one `hmc.trajectory` event per trajectory) and the
//! last span closes — as a validated `qcd-metrics/v1` JSONL document.

use bench::profile::{self, BenchKind};
use bench::{comms_bench, doc, farm_bench, hmc_bench, solver_bench, BENCH_LATTICE};
use grid::prelude::*;
use sve::{OpClass, Opcode};

/// Render, validate, and write the `qcd-metrics/v1` JSONL dump.
fn write_metrics_dump(path: &str) {
    let doc = qcd_trace::dump_all_jsonl();
    if let Err(e) = qcd_trace::validate_jsonl(&doc) {
        fail(&format!("metrics dump failed validation: {e}"));
    }
    if let Err(e) = std::fs::write(path, &doc) {
        fail(&format!("write {path}: {e}"));
    }
    println!(
        "wrote validated {schema} metrics dump to {path}",
        schema = qcd_trace::METRICS_SCHEMA
    );
}

/// The gates of one document kind.
type Gate = fn(&qcd_trace::Json) -> Result<(), String>;

fn fail(msg: &str) -> ! {
    eprintln!("wilson_report: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report_args = match profile::parse_report_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("wilson_report: {e}");
            std::process::exit(2);
        }
    };
    let json_path = report_args.json.clone();
    println!("host lanes: {}", sve::host_lanes());
    // The vector length of the benchmarks (solver, precision, HMC).
    println!("{}", bench::word_bytes_line(VectorLength::of(512)));
    // In a run that will dump them, every span close from here on feeds
    // the span ring and the `span.<leaf>` histograms.
    qcd_trace::set_span_events(report_args.metrics.is_some());

    // A benchmark run is standalone: build the document, print it, write
    // it, then hold it to its gates.
    if let Some((kind, path)) = &report_args.bench {
        let t0 = std::time::Instant::now();
        let (built, gate): (_, Gate) = match kind {
            BenchKind::Solver => (solver_bench::run_solver_bench(), solver_bench::check),
            BenchKind::Hmc => (
                hmc_bench::run_hmc_bench(hmc_bench::HmcBenchConfig::default()),
                hmc_bench::check,
            ),
            BenchKind::Comms => (
                comms_bench::run_comms_bench(
                    comms_bench::COMMS_BENCH_LATTICE,
                    &comms_bench::COMMS_RANK_COUNTS,
                    8, // right-hand sides
                    6, // CG iterations per right-hand side, far from convergence
                ),
                comms_bench::check,
            ),
            // 16 requests on the farm's default 4⁴ grid, 4 CG iterations a probe
            BenchKind::Farm => (farm_bench::run_farm_bench([4; 4], 16, 4), farm_bench::check),
        };
        let document = built.unwrap_or_else(|e| fail(&e));
        print!("{}", doc::render(&document));
        println!(
            "elapsed: {:.1} s (for the log; wall clock is stackbench's, no document holds any)",
            t0.elapsed().as_secs_f64()
        );
        if let Err(e) = doc::write(&document, path) {
            fail(&e);
        }
        println!("wrote {path}");
        if let Some(mpath) = &report_args.metrics {
            write_metrics_dump(mpath);
        }
        if let Err(e) = gate(&document) {
            fail(&format!("gate failed: {e}"));
        }
        println!("gates passed");
        return;
    }

    // Checkpoint/restart runs are standalone: do the solve work, skip the
    // instruction-efficiency sweep.
    if report_args.checkpoint.is_some() || report_args.resume.is_some() {
        if let Some(path) = &report_args.checkpoint {
            match profile::write_interrupted_checkpoint(path) {
                Ok((iters, snapshots, bytes)) => println!(
                    "checkpoint: killed CG after {iters} iterations; {snapshots} snapshot(s) \
                     written, latest at {path} ({bytes} bytes)"
                ),
                Err(e) => fail(&e),
            }
        }
        if let Some(path) = &report_args.resume {
            match profile::resume_from_checkpoint(path) {
                Ok((from, report)) => println!(
                    "resume: restored iteration {from} from {path}; converged after \
                     {} total iterations, residual {:.3e} — bit-identical to the \
                     uninterrupted solve",
                    report.iterations, report.residual
                ),
                Err(e) => fail(&e),
            }
        }
        if let Some(mpath) = &report_args.metrics {
            write_metrics_dump(mpath);
        }
        return;
    }

    let snap = profile::build_wilson_profile(BENCH_LATTICE);

    println!(
        "WILSON HOPPING TERM — INSTRUCTION EFFICIENCY ACROSS VECTOR LENGTHS\n\
         lattice {:?}, {} sites\n",
        BENCH_LATTICE,
        BENCH_LATTICE.iter().product::<usize>()
    );
    println!(
        "{:<10} {:<11} {:>11} {:>12} {:>10} {:>12} {:>10}",
        "VL", "backend", "insts/site", "flops/inst", "fcmla/site", "perm/site", "AI f/B"
    );
    let mut base: Option<f64> = None;
    for vl in VectorLength::sweep() {
        for backend in SimdBackend::all() {
            let hop = snap
                .region(&profile::wilson_hop_region(vl, backend))
                .expect("profiled hopping region");
            let sites = hop.sites as f64;
            let per_site = hop.total_insts() as f64 / sites;
            let perm: u64 = Opcode::ALL
                .iter()
                .filter(|op| op.class() == OpClass::Permute)
                .map(|&op| hop.insts_for(op))
                .sum();
            println!(
                "{:<10} {:<11} {:>11.1} {:>12.2} {:>10.1} {:>12.2} {:>10.2}",
                format!("{vl}"),
                backend.name(),
                per_site,
                hop.flops as f64 / hop.total_insts() as f64,
                hop.insts_for(Opcode::Fcmla) as f64 / sites,
                perm as f64 / sites,
                hop.arithmetic_intensity().unwrap_or(0.0),
            );
            if backend == SimdBackend::Fcmla && vl == VectorLength::of(128) {
                base = Some(per_site);
            }
        }
        println!();
    }

    if let Some(b128) = base {
        println!("instruction-count scaling of the FCMLA backend vs VL128:");
        for vl in VectorLength::sweep() {
            let hop = snap
                .region(&profile::wilson_hop_region(vl, SimdBackend::Fcmla))
                .expect("profiled hopping region");
            let per_site = hop.total_insts() as f64 / hop.sites as f64;
            println!(
                "  {:<10} {:>8.1} insts/site   speedup x{:.2} (ideal x{:.0})",
                format!("{vl}"),
                per_site,
                b128 / per_site,
                vl.bits() as f64 / 128.0
            );
        }
        println!(
            "\n(Scaling falls slightly short of ideal at the widest vectors:\n\
             more virtual nodes mean more stencil legs crossing block\n\
             boundaries, i.e. more lane permutations — the cost the\n\
             virtual-node layout keeps sub-linear.)"
        );
    }

    println!("\nFCMLA COMPLEX MULTIPLY — MEASURED VS PAPER LISTINGS IV-C/IV-D\n");
    println!(
        "{:<46} {:>6} {:>8} {:>7} {:>8}",
        "region", "runs", "insts", "fcmla", "% pred"
    );
    for path in [
        profile::MULT_CPLX_FIXED_REGION.to_string(),
        profile::MULT_CPLX_VLA_REGION.to_string(),
        profile::armie_fixed_region(),
    ] {
        let stat = snap.region(&path).expect("profiled mult_cplx region");
        println!(
            "{:<46} {:>6} {:>8} {:>7} {:>8}",
            path,
            stat.count,
            stat.total_insts(),
            stat.insts_for(Opcode::Fcmla),
            stat.percent_of_predicted()
                .map(|p| format!("{p:.0}%"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    println!("\nFULL REGION PROFILE\n");
    println!("{}", qcd_trace::render_table(&snap));

    if let Some(path) = json_path {
        match profile::write_validated_json(&snap, &path) {
            Ok(()) => println!("wrote validated qcd-trace/v1 profile to {path}"),
            Err(e) => fail(&e),
        }
    }
    if let Some(mpath) = &report_args.metrics {
        write_metrics_dump(mpath);
    }
}
