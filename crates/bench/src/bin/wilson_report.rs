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
//! Usage: `wilson_report [--json <path>] [--checkpoint <path>]
//! [--resume <path>] [--ckpt-every <n>] [--bench <path>] [--bench-l <n>]
//! [--bench-iters <n>] [--rhs <n>] [--deflate] [--precision]
//! [--bench-comms <path>] [--comms-rhs <n>] [--comms-iters <n>]
//! [--metrics <path>]`.
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
//! With `--bench`, times the unfused allocating CG against the fused
//! workspace CG on an `l⁴` demo problem (bit-identical iterates asserted)
//! and writes the validated `qcd-bench-solver/v1` document — the artifact
//! the CI bench-smoke job uploads. The document also carries the batched
//! multi-RHS `M†M` legs (default N ∈ {1,4,8,16}; `--rhs <n>` benchmarks
//! `{1, n}` instead), and the run fails if batching eight right-hand
//! sides is slower than one at a time. Adding `--deflate` thermalizes a
//! short HMC chain, builds a thick-restart Lanczos subspace on `M†M`, and
//! runs the deflated-vs-undeflated N=16 block comparison plus the
//! coarse-grid two-level leg; the run fails unless the deflated batch
//! beats the undeflated one in total iterations AND wall time, and the
//! gated `deflation` section is exported in the document. Adding
//! `--precision` runs the f16-inner vs f32-inner mixed-precision ladder
//! comparison on the same thermalized recipe; the run fails unless both
//! ladders reach the f64 tolerance and the f16-inner leg moves at most
//! 0.6x the f32-inner leg's trace-span bytes per inner iteration, and the
//! gated `precision` section is exported in the document.
//!
//! With `--bench-comms`, runs the multi-rank strong-scaling sweep: the
//! same global problem solved by a distributed block CG at R ∈ {1,2,4}
//! (time-direction decomposition) over a modeled interconnect, reporting
//! sites/s vs R, measured-vs-modeled wire bytes, and the comms/compute
//! overlap efficiency. Residual histories must be bit-identical across
//! rank counts and every multi-rank leg must hide at least half its
//! modeled flight time; the validated `qcd-bench-comms/v1` document is
//! the artifact the CI comms-smoke job gates.
//!
//! With `--hmc`, generates a short pure-gauge ensemble (cold start,
//! `--hmc-therm` thermalization trajectories, `--hmc-traj` measured ones on
//! an `--hmc-l`⁴ lattice), enforces the equilibrium gates — Metropolis
//! acceptance above 0.5 and `⟨exp(-ΔH)⟩ = 1` within 3σ — and writes the
//! validated `qcd-bench-hmc/v1` document the CI hmc-smoke job uploads.
//!
//! With `--metrics <path>`, additionally dumps the observability state —
//! every registered counter/gauge/histogram, the flight-recorder ring, and
//! (for `--hmc`) the per-trajectory sampler time series — as a validated
//! `qcd-metrics/v1` JSONL document.

use bench::comms_bench;
use bench::deflate_bench;
use bench::hmc_bench;
use bench::precision_bench;
use bench::profile;
use bench::solver_bench;
use bench::BENCH_LATTICE;
use grid::prelude::*;
use sve::{OpClass, Opcode};

/// Render, validate, and write the `qcd-metrics/v1` JSONL dump, with the
/// sampler's time-series lines appended when a sampler ran.
fn write_metrics_dump(path: &str, sampler: Option<&qcd_metrics::Sampler>) {
    let mut doc = qcd_metrics::dump_all_jsonl();
    if let Some(s) = sampler {
        doc.push_str(&s.to_jsonl());
    }
    if let Err(e) = qcd_metrics::validate_jsonl(&doc) {
        eprintln!("wilson_report: metrics dump failed validation: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("wilson_report: write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote validated {schema} metrics dump to {path}",
        schema = qcd_metrics::SCHEMA
    );
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
    // The vector length of the timed benchmarks (solver, precision, HMC).
    println!("{}", bench::word_bytes_line(VectorLength::of(512)));
    // Every span close from here on feeds the flight recorder and the
    // `span.<leaf>` histograms.
    qcd_metrics::install_span_observer();

    // A benchmark run is standalone: time the two solver legs, write the
    // validated document, skip the instruction-efficiency sweep.
    if let Some(path) = &report_args.bench {
        let rhs_counts: Vec<usize> = match report_args.rhs {
            Some(n) => vec![1, n],
            None => solver_bench::BLOCK_RHS_COUNTS.to_vec(),
        };
        let mut bench = match solver_bench::run_solver_bench_with_rhs(
            report_args.bench_l,
            report_args.bench_iters,
            &rhs_counts,
        ) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        };
        if report_args.deflate {
            let cfg = deflate_bench::DeflationConfig::default();
            match deflate_bench::run_deflation_bench(&cfg) {
                Ok(d) => bench.deflation = Some(d),
                Err(e) => {
                    eprintln!("wilson_report: deflation benchmark: {e}");
                    std::process::exit(1);
                }
            }
        }
        if report_args.precision {
            let cfg = precision_bench::PrecisionConfig::default();
            match precision_bench::run_precision_bench(&cfg) {
                Ok(p) => bench.precision = Some(p),
                Err(e) => {
                    eprintln!("wilson_report: precision benchmark: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!(
            "SOLVER BENCHMARK — fused workspace CG vs unfused allocating CG\n\
             lattice {:?}, VL{} {}, {} thread(s), {} iterations/leg\n",
            bench.dims, bench.vl_bits, bench.backend, bench.threads, bench.iterations
        );
        println!(
            "{:<10} {:>14} {:>14} {:>10} {:>12}",
            "leg", "wall ms", "sites/s", "GFLOP/s", "sweeps/iter"
        );
        for (name, leg) in [("baseline", &bench.baseline), ("fused", &bench.fused)] {
            println!(
                "{:<10} {:>14.2} {:>14.0} {:>10.3} {:>12.1}",
                name,
                leg.wall_ns as f64 / 1e6,
                leg.sites_per_sec,
                leg.gflops,
                leg.sweeps_per_iter
            );
        }
        println!(
            "\nspeedup: x{:.2} (fused / baseline, sites/s)",
            bench.speedup
        );
        println!(
            "\nBATCHED M†M — one link load per site amortised over N right-hand sides\n\
             {:<6} {:>14} {:>16} {:>10} {:>8} {:>9} {:>9} {:>9} {:>12}",
            "N",
            "wall ms",
            "RHS-sites/s",
            "GFLOP/s",
            "AI",
            "AI 2row",
            "speedup",
            "AI gain",
            "mem-bound x"
        );
        for leg in &bench.block {
            println!(
                "{:<6} {:>14.2} {:>16.0} {:>10.3} {:>8.3} {:>9.3} {:>9.2} {:>9.2} {:>12.3}",
                leg.nrhs,
                leg.wall_ns as f64 / 1e6,
                leg.sites_per_sec,
                leg.gflops,
                leg.ai,
                leg.ai_two_row,
                leg.speedup,
                leg.ai_gain,
                leg.mem_bound_speedup
            );
        }
        println!(
            "(mem-bound x: trace-span bytes per RHS-site, N=1 full links over\n\
             batch-N two-row links — the throughput factor in the\n\
             bandwidth-bound regime the paper targets; wall clock here is\n\
             compute-bound on the scalar SVE functional model.)"
        );
        if let Err(e) = solver_bench::check_block_throughput(&bench) {
            eprintln!("wilson_report: {e}");
            std::process::exit(1);
        }
        let p = bench.metrics_overhead;
        println!(
            "metrics overhead: median x{:.4}, min x{:.4}, MAD {:.4} over {} alternating \
             off/on pairs (flight recorder on / off, N=8 block solve; the median is \
             gated at x{:.2})",
            p.median,
            p.min,
            p.mad,
            p.pairs,
            solver_bench::METRICS_OVERHEAD_LIMIT
        );
        if let Err(e) = solver_bench::check_metrics_overhead(&bench) {
            eprintln!("wilson_report: {e}");
            std::process::exit(1);
        }
        if let Some(d) = &bench.deflation {
            let c = &d.config;
            println!(
                "\nLOW-MODE DEFLATION — thermalized configuration, N={} RHS at tol {:.0e}\n\
                 lattice {:?}, β={} × {} trajectories (plaquette {:.6}), mass {}\n\
                 subspace: {} pairs, basis {}, {} restarts / {} M†M products, \
                 λ ∈ [{:.4}, {:.4}], built in {:.2} s\n",
                c.nrhs,
                c.tol,
                c.dims,
                c.beta,
                c.therm,
                d.plaquette,
                c.mass,
                c.nev,
                c.m,
                d.eig_restarts,
                d.eig_mvps,
                d.lambda_min,
                d.lambda_max,
                d.eig_wall_ns as f64 / 1e9,
            );
            println!("{:<12} {:>12} {:>14}", "leg", "total iters", "wall ms");
            for (name, iters, wall) in [
                ("undeflated", d.undeflated_iters, d.undeflated_wall_ns),
                ("deflated", d.deflated_iters, d.deflated_wall_ns),
            ] {
                println!("{:<12} {:>12} {:>14.2}", name, iters, wall as f64 / 1e6);
            }
            println!(
                "\niteration gain x{:.2}, wall gain x{:.2}; subspace setup amortized \
                 after {:.0} RHS\ncoarse-grid PCG on RHS 0: {} iterations vs {} plain CG",
                d.iter_gain,
                d.wall_gain,
                d.crossover_rhs.ceil(),
                d.coarse_rhs0_iters,
                d.undeflated_rhs0_iters,
            );
            if let Err(e) = deflate_bench::check_deflation_gain(d) {
                eprintln!("wilson_report: deflation gate failed: {e}");
                std::process::exit(1);
            }
            println!(
                "deflation gate passed: deflated batch beats undeflated in total \
                 iterations and wall time"
            );
        }
        if let Some(p) = &bench.precision {
            let c = &p.config;
            println!(
                "\nMIXED-PRECISION LADDER — f16-inner vs f32-inner, reliable updates\n\
                 lattice {:?}, β={} × {} trajectories (plaquette {:.6}), mass {}, tol {:.0e}\n",
                c.dims, c.beta, c.therm, p.plaquette, c.mass, c.tol,
            );
            println!(
                "{:<10} {:>6} {:>9} {:>9} {:>8} {:>9} {:>12} {:>12} {:>11}",
                "leg",
                "outer",
                "f16 iter",
                "f32 iter",
                "rel.upd",
                "fallback",
                "residual",
                "wall ms",
                "bytes/iter"
            );
            for (name, leg) in [("f32-inner", &p.f32_inner), ("f16-inner", &p.f16_inner)] {
                println!(
                    "{:<10} {:>6} {:>9} {:>9} {:>8} {:>9} {:>12.3e} {:>12.2} {:>11.0}",
                    name,
                    leg.outer_rounds,
                    leg.f16_iters,
                    leg.f32_iters,
                    leg.reliable_updates,
                    leg.tier_fallbacks,
                    leg.residual,
                    leg.wall_ns as f64 / 1e6,
                    leg.bytes_per_iter,
                );
            }
            println!(
                "\ninner-sweep byte ratio: x{:.3} (f16-inner / f32-inner, trace-span \
                 bytes per inner iteration; gate x{})",
                p.byte_ratio,
                precision_bench::PRECISION_BYTE_RATIO_LIMIT
            );
            if let Err(e) = precision_bench::check_precision(p) {
                eprintln!("wilson_report: precision gate failed: {e}");
                std::process::exit(1);
            }
            println!(
                "precision gate passed: both ladders reach the f64 tolerance and the \
                 f16-inner leg moves <= 0.6x the bytes per inner iteration"
            );
        }
        match solver_bench::write_validated_bench_json(&bench, path) {
            Ok(()) => println!(
                "wrote validated {schema} document to {path}",
                schema = solver_bench::SOLVER_BENCH_SCHEMA
            ),
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        }
        if let Some(mpath) = &report_args.metrics {
            write_metrics_dump(mpath, None);
        }
        return;
    }

    // A comms scaling run is standalone: sweep the rank counts, enforce
    // the wire-byte and overlap gates, write the validated document.
    if let Some(path) = &report_args.bench_comms {
        let bench = match comms_bench::run_comms_bench(
            comms_bench::COMMS_BENCH_LATTICE,
            &comms_bench::COMMS_RANK_COUNTS,
            report_args.comms_rhs,
            report_args.comms_iters,
        ) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "MULTI-RANK STRONG SCALING — distributed block CG with comms/compute overlap\n\
             global lattice {:?}, VL{} {}, {} thread(s), N={} RHS, {} iterations/RHS\n\
             fabric: {} ns/message latency, {} GB/s per link; lossless two-row wire\n",
            bench.dims,
            bench.vl_bits,
            bench.backend,
            bench.threads,
            bench.nrhs,
            bench.iterations,
            comms_bench::COMMS_NET_LATENCY_NS,
            comms_bench::COMMS_NET_GBYTES_PER_S,
        );
        println!(
            "{:<4} {:<12} {:>10} {:>14} {:>12} {:>12} {:>10} {:>10} {:>9}",
            "R",
            "rank grid",
            "wall ms",
            "RHS-sites/s",
            "wire B meas",
            "wire B model",
            "wait µs",
            "flight µs",
            "overlap"
        );
        for leg in &bench.legs {
            println!(
                "{:<4} {:<12} {:>10.2} {:>14.0} {:>12} {:>12} {:>10.1} {:>10.1} {:>9.3}",
                leg.ranks,
                format!("{:?}", leg.rank_grid),
                leg.wall_ns as f64 / 1e6,
                leg.sites_per_sec,
                leg.wire_bytes_measured,
                leg.wire_bytes_modeled,
                leg.wait_ns as f64 / 1e3,
                leg.flight_ns as f64 / 1e3,
                leg.overlap_eff,
            );
        }
        println!(
            "\n(residual histories bit-identical across rank counts; measured wire\n\
             bytes equal the pinned two-row face model on every leg.)"
        );
        if let Err(e) = comms_bench::check_overlap_efficiency(&bench) {
            eprintln!("wilson_report: {e}");
            std::process::exit(1);
        }
        println!(
            "overlap gate passed: every multi-rank leg hides >= {:.0}% of its modeled\n\
             comms flight time behind the interior sweep",
            comms_bench::OVERLAP_EFF_TARGET * 100.0
        );
        match comms_bench::write_validated_comms_bench_json(&bench, path) {
            Ok(()) => println!(
                "wrote validated {schema} document to {path}",
                schema = comms_bench::COMMS_BENCH_SCHEMA
            ),
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        }
        if let Some(mpath) = &report_args.metrics {
            write_metrics_dump(mpath, None);
        }
        return;
    }

    // An HMC run is standalone: generate the ensemble, enforce the
    // physics gates, write the validated document.
    if let Some(path) = &report_args.hmc {
        let cfg = hmc_bench::HmcBenchConfig {
            l: report_args.hmc_l,
            traj: report_args.hmc_traj,
            therm: report_args.hmc_therm,
            ..hmc_bench::HmcBenchConfig::default()
        };
        // With --metrics, sample the registry once per measured trajectory
        // so the dump carries the plaquette / ΔH time series.
        let mut sampler = report_args
            .metrics
            .as_ref()
            .map(|_| qcd_metrics::Sampler::new(1));
        let bench = match hmc_bench::run_hmc_bench_sampled(cfg, sampler.as_mut()) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "HMC ENSEMBLE GENERATION — pure-gauge Wilson action, Omelyan integrator\n\
             lattice {:?}, VL{} {}, {} thread(s), β={}, {} MD steps × ε={}\n\
             {} thermalization + {} measured trajectories\n",
            bench.dims,
            bench.vl_bits,
            bench.backend,
            bench.threads,
            bench.config.beta,
            bench.config.n_steps,
            bench.config.step_size,
            bench.config.therm,
            bench.config.traj,
        );
        println!(
            "trajectories/s: {:.3}\nforce GFLOP/s:  {:.3}\nacceptance:     {:.3}\n\
             <exp(-dH)>:     {:.4} ± {:.4}\navg plaquette:  {:.6}",
            bench.trajectories_per_sec,
            bench.force_gflops,
            bench.acceptance,
            bench.mean_exp_dh,
            bench.stderr_exp_dh,
            bench.avg_plaquette,
        );
        if let Err(e) = hmc_bench::check_hmc_physics(&bench) {
            eprintln!("wilson_report: physics gate failed: {e}");
            std::process::exit(1);
        }
        println!("physics gates passed: acceptance > 0.5, <exp(-dH)> = 1 within 3 sigma");
        match hmc_bench::write_validated_hmc_bench_json(&bench, path) {
            Ok(()) => println!(
                "wrote validated {schema} document to {path}",
                schema = hmc_bench::HMC_BENCH_SCHEMA
            ),
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        }
        if let Some(mpath) = &report_args.metrics {
            write_metrics_dump(mpath, sampler.as_ref());
        }
        return;
    }

    // Checkpoint/restart runs are standalone: do the solve work, skip the
    // instruction-efficiency sweep.
    if report_args.checkpoint.is_some() || report_args.resume.is_some() {
        if let Some(path) = &report_args.checkpoint {
            match profile::write_interrupted_checkpoint(path, report_args.every) {
                Ok((iters, snapshots, bytes)) => println!(
                    "checkpoint: killed CG after {iters} iterations; {snapshots} snapshot(s) \
                     written, latest at {path} ({bytes} bytes)"
                ),
                Err(e) => {
                    eprintln!("wilson_report: {e}");
                    std::process::exit(1);
                }
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
                Err(e) => {
                    eprintln!("wilson_report: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(mpath) = &report_args.metrics {
            write_metrics_dump(mpath, None);
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
            Err(e) => {
                eprintln!("wilson_report: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(mpath) = &report_args.metrics {
        write_metrics_dump(mpath, None);
    }
}
