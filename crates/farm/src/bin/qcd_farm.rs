//! `qcd_farm` — run the job farm as a service process.
//!
//! The binary wraps [`qcd_farm::Farm`] behind flags. A fresh start submits
//! the requested job mix; a restart on an existing `--dir` submits nothing
//! new for names that already exist and instead resumes them from their
//! checkpoints (the crash-recovery path CI exercises with `kill -9`).
//!
//! ```text
//! qcd_farm --dir farm-state [--workers 2] [--l 4] [--vl 256]
//!          [--seed 1] [--hmc-streams 2] [--traj 4] [--chunk 1]
//!          [--beta 5.6] [--steps 6] [--solves 8] [--tol 1e-6]
//!          [--max-units N] [--stop-file PATH] [--http ADDR]
//!          [--status-json PATH|-] [--metrics PATH]
//! qcd_farm --dir A --verify-against B
//! ```
//!
//! * `--stop-file PATH` — a poller thread watches for the file and raises
//!   a graceful stop (checkpoint at the next trajectory boundary).
//! * `--http ADDR` — serve the validated `qcd-farm/v1` status document on
//!   `GET /status` while the farm runs.
//! * `--status-json PATH` — write the final validated status document
//!   (`-` for stdout).
//! * `--metrics PATH` — dump the validated `qcd-metrics/v1` JSONL
//!   (counters, histograms with the `span.*` wall times, flight-recorder
//!   ring with the `farm.*` events, the last span closes).
//! * `--verify-against B` — byte-compare durable results of `--dir`
//!   against farm directory `B` and exit non-zero on any difference.

use grid::prelude::*;
use qcd_farm::{
    render_validated_status, verify_dirs, Farm, FarmConfig, HmcStreamSpec, JobSpec, Priority,
    SolveSpec,
};
use qcd_hmc::{HmcParams, IntegratorKind};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

struct Args {
    dir: PathBuf,
    workers: usize,
    l: usize,
    vl: usize,
    seed: u64,
    hmc_streams: usize,
    traj: u64,
    chunk: u64,
    beta: f64,
    steps: usize,
    solves: usize,
    tol: f64,
    max_units: Option<u64>,
    stop_file: Option<PathBuf>,
    http: Option<String>,
    status_json: Option<String>,
    metrics: Option<String>,
    verify_against: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            dir: PathBuf::from("farm-state"),
            workers: 2,
            l: 4,
            vl: 256,
            seed: 1,
            hmc_streams: 2,
            traj: 4,
            chunk: 1,
            beta: 5.6,
            steps: 6,
            solves: 8,
            tol: 1e-6,
            max_units: None,
            stop_file: None,
            http: None,
            status_json: None,
            metrics: None,
            verify_against: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs a {what}"))
        };
        match flag.as_str() {
            "--dir" => out.dir = PathBuf::from(value("path")?),
            "--workers" => out.workers = value("count")?.parse().map_err(|e| format!("{e}"))?,
            "--l" => out.l = value("extent")?.parse().map_err(|e| format!("{e}"))?,
            "--vl" => out.vl = value("bits")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => out.seed = value("seed")?.parse().map_err(|e| format!("{e}"))?,
            "--hmc-streams" => {
                out.hmc_streams = value("count")?.parse().map_err(|e| format!("{e}"))?
            }
            "--traj" => out.traj = value("count")?.parse().map_err(|e| format!("{e}"))?,
            "--chunk" => out.chunk = value("count")?.parse().map_err(|e| format!("{e}"))?,
            "--beta" => out.beta = value("beta")?.parse().map_err(|e| format!("{e}"))?,
            "--steps" => out.steps = value("count")?.parse().map_err(|e| format!("{e}"))?,
            "--solves" => out.solves = value("count")?.parse().map_err(|e| format!("{e}"))?,
            "--tol" => out.tol = value("tolerance")?.parse().map_err(|e| format!("{e}"))?,
            "--max-units" => {
                out.max_units = Some(value("count")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--stop-file" => out.stop_file = Some(PathBuf::from(value("path")?)),
            "--http" => out.http = Some(value("address")?.clone()),
            "--status-json" => out.status_json = Some(value("path")?.clone()),
            "--metrics" => out.metrics = Some(value("path")?.clone()),
            "--verify-against" => out.verify_against = Some(PathBuf::from(value("path")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

fn fail(msg: &str) -> ! {
    eprintln!("qcd_farm: {msg}");
    std::process::exit(1);
}

/// Submit the requested job mix, skipping names the directory already
/// holds (the restart path: those jobs were recovered by `Farm::open`).
fn submit_mix(farm: &Farm, args: &Args) {
    let existing: Vec<String> = farm.job_views().into_iter().map(|j| j.name).collect();
    for s in 0..args.hmc_streams {
        let name = format!("stream-{s}");
        if existing.contains(&name) {
            continue;
        }
        let spec = JobSpec::Hmc(HmcStreamSpec {
            name,
            priority: Priority::Low,
            seed: args.seed + s as u64,
            params: HmcParams {
                beta: args.beta,
                n_steps: args.steps,
                step_size: 0.5 / args.steps as f64,
                integrator: IntegratorKind::Omelyan,
            },
            trajectories: args.traj,
            chunk: args.chunk,
        });
        if let Err(e) = farm.submit(spec) {
            fail(&format!("submit stream-{s}: {e}"));
        }
    }
    if args.solves > 0 && !existing.contains(&"burst-0".to_string()) {
        let spec = JobSpec::Solve(SolveSpec {
            name: "burst-0".into(),
            priority: Priority::High,
            gauge_seed: args.seed + 1000,
            mass: 0.2,
            rhs_seeds: (0..args.solves as u64)
                .map(|i| args.seed + 2000 + i)
                .collect(),
            tol: args.tol,
            max_iter: 4000,
            subspace: None,
        });
        if let Err(e) = farm.submit(spec) {
            fail(&format!("submit burst-0: {e}"));
        }
    }
}

/// Serve `GET /status` (any request path gets the status document) until
/// `done` is raised. Minimal single-threaded HTTP/1.1, std only.
fn serve_status(addr: &str, farm: &Farm, done: &AtomicBool) {
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("qcd_farm: bind {addr}: {e}");
            return;
        }
    };
    listener.set_nonblocking(true).ok();
    println!("status endpoint on http://{addr}/status");
    while !done.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).ok();
                stream
                    .set_read_timeout(Some(Duration::from_millis(200)))
                    .ok();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let (code, body) = match render_validated_status(farm) {
                    Ok(doc) => ("200 OK", doc),
                    Err(e) => ("500 Internal Server Error", format!("{{\"error\":{e:?}}}")),
                };
                let _ = write!(
                    stream,
                    "HTTP/1.1 {code}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("qcd_farm: accept: {e}");
                return;
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qcd_farm: {e}");
            std::process::exit(2);
        }
    };
    // A run that will dump them records its span closes; they have a ring
    // of their own, so however many a service run emits, the farm.* events
    // (recovery, scheduling, batching) a postmortem dump is for stay.
    qcd_trace::set_span_events(args.metrics.is_some());
    let cfg = FarmConfig {
        dims: [args.l; 4],
        vl_bits: args.vl,
        backend: SimdBackend::Fcmla,
    };

    if let Some(other) = &args.verify_against {
        match verify_dirs(&args.dir, other) {
            Ok(()) => {
                println!(
                    "{} and {} hold byte-identical results",
                    args.dir.display(),
                    other.display()
                );
                return;
            }
            Err(e) => fail(&e),
        }
    }

    let farm = match Farm::open(&args.dir, cfg) {
        Ok(f) => f,
        Err(e) => fail(&format!("open {}: {e}", args.dir.display())),
    };
    submit_mix(&farm, &args);
    println!(
        "farm `{}`: {} jobs, {} workers",
        args.dir.display(),
        farm.job_views().len(),
        args.workers
    );

    let stop = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        if let Some(path) = &args.stop_file {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    if path.exists() {
                        println!("stop file {} seen; draining at checkpoints", path.display());
                        farm.request_stop(&stop);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            });
        }
        if let Some(addr) = &args.http {
            scope.spawn(|| serve_status(addr, &farm, &done));
        }
        let report = farm.run(args.workers, &stop, args.max_units);
        done.store(true, Ordering::SeqCst);
        report
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => fail(&format!("run: {e}")),
    };

    for job in farm.job_views() {
        println!(
            "  {:<16} {:<10} {:<8} {:>4}/{}",
            job.name,
            job.kind,
            job.state.name(),
            job.progress,
            job.target
        );
    }
    println!(
        "{} unit(s), {} preemption(s){}",
        report.units,
        report.preemptions,
        if report.stopped {
            ", stopped early (checkpointed)"
        } else {
            ""
        }
    );

    match render_validated_status(&farm) {
        Ok(doc) => match args.status_json.as_deref() {
            Some("-") => println!("{doc}"),
            Some(path) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    fail(&format!("write {path}: {e}"));
                }
                println!(
                    "wrote validated {} status to {path}",
                    qcd_farm::STATUS_SCHEMA
                );
            }
            None => {}
        },
        Err(e) => fail(&format!("status document: {e}")),
    }

    if let Some(path) = &args.metrics {
        let doc = qcd_trace::dump_all_jsonl();
        if let Err(e) = qcd_trace::validate_jsonl(&doc) {
            fail(&format!("metrics dump failed validation: {e}"));
        }
        if let Err(e) = std::fs::write(path, &doc) {
            fail(&format!("write {path}: {e}"));
        }
        println!(
            "wrote validated {} metrics dump to {path}",
            qcd_trace::METRICS_SCHEMA
        );
    }
}
