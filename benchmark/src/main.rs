//! `stackbench` — the repository's benchmark (contract: `../BENCHMARK.json`,
//! manual: `README.md`).
//!
//! ```text
//! stackbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! stackbench --aa [--runs <n>] [--seed <u64>] [--seconds <n>]
//! stackbench --list | --emit-spec
//! ```
//!
//! A run prints a readable report and, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits 0 when every check passed.

mod aa;
mod harness;
mod host;
mod spans;
mod spec;
mod stack;
mod stats;

use harness::Harness;
use host::Sample;
use spec::{Json, END_TO_END, PER_LAYER, WORKLOADS};
use stack::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed per run, `setup_s` being their median: at least
/// `SETUP_REPS_MIN`, then more while they are cheap — a 50 ms set-up is
/// repeated until a second is spent or `SETUP_REPS_MAX` are done.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;
/// Exit code of a run whose checks failed (the JSON line is still printed).
const EXIT_INCORRECT: u8 = 1;
/// Exit code for bad arguments or a host the benchmark refuses to time on.
const EXIT_USAGE: u8 = 2;

struct RunOptions {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

/// Build output directory: where scratch files and traces go, because it is
/// the one place every checkout already ignores.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// A directory of this process's own, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Scratch {
        let dir = target_dir()
            .join("stackbench-scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run reports: the JSON line's content plus the exit status.
struct RunResult {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let fields = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failures.is_empty())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Units that missed their check. A failed whole-run check with every
    /// unit passing still counts one.
    fn failed(&self) -> usize {
        self.failures.len().min(self.attempted)
    }
}

/// The units of one measuring window.
struct Units {
    samples: Vec<Sample>,
    /// Physics work of each unit.
    work: Vec<f64>,
    failures: Vec<String>,
}

impl Units {
    fn norm(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.norm_s).collect()
    }
}

/// Run units of `w` back to back for `seconds`, checking each one untimed.
/// `traced(i)` says whether unit `i` runs inside a recorded span.
fn measure<W: Workload>(
    h: &mut Harness,
    w: &mut W,
    seconds: f64,
    min_units: usize,
    traced: impl Fn(usize) -> bool,
) -> Units {
    let mut units = Units {
        samples: Vec::new(),
        work: Vec::new(),
        failures: Vec::new(),
    };
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds || units.samples.len() < min_units {
        let i = units.samples.len();
        h.spans.set_paused(!traced(i));
        let ((), sample) = h.timed(&format!("unit[{i}]"), || w.unit());
        h.spans.set_paused(false);
        let outcome = w.check_unit();
        units.samples.push(sample);
        units.work.push(outcome.work);
        if let Some(e) = outcome.error {
            eprintln!("unit {i} failed its check: {e}");
            units.failures.push(format!("unit {i}: {e}"));
        }
    }
    units
}

fn print_quartiles(name: &str, unit: &str, norm: &[f64], raw: &[f64]) {
    let q = stats::quartiles(norm);
    println!(
        "  {name:<14} median {:.6} {unit}  q1 {:.6}  q3 {:.6}  n={}  (raw median {:.6})",
        q.median,
        q.q1,
        q.q3,
        norm.len(),
        stats::median(raw)
    );
}

fn run_untraced<W: Workload>(opts: &RunOptions, scratch: &Path) -> RunResult {
    let mut h = Harness::new(false);
    h.meter.set_threads(W::COMPUTE_THREADS);
    let mut setups: Vec<Sample> = Vec::new();
    let mut state = None;
    while setups.len() < SETUP_REPS_MIN
        || (setups.len() < SETUP_REPS_MAX
            && setups.iter().map(|s| s.raw_s).sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous set-up's threads and files go before the next starts.
        drop(state.take());
        let (w, sample) = h.timed("setup", || W::setup(opts.seed, scratch));
        setups.push(sample);
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up ran");

    let units = measure(&mut h, &mut w, opts.seconds, 1, |_| false);
    let peak_rss_mib = host::peak_rss_mib();
    let mut failures = units.failures.clone();
    if let Err(e) = w.verify() {
        eprintln!("the run failed its check: {e}");
        failures.push(format!("run: {e}"));
    }

    let norm = units.norm();
    let rates: Vec<f64> = units
        .samples
        .iter()
        .zip(&units.work)
        .map(|(s, work)| work / s.norm_s)
        .collect();
    let cpu: Vec<f64> = units.samples.iter().map(|s| s.cpu_s).collect();
    let setup_norm: Vec<f64> = setups.iter().map(|s| s.norm_s).collect();
    let value = |name: &str| match name {
        "wall_s" => stats::median(&norm),
        "work_per_s" => stats::median(&rates),
        // The CPU clock ticks every 10 ms, so a median of units would move
        // in steps; the mean of the middle half is as deaf to the host's
        // bursts and is smooth.
        "cpu_s" => stats::midmean(&cpu),
        "peak_rss_mib" => peak_rss_mib,
        "setup_s" => stats::median(&setup_norm),
        other => unreachable!("end-to-end metric `{other}` has no measurement"),
    };

    let raw: Vec<f64> = units.samples.iter().map(|s| s.raw_s).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|s| s.raw_s).collect();
    println!("end-to-end, tracing off (normalised to the nominal host speed):");
    print_quartiles("setup_s", "s", &setup_norm, &setup_raw);
    print_quartiles("wall_s", "s/unit", &norm, &raw);
    for (i, u) in units.samples.iter().enumerate() {
        println!(
            "    unit {i:>3}: raw {:.6} s  normalised {:.6} s  reference before {:.6} s after {:.6} s",
            u.raw_s, u.norm_s, u.ref_s.0, u.ref_s.1
        );
    }
    let slices = stats::quartiles(&h.meter.ref_slices);
    println!(
        "  reference slice: median {:.6} s  q1 {:.6}  q3 {:.6}  n={}  (nominal {:.6} s)",
        slices.median,
        slices.q1,
        slices.q3,
        h.meter.ref_slices.len(),
        host::REF_NOMINAL_S
    );
    RunResult {
        attempted: units.samples.len(),
        failures,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
    }
}

fn run_traced<W: Workload>(opts: &RunOptions, scratch: &Path) -> RunResult {
    let mut h = Harness::new(true);
    let name = opts.workload.as_str();
    h.meter.set_threads(W::COMPUTE_THREADS);
    let (units, ledger) = h.scope(&format!("run:{name}"), |h| {
        let (mut w, _) = h.timed("setup", || W::setup(opts.seed, scratch));
        // Half the window, units alternately inside and outside a span: the
        // difference is what the recorder itself costs.
        let units = measure(h, &mut w, opts.seconds / 2.0, 4, |i| i % 2 == 0);
        drop(w);
        let ledger = h.scope("ledger", |h| stack::ledger(h, opts.seed, scratch));
        (units, ledger)
    });

    let mut failures = units.failures.clone();
    if let Err(e) = h.spans.check() {
        eprintln!("span accounting failed: {e}");
        failures.push(format!("spans: {e}"));
    }
    let out_dir = opts
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("stackbench-out"));
    let trace_path = out_dir.join(format!("trace-{name}.json"));
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&trace_path, h.spans.chrome_trace(name)))
    {
        Ok(()) => println!(
            "trace: {} spans in {}",
            h.spans.spans().len(),
            trace_path.display()
        ),
        Err(e) => failures.push(format!("trace file {}: {e}", trace_path.display())),
    }

    let norm = units.norm();
    let half = |parity: usize| -> Vec<f64> {
        norm.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &s)| s)
            .collect()
    };
    let overhead = stats::median(&half(0)) / stats::median(&half(1)) - 1.0;
    let serial = ledger
        .serial
        .iter()
        .find(|leg| leg.workload == name)
        .expect("the ledger runs every workload's serial leg");
    let value = |metric: &str| match metric {
        "sve.insts_per_unit" => serial.insts as f64,
        "sve.ns_per_inst" => serial.sample.norm_s * 1e9 / serial.insts as f64,
        "harness.trace_overhead_frac" => overhead,
        other => {
            ledger
                .metrics
                .iter()
                .find(|(n, _)| *n == other)
                .unwrap_or_else(|| panic!("per-layer metric `{other}` has no measurement"))
                .1
        }
    };
    println!("per-layer, tracing on (normalised to the nominal host speed):");
    let mut metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect();
    for (name, unit, v) in &mut metrics {
        println!("  {name:<46} {v:>16.6} {unit}");
        if !v.is_finite() {
            // JSON cannot carry it; the failure is what reports it.
            failures.push(format!("metric {name} is {v}"));
            *v = 0.0;
        }
    }
    RunResult {
        attempted: units.samples.len(),
        failures,
        metrics,
    }
}

fn run(opts: &RunOptions) -> Result<RunResult, String> {
    if host::nproc() < 2 {
        return Err(format!(
            "this host offers {} hardware thread(s): three workloads keep two busy, \
             so their wall-clock metrics would measure time-slicing; refusing to run",
            host::nproc()
        ));
    }
    println!(
        "stackbench workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    println!("machine: {}", host::fingerprint());
    let scratch = Scratch::create();
    macro_rules! dispatch {
        ($w:ty) => {
            if opts.trace {
                run_traced::<$w>(opts, &scratch.0)
            } else {
                run_untraced::<$w>(opts, &scratch.0)
            }
        };
    }
    Ok(match opts.workload.as_str() {
        "wilson_cg_f64" => dispatch!(stack::WilsonCg),
        "ladder_f16" => dispatch!(stack::Ladder),
        "dist_cg_r2" => dispatch!(stack::DistCg),
        "hmc_quenched" => dispatch!(stack::Hmc),
        "farm_mix" => dispatch!(stack::FarmMix),
        other => return Err(format!("unknown workload `{other}` (try --list)")),
    })
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<7} better {:<6} bound {:.0} %",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!(
            "  {:<46} {:<9} better {:<6} moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn usage() -> String {
    "usage: stackbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]\n\
     \x20      stackbench --aa [--runs <n>] [--seed <u64>] [--seconds <n>]\n\
     \x20      stackbench --list | --emit-spec"
        .into()
}

enum Command {
    Run(RunOptions),
    Aa(aa::AaOptions),
    List,
    EmitSpec,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut out = None;
    let mut aa = false;
    let mut runs = 5usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--emit-spec" => return Ok(Command::EmitSpec),
            "--aa" => aa = true,
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--runs" => {
                runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=50).contains(&runs) {
                    return Err("--runs must lie in 1..=50".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if aa {
        return Ok(Command::Aa(aa::AaOptions {
            runs,
            seed,
            seconds,
        }));
    }
    Ok(Command::Run(RunOptions {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match command {
        Command::List => list(),
        Command::EmitSpec => print!("{}", spec::benchmark_json()),
        Command::Aa(opts) => return aa::run(&opts),
        Command::Run(opts) => match run(&opts) {
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(EXIT_USAGE);
            }
            Ok(result) => {
                println!(
                    "attempted {} unit(s), {} failed",
                    result.attempted,
                    result.failed()
                );
                println!("{}", result.json().render());
                if !result.failures.is_empty() {
                    return ExitCode::from(EXIT_INCORRECT);
                }
            }
        },
    }
    ExitCode::SUCCESS
}
