//! Every call the benchmark makes into the stack.
//!
//! This is the only file that names `grid::`, `sve::`, `armie::`, `rayon::`
//! and `qcd_*::` items, so the surface the benchmark pins is visible in one
//! place (README.md lists it). The end-to-end paths — [`Workload::unit`] of
//! the five workloads — call only `cg`, `ladder_solve`, `dist_cg` (inside
//! `run_multinode_topo`, on a `DistWilson::new`), `MarkovChain::{cold_start,
//! thermalize, step}` and `Farm::{open, submit, run}`. Everything else here
//! is either a correctness check or a probe of the traced run.

use crate::harness::Harness;
use crate::host::Sample;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use armie::listings::run_mult_cplx_fcmla_vla;
use grid::prelude::*;
use grid::simd::functors::{MultComplex, WordFunctor};
use grid::tensor::su3::mat_vec;
use grid::{Coor, FermionBlock, GaugeField};
use qcd_farm::{verify_dirs, Farm, FarmConfig, HmcStreamSpec, JobSpec, Priority, SolveSpec};
use qcd_hmc::{
    average_plaquette_fast, force, refresh_momenta, update_links, wilson_action, HmcParams,
    IntegratorKind, MarkovChain,
};
use qcd_io::fields::{decode_field, encode_field, FieldMeta};
use sve::intrinsics::{svcmla, svcvt_f32_f64, svdup, svld1, svmla_m, svptrue, svst1};
use sve::{Opcode, Rot, F16};

// ---------------------------------------------------------------------------
// Shapes. Sized so that one unit takes 0.4–0.8 s on the 2-vCPU sandbox: a
// 15-second run then holds 20–40 units and its median is steady.

const VL: usize = 512;
const BACKEND: SimdBackend = SimdBackend::Fcmla;
const MASS: f64 = 0.25;
const TOL: f64 = 1e-8;
const MAX_ITER: usize = 2000;
/// Iterations of the short warm-up solve that ends a solver set-up: enough
/// to run every kernel of the unit once.
const WARMUP_ITERS: usize = 4;

const CG_DIMS: Coor = [4, 4, 4, 8];
const LADDER_DIMS: Coor = [4, 4, 4, 4];
/// Split in two along t: each rank holds 4·4·4·6, whose outer t extent of 3
/// leaves an interior layer to overlap the halo exchange with.
const DIST_DIMS: Coor = [4, 4, 4, 12];
const DIST_RANKS: usize = 2;
const HMC_DIMS: Coor = [4, 4, 4, 4];
const HMC_PARAMS: HmcParams = HmcParams {
    beta: 5.7,
    n_steps: 8,
    step_size: 0.0625,
    integrator: IntegratorKind::Omelyan,
};
const HMC_THERMALIZE: usize = 2;
const FARM_CONFIG: FarmConfig = FarmConfig {
    dims: [4, 4, 4, 4],
    vl_bits: 256,
    backend: BACKEND,
};
const FARM_PARAMS: HmcParams = HmcParams {
    beta: 5.7,
    n_steps: 2,
    step_size: 0.25,
    integrator: IntegratorKind::Omelyan,
};
const FARM_STREAMS: usize = 2;
const FARM_TRAJECTORIES: u64 = 2;
const FARM_CHUNK: u64 = 1;
const FARM_RHS: u64 = 2;
const FARM_TOL: f64 = 1e-6;
const FARM_WORKERS: usize = 2;
/// Work units of one drain: a chunk per trajectory per stream, one batch.
const FARM_UNITS: u64 = FARM_STREAMS as u64 * FARM_TRAJECTORIES / FARM_CHUNK + 1;

fn volume(dims: &Coor) -> f64 {
    dims.iter().product::<usize>() as f64
}

fn vl() -> VectorLength {
    VectorLength::of(VL)
}

// ---------------------------------------------------------------------------
// Inputs. The benchmark's seed is expanded here, in the harness; the stack
// only ever sees the derived seeds.

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seeds one benchmark seed expands to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub gauge: u64,
    pub rhs: u64,
    pub chain: u64,
    pub farm_streams: [u64; FARM_STREAMS],
    pub farm_gauge: u64,
    pub farm_rhs: Vec<u64>,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let stream = |k: u64| splitmix64(seed ^ splitmix64(k));
        Inputs {
            gauge: stream(1),
            rhs: stream(2),
            chain: stream(3),
            farm_streams: std::array::from_fn(|i| stream(10 + i as u64)),
            farm_gauge: stream(20),
            farm_rhs: (0..FARM_RHS).map(|i| stream(100 + i)).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// The workload interface.

/// What one timed unit did, as found by the untimed check after it.
pub struct UnitOutcome {
    /// Physics work of the unit, the numerator of `work_per_s`.
    pub work: f64,
    /// Why the unit failed its correctness check, if it did.
    pub error: Option<String>,
}

impl UnitOutcome {
    fn of(work: f64, errors: Vec<String>) -> UnitOutcome {
        UnitOutcome {
            work,
            error: (!errors.is_empty()).then(|| errors.join("; ")),
        }
    }
}

pub trait Workload: Sized {
    /// Threads the unit keeps busy; the reference kernel uses as many.
    const COMPUTE_THREADS: usize;
    /// Build every input from `seed` and finish with a short warm-up.
    /// `scratch` is an existing directory this workload may fill.
    fn setup(seed: u64, scratch: &Path) -> Self;
    /// The timed unit: exactly the calls a user of the stack makes.
    fn unit(&mut self);
    /// Untimed, after every unit: check its output, report its work, and
    /// prepare the next unit where that is not part of the service.
    fn check_unit(&mut self) -> UnitOutcome;
    /// Untimed, once after the last unit: the checks too dear to repeat.
    fn verify(&mut self) -> Result<(), String>;
    /// The unit's work on one compute thread with every `SveCtx` counted:
    /// returns the instructions retired. The plain baseline of the ledger.
    fn serial_unit(&mut self) -> u64;
}

fn cg_unit_errors(report: &SolveReport) -> Vec<String> {
    let mut errors = Vec::new();
    if !report.converged {
        errors.push(format!("not converged after {}", report.iterations));
    }
    if report.residual.is_nan() || report.residual > TOL {
        errors.push(format!("true residual {:e} above {TOL:e}", report.residual));
    }
    errors
}

fn history_bits(report: &SolveReport) -> Vec<u64> {
    report.history.iter().map(|r| r.to_bits()).collect()
}

/// The Wilson operator on a random SU(3) background and a random source,
/// both from `seed`, on `dims` at VL512.
fn wilson_problem(seed: u64, dims: Coor) -> (WilsonDirac, FermionField) {
    let inputs = Inputs::from_seed(seed);
    let grid = Grid::new(dims, vl(), BACKEND);
    let op = WilsonDirac::new(random_gauge(grid.clone(), inputs.gauge), MASS);
    let b = FermionField::random(grid, inputs.rhs);
    (op, b)
}

// ---------------------------------------------------------------------------
// wilson_cg_f64

pub struct WilsonCg {
    op: WilsonDirac,
    b: FermionField,
    last: Option<(FermionField, SolveReport)>,
    /// Iteration count and solution of the first unit: every later unit
    /// solves the same system and must reproduce both.
    first: Option<(usize, FermionField)>,
}

impl WilsonCg {
    const RAYON_THREADS: usize = 2;

    /// `‖M†M x − b‖ / ‖b‖` through the allocating operator, not the fused
    /// path the solver ran on.
    fn recomputed_residual(&self, x: &FermionField) -> f64 {
        let ax = self.op.mdag_m(x);
        let mut r = FermionField::zero(self.b.grid().clone());
        r.sub(&self.b, &ax);
        (r.norm2() / self.b.norm2()).sqrt()
    }
}

impl Workload for WilsonCg {
    const COMPUTE_THREADS: usize = Self::RAYON_THREADS;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        rayon::set_num_threads(Self::RAYON_THREADS);
        let (op, b) = wilson_problem(seed, CG_DIMS);
        black_box(cg(&op, &b, TOL, WARMUP_ITERS));
        WilsonCg {
            op,
            b,
            last: None,
            first: None,
        }
    }

    fn unit(&mut self) {
        rayon::set_num_threads(Self::RAYON_THREADS);
        self.last = Some(cg(&self.op, &self.b, TOL, MAX_ITER));
    }

    fn check_unit(&mut self) -> UnitOutcome {
        let (x, report) = self.last.take().expect("a unit ran");
        let mut errors = cg_unit_errors(&report);
        match &self.first {
            None => self.first = Some((report.iterations, x)),
            Some((iterations, x0)) => {
                if report.iterations != *iterations {
                    errors.push(format!(
                        "{} iterations, the first unit took {iterations}",
                        report.iterations
                    ));
                }
                if x.max_abs_diff(x0) != 0.0 {
                    errors.push("solution differs from the first unit's".into());
                }
            }
        }
        UnitOutcome::of(2.0 * report.iterations as f64 * volume(&CG_DIMS), errors)
    }

    fn verify(&mut self) -> Result<(), String> {
        let (_, x) = self.first.as_ref().ok_or("no unit ran")?;
        let residual = self.recomputed_residual(x);
        if residual.is_nan() || residual > TOL {
            return Err(format!("recomputed residual {residual:e} above {TOL:e}"));
        }
        Ok(())
    }

    fn serial_unit(&mut self) -> u64 {
        rayon::set_num_threads(1);
        let counters = self.op.grid().engine().ctx().counters();
        let before = counters.total();
        self.last = Some(cg(&self.op, &self.b, TOL, MAX_ITER));
        counters.total() - before
    }
}

// ---------------------------------------------------------------------------
// ladder_f16

pub struct Ladder {
    op: WilsonDirac,
    b: FermionField,
    last: Option<(FermionField, LadderReport)>,
    first: Option<(LadderReport, FermionField)>,
}

impl Ladder {
    fn work(report: &LadderReport) -> f64 {
        2.0 * (report.f16_iterations + report.f32_iterations) as f64 * volume(&LADDER_DIMS)
    }
}

impl Workload for Ladder {
    const COMPUTE_THREADS: usize = 1;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        rayon::set_num_threads(1);
        let (op, b) = wilson_problem(seed, LADDER_DIMS);
        // One outer round at a loose target touches all three tiers.
        black_box(ladder_solve(&op, &b, &LadderConfig::new(1e-2)));
        Ladder {
            op,
            b,
            last: None,
            first: None,
        }
    }

    fn unit(&mut self) {
        rayon::set_num_threads(1);
        self.last = Some(ladder_solve(&self.op, &self.b, &LadderConfig::new(TOL)));
    }

    fn check_unit(&mut self) -> UnitOutcome {
        let (x, report) = self.last.take().expect("a unit ran");
        let mut errors = Vec::new();
        if !report.converged || report.residual.is_nan() || report.residual > TOL {
            errors.push(format!(
                "not converged at f64 tolerance: residual {:e}",
                report.residual
            ));
        }
        if report.tier_fallbacks != 0 {
            errors.push(format!("{} tier fallbacks", report.tier_fallbacks));
        }
        if report.f16_iterations == 0 {
            errors.push("the f16 tier never ran".into());
        }
        let work = Self::work(&report);
        match &self.first {
            None => self.first = Some((report, x)),
            Some((r0, x0)) => {
                if (report.f16_iterations, report.f32_iterations)
                    != (r0.f16_iterations, r0.f32_iterations)
                    || x.max_abs_diff(x0) != 0.0
                {
                    errors.push("iterations or solution differ from the first unit's".into());
                }
            }
        }
        UnitOutcome::of(work, errors)
    }

    fn verify(&mut self) -> Result<(), String> {
        // `M x = b` here (the ladder solves the operator, not the normal
        // equations), again through the allocating path.
        let (_, x) = self.first.as_ref().ok_or("no unit ran")?;
        let mx = self.op.apply(x);
        let mut r = FermionField::zero(self.b.grid().clone());
        r.sub(&self.b, &mx);
        let residual = (r.norm2() / self.b.norm2()).sqrt();
        if residual.is_nan() || residual > TOL {
            return Err(format!("recomputed residual {residual:e} above {TOL:e}"));
        }
        Ok(())
    }

    fn serial_unit(&mut self) -> u64 {
        self.unit();
        let (_, report) = self.last.as_ref().expect("the unit ran");
        report.f16_instructions + report.f32_instructions + report.f64_instructions
    }
}

// ---------------------------------------------------------------------------
// dist_cg_r2
//
// `run_multinode_topo` owns the rank threads and lends each a `RankCtx` for
// the length of one closure call, so the ranks of a session stay inside that
// call, take commands over channels, and answer when done. A unit is "send
// Solve to every rank, wait for every answer", timed from outside like every
// other unit.

enum RankCmd {
    Solve,
    Hop(usize),
    CanonNorm2(usize),
    Ghost(usize),
}

struct Ready {
    interior: usize,
    boundary: usize,
    ghost_wire_ok: bool,
}

struct Solved {
    report: SolveReport,
    /// Face bytes this solve put on the wire, and whether they equal the
    /// pinned model for the sweeps it made.
    sent_bytes: usize,
    sweeps: u64,
    wire_ok: bool,
    wait_ns: u64,
    flight_ns: u64,
    insts: u64,
}

enum RankReply {
    Ready(Ready),
    Solved(Box<Solved>),
    Done,
}

/// A rank that does not answer within this has deadlocked or died; the run
/// fails instead of hanging.
const RANK_TIMEOUT: Duration = Duration::from_secs(120);

pub struct DistSession {
    ranks: usize,
    cmds: Vec<Sender<RankCmd>>,
    replies: Receiver<(usize, RankReply)>,
    thread: Option<std::thread::JoinHandle<()>>,
    interior: usize,
    boundary: usize,
}

fn rank_main(ctx: &RankCtx, seed: u64, rx: &Receiver<RankCmd>, tx: &Sender<(usize, RankReply)>) {
    let inputs = Inputs::from_seed(seed);
    let global = Grid::new(DIST_DIMS, vl(), BACKEND);
    let u = restrict_field(ctx, &random_gauge(global.clone(), inputs.gauge));
    let b = restrict_field(ctx, &FermionField::random(global, inputs.rhs));
    let build = |u: GaugeField| DistWilson::new(ctx, u, MASS, GaugeWire::TwoRow, Compression::None);
    let dw = build(u.clone());
    let ghost_wire_ok = ctx.sent_bytes.get() == dw.modeled_wire_bytes();
    black_box(dist_cg(&dw, &b, TOL, WARMUP_ITERS));
    let (interior, boundary) = dw.interior_boundary_sites();
    let send = |reply| tx.send((ctx.rank, reply)).is_ok();
    if !send(RankReply::Ready(Ready {
        interior,
        boundary,
        ghost_wire_ok,
    })) {
        return;
    }
    let counters = ctx.grid.engine().ctx().counters();
    let mut ws = DistWorkspace::new(&dw);
    let mut out = FermionField::zero(ctx.grid.clone());
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            RankCmd::Solve => {
                let sent0 = ctx.sent_bytes.get();
                let sweeps0 = dw.dslash_count();
                let (wait0, flight0) = (ctx.wait_ns(), ctx.flight_ns());
                let insts0 = counters.total();
                let (_, report) = dist_cg(&dw, &b, TOL, MAX_ITER);
                let sent_bytes = ctx.sent_bytes.get() - sent0;
                let sweeps = dw.dslash_count() - sweeps0;
                RankReply::Solved(Box::new(Solved {
                    report,
                    sent_bytes,
                    sweeps,
                    wire_ok: sent_bytes == sweeps as usize * dw.face_bytes_per_sweep(),
                    wait_ns: ctx.wait_ns() - wait0,
                    flight_ns: ctx.flight_ns() - flight0,
                    insts: counters.total() - insts0,
                }))
            }
            RankCmd::Hop(calls) => {
                for _ in 0..calls {
                    dw.hopping_into(&b, &mut ws, &mut out);
                }
                RankReply::Done
            }
            RankCmd::CanonNorm2(calls) => {
                for _ in 0..calls {
                    black_box(dw.canon_norm2(&b, &mut ws));
                }
                RankReply::Done
            }
            RankCmd::Ghost(calls) => {
                for _ in 0..calls {
                    black_box(build(u.clone()).ghost_bytes());
                }
                RankReply::Done
            }
        };
        if !send(reply) {
            return;
        }
    }
}

impl DistSession {
    /// Start `ranks` rank threads on the workload's lattice and wait until
    /// each has built its operator (ghost-link exchange) and warmed up.
    pub fn start(ranks: usize, seed: u64) -> DistSession {
        rayon::set_num_threads(1);
        let (reply_tx, replies) = mpsc::channel();
        let (cmds, rxs): (Vec<_>, Vec<_>) = (0..ranks)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<RankCmd>();
                (tx, Mutex::new(rx))
            })
            .unzip();
        let thread = std::thread::spawn(move || {
            run_multinode_topo(
                DIST_DIMS,
                RankTopology::one_dim(ranks),
                vl(),
                BACKEND,
                NetworkModel::interconnect(),
                |ctx| {
                    let rx = rxs[ctx.rank].lock().expect("one rank per receiver");
                    rank_main(ctx, seed, &rx, &reply_tx);
                },
            );
        });
        let mut session = DistSession {
            ranks,
            cmds,
            replies,
            thread: Some(thread),
            interior: 0,
            boundary: 0,
        };
        for reply in session.collect() {
            let RankReply::Ready(ready) = reply else {
                panic!("rank answered before it was ready");
            };
            assert!(
                ready.ghost_wire_ok,
                "ghost-link bytes differ from the wire model"
            );
            (session.interior, session.boundary) = (ready.interior, ready.boundary);
        }
        session
    }

    /// One answer per rank, in rank order.
    fn collect(&self) -> Vec<RankReply> {
        let mut slots: Vec<Option<RankReply>> = (0..self.ranks).map(|_| None).collect();
        for _ in 0..self.ranks {
            let (rank, reply) = self
                .replies
                .recv_timeout(RANK_TIMEOUT)
                .expect("a rank thread stopped answering");
            slots[rank] = Some(reply);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every rank answers once"))
            .collect()
    }

    fn command(&self, make: impl Fn() -> RankCmd) -> Vec<RankReply> {
        for tx in &self.cmds {
            tx.send(make()).expect("rank threads are alive");
        }
        self.collect()
    }

    fn solve(&self) -> Vec<Solved> {
        self.command(|| RankCmd::Solve)
            .into_iter()
            .map(|r| match r {
                RankReply::Solved(s) => *s,
                _ => panic!("rank answered a solve with something else"),
            })
            .collect()
    }
}

impl Drop for DistSession {
    fn drop(&mut self) {
        // Closing the command channels ends every rank's loop.
        self.cmds.clear();
        if let Some(t) = self.thread.take() {
            // A rank's panic was already reported as a missing answer.
            let _ = t.join();
        }
    }
}

pub struct DistCg {
    seed: u64,
    session: DistSession,
    last: Option<Vec<Solved>>,
    first_history: Option<Vec<u64>>,
}

impl Workload for DistCg {
    const COMPUTE_THREADS: usize = DIST_RANKS;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        DistCg {
            seed,
            session: DistSession::start(DIST_RANKS, seed),
            last: None,
            first_history: None,
        }
    }

    fn unit(&mut self) {
        self.last = Some(self.session.solve());
    }

    fn check_unit(&mut self) -> UnitOutcome {
        let solved = self.last.take().expect("a unit ran");
        let mut errors = Vec::new();
        let history = history_bits(&solved[0].report);
        for (rank, s) in solved.iter().enumerate() {
            errors.extend(
                cg_unit_errors(&s.report)
                    .into_iter()
                    .map(|e| format!("rank {rank}: {e}")),
            );
            if !s.wire_ok {
                errors.push(format!(
                    "rank {rank}: sent bytes differ from the wire model"
                ));
            }
            if history_bits(&s.report) != history {
                errors.push(format!(
                    "rank {rank}: residual history differs from rank 0's"
                ));
            }
        }
        match &self.first_history {
            None => self.first_history = Some(history),
            Some(h0) if *h0 != history => {
                errors.push("residual history differs from the first unit's".into())
            }
            Some(_) => {}
        }
        UnitOutcome::of(
            2.0 * solved[0].report.iterations as f64 * volume(&DIST_DIMS),
            errors,
        )
    }

    fn verify(&mut self) -> Result<(), String> {
        let history = self.first_history.as_ref().ok_or("no unit ran")?;
        let r1 = DistSession::start(1, self.seed).solve();
        if history_bits(&r1[0].report) != *history {
            return Err("residual history differs from the one-rank solve's".into());
        }
        Ok(())
    }

    fn serial_unit(&mut self) -> u64 {
        let r1 = DistSession::start(1, self.seed);
        r1.solve()[0].insts
    }
}

// ---------------------------------------------------------------------------
// hmc_quenched

pub struct Hmc {
    chain: MarkovChain,
    last_dh: Option<f64>,
}

impl Workload for Hmc {
    const COMPUTE_THREADS: usize = 1;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        rayon::set_num_threads(1);
        let grid = Grid::new(HMC_DIMS, vl(), BACKEND);
        let mut chain = MarkovChain::cold_start(grid, HMC_PARAMS, Inputs::from_seed(seed).chain);
        // Thermalization is the warm-up: it runs every kernel of a unit.
        chain.thermalize(HMC_THERMALIZE);
        Hmc {
            chain,
            last_dh: None,
        }
    }

    fn unit(&mut self) {
        rayon::set_num_threads(1);
        self.last_dh = Some(self.chain.step().dh);
    }

    fn check_unit(&mut self) -> UnitOutcome {
        let dh = self.last_dh.take().expect("a unit ran");
        let mut errors = Vec::new();
        if !dh.is_finite() || dh.abs() >= 1.0 {
            errors.push(format!("energy violation dH = {dh}"));
        }
        UnitOutcome::of(4.0 * volume(&HMC_DIMS) * HMC_PARAMS.n_steps as f64, errors)
    }

    fn verify(&mut self) -> Result<(), String> {
        let plaquette = average_plaquette_fast(self.chain.links());
        if !(0.0..1.0).contains(&plaquette) {
            return Err(format!("plaquette {plaquette} outside (0, 1)"));
        }
        Ok(())
    }

    fn serial_unit(&mut self) -> u64 {
        let grid = self.chain.links().grid().clone();
        let counters = grid.engine().ctx().counters();
        let before = counters.total();
        self.unit();
        counters.total() - before
    }
}

// ---------------------------------------------------------------------------
// farm_mix

fn farm_jobs(seed: u64, trajectories: u64, rhs: usize) -> Vec<JobSpec> {
    let inputs = Inputs::from_seed(seed);
    let mut jobs: Vec<JobSpec> = inputs
        .farm_streams
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            JobSpec::Hmc(HmcStreamSpec {
                name: format!("stream-{i}"),
                priority: Priority::Low,
                seed,
                params: FARM_PARAMS,
                trajectories,
                chunk: FARM_CHUNK,
            })
        })
        .collect();
    jobs.push(JobSpec::Solve(SolveSpec {
        name: "burst".into(),
        priority: Priority::High,
        gauge_seed: inputs.farm_gauge,
        mass: MASS,
        rhs_seeds: inputs.farm_rhs[..rhs].to_vec(),
        tol: FARM_TOL,
        max_iter: MAX_ITER as u64,
        subspace: None,
    }));
    jobs
}

fn open_and_submit(dir: &Path, jobs: Vec<JobSpec>) -> Farm {
    let farm = Farm::open(dir, FARM_CONFIG).expect("open a farm in a fresh directory");
    for job in jobs {
        farm.submit(job).expect("submit to an empty farm");
    }
    farm
}

fn drain(farm: &Farm, workers: usize) -> u64 {
    farm.run(workers, &AtomicBool::new(false), None)
        .expect("the farm drains")
        .units
}

pub struct FarmMix {
    seed: u64,
    root: PathBuf,
    drains: usize,
    /// Opened and submitted, waiting for its timed drain.
    next: Option<(PathBuf, Farm)>,
    last: Option<(PathBuf, Farm, u64)>,
    /// The first drain's directory: every later one must match it byte for
    /// byte.
    reference: Option<PathBuf>,
}

impl FarmMix {
    fn prepare(&mut self) {
        let dir = self.root.join(format!("drain-{}", self.drains));
        self.drains += 1;
        let jobs = farm_jobs(self.seed, FARM_TRAJECTORIES, FARM_RHS as usize);
        self.next = Some((dir.clone(), open_and_submit(&dir, jobs)));
    }
}

impl Workload for FarmMix {
    const COMPUTE_THREADS: usize = FARM_WORKERS;

    fn setup(seed: u64, scratch: &Path) -> Self {
        rayon::set_num_threads(1);
        let root = scratch.join("farm");
        // A set-up repeated in the same run starts from nothing again.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the farm's root directory");
        // Warm-up: one trajectory per stream and one request, drained.
        let warm = root.join("warmup");
        drain(&open_and_submit(&warm, farm_jobs(seed, 1, 1)), FARM_WORKERS);
        std::fs::remove_dir_all(&warm).expect("remove the warm-up farm");
        let mut mix = FarmMix {
            seed,
            root,
            drains: 0,
            next: None,
            last: None,
            reference: None,
        };
        mix.prepare();
        mix
    }

    fn unit(&mut self) {
        rayon::set_num_threads(1);
        let (dir, farm) = self.next.take().expect("a farm is prepared");
        let units = drain(&farm, FARM_WORKERS);
        self.last = Some((dir, farm, units));
    }

    fn check_unit(&mut self) -> UnitOutcome {
        let (dir, farm, units) = self.last.take().expect("a unit ran");
        let mut errors = Vec::new();
        if !farm.all_done() {
            errors.push("jobs left undone".into());
        }
        if units != FARM_UNITS {
            errors.push(format!("{units} work units, expected {FARM_UNITS}"));
        }
        drop(farm);
        match &self.reference {
            None => self.reference = Some(dir),
            Some(reference) => {
                if let Err(e) = verify_dirs(reference, &dir) {
                    errors.push(e);
                }
                std::fs::remove_dir_all(&dir).expect("remove a drained farm");
            }
        }
        self.prepare();
        UnitOutcome::of(units as f64, errors)
    }

    fn verify(&mut self) -> Result<(), String> {
        // One worker must leave the same bytes as two.
        let reference = self.reference.as_ref().ok_or("no unit ran")?;
        let dir = self.root.join("verify-w1");
        let jobs = farm_jobs(self.seed, FARM_TRAJECTORIES, FARM_RHS as usize);
        drain(&open_and_submit(&dir, jobs), 1);
        verify_dirs(reference, &dir)
    }

    /// The same trajectories and requests with no farm: direct
    /// `run_trajectories` and `solve_cg_requests` calls on one grid.
    fn serial_unit(&mut self) -> u64 {
        rayon::set_num_threads(1);
        let grid = FARM_CONFIG.grid();
        let counters = grid.engine().ctx().counters();
        let before = counters.total();
        direct_hmc(self.seed, &grid);
        direct_solve(self.seed, &grid);
        counters.total() - before
    }
}

fn direct_hmc(seed: u64, grid: &std::sync::Arc<Grid>) {
    for &stream in &Inputs::from_seed(seed).farm_streams {
        let mut chain = MarkovChain::cold_start(grid.clone(), FARM_PARAMS, stream);
        let outcome = chain
            .run_trajectories(FARM_TRAJECTORIES as usize, &AtomicBool::new(false), None)
            .expect("no checkpoint, no I/O error");
        black_box(outcome.reports.len());
    }
}

fn direct_solve(seed: u64, grid: &std::sync::Arc<Grid>) {
    let inputs = Inputs::from_seed(seed);
    let op = WilsonDirac::new(random_gauge(grid.clone(), inputs.farm_gauge), MASS);
    let requests: Vec<SolveRequest> = inputs
        .farm_rhs
        .iter()
        .enumerate()
        .map(|(i, &s)| SolveRequest {
            id: i as u64,
            rhs: FermionField::random(grid.clone(), s),
        })
        .collect();
    black_box(solve_cg_requests(&op, &requests, FARM_TOL, MAX_ITER).len());
}

// ---------------------------------------------------------------------------
// The layer ledger of the traced run.

/// The serial leg of one workload: what the per-workload substrate metrics
/// (`sve.insts_per_unit`, `sve.ns_per_inst`) are computed from.
pub struct SerialLeg {
    pub workload: &'static str,
    pub insts: u64,
    pub sample: Sample,
}

pub struct Ledger {
    /// Every per-layer metric except the per-workload ones, by name.
    pub metrics: Vec<(&'static str, f64)>,
    pub serial: Vec<SerialLeg>,
}

impl Ledger {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// The serial leg of `w`, `reps` times over: the run with the median wall
/// time is the one reported. The two legs the `accounted_frac` metrics are
/// reconciled against repeat; one sample of a 0.5 s unit is off by several
/// per cent too often for a 0.9–1.1 window.
fn serial_leg<W: Workload>(
    h: &mut Harness,
    name: &'static str,
    w: &mut W,
    reps: usize,
) -> SerialLeg {
    h.meter.set_threads(1);
    let mut legs: Vec<(u64, Sample)> = (0..reps)
        .map(|_| h.timed(&format!("leg.{name}.serial"), || w.serial_unit()))
        .collect();
    legs.sort_by(|a, b| a.1.norm_s.total_cmp(&b.1.norm_s));
    let (insts, sample) = legs[legs.len() / 2];
    SerialLeg {
        workload: name,
        insts,
        sample,
    }
}

/// A unit of `w` as the end-to-end run times it, inside a leg span.
fn unit_leg<W: Workload>(h: &mut Harness, span: &str, w: &mut W) -> Sample {
    h.meter.set_threads(W::COMPUTE_THREADS);
    let ((), sample) = h.timed(span, || w.unit());
    let outcome = w.check_unit();
    assert!(outcome.error.is_none(), "{span}: {:?}", outcome.error);
    sample
}

/// Measure every layer from outside. Shapes are the workloads' own; every
/// number is normalised to the nominal host speed like the end-to-end ones.
pub fn ledger(h: &mut Harness, seed: u64, scratch: &Path) -> Ledger {
    let mut out = Ledger {
        metrics: Vec::new(),
        serial: Vec::new(),
    };
    ledger_sve(h, &mut out);
    ledger_armie(h, &mut out);
    ledger_simd(h, &mut out);
    ledger_solver(h, seed, scratch, &mut out);
    ledger_mixed(h, seed, scratch, &mut out);
    ledger_dist(h, seed, scratch, &mut out);
    ledger_hmc(h, seed, scratch, &mut out);
    ledger_io(h, seed, scratch, &mut out);
    ledger_farm(h, seed, scratch, &mut out);
    ledger_observability(h, &mut out);
    out
}

/// ns per `svcmla` on splatted operands of element type `E` at `bits`.
fn svcmla_ns<E: sve::SveFloat>(h: &mut Harness, span: &str, bits: usize, a: E, b: E, c: E) -> f64 {
    let ctx = SveCtx::new(VectorLength::of(bits));
    let pg = svptrue::<E>(&ctx);
    let (a, b, c) = (svdup(&ctx, a), svdup(&ctx, b), svdup(&ctx, c));
    h.probe(span, || {
        black_box(svcmla::<E>(&ctx, &pg, black_box(&c), &a, &b, Rot::R90));
    })
}

fn ledger_sve(h: &mut Harness, out: &mut Ledger) {
    h.meter.set_threads(1);
    let ctx = SveCtx::new(vl());
    let pg = svptrue::<f64>(&ctx);
    let src: Vec<f64> = (0..vl().lanes64()).map(|i| 1.0 + 0.25 * i as f64).collect();
    let a = svld1(&ctx, &pg, &src);
    let b = svdup::<f64>(&ctx, 0.5);
    let c = svdup::<f64>(&ctx, -1.5);
    let mut dst = vec![0.0f64; src.len()];
    out.put(
        "sve.op_ns.ld1",
        h.probe("probe.sve.svld1", || {
            black_box(svld1(&ctx, &pg, black_box(&src[..])));
        }),
    );
    out.put(
        "sve.op_ns.st1",
        h.probe("probe.sve.svst1", || {
            svst1(&ctx, &pg, black_box(&mut dst[..]), black_box(&a));
        }),
    );
    out.put(
        "sve.op_ns.fcmla",
        svcmla_ns(h, "probe.sve.svcmla", VL, 1.25, 0.5, -1.5),
    );
    out.put(
        "sve.op_ns.fmla",
        h.probe("probe.sve.svmla_m", || {
            black_box(svmla_m::<f64>(&ctx, &pg, black_box(&c), &a, &b));
        }),
    );
    out.put(
        "sve.op_ns.fcvt",
        h.probe("probe.sve.svcvt_f32_f64", || {
            black_box(svcvt_f32_f64(&ctx, &pg, black_box(&a)));
        }),
    );
    let f16 = F16::from_f32;
    out.put(
        "sve.op_ns.fcmla_f16",
        svcmla_ns(
            h,
            "probe.sve.svcmla_f16",
            VL,
            f16(1.25),
            f16(0.5),
            f16(-1.5),
        ),
    );
    let ns_narrow = svcmla_ns(h, "probe.sve.svcmla_vl128", 128, 1.25, 0.5, -1.5);
    let ns_wide = svcmla_ns(h, "probe.sve.svcmla_vl2048", 2048, 1.25, 0.5, -1.5);
    out.put("sve.op_cost_ratio_vl128_vl2048", ns_narrow / ns_wide);

    let exec_1t = h.probe("probe.sve.exec_1t", || ctx.exec(Opcode::Fmla));
    out.put("sve.exec_ns_1t", exec_1t);
    // Two threads on one context. The second thread would slow the
    // reference slices down as well, so this is a raw ratio of batches taken
    // back to back, alone and contended, applied to the figure above.
    let contended_over_alone = h.scope("probe.sve.exec_2t", |_| {
        // Long enough (10 ms alone) that the scheduler has moved the second
        // thread to the other CPU for most of the contended batch.
        const CALLS: usize = 2_000_000;
        let batch = || {
            let t = Instant::now();
            for _ in 0..CALLS {
                ctx.exec(Opcode::Fmla);
            }
            t.elapsed().as_secs_f64()
        };
        let ratios: Vec<f64> = (0..5)
            .map(|_| {
                let alone = batch();
                let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
                let contended = std::thread::scope(|s| {
                    s.spawn(|| {
                        started.store(true, Ordering::SeqCst);
                        while !stop.load(Ordering::SeqCst) {
                            ctx.exec(Opcode::Fmla);
                        }
                    });
                    while !started.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    let contended = batch();
                    stop.store(true, Ordering::SeqCst);
                    contended
                });
                contended / alone
            })
            .collect();
        crate::stats::median(&ratios)
    });
    out.put("sve.exec_ns_2t", exec_1t * contended_over_alone);
}

fn ledger_armie(h: &mut Harness, out: &mut Ledger) {
    let x: Vec<f64> = (0..240).map(|i| 0.5 + 0.01 * i as f64).collect();
    let y: Vec<f64> = (0..240).map(|i| 1.5 - 0.02 * i as f64).collect();
    let steps = run_mult_cplx_fcmla_vla(SveCtx::new(vl()), &x, &y)
        .report
        .steps;
    let ns = h.probe("probe.armie.run_mult_cplx_fcmla_vla", || {
        black_box(run_mult_cplx_fcmla_vla(SveCtx::new(vl()), &x, &y).z.len());
    });
    out.put("armie.ns_per_step", ns / steps as f64);
}

fn ledger_simd(h: &mut Harness, out: &mut Ledger) {
    let grid = Grid::new(CG_DIMS, vl(), BACKEND);
    let eng = grid.engine();
    let w = eng.word_len();
    let x: Vec<f64> = (0..w).map(|i| 0.5 + 0.1 * i as f64).collect();
    let y: Vec<f64> = (0..w).map(|i| 1.5 - 0.2 * i as f64).collect();
    let mut z = vec![0.0; w];
    out.put(
        "grid.simd.mult_complex_ns",
        h.probe("probe.grid.simd.MultComplex.apply", || {
            MultComplex.apply(eng, black_box(&x[..]), &y, &mut z);
        }),
    );
    let u = std::array::from_fn(|r| {
        std::array::from_fn(|c| eng.splat(Complex::new(0.1 * r as f64, 0.2 * c as f64 - 0.3)))
    });
    let v = std::array::from_fn(|c| eng.splat(Complex::new(0.5 + c as f64, -0.25)));
    out.put(
        "grid.simd.su3_vec_ns",
        h.probe("probe.grid.tensor.su3.mat_vec", || {
            black_box(mat_vec(eng, black_box(&u), &v));
        }),
    );
}

/// ns per site of one `hopping_into` on the CG lattice at element type `E`
/// and vector length `bits`.
fn hop_ns_per_site<E: sve::SveFloat>(h: &mut Harness, span: &str, seed: u64, bits: usize) -> f64 {
    let inputs = Inputs::from_seed(seed);
    let grid = Grid::<E>::new(CG_DIMS, VectorLength::of(bits), BACKEND);
    let op = WilsonDirac::new(random_gauge(grid.clone(), inputs.gauge), MASS);
    let psi = Field::random(grid.clone(), inputs.rhs);
    let mut out = Field::zero(grid);
    h.probe(span, || op.hopping_into(&psi, &mut out)) / volume(&CG_DIMS)
}

fn ledger_solver(h: &mut Harness, seed: u64, scratch: &Path, out: &mut Ledger) {
    let v = volume(&CG_DIMS);
    h.meter.set_threads(1);
    rayon::set_num_threads(1);
    let hop = hop_ns_per_site::<f64>(h, "probe.grid.dirac.hopping_into", seed, VL);
    out.put("grid.dirac.hop_ns_per_site", hop);
    out.put(
        "grid.dirac.hop_ns_per_site.f32",
        hop_ns_per_site::<f32>(h, "probe.grid.dirac.hopping_into.f32", seed, VL),
    );
    out.put(
        "grid.dirac.hop_ns_per_site.f16",
        hop_ns_per_site::<F16>(h, "probe.grid.dirac.hopping_into.f16", seed, VL),
    );
    out.put(
        "grid.dirac.hop_ns_per_site.vl128",
        hop_ns_per_site::<f64>(h, "probe.grid.dirac.hopping_into.vl128", seed, 128),
    );
    out.put(
        "grid.dirac.hop_ns_per_site.vl2048",
        hop_ns_per_site::<f64>(h, "probe.grid.dirac.hopping_into.vl2048", seed, 2048),
    );
    h.meter.set_threads(2);
    rayon::set_num_threads(2);
    let hop_2t = hop_ns_per_site::<f64>(h, "probe.grid.dirac.hopping_into.2t", seed, VL);
    out.put("grid.dirac.thread_speedup", hop / hop_2t);
    h.meter.set_threads(1);
    rayon::set_num_threads(1);

    let mut cg_w = WilsonCg::setup(seed, scratch);
    rayon::set_num_threads(1);
    let (op, b) = (&cg_w.op, &cg_w.b);
    let grid = b.grid().clone();
    let counters = grid.engine().ctx().counters();
    let mut tmp = FermionField::zero(grid.clone());
    let mut ap = FermionField::zero(grid.clone());
    let before = counters.total();
    op.hopping_into(b, &mut ap);
    out.put(
        "grid.dirac.insts_per_site",
        (counters.total() - before) as f64 / v,
    );
    let mdagm = h.probe("probe.grid.dirac.mdag_m_into_dot", || {
        black_box(op.mdag_m_into_dot(b, &mut tmp, &mut ap));
    });
    out.put("grid.dirac.mdagm_dot_ns_per_site", mdagm / v);

    // BLAS sweeps with the coefficients of a converged solve: tiny steps, so
    // thousands of repetitions leave the fields finite.
    let mut x = FermionField::zero(grid.clone());
    let mut r = b.clone();
    let p = b.clone();
    let cg_update = h.probe("probe.grid.field.cg_update_x_r", || {
        black_box(cg_update_x_r(&mut x, &mut r, 1e-9, &p, &ap));
    });
    let aypx = h.probe("probe.grid.field.aypx", || r.aypx(0.999, &p));
    let axpy_norm2 = h.probe("probe.grid.field.axpy_norm2", || {
        black_box(r.axpy_norm2(1e-9, &p));
    });
    let norm2 = h.probe("probe.grid.field.norm2", || {
        black_box(b.norm2());
    });
    let canonical = h.probe("probe.grid.field.canonical_norm2", || {
        black_box(b.canonical_norm2());
    });
    out.put("grid.field.cg_update_ns_per_site", cg_update / v);
    out.put("grid.field.aypx_ns_per_site", aypx / v);
    out.put("grid.field.axpy_norm2_ns_per_site", axpy_norm2 / v);
    out.put("grid.field.norm2_ns_per_site", norm2 / v);
    out.put("grid.field.canonical_norm2_ns_per_site", canonical / v);

    // The serial and the two-thread unit, and what the probes account for.
    let serial = serial_leg(h, "wilson_cg_f64", &mut cg_w, 3);
    let iterations = cg_w.check_unit().work / (2.0 * v);
    let threaded = unit_leg(h, "leg.wilson_cg_f64.unit", &mut cg_w);
    let serial_ns = serial.sample.norm_s * 1e9;
    // Per iteration one fused M†M and the two update sweeps; around the loop
    // two norms at entry and one more M†M with a fused subtract-and-norm for
    // the true residual.
    let dirac_ns = (iterations + 1.0) * mdagm;
    let field_ns = iterations * (cg_update + aypx) + 2.0 * norm2 + axpy_norm2;
    out.put("grid.solver.iterations", iterations);
    out.put("grid.solver.cg_serial_s", serial.sample.norm_s);
    out.put(
        "grid.solver.thread_speedup",
        serial.sample.norm_s / threaded.norm_s,
    );
    out.put("grid.dirac.share", dirac_ns / serial_ns);
    out.put("grid.field.share", field_ns / serial_ns);
    out.put(
        "grid.solver.accounted_frac",
        (dirac_ns + field_ns) / serial_ns,
    );
    out.serial.push(serial);

    // The batched operator at the farm's shape.
    let inputs = Inputs::from_seed(seed);
    let grid = FARM_CONFIG.grid();
    let op = WilsonDirac::new(random_gauge(grid.clone(), inputs.farm_gauge), MASS);
    const NRHS: usize = 16;
    let fields: Vec<FermionField> = (0..NRHS as u64)
        .map(|j| FermionField::random(grid.clone(), inputs.rhs.wrapping_add(j)))
        .collect();
    let psi = FermionBlock::from_fields(&fields);
    let mut tmp = FermionBlock::zero(grid.clone(), NRHS);
    let mut ap = FermionBlock::zero(grid, NRHS);
    let block = h.probe("probe.grid.dirac.mdag_m_block_into_dot", || {
        black_box(op.mdag_m_block_into_dot(&psi, &mut tmp, &mut ap).len());
    });
    out.put(
        "grid.dirac.block_ns_per_rhs_site",
        block / (NRHS as f64 * volume(&FARM_CONFIG.dims)),
    );
}

fn ledger_mixed(h: &mut Harness, seed: u64, scratch: &Path, out: &mut Ledger) {
    h.meter.set_threads(1);
    let mut ladder = Ladder::setup(seed, scratch);
    let serial = serial_leg(h, "ladder_f16", &mut ladder, 1);
    let outcome = ladder.check_unit();
    assert!(outcome.error.is_none(), "ladder leg: {:?}", outcome.error);
    let (report, _) = ladder.first.as_ref().expect("the leg ran");
    out.put("grid.mixed.outer_rounds", report.outer_iterations as f64);
    out.put("grid.mixed.f16_iters", report.f16_iterations as f64);
    out.put("grid.mixed.f32_iters", report.f32_iterations as f64);
    out.put(
        "grid.mixed.reliable_updates",
        report.reliable_updates as f64,
    );
    out.put("grid.mixed.tier_fallbacks", report.tier_fallbacks as f64);
    let (f32_report, f32_only) = h.timed("leg.ladder_f16.f32_only", || {
        ladder_solve(&ladder.op, &ladder.b, &LadderConfig::f32_only(TOL)).1
    });
    assert!(f32_report.converged, "the f32-only ladder converges");
    out.put("grid.mixed.f32_only_s", f32_only.norm_s);
    out.put(
        "grid.mixed.f16_over_f32_wall",
        serial.sample.norm_s / f32_only.norm_s,
    );
    out.serial.push(serial);

    let v = volume(&LADDER_DIMS);
    let g32 = Grid::<f32>::new(LADDER_DIMS, vl(), BACKEND);
    let g16 = Grid::<F16>::new(LADDER_DIMS, vl(), BACKEND);
    let mut f32_field = Field::zero(g32);
    let mut f16_field = Field::zero(g16);
    let down = h.probe("probe.grid.mixed.to_precision_into.f64_f32", || {
        to_precision_into(&ladder.b, &mut f32_field);
    });
    out.put("grid.mixed.to_precision_ns_per_site.f64_f32", down / v);
    let down = h.probe("probe.grid.mixed.to_precision_into.f32_f16", || {
        to_precision_into(&f32_field, &mut f16_field);
    });
    out.put("grid.mixed.to_precision_ns_per_site.f32_f16", down / v);
}

fn ledger_dist(h: &mut Harness, seed: u64, scratch: &Path, out: &mut Ledger) {
    let mut dist = DistCg::setup(seed, scratch);
    let serial = serial_leg(h, "dist_cg_r2", &mut dist, 1);
    h.meter.set_threads(DIST_RANKS);
    let (solved, r2) = h.timed("leg.dist_cg_r2.unit", || dist.session.solve());
    out.put("grid.dist.r1_s", serial.sample.norm_s);
    out.put(
        "grid.dist.strong_scaling_eff",
        serial.sample.norm_s / (DIST_RANKS as f64 * r2.norm_s),
    );
    out.serial.push(serial);
    let session = &dist.session;
    out.put(
        "grid.dist.boundary_frac",
        session.boundary as f64 / (session.interior + session.boundary) as f64,
    );
    assert!(
        solved.iter().all(|s| s.wire_ok),
        "wire bytes match the model"
    );
    out.put(
        "grid.comms.wire_bytes_per_sweep",
        solved[0].sent_bytes as f64 / solved[0].sweeps as f64,
    );
    let wait: u64 = solved.iter().map(|s| s.wait_ns).sum();
    let flight: u64 = solved.iter().map(|s| s.flight_ns).sum();
    out.put(
        "grid.comms.wait_frac",
        wait as f64 / (DIST_RANKS as f64 * r2.raw_s * 1e9),
    );
    out.put(
        "grid.comms.overlap_eff",
        (flight.saturating_sub(wait)) as f64 / flight as f64,
    );

    // Collective probes: every rank runs the batch, the harness times the
    // round trip (two channel hops on a batch of milliseconds).
    let local_sites = volume(&DIST_DIMS) / DIST_RANKS as f64;
    const HOPS: usize = 4;
    let hop = h.probe("probe.grid.dist.hopping_into", || {
        session.command(|| RankCmd::Hop(HOPS));
    });
    out.put("grid.dist.hop_ns_per_site", hop / HOPS as f64 / local_sites);
    const NORMS: usize = 64;
    let canon = h.probe("probe.grid.dist.canon_norm2", || {
        session.command(|| RankCmd::CanonNorm2(NORMS));
    });
    out.put("grid.dist.canon_norm2_us", canon / NORMS as f64 / 1e3);
    const BUILDS: usize = 4;
    let ghost = h.probe("probe.grid.dist.DistWilson.new", || {
        session.command(|| RankCmd::Ghost(BUILDS));
    });
    out.put("grid.dist.setup_ghost_ms", ghost / BUILDS as f64 / 1e6);

    // One fermion face of the local lattice through the wire codec.
    h.meter.set_threads(1);
    let face_scalars = 4 * 4 * 4 * grid::topology::FERMION_FACE_SCALARS;
    let face: Vec<f64> = (0..face_scalars).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut decoded = vec![0.0; face.len()];
    let codec = h.probe("probe.grid.comms.HaloMsg", || {
        HaloMsg::encode(black_box(&face), Compression::None).decode_into(&mut decoded);
    });
    out.put(
        "grid.comms.halo_codec_ns_per_byte",
        codec / (8 * face.len()) as f64,
    );
}

fn ledger_hmc(h: &mut Harness, seed: u64, scratch: &Path, out: &mut Ledger) {
    h.meter.set_threads(1);
    let mut hmc = Hmc::setup(seed, scratch);
    let serial = serial_leg(h, "hmc_quenched", &mut hmc, 3);
    let outcome = hmc.check_unit();
    assert!(outcome.error.is_none(), "hmc leg: {:?}", outcome.error);
    out.put("qcd-hmc.acceptance", hmc.chain.acceptance_rate());
    out.put(
        "qcd-hmc.plaquette",
        average_plaquette_fast(hmc.chain.links()),
    );

    let beta = HMC_PARAMS.beta;
    let mut u = hmc.chain.links().clone();
    let grid = u.grid().clone();
    let p = refresh_momenta(grid.clone(), Inputs::from_seed(seed).chain);
    let force_ns = h.probe("probe.qcd-hmc.force", || {
        black_box(force(&u, beta).data().len());
    });
    let action_ns = h.probe("probe.qcd-hmc.wilson_action", || {
        black_box(wilson_action(&u, beta));
    });
    let refresh_ns = h.probe("probe.qcd-hmc.refresh_momenta", || {
        black_box(refresh_momenta(grid.clone(), 7).data().len());
    });
    // A step so small that hundreds of drifts leave the links where they are.
    let update_ns = h.probe("probe.qcd-hmc.update_links", || {
        update_links(&mut u, &p, 1e-9)
    });
    out.put("qcd-hmc.force_ms", force_ns / 1e6);
    out.put("qcd-hmc.update_links_ms", update_ns / 1e6);
    out.put("qcd-hmc.action_ms", action_ns / 1e6);
    out.put("qcd-hmc.refresh_ms", refresh_ns / 1e6);
    // Omelyan: three kicks and two drifts a step; the Hamiltonian before
    // and after; one momentum refresh.
    let n = HMC_PARAMS.n_steps as f64;
    let unit_ns = serial.sample.norm_s * 1e9;
    out.put("qcd-hmc.force_share", 3.0 * n * force_ns / unit_ns);
    out.put(
        "qcd-hmc.accounted_frac",
        (3.0 * n * force_ns + 2.0 * n * update_ns + 2.0 * action_ns + refresh_ns) / unit_ns,
    );
    out.serial.push(serial);
}

fn ledger_io(h: &mut Harness, seed: u64, scratch: &Path, out: &mut Ledger) {
    h.meter.set_threads(1);
    let inputs = Inputs::from_seed(seed);
    // A chain checkpoint at the farm's shape, as a chunk boundary writes it.
    let grid = FARM_CONFIG.grid();
    let mut chain = MarkovChain::cold_start(grid.clone(), FARM_PARAMS, inputs.farm_streams[0]);
    chain.step();
    let dir = scratch.join("io");
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    let path = dir.join("probe.chain.qio");
    let bytes = chain.save(&path).expect("save a chain");
    out.put("qcd-io.chain_bytes", bytes as f64);
    let save = h.probe("probe.qcd-io.MarkovChain.save", || {
        chain.save(&path).expect("save a chain");
    });
    let load = h.probe("probe.qcd-io.MarkovChain.load", || {
        black_box(
            MarkovChain::load(&path, &grid)
                .expect("load a chain")
                .0
                .trajectory(),
        );
    });
    out.put("qcd-io.chain_save_ms", save / 1e6);
    out.put("qcd-io.chain_load_ms", load / 1e6);

    // The field codec alone: no file, no fsync.
    let grid = Grid::new(CG_DIMS, vl(), BACKEND);
    let u = random_gauge(grid.clone(), inputs.gauge);
    let meta = FieldMeta::of(&u, Precision::F64);
    let payload = encode_field(&u, Precision::F64);
    let encode = h.probe("probe.qcd-io.encode_field", || {
        black_box(encode_field(&u, Precision::F64).len());
    });
    let decode = h.probe("probe.qcd-io.decode_field", || {
        let field: GaugeField = decode_field(&meta, &payload, &grid, "probe").expect("decode");
        black_box(field.data().len());
    });
    out.put("qcd-io.encode_ns_per_byte", encode / payload.len() as f64);
    out.put("qcd-io.decode_ns_per_byte", decode / payload.len() as f64);
}

fn ledger_farm(h: &mut Harness, seed: u64, scratch: &Path, out: &mut Ledger) {
    let mut farm = FarmMix::setup(seed, scratch);
    // The direct leg in two spans, so the shares are measured, not inferred.
    h.meter.set_threads(1);
    rayon::set_num_threads(1);
    let grid = FARM_CONFIG.grid();
    let counters = grid.engine().ctx().counters();
    let before = counters.total();
    let ((), hmc) = h.timed("leg.farm_mix.direct.hmc", || direct_hmc(seed, &grid));
    let ((), solve) = h.timed("leg.farm_mix.direct.solve", || direct_solve(seed, &grid));
    let direct = Sample {
        raw_s: hmc.raw_s + solve.raw_s,
        norm_s: hmc.norm_s + solve.norm_s,
        cpu_s: hmc.cpu_s + solve.cpu_s,
        ref_s: (hmc.ref_s.0, solve.ref_s.1),
    };
    out.serial.push(SerialLeg {
        workload: "farm_mix",
        insts: counters.total() - before,
        sample: direct,
    });
    out.put("qcd-farm.direct_s", direct.norm_s);
    out.put("qcd-farm.hmc_share", hmc.norm_s / direct.norm_s);
    out.put("qcd-farm.solve_share", solve.norm_s / direct.norm_s);

    // One worker, then two, on the prepared mix.
    let jobs = || farm_jobs(seed, FARM_TRAJECTORIES, FARM_RHS as usize);
    let w1_dir = farm.root.join("w1");
    let w1_farm = open_and_submit(&w1_dir, jobs());
    let (_, w1) = h.timed("leg.farm_mix.w1", || drain(&w1_farm, 1));
    drop(w1_farm);
    h.meter.set_threads(FARM_WORKERS);
    let (prepared_dir, prepared) = farm.next.take().expect("set-up prepared a farm");
    let (units, w2) = h.timed("leg.farm_mix.unit", || drain(&prepared, FARM_WORKERS));
    let (_, busy_ns, ..) = prepared.worker_stats();
    drop(prepared);
    verify_dirs(&w1_dir, &prepared_dir).expect("one worker and two leave the same bytes");
    out.put("qcd-farm.units", units as f64);
    out.put(
        "qcd-farm.worker_util",
        busy_ns as f64 / (FARM_WORKERS as f64 * w2.raw_s * 1e9),
    );
    out.put("qcd-farm.w1_drain_s", w1.norm_s);
    out.put(
        "qcd-farm.worker_scaling_eff",
        w1.norm_s / (FARM_WORKERS as f64 * w2.norm_s),
    );
    out.put(
        "qcd-farm.service_overhead_frac",
        (w1.norm_s - direct.norm_s) / direct.norm_s,
    );

    // Submission (spec write and enqueue) and recovery (directory rescan).
    h.meter.set_threads(1);
    const SUBMITS: usize = 24;
    let submit_farm = Farm::open(&farm.root.join("submit"), FARM_CONFIG).expect("open a farm");
    let specs: Vec<JobSpec> = (0..SUBMITS)
        .map(|i| {
            let JobSpec::Hmc(mut spec) = jobs().swap_remove(0) else {
                unreachable!("the first job of the mix is a stream")
            };
            spec.name = format!("submit-{i}");
            JobSpec::Hmc(spec)
        })
        .collect();
    let ((), submit) = h.timed("probe.qcd-farm.Farm.submit", || {
        for spec in specs {
            submit_farm.submit(spec).expect("submit a stream");
        }
    });
    out.put("qcd-farm.submit_ms", submit.norm_s * 1e3 / SUBMITS as f64);
    let recover = h.probe("probe.qcd-farm.Farm.open", || {
        black_box(
            Farm::open(&w1_dir, FARM_CONFIG)
                .expect("reopen a drained farm")
                .all_done(),
        );
    });
    out.put("qcd-farm.recover_ms", recover / 1e6);
}

fn ledger_observability(h: &mut Harness, out: &mut Ledger) {
    h.meter.set_threads(1);
    out.put(
        "qcd-trace.span_ns",
        h.probe("probe.qcd-trace.span", || {
            black_box(qcd_trace::span!("stackbench.probe").finish().wall_ns);
        }),
    );
    out.put(
        "qcd-metrics.event_ns",
        h.probe("probe.qcd-metrics.record_event", || {
            qcd_metrics::record_event("stackbench", "probe", &[("value", 1.0)]);
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(Inputs::from_seed(7), Inputs::from_seed(7));
        let (a, b) = (Inputs::from_seed(7), Inputs::from_seed(8));
        assert_ne!(a.gauge, b.gauge);
        assert_ne!(a.rhs, b.rhs);
        assert_ne!(a.chain, b.chain);
        assert_ne!(a.farm_rhs, b.farm_rhs);
        // The derived seeds of one benchmark seed are distinct streams.
        let mut all = vec![a.gauge, a.rhs, a.chain, a.farm_gauge];
        all.extend(a.farm_streams);
        all.extend(&a.farm_rhs);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn same_seed_generates_bit_identical_fields() {
        let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (op_a, b_a) = wilson_problem(11, LADDER_DIMS);
        let (op_b, b_b) = wilson_problem(11, LADDER_DIMS);
        assert_eq!(bits(b_a.data()), bits(b_b.data()));
        assert_eq!(bits(op_a.gauge().data()), bits(op_b.gauge().data()));
        let (_, b_c) = wilson_problem(12, LADDER_DIMS);
        assert_ne!(bits(b_a.data()), bits(b_c.data()));
    }

    #[test]
    fn farm_mix_has_the_declared_number_of_work_units() {
        let jobs = farm_jobs(3, FARM_TRAJECTORIES, FARM_RHS as usize);
        assert_eq!(jobs.len(), FARM_STREAMS + 1);
        assert_eq!(FARM_UNITS, 5);
    }
}
