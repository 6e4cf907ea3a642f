//! The farm scheduler: a worker pool draining the priority queue of
//! checkpointable work units, with cooperative preemption and crash
//! recovery.
//!
//! # State machine
//!
//! Jobs move `Pending → Running → Done`; the unit of scheduling is never a
//! whole job but a *checkpointable chunk* of one:
//!
//! * an **HMC stream** is a sequence of `HmcChunk` units. Exactly one unit
//!   per stream is in flight at a time (two workers must never touch the
//!   same chain); each unit loads the chain from its checkpoint, advances
//!   up to `chunk` trajectories behind the paper-stack determinism
//!   guarantees, snapshots at the boundary, and — if trajectories remain —
//!   enqueues the stream's next unit.
//! * a **solve burst** is split by [`plan_batches`] into independent
//!   `SolveBatch` units that may run concurrently; each coalesces its
//!   requests into one `FermionBlock` dispatch and demultiplexes the
//!   per-request results (bit-identical to solo solves, so the batch shape
//!   is invisible in the answers).
//!
//! # Preemption
//!
//! Every running worker exposes an [`AtomicBool`] yield flag. When a unit
//! is pushed while all workers are busy, the scheduler raises the flag of
//! the lowest-priority running slot strictly below the new unit's
//! priority. An HMC chunk polls the flag at trajectory boundaries (the
//! [`qcd_hmc::MarkovChain::run_trajectories`] contract), checkpoints, and
//! re-enqueues its remainder — so preemption never loses an accepted
//! trajectory and never changes chain results. Solve batches are the
//! preemption granularity for solve jobs (they are short and run to
//! completion).
//!
//! # Crash recovery
//!
//! The farm directory is the only durable state: spec files
//! (`<name>.job.qio`), chain checkpoints (`<name>.chain.qio`), and result
//! digests (`<name>.done.qio`). [`Farm::open`] rescans it with
//! [`qcd_io::scan_checkpoints`], deletes torn `*.tmp` debris, and
//! re-enqueues every spec without a digest — streams resume from their
//! last checkpoint, solve bursts re-run from spec (deterministic, so the
//! re-run reproduces the lost results exactly). A `kill -9` therefore
//! costs at most the trajectories since the last chunk boundary, and the
//! recovered run's chain and digest files are byte-identical to an
//! uninterrupted run's.

use crate::batch::plan_batches;
use crate::job::{
    read_done, read_spec, write_done, write_spec, DoneDigest, FarmConfig, JobPaths, JobSpec,
    Priority, RequestDigest,
};
use crate::queue::{UnitPayload, WorkQueue, WorkUnit};
use grid::krylov::{cg_solve, no_observer, Start, Vector};
use grid::prelude::*;
use grid::requests::{coalesce, demux, SolveRequest};
use qcd_hmc::{average_plaquette_fast, MarkovChain};
use qcd_io::{scan_checkpoints, CheckpointKind, IoError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lifecycle of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (or for its next chunk to be picked up).
    Pending,
    /// At least one of its units is executing right now.
    Running,
    /// Digest written; nothing left to do.
    Done,
}

impl JobState {
    /// Stable lowercase name for status output.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// Bookkeeping for one job.
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Trajectories done (streams) or requests answered (solves).
    progress: u64,
    /// Per-request digests collected so far (solve jobs only).
    results: Vec<Option<RequestDigest>>,
}

/// A worker slot visible to the preemption logic.
struct Slot {
    priority: Priority,
    yield_flag: Arc<AtomicBool>,
}

/// Point-in-time public view of one job, for the status surface.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Job name.
    pub name: String,
    /// `"hmc-stream"` or `"solve"`.
    pub kind: &'static str,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: Priority,
    /// Progress units completed.
    pub progress: u64,
    /// Progress units at completion.
    pub target: u64,
}

/// Counters a finished (or stopped) [`Farm::run`] hands back.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunReport {
    /// Work units executed to completion.
    pub units: u64,
    /// Preemptions performed (yield flags honoured by a running chunk).
    pub preemptions: u64,
    /// True when the run ended on the stop flag rather than on drain.
    pub stopped: bool,
}

/// The job service: queue, worker coordination, and durable state rooted
/// in one directory.
pub struct Farm {
    cfg: FarmConfig,
    dir: PathBuf,
    queue: WorkQueue,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    slots: Mutex<Vec<Option<Slot>>>,
    /// Units queued or executing; at zero the queue closes and `run`
    /// drains out.
    outstanding: AtomicU64,
    busy_ns: AtomicU64,
    units_done: AtomicU64,
    preemptions: AtomicU64,
    workers: AtomicU64,
    run_started: Mutex<Option<Instant>>,
}

impl Farm {
    /// Open (or create) a farm rooted at `dir`, recovering every job the
    /// directory already holds: specs without a digest are re-enqueued,
    /// streams resume from their chain checkpoints, stale `*.tmp` debris
    /// is deleted. Spec files whose embedded lattice differs from `cfg`
    /// are an error — mixing geometries in one farm is never intended.
    pub fn open(dir: &Path, cfg: FarmConfig) -> Result<Farm, IoError> {
        std::fs::create_dir_all(dir).map_err(IoError::Io)?;
        let farm = Farm {
            cfg,
            dir: dir.to_path_buf(),
            queue: WorkQueue::new(),
            jobs: Mutex::new(BTreeMap::new()),
            slots: Mutex::new(Vec::new()),
            outstanding: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            units_done: AtomicU64::new(0),
            preemptions: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            run_started: Mutex::new(None),
        };
        farm.recover()?;
        Ok(farm)
    }

    /// The lattice configuration every job runs on.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// The durable-state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn recover(&self) -> Result<(), IoError> {
        let report = scan_checkpoints(&self.dir)?;
        for tmp in &report.stale_tmp {
            std::fs::remove_file(tmp).ok();
        }
        // Chain progress by job name, from validated chain checkpoints.
        let mut chain_progress: BTreeMap<String, u64> = BTreeMap::new();
        for entry in &report.entries {
            if entry.kind == CheckpointKind::HmcChain && entry.crc_valid {
                if let Some(name) = entry.job_id.strip_suffix(".chain") {
                    chain_progress.insert(name.to_string(), entry.progress);
                }
            }
        }
        for entry in &report.entries {
            if entry.kind != CheckpointKind::Other(crate::job::JOB_RECORD.to_string())
                || !entry.crc_valid
            {
                continue;
            }
            let (spec_cfg, spec) = read_spec(&entry.path)?;
            if spec_cfg != self.cfg {
                return Err(IoError::BadRecord {
                    record: crate::job::JOB_RECORD.to_string(),
                    msg: format!(
                        "spec `{}` was written for a different lattice configuration",
                        spec.name()
                    ),
                });
            }
            let name = spec.name().to_string();
            let done_path = JobPaths::done(&self.dir, &name);
            let done = done_path.exists() && read_done(&done_path).is_ok();
            let progress = if done {
                spec.target()
            } else {
                *chain_progress.get(&name).unwrap_or(&0)
            };
            qcd_trace::counter("farm.jobs.recovered").inc();
            qcd_trace::record_event(
                "farm.recover",
                &name,
                &[
                    ("progress", progress as f64),
                    ("done", if done { 1.0 } else { 0.0 }),
                ],
            );
            self.track(
                spec.clone(),
                if done {
                    JobState::Done
                } else {
                    JobState::Pending
                },
                progress,
            );
            if !done {
                self.enqueue_job(&spec);
            }
        }
        Ok(())
    }

    fn track(&self, spec: JobSpec, state: JobState, progress: u64) {
        let results = match &spec {
            JobSpec::Solve(s) => vec![None; s.rhs_seeds.len()],
            JobSpec::Hmc(_) => Vec::new(),
        };
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.insert(
            spec.name().to_string(),
            JobEntry {
                spec,
                state,
                progress,
                results,
            },
        );
    }

    /// Enqueue the schedulable units of a (new or recovered) job.
    fn enqueue_job(&self, spec: &JobSpec) {
        match spec {
            JobSpec::Hmc(s) => {
                self.push_unit(
                    s.name.clone(),
                    s.priority,
                    UnitPayload::HmcChunk { count: s.chunk },
                );
            }
            JobSpec::Solve(s) => {
                let mut next = 0;
                for width in plan_batches(s.rhs_seeds.len()) {
                    self.push_unit(
                        s.name.clone(),
                        s.priority,
                        UnitPayload::SolveBatch {
                            indices: (next..next + width).collect(),
                        },
                    );
                    next += width;
                }
            }
        }
    }

    fn push_unit(&self, job: String, priority: Priority, payload: UnitPayload) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let seq = self.queue.push(job.clone(), priority, payload);
        qcd_trace::record_event("farm.schedule", &job, &[("seq", seq as f64)]);
        self.maybe_preempt(priority);
    }

    /// If every worker is busy and one of them runs lower-priority work,
    /// ask the lowest-priority such slot to yield at its next checkpoint
    /// boundary.
    fn maybe_preempt(&self, incoming: Priority) {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if slots.is_empty() || slots.iter().any(|s| s.is_none()) {
            return; // an idle worker will pick the unit up directly
        }
        let victim = slots
            .iter()
            .flatten()
            .filter(|s| s.priority < incoming && !s.yield_flag.load(Ordering::SeqCst))
            .min_by_key(|s| s.priority);
        if let Some(v) = victim {
            let _span = qcd_trace::span!("farm.preempt");
            v.yield_flag.store(true, Ordering::SeqCst);
            qcd_trace::counter("farm.preempt").inc();
        }
    }

    /// Submit a job: persist its spec, then enqueue its units. Rejects
    /// duplicate names (the name is the durable identity).
    pub fn submit(&self, spec: JobSpec) -> Result<(), IoError> {
        spec.validate_name()?;
        {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            if jobs.contains_key(spec.name()) {
                return Err(IoError::BadRecord {
                    record: crate::job::JOB_RECORD.to_string(),
                    msg: format!("job `{}` already exists", spec.name()),
                });
            }
        }
        write_spec(&self.dir, &self.cfg, &spec)?;
        qcd_trace::counter("farm.jobs.submitted").inc();
        self.track(spec.clone(), JobState::Pending, 0);
        self.enqueue_job(&spec);
        Ok(())
    }

    /// Raise the stop flag "properly": mark it, ask every running chunk to
    /// yield at its next trajectory boundary (each will checkpoint), and
    /// wake blocked workers. Never loses an accepted trajectory.
    pub fn request_stop(&self, stop: &AtomicBool) {
        stop.store(true, Ordering::SeqCst);
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        for slot in slots.iter().flatten() {
            slot.yield_flag.store(true, Ordering::SeqCst);
        }
        drop(slots);
        self.queue.kick();
    }

    /// Run `workers` threads until the queue drains, `stop` is raised, or
    /// `max_units` work units have executed (the deterministic
    /// "interrupted service" lever the recovery tests use).
    pub fn run(
        &self,
        workers: usize,
        stop: &AtomicBool,
        max_units: Option<u64>,
    ) -> Result<RunReport, IoError> {
        assert!(workers >= 1, "the farm needs at least one worker");
        self.workers.store(workers as u64, Ordering::SeqCst);
        *self.run_started.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
        {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.clear();
            slots.resize_with(workers, || None);
        }
        if self.outstanding.load(Ordering::SeqCst) == 0 {
            self.queue.close();
        }
        let budget = AtomicU64::new(max_units.unwrap_or(u64::MAX));
        let preempt_base = self.preemptions.load(Ordering::SeqCst);
        let first_error: Mutex<Option<IoError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let budget = &budget;
                let first_error = &first_error;
                scope.spawn(move || {
                    while let Some(unit) = self.next_unit(w, stop, budget) {
                        let t0 = Instant::now();
                        let result = self.execute(w, &unit, stop);
                        self.busy_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                        self.clear_slot(w);
                        if let Err(e) = result {
                            eprintln!("farm: unit for job `{}` failed: {e}", unit.job);
                            qcd_trace::counter("farm.unit.errors").inc();
                            let mut slot = first_error.lock().unwrap_or_else(|e| e.into_inner());
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            self.request_stop(stop);
                        }
                        self.units_done.fetch_add(1, Ordering::SeqCst);
                        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                            self.queue.close();
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.lock().unwrap_or_else(|e| e.into_inner()).take() {
            return Err(e);
        }
        Ok(RunReport {
            units: self.units_done.load(Ordering::SeqCst),
            preemptions: self.preemptions.load(Ordering::SeqCst) - preempt_base,
            stopped: stop.load(Ordering::SeqCst),
        })
    }

    /// Pop the next unit and claim this worker's slot for it.
    fn next_unit(&self, worker: usize, stop: &AtomicBool, budget: &AtomicU64) -> Option<WorkUnit> {
        // A zero budget behaves like SIGTERM: stop the whole pool so the
        // cut is deterministic under a single worker.
        if budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_err()
        {
            self.request_stop(stop);
            return None;
        }
        let _span = qcd_trace::span!("farm.schedule");
        let unit = self.queue.pop(stop)?;
        let yield_flag = Arc::new(AtomicBool::new(false));
        {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots[worker] = Some(Slot {
                priority: unit.priority,
                yield_flag: yield_flag.clone(),
            });
        }
        self.set_state(&unit.job, JobState::Running);
        Some(unit)
    }

    fn clear_slot(&self, worker: usize) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots[worker] = None;
    }

    fn set_state(&self, name: &str, state: JobState) {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = jobs.get_mut(name) {
            if entry.state != JobState::Done {
                entry.state = state;
            }
        }
    }

    fn yield_flag_of(&self, worker: usize) -> Arc<AtomicBool> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots[worker]
            .as_ref()
            .map(|s| s.yield_flag.clone())
            .expect("executing worker owns a slot")
    }

    fn execute(&self, worker: usize, unit: &WorkUnit, stop: &AtomicBool) -> Result<(), IoError> {
        match &unit.payload {
            UnitPayload::HmcChunk { count } => self.run_hmc_chunk(worker, unit, *count, stop),
            UnitPayload::SolveBatch { indices } => self.run_solve_batch(unit, indices),
        }
    }

    fn run_hmc_chunk(
        &self,
        worker: usize,
        unit: &WorkUnit,
        count: u64,
        stop: &AtomicBool,
    ) -> Result<(), IoError> {
        let spec = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            match &jobs.get(&unit.job).expect("queued job is tracked").spec {
                JobSpec::Hmc(s) => s.clone(),
                JobSpec::Solve(_) => unreachable!("HmcChunk queued for a solve job"),
            }
        };
        let grid = self.cfg.grid();
        let chain_path = JobPaths::chain(&self.dir, &spec.name);
        let mut chain = if chain_path.exists() {
            MarkovChain::load(&chain_path, &grid)?.0
        } else {
            MarkovChain::cold_start(grid, spec.params, spec.seed)
        };
        let remaining = spec.trajectories.saturating_sub(chain.trajectory());
        let k = remaining.min(count) as usize;
        let yield_flag = self.yield_flag_of(worker);
        let outcome = chain.run_trajectories(k, &yield_flag, Some(&chain_path))?;
        let trajectory = chain.trajectory();
        {
            let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = jobs.get_mut(&unit.job) {
                entry.progress = trajectory;
            }
        }
        let preempted = outcome.stopped && !stop.load(Ordering::SeqCst);
        if preempted {
            self.preemptions.fetch_add(1, Ordering::SeqCst);
            qcd_trace::record_event(
                "farm.preempt",
                &unit.job,
                &[("trajectory", trajectory as f64)],
            );
        }
        if trajectory >= spec.trajectories {
            let accepted = chain.accept_history().iter().filter(|&&a| a).count() as u64;
            write_done(
                &self.dir,
                &spec.name,
                &DoneDigest::Hmc {
                    trajectory,
                    plaquette_bits: average_plaquette_fast(chain.links()).to_bits(),
                    accepted,
                },
            )?;
            self.finish(&unit.job);
        } else if !stop.load(Ordering::SeqCst) {
            // Chain the stream's next unit (also covers the preempted
            // remainder). On stop, recovery re-enqueues from the
            // checkpoint instead.
            self.set_state(&unit.job, JobState::Pending);
            self.push_unit(
                unit.job.clone(),
                unit.priority,
                UnitPayload::HmcChunk { count: spec.chunk },
            );
        }
        Ok(())
    }

    fn run_solve_batch(&self, unit: &WorkUnit, indices: &[usize]) -> Result<(), IoError> {
        let spec = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            match &jobs.get(&unit.job).expect("queued job is tracked").spec {
                JobSpec::Solve(s) => s.clone(),
                JobSpec::Hmc(_) => unreachable!("SolveBatch queued for an HMC job"),
            }
        };
        let grid = self.cfg.grid();
        let span = qcd_trace::span!("farm.batch", grid.engine().ctx());
        qcd_trace::histogram("farm.batch.fill").record(indices.len() as u64);
        qcd_trace::record_event("farm.batch", &unit.job, &[("nrhs", indices.len() as f64)]);
        let op = WilsonDirac::new(random_gauge(grid.clone(), spec.gauge_seed), spec.mass);
        let requests: Vec<SolveRequest> = indices
            .iter()
            .map(|&i| SolveRequest {
                id: i as u64,
                rhs: FermionField::random(grid.clone(), spec.rhs_seeds[i]),
            })
            .collect();
        // One coalesced block, solved by one CG from zero or from the Galerkin
        // guess of a shared low-mode subspace (the `defl.*` checkpoint,
        // validated against this job's lattice and mass); each outcome stays
        // bit-identical to a standalone solve of its RHS.
        let subspace = spec.subspace.as_ref().map(|stem| {
            qcd_deflate::Subspace::load(&JobPaths::subspace(&self.dir, stem), &grid, spec.mass)
        });
        let subspace = subspace.transpose()?;
        let block = coalesce(&requests);
        let solve = qcd_trace::span!("solver.requests", grid.engine().ctx());
        qcd_trace::histogram("solver.requests.batch_fill").record(requests.len() as u64);
        let (name, region) = match &subspace {
            None => ("solver.block_cg", "solver.block_cg"),
            Some(_) => ("solver.deflate", "solver.defl_block_cg"),
        };
        let span_cg = qcd_trace::span!(name, grid.engine().ctx());
        let start = subspace.map_or(Start::Zero, |sub| {
            Start::Guess(qcd_deflate::galerkin_guess(&sub, spec.mass, &block))
        });
        let (x, rep) = cg_solve(
            &mut op.normal(&mut block.zero_like()),
            &block,
            start,
            spec.tol,
            spec.max_iter as usize,
            span_cg,
            region,
            no_observer,
        );
        drop(solve);
        let outcomes = demux(&requests, &x, &rep);
        drop(span);
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let entry = jobs.get_mut(&unit.job).expect("queued job is tracked");
        for out in outcomes {
            entry.results[out.id as usize] = Some(RequestDigest {
                index: out.id,
                iterations: out.report.iterations as u64,
                residual_bits: out.report.residual.to_bits(),
                norm2_bits: out.solution.norm2().to_bits(),
            });
        }
        entry.progress = entry.results.iter().flatten().count() as u64;
        let complete = entry.progress == spec.rhs_seeds.len() as u64;
        let digest =
            complete.then(|| DoneDigest::Solve(entry.results.iter().flatten().cloned().collect()));
        drop(jobs);
        if let Some(digest) = digest {
            write_done(&self.dir, &spec.name, &digest)?;
            self.finish(&unit.job);
        }
        Ok(())
    }

    fn finish(&self, name: &str) {
        {
            let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = jobs.get_mut(name) {
                entry.state = JobState::Done;
            }
        }
        qcd_trace::counter("farm.jobs.completed").inc();
        qcd_trace::record_event("farm.done", name, &[]);
    }

    /// Point-in-time views of every tracked job, name-sorted.
    pub fn job_views(&self) -> Vec<JobView> {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.iter()
            .map(|(name, e)| JobView {
                name: name.clone(),
                kind: e.spec.kind_name(),
                state: e.state,
                priority: e.spec.priority(),
                progress: e.progress,
                target: e.spec.target(),
            })
            .collect()
    }

    /// Units waiting at each priority level, `[low, normal, high]`.
    pub fn queue_depths(&self) -> [usize; 3] {
        self.queue.depths()
    }

    /// `(workers, busy_ns, wall_ns, units, preemptions)` for the status
    /// surface. Utilization = `busy / (workers × wall)`.
    pub fn worker_stats(&self) -> (u64, u64, u64, u64, u64) {
        let wall = self
            .run_started
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        (
            self.workers.load(Ordering::SeqCst),
            self.busy_ns.load(Ordering::SeqCst),
            wall,
            self.units_done.load(Ordering::SeqCst),
            self.preemptions.load(Ordering::SeqCst),
        )
    }

    /// True when every tracked job reached [`JobState::Done`].
    pub fn all_done(&self) -> bool {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.values().all(|e| e.state == JobState::Done)
    }
}

/// Byte-compare the durable results (`*.chain.qio`, `*.done.qio`) of two
/// farm directories — the recovery acceptance check. Container writes are
/// deterministic, so equal state means equal bytes; any difference, extra
/// file, or missing file is reported.
pub fn verify_dirs(a: &Path, b: &Path) -> Result<(), String> {
    let list = |dir: &Path| -> Result<Vec<String>, String> {
        let mut names = Vec::new();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".chain.qio") || name.ends_with(".done.qio") {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    };
    let (names_a, names_b) = (list(a)?, list(b)?);
    if names_a != names_b {
        return Err(format!(
            "result sets differ: {} has {names_a:?}, {} has {names_b:?}",
            a.display(),
            b.display()
        ));
    }
    for name in &names_a {
        let read = |dir: &Path| {
            std::fs::read(dir.join(name))
                .map_err(|e| format!("read {name} in {}: {e}", dir.display()))
        };
        if read(a)? != read(b)? {
            return Err(format!("`{name}` differs between the two runs"));
        }
    }
    Ok(())
}
