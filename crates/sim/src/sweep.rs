//! The parallel sweep engine: runs many independent simulations across OS
//! threads and collects results deterministically.
//!
//! The paper's evaluation is a cross-product of
//! {workload × recorder variant × coherence mode × machine config}, and
//! each cell is an independent, deterministic, single-threaded simulation.
//! That shape parallelizes perfectly: [`run_sweep`] spreads a job list
//! over `workers` OS threads via a shared work queue (an atomic cursor —
//! no channels, no external crates), while each [`JobOutput`] lands in the
//! slot keyed by its job index.
//!
//! **Determinism guarantee:** a job's result depends only on the job
//! description — never on which worker ran it, in what order, or how many
//! workers exist. [`SweepReport::outputs`] is always sorted by job index,
//! so the report (interval logs, metrics counters, everything except the
//! wall-clock [`PhaseNanos`]) is bit-identical for any worker count. The
//! `sweep_determinism` integration test pins this down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rr_isa::{MemImage, Program};
use rr_replay::{patch, replay, verify, CostModel, PatchedLog, ReplayOutcome};

use crate::config::{MachineConfig, RecorderSpec};
use crate::logdir::LogDirError;
use crate::machine::{PressureReport, RunOptions, RunResult, SimError};
use crate::metrics::{self, MetricsRegistry, PhaseNanos};
use crate::session::RecordSession;

/// Whether (and how) a sweep job replays what it recorded.
#[derive(Clone, Debug)]
pub enum ReplayPolicy {
    /// Record only.
    Skip,
    /// Replay every variant with this cost model.
    Fixed(CostModel),
    /// Replay every variant, scaling the model's replay IPC to the
    /// recorded execution's per-core IPC times `headroom` (native replay
    /// re-executes with warm caches and no contention, so it is at least
    /// as fast as the recorded cores — the experiment harness's policy).
    AdaptiveIpc {
        /// The baseline cost model (its `replay_ipc` is the floor).
        base: CostModel,
        /// Multiplier over the recorded per-core IPC.
        headroom: f64,
    },
}

/// One independent simulation in a sweep.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// Human-readable identity (ends up in reports and JSONL sidecars).
    pub name: String,
    /// One program per thread.
    pub programs: Vec<Program>,
    /// Initial shared memory.
    pub initial_mem: MemImage,
    /// The machine to run on.
    pub machine: MachineConfig,
    /// Recorder configurations to attach (the general form; the ablation
    /// studies sweep fields [`RecorderSpec`] cannot express).
    pub recorders: Vec<relaxreplay::RecorderConfig>,
    /// Replay-and-verify policy.
    pub replay: ReplayPolicy,
    /// Schedule perturbation and recorder pressure (default: none — the
    /// plain machine).
    pub options: RunOptions,
}

impl SweepJob {
    /// A job recording under the given paper-matrix variants.
    #[must_use]
    pub fn from_specs(
        name: impl Into<String>,
        programs: Vec<Program>,
        initial_mem: MemImage,
        machine: MachineConfig,
        specs: &[RecorderSpec],
        replay: ReplayPolicy,
    ) -> Self {
        SweepJob {
            name: name.into(),
            programs,
            initial_mem,
            machine,
            recorders: specs.iter().map(RecorderSpec::recorder_config).collect(),
            replay,
            options: RunOptions::default(),
        }
    }
}

/// Everything one job produced.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Index of the job in the submitted list.
    pub job: usize,
    /// The job's name.
    pub name: String,
    /// The recorded run (per-variant logs, stats, ground truth).
    pub run: RunResult,
    /// Replay outcomes, parallel to `run.variants` (empty under
    /// [`ReplayPolicy::Skip`]).
    pub replays: Vec<ReplayOutcome>,
    /// What the job's injected pressure (if any) actually did.
    pub pressure: PressureReport,
    /// Deterministic counters and histograms for this run.
    pub metrics: MetricsRegistry,
    /// Host wall-clock per phase (not deterministic; excluded from
    /// determinism comparisons).
    pub phases: PhaseNanos,
}

impl JobOutput {
    /// Renders this output as one JSONL line (identity + metrics +
    /// phase timings).
    #[must_use]
    pub fn jsonl_line(&self) -> String {
        metrics::jsonl_object(&self.name, self.job, &self.metrics, &self.phases)
    }
}

/// The result of a whole sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One output per job, sorted by job index — bit-identical regardless
    /// of worker count (wall-clock fields aside).
    pub outputs: Vec<JobOutput>,
    /// Workers the sweep ran with.
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole sweep.
    pub wall_ns: u64,
}

impl SweepReport {
    /// All outputs rendered as JSONL, one line per job.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outputs {
            out.push_str(&o.jsonl_line());
            out.push('\n');
        }
        out
    }

    /// Saves every job's recorded run under `dir` as `.rrlog` files plus
    /// ground-truth sidecars (see [`crate::logdir`]), keyed by job name.
    /// Returns the total `.rrlog` bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`LogDirError`] on the first job that fails to save.
    pub fn save_logs(&self, dir: &std::path::Path) -> Result<u64, LogDirError> {
        let mut bytes = 0u64;
        for o in &self.outputs {
            bytes += crate::logdir::save_run(dir, &o.name, &o.run)?;
        }
        Ok(bytes)
    }

    /// Saves every job's recorded run into `store` (local directory or
    /// remote rr-serve backend), keyed by job name. Returns the total
    /// logical `.rrlog` bytes encoded.
    ///
    /// # Errors
    ///
    /// Returns [`crate::store::StoreError`] on the first job that fails
    /// to save.
    pub fn save_to(
        &self,
        store: &dyn crate::store::RunStore,
    ) -> Result<u64, crate::store::StoreError> {
        let mut bytes = 0u64;
        for o in &self.outputs {
            bytes += store.save_run(&o.name, &o.run)?;
        }
        Ok(bytes)
    }
}

/// A sweep failure, attributed to the job that caused it.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The simulation itself failed.
    Sim {
        /// Failing job index.
        job: usize,
        /// Failing job name.
        name: String,
        /// The underlying error.
        err: SimError,
    },
    /// A variant failed to patch, replay, or verify — a determinism bug.
    Replay {
        /// Failing job index.
        job: usize,
        /// Failing job name.
        name: String,
        /// Label of the failing variant.
        variant: String,
        /// Description of the failure.
        msg: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Sim { job, name, err } => {
                write!(f, "job {job} ({name}): {err}")
            }
            SweepError::Replay {
                job,
                name,
                variant,
                msg,
            } => write!(f, "job {job} ({name}) [{variant}]: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The worker count to use when the caller does not care: the host's
/// available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_job(job: usize, j: &SweepJob) -> Result<JobOutput, SweepError> {
    let mut phases = PhaseNanos::default();

    let t = Instant::now();
    let (run, pressure) = RecordSession::new(&j.programs, &j.initial_mem)
        .config(&j.machine)
        .recorder_configs(&j.recorders)
        .options(&j.options)
        .run_reported()
        .map_err(|err| SweepError::Sim {
            job,
            name: j.name.clone(),
            err,
        })?;
    phases.record = t.elapsed().as_nanos() as u64;

    let cost = match &j.replay {
        ReplayPolicy::Skip => None,
        ReplayPolicy::Fixed(c) => Some(*c),
        ReplayPolicy::AdaptiveIpc { base, headroom } => {
            let active = run
                .core_stats
                .iter()
                .filter(|s| s.active_cycles > 0)
                .count()
                .max(1);
            let per_core_ipc = run.total_instrs() as f64 / run.cycles.max(1) as f64 / active as f64;
            Some(CostModel {
                replay_ipc: (per_core_ipc * headroom).max(base.replay_ipc),
                ..*base
            })
        }
    };

    let mut replays = Vec::new();
    if let Some(cost) = cost {
        for v in &run.variants {
            let fail = |msg: String| SweepError::Replay {
                job,
                name: j.name.clone(),
                variant: v.spec.label(),
                msg,
            };
            let t = Instant::now();
            let patched: Vec<PatchedLog> = v
                .logs
                .iter()
                .map(patch)
                .collect::<Result<_, _>>()
                .map_err(|e| fail(format!("patch failed: {e}")))?;
            phases.patch += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let outcome = replay(&j.programs, &patched, j.initial_mem.clone(), &cost)
                .map_err(|e| fail(format!("replay failed: {e}")))?;
            phases.replay += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            verify(&run.recorded, &outcome)
                .map_err(|e| fail(format!("verification failed: {e}")))?;
            phases.verify += t.elapsed().as_nanos() as u64;
            replays.push(outcome);
        }
    }

    let metrics = metrics::run_metrics(&run);
    Ok(JobOutput {
        job,
        name: j.name.clone(),
        run,
        replays,
        pressure,
        metrics,
        phases,
    })
}

/// Runs every job, spreading work over `workers` OS threads (clamped to
/// the job count; 0 means [`default_workers`]).
///
/// # Errors
///
/// Returns the failure of the lowest-indexed failing job — deterministic
/// even when several jobs fail under different worker interleavings.
pub fn run_sweep(jobs: &[SweepJob], workers: usize) -> Result<SweepReport, SweepError> {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(jobs.len().max(1));
    let wall = Instant::now();

    let slots: Vec<Mutex<Option<Result<JobOutput, SweepError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    // A worker panic (e.g. an assert inside the simulator) must name the
    // workload that died, not surface as a bare thread-join error; catch
    // it per job and re-raise the lowest-indexed one after the scope.
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_job(i, &jobs[i])
                })) {
                    Ok(out) => *slots[i].lock().expect("sweep slot poisoned") = Some(out),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(ToString::to_string)
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        panics.lock().expect("panic list poisoned").push((i, msg));
                    }
                }
            });
        }
    });

    let mut panics = panics.into_inner().expect("panic list poisoned");
    if let Some((i, msg)) = {
        panics.sort_by_key(|&(i, _)| i);
        panics.into_iter().next()
    } {
        panic!("sweep job {i} ({}) panicked: {msg}", jobs[i].name);
    }

    let mut outputs = Vec::with_capacity(jobs.len());
    for slot in slots {
        let out = slot
            .into_inner()
            .expect("sweep slot poisoned")
            .expect("every job index below the cursor was executed");
        outputs.push(out?);
    }
    Ok(SweepReport {
        outputs,
        workers,
        wall_ns: wall.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_isa::{ProgramBuilder, Reg};

    fn tiny_job(name: &str, value: i64) -> SweepJob {
        let mut b = ProgramBuilder::new();
        b.load_imm(Reg::new(1), 0x100);
        b.load_imm(Reg::new(2), value);
        b.store(Reg::new(2), Reg::new(1), 0);
        b.halt();
        SweepJob::from_specs(
            name,
            vec![b.build()],
            MemImage::new(),
            MachineConfig::splash_default(1),
            &RecorderSpec::paper_matrix(),
            ReplayPolicy::Fixed(CostModel::splash_default()),
        )
    }

    #[test]
    fn sweep_runs_all_jobs_in_order() {
        let jobs: Vec<SweepJob> = (0..5).map(|i| tiny_job(&format!("j{i}"), i)).collect();
        let report = run_sweep(&jobs, 3).expect("sweep succeeds");
        assert_eq!(report.outputs.len(), 5);
        for (i, o) in report.outputs.iter().enumerate() {
            assert_eq!(o.job, i);
            assert_eq!(o.name, format!("j{i}"));
            assert_eq!(o.replays.len(), o.run.variants.len());
            assert_eq!(
                o.run.recorded.final_mem.load(0x100),
                i as u64,
                "job {i} stored its own index"
            );
        }
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        let jobs = vec![tiny_job("only", 9)];
        let report = run_sweep(&jobs, 0).expect("sweep succeeds");
        assert_eq!(report.workers, 1, "clamped to the job count");
    }

    #[test]
    fn sweep_errors_name_the_job() {
        let mut bad = tiny_job("bad", 1);
        bad.machine.max_cycles = 1; // guaranteed deadlock
        let jobs = vec![tiny_job("good", 0), bad];
        let err = run_sweep(&jobs, 2).expect_err("deadlocks");
        match err {
            SweepError::Sim { job, name, .. } => {
                assert_eq!(job, 1);
                assert_eq!(name, "bad");
            }
            SweepError::Replay { .. } => panic!("expected a sim error"),
        }
    }

    #[test]
    fn worker_panics_name_the_workload() {
        // Opt with a non-power-of-two Snoop Table size asserts inside
        // SnoopTable::new — a genuine config-bug panic, not an Err.
        let mut broken = tiny_job("broken-config", 1);
        broken.recorders = vec![{
            let mut c =
                relaxreplay::RecorderConfig::splash_default(relaxreplay::Design::Opt, Some(4096));
            c.snoop_entries = 3;
            c
        }];
        let jobs = vec![tiny_job("fine", 0), broken];
        let err = std::panic::catch_unwind(|| run_sweep(&jobs, 2)).expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message is a String");
        assert!(
            msg.contains("broken-config"),
            "panic names the workload: {msg}"
        );
        assert!(msg.contains("sweep job 1"), "{msg}");
    }

    #[test]
    fn jsonl_lines_have_identity_and_metrics() {
        let jobs = vec![tiny_job("alpha", 3)];
        let report = run_sweep(&jobs, 1).expect("sweep succeeds");
        let line = report.outputs[0].jsonl_line();
        assert!(line.starts_with("{\"name\":\"alpha\",\"job\":0,"), "{line}");
        assert!(line.contains("\"counters\""), "{line}");
        assert!(line.contains("\"record_ns\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}
