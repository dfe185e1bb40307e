//! The benchmark's workloads and the pipeline stages it times, each a
//! call into one layer's public API: record, store round trip and replay
//! verdict. Every stage checks its output; a stage that returns `Err`
//! counts as a failed operation.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use relaxreplay::IntervalLog;
use rr_replay::{
    patch, read_rrlogs_parallel, replay_with, verify, CostModel, IntervalDag, PatchedLog,
    ReplayEngine, ReplayEvents,
};
use rr_serve::{serve, RemoteStore, ServerConfig};
use rr_sim::logdir::{decode_truth, encode_truth};
use rr_sim::{
    Error, LocalStore, RecordSession, RunOptions, RunResult, RunStore, SavedRun, SavedVariant,
    ScheduleStrategy,
};

use crate::trace::Tracer;

/// One benchmark workload: a set of program shapes run through the whole
/// pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// fft, ocean, cholesky, barnes and radix at 4 cores, size 2.
    Mix,
    /// radix at 8 cores, size 4: the densest log per instruction.
    Dense,
    /// cholesky at 4 cores, size 4: replay dominated by re-execution.
    Compute,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Mix, Workload::Dense, Workload::Compute];

    /// The name the command line takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix => "mix",
            Workload::Dense => "dense",
            Workload::Compute => "compute",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(program, cores, size)` of every shape, in round-robin order.
    #[must_use]
    pub fn shapes(self) -> &'static [(&'static str, usize, u32)] {
        match self {
            Workload::Mix => &[
                ("fft", 4, 2),
                ("ocean", 4, 2),
                ("cholesky", 4, 2),
                ("barnes", 4, 2),
                ("radix", 4, 2),
            ],
            Workload::Dense => &[("radix", 8, 4)],
            Workload::Compute => &[("cholesky", 4, 4)],
        }
    }
}

/// Exact counts the simulator and the recorders produce for one run.
/// They depend only on the program and the schedule seed, so every
/// recording of a shape must reproduce them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCensus {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated instructions retired, over all cores.
    pub instrs: u64,
    /// Per recorder variant.
    pub recorders: Vec<RecorderCensus>,
}

/// One recorder variant's output for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecorderCensus {
    /// Variant label (`Base-4K`, `Opt-INF`, …).
    pub label: String,
    /// Log entries over all cores.
    pub entries: u64,
    /// Accesses logged as reordered.
    pub reordered: u64,
    /// Log size in bits (the paper's accounting, not the wire size).
    pub bits: u64,
}

impl SimCensus {
    /// The census of a recorded run.
    #[must_use]
    pub fn of(run: &RunResult) -> Self {
        SimCensus {
            cycles: run.cycles,
            instrs: run.core_stats.iter().map(|s| s.retired).sum(),
            recorders: run
                .variants
                .iter()
                .map(|v| RecorderCensus {
                    label: v.spec.label(),
                    entries: v.logs.iter().map(|l| l.entries.len() as u64).sum(),
                    reordered: v.reordered(),
                    bits: v.log_bits(),
                })
                .collect(),
        }
    }
}

/// Exact counts of replaying every variant of a run once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayCensus {
    /// Replay events per variant.
    pub events: Vec<ReplayEvents>,
    /// Replay ops produced by patching, over all variants.
    pub patch_ops: u64,
    /// Interval-DAG nodes, over all variants.
    pub dag_nodes: u64,
    /// Interval-DAG edges, over all variants.
    pub dag_edges: u64,
    /// Longest dependency chain in intervals, summed over variants.
    pub dag_critical_path: u64,
}

/// One program shape, recorded and saved during set-up.
#[derive(Debug)]
pub struct Shape {
    /// Run name in the stores (`radix@8c`).
    pub run: String,
    /// The generated programs and initial memory.
    pub workload: rr_workloads::Workload,
    /// The set-up recording; store round trips save this run.
    pub recorded: RunResult,
    /// Counts every recording of this shape must reproduce.
    pub sim: SimCensus,
    /// Counts every verdict on this shape must reproduce.
    pub replay: ReplayCensus,
    /// `.rrlog` bytes of the run.
    pub log_bytes: u64,
    /// The run as loaded back from the local verdict store: what an
    /// `rr://` load must reproduce.
    reference: Vec<SavedVariant>,
    /// The ground truth as loaded back, encoded.
    reference_truth: Vec<u8>,
}

/// Everything the timed pass needs, prepared by [`setup`].
#[derive(Debug)]
pub struct Fixture {
    /// The workload's shapes, in round-robin order.
    pub shapes: Vec<Shape>,
    /// Schedule options selected by the seed.
    pub options: RunOptions,
    /// Replay cost model (only its event counts are used here).
    pub cost: CostModel,
    /// The local store the verdicts load from.
    pub verdicts: LocalStore,
    /// Directory under which store round trips create fresh roots.
    trips: PathBuf,
}

/// Generates the workload's programs, records each shape once with the
/// paper's recorder matrix under the seed's schedule, saves it to a local
/// store under `root`, and replays it once to take the exact counts the
/// pass checks against. Finishes with one store round trip per shape,
/// which starts an `rr-serve` server and checks the `rr://` path.
///
/// The seed selects the schedule ([`schedule_for_seed`]).
///
/// # Errors
///
/// Any failure to record, save, load, replay or verify.
pub fn setup(workload: Workload, seed: u64, root: &Path) -> Result<Fixture, Error> {
    let options = schedule_for_seed(seed);
    let cost = CostModel::splash_default();
    let verdicts = LocalStore::new(root.join("verdicts"));
    let mut shapes = Vec::new();
    for &(name, cores, size) in workload.shapes() {
        let run = format!("{name}@{cores}c");
        let programs = rr_workloads::by_name(name, cores, size)
            .ok_or_else(|| Error::msg(format!("no workload named {name}")))?;
        let recorded = RecordSession::new(&programs.programs, &programs.initial_mem)
            .options(&options)
            .run()?;
        let log_bytes = verdicts.save_run(&run, &recorded)?;
        let saved = verdicts.load_run_with(&run, 1)?;
        let events = verdict(&verdicts, &run, &programs, &cost, &mut Tracer::new(false))?;
        let dag = dag_census(&saved, programs.programs.len())?;
        shapes.push(Shape {
            sim: SimCensus::of(&recorded),
            replay: ReplayCensus { events, ..dag },
            log_bytes,
            reference_truth: encode_truth(&saved.recorded),
            reference: saved.variants,
            run,
            workload: programs,
            recorded,
        });
    }
    let fixture = Fixture {
        shapes,
        options,
        cost,
        verdicts,
        trips: root.join("trips"),
    };
    for (i, shape) in fixture.shapes.iter().enumerate() {
        store_trip(&fixture, shape, i as u64, &mut Tracer::new(false), None)?;
    }
    Ok(fixture)
}

/// The recording schedule selected by `seed`: 0 is the unperturbed
/// baseline; any other seed stalls each core's pipeline tick on 10 % of
/// cycles (at most two in a row), placed by hashing the seed. Every seed
/// thus draws a different interleaving from the same mild perturbation,
/// so the work per run stays comparable across seeds, unlike the 10–80 %
/// stall rates `ExploreSpec::for_seed` spreads over its seeds.
#[must_use]
fn schedule_for_seed(seed: u64) -> RunOptions {
    let schedule = if seed == 0 {
        ScheduleStrategy::Baseline
    } else {
        ScheduleStrategy::SeededStall {
            seed,
            stall_permille: 100,
            max_consecutive: 2,
        }
    };
    RunOptions {
        schedule,
        ..RunOptions::default()
    }
}

/// Patches every variant of `saved` and builds its interval DAG, for the
/// exact DAG counts. The returned census carries no replay events.
///
/// # Errors
///
/// A patch or DAG-construction failure.
fn dag_census(saved: &SavedRun, threads: usize) -> Result<ReplayCensus, Error> {
    let mut census = ReplayCensus {
        events: Vec::new(),
        patch_ops: 0,
        dag_nodes: 0,
        dag_edges: 0,
        dag_critical_path: 0,
    };
    for v in &saved.variants {
        let patched = patch_all(&v.logs)?;
        census.patch_ops += patched.iter().map(|p| p.ops.len() as u64).sum::<u64>();
        let stats = build_dag(threads, &patched, v)?.stats();
        census.dag_nodes += stats.nodes as u64;
        census.dag_edges += stats.edges as u64;
        census.dag_critical_path += stats.critical_path as u64;
    }
    Ok(census)
}

fn patch_all(logs: &[IntervalLog]) -> Result<Vec<PatchedLog>, Error> {
    Ok(logs.iter().map(patch).collect::<Result<_, _>>()?)
}

fn build_dag<'a>(
    threads: usize,
    patched: &'a [PatchedLog],
    v: &SavedVariant,
) -> Result<IntervalDag<'a>, Error> {
    Ok(match &v.ordering {
        Some(o) => IntervalDag::partial_order(threads, patched, o)?,
        None => IntervalDag::total_order(threads, patched)?,
    })
}

/// Records `shape` again under the fixture's schedule and checks that
/// the simulator and recorders reproduce the set-up counts. Returns the
/// host time of `RecordSession::run`.
///
/// # Errors
///
/// A simulator failure, or counts that differ from set-up.
pub(crate) fn record(fx: &Fixture, shape: &Shape, tracer: &mut Tracer) -> Result<Duration, Error> {
    let w = &shape.workload;
    let (run, took) = tracer.span("record", || {
        RecordSession::new(&w.programs, &w.initial_mem)
            .options(&fx.options)
            .run()
    });
    let run = run?;
    let census = tracer.span("bench.check", || SimCensus::of(&run)).0;
    if census != shape.sim {
        return Err(Error::msg(format!(
            "{}: recording differs from set-up: {census:?} vs {:?}",
            shape.run, shape.sim
        )));
    }
    Ok(took)
}

/// Times recording `shape` with no recorder attached, for the recorders'
/// share of record time; the simulated cycles must not change.
///
/// # Errors
///
/// A simulator failure, or a cycle count that differs from set-up.
pub(crate) fn record_bare(fx: &Fixture, shape: &Shape, tracer: &mut Tracer) -> Result<(), Error> {
    let w = &shape.workload;
    let (run, _) = tracer.span("record.bare", || {
        RecordSession::new(&w.programs, &w.initial_mem)
            .options(&fx.options)
            .specs(&[])
            .run()
    });
    let run = run?;
    if run.cycles != shape.sim.cycles {
        return Err(Error::msg(format!(
            "{}: recorders changed the simulated cycles ({} bare vs {})",
            shape.run, run.cycles, shape.sim.cycles
        )));
    }
    Ok(())
}

/// What `--replay-from` does for one run: load it from `store` with one
/// ingest worker, then patch, replay sequentially and verify every
/// variant. Returns each variant's replay events.
///
/// # Errors
///
/// A load, patch, replay or verification failure.
pub fn verdict(
    store: &dyn RunStore,
    run: &str,
    w: &rr_workloads::Workload,
    cost: &CostModel,
    tracer: &mut Tracer,
) -> Result<Vec<ReplayEvents>, Error> {
    let saved = tracer
        .span("store.load", || store.load_run_with(run, 1))
        .0?;
    let mut events = Vec::with_capacity(saved.variants.len());
    for v in &saved.variants {
        let at = |stage: &str| format!("{run} [{}]: {stage}", v.label);
        let patched = tracer
            .span("patch", || patch_all(&v.logs))
            .0
            .map_err(|e| e.context(at("patch failed")))?;
        let mem = tracer
            .span("replayer.mem_clone", || w.initial_mem.clone())
            .0;
        let outcome = tracer
            .span("replayer", || {
                replay_with(
                    &w.programs,
                    &patched,
                    v.ordering.as_deref(),
                    mem,
                    cost,
                    ReplayEngine::Sequential,
                )
            })
            .0
            .map_err(|e| Error::from(e).context(at("replay failed")))?;
        tracer
            .span("verify", || verify(&saved.recorded, &outcome))
            .0
            .map_err(|e| Error::from(e).context(at("verification failed")))?;
        events.push(outcome.events);
    }
    Ok(events)
}

/// A verdict on the fixture's verdict store that must also reproduce the
/// set-up replay counts.
///
/// # Errors
///
/// As [`verdict`], or replay counts that differ from set-up.
pub fn checked_verdict(fx: &Fixture, shape: &Shape, tracer: &mut Tracer) -> Result<(), Error> {
    let events = verdict(&fx.verdicts, &shape.run, &shape.workload, &fx.cost, tracer)?;
    if events != shape.replay.events {
        return Err(Error::msg(format!(
            "{}: replay counts differ from set-up",
            shape.run
        )));
    }
    Ok(())
}

/// Host times of one store round trip.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Trip {
    /// `.rrlog` bytes each save reported.
    pub bytes: u64,
    /// `LocalStore::save_run`.
    pub local_save: Duration,
    /// `RemoteStore::save_run` over `rr://`.
    pub remote_save: Duration,
    /// `RemoteStore::load_run_with` over `rr://`, one ingest worker.
    pub remote_load: Duration,
}

/// Server-side and on-disk counts of one traced round trip.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TripCounts {
    /// Chunks the server accepted.
    pub chunks: u64,
    /// Accepted chunks that matched an existing blob.
    pub dedup_hits: u64,
    /// Runs sealed.
    pub seals: u64,
    /// The store's logical-over-physical ratio after the save.
    pub dedup_ratio: f64,
    /// Bytes the local save put on disk, sidecars included.
    pub stored_bytes: u64,
}

/// One store round trip of `shape`'s recording: save it to a fresh
/// [`LocalStore`], save it over `rr://` to a fresh single-worker
/// `rr-serve`, and load it back over `rr://`. The loaded run must equal
/// the one the local verdict store returns. Creating the roots and
/// starting and stopping the server are outside the timed calls (span
/// `bench.admin`). When `counts` is given, the server's counters and the
/// stored sizes are read into it.
///
/// # Errors
///
/// A store or server failure, differing byte counts, or an `rr://` load
/// that differs from the local one.
pub(crate) fn store_trip(
    fx: &Fixture,
    shape: &Shape,
    id: u64,
    tracer: &mut Tracer,
    counts: Option<&mut TripCounts>,
) -> Result<Trip, Error> {
    let dir = fx.trips.join(format!("trip{id}"));
    let server = tracer
        .span("bench.admin", || {
            serve(
                "127.0.0.1:0",
                ServerConfig {
                    workers: 1,
                    ..ServerConfig::new(dir.join("serve"))
                },
            )
        })
        .0
        .map_err(|e| Error::msg(format!("rr-serve failed to start: {e}")))?;
    let trip = trip_through(shape, &dir, &server, tracer, counts);
    let removed = tracer
        .span("bench.admin", || {
            server.shutdown();
            std::fs::remove_dir_all(&dir)
        })
        .0;
    let trip = trip?;
    removed?;
    Ok(trip)
}

fn trip_through(
    shape: &Shape,
    dir: &Path,
    server: &rr_serve::ServerHandle,
    tracer: &mut Tracer,
    counts: Option<&mut TripCounts>,
) -> Result<Trip, Error> {
    let local = LocalStore::new(dir.join("local"));
    let remote = RemoteStore::new(server.addr().to_string());
    let (bytes, local_save) = tracer.span("store.local_save", || {
        local.save_run(&shape.run, &shape.recorded)
    });
    let bytes = bytes?;
    let (remote_bytes, remote_save) = tracer.span("serve.save", || {
        remote.save_run(&shape.run, &shape.recorded)
    });
    let remote_bytes = remote_bytes?;
    let (loaded, remote_load) = tracer.span("serve.load", || remote.load_run_with(&shape.run, 1));
    let loaded = loaded?;
    tracer
        .span("bench.check", || {
            if bytes != shape.log_bytes || remote_bytes != bytes {
                return Err(Error::msg(format!(
                    "{}: saves reported {bytes} (local) and {remote_bytes} (rr://) bytes, \
                     set-up saved {}",
                    shape.run, shape.log_bytes
                )));
            }
            if loaded.variants != shape.reference
                || encode_truth(&loaded.recorded) != shape.reference_truth
            {
                return Err(Error::msg(format!(
                    "{}: the rr:// load differs from the local load",
                    shape.run
                )));
            }
            Ok(())
        })
        .0?;
    if let Some(c) = counts {
        let stats = server.stats();
        c.chunks += stats.chunks.load(Ordering::Relaxed);
        c.dedup_hits += stats.dedup_hits.load(Ordering::Relaxed);
        c.seals += stats.seals.load(Ordering::Relaxed);
        c.dedup_ratio += remote
            .stat_run(&shape.run)?
            .dedup
            .map_or(1.0, |d| d.ratio());
        c.stored_bytes += dir_bytes(&dir.join("local"))?;
    }
    Ok(Trip {
        bytes,
        local_save,
        remote_save,
        remote_load,
    })
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, Error> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else if kind.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// The `.rrlog` paths of `shape`'s run in the verdict store, in the order
/// a load reads them.
fn rrlog_paths(fx: &Fixture, shape: &Shape) -> Vec<PathBuf> {
    let dir = fx.verdicts.root().join(&shape.run);
    shape
        .reference
        .iter()
        .flat_map(|v| {
            let vdir = dir.join(&v.label);
            (0..v.logs.len()).map(move |k| vdir.join(format!("core{k}.rrlog")))
        })
        .collect()
}

/// Per-layer probes that follow a traced verdict, timed into `probes`:
/// decoding the run's `.rrlog` files with `read_rrlogs_parallel` (span
/// `ingest.decode`) and its ground truth with `decode_truth`
/// (`store.truth`), building each variant's interval DAG (`dag.build`),
/// and replaying each variant on the threaded engine with one worker
/// (`engine.thr1`), which must verify too. Returns the `.rrlog` bytes
/// decoded.
///
/// # Errors
///
/// Any decode, DAG, replay or verification failure.
pub(crate) fn verdict_probes(
    fx: &Fixture,
    shape: &Shape,
    probes: &mut Tracer,
) -> Result<u64, Error> {
    let paths = rrlog_paths(fx, shape);
    let logs = probes
        .span("ingest.decode", || read_rrlogs_parallel(&paths, 1))
        .0?;
    let bytes = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum::<Result<u64, _>>()?;
    let truth_bytes = std::fs::read(fx.verdicts.root().join(&shape.run).join("truth.bin"))?;
    let recorded = probes
        .span("store.truth", || decode_truth(&truth_bytes))
        .0?;
    let w = &shape.workload;
    let cores = w.programs.len();
    for (v, logs) in shape.reference.iter().zip(logs.chunks(cores)) {
        if logs != v.logs.as_slice() {
            return Err(Error::msg(format!(
                "{} [{}]: read_rrlogs_parallel decoded different logs",
                shape.run, v.label
            )));
        }
        let patched = patch_all(logs)?;
        probes
            .span("dag.build", || build_dag(cores, &patched, v))
            .0?;
        let outcome = probes
            .span("engine.thr1", || {
                replay_with(
                    &w.programs,
                    &patched,
                    v.ordering.as_deref(),
                    w.initial_mem.clone(),
                    &fx.cost,
                    ReplayEngine::Threaded { workers: 1 },
                )
            })
            .0?;
        verify(&recorded, &outcome)?;
    }
    Ok(bytes)
}

/// Encodes every log of `shape`'s recording with `IntervalLog::encode`
/// (span `wire.encode`) and returns the bytes produced, which must match
/// what the stores report.
///
/// # Errors
///
/// A byte count that differs from the saved run's.
pub(crate) fn encode_probe(shape: &Shape, probes: &mut Tracer) -> Result<u64, Error> {
    let bytes: u64 = probes
        .span("wire.encode", || {
            shape
                .recorded
                .variants
                .iter()
                .flat_map(|v| &v.logs)
                .map(|l| l.encode().len() as u64)
                .sum()
        })
        .0;
    if bytes != shape.log_bytes {
        return Err(Error::msg(format!(
            "{}: encode produced {bytes} bytes, the store saved {}",
            shape.run, shape.log_bytes
        )));
    }
    Ok(bytes)
}
