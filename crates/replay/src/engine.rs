//! The multithreaded replay engine: executes an [`IntervalDag`]'s ready
//! intervals concurrently on a pool of OS threads against shared memory.
//!
//! This is the real (wall-clock) counterpart of the cost-model list
//! scheduler in [`crate::replay_parallel`]: where that executor *models*
//! the makespan on one host thread, this one actually runs intervals in
//! parallel — the paper's §3.6 observation ("a scheme that records a
//! partial order admits parallel replay") made concrete.
//!
//! ## Why concurrent interval execution is deterministic
//!
//! Two intervals run concurrently only when the DAG leaves them
//! unordered, which the recorder guarantees means they do not
//! communicate: any conflicting access raises a coherence transaction,
//! which either terminates an interval or is answered with a predecessor
//! edge — both become DAG edges. Unordered intervals therefore race only
//! on reads of the same locations, and word-atomic shared memory
//! ([`rr_isa::SharedMem`]) keeps even structurally racy page traffic
//! safe. Each core's architectural state lives behind its own mutex and
//! is touched by one worker at a time (same-core intervals are chained),
//! so per-core load traces come out in program order at any worker
//! count.
//!
//! Synchronization: dependency counters are atomics decremented on
//! interval completion; ready nodes flow through a mutex-protected heap
//! with a condvar; the queue lock's release/acquire pairing establishes
//! happens-before from a completed interval's stores to every dependent's
//! loads. The first replay error aborts the pool and is returned typed —
//! a corrupt DAG can neither hang nor panic the engine (acyclicity is
//! validated at DAG construction).
//!
//! ## Probes
//!
//! [`execute_threaded`] is generic over an [`EngineProbe`] that observes
//! each worker's queue pops, waits, interval executions and lock
//! acquisitions. Production replay passes `()`: every hook is an empty
//! default method and its clock reads nothing, so the monomorphised loop
//! is the unobserved one. The profiler in [`crate::prof`] passes a
//! collector instead, and so times this very loop rather than a copy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use relaxreplay::prof::SpanKind;
use relaxreplay::IntervalOrdering;
use rr_isa::{Interp, MemImage, Program, SharedMem};
use rr_mem::CoreId;

use crate::cost::{CostModel, ReplayEvents};
use crate::dag::IntervalDag;
use crate::patch::PatchedLog;
use crate::replayer::{check_end_state, exec_interval_ops, ReplayError, ReplayOutcome};

/// Which executor a replay should run on — the knob `rr_sim` and the
/// CLIs thread through the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayEngine {
    /// The sequential DAG executor (recorded total order, one thread).
    Sequential,
    /// The multithreaded executor at the given worker count (the recorded
    /// partial order when an [`IntervalOrdering`] is available, else the
    /// total-order chain).
    Threaded {
        /// Pool size; `0` means the host's available parallelism.
        workers: usize,
    },
}

impl ReplayEngine {
    /// A short stable label (`seq`, `thr4`) for reports and CSV columns.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ReplayEngine::Sequential => "seq".to_string(),
            ReplayEngine::Threaded { workers } => format!("thr{workers}"),
        }
    }

    /// Resolves `Threaded { workers: 0 }` to the host's parallelism.
    #[must_use]
    pub fn resolved_workers(self) -> usize {
        match self {
            ReplayEngine::Sequential => 1,
            ReplayEngine::Threaded { workers: 0 } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ReplayEngine::Threaded { workers } => workers,
        }
    }
}

/// Replays on the chosen engine. `orderings` supplies the recorded
/// partial order; without it the threaded engine falls back to the
/// total-order chain (correct, but serial — every edge of the chain is a
/// dependency).
///
/// # Errors
///
/// Same conditions as [`crate::replay`], plus the DAG validation errors
/// ([`ReplayError::OrderingMismatch`], [`ReplayError::CyclicOrdering`],
/// [`ReplayError::CoreOutOfRange`]) on corrupt ordering inputs.
pub fn replay_with(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: Option<&[IntervalOrdering]>,
    mem: MemImage,
    cost: &CostModel,
    engine: ReplayEngine,
) -> Result<ReplayOutcome, ReplayError> {
    match engine {
        ReplayEngine::Sequential => crate::replayer::replay(programs, logs, mem, cost),
        ReplayEngine::Threaded { .. } => {
            let dag = match orderings {
                Some(o) => IntervalDag::partial_order(programs.len(), logs, o)?,
                None => IntervalDag::total_order(programs.len(), logs)?,
            };
            execute_threaded(
                programs,
                &dag,
                mem,
                cost,
                engine.resolved_workers(),
                &mut (),
            )
        }
    }
}

/// Replays the recorded partial order on `workers` OS threads and
/// returns an outcome verifiable exactly like a sequential replay.
///
/// # Errors
///
/// As [`replay_with`] with a threaded engine.
pub fn replay_threaded(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: &[IntervalOrdering],
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
) -> Result<ReplayOutcome, ReplayError> {
    let dag = IntervalDag::partial_order(programs.len(), logs, orderings)?;
    execute_threaded(programs, &dag, mem, cost, workers, &mut ())
}

/// Observation hooks of [`execute_threaded`]'s worker loop.
///
/// `()` is the production probe: it keeps no state, its clock is the
/// constant 0, and every other hook is an empty default, so the engine
/// monomorphised with it does no probe work at all. The
/// [`EngineProfiler`](crate::prof::EngineProfiler) collector records
/// per-worker span timelines and counters from the same hooks.
pub trait EngineProbe: Sync {
    /// Per-worker state, owned by the worker thread for the pool's life.
    type Worker: Send;

    /// Fresh state for pool worker `index`.
    fn worker(&self, index: usize) -> Self::Worker;
    /// Reads the probe's clock, in nanoseconds.
    fn now(&self) -> u64;

    /// Called once with the DAG's node count, just before the pool starts.
    fn begin(&mut self, _nodes: usize) {}
    /// Called once, after every worker has left the pool.
    fn end(&mut self) {}
    /// Takes back a worker's state as the worker leaves the pool.
    fn retire(&self, _worker: Self::Worker) {}
    /// The worker spent `since` until now on `kind`; for
    /// [`SpanKind::Exec`], DAG node `node` of core `core`.
    fn span(
        &self,
        _worker: &mut Self::Worker,
        _kind: SpanKind,
        _since: u64,
        _core: usize,
        _node: usize,
    ) {
    }
    /// The worker is about to take the shared ready-heap lock.
    fn queue_lock(&self, _worker: &mut Self::Worker) {}
    /// The worker popped a node from a heap `depth` deep (the popped node
    /// included).
    fn popped(&self, _worker: &mut Self::Worker, _depth: usize) {}
    /// The worker took a core's state lock; `contended` if it was held.
    fn core_lock(&self, _worker: &mut Self::Worker, _contended: bool) {}
    /// An interval failed to replay; the pool is about to stop.
    fn failed(&self) {}
}

impl EngineProbe for () {
    type Worker = ();

    #[inline(always)]
    fn worker(&self, _index: usize) {}

    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
}

struct CoreState<'p> {
    interp: Interp<'p>,
    trace: Vec<u64>,
    events: ReplayEvents,
}

struct Queue {
    /// Ready nodes, drained lowest (timestamp, id) first — a deterministic
    /// *priority*, though actual execution order depends on worker timing
    /// (and may: outcomes are interleaving-independent by construction).
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    executed: usize,
    done: bool,
}

/// Executes a validated [`IntervalDag`] on a scoped worker pool, observed
/// by `probe` (`&mut ()` for plain replay; see [`EngineProbe`]).
///
/// # Errors
///
/// Any [`ReplayError`] raised while executing an interval (the first one
/// aborts the pool), or the DAG validation errors if the DAG and
/// `programs` disagree on the thread count.
pub fn execute_threaded<P: EngineProbe>(
    programs: &[Program],
    dag: &IntervalDag<'_>,
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    if dag.threads() != programs.len() {
        return Err(ReplayError::ThreadCountMismatch {
            programs: programs.len(),
            logs: dag.threads(),
        });
    }
    let nodes = dag.nodes();
    let shared = SharedMem::from_image(&mem);
    drop(mem);

    let cores: Vec<Mutex<CoreState>> = programs
        .iter()
        .map(|p| {
            Mutex::new(CoreState {
                interp: Interp::new(p),
                trace: Vec::new(),
                events: ReplayEvents::default(),
            })
        })
        .collect();
    let deps: Vec<AtomicUsize> = nodes.iter().map(|n| AtomicUsize::new(n.preds)).collect();
    let queue = Mutex::new(Queue {
        ready: nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.preds == 0)
            .map(|(i, n)| Reverse((n.timestamp, i)))
            .collect(),
        executed: 0,
        done: nodes.is_empty(),
    });
    let cond = Condvar::new();
    let error: Mutex<Option<ReplayError>> = Mutex::new(None);

    let pool = workers.clamp(1, nodes.len().max(1));
    probe.begin(nodes.len());
    let shared_probe = &*probe;
    std::thread::scope(|s| {
        for index in 0..pool {
            let (probe, queue, cond, error, cores, deps, shared) =
                (shared_probe, &queue, &cond, &error, &cores, &deps, &shared);
            s.spawn(move || {
                let mut w = probe.worker(index);
                let mut memh = shared.handle();
                'work: loop {
                    let node = {
                        let mut since = probe.now();
                        probe.queue_lock(&mut w);
                        let mut q = queue.lock().expect("replay queue poisoned");
                        loop {
                            if q.done {
                                drop(q);
                                probe.span(&mut w, SpanKind::Idle, since, 0, 0);
                                break 'work;
                            }
                            if let Some(Reverse((_, id))) = q.ready.pop() {
                                probe.popped(&mut w, q.ready.len() + 1);
                                probe.span(&mut w, SpanKind::QueuePop, since, 0, 0);
                                break id;
                            }
                            let wait = probe.now();
                            q = cond.wait(q).expect("replay queue poisoned");
                            if q.done {
                                // A wake into shutdown was idle time, not a
                                // dependency stall: the check above records
                                // it as idle from the wait's start.
                                since = wait;
                            } else {
                                probe.span(&mut w, SpanKind::DepWait, wait, 0, 0);
                                since = probe.now();
                            }
                        }
                    };
                    let n = &nodes[node];
                    let exec = probe.now();
                    // Same-core intervals are chained in the DAG, so this
                    // lock is uncontended; it exists to hand the core's
                    // architectural state from worker to worker. Trying
                    // first lets a probe see contention if it ever occurs.
                    let result = {
                        let mut cs = match cores[n.core].try_lock() {
                            Ok(g) => {
                                probe.core_lock(&mut w, false);
                                g
                            }
                            Err(_) => {
                                probe.core_lock(&mut w, true);
                                cores[n.core].lock().expect("core state poisoned")
                            }
                        };
                        cs.events.intervals += 1;
                        let CoreState {
                            interp,
                            trace,
                            events,
                        } = &mut *cs;
                        exec_interval_ops(
                            n.ops,
                            CoreId::new(n.core as u8),
                            interp,
                            &mut memh,
                            trace,
                            events,
                        )
                    };
                    probe.span(&mut w, SpanKind::Exec, exec, n.core, node);
                    match result {
                        Err(e) => {
                            probe.failed();
                            let mut slot = error.lock().expect("error slot poisoned");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            drop(slot);
                            let mut q = queue.lock().expect("replay queue poisoned");
                            q.done = true;
                            drop(q);
                            cond.notify_all();
                            break 'work;
                        }
                        Ok(()) => {
                            let mut newly_ready = Vec::new();
                            for &succ in &n.succs {
                                if deps[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    newly_ready.push(succ);
                                }
                            }
                            probe.queue_lock(&mut w);
                            let mut q = queue.lock().expect("replay queue poisoned");
                            q.executed += 1;
                            if q.executed == nodes.len() {
                                q.done = true;
                            }
                            for id in newly_ready {
                                q.ready.push(Reverse((nodes[id].timestamp, id)));
                            }
                            let wake = q.done || !q.ready.is_empty();
                            drop(q);
                            if wake {
                                cond.notify_all();
                            }
                        }
                    }
                }
                probe.retire(w);
            });
        }
    });
    probe.end();

    if let Some(e) = error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let q = queue.into_inner().expect("replay queue poisoned");
    if q.executed != nodes.len() {
        // Unreachable for a constructor-validated DAG; kept as a typed
        // error so a future executor bug cannot silently truncate replay.
        return Err(ReplayError::CyclicOrdering {
            executed: q.executed,
            intervals: nodes.len(),
        });
    }

    let mut interps = Vec::with_capacity(cores.len());
    let mut traces = Vec::with_capacity(cores.len());
    let mut events = ReplayEvents::default();
    for c in cores {
        let cs = c.into_inner().expect("core state poisoned");
        events.merge(&cs.events);
        traces.push(cs.trace);
        interps.push(cs.interp);
    }
    check_end_state(programs, &interps)?;

    let user_cycles = cost.user_cycles(&events);
    let os_cycles = cost.os_cycles(&events);
    Ok(ReplayOutcome {
        mem: shared.to_image(),
        load_traces: traces,
        events,
        user_cycles,
        os_cycles,
    })
}
