//! The timed pass: set-up repeated [`SETUP_REPS`] times, then cycles of
//! one recording followed by interleaved verdicts and store round trips
//! until the run's time is up. An untraced run reports the end-to-end
//! metrics; a traced run alternates untraced and traced cycles, follows
//! each traced cycle with the per-layer probes, and reports the
//! per-layer metrics with the reconciliation of their busy times against
//! the pass.

use std::path::Path;
use std::time::{Duration, Instant};

use rr_sim::Error;

use crate::host::{self, Calibration};
use crate::pipeline::{
    checked_verdict, encode_probe, record, record_bare, setup, store_trip, verdict_probes, Fixture,
    ReplayCensus, Shape, SimCensus, TripCounts, Workload,
};
use crate::trace::{quantile, Tracer};

/// Set-ups per run; `setup_s` is their 90th percentile. A set-up is a
/// short run of mean-like work, so its time takes one of the host's two
/// speed modes, and which mode holds the median changes from run to run;
/// the 90th percentile lies in the slow mode on nearly every run.
pub const SETUP_REPS: usize = 9;

/// Verdict and store round-trip pairs that follow each recording in a
/// cycle. With it every stage takes a steady share of the pass (about a
/// third each for recording and round trips on `dense`) and the two
/// latency stages collect several hundred samples in a 35-second pass.
pub const OPS_PER_CYCLE: usize = 10;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced: operation counts, metrics and report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (set-ups, recordings, verdicts, round trips,
    /// probes).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The first failures, for the report.
    pub errors: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, reconciliation, diagnostics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every operation succeeded and checked out.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn check<T>(&mut self, what: impl FnOnce() -> String, r: Result<T, Error>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{}: {e}", what()));
                }
                None
            }
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Host seconds of every timed operation on one shape.
#[derive(Debug, Default)]
struct ShapeTimes {
    record: Vec<f64>,
    verdict: Vec<f64>,
    local_save: Vec<f64>,
    remote_save: Vec<f64>,
    remote_load: Vec<f64>,
}

/// Host times of the timed stages, per shape of the fixture.
#[derive(Debug)]
struct Stages {
    shapes: Vec<ShapeTimes>,
}

impl Stages {
    /// Every sample of one stage, all shapes together.
    fn pooled(&self, stage: fn(&ShapeTimes) -> &Vec<f64>) -> Vec<f64> {
        self.shapes.iter().flat_map(stage).copied().collect()
    }

    /// Work per operation over the 90th-percentile host time of the
    /// operation, both summed over the shapes: the rate at which nine
    /// operations in ten run or better. A mean over the pass moves with
    /// the share of it the host spends in a slow phase; the 90th
    /// percentile lies inside that phase and repeats from run to run.
    /// `NaN` when a shape has no sample.
    fn p90_rate(
        &self,
        fx: &Fixture,
        stage: fn(&ShapeTimes) -> &Vec<f64>,
        work: fn(&Shape) -> f64,
    ) -> f64 {
        let (w, t) = fx
            .shapes
            .iter()
            .zip(&self.shapes)
            .fold((0.0, 0.0), |(w, t), (s, x)| {
                (w + work(s), t + quantile(stage(x), 0.9))
            });
        w / t
    }

    /// The `q`-quantile of one stage's host times on each shape, averaged
    /// over the shapes, in milliseconds. Pooling the shapes instead would
    /// put a tail quantile on the boundary between the two largest
    /// shapes' times, where it jumps from run to run.
    fn quantile_ms(&self, stage: fn(&ShapeTimes) -> &Vec<f64>, q: f64) -> f64 {
        let sum: f64 = self.shapes.iter().map(|t| quantile(stage(t), q)).sum();
        sum * 1e3 / self.shapes.len() as f64
    }
}

/// The per-layer probes' own accounting.
#[derive(Debug, Default)]
struct Probes {
    tracer: Tracer,
    decoded_bytes: u64,
    encoded_bytes: u64,
    trips: u64,
    trip_bytes: u64,
    counts: TripCounts,
}

struct Pass<'a> {
    fx: &'a Fixture,
    out: &'a mut Outcome,
    stages: Stages,
    probes: Probes,
    trip_id: u64,
}

impl<'a> Pass<'a> {
    /// The index of the shape the `j`-th operation of cycle `k` works
    /// on: recordings and operations each go round-robin over the
    /// workload's shapes.
    fn shape(&self, k: usize, j: Option<usize>) -> usize {
        let i = j.map_or(k, |j| k * OPS_PER_CYCLE + j);
        i % self.fx.shapes.len()
    }

    /// Runs cycle `k`: one recording, then [`OPS_PER_CYCLE`] pairs of a
    /// verdict and a store round trip.
    fn cycle(&mut self, k: usize, tracer: &mut Tracer) {
        let fx = self.fx;
        let i = self.shape(k, None);
        let shape = &fx.shapes[i];
        let took = record(fx, shape, tracer);
        if let Some(took) = self.out.check(|| format!("record {}", shape.run), took) {
            self.stages.shapes[i].record.push(took.as_secs_f64());
        }
        for j in 0..OPS_PER_CYCLE {
            let i = self.shape(k, Some(j));
            let s = &fx.shapes[i];
            let start = Instant::now();
            let r = checked_verdict(fx, s, tracer);
            let took = start.elapsed();
            if self.out.check(|| format!("verdict {}", s.run), r).is_some() {
                self.stages.shapes[i].verdict.push(took.as_secs_f64());
            }
            self.trip_id += 1;
            let r = store_trip(fx, s, self.trip_id, tracer, None);
            if let Some(t) = self.out.check(|| format!("store round trip {}", s.run), r) {
                let times = &mut self.stages.shapes[i];
                times.local_save.push(t.local_save.as_secs_f64());
                times.remote_save.push(t.remote_save.as_secs_f64());
                times.remote_load.push(t.remote_load.as_secs_f64());
            }
        }
    }

    /// The per-layer probes for the operations of cycle `k`, each timed
    /// into the probe tracer rather than the pass.
    fn probe_cycle(&mut self, k: usize) {
        let fx = self.fx;
        let shape = &fx.shapes[self.shape(k, None)];
        let r = record_bare(fx, shape, &mut self.probes.tracer);
        self.out.check(|| format!("bare record {}", shape.run), r);
        for j in 0..OPS_PER_CYCLE {
            let s = &fx.shapes[self.shape(k, Some(j))];
            let r = verdict_probes(fx, s, &mut self.probes.tracer);
            if let Some(b) = self.out.check(|| format!("verdict probes {}", s.run), r) {
                self.probes.decoded_bytes += b;
            }
            let r = encode_probe(s, &mut self.probes.tracer);
            if let Some(b) = self.out.check(|| format!("encode probe {}", s.run), r) {
                self.probes.encoded_bytes += b;
            }
            self.trip_id += 1;
            let counts = Some(&mut self.probes.counts);
            let r = store_trip(fx, s, self.trip_id, &mut Tracer::new(false), counts);
            if let Some(t) = self
                .out
                .check(|| format!("counted round trip {}", s.run), r)
            {
                self.probes.trips += 1;
                self.probes.trip_bytes += t.bytes;
            }
        }
    }
}

/// Runs one benchmark run of `workload` under `seed` for `seconds`,
/// storing everything it writes under `root`.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, root: &Path) -> Outcome {
    let mut out = Outcome::default();
    let calib_start = host::calibrate();
    // The calibration tables are freed by now; without the reset the
    // high-water mark would hold them rather than the program's peak.
    if let Err(e) = host::reset_peak_rss() {
        out.notes
            .push(format!("peak RSS includes the calibration tables: {e}"));
    }

    // The first set-up prepares the pass; the others are spread over it,
    // so that their median samples the same host phases as the pass, and
    // must reproduce the first one's exact counts.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let start = Instant::now();
    let first = setup(workload, seed, &root.join("setup0"));
    setup_s.push(start.elapsed().as_secs_f64());
    let Some(fx) = out.check(|| "set-up 0".to_string(), first) else {
        return out;
    };
    let resetup = |elapsed: f64, out: &mut Outcome| {
        let rep = setup_s.len();
        if rep >= SETUP_REPS || elapsed < seconds * rep as f64 / SETUP_REPS as f64 {
            return false;
        }
        let dir = root.join(format!("setup{rep}"));
        let t = Instant::now();
        let again = setup(workload, seed, &dir);
        setup_s.push(t.elapsed().as_secs_f64());
        let r = again.and_then(|again| {
            std::fs::remove_dir_all(&dir)?;
            if census(&again) == census(&fx) {
                Ok(())
            } else {
                Err(Error::msg("simulated counts differ between set-ups"))
            }
        });
        out.check(|| format!("set-up {rep}"), r);
        true
    };
    let measured = pass(&fx, seconds, traced, &mut out, resetup);
    // Read before the closing calibration allocates its tables.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let calib = [calib_start, host::calibrate()];
    out.notes.push(format!(
        "host calibration (start, end): L1 {:.1}, {:.1} Mops/s; LLC {:.1}, {:.1} Mops/s",
        calib[0].l1_mops, calib[1].l1_mops, calib[0].llc_mops, calib[1].llc_mops
    ));
    if traced {
        per_layer(&mut out, &fx, &measured, calib);
    } else {
        end_to_end(&mut out, &fx, &measured.stages, &setup_s, peak_rss_mb);
    }
    out
}

/// What the timed pass measured.
#[derive(Debug)]
pub struct Measured {
    stages: Stages,
    probes: Probes,
    /// Spans of the traced cycles.
    traced: Tracer,
    /// Wall time of the untraced and the traced cycles of a traced run.
    walls: [Duration; 2],
}

/// The timed pass over a prepared fixture: cycles until `seconds` have
/// passed and every shape has been recorded at least once, with every
/// failure counted into `out`. Before each cycle
/// `between` gets the seconds elapsed and may do untimed work, such as a
/// repeated set-up; when it returns true the pass checks the time again
/// before the next cycle.
///
/// A traced pass runs pairs of cycles over the same operations, one
/// untraced and one traced (followed by its probes), alternating which
/// runs first so that a drift in host speed cancels out, and stops only
/// after a complete pair.
pub fn pass(
    fx: &Fixture,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
    mut between: impl FnMut(f64, &mut Outcome) -> bool,
) -> Measured {
    let mut pass = Pass {
        fx,
        out,
        stages: Stages {
            shapes: fx.shapes.iter().map(|_| ShapeTimes::default()).collect(),
        },
        probes: Probes {
            tracer: Tracer::new(true),
            ..Probes::default()
        },
        trip_id: 0,
    };
    let mut traced_tracer = Tracer::new(true);
    let mut walls = [Duration::ZERO; 2];
    let mut cycles = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || cycles < fx.shapes.len()
        || (traced && cycles % 2 == 1)
    {
        if between(start.elapsed().as_secs_f64(), pass.out) {
            continue;
        }
        if traced {
            let k = cycles / 2;
            let on = (cycles + k) % 2 == 1;
            let mut off = Tracer::new(false);
            let tracer = if on { &mut traced_tracer } else { &mut off };
            let t = Instant::now();
            pass.cycle(k, tracer);
            walls[usize::from(on)] += t.elapsed();
            if on {
                pass.probe_cycle(k);
            }
        } else {
            pass.cycle(cycles, &mut Tracer::new(false));
        }
        cycles += 1;
    }
    pass.out.notes.push(format!(
        "pass: {cycles} cycles in {:.3} s ({} recordings, {} verdicts, {} store round trips)",
        start.elapsed().as_secs_f64(),
        pass.stages.pooled(|t| &t.record).len(),
        pass.stages.pooled(|t| &t.verdict).len(),
        pass.stages.pooled(|t| &t.remote_save).len(),
    ));
    Measured {
        stages: pass.stages,
        probes: pass.probes,
        traced: traced_tracer,
        walls,
    }
}

/// The exact counts of every shape of a fixture.
fn census(fx: &Fixture) -> Vec<(&SimCensus, &ReplayCensus)> {
    fx.shapes.iter().map(|s| (&s.sim, &s.replay)).collect()
}

fn end_to_end(out: &mut Outcome, fx: &Fixture, st: &Stages, setup_s: &[f64], peak_rss_mb: f64) {
    let instrs = |s: &Shape| s.sim.instrs as f64 / 1e6;
    let replayed = |s: &Shape| (s.sim.instrs * s.replay.events.len() as u64) as f64 / 1e6;
    let mb = |s: &Shape| s.log_bytes as f64 / 1e6;
    out.metric("setup_s", quantile(setup_s, 0.9), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.metric(
        "record_minstr_per_s",
        st.p90_rate(fx, |t| &t.record, instrs),
        "Minstr/s",
    );
    out.metric(
        "replay_minstr_per_s",
        st.p90_rate(fx, |t| &t.verdict, replayed),
        "Minstr/s",
    );
    out.metric("verdict_p90_ms", st.quantile_ms(|t| &t.verdict, 0.9), "ms");
    out.metric(
        "local_save_mb_per_s",
        st.p90_rate(fx, |t| &t.local_save, mb),
        "MB/s",
    );
    out.metric(
        "remote_save_mb_per_s",
        st.p90_rate(fx, |t| &t.remote_save, mb),
        "MB/s",
    );
    out.metric(
        "remote_load_mb_per_s",
        st.p90_rate(fx, |t| &t.remote_load, mb),
        "MB/s",
    );
    out.metric(
        "remote_save_p90_ms",
        st.quantile_ms(|t| &t.remote_save, 0.9),
        "ms",
    );
    let fewest = |stage: fn(&ShapeTimes) -> &Vec<f64>| {
        st.shapes.iter().map(|t| stage(t).len()).min().unwrap_or(0)
    };
    out.notes.push(format!(
        "samples: {} set-ups, {} recordings, {} verdicts, {} round trips over {} shape(s); \
         fewest per shape: {} recordings, {} verdicts, {} round trips",
        setup_s.len(),
        st.pooled(|t| &t.record).len(),
        st.pooled(|t| &t.verdict).len(),
        st.pooled(|t| &t.remote_save).len(),
        fx.shapes.len(),
        fewest(|t| &t.record),
        fewest(|t| &t.verdict),
        fewest(|t| &t.remote_save),
    ));
    // The pass means, for comparison with the 90th-percentile rates, and
    // the latency medians. Neither is an end-to-end metric: both move
    // with the share of the pass the host spends in a slow phase.
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let total = |work: fn(&Shape) -> f64, n: fn(&ShapeTimes) -> usize| {
        fx.shapes
            .iter()
            .zip(&st.shapes)
            .map(|(s, t)| work(s) * n(t) as f64)
            .sum::<f64>()
    };
    out.notes.push(format!(
        "pass means: record {:.4} Minstr/s, replay {:.4} Minstr/s, local save {:.4} MB/s, \
         rr:// save {:.4} MB/s, rr:// load {:.4} MB/s",
        total(instrs, |t| t.record.len()) / sum(st.pooled(|t| &t.record)),
        total(replayed, |t| t.verdict.len()) / sum(st.pooled(|t| &t.verdict)),
        total(mb, |t| t.local_save.len()) / sum(st.pooled(|t| &t.local_save)),
        total(mb, |t| t.remote_save.len()) / sum(st.pooled(|t| &t.remote_save)),
        total(mb, |t| t.remote_load.len()) / sum(st.pooled(|t| &t.remote_load)),
    ));
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    out.notes
        .push(format!("set-ups, in order: {} s", setups.join(", ")));
    out.notes.push(format!(
        "medians: verdict {:.3} ms, rr:// save {:.3} ms",
        st.quantile_ms(|t| &t.verdict, 0.5),
        st.quantile_ms(|t| &t.remote_save, 0.5)
    ));
}

fn per_layer(out: &mut Outcome, fx: &Fixture, m: &Measured, calib: [Calibration; 2]) {
    let (st, pr, tr, walls) = (&m.stages, &m.probes, &m.traced, m.walls);
    // Exact counts are per round: one run of every shape of the workload.
    let shapes = &fx.shapes;
    let sum = |f: &dyn Fn(&Shape) -> u64| shapes.iter().map(f).sum::<u64>() as f64;
    let instrs = sum(&|s| s.sim.instrs);
    out.metric("sim.instrs", instrs, "count");
    out.metric("sim.cycles", sum(&|s| s.sim.cycles), "count");
    for (i, r) in shapes[0].sim.recorders.iter().enumerate() {
        let label = &r.label;
        out.metric(
            format!("recorder.{label}.log_entries"),
            sum(&|s| s.sim.recorders[i].entries),
            "count",
        );
        out.metric(
            format!("recorder.{label}.reordered"),
            sum(&|s| s.sim.recorders[i].reordered),
            "count",
        );
        out.metric(
            format!("recorder.{label}.log_bits_per_kinstr"),
            sum(&|s| s.sim.recorders[i].bits) / (instrs / 1e3),
            "bits/kinstr",
        );
    }
    out.metric("verdict_p50_ms", st.quantile_ms(|t| &t.verdict, 0.5), "ms");
    out.metric(
        "remote_save_p50_ms",
        st.quantile_ms(|t| &t.remote_save, 0.5),
        "ms",
    );
    let busy = |layer: &str| tr.busy_s(layer);
    let probe = |layer: &str| pr.tracer.busy_s(layer);
    out.metric("record.busy_s", busy("record"), "s");
    out.metric(
        "record.host_ns_per_sim_cycle",
        st.pooled(|t| &t.record).iter().sum::<f64>() * 1e9
            / fx.shapes
                .iter()
                .zip(&st.shapes)
                .map(|(s, t)| (s.sim.cycles * t.record.len() as u64) as f64)
                .sum::<f64>(),
        "ns",
    );
    out.metric(
        "recorder.share",
        1.0 - probe("record.bare") / busy("record"),
        "fraction",
    );
    out.metric("store.load_busy_s", busy("store.load"), "s");
    out.metric("ingest.decode_busy_s", probe("ingest.decode"), "s");
    out.metric(
        "ingest.decode_mb_per_s",
        pr.decoded_bytes as f64 / 1e6 / probe("ingest.decode"),
        "MB/s",
    );
    out.metric("store.truth_busy_s", probe("store.truth"), "s");
    out.metric("wire.encode_busy_s", probe("wire.encode"), "s");
    out.metric(
        "wire.encode_mb_per_s",
        pr.encoded_bytes as f64 / 1e6 / probe("wire.encode"),
        "MB/s",
    );
    out.metric("store.local_save_busy_s", busy("store.local_save"), "s");
    out.metric(
        "store.stored_bytes_per_log_byte",
        pr.counts.stored_bytes as f64 / pr.trip_bytes as f64,
        "ratio",
    );
    out.metric("patch.busy_s", busy("patch"), "s");
    out.metric("patch.ops", sum(&|s| s.replay.patch_ops), "count");
    out.metric("replayer.busy_s", busy("replayer"), "s");
    out.metric("replayer.mem_clone_busy_s", busy("replayer.mem_clone"), "s");
    let events =
        |f: &dyn Fn(&rr_replay::ReplayEvents) -> u64| sum(&|s| s.replay.events.iter().map(f).sum());
    out.metric("replayer.user_instrs", events(&|e| e.user_instrs), "count");
    out.metric("replayer.intervals", events(&|e| e.intervals), "count");
    out.metric("replayer.blocks", events(&|e| e.blocks), "count");
    out.metric(
        "replayer.injected_loads",
        events(&|e| e.injected_loads),
        "count",
    );
    out.metric("verify.busy_s", busy("verify"), "s");
    out.metric("dag.build_busy_s", probe("dag.build"), "s");
    out.metric("dag.nodes", sum(&|s| s.replay.dag_nodes), "count");
    out.metric("dag.edges", sum(&|s| s.replay.dag_edges), "count");
    out.metric(
        "dag.critical_path",
        sum(&|s| s.replay.dag_critical_path),
        "count",
    );
    out.metric("engine.thr1_busy_s", probe("engine.thr1"), "s");
    out.metric(
        "engine.thr1_over_seq",
        probe("engine.thr1") / busy("replayer"),
        "ratio",
    );
    out.metric("serve.save_busy_s", busy("serve.save"), "s");
    out.metric("serve.load_busy_s", busy("serve.load"), "s");
    let per_save = |n: u64| n as f64 / pr.trips as f64;
    out.metric("serve.chunks", per_save(pr.counts.chunks), "count");
    out.metric("serve.dedup_hits", per_save(pr.counts.dedup_hits), "count");
    out.metric("serve.seals", per_save(pr.counts.seals), "count");
    out.metric(
        "serve.requests_per_save",
        per_save(pr.counts.chunks + pr.counts.seals),
        "count",
    );
    out.metric(
        "serve.dedup_ratio",
        pr.counts.dedup_ratio / pr.trips as f64,
        "ratio",
    );
    out.metric("bench.admin_busy_s", busy("bench.admin"), "s");
    out.metric("bench.check_busy_s", busy("bench.check"), "s");

    // Reconciliation: the traced cycles' wall time against the sum of the
    // layer spans taken inside them.
    let (untraced, traced) = (walls[0].as_secs_f64(), walls[1].as_secs_f64());
    let layer_sum = tr.total_s();
    out.metric("pass_s", traced, "s");
    out.metric("layer_sum_s", layer_sum, "s");
    out.metric("unattributed_s", traced - layer_sum, "s");
    out.metric("untraced_pass_s", untraced, "s");
    out.metric("trace.overhead_frac", traced / untraced - 1.0, "fraction");
    out.metric(
        "host.calib_l1_mops",
        (calib[0].l1_mops + calib[1].l1_mops) / 2.0,
        "Mops/s",
    );
    out.metric(
        "host.calib_llc_mops",
        (calib[0].llc_mops + calib[1].llc_mops) / 2.0,
        "Mops/s",
    );
    out.notes.push(format!(
        "reconciliation: traced pass {traced:.4} s (untraced twin {untraced:.4} s), layer sum \
         {layer_sum:.4} s, unattributed {:.4} s",
        traced - layer_sum
    ));
    for (layer, s) in tr.layers() {
        out.notes.push(format!(
            "  {layer:<20} {s:>9.4} s  {:>5.1}% of traced pass",
            100.0 * s / traced
        ));
    }
}
