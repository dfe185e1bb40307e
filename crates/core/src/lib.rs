//! # relaxreplay — memory race recording for relaxed-consistency multiprocessors
//!
//! A from-scratch reproduction of **RelaxReplay** (Nima Honarmand and Josep
//! Torrellas, *RelaxReplay: Record and Replay for Relaxed-Consistency
//! Multiprocessors*, ASPLOS 2014): the first complete hardware-assisted
//! memory race recorder that works for any relaxed-consistency memory model
//! with write atomicity.
//!
//! ## The idea
//!
//! Each memory instruction has a **perform** event (when it becomes globally
//! visible) and a post-completion, in-program-order **counting** event.
//! Execution is recorded as **intervals** — the periods between
//! inter-processor communications. For almost every access, the perform
//! event can be *logically moved* forward to its counting event because no
//! other processor observed the access in between; such accesses are logged
//! implicitly as part of a compact `InorderBlock` run. The rare access that
//! *was* observed in between is logged explicitly with its value
//! (`ReorderedLoad`) or its address/value/interval-offset
//! (`ReorderedStore`).
//!
//! Two designs are provided (paper §3.2):
//!
//! * [`Design::Base`] declares an access reordered whenever its perform and
//!   counting events fall in different intervals (PISN ≠ CISN);
//! * [`Design::Opt`] adds a [`SnoopTable`] that tracks observed coherence
//!   transactions, declaring the access reordered only on a genuine
//!   (possibly aliased) conflict — shrinking the log by an order of
//!   magnitude (paper Figure 11).
//!
//! ## Pieces
//!
//! * [`Recorder`] — the per-processor Memory Race Recorder: plugs into an
//!   `rr-cpu` core as its `CoreObserver`, watches coherence snoops, and
//!   emits an [`IntervalLog`].
//! * [`Traq`-backed tracking](Recorder) — the Tracking Queue that follows
//!   each access from dispatch to counting (paper Figure 3).
//! * [`Signature`] — Bloom-filter read/write sets for interval termination
//!   (QuickRec-style ordering with a global timestamp).
//! * [`SnoopTable`] — RelaxReplay_Opt's conflict filter.
//! * [`IntervalLog`] / [`LogEntry`] — the log format of paper Figure 6(c),
//!   with bit-exact size accounting and a binary codec.
//! * [`wire`] — the streaming `.rrlog` wire format: [`LogSink`] /
//!   [`LogSource`] traits plus a chunked, CRC32-checksummed, varint/delta
//!   codec that survives truncation and detects corruption.
//! * [`trace`] — structured event tracing: bounded per-core timelines of
//!   the recorder's internal decisions (interval opens/closes, perform and
//!   counting events with classification verdicts, coherence traffic),
//!   exportable as JSONL sidecars or Perfetto-loadable Chrome trace JSON.
//! * [`prof`] — self-profiling primitives: per-worker replay-engine span
//!   timelines, codec per-phase timings, and the `rr-prof/v1` sidecar
//!   schema. The trace layer observes the simulated machine; this layer
//!   observes the replayer and codec themselves.
//!
//! Deterministic replay of these logs lives in the `rr-replay` crate; the
//! full simulated machine (cores + coherence + recorders) in `rr-sim`.
//!
//! ```
//! use relaxreplay::{Design, Recorder, RecorderConfig};
//! use rr_mem::CoreId;
//!
//! let cfg = RecorderConfig::splash_default(Design::Opt, Some(4096));
//! let mut rec = Recorder::new(CoreId::new(0), cfg);
//! // ... attach to a core, run, then:
//! rec.finish(0);
//! let log = rec.into_log();
//! assert_eq!(log.intervals(), 0); // nothing was recorded here
//! ```

#![warn(missing_docs)]
// Unsafe is denied crate-wide; the single sanctioned exception is the
// `mmapio` module (raw `mmap`/`munmap` for zero-copy log reading), which
// opts back in locally and documents every invariant.
#![deny(unsafe_code)]

mod hash;
pub mod index;
mod log;
pub mod mmapio;
pub mod prof;
mod recorder;
mod signature;
mod snoop_table;
pub mod trace;
mod traq;
pub mod wire;

pub use trace::{
    CloseReason, CountVerdict, RunTrace, TraceConfig, TraceEvent, TraceLevel, TraceRecord,
    TraceRing,
};

pub use crate::log::{IntervalLog, LogEntry};
pub use crate::prof::{
    engine_chrome_trace, validate_prof_json, CodecPhases, EngineProf, Span, SpanKind, WorkerProf,
};
pub use hash::{rr_hash64, H3};
pub use index::{IndexChunk, IndexProvenance, SkipIndex};
pub use mmapio::{MappedBytes, MappedSource};
pub use recorder::{Design, IntervalOrdering, Recorder, RecorderConfig, RecorderStats};
pub use signature::Signature;
pub use snoop_table::{SnoopSample, SnoopTable};
pub use wire::{
    chunk_map, chunk_map_with, chunk_spans, decode_chunked_range, ChunkInfo, ChunkSpan,
    ChunkedReader, ChunkedWriter, DecodeScratch, FailingSink, LogSink, LogSource, MemorySource,
    Salvage, VecSink, WireError,
};
