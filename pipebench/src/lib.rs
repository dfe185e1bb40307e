//! A single-process pipeline benchmark for the RelaxReplay reproduction:
//! record, store (local and `rr://`), and replay verdicts, each timed
//! through the layers' public APIs. See `README.md` beside this crate.

pub mod bench;
pub mod host;
pub mod pipeline;
pub mod trace;
