//! Timing spans recorded from the benchmark's side of each call into a
//! layer, and the sample statistics the report is built from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time per layer. When off, [`Tracer::span`] still times each call
/// (the end-to-end metrics need it) but records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    busy: BTreeMap<&'static str, Duration>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            busy: BTreeMap::new(),
        }
    }

    /// Runs `f` and returns its result with its duration, which is added
    /// to `layer` when tracing is on.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        if self.on {
            *self.busy.entry(layer).or_default() += took;
        }
        (out, took)
    }

    /// Seconds spent in `layer` so far.
    #[must_use]
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.busy.get(layer).map_or(0.0, Duration::as_secs_f64)
    }

    /// Seconds spent in every layer together.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.busy.values().map(Duration::as_secs_f64).sum()
    }

    /// Every layer with its busy seconds, sorted by name.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.busy.iter().map(|(k, v)| (*k, v.as_secs_f64()))
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; `NaN` when empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7).0, 7);
        assert_eq!(t.total_s(), 0.0);
        let mut t = Tracer::new(true);
        t.span("x", || std::thread::sleep(Duration::from_millis(2)));
        assert!(t.busy_s("x") >= 0.002);
    }
}
