//! Measurement collection.
//!
//! Counters and sample series keyed by static names. Protocols record
//! into this through [`crate::engine::Ctx`]; experiment harnesses read it
//! out after the run. Everything is plain data so results can cross
//! thread boundaries in the parallel runner.

use std::collections::BTreeMap;

/// A series of f64 samples with summary accessors.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.sum() / self.samples.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let m = self.mean();
        (self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64)
            .sqrt()
    }

    /// Percentile in `[0, 100]` by nearest-rank on a sorted copy.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// All measurements of one simulation run.
///
/// Counters are a small flat table scanned with pointer-first equality
/// and a move-toward-front heuristic: `count` runs several times per
/// dispatched event, and the B-tree's string comparisons used to show
/// up in scale-run profiles. A simulation touches a few dozen distinct
/// counter names, the hot `phy.*`/`ctl.*` handful settles at the head,
/// and `&'static str` call sites make the pointer test hit virtually
/// always (the `==` fallback keeps correctness if two call sites carry
/// duplicate literals at different addresses).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: Vec<(&'static str, u64)>,
    series: BTreeMap<&'static str, Series>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str, by: u64) {
        for i in 0..self.counters.len() {
            let (key, v) = &mut self.counters[i];
            if std::ptr::eq(*key, name) || *key == name {
                *v += by;
                if i > 3 {
                    self.counters.swap(i, i / 2);
                }
                return;
            }
        }
        self.counters.push((name, by));
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Record a sample into series `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().record(v);
    }

    /// Read a series (empty if never touched).
    pub fn series(&self, name: &str) -> Series {
        self.series.get(name).cloned().unwrap_or_default()
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        let mut names: Vec<&'static str> = self.counters.iter().map(|&(k, _)| k).collect();
        names.sort_unstable();
        names.into_iter()
    }

    /// All series names, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.series.keys().copied()
    }

    /// Drain this instance's counter totals into `dst`, zeroing them
    /// here but keeping the table (names, order, capacity) so the hot
    /// `count` path stays warm. The sharded executor calls this per
    /// epoch to fold order-insensitive per-shard counts into the global
    /// metrics without reallocating.
    pub(crate) fn drain_counts_into(&mut self, dst: &mut Metrics) {
        for i in 0..self.counters.len() {
            let (k, v) = self.counters[i];
            if v > 0 {
                dst.count(k, v);
                self.counters[i].1 = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count("tx", 1);
        m.count("tx", 2);
        assert_eq!(m.counter("tx"), 3);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn series_stats() {
        let mut s = Series::default();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert!((s.std_dev() - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_series_yields_nan_not_panic() {
        let s = Series::default();
        assert!(s.mean().is_nan());
        assert!(s.percentile(50.0).is_nan());
        assert!(s.std_dev().is_nan());
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = Series::default();
        s.record(7.0);
        assert_eq!(s.percentile(99.0), 7.0);
    }

    #[test]
    fn counter_names_stay_sorted_regardless_of_touch_order() {
        let mut m = Metrics::new();
        for name in ["zz", "aa", "mm", "aa", "zz", "zz"] {
            m.count(name, 1);
        }
        let names: Vec<&str> = m.counter_names().collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
        assert_eq!(m.counter("zz"), 3);
        assert_eq!(m.counter("aa"), 2);
    }

    #[test]
    fn drain_counts_zeroes_source_and_accumulates_dest() {
        let mut src = Metrics::new();
        let mut dst = Metrics::new();
        src.count("tx", 3);
        src.count("rx", 1);
        src.drain_counts_into(&mut dst);
        assert_eq!(dst.counter("tx"), 3);
        assert_eq!(src.counter("tx"), 0, "source zeroed, not dropped");
        src.count("tx", 2);
        src.drain_counts_into(&mut dst);
        assert_eq!(dst.counter("tx"), 5);
        assert_eq!(dst.counter("rx"), 1);
    }

    #[test]
    fn hot_counters_move_toward_front_without_losing_counts() {
        let mut m = Metrics::new();
        // Ten distinct names, then hammer the last one: totals must stay
        // exact whatever the internal reordering does.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "hot"];
        for n in names {
            m.count(n, 1);
        }
        for _ in 0..1000 {
            m.count("hot", 2);
        }
        assert_eq!(m.counter("hot"), 2001);
        for n in &names[..9] {
            assert_eq!(m.counter(n), 1, "{n} clobbered");
        }
    }
}
