//! Measurement collection.
//!
//! The engine's own counters — the link layer's and node deaths — and
//! the sample series protocols record through [`crate::engine::Ctx`].
//! Protocol counters are not kept here: each protocol counts its own
//! events in its own state. Everything is plain data so results can
//! cross thread boundaries in the parallel runner.

use std::collections::BTreeMap;

/// `counters! { pub enum Name { Variant = "dotted.name", … } }`: a
/// counter enum listed in name order, with its `ALL` table, `COUNT` and
/// the dotted name each variant reports under. The engine's
/// [`LinkCounter`] and the protocol layer's per-node counters are both
/// declared with it.
#[macro_export]
macro_rules! counters {
    ($(#[$doc:meta])* pub enum $ty:ident { $($variant:ident = $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $ty {
            $($variant,)+
        }

        impl $ty {
            /// Every counter, in name order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant,)+];
            pub const COUNT: usize = [$($name,)+].len();

            /// The dotted name reports use.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// One engine counter: the link layer's, and node deaths.
    pub enum LinkCounter {
        LinkFailures = "phy.link_failures",
        RxBytes = "phy.rx_bytes",
        RxDroppedDead = "phy.rx_dropped_dead",
        RxDroppedLoss = "phy.rx_dropped_loss",
        RxFrames = "phy.rx_frames",
        TxBroadcasts = "phy.tx_broadcasts",
        TxBytes = "phy.tx_bytes",
        TxFrames = "phy.tx_frames",
        TxUnicastUnreachable = "phy.tx_unicast_unreachable",
        TxUnicasts = "phy.tx_unicasts",
        NodesKilled = "sim.nodes_killed",
    }
}

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

/// All measurements of one simulation run: the [`LinkCounter`] table,
/// read as `metrics[counter]`, and the sample series.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counts: [u64; LinkCounter::COUNT],
    pub(crate) series: BTreeMap<&'static str, Series>,
}

impl std::ops::Index<LinkCounter> for Metrics {
    type Output = u64;

    fn index(&self, c: LinkCounter) -> &u64 {
        &self.counts[c as usize]
    }
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `c`.
    #[inline]
    pub(crate) fn count(&mut self, c: LinkCounter, by: u64) {
        self.counts[c as usize] += by;
    }

    /// Read a counter by its dotted name (0 for a name no engine
    /// counter has). Typed readers index with a [`LinkCounter`].
    pub fn counter(&self, name: &str) -> u64 {
        LinkCounter::ALL
            .iter()
            .find(|c| c.name() == name)
            .map_or(0, |&c| self[c])
    }

    /// Record a sample into series `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().record(v);
    }

    /// Read a series (empty if never touched).
    pub fn series(&self, name: &str) -> Series {
        self.series.get(name).cloned().unwrap_or_default()
    }

    /// All series names, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.series.keys().copied()
    }

    /// Add this instance's counters into `dst` and zero them here. The
    /// sharded executor calls this per epoch to fold order-insensitive
    /// per-shard counts into the global metrics.
    pub(crate) fn drain_counts_into(&mut self, dst: &mut Metrics) {
        for (d, s) in dst.counts.iter_mut().zip(&mut self.counts) {
            *d += std::mem::take(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count(LinkCounter::TxFrames, 1);
        m.count(LinkCounter::TxFrames, 2);
        assert_eq!(m[LinkCounter::TxFrames], 3);
        assert_eq!(m[LinkCounter::RxFrames], 0);
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
    fn link_counters_run_in_name_order_and_resolve_by_name() {
        let mut m = Metrics::new();
        for (i, &c) in LinkCounter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} indexes its own row");
            m.count(c, i as u64 + 1);
        }
        for pair in LinkCounter::ALL.windows(2) {
            assert!(pair[0].name() < pair[1].name(), "{pair:?}");
        }
        for (i, &c) in LinkCounter::ALL.iter().enumerate() {
            assert_eq!(m.counter(c.name()), i as u64 + 1);
        }
        let protocol_counter = "ctl.tx_bytes";
        assert_eq!(m.counter(protocol_counter), 0, "not an engine counter");
    }

    #[test]
    fn drain_counts_zeroes_source_and_accumulates_dest() {
        let (tx, rx) = (LinkCounter::TxFrames, LinkCounter::RxFrames);
        let mut src = Metrics::new();
        let mut dst = Metrics::new();
        src.count(tx, 3);
        src.count(rx, 1);
        src.drain_counts_into(&mut dst);
        assert_eq!(dst[tx], 3);
        assert_eq!(src[tx], 0, "source zeroed");
        src.count(tx, 2);
        src.drain_counts_into(&mut dst);
        assert_eq!(dst[tx], 5);
        assert_eq!(dst[rx], 1);
    }
}
