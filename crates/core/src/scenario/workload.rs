//! Declarative traffic descriptions, executed by the one shared driver
//! ([`Network::run`](super::Network::run)).
//!
//! A [`Workload`] is pure data: which host-index pairs exchange traffic,
//! how many rounds, at what spacing, and how long the network idles
//! before (`warmup`) and after (`drain`) the traffic. Scenario authors
//! compose these instead of hand-rolling send loops, so every experiment
//! shares one execution path and one [`RunReport`](super::RunReport).

use manet_sim::SimDuration;

/// The payload byte and size every scenario flow has always used; kept
/// as the default so same-seed traces are stable across the API
/// generations.
pub(crate) const DEFAULT_PAYLOAD: (u8, usize) = (0xda, 64);

/// A declarative traffic pattern over host indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    /// `(source, destination)` host-index pairs; every pair sends one
    /// packet per round.
    pub flows: Vec<(usize, usize)>,
    /// Number of rounds.
    pub packets: usize,
    /// Gap between consecutive rounds.
    pub interval: SimDuration,
    /// Idle time before the first round — e.g. to let neighbor caches
    /// form in a static network before the first flood.
    pub warmup: SimDuration,
    /// Idle time after the last round (ack settling). Anchored at the
    /// later of "now" and the last scheduled join, so a drain on a
    /// freshly built staggered network covers the whole join storm.
    pub drain: SimDuration,
    /// Payload bytes per packet.
    pub payload_len: usize,
}

impl Workload {
    /// `packets` rounds of one packet per flow, spaced by `interval`,
    /// with the classic 5 s ack drain and no warmup — the shape every
    /// legacy `run_flows` call used.
    pub fn flows(flows: Vec<(usize, usize)>, packets: usize, interval: SimDuration) -> Self {
        Workload {
            flows,
            packets,
            interval,
            warmup: SimDuration::ZERO,
            drain: SimDuration::from_secs(5),
            payload_len: DEFAULT_PAYLOAD.1,
        }
    }

    /// No traffic at all: drive the engine for `drain` past the last
    /// join. Useful to observe formation, mobility, or churn on its own.
    pub fn idle(drain: SimDuration) -> Self {
        Workload {
            flows: Vec::new(),
            packets: 0,
            interval: SimDuration::ZERO,
            warmup: SimDuration::ZERO,
            drain,
            payload_len: DEFAULT_PAYLOAD.1,
        }
    }

    /// The bootstrap-storm observation workload: no traffic, a 3 s drain
    /// anchored past the last staggered join — exactly the window
    /// [`Network::bootstrap`](super::Network::bootstrap) uses to let
    /// every host finish DAD and the DNS commit its names.
    pub fn bootstrap_storm() -> Self {
        Self::idle(SimDuration::from_secs(3))
    }

    /// Everyone-to-one traffic (the status-report / sink shape): each
    /// host index in `sources` sends to `sink` every round.
    pub fn converge_cast(
        sources: impl IntoIterator<Item = usize>,
        sink: usize,
        packets: usize,
        interval: SimDuration,
    ) -> Self {
        Self::flows(
            sources.into_iter().map(|s| (s, sink)).collect(),
            packets,
            interval,
        )
    }

    /// Builder-style warmup override.
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_matches_legacy_run_flows_shape() {
        let w = Workload::flows(vec![(0, 4)], 10, SimDuration::from_millis(300));
        assert_eq!(w.warmup, SimDuration::ZERO, "legacy calls had no warmup");
        assert_eq!(w.drain, SimDuration::from_secs(5));
        assert_eq!(w.payload_len, 64);
    }

    #[test]
    fn converge_cast_fans_into_the_sink() {
        let w = Workload::converge_cast(1..4, 0, 2, SimDuration::from_millis(100));
        assert_eq!(w.flows, vec![(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn bootstrap_storm_is_a_pure_observation() {
        let w = Workload::bootstrap_storm();
        assert!(w.flows.is_empty());
        assert_eq!(w.packets, 0);
        assert_eq!(w.drain, SimDuration::from_secs(3));
    }

    #[test]
    fn with_overrides_compose() {
        let w = Workload::flows(vec![(0, 1)], 1, SimDuration::from_millis(50))
            .with_warmup(SimDuration::from_secs(1));
        assert_eq!(w.warmup, SimDuration::from_secs(1));
        assert_eq!(w.drain, SimDuration::from_secs(5));
        assert_eq!(w.payload_len, 64);
    }
}
