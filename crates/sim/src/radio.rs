//! The wireless channel: unit-disk propagation with loss, delay and
//! per-byte transmission time.
//!
//! This deliberately simple model preserves exactly what the protocol
//! logic depends on: who hears a broadcast, that unicast to an
//! out-of-range node silently fails (→ RERR path), that packets are
//! sometimes lost, and that bigger packets take longer — which is how the
//! security overhead becomes a latency cost in E2.

use crate::time::SimDuration;
use rand::Rng;

/// Channel parameters.
#[derive(Clone, Debug)]
pub struct RadioConfig {
    /// Reception range in metres (unit disk).
    pub range: f64,
    /// Independent per-reception loss probability in `[0, 1)`.
    pub loss: f64,
    /// Fixed per-hop processing + propagation latency.
    pub base_delay: SimDuration,
    /// Random extra delay, uniform in `[0, jitter]`; also serves as a
    /// cheap stand-in for MAC contention so simultaneous broadcasts
    /// interleave rather than arrive in lockstep.
    pub jitter: SimDuration,
    /// Link bandwidth in bits per second (transmission delay = size/bw).
    pub bits_per_sec: f64,
    /// Optional gray zone: broadcast reception probability falls off
    /// linearly from `(1 - loss)` at `range` to zero at this radius.
    /// Models the marginal-link band real radios have instead of a hard
    /// edge. `None` (default) keeps the crisp unit disk. Unicast (MAC
    /// ARQ) still requires `d ≤ range`.
    pub gray_zone: Option<f64>,
}

impl Default for RadioConfig {
    /// 250 m range, 1% loss, 1 ms base latency, 2 ms jitter, 2 Mb/s —
    /// 802.11-era ad hoc numbers matching the paper's 2003 context.
    fn default() -> Self {
        RadioConfig {
            range: 250.0,
            loss: 0.01,
            base_delay: SimDuration::from_micros(1_000),
            jitter: SimDuration::from_micros(2_000),
            bits_per_sec: 2_000_000.0,
            gray_zone: None,
        }
    }
}

impl RadioConfig {
    /// Is a receiver at distance `d` within (reliable) range?
    pub fn in_range(&self, d: f64) -> bool {
        d <= self.range
    }

    /// Farthest distance at which any reception is possible.
    pub fn max_range(&self) -> f64 {
        self.gray_zone.unwrap_or(self.range).max(self.range)
    }

    /// Probability that a broadcast is received at distance `d`.
    pub fn reception_prob(&self, d: f64) -> f64 {
        if d <= self.range {
            return 1.0 - self.loss;
        }
        match self.gray_zone {
            Some(gz) if d <= gz && gz > self.range => {
                (1.0 - (d - self.range) / (gz - self.range)) * (1.0 - self.loss)
            }
            _ => 0.0,
        }
    }

    /// Sample whether a broadcast at distance `d` is received.
    pub fn sample_broadcast_reception<R: Rng>(&self, d: f64, rng: &mut R) -> bool {
        let p = self.reception_prob(d);
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        rng.gen::<f64>() < p
    }

    /// Sample the total delay for delivering `bytes` over one hop.
    pub fn sample_delay<R: Rng>(&self, bytes: usize, rng: &mut R) -> SimDuration {
        let tx_us = (bytes as f64 * 8.0 / self.bits_per_sec * 1e6) as u64;
        let jitter_us = if self.jitter.as_micros() > 0 {
            rng.gen_range(0..=self.jitter.as_micros())
        } else {
            0
        };
        SimDuration::from_micros(self.base_delay.as_micros() + tx_us + jitter_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn range_check_is_inclusive() {
        let r = RadioConfig {
            range: 100.0,
            ..RadioConfig::default()
        };
        assert!(r.in_range(100.0));
        assert!(!r.in_range(100.01));
        assert!(r.in_range(0.0));
    }

    #[test]
    fn zero_loss_never_drops() {
        let r = RadioConfig {
            loss: 0.0,
            ..RadioConfig::default()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert!((0..1000).all(|_| r.sample_broadcast_reception(r.range, &mut rng)));
    }

    #[test]
    fn loss_rate_close_to_configured() {
        let r = RadioConfig {
            loss: 0.25,
            ..RadioConfig::default()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let drops = (0..10_000)
            .filter(|_| !r.sample_broadcast_reception(r.range, &mut rng))
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn gray_zone_probability_falls_linearly() {
        let r = RadioConfig {
            range: 100.0,
            loss: 0.0,
            gray_zone: Some(200.0),
            ..RadioConfig::default()
        };
        assert_eq!(r.reception_prob(50.0), 1.0);
        assert_eq!(r.reception_prob(100.0), 1.0);
        assert!((r.reception_prob(150.0) - 0.5).abs() < 1e-12);
        assert_eq!(r.reception_prob(200.0), 0.0);
        assert_eq!(r.reception_prob(300.0), 0.0);
        assert_eq!(r.max_range(), 200.0);
        // Unicast range stays crisp.
        assert!(r.in_range(100.0));
        assert!(!r.in_range(150.0));
    }

    #[test]
    fn gray_zone_composes_with_loss() {
        let r = RadioConfig {
            range: 100.0,
            loss: 0.2,
            gray_zone: Some(200.0),
            ..RadioConfig::default()
        };
        assert!((r.reception_prob(0.0) - 0.8).abs() < 1e-12);
        assert!((r.reception_prob(150.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn no_gray_zone_is_a_crisp_disk() {
        let r = RadioConfig {
            range: 100.0,
            loss: 0.0,
            ..RadioConfig::default()
        };
        assert_eq!(r.reception_prob(100.0), 1.0);
        assert_eq!(r.reception_prob(100.01), 0.0);
        assert_eq!(r.max_range(), 100.0);
    }

    #[test]
    fn gray_zone_sampling_tracks_probability() {
        let r = RadioConfig {
            range: 100.0,
            loss: 0.0,
            gray_zone: Some(200.0),
            ..RadioConfig::default()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let hits = (0..10_000)
            .filter(|_| r.sample_broadcast_reception(150.0, &mut rng))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn delay_scales_with_size() {
        let r = RadioConfig {
            jitter: SimDuration::ZERO,
            ..RadioConfig::default()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let small = r.sample_delay(100, &mut rng);
        let large = r.sample_delay(10_000, &mut rng);
        assert!(large > small);
        // 10_000 bytes at 2 Mb/s = 40 ms of pure transmission.
        assert_eq!(
            large.as_micros() - small.as_micros(),
            (9_900.0 * 8.0 / 2.0) as u64
        );
    }

    #[test]
    fn delay_includes_base_and_bounded_jitter() {
        let r = RadioConfig::default();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        for _ in 0..1000 {
            let d = r.sample_delay(0, &mut rng);
            assert!(d >= r.base_delay);
            assert!(d.as_micros() <= r.base_delay.as_micros() + r.jitter.as_micros());
        }
    }
}
