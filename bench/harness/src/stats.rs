//! The arithmetic every reported value rests on: the best-of-run
//! estimator and the median/quartile diagnostics printed beside it.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The best value of a run's reps: the minimum of a lower-is-better
/// metric, the maximum of a higher-is-better one. Reps are deterministic
/// and run one at a time, so what varies between them is the host, and
/// the best rep is the one the host disturbed least. `None` when empty.
pub fn best(values: &[f64], better: Better) -> Option<f64> {
    let pick = |a: f64, b: f64| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    };
    values.iter().copied().reduce(pick)
}

/// Order statistics of one timing over a run's reps (diagnostics only).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spreads printed here are the ones the
/// acceptance check computes. A single value is its own quartiles.
/// `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    let quantile = |i: usize| {
        if n == 1 {
            return min;
        }
        // Position i·(n+1)/4 on a 1-based scale, clamped so that both
        // neighbours exist, then linear interpolation.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    Some(Summary {
        n,
        min,
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
        max,
    })
}

/// The median alone (0 when empty, for metrics that must print).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_follows_the_direction_and_survives_ties() {
        let v = [3.0, 1.5, 1.5, 9.0];
        assert_eq!(best(&v, Better::Lower), Some(1.5));
        assert_eq!(best(&v, Better::Higher), Some(9.0));
        assert_eq!(best(&[2.0, 2.0], Better::Lower), Some(2.0));
        assert_eq!(best(&[], Better::Lower), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([7, 1, 3, 5], n=4) == [1.5, 4.0, 6.5]
        let s = summarize(&[7.0, 1.0, 3.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 6.5));
    }

    #[test]
    fn fewer_than_four_values_still_summarize() {
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ties_collapse_the_quartiles() {
        let s = summarize(&[5.0; 8]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (5.0, 5.0, 5.0, 5.0, 5.0)
        );
    }
}
