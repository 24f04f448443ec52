//! Virtual time.
//!
//! The simulator counts microseconds in a `u64`, which covers ~584k years
//! of simulated time — arithmetic can stay unchecked-by-inspection while
//! still being `debug_assert`ed at the few places overflow could matter.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is in the future (the subtraction would wrap).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            self >= earlier,
            "time ran backwards: {self:?} < {earlier:?}"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration((s * 1e6) as u64)
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + SimDuration::from_secs(1);
        assert_eq!((t2 - t).as_micros(), 1_000_000);
        assert_eq!(t2.since(t), SimDuration::from_secs(1));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimTime(1_500_000).as_secs_f64(), 1.5);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn negative_elapsed_panics() {
        let _ = SimTime(0).since(SimTime(1));
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }
}
