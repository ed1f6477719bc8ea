//! Simulation clock: integer nanoseconds since simulation start.
//!
//! All scheduling is done on a `u64` nanosecond timeline, which keeps event
//! ordering exact and runs deterministic across platforms (no accumulated
//! floating-point drift in the clock itself; rates are converted to integer
//! nanoseconds at the point of use).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation timeline, in nanoseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0 && secs.is_finite());
        SimTime((secs * 1e9).round() as u64)
    }

    /// Builds a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as `f64` (for reporting; the clock
    /// itself never goes through floating point).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self − earlier` in nanoseconds.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, nanos: u64) -> SimTime {
        SimTime(self.0 + nanos)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, nanos: u64) {
        self.0 += nanos;
    }
}

impl Sub for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative time difference");
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime(100);
        assert_eq!((t + 50).as_nanos(), 150);
        assert_eq!(SimTime(150) - t, 50);
        assert_eq!(t.since(SimTime(150)), 0); // saturates
        let mut u = t;
        u += 25;
        assert_eq!(u.as_nanos(), 125);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime::ZERO, SimTime(0));
    }
}
