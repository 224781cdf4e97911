//! Virtual time in integer microseconds: event ordering stays exact (no
//! floating-point ties), and a `u64` spans ~584k years of simulated time —
//! ample for availability experiments that simulate years of failures.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of virtual time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since simulation start.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Virtual seconds since simulation start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds (rounds to microseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s >= 0.0 && s.is_finite(), "duration must be non-negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Microseconds in this duration.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
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
        assert_eq!(t.micros(), 5_000);
        let t2 = t + SimDuration::from_secs(1);
        assert_eq!((t2 - t).micros(), 1_000_000);
        assert_eq!(t2.since(t).micros(), 1_000_000);
        assert_eq!(t.since(t2), SimDuration::ZERO);
        assert_eq!((SimDuration::from_micros(10) * 3).micros(), 30);
        assert_eq!((SimDuration::from_micros(10) / 4).micros(), 2);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).micros(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.0).micros(), 0);
        assert!((SimTime(2_500_000).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
