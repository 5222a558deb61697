//! Simulated time.
//!
//! The simulator uses a discrete logical clock measured in *ticks*. One tick
//! is interpreted as one microsecond throughout the workspace (so
//! [`SimDuration::from_millis`] multiplies by 1000), but nothing in the
//! kernel depends on that interpretation: all scheduling is purely ordinal.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in ticks since time zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

/// A span of simulated time, in ticks.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl Time {
    /// The origin of the simulation clock.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct an instant `ms` milliseconds after time zero.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000)
    }

    /// Construct an instant `s` seconds after time zero.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in (whole) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Elapsed span since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: Time) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a span.
    pub fn saturating_add(self, d: SimDuration) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// A span of `s` seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// A span of `us` ticks (microseconds under the default interpretation).
    pub const fn from_ticks(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This span expressed in (whole) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Multiply the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for Time {
    type Output = Time;
    fn add(self, rhs: SimDuration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Time {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = SimDuration;
    fn sub(self, rhs: Time) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Time::from_millis(3).ticks(), 3_000);
        assert_eq!(Time::from_secs(2), Time::from_millis(2_000));
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        assert_eq!(t - Time::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(t.since(Time::from_millis(20)), SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::MAX.saturating_add(SimDuration(1)), Time::MAX);
        assert_eq!(
            SimDuration(u64::MAX).saturating_mul(2),
            SimDuration(u64::MAX)
        );
    }

    #[test]
    fn ordering_is_by_tick() {
        assert!(Time(1) < Time(2));
        assert!(SimDuration(5) > SimDuration(4));
    }
}
