//! Virtual time.
//!
//! The simulator advances a discrete virtual clock measured in abstract
//! *ticks*. The paper parameterises its timeouts by `T`, the longest
//! end-to-end propagation delay of the network; configurations express
//! delays and timeouts as multiples of that bound (`2T` for ack
//! collection, `3T` for coordinator-silence detection).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in ticks since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);

    /// Saturating subtraction returning a duration.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of virtual time, in ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Multiplies the duration by an integer factor (used for `2T`, `3T`).
    #[inline]
    pub fn times(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        assert_eq!(Time(5) + Duration(3), Time(8));
        let mut t = Time(1);
        t += Duration(2);
        assert_eq!(t, Time(3));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Time(3).since(Time(5)), Duration(0));
        assert_eq!(Time(9).since(Time(4)), Duration(5));
        assert_eq!(Time(9) - Time(4), Duration(5));
    }

    #[test]
    fn duration_times_models_paper_timeouts() {
        let t = Duration(10); // max end-to-end delay T
        assert_eq!(t.times(2), Duration(20)); // 2T ack window
        assert_eq!(t.times(3), Duration(30)); // 3T coordinator silence
    }
}
