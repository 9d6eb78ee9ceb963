//! Simulated time.
//!
//! Time is measured in abstract *ticks*. The paper's uniform cost model
//! (§3.2) defines one unit of latency as the time to complete `c`
//! computations or transmit `b` units of data; we let one tick equal one
//! such latency unit, so simulated durations are directly comparable with
//! the analytical estimates produced by `wsn-core::estimate`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in ticks since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as "never" for absent timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Raw tick count since the start of the run.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a tick count.
    pub const fn saturating_add(self, ticks: u64) -> Self {
        SimTime(self.0.saturating_add(ticks))
    }

    /// Elapsed ticks since `earlier`; zero when `earlier` is in the future.
    pub const fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs)
                .expect("simulated time overflowed u64 ticks"),
        )
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Add<SimTime> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        self + rhs.0
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("subtracted a later SimTime from an earlier one")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.ticks(), 0);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let t = SimTime::from_ticks(10) + 5;
        assert_eq!(t.ticks(), 15);
        assert_eq!(t - SimTime::from_ticks(10), 5);
    }

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert!(SimTime::MAX > SimTime::from_ticks(u64::MAX - 1));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(10), SimTime::MAX);
        assert_eq!(SimTime::ZERO.saturating_since(SimTime::from_ticks(5)), 0);
        assert_eq!(
            SimTime::from_ticks(7).saturating_since(SimTime::from_ticks(5)),
            2
        );
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn add_overflow_panics() {
        let _ = SimTime::MAX + 1;
    }

    #[test]
    #[should_panic(expected = "subtracted a later")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_ticks(1);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_ticks(42).to_string(), "t=42");
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 3;
        t += 4;
        assert_eq!(t.ticks(), 7);
    }
}
