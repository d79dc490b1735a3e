//! Virtual time for simulation and scheduling.
//!
//! All timing in the middleware is expressed in [`SimTime`] (an absolute
//! instant, microseconds since the start of the run) and [`SimDuration`]
//! (a span, also in microseconds). Integer microseconds give deterministic
//! arithmetic — no floating-point drift in the event queue — while being
//! fine-grained enough for the millisecond-scale latencies and deadlines the
//! paper deals with.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in microseconds since run start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The instant at which every run starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from fractional seconds (rounded to microseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative time");
        SimTime((s * 1e6).round() as u64)
    }

    /// This instant expressed in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "unbounded" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional seconds (rounded to microseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration((s * 1e6).round() as u64)
    }

    /// This span expressed in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This span expressed in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Checked subtraction: `None` on underflow.
    #[inline]
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a non-negative float, rounding to microseconds.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "negative scale");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Returns true if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
        assert_eq!(
            SimDuration::from_secs(1),
            SimDuration::from_micros(1_000_000)
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 2, SimDuration::from_secs(6));
        assert_eq!(d / 3, SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(1_500));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_micros(1_234_567);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1234.567).abs() < 1e-9);
        let d = SimDuration::from_secs_f64(t.as_secs_f64());
        assert_eq!(d.as_micros(), 1_234_567);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }
}
