//! The simulation time model.
//!
//! All of `webevo` measures time in **days** as `f64`. The paper's
//! measurement study (§2–3) observes the web once per day, while the
//! freshness analysis (§4) is continuous-time; a floating-point day count
//! serves both layers without conversions.
//!
//! Calendar constants follow the paper's conventions: 1 week = 7 days,
//! 1 month = 30 days, 4 months = 120 days.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One day, the base unit of simulation time.
pub const DAY: f64 = 1.0;
/// One week (7 days).
pub const WEEK: f64 = 7.0;
/// One month (30 days), the paper's crawl-cycle unit.
pub const MONTH: f64 = 30.0;
/// Four months (120 days), the paper's experiment horizon and the estimated
/// overall average change interval (§3.1).
pub const FOUR_MONTHS: f64 = 120.0;
/// One year (365 days), the crude approximation the paper uses for pages
/// that never changed during the experiment (§3.1).
pub const YEAR: f64 = 365.0;

/// A point in simulation time, measured in days since the simulation epoch.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

/// A span of simulation time, measured in days.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimDuration(pub f64);

impl SimTime {
    /// The simulation epoch (day 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from a day count.
    #[inline]
    pub const fn days(d: f64) -> Self {
        SimTime(d)
    }

    /// The raw day count.
    #[inline]
    pub const fn as_days(self) -> f64 {
        self.0
    }

    /// The calendar day index containing this instant (floor).
    ///
    /// The daily monitor of §2 observes pages once per calendar day; this is
    /// the bucketing it uses.
    #[inline]
    pub fn day_index(self) -> i64 {
        self.0.floor() as i64
    }

    /// Duration elapsed since `earlier`. Negative if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// True if this instant is within `[start, end)`.
    #[inline]
    pub fn within(self, start: SimTime, end: SimTime) -> bool {
        self.0 >= start.0 && self.0 < end.0
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from a day count.
    #[inline]
    pub const fn days(d: f64) -> Self {
        SimDuration(d)
    }

    /// Construct from a week count.
    #[inline]
    pub const fn weeks(w: f64) -> Self {
        SimDuration(w * WEEK)
    }

    /// Construct from a month count (30-day months, per the paper).
    #[inline]
    pub const fn months(m: f64) -> Self {
        SimDuration(m * MONTH)
    }

    /// The raw day count.
    #[inline]
    pub const fn as_days(self) -> f64 {
        self.0
    }

    /// True when the duration is non-negative and finite.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}d", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "day {:.2}", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}d", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MONTH {
            write!(f, "{:.2} months", self.0 / MONTH)
        } else if self.0 >= WEEK {
            write!(f, "{:.2} weeks", self.0 / WEEK)
        } else {
            write!(f, "{:.2} days", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::days(10.0);
        let d = SimDuration::days(2.5);
        assert_eq!((t + d).as_days(), 12.5);
        assert_eq!((t + d - d).as_days(), 10.0);
        assert_eq!(((t + d) - t).as_days(), 2.5);
    }

    #[test]
    fn calendar_constants_match_paper() {
        assert_eq!(WEEK, 7.0);
        assert_eq!(MONTH, 30.0);
        assert_eq!(FOUR_MONTHS, 120.0);
        assert_eq!(SimDuration::months(1.0).as_days(), 30.0);
        assert_eq!(SimDuration::weeks(1.0).as_days(), 7.0);
    }

    #[test]
    fn day_index_floors() {
        assert_eq!(SimTime::days(0.0).day_index(), 0);
        assert_eq!(SimTime::days(0.999).day_index(), 0);
        assert_eq!(SimTime::days(1.0).day_index(), 1);
        assert_eq!(SimTime::days(127.5).day_index(), 127);
    }

    #[test]
    fn within_is_half_open() {
        let t = SimTime::days(5.0);
        assert!(t.within(SimTime::days(5.0), SimTime::days(6.0)));
        assert!(!t.within(SimTime::days(4.0), SimTime::days(5.0)));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::weeks(2.0);
        assert_eq!((d * 2.0).as_days(), 28.0);
        assert_eq!((d / 2.0).as_days(), 7.0);
        assert!((d / SimDuration::days(7.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validity() {
        assert!(SimDuration::days(0.0).is_valid());
        assert!(!SimDuration::days(-1.0).is_valid());
        assert!(!SimDuration::days(f64::NAN).is_valid());
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::days(3.0).to_string(), "3.00 days");
        assert_eq!(SimDuration::days(14.0).to_string(), "2.00 weeks");
        assert_eq!(SimDuration::days(60.0).to_string(), "2.00 months");
    }
}
