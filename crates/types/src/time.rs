//! The simulation time model.
//!
//! All of `webevo` measures time in **days** as `f64`. The paper's
//! measurement study (§2–3) observes the web once per day, while the
//! freshness analysis (§4) is continuous-time; a floating-point day count
//! serves both layers without conversions.
//!
//! Calendar constants follow the paper's conventions: 1 week = 7 days,
//! 1 month = 30 days, 4 months = 120 days.

/// One week (7 days).
pub const WEEK: f64 = 7.0;
/// One month (30 days), the paper's crawl-cycle unit.
pub const MONTH: f64 = 30.0;
/// Four months (120 days), the paper's experiment horizon and the estimated
/// overall average change interval (§3.1).
pub const FOUR_MONTHS: f64 = 120.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_constants_match_paper() {
        assert_eq!(WEEK, 7.0);
        assert_eq!(MONTH, 30.0);
        assert_eq!(FOUR_MONTHS, 120.0);
    }
}
