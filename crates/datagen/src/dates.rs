//! Date arithmetic on the TPC-H calendar.
//!
//! Dates are `i32` day counts since 1992-01-01 (the first order date in
//! TPC-H). The benchmark predicates only need year boundaries and ranges,
//! so a small proleptic-Gregorian day counter suffices.

/// Days in each month of a non-leap year.
const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days since 1992-01-01 for the given calendar date.
///
/// # Panics
/// Panics on out-of-range month/day or years before 1992 — workload
/// definitions are static, so bad dates are programming errors.
pub(crate) fn date(year: i32, month: u32, day: u32) -> i32 {
    assert!(year >= 1992, "TPC-H calendar starts at 1992");
    assert!((1..=12).contains(&month), "month out of range");
    let month = month as usize;
    let mut days = 0i32;
    for y in 1992..year {
        days += if is_leap(y) { 366 } else { 365 };
    }
    for (m, &len) in DAYS_IN_MONTH.iter().enumerate().take(month - 1) {
        days += len;
        if m == 1 && is_leap(year) {
            days += 1;
        }
    }
    let dim = DAYS_IN_MONTH[month - 1] + if month == 2 && is_leap(year) { 1 } else { 0 };
    assert!((1..=dim as u32).contains(&day), "day out of range");
    days + day as i32 - 1
}

/// First day of `year` (days since the epoch).
pub(crate) fn year_start(year: i32) -> i32 {
    date(year, 1, 1)
}

/// The last representable order date in TPC-H (1998-08-02), exclusive
/// bound for uniform date generation.
pub(crate) fn max_order_date() -> i32 {
    date(1998, 8, 2)
}

/// The calendar year containing epoch-day `d` (linear scan; only used in
/// tests and result formatting).
pub(crate) fn year_of(d: i32) -> i32 {
    let mut year = 1992;
    let mut remaining = d;
    loop {
        let len = if is_leap(year) { 366 } else { 365 };
        if remaining < len {
            return year;
        }
        remaining -= len;
        year += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(date(1992, 1, 1), 0);
        assert_eq!(date(1992, 1, 31), 30);
        assert_eq!(date(1992, 2, 1), 31);
    }

    #[test]
    fn leap_years_handled() {
        // 1992 is a leap year: Feb 29 exists, Mar 1 is day 31+29.
        assert_eq!(date(1992, 2, 29), 59);
        assert_eq!(date(1992, 3, 1), 60);
        assert_eq!(date(1993, 1, 1), 366);
        // 1993 is not: Mar 1 is day 366+31+28.
        assert_eq!(date(1993, 3, 1), 366 + 59);
    }

    #[test]
    fn paper_predicate_boundaries() {
        // Q12/Q5 use [1994-01-01, 1995-01-01).
        assert_eq!(year_start(1994), 731);
        assert_eq!(year_start(1995), 1096);
        assert_eq!(year_start(1993), 366);
    }

    #[test]
    fn year_of_inverts_year_start() {
        for y in 1992..=1998 {
            assert_eq!(year_of(year_start(y)), y);
            assert_eq!(year_of(year_start(y) + 100), y);
        }
    }

    #[test]
    fn max_order_date_in_1998() {
        assert_eq!(year_of(max_order_date()), 1998);
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn rejects_feb_30() {
        date(1993, 2, 29);
    }
}
