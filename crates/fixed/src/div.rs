//! Rounded integer division — the Center Update Unit's divider, which
//! turns accumulated `[ΣL, Σa, Σb, Σx, Σy]` sums and the member count `n`
//! into new center coordinates.

/// Rounded integer division: `round(sum / count)` for non-negative sums
/// and positive counts — one pass of the center-update divider.
///
/// # Example
///
/// ```
/// use sslic_fixed::rounded_div;
///
/// assert_eq!(rounded_div(10, 4), 3); // 2.5 rounds half up
/// assert_eq!(rounded_div(99, 10), 10);
/// ```
#[inline]
pub fn rounded_div(sum: i64, count: i64) -> i32 {
    debug_assert!(count > 0);
    ((2 * sum + count) / (2 * count)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounded_division_matches_f64_rounding() {
        for (sum, count) in [(10i64, 4i64), (13, 2), (99, 10), (5, 2), (0, 3), (7, 7)] {
            let expect = (sum as f64 / count as f64).round() as i32;
            assert_eq!(rounded_div(sum, count), expect, "{sum}/{count}");
        }
    }
}
