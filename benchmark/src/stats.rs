//! Order statistics over repetitions and runs, and the metric-name rule.

/// Smallest value.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last cut.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// First quartile, as above; of a single value, that value.
pub fn first_quartile(values: &[f64]) -> f64 {
    match values {
        [only] => *only,
        _ => quartiles(values).0,
    }
}

/// `median/min − 1`: how far a typical repetition sat above the best one.
pub fn rep_spread(values: &[f64]) -> f64 {
    median(values) / min(values) - 1.0
}

/// Metric and workload names: at most 64 of letters, digits, `_`, `.`, `-`,
/// starting with a letter or a digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_and_median() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(max(&[3.0, 1.5, 3.5, 0.5]), 3.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(first_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.5);
        assert_eq!(first_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(first_quartile(&[7.0]), 7.0);
    }

    #[test]
    fn rep_spread_is_relative_to_the_minimum() {
        assert!((rep_spread(&[2.0, 2.2, 2.1]) - 0.05).abs() < 1e-12);
        assert_eq!(rep_spread(&[1.0]), 0.0);
    }

    #[test]
    fn names_are_restricted() {
        assert!(valid_name("greedy.first_scan_s"));
        assert!(valid_name("ladder.brca_h3_g19411_wall_s"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("words/ns"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"a".repeat(65)));
    }
}
