//! Order statistics over per-frame samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so in-run spreads read the same as
/// the cross-run spreads computed from the emitted JSON.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative or above 4 when the clamp moved `j`, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail-latency reading: the highest percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile read, `100 · (n − 10) / n` (e.g. 99.0 for 1000
    /// samples).
    pub percentile: f64,
    /// The sample at that nearest rank: the 11th largest.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Reads the highest percentile that leaves [`TAIL_MIN_BEYOND`] samples
/// beyond it — the 11th largest sample, at percentile `100 · (n − 10) / n`.
/// Its level rises smoothly with the sample count, so a run a few samples
/// longer or shorter never jumps to a different fixed percentile. With 10
/// samples or fewer the maximum (0 without samples) is read as percentile
/// 100.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return Tail {
            percentile: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            beyond: 0,
            samples: n,
        };
    }
    let rank = n - TAIL_MIN_BEYOND;
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: TAIL_MIN_BEYOND,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond), (50.0, 10));
        assert!((t.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-12);
        // One more sample moves the reading one rank, not to another
        // fixed percentile.
        let v: Vec<f64> = (1..=61).map(f64::from).collect();
        assert_eq!(tail(&v).value, 51.0);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[3.0, 9.0, 1.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 9.0, 0));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!((tail(&v).value, tail(&v).beyond), (1.0, 10));
        assert_eq!(tail(&[]).value, 0.0);
    }
}
