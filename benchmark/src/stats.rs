//! Order statistics used by every report: median, nearest-rank percentile,
//! "max but k", and the quartile spread the acceptance procedure uses.

/// Sorted copy (NaN-free input: every caller passes measured finite values).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The least value (`+inf` if empty).
pub fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The greatest value (`-inf` if empty).
pub fn greatest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median; mean of the two middle values for an even count. `None` if empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of integer samples: the smallest sample with at
/// least `p` percent of the samples at or below it. Sorts in place.
pub fn percentile_u64(xs: &mut [u64], p: f64) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    Some(xs[rank.clamp(1, xs.len()) - 1])
}

/// The highest percentile worth reporting: p99 when at least ten samples lie
/// beyond it, otherwise the order statistic with exactly ten samples above
/// ("max but ten"), otherwise the maximum. Sorts in place.
pub fn tail_u64(xs: &mut [u64]) -> Option<u64> {
    xs.sort_unstable();
    let n = xs.len();
    if n >= 1000 {
        percentile_u64(xs, 99.0)
    } else if n > 10 {
        Some(xs[n - 11])
    } else {
        xs.last().copied()
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` (exclusive method)
/// gives them; needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the steadiness figure
/// the acceptance procedure compares against a metric's bound.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_u64(&mut xs, 50.0), Some(50));
        assert_eq!(percentile_u64(&mut xs, 99.0), Some(99));
        assert_eq!(percentile_u64(&mut xs, 100.0), Some(100));
        assert_eq!(percentile_u64(&mut xs, 0.0), Some(1));
        assert_eq!(percentile_u64(&mut [], 50.0), None);
    }

    #[test]
    fn tail_picks_the_statistic_the_sample_supports() {
        let mut big: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_u64(&mut big), Some(1980)); // p99, twenty beyond it
        let mut mid: Vec<u64> = (1..=240).collect();
        assert_eq!(tail_u64(&mut mid), Some(230)); // max but ten
        let mut small = vec![5, 9, 7];
        assert_eq!(tail_u64(&mut small), Some(9));
        assert_eq!(tail_u64(&mut []), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&xs).unwrap() - 1.0).abs() < 1e-12);
    }
}
