//! Order statistics shared by the run report and `compare`.

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method, which extrapolates past the extremes of small samples), so
/// spreads printed here match spreads computed from the emitted JSON. One
/// value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one run or round.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len() as i64;
    if len == 1 {
        return [data[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// The median (the middle of [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Shifted geometric mean: `exp(mean(ln(x + shift))) - shift`. The shift
/// keeps near-zero samples (fast-path verdicts, cache hits) from dragging
/// the mean towards zero while still weighting every sample equally in
/// relative terms.
pub fn shifted_geomean(values: &[f64], shift: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean_log = values.iter().map(|x| (x + shift).ln()).sum::<f64>() / values.len() as f64;
    mean_log.exp() - shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        // Nine programs, four rounds: p95 is the slowest program's
        // third-fastest round, not an interpolation between programs.
        let mut rounds = Vec::new();
        for r in 0..4 {
            rounds.extend((1..=8).map(f64::from));
            rounds.push(100.0 + f64::from(r));
        }
        assert_eq!(percentile(&rounds, 95.0), 102.0);
    }

    #[test]
    fn shifted_geomean_weights_relative_change() {
        assert!((shifted_geomean(&[5.0, 5.0, 5.0], 10.0) - 5.0).abs() < 1e-12);
        // sqrt(10 * 40) - 10 = 10
        assert!((shifted_geomean(&[0.0, 30.0], 10.0) - 10.0).abs() < 1e-12);
        assert_eq!(shifted_geomean(&[], 10.0), 0.0);
    }
}
