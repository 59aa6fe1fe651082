//! Sample statistics shared by every workload.

/// Nearest-rank percentile (`q` in 0..=100) of a sample: the smallest value
/// with at least `q` percent of the sample at or below it. Infinite values
/// (requests that were refused or never answered) sort last, so they count
/// as missing any latency limit. Returns NaN for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Half-width, in percentile points, of the band `band_percentile` averages.
const BAND: f64 = 5.0;

/// Band-mean percentile: the mean of the samples ranked between the
/// `q − 5`th and `q + 5`th percentiles. A run on a shared host spends some
/// seconds faster than others, which splits each input's latencies into a
/// fast and a slow group; the nearest-rank percentile then jumps from one
/// group to the other as their shares shift, while the band mean moves in
/// proportion. Infinite samples in the band make it infinite. NaN for an
/// empty sample.
pub fn band_percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let lo = (((q - BAND) * n / 100.0).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((q + BAND) * n / 100.0).ceil() as usize).clamp(lo + 1, sorted.len());
    mean(&sorted[lo..hi])
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Least-squares slope of `y` over `x` (0 when `x` does not vary).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Order does not matter, and the rank never interpolates.
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 50.0), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn missing_replies_count_against_the_tail() {
        let mut s = vec![1.0; 95];
        s.extend([f64::INFINITY; 5]);
        assert_eq!(percentile(&s, 90.0), 1.0);
        assert_eq!(percentile(&s, 96.0), f64::INFINITY);
    }

    #[test]
    fn band_percentiles_average_around_the_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 46..=55 for the median, 86..=95 for p90.
        assert_eq!(band_percentile(&s, 50.0), 50.5);
        assert_eq!(band_percentile(&s, 90.0), 90.5);
        assert_eq!(band_percentile(&s, 100.0), 98.0);
        assert_eq!(band_percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(band_percentile(&[7.5], 90.0), 7.5);
        assert!(band_percentile(&[], 50.0).is_nan());
        // A fast and a slow group: as the slow group's share grows past
        // half, nearest rank jumps from 10 to 20; the band mean moves by
        // the share of the band that changed group.
        let mixed = |slow: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < 100 - slow { 10.0 } else { 20.0 })
                .collect()
        };
        assert_eq!(median(&mixed(49)), 10.0);
        assert_eq!(median(&mixed(51)), 20.0);
        assert_eq!(band_percentile(&mixed(49), 50.0), 14.0);
        assert_eq!(band_percentile(&mixed(51), 50.0), 16.0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 5.0)]), 0.0);
    }
}
