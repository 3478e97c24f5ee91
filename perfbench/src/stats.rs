//! Sample summaries: medians, quantiles and drift.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; `0.0` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The quantile of a run's per-unit times that the end-to-end timings
/// report. The shared reference host flips between a fast and a slow
/// speed every few seconds (`noise.host_drift`), and how much of a run
/// falls in the slow one changes from run to run: from most of it to
/// nearly all. The fastest hundredth of a run's units reads the fast
/// speed whenever a run meets it at all.
pub const FAST_QUANTILE: f64 = 0.01;

/// The arithmetic mean of `samples`; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Drift within one run, in percent: the median of the second half of
/// the samples (in the order they were taken) against the median of the
/// first half. Positive means the later samples were larger.
pub fn drift_pct(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (first, second) = samples.split_at(samples.len() / 2);
    let base = median(first);
    if base == 0.0 {
        return 0.0;
    }
    100.0 * (median(second) - base) / base
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as `f64`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn drift_compares_halves() {
        assert_eq!(drift_pct(&[1.0, 1.0, 2.0, 2.0]), 100.0);
        assert_eq!(drift_pct(&[5.0]), 0.0);
    }
}
