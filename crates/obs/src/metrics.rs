//! Fixed-bucket latency histograms (the collector keeps no counters).

/// Default latency bucket upper bounds, in nanoseconds: one decade per
/// bucket from 100 ns to 1 s, plus an implicit overflow bucket.
pub const LATENCY_BOUNDS_NS: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// A fixed-bucket histogram of `u64` samples (latencies in nanoseconds
/// by convention).
///
/// A sample `v` lands in the first bucket whose upper bound satisfies
/// `v <= bound`; samples above every bound land in the overflow bucket,
/// so `counts().len() == bounds().len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            max: 0,
        }
    }

    /// A histogram with the default latency decades
    /// ([`LATENCY_BOUNDS_NS`]).
    pub fn latency() -> Histogram {
        Histogram::new(&LATENCY_BOUNDS_NS)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket sample counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) with linear interpolation inside
    /// the covering bucket, or 0 when empty.
    ///
    /// The fractional rank `q * (count - 1)` is located in the
    /// cumulative bucket counts; the estimate interpolates between the
    /// bucket's lower and upper bound by the rank's position among the
    /// bucket's samples. The overflow bucket's upper bound is the
    /// recorded [`Histogram::max`], and every estimate is clamped to it,
    /// so quantiles never exceed an actually-observed value.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (before + c) as f64 || before + c == n {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(self.max);
                let (lo, hi) = (lo.min(self.max), hi.min(self.max));
                // The bucket's samples occupy ranks before..before+c; a
                // single sample sits at the bucket's (max-clamped) upper
                // bound rather than an arbitrary midpoint.
                let frac = if c <= 1 {
                    1.0
                } else {
                    ((rank - before as f64) / (c - 1) as f64).clamp(0.0, 1.0)
                };
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            before += c;
        }
        self.max
    }

    /// Folds `other` into `self`. Both histograms must share the same
    /// bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "merging incompatible histograms");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Resets all counts (bounds are kept), without reallocating.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.sum = 0;
        self.max = 0;
    }
}

/// An owned copy of one histogram, as handed out by trace snapshots.
pub type HistogramSnapshot = Histogram;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_the_first_covering_bucket() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10] {
            h.record(v); // <= 10
        }
        h.record(11); // (10, 100]
        h.record(100); // (10, 100]
        h.record(101); // (100, 1000]
        h.record(1001); // overflow
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1001);
        assert_eq!(h.sum(), 10 + 11 + 100 + 101 + 1001);
    }

    #[test]
    fn mean_is_zero_when_empty() {
        let h = Histogram::latency();
        assert_eq!(h.mean(), 0);
        assert_eq!(h.counts().len(), LATENCY_BOUNDS_NS.len() + 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::latency();
        assert_eq!(h.quantile(0.5), 0);
        // 100 samples uniformly inside the (1us, 10us] decade.
        for i in 0..100u64 {
            h.record(1_000 + i * 90);
        }
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        // Interpolated, not the bucket lower bound (the old behaviour
        // would report 1_000 for all three).
        assert!(p50 > 1_000 && p50 < 10_000, "p50 = {p50}");
        assert!(p50 < p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= h.max());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn quantile_of_single_bucket_is_bounded_by_max() {
        let mut h = Histogram::latency();
        h.record(50); // one sample in the first bucket
                      // max (50) caps the interpolation range, so even p99 cannot
                      // exceed an observed value.
        assert!(h.quantile(0.99) <= 50);
    }

    #[test]
    fn merge_and_clear_round_trip() {
        let mut a = Histogram::new(&[10, 100]);
        let mut b = Histogram::new(&[10, 100]);
        a.record(5);
        b.record(50);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.sum(), 555);
        assert_eq!(a.max(), 500);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.max(), 0);
        assert_eq!(a.bounds(), &[10, 100]);
    }
}
