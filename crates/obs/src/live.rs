//! Live latency windows for long-running services.
//!
//! The end-of-run [`Trace`](crate::export::Trace) snapshot answers
//! "where did the time go" for a batch pipeline; a daemon serving
//! decisions for days needs the *windowed* version of the same
//! question — p50/p99 over the last ten seconds, not since boot.
//! [`RollingHistogram`] answers it: a ring of fixed-width time slices,
//! each a decade-bucket [`Histogram`]. Recording touches exactly one
//! slice mutex (uncontended in the common case), so it can sit on a hot
//! request path, and snapshotting merges the slices covering the
//! requested window without ever stopping recorders.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::metrics::{Histogram, HistogramSnapshot, LATENCY_BOUNDS_NS};

/// The standard rolling windows: label and width in seconds.
pub const ROLLING_WINDOWS: [(&str, u64); 3] = [("10s", 10), ("1m", 60), ("5m", 300)];

/// One time slice of a [`RollingHistogram`]: which period it currently
/// holds, and the samples recorded in that period.
struct Slice {
    /// `u64::MAX` marks a slice that has never been written.
    period: u64,
    hist: Histogram,
}

/// A rolling-window histogram: a ring of fixed-width time slices over
/// the decade-bucket [`Histogram`].
///
/// Recording stamps the sample into the slice owning the current
/// period, lazily resetting slices whose period lapped the ring.
/// [`RollingHistogram::window`] merges every slice inside the last
/// `window` of time into one [`HistogramSnapshot`], so p50/p90/p99 over
/// the last 10s/1m/5m are a [`Histogram::quantile`] call away — all
/// while other threads keep recording (readers and writers only ever
/// hold one slice mutex at a time).
///
/// Time is measured from the construction epoch; the `*_at` variants
/// take an explicit nanosecond offset so tests (and trace replays) can
/// drive the clock deterministically.
pub struct RollingHistogram {
    epoch: Instant,
    slice_ns: u64,
    slices: Vec<Mutex<Slice>>,
    bounds: Vec<u64>,
}

impl RollingHistogram {
    /// A ring of `slices` slices, each `slice_ms` wide, with the default
    /// latency decade buckets. The covered horizon is
    /// `slices * slice_ms` milliseconds.
    pub fn new(slice_ms: u64, slices: usize) -> RollingHistogram {
        RollingHistogram::with_bounds(slice_ms, slices, &LATENCY_BOUNDS_NS)
    }

    /// A ring with custom bucket bounds (ascending).
    pub fn with_bounds(slice_ms: u64, slices: usize, bounds: &[u64]) -> RollingHistogram {
        let slices = slices.max(1);
        RollingHistogram {
            epoch: Instant::now(),
            slice_ns: slice_ms.max(1) * 1_000_000,
            slices: (0..slices)
                .map(|_| {
                    Mutex::new(Slice {
                        period: u64::MAX,
                        hist: Histogram::new(bounds),
                    })
                })
                .collect(),
            bounds: bounds.to_vec(),
        }
    }

    /// The standard service configuration: one-second slices covering
    /// the largest [`ROLLING_WINDOWS`] span (5 minutes).
    pub fn standard() -> RollingHistogram {
        RollingHistogram::new(1_000, 300)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one sample at the current time.
    pub fn record(&self, value: u64) {
        self.record_at(self.now_ns(), value);
    }

    /// Records one sample as of `now_ns` nanoseconds after the epoch.
    pub fn record_at(&self, now_ns: u64, value: u64) {
        let period = now_ns / self.slice_ns;
        let slot = (period % self.slices.len() as u64) as usize;
        let mut slice = self.slices[slot].lock().expect("slice lock");
        if slice.period != period {
            slice.hist.clear();
            slice.period = period;
        }
        slice.hist.record(value);
    }

    /// Merges every slice within the trailing `window` into one
    /// snapshot (as of now).
    pub fn window(&self, window: Duration) -> HistogramSnapshot {
        self.window_at(self.now_ns(), window.as_nanos() as u64)
    }

    /// Merges every slice whose period lies within the trailing
    /// `window_ns` of `now_ns`.
    pub fn window_at(&self, now_ns: u64, window_ns: u64) -> HistogramSnapshot {
        let now_p = now_ns / self.slice_ns;
        let periods = (window_ns.div_ceil(self.slice_ns)).clamp(1, self.slices.len() as u64);
        let from_p = now_p.saturating_sub(periods - 1);
        let mut merged = Histogram::new(&self.bounds);
        for slot in &self.slices {
            let slice = slot.lock().expect("slice lock");
            if slice.period != u64::MAX && slice.period >= from_p && slice.period <= now_p {
                merged.merge(&slice.hist);
            }
        }
        merged
    }

    /// Snapshots all three [`ROLLING_WINDOWS`] at once:
    /// `(label, snapshot)` in widening order.
    pub fn windows(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let now = self.now_ns();
        ROLLING_WINDOWS
            .iter()
            .map(|&(label, secs)| (label, self.window_at(now, secs * 1_000_000_000)))
            .collect()
    }
}

impl std::fmt::Debug for RollingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollingHistogram")
            .field("slice_ns", &self.slice_ns)
            .field("slices", &self.slices.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn rolling_window_sees_only_recent_slices() {
        let r = RollingHistogram::new(1_000, 300);
        // One sample per second for 20 seconds.
        for s in 0..20u64 {
            r.record_at(s * SEC, 1_000 * (s + 1));
        }
        let now = 19 * SEC;
        assert_eq!(r.window_at(now, 10 * SEC).count(), 10);
        assert_eq!(r.window_at(now, 60 * SEC).count(), 20);
        // The 10s window holds samples from seconds 10..=19 only.
        let w = r.window_at(now, 10 * SEC);
        assert_eq!(w.max(), 20_000);
        assert!(w.quantile(0.0) >= 10_000 || w.quantile(0.5) > 10_000);
    }

    #[test]
    fn lapped_slices_are_reset_not_double_counted() {
        let r = RollingHistogram::new(1_000, 10); // 10s horizon
        r.record_at(0, 100);
        // 15 seconds later the slot for period 0 is lapped by period 10
        // (not in this recording's path) and period 0 is out of every
        // window anyway.
        r.record_at(15 * SEC, 200);
        assert_eq!(r.window_at(15 * SEC, 10 * SEC).count(), 1);
        // Recording into the lapped slot clears the stale samples.
        r.record_at(20 * SEC, 300); // period 20 -> slot 0, laps period 0
        let w = r.window_at(20 * SEC, 10 * SEC);
        assert_eq!(w.count(), 2); // 15s and 20s samples; 0s is gone
        assert_eq!(w.max(), 300);
    }

    #[test]
    fn windows_never_stop_concurrent_recorders() {
        let r = std::sync::Arc::new(RollingHistogram::new(10, 64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        r.record(i % 1_000);
                    }
                });
            }
            for _ in 0..50 {
                let _ = r.window(Duration::from_secs(1));
            }
        });
        // Everything recorded within the horizon is accounted for.
        let total = r.window(Duration::from_secs(600)).count();
        assert!(total <= 40_000);
        assert!(total > 0);
    }
}
