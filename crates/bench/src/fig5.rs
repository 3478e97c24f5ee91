//! RQ3: Figure 5 — model-extraction time vs app size.
//!
//! Extracts every app of the generated market, recording `(repository,
//! app size, extraction time)` points — the paper's scatter plot — plus
//! the summary claims: the share of apps analyzed under the paper's
//! two-minute bar (here scaled to a millisecond budget) and the linear
//! relationship between size and time.

use std::time::Instant;

use separ_analysis::extractor::extract_apk;
use separ_corpus::market::{generate, MarketSpec, Repository};

/// One scatter point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Repository profile.
    pub repository: Repository,
    /// App size metric (instructions + declarations).
    pub size: usize,
    /// Extraction time in microseconds.
    pub micros: u128,
}

/// The Figure 5 dataset.
#[derive(Debug)]
pub struct Fig5 {
    /// All scatter points.
    pub points: Vec<Point>,
}

impl Fig5 {
    /// The p-th percentile of extraction times (0-100).
    pub fn percentile_micros(&self, p: f64) -> u128 {
        if self.points.is_empty() {
            return 0;
        }
        let mut times: Vec<u128> = self.points.iter().map(|p| p.micros).collect();
        times.sort_unstable();
        let idx = ((p / 100.0) * (times.len() - 1) as f64).round() as usize;
        times[idx]
    }

    /// Least-squares slope of time (µs) against size — extraction scales
    /// linearly with app size, so this should be positive and the fit
    /// reasonable.
    pub fn linear_fit(&self) -> (f64, f64) {
        let n = self.points.len() as f64;
        if n < 2.0 {
            return (0.0, 0.0);
        }
        let mean_x = self.points.iter().map(|p| p.size as f64).sum::<f64>() / n;
        let mean_y = self.points.iter().map(|p| p.micros as f64).sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for p in &self.points {
            let dx = p.size as f64 - mean_x;
            sxy += dx * (p.micros as f64 - mean_y);
            sxx += dx * dx;
        }
        let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
        (slope, mean_y - slope * mean_x)
    }

    /// Pearson correlation between size and time.
    pub fn correlation(&self) -> f64 {
        let n = self.points.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean_x = self.points.iter().map(|p| p.size as f64).sum::<f64>() / n;
        let mean_y = self.points.iter().map(|p| p.micros as f64).sum::<f64>() / n;
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for p in &self.points {
            let dx = p.size as f64 - mean_x;
            let dy = p.micros as f64 - mean_y;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        if sxx == 0.0 || syy == 0.0 {
            0.0
        } else {
            sxy / (sxx * syy).sqrt()
        }
    }

    /// CSV rendering (`repository,size,micros`), the plot's raw data.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("repository,size,micros\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{}\n",
                p.repository.name(),
                p.size,
                p.micros
            ));
        }
        out
    }
}

/// Runs the experiment over a market of `total` apps.
pub fn run(total: usize, seed: u64) -> Fig5 {
    let market = generate(&MarketSpec::scaled(total, seed));
    let points = market
        .iter()
        .map(|app| {
            let start = Instant::now();
            let model = extract_apk(&app.apk);
            let micros = start.elapsed().as_micros();
            Point {
                repository: app.repository,
                size: model.stats.app_size,
                micros,
            }
        })
        .collect();
    Fig5 { points }
}

/// Renders the summary the paper states in prose.
pub fn render(f: &Fig5) -> String {
    let (slope, intercept) = f.linear_fit();
    format!(
        "apps: {}\n\
         p50 extraction: {} us\np95 extraction: {} us\np100 extraction: {} us\n\
         linear fit: time_us = {:.3} * size + {:.1}  (r = {:.3})\n",
        f.points.len(),
        f.percentile_micros(50.0),
        f.percentile_micros(95.0),
        f.percentile_micros(100.0),
        slope,
        intercept,
        f.correlation(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_time_scales_linearly_with_size() {
        let f = run(120, 9);
        assert_eq!(f.points.len(), 120);
        assert!(
            f.correlation() > 0.5,
            "size and time should correlate, r = {}",
            f.correlation()
        );
        let (slope, _) = f.linear_fit();
        assert!(slope > 0.0);
    }

    #[test]
    fn csv_has_one_row_per_app() {
        let f = run(20, 3);
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 21); // header + 20
        assert!(csv.starts_with("repository,size,micros"));
    }

    #[test]
    fn percentiles_are_ordered() {
        let f = run(50, 4);
        assert!(f.percentile_micros(50.0) <= f.percentile_micros(95.0));
        assert!(f.percentile_micros(95.0) <= f.percentile_micros(100.0));
    }
}
