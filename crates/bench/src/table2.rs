//! RQ3: Table II — compositional analysis & synthesis statistics.
//!
//! Partitions a generated market into bundles (the paper: 80 bundles of
//! 50 apps), runs the full ASE pipeline on each, and reports the average
//! number of components / intents / intent filters per bundle plus the
//! average constraint-construction (relational→CNF) and SAT-solving times.

use std::time::Duration;

use separ_core::exec::Executor;
use separ_core::{Separ, SeparConfig};
use separ_corpus::market::{generate, MarketSpec};

/// One bundle's measurements.
#[derive(Debug, Clone, Copy)]
pub struct BundleRow {
    /// Components in the bundle.
    pub components: usize,
    /// Intent entities in the bundle.
    pub intents: usize,
    /// Intent filters in the bundle.
    pub filters: usize,
    /// Relational-to-CNF construction time (all signatures).
    pub construction: Duration,
    /// SAT-solving time (all signatures).
    pub solving: Duration,
    /// Primary (free) variables.
    pub primary_vars: usize,
}

/// The Table II aggregate.
#[derive(Debug)]
pub struct Table2 {
    /// Per-bundle rows.
    pub bundles: Vec<BundleRow>,
}

impl Table2 {
    /// Average of a per-bundle metric.
    pub fn avg<F: Fn(&BundleRow) -> f64>(&self, f: F) -> f64 {
        if self.bundles.is_empty() {
            return 0.0;
        }
        self.bundles.iter().map(&f).sum::<f64>() / self.bundles.len() as f64
    }

    /// Average components per bundle.
    pub fn avg_components(&self) -> f64 {
        self.avg(|b| b.components as f64)
    }

    /// Average intents per bundle.
    pub fn avg_intents(&self) -> f64 {
        self.avg(|b| b.intents as f64)
    }

    /// Average filters per bundle.
    pub fn avg_filters(&self) -> f64 {
        self.avg(|b| b.filters as f64)
    }

    /// Average construction seconds per bundle.
    pub fn avg_construction(&self) -> f64 {
        self.avg(|b| b.construction.as_secs_f64())
    }

    /// Average SAT seconds per bundle.
    pub fn avg_solving(&self) -> f64 {
        self.avg(|b| b.solving.as_secs_f64())
    }
}

/// Runs the experiment: `bundle_count` bundles of `bundle_size` apps.
pub fn run(bundle_count: usize, bundle_size: usize, seed: u64) -> Table2 {
    // Construction/solving columns are span-derived timings, which are
    // only recorded while the collector is on.
    separ_obs::global().enable();
    let spec = MarketSpec::scaled(bundle_count * bundle_size, seed);
    let market = generate(&spec);
    // Interleave repositories across bundles (a device mixes sources).
    let apks: Vec<_> = market.into_iter().map(|m| m.apk).collect();
    let chunks: Vec<Vec<_>> = (0..bundle_count)
        .map(|b| {
            apks.iter()
                .skip(b)
                .step_by(bundle_count.max(1))
                .take(bundle_size)
                .cloned()
                .collect()
        })
        .collect();
    // Bundles are independent: fan them out on the shared executor.
    // Each bundle's own pipeline stays serial — the outer fan-out already
    // saturates the hardware threads.
    let bundles: Vec<BundleRow> = Executor::default().ordered_map(&chunks, |bundle| {
        let report = Separ::new()
            .with_config(SeparConfig::serial())
            .analyze_apks(bundle)
            .expect("signatures well-typed");
        BundleRow {
            components: report.stats.components,
            intents: report.stats.intents,
            filters: report.stats.filters,
            construction: report.stats.construction,
            solving: report.stats.solving,
            primary_vars: report.stats.primary_vars,
        }
    });
    Table2 { bundles }
}

/// Renders the table in the paper's format.
pub fn render(t: &Table2) -> String {
    format!(
        "Components  Intents  IntentFilters | Construction(s)  Analysis(s)\n\
         {:>10.0}  {:>7.0}  {:>13.0} | {:>15.5}  {:>11.5}\n\
         (averages over {} bundles; avg primary vars {:.0})\n",
        t.avg_components(),
        t.avg_intents(),
        t.avg_filters(),
        t.avg_construction(),
        t.avg_solving(),
        t.bundles.len(),
        t.avg(|b| b.primary_vars as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_consistent_stats() {
        let t = run(2, 8, 42);
        assert_eq!(t.bundles.len(), 2);
        for b in &t.bundles {
            assert!(b.components > 0);
            // primary_vars may legitimately be 0 for a bundle whose facts
            // constant-fold (no ICC-source paths at all), so only the
            // aggregate is asserted below.
        }
        assert!(t.avg(|b| b.primary_vars as f64) >= 0.0);
        assert!(t.avg_components() > 0.0);
        let rendered = render(&t);
        assert!(rendered.contains("Components"));
    }
}
