//! The repository benchmark.
//!
//! Fixed-script workloads, each run in its own process:
//!
//! * `decide_4000` — `decide` requests against a daemon's live PDP;
//! * `icc_200` — ping bursts of implicit ICCs on a 200-app device with
//!   SEPAR's policies enforced;
//! * `analyze_4000` — package bytes → policies (`Separ::analyze_packages`).
//!   Runnable, but not in `BENCHMARK.json`: its run-to-run spread on the
//!   shared reference host exceeds the bound (see `perfbench/README.md`).
//!
//! An untraced run prints the end-to-end metrics. A traced run prints
//! the per-layer metrics: it replays the workload's bundle one public
//! entry point at a time (`dex`, `analysis`, `android`, `core`, `logic`,
//! `enforce`, `serve`) and times each call from outside the program,
//! including the daemon's install / grant / revoke / uninstall cycle and
//! ICC bursts on a phone-size device with SEPAR's policies installed.
//! Every run checks the program's outputs; a failed check counts as a
//! failed operation. See `perfbench/README.md` for the metric map.

pub mod analyze;
pub mod churn;
pub mod decide;
pub mod harness;
pub mod icc;
pub mod layers;
pub mod stats;

use separ_serve::Daemon;

use harness::{Metrics, Tally, WorkDir};

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bundle analysis from package bytes.
    Analyze,
    /// Daemon decisions.
    Decide,
    /// Enforced ICCs on a device.
    Icc,
}

impl Workload {
    /// Every workload with its command-line name and default app count.
    pub const ALL: [(Workload, &'static str, usize); 3] = [
        (Workload::Analyze, "analyze_4000", 4000),
        (Workload::Decide, "decide_4000", 4000),
        (Workload::Icc, "icc_200", 200),
    ];

    /// Looks a workload up by name, with its default app count.
    pub fn parse(name: &str) -> Option<(Workload, usize)> {
        Workload::ALL
            .iter()
            .find(|w| w.1 == name)
            .map(|&(w, _, apps)| (w, apps))
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Generated market size.
    pub apps: usize,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds on the reference host; sets the script length.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// What the traced run takes over from the workload.
#[derive(Debug)]
pub struct LayerInput {
    /// The encoded bundle, if the workload kept it; else the traced run
    /// generates it again from the seed.
    pub packages: Option<Vec<Vec<u8>>>,
    /// The workload's daemon with its store directory, if it has one.
    pub daemon: Option<(Daemon, WorkDir)>,
}

/// A finished workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Workload parameters for the provenance header.
    pub params: Vec<(&'static str, String)>,
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "peak_rss_mb",
    "throughput_fast_per_s",
    "latency_fast_us",
];

/// Runs one workload; with `cfg.trace`, also the per-layer replay, and
/// keeps only the metrics of the run's kind.
///
/// # Errors
///
/// Fails if a set-up step fails (failed operations are tallied, not
/// errors).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (mut outcome, input) = match cfg.workload {
        Workload::Analyze => analyze::run(cfg)?,
        Workload::Decide => decide::run(cfg)?,
        Workload::Icc => icc::run(cfg)?,
    };
    if cfg.trace {
        let layered = layers::run(input, cfg, &mut outcome.tally)?;
        // The workload's own loop supplies drift, the whole-run means and
        // the latency quantiles.
        let mut metrics = layered;
        for (name, unit) in [
            ("drift_pct", "%"),
            ("throughput_mean_per_s", "1/s"),
            ("latency_mean_us", "us"),
            ("latency_p99_us", "us"),
            ("latency_p50_us", "us"),
        ] {
            metrics.put(name, outcome.metrics.get(name).unwrap_or(0.0), unit);
        }
        outcome.metrics = metrics;
    } else {
        outcome.metrics.0.retain(|(n, _, _)| END_TO_END.contains(n));
    }
    Ok(outcome)
}
