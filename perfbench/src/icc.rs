//! `icc_*`: the on-device hot path. A device carries an `apps`-app
//! market, the motivating GPS→SMS trio and a ping app, with SEPAR's
//! policies for that bundle installed and hooks on. One sample is one
//! ping launch (a burst of `BURST` implicit `startService` ICCs) followed
//! by `run_until_idle`; every pass also launches the motivating attack.
//! Each pass sets up anew (bundle, policies, device), so the audit log
//! grows within a pass only and every pass starts from the same state.

use std::time::Instant;

use separ_android::types::Resource;
use separ_core::{policy_io, Separ};
use separ_corpus::motivating;

use crate::harness::{passes, peak_rss_mb, reset_peak_rss, Metrics, Tally, PING_APP};
use crate::layers::{boot_device, device_bundle, BURST};
use crate::stats::{drift_pct, mean, median, quantile, secs, us, FAST_QUANTILE};
use crate::{Config, LayerInput, Outcome};

/// Seconds one ICC takes on a 200-app device on the reference host
/// (2 vCPUs), launch and delivery: the script has one pass per
/// `LAUNCHES × BURST ×` this many seconds of `--seconds`.
const ICC_SECS_200: f64 = 10.0e-6;
/// Timed ping launches per pass, after `WARMUP` untimed ones.
const LAUNCHES: usize = 500;
/// Untimed ping launches at the start of every pass.
const WARMUP: usize = 5;

/// Runs the workload.
///
/// # Errors
///
/// Fails if the device bundle cannot be analyzed.
pub fn run(cfg: &Config) -> Result<(Outcome, LayerInput), String> {
    // Set-up: generate the bundle, synthesize its policies, boot the
    // device. Every pass sets up anew, so `setup_s` samples the whole
    // run; this first set-up is the warm-up and gives the reference
    // policies.
    let setup = || -> Result<_, String> {
        let t = Instant::now();
        let (bundle, extra) = device_bundle(cfg.apps, cfg.seed);
        let policies = Separ::new()
            .analyze_apks(&bundle.apks)
            .map_err(|e| format!("device bundle analysis: {e}"))?
            .policies;
        let device = boot_device(&bundle, &extra, &policies);
        Ok((secs(t.elapsed()), policies, device))
    };
    let (_, reference, _) = setup()?;
    let reference_json = policy_io::to_json(&reference);
    let mut tally = Tally::default();

    let per_pass = LAUNCHES as f64 * BURST as f64 * ICC_SECS_200 * cfg.apps as f64 / 200.0;
    let reps = passes(cfg.seconds, per_pass);
    let mut setups = Vec::with_capacity(reps);
    let mut peaks = Vec::with_capacity(reps);
    // Per-ICC latency of every timed launch, in µs.
    let mut samples = Vec::with_capacity(reps * LAUNCHES);
    let (mut first_halves, mut second_halves) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    for pass in 0..reps {
        let (took, policies, mut device) = setup()?;
        setups.push(took);
        // The pass's peak covers the device and its audit log, not the
        // set-up's analysis.
        reset_peak_rss()?;
        tally.op(policy_io::to_json(&policies) == reference_json, || {
            format!("pass {pass}: synthesized a different policy set")
        });
        for launch in 0..WARMUP + LAUNCHES {
            let t = Instant::now();
            let launched = device.launch(PING_APP.0, PING_APP.1);
            let delivered = device.run_until_idle();
            let took = t.elapsed();
            tally.op(launched && delivered == BURST, || {
                format!("pass {pass} launch {launch}: delivered {delivered} of {BURST}")
            });
            if launch >= WARMUP {
                measured += secs(took);
                let per_icc = us(took) / BURST as f64;
                samples.push(per_icc);
                if launch - WARMUP < LAUNCHES / 2 {
                    first_halves.push(per_icc);
                } else {
                    second_halves.push(per_icc);
                }
            }
        }
        device.launch("com.navigator", motivating::LOCATION_FINDER);
        device.run_until_idle();
        let leaked = device.audit.leaked(Resource::Location, Resource::Sms);
        tally.op(!leaked, || {
            format!("pass {pass}: Location leaked to SMS with hooks on")
        });
        peaks.push(peak_rss_mb());
    }

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("peak_rss_mb", median(&peaks), "MB");
    // As in `analyze`, the end-to-end timings read the fast end of the
    // launches (`FAST_QUANTILE`, `noise.host_drift`); the whole-run means
    // are per-layer metrics.
    let fast = quantile(&samples, FAST_QUANTILE);
    metrics.put("throughput_fast_per_s", 1e6 / fast, "1/s");
    metrics.put("latency_fast_us", fast, "us");
    metrics.put(
        "throughput_mean_per_s",
        (samples.len() * BURST) as f64 / measured,
        "1/s",
    );
    metrics.put("latency_mean_us", mean(&samples), "us");
    metrics.put("latency_p50_us", median(&samples), "us");
    metrics.put("latency_p99_us", quantile(&samples, 0.99), "us");
    // Within a pass, where the audit log grows: the second half of every
    // pass's launches against the first half.
    first_halves.extend(second_halves);
    metrics.put("drift_pct", drift_pct(&first_halves), "%");
    let params = vec![
        ("apps", cfg.apps.to_string()),
        ("policies", reference.len().to_string()),
        ("passes", reps.to_string()),
        ("launches_per_pass", LAUNCHES.to_string()),
        ("warmup_launches_per_pass", WARMUP.to_string()),
        ("iccs_per_launch", BURST.to_string()),
    ];
    Ok((
        Outcome {
            tally,
            metrics,
            params,
        },
        LayerInput {
            packages: None,
            daemon: None,
        },
    ))
}
