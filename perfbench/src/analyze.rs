//! `analyze_*`: one `Separ::analyze_packages` after another over the
//! encoded packages of a generated market, with a cold model cache (no
//! cache attached), from package bytes to policies.

use std::time::Instant;

use separ_analysis::cache::sha256;
use separ_core::{policy_io, Report, Separ};

use crate::harness::{passes, peak_rss_mb, reset_peak_rss, Bundle, Metrics, Tally};
use crate::stats::{drift_pct, mean, median, quantile, secs, us, FAST_QUANTILE};
use crate::{Config, LayerInput, Outcome};

/// Seconds one analysis at 4,000 apps takes on the reference host
/// (2 vCPUs): the script has one analysis per this many seconds of
/// `--seconds`.
const ANALYSIS_SECS_4000: f64 = 4.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 15;

/// `(seed, exploits, policies, digest)` recorded at 4,000 apps. A run at
/// one of these seeds must reproduce them exactly; other seeds are
/// checked against the in-memory (`analyze_apks`) path instead.
const RECORDED_4000: &[(u64, usize, usize, &str)] = &[
    (0, 225, 225, "ca41b9c947ce5ba6"),
    (1, 236, 227, "64aa69ce0e6e922e"),
    (2, 218, 211, "b3e8d5e983188a59"),
    (3, 236, 236, "5f0808c364bf8e12"),
    (4, 236, 234, "32a9aad8307a2162"),
    (5, 228, 228, "5c50dada4071bbf0"),
    (6, 218, 218, "d79f312fa4ca545e"),
    (7, 219, 219, "99920de93548b6b6"),
    (8, 232, 232, "330ceaee4c2bd8fc"),
    (9, 227, 227, "6efb6443b375ce7a"),
    (10, 225, 225, "6da08817fe662fad"),
    (11, 227, 227, "e6349b8e4d6d300f"),
    (12, 229, 229, "6daef9fa13cb3c0e"),
    (13, 233, 233, "d7d4d72c37f9f64a"),
    (14, 235, 235, "e68f1f0b61ff9215"),
    (15, 223, 223, "4e374980c41f47c1"),
    (16, 216, 191, "61dcd0a0719ed81b"),
];

/// What an analysis produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Exploit scenarios found.
    pub exploits: usize,
    /// Policies derived.
    pub policies: usize,
    /// SHA-256 prefix over the policy JSON and the exploit descriptions.
    pub digest: String,
}

impl Answer {
    /// Reduces a report.
    pub fn of(report: &Report) -> Answer {
        let mut text = policy_io::to_json(&report.policies);
        for e in &report.exploits {
            text.push('\n');
            text.push_str(&e.to_string());
        }
        let digest = sha256(text.as_bytes())[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        Answer {
            exploits: report.exploits.len(),
            policies: report.policies.len(),
            digest,
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Fails if the set-up cannot be built.
pub fn run(cfg: &Config) -> Result<(Outcome, LayerInput), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bundle = None;
    for _ in 0..SETUPS {
        // One market in memory at a time.
        drop(bundle.take());
        let t = Instant::now();
        bundle = Some(Bundle::market(cfg.apps, cfg.seed));
        setups.push(secs(t.elapsed()));
    }
    let Bundle { apks, packages } = bundle.expect("at least one set-up");
    let separ = Separ::new();
    let mut tally = Tally::default();

    let recorded = RECORDED_4000
        .iter()
        .find(|r| cfg.apps == 4000 && r.0 == cfg.seed)
        .map(|&(_, exploits, policies, digest)| Answer {
            exploits,
            policies,
            digest: digest.to_string(),
        });
    let expected = match recorded {
        Some(answer) => answer,
        None => {
            let report = separ
                .analyze_apks(&apks)
                .map_err(|e| format!("reference analysis: {e}"))?;
            Answer::of(&report)
        }
    };
    // From here on the process holds the program's input (the package
    // bytes) and what the program allocates.
    drop(apks);

    let reps = passes(cfg.seconds, ANALYSIS_SECS_4000 * cfg.apps as f64 / 4000.0);
    let mut samples = Vec::with_capacity(reps);
    let mut peaks = Vec::with_capacity(reps);
    for rep in 0..=reps {
        reset_peak_rss()?;
        let t = Instant::now();
        let report = separ.analyze_packages(&packages);
        let elapsed = t.elapsed();
        let answer = report.as_ref().ok().map(Answer::of);
        tally.op(answer.as_ref() == Some(&expected), || {
            format!("analysis {rep}: got {answer:?}, expected {expected:?}")
        });
        // Pass 0 is the warm-up.
        if rep > 0 {
            samples.push(us(elapsed));
            peaks.push(peak_rss_mb());
        }
    }

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    // The peak of one analysis (its high-water mark is reset before
    // each), median over the analyses.
    metrics.put("peak_rss_mb", median(&peaks), "MB");
    // The end-to-end timings read the fast end of the analyses
    // (`FAST_QUANTILE`, `noise.host_drift`); the whole-run means are
    // per-layer metrics.
    let fast = quantile(&samples, FAST_QUANTILE);
    metrics.put("throughput_fast_per_s", cfg.apps as f64 * 1e6 / fast, "1/s");
    metrics.put("latency_fast_us", fast, "us");
    metrics.put(
        "throughput_mean_per_s",
        cfg.apps as f64 * 1e6 / mean(&samples),
        "1/s",
    );
    metrics.put("latency_mean_us", mean(&samples), "us");
    metrics.put("latency_p50_us", median(&samples), "us");
    metrics.put("latency_p99_us", quantile(&samples, 0.99), "us");
    metrics.put("drift_pct", drift_pct(&samples), "%");
    let params = vec![
        ("apps", cfg.apps.to_string()),
        ("analyses", reps.to_string()),
        ("warmup_analyses", "1".to_string()),
        ("expected_exploits", expected.exploits.to_string()),
        ("expected_policies", expected.policies.to_string()),
        ("expected_digest", expected.digest.clone()),
    ];
    let input = LayerInput {
        packages: Some(packages),
        daemon: None,
    };
    Ok((
        Outcome {
            tally,
            metrics,
            params,
        },
        input,
    ))
}
