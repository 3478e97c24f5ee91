//! `decide_*`: a daemon restored from the persisted market answers only
//! `decide` lines through `Daemon::handle`, from one closed-loop client
//! cycling through `probe_contexts` of the daemon's installed policy set
//! (hit, near-miss and unmatched traffic). Every answer is checked
//! against the retained `LinearPdp` reference, computed in set-up.
//! `setup_s` is the median of several daemon boots from the store.

use std::time::Instant;

use separ_core::policy::{Policy, PolicyEvent};
use separ_core::policy_io;
use separ_enforce::{probe_contexts, IccContext, LinearPdp, PromptHandler};
use separ_obs::json::Value;
use separ_serve::Daemon;

use crate::harness::{
    boot_daemon, extract_models, passes, peak_rss_mb, reset_peak_rss, seed_store, Bundle, Metrics,
    Tally, WorkDir,
};
use crate::stats::{drift_pct, mean, median, quantile, secs, FAST_QUANTILE};
use crate::{Config, LayerInput, Outcome};

/// Seconds one `decide` request takes through `Daemon::handle` at 4,000
/// apps on the reference host (2 vCPUs): the script has one sweep over
/// the probes per `probes ×` this many seconds of `--seconds`.
const REQUEST_SECS_4000: f64 = 5.0e-6;
/// Daemon boots from the store, spread over the run; `setup_s` is their
/// median.
const BOOTS: usize = 7;
/// Warm-up sweeps after every boot, excluded from timing.
const WARMUP: usize = 100;
/// Per-request samples are kept for this many sweeps at most, spread
/// evenly over the run.
const SAMPLED_SWEEPS: usize = 3000;

/// The installed policy set and packages a daemon publishes through
/// `query policies` and `query apps`.
///
/// # Errors
///
/// Fails if the daemon's answers do not parse.
pub fn published(daemon: &Daemon) -> Result<(Vec<Policy>, Vec<String>), String> {
    let reply = Value::parse(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#))
        .map_err(|e| format!("query policies: {e}"))?;
    let mut json = String::new();
    reply
        .get("policies")
        .ok_or("query policies: no \"policies\"")?
        .write_into(&mut json);
    let policies = policy_io::from_json(&json).map_err(|e| format!("policies: {e:?}"))?;
    let reply = Value::parse(&daemon.handle(r#"{"cmd":"query","what":"apps"}"#))
        .map_err(|e| format!("query apps: {e}"))?;
    let packages = reply
        .get("apps")
        .and_then(Value::as_arr)
        .ok_or("query apps: no \"apps\"")?
        .iter()
        .filter_map(|v| v.as_str().map(String::from))
        .collect();
    Ok((policies, packages))
}

/// The probe traffic over a policy set, with reference answers.
#[derive(Debug)]
pub struct Traffic {
    /// The policy set the answers are checked against.
    pub policies: Vec<Policy>,
    /// The installed packages, in bundle order.
    pub packages: Vec<String>,
    /// `(event, context)` per probe.
    pub contexts: Vec<(PolicyEvent, IccContext)>,
    /// The `decide` request line per probe.
    pub lines: Vec<String>,
    /// The reference's decision label and policy id per probe.
    pub expected: Vec<(&'static str, Option<u32>)>,
}

impl Traffic {
    /// Builds the probe traffic over `policies` (`probe_contexts`) and
    /// evaluates it on a `LinearPdp`.
    pub fn new(policies: Vec<Policy>, packages: Vec<String>) -> Traffic {
        let contexts = probe_contexts(&policies);
        let lines = contexts.iter().map(|(e, c)| decide_line(*e, c)).collect();
        let expected = reference(&policies, &packages, &contexts);
        Traffic {
            policies,
            packages,
            contexts,
            lines,
            expected,
        }
    }

    /// Whether `reply` to probe `i` is `ok` and carries exactly the
    /// reference's decision label and policy id.
    pub fn matches(&self, i: usize, reply: &str) -> bool {
        let (label, id) = self.expected[i];
        reply_is(reply, label, id)
    }

    /// Share of probes the reference does not simply allow.
    pub fn non_allow_ratio(&self) -> f64 {
        let n = self.expected.iter().filter(|(d, _)| *d != "allow").count();
        n as f64 / self.expected.len().max(1) as f64
    }
}

/// The `LinearPdp` reference's decision label and policy id for each of
/// `contexts` under `policies` (prompts answered "deny").
pub fn reference(
    policies: &[Policy],
    packages: &[String],
    contexts: &[(PolicyEvent, IccContext)],
) -> Vec<(&'static str, Option<u32>)> {
    let mut pdp =
        LinearPdp::new(policies.to_vec(), packages.to_vec()).with_prompt(PromptHandler::AlwaysDeny);
    contexts
        .iter()
        .map(|(event, ctx)| {
            let d = pdp.evaluate(*event, ctx);
            (d.label(), d.policy_id())
        })
        .collect()
}

/// Whether a `decide` reply is `ok` and carries exactly `label` and
/// `policy_id` (`null` for none).
pub fn reply_is(reply: &str, label: &str, policy_id: Option<u32>) -> bool {
    let Ok(v) = Value::parse(reply) else {
        return false;
    };
    let id_matches = match (policy_id, v.get("policy_id")) {
        (Some(id), Some(got)) => got.as_u64() == Some(u64::from(id)),
        (None, Some(got)) => *got == Value::Null,
        (_, None) => false,
    };
    v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("decision").and_then(Value::as_str) == Some(label)
        && id_matches
}

/// The `decide` request line for one probe (prompts answered "deny").
pub fn decide_line(event: PolicyEvent, ctx: &IccContext) -> String {
    let mut fields = vec![
        ("cmd".to_string(), Value::Str("decide".into())),
        ("event".into(), Value::Str(event.name().into())),
        ("sender_app".into(), Value::Str(ctx.sender_app.clone())),
        (
            "sender_component".into(),
            Value::Str(ctx.sender_component.clone()),
        ),
    ];
    let opt = |key: &str, v: &Option<String>| v.clone().map(|s| (key.to_string(), Value::Str(s)));
    fields.extend(opt("receiver_app", &ctx.receiver_app));
    fields.extend(opt("receiver_component", &ctx.receiver_component));
    fields.extend(opt("action", &ctx.action));
    fields.push((
        "tags".into(),
        Value::Arr(
            ctx.tags
                .iter()
                .map(|r| Value::Str(r.name().into()))
                .collect(),
        ),
    ));
    fields.push(("prompt".into(), Value::Str("deny".into())));
    let mut out = String::new();
    Value::Obj(fields).write_into(&mut out);
    out
}

/// Runs the workload.
///
/// # Errors
///
/// Fails if the set-up cannot be built.
pub fn run(cfg: &Config) -> Result<(Outcome, LayerInput), String> {
    // Persist the extracted market, so that the daemon starts without
    // re-extracting; nothing of it stays in memory.
    let workdir = WorkDir::new("decide").map_err(|e| e.to_string())?;
    let store = workdir.join("store");
    {
        let bundle = Bundle::market(cfg.apps, cfg.seed);
        let models = extract_models(&bundle.packages)?;
        seed_store(&store, &models)?;
    }
    reset_peak_rss()?;
    // The boots are spread over the run: each one is followed by a
    // warm-up and an equal share of the timed sweeps, so that `setup_s`
    // samples the whole run rather than its first seconds.
    let (first, took) = boot_daemon(&store)?;
    let mut boots = vec![secs(took)];
    let (policies, packages) = published(&first)?;
    let traffic = Traffic::new(policies, packages);
    let published_json = policy_io::to_json(&traffic.policies);
    let n = traffic.lines.len();
    let sweeps = passes(cfg.seconds, REQUEST_SECS_4000 * n as f64);
    let stride = sweeps.div_ceil(SAMPLED_SWEEPS);
    let mut samples = Vec::with_capacity(n * sweeps.div_ceil(stride));
    // Mean request latency of every timed sweep, in µs.
    let mut sweep_us = Vec::with_capacity(sweeps);
    // The first reply to each probe is checked field by field; a later
    // reply, from any boot, must equal it byte for byte.
    let mut verified: Vec<Option<String>> = vec![None; n];
    let mut tally = Tally::default();
    let mut measured = 0.0;
    let mut daemon = Some(first);
    let mut timed = 0;
    for boot in 0..BOOTS {
        if boot > 0 {
            // Stop the previous daemon first: one store, one owner.
            drop(daemon.take());
            let (d, took) = boot_daemon(&store)?;
            boots.push(secs(took));
            let same = published(&d)
                .map(|(p, _)| policy_io::to_json(&p) == published_json)
                .unwrap_or(false);
            tally.op(same, || {
                format!("boot {boot}: published a different policy set")
            });
            daemon = Some(d);
        }
        let daemon = daemon.as_ref().expect("booted");
        // This boot's share of the timed sweeps.
        let share = sweeps * (boot + 1) / BOOTS - sweeps * boot / BOOTS;
        for sweep in 0..WARMUP + share {
            let sampled = sweep >= WARMUP && (timed + sweep - WARMUP).is_multiple_of(stride);
            let t_sweep = Instant::now();
            for (i, line) in traffic.lines.iter().enumerate() {
                let t = Instant::now();
                let reply = daemon.handle(line);
                let took = t.elapsed();
                if sampled {
                    samples.push(took.as_nanos() as f64 / 1e3);
                }
                let ok = match &verified[i] {
                    Some(good) => *good == reply,
                    None => {
                        let ok = traffic.matches(i, &reply);
                        if ok {
                            verified[i] = Some(reply.clone());
                        }
                        ok
                    }
                };
                tally.op(ok, || format!("decide {i}: {reply}"));
            }
            if sweep >= WARMUP {
                let took = secs(t_sweep.elapsed());
                measured += took;
                sweep_us.push(took * 1e6 / n as f64);
            }
        }
        timed += share;
    }
    let daemon = daemon.expect("booted");

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&boots), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    // As in `analyze`, the end-to-end timings read the fast end of the
    // sweeps (`FAST_QUANTILE`, `noise.host_drift`); the whole-run means
    // are per-layer metrics.
    let fast = quantile(&sweep_us, FAST_QUANTILE);
    metrics.put("throughput_fast_per_s", 1e6 / fast, "1/s");
    metrics.put("latency_fast_us", fast, "us");
    metrics.put(
        "throughput_mean_per_s",
        (n * sweeps) as f64 / measured,
        "1/s",
    );
    metrics.put("latency_mean_us", mean(&samples), "us");
    metrics.put("latency_p50_us", median(&samples), "us");
    metrics.put("latency_p99_us", quantile(&samples, 0.99), "us");
    metrics.put("drift_pct", drift_pct(&samples), "%");
    let params = vec![
        ("apps", cfg.apps.to_string()),
        ("policies", traffic.policies.len().to_string()),
        ("probes", n.to_string()),
        ("sweeps", sweeps.to_string()),
        ("warmup_sweeps_per_boot", WARMUP.to_string()),
        ("sampled_every_nth_sweep", stride.to_string()),
        ("daemon_boots", BOOTS.to_string()),
    ];
    Ok((
        Outcome {
            tally,
            metrics,
            params,
        },
        LayerInput {
            packages: None,
            daemon: Some((daemon, workdir)),
        },
    ))
}
