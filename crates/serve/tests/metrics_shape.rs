//! Pins the shape of the daemon's telemetry views: the key sets of
//! `stats`, `metrics` and `health`, and the Prometheus exposition's
//! (family, TYPE, HELP) list and sample names, for a fixed
//! install-and-decide script with the process-global collector off.
//!
//! Values that depend on the script alone (request, batch and decision
//! counts) are pinned too; clock-driven values (uptime, ages, latency
//! quantiles) are only checked for presence.

use std::collections::BTreeSet;

use separ_obs::json::Value;
use separ_serve::protocol::encode_hex;
use separ_serve::{Daemon, ServeConfig};

const DECIDE: &str =
    r#"{"cmd":"decide","event":"icc_send","sender_app":"com.navigator","prompt":"deny"}"#;

fn parse_ok(line: &str) -> Value {
    let v = Value::parse(line).expect("response is valid JSON");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "response not ok: {line}"
    );
    v
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => {
            let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            keys
        }
        other => panic!("not an object: {other:?}"),
    }
}

fn sorted<'a>(keys: &[&'a str]) -> Vec<&'a str> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{key} is a count"))
}

/// `(family, TYPE, HELP)` in exposition order, plus the sample names
/// outside the rolling-latency family (whose windows age with the clock).
fn exposition(body: &str) -> (Vec<(String, String, String)>, Vec<String>) {
    let mut families = Vec::new();
    let mut help = String::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = rest.split_once(' ').expect("HELP text").1.to_string();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE kind");
            families.push((name.to_string(), kind.to_string(), help.clone()));
        } else {
            let name = line.rsplit_once(' ').expect("sample line").0;
            if !name.starts_with("separ_request_latency_seconds") {
                samples.push(name.to_string());
            }
        }
    }
    (families, samples)
}

fn prometheus(daemon: &Daemon) -> String {
    let v = parse_ok(&daemon.handle(r#"{"cmd":"metrics","format":"prometheus"}"#));
    v.get("body")
        .and_then(Value::as_str)
        .expect("body")
        .to_string()
}

fn fam(name: &str, kind: &str, help: &str) -> (String, String, String) {
    (name.to_string(), kind.to_string(), help.to_string())
}

/// Every daemon family, in exposition order; the last-batch age is
/// present only once a batch has been applied.
fn expected_families(with_batch_age: bool) -> Vec<(String, String, String)> {
    let mut families = vec![
        fam(
            "separ_uptime_seconds",
            "gauge",
            "seconds since daemon start",
        ),
        fam("separ_queue_depth", "gauge", "pending churn ops"),
        fam(
            "separ_subscribers",
            "gauge",
            "connected policy-delta subscribers",
        ),
    ];
    if with_batch_age {
        families.push(fam(
            "separ_last_batch_age_seconds",
            "gauge",
            "seconds since the last applied batch",
        ));
    }
    families.extend([
        fam(
            "separ_policy_delta_seq",
            "counter",
            "policy-delta events published",
        ),
        fam(
            "separ_subscribers_dropped_total",
            "counter",
            "subscribers dropped for lagging",
        ),
        fam("separ_requests_total", "counter", "requests served"),
        fam(
            "separ_requests_failed_total",
            "counter",
            "requests answered with an error",
        ),
        fam(
            "separ_slow_requests_total",
            "counter",
            "requests over the slow-log threshold",
        ),
        fam(
            "separ_audit_records_total",
            "counter",
            "audit records written",
        ),
        fam("separ_batches_total", "counter", "analysis batches applied"),
        fam(
            "separ_ops_coalesced_total",
            "counter",
            "churn ops folded into batches",
        ),
        fam(
            "separ_deadline_misses_total",
            "counter",
            "confirmation waits that expired",
        ),
        fam(
            "separ_backpressure_waits_total",
            "counter",
            "churn requests that waited on a full queue",
        ),
        fam(
            "separ_pdp_evaluations_total",
            "counter",
            "decisions evaluated",
        ),
        fam(
            "separ_pdp_index_hits_total",
            "counter",
            "decisions whose receiver had a bucket in the receiver index",
        ),
        fam(
            "separ_pdp_allowed_total",
            "counter",
            "decisions that allowed the operation",
        ),
        fam(
            "separ_pdp_denied_total",
            "counter",
            "decisions that refused the operation",
        ),
        fam(
            "separ_pdp_prompts_total",
            "counter",
            "decisions that prompted the user",
        ),
        fam(
            "separ_pdp_swaps_total",
            "counter",
            "policy-set swaps published",
        ),
        fam("separ_pdp_policies", "gauge", "policies in the live set"),
        fam(
            "separ_request_latency_seconds",
            "gauge",
            "windowed request latency quantiles by request type",
        ),
    ]);
    families
}

#[test]
fn telemetry_views_keep_their_shape() {
    assert!(
        !separ_obs::enabled(),
        "the script runs with the collector off"
    );
    let daemon = Daemon::start(ServeConfig {
        config: separ_core::SeparConfig::serial(),
        ..ServeConfig::default()
    })
    .expect("boots");

    // Before any batch: no last-batch age anywhere.
    let health = parse_ok(&daemon.handle(r#"{"cmd":"health"}"#));
    assert!(matches!(health.get("last_batch_age_ms"), Some(Value::Null)));
    let (families, samples) = exposition(&prometheus(&daemon));
    assert_eq!(families, expected_families(false));
    assert!(!samples.iter().any(|s| s == "separ_last_batch_age_seconds"));

    // The script: one install, twenty decides, one malformed line.
    let install = format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        encode_hex(&separ_dex::codec::encode(
            &separ_corpus::motivating::navigator_app()
        ))
    );
    parse_ok(&daemon.handle(&install));
    for _ in 0..20 {
        parse_ok(&daemon.handle(DECIDE));
    }
    assert!(daemon.handle("{not json").starts_with("{\"ok\":false"));

    // 1 health + 1 scrape + 1 install + 20 decides + 1 invalid = 24
    // requests before this one; `stats` counts itself.
    let stats = parse_ok(&daemon.handle(r#"{"cmd":"stats"}"#));
    assert_eq!(
        keys(&stats),
        sorted(&[
            "ok",
            "uptime_ms",
            "requests",
            "failed",
            "batches",
            "ops_coalesced",
            "coalescing_factor",
            "deadline_misses",
            "queue_depth",
        ])
    );
    assert_eq!(num(&stats, "requests"), 25);
    assert_eq!(num(&stats, "failed"), 1);
    assert_eq!(num(&stats, "batches"), 1);
    assert_eq!(num(&stats, "ops_coalesced"), 1);
    assert_eq!(num(&stats, "deadline_misses"), 0);
    assert_eq!(num(&stats, "queue_depth"), 0);
    assert_eq!(
        stats.get("coalescing_factor").and_then(Value::as_f64),
        Some(1.0)
    );

    let metrics = parse_ok(&daemon.handle(r#"{"cmd":"metrics"}"#));
    assert_eq!(
        keys(&metrics),
        sorted(&[
            "ok",
            "uptime_ms",
            "queue_depth",
            "subscribers",
            "subscribers_dropped",
            "seq",
            "last_batch_age_ms",
            "requests",
            "failed",
            "slow_requests",
            "audit_records",
            "batches",
            "ops_coalesced",
            "coalescing_factor",
            "deadline_misses",
            "backpressure_waits",
            "pdp",
            "rolling",
        ])
    );
    assert_eq!(num(&metrics, "requests"), 26);
    assert_eq!(num(&metrics, "failed"), 1);
    assert_eq!(num(&metrics, "seq"), 1);
    assert_eq!(num(&metrics, "subscribers"), 0);
    assert_eq!(num(&metrics, "slow_requests"), 0);
    assert_eq!(num(&metrics, "audit_records"), 0);
    assert_eq!(num(&metrics, "backpressure_waits"), 0);
    assert!(metrics
        .get("last_batch_age_ms")
        .and_then(Value::as_u64)
        .is_some());
    let pdp = metrics.get("pdp").expect("pdp section");
    assert_eq!(
        keys(pdp),
        sorted(&[
            "evaluations",
            "index_hits",
            "allowed",
            "denied",
            "prompts",
            "swaps",
            "policies"
        ])
    );
    assert_eq!(num(pdp, "evaluations"), 20);
    // The scripted decides name no receiver: none is answered from the
    // receiver index.
    assert_eq!(num(pdp, "index_hits"), 0);
    assert_eq!(num(pdp, "allowed") + num(pdp, "denied"), 20);
    assert_eq!(num(pdp, "swaps"), 1);
    let rolling = metrics.get("rolling").expect("rolling windows");
    for kind in ["install", "decide", "batch", "invalid", "health", "stats"] {
        assert!(rolling.get(kind).is_some(), "rolling.{kind}");
    }

    let health = parse_ok(&daemon.handle(r#"{"cmd":"health"}"#));
    assert_eq!(
        keys(&health),
        sorted(&[
            "ok",
            "ready",
            "live",
            "uptime_ms",
            "queue_depth",
            "last_batch_age_ms",
            "seq",
        ])
    );
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
    assert_eq!(num(&health, "seq"), 1);

    let body = prometheus(&daemon);
    let (families, samples) = exposition(&body);
    assert_eq!(families, expected_families(true));
    // Every daemon family carries exactly one unlabelled sample.
    let expected_samples: Vec<String> = families
        .iter()
        .map(|(name, _, _)| name.clone())
        .filter(|name| name != "separ_request_latency_seconds")
        .collect();
    assert_eq!(samples, expected_samples);
    assert!(body.contains("\nsepar_requests_total 28\n"));
    assert!(body.contains("\nsepar_pdp_evaluations_total 20\n"));
    assert!(body.contains("\nsepar_pdp_index_hits_total 0\n"));
    assert!(body.contains("\nsepar_backpressure_waits_total 0\n"));
    let kinds: BTreeSet<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("separ_request_latency_seconds_count{type=\""))
        .filter_map(|l| l.split('"').next())
        .collect();
    for kind in ["install", "decide", "batch", "invalid"] {
        assert!(kinds.contains(kind), "latency samples for {kind}");
    }

    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
}
