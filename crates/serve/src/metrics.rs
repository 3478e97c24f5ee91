//! Live service metrics behind the `stats`, `metrics` and `health`
//! requests: the daemon's counters, per-request-type rolling latency
//! windows, and the metric registry every view renders from.
//!
//! Everything here is designed to sit *beside* the hot paths, not in
//! them: recording a request latency touches one slice mutex of a
//! [`RollingHistogram`] (tens of nanoseconds against a decide round
//! trip measured in hundreds of microseconds — `serve_load` measures
//! and asserts the ratio), and counters are single relaxed atomics. The
//! expensive work — merging windows, walking counters, rendering JSON
//! or Prometheus text — happens only when someone actually scrapes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use separ_obs::json::Value;
use separ_obs::prometheus::PromWriter;
use separ_obs::{HistogramSnapshot, RollingHistogram};

use crate::daemon::Reading;

/// Every request kind the daemon tracks a rolling latency window for.
/// `batch` is recorded by the analysis worker (one sample per coalesced
/// batch); the rest by [`Daemon::handle`](crate::Daemon::handle).
pub const REQUEST_KINDS: [&str; 10] = [
    "install",
    "uninstall",
    "set_permission",
    "query",
    "decide",
    "stats",
    "metrics",
    "health",
    "invalid",
    "batch",
];

/// The index of `kind` in [`REQUEST_KINDS`], for
/// [`ServeMetrics::record`]; `None` for kinds without a window.
pub fn kind_slot(kind: &str) -> Option<usize> {
    REQUEST_KINDS.iter().position(|&k| k == kind)
}

/// The daemon's live metrics: the only owner of the counts it serves.
///
/// One instance per [`Daemon`](crate::Daemon); shared with the analysis
/// worker. All recording methods are `&self` and thread-safe.
pub struct ServeMetrics {
    started: Instant,
    rolling: Vec<RollingHistogram>,
    /// Requests handled.
    pub(crate) requests: AtomicU64,
    /// Requests answered with an error.
    pub(crate) failed: AtomicU64,
    /// Requests slower than the configured `--slow-ms`.
    pub(crate) slow_requests: AtomicU64,
    /// Audit records written; 0 when auditing is off.
    pub(crate) audit_records: AtomicU64,
    /// Analysis batches applied.
    pub(crate) batches: AtomicU64,
    /// Churn ops folded into those batches.
    pub(crate) ops_coalesced: AtomicU64,
    /// Churn confirmation waits that expired.
    pub(crate) deadline_misses: AtomicU64,
    /// Nanoseconds-from-start of the last applied batch; 0 = never.
    last_batch_ns: AtomicU64,
}

impl ServeMetrics {
    /// A fresh registry; `started` is the daemon's uptime epoch.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            rolling: REQUEST_KINDS
                .iter()
                .map(|_| RollingHistogram::standard())
                .collect(),
            requests: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            audit_records: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            ops_coalesced: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            last_batch_ns: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Records one request of the kind at index `slot` of
    /// [`REQUEST_KINDS`] (see [`kind_slot`]) taking `ns` nanoseconds.
    /// Slots past the table are dropped.
    pub fn record(&self, slot: usize, ns: u64) {
        if let Some(window) = self.rolling.get(slot) {
            window.record(ns);
        }
    }

    /// Marks a batch as applied now (drives `last_batch_age_ms`).
    pub fn mark_batch(&self) {
        let now = self.started.elapsed().as_nanos() as u64;
        self.last_batch_ns.store(now.max(1), Ordering::Relaxed);
    }

    /// Milliseconds since the last applied batch; `None` before the
    /// first one.
    pub fn last_batch_age_ms(&self) -> Option<u64> {
        let at = self.last_batch_ns.load(Ordering::Relaxed);
        if at == 0 {
            return None;
        }
        let now = self.started.elapsed().as_nanos() as u64;
        Some(now.saturating_sub(at) / 1_000_000)
    }

    /// The rolling windows of every request kind with traffic, as the
    /// `rolling` JSON object: kind → window label → summary.
    pub fn rolling_json(&self) -> Value {
        let mut kinds = Vec::new();
        for (i, &kind) in REQUEST_KINDS.iter().enumerate() {
            let windows = self.rolling[i].windows();
            if windows.iter().all(|(_, w)| w.count() == 0) {
                continue;
            }
            let obj = windows
                .into_iter()
                .map(|(label, w)| (label.to_string(), window_json(&w)))
                .collect();
            kinds.push((kind.to_string(), Value::Obj(obj)));
        }
        Value::Obj(kinds)
    }

    /// Appends one `separ_request_latency_seconds` gauge family holding
    /// the windowed quantiles of every request kind with traffic.
    pub fn rolling_prometheus(&self, w: &mut PromWriter) {
        let name = "separ_request_latency_seconds";
        w.family(
            name,
            "gauge",
            "windowed request latency quantiles by request type",
        );
        for (i, &kind) in REQUEST_KINDS.iter().enumerate() {
            for (window, snap) in self.rolling[i].windows() {
                if snap.count() == 0 {
                    continue;
                }
                for &(q, label) in &[(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    w.sample(
                        name,
                        &[("type", kind), ("window", window), ("quantile", label)],
                        snap.quantile(q) as f64 / 1e9,
                    );
                }
                w.sample(
                    &format!("{name}_count"),
                    &[("type", kind), ("window", window)],
                    snap.count() as f64,
                );
            }
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("uptime_ms", &self.uptime_ms())
            .finish()
    }
}

/// One rolling window as JSON: count plus µs-valued quantiles.
fn window_json(w: &HistogramSnapshot) -> Value {
    let us = |ns: u64| Value::Num(ns as f64 / 1_000.0);
    Value::Obj(vec![
        ("count".into(), Value::Num(w.count() as f64)),
        ("p50_us".into(), us(w.quantile(0.5))),
        ("p90_us".into(), us(w.quantile(0.9))),
        ("p99_us".into(), us(w.quantile(0.99))),
        ("max_us".into(), us(w.max())),
        ("mean_us".into(), us(w.mean())),
    ])
}

/// The [`Metric::views`] bit for the `stats` response.
pub(crate) const STATS: u8 = 1;
/// The [`Metric::views`] bit for the `metrics` response (and its
/// Prometheus exposition).
pub(crate) const METRICS: u8 = 2;
/// The [`Metric::views`] bit for the `health` response.
pub(crate) const HEALTH: u8 = 4;

/// How a [`Metric`] is exported to Prometheus: as a counter or a gauge
/// family, each with its name and HELP text, or not at all.
pub(crate) enum Prom {
    Counter(&'static str, &'static str),
    Gauge(&'static str, &'static str),
    JsonOnly,
}

/// One daemon metric, declared once: where it appears, what it is
/// called there, and how to read it.
pub(crate) struct Metric {
    /// The JSON key; `section/key` nests it in the `section` object.
    pub key: &'static str,
    /// The views that report it: [`STATS`] | [`METRICS`] | [`HEALTH`].
    pub views: u8,
    /// Its Prometheus family.
    pub prom: Prom,
    /// Its current value: a number, a flag, or `null` for "not yet"
    /// (which exports no family).
    pub read: fn(&Reading<'_>) -> Value,
}

/// The metrics in `view`, in list order, as JSON fields; a `section/key`
/// joins the `section` object opened by the section's first metric.
pub(crate) fn json_fields(
    list: &[Metric],
    reading: &Reading<'_>,
    view: u8,
) -> Vec<(String, Value)> {
    let mut fields: Vec<(String, Value)> = Vec::new();
    for metric in list.iter().filter(|m| m.views & view != 0) {
        let value = (metric.read)(reading);
        let Some((section, key)) = metric.key.split_once('/') else {
            fields.push((metric.key.to_string(), value));
            continue;
        };
        match fields.iter_mut().find(|(k, _)| k == section) {
            Some((_, Value::Obj(members))) => members.push((key.to_string(), value)),
            _ => fields.push((
                section.to_string(),
                Value::Obj(vec![(key.to_string(), value)]),
            )),
        }
    }
    fields
}

/// Appends one single-sample family per exported metric, in list order;
/// a metric reading `null` is left out. A value the JSON keeps in
/// milliseconds (a `_ms` key) is exported in seconds, Prometheus's base
/// unit.
pub(crate) fn prometheus_families(list: &[Metric], reading: &Reading<'_>, w: &mut PromWriter) {
    for metric in list {
        let (name, kind, help) = match metric.prom {
            Prom::Counter(name, help) => (name, "counter", help),
            Prom::Gauge(name, help) => (name, "gauge", help),
            Prom::JsonOnly => continue,
        };
        let Value::Num(v) = (metric.read)(reading) else {
            continue;
        };
        let scale = if metric.key.ends_with("_ms") {
            1e3
        } else {
            1.0
        };
        w.family(name, kind, help);
        w.sample(name, &[], v / scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_known_kinds() {
        let m = ServeMetrics::new();
        let decide = kind_slot("decide").expect("decide has a window");
        m.record(decide, 1_000);
        m.record(decide, 2_000);
        assert_eq!(kind_slot("nonsense"), None);
        m.record(REQUEST_KINDS.len(), 5_000);
        let rolling = m.rolling_json();
        let decide = rolling.get("decide").expect("decide tracked");
        let w10 = decide.get("10s").expect("10s window");
        assert_eq!(w10.get("count").and_then(Value::as_u64), Some(2));
        assert!(rolling.get("nonsense").is_none());
        assert!(rolling.get("install").is_none(), "no traffic, no entry");
    }

    #[test]
    fn rolling_prometheus_emits_quantiles_per_window() {
        let m = ServeMetrics::new();
        let decide = kind_slot("decide").expect("decide has a window");
        for i in 0..100 {
            m.record(decide, 1_000 * (i + 1));
        }
        let mut w = PromWriter::new();
        m.rolling_prometheus(&mut w);
        let text = w.finish();
        assert!(text.contains("# TYPE separ_request_latency_seconds gauge"));
        assert!(text.contains(
            "separ_request_latency_seconds{type=\"decide\",window=\"10s\",quantile=\"0.99\"}"
        ));
        assert!(
            text.contains("separ_request_latency_seconds_count{type=\"decide\",window=\"5m\"} 100")
        );
        assert!(!text.contains("type=\"install\""));
    }

    #[test]
    fn last_batch_age_starts_empty() {
        let m = ServeMetrics::new();
        assert_eq!(m.last_batch_age_ms(), None);
        m.mark_batch();
        assert!(m.last_batch_age_ms().expect("marked") < 1_000);
    }
}
