//! The analysis daemon: one [`IncrementalSession`] behind a coalescing
//! batch worker, with decisions served lock-free off a [`SharedPdp`].
//!
//! ```text
//! connection threads                     analysis worker (one thread)
//! ──────────────────                     ───────────────────────────
//! decode + extract ──────────────┐
//! enqueue op, get Ticket ────────┼─▶ ChurnQueue ─▶ take_batch(max)
//! wait(deadline) ◀───────────────┘        │           apply_batch (ONE pass)
//!                                         │           SharedPdp::publish
//! decide ──▶ PdpReader (lock-free) ◀──────┘           store.persist
//! query/stats ──▶ published snapshot                  fulfill tickets
//! ```
//!
//! Expensive per-request work (package decode and model extraction)
//! happens on the *connection* thread before the op is enqueued, so it
//! parallelizes across clients and malformed packages are refused
//! immediately; the worker only ever folds ready-made models into the
//! session. A burst of N churn requests drains as one
//! [`IncrementalSession::apply_batch`] pass — the coalescing factor
//! (ops per batch) is the daemon's central performance metric.
//!
//! With a store directory configured, every batch persists the bundle
//! manifest and each signature's result; on startup the daemon restores
//! the persisted models **without re-extracting** any package, reuses
//! every stored result whose slice key still matches (re-synthesizing
//! only the rest), and persists only what the store lacks: a restart on
//! an unchanged store writes nothing and solves nothing. The store stays
//! locked while the daemon runs (see `separ_core::store`). Shutdown closes the queue, drains what was accepted, persists again if
//! a batch failed or its persist did, and fsyncs — accepted requests are
//! never lost (see
//! `crate::queue`'s close-then-drain contract).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use separ_core::policy::{merge_delta, Policy};
use separ_core::{
    Executor, IncrementalSession, ResultKey, SeparConfig, SessionOp, SessionStore,
    SignatureRegistry, StoreError,
};
use separ_enforce::{CompiledPolicySet, PdpTotals, SharedPdp};
use separ_obs::json::Value;
use separ_obs::prometheus::PromWriter;

use crate::audit::{AuditRecord, AuditWriter};
use crate::metrics::Prom::{Counter, Gauge, JsonOnly};
use crate::metrics::{
    json_fields, kind_slot, prometheus_families, Metric, ServeMetrics, AUDITED_SLOTS, HEALTH,
    METRICS, STATS,
};
use crate::protocol::{decide_response, error_response, ok_response, QueryWhat, Request};
use crate::queue::{fulfill_batch, BatchOutcome, BatchSummary, ChurnQueue, PushError};
use crate::subscribe::{PolicyDeltaEvent, Subscription, Subscriptions};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Analysis configuration for the underlying session.
    pub config: SeparConfig,
    /// Maximum pending churn ops before producers block (backpressure).
    pub queue_capacity: usize,
    /// Maximum ops folded into one analysis pass.
    pub batch_max: usize,
    /// Confirmation-wait deadline for churn requests that don't set
    /// `deadline_ms`.
    pub default_deadline: Duration,
    /// Persistent session-store directory; `None` = in-memory only.
    pub store_dir: Option<std::path::PathBuf>,
    /// Log requests slower than this many milliseconds to stderr (one
    /// JSON line each); `None` disables the slow log.
    pub slow_ms: Option<u64>,
    /// JSONL audit-log path; `None` disables auditing.
    pub audit_path: Option<std::path::PathBuf>,
    /// Audit-log size cap per generation before rotation.
    pub audit_max_bytes: u64,
    /// Pending policy-delta events buffered per subscriber before it is
    /// dropped as a laggard.
    pub subscriber_buffer: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            config: SeparConfig::default(),
            queue_capacity: 64,
            batch_max: 32,
            default_deadline: Duration::from_secs(30),
            store_dir: None,
            slow_ms: None,
            audit_path: None,
            audit_max_bytes: 8 * 1024 * 1024,
            subscriber_buffer: 64,
        }
    }
}

/// A startup error.
#[derive(Debug)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ServeError {}

/// The read-mostly snapshot `query`/`stats` answer from; the worker
/// replaces it after every batch.
#[derive(Debug, Default, Clone)]
struct Published {
    policies: Arc<[Policy]>,
    apps: Vec<String>,
    exploits: Vec<String>,
    total_syntheses: usize,
}

/// What one request's outcome contributes to the audit log.
#[derive(Debug, Default)]
struct Outcome {
    decision: Option<&'static str>,
    policy_id: Option<u64>,
    package: Option<String>,
    error: Option<String>,
}

/// The running daemon. [`Daemon::handle`] is the entire service: socket
/// servers, tests and in-process harnesses all feed request lines
/// through it.
pub struct Daemon {
    queue: Arc<ChurnQueue>,
    pdp: SharedPdp,
    published: Arc<Mutex<Published>>,
    metrics: Arc<ServeMetrics>,
    subs: Arc<Subscriptions>,
    audit: Option<AuditWriter>,
    slow_ms: Option<u64>,
    default_deadline: Duration,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    restored_apps: usize,
    restore_skipped: usize,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("queue_depth", &self.queue.depth())
            .field("restored_apps", &self.restored_apps)
            .finish()
    }
}

impl Daemon {
    /// Boots the daemon: restores the session from the store (if any),
    /// runs the initial synthesis (reusing the store's results), publishes
    /// the PDP, and starts the analysis worker.
    ///
    /// # Errors
    ///
    /// Fails if the store is unusable or the initial analysis fails.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, ServeError> {
        let _span = separ_obs::span("serve.start");
        let store = match &cfg.store_dir {
            Some(dir) => Some(
                SessionStore::open(dir)
                    .map_err(|e| ServeError(e.to_string()))?
                    .with_executor(Executor::new(cfg.config.threads)),
            ),
            None => None,
        };
        let restored = match &store {
            Some(store) => store.restore().map_err(|e| ServeError(e.to_string()))?,
            None => Default::default(),
        };
        let (restored_apps, restore_skipped) = (restored.apps.len(), restored.skipped);
        let stored = |key: &ResultKey| store.as_ref()?.load_result(key);
        let (session, retargeted) = IncrementalSession::resume(
            SignatureRegistry::standard(),
            cfg.config,
            restored.apps,
            restored.addresses,
            &stored,
        )
        .map_err(|e| ServeError(format!("initial analysis: {e}")))?;
        // The session, the PDP and the published snapshot share one
        // policy list.
        let pdp = {
            let _span = separ_obs::span("serve.pdp_compile");
            SharedPdp::new(CompiledPolicySet::compile(
                session.shared_policies(),
                packages_of(&session),
            ))
        };
        let published = {
            let _span = separ_obs::span("serve.publish");
            Arc::new(Mutex::new(snapshot_of(&session)))
        };
        // Persist at boot only what the disk lacks: the models when they
        // differ from the session's (or are in the first store layout),
        // the results when a signature had to be synthesized (its result
        // had no file).
        if let Some(store) = &store {
            let models_differ = !restored.current || restore_skipped > 0 || !retargeted.is_empty();
            let saved = if models_differ {
                save(store, &session)
            } else if session.total_syntheses() > 0 {
                store.persist_results(session.results())
            } else {
                Ok(())
            };
            saved.map_err(|e| ServeError(e.to_string()))?;
        }
        let queue = Arc::new(ChurnQueue::new(cfg.queue_capacity));
        let metrics = Arc::new(ServeMetrics::new());
        let subs = Arc::new(Subscriptions::new(cfg.subscriber_buffer));
        let audit = match &cfg.audit_path {
            Some(path) => Some(
                AuditWriter::open(path, cfg.audit_max_bytes)
                    .map_err(|e| ServeError(format!("audit log {}: {e}", path.display())))?,
            ),
            None => None,
        };
        let worker = {
            let queue = Arc::clone(&queue);
            let pdp = pdp.clone();
            let published = Arc::clone(&published);
            let metrics = Arc::clone(&metrics);
            let subs = Arc::clone(&subs);
            let batch_max = cfg.batch_max;
            std::thread::Builder::new()
                .name("separ-serve-worker".into())
                .spawn(move || {
                    worker_loop(
                        session, store, queue, pdp, published, metrics, subs, batch_max,
                    )
                })
                .map_err(|e| ServeError(format!("worker thread: {e}")))?
        };
        Ok(Daemon {
            queue,
            pdp,
            published,
            metrics,
            subs,
            audit,
            slow_ms: cfg.slow_ms,
            default_deadline: cfg.default_deadline,
            worker: Mutex::new(Some(worker)),
            restored_apps,
            restore_skipped,
        })
    }

    /// How many apps the store restored at boot (and how many manifest
    /// entries were unrecoverable).
    pub fn restored(&self) -> (usize, usize) {
        (self.restored_apps, self.restore_skipped)
    }

    /// Handles one request line, returning one response line (no
    /// trailing newline). Never panics on malformed input — every error
    /// becomes an `{"ok":false,...}` response.
    ///
    /// Every request gets a process-unique id (carried by the slow log
    /// and the audit log) and its latency recorded into the per-type
    /// rolling windows behind `metrics`. Nothing is recorded per request
    /// in the obs collector: an embedder that turns it on and never
    /// clears it would grow with every request.
    ///
    /// A `decide` line is answered from the line itself: the request
    /// borrows its strings from it, the PDP decides from a borrowed
    /// view, and the reply is the one allocation.
    pub fn handle(&self, line: &str) -> String {
        let req_id = self.metrics.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let started_ns = self.metrics.now_ns();
        let (kind, slot, (response, outcome)) = match Request::parse(line.trim()) {
            Ok(request) => (request.kind(), request.kind_slot(), self.dispatch(request)),
            Err(e) => {
                let outcome = Outcome {
                    error: Some(e.clone()),
                    ..Outcome::default()
                };
                ("invalid", kind_slot("invalid"), (self.fail(e), outcome))
            }
        };
        let ended_ns = self.metrics.now_ns();
        let ns = ended_ns.saturating_sub(started_ns);
        if let Some(slot) = slot {
            self.metrics.record_at(slot, ended_ns, ns);
        }
        if let Some(slow_ms) = self.slow_ms {
            if ns >= slow_ms.saturating_mul(1_000_000) {
                self.metrics.slow_requests.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "{{\"slow_request\":true,\"req_id\":{req_id},\"cmd\":\"{kind}\",\"ms\":{}}}",
                    ns / 1_000_000
                );
            }
        }
        if slot.is_some_and(|slot| AUDITED_SLOTS.contains(&slot)) {
            if let Some(audit) = &self.audit {
                let written = audit.append(&AuditRecord {
                    req_id,
                    kind,
                    ok: response.starts_with("{\"ok\":true"),
                    package: outcome.package.as_deref(),
                    decision: outcome.decision,
                    policy_id: outcome.policy_id,
                    latency_us: ns / 1_000,
                    error: outcome.error.as_deref(),
                });
                if written {
                    self.metrics.audit_records.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        response
    }

    /// Routes one parsed request, also reporting what the audit log
    /// should record about it.
    fn dispatch(&self, request: Request<'_>) -> (String, Outcome) {
        match request {
            Request::Install { bytes, deadline_ms } => {
                // Extraction happens here, on the caller's thread: it
                // parallelizes across connections and the worker only
                // sees ready models.
                let model = match separ_analysis::extractor::extract(&bytes) {
                    Ok(model) => model,
                    Err(e) => {
                        let e = format!("install: {e}");
                        let outcome = Outcome {
                            error: Some(e.clone()),
                            ..Outcome::default()
                        };
                        return (self.fail(e), outcome);
                    }
                };
                let outcome = Outcome {
                    package: Some(model.package.clone()),
                    ..Outcome::default()
                };
                (self.churn(SessionOp::Install(model), deadline_ms), outcome)
            }
            Request::Uninstall {
                package,
                deadline_ms,
            } => {
                let outcome = Outcome {
                    package: Some(package.clone()),
                    ..Outcome::default()
                };
                (
                    self.churn(SessionOp::Uninstall(package), deadline_ms),
                    outcome,
                )
            }
            Request::SetPermission {
                package,
                permission,
                granted,
                deadline_ms,
            } => {
                let outcome = Outcome {
                    package: Some(package.clone()),
                    ..Outcome::default()
                };
                (
                    self.churn(
                        SessionOp::SetPermission {
                            package,
                            permission,
                            granted,
                        },
                        deadline_ms,
                    ),
                    outcome,
                )
            }
            Request::Query(what) => (self.query(what), Outcome::default()),
            Request::Decide {
                event,
                ctx,
                prompt_allow,
            } => {
                let decision = self
                    .pdp
                    .reader()
                    .evaluate_view(event, &ctx.view(), prompt_allow);
                let outcome = Outcome {
                    decision: Some(decision.label()),
                    policy_id: decision.policy_id().map(u64::from),
                    ..Outcome::default()
                };
                (decide_response(&decision), outcome)
            }
            Request::Stats => (self.view(STATS), Outcome::default()),
            Request::Metrics { prometheus } => {
                (self.metrics_response(prometheus), Outcome::default())
            }
            Request::Health => (self.view(HEALTH), Outcome::default()),
            // A subscription is a connection-level upgrade, not a
            // request/response exchange: the socket server intercepts
            // it before `handle`; reaching here means the caller can't
            // stream (e.g. an in-process one-shot).
            Request::Subscribe => (
                self.fail("subscribe: requires a streaming connection".into()),
                Outcome::default(),
            ),
            Request::Shutdown => (self.shutdown(), Outcome::default()),
        }
    }

    fn fail(&self, message: String) -> String {
        self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        error_response(&message)
    }

    /// Answers a request line the server refused before handing it to
    /// [`Daemon::handle`] (an over-long line): counted as a failed
    /// request, and answered with an error.
    pub(crate) fn refuse(&self, message: String) -> String {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.fail(message)
    }

    fn churn(&self, op: SessionOp, deadline_ms: Option<u64>) -> String {
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.default_deadline);
        let ticket = match self.queue.push(op, deadline) {
            Ok(ticket) => ticket,
            Err(e @ PushError::Backpressure) | Err(e @ PushError::Closed) => {
                return self.fail(e.to_string())
            }
        };
        match ticket.wait(deadline) {
            Some(BatchOutcome::Done(summary)) => ok_response(vec![(
                "batch".into(),
                Value::Obj(vec![
                    ("ops".into(), Value::Num(summary.ops as f64)),
                    ("added".into(), Value::Num(summary.added as f64)),
                    ("removed".into(), Value::Num(summary.removed as f64)),
                    (
                        "signatures_rerun".into(),
                        Value::Num(summary.signatures_rerun as f64),
                    ),
                    ("policies".into(), Value::Num(summary.policies as f64)),
                ]),
            )]),
            Some(BatchOutcome::Failed(e)) => self.fail(format!("analysis failed: {e}")),
            None => {
                // The op IS accepted and will be applied; only the
                // confirmation wait expired.
                self.metrics.deadline_misses.fetch_add(1, Ordering::Relaxed);
                ok_response(vec![("accepted".into(), Value::Bool(true))])
            }
        }
    }

    fn query(&self, what: QueryWhat) -> String {
        let snap = self.published.lock().expect("published lock").clone();
        match what {
            QueryWhat::Policies => ok_response(vec![(
                "policies".into(),
                separ_core::policy_io::to_value(&snap.policies),
            )]),
            QueryWhat::Exploits => ok_response(vec![(
                "exploits".into(),
                Value::Arr(snap.exploits.iter().cloned().map(Value::Str).collect()),
            )]),
            QueryWhat::Apps => ok_response(vec![(
                "apps".into(),
                Value::Arr(snap.apps.iter().cloned().map(Value::Str).collect()),
            )]),
            QueryWhat::Summary => ok_response(vec![
                ("apps".into(), Value::Num(snap.apps.len() as f64)),
                ("policies".into(), Value::Num(snap.policies.len() as f64)),
                ("exploits".into(), Value::Num(snap.exploits.len() as f64)),
                (
                    "total_syntheses".into(),
                    Value::Num(snap.total_syntheses as f64),
                ),
            ]),
        }
    }

    /// One reading of the daemon's state for a view to render.
    fn reading(&self) -> Reading<'_> {
        Reading {
            daemon: self,
            decisions: self.pdp.totals(),
        }
    }

    /// The `stats` or the `health` response: the registry's metrics in
    /// that view. `health` reports liveness (worker thread running),
    /// readiness (accepting requests) and staleness (last-batch age).
    fn view(&self, view: u8) -> String {
        ok_response(json_fields(DAEMON_METRICS, &self.reading(), view))
    }

    /// The `metrics` response: the registry's metrics and per-type
    /// rolling latency windows — as structured JSON, or (with
    /// `prometheus`) as text exposition carried in the `body` field.
    fn metrics_response(&self, prometheus: bool) -> String {
        let reading = self.reading();
        if prometheus {
            // Registry families (fixed order), then windowed latency
            // quantiles: byte-stable across scrapes of the same state.
            let mut w = PromWriter::new();
            prometheus_families(DAEMON_METRICS, &reading, &mut w);
            self.metrics.rolling_prometheus(&mut w);
            return ok_response(vec![
                ("format".into(), Value::Str("prometheus".into())),
                ("body".into(), Value::Str(w.finish())),
            ]);
        }
        let mut fields = json_fields(DAEMON_METRICS, &reading, METRICS);
        fields.push(("rolling".into(), self.metrics.rolling_json()));
        ok_response(fields)
    }

    /// Whether the analysis worker is running.
    fn worker_live(&self) -> bool {
        self.worker
            .lock()
            .expect("worker lock")
            .as_ref()
            .is_some_and(|h| !h.is_finished())
    }

    /// Registers a policy-delta subscriber: it receives one event line
    /// per batch applied after this call, in order. The socket server
    /// calls this when a connection sends `subscribe`; in-process
    /// harnesses (and tests) use it directly.
    pub fn subscribe(&self) -> Subscription {
        self.subs.subscribe()
    }

    /// Removes a subscriber whose connection closed.
    pub fn unsubscribe(&self, id: u64) {
        self.subs.unsubscribe(id);
    }

    /// The acknowledgement line a new subscriber receives first:
    /// carries the current sequence number, so the client knows which
    /// events precede its subscription.
    pub fn subscribe_ack(&self) -> String {
        ok_response(vec![
            ("subscribed".into(), Value::Bool(true)),
            ("seq".into(), Value::Num(self.subs.seq() as f64)),
        ])
    }

    fn shutdown(&self) -> String {
        match self.drain() {
            Ok(()) => ok_response(vec![("stopped".into(), Value::Bool(true))]),
            Err(e) => error_response(&format!("shutdown: {e}")),
        }
    }

    /// Closes the queue, joins the worker (which drains every accepted
    /// op and leaves the store persisted and fsynced), idempotently.
    ///
    /// # Errors
    ///
    /// Fails if the worker thread panicked.
    pub fn drain(&self) -> Result<(), ServeError> {
        let _span = separ_obs::span("serve.shutdown");
        self.queue.close();
        let handle = self.worker.lock().expect("worker lock").take();
        let joined = match handle {
            Some(handle) => handle
                .join()
                .map_err(|_| ServeError("analysis worker panicked".into())),
            None => Ok(()),
        };
        // Disconnect subscribers only after the join: the drained
        // batches' delta events are published by the worker on its way
        // out, and every subscriber is owed them.
        self.subs.close();
        joined
    }

    /// Whether the daemon has been shut down (drained and joined).
    pub fn is_stopped(&self) -> bool {
        self.worker.lock().expect("worker lock").is_none()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

/// One reading of the daemon that its views render from: the PDP's
/// counters are read once, so the numbers in one response agree with
/// each other.
pub(crate) struct Reading<'a> {
    daemon: &'a Daemon,
    decisions: PdpTotals,
}

fn num(n: impl Into<u64>) -> Value {
    Value::Num(n.into() as f64)
}

/// Every metric the daemon reports, each declared once: JSON key, the
/// views that carry it, Prometheus family, and reader. List order is
/// the Prometheus exposition order and the JSON field order.
static DAEMON_METRICS: &[Metric] = &[
    Metric {
        key: "ready",
        views: HEALTH,
        prom: JsonOnly,
        read: |r| Value::Bool(r.daemon.worker_live()),
    },
    Metric {
        key: "live",
        views: HEALTH,
        prom: JsonOnly,
        read: |r| Value::Bool(r.daemon.worker_live()),
    },
    Metric {
        key: "uptime_ms",
        views: STATS | METRICS | HEALTH,
        prom: Gauge("separ_uptime_seconds", "seconds since daemon start"),
        read: |r| num(r.daemon.metrics.uptime_ms()),
    },
    Metric {
        key: "queue_depth",
        views: STATS | METRICS | HEALTH,
        prom: Gauge("separ_queue_depth", "pending churn ops"),
        read: |r| num(r.daemon.queue.depth() as u64),
    },
    Metric {
        key: "subscribers",
        views: METRICS,
        prom: Gauge("separ_subscribers", "connected policy-delta subscribers"),
        read: |r| num(r.daemon.subs.count() as u64),
    },
    Metric {
        key: "last_batch_age_ms",
        views: METRICS | HEALTH,
        prom: Gauge(
            "separ_last_batch_age_seconds",
            "seconds since the last applied batch",
        ),
        read: |r| {
            r.daemon
                .metrics
                .last_batch_age_ms()
                .map_or(Value::Null, num)
        },
    },
    Metric {
        key: "seq",
        views: METRICS | HEALTH,
        prom: Counter("separ_policy_delta_seq", "policy-delta events published"),
        read: |r| num(r.daemon.subs.seq()),
    },
    Metric {
        key: "subscribers_dropped",
        views: METRICS,
        prom: Counter(
            "separ_subscribers_dropped_total",
            "subscribers dropped for lagging",
        ),
        read: |r| num(r.daemon.subs.dropped()),
    },
    Metric {
        key: "requests",
        views: STATS | METRICS,
        prom: Counter("separ_requests_total", "requests served"),
        read: |r| num(r.daemon.metrics.requests.load(Ordering::Relaxed)),
    },
    Metric {
        key: "failed",
        views: STATS | METRICS,
        prom: Counter(
            "separ_requests_failed_total",
            "requests answered with an error",
        ),
        read: |r| num(r.daemon.metrics.failed.load(Ordering::Relaxed)),
    },
    Metric {
        key: "slow_requests",
        views: METRICS,
        prom: Counter(
            "separ_slow_requests_total",
            "requests over the slow-log threshold",
        ),
        read: |r| num(r.daemon.metrics.slow_requests.load(Ordering::Relaxed)),
    },
    Metric {
        key: "audit_records",
        views: METRICS,
        prom: Counter("separ_audit_records_total", "audit records written"),
        read: |r| num(r.daemon.metrics.audit_records.load(Ordering::Relaxed)),
    },
    Metric {
        key: "batches",
        views: STATS | METRICS,
        prom: Counter("separ_batches_total", "analysis batches applied"),
        read: |r| num(r.daemon.metrics.batches.load(Ordering::Relaxed)),
    },
    Metric {
        key: "ops_coalesced",
        views: STATS | METRICS,
        prom: Counter("separ_ops_coalesced_total", "churn ops folded into batches"),
        read: |r| num(r.daemon.metrics.ops_coalesced.load(Ordering::Relaxed)),
    },
    Metric {
        key: "coalescing_factor",
        views: STATS | METRICS,
        prom: JsonOnly,
        read: |r| {
            let batches = r.daemon.metrics.batches.load(Ordering::Relaxed);
            let ops = r.daemon.metrics.ops_coalesced.load(Ordering::Relaxed);
            Value::Num(if batches == 0 {
                1.0
            } else {
                ops as f64 / batches as f64
            })
        },
    },
    Metric {
        key: "deadline_misses",
        views: STATS | METRICS,
        prom: Counter(
            "separ_deadline_misses_total",
            "confirmation waits that expired",
        ),
        read: |r| num(r.daemon.metrics.deadline_misses.load(Ordering::Relaxed)),
    },
    Metric {
        key: "backpressure_waits",
        views: METRICS,
        prom: Counter(
            "separ_backpressure_waits_total",
            "churn requests that waited on a full queue",
        ),
        read: |r| num(r.daemon.queue.backpressure_waits()),
    },
    Metric {
        key: "pdp/evaluations",
        views: METRICS,
        prom: Counter("separ_pdp_evaluations_total", "decisions evaluated"),
        read: |r| num(r.decisions.evaluations),
    },
    Metric {
        key: "pdp/index_hits",
        views: METRICS,
        prom: Counter(
            "separ_pdp_index_hits_total",
            "decisions whose receiver had a bucket in the receiver index",
        ),
        read: |r| num(r.decisions.index_hits),
    },
    Metric {
        key: "pdp/allowed",
        views: METRICS,
        prom: Counter(
            "separ_pdp_allowed_total",
            "decisions that allowed the operation",
        ),
        read: |r| num(r.decisions.allowed),
    },
    Metric {
        key: "pdp/denied",
        views: METRICS,
        prom: Counter(
            "separ_pdp_denied_total",
            "decisions that refused the operation",
        ),
        read: |r| num(r.decisions.denied),
    },
    Metric {
        key: "pdp/prompts",
        views: METRICS,
        prom: Counter(
            "separ_pdp_prompts_total",
            "decisions that prompted the user",
        ),
        read: |r| num(r.decisions.prompts),
    },
    Metric {
        key: "pdp/swaps",
        views: METRICS,
        prom: Counter("separ_pdp_swaps_total", "policy-set swaps published"),
        read: |r| num(r.decisions.swaps),
    },
    Metric {
        key: "pdp/policies",
        views: METRICS,
        prom: Gauge("separ_pdp_policies", "policies in the live set"),
        read: |r| num(r.decisions.policies as u64),
    },
];

/// Persists the session: its results first, so that the persist that
/// collects result files keeps the current ones.
fn save(store: &SessionStore, session: &IncrementalSession) -> Result<(), StoreError> {
    store.persist_results(session.results())?;
    store.persist(session.apps())
}

fn packages_of(session: &IncrementalSession) -> Vec<String> {
    session.apps().iter().map(|a| a.package.clone()).collect()
}

fn snapshot_of(session: &IncrementalSession) -> Published {
    Published {
        policies: session.shared_policies(),
        apps: packages_of(session),
        exploits: session.exploits().map(|e| e.to_string()).collect(),
        total_syntheses: session.total_syntheses(),
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut session: IncrementalSession,
    store: Option<SessionStore>,
    queue: Arc<ChurnQueue>,
    pdp: SharedPdp,
    published: Arc<Mutex<Published>>,
    metrics: Arc<ServeMetrics>,
    subs: Arc<Subscriptions>,
    batch_max: usize,
) {
    // Whether the store holds the session as it is now: true after boot
    // (`Daemon::start` persisted whatever differed) and after every
    // successful batch persist.
    let mut saved = true;
    while let Some((ops, tickets)) = queue.take_batch(batch_max) {
        let span = separ_obs::span("serve.apply_batch");
        let started = Instant::now();
        let outcome = match session.apply_batch(ops) {
            Ok(delta) => {
                metrics.batches.fetch_add(1, Ordering::Relaxed);
                metrics
                    .ops_coalesced
                    .fetch_add(delta.ops_coalesced as u64, Ordering::Relaxed);
                let summary = BatchSummary {
                    ops: delta.ops_coalesced,
                    added: delta.added.len(),
                    removed: delta.removed.len(),
                    signatures_rerun: delta.signatures_rerun,
                    policies: session.policies().len(),
                };
                // The subscription event needs the policy ids before
                // the merge consumes the delta; the sequence number
                // is claimed here, on the only thread that ever does,
                // so seq order IS batch order.
                let event = PolicyDeltaEvent::new(
                    subs.next_seq(),
                    &delta.added,
                    &delta.removed,
                    delta.apps_resliced,
                    delta.signatures_rerun,
                    delta.ops_coalesced,
                    session.policies().len(),
                );
                // Publish first (decisions go live), then persist (a
                // crash between the two replays the batch's effect from
                // the clients' perspective as already-analyzed state
                // that simply wasn't saved — re-sending is idempotent).
                // The live set keeps its ids across the merge; the bundle
                // that backs empty `SenderAppNotIn` lists is the session's
                // current one, so installed apps count as insiders.
                let mut live = pdp.snapshot().policies().to_vec();
                merge_delta(&mut live, delta.added, &delta.removed);
                pdp.publish(CompiledPolicySet::compile(live, packages_of(&session)));
                *published.lock().expect("published lock") = snapshot_of(&session);
                metrics.mark_batch();
                if let Some(slot) = kind_slot("batch") {
                    metrics.record(slot, started.elapsed().as_nanos() as u64);
                }
                let line: Arc<str> = Arc::from(event.to_line().as_str());
                subs.publish(&line);
                if let Some(store) = &store {
                    saved = match save(store, &session) {
                        Ok(()) => true,
                        Err(e) => {
                            eprintln!("separ serve: store persist failed: {e}");
                            false
                        }
                    };
                }
                BatchOutcome::Done(Arc::new(summary))
            }
            Err(e) => {
                // A failed pass may have left the session's models ahead
                // of the store.
                saved = false;
                BatchOutcome::Failed(Arc::from(e.to_string().as_str()))
            }
        };
        // Close the batch span before any reply goes out, so a client
        // holding its reply sees its batch fully traced.
        drop(span);
        fulfill_batch(&tickets, &outcome);
    }
    // Queue closed and drained: make the final state durable, writing it
    // first only if a persist failed since boot.
    if let Some(store) = &store {
        let persisted = if saved { Ok(()) } else { save(store, &session) };
        if let Err(e) = persisted.and_then(|()| store.sync()) {
            eprintln!("separ serve: final store sync failed: {e}");
        }
    }
}
