//! **separ-obs** — workspace-wide structured tracing, metrics and trace
//! export for the SEPAR reproduction.
//!
//! The paper's headline claims are throughput claims (per-phase costs for
//! extraction, synthesis and enforcement across thousands of apps), so
//! every layer of the pipeline needs one shared answer to "where did the
//! time go". This crate provides it:
//!
//! * a thread-safe [`Collector`] with hierarchical **spans** (RAII
//!   guards, monotonic timestamps, thread ids), structured **events**
//!   (key/value payloads attached to the active span) and fixed-bucket
//!   latency [`Histogram`]s. It holds no counters: every count has one
//!   owner outside the collector (the PDP's totals, the device's hook
//!   stats, the daemon's metric registry), which counts whether or not
//!   tracing is on;
//! * three exporters in [`export`]: Chrome trace-event JSON (loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)), a JSONL
//!   event log, and a human-readable text summary with per-span
//!   self/total time; the [`prometheus`] writer renders `separ serve`'s
//!   text exposition;
//! * rolling-window [`RollingHistogram`]s in [`live`] for long-running
//!   services (windowed p50/p90/p99 that never stop recorders) —
//!   `separ serve` builds its per-request latency windows from these;
//! * the workspace's one JSON codec, [`json`]: the string escaper every
//!   JSON writer uses and the [`json::Value`] tree that policy I/O and
//!   the serve protocol read and write through.
//!
//! A process-global collector ([`global`]) backs the free-function API
//! ([`span`], [`event`], [`timer`]/[`observe`]). It
//! starts **disabled**: every instrumentation call first checks one
//! atomic flag and returns immediately, so the probes are cheap enough
//! to stay compiled into release binaries (the bench crate pins the
//! disabled overhead at well under 2% of the 50-app pipeline workload).
//!
//! Spans compose across the scoped-thread fan-out of the pipeline
//! executor: the spawning thread captures [`current_span`] and each
//! worker adopts it with [`adopt_span`], so worker-side spans parent
//! under the stage span that forked them.
//!
//! Export is deterministic: exporters renumber span ids and order
//! siblings canonically (by name, args and subtree content), so two runs
//! of the same workload — at any thread count — produce byte-identical
//! output once timestamps and thread ids are stripped
//! ([`export::strip_timing`]).
#![warn(missing_docs)]

mod collector;
pub mod export;
pub mod json;
pub mod live;
mod metrics;
pub mod prometheus;

use std::sync::OnceLock;

pub use collector::{AdoptGuard, Collector, EventRecord, ObsTimer, SpanGuard, SpanId, SpanRecord};
pub use export::Trace;
pub use live::{RollingHistogram, ROLLING_WINDOWS};
pub use metrics::{Histogram, HistogramSnapshot, LATENCY_BOUNDS_NS};

/// The process-global collector backing the free-function API.
///
/// Starts disabled; enable it with [`Collector::enable`] (the `separ`
/// CLI does so for `analyze`, `enforce` and `demo`).
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new_disabled)
}

/// Whether the global collector is recording. Check this before building
/// an expensive payload for [`event`].
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Opens a span on the global collector (no-op while disabled). The span
/// closes — and is recorded — when the returned guard drops, including
/// during panic unwinding.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// The innermost open span on this thread (global collector), or the
/// adopted parent for worker threads. [`SpanId::NONE`] when disabled or
/// outside any span.
pub fn current_span() -> SpanId {
    global().current_span()
}

/// Adopts `parent` as this thread's base span (global collector) until
/// the returned guard drops. Worker threads call this with the span the
/// spawning thread captured via [`current_span`], so fanned-out work
/// parents under the stage that forked it.
pub fn adopt_span(parent: SpanId) -> AdoptGuard<'static> {
    global().adopt(parent)
}

/// Records a structured event on the innermost open span of this thread
/// (global collector). No-op while disabled — guard expensive payload
/// construction with [`enabled`].
pub fn event(name: &'static str, args: Vec<(&'static str, String)>) {
    global().event(name, args);
}

/// Starts a latency timer against the global collector. Returns an inert
/// timer while disabled (no clock read).
pub fn timer() -> ObsTimer {
    global().timer()
}

/// Records the elapsed time of `t` into the named latency histogram of
/// the global collector (no-op for inert timers).
pub fn observe(name: &'static str, t: ObsTimer) {
    global().observe(name, t);
}
