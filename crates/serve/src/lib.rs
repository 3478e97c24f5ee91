//! **separ-serve** — the continuous analysis service.
//!
//! The paper's concluding remarks call for incremental re-analysis "on
//! permission-modified apps at runtime"; this crate turns that from a
//! library (`separ_core::IncrementalSession`) into a *service*: a
//! long-running daemon that watches a device's churn (installs, updates,
//! uninstalls, permission toggles) over a socket, folds bursts of it
//! into single incremental re-analysis passes, atomically publishes
//! every policy delta into a lock-free decision engine, and persists
//! enough state to recover its session after a restart without
//! re-extracting a single package.
//!
//! Layering (each module documents its own contract):
//!
//! * [`protocol`] — the line-delimited JSON request/response grammar;
//! * [`queue`] — bounded churn queue: backpressure, deadlines, and the
//!   close-then-drain shutdown contract;
//! * [`store`] — crash-consistent session persistence (one model pack
//!   per bundle + atomically replaced manifest);
//! * [`daemon`] — the coalescing analysis worker wiring session, store
//!   and [`SharedPdp`](separ_enforce::SharedPdp) together;
//!   [`Daemon::handle`] is the whole service as a function from request
//!   line to response line;
//! * [`server`] — unix-socket / TCP accept loop over [`Daemon::handle`].
//!
//! Operational telemetry rides on the same wire: [`metrics`] keeps
//! per-request-type rolling latency windows and renders the `metrics`
//! response (JSON or Prometheus exposition), [`audit`] appends a
//! size-rotated JSONL record per decide and bundle mutation, and
//! [`subscribe`] pushes one ordered `policy_delta` event per applied
//! batch to every connected subscriber.

#![warn(missing_docs)]

pub mod audit;
pub mod daemon;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod store;
pub mod subscribe;

pub use audit::{AuditRecord, AuditWriter};
pub use daemon::{Daemon, ServeConfig, ServeError};
pub use metrics::{kind_slot, ServeMetrics, REQUEST_KINDS};
pub use protocol::{QueryWhat, Request};
pub use queue::{BatchOutcome, BatchSummary, ChurnQueue, PushError, Ticket};
pub use server::{serve, Endpoint};
pub use store::{Restored, SessionStore, StoreError};
pub use subscribe::{PolicyDeltaEvent, Subscription, Subscriptions};
