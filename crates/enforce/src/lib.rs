//! **separ-enforce** — the Android Policy Enforcer (APE).
//!
//! The paper enforces synthesized policies through Xposed: every ICC API
//! is hooked, the hook asks a policy decision point (PDP) whether the
//! operation may proceed, and refused operations are skipped — the app
//! continues in degraded mode. This crate reproduces that architecture on
//! a simulated device:
//!
//! * [`runtime`] — installed apps execute real sdex bytecode on the
//!   interpreter; the syscall layer models the ICC bus with Android's
//!   resolution rules and plants the enforcement points exactly where the
//!   paper's hooks sit (every ICC call and every delivery);
//! * [`pdp`] — ECA policy evaluation with pluggable user prompts;
//! * [`compiled`] — the indexed, lock-free-readable compiled form of an
//!   installed policy set that the production [`pdp::Pdp`] runs on;
//! * [`tag`] — in-band payload tagging so conditions like
//!   `Intent.extra: LOCATION` are checkable at interception time;
//! * [`audit`] — the device audit log tests and benchmarks assert on.
//!
//! The hook counters in [`runtime::HookStats`] drive the RQ4 overhead
//! experiment.
#![warn(missing_docs)]

pub mod audit;
pub mod compiled;
pub mod pdp;
pub mod runtime;
pub mod tag;

pub use audit::{AuditEvent, AuditLog, AUDIT_CAPACITY};
pub use compiled::{probe_contexts, CompiledPolicySet, PdpReader, PdpTotals, SharedPdp};
pub use pdp::{Decision, IccContext, LinearPdp, Pdp, PromptHandler};
pub use runtime::{Device, Envelope, HookStats};
