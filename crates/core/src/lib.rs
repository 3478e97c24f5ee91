//! **separ-core** — the SEPAR analysis-and-synthesis engine (ASE).
//!
//! This crate is the paper's primary contribution: given a bundle of
//! extracted app models, it composes them with the Android framework
//! meta-model into a relational-logic problem ([`encode`]), synthesizes
//! concrete exploit scenarios by solving each vulnerability signature
//! ([`vulns`], [`signature`]) with Aluminum-style minimal-model
//! enumeration, and derives enforceable event-condition-action policies
//! from every scenario ([`policy`]). The [`pipeline`] module ties it all
//! together behind the [`Separ`] façade, and [`store`] persists a
//! bundle's models and synthesis results across runs.
//!
//! The flow mirrors the paper's Figure 3: `M |= S_f ∧ S_a ∧ P` — the
//! framework spec, the app specs and the vulnerability property are
//! conjoined, and each satisfying (minimal) model *is* an exploit.
#![warn(missing_docs)]

pub mod alloy_export;
pub mod encode;
pub mod exec;
pub mod exploit;
pub mod footprint;
pub mod incremental;
pub mod pipeline;
pub mod policy;
pub mod policy_io;
pub mod reuse;
pub mod signature;
pub mod spec;
pub mod store;
pub mod vulns;

pub use encode::BundleBase;
pub use exec::Executor;
pub use exploit::{Exploit, VulnKind};
pub use footprint::{Footprint, MalReceivers, SignatureFootprint};
pub use incremental::{IncrementalSession, PolicyDelta, SessionOp};
pub use pipeline::{
    AnalyzeError, BundleStats, CountStats, Report, Separ, SeparConfig, SignatureStats,
};
pub use policy::{Condition, Policy, PolicyAction, PolicyEvent};
pub use reuse::{ResultKey, SYNTHESIS_FORMAT};
pub use signature::{SignatureRegistry, Synthesis, SynthesisContext, VulnerabilitySignature};
pub use spec::TextualSignature;
pub use store::{Restored, SessionStore, StoreError};
