//! **separ-analysis** — the Android Model Extractor (AME).
//!
//! The paper's AME sits on Soot/FlowDroid; this crate rebuilds the needed
//! analyses from scratch over the sdex substrate:
//!
//! * [`cfg`](mod@cfg) — per-method control-flow graphs with reachability;
//! * [`callgraph`] — class-hierarchy call graphs with manifest-derived
//!   lifecycle entry points;
//! * [`absint`] — the combined abstract interpreter: constant string/int
//!   propagation, abstract Intent objects, and flow-, field- and
//!   context-sensitive taint analysis (path-insensitive, like the paper);
//! * [`model`] — the extracted app specifications (the analog of the
//!   generated Alloy modules) and Algorithm 1 for passive Intents;
//! * [`extractor`] — the top-level APK-bytes → [`model::AppModel`]
//!   pipeline;
//! * [`slicing`] — per-app capability summaries and signature-footprint
//!   slice selection, the sound pre-analysis that shrinks the relational
//!   universe before synthesis.
//!
//! # Examples
//!
//! ```
//! use separ_analysis::extractor::extract_apk;
//! use separ_dex::build::ApkBuilder;
//! use separ_dex::manifest::{ComponentDecl, ComponentKind};
//!
//! let mut builder = ApkBuilder::new("com.example");
//! builder.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
//! let mut class = builder.class_extends("LMain;", "Landroid/app/Activity;");
//! let mut m = class.method("onCreate", 1, false, false);
//! m.ret_void();
//! m.finish();
//! class.finish();
//! let model = extract_apk(&builder.finish());
//! assert_eq!(model.components.len(), 1);
//! ```
#![warn(missing_docs)]

pub mod absint;
pub mod alias;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod diagnostics;
mod domain;
pub mod extractor;
mod index;
pub mod model;
pub mod slicing;

pub use diagnostics::{Diagnostic, DiagnosticKind, Severity};
pub use extractor::{extract, extract_apk};
pub use model::{AppModel, ComponentModel, SentIntentModel};
pub use slicing::{AppSummary, SliceDemand};
