//! Verification diagnostics and quarantine — the graceful-degradation
//! pre-pass of the AME.
//!
//! The paper's extractor inherits Dalvik's bytecode-verifier guarantees;
//! here [`lint_apk`] runs the sdex verifier ([`separ_dex::verify`]) plus
//! manifest↔class cross-checks before any abstract interpretation:
//!
//! * every declared component resolves to a class in the dex;
//! * exported components define (or inherit) a lifecycle entry point;
//! * intent filters declare at least one action, and providers declare no
//!   filters at all;
//! * no component class is declared twice.
//!
//! Findings become [`Diagnostic`]s attached to the extracted
//! [`AppModel`](crate::model::AppModel). Error-severity bytecode defects
//! quarantine their scope: [`Lint::sanitized_apk`] produces a copy of the
//! package with poisoned method bodies emptied and structurally broken
//! classes removed, so the abstract interpreter only ever sees well-formed
//! code and malformed input degrades to *less information*, never to
//! garbage facts.

use std::collections::BTreeSet;

use separ_android::api;
use separ_dex::manifest::ComponentKind;
use separ_dex::program::{Apk, Class, Dex};
use separ_dex::verify::{self, DefectScope};

pub use separ_dex::verify::Severity;

/// The diagnostic classes: bytecode defects plus manifest cross-checks.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DiagnosticKind {
    /// A register index outside the declared frame.
    RegisterBounds,
    /// A register read before any assignment on some path.
    UseBeforeDef,
    /// A `move-result` without a directly preceding value-returning invoke.
    MoveResultPairing,
    /// A branch target outside the method body, or control running off it.
    BranchTarget,
    /// A string/type/field/method id outside its pool.
    PoolIndex,
    /// Instructions unreachable from the method entry.
    UnreachableCode,
    /// A superclass chain that never terminates.
    SuperclassCycle,
    /// Two classes sharing one type descriptor.
    DuplicateClass,
    /// A declared component with no implementing class in the dex.
    UnresolvedComponent,
    /// An exported component without any lifecycle entry point.
    MissingEntryPoint,
    /// An intent filter declaring no actions (matches nothing implicit).
    FilterWithoutAction,
    /// A content provider declaring intent filters.
    ProviderWithFilter,
    /// A component class declared more than once in the manifest.
    DuplicateComponent,
    /// A package that failed to decode at all.
    DecodeFailure,
    /// A component whose capability summary matches no signature
    /// footprint: relevance slicing excludes it from every synthesis
    /// universe.
    ComponentUnreachable,
}

impl DiagnosticKind {
    /// Stable kebab-case tag for display and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticKind::RegisterBounds => "register-bounds",
            DiagnosticKind::UseBeforeDef => "use-before-def",
            DiagnosticKind::MoveResultPairing => "move-result-pairing",
            DiagnosticKind::BranchTarget => "branch-target",
            DiagnosticKind::PoolIndex => "pool-index",
            DiagnosticKind::UnreachableCode => "unreachable-code",
            DiagnosticKind::SuperclassCycle => "superclass-cycle",
            DiagnosticKind::DuplicateClass => "duplicate-class",
            DiagnosticKind::UnresolvedComponent => "unresolved-component",
            DiagnosticKind::MissingEntryPoint => "missing-entry-point",
            DiagnosticKind::FilterWithoutAction => "filter-without-action",
            DiagnosticKind::ProviderWithFilter => "provider-with-filter",
            DiagnosticKind::DuplicateComponent => "duplicate-component",
            DiagnosticKind::DecodeFailure => "decode-failure",
            DiagnosticKind::ComponentUnreachable => "component-unreachable",
        }
    }
}

impl From<verify::DefectKind> for DiagnosticKind {
    fn from(kind: verify::DefectKind) -> DiagnosticKind {
        match kind {
            verify::DefectKind::RegisterBounds => DiagnosticKind::RegisterBounds,
            verify::DefectKind::UseBeforeDef => DiagnosticKind::UseBeforeDef,
            verify::DefectKind::MoveResultPairing => DiagnosticKind::MoveResultPairing,
            verify::DefectKind::BranchTarget => DiagnosticKind::BranchTarget,
            verify::DefectKind::PoolIndex => DiagnosticKind::PoolIndex,
            verify::DefectKind::UnreachableCode => DiagnosticKind::UnreachableCode,
            verify::DefectKind::SuperclassCycle => DiagnosticKind::SuperclassCycle,
            verify::DefectKind::DuplicateClass => DiagnosticKind::DuplicateClass,
        }
    }
}

/// One structured finding, attributed to an app and a location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Package name (or file path for decode failures).
    pub app: String,
    /// Where in the app: `LClass;->method@pc`, `manifest:LClass;`, or a
    /// file path.
    pub location: String,
    /// The diagnostic class.
    pub kind: DiagnosticKind,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {} {}: {}",
            self.severity,
            self.kind.as_str(),
            self.app,
            self.location,
            self.message
        )
    }
}

/// A decode failure rendered as a diagnostic, so `separ lint` can report
/// per-file problems without aborting the run.
pub fn decode_failure(path: &str, error: &separ_dex::DexError) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        app: path.to_string(),
        location: "container".to_string(),
        kind: DiagnosticKind::DecodeFailure,
        message: error.to_string(),
    }
}

/// The result of linting one package: diagnostics plus quarantine sets.
#[derive(Clone, Debug, Default)]
pub struct Lint {
    /// All findings, in deterministic order (manifest checks first, then
    /// bytecode defects grouped by class/method/pc).
    pub diagnostics: Vec<Diagnostic>,
    /// How many method bodies Error-severity defects poison (directly or
    /// via their class).
    pub quarantined_methods: usize,
    /// `(class_idx, method_idx)` of methods with Error-severity body
    /// defects.
    method_quarantine: BTreeSet<(usize, usize)>,
    /// Classes whose structure cannot be trusted.
    class_quarantine: BTreeSet<usize>,
}

impl Lint {
    /// Returns `true` if any finding is Error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Returns `true` if some scope must be quarantined before analysis.
    pub fn needs_quarantine(&self) -> bool {
        !self.method_quarantine.is_empty() || !self.class_quarantine.is_empty()
    }

    /// A copy of the package safe for analysis: quarantined method bodies
    /// are emptied and structurally broken classes removed, so downstream
    /// passes see strictly less information instead of malformed input.
    /// Returns `None` when nothing needs quarantining.
    pub fn sanitized_apk(&self, apk: &Apk) -> Option<Apk> {
        if !self.needs_quarantine() {
            return None;
        }
        let mut apk = apk.clone();
        for &(ci, mi) in &self.method_quarantine {
            if !self.class_quarantine.contains(&ci) {
                apk.dex.classes[ci].methods[mi].code.clear();
            }
        }
        for &ci in self.class_quarantine.iter().rev() {
            apk.dex.classes.remove(ci);
        }
        Some(apk)
    }
}

/// Lints one decoded package: manifest↔class cross-checks plus the sdex
/// bytecode verifier, with Error-severity defects recorded for quarantine.
pub fn lint_apk(apk: &Apk) -> Lint {
    let mut span = separ_obs::span("ame.lint");
    span.set_arg("app", apk.manifest.package.clone());
    let app = apk.manifest.package.clone();
    let mut lint = Lint::default();
    lint_manifest(apk, &app, &mut lint.diagnostics);
    for defect in verify::verify_dex(&apk.dex) {
        if defect.severity() == Severity::Error {
            match defect.scope {
                DefectScope::Class => {
                    lint.class_quarantine.insert(defect.class_idx);
                }
                DefectScope::Method => {
                    if let Some(mi) = defect.method_idx {
                        lint.method_quarantine.insert((defect.class_idx, mi));
                    }
                }
            }
        }
        lint.diagnostics.push(Diagnostic {
            severity: defect.severity(),
            app: app.clone(),
            location: defect.location(),
            kind: defect.kind.into(),
            message: defect.message,
        });
    }
    lint.quarantined_methods = lint
        .class_quarantine
        .iter()
        .map(|&ci| apk.dex.classes[ci].methods.len())
        .sum::<usize>()
        + lint
            .method_quarantine
            .iter()
            .filter(|(ci, _)| !lint.class_quarantine.contains(ci))
            .count();
    lint
}

fn lint_manifest(apk: &Apk, app: &str, out: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for decl in &apk.manifest.components {
        let location = format!("manifest:{}", decl.class);
        let warn = |kind: DiagnosticKind, message: String| Diagnostic {
            severity: Severity::Warning,
            app: app.to_string(),
            location: location.clone(),
            kind,
            message,
        };
        if !seen.insert(&decl.class) {
            out.push(warn(
                DiagnosticKind::DuplicateComponent,
                format!("component {} is declared more than once", decl.class),
            ));
        }
        match apk.dex.class_by_name(&decl.class) {
            None => out.push(warn(
                DiagnosticKind::UnresolvedComponent,
                format!(
                    "declared {} {} has no implementing class",
                    decl.kind, decl.class
                ),
            )),
            Some(class) => {
                if decl.is_effectively_exported() && !has_entry_point(&apk.dex, class, decl.kind) {
                    out.push(warn(
                        DiagnosticKind::MissingEntryPoint,
                        format!(
                            "exported {} {} defines no lifecycle entry point ({})",
                            decl.kind,
                            decl.class,
                            api::entry_points(decl.kind).join(", ")
                        ),
                    ));
                }
            }
        }
        for (fi, filter) in decl.intent_filters.iter().enumerate() {
            if filter.actions.is_empty() {
                out.push(warn(
                    DiagnosticKind::FilterWithoutAction,
                    format!("intent filter #{fi} declares no actions and matches nothing"),
                ));
            }
        }
        if decl.kind == ComponentKind::Provider && !decl.intent_filters.is_empty() {
            out.push(warn(
                DiagnosticKind::ProviderWithFilter,
                "content providers may not declare intent filters".to_string(),
            ));
        }
    }
}

/// Info-severity findings for components no signature footprint can ever
/// match: their capability summary ([`crate::slicing`]) sets no bit, so
/// every relevance slice excludes them and no shipped signature can bind
/// them. Deliberately not part of [`lint_apk`] — that pass checks
/// well-formedness of the package, while this one reads the *extracted
/// model*; `separ lint` runs both.
pub fn unreachable_components(app: &crate::model::AppModel) -> Vec<Diagnostic> {
    let summary = crate::slicing::summarize_app(app);
    (summary.components.iter().zip(&app.components))
        .filter(|(summary, _)| !summary.caps.any())
        .map(|(_, c)| Diagnostic {
            severity: Severity::Info,
            app: app.package.clone(),
            location: format!("manifest:{}", c.class),
            kind: DiagnosticKind::ComponentUnreachable,
            message: format!(
                "component {} matches no signature footprint (no exported ICC \
                 surface, unguarded dangerous permission, tainted send or sink \
                 path): relevance slicing excludes it from every synthesis",
                c.class
            ),
        })
        .collect()
}

/// Whether the class (or a superclass, walked with a cycle bound) defines
/// any lifecycle entry point for the component kind. Only pool-valid method
/// names are consulted, so this is safe on unverified input.
fn has_entry_point(dex: &Dex, class: &Class, kind: ComponentKind) -> bool {
    let entry_points = api::entry_points(kind);
    let mut current = Some(class);
    let mut hops = 0usize;
    while let Some(c) = current {
        if hops > dex.classes.len() {
            return false;
        }
        hops += 1;
        for m in &c.methods {
            if m.name.index() < dex.pools.num_strings()
                && entry_points.contains(&dex.pools.str_at(m.name))
            {
                return true;
            }
        }
        current = c.super_ty.and_then(|t| dex.class(t));
    }
    false
}

/// Renders diagnostics as a JSON array (machine-readable `separ lint
/// --json` output).
pub fn to_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"severity\": \"");
        out.push_str(d.severity.as_str());
        out.push_str("\", \"app\": \"");
        separ_obs::json::escape_into(&d.app, &mut out);
        out.push_str("\", \"location\": \"");
        separ_obs::json::escape_into(&d.location, &mut out);
        out.push_str("\", \"kind\": \"");
        out.push_str(d.kind.as_str());
        out.push_str("\", \"message\": \"");
        separ_obs::json::escape_into(&d.message, &mut out);
        out.push_str("\"}");
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_dex::build::ApkBuilder;
    use separ_dex::manifest::{ComponentDecl, IntentFilterDecl};

    fn empty_app(package: &str) -> Apk {
        ApkBuilder::new(package).finish()
    }

    #[test]
    fn clean_app_lints_clean() {
        let mut b = ApkBuilder::new("com.clean");
        b.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
        let mut cb = b.class("LMain;");
        let mut m = cb.method("onCreate", 1, false, false);
        m.ret_void();
        m.finish();
        cb.finish();
        let lint = lint_apk(&b.finish());
        assert!(lint.diagnostics.is_empty(), "{:?}", lint.diagnostics);
        assert!(!lint.needs_quarantine());
        assert!(lint.sanitized_apk(&empty_app("x")).is_none());
    }

    #[test]
    fn unresolved_component_is_flagged() {
        let mut b = ApkBuilder::new("com.ghost");
        b.add_component(ComponentDecl::new("LGhost;", ComponentKind::Service));
        let lint = lint_apk(&b.finish());
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(
            lint.diagnostics[0].kind,
            DiagnosticKind::UnresolvedComponent
        );
        assert_eq!(lint.diagnostics[0].severity, Severity::Warning);
        assert_eq!(lint.diagnostics[0].location, "manifest:LGhost;");
    }

    #[test]
    fn json_escapes_and_renders() {
        let d = Diagnostic {
            severity: Severity::Error,
            app: "a\"b".into(),
            location: "L;->m@0".into(),
            kind: DiagnosticKind::PoolIndex,
            message: "line\nbreak".into(),
        };
        let json = to_json(&[d]);
        assert!(json.contains("\\\"b"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"kind\": \"pool-index\""));
        assert_eq!(to_json(&[]), "[]\n");
    }

    #[test]
    fn unreachable_components_are_info_findings() {
        let mut b = ApkBuilder::new("com.idle");
        b.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
        let mut cb = b.class("LMain;");
        let mut m = cb.method("onCreate", 1, false, false);
        m.ret_void();
        m.finish();
        cb.finish();
        let model = crate::extractor::extract_apk(&b.finish());
        let found = unreachable_components(&model);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, DiagnosticKind::ComponentUnreachable);
        assert_eq!(found[0].severity, Severity::Info);
        assert_eq!(found[0].location, "manifest:LMain;");
    }

    #[test]
    fn provider_and_filter_sanity() {
        let mut b = ApkBuilder::new("com.filters");
        let mut prov = ComponentDecl::new("LProv;", ComponentKind::Provider);
        prov.intent_filters
            .push(IntentFilterDecl::for_actions(["a"]));
        b.add_component(prov);
        let mut act = ComponentDecl::new("LAct;", ComponentKind::Activity);
        act.intent_filters.push(IntentFilterDecl::default());
        b.add_component(act);
        let lint = lint_apk(&b.finish());
        let kinds: Vec<_> = lint.diagnostics.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DiagnosticKind::ProviderWithFilter));
        assert!(kinds.contains(&DiagnosticKind::FilterWithoutAction));
    }
}
