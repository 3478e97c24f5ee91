//! Extracted app specifications — the output of AME.
//!
//! These are the architectural models the paper renders as per-app Alloy
//! modules (Listing 4): components with their filters, permissions,
//! sensitive data-flow paths, and the Intents they send.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use separ_android::api::IccMethod;
use separ_android::types::{FlowPath, Resource};
use separ_dex::manifest::{ComponentKind, IntentFilterDecl};

/// An Intent entity extracted from code (one per disambiguated value
/// combination, as the paper prescribes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SentIntentModel {
    /// The ICC API it is sent through.
    pub via: IccMethod,
    /// The action, if statically known.
    pub action: Option<String>,
    /// Categories attached.
    pub categories: BTreeSet<String>,
    /// MIME type, if any.
    pub data_type: Option<String>,
    /// Data scheme, if any.
    pub data_scheme: Option<String>,
    /// Explicit receiver class, if the intent is explicit.
    pub explicit_target: Option<String>,
    /// Keys of attached extras.
    pub extra_keys: BTreeSet<String>,
    /// Sensitive resources flowing into the extras.
    pub extra_taints: BTreeSet<Resource>,
    /// Whether the sender awaits a result (`startActivityForResult`,
    /// `bindService`).
    pub requests_result: bool,
    /// Whether this is a passive (reply) intent from `setResult`.
    pub is_passive: bool,
    /// For passive intents: target components recovered by Algorithm 1.
    pub resolved_targets: BTreeSet<String>,
}

impl SentIntentModel {
    /// Returns `true` if the intent is implicit (no explicit target).
    pub fn is_implicit(&self) -> bool {
        self.explicit_target.is_none()
    }

    /// Returns `true` if another app can intercept the intent by declaring
    /// a matching filter: an implicit, non-passive activity, service
    /// start or broadcast (the encoding's `hijackable` relation).
    pub fn is_hijackable(&self) -> bool {
        self.is_implicit()
            && !self.is_passive
            && matches!(
                self.via,
                IccMethod::StartActivity
                    | IccMethod::StartActivityForResult
                    | IccMethod::StartService
                    | IccMethod::SendBroadcast
            )
    }

    /// View of this intent as resolution-ready [`IntentData`].
    ///
    /// [`IntentData`]: separ_android::resolution::IntentData
    pub fn as_intent_data(&self) -> separ_android::resolution::IntentData {
        let shared = |s: &String| Arc::<str>::from(s.as_str());
        // Statically, an extra's value is unknown: every key maps to one
        // shared empty string.
        let unknown: Arc<str> = Arc::from("");
        separ_android::resolution::IntentData {
            action: self.action.as_ref().map(shared),
            categories: self.categories.iter().map(shared).collect(),
            data_type: self.data_type.as_ref().map(shared),
            data_scheme: self.data_scheme.as_ref().map(shared),
            explicit_target: self.explicit_target.as_ref().map(shared),
            extras: (self.extra_keys.iter())
                .map(|k| (shared(k), Arc::clone(&unknown)))
                .collect(),
        }
    }
}

/// The extracted model of one component.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentModel {
    /// Implementing class descriptor.
    pub class: String,
    /// Component kind.
    pub kind: ComponentKind,
    /// Effective export status (explicit flag or filter-implied).
    pub exported: bool,
    /// Statically declared intent filters (dynamic registration is not
    /// modelled — a documented limitation shared with the paper's tool).
    pub filters: Vec<IntentFilterDecl>,
    /// Manifest-enforced access permission.
    pub enforced_permission: Option<String>,
    /// Permissions checked dynamically on some reachable code path.
    pub dynamic_checks: BTreeSet<String>,
    /// Sensitive data-flow paths through this component.
    pub paths: BTreeSet<FlowPath>,
    /// Intents this component sends.
    pub sent_intents: Vec<SentIntentModel>,
    /// Permissions exercised by reachable API calls (transitive tagging).
    pub used_permissions: BTreeSet<String>,
    /// Whether the component registers receivers dynamically (observed so
    /// the limitation is explicit in reports).
    pub registers_dynamically: bool,
}

/// Resolution sees what AME modelled: the effective export status and
/// the static filters, plus the runtime filters and export the
/// dynamic-receiver profile attaches.
impl separ_android::resolution::ComponentView for ComponentModel {
    fn kind(&self) -> ComponentKind {
        self.kind
    }

    fn class(&self) -> &str {
        &self.class
    }

    fn is_exported(&self) -> bool {
        self.exported
    }

    fn filters(&self) -> &[IntentFilterDecl] {
        &self.filters
    }
}

impl ComponentModel {
    /// Returns `true` if the component's exported surface is guarded by
    /// neither a manifest permission nor a reachable dynamic check of
    /// `permission`.
    pub fn is_unguarded_for(&self, permission: &str) -> bool {
        self.enforced_permission.as_deref() != Some(permission)
            && !self.dynamic_checks.contains(permission)
    }

    /// Paths that start at an ICC source (data arriving via Intent).
    pub fn icc_entry_paths(&self) -> impl Iterator<Item = &FlowPath> + '_ {
        self.paths.iter().filter(|p| p.source == Resource::Icc)
    }

    /// Paths that end at an ICC sink (data leaving via Intent).
    pub fn icc_exit_paths(&self) -> impl Iterator<Item = &FlowPath> + '_ {
        self.paths.iter().filter(|p| p.sink == Resource::Icc)
    }
}

/// Extraction statistics for one app. Like the rest of the model they are
/// a function of the package alone: callers that want wall time (Figure
/// 5) time the extraction themselves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExtractionStats {
    /// App size metric (instructions + declarations).
    pub app_size: usize,
    /// Instructions abstractly interpreted.
    pub instructions_visited: u64,
    /// Method bodies the verifier quarantined (skipped, never analyzed).
    pub quarantined_methods: usize,
}

/// The extracted model of one app — the unit the ASE composes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AppModel {
    /// Package name.
    pub package: String,
    /// Component models.
    pub components: Vec<ComponentModel>,
    /// Install-time permissions the app holds.
    pub uses_permissions: BTreeSet<String>,
    /// Custom permissions the app defines.
    pub defines_permissions: BTreeSet<String>,
    /// Verification findings from the pre-analysis lint pass.
    pub diagnostics: Vec<crate::diagnostics::Diagnostic>,
    /// Extraction statistics.
    pub stats: ExtractionStats,
}

impl AppModel {
    /// Finds a component by class descriptor.
    pub fn component(&self, class: &str) -> Option<&ComponentModel> {
        self.components.iter().find(|c| c.class == class)
    }

    /// Total number of sent-intent entities across components.
    pub fn num_intents(&self) -> usize {
        self.components.iter().map(|c| c.sent_intents.len()).sum()
    }

    /// Total number of declared intent filters across components.
    pub fn num_filters(&self) -> usize {
        self.components.iter().map(|c| c.filters.len()).sum()
    }

    /// Returns `true` if the verifier found Error-severity defects (some
    /// code was quarantined or structurally untrustworthy).
    pub fn has_error_diagnostics(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == crate::diagnostics::Severity::Error)
    }
}

/// Updates passive-intent targets across a set of app models — the paper's
/// Algorithm 1 ("Update Passive Intent Target").
///
/// For each passive intent `p`, find intents `i` that request results and
/// whose (explicit) target matches `p`'s sender component; add `i`'s sender
/// to `p`'s resolved targets.
///
/// The pass is a pure function of the current bundle: resolved targets
/// are recomputed from scratch on every call (extraction always leaves
/// them empty), so re-resolving after an app is updated or removed sheds
/// targets the departed version contributed. Long-lived sessions
/// (`IncrementalSession`, `separ serve`) depend on this idempotence.
pub fn update_passive_intent_targets(apps: &mut [AppModel]) {
    retarget_passive_intents(apps);
}

/// [`update_passive_intent_targets`], reporting which apps it changed: the
/// indices (ascending) of the apps in which some passive intent's resolved
/// targets differ from what they were before the call. A bundle whose
/// models were saved after an earlier resolution of the same bundle
/// reports none.
pub fn retarget_passive_intents(apps: &mut [AppModel]) -> Vec<usize> {
    // Requested target class -> the classes requesting a result from it.
    let mut requesters: HashMap<String, BTreeSet<String>> = HashMap::new();
    for app in apps.iter() {
        for c in &app.components {
            for i in &c.sent_intents {
                if i.requests_result {
                    if let Some(t) = &i.explicit_target {
                        requesters
                            .entry(t.clone())
                            .or_default()
                            .insert(c.class.clone());
                    }
                }
            }
        }
    }
    let none = BTreeSet::new();
    let mut changed = Vec::new();
    for (index, app) in apps.iter_mut().enumerate() {
        let mut app_changed = false;
        for c in &mut app.components {
            let targets = requesters.get(&c.class).unwrap_or(&none);
            for p in &mut c.sent_intents {
                if p.is_passive && p.resolved_targets != *targets {
                    p.resolved_targets.clone_from(targets);
                    app_changed = true;
                }
            }
        }
        if app_changed {
            changed.push(index);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intent(passive: bool, requests: bool, target: Option<&str>) -> SentIntentModel {
        SentIntentModel {
            via: if passive {
                IccMethod::SetResult
            } else {
                IccMethod::StartActivityForResult
            },
            action: None,
            categories: BTreeSet::new(),
            data_type: None,
            data_scheme: None,
            explicit_target: target.map(String::from),
            extra_keys: BTreeSet::new(),
            extra_taints: BTreeSet::new(),
            requests_result: requests,
            is_passive: passive,
            resolved_targets: BTreeSet::new(),
        }
    }

    fn component(class: &str, intents: Vec<SentIntentModel>) -> ComponentModel {
        ComponentModel {
            class: class.into(),
            kind: ComponentKind::Activity,
            exported: false,
            filters: vec![],
            enforced_permission: None,
            dynamic_checks: BTreeSet::new(),
            paths: BTreeSet::new(),
            sent_intents: intents,
            used_permissions: BTreeSet::new(),
            registers_dynamically: false,
        }
    }

    fn app(package: &str, components: Vec<ComponentModel>) -> AppModel {
        AppModel {
            package: package.into(),
            components,
            uses_permissions: BTreeSet::new(),
            defines_permissions: BTreeSet::new(),
            diagnostics: Vec::new(),
            stats: ExtractionStats::default(),
        }
    }

    #[test]
    fn algorithm_1_resolves_passive_targets() {
        // A starts B for result; B replies via setResult.
        let a = app(
            "a",
            vec![component("LA;", vec![intent(false, true, Some("LB;"))])],
        );
        let b = app("b", vec![component("LB;", vec![intent(true, false, None)])]);
        let mut apps = vec![a, b];
        update_passive_intent_targets(&mut apps);
        let passive = &apps[1].components[0].sent_intents[0];
        assert!(passive.resolved_targets.contains("LA;"));
    }

    #[test]
    fn retargeting_reports_exactly_the_apps_it_changed() {
        let a = app(
            "a",
            vec![component("LA;", vec![intent(false, true, Some("LB;"))])],
        );
        let b = app("b", vec![component("LB;", vec![intent(true, false, None)])]);
        let c = app("c", vec![component("LC;", vec![intent(true, false, None)])]);
        let mut apps = vec![a, b, c];
        assert_eq!(retarget_passive_intents(&mut apps), vec![1]);
        // Resolution is idempotent: a second pass changes nothing.
        assert!(retarget_passive_intents(&mut apps).is_empty());
        // Without its requester, B's passive intent loses its target.
        apps.remove(0);
        assert_eq!(retarget_passive_intents(&mut apps), vec![0]);
        assert!(apps[0].components[0].sent_intents[0]
            .resolved_targets
            .is_empty());
    }

    #[test]
    fn algorithm_1_ignores_non_requesters() {
        // A targets B explicitly but does NOT request a result.
        let a = app(
            "a",
            vec![component("LA;", vec![intent(false, false, Some("LB;"))])],
        );
        let b = app("b", vec![component("LB;", vec![intent(true, false, None)])]);
        let mut apps = vec![a, b];
        update_passive_intent_targets(&mut apps);
        assert!(apps[1].components[0].sent_intents[0]
            .resolved_targets
            .is_empty());
    }

    #[test]
    fn unguarded_check_considers_both_layers() {
        let mut c = component("LX;", vec![]);
        assert!(c.is_unguarded_for("android.permission.SEND_SMS"));
        c.dynamic_checks
            .insert("android.permission.SEND_SMS".into());
        assert!(!c.is_unguarded_for("android.permission.SEND_SMS"));
        c.dynamic_checks.clear();
        c.enforced_permission = Some("android.permission.SEND_SMS".into());
        assert!(!c.is_unguarded_for("android.permission.SEND_SMS"));
    }

    #[test]
    fn path_direction_helpers() {
        let mut c = component("LX;", vec![]);
        c.paths.insert(FlowPath::new(Resource::Icc, Resource::Sms));
        c.paths
            .insert(FlowPath::new(Resource::Location, Resource::Icc));
        assert_eq!(c.icc_entry_paths().count(), 1);
        assert_eq!(c.icc_exit_paths().count(), 1);
    }
}
