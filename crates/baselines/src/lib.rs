//! **separ-baselines** — comparator ICC-leak analyzers for Table I.
//!
//! The paper compares SEPAR against DidFail and AmanDroid. Rather than
//! hardcoding the published table, this crate implements each tool's
//! *documented* capabilities and blind spots as genuine analyzer
//! restrictions over the same extracted models, so the accuracy
//! comparison is regenerated from first principles:
//!
//! * [`DidFailAnalyzer`] — Epicc-lineage matching: implicit intents only,
//!   no data-scheme test, no reachability pruning (reports dead-code
//!   decoys), no provider/bound-service/result-channel flows;
//! * [`AmandroidAnalyzer`] — per-app analysis with full resolution and
//!   dynamic-receiver modelling, but no ContentProviders, no
//!   `bindService`/`startActivityForResult` channels, and no inter-app
//!   composition;
//! * [`SeparAnalyzer`] — the full pipeline from `separ-core`, adapted to
//!   the common [`IccAnalyzer`] interface.
#![warn(missing_docs)]

use std::collections::BTreeSet;

use separ_analysis::absint::AnalysisOptions;
use separ_analysis::extractor::extract_apk_with;
use separ_analysis::model::{update_passive_intent_targets, AppModel};
use separ_android::api::IccMethod;
use separ_android::resolution::{self, IntentData};
use separ_android::types::Resource;
use separ_core::{Exploit, Separ, VulnKind};
use separ_dex::manifest::IntentFilterDecl;
use separ_dex::program::Apk;

/// A leak finding: `(source component class, sink component class)`.
pub type LeakPair = (String, String);

/// The common interface of all compared tools.
pub trait IccAnalyzer {
    /// Tool name as it appears in the table.
    fn name(&self) -> &'static str;

    /// Analyzes a bundle and reports leak pairs.
    fn find_leaks(&self, apks: &[Apk]) -> BTreeSet<LeakPair>;
}

/// Returns `true` if the component has a path from its ICC surface to a
/// real (non-ICC) sink.
fn completes_leak(c: &separ_analysis::model::ComponentModel) -> bool {
    c.paths
        .iter()
        .any(|p| p.source == Resource::Icc && p.sink != Resource::Icc)
}

/// Returns `true` if the intent carries sensitive (source) payload.
fn carries_sensitive(i: &separ_analysis::model::SentIntentModel) -> bool {
    i.extra_taints
        .iter()
        .any(|r| r.is_source() && *r != Resource::Icc)
}

// ---------------------------------------------------------------------
// DidFail-like
// ---------------------------------------------------------------------

/// A DidFail-style analyzer (see crate docs for the modelled limitations).
#[derive(Debug, Default, Clone, Copy)]
pub struct DidFailAnalyzer;

impl DidFailAnalyzer {
    /// Epicc carries no data *scheme*: match with schemes erased.
    fn scheme_blind_match(intent: &IntentData, filters: &[IntentFilterDecl]) -> bool {
        let mut i = intent.clone();
        i.data_scheme = None;
        filters.iter().any(|f| {
            let mut f = f.clone();
            f.data_schemes.clear();
            resolution::filter_matches(&i, &f)
        })
    }
}

impl IccAnalyzer for DidFailAnalyzer {
    fn name(&self) -> &'static str {
        "DidFail"
    }

    fn find_leaks(&self, apks: &[Apk]) -> BTreeSet<LeakPair> {
        // No reachability pruning: dead-code flows are extracted too.
        let options = AnalysisOptions {
            prune_dead_branches: false,
            ..AnalysisOptions::default()
        };
        let apps: Vec<AppModel> = apks.iter().map(|a| extract_apk_with(a, options)).collect();
        let mut out = BTreeSet::new();
        for (ai, app) in apps.iter().enumerate() {
            for sender in &app.components {
                for intent in &sender.sent_intents {
                    // Implicit intents only; no provider, bound-service or
                    // result-channel flows.
                    if !intent.is_implicit()
                        || intent.is_passive
                        || matches!(
                            intent.via,
                            IccMethod::BindService
                                | IccMethod::ProviderQuery
                                | IccMethod::ProviderInsert
                                | IccMethod::ProviderUpdate
                                | IccMethod::ProviderDelete
                        )
                    {
                        continue;
                    }
                    if !carries_sensitive(intent) {
                        continue;
                    }
                    let Some(kind) = intent.via.receiving_kind() else {
                        continue;
                    };
                    let data = intent.as_intent_data();
                    for (bi, other) in apps.iter().enumerate() {
                        for recv in &other.components {
                            if recv.kind != kind {
                                continue;
                            }
                            if bi != ai && !recv.exported {
                                continue;
                            }
                            if !Self::scheme_blind_match(&data, &recv.filters) {
                                continue;
                            }
                            if completes_leak(recv) {
                                out.insert((sender.class.clone(), recv.class.clone()));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// AmanDroid-like
// ---------------------------------------------------------------------

/// An AmanDroid-style analyzer (see crate docs for the modelled
/// limitations).
#[derive(Debug, Default, Clone, Copy)]
pub struct AmandroidAnalyzer;

impl IccAnalyzer for AmandroidAnalyzer {
    fn name(&self) -> &'static str {
        "AmanDroid"
    }

    fn find_leaks(&self, apks: &[Apk]) -> BTreeSet<LeakPair> {
        let options = AnalysisOptions {
            model_dynamic_receivers: true,
            ..AnalysisOptions::default()
        };
        let apps: Vec<AppModel> = apks.iter().map(|a| extract_apk_with(a, options)).collect();
        let mut out = BTreeSet::new();
        // Per-app analysis: no inter-app composition.
        for app in &apps {
            for sender in &app.components {
                for intent in &sender.sent_intents {
                    // No ContentProviders, no complicated ICC methods
                    // (bindService, startActivityForResult) — per the
                    // paper's related-work discussion.
                    if intent.is_passive
                        || matches!(
                            intent.via,
                            IccMethod::BindService
                                | IccMethod::StartActivityForResult
                                | IccMethod::ProviderQuery
                                | IccMethod::ProviderInsert
                                | IccMethod::ProviderUpdate
                                | IccMethod::ProviderDelete
                        )
                    {
                        continue;
                    }
                    if !carries_sensitive(intent) {
                        continue;
                    }
                    let Some(kind) = intent.via.receiving_kind() else {
                        continue;
                    };
                    for recv in &app.components {
                        if recv.kind != kind || !completes_leak(recv) {
                            continue;
                        }
                        let delivered = match &intent.explicit_target {
                            Some(t) => *t == recv.class,
                            None => resolution::any_filter_matches(
                                &intent.as_intent_data(),
                                &recv.filters,
                            ),
                        };
                        if delivered {
                            out.insert((sender.class.clone(), recv.class.clone()));
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// SEPAR adapter
// ---------------------------------------------------------------------

/// The full SEPAR pipeline behind the common interface.
#[derive(Debug, Default)]
pub struct SeparAnalyzer;

impl IccAnalyzer for SeparAnalyzer {
    fn name(&self) -> &'static str {
        "SEPAR"
    }

    fn find_leaks(&self, apks: &[Apk]) -> BTreeSet<LeakPair> {
        let mut apps: Vec<AppModel> = apks
            .iter()
            .map(separ_analysis::extractor::extract_apk)
            .collect();
        update_passive_intent_targets(&mut apps);
        let report = Separ::new()
            .analyze_models(apps)
            .expect("signatures are well-typed");
        report
            .exploits_of(VulnKind::InformationLeakage)
            .filter_map(|e| match e {
                Exploit::InformationLeakage {
                    source_component,
                    sink_component,
                    ..
                } => Some((source_component.clone(), sink_component.clone())),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_android::api::class;
    use separ_dex::build::ApkBuilder;
    use separ_dex::manifest::{ComponentDecl, ComponentKind};

    /// Builds a one-app leak; `explicit` picks addressing, `dead` guards
    /// the leak with unreachable code.
    fn leak_app(explicit: bool, dead: bool) -> Apk {
        let mut apk = ApkBuilder::new("com.case");
        apk.add_component(ComponentDecl::new("LS;", ComponentKind::Activity));
        let mut decl = ComponentDecl::new("LR;", ComponentKind::Service);
        if explicit {
            decl.exported = Some(true);
        } else {
            decl.intent_filters
                .push(IntentFilterDecl::for_actions(["com.case.GO"]));
        }
        apk.add_component(decl);
        {
            let mut cb = apk.class_extends("LS;", class::ACTIVITY);
            let mut m = cb.method("onCreate", 1, false, false);
            let v = m.reg();
            let i = m.reg();
            let s = m.reg();
            let end = m.new_label();
            if dead {
                let flag = m.reg();
                m.const_int(flag, 0);
                m.if_eqz(flag, end); // always jumps: leak below is dead
            }
            m.invoke_virtual(class::TELEPHONY_MANAGER, "getDeviceId", &[v], true);
            m.move_result(v);
            m.new_instance(i, class::INTENT);
            if explicit {
                m.const_string(s, "LR;");
                m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
            } else {
                m.const_string(s, "com.case.GO");
                m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
            }
            m.const_string(s, "x");
            m.invoke_virtual(class::INTENT, "putExtra", &[i, s, v], false);
            m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
            m.bind(end);
            m.ret_void();
            m.finish();
            cb.finish();
        }
        {
            let mut cb = apk.class_extends("LR;", class::SERVICE);
            let mut m = cb.method("onStartCommand", 2, false, false);
            let v = m.reg();
            let k = m.reg();
            m.const_string(k, "x");
            m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.ret_void();
            m.finish();
            cb.finish();
        }
        apk.finish()
    }

    #[test]
    fn all_tools_find_the_easy_implicit_leak() {
        let apks = vec![leak_app(false, false)];
        let expected: LeakPair = ("LS;".into(), "LR;".into());
        for tool in [
            &DidFailAnalyzer as &dyn IccAnalyzer,
            &AmandroidAnalyzer,
            &SeparAnalyzer,
        ] {
            let found = tool.find_leaks(&apks);
            assert!(found.contains(&expected), "{} missed it", tool.name());
        }
    }

    #[test]
    fn didfail_misses_explicit_intents() {
        let apks = vec![leak_app(true, false)];
        assert!(DidFailAnalyzer.find_leaks(&apks).is_empty());
        assert!(!AmandroidAnalyzer.find_leaks(&apks).is_empty());
        assert!(!SeparAnalyzer.find_leaks(&apks).is_empty());
    }

    #[test]
    fn didfail_reports_dead_code_but_others_prune() {
        let apks = vec![leak_app(false, true)];
        assert!(
            !DidFailAnalyzer.find_leaks(&apks).is_empty(),
            "no reachability pruning: the decoy is reported"
        );
        assert!(AmandroidAnalyzer.find_leaks(&apks).is_empty());
        assert!(SeparAnalyzer.find_leaks(&apks).is_empty());
    }

    #[test]
    fn amandroid_is_single_app_only() {
        // Split the implicit leak across two packages.
        let mut a = ApkBuilder::new("com.a");
        a.add_component(ComponentDecl::new("LS;", ComponentKind::Activity));
        {
            let mut cb = a.class_extends("LS;", class::ACTIVITY);
            let mut m = cb.method("onCreate", 1, false, false);
            let v = m.reg();
            let i = m.reg();
            let s = m.reg();
            m.invoke_virtual(class::TELEPHONY_MANAGER, "getDeviceId", &[v], true);
            m.move_result(v);
            m.new_instance(i, class::INTENT);
            m.const_string(s, "com.iac.GO");
            m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
            m.const_string(s, "x");
            m.invoke_virtual(class::INTENT, "putExtra", &[i, s, v], false);
            m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
            m.ret_void();
            m.finish();
            cb.finish();
        }
        let mut b = ApkBuilder::new("com.b");
        let mut decl = ComponentDecl::new("LR;", ComponentKind::Service);
        decl.intent_filters
            .push(IntentFilterDecl::for_actions(["com.iac.GO"]));
        b.add_component(decl);
        {
            let mut cb = b.class_extends("LR;", class::SERVICE);
            let mut m = cb.method("onStartCommand", 2, false, false);
            let v = m.reg();
            let k = m.reg();
            m.const_string(k, "x");
            m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.ret_void();
            m.finish();
            cb.finish();
        }
        let apks = vec![a.finish(), b.finish()];
        assert!(AmandroidAnalyzer.find_leaks(&apks).is_empty(), "no IAC");
        assert!(!SeparAnalyzer.find_leaks(&apks).is_empty());
        assert!(!DidFailAnalyzer.find_leaks(&apks).is_empty());
    }
}
