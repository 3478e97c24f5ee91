//! The top-level Android Model Extractor (AME).
//!
//! Consumes APK bytes (or decoded packages), runs the architectural and
//! code analyses, and emits [`AppModel`]s — the per-app formal
//! specifications the analysis-and-synthesis engine composes.

use separ_android::api::IccMethod;
use separ_dex::codec;
use separ_dex::error::DexError;
use separ_dex::program::Apk;

use crate::absint::AbstractIntent;
use crate::model::{AppModel, ComponentModel, ExtractionStats, SentIntentModel};

/// Extracts the model of an app from its binary package.
///
/// This is the full AME pipeline: decode the container, read the manifest
/// architecture, then analyze each component's bytecode.
///
/// # Errors
///
/// Returns a [`DexError`] if the binary is malformed.
pub fn extract(bytes: &[u8]) -> Result<AppModel, DexError> {
    let apk = codec::decode(bytes)?;
    Ok(extract_apk(&apk))
}

/// Extracts the model of an already-decoded app.
pub fn extract_apk(apk: &Apk) -> AppModel {
    extract_apk_with(apk, crate::absint::AnalysisOptions::default())
}

/// Extracts the model of an app under an explicit tool profile (used by
/// the comparator baselines).
pub fn extract_apk_with(apk: &Apk, options: crate::absint::AnalysisOptions) -> AppModel {
    let mut span = separ_obs::span("ame.extract");
    span.set_arg("app", apk.manifest.package.clone());
    // Graceful-degradation pre-pass: verify first, then analyze a
    // sanitized copy with Error-poisoned scopes quarantined, so the
    // abstract interpreter never consumes malformed structure.
    let lint = crate::diagnostics::lint_apk(apk);
    let sanitized = lint.sanitized_apk(apk);
    let analyzed: &Apk = sanitized.as_ref().unwrap_or(apk);
    // Resolve every method-pool entry (API classification, permissions,
    // call targets) once; all component analyses share the result.
    let index = crate::index::ApkIndex::new(analyzed);
    let mut components = Vec::with_capacity(analyzed.manifest.components.len());
    let mut instructions = 0u64;
    let mut dynamic_filters: Vec<(String, String)> = Vec::new();
    for decl in &analyzed.manifest.components {
        let facts = {
            let mut cspan = separ_obs::span("ame.summary");
            cspan.set_arg("component", decl.class.clone());
            let facts =
                crate::absint::analyze_component_indexed(analyzed, &index, &decl.class, options);
            cspan.set_arg("hits", facts.summary_hits.to_string());
            cspan.set_arg("misses", facts.summary_misses.to_string());
            facts
        };
        instructions += facts.instructions_visited;
        dynamic_filters.extend(facts.dynamic_filters.iter().cloned());
        let sent_intents = flatten_intents(&facts.intents);
        components.push(ComponentModel {
            class: decl.class.clone(),
            kind: decl.kind,
            exported: decl.is_effectively_exported(),
            filters: decl.intent_filters.clone(),
            enforced_permission: decl.permission.clone(),
            dynamic_checks: facts.dynamic_checks,
            paths: facts.flows,
            sent_intents,
            used_permissions: facts.used_permissions,
            registers_dynamically: facts.registers_dynamically,
        });
    }
    // Under the dynamic-receiver-modelling profile, attach recovered
    // runtime filters to their receiver components (and consider them
    // exported, as runtime-registered receivers are reachable).
    for (class, action) in dynamic_filters {
        if let Some(c) = components.iter_mut().find(|c| c.class == class) {
            c.filters
                .push(separ_dex::manifest::IntentFilterDecl::for_actions([action]));
            c.exported = true;
        }
    }
    let mut model = AppModel {
        package: apk.manifest.package.clone(),
        components,
        uses_permissions: apk.manifest.uses_permissions.iter().cloned().collect(),
        defines_permissions: apk.manifest.defines_permissions.iter().cloned().collect(),
        diagnostics: lint.diagnostics,
        stats: ExtractionStats::default(),
    };
    // Intra-app passive-intent resolution (Algorithm 1); the bundle-level
    // pass in the ASE re-runs it across apps.
    crate::model::update_passive_intent_targets(std::slice::from_mut(&mut model));
    model.stats = ExtractionStats {
        app_size: apk.size_metric(),
        instructions_visited: instructions,
        quarantined_methods: lint.quarantined_methods,
    };
    model
}

/// Flattens abstract intents into model entities: one entity per
/// disambiguated (action × target × type × scheme) combination, as the
/// paper prescribes for properties resolved to multiple values.
fn flatten_intents(intents: &[AbstractIntent]) -> Vec<SentIntentModel> {
    let mut out = Vec::new();
    for ai in intents {
        if ai.sent_via.is_empty() || ai.is_received {
            continue;
        }
        let actions: Vec<Option<String>> = if ai.actions.is_empty() {
            vec![None]
        } else {
            let mut v: Vec<Option<String>> = ai.actions.iter().cloned().map(Some).collect();
            if ai.actions_unknown {
                v.push(None);
            }
            v
        };
        let targets: Vec<Option<String>> = if ai.targets.is_empty() {
            vec![None]
        } else {
            ai.targets.iter().cloned().map(Some).collect()
        };
        let types: Vec<Option<String>> = if ai.data_types.is_empty() {
            vec![None]
        } else {
            ai.data_types.iter().cloned().map(Some).collect()
        };
        let schemes: Vec<Option<String>> = if ai.data_schemes.is_empty() {
            vec![None]
        } else {
            ai.data_schemes.iter().cloned().map(Some).collect()
        };
        for &via in &ai.sent_via {
            let is_passive = via == IccMethod::SetResult;
            for action in &actions {
                for target in &targets {
                    for ty in &types {
                        for scheme in &schemes {
                            out.push(SentIntentModel {
                                via,
                                action: action.clone(),
                                categories: ai.categories.clone(),
                                data_type: ty.clone(),
                                data_scheme: scheme.clone(),
                                explicit_target: target.clone(),
                                extra_keys: ai.extra_keys.clone(),
                                extra_taints: ai.extra_taints.clone(),
                                requests_result: via.requests_result(),
                                is_passive,
                                resolved_targets: Default::default(),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_android::api::class;
    use separ_android::types::{perm, FlowPath, Resource};
    use separ_dex::build::ApkBuilder;
    use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};

    fn nav_app() -> Apk {
        let mut apk = ApkBuilder::new("com.example.navigator");
        apk.uses_permission(perm::ACCESS_FINE_LOCATION);
        apk.add_component(ComponentDecl::new(
            "Lcom/example/LocationFinder;",
            ComponentKind::Service,
        ));
        let mut decl = ComponentDecl::new("Lcom/example/RouteFinder;", ComponentKind::Service);
        decl.intent_filters
            .push(IntentFilterDecl::for_actions(["showLoc"]));
        apk.add_component(decl);
        {
            let mut cb = apk.class_extends("Lcom/example/LocationFinder;", class::SERVICE);
            let mut m = cb.method("onStartCommand", 3, false, false);
            let loc = m.reg();
            let intent = m.reg();
            let s = m.reg();
            m.invoke_virtual(
                class::LOCATION_MANAGER,
                "getLastKnownLocation",
                &[loc],
                true,
            );
            m.move_result(loc);
            m.new_instance(intent, class::INTENT);
            m.const_string(s, "showLoc");
            m.invoke_virtual(class::INTENT, "setAction", &[intent, s], false);
            m.const_string(s, "locationInfo");
            m.invoke_virtual(class::INTENT, "putExtra", &[intent, s, loc], false);
            m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), intent], false);
            m.ret_void();
            m.finish();
            cb.finish();
        }
        {
            let mut cb = apk.class_extends("Lcom/example/RouteFinder;", class::SERVICE);
            let mut m = cb.method("onStartCommand", 3, false, false);
            m.ret_void();
            m.finish();
            cb.finish();
        }
        apk.finish()
    }

    #[test]
    fn full_extraction_round_trip_through_binary() {
        let apk = nav_app();
        let bytes = codec::encode(&apk);
        let model = extract(&bytes).expect("decodes and extracts");
        assert_eq!(model.package, "com.example.navigator");
        assert_eq!(model.components.len(), 2);
        let lf = model
            .component("Lcom/example/LocationFinder;")
            .expect("component");
        assert!(!lf.exported, "no filters and no flag");
        assert!(lf
            .paths
            .contains(&FlowPath::new(Resource::Location, Resource::Icc)));
        assert_eq!(lf.sent_intents.len(), 1);
        let intent = &lf.sent_intents[0];
        assert_eq!(intent.action.as_deref(), Some("showLoc"));
        assert!(intent.is_implicit());
        assert!(intent.extra_taints.contains(&Resource::Location));
        let rf = model
            .component("Lcom/example/RouteFinder;")
            .expect("component");
        assert!(rf.exported, "filter implies exported");
        assert_eq!(model.num_intents(), 1);
        assert_eq!(model.num_filters(), 1);
        assert!(model.stats.app_size > 0);
        assert!(model.stats.instructions_visited > 0);
    }

    #[test]
    fn multi_value_action_yields_multiple_entities() {
        // A conditional assignment gives the intent two possible actions;
        // the paper requires one entity per value.
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LMulti;", ComponentKind::Activity));
        let mut cb = apk.class_extends("LMulti;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let s = m.reg();
        let cond = m.reg();
        let other = m.new_label();
        let send = m.new_label();
        m.new_instance(i, class::INTENT);
        m.invoke_virtual(class::ACTIVITY, "getIntent", &[m.this()], true);
        m.move_result(cond);
        m.if_eqz(cond, other);
        m.const_string(s, "actionA");
        m.goto(send);
        m.bind(other);
        m.const_string(s, "actionB");
        m.bind(send);
        m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
        m.invoke_virtual(class::CONTEXT, "startActivity", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
        let apk = apk.finish();
        let model = extract_apk(&apk);
        let c = model.component("LMulti;").expect("component");
        let actions: Vec<_> = c
            .sent_intents
            .iter()
            .filter_map(|i| i.action.as_deref())
            .collect();
        assert_eq!(c.sent_intents.len(), 2, "{:?}", c.sent_intents);
        assert!(actions.contains(&"actionA") && actions.contains(&"actionB"));
    }

    #[test]
    fn extraction_scales_with_app_size() {
        // Sanity check for the Figure-5 harness: a bigger app visits more
        // instructions.
        let small = extract_apk(&nav_app());
        let mut big_builder = ApkBuilder::new("big");
        big_builder.add_component(ComponentDecl::new("LBig;", ComponentKind::Service));
        let mut cb = big_builder.class_extends("LBig;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 3, false, false);
        let v = m.reg();
        for k in 0..200 {
            m.const_int(v, k);
        }
        m.ret_void();
        m.finish();
        cb.finish();
        let big = extract_apk(&big_builder.finish());
        assert!(big.stats.instructions_visited > small.stats.instructions_visited);
    }
}
