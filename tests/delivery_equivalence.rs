//! Differential property suite: the static model delivers every intent
//! exactly where the device does.
//!
//! Bundles of one to four apps are generated over a small closed universe
//! of classes, actions, categories, data types and schemes, so one class
//! is declared by several apps and twice within one app, `exported` flags
//! are explicit or filter-implied, and providers occur. The bundles are
//! extracted, generated non-passive sent intents (every ICC method but
//! `setResult`; action-less, known-action and unknown-action; with
//! categories and data; explicit targets across apps, within the sender's
//! app or naming no component) are attached to their components, and the
//! bundle is encoded. For every intent, the `canReceive` lower bound must
//! name the same `(app, class)` pairs the device's `receivers` returns for
//! the same envelope and sender.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use separ::analysis::extractor::extract_apk;
use separ::analysis::model::{AppModel, SentIntentModel};
use separ::android::api::IccMethod;
use separ::core::encode::encode_bundle;
use separ::dex::build::ApkBuilder;
use separ::dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ::dex::Apk;
use separ::enforce::{Device, Envelope};

// Index `len` of each universe is out of it: a string no filter declares.
const CLASSES: &[&str] = &["LA;", "LB;", "LC;", "LD;"];
const ACTIONS: &[&str] = &["ACT.X", "ACT.Y", "ACT.Z"];
const CATEGORIES: &[&str] = &["cat.DEFAULT", "cat.BROWSABLE"];
const TYPES: &[&str] = &["text/plain", "image/png"];
const SCHEMES: &[&str] = &["https", "geo"];

/// Every ICC method that resolves (all but the passive `setResult`).
const VIAS: [IccMethod; 9] = [
    IccMethod::StartActivity,
    IccMethod::StartActivityForResult,
    IccMethod::StartService,
    IccMethod::BindService,
    IccMethod::SendBroadcast,
    IccMethod::ProviderQuery,
    IccMethod::ProviderInsert,
    IccMethod::ProviderUpdate,
    IccMethod::ProviderDelete,
];

fn pick(universe: &[&str], i: usize) -> String {
    universe
        .get(i)
        .map_or_else(|| "UNKNOWN".to_string(), |s| s.to_string())
}

fn picks(universe: &[&str], ids: Vec<usize>) -> Vec<String> {
    ids.into_iter().map(|i| pick(universe, i)).collect()
}

/// `None` for index 0, else the universe pick (possibly unknown).
fn optional(universe: &[&str], i: usize) -> Option<String> {
    i.checked_sub(1).map(|i| pick(universe, i))
}

fn filter_strategy() -> impl Strategy<Value = IntentFilterDecl> {
    (
        prop::collection::vec(0usize..3, 0..3),
        prop::collection::vec(0usize..2, 0..3),
        prop::collection::vec(0usize..2, 0..2),
        prop::collection::vec(0usize..2, 0..2),
    )
        .prop_map(|(actions, categories, types, schemes)| IntentFilterDecl {
            actions: picks(ACTIONS, actions),
            categories: picks(CATEGORIES, categories),
            data_types: picks(TYPES, types),
            data_schemes: picks(SCHEMES, schemes),
        })
}

fn component_strategy() -> impl Strategy<Value = ComponentDecl> {
    (
        0usize..CLASSES.len(),
        0usize..4,
        0usize..3,
        prop::collection::vec(filter_strategy(), 0..3),
    )
        .prop_map(|(class, kind, exported, filters)| {
            let mut decl = ComponentDecl::new(CLASSES[class], ComponentKind::ALL[kind]);
            decl.exported = [None, Some(true), Some(false)][exported];
            decl.intent_filters = filters;
            decl
        })
}

/// A non-passive sent intent with no categories, data or extras.
fn sent(via: IccMethod, action: Option<String>, target: Option<String>) -> SentIntentModel {
    SentIntentModel {
        via,
        action,
        categories: BTreeSet::new(),
        data_type: None,
        data_scheme: None,
        explicit_target: target,
        extra_keys: BTreeSet::new(),
        extra_taints: BTreeSet::new(),
        requests_result: via.requests_result(),
        is_passive: false,
        resolved_targets: BTreeSet::new(),
    }
}

fn intent_strategy() -> impl Strategy<Value = SentIntentModel> {
    (
        (0usize..VIAS.len(), 0usize..ACTIONS.len() + 2),
        prop::collection::vec(0usize..3, 0..2),
        0usize..TYPES.len() + 2,
        0usize..SCHEMES.len() + 2,
        0usize..2,
        0usize..CLASSES.len() + 1,
    )
        .prop_map(|((via, action), categories, ty, scheme, implicit, class)| {
            // Half the intents are explicit, naming a class of the
            // universe (declared by any app, or none) or an unknown one.
            let target = (implicit == 0).then(|| pick(CLASSES, class));
            let mut intent = sent(VIAS[via], optional(ACTIONS, action), target);
            intent.categories = picks(CATEGORIES, categories).into_iter().collect();
            intent.data_type = optional(TYPES, ty);
            intent.data_scheme = optional(SCHEMES, scheme);
            intent
        })
}

fn app(package: String, components: Vec<ComponentDecl>) -> Apk {
    let mut apk = ApkBuilder::new(package);
    for decl in components {
        apk.add_component(decl);
    }
    apk.finish()
}

/// Extracts `apks` and attaches each `(app, component, intent)` to the
/// picked component (modulo the counts; dropped if the app declares
/// none).
fn models(apks: &[Apk], sends: Vec<(usize, usize, SentIntentModel)>) -> Vec<AppModel> {
    let mut models: Vec<AppModel> = apks.iter().map(extract_apk).collect();
    for (ai, ci, intent) in sends {
        let app = &mut models[ai % apks.len()];
        let count = app.components.len();
        if count > 0 {
            app.components[ci % count].sent_intents.push(intent);
        }
    }
    models
}

/// Checks every sent intent's `canReceive` rows against the device and
/// returns how many intents reached some receiver.
fn check(apks: Vec<Apk>, models: &[AppModel]) -> usize {
    let encoded = encode_bundle(models);
    let can_receive = encoded.problem.decl(encoded.rels.can_receive).lower();
    let device = Device::new(apks);
    let mut delivered = 0;
    for &((ai, ci, ii), atom) in &encoded.atoms.intents {
        let sender = &models[ai].components[ci];
        let intent = &sender.sent_intents[ii];
        let statically: BTreeSet<(usize, String)> = can_receive
            .iter()
            .filter(|t| t.atoms()[0] == atom)
            .map(|t| {
                let (ri, rc) = encoded.atoms.component_of(t.atoms()[1]).expect("real");
                (ri, models[ri].components[rc].class.clone())
            })
            .collect();
        let env = Envelope {
            from_app: Some(ai),
            from_component: sender.class.as_str().into(),
            via: intent.via,
            intent: Arc::new(intent.as_intent_data()),
            reply_to: None,
        };
        let on_device: BTreeSet<(usize, String)> = device
            .receivers(&env)
            .into_iter()
            .map(|(app, class)| (app, class.to_string()))
            .collect();
        prop_assert_eq!(
            &statically,
            &on_device,
            "canReceive and the device disagree on {:?} sent from app {}",
            intent,
            ai
        );
        delivered += usize::from(!on_device.is_empty());
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn can_receive_delivers_like_the_device(
        bundle in prop::collection::vec(prop::collection::vec(component_strategy(), 0..5), 1..5),
        sends in prop::collection::vec((0usize..4, 0usize..5, intent_strategy()), 0..24),
    ) {
        let apks: Vec<Apk> = bundle
            .into_iter()
            .enumerate()
            .map(|(i, decls)| app(format!("com.app{i}"), decls))
            .collect();
        let models = models(&apks, sends);
        check(apks, &models);
    }
}

/// An explicit intent reaches the first component of the named class in
/// each app, as the device finds it: a second, same-class declaration in
/// one app (a `DuplicateComponent` manifest) is shadowed.
#[test]
fn explicit_intents_reach_the_first_component_of_a_class() {
    let exported = |class: &str, kind| {
        let mut decl = ComponentDecl::new(class, kind);
        decl.exported = Some(true);
        decl
    };
    let apks = vec![
        app(
            "com.sender".into(),
            vec![ComponentDecl::new("LSender;", ComponentKind::Activity)],
        ),
        app(
            "com.dup".into(),
            vec![
                exported("LA;", ComponentKind::Activity),
                exported("LA;", ComponentKind::Service),
            ],
        ),
        app(
            "com.plain".into(),
            vec![exported("LA;", ComponentKind::Service)],
        ),
    ];
    let target = || Some("LA;".to_string());
    let service = sent(IccMethod::StartService, None, target());
    let activity = sent(IccMethod::StartActivity, None, target());
    let models = models(&apks, vec![(0, 0, service), (0, 0, activity)]);
    // The service reaches only `com.plain`; the activity only `com.dup`.
    assert_eq!(check(apks, &models), 2);
}

/// The property above would also hold if both sides delivered nothing:
/// pin implicit receivers on a bundle where they are known.
#[test]
fn implicit_intents_reach_exported_and_same_app_receivers() {
    let service = |class: &str, exported| {
        let mut decl = ComponentDecl::new(class, ComponentKind::Service);
        decl.exported = exported;
        decl.intent_filters
            .push(IntentFilterDecl::for_actions(["ACT.X"]));
        decl
    };
    let apks = vec![
        app(
            "com.a".into(),
            vec![service("LA;", Some(false)), service("LB;", None)],
        ),
        app(
            "com.b".into(),
            vec![service("LA;", Some(false)), service("LC;", None)],
        ),
    ];
    let intent = sent(IccMethod::StartService, Some("ACT.X".into()), None);
    let models = models(&apks, vec![(0, 0, intent)]);
    let encoded = encode_bundle(&models);
    let rows = encoded.problem.decl(encoded.rels.can_receive).lower();
    let reached: BTreeSet<(usize, usize)> = rows
        .iter()
        .filter_map(|t| encoded.atoms.component_of(t.atoms()[1]))
        .collect();
    // App 0's own private `LA;` and both filter-exported services; not
    // app 1's private `LA;`.
    assert_eq!(reached, BTreeSet::from([(0, 0), (0, 1), (1, 1)]));
    assert_eq!(check(apks, &models), 1);
}
