//! Differential property suite: the device's indexed intent router
//! resolves every envelope exactly like the retained linear scan.
//!
//! Manifests are generated over a small closed universe of classes,
//! actions, categories, data types and schemes, so index buckets collide,
//! one class is declared by several apps (explicit targets that cross
//! apps, or name a private component of the sender's own app), and
//! action-less, unknown-action and missing-target intents occur. Each
//! scenario interleaves installs, uninstalls (which shift app indices),
//! dynamic receiver registrations and probes; for every probe the router
//! and the scan must return the same receivers in the same order.

use std::sync::Arc;

use proptest::prelude::*;
use separ_android::api::{class, IccMethod};
use separ_android::resolution::IntentData;
use separ_dex::build::ApkBuilder;
use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ_dex::program::Apk;
use separ_enforce::{Device, Envelope};

// Index `len` of each universe is out of it: a string no filter declares.
const CLASSES: &[&str] = &["LA;", "LB;", "LC;", "LD;", "LE;"];
const ACTIONS: &[&str] = &["ACT.X", "ACT.Y", "ACT.Z"];
const CATEGORIES: &[&str] = &["cat.DEFAULT", "cat.BROWSABLE"];
const TYPES: &[&str] = &["text/plain", "image/png"];
const SCHEMES: &[&str] = &["https", "geo"];

/// The registrar app's package and launcher (registers dynamic
/// receivers when launched).
const REGISTRAR: (&str, &str) = ("com.registrar", "LRegistrar;");

fn pick(universe: &[&str], i: usize) -> String {
    universe
        .get(i)
        .map_or_else(|| "UNKNOWN".to_string(), |s| s.to_string())
}

fn picks(universe: &[&str], ids: Vec<usize>) -> Vec<String> {
    ids.into_iter().map(|i| pick(universe, i)).collect()
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

fn app(package: String, components: Vec<ComponentDecl>) -> Apk {
    let mut apk = ApkBuilder::new(package);
    for decl in components {
        apk.add_component(decl);
    }
    apk.finish()
}

/// An app whose launcher registers `(class, action)` dynamic receivers.
fn registrar(receivers: &[(usize, usize)]) -> Apk {
    let mut apk = ApkBuilder::new(REGISTRAR.0);
    apk.add_component(ComponentDecl::new(REGISTRAR.1, ComponentKind::Activity));
    let mut cb = apk.class_extends(REGISTRAR.1, class::ACTIVITY);
    let mut m = cb.method("onCreate", 1, false, false);
    let (c, a) = (m.reg(), m.reg());
    for &(class_id, action) in receivers {
        m.const_string(c, &pick(CLASSES, class_id));
        m.const_string(a, &pick(ACTIONS, action));
        m.invoke_virtual(class::CONTEXT, "registerReceiver", &[m.this(), c, a], true);
    }
    m.ret_void();
    m.finish();
    cb.finish();
    apk.finish()
}

fn intent_strategy() -> impl Strategy<Value = IntentData> {
    (
        0usize..5,
        prop::collection::vec(0usize..3, 0..2),
        0usize..4,
        0usize..4,
        0usize..3,
        0usize..CLASSES.len() + 1,
    )
        .prop_map(|(action, categories, ty, scheme, target, class)| {
            // Action: none (index 0) or one of the universe or unknown.
            let mut intent = IntentData::new();
            intent.action = action.checked_sub(1).map(|i| pick(ACTIONS, i).into());
            intent.categories = picks(CATEGORIES, categories)
                .into_iter()
                .map(Into::into)
                .collect();
            intent.data_type = ty.checked_sub(1).map(|i| pick(TYPES, i).into());
            intent.data_scheme = scheme.checked_sub(1).map(|i| pick(SCHEMES, i).into());
            // One intent in three names an explicit target (possibly one
            // no app declares); `sweep` covers every target systematically.
            if target == 0 {
                intent.explicit_target = Some(pick(CLASSES, class).into());
            }
            intent
        })
}

/// One step of a scenario.
#[derive(Clone, Debug)]
enum Step {
    Install(Vec<ComponentDecl>),
    /// Uninstalls the installed app at this index (modulo the count).
    Uninstall(usize),
    /// Launches the registrar (if installed), registering its receivers.
    Register,
    /// Resolves an envelope sent from this app index (`None` = external;
    /// may exceed the installed count) via this ICC method.
    Probe(Option<usize>, usize, IntentData),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(component_strategy(), 0..4).prop_map(Step::Install),
        (0usize..8).prop_map(Step::Uninstall),
        Just(Step::Register),
        // Listed twice: two steps in five are probes.
        (0usize..8, 0usize..IccMethod::ALL.len(), intent_strategy())
            .prop_map(|(from, via, intent)| Step::Probe(from.checked_sub(1), via, intent)),
        (0usize..8, 0usize..IccMethod::ALL.len(), intent_strategy())
            .prop_map(|(from, via, intent)| Step::Probe(from.checked_sub(1), via, intent)),
    ]
}

fn probe(device: &Device, from_app: Option<usize>, via: IccMethod, intent: IntentData) -> usize {
    let env = Envelope {
        from_app,
        from_component: "LSender;".into(),
        via,
        intent: Arc::new(intent),
        reply_to: from_app.map(|a| (a, "LSender;".into())),
    };
    let indexed = device.receivers(&env);
    let scanned = device.receivers_by_scan(&env);
    prop_assert_eq!(&indexed, &scanned, "router and scan disagree on {:?}", env);
    indexed.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn router_resolves_like_the_scan(
        initial in prop::collection::vec(prop::collection::vec(component_strategy(), 0..4), 0..5),
        dynamic in prop::collection::vec((0usize..CLASSES.len() + 1, 0usize..ACTIONS.len() + 1), 0..4),
        registrar_at in 0usize..6,
        steps in prop::collection::vec(step_strategy(), 1..24),
    ) {
        let mut apks: Vec<Apk> = initial
            .into_iter()
            .enumerate()
            .map(|(i, decls)| app(format!("com.app{i}"), decls))
            .collect();
        apks.insert(registrar_at.min(apks.len()), registrar(&dynamic));
        let mut installed: Vec<String> = apks.iter().map(|a| a.package().to_string()).collect();
        let mut device = Device::new(apks);
        let mut next_package = installed.len();
        for step in steps {
            match step {
                Step::Install(decls) => {
                    let package = format!("com.app{next_package}");
                    next_package += 1;
                    prop_assert!(device.install_apk(app(package.clone(), decls)));
                    installed.push(package);
                }
                Step::Uninstall(i) => {
                    if !installed.is_empty() {
                        let package = installed.remove(i % installed.len());
                        prop_assert!(device.uninstall_package(&package));
                        // Indices shifted: the router was rebuilt.
                        sweep(&device, installed.len());
                    }
                }
                Step::Register => {
                    let present = device.launch(REGISTRAR.0, REGISTRAR.1);
                    prop_assert_eq!(present, installed.iter().any(|p| p == REGISTRAR.0));
                }
                Step::Probe(from, via, intent) => {
                    probe(&device, from, IccMethod::ALL[via], intent);
                }
            }
        }
        sweep(&device, installed.len());
    }
}

/// Probes every ICC method from every sender (and an external one) with
/// an action-less intent, each action (and an unknown one), and an
/// explicit intent for each class (and an undeclared one).
fn sweep(device: &Device, apps: usize) {
    let mut intents = vec![IntentData::new()];
    intents.extend((0..=ACTIONS.len()).map(|i| IntentData::for_action(pick(ACTIONS, i))));
    intents.extend((0..=CLASSES.len()).map(|i| IntentData::explicit(pick(CLASSES, i))));
    for via in IccMethod::ALL {
        for from in std::iter::once(None).chain((0..apps).map(Some)) {
            for intent in &intents {
                probe(device, from, via, intent.clone());
            }
        }
    }
}

#[test]
fn router_finds_known_receivers() {
    // The property above would also hold if both paths found nothing:
    // pin the receivers on a device where they are known.
    let decl = |class: &str, kind, actions: &[&str]| {
        let mut d = ComponentDecl::new(class, kind);
        d.intent_filters
            .push(IntentFilterDecl::for_actions(actions.iter().copied()));
        d
    };
    let device = Device::new(vec![
        app(
            "com.a".into(),
            vec![decl("LA;", ComponentKind::Service, &["ACT.X"])],
        ),
        app(
            "com.b".into(),
            vec![decl("LA;", ComponentKind::Service, &["ACT.X", "ACT.Y"])],
        ),
    ]);
    for (action, expected) in [(Some("ACT.X"), 2), (Some("ACT.Y"), 1), (None, 2)] {
        let mut intent = IntentData::new();
        intent.action = action.map(Into::into);
        assert_eq!(
            probe(&device, None, IccMethod::StartService, intent),
            expected
        );
    }
}
