//! Intent resolution: the action, category and data tests, and the one
//! delivery rule built on them.
//!
//! A faithful (slightly simplified, see below) transcription of Android's
//! implicit-intent resolution. [`Router`] is the only answer to "which
//! component receives this intent?": the runtime device routes every ICC
//! through it over its manifests' [`ComponentDecl`]s, ASE's encoder builds
//! `canReceive` from it over AME's component models, and policy
//! derivation asks it for a hijacked intent's intended recipients. Both
//! sides see a component through [`ComponentView`] (kind, class, effective
//! export, filters), so all three agree on who receives an intent. Two
//! deliberate exceptions stay outside the router:
//!
//! - passive (`setResult`) replies: the device answers a reply through the
//!   envelope's `reply_to`, and the static model through Algorithm 1's
//!   resolved target classes, not by resolution;
//! - relevance slicing's leak-channel match, a deliberate
//!   over-approximation that ignores kind and export.
//!
//! Simplification: Android's data test distinguishes scheme/authority/path
//! hierarchies; sdex intents carry at most one data type and one scheme,
//! so the test reduces to symmetric membership (an intent with data only
//! matches filters declaring that data, and a filter declaring data only
//! matches intents carrying it).
//!
//! [`Router`] indexes the installed components so an intent resolves by
//! looking up its candidates instead of scanning every installed filter.
//! That scan, `route_by_scan`, is retained as the reference the router is
//! tested against, behind the crate's test-only `reference` feature.
//!
//! An intent's strings are `Arc<str>`, so the runtime moves one across
//! the ICC bus (heap object → wire form → heap object) by refcount.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};

/// A concrete intent, as carried across the ICC bus or abstracted by AME.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IntentData {
    /// The action, if any.
    pub action: Option<Arc<str>>,
    /// Categories.
    pub categories: BTreeSet<Arc<str>>,
    /// MIME data type.
    pub data_type: Option<Arc<str>>,
    /// Data scheme.
    pub data_scheme: Option<Arc<str>>,
    /// Explicit target component (class descriptor), if any.
    pub explicit_target: Option<Arc<str>>,
    /// Extras: key to a string payload (the runtime marshals all extra
    /// values to strings when crossing the bus).
    pub extras: BTreeMap<Arc<str>, Arc<str>>,
}

impl IntentData {
    /// Creates an empty (implicit, untargeted) intent.
    pub fn new() -> IntentData {
        IntentData::default()
    }

    /// Creates an implicit intent for an action.
    pub fn for_action(action: impl Into<Arc<str>>) -> IntentData {
        IntentData {
            action: Some(action.into()),
            ..IntentData::default()
        }
    }

    /// Creates an explicit intent for a component class.
    pub fn explicit(target: impl Into<Arc<str>>) -> IntentData {
        IntentData {
            explicit_target: Some(target.into()),
            ..IntentData::default()
        }
    }

    /// Returns `true` if this intent names its receiver explicitly.
    pub fn is_explicit(&self) -> bool {
        self.explicit_target.is_some()
    }

    /// Adds an extra, builder style.
    pub fn with_extra(
        mut self,
        key: impl Into<Arc<str>>,
        value: impl Into<Arc<str>>,
    ) -> IntentData {
        self.extras.insert(key.into(), value.into());
        self
    }

    /// Adds a category, builder style.
    pub fn with_category(mut self, category: impl Into<Arc<str>>) -> IntentData {
        self.categories.insert(category.into());
        self
    }
}

/// The action test: the filter must declare at least one action, and the
/// intent's action (if present) must be among them.
pub fn action_test(intent: &IntentData, filter: &IntentFilterDecl) -> bool {
    if filter.actions.is_empty() {
        return false;
    }
    match &intent.action {
        None => true,
        Some(a) => filter.actions.iter().any(|fa| **fa == **a),
    }
}

/// The category test: every category in the intent must appear in the
/// filter.
pub fn category_test(intent: &IntentData, filter: &IntentFilterDecl) -> bool {
    intent
        .categories
        .iter()
        .all(|c| filter.categories.iter().any(|fc| **fc == **c))
}

/// The data test (see module docs for the simplification).
pub fn data_test(intent: &IntentData, filter: &IntentFilterDecl) -> bool {
    let type_ok = match &intent.data_type {
        None => filter.data_types.is_empty(),
        Some(t) => filter.data_types.iter().any(|ft| **ft == **t),
    };
    let scheme_ok = match &intent.data_scheme {
        None => filter.data_schemes.is_empty(),
        Some(s) => filter.data_schemes.iter().any(|fs| **fs == **s),
    };
    type_ok && scheme_ok
}

/// Full filter match: all three tests pass.
pub fn filter_matches(intent: &IntentData, filter: &IntentFilterDecl) -> bool {
    action_test(intent, filter) && category_test(intent, filter) && data_test(intent, filter)
}

/// Returns `true` if any of the filters matches.
pub fn any_filter_matches(intent: &IntentData, filters: &[IntentFilterDecl]) -> bool {
    filters.iter().any(|f| filter_matches(intent, f))
}

/// What intent resolution reads of an installed component.
pub trait ComponentView {
    /// The component kind.
    fn kind(&self) -> ComponentKind;
    /// The implementing class descriptor.
    fn class(&self) -> &str;
    /// Whether components of other apps may reach it (the explicit flag,
    /// or implied by declaring a filter).
    fn is_exported(&self) -> bool;
    /// The intent filters it declares.
    fn filters(&self) -> &[IntentFilterDecl];
}

impl ComponentView for ComponentDecl {
    fn kind(&self) -> ComponentKind {
        self.kind
    }

    fn class(&self) -> &str {
        &self.class
    }

    fn is_exported(&self) -> bool {
        self.is_effectively_exported()
    }

    fn filters(&self) -> &[IntentFilterDecl] {
        &self.intent_filters
    }
}

/// An installed component: (app index, index into that app's component
/// list). Routing yields slots; the caller names the component from its
/// own tables.
pub type Slot = (usize, usize);

/// One slot list per component kind, indexed by [`ComponentKind::tag`].
type ByKind = [Vec<Slot>; 4];

/// The delivery rule every candidate must pass: the right kind, and
/// exported unless sender and receiver are the same app.
fn admits(component: &impl ComponentView, kind: ComponentKind, same_app: bool) -> bool {
    component.kind() == kind && (same_app || component.is_exported())
}

/// An index over installed components answering "who may receive this
/// intent" without scanning every component.
///
/// Three lookups narrow the candidates; each candidate still passes the
/// export rule and (for implicit intents) [`any_filter_matches`], so the
/// router returns exactly what the `route_by_scan` reference returns, in
/// the same order. Slot lists are built in (app, component) order, and a
/// lookup borrows its key (`&str`) rather than building a `String`.
///
/// The class index only serves explicit intents, so it is built on the
/// first explicit lookup: a router that only ever routes implicit
/// intents (policy derivation's hijack carve-out, a device whose apps
/// only broadcast) never pays for it.
#[derive(Clone, Debug, Default)]
pub struct Router {
    /// Action → per-kind components with a filter declaring it.
    by_action: HashMap<String, ByKind>,
    /// Per kind: components with at least one filter declaring an action
    /// (an action-less intent passes [`action_test`] only on those).
    with_actions: ByKind,
    /// Components per app, in app-index order: every slot the router was
    /// built over, for the class index.
    components_per_app: Vec<usize>,
    /// Class descriptor → the first component of that class in each app
    /// (what [`separ_dex::manifest::Manifest::component`] finds); built on
    /// the first explicit lookup.
    by_class: OnceLock<HashMap<String, Vec<Slot>>>,
}

impl Router {
    /// Indexes the installed apps' components, in app-index order.
    pub fn new<'c, C, A>(apps: impl IntoIterator<Item = A>) -> Router
    where
        C: ComponentView + 'c,
        A: IntoIterator<Item = &'c C>,
    {
        let mut router = Router::default();
        for (app, components) in apps.into_iter().enumerate() {
            router.components_per_app.push(0);
            for (component, c) in components.into_iter().enumerate() {
                let slot = (app, component);
                router.components_per_app[app] += 1;
                let kind = usize::from(c.kind().tag());
                let actions = c.filters().iter().flat_map(|f| &f.actions);
                for action in actions.clone() {
                    // Looked up first: an action is copied once, when
                    // the first component declaring it is indexed.
                    let per_kind = match router.by_action.get_mut(action.as_str()) {
                        Some(per_kind) => per_kind,
                        None => router.by_action.entry(action.clone()).or_default(),
                    };
                    // One entry per component, however many of its
                    // filters declare the action.
                    if per_kind[kind].last() != Some(&slot) {
                        per_kind[kind].push(slot);
                    }
                }
                if actions.count() > 0 {
                    router.with_actions[kind].push(slot);
                }
            }
        }
        router
    }

    /// The candidates for an explicit intent naming `class`, in app
    /// order. `component` names a slot's component, as for
    /// [`Router::route`].
    fn explicit<'c, C: ComponentView + 'c>(
        &self,
        component: &impl Fn(Slot) -> &'c C,
        class: &str,
    ) -> &[Slot] {
        let by_class = self.by_class.get_or_init(|| {
            let mut by_class: HashMap<String, Vec<Slot>> = HashMap::new();
            for (app, &n) in self.components_per_app.iter().enumerate() {
                for slot in (0..n).map(|c| (app, c)) {
                    let class = component(slot).class();
                    let same_class = match by_class.get_mut(class) {
                        Some(same_class) => same_class,
                        None => by_class.entry(class.to_owned()).or_default(),
                    };
                    if same_class.last().is_none_or(|&(a, _)| a != app) {
                        same_class.push(slot);
                    }
                }
            }
            by_class
        });
        by_class.get(class).map_or(&[], Vec::as_slice)
    }

    /// The candidates for an implicit intent to a component of `kind`
    /// carrying `action` (or none), in (app, component) order.
    fn implicit(&self, kind: ComponentKind, action: Option<&str>) -> &[Slot] {
        let kind = usize::from(kind.tag());
        match action {
            Some(a) => self
                .by_action
                .get(a)
                .map_or(&[], |per_kind| &per_kind[kind]),
            None => &self.with_actions[kind],
        }
    }

    /// Appends to `out` the slots of the statically declared components
    /// of kind `kind` that receive `intent` sent by app `from_app`: the
    /// first component of the named class in each app for an explicit
    /// intent, else every component with a matching filter. `component`
    /// must return the component the router was built with at a slot.
    pub fn route<'c, C: ComponentView + 'c>(
        &self,
        component: impl Fn(Slot) -> &'c C,
        kind: ComponentKind,
        intent: &IntentData,
        from_app: Option<usize>,
        out: &mut Vec<Slot>,
    ) {
        let (slots, implicit) = match &intent.explicit_target {
            Some(target) => (self.explicit(&component, target), false),
            None => (self.implicit(kind, intent.action.as_deref()), true),
        };
        for &slot in slots {
            let c = component(slot);
            if admits(c, kind, from_app == Some(slot.0))
                && (!implicit || any_filter_matches(intent, c.filters()))
            {
                out.push(slot);
            }
        }
    }
}

/// The reference for [`Router::route`]: the same result by a linear scan
/// over every installed component. Kept as the executable specification
/// the router is tested against; the runtime never calls it. Test-only.
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub fn route_by_scan<'c, C, A>(
    apps: impl IntoIterator<Item = A>,
    kind: ComponentKind,
    intent: &IntentData,
    from_app: Option<usize>,
    out: &mut Vec<Slot>,
) where
    C: ComponentView + 'c,
    A: IntoIterator<Item = &'c C>,
{
    for (app, components) in apps.into_iter().enumerate() {
        let same_app = from_app == Some(app);
        let mut components = components.into_iter().enumerate();
        if let Some(target) = &intent.explicit_target {
            // The first component of the class, as `Manifest::component`.
            let named = components.find(|(_, c)| c.class() == &**target);
            if let Some((component, c)) = named {
                if admits(c, kind, same_app) {
                    out.push((app, component));
                }
            }
            continue;
        }
        for (component, c) in components {
            if admits(c, kind, same_app) && any_filter_matches(intent, c.filters()) {
                out.push((app, component));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(actions: &[&str]) -> IntentFilterDecl {
        IntentFilterDecl::for_actions(actions.iter().copied())
    }

    #[test]
    fn action_test_requires_declared_actions() {
        let empty = IntentFilterDecl::default();
        let i = IntentData::for_action("showLoc");
        assert!(!action_test(&i, &empty), "empty filter matches nothing");
        assert!(action_test(&i, &filter(&["showLoc"])));
        assert!(!action_test(&i, &filter(&["other"])));
        // Actionless intent passes any filter with actions.
        let actionless = IntentData::new();
        assert!(action_test(&actionless, &filter(&["x"])));
    }

    #[test]
    fn category_test_is_subset() {
        let mut f = filter(&["a"]);
        f.categories = vec!["android.intent.category.DEFAULT".into()];
        let plain = IntentData::for_action("a");
        assert!(category_test(&plain, &f), "no categories always passes");
        let with_cat = IntentData::for_action("a").with_category("android.intent.category.DEFAULT");
        assert!(category_test(&with_cat, &f));
        let extra_cat = IntentData::for_action("a").with_category("other");
        assert!(!category_test(&extra_cat, &f));
    }

    #[test]
    fn data_test_is_symmetric_membership() {
        let mut f = filter(&["a"]);
        let plain = IntentData::for_action("a");
        assert!(data_test(&plain, &f));
        f.data_types = vec!["text/plain".into()];
        assert!(
            !data_test(&plain, &f),
            "filter demands data, intent has none"
        );
        let mut typed = IntentData::for_action("a");
        typed.data_type = Some("text/plain".into());
        assert!(data_test(&typed, &f));
        typed.data_type = Some("image/png".into());
        assert!(!data_test(&typed, &f));
        // Scheme dimension.
        let mut schemed = IntentData::for_action("a");
        schemed.data_scheme = Some("https".into());
        let mut f2 = filter(&["a"]);
        assert!(
            !data_test(&schemed, &f2),
            "intent has scheme, filter doesn't"
        );
        f2.data_schemes = vec!["https".into()];
        assert!(data_test(&schemed, &f2));
    }

    #[test]
    fn full_match_composes_all_tests() {
        let mut f = filter(&["com.app.GO"]);
        f.categories = vec!["android.intent.category.DEFAULT".into()];
        let good =
            IntentData::for_action("com.app.GO").with_category("android.intent.category.DEFAULT");
        assert!(filter_matches(&good, &f));
        let bad_action = IntentData::for_action("com.app.STOP");
        assert!(!filter_matches(&bad_action, &f));
        assert!(any_filter_matches(&good, &[filter(&["x"]), f.clone()]));
        assert!(!any_filter_matches(&bad_action, &[f]));
    }

    fn routed(
        apps: &[Vec<ComponentDecl>],
        kind: ComponentKind,
        intent: &IntentData,
        from_app: Option<usize>,
    ) -> Vec<(usize, String)> {
        let mut indexed = Vec::new();
        let component = |(app, c): Slot| &apps[app][c];
        Router::new(apps).route(component, kind, intent, from_app, &mut indexed);
        let mut scanned = Vec::new();
        route_by_scan(apps, kind, intent, from_app, &mut scanned);
        assert_eq!(indexed, scanned, "router and scan disagree on {intent:?}");
        indexed
            .into_iter()
            .map(|(app, c)| (app, apps[app][c].class.clone()))
            .collect()
    }

    #[test]
    fn router_matches_the_scan() {
        let mut svc = ComponentDecl::new("LSvc;", ComponentKind::Service);
        svc.intent_filters.push(filter(&["GO", "STOP"]));
        svc.intent_filters.push(filter(&["GO"]));
        let mut private = ComponentDecl::new("LPriv;", ComponentKind::Service);
        private.exported = Some(false);
        private.intent_filters.push(filter(&["GO"]));
        let mut rec = ComponentDecl::new("LRec;", ComponentKind::Receiver);
        rec.intent_filters.push(filter(&["GO"]));
        let silent = ComponentDecl::new("LSilent;", ComponentKind::Service);
        let apps = [vec![svc.clone(), private, rec], vec![svc, silent]];
        let go = IntentData::for_action("GO");
        let svc_a = (0, "LSvc;".to_string());
        let svc_b = (1, "LSvc;".to_string());
        assert_eq!(
            routed(&apps, ComponentKind::Service, &go, Some(1)),
            vec![svc_a.clone(), svc_b.clone()],
            "a component with the action in two filters is routed once"
        );
        assert_eq!(
            routed(&apps, ComponentKind::Service, &go, Some(0)),
            vec![svc_a.clone(), (0, "LPriv;".into()), svc_b.clone()],
            "same-app senders reach unexported components"
        );
        assert_eq!(
            routed(&apps, ComponentKind::Service, &IntentData::new(), None),
            vec![svc_a, svc_b],
            "an action-less intent reaches every component declaring an action"
        );
        assert!(routed(&apps, ComponentKind::Activity, &go, None).is_empty());
        assert!(routed(
            &apps,
            ComponentKind::Service,
            &IntentData::for_action("NONE"),
            None
        )
        .is_empty());
        let explicit = IntentData::explicit("LSilent;");
        assert!(routed(&apps, ComponentKind::Service, &explicit, Some(0)).is_empty());
        assert_eq!(
            routed(&apps, ComponentKind::Service, &explicit, Some(1)),
            vec![(1, "LSilent;".into())]
        );
        assert!(routed(
            &apps,
            ComponentKind::Service,
            &IntentData::explicit("LNone;"),
            None
        )
        .is_empty());
    }

    #[test]
    fn explicit_intents_reach_the_first_component_of_the_class() {
        let activity = ComponentDecl::new("LDup;", ComponentKind::Activity);
        let mut service = ComponentDecl::new("LDup;", ComponentKind::Service);
        service.exported = Some(true);
        let apps = [vec![activity, service.clone()], vec![service]];
        let explicit = IntentData::explicit("LDup;");
        assert_eq!(
            routed(&apps, ComponentKind::Service, &explicit, Some(0)),
            vec![(1, "LDup;".into())],
            "app 0's second `LDup;` is shadowed by its first"
        );
        assert_eq!(
            routed(&apps, ComponentKind::Activity, &explicit, Some(0)),
            vec![(0, "LDup;".into())]
        );
    }

    #[test]
    fn builders_compose() {
        let i = IntentData::explicit("Lcom/x/Svc;").with_extra("k", "v");
        assert!(i.is_explicit());
        assert_eq!(i.extras.get("k").map(|v| &**v), Some("v"));
    }
}
