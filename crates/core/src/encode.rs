//! Encoding app bundles into relational-logic problems.
//!
//! This is the composition step of the paper's ASE (Figure 3): the Android
//! framework meta-model (Listing 3) becomes typed, bounded relations; each
//! extracted app model (Listing 4) becomes exact tuple bounds; and one
//! *postulated malicious app* contributes free relations (its intent
//! filter's actions, its intent's target/extras/action) that the
//! constraint solver is free to configure — mimicking the adversary.
//!
//! Resolution between *known* intents and *known* components is
//! precomputed by the device's own delivery rule, a
//! [`resolution::Router`] over the bundle's component models, and encoded
//! as the exact `canReceive` relation; only passive replies keep
//! Algorithm 1's class rule. Everything involving the malicious app stays
//! symbolic, which keeps the SAT search focused on adversary
//! capabilities, exactly the synthesis question the paper asks.

use std::collections::BTreeMap;

use separ_analysis::model::AppModel;
use separ_android::resolution;
use separ_android::types::Resource;
use separ_dex::manifest::ComponentKind;
use separ_logic::{
    Atom, Problem, RelationDecl, RelationId, TranslationBase, Tuple, TupleSet, Universe,
};

/// Index of a component within a bundle: `(app index, component index)`.
pub type CompIdx = (usize, usize);

/// Index of an intent entity: `(app index, component index, intent index)`.
pub type IntentIdx = (usize, usize, usize);

/// Atom registry mapping bundle entities to universe atoms and back.
#[derive(Debug)]
pub struct AtomRegistry {
    /// One atom per app.
    pub apps: Vec<Atom>,
    /// The postulated malicious app.
    pub mal_app: Atom,
    /// One atom per component.
    pub components: Vec<(CompIdx, Atom)>,
    /// The postulated malicious component.
    pub mal_comp: Atom,
    /// One atom per sent-intent entity.
    pub intents: Vec<(IntentIdx, Atom)>,
    /// The postulated malicious intent.
    pub mal_intent: Atom,
    /// The postulated malicious intent filter.
    pub mal_filter: Atom,
    /// Action atoms by name.
    pub actions: BTreeMap<String, Atom>,
    /// Resource atoms.
    pub resources: BTreeMap<Resource, Atom>,
    /// Permission atoms by name.
    pub permissions: BTreeMap<String, Atom>,
}

impl AtomRegistry {
    /// The component index an atom denotes, if it is a real component.
    pub fn component_of(&self, atom: Atom) -> Option<CompIdx> {
        self.components
            .iter()
            .find(|&&(_, a)| a == atom)
            .map(|&(i, _)| i)
    }

    /// The intent entity an atom denotes, if real.
    pub fn intent_of(&self, atom: Atom) -> Option<IntentIdx> {
        self.intents
            .iter()
            .find(|&&(_, a)| a == atom)
            .map(|&(i, _)| i)
    }

    /// The atom of a real component.
    pub fn atom_of_component(&self, idx: CompIdx) -> Option<Atom> {
        self.components
            .iter()
            .find(|&&(i, _)| i == idx)
            .map(|&(_, a)| a)
    }

    /// The action name an atom denotes.
    pub fn action_of(&self, atom: Atom) -> Option<&str> {
        self.actions
            .iter()
            .find(|&(_, &a)| a == atom)
            .map(|(n, _)| n.as_str())
    }

    /// The resource an atom denotes.
    pub fn resource_of(&self, atom: Atom) -> Option<Resource> {
        self.resources
            .iter()
            .find(|&(_, &a)| a == atom)
            .map(|(&r, _)| r)
    }

    /// The permission an atom denotes.
    pub fn permission_of(&self, atom: Atom) -> Option<&str> {
        self.permissions
            .iter()
            .find(|&(_, &a)| a == atom)
            .map(|(n, _)| n.as_str())
    }
}

/// Relation ids of the encoded meta-model.
#[derive(Debug, Clone, Copy)]
pub struct Relations {
    /// All component atoms (unary).
    pub component: RelationId,
    /// Installed (real) apps (unary).
    pub installed: RelationId,
    /// Exported components (unary).
    pub exported: RelationId,
    /// `Component -> Application`.
    pub cmp_app: RelationId,
    /// `Intent -> Component` (sender).
    pub sender: RelationId,
    /// `Intent -> Action`.
    pub intent_action: RelationId,
    /// `Intent -> Resource` (extras payload).
    pub extras: RelationId,
    /// `Intent -> Component`: who can receive it (exact for real intents,
    /// free for the malicious one).
    pub can_receive: RelationId,
    /// `IntentFilter(Mal) -> Action`: the malicious filter's actions.
    pub mal_filter_actions: RelationId,
    /// `Component -> Resource`: source ends of sensitive paths.
    pub path_source_of: RelationId,
    /// `Component -> Resource`: sink ends of sensitive paths.
    pub path_sink_of: RelationId,
    /// `Component -> Resource -> Resource`: full (source, sink) paths.
    pub path_of: RelationId,
    /// `Component -> Permission`: enforced (manifest or reachable dynamic
    /// check).
    pub enforces: RelationId,
    /// `Component -> Permission`: exercised by reachable API calls.
    pub uses_perm: RelationId,
    /// `Application -> Permission`: granted at install.
    pub app_perms: RelationId,
    /// Unary: resources that are sensitive sources (excl. ICC).
    pub source_res: RelationId,
    /// Unary: resources that are real sinks (excl. ICC).
    pub sink_res: RelationId,
    /// Unary: the ICC resource singleton.
    pub icc_res: RelationId,
    /// Unary: real intents that can be hijacked (implicit, broadcast-style
    /// delivery).
    pub hijackable: RelationId,
    /// Unary: real Activity components.
    pub activities: RelationId,
    /// Unary: real Service components.
    pub services: RelationId,
    /// Unary: real BroadcastReceiver components.
    pub receivers: RelationId,
    /// Unary: real ContentProvider components.
    pub providers: RelationId,
    /// `Component -> Action`: actions accepted by a component's static
    /// filters.
    pub comp_filter_actions: RelationId,
    /// Unary: actions that are protected system broadcasts.
    pub protected_actions: RelationId,
}

/// The encoded bundle: problem + registries.
#[derive(Debug)]
pub struct Encoded {
    /// The relational problem (facts may be added by signatures).
    pub problem: Problem,
    /// Atom registry.
    pub atoms: AtomRegistry,
    /// Relation registry.
    pub rels: Relations,
}

/// A bundle encoding paired with its reusable translation base.
///
/// The bundle-common part of every signature's problem — universe, bounds
/// and the leaf matrices they induce — is identical across signatures, so
/// the pipeline builds it once per bundle and every signature clones the
/// [`Problem`] and translates from the shared [`TranslationBase`] instead
/// of redoing the leaf translation. Witness relations a signature appends
/// afterwards translate lazily on top of the shared prefix.
#[derive(Debug)]
pub struct BundleBase {
    encoded: Encoded,
    base: TranslationBase,
}

impl BundleBase {
    /// Encodes `apps` and builds the shared translation base.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn new(apps: &[AppModel]) -> BundleBase {
        let encoded = encode_bundle(apps);
        let base = encoded.problem.translation_base();
        BundleBase { encoded, base }
    }

    /// Encodes `apps`, lets `tighten` shrink relation upper bounds via
    /// [`Problem::tighten_upper`] (the relevance-slicing hook: drop free
    /// rows the caller knows no fact can force true), then builds the
    /// translation base over the tightened bounds. The tightening must
    /// run *before* base construction — leaf matrices allocate one
    /// circuit input per free tuple, so bounds shrunk afterwards would
    /// not reduce the CNF.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn new_with(
        apps: &[AppModel],
        tighten: impl FnOnce(&mut Problem, &AtomRegistry, &Relations),
    ) -> BundleBase {
        let mut encoded = encode_bundle(apps);
        tighten(&mut encoded.problem, &encoded.atoms, &encoded.rels);
        let base = encoded.problem.translation_base();
        BundleBase { encoded, base }
    }

    /// A fresh copy of the encoded problem for one signature to extend
    /// with witness relations and facts.
    pub fn problem(&self) -> Problem {
        self.encoded.problem.clone()
    }

    /// The bundle's atom registry.
    pub fn atoms(&self) -> &AtomRegistry {
        &self.encoded.atoms
    }

    /// The bundle's relation registry.
    pub fn rels(&self) -> &Relations {
        &self.encoded.rels
    }

    /// The shared, fact-independent translation of the bundle relations.
    pub fn base(&self) -> &TranslationBase {
        &self.base
    }
}

/// Encoding tunables.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOptions {
    /// Restrict the malicious intent's possible receivers to *exported*
    /// components. The paper notes that eliminating private components
    /// from inter-app analysis contributes to scalability; turning this
    /// off is the ablation (results are unchanged because every shipped
    /// signature independently requires exported victims, but the SAT
    /// problem grows).
    pub restrict_mal_to_exported: bool,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            restrict_mal_to_exported: true,
        }
    }
}

/// Encodes a bundle of extracted app models with default options.
///
/// # Panics
///
/// Panics if `apps` is empty.
pub fn encode_bundle(apps: &[AppModel]) -> Encoded {
    encode_bundle_with(apps, EncodeOptions::default())
}

/// Encodes a bundle with explicit options.
///
/// # Panics
///
/// Panics if `apps` is empty.
pub fn encode_bundle_with(apps: &[AppModel], options: EncodeOptions) -> Encoded {
    assert!(!apps.is_empty(), "cannot encode an empty bundle");
    let mut universe = Universe::new();
    // --- atoms ---
    let app_atoms: Vec<Atom> = apps
        .iter()
        .enumerate()
        .map(|(i, a)| universe.add(format!("App{}#{}", i, a.package)))
        .collect();
    let mal_app = universe.add("MalApp");
    let mut component_atoms = Vec::new();
    // App `ai`'s components start at `component_atoms[first_component[ai]]`.
    let mut first_component = Vec::with_capacity(apps.len());
    let mut intent_atoms = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        first_component.push(component_atoms.len());
        for (ci, c) in app.components.iter().enumerate() {
            component_atoms.push((
                (ai, ci),
                universe.add(format!("Cmp{}_{}#{}", ai, ci, c.class)),
            ));
            for (ii, _) in c.sent_intents.iter().enumerate() {
                intent_atoms.push((
                    (ai, ci, ii),
                    universe.add(format!("Intent{}_{}_{}", ai, ci, ii)),
                ));
            }
        }
    }
    let mal_comp = universe.add("MalComp");
    let mal_intent = universe.add("MalIntent");
    let mal_filter = universe.add("MalFilter");

    let mut actions: BTreeMap<String, Atom> = BTreeMap::new();
    for app in apps {
        for c in &app.components {
            for f in &c.filters {
                for a in &f.actions {
                    actions
                        .entry(a.clone())
                        .or_insert_with(|| universe.add(format!("Act#{a}")));
                }
            }
            for i in &c.sent_intents {
                if let Some(a) = &i.action {
                    actions
                        .entry(a.clone())
                        .or_insert_with(|| universe.add(format!("Act#{a}")));
                }
            }
        }
    }
    let mut resources: BTreeMap<Resource, Atom> = BTreeMap::new();
    for r in Resource::ALL {
        resources.insert(r, universe.add(format!("Res#{}", r.name())));
    }
    let mut permissions: BTreeMap<String, Atom> = BTreeMap::new();
    for app in apps {
        for p in app
            .uses_permissions
            .iter()
            .chain(app.defines_permissions.iter())
        {
            permissions
                .entry(p.clone())
                .or_insert_with(|| universe.add(format!("Perm#{p}")));
        }
        for c in &app.components {
            for p in c
                .used_permissions
                .iter()
                .chain(c.dynamic_checks.iter())
                .chain(c.enforced_permission.iter())
            {
                permissions
                    .entry(p.clone())
                    .or_insert_with(|| universe.add(format!("Perm#{p}")));
            }
        }
    }

    let mut problem = Problem::new(universe);

    // --- helper sets ---
    let all_components: Vec<Atom> = component_atoms.iter().map(|&(_, a)| a).collect();
    let comp_unary = {
        let mut ts = TupleSet::unary_from(all_components.iter().copied());
        ts.insert(Tuple::unary(mal_comp));
        ts
    };

    let component_atom = |(ai, ci): CompIdx| component_atoms[first_component[ai] + ci].1;
    // class descriptor -> component atoms, for passive replies (there may
    // be same-class components in different apps).
    let mut by_class: BTreeMap<&str, Vec<(CompIdx, Atom)>> = BTreeMap::new();
    for &((ai, ci), atom) in &component_atoms {
        by_class
            .entry(apps[ai].components[ci].class.as_str())
            .or_default()
            .push(((ai, ci), atom));
    }

    // --- relations ---
    let component = problem.relation(RelationDecl::exact("Component", comp_unary));
    let installed = problem.relation(RelationDecl::exact(
        "installed",
        TupleSet::unary_from(app_atoms.iter().copied()),
    ));
    let exported = {
        let mut ts = TupleSet::new(1);
        for &((ai, ci), atom) in &component_atoms {
            if apps[ai].components[ci].exported {
                ts.insert(Tuple::unary(atom));
            }
        }
        ts.insert(Tuple::unary(mal_comp));
        problem.relation(RelationDecl::exact("exported", ts))
    };
    let cmp_app = {
        let mut ts = TupleSet::new(2);
        for &((ai, _), atom) in &component_atoms {
            ts.insert(Tuple::binary(atom, app_atoms[ai]));
        }
        ts.insert(Tuple::binary(mal_comp, mal_app));
        problem.relation(RelationDecl::exact("app", ts))
    };
    let sender = {
        let mut ts = TupleSet::new(2);
        for &((ai, ci, _), atom) in &intent_atoms {
            ts.insert(Tuple::binary(atom, component_atom((ai, ci))));
        }
        ts.insert(Tuple::binary(mal_intent, mal_comp));
        problem.relation(RelationDecl::exact("sender", ts))
    };
    let intent_action = {
        let mut lower = TupleSet::new(2);
        let mut upper = TupleSet::new(2);
        for &((ai, ci, ii), atom) in &intent_atoms {
            if let Some(a) = &apps[ai].components[ci].sent_intents[ii].action {
                let t = Tuple::binary(atom, actions[a]);
                lower.insert(t.clone());
                upper.insert(t);
            }
        }
        // The malicious intent's action is the solver's choice.
        for &a in actions.values() {
            upper.insert(Tuple::binary(mal_intent, a));
        }
        problem.relation(RelationDecl::new("action", lower, upper))
    };
    let extras = {
        let mut lower = TupleSet::new(2);
        let mut upper = TupleSet::new(2);
        for &((ai, ci, ii), atom) in &intent_atoms {
            for &t in &apps[ai].components[ci].sent_intents[ii].extra_taints {
                let tup = Tuple::binary(atom, resources[&t]);
                lower.insert(tup.clone());
                upper.insert(tup);
            }
        }
        for &r in resources.values() {
            upper.insert(Tuple::binary(mal_intent, r));
        }
        problem.relation(RelationDecl::new("extras", lower, upper))
    };

    // Precompute real-intent resolution.
    let can_receive = {
        let router = resolution::Router::new(apps.iter().map(|a| &a.components));
        let component = |(ai, ci): CompIdx| &apps[ai].components[ci];
        let mut slots = Vec::new();
        let mut lower = TupleSet::new(2);
        for &((ai, ci, ii), iatom) in &intent_atoms {
            let intent = &apps[ai].components[ci].sent_intents[ii];
            if intent.is_passive {
                // The device does not resolve a reply: it answers it
                // through the envelope's `reply_to`, which Algorithm 1's
                // resolved target classes stand for.
                for target_class in &intent.resolved_targets {
                    if let Some(cands) = by_class.get(target_class.as_str()) {
                        for &(_, catom) in cands {
                            lower.insert(Tuple::binary(iatom, catom));
                        }
                    }
                }
                continue;
            }
            let Some(kind) = intent.via.receiving_kind() else {
                continue;
            };
            slots.clear();
            let data = intent.as_intent_data();
            router.route(component, kind, &data, Some(ai), &mut slots);
            for &slot in &slots {
                lower.insert(Tuple::binary(iatom, component_atom(slot)));
            }
        }
        let mut upper = lower.clone();
        // The malicious intent may be aimed at any real component — or,
        // under the paper's private-component elimination, only exported
        // ones.
        for &((ai, ci), a) in &component_atoms {
            if options.restrict_mal_to_exported && !apps[ai].components[ci].exported {
                continue;
            }
            upper.insert(Tuple::binary(mal_intent, a));
        }
        problem.relation(RelationDecl::new("canReceive", lower, upper))
    };
    let mal_filter_actions = {
        let upper = TupleSet::binary_from(actions.values().map(|&a| (mal_filter, a)));
        problem.relation(RelationDecl::free("malFilterActions", upper))
    };

    // Paths, flattened to (component, source resource) / (component, sink
    // resource) plus the full ternary relation.
    let (path_source_of, path_sink_of, path_of) = {
        let mut src = TupleSet::new(2);
        let mut snk = TupleSet::new(2);
        let mut full = TupleSet::new(3);
        for &((ai, ci), catom) in &component_atoms {
            for p in &apps[ai].components[ci].paths {
                src.insert(Tuple::binary(catom, resources[&p.source]));
                snk.insert(Tuple::binary(catom, resources[&p.sink]));
                full.insert(Tuple::ternary(
                    catom,
                    resources[&p.source],
                    resources[&p.sink],
                ));
            }
        }
        (
            problem.relation(RelationDecl::exact("pathSource", src)),
            problem.relation(RelationDecl::exact("pathSink", snk)),
            problem.relation(RelationDecl::exact("path", full)),
        )
    };
    let enforces = {
        let mut ts = TupleSet::new(2);
        for &((ai, ci), catom) in &component_atoms {
            let c = &apps[ai].components[ci];
            for p in c.enforced_permission.iter().chain(c.dynamic_checks.iter()) {
                ts.insert(Tuple::binary(catom, permissions[p]));
            }
        }
        problem.relation(RelationDecl::exact("enforces", ts))
    };
    let uses_perm = {
        let mut ts = TupleSet::new(2);
        for &((ai, ci), catom) in &component_atoms {
            for p in &apps[ai].components[ci].used_permissions {
                if let Some(&pa) = permissions.get(p) {
                    ts.insert(Tuple::binary(catom, pa));
                }
            }
        }
        problem.relation(RelationDecl::exact("usesPerm", ts))
    };
    let app_perms = {
        let mut ts = TupleSet::new(2);
        for (ai, app) in apps.iter().enumerate() {
            for p in &app.uses_permissions {
                if let Some(&pa) = permissions.get(p) {
                    ts.insert(Tuple::binary(app_atoms[ai], pa));
                }
            }
        }
        problem.relation(RelationDecl::exact("appPerms", ts))
    };
    let source_res = problem.relation(RelationDecl::exact(
        "SourceRes",
        TupleSet::unary_from(
            Resource::ALL
                .into_iter()
                .filter(|r| r.is_source() && *r != Resource::Icc)
                .map(|r| resources[&r]),
        ),
    ));
    let sink_res = problem.relation(RelationDecl::exact(
        "SinkRes",
        TupleSet::unary_from(
            Resource::ALL
                .into_iter()
                .filter(|r| r.is_sink() && *r != Resource::Icc)
                .map(|r| resources[&r]),
        ),
    ));
    let icc_res = problem.relation(RelationDecl::exact(
        "IccRes",
        TupleSet::unary_from([resources[&Resource::Icc]]),
    ));
    let hijackable = {
        let mut ts = TupleSet::new(1);
        for &((ai, ci, ii), atom) in &intent_atoms {
            if apps[ai].components[ci].sent_intents[ii].is_hijackable() {
                ts.insert(Tuple::unary(atom));
            }
        }
        problem.relation(RelationDecl::exact("hijackable", ts))
    };

    let kind_rel = |kind: ComponentKind, name: &str, problem: &mut Problem| {
        let mut ts = TupleSet::new(1);
        for &((ai, ci), catom) in &component_atoms {
            if apps[ai].components[ci].kind == kind {
                ts.insert(Tuple::unary(catom));
            }
        }
        problem.relation(RelationDecl::exact(name, ts))
    };
    let activities = kind_rel(ComponentKind::Activity, "Activity", &mut problem);
    let services = kind_rel(ComponentKind::Service, "Service", &mut problem);
    let receivers = kind_rel(ComponentKind::Receiver, "Receiver", &mut problem);
    let providers = kind_rel(ComponentKind::Provider, "Provider", &mut problem);

    // Name-addressable domain relations for textual signatures (the spec
    // DSL resolves identifiers through `Problem::relation_by_name`).
    problem.relation(RelationDecl::exact(
        "Application",
        TupleSet::unary_from(app_atoms.iter().copied()),
    ));
    problem.relation(RelationDecl::exact(
        "Intent",
        TupleSet::unary_from(intent_atoms.iter().map(|&(_, a)| a)),
    ));
    problem.relation(RelationDecl::exact(
        "Action",
        TupleSet::unary_from(actions.values().copied()),
    ));
    problem.relation(RelationDecl::exact(
        "Permission",
        TupleSet::unary_from(permissions.values().copied()),
    ));
    problem.relation(RelationDecl::exact(
        "Resource",
        TupleSet::unary_from(resources.values().copied()),
    ));
    let comp_filter_actions = {
        let mut ts = TupleSet::new(2);
        for &((ai, ci), catom) in &component_atoms {
            for f in &apps[ai].components[ci].filters {
                for a in &f.actions {
                    if let Some(&aatom) = actions.get(a) {
                        ts.insert(Tuple::binary(catom, aatom));
                    }
                }
            }
        }
        problem.relation(RelationDecl::exact("filterActions", ts))
    };
    let protected_actions = {
        let mut ts = TupleSet::new(1);
        for (name, &atom) in &actions {
            if separ_android::types::is_protected_broadcast(name) {
                ts.insert(Tuple::unary(atom));
            }
        }
        problem.relation(RelationDecl::exact("ProtectedAction", ts))
    };

    Encoded {
        problem,
        atoms: AtomRegistry {
            apps: app_atoms,
            mal_app,
            components: component_atoms,
            mal_comp,
            intents: intent_atoms,
            mal_intent,
            mal_filter,
            actions,
            resources,
            permissions,
        },
        rels: Relations {
            component,
            installed,
            exported,
            cmp_app,
            sender,
            intent_action,
            extras,
            can_receive,
            mal_filter_actions,
            path_source_of,
            path_sink_of,
            path_of,
            enforces,
            uses_perm,
            app_perms,
            source_res,
            sink_res,
            icc_res,
            hijackable,
            activities,
            services,
            receivers,
            providers,
            comp_filter_actions,
            protected_actions,
        },
    }
}

/// Hand-construction helpers for app models, shared by the crate's tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use std::collections::BTreeSet;

    use separ_analysis::model::{AppModel, ComponentModel, ExtractionStats, SentIntentModel};
    use separ_android::api::IccMethod;
    use separ_android::types::Resource;
    use separ_dex::manifest::ComponentKind;

    /// A sent-intent entity.
    pub fn sent(action: Option<&str>, via: IccMethod, taints: &[Resource]) -> SentIntentModel {
        SentIntentModel {
            via,
            action: action.map(String::from),
            categories: BTreeSet::new(),
            data_type: None,
            data_scheme: None,
            explicit_target: None,
            extra_keys: BTreeSet::new(),
            extra_taints: taints.iter().copied().collect(),
            requests_result: via.requests_result(),
            is_passive: via == IccMethod::SetResult,
            resolved_targets: BTreeSet::new(),
        }
    }

    /// A bare component model.
    pub fn comp(class: &str, kind: ComponentKind) -> ComponentModel {
        ComponentModel {
            class: class.into(),
            kind,
            exported: false,
            filters: vec![],
            enforced_permission: None,
            dynamic_checks: BTreeSet::new(),
            paths: BTreeSet::new(),
            sent_intents: vec![],
            used_permissions: BTreeSet::new(),
            registers_dynamically: false,
        }
    }

    /// A bare app model.
    pub fn app(package: &str, components: Vec<ComponentModel>) -> AppModel {
        AppModel {
            package: package.into(),
            components,
            uses_permissions: BTreeSet::new(),
            defines_permissions: BTreeSet::new(),
            diagnostics: Vec::new(),
            stats: ExtractionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{app, comp, sent};
    use super::*;
    use separ_android::api::IccMethod;
    use separ_android::types::FlowPath;
    use separ_dex::manifest::IntentFilterDecl;

    /// Two apps mirroring the motivating example shapes.
    fn nav_and_messenger() -> Vec<AppModel> {
        let mut sender_cmp = comp("LLocationFinder;", ComponentKind::Service);
        sender_cmp
            .paths
            .insert(FlowPath::new(Resource::Location, Resource::Icc));
        sender_cmp.sent_intents.push(sent(
            Some("showLoc"),
            IccMethod::StartService,
            &[Resource::Location],
        ));
        let mut route = comp("LRouteFinder;", ComponentKind::Service);
        route
            .filters
            .push(IntentFilterDecl::for_actions(["showLoc"]));
        route.exported = true;

        let mut receiver_cmp = comp("LMessageSender;", ComponentKind::Service);
        receiver_cmp.exported = true;
        receiver_cmp
            .paths
            .insert(FlowPath::new(Resource::Icc, Resource::Sms));
        receiver_cmp
            .used_permissions
            .insert(separ_android::types::perm::SEND_SMS.to_string());

        let mut app2 = app("com.messenger", vec![receiver_cmp]);
        app2.uses_permissions
            .insert(separ_android::types::perm::SEND_SMS.to_string());
        vec![app("com.nav", vec![sender_cmp, route]), app2]
    }

    #[test]
    fn encoding_precomputes_real_resolution() {
        let apps = nav_and_messenger();
        let enc = encode_bundle(&apps);
        // The showLoc intent can be received by RouteFinder (matching
        // filter, same app).
        let intent_atom = enc.atoms.intents[0].1;
        let route_atom = enc.atoms.atom_of_component((0, 1)).expect("route");
        let decl = enc.problem.decl(enc.rels.can_receive);
        assert!(decl
            .lower()
            .contains(&Tuple::binary(intent_atom, route_atom)));
        // And the malicious intent may reach any real component.
        let msg_atom = enc.atoms.atom_of_component((1, 0)).expect("messenger");
        assert!(decl
            .upper()
            .contains(&Tuple::binary(enc.atoms.mal_intent, msg_atom)));
        assert!(!decl
            .lower()
            .contains(&Tuple::binary(enc.atoms.mal_intent, msg_atom)));
    }

    #[test]
    fn hijackable_marks_implicit_sends_only() {
        let apps = nav_and_messenger();
        let enc = encode_bundle(&apps);
        let decl = enc.problem.decl(enc.rels.hijackable);
        assert_eq!(decl.lower().len(), 1, "only the showLoc implicit intent");
    }

    #[test]
    fn mal_relations_are_free() {
        let apps = nav_and_messenger();
        let enc = encode_bundle(&apps);
        let mfa = enc.problem.decl(enc.rels.mal_filter_actions);
        assert!(mfa.lower().is_empty());
        assert_eq!(mfa.upper().len(), 1, "one known action: showLoc");
        let extras = enc.problem.decl(enc.rels.extras);
        // Mal intent may carry any of the 19 resources.
        let mal_rows = extras
            .upper()
            .iter()
            .filter(|t| t.atoms()[0] == enc.atoms.mal_intent)
            .count();
        assert_eq!(mal_rows, Resource::ALL.len());
    }

    #[test]
    fn registry_lookups_round_trip() {
        let apps = nav_and_messenger();
        let enc = encode_bundle(&apps);
        let (idx, atom) = enc.atoms.components[0];
        assert_eq!(enc.atoms.component_of(atom), Some(idx));
        assert_eq!(enc.atoms.atom_of_component(idx), Some(atom));
        let (&res, &ratom) = enc.atoms.resources.iter().next().expect("resources");
        assert_eq!(enc.atoms.resource_of(ratom), Some(res));
        let (aname, &aatom) = enc.atoms.actions.iter().next().expect("actions");
        assert_eq!(enc.atoms.action_of(aatom), Some(aname.as_str()));
    }

    #[test]
    fn cross_app_explicit_intents_respect_export_rules() {
        // Explicit intent to a non-exported component in another app must
        // not resolve.
        let mut a = comp("LSender;", ComponentKind::Activity);
        let mut i = sent(None, IccMethod::StartService, &[]);
        i.explicit_target = Some("LPrivate;".into());
        a.sent_intents.push(i);
        let private = comp("LPrivate;", ComponentKind::Service); // not exported
        let apps = vec![app("a", vec![a]), app("b", vec![private])];
        let enc = encode_bundle(&apps);
        assert!(enc.problem.decl(enc.rels.can_receive).lower().is_empty());
    }
}
