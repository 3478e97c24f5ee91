//! Signature-guided relevance slicing — a sound static pre-analysis that
//! shrinks the relational universe before synthesis.
//!
//! Every vulnerability signature constrains its witnesses with facts that
//! can only ever be satisfied by apps exhibiting specific *capabilities*:
//! an intent-hijacking victim must send an implicit, source-tainted
//! intent; a launchable victim must export an Activity/Service with an
//! ICC entry path; and so on. At market scale almost no app exhibits any
//! given capability, yet the encoder translates every signature against
//! the whole bundle. This module computes, once per bundle, a per-app /
//! per-component [`AppSummary`] of those capabilities (exported surface,
//! intent-filter resolution via [`separ_android::resolution`], permission
//! requirements and grants, taint-source reachability into ICC sinks from
//! the extracted flow paths) and lets each signature declare — through a
//! `SignatureFootprint` in `separ-core` — the [`SliceDemand`]s its
//! relational atoms range over. Intersecting the two yields the *slice*:
//! the subset of apps that can possibly participate in a minimal model of
//! that signature.
//!
//! # Soundness
//!
//! Every demand predicate is a per-app (or existential cross-app)
//! **over-approximation** of the corresponding signature facts: it
//! ignores component kinds, export restrictions and multiplicities that
//! the facts additionally impose, so it can only keep *more* apps than
//! strictly necessary. Two structural properties make dropping the rest
//! sound:
//!
//! 1. The bundle encoding asserts **no facts** — all constraints come
//!    from the signature. Relation rows of dropped apps are therefore
//!    unconstrained, and rows the signature's facts never force true are
//!    false in every *minimal* model. Removing those apps (and their
//!    atoms/rows) from the universe leaves the minimal-model set of the
//!    signature's facts unchanged.
//! 2. Intent resolution ([`crate::model::update_passive_intent_targets`]
//!    and the encoder's `canReceive` construction, a
//!    [`separ_android::resolution::Router`] over the bundle) is
//!    *pair-local*: a `(intent, component)` row exists based only on the
//!    sending and receiving app, never on third apps (an explicit
//!    intent's first-of-class lookup is per app). So re-encoding an app
//!    subset preserves exactly the rows among kept apps.
//!
//! Monotonicity follows from the same shape: demand predicates are
//! existential over the bundle, so installing an app can only grow every
//! slice, never evict a member — `tests/slicing_equivalence.rs` asserts
//! both properties, plus byte-identical exploits and policies against
//! unsliced synthesis, over randomized market bundles.

use std::collections::BTreeSet;

use separ_android::resolution::{any_filter_matches, IntentData};
use separ_android::types::{is_protected_broadcast, perm, Resource};
use separ_dex::manifest::{ComponentKind, IntentFilterDecl};

use crate::model::{AppModel, ComponentModel};

/// A capability class a signature's relational atoms can range over.
///
/// A signature footprint is a set of demands; an app joins a signature's
/// slice when it satisfies at least one of the footprint's demands (see
/// [`select_apps`]). `Everything` is the conservative default: the
/// signature ranges over the whole bundle and slicing is a no-op for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SliceDemand {
    /// The signature may range over any app — disables slicing for it.
    Everything,
    /// Apps sending an implicit, non-passive, broadcast-deliverable
    /// intent carrying a non-ICC source taint (intent-hijacking victims).
    HijackableTaintedSender,
    /// Apps exporting an Activity or Service with an ICC entry flow path
    /// (component-launch victims).
    LaunchableIccEntry,
    /// Apps exporting a component that exercises a granted dangerous
    /// permission without enforcing it (privilege-escalation victims).
    EscalationSurface,
    /// Apps on either end of a potential cross-app leak: senders of
    /// source-tainted intents that resolve to some ICC-entry sink
    /// component, and the apps owning those sink components.
    LeakChannel,
    /// Apps declaring a broadcast receiver with a protected-action filter
    /// and an ICC entry path (broadcast-injection victims).
    InjectableProtectedReceiver,
}

impl SliceDemand {
    /// The concrete (non-`Everything`) demands, in declaration order.
    pub const CONCRETE: &'static [SliceDemand] = &[
        SliceDemand::HijackableTaintedSender,
        SliceDemand::LaunchableIccEntry,
        SliceDemand::EscalationSurface,
        SliceDemand::LeakChannel,
        SliceDemand::InjectableProtectedReceiver,
    ];

    /// The demand's stable textual name (usable as a spec-file footprint
    /// annotation; underscores, so it lexes as one identifier).
    pub fn name(&self) -> &'static str {
        match self {
            SliceDemand::Everything => "everything",
            SliceDemand::HijackableTaintedSender => "hijackable_sender",
            SliceDemand::LaunchableIccEntry => "launchable_icc_entry",
            SliceDemand::EscalationSurface => "escalation_surface",
            SliceDemand::LeakChannel => "leak_channel",
            SliceDemand::InjectableProtectedReceiver => "injectable_receiver",
        }
    }

    /// Parses a demand name (the inverse of [`SliceDemand::name`]).
    pub fn from_name(name: &str) -> Option<SliceDemand> {
        match name {
            "everything" => Some(SliceDemand::Everything),
            "hijackable_sender" => Some(SliceDemand::HijackableTaintedSender),
            "launchable_icc_entry" => Some(SliceDemand::LaunchableIccEntry),
            "escalation_surface" => Some(SliceDemand::EscalationSurface),
            "leak_channel" => Some(SliceDemand::LeakChannel),
            "injectable_receiver" => Some(SliceDemand::InjectableProtectedReceiver),
            _ => None,
        }
    }

    /// Whether a component with capabilities `caps` can satisfy this
    /// demand's component-level facts. Used both to tighten the malicious
    /// intent's receiver rows and to diagnose dead analysis surface.
    pub fn component_matches(&self, caps: &ComponentCaps) -> bool {
        match self {
            SliceDemand::Everything => true,
            SliceDemand::HijackableTaintedSender => caps.hijackable_tainted_sender,
            SliceDemand::LaunchableIccEntry => caps.launchable_icc_entry,
            SliceDemand::EscalationSurface => caps.escalation_surface,
            SliceDemand::LeakChannel => caps.leak_sink || caps.tainted_sender,
            SliceDemand::InjectableProtectedReceiver => caps.injectable_receiver,
        }
    }
}

/// Per-component capability bits, each an over-approximation of one
/// demand's component-level facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCaps {
    /// Sends an implicit, non-passive, hijackable-delivery intent with a
    /// non-ICC source taint in its extras.
    pub hijackable_tainted_sender: bool,
    /// Sends *any* intent (any delivery, passive included) carrying a
    /// non-ICC source taint — the sender end of a potential leak.
    pub tainted_sender: bool,
    /// Exported Activity/Service with an ICC entry flow path.
    pub launchable_icc_entry: bool,
    /// Exported, exercises a granted dangerous permission unguarded.
    pub escalation_surface: bool,
    /// Has an `Icc -> real sink` flow path — the receiving end of a
    /// potential leak (and the payload of launch/injection scenarios).
    pub leak_sink: bool,
    /// Broadcast receiver filtering a protected system action, with an
    /// ICC entry path.
    pub injectable_receiver: bool,
}

impl ComponentCaps {
    /// Whether any capability bit is set — components where this is
    /// `false` can never be matched by any concrete signature footprint.
    pub fn any(&self) -> bool {
        self.hijackable_tainted_sender
            || self.tainted_sender
            || self.launchable_icc_entry
            || self.escalation_surface
            || self.leak_sink
            || self.injectable_receiver
    }
}

/// A source-tainted intent send, summarized for cross-app leak matching.
#[derive(Debug, Clone)]
pub struct TaintedSend {
    /// Passive sends resolve through the cross-app Algorithm 1 fixpoint,
    /// so the summary over-approximates them as reaching any sink.
    pub passive: bool,
    /// The intent's resolution-relevant fields (action, categories, data,
    /// explicit target).
    pub data: IntentData,
}

/// One component's capability summary.
#[derive(Debug, Clone)]
pub struct ComponentSummary {
    /// The component's class descriptor.
    pub class: String,
    /// Capability bits.
    pub caps: ComponentCaps,
    /// Source-tainted sends originating here (leak sender side).
    pub tainted_sends: Vec<TaintedSend>,
    /// The component's static intent filters (leak receiver side).
    pub filters: Vec<IntentFilterDecl>,
}

/// One app's capability summary.
///
/// Summaries are deliberately computed from the app model *alone* — they
/// never read `resolved_targets` or any other cross-app state — so an
/// incremental session can re-summarize exactly the apps a delta touched
/// and keep every other summary verbatim.
#[derive(Debug, Clone)]
pub struct AppSummary {
    /// The app's package name.
    pub package: String,
    /// Per-component summaries, in model order.
    pub components: Vec<ComponentSummary>,
    /// The app contributes at least one action atom to the encoding
    /// (a sent intent's action or a filter action).
    pub has_action: bool,
    /// The app sends a hijackable tainted intent *without* an action
    /// (such an exploit still needs some action atom for the malicious
    /// filter to declare — see the donor rule in [`select_apps`]).
    pub actionless_hijackable_send: bool,
}

fn tainted(extra_taints: &BTreeSet<Resource>) -> bool {
    extra_taints
        .iter()
        .any(|r| r.is_source() && *r != Resource::Icc)
}

fn summarize_component(app: &AppModel, c: &ComponentModel) -> ComponentSummary {
    let mut caps = ComponentCaps::default();
    let mut tainted_sends = Vec::new();
    for i in &c.sent_intents {
        if !tainted(&i.extra_taints) {
            continue;
        }
        caps.tainted_sender = true;
        tainted_sends.push(TaintedSend {
            passive: i.is_passive,
            data: i.as_intent_data(),
        });
        if i.is_hijackable() {
            caps.hijackable_tainted_sender = true;
        }
    }
    caps.launchable_icc_entry = c.exported
        && matches!(c.kind, ComponentKind::Activity | ComponentKind::Service)
        && c.icc_entry_paths().next().is_some();
    caps.escalation_surface = c.exported
        && c.used_permissions.iter().any(|p| {
            perm::is_dangerous(p) && c.is_unguarded_for(p) && app.uses_permissions.contains(p)
        });
    caps.leak_sink = c
        .icc_entry_paths()
        .any(|p| p.sink.is_sink() && p.sink != Resource::Icc);
    caps.injectable_receiver = c.kind == ComponentKind::Receiver
        && c.filters
            .iter()
            .flat_map(|f| f.actions.iter())
            .any(|a| is_protected_broadcast(a))
        && c.icc_entry_paths().next().is_some();
    ComponentSummary {
        class: c.class.clone(),
        caps,
        tainted_sends,
        filters: c.filters.clone(),
    }
}

/// Summarizes one app's capabilities (app-local; see [`AppSummary`]).
pub fn summarize_app(app: &AppModel) -> AppSummary {
    let components: Vec<ComponentSummary> = app
        .components
        .iter()
        .map(|c| summarize_component(app, c))
        .collect();
    let has_action = app.components.iter().any(|c| {
        c.filters.iter().any(|f| !f.actions.is_empty())
            || c.sent_intents.iter().any(|i| i.action.is_some())
    });
    let actionless_hijackable_send = app.components.iter().any(|c| {
        c.sent_intents
            .iter()
            .any(|i| i.action.is_none() && i.is_hijackable() && tainted(&i.extra_taints))
    });
    AppSummary {
        package: app.package.clone(),
        components,
        has_action,
        actionless_hijackable_send,
    }
}

/// Summarizes a whole bundle, in bundle order.
pub fn summarize_bundle(apps: &[AppModel]) -> Vec<AppSummary> {
    apps.iter().map(summarize_app).collect()
}

fn app_has_cap(s: &AppSummary, f: impl Fn(&ComponentCaps) -> bool) -> bool {
    s.components.iter().any(|c| f(&c.caps))
}

/// Cross-app leak matching: keep every sender of a tainted intent that
/// can resolve to some ICC-entry sink component, and every app owning a
/// matched sink. Matching deliberately over-approximates the `Router`
/// that builds the encoder's `canReceive` (kind, export, same-app and
/// first-of-class restrictions are ignored);
/// passive sends match every sink, over-approximating the Algorithm 1
/// fixpoint without reading cross-app state.
fn select_leak_channel(summaries: &[AppSummary], kept: &mut BTreeSet<usize>) {
    let sinks: Vec<(usize, &ComponentSummary)> = summaries
        .iter()
        .enumerate()
        .flat_map(|(ai, s)| {
            s.components
                .iter()
                .filter(|c| c.caps.leak_sink)
                .map(move |c| (ai, c))
        })
        .collect();
    if sinks.is_empty() {
        return;
    }
    for (ai, s) in summaries.iter().enumerate() {
        for comp in &s.components {
            for send in &comp.tainted_sends {
                if send.passive {
                    kept.insert(ai);
                    kept.extend(sinks.iter().map(|&(si, _)| si));
                    continue;
                }
                for &(si, sink) in &sinks {
                    let reaches = match &send.data.explicit_target {
                        Some(target) => **target == *sink.class,
                        None => any_filter_matches(&send.data, &sink.filters),
                    };
                    if reaches {
                        kept.insert(ai);
                        kept.insert(si);
                    }
                }
            }
        }
    }
}

/// Selects the apps a footprint with the given demands ranges over.
///
/// Returns the (sorted, deduplicated) indices into `summaries`. The
/// result is monotone in the bundle: appending an app never removes an
/// existing index. The *donor rule* handles the one existence dependency
/// a demand predicate cannot see app-locally: an actionless hijackable
/// send is only exploitable if the universe contains at least one action
/// atom for the malicious filter to declare, so the lowest-indexed app
/// with any action is pulled into the slice alongside such senders.
pub fn select_apps(demands: &BTreeSet<SliceDemand>, summaries: &[AppSummary]) -> BTreeSet<usize> {
    if demands.contains(&SliceDemand::Everything) {
        return (0..summaries.len()).collect();
    }
    let mut kept = BTreeSet::new();
    for demand in demands {
        match demand {
            SliceDemand::Everything => unreachable!("handled above"),
            SliceDemand::HijackableTaintedSender => {
                for (i, s) in summaries.iter().enumerate() {
                    if app_has_cap(s, |c| c.hijackable_tainted_sender) {
                        kept.insert(i);
                    }
                }
                if summaries
                    .iter()
                    .enumerate()
                    .any(|(i, s)| kept.contains(&i) && s.actionless_hijackable_send)
                {
                    if let Some(donor) = summaries.iter().position(|s| s.has_action) {
                        kept.insert(donor);
                    }
                }
            }
            SliceDemand::LaunchableIccEntry => {
                for (i, s) in summaries.iter().enumerate() {
                    if app_has_cap(s, |c| c.launchable_icc_entry) {
                        kept.insert(i);
                    }
                }
            }
            SliceDemand::EscalationSurface => {
                for (i, s) in summaries.iter().enumerate() {
                    if app_has_cap(s, |c| c.escalation_surface) {
                        kept.insert(i);
                    }
                }
            }
            SliceDemand::LeakChannel => select_leak_channel(summaries, &mut kept),
            SliceDemand::InjectableProtectedReceiver => {
                for (i, s) in summaries.iter().enumerate() {
                    if app_has_cap(s, |c| c.injectable_receiver) {
                        kept.insert(i);
                    }
                }
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AppModel, ComponentModel, SentIntentModel};
    use separ_android::api::IccMethod;
    use separ_android::types::{action, FlowPath};

    fn comp(class: &str, kind: ComponentKind) -> ComponentModel {
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

    fn sent(action: Option<&str>, via: IccMethod, taints: &[Resource]) -> SentIntentModel {
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

    fn app(package: &str, components: Vec<ComponentModel>) -> AppModel {
        AppModel {
            package: package.into(),
            components,
            uses_permissions: BTreeSet::new(),
            defines_permissions: BTreeSet::new(),
            diagnostics: Vec::new(),
            stats: crate::model::ExtractionStats::default(),
        }
    }

    fn nav() -> AppModel {
        // Motivating-example navigator: tainted hijackable sender.
        let mut lf = comp("LLocationFinder;", ComponentKind::Service);
        lf.paths
            .insert(FlowPath::new(Resource::Location, Resource::Icc));
        lf.sent_intents.push(sent(
            Some("showLoc"),
            IccMethod::StartService,
            &[Resource::Location],
        ));
        app("com.nav", vec![lf])
    }

    fn messenger() -> AppModel {
        // Motivating-example messenger: escalation surface + leak sink.
        let mut ms = comp("LMessageSender;", ComponentKind::Service);
        ms.exported = true;
        ms.paths.insert(FlowPath::new(Resource::Icc, Resource::Sms));
        ms.used_permissions.insert(perm::SEND_SMS.into());
        let mut a = app("com.messenger", vec![ms]);
        a.uses_permissions.insert(perm::SEND_SMS.into());
        a
    }

    fn inert() -> AppModel {
        // No capability at all: private Activity, no paths, no sends.
        app("com.inert", vec![comp("LMain;", ComponentKind::Activity)])
    }

    fn select(demand: SliceDemand, apps: &[AppModel]) -> BTreeSet<usize> {
        select_apps(&BTreeSet::from([demand]), &summarize_bundle(apps))
    }

    #[test]
    fn demand_names_round_trip() {
        for d in SliceDemand::CONCRETE
            .iter()
            .chain([SliceDemand::Everything].iter())
        {
            assert_eq!(SliceDemand::from_name(d.name()), Some(*d), "{d:?}");
        }
        assert_eq!(SliceDemand::from_name("hijackable-sender"), None);
    }

    #[test]
    fn capability_bits_mirror_the_signature_facts() {
        let apps = vec![nav(), messenger(), inert()];
        let summaries = summarize_bundle(&apps);
        let nav_caps = &summaries[0].components[0].caps;
        assert!(nav_caps.hijackable_tainted_sender && nav_caps.tainted_sender);
        assert!(!nav_caps.leak_sink && !nav_caps.escalation_surface);
        let ms_caps = &summaries[1].components[0].caps;
        assert!(ms_caps.escalation_surface && ms_caps.leak_sink && ms_caps.launchable_icc_entry);
        assert!(!ms_caps.tainted_sender);
        assert!(!summaries[2].components[0].caps.any());
    }

    #[test]
    fn slices_select_only_capable_apps() {
        let apps = vec![nav(), messenger(), inert()];
        assert_eq!(
            select(SliceDemand::HijackableTaintedSender, &apps),
            BTreeSet::from([0])
        );
        assert_eq!(
            select(SliceDemand::LaunchableIccEntry, &apps),
            BTreeSet::from([1])
        );
        assert_eq!(
            select(SliceDemand::EscalationSurface, &apps),
            BTreeSet::from([1])
        );
        assert_eq!(
            select(SliceDemand::InjectableProtectedReceiver, &apps),
            BTreeSet::new()
        );
        assert_eq!(
            select(SliceDemand::Everything, &apps),
            BTreeSet::from([0, 1, 2])
        );
    }

    #[test]
    fn leak_channel_keeps_matched_sender_and_sink_pairs() {
        // nav's tainted send is implicit with action "showLoc"; the
        // messenger sink declares no filters, so nothing reaches it and
        // the slice is empty.
        let apps = vec![nav(), messenger(), inert()];
        assert_eq!(select(SliceDemand::LeakChannel, &apps), BTreeSet::new());
        // An explicitly-targeted tainted send reaches the sink by class.
        let mut collector = comp("LCollector;", ComponentKind::Activity);
        let mut send = sent(None, IccMethod::StartService, &[Resource::DeviceId]);
        send.explicit_target = Some("LMessageSender;".to_string());
        collector.sent_intents.push(send);
        let apps = vec![nav(), messenger(), app("com.collect", vec![collector])];
        assert_eq!(
            select(SliceDemand::LeakChannel, &apps),
            BTreeSet::from([1, 2])
        );
        // A passive tainted send over-approximates to every sink app.
        let mut passive_comp = comp("LPassive;", ComponentKind::Activity);
        passive_comp
            .sent_intents
            .push(sent(None, IccMethod::SetResult, &[Resource::Contacts]));
        let apps = vec![messenger(), app("com.passive", vec![passive_comp])];
        assert_eq!(
            select(SliceDemand::LeakChannel, &apps),
            BTreeSet::from([0, 1])
        );
    }

    #[test]
    fn actionless_hijackable_sends_pull_in_an_action_donor() {
        // The sender's hijackable intent has no action; the only action
        // atom lives in an unrelated app's filter. The donor rule must
        // keep that app so `some MalFilter.malFilterActions` stays
        // satisfiable in the sliced universe.
        let mut sender_comp = comp("LBeacon;", ComponentKind::Service);
        sender_comp
            .sent_intents
            .push(sent(None, IccMethod::SendBroadcast, &[Resource::Location]));
        let sender = app("com.beacon", vec![sender_comp]);
        let mut filterer_comp = comp("LListener;", ComponentKind::Receiver);
        filterer_comp
            .filters
            .push(IntentFilterDecl::for_actions([action::BOOT_COMPLETED]));
        let filterer = app("com.listener", vec![filterer_comp]);
        let apps = vec![sender, filterer, inert()];
        assert_eq!(
            select(SliceDemand::HijackableTaintedSender, &apps),
            BTreeSet::from([0, 1])
        );
        // With an action on the intent itself, no donor is needed.
        let apps = vec![nav(), inert()];
        assert_eq!(
            select(SliceDemand::HijackableTaintedSender, &apps),
            BTreeSet::from([0])
        );
    }

    #[test]
    fn slices_are_monotone_under_app_addition() {
        let pool = [nav(), messenger(), inert()];
        for demand in SliceDemand::CONCRETE {
            let mut apps: Vec<AppModel> = Vec::new();
            let mut prev: BTreeSet<usize> = BTreeSet::new();
            for a in &pool {
                apps.push(a.clone());
                let now = select(*demand, &apps);
                assert!(
                    prev.is_subset(&now),
                    "{demand:?}: adding {} evicted {:?}",
                    a.package,
                    prev.difference(&now).collect::<Vec<_>>()
                );
                prev = now;
            }
        }
    }
}
