//! The four shipped vulnerability-signature plugins.
//!
//! Each signature follows the same shape (the paper's Listing 5 pattern):
//! free *witness* relations pick the victim entities, facts state the
//! semantics of the exploit, and the Aluminum-style minimal-model
//! enumerator returns one scenario per minimal instance, which is decoded
//! against the extracted app models.

use std::collections::BTreeSet;

use separ_android::resolution::IntentData;
use separ_android::types::Resource;
use separ_logic::{Expr, LogicError, Problem, RelationDecl, RelationId, TupleSet};

use separ_analysis::slicing::SliceDemand;

use crate::exploit::{Exploit, VulnKind};
use crate::footprint::{Footprint, MalReceivers, SignatureFootprint};
use crate::signature::{Synthesis, SynthesisContext, VulnerabilitySignature};

/// Default cap on enumerated minimal scenarios per signature run.
pub const DEFAULT_SCENARIO_LIMIT: usize = 64;

/// Adds a free unary witness relation over the given atoms.
fn witness(
    problem: &mut Problem,
    name: &str,
    atoms: impl IntoIterator<Item = separ_logic::Atom>,
) -> Option<RelationId> {
    let mut ts = TupleSet::new(1);
    for a in atoms {
        ts.insert(separ_logic::Tuple::unary(a));
    }
    if ts.is_empty() {
        return None;
    }
    Some(problem.relation(RelationDecl::free(name, ts)))
}

/// Runs the enumeration loop shared by all signatures. The problem is a
/// clone of the context's bundle problem extended with this signature's
/// witnesses and facts; translation starts from the shared base.
fn enumerate<F>(
    problem: &Problem,
    ctx: &SynthesisContext<'_>,
    mut decode: F,
) -> Result<Synthesis, LogicError>
where
    F: FnMut(&separ_logic::Instance) -> Option<Exploit>,
{
    let mut finder = problem.model_finder_from(ctx.base.base())?;
    let mut exploits: Vec<Exploit> = Vec::new();
    while exploits.len() < ctx.limit {
        let Some(instance) = finder.next_minimal_model() else {
            break;
        };
        if let Some(e) = decode(&instance) {
            if !exploits.contains(&e) {
                exploits.push(e);
            }
        }
    }
    Ok(Synthesis {
        exploits,
        construction: finder.construction_time(),
        solving: finder.solve_time(),
        primary_vars: finder.num_primary_vars(),
        cnf_clauses: finder.cnf_clauses(),
        shared_base: finder.used_shared_base(),
        solver: finder.solver_stats(),
    })
}

/// Reads the single atom of a witness relation from an instance.
fn witness_atom(instance: &separ_logic::Instance, rel: RelationId) -> Option<separ_logic::Atom> {
    instance.tuples(rel).iter().next().map(|t| t.atoms()[0])
}

// ---------------------------------------------------------------------
// Intent hijack
// ---------------------------------------------------------------------

/// Unauthorized intent receipt: a malicious filter steals a sensitive
/// implicit intent (Chin et al.'s "unauthorized Intent receipt").
#[derive(Debug, Default, Clone, Copy)]
pub struct IntentHijackSignature;

impl SignatureFootprint for IntentHijackSignature {
    fn footprint(&self) -> Footprint {
        // The witness ranges over real hijackable tainted intents; the
        // only malicious rows the facts constrain are the filter's
        // actions (`wi.action in MalFilter.malFilterActions`, `some`).
        Footprint {
            demands: BTreeSet::from([SliceDemand::HijackableTaintedSender]),
            mal_receivers: MalReceivers::None,
            mal_extras: false,
            mal_action: false,
            mal_filter: true,
        }
    }
}

impl VulnerabilitySignature for IntentHijackSignature {
    fn kind(&self) -> VulnKind {
        VulnKind::IntentHijack
    }

    fn sensitivity(&self) -> crate::signature::Sensitivity {
        crate::signature::Sensitivity { permissions: false }
    }

    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError> {
        let (apps, atoms, rels) = (ctx.apps, ctx.base.atoms(), ctx.base.rels());
        let mut problem = ctx.base.problem();
        let Some(wi) = witness(
            &mut problem,
            "W_intent",
            atoms.intents.iter().map(|&(_, a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        let wi_e = Expr::relation(wi);
        let extras = Expr::relation(rels.extras);
        let sources = Expr::relation(rels.source_res);
        let mal_actions =
            Expr::atom(atoms.mal_filter).join(&Expr::relation(rels.mal_filter_actions));
        problem.fact(wi_e.one());
        problem.fact(wi_e.in_(&Expr::relation(rels.hijackable)));
        // The stolen payload is sensitive.
        problem.fact(wi_e.join(&extras).intersect(&sources).some());
        // The malicious filter matches the intent's action (an actionless
        // implicit intent is matched by any filter, hence subset).
        problem.fact(
            wi_e.join(&Expr::relation(rels.intent_action))
                .in_(&mal_actions),
        );
        problem.fact(mal_actions.some());
        enumerate(&problem, ctx, |instance| {
            let atom = witness_atom(instance, wi)?;
            let (ai, ci, ii) = atoms.intent_of(atom)?;
            let comp = &apps[ai].components[ci];
            let intent = &comp.sent_intents[ii];
            let leaked: BTreeSet<Resource> = intent
                .extra_taints
                .iter()
                .copied()
                .filter(|r| r.is_source() && *r != Resource::Icc)
                .collect();
            Some(Exploit::IntentHijack {
                victim_app: apps[ai].package.clone(),
                victim_component: comp.class.clone(),
                hijacked_action: intent.action.clone(),
                leaked,
            })
        })
    }
}

// ---------------------------------------------------------------------
// Activity/Service launch
// ---------------------------------------------------------------------

/// Activity/Service launch (the paper's Listing 5): a forged intent
/// launches an exported component whose entry surface flows into a
/// capability.
#[derive(Debug, Default, Clone, Copy)]
pub struct ComponentLaunchSignature;

impl SignatureFootprint for ComponentLaunchSignature {
    fn footprint(&self) -> Footprint {
        // The victim is an exported Activity/Service with an ICC entry
        // path that the malicious intent reaches (`canReceive` rows to
        // matching components) carrying a payload (`some MalIntent.extras`).
        Footprint {
            demands: BTreeSet::from([SliceDemand::LaunchableIccEntry]),
            mal_receivers: MalReceivers::Matching,
            mal_extras: true,
            mal_action: false,
            mal_filter: false,
        }
    }
}

impl VulnerabilitySignature for ComponentLaunchSignature {
    fn kind(&self) -> VulnKind {
        VulnKind::ComponentLaunch
    }

    fn sensitivity(&self) -> crate::signature::Sensitivity {
        crate::signature::Sensitivity { permissions: false }
    }

    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError> {
        let (apps, atoms, rels) = (ctx.apps, ctx.base.atoms(), ctx.base.rels());
        let mut problem = ctx.base.problem();
        let Some(w) = witness(
            &mut problem,
            "W_launched",
            atoms.components.iter().map(|&(_, a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        let w_e = Expr::relation(w);
        let mal_intent = Expr::atom(atoms.mal_intent);
        let can_receive = Expr::relation(rels.can_receive);
        let icc = Expr::relation(rels.icc_res);
        problem.fact(w_e.one());
        problem.fact(w_e.in_(&Expr::relation(rels.exported)));
        // Activity or Service launch, per the paper.
        problem
            .fact(w_e.in_(&Expr::relation(rels.activities).union(&Expr::relation(rels.services))));
        // The malicious intent reaches the launched component...
        problem.fact(w_e.in_(&mal_intent.join(&can_receive)));
        // ...which has a path rooted at its exported (ICC) interface.
        problem.fact(
            w_e.join(&Expr::relation(rels.path_source_of))
                .intersect(&icc)
                .some(),
        );
        // The forged intent carries a payload (Listing 5 line 10).
        problem.fact(mal_intent.join(&Expr::relation(rels.extras)).some());
        // The minimal-model enumerator distinguishes instances by the
        // payload resource the forged intent carries; for reporting, one
        // scenario per launched component suffices.
        let mut seen_targets: BTreeSet<(usize, usize)> = BTreeSet::new();
        enumerate(&problem, ctx, |instance| {
            let atom = witness_atom(instance, w)?;
            let (ai, ci) = atoms.component_of(atom)?;
            if !seen_targets.insert((ai, ci)) {
                return None;
            }
            let comp = &apps[ai].components[ci];
            let payload: BTreeSet<Resource> = instance
                .tuples(rels.extras)
                .iter()
                .filter(|t| t.atoms()[0] == atoms.mal_intent)
                .filter_map(|t| atoms.resource_of(t.atoms()[1]))
                .collect();
            Some(Exploit::ComponentLaunch {
                target_app: apps[ai].package.clone(),
                target_component: comp.class.clone(),
                fake_intent: IntentData::explicit(comp.class.clone()),
                payload,
            })
        })
    }
}

// ---------------------------------------------------------------------
// Privilege escalation
// ---------------------------------------------------------------------

/// Permission re-delegation: an exported component exercises a permission
/// for callers that do not hold it, without a manifest or dynamic check
/// (Bugiel et al., Felt et al.).
#[derive(Debug, Default, Clone, Copy)]
pub struct PrivilegeEscalationSignature;

impl SignatureFootprint for PrivilegeEscalationSignature {
    fn footprint(&self) -> Footprint {
        // The victim exports an unguarded granted dangerous capability;
        // the only malicious rows constrained are `canReceive` rows
        // delivering the malicious intent to such components.
        Footprint {
            demands: BTreeSet::from([SliceDemand::EscalationSurface]),
            mal_receivers: MalReceivers::Matching,
            mal_extras: false,
            mal_action: false,
            mal_filter: false,
        }
    }
}

impl VulnerabilitySignature for PrivilegeEscalationSignature {
    fn kind(&self) -> VulnKind {
        VulnKind::PrivilegeEscalation
    }

    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError> {
        let (apps, atoms, rels) = (ctx.apps, ctx.base.atoms(), ctx.base.rels());
        let mut problem = ctx.base.problem();
        let Some(w) = witness(
            &mut problem,
            "W_victim",
            atoms.components.iter().map(|&(_, a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        // Only dangerous-level permissions can be escalated; re-delegating
        // a normal-level permission (e.g. INTERNET) is not a violation.
        let Some(wp) = witness(
            &mut problem,
            "W_perm",
            atoms
                .permissions
                .iter()
                .filter(|(name, _)| separ_android::types::perm::is_dangerous(name))
                .map(|(_, &a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        let w_e = Expr::relation(w);
        let wp_e = Expr::relation(wp);
        let mal_intent = Expr::atom(atoms.mal_intent);
        problem.fact(w_e.one());
        problem.fact(wp_e.one());
        problem.fact(w_e.in_(&Expr::relation(rels.exported)));
        // The component exercises the permission...
        problem.fact(wp_e.in_(&w_e.join(&Expr::relation(rels.uses_perm))));
        // ...without enforcing it against callers...
        problem.fact(
            wp_e.intersect(&w_e.join(&Expr::relation(rels.enforces)))
                .no(),
        );
        // ...while its app actually holds the permission (a revoked
        // permission — the Marshmallow scenario — cannot be re-delegated)...
        problem.fact(
            wp_e.in_(
                &w_e.join(&Expr::relation(rels.cmp_app))
                    .join(&Expr::relation(rels.app_perms)),
            ),
        );
        // ...and the adversary can reach it.
        problem.fact(w_e.in_(&mal_intent.join(&Expr::relation(rels.can_receive))));
        enumerate(&problem, ctx, |instance| {
            let watom = witness_atom(instance, w)?;
            let patom = witness_atom(instance, wp)?;
            let (ai, ci) = atoms.component_of(watom)?;
            let comp = &apps[ai].components[ci];
            let permission = atoms.permission_of(patom)?.to_string();
            Some(Exploit::PrivilegeEscalation {
                target_app: apps[ai].package.clone(),
                target_component: comp.class.clone(),
                permission,
                fake_intent: IntentData::explicit(comp.class.clone()),
            })
        })
    }
}

// ---------------------------------------------------------------------
// Information leakage
// ---------------------------------------------------------------------

/// Inter-component sensitive data leakage among the *installed* apps: an
/// intent carrying a sensitive payload is received by a component whose
/// ICC-rooted path reaches a real sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct InformationLeakageSignature;

impl SignatureFootprint for InformationLeakageSignature {
    fn footprint(&self) -> Footprint {
        // Both witnesses bind real entities (a tainted real intent and a
        // real receiver with an ICC-to-sink path); no malicious free row
        // is ever mentioned, so the whole malicious surface drops.
        Footprint {
            demands: BTreeSet::from([SliceDemand::LeakChannel]),
            mal_receivers: MalReceivers::None,
            mal_extras: false,
            mal_action: false,
            mal_filter: false,
        }
    }
}

impl VulnerabilitySignature for InformationLeakageSignature {
    fn kind(&self) -> VulnKind {
        VulnKind::InformationLeakage
    }

    fn sensitivity(&self) -> crate::signature::Sensitivity {
        crate::signature::Sensitivity { permissions: false }
    }

    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError> {
        let (apps, atoms, rels) = (ctx.apps, ctx.base.atoms(), ctx.base.rels());
        let mut problem = ctx.base.problem();
        let Some(wi) = witness(
            &mut problem,
            "W_intent",
            atoms.intents.iter().map(|&(_, a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        let Some(wc) = witness(
            &mut problem,
            "W_receiver",
            atoms.components.iter().map(|&(_, a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        let wi_e = Expr::relation(wi);
        let wc_e = Expr::relation(wc);
        let icc = Expr::relation(rels.icc_res);
        problem.fact(wi_e.one());
        problem.fact(wc_e.one());
        // The receiver actually receives the intent (precomputed Android
        // resolution, both implicit and explicit, including passive reply
        // intents resolved by Algorithm 1).
        problem.fact(wc_e.in_(&wi_e.join(&Expr::relation(rels.can_receive))));
        // The payload is sensitive.
        problem.fact(
            wi_e.join(&Expr::relation(rels.extras))
                .intersect(&Expr::relation(rels.source_res))
                .some(),
        );
        // The receiver completes the leak: ICC-source path to a real sink.
        let recv_paths = wc_e.join(&Expr::relation(rels.path_of)); // Source -> Sink
        problem.fact(
            icc.join(&recv_paths)
                .intersect(&Expr::relation(rels.sink_res))
                .some(),
        );
        enumerate(&problem, ctx, |instance| {
            let iatom = witness_atom(instance, wi)?;
            let catom = witness_atom(instance, wc)?;
            let (ai, ci, ii) = atoms.intent_of(iatom)?;
            let (bi, bci) = atoms.component_of(catom)?;
            let src_comp = &apps[ai].components[ci];
            let intent = &src_comp.sent_intents[ii];
            let sink_comp = &apps[bi].components[bci];
            let resources: BTreeSet<Resource> = intent
                .extra_taints
                .iter()
                .copied()
                .filter(|r| r.is_source() && *r != Resource::Icc)
                .collect();
            let sinks: BTreeSet<Resource> = sink_comp
                .paths
                .iter()
                .filter(|p| p.source == Resource::Icc && p.sink != Resource::Icc)
                .map(|p| p.sink)
                .collect();
            Some(Exploit::InformationLeakage {
                source_app: apps[ai].package.clone(),
                source_component: src_comp.class.clone(),
                sink_app: apps[bi].package.clone(),
                sink_component: sink_comp.class.clone(),
                resources,
                sinks,
                via_action: intent.action.clone(),
            })
        })
    }
}

// ---------------------------------------------------------------------
// Broadcast injection (extension plugin)
// ---------------------------------------------------------------------

/// Broadcast injection: a receiver whose filter accepts a *protected
/// system broadcast* and whose entry surface flows into a capability can
/// be driven by a forged broadcast. Not part of the paper's standard set;
/// shipped as the demonstration of the plugin architecture's extension
/// point ("users can provide additional signatures at any time").
#[derive(Debug, Default, Clone, Copy)]
pub struct BroadcastInjectionSignature;

impl SignatureFootprint for BroadcastInjectionSignature {
    fn footprint(&self) -> Footprint {
        // The victim receiver filters a protected action with an ICC
        // entry path; the facts pin the malicious intent's action to the
        // stolen one (`MalIntent.action = wa`), so those rows stay.
        Footprint {
            demands: BTreeSet::from([SliceDemand::InjectableProtectedReceiver]),
            mal_receivers: MalReceivers::None,
            mal_extras: false,
            mal_action: true,
            mal_filter: false,
        }
    }
}

impl VulnerabilitySignature for BroadcastInjectionSignature {
    fn kind(&self) -> VulnKind {
        VulnKind::BroadcastInjection
    }

    fn sensitivity(&self) -> crate::signature::Sensitivity {
        crate::signature::Sensitivity { permissions: false }
    }

    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError> {
        let (apps, atoms, rels) = (ctx.apps, ctx.base.atoms(), ctx.base.rels());
        let mut problem = ctx.base.problem();
        let Some(w) = witness(
            &mut problem,
            "W_victim",
            atoms.components.iter().map(|&(_, a)| a),
        ) else {
            return Ok(Synthesis::default());
        };
        let Some(wa) = witness(&mut problem, "W_action", atoms.actions.values().copied()) else {
            return Ok(Synthesis::default());
        };
        let w_e = Expr::relation(w);
        let wa_e = Expr::relation(wa);
        let mal_intent = Expr::atom(atoms.mal_intent);
        problem.fact(w_e.one());
        problem.fact(wa_e.one());
        // The victim is a broadcast receiver...
        problem.fact(w_e.in_(&Expr::relation(rels.receivers)));
        // ...whose filter accepts the spoofed action...
        problem.fact(wa_e.in_(&w_e.join(&Expr::relation(rels.comp_filter_actions))));
        // ...which is a protected system action apps may not send...
        problem.fact(wa_e.in_(&Expr::relation(rels.protected_actions)));
        // ...and the receiver acts on the payload (ICC-source path).
        problem.fact(
            w_e.join(&Expr::relation(rels.path_source_of))
                .intersect(&Expr::relation(rels.icc_res))
                .some(),
        );
        // The malicious intent forges exactly that action.
        problem.fact(
            mal_intent
                .join(&Expr::relation(rels.intent_action))
                .equal(&wa_e),
        );
        enumerate(&problem, ctx, |instance| {
            let watom = witness_atom(instance, w)?;
            let aatom = witness_atom(instance, wa)?;
            let (ai, ci) = atoms.component_of(watom)?;
            let comp = &apps[ai].components[ci];
            let spoofed_action = atoms.action_of(aatom)?.to_string();
            let sinks: BTreeSet<Resource> = comp
                .paths
                .iter()
                .filter(|p| p.source == Resource::Icc && p.sink != Resource::Icc)
                .map(|p| p.sink)
                .collect();
            Some(Exploit::BroadcastInjection {
                target_app: apps[ai].package.clone(),
                target_component: comp.class.clone(),
                spoofed_action,
                sinks,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::tests_support::{app, comp, sent};
    use separ_analysis::model::AppModel;
    use separ_android::api::IccMethod;
    use separ_android::types::{perm, FlowPath};
    use separ_dex::manifest::{ComponentKind, IntentFilterDecl};

    /// The motivating-example bundle: LocationFinder (leaky implicit
    /// intent) + MessageSender (exported ICC->SMS path, SEND_SMS unused
    /// check).
    fn motivating_bundle() -> Vec<AppModel> {
        let mut lf = comp("LLocationFinder;", ComponentKind::Service);
        lf.paths
            .insert(FlowPath::new(Resource::Location, Resource::Icc));
        lf.sent_intents.push(sent(
            Some("showLoc"),
            IccMethod::StartService,
            &[Resource::Location],
        ));
        let mut rf = comp("LRouteFinder;", ComponentKind::Service);
        rf.filters.push(IntentFilterDecl::for_actions(["showLoc"]));
        rf.exported = true;
        let app1 = app("com.nav", vec![lf, rf]);

        let mut ms = comp("LMessageSender;", ComponentKind::Service);
        ms.exported = true;
        ms.paths.insert(FlowPath::new(Resource::Icc, Resource::Sms));
        ms.used_permissions.insert(perm::SEND_SMS.into());
        let mut app2 = app("com.messenger", vec![ms]);
        app2.uses_permissions.insert(perm::SEND_SMS.into());
        vec![app1, app2]
    }

    #[test]
    fn hijack_synthesized_for_motivating_example() {
        let apps = motivating_bundle();
        let syn = IntentHijackSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert!(!syn.exploits.is_empty(), "hijack must be found");
        match &syn.exploits[0] {
            Exploit::IntentHijack {
                victim_component,
                hijacked_action,
                leaked,
                ..
            } => {
                assert_eq!(victim_component, "LLocationFinder;");
                assert_eq!(hijacked_action.as_deref(), Some("showLoc"));
                assert!(leaked.contains(&Resource::Location));
            }
            other => panic!("unexpected exploit {other:?}"),
        }
        assert!(syn.primary_vars > 0);
    }

    #[test]
    fn launch_synthesized_for_message_sender() {
        let apps = motivating_bundle();
        let syn = ComponentLaunchSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        let targets: Vec<&str> = syn.exploits.iter().map(|e| e.guarded_component()).collect();
        assert!(
            targets.contains(&"LMessageSender;"),
            "MessageSender is launchable: {targets:?}"
        );
    }

    #[test]
    fn escalation_synthesized_for_unchecked_sms_permission() {
        let apps = motivating_bundle();
        let syn = PrivilegeEscalationSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert!(syn.exploits.iter().any(|e| matches!(
            e,
            Exploit::PrivilegeEscalation { permission, target_component, .. }
                if permission == perm::SEND_SMS && target_component == "LMessageSender;"
        )));
    }

    #[test]
    fn escalation_suppressed_by_dynamic_check() {
        let mut apps = motivating_bundle();
        apps[1].components[0]
            .dynamic_checks
            .insert(perm::SEND_SMS.into());
        let syn = PrivilegeEscalationSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert!(
            syn.exploits.is_empty(),
            "guarded component must not be flagged: {:?}",
            syn.exploits
        );
    }

    #[test]
    fn leakage_requires_a_receiving_path() {
        // In the motivating bundle the implicit intent resolves to
        // RouteFinder (no sink path), so no *existing* leak among the
        // installed apps.
        let apps = motivating_bundle();
        let syn = InformationLeakageSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert!(syn.exploits.is_empty(), "{:?}", syn.exploits);
    }

    #[test]
    fn leakage_found_when_filter_connects_source_to_sink() {
        // Give MessageSender a matching filter: now the location intent is
        // delivered straight into the ICC->SMS path.
        let mut apps = motivating_bundle();
        apps[1].components[0]
            .filters
            .push(IntentFilterDecl::for_actions(["showLoc"]));
        let syn = InformationLeakageSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert_eq!(syn.exploits.len(), 1, "{:?}", syn.exploits);
        match &syn.exploits[0] {
            Exploit::InformationLeakage {
                source_component,
                sink_component,
                resources,
                sinks,
                ..
            } => {
                assert_eq!(source_component, "LLocationFinder;");
                assert_eq!(sink_component, "LMessageSender;");
                assert!(resources.contains(&Resource::Location));
                assert!(sinks.contains(&Resource::Sms));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_injection_flags_protected_action_receivers() {
        use separ_android::types::action;
        let mut recv = comp("LBootMinion;", ComponentKind::Receiver);
        recv.filters
            .push(IntentFilterDecl::for_actions([action::BOOT_COMPLETED]));
        recv.exported = true;
        recv.paths
            .insert(FlowPath::new(Resource::Icc, Resource::Sms));
        let apps = vec![app("com.minion", vec![recv])];
        let syn = BroadcastInjectionSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert_eq!(syn.exploits.len(), 1, "{:?}", syn.exploits);
        match &syn.exploits[0] {
            Exploit::BroadcastInjection {
                target_component,
                spoofed_action,
                sinks,
                ..
            } => {
                assert_eq!(target_component, "LBootMinion;");
                assert_eq!(spoofed_action, action::BOOT_COMPLETED);
                assert!(sinks.contains(&Resource::Sms));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_injection_ignores_ordinary_actions() {
        let mut recv = comp("LChatty;", ComponentKind::Receiver);
        recv.filters
            .push(IntentFilterDecl::for_actions(["com.app.CUSTOM"]));
        recv.exported = true;
        recv.paths
            .insert(FlowPath::new(Resource::Icc, Resource::Log));
        let apps = vec![app("com.chatty", vec![recv])];
        let syn = BroadcastInjectionSignature
            .synthesize(&apps, 8)
            .expect("well-typed");
        assert!(syn.exploits.is_empty(), "{:?}", syn.exploits);
    }

    #[test]
    fn extended_registry_includes_the_plugin() {
        use crate::signature::SignatureRegistry;
        let r = SignatureRegistry::extended();
        assert_eq!(r.len(), 5);
        assert!(r.iter().any(|s| s.kind() == VulnKind::BroadcastInjection));
    }

    #[test]
    fn empty_ish_bundle_yields_no_exploits() {
        let apps = vec![app(
            "com.empty",
            vec![comp("LMain;", ComponentKind::Activity)],
        )];
        for sig in [
            &IntentHijackSignature as &dyn VulnerabilitySignature,
            &ComponentLaunchSignature,
            &PrivilegeEscalationSignature,
            &InformationLeakageSignature,
        ] {
            let syn = sig.synthesize(&apps, 4).expect("well-typed");
            assert!(
                syn.exploits.is_empty(),
                "{} found {:?}",
                sig.name(),
                syn.exploits
            );
        }
    }
}
