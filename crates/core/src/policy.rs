//! Event-condition-action security policies and their synthesis.
//!
//! Policies are the deliverable of the ASE: fine-grained, system-specific
//! ECA rules derived from synthesized exploits, ready for the runtime
//! enforcer (APE). They ship to a device as JSON via [`crate::policy_io`],
//! as the paper describes.

use std::collections::HashSet;

use crate::exploit::{Exploit, VulnKind};

/// The ICC event a policy guards.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PolicyEvent {
    /// An intent is about to leave a component.
    IccSend,
    /// An intent is about to be delivered to a component.
    IccReceive,
}

impl PolicyEvent {
    /// The stable wire name (shared by policy JSON and the serve
    /// protocol).
    pub fn name(self) -> &'static str {
        match self {
            PolicyEvent::IccSend => "icc_send",
            PolicyEvent::IccReceive => "icc_receive",
        }
    }

    /// Parses a wire name produced by [`PolicyEvent::name`].
    pub fn from_name(name: &str) -> Option<PolicyEvent> {
        match name {
            "icc_send" => Some(PolicyEvent::IccSend),
            "icc_receive" => Some(PolicyEvent::IccReceive),
            _ => None,
        }
    }
}

/// A conjunctive condition over an intercepted ICC event.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Condition {
    /// The receiving component's class equals this.
    ReceiverIs(String),
    /// The sending component's class equals this.
    SenderIs(String),
    /// The sender's class is NOT among these (the intended recipients).
    SenderNotIn(Vec<String>),
    /// The receiver's class is NOT among these (the intended recipients).
    ReceiverNotIn(Vec<String>),
    /// The intent's action equals this.
    ActionIs(String),
    /// The intent carries a payload tagged with this resource name
    /// (e.g. `"LOCATION"`).
    ExtraTagged(String),
    /// The sending app's package is NOT among the analyzed bundle.
    SenderAppNotIn(Vec<String>),
}

/// What the enforcement point does when the conditions hold.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PolicyAction {
    /// Ask the user; proceed only on consent.
    Prompt,
    /// Silently drop the event (degraded mode, no crash).
    Deny,
    /// Explicitly allow (useful for user-pinned exceptions).
    Allow,
}

impl PolicyAction {
    /// The stable wire name used by policy JSON.
    pub fn name(self) -> &'static str {
        match self {
            PolicyAction::Prompt => "prompt",
            PolicyAction::Deny => "deny",
            PolicyAction::Allow => "allow",
        }
    }

    /// Parses a wire name produced by [`PolicyAction::name`].
    pub fn from_name(name: &str) -> Option<PolicyAction> {
        match name {
            "prompt" => Some(PolicyAction::Prompt),
            "deny" => Some(PolicyAction::Deny),
            "allow" => Some(PolicyAction::Allow),
            _ => None,
        }
    }
}

/// One synthesized ECA rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Policy {
    /// Stable identifier within its policy set.
    pub id: u32,
    /// The vulnerability category this policy mitigates.
    pub vulnerability: String,
    /// The guarded event.
    pub event: PolicyEvent,
    /// All conditions must hold for the action to fire.
    pub conditions: Vec<Condition>,
    /// The enforcement action.
    pub action: PolicyAction,
    /// Human-readable justification shown in the user prompt.
    pub rationale: String,
}

/// The content identity of a [`Policy`]: everything that affects what the
/// policy *matches and does*, ignoring the set-local `id` and the
/// cosmetic `rationale`. Two policies with equal keys are interchangeable
/// for enforcement, so delta application and compiled-set deduplication
/// match on this rather than on ids.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PolicyKey<'a> {
    /// The vulnerability category.
    pub vulnerability: &'a str,
    /// The guarded event.
    pub event: PolicyEvent,
    /// The conjunctive conditions.
    pub conditions: &'a [Condition],
    /// The enforcement action.
    pub action: PolicyAction,
}

impl Policy {
    /// This policy's content identity (see [`PolicyKey`]).
    pub fn content_key(&self) -> PolicyKey<'_> {
        PolicyKey {
            vulnerability: &self.vulnerability,
            event: self.event,
            conditions: &self.conditions,
            action: self.action,
        }
    }
}

/// Applies a policy-set delta in place: `removed` policies are retired by
/// content identity (ids are irrelevant), then `added` policies are
/// appended with **fresh, monotonically increasing ids** — ids of
/// unchanged policies are never renumbered, so audit logs stay diffable
/// across deltas. Added policies whose content duplicates a surviving (or
/// earlier-added) policy are dropped: first occurrence wins, matching the
/// PDP's first-match evaluation order.
pub fn merge_delta(current: &mut Vec<Policy>, added: Vec<Policy>, removed: &[Policy]) {
    // Fresh ids start above anything ever seen in this set, including the
    // ids being retired — a retired id is never reused.
    let next_id = current.iter().map(|p| p.id + 1).max().unwrap_or(0);
    let retired: HashSet<PolicyKey<'_>> = removed.iter().map(Policy::content_key).collect();
    current.retain(|p| !retired.contains(&p.content_key()));
    let fresh = first_occurrences(current.iter().map(Policy::content_key).collect(), &added);
    let kept = added
        .into_iter()
        .zip(fresh)
        .filter_map(|(p, fresh)| fresh.then_some(p));
    current.extend((next_id..).zip(kept).map(|(id, p)| Policy { id, ..p }));
}

/// For each of `policies`, whether its content key is neither in `seen`
/// nor repeated earlier in `policies` (first occurrence wins).
fn first_occurrences<'a>(mut seen: HashSet<PolicyKey<'a>>, policies: &'a [Policy]) -> Vec<bool> {
    policies
        .iter()
        .map(|p| seen.insert(p.content_key()))
        .collect()
}

/// Derives the preventive policies for one exploit.
///
/// The mapping follows the paper's running example: an exploit synthesized
/// from the model instance becomes an ECA rule whose conditions are the
/// properties of the malicious (or vulnerable) intent in that instance.
/// A hijack policy's `ReceiverNotIn` condition takes `intended`, the
/// intent's legitimate recipients, as it is (other exploits ignore it).
pub fn policies_for_exploit(exploit: &Exploit, intended: Vec<String>) -> Vec<Policy> {
    let mut out = Vec::new();
    match exploit {
        Exploit::IntentHijack {
            victim_app,
            victim_component,
            hijacked_action,
            leaked,
        } => {
            let mut conditions = vec![Condition::SenderIs(victim_component.clone())];
            if let Some(a) = hijacked_action {
                conditions.push(Condition::ActionIs(a.clone()));
            }
            for r in leaked {
                conditions.push(Condition::ExtraTagged(r.name().to_string()));
            }
            if !intended.is_empty() {
                conditions.push(Condition::ReceiverNotIn(intended));
            }
            out.push(Policy {
                id: 0,
                vulnerability: VulnKind::IntentHijack.name().into(),
                event: PolicyEvent::IccSend,
                conditions,
                action: PolicyAction::Prompt,
                rationale: format!(
                    "implicit intent from {victim_app}/{victim_component} carries {leaked:?} and can be hijacked"
                ),
            });
        }
        Exploit::ComponentLaunch {
            target_app,
            target_component,
            ..
        } => {
            out.push(Policy {
                id: 0,
                vulnerability: VulnKind::ComponentLaunch.name().into(),
                event: PolicyEvent::IccReceive,
                conditions: vec![
                    Condition::ReceiverIs(target_component.clone()),
                    Condition::SenderAppNotIn(vec![]),
                ],
                action: PolicyAction::Prompt,
                rationale: format!(
                    "{target_app}/{target_component} is exported and reachable by forged intents"
                ),
            });
        }
        Exploit::PrivilegeEscalation {
            target_app,
            target_component,
            permission,
            ..
        } => {
            out.push(Policy {
                id: 0,
                vulnerability: VulnKind::PrivilegeEscalation.name().into(),
                event: PolicyEvent::IccReceive,
                conditions: vec![
                    Condition::ReceiverIs(target_component.clone()),
                    Condition::SenderAppNotIn(vec![]),
                ],
                action: PolicyAction::Prompt,
                rationale: format!(
                    "{target_app}/{target_component} exercises {permission} without checking its caller"
                ),
            });
        }
        Exploit::Custom {
            name,
            guarded_component,
            ..
        } => {
            if !guarded_component.is_empty() {
                out.push(Policy {
                    id: 0,
                    vulnerability: name.clone(),
                    event: PolicyEvent::IccReceive,
                    conditions: vec![
                        Condition::ReceiverIs(guarded_component.clone()),
                        Condition::SenderAppNotIn(vec![]),
                    ],
                    action: PolicyAction::Prompt,
                    rationale: format!("matched user signature '{name}'"),
                });
            }
        }
        Exploit::BroadcastInjection {
            target_app,
            target_component,
            spoofed_action,
            ..
        } => {
            // Apps can never legitimately send protected broadcasts:
            // deny outright rather than prompting.
            out.push(Policy {
                id: 0,
                vulnerability: VulnKind::BroadcastInjection.name().into(),
                event: PolicyEvent::IccReceive,
                conditions: vec![
                    Condition::ReceiverIs(target_component.clone()),
                    Condition::ActionIs(spoofed_action.clone()),
                    Condition::SenderAppNotIn(vec![]),
                ],
                action: PolicyAction::Deny,
                rationale: format!(
                    "{target_app}/{target_component} trusts {spoofed_action}, which apps cannot legitimately send"
                ),
            });
        }
        Exploit::InformationLeakage {
            sink_component,
            resources,
            via_action,
            ..
        } => {
            // The paper's example policy: every attempt to deliver an
            // intent carrying the resource to the sink component must be
            // confirmed.
            let mut conditions = vec![Condition::ReceiverIs(sink_component.clone())];
            for r in resources {
                conditions.push(Condition::ExtraTagged(r.name().to_string()));
            }
            if let Some(a) = via_action {
                conditions.push(Condition::ActionIs(a.clone()));
            }
            out.push(Policy {
                id: 0,
                vulnerability: VulnKind::InformationLeakage.name().into(),
                event: PolicyEvent::IccReceive,
                conditions,
                action: PolicyAction::Prompt,
                rationale: format!(
                    "delivering {resources:?} to {sink_component} completes a sensitive leak"
                ),
            });
        }
    }
    out
}

/// Deduplicates a policy set by content identity (first occurrence wins)
/// and renumbers it.
pub fn finalize_policies(mut policies: Vec<Policy>) -> Vec<Policy> {
    let mut fresh = first_occurrences(HashSet::new(), &policies).into_iter();
    policies.retain(|_| fresh.next() == Some(true));
    for (i, p) in policies.iter_mut().enumerate() {
        p.id = i as u32;
    }
    policies
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_android::resolution::IntentData;
    use separ_android::types::Resource;
    use std::collections::BTreeSet;

    fn hijack() -> Exploit {
        Exploit::IntentHijack {
            victim_app: "com.nav".into(),
            victim_component: "LLocationFinder;".into(),
            hijacked_action: Some("showLoc".into()),
            leaked: [Resource::Location].into_iter().collect(),
        }
    }

    #[test]
    fn hijack_policy_guards_the_send() {
        let pols = policies_for_exploit(&hijack(), vec!["LRouteFinder;".to_string()]);
        assert_eq!(pols.len(), 1);
        let p = &pols[0];
        assert_eq!(p.event, PolicyEvent::IccSend);
        assert!(p
            .conditions
            .contains(&Condition::ActionIs("showLoc".into())));
        assert!(p
            .conditions
            .contains(&Condition::ExtraTagged("LOCATION".into())));
        assert!(p
            .conditions
            .contains(&Condition::ReceiverNotIn(vec!["LRouteFinder;".into()])));
        assert_eq!(p.action, PolicyAction::Prompt);
    }

    #[test]
    fn leakage_policy_matches_paper_example() {
        // The paper's generated policy: ICC received + extra LOCATION +
        // receiver MessageSender -> user prompt.
        let e = Exploit::InformationLeakage {
            source_app: "com.nav".into(),
            source_component: "LLocationFinder;".into(),
            sink_app: "com.messenger".into(),
            sink_component: "LMessageSender;".into(),
            resources: [Resource::Location].into_iter().collect(),
            sinks: [Resource::Sms].into_iter().collect(),
            via_action: None,
        };
        let pols = policies_for_exploit(&e, Vec::new());
        let p = &pols[0];
        assert_eq!(p.event, PolicyEvent::IccReceive);
        assert!(p
            .conditions
            .contains(&Condition::ReceiverIs("LMessageSender;".into())));
        assert!(p
            .conditions
            .contains(&Condition::ExtraTagged("LOCATION".into())));
        assert_eq!(p.action, PolicyAction::Prompt);
    }

    #[test]
    fn finalize_dedups_and_renumbers() {
        let p1 = policies_for_exploit(&hijack(), Vec::new());
        let p2 = policies_for_exploit(&hijack(), Vec::new());
        let all: Vec<Policy> = p1.into_iter().chain(p2).collect();
        let out = finalize_policies(all);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    fn policies_ship_through_policy_io() {
        // No serialization framework is in the workspace dependency set;
        // `policy_io` is the shipping format. Every policy this module
        // derives must survive the round trip.
        let pols = policies_for_exploit(&hijack(), vec!["LRouteFinder;".to_string()]);
        let json = crate::policy_io::to_json(&pols);
        assert_eq!(crate::policy_io::from_json(&json).expect("parses"), pols);
        let _ = (IntentData::new(), BTreeSet::<u8>::new());
    }
}
