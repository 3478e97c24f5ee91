//! The policy decision point (PDP).
//!
//! In the paper the PDP is an independent app storing the synthesized
//! policies; the PEP (an Xposed hook module) calls it on every intercepted
//! ICC method. Here the PDP evaluates ECA rules against an
//! [`IccContext`] and consults a pluggable prompt handler when a rule's
//! action is [`PolicyAction::Prompt`].
//!
//! Two implementations share this module's types:
//!
//! * [`Pdp`] — the production engine: a facade over the compiled, indexed
//!   decision structure in [`crate::compiled`] (string-pool ids, receiver
//!   buckets, lock-free shared reads, allocation-free denies);
//! * [`LinearPdp`] — the retained linear-scan reference, kept as the
//!   executable specification. The differential property suite
//!   (`tests/pdp_equivalence.rs`) proves the compiled engine decides
//!   identically, prompt-for-prompt, including across deltas.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use separ_android::types::Resource;
use separ_core::policy::{self, Condition, Policy, PolicyAction, PolicyEvent};

use crate::compiled::{CompiledPolicySet, PdpReader, SharedPdp};

/// Everything a condition can inspect about an intercepted ICC event.
#[derive(Clone, Debug, Default)]
pub struct IccContext {
    /// Sending app package.
    pub sender_app: String,
    /// Sending component class.
    pub sender_component: String,
    /// Receiving app package (known for receive events).
    pub receiver_app: Option<String>,
    /// Receiving component class (known for receive events).
    pub receiver_component: Option<String>,
    /// The intent's action.
    pub action: Option<String>,
    /// Resource tags carried by the intent's extras.
    pub tags: BTreeSet<Resource>,
}

/// The decision for one event.
///
/// Deny decisions carry the vulnerability category as an `Arc<str>`
/// cloned from the compiled set's intern table — building one allocates
/// nothing on the decision path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// No policy matched, or a matching policy allowed it.
    Allow,
    /// A policy blocked the event outright.
    Deny {
        /// The deciding policy.
        policy_id: u32,
        /// Its vulnerability category.
        vulnerability: Arc<str>,
    },
    /// A policy prompted and the user refused.
    PromptDenied {
        /// The deciding policy.
        policy_id: u32,
        /// Its vulnerability category.
        vulnerability: Arc<str>,
    },
    /// A policy prompted and the user consented.
    PromptAllowed {
        /// The deciding policy.
        policy_id: u32,
    },
}

impl Decision {
    /// Returns `true` if the event may proceed.
    pub fn allows(&self) -> bool {
        matches!(self, Decision::Allow | Decision::PromptAllowed { .. })
    }

    /// Stable wire label for this variant (`separ serve` protocol and
    /// report output): `allow`, `deny`, `prompt_denied` or
    /// `prompt_allowed`.
    pub fn label(&self) -> &'static str {
        match self {
            Decision::Allow => "allow",
            Decision::Deny { .. } => "deny",
            Decision::PromptDenied { .. } => "prompt_denied",
            Decision::PromptAllowed { .. } => "prompt_allowed",
        }
    }

    /// The deciding policy's id, if a policy decided (not
    /// [`Decision::Allow`]).
    pub fn policy_id(&self) -> Option<u32> {
        match self {
            Decision::Allow => None,
            Decision::Deny { policy_id, .. }
            | Decision::PromptDenied { policy_id, .. }
            | Decision::PromptAllowed { policy_id } => Some(*policy_id),
        }
    }
}

/// How prompts are answered (the "user" in tests and benchmarks).
///
/// The paper's PDP "prompts the user for consent along with the
/// information that would help the user in making a decision, including
/// the description of the security threat as well as the name and
/// parameters of the intercepted event" — the [`PromptHandler::Callback`]
/// variant receives exactly that: the deciding policy (threat description
/// in its `rationale`) and the intercepted event's [`IccContext`].
pub enum PromptHandler {
    /// Always consent.
    AlwaysAllow,
    /// Always refuse.
    AlwaysDeny,
    /// Scripted decisions, consumed front-to-back in O(1) per prompt;
    /// refuses once exhausted.
    Scripted(VecDeque<bool>),
    /// Ask the embedder, passing the policy and the intercepted event.
    Callback(PromptCallback),
}

/// Embedder-supplied prompt answering function; see [`PromptHandler::Callback`].
pub type PromptCallback = Box<dyn FnMut(&Policy, &IccContext) -> bool + Send>;

impl std::fmt::Debug for PromptHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromptHandler::AlwaysAllow => f.write_str("AlwaysAllow"),
            PromptHandler::AlwaysDeny => f.write_str("AlwaysDeny"),
            PromptHandler::Scripted(v) => write!(f, "Scripted({v:?})"),
            PromptHandler::Callback(_) => f.write_str("Callback(..)"),
        }
    }
}

impl PromptHandler {
    /// Scripted decisions from any answer sequence.
    pub fn scripted(answers: impl IntoIterator<Item = bool>) -> PromptHandler {
        PromptHandler::Scripted(answers.into_iter().collect())
    }

    pub(crate) fn answer(&mut self, policy: &Policy, ctx: &IccContext) -> bool {
        match self {
            PromptHandler::AlwaysAllow => true,
            PromptHandler::AlwaysDeny => false,
            PromptHandler::Scripted(answers) => answers.pop_front().unwrap_or(false),
            PromptHandler::Callback(f) => f(policy, ctx),
        }
    }
}

/// The policy decision point: compiled, indexed, shareable.
///
/// `Pdp` owns a [`SharedPdp`] handle plus one reader and the prompt
/// handler, preserving the single-owner API the device runtime uses.
/// [`Pdp::shared`] hands out the underlying handle so any number of
/// concurrent readers (emulated runtimes, benchmark threads) can decide
/// against the same installed set without locks on the read path.
#[derive(Debug)]
pub struct Pdp {
    shared: SharedPdp,
    reader: PdpReader,
    prompt: PromptHandler,
}

impl Pdp {
    /// Creates a PDP over a policy set, compiling it for indexed
    /// evaluation. `bundle_packages` back empty `SenderAppNotIn` lists.
    pub fn new(policies: Vec<Policy>, bundle_packages: Vec<String>) -> Pdp {
        let shared = SharedPdp::new(CompiledPolicySet::compile(policies, bundle_packages));
        let reader = shared.reader();
        Pdp {
            shared,
            reader,
            prompt: PromptHandler::AlwaysDeny,
        }
    }

    /// An empty PDP (no policies: everything allowed).
    pub fn permissive() -> Pdp {
        Pdp::new(Vec::new(), Vec::new())
    }

    /// Sets the prompt handler.
    pub fn with_prompt(mut self, prompt: PromptHandler) -> Pdp {
        self.prompt = prompt;
        self
    }

    /// The installed policies (current snapshot, priority order).
    pub fn policies(&self) -> &[Policy] {
        self.reader.current().policies()
    }

    /// The shared swap handle: clone it to add concurrent readers or to
    /// publish deltas from another thread.
    pub fn shared(&self) -> SharedPdp {
        self.shared.clone()
    }

    /// Number of evaluations performed so far (all readers).
    pub fn evaluations(&self) -> u64 {
        self.shared.evaluations()
    }

    /// Number of prompts shown so far (all readers).
    pub fn prompts(&self) -> u64 {
        self.shared.prompts()
    }

    /// Applies a policy-set change: retired policies are matched by
    /// [content identity](Policy::content_key) (ids are irrelevant),
    /// added ones get fresh ids, and unchanged policies keep their ids —
    /// audit logs stay diffable across deltas. The recompiled set is
    /// published atomically; concurrent readers never stop deciding.
    /// This is how Marshmallow-style incremental re-synthesis reaches a
    /// running device without redeploying the whole set.
    pub fn apply_delta(&mut self, added: Vec<Policy>, removed: &[Policy]) {
        self.shared.apply_delta(added, removed);
        self.reader.refresh();
    }

    /// Evaluates an event against the policy set: the first matching
    /// policy decides.
    pub fn evaluate(&mut self, event: PolicyEvent, ctx: &IccContext) -> Decision {
        self.reader.evaluate(event, ctx, &mut self.prompt)
    }
}

/// The retained linear-scan PDP: the executable specification the
/// compiled engine is differentially tested against, and the baseline
/// leg of the `pdp_throughput` benchmark.
///
/// Semantics are identical to [`Pdp`] by construction of the test suite;
/// performance is O(policies × conditions) string comparison per
/// decision, with an allocation per deny.
#[derive(Debug)]
pub struct LinearPdp {
    policies: Vec<Policy>,
    /// Packages of the analyzed bundle (for `SenderAppNotIn` defaults).
    bundle_packages: Vec<String>,
    prompt: PromptHandler,
    evaluations: u64,
    prompts: u64,
}

impl LinearPdp {
    /// Creates a linear-scan PDP over a policy set.
    pub fn new(policies: Vec<Policy>, bundle_packages: Vec<String>) -> LinearPdp {
        LinearPdp {
            policies,
            bundle_packages,
            prompt: PromptHandler::AlwaysDeny,
            evaluations: 0,
            prompts: 0,
        }
    }

    /// Sets the prompt handler.
    pub fn with_prompt(mut self, prompt: PromptHandler) -> LinearPdp {
        self.prompt = prompt;
        self
    }

    /// The installed policies.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Number of evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of prompts shown so far.
    pub fn prompts(&self) -> u64 {
        self.prompts
    }

    /// Applies a policy-set change with the same stable-id semantics as
    /// [`Pdp::apply_delta`] (shared [`policy::merge_delta`] logic).
    pub fn apply_delta(&mut self, added: Vec<Policy>, removed: &[Policy]) {
        policy::merge_delta(&mut self.policies, added, removed);
    }

    /// Evaluates an event against the policy set: the first matching
    /// policy decides.
    pub fn evaluate(&mut self, event: PolicyEvent, ctx: &IccContext) -> Decision {
        self.evaluations += 1;
        // Two-phase to appease the borrow checker: find the deciding
        // policy, then act on it.
        let hit = self
            .policies
            .iter()
            .position(|p| p.event == event && conditions_hold(p, ctx, &self.bundle_packages));
        let Some(i) = hit else {
            return Decision::Allow;
        };
        let p = &self.policies[i];
        let (id, action) = (p.id, p.action);
        match action {
            PolicyAction::Allow => Decision::Allow,
            PolicyAction::Deny => Decision::Deny {
                policy_id: id,
                vulnerability: p.vulnerability.as_str().into(),
            },
            PolicyAction::Prompt => {
                self.prompts += 1;
                let policy = self.policies[i].clone();
                if self.prompt.answer(&policy, ctx) {
                    Decision::PromptAllowed { policy_id: id }
                } else {
                    Decision::PromptDenied {
                        policy_id: id,
                        vulnerability: policy.vulnerability.as_str().into(),
                    }
                }
            }
        }
    }
}

fn conditions_hold(policy: &Policy, ctx: &IccContext, bundle: &[String]) -> bool {
    policy.conditions.iter().all(|c| match c {
        Condition::ReceiverIs(class) => ctx.receiver_component.as_deref() == Some(class),
        Condition::SenderIs(class) => ctx.sender_component == *class,
        Condition::SenderNotIn(classes) => !classes.contains(&ctx.sender_component),
        Condition::ReceiverNotIn(classes) => match &ctx.receiver_component {
            // On send events the receiver is not yet resolved; the
            // condition is conservatively considered met (the delivery
            // could reach a non-intended receiver).
            None => true,
            Some(r) => !classes.contains(r),
        },
        Condition::ActionIs(a) => ctx.action.as_deref() == Some(a),
        Condition::ExtraTagged(name) => Resource::from_name(name)
            .map(|r| ctx.tags.contains(&r))
            .unwrap_or(false),
        Condition::SenderAppNotIn(packages) => {
            let reference: &[String] = if packages.is_empty() {
                bundle
            } else {
                packages
            };
            !reference.contains(&ctx.sender_app)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak_policy() -> Policy {
        Policy {
            id: 7,
            vulnerability: "information-leakage".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![
                Condition::ReceiverIs("LMessageSender;".into()),
                Condition::ExtraTagged("LOCATION".into()),
            ],
            action: PolicyAction::Prompt,
            rationale: "paper running example".into(),
        }
    }

    fn attack_ctx() -> IccContext {
        IccContext {
            sender_app: "com.mal".into(),
            sender_component: "LMal;".into(),
            receiver_app: Some("com.messenger".into()),
            receiver_component: Some("LMessageSender;".into()),
            action: None,
            tags: [Resource::Location].into_iter().collect(),
        }
    }

    #[test]
    fn matching_prompt_policy_denies_by_default() {
        let mut pdp = Pdp::new(vec![leak_policy()], vec![]);
        let d = pdp.evaluate(PolicyEvent::IccReceive, &attack_ctx());
        assert_eq!(
            d,
            Decision::PromptDenied {
                policy_id: 7,
                vulnerability: "information-leakage".into()
            }
        );
        assert!(!d.allows());
        assert_eq!(pdp.prompts(), 1);
    }

    #[test]
    fn user_consent_allows() {
        let mut pdp = Pdp::new(vec![leak_policy()], vec![]).with_prompt(PromptHandler::AlwaysAllow);
        let d = pdp.evaluate(PolicyEvent::IccReceive, &attack_ctx());
        assert_eq!(d, Decision::PromptAllowed { policy_id: 7 });
        assert!(d.allows());
    }

    #[test]
    fn non_matching_traffic_is_allowed() {
        let mut pdp = Pdp::new(vec![leak_policy()], vec![]);
        let mut ctx = attack_ctx();
        ctx.tags.clear(); // benign payload
        assert_eq!(pdp.evaluate(PolicyEvent::IccReceive, &ctx), Decision::Allow);
        // Wrong event kind:
        assert_eq!(
            pdp.evaluate(PolicyEvent::IccSend, &attack_ctx()),
            Decision::Allow
        );
    }

    #[test]
    fn sender_app_not_in_defaults_to_bundle() {
        let policy = Policy {
            id: 1,
            vulnerability: "component-launch".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![
                Condition::ReceiverIs("LSvc;".into()),
                Condition::SenderAppNotIn(vec![]),
            ],
            action: PolicyAction::Deny,
            rationale: String::new(),
        };
        let mut pdp = Pdp::new(vec![policy], vec!["com.trusted".into()]);
        let mut ctx = IccContext {
            sender_app: "com.mal".into(),
            receiver_component: Some("LSvc;".into()),
            ..IccContext::default()
        };
        assert!(!pdp.evaluate(PolicyEvent::IccReceive, &ctx).allows());
        ctx.sender_app = "com.trusted".into();
        assert!(pdp.evaluate(PolicyEvent::IccReceive, &ctx).allows());
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn callback_prompts_see_the_policy_and_the_event() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<(String, Option<String>)>>> = Arc::default();
        let seen2 = Arc::clone(&seen);
        let mut pdp = Pdp::new(vec![leak_policy()], vec![]).with_prompt(PromptHandler::Callback(
            Box::new(move |policy, ctx| {
                seen2
                    .lock()
                    .expect("lock")
                    .push((policy.rationale.clone(), ctx.receiver_component.clone()));
                // Allow exactly when the receiver is the known component.
                ctx.receiver_component.as_deref() == Some("LMessageSender;")
            }),
        ));
        let d = pdp.evaluate(PolicyEvent::IccReceive, &attack_ctx());
        assert!(d.allows());
        let log = seen.lock().expect("lock");
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, "paper running example");
        assert_eq!(log[0].1.as_deref(), Some("LMessageSender;"));
    }

    #[test]
    fn scripted_prompts_consume_in_order() {
        let mut pdp = Pdp::new(vec![leak_policy()], vec![])
            .with_prompt(PromptHandler::scripted([true, false]));
        assert!(pdp
            .evaluate(PolicyEvent::IccReceive, &attack_ctx())
            .allows());
        assert!(!pdp
            .evaluate(PolicyEvent::IccReceive, &attack_ctx())
            .allows());
        // Exhausted: refuse.
        assert!(!pdp
            .evaluate(PolicyEvent::IccReceive, &attack_ctx())
            .allows());
    }

    #[test]
    fn delta_keeps_ids_of_unchanged_policies() {
        let keep = leak_policy();
        let retire = Policy {
            id: 3,
            vulnerability: "component-launch".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![Condition::ReceiverIs("LSvc;".into())],
            action: PolicyAction::Deny,
            rationale: String::new(),
        };
        let fresh = Policy {
            id: 0, // overwritten on install
            vulnerability: "broadcast-injection".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![Condition::ActionIs("BOOT".into())],
            action: PolicyAction::Deny,
            rationale: String::new(),
        };
        let mut pdp = Pdp::new(vec![keep.clone(), retire.clone()], vec![]);
        pdp.apply_delta(vec![fresh.clone()], &[retire]);
        let ids: Vec<u32> = pdp.policies().iter().map(|p| p.id).collect();
        // The survivor keeps id 7; the new policy gets a fresh id above
        // everything previously seen (8), not a recycled one.
        assert_eq!(ids, vec![7, 8]);
        assert_eq!(pdp.policies()[0], keep);

        // Added policies that repeat a survivor's content, or an earlier
        // added policy's, are dropped: first occurrence wins, whatever
        // the duplicate's id and rationale.
        let again = |p: &Policy| Policy {
            id: 42,
            rationale: "duplicate".into(),
            ..p.clone()
        };
        let other = Policy {
            id: 0,
            vulnerability: "privilege-escalation".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![Condition::ReceiverIs("LSms;".into())],
            action: PolicyAction::Prompt,
            rationale: "first".into(),
        };
        pdp.apply_delta(vec![again(&keep), other.clone(), again(&other)], &[]);
        let ids: Vec<u32> = pdp.policies().iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![7, 8, 9]);
        assert_eq!(pdp.policies()[0], keep);
        assert_eq!(pdp.policies()[1], Policy { id: 8, ..fresh });
        assert_eq!(pdp.policies()[2], Policy { id: 9, ..other });
    }
}
