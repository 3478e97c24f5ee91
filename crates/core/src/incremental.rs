//! Incremental policy synthesis for evolving systems.
//!
//! The paper's concluding remarks motivate exactly this: under
//! Marshmallow's Permission Manager the user can revoke permissions after
//! install, so "SEPAR's incremental analysis for policy synthesis can
//! then be performed on permission-modified apps at runtime". An
//! [`IncrementalSession`] keeps the bundle models and per-signature
//! results alive. A change re-plans the relevance slice of every
//! signature, and each signature is keyed by its slice
//! ([`crate::reuse`]); only the ones whose key moved are synthesized
//! again, the others keep their result. A permission toggle synthesizes
//! only signatures whose declared [`Sensitivity`] covers permissions: the
//! others keep their exploits, filed under their new slice key, so a
//! store holding the session's results holds every current key.
//! Every change yields a [`PolicyDelta`] the enforcer can apply without
//! re-deploying the whole policy set.
//!
//! The session keeps each model's content address next to it, computed
//! only when a model is new or changed (an install, a permission toggle,
//! a passive-intent retarget), so keying hashes 32 bytes per kept app
//! rather than whole models. [`IncrementalSession::resume`] takes the
//! addresses a store already names its models by, and asks the store for
//! a result under each key before synthesizing: a restart over an
//! unchanged store solves nothing.

use std::collections::HashSet;
use std::sync::Arc;

use separ_analysis::cache::model_address;
use separ_analysis::model::{retarget_passive_intents, AppModel};
use separ_analysis::slicing::{self, AppSummary};
use separ_logic::LogicError;

use crate::exec::Executor;
use crate::exploit::Exploit;
use crate::pipeline::{derive_policies, synthesize_all, Reuse, Slicing};
use crate::policy::{Policy, PolicyKey};
use crate::reuse::{ModelAddress, ResultKey};
use crate::signature::{Sensitivity, SignatureRegistry};
use crate::SeparConfig;

/// What changed in the policy set after a system change.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PolicyDelta {
    /// Newly required policies.
    pub added: Vec<Policy>,
    /// Policies that are no longer needed.
    pub removed: Vec<Policy>,
    /// How many signatures were synthesized again to compute this delta
    /// (a re-planned signature whose slice key did not change reuses its
    /// result and is not counted).
    pub signatures_rerun: usize,
    /// How many apps had their relevance-slicing capability summary
    /// recomputed (summaries are app-local, so a change to one app never
    /// forces re-summarizing another).
    pub apps_resliced: usize,
    /// How many [`SessionOp`]s were folded into this one delta pass (one
    /// for the single-op entry points; the coalescing measure for
    /// [`IncrementalSession::apply_batch`]).
    pub ops_coalesced: usize,
}

/// One mutation of the evolving device, as accepted by
/// [`IncrementalSession::apply_batch`].
///
/// A batch of ops is folded into a *single* delta re-analysis: all model
/// mutations are applied first, then the affected signatures re-run once.
/// This is what makes a burst of market churn (a `separ serve` request
/// queue draining) cost one synthesis pass instead of one per request.
#[derive(Debug, Clone)]
pub enum SessionOp {
    /// Install `model`, or — when a package of the same name is already
    /// installed — *update* it in place (replace the model, keep the
    /// bundle position).
    Install(AppModel),
    /// Remove the named package (no-op if absent).
    Uninstall(String),
    /// Grant or revoke a permission on the named package.
    SetPermission {
        /// The target package.
        package: String,
        /// The permission to toggle.
        permission: String,
        /// `true` grants, `false` revokes.
        granted: bool,
    },
}

impl PolicyDelta {
    /// Returns `true` if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A long-lived analysis session over an evolving device.
pub struct IncrementalSession {
    registry: SignatureRegistry,
    config: SeparConfig,
    apps: Vec<AppModel>,
    /// Per-app capability summaries (same order as `apps`), kept current
    /// across changes so re-runs slice without re-summarizing the bundle.
    summaries: Vec<AppSummary>,
    /// Per-app model content addresses (same order as `apps`).
    addresses: Vec<ModelAddress>,
    /// Per registered signature (same order as the registry): its current
    /// exploits and the key of the slice they were synthesized for
    /// (`None` while the bundle is empty).
    results: Vec<(Option<ResultKey>, Vec<Exploit>)>,
    /// Shared with whoever publishes or enforces it
    /// ([`IncrementalSession::shared_policies`]); replaced, never edited.
    policies: Arc<[Policy]>,
    total_syntheses: usize,
}

/// Where a resuming session looks for a result synthesized by an
/// earlier process: the exploits stored under a key, if any.
pub type StoredResults<'a> = &'a dyn Fn(&ResultKey) -> Option<Vec<Exploit>>;

impl std::fmt::Debug for IncrementalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSession")
            .field("apps", &self.apps.len())
            .field("policies", &self.policies.len())
            .field("total_syntheses", &self.total_syntheses)
            .finish()
    }
}

impl IncrementalSession {
    /// Starts a session with a full analysis of the bundle.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn new(
        registry: SignatureRegistry,
        config: SeparConfig,
        mut apps: Vec<AppModel>,
    ) -> Result<IncrementalSession, LogicError> {
        retarget_passive_intents(&mut apps);
        let addresses = apps.iter().map(model_address).collect();
        Ok(IncrementalSession::resume(registry, config, apps, addresses, &|_| None)?.0)
    }

    /// [`IncrementalSession::new`] over a bundle restored from storage.
    /// `addresses[i]` must be the content address of `apps[i]`
    /// (`separ_analysis::cache::model_address`), which a store that files
    /// model entries under it has at hand. Before synthesizing a signature,
    /// the session asks `stored` for a result under its slice key, and
    /// [`IncrementalSession::total_syntheses`] counts only the
    /// signatures it had to synthesize.
    ///
    /// Also returns the indices of the apps whose models passive-intent
    /// resolution changed (see [`retarget_passive_intents`]); their
    /// addresses are recomputed. None means the session's models equal
    /// the ones given, so a store holding them needs no re-persist.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    ///
    /// # Panics
    ///
    /// Panics if `addresses` and `apps` differ in length.
    pub fn resume(
        registry: SignatureRegistry,
        config: SeparConfig,
        mut apps: Vec<AppModel>,
        mut addresses: Vec<ModelAddress>,
        stored: StoredResults<'_>,
    ) -> Result<(IncrementalSession, Vec<usize>), LogicError> {
        assert_eq!(apps.len(), addresses.len(), "one address per app");
        let resolution = separ_obs::span("pipeline.resolution");
        let retargeted = retarget_passive_intents(&mut apps);
        for &i in &retargeted {
            addresses[i] = model_address(&apps[i]);
        }
        drop(resolution);
        let summaries = {
            let _span = separ_obs::span("ase.summarize");
            slicing::summarize_bundle(&apps)
        };
        let mut session = IncrementalSession {
            results: vec![(None, Vec::new()); registry.len()],
            registry,
            config,
            apps,
            summaries,
            addresses,
            policies: Arc::new([]),
            total_syntheses: 0,
        };
        session.rerun(|_| true, stored)?;
        Ok((session, retargeted))
    }

    /// The current bundle models.
    pub fn apps(&self) -> &[AppModel] {
        &self.apps
    }

    /// The current policy set.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// The current policy set, shared rather than copied: a later change
    /// replaces the session's list and leaves this one as it is.
    pub fn shared_policies(&self) -> Arc<[Policy]> {
        Arc::clone(&self.policies)
    }

    /// All currently known exploits.
    pub fn exploits(&self) -> impl Iterator<Item = &Exploit> + '_ {
        self.results.iter().flat_map(|(_, exploits)| exploits)
    }

    /// Each signature's current exploits with the key of its current
    /// slice, in registry order: what a store keeps for
    /// [`IncrementalSession::resume`] to find.
    pub fn results(&self) -> impl Iterator<Item = (&ResultKey, &[Exploit])> + '_ {
        self.results
            .iter()
            .filter_map(|(key, exploits)| Some((key.as_ref()?, exploits.as_slice())))
    }

    /// Total signature syntheses performed over the session's lifetime
    /// (the incrementality measure: full re-analysis would be
    /// `registry.len()` per change). A signature whose result was reused
    /// is not counted.
    pub fn total_syntheses(&self) -> usize {
        self.total_syntheses
    }

    /// Re-plans every signature and synthesizes the ones `select` picks
    /// whose slice key differs from their current result's, taking a
    /// result from `stored` where it has one; a signature `select`
    /// declines keeps its exploits under its new key. Returns how many it
    /// synthesized.
    fn rerun(
        &mut self,
        select: impl Fn(Sensitivity) -> bool,
        stored: StoredResults<'_>,
    ) -> Result<usize, LogicError> {
        let _span = separ_obs::span("pipeline.incremental");
        let declined: Vec<bool> = (self.registry.iter())
            .map(|sig| !select(sig.sensitivity()))
            .collect();
        let results = &mut self.results;
        let mut keys = vec![None; declined.len()];
        let mut have = |i: usize, key: &ResultKey| {
            if results[i].0 == Some(*key) {
                return true;
            }
            if declined[i] {
                // The change cannot move this signature's exploits.
                results[i].0 = Some(*key);
                return true;
            }
            match stored(key) {
                Some(exploits) => {
                    results[i] = (Some(*key), exploits);
                    true
                }
                None => {
                    keys[i] = Some(*key);
                    false
                }
            }
        };
        // Affected signatures re-solve in parallel on the shared executor;
        // results land back in their registry slots, so the merged results
        // (and thus the policy set) are independent of thread count.
        let syntheses = synthesize_all(
            &Executor::new(self.config.threads),
            &self.registry,
            &self.apps,
            &self.config,
            Slicing::On(Some(&self.summaries)),
            Some(Reuse {
                addresses: &self.addresses,
                have: &mut have,
            }),
        )?;
        let mut reran = 0;
        for ((slot, syn), key) in self.results.iter_mut().zip(syntheses).zip(keys) {
            if let Some(run) = syn {
                *slot = (key, run.synthesis.exploits);
                reran += 1;
            }
        }
        self.total_syntheses += reran;
        // Re-derive the policy set from the merged results: hijack
        // carve-outs read every app, so this runs even when every
        // signature's result was reused.
        self.policies = derive_policies(&self.apps, self.exploits()).into();
        Ok(reran)
    }

    /// The policy change from `before` to the current set, by content
    /// identity; `added` and `removed` keep the order of the current set
    /// and of `before`.
    fn delta_from(&mut self, before: &[Policy], reran: usize, resliced: usize) -> PolicyDelta {
        let added = {
            let before_keys: HashSet<PolicyKey> = before.iter().map(Policy::content_key).collect();
            self.policies
                .iter()
                .filter(|p| !before_keys.contains(&p.content_key()))
                .cloned()
                .collect()
        };
        let current_keys: HashSet<PolicyKey> =
            self.policies.iter().map(Policy::content_key).collect();
        let removed = before
            .iter()
            .filter(|q| !current_keys.contains(&q.content_key()))
            .cloned()
            .collect();
        PolicyDelta {
            added,
            removed,
            signatures_rerun: reran,
            apps_resliced: resliced,
            ops_coalesced: 1,
        }
    }

    /// Applies a whole batch of churn in **one** delta pass.
    ///
    /// All model mutations land first (installs replacing same-named
    /// packages in place, uninstalls filtering, permission toggles
    /// editing), touched apps are re-summarized for slicing, passive
    /// intents re-resolve once if the topology changed — and then every
    /// signature is re-planned a single time. Only the signatures whose
    /// slice key changed are synthesized again
    /// ([`PolicyDelta::signatures_rerun`] counts them), and of those, a
    /// batch that only toggles permissions synthesizes only
    /// permission-sensitive ones (the others keep their exploits under
    /// their new key). The returned
    /// delta is the net policy change of the whole batch, with
    /// [`PolicyDelta::ops_coalesced`] recording how many ops it folded.
    ///
    /// This is the coalescing primitive `separ serve` drains its request
    /// queue through: a burst of N market-churn requests costs one
    /// re-analysis, not N.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn apply_batch(&mut self, ops: Vec<SessionOp>) -> Result<PolicyDelta, LogicError> {
        let ops_coalesced = ops.len();
        let mut topology = false;
        let mut permissions = false;
        let mut resliced = 0usize;
        for op in ops {
            match op {
                SessionOp::Install(model) => {
                    // Summaries never read the cross-app passive-resolution
                    // results, so only the new app needs summarizing.
                    let summary = slicing::summarize_app(&model);
                    let address = model_address(&model);
                    match self.apps.iter().position(|a| a.package == model.package) {
                        // Reinstalling an installed package is an
                        // *update*: replace the model in its bundle slot
                        // instead of growing the app list.
                        Some(i) => {
                            self.apps[i] = model;
                            self.summaries[i] = summary;
                            self.addresses[i] = address;
                        }
                        None => {
                            self.apps.push(model);
                            self.summaries.push(summary);
                            self.addresses.push(address);
                        }
                    }
                    resliced += 1;
                    topology = true;
                }
                SessionOp::Uninstall(package) => {
                    while let Some(i) = self.apps.iter().position(|a| a.package == package) {
                        self.apps.remove(i);
                        self.summaries.remove(i);
                        self.addresses.remove(i);
                        topology = true;
                    }
                }
                SessionOp::SetPermission {
                    package,
                    permission,
                    granted,
                } => {
                    let slots = self
                        .apps
                        .iter_mut()
                        .zip(self.summaries.iter_mut())
                        .zip(self.addresses.iter_mut());
                    for ((app, summary), address) in slots {
                        if app.package == package {
                            let touched = if granted {
                                app.uses_permissions.insert(permission.clone())
                            } else {
                                app.uses_permissions.remove(&permission)
                            };
                            if touched {
                                // Summaries are app-local: only the
                                // toggled app's capability bits changed.
                                *summary = slicing::summarize_app(app);
                                *address = model_address(app);
                                resliced += 1;
                                permissions = true;
                            }
                        }
                    }
                }
            }
        }
        if !topology && !permissions {
            return Ok(PolicyDelta {
                ops_coalesced,
                ..PolicyDelta::default()
            });
        }
        if topology {
            // Passive resolution is a pure function of the bundle
            // (recomputed from scratch), so one pass after all mutations
            // is exactly the from-scratch result.
            for i in retarget_passive_intents(&mut self.apps) {
                self.addresses[i] = model_address(&self.apps[i]);
            }
        }
        let before = self.shared_policies();
        let reran = if self.apps.is_empty() {
            for slot in &mut self.results {
                *slot = (None, Vec::new());
            }
            self.policies = Arc::new([]);
            0
        } else if topology {
            self.rerun(|_| true, &|_| None)?
        } else {
            self.rerun(|s| s.permissions, &|_| None)?
        };
        let mut delta = self.delta_from(&before, reran, resliced);
        delta.ops_coalesced = ops_coalesced;
        Ok(delta)
    }

    /// Applies a Permission Manager change: grant or revoke `permission`
    /// for `package`, synthesizing only permission-sensitive signatures.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn set_permission(
        &mut self,
        package: &str,
        permission: &str,
        granted: bool,
    ) -> Result<PolicyDelta, LogicError> {
        self.apply_batch(vec![SessionOp::SetPermission {
            package: package.to_string(),
            permission: permission.to_string(),
            granted,
        }])
    }

    /// Installs an app into the bundle (every signature is re-planned: the
    /// topology changed). Installing a package that is already present behaves as
    /// an update: the model is replaced in place.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn install(&mut self, app: AppModel) -> Result<PolicyDelta, LogicError> {
        self.apply_batch(vec![SessionOp::Install(app)])
    }

    /// Uninstalls an app from the bundle (every signature is re-planned).
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn uninstall(&mut self, package: &str) -> Result<PolicyDelta, LogicError> {
        self.apply_batch(vec![SessionOp::Uninstall(package.to_string())])
    }

    /// A clone of the current bundle models, in session order — exactly
    /// the state a from-scratch [`IncrementalSession::new`] (or a
    /// persistent-store restore in `separ serve`) needs to reproduce
    /// this session's policies and exploits.
    pub fn snapshot(&self) -> Vec<AppModel> {
        self.apps.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::tests_support::{app, comp, sent};
    use crate::VulnKind;
    use separ_android::api::IccMethod;
    use separ_android::types::{perm, FlowPath, Resource};
    use separ_dex::manifest::{ComponentKind, IntentFilterDecl};
    use std::collections::{BTreeSet, HashMap};

    fn messenger_model() -> AppModel {
        let mut ms = comp("LMessageSender;", ComponentKind::Service);
        ms.exported = true;
        ms.paths.insert(FlowPath::new(Resource::Icc, Resource::Sms));
        ms.used_permissions.insert(perm::SEND_SMS.into());
        let mut a = app("com.messenger", vec![ms]);
        a.uses_permissions.insert(perm::SEND_SMS.into());
        a
    }

    fn navigator_model() -> AppModel {
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
        app("com.nav", vec![lf, rf])
    }

    fn session() -> IncrementalSession {
        IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            vec![navigator_model(), messenger_model()],
        )
        .expect("analysis succeeds")
    }

    #[test]
    fn revoking_send_sms_retires_the_escalation_policy() {
        let mut s = session();
        assert!(s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
        let delta = s
            .set_permission("com.messenger", perm::SEND_SMS, false)
            .expect("re-analysis succeeds");
        assert!(
            delta
                .removed
                .iter()
                .any(|p| p.vulnerability == VulnKind::PrivilegeEscalation.name()),
            "revocation must retire the escalation policy: {delta:?}"
        );
        assert!(!s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
        // Only the permission-sensitive signature re-ran.
        assert_eq!(delta.signatures_rerun, 1);
    }

    #[test]
    fn regranting_restores_the_policy() {
        let mut s = session();
        s.set_permission("com.messenger", perm::SEND_SMS, false)
            .expect("revoke");
        let delta = s
            .set_permission("com.messenger", perm::SEND_SMS, true)
            .expect("grant");
        assert!(delta
            .added
            .iter()
            .any(|p| p.vulnerability == VulnKind::PrivilegeEscalation.name()));
    }

    #[test]
    fn noop_changes_produce_empty_deltas() {
        let mut s = session();
        let d = s
            .set_permission("com.messenger", perm::CAMERA, false)
            .expect("noop revoke of a permission the app never had");
        assert!(d.is_empty());
        assert_eq!(d.signatures_rerun, 0);
        let d = s.uninstall("com.not.installed").expect("noop uninstall");
        assert!(d.is_empty());
    }

    #[test]
    fn permission_toggles_leave_topology_policies_untouched() {
        let mut s = session();
        let hijack_policies: Vec<Policy> = s
            .policies()
            .iter()
            .filter(|p| p.vulnerability == VulnKind::IntentHijack.name())
            .cloned()
            .collect();
        assert!(!hijack_policies.is_empty());
        let delta = s
            .set_permission("com.messenger", perm::SEND_SMS, false)
            .expect("revoke");
        for p in &hijack_policies {
            assert!(
                !delta
                    .removed
                    .iter()
                    .any(|q| q.content_key() == p.content_key()),
                "hijack policy must survive a permission toggle"
            );
        }
    }

    #[test]
    fn install_and_uninstall_track_the_bundle() {
        let mut s = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            vec![navigator_model()],
        )
        .expect("analysis succeeds");
        let before = s.policies().len();
        let delta = s.install(messenger_model()).expect("install");
        assert!(delta.added.len() + before >= s.policies().len());
        assert!(s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
        let delta = s.uninstall("com.messenger").expect("uninstall");
        assert!(delta
            .removed
            .iter()
            .any(|p| p.vulnerability == VulnKind::PrivilegeEscalation.name()));
        assert!(!s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
    }

    #[test]
    fn incremental_is_cheaper_than_full_reanalysis() {
        let mut s = session();
        let after_init = s.total_syntheses();
        assert_eq!(after_init, 4, "initial full run");
        s.set_permission("com.messenger", perm::SEND_SMS, false)
            .expect("revoke");
        s.set_permission("com.messenger", perm::SEND_SMS, true)
            .expect("grant");
        // Two toggles cost two syntheses, not eight.
        assert_eq!(s.total_syntheses(), after_init + 2);
    }

    #[test]
    fn reinstalling_an_installed_package_updates_in_place() {
        let mut s = session();
        assert_eq!(s.apps().len(), 2);
        assert!(s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
        // "Reinstall" the messenger with its SMS capability stripped:
        // must replace the model in place, not grow the app list.
        let updated = app(
            "com.messenger",
            vec![comp("LMessageSender;", ComponentKind::Service)],
        );
        let delta = s.install(updated).expect("update re-analysis succeeds");
        assert_eq!(s.apps().len(), 2, "update must not duplicate the app");
        assert_eq!(
            s.apps()[1].package,
            "com.messenger",
            "update keeps the bundle position"
        );
        assert!(
            delta
                .removed
                .iter()
                .any(|p| p.vulnerability == VulnKind::PrivilegeEscalation.name()),
            "stripping the capability retires the escalation policy: {delta:?}"
        );
        assert!(!s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
        // The updated session agrees with a from-scratch analysis.
        let scratch = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            s.snapshot(),
        )
        .expect("scratch");
        assert_eq!(s.policies(), scratch.policies());
        // Reinstalling the original capability restores the policy.
        let delta = s.install(messenger_model()).expect("reinstall");
        assert_eq!(s.apps().len(), 2);
        assert!(delta
            .added
            .iter()
            .any(|p| p.vulnerability == VulnKind::PrivilegeEscalation.name()));
    }

    #[test]
    fn apply_batch_coalesces_churn_into_one_pass() {
        let mut s = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            vec![navigator_model()],
        )
        .expect("analysis succeeds");
        let after_init = s.total_syntheses();
        let delta = s
            .apply_batch(vec![
                SessionOp::Install(messenger_model()),
                SessionOp::SetPermission {
                    package: "com.messenger".into(),
                    permission: perm::CAMERA.into(),
                    granted: true,
                },
                SessionOp::Install(app(
                    "com.extra",
                    vec![comp("LExtra;", ComponentKind::Activity)],
                )),
                SessionOp::Uninstall("com.extra".into()),
            ])
            .expect("batch re-analysis succeeds");
        assert_eq!(delta.ops_coalesced, 4);
        // One pass over the registry, not one per op; of its four
        // signatures, only the two whose slice the messenger joined are
        // synthesized again (the others' slice keys did not move).
        assert_eq!(delta.signatures_rerun, 2);
        assert_eq!(s.total_syntheses(), after_init + 2);
        assert_eq!(s.apps().len(), 2);
        assert!(s
            .exploits()
            .any(|e| e.kind() == VulnKind::PrivilegeEscalation));
        // The batched session agrees with a from-scratch analysis.
        let scratch = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            s.snapshot(),
        )
        .expect("scratch");
        assert_eq!(s.policies(), scratch.policies());
        assert_eq!(
            s.exploits().collect::<Vec<_>>(),
            scratch.exploits().collect::<Vec<_>>()
        );
        // A batch of pure no-ops re-runs nothing.
        let delta = s
            .apply_batch(vec![
                SessionOp::Uninstall("com.not.installed".into()),
                SessionOp::SetPermission {
                    package: "com.messenger".into(),
                    permission: perm::CAMERA.into(),
                    granted: true,
                },
            ])
            .expect("noop batch");
        assert!(delta.is_empty());
        assert_eq!(delta.signatures_rerun, 0);
        assert_eq!(delta.ops_coalesced, 2);
    }

    #[test]
    fn changes_reslice_only_the_touched_app() {
        let mut s = session();
        let delta = s
            .set_permission("com.messenger", perm::SEND_SMS, false)
            .expect("revoke");
        assert_eq!(delta.apps_resliced, 1, "only the toggled app");
        let delta = s
            .install(app(
                "com.extra",
                vec![comp("LExtra;", ComponentKind::Activity)],
            ))
            .expect("install");
        assert_eq!(delta.apps_resliced, 1, "only the new app");
        let delta = s.uninstall("com.messenger").expect("uninstall");
        assert_eq!(delta.apps_resliced, 0, "removal re-summarizes nothing");
        // Deltas with slicing on still track the bundle: the session and
        // a from-scratch run agree (the differential suite widens this).
        let scratch = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            s.apps().to_vec(),
        )
        .expect("scratch");
        assert_eq!(s.policies(), scratch.policies());
    }

    /// Every result `s` holds, by key.
    fn stored_results(s: &IncrementalSession) -> HashMap<ResultKey, Vec<Exploit>> {
        s.results()
            .map(|(key, exploits)| (*key, exploits.to_vec()))
            .collect()
    }

    fn resume_from(
        s: &IncrementalSession,
        config: SeparConfig,
        stored: &HashMap<ResultKey, Vec<Exploit>>,
    ) -> IncrementalSession {
        let apps = s.snapshot();
        let addresses = apps.iter().map(model_address).collect();
        IncrementalSession::resume(
            SignatureRegistry::standard(),
            config,
            apps,
            addresses,
            &|key| stored.get(key).cloned(),
        )
        .expect("resumes")
        .0
    }

    #[test]
    fn resuming_over_stored_results_synthesizes_nothing() {
        let s = session();
        let stored = stored_results(&s);
        assert_eq!(stored.len(), 4, "one result per signature");
        let resumed = resume_from(&s, SeparConfig::default(), &stored);
        assert_eq!(resumed.total_syntheses(), 0);
        assert_eq!(resumed.policies(), s.policies());
        assert!(resumed.exploits().eq(s.exploits()));
        assert_eq!(stored_results(&resumed), stored);
        // Without stored results, or under another scenario limit (other
        // keys), every signature is synthesized again, to the same output.
        let none = resume_from(&s, SeparConfig::default(), &HashMap::new());
        assert_eq!(none.total_syntheses(), 4);
        assert_eq!(none.policies(), s.policies());
        let config = SeparConfig {
            scenario_limit: 65,
            ..SeparConfig::default()
        };
        let other = resume_from(&s, config, &stored);
        assert_eq!(other.total_syntheses(), 4);
        assert_eq!(other.policies(), s.policies());
        assert!(other.results().all(|(key, _)| !stored.contains_key(key)));
    }

    #[test]
    fn changes_resynthesize_only_the_slices_they_touch() {
        let mut s = session();
        let before = stored_results(&s);
        // Re-installing identical models moves no slice key.
        let delta = s
            .apply_batch(vec![
                SessionOp::Install(navigator_model()),
                SessionOp::Install(messenger_model()),
            ])
            .expect("reinstall");
        assert_eq!(delta.signatures_rerun, 0);
        assert!(delta.is_empty());
        assert_eq!(stored_results(&s), before);
        // A permission toggle synthesizes the escalation signature only;
        // the others keep their exploits, filed under their new slice key
        // where the toggled model sits in their slice, so a session
        // resumed over the results synthesizes nothing.
        let delta = s
            .set_permission("com.messenger", perm::SEND_SMS, false)
            .expect("revoke");
        assert_eq!(delta.signatures_rerun, 1);
        let after = stored_results(&s);
        assert_eq!(after.len(), 4);
        let moved = before.keys().filter(|k| !after.contains_key(k)).count();
        assert!(
            moved > 1,
            "the toggle re-keyed more than the synthesized signature"
        );
        let exploits = |r: &HashMap<ResultKey, Vec<Exploit>>| -> BTreeSet<String> {
            r.values().flatten().map(|e| e.to_string()).collect()
        };
        let kept = exploits(&before).intersection(&exploits(&after)).count();
        assert!(kept > 0, "the re-keyed signatures kept their exploits");
        let resumed = resume_from(&s, SeparConfig::default(), &after);
        assert_eq!(resumed.total_syntheses(), 0);
        assert_eq!(resumed.policies(), s.policies());
        assert!(resumed.exploits().eq(s.exploits()));
        // Installing and removing an app leaves the session where a
        // from-scratch analysis of the same bundle is.
        s.install(app(
            "com.extra",
            vec![comp("LExtra;", ComponentKind::Activity)],
        ))
        .expect("install");
        s.uninstall("com.extra").expect("uninstall");
        let scratch = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::default(),
            s.snapshot(),
        )
        .expect("scratch");
        assert_eq!(s.policies(), scratch.policies());
        assert!(s.exploits().eq(scratch.exploits()));
        // Uninstalling every app clears the results and their keys.
        s.apply_batch(vec![
            SessionOp::Uninstall("com.nav".into()),
            SessionOp::Uninstall("com.messenger".into()),
        ])
        .expect("empty");
        assert_eq!(s.results().count(), 0);
        assert_eq!(s.exploits().count(), 0);
    }
}
