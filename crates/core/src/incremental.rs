//! Incremental policy synthesis for evolving systems.
//!
//! The paper's concluding remarks motivate exactly this: under
//! Marshmallow's Permission Manager the user can revoke permissions after
//! install, so "SEPAR's incremental analysis for policy synthesis can
//! then be performed on permission-modified apps at runtime". An
//! [`IncrementalSession`] keeps the bundle models and per-signature
//! results alive; a permission toggle re-runs only the signatures whose
//! declared [`Sensitivity`] covers permissions, while app installs and
//! removals re-run everything (the bundle topology changed). Every change
//! yields a [`PolicyDelta`] the enforcer can apply without re-deploying
//! the whole policy set.

use std::collections::HashSet;

use separ_analysis::model::{retarget_passive_intents, update_passive_intent_targets, AppModel};
use separ_analysis::slicing::{self, AppSummary};
use separ_logic::LogicError;

use crate::exec::Executor;
use crate::exploit::Exploit;
use crate::pipeline::{derive_policies, synthesize_all, Slicing};
use crate::policy::{Policy, PolicyKey};
use crate::signature::{Sensitivity, SignatureRegistry};
use crate::SeparConfig;

/// What changed in the policy set after a system change.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PolicyDelta {
    /// Newly required policies.
    pub added: Vec<Policy>,
    /// Policies that are no longer needed.
    pub removed: Vec<Policy>,
    /// How many signatures were re-run to compute this delta.
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
    /// Cached exploits per registered signature (same order as registry).
    cache: Vec<Vec<Exploit>>,
    policies: Vec<Policy>,
    total_syntheses: usize,
}

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
        apps: Vec<AppModel>,
    ) -> Result<IncrementalSession, LogicError> {
        Ok(IncrementalSession::resume(registry, config, apps)?.0)
    }

    /// [`IncrementalSession::new`] over a bundle restored from storage,
    /// also returning the indices of the apps whose models passive-intent
    /// resolution changed (see [`retarget_passive_intents`]). None means
    /// the session's models equal the ones given, so a store holding them
    /// needs no re-persist.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn resume(
        registry: SignatureRegistry,
        config: SeparConfig,
        mut apps: Vec<AppModel>,
    ) -> Result<(IncrementalSession, Vec<usize>), LogicError> {
        let retargeted = retarget_passive_intents(&mut apps);
        let summaries = slicing::summarize_bundle(&apps);
        let mut session = IncrementalSession {
            cache: vec![Vec::new(); registry.len()],
            registry,
            config,
            apps,
            summaries,
            policies: Vec::new(),
            total_syntheses: 0,
        };
        session.rerun(|_| true)?;
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

    /// All currently known exploits.
    pub fn exploits(&self) -> impl Iterator<Item = &Exploit> + '_ {
        self.cache.iter().flatten()
    }

    /// Total signature syntheses performed over the session's lifetime
    /// (the incrementality measure: full re-analysis would be
    /// `registry.len()` per change).
    pub fn total_syntheses(&self) -> usize {
        self.total_syntheses
    }

    fn rerun(&mut self, select: impl Fn(Sensitivity) -> bool) -> Result<usize, LogicError> {
        let _span = separ_obs::span("pipeline.incremental");
        // Affected signatures re-solve in parallel on the shared executor;
        // results land back in their registry slots, so the merged caches
        // (and thus the policy set) are independent of thread count.
        let syntheses = synthesize_all(
            &Executor::new(self.config.threads),
            &self.registry,
            |sig| select(sig.sensitivity()),
            &self.apps,
            &self.config,
            Slicing::On(Some(&self.summaries)),
        )?;
        let mut reran = 0;
        for (slot, syn) in self.cache.iter_mut().zip(syntheses) {
            if let Some(run) = syn {
                *slot = run.synthesis.exploits;
                reran += 1;
            }
        }
        self.total_syntheses += reran;
        // Re-derive the policy set from the merged caches.
        self.policies = derive_policies(&self.apps, self.cache.iter().flatten());
        Ok(reran)
    }

    /// The policy change from `before` to the current set, by content
    /// identity; `added` and `removed` keep the order of the current set
    /// and of `before`.
    fn delta_from(&mut self, before: Vec<Policy>, reran: usize, resliced: usize) -> PolicyDelta {
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
            .into_iter()
            .filter(|q| !current_keys.contains(&q.content_key()))
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
    /// intents re-resolve once if the topology changed — and then the
    /// affected signatures re-run a single time. A batch that only
    /// toggles permissions re-runs only permission-sensitive signatures;
    /// any install/update/uninstall re-runs everything. The returned
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
                    match self.apps.iter().position(|a| a.package == model.package) {
                        // Reinstalling an installed package is an
                        // *update*: replace the model in its bundle slot
                        // instead of growing the app list.
                        Some(i) => {
                            self.apps[i] = model;
                            self.summaries[i] = slicing::summarize_app(&self.apps[i]);
                        }
                        None => {
                            self.apps.push(model);
                            // Summaries never read the cross-app
                            // passive-resolution results, so only the
                            // new app needs summarizing.
                            self.summaries.push(slicing::summarize_app(
                                self.apps.last().expect("just pushed"),
                            ));
                        }
                    }
                    resliced += 1;
                    topology = true;
                }
                SessionOp::Uninstall(package) => {
                    let before_len = self.apps.len();
                    let (apps, summaries): (Vec<AppModel>, Vec<AppSummary>) =
                        std::mem::take(&mut self.apps)
                            .into_iter()
                            .zip(std::mem::take(&mut self.summaries))
                            .filter(|(a, _)| a.package != package)
                            .unzip();
                    self.apps = apps;
                    self.summaries = summaries;
                    if self.apps.len() != before_len {
                        topology = true;
                    }
                }
                SessionOp::SetPermission {
                    package,
                    permission,
                    granted,
                } => {
                    for (app, summary) in self.apps.iter_mut().zip(self.summaries.iter_mut()) {
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
            update_passive_intent_targets(&mut self.apps);
        }
        let before = self.policies.clone();
        let reran = if self.apps.is_empty() {
            for c in &mut self.cache {
                c.clear();
            }
            self.policies.clear();
            0
        } else if topology {
            self.rerun(|_| true)?
        } else {
            self.rerun(|s| s.permissions)?
        };
        let mut delta = self.delta_from(before, reran, resliced);
        delta.ops_coalesced = ops_coalesced;
        Ok(delta)
    }

    /// Applies a Permission Manager change: grant or revoke `permission`
    /// for `package`, re-running only permission-sensitive signatures.
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

    /// Installs an app into the bundle (full re-analysis: the topology
    /// changed). Installing a package that is already present behaves as
    /// an update: the model is replaced in place.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature is ill-typed.
    pub fn install(&mut self, app: AppModel) -> Result<PolicyDelta, LogicError> {
        self.apply_batch(vec![SessionOp::Install(app)])
    }

    /// Uninstalls an app from the bundle (full re-analysis).
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
        // One full pass over the registry, not one per op.
        assert_eq!(s.total_syntheses(), after_init + 4);
        assert_eq!(delta.signatures_rerun, 4);
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
}
