//! The slicing soundness harness.
//!
//! Signature-guided relevance slicing re-encodes each signature against
//! only the apps its declared footprint can range over, with the
//! malicious free rows its facts never constrain dropped from the upper
//! bounds. These properties prove the built-in footprints are genuine
//! over-approximations:
//!
//! * **Differential**: over randomized market bundles, a sliced analysis
//!   enumerates exactly the exploits and policies the unsliced reference
//!   does, while never translating a larger formula.
//! * **Monotone**: adding an app to the bundle never removes another app
//!   from any signature's slice (so incremental installs can only grow
//!   the relevant universe).
//! * **Incremental**: a long-lived session mutated through permission
//!   toggles and uninstalls, re-slicing only changed apps, still matches
//!   a from-scratch *unsliced* analysis after every delta.

use std::collections::BTreeSet;

use proptest::prelude::*;
use separ::analysis::slicing::{self, SliceDemand};
use separ::analysis::{extract_apk, AppModel};
use separ::core::{IncrementalSession, Report, Separ, SeparConfig, SignatureRegistry};
use separ::corpus::market::{generate, MarketSpec};

fn market_models(total: usize, seed: u64) -> Vec<AppModel> {
    generate(&MarketSpec::scaled(total, seed))
        .iter()
        .map(|m| extract_apk(&m.apk))
        .collect()
}

/// One serial analysis over the extended registry (all five signatures),
/// sliced or on the unsliced reference path.
fn run(models: &[AppModel], slicing: bool) -> Report {
    let separ =
        Separ::with_registry(SignatureRegistry::extended()).with_config(SeparConfig::serial());
    let report = if slicing {
        separ.analyze_models(models.to_vec())
    } else {
        separ.analyze_models_unsliced(models.to_vec())
    };
    report.expect("analysis succeeds")
}

/// Exploits as an order-free set (enumeration order may legally differ
/// between the sliced and unsliced universes).
fn exploit_set(report: &Report) -> BTreeSet<String> {
    report.exploits.iter().map(|e| format!("{e:?}")).collect()
}

/// Policy identity modulo the (renumbered) id.
fn policy_set(policies: &[separ::core::Policy]) -> BTreeSet<String> {
    policies
        .iter()
        .map(|p| {
            format!(
                "{} {:?} {:?} {:?}",
                p.vulnerability, p.event, p.conditions, p.action
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sliced_synthesis_is_identical_to_unsliced(
        total in 6usize..12,
        seed in 0u64..4,
    ) {
        let models = market_models(total, seed);
        let sliced = run(&models, true);
        let unsliced = run(&models, false);
        prop_assert_eq!(exploit_set(&sliced), exploit_set(&unsliced));
        prop_assert_eq!(
            policy_set(&sliced.policies),
            policy_set(&unsliced.policies)
        );
        // Slicing only ever shrinks the translated formulas.
        prop_assert!(sliced.stats.primary_vars <= unsliced.stats.primary_vars);
        prop_assert!(sliced.stats.cnf_clauses <= unsliced.stats.cnf_clauses);
        for (s, u) in sliced
            .stats
            .per_signature
            .iter()
            .zip(&unsliced.stats.per_signature)
        {
            prop_assert_eq!(s.name, u.name);
            prop_assert!(s.primary_vars <= u.primary_vars, "{}", s.name);
            prop_assert!(s.cnf_clauses <= u.cnf_clauses, "{}", s.name);
            prop_assert_eq!(s.slice_kept + s.slice_dropped, models.len(), "{}", s.name);
        }
        prop_assert_eq!(unsliced.stats.slice_dropped, 0);
    }

    #[test]
    fn slice_membership_is_monotone_under_app_addition(
        total in 4usize..14,
        seed in 0u64..4,
    ) {
        let models = market_models(total, seed);
        let summaries = slicing::summarize_bundle(&models);
        // Every built-in footprint plus each concrete demand alone.
        let registry = SignatureRegistry::extended();
        let mut demand_sets: Vec<BTreeSet<SliceDemand>> = registry
            .iter()
            .map(|sig| sig.footprint().demands)
            .collect();
        demand_sets.extend(SliceDemand::CONCRETE.iter().map(|&d| BTreeSet::from([d])));
        for demands in &demand_sets {
            let mut prev: BTreeSet<usize> = BTreeSet::new();
            for k in 1..=summaries.len() {
                let cur = slicing::select_apps(demands, &summaries[..k]);
                prop_assert!(
                    prev.is_subset(&cur),
                    "adding app {} removed a member from the {:?} slice",
                    k - 1,
                    demands
                );
                prev = cur;
            }
        }
    }
}

#[test]
fn incremental_deltas_with_slicing_match_unsliced_scratch() {
    let mut shadow = market_models(10, 3);
    let mut session = IncrementalSession::new(
        SignatureRegistry::standard(),
        SeparConfig::serial(),
        shadow.clone(),
    )
    .expect("initial analysis succeeds");
    let packages: Vec<String> = shadow.iter().map(|a| a.package.clone()).collect();

    let check = |session: &IncrementalSession, shadow: &[AppModel], what: &str| {
        // The oracle deliberately disables slicing: a sliced delta run
        // must match the unsliced from-scratch reference.
        let fresh = Separ::new()
            .with_config(SeparConfig::serial())
            .analyze_models_unsliced(shadow.to_vec())
            .expect("scratch analysis succeeds");
        let session_exploits: BTreeSet<String> =
            session.exploits().map(|e| format!("{e:?}")).collect();
        let fresh_exploits: BTreeSet<String> =
            fresh.exploits.iter().map(|e| format!("{e:?}")).collect();
        assert_eq!(
            session_exploits, fresh_exploits,
            "exploits diverge after {what}"
        );
        assert_eq!(
            policy_set(session.policies()),
            policy_set(&fresh.policies),
            "policies diverge after {what}"
        );
    };

    for pkg in packages.iter().take(4) {
        for grant in [false, true] {
            session
                .set_permission(pkg, "android.permission.SEND_SMS", grant)
                .expect("toggle re-analysis succeeds");
            for a in &mut shadow {
                if &a.package == pkg {
                    if grant {
                        a.uses_permissions
                            .insert("android.permission.SEND_SMS".to_string());
                    } else {
                        a.uses_permissions.remove("android.permission.SEND_SMS");
                    }
                }
            }
            check(&session, &shadow, &format!("toggle {pkg} grant={grant}"));
        }
    }
    let gone = packages[1].clone();
    session.uninstall(&gone).expect("uninstall succeeds");
    shadow.retain(|a| a.package != gone);
    check(&session, &shadow, "uninstall");
}
