//! Property: an [`IncrementalSession`] driven through an arbitrary
//! sequence of permission toggles, installs and uninstalls always holds
//! exactly the policies (and exploits) a from-scratch analysis of the
//! same bundle would synthesize.
//!
//! Policies are compared modulo `id`: the session renumbers densely per
//! re-derivation, so ids are presentation, not identity.

use proptest::prelude::*;
use separ::analysis::{extract_apk, AppModel};
use separ::core::{IncrementalSession, Separ, SeparConfig, SignatureRegistry};
use separ::corpus::market::{generate, MarketSpec};

/// Permissions worth toggling: ones the market apps actually use plus one
/// no app holds (exercises the no-op path).
const PERMS: &[&str] = &[
    "android.permission.SEND_SMS",
    "android.permission.ACCESS_FINE_LOCATION",
    "android.permission.INTERNET",
    "android.permission.READ_PHONE_STATE",
    "android.permission.CAMERA",
];

#[derive(Debug, Clone)]
enum Op {
    /// Toggle `PERMS[perm]` on the app at `app` (modulo installed count).
    Toggle {
        app: prop::sample::Index,
        perm: prop::sample::Index,
        grant: bool,
    },
    /// Install the next not-yet-installed pool app (chosen by index).
    Install { pick: prop::sample::Index },
    /// Uninstall the app at the given index (kept non-empty).
    Uninstall { app: prop::sample::Index },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<bool>()
        )
            .prop_map(|(app, perm, grant)| Op::Toggle { app, perm, grant }),
        any::<prop::sample::Index>().prop_map(|pick| Op::Install { pick }),
        any::<prop::sample::Index>().prop_map(|app| Op::Uninstall { app }),
    ]
}

/// Policy identity modulo id; exploits ride along for free.
fn fingerprint(report_policies: &[separ::core::Policy]) -> Vec<String> {
    let mut out: Vec<String> = report_policies
        .iter()
        .map(|p| {
            format!(
                "{} {:?} {:?} {:?}",
                p.vulnerability, p.event, p.conditions, p.action
            )
        })
        .collect();
    out.sort();
    out
}

fn pool(seed: u64) -> Vec<AppModel> {
    let market = generate(&MarketSpec::scaled(8, seed));
    market.iter().map(|m| extract_apk(&m.apk)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_session_matches_full_reanalysis(
        ops in proptest::collection::vec(op_strategy(), 1..5),
        seed in 0u64..3,
    ) {
        let models = pool(seed);
        let (initial, spares) = models.split_at(4);
        let mut shadow: Vec<AppModel> = initial.to_vec();
        let mut next_spare = 0usize;
        let mut session = IncrementalSession::new(
            SignatureRegistry::standard(),
            SeparConfig::serial(),
            shadow.clone(),
        )
        .expect("initial analysis succeeds");

        for op in &ops {
            match op {
                Op::Toggle { app, perm, grant } => {
                    let pkg = shadow[app.index(shadow.len())].package.clone();
                    let perm = PERMS[perm.index(PERMS.len())];
                    session
                        .set_permission(&pkg, perm, *grant)
                        .expect("toggle re-analysis succeeds");
                    for a in &mut shadow {
                        if a.package == pkg {
                            if *grant {
                                a.uses_permissions.insert(perm.to_string());
                            } else {
                                a.uses_permissions.remove(perm);
                            }
                        }
                    }
                }
                Op::Install { pick } => {
                    if next_spare < spares.len() {
                        let _ = pick; // pool order is deterministic; index picks timing only
                        let app = spares[next_spare].clone();
                        next_spare += 1;
                        shadow.push(app.clone());
                        session.install(app).expect("install re-analysis succeeds");
                    }
                }
                Op::Uninstall { app } => {
                    if shadow.len() > 1 {
                        let pkg = shadow[app.index(shadow.len())].package.clone();
                        shadow.retain(|a| a.package != pkg);
                        session.uninstall(&pkg).expect("uninstall re-analysis succeeds");
                    }
                }
            }

            // The oracle: a from-scratch analysis of the current bundle
            // with slicing disabled. The session re-runs with slicing on
            // (the default), so this simultaneously proves delta == from-
            // scratch and sliced == unsliced across bundle mutations.
            let fresh = Separ::new()
                .with_config(SeparConfig::serial())
                .analyze_models_unsliced(shadow.clone())
                .expect("full re-analysis succeeds");
            prop_assert_eq!(
                fingerprint(session.policies()),
                fingerprint(&fresh.policies),
                "session policies diverge from full re-analysis after {:?}",
                op
            );
            let mut session_exploits: Vec<String> =
                session.exploits().map(|e| format!("{e:?}")).collect();
            let mut fresh_exploits: Vec<String> =
                fresh.exploits.iter().map(|e| format!("{e:?}")).collect();
            session_exploits.sort();
            fresh_exploits.sort();
            prop_assert_eq!(session_exploits, fresh_exploits);
        }
    }
}
