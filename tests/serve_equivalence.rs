//! Property: a `separ serve` daemon driven through arbitrary churn —
//! installs, in-place update reinstalls, uninstalls, permission toggles,
//! and a mid-sequence kill-and-restore through its persistent store —
//! ends up with exactly the policies and exploits a from-scratch
//! analysis of the surviving bundle would synthesize.
//!
//! The daemon is driven through [`Daemon::handle`], the same line-in/
//! line-out surface the socket server wraps, so the whole pipeline is
//! under test: wire parsing → extraction → churn queue →
//! coalesced incremental re-analysis → published snapshot → wire
//! serialization. Policies are compared modulo `id` (dense per-derivation
//! renumbering is presentation, not identity), exploits by their full
//! rendering.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use separ::analysis::{extract_apk, AppModel};
use separ::core::{policy_io, Policy, Separ, SeparConfig};
use separ::corpus::market::{generate, MarketSpec};
use separ::obs::json::Value;
use separ::serve::protocol::encode_hex;
use separ::serve::{Daemon, ServeConfig};

const PERMS: &[&str] = &[
    "android.permission.SEND_SMS",
    "android.permission.ACCESS_FINE_LOCATION",
    "android.permission.INTERNET",
    "android.permission.READ_PHONE_STATE",
];

#[derive(Debug, Clone)]
enum Op {
    /// Install the next not-yet-installed pool app.
    Install,
    /// Re-send an installed app's package: an in-place update.
    Reinstall { app: prop::sample::Index },
    /// Uninstall the app at the given index (kept non-empty).
    Uninstall { app: prop::sample::Index },
    /// Toggle `PERMS[perm]` on the app at `app`.
    Toggle {
        app: prop::sample::Index,
        perm: prop::sample::Index,
        grant: bool,
    },
    /// Kill the daemon (clean shutdown) and boot a fresh one from the
    /// persistent store.
    Restart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Install),
        any::<prop::sample::Index>().prop_map(|app| Op::Reinstall { app }),
        any::<prop::sample::Index>().prop_map(|app| Op::Uninstall { app }),
        (
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<bool>()
        )
            .prop_map(|(app, perm, grant)| Op::Toggle { app, perm, grant }),
        Just(Op::Restart),
    ]
}

fn parse_ok(line: &str) -> Value {
    let v = Value::parse(line).expect("daemon responses are valid JSON");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "daemon refused: {line}"
    );
    v
}

fn install_line(bytes: &[u8]) -> String {
    format!(r#"{{"cmd":"install","bytes_hex":"{}"}}"#, encode_hex(bytes))
}

/// Policy identity modulo set-local `id`.
fn fingerprint(policies: &[Policy]) -> Vec<String> {
    let mut out: Vec<String> = policies
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

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn daemon_churn_matches_from_scratch_analysis(
        ops in proptest::collection::vec(op_strategy(), 1..6),
        seed in 0u64..3,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "separ-serve-equiv-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServeConfig {
            config: SeparConfig::serial(),
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let market = generate(&MarketSpec::scaled(6, seed));
        let packages: Vec<Vec<u8>> = market
            .iter()
            .map(|m| separ::dex::codec::encode(&m.apk).to_vec())
            .collect();
        let models: Vec<AppModel> = market.iter().map(|m| extract_apk(&m.apk)).collect();

        let mut daemon = Daemon::start(cfg()).expect("boots");
        let mut shadow: Vec<AppModel> = Vec::new();
        let mut next_spare = 0usize;
        // Seed three apps through the daemon.
        for _ in 0..3 {
            parse_ok(&daemon.handle(&install_line(&packages[next_spare])));
            shadow.push(models[next_spare].clone());
            next_spare += 1;
        }

        for op in &ops {
            match op {
                Op::Install => {
                    if next_spare < packages.len() {
                        parse_ok(&daemon.handle(&install_line(&packages[next_spare])));
                        shadow.push(models[next_spare].clone());
                        next_spare += 1;
                    }
                }
                Op::Reinstall { app } => {
                    let i = app.index(shadow.len());
                    let pool = models
                        .iter()
                        .position(|m| m.package == shadow[i].package)
                        .expect("shadow apps come from the pool");
                    parse_ok(&daemon.handle(&install_line(&packages[pool])));
                    // An update with unchanged bytes: same model, same
                    // slot — the shadow resets any toggled permissions.
                    shadow[i] = models[pool].clone();
                }
                Op::Uninstall { app } => {
                    if shadow.len() > 1 {
                        let pkg = shadow[app.index(shadow.len())].package.clone();
                        parse_ok(&daemon.handle(&format!(
                            r#"{{"cmd":"uninstall","package":"{pkg}"}}"#
                        )));
                        shadow.retain(|a| a.package != pkg);
                    }
                }
                Op::Toggle { app, perm, grant } => {
                    let pkg = shadow[app.index(shadow.len())].package.clone();
                    let perm = PERMS[perm.index(PERMS.len())];
                    parse_ok(&daemon.handle(&format!(
                        concat!(
                            r#"{{"cmd":"set_permission","package":"{}","#,
                            r#""permission":"{}","granted":{}}}"#
                        ),
                        pkg, perm, grant
                    )));
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
                Op::Restart => {
                    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
                    prop_assert!(daemon.is_stopped());
                    daemon = Daemon::start(cfg()).expect("reboots from store");
                    let (restored, skipped) = daemon.restored();
                    prop_assert_eq!(restored, shadow.len(), "store recovered the bundle");
                    prop_assert_eq!(skipped, 0);
                }
            }
        }

        // Read the daemon's final state over the wire.
        let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#));
        let mut json = String::new();
        v.get("policies").expect("policy set").write_into(&mut json);
        let daemon_policies = policy_io::from_json(&json).expect("wire policies parse");
        let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"exploits"}"#));
        let mut daemon_exploits: Vec<String> = v
            .get("exploits")
            .and_then(Value::as_arr)
            .expect("exploit list")
            .iter()
            .filter_map(Value::as_str)
            .map(String::from)
            .collect();

        // The oracle: from-scratch analysis of the surviving bundle,
        // slicing off (proving delta == scratch and sliced == unsliced
        // across the whole churn history at once).
        let fresh = Separ::new()
            .with_config(SeparConfig::serial())
            .analyze_models_unsliced(shadow.clone())
            .expect("full re-analysis succeeds");
        prop_assert_eq!(
            fingerprint(&daemon_policies),
            fingerprint(&fresh.policies),
            "daemon policies diverge from from-scratch analysis after {:?}",
            ops
        );
        let mut fresh_exploits: Vec<String> =
            fresh.exploits.iter().map(|e| e.to_string()).collect();
        daemon_exploits.sort();
        fresh_exploits.sort();
        prop_assert_eq!(daemon_exploits, fresh_exploits);

        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
