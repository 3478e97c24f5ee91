//! Stress: analyze a generated market bundle, install the synthesized
//! policies, run *every* component of *every* app on the device, and
//! check global properties: nothing crashes, hooks fire for every ICC
//! event, and denying all prompts eliminates exactly the leak classes
//! the policies guard.

use separ::analysis::extractor::extract_apk;
use separ::android::types::Resource;
use separ::core::Separ;
use separ::corpus::market::{generate, MarketSpec};
use separ::enforce::{Device, PromptHandler};

fn run_everything(device: &mut Device, apks: &[separ::dex::Apk]) {
    for apk in apks {
        let classes: Vec<String> = apk
            .manifest
            .components
            .iter()
            .map(|c| c.class.clone())
            .collect();
        for class in classes {
            device.launch(apk.package(), &class);
            let delivered = device.run_until_idle();
            // Bounded bus: one launch delivers at most the limit and
            // leaves nothing queued for the next.
            assert!(delivered <= device.delivery_limit());
            assert_eq!(device.queued(), 0, "{class} left envelopes queued");
        }
    }
}

#[test]
fn market_bundle_under_full_enforcement() {
    let market = generate(&MarketSpec::scaled(40, 0xFEED));
    let apks: Vec<_> = market.into_iter().map(|m| m.apk).collect();
    let models: Vec<_> = apks.iter().map(extract_apk).collect();
    let report = Separ::new()
        .analyze_models(models)
        .expect("analysis succeeds");

    // Unprotected baseline.
    let mut open_device = Device::new(apks.clone());
    run_everything(&mut open_device, &apks);
    let baseline_hooks = open_device.hook_stats();

    // Enforced run, user denies everything.
    let mut device = Device::new(apks.clone());
    device.install_policies(
        report.policies.clone(),
        report.apps.iter().map(|a| a.package.clone()).collect(),
        PromptHandler::AlwaysDeny,
    );
    run_everything(&mut device, &apks);

    // 1. Hook coverage: the send-side hook count is workload-determined
    //    and must match the unprotected run.
    assert_eq!(
        device.hook_stats().icc_hooks,
        baseline_hooks.icc_hooks,
        "every ICC call is intercepted in both runs"
    );

    // 2. Guarded leak classes are gone: any (tagged source -> real sink)
    //    leak that an information-leakage policy names must not fire.
    for p in &report.policies {
        if p.vulnerability != "information-leakage" {
            continue;
        }
        let tagged: Vec<Resource> = p
            .conditions
            .iter()
            .filter_map(|c| match c {
                separ::core::Condition::ExtraTagged(name) => Resource::from_name(name),
                _ => None,
            })
            .collect();
        for sink in [Resource::Sms, Resource::NetworkWrite, Resource::Log] {
            for &tag in &tagged {
                // The guarded receiver was never allowed to fire its sink
                // with this tag: check the audit has no such event from
                // the receiver's app.
                let receiver_app = report
                    .exploits
                    .iter()
                    .find(|e| {
                        e.kind() == separ::core::VulnKind::InformationLeakage
                            && p.conditions.iter().any(|c| {
                                matches!(c, separ::core::Condition::ReceiverIs(r)
                                    if r == e.guarded_component())
                            })
                    })
                    .map(|e| e.guarded_app().to_string());
                if let Some(app) = receiver_app {
                    // Answered from the log's cumulative summary, which
                    // covers the records the ring evicted.
                    let leaked = device.audit.leaked_from(&app, tag, sink);
                    assert!(!leaked, "guarded leak {tag:?} -> {sink:?} fired in {app}");
                }
            }
        }
    }

    // 3. The device stayed coherent: prompts were answered, blocks were
    //    logged, and the audit has no impossible orderings (a blocked
    //    delivery never precedes its own send... trivially true by
    //    construction, so assert the counts line up instead).
    //    The counts are the log's cumulative summaries, which cover the
    //    records the ring evicted.
    assert_eq!(
        device.audit.blocked_count() as u64 + device.audit.prompts_allowed(),
        device.pdp().prompts() + device.audit.blocked_for("broadcast-injection") as u64,
        "every prompt produced either a block or an allowed event"
    );
}

#[test]
fn enforcement_is_deterministic() {
    let market = generate(&MarketSpec::scaled(15, 0xBEEF));
    let apks: Vec<_> = market.into_iter().map(|m| m.apk).collect();
    let models: Vec<_> = apks.iter().map(extract_apk).collect();
    let report = Separ::new().analyze_models(models).expect("succeeds");
    let run = || {
        let mut device = Device::new(apks.clone());
        device.install_policies(
            report.policies.clone(),
            report.apps.iter().map(|a| a.package.clone()).collect(),
            PromptHandler::AlwaysDeny,
        );
        run_everything(&mut device, &apks);
        (
            device.audit.recorded(),
            device.audit.blocked_count(),
            device.hook_stats().icc_hooks,
            device.hook_stats().delivery_hooks,
        )
    };
    assert_eq!(run(), run(), "two identical runs must agree exactly");
}
