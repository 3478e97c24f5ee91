//! Golden audit trail: the full `AuditEvent` sequence, in `Debug` form,
//! of five device scenarios, pinned byte for byte in
//! `fixtures/audit_trace.txt`.
//!
//! The scenarios are the motivating GPS→SMS attack with SEPAR's policies
//! and hooks on, the same attack with hooks off, a
//! `startActivityForResult` round trip, a broadcast to a dynamically
//! registered receiver, and an intent no component receives. Between
//! them they cover every audit record kind, every intent field the
//! device marshals (action, categories, data type and scheme, explicit
//! target, string and integer extras) and the reply address of a result.
//! A string field prints the same whether it is owned or shared, so the
//! fixture pins what is delivered and recorded, not how it is stored.

use std::fmt::Write as _;

use separ_android::api::class;
use separ_core::Separ;
use separ_corpus::motivating;
use separ_dex::build::ApkBuilder;
use separ_dex::manifest::{ComponentDecl, ComponentKind};
use separ_dex::program::Apk;
use separ_enforce::{Device, PromptHandler};

const FIXTURE: &str = include_str!("fixtures/audit_trace.txt");

/// The navigator and the vulnerable messenger, their SEPAR policies, and
/// a device that also runs the malicious app, after the navigator's
/// location finder and then the malicious service (started on its own,
/// with no stolen intent) have each run to idle.
fn gps_to_sms(hooks: bool) -> Device {
    let bundle = vec![
        motivating::navigator_app(),
        motivating::messenger_app(false),
    ];
    let report = Separ::new().analyze_apks(&bundle).expect("analysis");
    let packages = report.apps.iter().map(|a| a.package.clone()).collect();
    let mut apks = bundle;
    apks.push(motivating::malicious_app("+15550000"));
    let mut device = Device::new(apks);
    device.install_policies(report.policies, packages, PromptHandler::AlwaysDeny);
    device.set_enforcement(hooks);
    device.launch("com.navigator", motivating::LOCATION_FINDER);
    device.run_until_idle();
    device.launch("com.innocent.wallpaper", "Lcom/innocent/Thief;");
    device.run_until_idle();
    device
}

/// A device with hooks on and no policies (every hook decides "allow").
fn hooked(apks: Vec<Apk>) -> Device {
    let mut device = Device::new(apks);
    device.install_policies(Vec::new(), Vec::new(), PromptHandler::AlwaysAllow);
    device
}

/// `LA;` asks `LB;` for a result; `LB;` replies with a string and an
/// integer extra; `LA;` logs the string.
fn round_trip() -> Device {
    let mut a = ApkBuilder::new("com.a");
    a.add_component(ComponentDecl::new("LA;", ComponentKind::Activity));
    let mut cb = a.class_extends("LA;", class::ACTIVITY);
    {
        let mut m = cb.method("onCreate", 1, false, false);
        let (i, s) = (m.reg(), m.reg());
        m.new_instance(i, class::INTENT);
        m.const_string(s, "LB;");
        m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
        m.invoke_virtual(
            class::ACTIVITY,
            "startActivityForResult",
            &[m.this(), i],
            false,
        );
        m.ret_void();
        m.finish();
    }
    {
        let mut m = cb.method("onActivityResult", 2, false, false);
        let (v, k) = (m.reg(), m.reg());
        m.const_string(k, "token");
        m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
        m.move_result(v);
        m.invoke_virtual(class::LOG, "d", &[v], false);
        m.ret_void();
        m.finish();
    }
    cb.finish();

    let mut b = ApkBuilder::new("com.b");
    let mut decl = ComponentDecl::new("LB;", ComponentKind::Activity);
    decl.exported = Some(true);
    b.add_component(decl);
    let mut cb = b.class_extends("LB;", class::ACTIVITY);
    let mut m = cb.method("onCreate", 1, false, false);
    let (i, k, v) = (m.reg(), m.reg(), m.reg());
    m.new_instance(i, class::INTENT);
    m.const_string(k, "token");
    m.const_string(v, "secret-42");
    m.invoke_virtual(class::INTENT, "putExtra", &[i, k, v], false);
    m.const_string(k, "count");
    m.const_int(v, 7);
    m.invoke_virtual(class::INTENT, "putExtra", &[i, k, v], false);
    m.invoke_virtual(class::ACTIVITY, "setResult", &[m.this(), i], false);
    m.ret_void();
    m.finish();
    cb.finish();

    let mut device = hooked(vec![a.finish(), b.finish()]);
    device.launch("com.a", "LA;");
    device.run_until_idle();
    device
}

/// `LMain;` registers `LDynRec;` for an action at runtime and broadcasts
/// it; `LDynRec;` logs.
fn dynamic_broadcast() -> Device {
    let mut apk = ApkBuilder::new("com.dyn");
    apk.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
    apk.add_component(ComponentDecl::new("LDynRec;", ComponentKind::Receiver));
    {
        let mut cb = apk.class_extends("LMain;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let (c, a, i) = (m.reg(), m.reg(), m.reg());
        m.const_string(c, "LDynRec;");
        m.const_string(a, "com.dyn.EVENT");
        m.invoke_virtual(class::CONTEXT, "registerReceiver", &[m.this(), c, a], true);
        m.new_instance(i, class::INTENT);
        m.invoke_virtual(class::INTENT, "setAction", &[i, a], false);
        m.invoke_virtual(class::CONTEXT, "sendBroadcast", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    {
        let mut cb = apk.class_extends("LDynRec;", class::RECEIVER);
        let mut m = cb.method("onReceive", 2, false, false);
        let v = m.reg();
        m.const_string(v, "dynamic-hit");
        m.invoke_virtual(class::LOG, "d", &[v], false);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    let mut device = hooked(vec![apk.finish()]);
    device.launch("com.dyn", "LMain;");
    device.run_until_idle();
    device
}

/// An implicit `startService` with categories, a data type and a data
/// scheme that no installed service accepts.
fn undeliverable() -> Device {
    let mut apk = ApkBuilder::new("com.lost");
    apk.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
    let mut cb = apk.class_extends("LMain;", class::ACTIVITY);
    let mut m = cb.method("onCreate", 1, false, false);
    let (i, s) = (m.reg(), m.reg());
    m.new_instance(i, class::INTENT);
    m.const_string(s, "no.such.ACTION");
    m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
    for category in ["cat.B", "cat.A"] {
        m.const_string(s, category);
        m.invoke_virtual(class::INTENT, "addCategory", &[i, s], false);
    }
    m.const_string(s, "text/plain");
    m.invoke_virtual(class::INTENT, "setType", &[i, s], false);
    m.const_string(s, "https://example.org/x");
    m.invoke_virtual(class::INTENT, "setData", &[i, s], false);
    m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
    m.ret_void();
    m.finish();
    cb.finish();
    let mut device = hooked(vec![apk.finish()]);
    device.launch("com.lost", "LMain;");
    device.run_until_idle();
    device
}

/// Every scenario's audit trail, one `Debug` record per line under a
/// `== name ==` header.
fn trace() -> String {
    let scenarios = [
        ("gps_to_sms_hooks_on", gps_to_sms(true)),
        ("gps_to_sms_hooks_off", gps_to_sms(false)),
        ("start_activity_for_result", round_trip()),
        ("dynamic_receiver_broadcast", dynamic_broadcast()),
        ("undeliverable_intent", undeliverable()),
    ];
    let mut out = String::new();
    for (name, device) in scenarios {
        assert_eq!(device.audit.dropped(), 0, "{name} outgrew the audit ring");
        writeln!(out, "== {name} ==").expect("write to a String");
        for event in device.audit.events() {
            writeln!(out, "{event:?}").expect("write to a String");
        }
    }
    out
}

#[test]
fn audit_trail_matches_the_golden_fixture() {
    let actual = trace();
    if actual == FIXTURE {
        return;
    }
    // Leave the whole trail next to the build for inspection.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_trace.actual");
    std::fs::write(&path, &actual).expect("write the actual trail");
    let (line, (want, got)) = FIXTURE
        .lines()
        .chain(std::iter::repeat("<end>"))
        .zip(actual.lines().chain(std::iter::repeat("<end>")))
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .expect("traces differ on some line");
    panic!(
        "audit trail differs from the fixture at line {}:\n  fixture: {want}\n  actual:  {got}\n(full trail in {})",
        line + 1,
        path.display()
    );
}
