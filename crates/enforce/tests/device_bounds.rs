//! The device's memory stays bounded over a long run: 10,000 ping
//! launches leave every app's VM heap empty (nothing the pings allocate
//! escapes its entry point) and the audit log at its capacity, with every
//! eviction counted, while the log's cumulative answers keep the first
//! launch's leak and every block. The tables that share strings (each
//! heap's field names, the device's extra keys) stop growing at their cap
//! however many distinct names a program makes up, and every name past
//! the cap still works.

use separ_android::api::class;
use separ_android::types::{perm, Resource};
use separ_core::policy::{Condition, Policy, PolicyAction, PolicyEvent};
use separ_dex::build::{ApkBuilder, MethodBuilder};
use separ_dex::instr::{BinOp, Reg};
use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ_dex::program::Apk;
use separ_dex::vm::{Heap, INTERN_CAP};
use separ_enforce::{AuditEvent, Device, PromptHandler, AUDIT_CAPACITY};

const LAUNCHES: usize = 10_000;
/// Implicit ICCs per ping launch.
const BURST: usize = 2;
/// A blocked attack every this many ping launches.
const ATTACK_EVERY: usize = 1_000;
const PING_ACTION: &str = "t.PING";

/// An activity that fires `BURST` implicit `startService` intents, each
/// with one extra, at its own service, which reads the extra back.
fn ping() -> Apk {
    let mut apk = ApkBuilder::new("t.ping");
    apk.add_component(ComponentDecl::new("LPinger;", ComponentKind::Activity));
    let mut svc = ComponentDecl::new("LPong;", ComponentKind::Service);
    svc.intent_filters
        .push(IntentFilterDecl::for_actions([PING_ACTION]));
    apk.add_component(svc);
    {
        let mut cb = apk.class_extends("LPinger;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let (i, s) = (m.reg(), m.reg());
        for _ in 0..BURST {
            m.new_instance(i, class::INTENT);
            m.const_string(s, PING_ACTION);
            m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
            m.const_string(s, "k");
            m.invoke_virtual(class::INTENT, "putExtra", &[i, s, s], false);
            m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
        }
        m.ret_void();
        m.finish();
        cb.finish();
    }
    {
        let mut cb = apk.class_extends("LPong;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 2, false, false);
        let (v, k) = (m.reg(), m.reg());
        m.const_string(k, "k");
        m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
        m.move_result(v);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    apk.finish()
}

/// An exported service that texts whatever extra it receives.
fn messenger() -> Apk {
    let mut apk = ApkBuilder::new("t.messenger");
    apk.uses_permission(perm::SEND_SMS);
    let mut decl = ComponentDecl::new("LSender;", ComponentKind::Service);
    decl.exported = Some(true);
    apk.add_component(decl);
    let mut cb = apk.class_extends("LSender;", class::SERVICE);
    let mut m = cb.method("onStartCommand", 2, false, false);
    let (msg, k, mgr) = (m.reg(), m.reg(), m.reg());
    m.const_string(k, "TEXT");
    m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
    m.move_result(msg);
    m.invoke_static(class::SMS_MANAGER, "getDefault", &[], true);
    m.move_result(mgr);
    m.invoke_virtual(class::SMS_MANAGER, "sendTextMessage", &[mgr, msg], false);
    m.ret_void();
    m.finish();
    cb.finish();
    apk.finish()
}

/// Reads the location and hands it to the messenger.
fn malware() -> Apk {
    let mut apk = ApkBuilder::new("t.mal");
    apk.add_component(ComponentDecl::new("LMal;", ComponentKind::Activity));
    let mut cb = apk.class_extends("LMal;", class::ACTIVITY);
    let mut m = cb.method("onCreate", 1, false, false);
    let (loc, i, s) = (m.reg(), m.reg(), m.reg());
    m.invoke_virtual(
        class::LOCATION_MANAGER,
        "getLastKnownLocation",
        &[loc],
        true,
    );
    m.move_result(loc);
    m.new_instance(i, class::INTENT);
    m.const_string(s, "LSender;");
    m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
    m.const_string(s, "TEXT");
    m.invoke_virtual(class::INTENT, "putExtra", &[i, s, loc], false);
    m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
    m.ret_void();
    m.finish();
    cb.finish();
    apk.finish()
}

#[test]
fn ten_thousand_launches_stay_bounded_and_keep_their_history() {
    let packages = ["t.ping", "t.messenger", "t.mal"];
    let mut device = Device::new(vec![ping(), messenger(), malware()]);

    // Unprotected, the first launch leaks: IccSent, IccDelivered and
    // SinkFired.
    assert!(device.launch("t.mal", "LMal;"));
    assert_eq!(device.run_until_idle(), 1);
    assert!(device.audit.leaked(Resource::Location, Resource::Sms));
    let mut recorded = 3;
    assert_eq!(device.audit.events().len(), recorded);

    // From now on every delivery to the messenger is denied.
    device.install_policies(
        vec![Policy {
            id: 0,
            vulnerability: "information-leakage".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![Condition::ReceiverIs("LSender;".into())],
            action: PolicyAction::Deny,
            rationale: "test".into(),
        }],
        packages.iter().map(|p| p.to_string()).collect(),
        PromptHandler::AlwaysDeny,
    );
    let mut attacks = 0;
    for launch in 0..LAUNCHES {
        assert!(device.launch("t.ping", "LPinger;"));
        assert_eq!(device.run_until_idle(), BURST);
        recorded += 2 * BURST; // an IccSent and an IccDelivered per ICC
        if launch % ATTACK_EVERY == 0 {
            assert!(device.launch("t.mal", "LMal;"));
            device.run_until_idle();
            attacks += 1;
            recorded += 2; // IccSent, then IccBlocked at the receiver
        }
        assert!(device.audit.events().len() <= AUDIT_CAPACITY);
        for p in packages {
            assert_eq!(
                device.heap(p).map(Heap::len),
                Some(0),
                "{p} after launch {launch}"
            );
        }
    }

    let audit = &device.audit;
    assert_eq!(audit.events().len(), AUDIT_CAPACITY);
    assert_eq!(audit.dropped(), (recorded - AUDIT_CAPACITY) as u64);
    // The leak's record is long gone; the summary still has it.
    assert!(!audit
        .events()
        .iter()
        .any(|e| matches!(e, AuditEvent::SinkFired { .. })));
    assert!(audit.leaked(Resource::Location, Resource::Sms));
    assert!(!audit.leaked(Resource::Location, Resource::Log));
    assert_eq!(audit.blocked_count(), attacks);
    assert_eq!(attacks, LAUNCHES / ATTACK_EVERY);
    // The ring holds the most recent records: the run ended on a ping.
    assert!(matches!(
        audit.events().back(),
        Some(AuditEvent::IccDelivered { to_component, .. }) if &**to_component == "LPong;"
    ));
}

/// Distinct extra keys the spray app puts: more than an intern table
/// holds.
const KEYS: usize = INTERN_CAP + 44;

/// Emits `body(m, key)` for key = 0, 1, …, `KEYS - 1`.
fn count_up(m: &mut MethodBuilder<'_, '_>, body: impl Fn(&mut MethodBuilder<'_, '_>, Reg)) {
    let (key, one, end, done) = (m.reg(), m.reg(), m.reg(), m.reg());
    m.const_int(key, 0);
    m.const_int(one, 1);
    m.const_int(end, KEYS as i64);
    let top = m.new_label();
    m.bind(top);
    body(m, key);
    m.binop(BinOp::Add, key, key, one);
    m.binop(BinOp::CmpEq, done, key, end);
    m.if_eqz(done, top);
}

/// `LSpray;` puts the extras `0 → 0`, `1 → 1`, …, `KEYS - 1 → KEYS - 1`
/// (integer keys and values, counted up with `add`) on one explicit
/// intent and starts `LEcho;`, which reads every key back with
/// `getStringExtra`, in the same order, and logs it.
fn spray() -> Apk {
    let mut apk = ApkBuilder::new("t.spray");
    apk.add_component(ComponentDecl::new("LSpray;", ComponentKind::Activity));
    apk.add_component(ComponentDecl::new("LEcho;", ComponentKind::Service));
    {
        let mut cb = apk.class_extends("LSpray;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let (i, s) = (m.reg(), m.reg());
        m.new_instance(i, class::INTENT);
        m.const_string(s, "LEcho;");
        m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
        count_up(&mut m, |m, key| {
            m.invoke_virtual(class::INTENT, "putExtra", &[i, key, key], false);
        });
        m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    {
        let mut cb = apk.class_extends("LEcho;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 2, false, false);
        let (intent, v) = (m.param(1), m.reg());
        count_up(&mut m, |m, key| {
            m.invoke_virtual(class::INTENT, "getStringExtra", &[intent, key], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
        });
        m.ret_void();
        m.finish();
        cb.finish();
    }
    apk.finish()
}

#[test]
fn intern_tables_stop_at_their_cap_and_every_extra_round_trips() {
    let mut device = Device::new(vec![spray()]);
    for _ in 0..2 {
        assert!(device.launch("t.spray", "LSpray;"));
        assert_eq!(device.run_until_idle(), 1);
    }
    // One key per extra, the `target` field and the received intent's
    // extras all went through the tables.
    assert_eq!(device.extra_keys().len(), INTERN_CAP);
    let heap = device.heap("t.spray").expect("installed");
    assert_eq!(heap.field_names().len(), INTERN_CAP);
    assert_eq!(heap.len(), 0, "nothing escaped");

    let expected: Vec<String> = (0..KEYS).map(|k| k.to_string()).collect();
    let events = device.audit.events();
    let sent: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            AuditEvent::IccSent { intent, .. } => Some(intent),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 2);
    for intent in sent {
        let extras: Vec<(&str, &str)> = intent.extras.iter().map(|(k, v)| (&**k, &**v)).collect();
        let mut want: Vec<(&str, &str)> = expected.iter().map(|k| (&**k, &**k)).collect();
        want.sort();
        assert_eq!(extras, want);
    }
    let logged: Vec<&str> = device
        .audit
        .sinks_fired(Resource::Log)
        .map(|e| match e {
            AuditEvent::SinkFired { detail, .. } => detail.as_str(),
            _ => unreachable!(),
        })
        .collect();
    let twice: Vec<&str> = expected.iter().chain(&expected).map(|k| &**k).collect();
    assert_eq!(logged, twice, "every extra reads back, in order");
}
