//! Reusable builders for leak-benchmark apps.
//!
//! Every DroidBench/ICC-Bench-style case is assembled from a *sender*
//! (reads a sensitive source, configures an Intent, performs an ICC call)
//! and a *receiver* (reads the Intent payload, hits a sink), with knobs
//! that vary the mechanics the real suites vary: explicit vs implicit
//! delivery, category/data matching, helper-method and field indirection,
//! unreachable-code decoys, result channels and dynamic registration.

use separ_android::api::{class, IccMethod};
use separ_android::types::Resource;
use separ_dex::build::{ApkBuilder, MethodBuilder};
use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ_dex::program::Apk;

/// How the sender addresses the receiver.
#[derive(Clone, Debug)]
pub enum Addressing {
    /// Explicit `setClassName` to the receiver class.
    Explicit,
    /// Implicit, with the given action (plus optional category/data).
    Implicit {
        /// The intent action.
        action: String,
        /// Categories to add.
        categories: Vec<String>,
        /// MIME type to set.
        data_type: Option<String>,
        /// Data scheme to set.
        data_scheme: Option<String>,
    },
}

impl Addressing {
    /// Implicit addressing with an action only.
    pub fn action(a: impl Into<String>) -> Addressing {
        Addressing::Implicit {
            action: a.into(),
            categories: vec![],
            data_type: None,
            data_scheme: None,
        }
    }
}

/// Indirection the tainted value passes through before `putExtra`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Indirection {
    /// Straight line.
    None,
    /// Through a helper method (`launder(x) { return x }`).
    Helper,
    /// Through an instance field (store then load).
    Field,
}

/// Specification of the sending side of a case.
#[derive(Clone, Debug)]
pub struct SenderSpec {
    /// Component class descriptor.
    pub class: String,
    /// Component kind (its entry point is used to trigger the leak).
    pub kind: ComponentKind,
    /// The source API's resource.
    pub source: Resource,
    /// The ICC method used to send.
    pub via: IccMethod,
    /// Addressing mode.
    pub addressing: Addressing,
    /// Extra key carrying the payload.
    pub extra_key: String,
    /// Taint indirection.
    pub indirection: Indirection,
    /// Wrap the whole leak in a branch that provably never executes.
    pub dead_guard: bool,
}

impl SenderSpec {
    /// A conventional sender.
    pub fn new(class: impl Into<String>, via: IccMethod, addressing: Addressing) -> SenderSpec {
        SenderSpec {
            class: class.into(),
            kind: ComponentKind::Activity,
            source: Resource::Location,
            via,
            addressing,
            extra_key: "secret".into(),
            indirection: Indirection::None,
            dead_guard: false,
        }
    }
}

/// Specification of the receiving side.
#[derive(Clone, Debug)]
pub struct ReceiverSpec {
    /// Component class descriptor.
    pub class: String,
    /// Component kind (must suit the sender's ICC method).
    pub kind: ComponentKind,
    /// Static intent filter, if any.
    pub filter: Option<IntentFilterDecl>,
    /// Explicit `exported` flag.
    pub exported: Option<bool>,
    /// The extra key it reads.
    pub extra_key: String,
    /// The sink it feeds.
    pub sink: Resource,
}

impl ReceiverSpec {
    /// A conventional receiver.
    pub fn new(class: impl Into<String>, kind: ComponentKind) -> ReceiverSpec {
        ReceiverSpec {
            class: class.into(),
            kind,
            filter: None,
            exported: Some(true),
            extra_key: "secret".into(),
            sink: Resource::Log,
        }
    }

    /// Adds a filter accepting the given action.
    pub fn with_action_filter(mut self, action: &str) -> ReceiverSpec {
        self.filter = Some(IntentFilterDecl::for_actions([action]));
        self
    }
}

/// The receiver kind an ICC method requires.
pub fn kind_for(via: IccMethod) -> ComponentKind {
    // A `setResult` reply is not resolved: it returns to the Activity
    // that asked for it with `startActivityForResult`, so a reply case's
    // receiver is an Activity.
    via.receiving_kind().unwrap_or(ComponentKind::Activity)
}

/// The lifecycle entry-point method a component kind is driven through.
fn entry_method(kind: ComponentKind, via: IccMethod) -> (&'static str, u8) {
    match kind {
        ComponentKind::Activity => ("onCreate", 1),
        ComponentKind::Service => {
            if via == IccMethod::BindService {
                ("onBind", 2)
            } else {
                ("onStartCommand", 2)
            }
        }
        ComponentKind::Receiver => ("onReceive", 2),
        ComponentKind::Provider => match via {
            IccMethod::ProviderInsert => ("insert", 2),
            IccMethod::ProviderUpdate => ("update", 2),
            IccMethod::ProviderDelete => ("delete", 2),
            _ => ("query", 2),
        },
    }
}

/// The source-API `(class, method)` pair for a resource.
fn source_api(resource: Resource) -> (&'static str, &'static str) {
    match resource {
        Resource::Location => (class::LOCATION_MANAGER, "getLastKnownLocation"),
        Resource::DeviceId => (class::TELEPHONY_MANAGER, "getDeviceId"),
        Resource::PhoneState => (class::TELEPHONY_MANAGER, "getLine1Number"),
        Resource::Contacts => (class::RESOLVER, "queryContacts"),
        Resource::SmsInbox => (class::RESOLVER, "querySmsInbox"),
        Resource::Accounts => (class::ACCOUNTS, "getAccounts"),
        _ => (class::TELEPHONY_MANAGER, "getDeviceId"),
    }
}

/// The ICC API `(class, method)` for a method.
fn icc_api(via: IccMethod) -> (&'static str, &'static str) {
    match via {
        IccMethod::StartActivity => (class::CONTEXT, "startActivity"),
        IccMethod::StartActivityForResult => (class::ACTIVITY, "startActivityForResult"),
        IccMethod::SetResult => (class::ACTIVITY, "setResult"),
        IccMethod::StartService => (class::CONTEXT, "startService"),
        IccMethod::BindService => (class::CONTEXT, "bindService"),
        IccMethod::SendBroadcast => (class::CONTEXT, "sendBroadcast"),
        IccMethod::ProviderQuery => (class::RESOLVER, "query"),
        IccMethod::ProviderInsert => (class::RESOLVER, "insert"),
        IccMethod::ProviderUpdate => (class::RESOLVER, "update"),
        IccMethod::ProviderDelete => (class::RESOLVER, "delete"),
    }
}

/// Emits the sender body into `m` (the component entry method).
fn emit_sender_body(m: &mut MethodBuilder<'_, '_>, spec: &SenderSpec) {
    let data = m.reg();
    let intent = m.reg();
    let s = m.reg();
    let end = m.new_label();
    if spec.dead_guard {
        // const 0; if-eqz -> end  (leak below is unreachable)
        let guard = m.reg();
        m.const_int(guard, 0);
        m.if_eqz(guard, end);
    }
    let (sc, sm) = source_api(spec.source);
    m.invoke_virtual(sc, sm, &[data], true);
    m.move_result(data);
    match spec.indirection {
        Indirection::None => {}
        Indirection::Helper => {
            m.invoke_virtual(&spec.class.clone(), "launder", &[m.this(), data], true);
            m.move_result(data);
        }
        Indirection::Field => {
            m.iput(data, m.this(), &spec.class.clone(), "stash");
            m.iget(data, m.this(), &spec.class.clone(), "stash");
        }
    }
    m.new_instance(intent, class::INTENT);
    match &spec.addressing {
        Addressing::Explicit => {
            // Explicit target: the receiver class is derived from the
            // sender class by convention (set by the case builder).
        }
        Addressing::Implicit {
            action,
            categories,
            data_type,
            data_scheme,
        } => {
            m.const_string(s, action);
            m.invoke_virtual(class::INTENT, "setAction", &[intent, s], false);
            for c in categories {
                m.const_string(s, c);
                m.invoke_virtual(class::INTENT, "addCategory", &[intent, s], false);
            }
            if let Some(t) = data_type {
                m.const_string(s, t);
                m.invoke_virtual(class::INTENT, "setType", &[intent, s], false);
            }
            if let Some(sc) = data_scheme {
                m.const_string(s, &format!("{sc}://payload"));
                m.invoke_virtual(class::INTENT, "setData", &[intent, s], false);
            }
        }
    }
    if let Addressing::Explicit = spec.addressing {
        m.const_string(s, &spec.extra_target_class());
        m.invoke_virtual(class::INTENT, "setClassName", &[intent, s], false);
    }
    m.const_string(s, &spec.extra_key);
    m.invoke_virtual(class::INTENT, "putExtra", &[intent, s, data], false);
    let (ic, im) = icc_api(spec.via);
    m.invoke_virtual(ic, im, &[m.this(), intent], false);
    m.bind(end);
    m.ret_void();
}

impl SenderSpec {
    /// For explicit addressing: the target class (stored out of band by
    /// the case builder via a naming convention).
    fn extra_target_class(&self) -> String {
        // Receiver class = sender class with `Sender` replaced by `Recv`,
        // or `<class>Recv;` appended.
        if self.class.contains("Sender") {
            self.class.replace("Sender", "Recv")
        } else {
            format!("{}Recv;", self.class.trim_end_matches(';'))
        }
    }

    /// The receiver class this spec's explicit addressing targets.
    pub fn explicit_target(&self) -> String {
        self.extra_target_class()
    }
}

/// Emits the receiver body: read extra, optional permission check, sink.
fn emit_receiver_body(m: &mut MethodBuilder<'_, '_>, spec: &ReceiverSpec, via: IccMethod) {
    let v = m.reg();
    let k = m.reg();
    // Activities obtain the intent via getIntent(); others receive it as a
    // parameter.
    let intent = if spec.kind == ComponentKind::Activity && via != IccMethod::SetResult {
        m.invoke_virtual(class::ACTIVITY, "getIntent", &[m.this()], true);
        m.move_result(v);
        v
    } else {
        m.param(1)
    };
    m.const_string(k, &spec.extra_key);
    m.invoke_virtual(class::INTENT, "getStringExtra", &[intent, k], true);
    let payload = m.reg();
    m.move_result(payload);
    match spec.sink {
        Resource::Sms => {
            let mgr = m.reg();
            let num = m.reg();
            m.invoke_static(class::SMS_MANAGER, "getDefault", &[], true);
            m.move_result(mgr);
            m.const_string(num, "+15550001");
            m.invoke_virtual(
                class::SMS_MANAGER,
                "sendTextMessage",
                &[mgr, num, payload],
                false,
            );
        }
        Resource::NetworkWrite => {
            m.invoke_virtual(class::HTTP, "getOutputStream", &[payload], true);
            let r = m.reg();
            m.move_result(r);
        }
        Resource::SdcardWrite => {
            m.invoke_virtual(class::FILE_OUT, "write", &[payload], false);
        }
        _ => {
            m.invoke_virtual(class::LOG, "d", &[payload], false);
        }
    }
    m.ret_void();
}

/// Adds a sender component (manifest + code) to an app.
pub fn add_sender(apk: &mut ApkBuilder, spec: &SenderSpec) {
    apk.add_component(ComponentDecl::new(spec.class.clone(), spec.kind));
    if let Some(p) = spec.source.permission() {
        apk.uses_permission(p);
    }
    let superclass = separ_android::api::component_super(spec.kind);
    let mut cb = apk.class_extends(&spec.class.clone(), superclass);
    if spec.indirection == Indirection::Field {
        cb.field("stash", false);
    }
    let (entry, params) = entry_method(spec.kind, IccMethod::StartActivity);
    let mut m = cb.method(entry, params, false, false);
    emit_sender_body(&mut m, spec);
    m.finish();
    if spec.indirection == Indirection::Helper {
        let mut m = cb.method("launder", 2, false, true);
        let r = m.reg();
        m.mov(r, m.param(1));
        m.ret(r);
        m.finish();
    }
    cb.finish();
}

/// Adds a receiver component (manifest + code) to an app.
pub fn add_receiver(apk: &mut ApkBuilder, spec: &ReceiverSpec, via: IccMethod) {
    let mut decl = ComponentDecl::new(spec.class.clone(), spec.kind);
    decl.exported = spec.exported;
    if let Some(f) = &spec.filter {
        decl.intent_filters.push(f.clone());
    }
    apk.add_component(decl);
    if let Some(p) = spec.sink.permission() {
        apk.uses_permission(p);
    }
    let superclass = separ_android::api::component_super(spec.kind);
    let mut cb = apk.class_extends(&spec.class.clone(), superclass);
    let (entry, params) = entry_method(spec.kind, via);
    let mut m = cb.method(entry, params, false, false);
    emit_receiver_body(&mut m, spec, via);
    m.finish();
    cb.finish();
}

/// Builds a single-app case (sender + receiver in one package).
pub fn single_app_case(package: &str, sender: &SenderSpec, receiver: &ReceiverSpec) -> Apk {
    let mut apk = ApkBuilder::new(package);
    add_sender(&mut apk, sender);
    add_receiver(&mut apk, receiver, sender.via);
    apk.finish()
}

/// Builds a two-app (inter-app) case.
pub fn two_app_case(
    sender_pkg: &str,
    receiver_pkg: &str,
    sender: &SenderSpec,
    receiver: &ReceiverSpec,
) -> Vec<Apk> {
    let mut a = ApkBuilder::new(sender_pkg);
    add_sender(&mut a, sender);
    let mut b = ApkBuilder::new(receiver_pkg);
    add_receiver(&mut b, receiver, sender.via);
    vec![a.finish(), b.finish()]
}

/// Builds a result-channel case: `requester` start-for-results (or binds)
/// `responder`; the responder reads a source and replies via `setResult`
/// with a tainted extra; the requester's `onActivityResult` sinks it.
///
/// The true leak is `(responder, requester)`.
pub fn result_channel_case(
    package: &str,
    requester_class: &str,
    responder_class: &str,
    via: IccMethod,
    source: Resource,
    sink: Resource,
    extra_key: &str,
) -> Apk {
    assert!(via.requests_result(), "result channel needs a two-way ICC");
    let mut apk = ApkBuilder::new(package);
    // Requester: an Activity.
    apk.add_component(ComponentDecl::new(requester_class, ComponentKind::Activity));
    if let Some(p) = sink.permission() {
        apk.uses_permission(p);
    }
    {
        let mut cb = apk.class_extends(requester_class, class::ACTIVITY);
        {
            let mut m = cb.method("onCreate", 1, false, false);
            let i = m.reg();
            let s = m.reg();
            m.new_instance(i, class::INTENT);
            m.const_string(s, responder_class);
            m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
            let (ic, im) = icc_api(via);
            m.invoke_virtual(ic, im, &[m.this(), i], false);
            m.ret_void();
            m.finish();
        }
        {
            let mut m = cb.method("onActivityResult", 2, false, false);
            let v = m.reg();
            let k = m.reg();
            m.const_string(k, extra_key);
            m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
            m.move_result(v);
            match sink {
                Resource::Sms => {
                    let mgr = m.reg();
                    let num = m.reg();
                    m.invoke_static(class::SMS_MANAGER, "getDefault", &[], true);
                    m.move_result(mgr);
                    m.const_string(num, "+15550002");
                    m.invoke_virtual(class::SMS_MANAGER, "sendTextMessage", &[mgr, num, v], false);
                }
                _ => {
                    m.invoke_virtual(class::LOG, "d", &[v], false);
                }
            }
            m.ret_void();
            m.finish();
        }
        cb.finish();
    }
    // Responder: kind depends on the ICC method.
    let responder_kind = kind_for(via);
    let mut decl = ComponentDecl::new(responder_class, responder_kind);
    decl.exported = Some(true);
    apk.add_component(decl);
    if let Some(p) = source.permission() {
        apk.uses_permission(p);
    }
    {
        let superclass = separ_android::api::component_super(responder_kind);
        let mut cb = apk.class_extends(responder_class, superclass);
        let (entry, params) = entry_method(responder_kind, via);
        let mut m = cb.method(entry, params, false, false);
        let data = m.reg();
        let i = m.reg();
        let k = m.reg();
        let (sc, sm) = source_api(source);
        m.invoke_virtual(sc, sm, &[data], true);
        m.move_result(data);
        m.new_instance(i, class::INTENT);
        m.const_string(k, extra_key);
        m.invoke_virtual(class::INTENT, "putExtra", &[i, k, data], false);
        m.invoke_virtual(class::ACTIVITY, "setResult", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    apk.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_analysis::extractor::extract_apk;
    use separ_android::types::FlowPath;

    #[test]
    fn single_app_case_extracts_sender_and_receiver_paths() {
        let sender = SenderSpec::new(
            "LSender;",
            IccMethod::StartService,
            Addressing::action("com.case.GO"),
        );
        let mut receiver = ReceiverSpec::new("LRecv;", ComponentKind::Service);
        receiver = receiver.with_action_filter("com.case.GO");
        let apk = single_app_case("com.case", &sender, &receiver);
        let model = extract_apk(&apk);
        let s = model.component("LSender;").expect("sender");
        assert!(s
            .paths
            .contains(&FlowPath::new(Resource::Location, Resource::Icc)));
        assert_eq!(s.sent_intents.len(), 1);
        let r = model.component("LRecv;").expect("receiver");
        assert!(r
            .paths
            .contains(&FlowPath::new(Resource::Icc, Resource::Log)));
    }

    #[test]
    fn dead_guard_suppresses_the_flow() {
        let mut sender = SenderSpec::new(
            "LSender;",
            IccMethod::StartService,
            Addressing::action("com.case.GO"),
        );
        sender.dead_guard = true;
        let receiver =
            ReceiverSpec::new("LRecv;", ComponentKind::Service).with_action_filter("com.case.GO");
        let apk = single_app_case("com.case", &sender, &receiver);
        let model = extract_apk(&apk);
        let s = model.component("LSender;").expect("sender");
        assert!(s.paths.is_empty(), "{:?}", s.paths);
        assert!(s.sent_intents.is_empty());
    }

    #[test]
    fn explicit_addressing_targets_by_convention() {
        let sender = SenderSpec::new(
            "LCaseSender;",
            IccMethod::StartService,
            Addressing::Explicit,
        );
        assert_eq!(sender.explicit_target(), "LCaseRecv;");
        let receiver = ReceiverSpec::new("LCaseRecv;", ComponentKind::Service);
        let apk = single_app_case("com.case", &sender, &receiver);
        let model = extract_apk(&apk);
        let s = model.component("LCaseSender;").expect("sender");
        assert_eq!(
            s.sent_intents[0].explicit_target.as_deref(),
            Some("LCaseRecv;")
        );
    }

    #[test]
    fn result_channel_resolves_passively() {
        let apk = result_channel_case(
            "com.rc",
            "LReq;",
            "LResp;",
            IccMethod::StartActivityForResult,
            Resource::DeviceId,
            Resource::Log,
            "imei",
        );
        let model = extract_apk(&apk);
        let resp = model.component("LResp;").expect("responder");
        let passive = resp
            .sent_intents
            .iter()
            .find(|i| i.is_passive)
            .expect("passive intent");
        assert!(passive.resolved_targets.contains("LReq;"));
        assert!(passive.extra_taints.contains(&Resource::DeviceId));
        let req = model.component("LReq;").expect("requester");
        assert!(req
            .paths
            .contains(&FlowPath::new(Resource::Icc, Resource::Log)));
    }
}
