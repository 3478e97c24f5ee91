//! The simulated Android device runtime.
//!
//! Installed apps' components execute real sdex bytecode on the
//! interpreter; framework calls are served by a syscall layer that models
//! the ICC bus (asynchronous envelopes, Android resolution rules) and the
//! source/sink APIs (with tagged payloads). The policy enforcement points
//! sit exactly where the paper's Xposed hooks sit: on every ICC API call
//! (send side) and on every delivery (receive side). Blocked calls are
//! silently skipped — the app continues in degraded mode, as the paper
//! describes for asynchronous ICC.
//!
//! Implicit intents resolve through a [`Router`] built from the installed
//! manifests; one marshalled intent is shared (`Arc`) by its envelope and
//! its audit records; and one [`Device::run_until_idle`] delivers at most
//! the delivery limit, dropping (and counting) whatever a runaway ICC
//! cycle left queued so it cannot spill into the next launch.
//!
//! The steady-state ICC path copies no strings. Constants, class names
//! and extra keys are `Arc<str>` from the constant pool, the device's app
//! table or a bounded [`Interner`]; marshalling an intent to wire form
//! and back clones those `Arc`s; and resolution, the VM's registers and
//! its syscall arguments fill buffers the device keeps. What an ICC still
//! allocates is the intent's own storage (its heap objects' field
//! vectors, its extras map and the shared wire form).

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use separ_android::api::{self, ApiKind, IccMethod, IntentConfigKind};
use separ_android::resolution::{IntentData, Router, Slot};
use separ_android::types::Resource;
use separ_core::policy::{Policy, PolicyEvent};
use separ_dex::manifest::ComponentKind;
use separ_dex::program::Apk;
use separ_dex::vm::{Heap, Interner, ObjRef, Syscalls, Value, Vm, VmBuffers};
use separ_dex::VmError;

use crate::audit::{AuditEvent, AuditLog};
use crate::pdp::{Decision, IccContext, Pdp, PromptHandler};
use crate::tag;

/// An ICC message in flight.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Index of the sending app (`None` for device-external injections).
    pub from_app: Option<usize>,
    /// Sending component class (shared with the device's app table).
    pub from_component: Arc<str>,
    /// The ICC method used.
    pub via: IccMethod,
    /// The marshalled intent (extras keep their payload tags), shared
    /// with the audit records of its send and deliveries.
    pub intent: Arc<IntentData>,
    /// For result-requesting sends: where the reply goes.
    pub reply_to: Option<(usize, Arc<str>)>,
}

/// Refills `tags` with the resource tags carried by `intent`'s extras.
fn extra_tags(intent: &IntentData, tags: &mut BTreeSet<Resource>) {
    tags.clear();
    tags.extend(intent.extras.values().filter_map(|v| tag::extract(v)));
}

/// Pre-resolved per-app metadata (cheap to consult during execution).
#[derive(Clone, Debug)]
struct AppMeta {
    /// Shared by refcount with every audit record naming the app.
    package: Arc<str>,
    /// Each component's class, by index into `manifest.components`;
    /// shared with every envelope and audit record naming the component.
    classes: Vec<Arc<str>>,
    permissions: Vec<String>,
}

impl AppMeta {
    fn of(apk: &Apk) -> AppMeta {
        AppMeta {
            package: Arc::from(apk.manifest.package.as_str()),
            classes: (apk.manifest.components.iter())
                .map(|c| Arc::from(c.class.as_str()))
                .collect(),
            permissions: apk.manifest.uses_permissions.clone(),
        }
    }
}

/// One installed app.
#[derive(Debug)]
struct InstalledApp {
    apk: Arc<Apk>,
    heap: Heap,
}

/// A dynamically registered broadcast receiver (runtime-visible; invisible
/// to static extraction — the paper's documented blind spot).
#[derive(Clone, Debug)]
struct DynamicReceiver {
    app: usize,
    class: Arc<str>,
    action: Arc<str>,
}

/// Counters for the enforcement-overhead benchmark (RQ4).
#[derive(Debug, Default, Clone, Copy)]
pub struct HookStats {
    /// ICC calls intercepted.
    pub icc_hooks: u64,
    /// Deliveries intercepted.
    pub delivery_hooks: u64,
    /// Envelopes dropped undelivered because a `run_until_idle` reached
    /// the delivery limit.
    pub dropped: u64,
}

/// The simulated device.
#[derive(Debug)]
pub struct Device {
    apps: Vec<InstalledApp>,
    meta: Vec<AppMeta>,
    /// Indexes the installed manifests; rebuilt whenever app indices
    /// change.
    router: Router,
    pdp: Pdp,
    queue: VecDeque<Envelope>,
    dynamic_receivers: Vec<DynamicReceiver>,
    /// The audit log (public for assertions).
    pub audit: AuditLog,
    /// The send and the receive hook's contexts, refilled per event so a
    /// hook allocates no strings once their buffers have grown.
    send_ctx: IccContext,
    recv_ctx: IccContext,
    /// Buffer for building `extra:<key>` field names.
    key_buf: String,
    /// Extra keys, shared by every marshalled intent that carries them.
    extra_keys: Interner,
    /// `Landroid/content/Intent;`, the class of every received intent.
    intent_class: Arc<str>,
    /// Resolution's buffers: the router's slots and the receivers of the
    /// envelope being delivered.
    slots: Vec<Slot>,
    receivers: Vec<(usize, Arc<str>)>,
    /// The VM's register stack and syscall arguments, kept across
    /// invocations.
    vm_buffers: VmBuffers,
    enforcement: bool,
    hook_stats: HookStats,
    vm_budget: u64,
    delivery_limit: usize,
}

impl Device {
    /// Boots a device with the given apps installed and no policies.
    pub fn new(apks: Vec<Apk>) -> Device {
        let meta = apks.iter().map(AppMeta::of).collect();
        let router = Router::new(apks.iter().map(|a| &a.manifest));
        Device {
            apps: apks
                .into_iter()
                .map(|apk| InstalledApp {
                    apk: Arc::new(apk),
                    heap: Heap::new(),
                })
                .collect(),
            meta,
            router,
            pdp: Pdp::permissive(),
            queue: VecDeque::new(),
            dynamic_receivers: Vec::new(),
            audit: AuditLog::new(),
            send_ctx: IccContext::default(),
            recv_ctx: IccContext::default(),
            key_buf: String::new(),
            extra_keys: Interner::new(),
            intent_class: Arc::from(api::class::INTENT),
            slots: Vec::new(),
            receivers: Vec::new(),
            vm_buffers: VmBuffers::default(),
            enforcement: false,
            hook_stats: HookStats::default(),
            vm_budget: 1_000_000,
            delivery_limit: 10_000,
        }
    }

    /// Installs synthesized policies and enables enforcement.
    pub fn install_policies(
        &mut self,
        policies: Vec<Policy>,
        bundle_packages: Vec<String>,
        prompt: PromptHandler,
    ) {
        self.pdp = Pdp::new(policies, bundle_packages).with_prompt(prompt);
        self.enforcement = true;
    }

    /// Turns enforcement on or off. With it off, the hooks still
    /// intercept and count every ICC and delivery ([`HookStats`]) but
    /// consult no policy, so everything proceeds.
    pub fn set_enforcement(&mut self, enabled: bool) {
        self.enforcement = enabled;
    }

    /// Applies an incremental policy change to the running PDP (see
    /// `Pdp::apply_delta`). Enforcement stays in whatever state it is.
    pub fn apply_policy_delta(
        &mut self,
        added: Vec<separ_core::policy::Policy>,
        removed: &[separ_core::policy::Policy],
    ) {
        self.pdp.apply_delta(added, removed);
    }

    /// Hook interception counters.
    pub fn hook_stats(&self) -> HookStats {
        self.hook_stats
    }

    /// The policy decision point (for prompt/evaluation statistics).
    pub fn pdp(&self) -> &Pdp {
        &self.pdp
    }

    /// Envelopes waiting for delivery.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The most envelopes one [`Device::run_until_idle`] delivers.
    pub fn delivery_limit(&self) -> usize {
        self.delivery_limit
    }

    /// The table of extra keys the device shares across intents (at most
    /// `separ_dex::vm::INTERN_CAP` keys).
    pub fn extra_keys(&self) -> &Interner {
        &self.extra_keys
    }

    /// An installed app's VM heap: what its components' entry points
    /// left behind (see `Heap::reclaim`).
    pub fn heap(&self, package: &str) -> Option<&Heap> {
        self.app_index(package).map(|i| &self.apps[i].heap)
    }

    /// Index of an installed app by package.
    pub fn app_index(&self, package: &str) -> Option<usize> {
        self.meta.iter().position(|m| &*m.package == package)
    }

    /// Installs an app onto the running device. Returns `false` (and does
    /// nothing) if the package name is already taken.
    pub fn install_apk(&mut self, apk: Apk) -> bool {
        if self.app_index(&apk.manifest.package).is_some() {
            return false;
        }
        self.meta.push(AppMeta::of(&apk));
        self.apps.push(InstalledApp {
            apk: Arc::new(apk),
            heap: Heap::new(),
        });
        self.rebuild_router();
        true
    }

    fn rebuild_router(&mut self) {
        self.router = Router::new(self.apps.iter().map(|a| &a.apk.manifest));
    }

    /// Uninstalls an app. In-flight envelopes from or to it are dropped
    /// and its dynamic receivers unregistered. Returns `false` if the
    /// package was not installed.
    pub fn uninstall_package(&mut self, package: &str) -> bool {
        let Some(idx) = self.app_index(package) else {
            return false;
        };
        self.apps.remove(idx);
        self.meta.remove(idx);
        self.rebuild_router();
        self.dynamic_receivers.retain(|d| d.app != idx);
        // Remaining references index into the shrunk vectors: remap.
        for d in &mut self.dynamic_receivers {
            if d.app > idx {
                d.app -= 1;
            }
        }
        self.queue.retain(|e| e.from_app != Some(idx));
        for e in &mut self.queue {
            if let Some(fa) = e.from_app {
                if fa > idx {
                    e.from_app = Some(fa - 1);
                }
            }
            e.reply_to = match e.reply_to.take() {
                Some((ra, c)) if ra > idx => Some((ra - 1, c)),
                Some((ra, _)) if ra == idx => None,
                other => other,
            };
        }
        true
    }

    /// Launches a component's lifecycle entry directly (like the launcher
    /// or the system would), with no incoming intent.
    pub fn launch(&mut self, package: &str, component_class: &str) -> bool {
        let Some(idx) = self.app_index(package) else {
            return false;
        };
        let classes = &self.meta[idx].classes;
        let Some(class) = classes.iter().find(|c| ***c == *component_class) else {
            return false;
        };
        self.execute_component(idx, &Arc::clone(class), None)
    }

    /// Runs queued deliveries until the bus is idle or the delivery limit
    /// is reached. Returns the number of envelopes delivered, at most the
    /// limit. Envelopes still queued at the limit (a self-sustaining ICC
    /// cycle) are dropped and counted in [`HookStats::dropped`], so the
    /// next launch starts from an idle bus.
    pub fn run_until_idle(&mut self) -> usize {
        let mut processed = 0;
        while processed < self.delivery_limit {
            let Some(env) = self.queue.pop_front() else {
                return processed;
            };
            self.deliver(env);
            processed += 1;
        }
        let dropped = self.queue.len() as u64;
        if dropped > 0 {
            self.queue.clear();
            self.hook_stats.dropped += dropped;
        }
        processed
    }

    /// The `(app index, component class)` pairs an envelope is delivered
    /// to, in delivery order. Statically declared receivers come from the
    /// [`Router`].
    pub fn receivers(&self, env: &Envelope) -> Vec<(usize, Arc<str>)> {
        let mut out = Vec::new();
        self.route_into(env, &mut Vec::new(), &mut out);
        out
    }

    /// [`Device::receivers`] with the static receivers found by a linear
    /// scan over every installed component instead of the router: the
    /// reference oracle the router is tested against. Delivery never
    /// uses it. Test-only.
    #[cfg(any(test, feature = "reference"))]
    #[doc(hidden)]
    pub fn receivers_by_scan(&self, env: &Envelope) -> Vec<(usize, Arc<str>)> {
        let mut out = Vec::new();
        self.resolve(env, &mut Vec::new(), &mut out, |kind, slots| {
            let manifests = self.apps.iter().map(|a| &a.apk.manifest);
            separ_android::resolution::route_by_scan(
                manifests,
                kind,
                &env.intent,
                env.from_app,
                slots,
            );
        });
        out
    }

    /// [`Device::receivers`] into `out`, with `slots` as the router's
    /// buffer.
    fn route_into(&self, env: &Envelope, slots: &mut Vec<Slot>, out: &mut Vec<(usize, Arc<str>)>) {
        self.resolve(env, slots, out, |kind, slots| {
            let manifest = |app: usize| &self.apps[app].apk.manifest;
            self.router
                .route(manifest, kind, &env.intent, env.from_app, slots);
        });
    }

    /// Refills `out` with an envelope's receiving `(app, component)`
    /// pairs, with `route` finding the statically declared receivers'
    /// slots (into `slots`).
    fn resolve(
        &self,
        env: &Envelope,
        slots: &mut Vec<Slot>,
        out: &mut Vec<(usize, Arc<str>)>,
        route: impl FnOnce(ComponentKind, &mut Vec<Slot>),
    ) {
        out.clear();
        if env.via == IccMethod::SetResult {
            out.extend(env.reply_to.iter().cloned());
            return;
        }
        let kind = match env.via {
            IccMethod::StartActivity | IccMethod::StartActivityForResult => ComponentKind::Activity,
            IccMethod::StartService | IccMethod::BindService => ComponentKind::Service,
            IccMethod::SendBroadcast => ComponentKind::Receiver,
            _ => ComponentKind::Provider,
        };
        slots.clear();
        route(kind, slots);
        let class =
            |&(app, component): &Slot| (app, Arc::clone(&self.meta[app].classes[component]));
        out.extend(slots.iter().map(class));
        if env.intent.is_explicit() {
            return;
        }
        // Dynamically registered receivers participate in broadcast
        // delivery (they exist at runtime even though static analysis
        // does not model them).
        if kind == ComponentKind::Receiver {
            for dr in &self.dynamic_receivers {
                if Some(&*dr.action) == env.intent.action.as_deref() {
                    out.push((dr.app, Arc::clone(&dr.class)));
                }
            }
        }
        // Equal pairs are equal strings, so which copy `dedup` keeps
        // does not matter, and the unstable sort needs no scratch space.
        out.sort_unstable();
        out.dedup();
    }

    fn deliver(&mut self, env: Envelope) {
        let (mut slots, mut receivers) = (
            std::mem::take(&mut self.slots),
            std::mem::take(&mut self.receivers),
        );
        self.route_into(&env, &mut slots, &mut receivers);
        self.slots = slots;
        if receivers.is_empty() {
            self.audit.record(AuditEvent::IccUndeliverable {
                action: env.intent.action.clone(),
            });
            self.receivers = receivers;
            return;
        }
        if self.enforcement {
            // Everything but the receiver is the same for every receiver.
            let ctx = &mut self.recv_ctx;
            let sender = env
                .from_app
                .map_or("<external>", |i| &*self.meta[i].package);
            refill(&mut ctx.sender_app, sender);
            refill(&mut ctx.sender_component, &env.from_component);
            refill_opt(&mut ctx.action, env.intent.action.as_deref());
            extra_tags(&env.intent, &mut ctx.tags);
        }
        for (ai, class) in receivers.drain(..) {
            self.hook_stats.delivery_hooks += 1;
            if self.enforcement {
                let ctx = &mut self.recv_ctx;
                refill_opt(&mut ctx.receiver_app, Some(&self.meta[ai].package));
                refill_opt(&mut ctx.receiver_component, Some(&class));
                if !hook_decision(
                    &mut self.pdp,
                    &mut self.audit,
                    PolicyEvent::IccReceive,
                    ctx,
                    Some(&class),
                ) {
                    continue;
                }
            }
            self.audit.record(AuditEvent::IccDelivered {
                to_app: Arc::clone(&self.meta[ai].package),
                to_component: Arc::clone(&class),
                intent: Arc::clone(&env.intent),
            });
            self.execute_component(ai, &class, Some(&env));
        }
        self.receivers = receivers;
    }

    /// Executes the lifecycle entry point of a component, optionally with
    /// a received envelope.
    fn execute_component(
        &mut self,
        app_idx: usize,
        class: &Arc<str>,
        env: Option<&Envelope>,
    ) -> bool {
        let apk = self.apps[app_idx].apk.clone();
        let Some(decl) = apk.manifest.component(class) else {
            return false;
        };
        let entry = match decl.kind {
            ComponentKind::Activity => {
                if env.map(|e| e.via) == Some(IccMethod::SetResult) {
                    "onActivityResult"
                } else {
                    "onCreate"
                }
            }
            ComponentKind::Service => {
                if env.map(|e| e.via) == Some(IccMethod::BindService) {
                    "onBind"
                } else {
                    "onStartCommand"
                }
            }
            ComponentKind::Receiver => "onReceive",
            ComponentKind::Provider => match env.map(|e| e.via) {
                Some(IccMethod::ProviderInsert) => "insert",
                Some(IccMethod::ProviderUpdate) => "update",
                Some(IccMethod::ProviderDelete) => "delete",
                _ => "query",
            },
        };
        let Some(c) = apk.dex.class_by_name(class) else {
            return false;
        };
        let Some((_, method)) = apk.dex.resolve_method(c.ty, entry) else {
            return false;
        };
        let mut heap = std::mem::take(&mut self.apps[app_idx].heap);
        // Everything the entry point allocates, `this` and the received
        // intent included, is reclaimed on return unless it escaped.
        let mark = heap.mark();
        let this = Value::Object(heap.alloc(Arc::clone(class)));
        let received = env
            .map(|e| unmarshal_intent(&mut heap, &e.intent, &self.intent_class, &mut self.key_buf));
        // `this`, then the received intent (or null); the entry point
        // takes as many as it has parameters.
        let args = [this, received.map_or(Value::Null, Value::Object)];
        let mut sys = DeviceSyscalls {
            app_idx,
            component: class,
            package: &self.meta[app_idx].package,
            meta: &self.meta,
            pdp: &mut self.pdp,
            audit: &mut self.audit,
            ctx: &mut self.send_ctx,
            key_buf: &mut self.key_buf,
            extra_keys: &mut self.extra_keys,
            queue: &mut self.queue,
            dynamic_receivers: &mut self.dynamic_receivers,
            enforcement: self.enforcement,
            hook_stats: &mut self.hook_stats,
            received,
            caller_app: env.and_then(|e| e.from_app),
            reply_to: env.and_then(|e| {
                if e.via.requests_result() {
                    e.from_app.map(|fa| (fa, Arc::clone(&e.from_component)))
                } else {
                    None
                }
            }),
        };
        let buffers = std::mem::take(&mut self.vm_buffers);
        let mut vm = Vm::with_buffers(&apk.dex, self.vm_budget, buffers);
        let result = vm.run_method(&mut heap, &mut sys, method, args);
        self.vm_buffers = vm.into_buffers();
        heap.reclaim(mark);
        self.apps[app_idx].heap = heap;
        match result {
            Ok(_) => true,
            Err(VmError::BudgetExhausted) => false,
            Err(_) => false,
        }
    }
}

/// Overwrites `buf` with `s`, reusing its allocation.
fn refill(buf: &mut String, s: &str) {
    buf.clear();
    buf.push_str(s);
}

/// [`refill`] for an optional field: keeps the buffer of a present value.
fn refill_opt(slot: &mut Option<String>, s: Option<&str>) {
    match (slot.as_mut(), s) {
        (Some(buf), Some(s)) => refill(buf, s),
        (_, s) => *slot = s.map(str::to_string),
    }
}

/// `extra:<key>`, the heap field an intent extra is stored under, built
/// in `buf`.
fn extra_field<'b>(buf: &'b mut String, key: &str) -> &'b str {
    buf.clear();
    buf.push_str("extra:");
    buf.push_str(key);
    buf
}

/// [`extra_field`] for a key as the program passed it: a string, or an
/// integer in decimal (anything else is the empty key).
fn extra_field_of<'b>(buf: &'b mut String, key: &Value) -> &'b str {
    match key {
        Value::Int(i) => {
            buf.clear();
            write!(buf, "extra:{i}").expect("write to a String");
            buf
        }
        key => extra_field(buf, key.as_str().unwrap_or("")),
    }
}

/// A field value as the wire's string: a string is shared, an integer is
/// written in decimal, null is empty and an object is `<object>`.
fn wire_string(v: &Value) -> Arc<str> {
    match v {
        Value::Str(s) => Arc::clone(s),
        Value::Int(i) => Arc::from(i.to_string()),
        Value::Null => Arc::from(""),
        Value::Object(_) => Arc::from("<object>"),
    }
}

/// Marshals an intent heap object into wire form (`extra_keys` shares
/// the extras' keys).
fn marshal_intent(heap: &Heap, obj: ObjRef, extra_keys: &mut Interner) -> IntentData {
    let o = heap.get(obj);
    let mut intent = IntentData::new();
    let non_empty = |s: Arc<str>| (!s.is_empty()).then_some(s);
    for (k, v) in o.fields() {
        match &**k {
            "action" => intent.action = non_empty(wire_string(v)),
            "dataType" => intent.data_type = Some(wire_string(v)),
            "dataScheme" => intent.data_scheme = Some(wire_string(v)),
            "target" => intent.explicit_target = non_empty(wire_string(v)),
            "categories" => {
                let joined = wire_string(v);
                let categories = joined.split(';').filter(|c| !c.is_empty());
                intent.categories.extend(categories.map(Arc::from));
            }
            field => {
                if let Some(key) = field.strip_prefix("extra:") {
                    intent.extras.insert(extra_keys.intern(key), wire_string(v));
                }
            }
        }
    }
    intent
}

/// Builds an intent heap object of class `class` from wire form
/// (`key_buf` is the device's `extra:<key>` buffer).
fn unmarshal_intent(
    heap: &mut Heap,
    intent: &IntentData,
    class: &Arc<str>,
    key_buf: &mut String,
) -> ObjRef {
    let obj = heap.alloc(Arc::clone(class));
    let shared = |s: &Arc<str>| Value::Str(Arc::clone(s));
    if let Some(a) = &intent.action {
        heap.put_field(obj, "action", shared(a));
    }
    if let Some(t) = &intent.data_type {
        heap.put_field(obj, "dataType", shared(t));
    }
    if let Some(s) = &intent.data_scheme {
        heap.put_field(obj, "dataScheme", shared(s));
    }
    if let Some(t) = &intent.explicit_target {
        heap.put_field(obj, "target", shared(t));
    }
    if !intent.categories.is_empty() {
        let joined: Vec<&str> = intent.categories.iter().map(|c| &**c).collect();
        heap.put_field(obj, "categories", Value::str(joined.join(";")));
    }
    for (k, v) in &intent.extras {
        heap.put_field(obj, extra_field(key_buf, k), shared(v));
    }
    obj
}

/// The PEP's decision step, shared by the send and delivery hooks:
/// evaluates `event` (the PDP counts it; see
/// [`SharedPdp::totals`](crate::compiled::SharedPdp::totals)),
/// records the `pdp.decision` latency, audits a shown prompt, and audits
/// an `IccBlocked` naming `to_component` when the decision blocks.
/// Returns whether the call may proceed.
fn hook_decision(
    pdp: &mut Pdp,
    audit: &mut AuditLog,
    event: PolicyEvent,
    ctx: &IccContext,
    to_component: Option<&Arc<str>>,
) -> bool {
    let timer = separ_obs::timer();
    let decision = pdp.evaluate(event, ctx);
    separ_obs::observe("pdp.decision", timer);
    let (policy_id, vulnerability) = match decision {
        Decision::Allow => return true,
        Decision::PromptAllowed { policy_id } => {
            audit.record(AuditEvent::PromptShown {
                policy_id,
                allowed: true,
            });
            return true;
        }
        Decision::PromptDenied {
            policy_id,
            vulnerability,
        } => {
            audit.record(AuditEvent::PromptShown {
                policy_id,
                allowed: false,
            });
            (policy_id, vulnerability)
        }
        Decision::Deny {
            policy_id,
            vulnerability,
        } => (policy_id, vulnerability),
    };
    audit.record(AuditEvent::IccBlocked {
        policy_id,
        vulnerability,
        to_component: to_component.cloned(),
    });
    false
}

/// The syscall layer: Android APIs as seen by running bytecode.
struct DeviceSyscalls<'a> {
    app_idx: usize,
    component: &'a Arc<str>,
    package: &'a Arc<str>,
    meta: &'a [AppMeta],
    pdp: &'a mut Pdp,
    audit: &'a mut AuditLog,
    /// The device's send-hook context, refilled per send.
    ctx: &'a mut IccContext,
    /// The device's `extra:<key>` buffer.
    key_buf: &'a mut String,
    /// The device's extra-key table.
    extra_keys: &'a mut Interner,
    queue: &'a mut VecDeque<Envelope>,
    dynamic_receivers: &'a mut Vec<DynamicReceiver>,
    enforcement: bool,
    hook_stats: &'a mut HookStats,
    received: Option<ObjRef>,
    caller_app: Option<usize>,
    reply_to: Option<(usize, Arc<str>)>,
}

impl DeviceSyscalls<'_> {
    fn icc_send(&mut self, heap: &Heap, via: IccMethod, args: &[Value]) {
        // Find the intent argument.
        let Some(obj) = args
            .iter()
            .filter_map(Value::as_object)
            .find(|&o| &*heap.get(o).class == api::class::INTENT)
        else {
            return;
        };
        let intent = Arc::new(marshal_intent(heap, obj, self.extra_keys));
        self.hook_stats.icc_hooks += 1;
        if self.enforcement {
            let ctx = &mut *self.ctx;
            refill(&mut ctx.sender_app, self.package);
            refill(&mut ctx.sender_component, self.component);
            ctx.receiver_app = None;
            refill_opt(
                &mut ctx.receiver_component,
                intent.explicit_target.as_deref(),
            );
            refill_opt(&mut ctx.action, intent.action.as_deref());
            extra_tags(&intent, &mut ctx.tags);
            if !hook_decision(
                self.pdp,
                self.audit,
                PolicyEvent::IccSend,
                ctx,
                intent.explicit_target.as_ref(),
            ) {
                return; // skipped call: degraded mode, no crash
            }
        }
        self.audit.record(AuditEvent::IccSent {
            from_app: Arc::clone(self.package),
            from_component: Arc::clone(self.component),
            intent: Arc::clone(&intent),
        });
        let reply_to = if via == IccMethod::SetResult {
            self.reply_to.clone()
        } else if via.requests_result() {
            Some((self.app_idx, Arc::clone(self.component)))
        } else {
            None
        };
        self.queue.push_back(Envelope {
            from_app: Some(self.app_idx),
            from_component: Arc::clone(self.component),
            via,
            intent,
            reply_to,
        });
    }

    fn sink_fired(&mut self, sink: Resource, args: &[Value]) {
        let mut tags = BTreeSet::new();
        let mut detail = String::new();
        for a in args {
            if let Some(s) = a.as_str() {
                if let Some(t) = tag::extract(s) {
                    tags.insert(t);
                }
                if !detail.is_empty() {
                    detail.push(' ');
                }
                detail.push_str(tag::payload(s));
            }
        }
        self.audit.record(AuditEvent::SinkFired {
            sink,
            app: Arc::clone(self.package),
            tags,
            detail,
        });
    }
}

impl Syscalls for DeviceSyscalls<'_> {
    fn call(
        &mut self,
        heap: &mut Heap,
        class: &str,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        match api::classify(class, name) {
            ApiKind::IntentConfig(kind) => {
                let Some(obj) = args.first().and_then(Value::as_object) else {
                    return Ok(Some(Value::Null));
                };
                // The stored string value (`""` for anything but a string
                // or an int); a string argument is shared, not copied.
                let str_value = |v: &Value| match v {
                    Value::Str(s) => Value::Str(Arc::clone(s)),
                    Value::Int(i) => Value::str(i.to_string()),
                    _ => Value::str(""),
                };
                match kind {
                    IntentConfigKind::Init => {}
                    IntentConfigKind::SetAction => {
                        if let Some(v) = args.get(1) {
                            heap.put_field(obj, "action", str_value(v));
                        }
                    }
                    IntentConfigKind::AddCategory => {
                        if let Some(v) = args.get(1) {
                            let mut cur = heap
                                .get(obj)
                                .field("categories")
                                .and_then(|c| c.as_str().map(String::from))
                                .unwrap_or_default();
                            if !cur.is_empty() {
                                cur.push(';');
                            }
                            cur.push_str(str_value(v).as_str().unwrap_or(""));
                            heap.put_field(obj, "categories", Value::str(cur));
                        }
                    }
                    IntentConfigKind::SetType => {
                        if let Some(v) = args.get(1) {
                            heap.put_field(obj, "dataType", str_value(v));
                        }
                    }
                    IntentConfigKind::SetData => {
                        if let Some(v) = args.get(1) {
                            let s = str_value(v);
                            let s = s.as_str().unwrap_or("");
                            let scheme = s.split(':').next().unwrap_or(s);
                            heap.put_field(obj, "dataScheme", Value::str(scheme));
                        }
                    }
                    IntentConfigKind::PutExtra => {
                        if let (Some(k), Some(v)) = (args.get(1), args.get(2)) {
                            heap.put_field(obj, extra_field_of(self.key_buf, k), v.clone());
                        }
                    }
                    IntentConfigKind::SetTarget => {
                        // setClassName(intent, class) or (intent, pkg, class):
                        // the last string argument is the class.
                        if let Some(v) = args.iter().skip(1).rev().find(|v| v.as_str().is_some()) {
                            heap.put_field(obj, "target", v.clone());
                        }
                    }
                }
                Ok(Some(Value::Null))
            }
            ApiKind::IntentRead => match name {
                "getStringExtra" | "getIntExtra" => {
                    let obj = args.first().and_then(Value::as_object);
                    let field = extra_field_of(self.key_buf, args.get(1).unwrap_or(&Value::Null));
                    Ok(Some(
                        obj.and_then(|o| heap.get(o).field(field).cloned())
                            .unwrap_or(Value::Null),
                    ))
                }
                "getAction" => {
                    let obj = args.first().and_then(Value::as_object);
                    Ok(Some(
                        obj.and_then(|o| heap.get(o).field("action").cloned())
                            .unwrap_or(Value::Null),
                    ))
                }
                "getIntent" => Ok(Some(
                    self.received.map(Value::Object).unwrap_or(Value::Null),
                )),
                _ => Ok(Some(Value::Null)),
            },
            ApiKind::Icc(via) => {
                self.icc_send(heap, via, args);
                Ok(Some(Value::Null))
            }
            ApiKind::PermissionCheck => {
                let perm = args.iter().skip(1).find_map(Value::as_str).unwrap_or("");
                let granted = self
                    .caller_app
                    .map(|c| self.meta[c].permissions.iter().any(|p| p == perm))
                    .unwrap_or(false);
                Ok(Some(Value::Int(i64::from(granted))))
            }
            ApiKind::DynamicRegister => {
                // registerReceiver(this, receiverClass, action)
                let mut strings = args.iter().skip(1).filter_map(|v| match v {
                    Value::Str(s) if !s.is_empty() => Some(s),
                    _ => None,
                });
                if let (Some(class), Some(action)) = (strings.next(), strings.next()) {
                    self.dynamic_receivers.push(DynamicReceiver {
                        app: self.app_idx,
                        class: Arc::clone(class),
                        action: Arc::clone(action),
                    });
                }
                Ok(Some(Value::Null))
            }
            ApiKind::Source(resource) => {
                let payload = match resource {
                    Resource::Location => "geo:37.4219,-122.0840".to_string(),
                    Resource::DeviceId => "356938035643809".to_string(),
                    _ => format!("{}-data", resource.name().to_lowercase()),
                };
                Ok(Some(Value::str(tag::wrap(resource, &payload))))
            }
            ApiKind::Sink(resource) => {
                self.sink_fired(resource, args);
                Ok(Some(Value::Null))
            }
            ApiKind::Neutral => {
                // Unknown framework API (e.g. SmsManager.getDefault):
                // return an opaque object of the declared class so virtual
                // dispatch on it lands back in the syscall layer.
                if name == "getDefault" || name == "getSystemService" {
                    return Ok(Some(Value::Object(heap.alloc(class))));
                }
                Ok(Some(Value::Null))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_android::api::class;
    use separ_android::types::perm;
    use separ_core::policy::{Condition, PolicyAction};
    use separ_dex::build::ApkBuilder;
    use separ_dex::manifest::{ComponentDecl, IntentFilterDecl};

    /// The messenger app: exported service that texts whatever it is told.
    fn messenger() -> Apk {
        let mut apk = ApkBuilder::new("com.messenger");
        apk.uses_permission(perm::SEND_SMS);
        let mut decl = ComponentDecl::new("LMessageSender;", ComponentKind::Service);
        decl.exported = Some(true);
        apk.add_component(decl);
        let mut cb = apk.class_extends("LMessageSender;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 2, false, false);
        let num = m.reg();
        let msg = m.reg();
        let k = m.reg();
        let mgr = m.reg();
        let intent = m.param(1);
        m.const_string(k, "PHONE_NUM");
        m.invoke_virtual(class::INTENT, "getStringExtra", &[intent, k], true);
        m.move_result(num);
        m.const_string(k, "TEXT_MSG");
        m.invoke_virtual(class::INTENT, "getStringExtra", &[intent, k], true);
        m.move_result(msg);
        m.invoke_static(class::SMS_MANAGER, "getDefault", &[], true);
        m.move_result(mgr);
        m.invoke_virtual(
            class::SMS_MANAGER,
            "sendTextMessage",
            &[mgr, num, msg],
            false,
        );
        m.ret_void();
        m.finish();
        cb.finish();
        apk.finish()
    }

    /// A malicious app that reads GPS and texts it via the messenger.
    fn malware() -> Apk {
        let mut apk = ApkBuilder::new("com.mal");
        let mut decl = ComponentDecl::new("LMal;", ComponentKind::Activity);
        decl.exported = Some(true);
        apk.add_component(decl);
        let mut cb = apk.class_extends("LMal;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let loc = m.reg();
        let i = m.reg();
        let s = m.reg();
        m.invoke_virtual(
            class::LOCATION_MANAGER,
            "getLastKnownLocation",
            &[loc],
            true,
        );
        m.move_result(loc);
        m.new_instance(i, class::INTENT);
        m.const_string(s, "LMessageSender;");
        m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
        m.const_string(s, "PHONE_NUM");
        let n = m.reg();
        m.const_string(n, "+15551234");
        m.invoke_virtual(class::INTENT, "putExtra", &[i, s, n], false);
        m.const_string(s, "TEXT_MSG");
        m.invoke_virtual(class::INTENT, "putExtra", &[i, s, loc], false);
        m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
        apk.finish()
    }

    #[test]
    fn attack_succeeds_without_enforcement() {
        let mut device = Device::new(vec![messenger(), malware()]);
        assert!(device.launch("com.mal", "LMal;"));
        device.run_until_idle();
        // The SMS containing tagged location data left the device.
        assert!(device.audit.leaked(Resource::Location, Resource::Sms));
        let sms: Vec<_> = device.audit.sinks_fired(Resource::Sms).collect();
        assert_eq!(sms.len(), 1);
        match sms[0] {
            AuditEvent::SinkFired { detail, .. } => {
                assert!(detail.contains("+15551234"), "{detail}");
                assert!(detail.contains("geo:"), "{detail}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn policy_blocks_the_attack() {
        let mut device = Device::new(vec![messenger(), malware()]);
        let policy = Policy {
            id: 0,
            vulnerability: "information-leakage".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![
                Condition::ReceiverIs("LMessageSender;".into()),
                Condition::ExtraTagged("LOCATION".into()),
            ],
            action: PolicyAction::Prompt,
            rationale: "test".into(),
        };
        device.install_policies(
            vec![policy],
            vec!["com.messenger".into()],
            PromptHandler::AlwaysDeny,
        );
        device.launch("com.mal", "LMal;");
        device.run_until_idle();
        assert!(
            !device.audit.leaked(Resource::Location, Resource::Sms),
            "the leak must be blocked"
        );
        assert_eq!(device.audit.blocked_count(), 1);
        assert_eq!(device.pdp().prompts(), 1);
        // Degraded mode: nothing crashed, the malicious app simply got no
        // result.
    }

    #[test]
    fn user_consent_lets_the_icc_through() {
        let mut device = Device::new(vec![messenger(), malware()]);
        let policy = Policy {
            id: 0,
            vulnerability: "information-leakage".into(),
            event: PolicyEvent::IccReceive,
            conditions: vec![Condition::ReceiverIs("LMessageSender;".into())],
            action: PolicyAction::Prompt,
            rationale: "test".into(),
        };
        device.install_policies(vec![policy], vec![], PromptHandler::AlwaysAllow);
        device.launch("com.mal", "LMal;");
        device.run_until_idle();
        assert!(device.audit.leaked(Resource::Location, Resource::Sms));
        assert_eq!(device.audit.blocked_count(), 0);
    }

    #[test]
    fn implicit_intents_resolve_via_filters() {
        // A broadcaster and a receiver connected by action string.
        let mut sender = ApkBuilder::new("com.sender");
        sender.add_component(ComponentDecl::new("LSend;", ComponentKind::Activity));
        let mut cb = sender.class_extends("LSend;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let s = m.reg();
        m.new_instance(i, class::INTENT);
        m.const_string(s, "com.example.PING");
        m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
        m.invoke_virtual(class::CONTEXT, "sendBroadcast", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
        let sender = sender.finish();

        let mut rec = ApkBuilder::new("com.rec");
        let mut decl = ComponentDecl::new("LRec;", ComponentKind::Receiver);
        decl.intent_filters
            .push(IntentFilterDecl::for_actions(["com.example.PING"]));
        rec.add_component(decl);
        let mut cb = rec.class_extends("LRec;", class::RECEIVER);
        let mut m = cb.method("onReceive", 2, false, false);
        let v = m.reg();
        m.invoke_virtual(class::INTENT, "getAction", &[m.param(1)], true);
        m.move_result(v);
        m.invoke_virtual(class::LOG, "d", &[v], false);
        m.ret_void();
        m.finish();
        cb.finish();
        let rec = rec.finish();

        let mut device = Device::new(vec![sender, rec]);
        device.launch("com.sender", "LSend;");
        device.run_until_idle();
        let logs: Vec<_> = device.audit.sinks_fired(Resource::Log).collect();
        assert_eq!(logs.len(), 1);
        match logs[0] {
            AuditEvent::SinkFired { detail, .. } => assert_eq!(detail, "com.example.PING"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn start_activity_for_result_round_trip() {
        // A asks B for a token; B replies via setResult; A logs it.
        let mut a = ApkBuilder::new("com.a");
        a.add_component(ComponentDecl::new("LA;", ComponentKind::Activity));
        let mut cb = a.class_extends("LA;", class::ACTIVITY);
        {
            let mut m = cb.method("onCreate", 1, false, false);
            let i = m.reg();
            let s = m.reg();
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
            let v = m.reg();
            let k = m.reg();
            m.const_string(k, "token");
            m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.ret_void();
            m.finish();
        }
        cb.finish();
        let a = a.finish();

        let mut b = ApkBuilder::new("com.b");
        let mut decl = ComponentDecl::new("LB;", ComponentKind::Activity);
        decl.exported = Some(true);
        b.add_component(decl);
        let mut cb = b.class_extends("LB;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let k = m.reg();
        let v = m.reg();
        m.new_instance(i, class::INTENT);
        m.const_string(k, "token");
        m.const_string(v, "secret-42");
        m.invoke_virtual(class::INTENT, "putExtra", &[i, k, v], false);
        m.invoke_virtual(class::ACTIVITY, "setResult", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
        let b = b.finish();

        let mut device = Device::new(vec![a, b]);
        device.launch("com.a", "LA;");
        device.run_until_idle();
        let logs: Vec<_> = device.audit.sinks_fired(Resource::Log).collect();
        assert_eq!(logs.len(), 1, "events: {:?}", device.audit.events());
        match logs[0] {
            AuditEvent::SinkFired { detail, .. } => assert_eq!(detail, "secret-42"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn dynamic_receivers_get_broadcasts_at_runtime() {
        // An app registers a receiver at runtime; a broadcast reaches it
        // even though no static filter exists.
        let mut apk = ApkBuilder::new("com.dyn");
        apk.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
        apk.add_component(ComponentDecl::new("LDynRec;", ComponentKind::Receiver));
        {
            let mut cb = apk.class_extends("LMain;", class::ACTIVITY);
            let mut m = cb.method("onCreate", 1, false, false);
            let c = m.reg();
            let a = m.reg();
            let i = m.reg();
            m.const_string(c, "LDynRec;");
            m.const_string(a, "com.dyn.EVENT");
            m.invoke_virtual(class::CONTEXT, "registerReceiver", &[m.this(), c, a], true);
            // Now broadcast to ourselves.
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
        let mut device = Device::new(vec![apk.finish()]);
        device.launch("com.dyn", "LMain;");
        device.run_until_idle();
        assert_eq!(device.audit.sinks_fired(Resource::Log).count(), 1);
    }

    #[test]
    fn install_and_uninstall_at_runtime() {
        let mut device = Device::new(vec![messenger()]);
        assert!(device.install_apk(malware()));
        assert!(!device.install_apk(malware()), "duplicate package refused");
        assert!(device.launch("com.mal", "LMal;"));
        device.run_until_idle();
        assert!(device.audit.leaked(Resource::Location, Resource::Sms));
        assert!(device.uninstall_package("com.mal"));
        assert!(!device.uninstall_package("com.mal"));
        assert!(!device.launch("com.mal", "LMal;"), "gone after uninstall");
        // The messenger still works for legitimate traffic.
        assert!(device.app_index("com.messenger").is_some());
    }

    #[test]
    fn uninstall_drops_in_flight_envelopes() {
        let mut device = Device::new(vec![messenger(), malware()]);
        device.launch("com.mal", "LMal;"); // enqueues the forged intent
        assert!(device.uninstall_package("com.mal"));
        let processed = device.run_until_idle();
        assert_eq!(processed, 0, "the dead app's envelope was dropped");
        assert!(!device.audit.leaked(Resource::Location, Resource::Sms));
    }

    /// Two services that each start the other twice: every delivery
    /// queues one envelope more than it consumes, so the cycle never idles.
    fn ping_pong() -> Apk {
        let mut apk = ApkBuilder::new("com.loop");
        for (me, other) in [("LPing;", "LPong;"), ("LPong;", "LPing;")] {
            apk.add_component(ComponentDecl::new(me, ComponentKind::Service));
            let mut cb = apk.class_extends(me, class::SERVICE);
            let mut m = cb.method("onStartCommand", 2, false, false);
            let i = m.reg();
            let s = m.reg();
            for _ in 0..2 {
                m.new_instance(i, class::INTENT);
                m.const_string(s, other);
                m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
                m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
            }
            m.ret_void();
            m.finish();
            cb.finish();
        }
        apk.finish()
    }

    #[test]
    fn runaway_cycles_stop_at_the_limit_and_drop_the_rest() {
        let mut device = Device::new(vec![ping_pong(), messenger(), malware()]);
        device.delivery_limit = 50;
        assert!(device.launch("com.loop", "LPing;"));
        assert_eq!(device.queued(), 2);
        assert_eq!(
            device.run_until_idle(),
            50,
            "exactly the limit is delivered"
        );
        assert_eq!(device.audit.dropped(), 0, "the scan below sees every event");
        let delivered = device
            .audit
            .events()
            .iter()
            .filter(|e| matches!(e, AuditEvent::IccDelivered { .. }))
            .count();
        assert_eq!(delivered, 50, "every counted envelope was delivered");
        assert_eq!(device.queued(), 0);
        // 2 launched + 50 × (2 queued − 1 delivered) were left over.
        assert_eq!(device.hook_stats().dropped, 52);
        assert_eq!(device.hook_stats().delivery_hooks, 50);

        // The cycle does not carry over: the next launch delivers only
        // its own envelope.
        let before = device.audit.events().len();
        assert!(device.launch("com.mal", "LMal;"));
        assert_eq!(device.run_until_idle(), 1);
        assert_eq!(device.hook_stats().dropped, 52);
        assert!(device.audit.leaked(Resource::Location, Resource::Sms));
        assert_eq!(device.audit.dropped(), 0);
        assert!(device.audit.events().range(before..).all(|e| !matches!(
            e,
            AuditEvent::IccDelivered { to_app, .. } if &**to_app == "com.loop"
        )));
    }

    #[test]
    fn undeliverable_intents_are_audited() {
        let mut apk = ApkBuilder::new("com.lost");
        apk.add_component(ComponentDecl::new("LMain;", ComponentKind::Activity));
        let mut cb = apk.class_extends("LMain;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let s = m.reg();
        m.new_instance(i, class::INTENT);
        m.const_string(s, "no.such.ACTION");
        m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
        m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
        let mut device = Device::new(vec![apk.finish()]);
        device.launch("com.lost", "LMain;");
        device.run_until_idle();
        assert_eq!(device.audit.dropped(), 0);
        assert!(device
            .audit
            .events()
            .iter()
            .any(|e| matches!(e, AuditEvent::IccUndeliverable { action: Some(a) } if &**a == "no.such.ACTION")));
    }
}
