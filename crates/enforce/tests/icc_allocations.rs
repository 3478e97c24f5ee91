//! The allocation budget of the device's steady-state ICC path.
//!
//! A counting global allocator watches a device that runs the motivating
//! GPS→SMS trio and a ping app under SEPAR's policies. Once the audit
//! ring is full (so every record evicts one) and every buffer has grown,
//! an implicit ping ICC (its intent built, sent through the send hook,
//! resolved, delivered through the receive hook and read back by the
//! receiving service) makes at most `BUDGET` heap allocations, with hooks
//! on or off. Strings travel from the constant pool to the audit record
//! by refcount; what is left is the intent's own storage.
//!
//! This binary holds a single test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use separ_android::api::class;
use separ_android::types::Resource;
use separ_core::Separ;
use separ_corpus::motivating;
use separ_dex::build::ApkBuilder;
use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ_dex::program::Apk;
use separ_enforce::{Device, PromptHandler, AUDIT_CAPACITY};

/// Counts every allocation and reallocation made through it.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic, so counting neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations one steady-state ICC may make.
const BUDGET: u64 = 6;
/// Implicit ICCs per ping launch.
const BURST: usize = 100;
/// Launches measured after the warm-up.
const MEASURED: usize = 10;
const PING: (&str, &str) = ("com.bench.icc", "LPinger;");
const PING_ACTION: &str = "com.bench.PING";

/// An activity that fires `BURST` implicit `startService` intents, each
/// with one extra, at its own service, which reads the extra back.
fn ping() -> Apk {
    let mut apk = ApkBuilder::new(PING.0);
    apk.add_component(ComponentDecl::new(PING.1, ComponentKind::Activity));
    let mut svc = ComponentDecl::new("LPong;", ComponentKind::Service);
    svc.intent_filters
        .push(IntentFilterDecl::for_actions([PING_ACTION]));
    apk.add_component(svc);
    {
        let mut cb = apk.class_extends(PING.1, class::ACTIVITY);
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

/// The navigator, messenger and ping app under their SEPAR policies
/// (prompts answered "deny"), with the malicious app installed on top.
fn device() -> Device {
    let bundle = vec![
        motivating::navigator_app(),
        motivating::messenger_app(false),
        ping(),
    ];
    let report = Separ::new().analyze_apks(&bundle).expect("analysis");
    let packages = report.apps.iter().map(|a| a.package.clone()).collect();
    let mut apks = bundle;
    apks.push(motivating::malicious_app("+15550000"));
    let mut device = Device::new(apks);
    device.install_policies(report.policies, packages, PromptHandler::AlwaysDeny);
    device
}

fn launch_ping(device: &mut Device) {
    assert!(device.launch(PING.0, PING.1));
    assert_eq!(device.run_until_idle(), BURST);
}

/// Allocations per ICC over `MEASURED` ping launches, after enough
/// launches to fill the audit ring.
fn allocations_per_icc(device: &mut Device) -> f64 {
    // Each ICC records at least its send and its delivery.
    let warmup = AUDIT_CAPACITY / (2 * BURST) + 2;
    for _ in 0..warmup {
        launch_ping(device);
    }
    assert!(device.audit.dropped() > 0, "the audit ring is full");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        launch_ping(device);
    }
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    made as f64 / (MEASURED * BURST) as f64
}

#[test]
fn a_steady_state_icc_stays_within_the_allocation_budget() {
    let mut on = device();
    // The policies are live: the attack is blocked on this device.
    on.launch("com.navigator", motivating::LOCATION_FINDER);
    on.run_until_idle();
    assert!(!on.audit.leaked(Resource::Location, Resource::Sms));
    let hooked = allocations_per_icc(&mut on);
    assert!(on.hook_stats().icc_hooks > 0);

    let mut off = device();
    off.set_enforcement(false);
    let bare = allocations_per_icc(&mut off);

    println!("allocations per ICC: hooks on {hooked:.2}, hooks off {bare:.2}");
    assert!(
        hooked <= BUDGET as f64,
        "hooks on: {hooked:.2} allocations per ICC, budget {BUDGET}"
    );
    assert!(
        bare <= BUDGET as f64,
        "hooks off: {bare:.2} allocations per ICC, budget {BUDGET}"
    );
}
