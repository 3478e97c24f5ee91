//! Differential proof harness for the summary-based extractor.
//!
//! The rewrite of the abstract interpreter around validated per-method
//! summaries ships inside this harness: on randomized apps — with fields,
//! abstract intents, live and dead branches, helper chains, direct and
//! mutual recursion, and verifier-quarantined methods — the summary
//! strategy must extract *exactly* the model the retained per-context
//! reference does, and the model codec must be transparent: a decoded
//! entry is byte-for-byte the extraction. A session store must be
//! transparent too: an analysis that takes stored models and results
//! reports what a store-less one does.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use separ::analysis::absint::{AnalysisOptions, AnalysisStrategy};
use separ::analysis::cache;
use separ::analysis::extractor::extract_apk_with;
use separ::analysis::AppModel;
use separ::android::api::{class, IccMethod};
use separ::android::types::{perm, Resource};
use separ::core::{
    IncrementalSession, Report, Separ, SeparConfig, SessionOp, SessionStore, SignatureRegistry,
};
use separ::corpus::builder::result_channel_case;
use separ::corpus::market::{generate, MarketSpec};
use separ::dex::build::ApkBuilder;
use separ::dex::codec;
use separ::dex::instr::{BinOp, Instr, Reg};
use separ::dex::manifest::{ComponentDecl, ComponentKind};
use separ::dex::program::Apk;

const ACTIONS: &[&str] = &["diff.A", "diff.B", "diff.C", "diff.D"];
const KEYS: &[&str] = &["k0", "k1", "k2"];
const FIELDS: &[&str] = &["f0", "f1", "f2"];
const N_HELPERS: u8 = 3;

/// One abstract step of a generated method body. Indices are taken
/// modulo the relevant pool, so any `u8` draw is valid.
#[derive(Debug, Clone)]
enum Op {
    /// Read a taint source into the value register.
    Source(u8),
    /// Leak the value register into a sink.
    Sink(u8),
    /// Store the value register into an instance field.
    Stash(u8),
    /// Load an instance field into the value register.
    Load(u8),
    /// Allocate a fresh abstract intent.
    NewIntent,
    /// Set an action on the current intent.
    SetAction(u8),
    /// Put the value register into the current intent under a key.
    PutExtra(u8),
    /// Give the current intent an explicit target.
    SetTarget,
    /// Send the current intent over one of the ICC methods.
    Send(u8),
    /// Call a helper method; its result replaces the value register.
    Call(u8),
    /// A reachable dynamic permission check.
    PermCheck,
    /// A guarded sub-block: live (unknown condition, both paths join) or
    /// dead (constant-false guard — the body must be pruned).
    Branch(bool, Vec<Op>),
}

/// A whole generated app: two entry points (their field interplay drives
/// extra fixpoint rounds), helper bodies whose `Call` ops form arbitrary
/// — including cyclic — call chains, and optionally a method mangled
/// after construction so the verifier quarantines it.
#[derive(Debug, Clone)]
struct AppSpec {
    entry_ops: Vec<Op>,
    create_ops: Vec<Op>,
    helpers: Vec<Vec<Op>>,
    broken_helper: bool,
    call_broken: bool,
}

fn flat_op() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Source),
        (0u8..3).prop_map(Op::Sink),
        (0u8..3).prop_map(Op::Stash),
        (0u8..3).prop_map(Op::Load),
        Just(Op::NewIntent),
        (0u8..4).prop_map(Op::SetAction),
        (0u8..3).prop_map(Op::PutExtra),
        Just(Op::SetTarget),
        (0u8..6).prop_map(Op::Send),
        (0u8..6).prop_map(Op::Call),
        Just(Op::PermCheck),
    ]
    .boxed()
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        flat_op(),
        (any::<bool>(), prop::collection::vec(flat_op(), 1..4))
            .prop_map(|(live, body)| Op::Branch(live, body)),
    ]
    .boxed()
}

fn app_spec() -> impl Strategy<Value = AppSpec> {
    (
        prop::collection::vec(op(), 1..8),
        prop::collection::vec(op(), 0..5),
        prop::collection::vec(prop::collection::vec(flat_op(), 0..5), 3..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(entry_ops, create_ops, helpers, broken_helper, call_broken)| AppSpec {
                entry_ops,
                create_ops,
                helpers,
                broken_helper,
                call_broken,
            },
        )
}

fn build_app(spec: &AppSpec) -> Apk {
    let mut apk = ApkBuilder::new("com.diff.app");
    apk.uses_permission(perm::ACCESS_FINE_LOCATION);
    apk.uses_permission(perm::SEND_SMS);
    apk.add_component(ComponentDecl::new("LDiff;", ComponentKind::Service));
    let mut cb = apk.class_extends("LDiff;", class::SERVICE);
    for f in FIELDS {
        cb.field(f, false);
    }

    // One shared emitter keeps entry points and helpers structurally
    // uniform; `cond` distinguishes live branches (an unknown register)
    // from dead ones (a constant zero).
    fn emit(m: &mut separ::dex::build::MethodBuilder<'_, '_>, ops: &[Op], broken: bool) {
        let v = m.reg();
        let i = m.reg();
        let s = m.reg();
        let c = m.reg();
        m.const_string(v, "seed");
        let mut has_intent = false;
        emit_ops(m, ops, (v, i, s, c), &mut has_intent);
        if broken {
            m.invoke_virtual("LDiff;", "broken", &[m.this(), v], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
        }
    }

    fn emit_ops(
        m: &mut separ::dex::build::MethodBuilder<'_, '_>,
        ops: &[Op],
        (v, i, s, c): (Reg, Reg, Reg, Reg),
        has_intent: &mut bool,
    ) {
        for op in ops {
            match op {
                Op::Source(k) => match k % 3 {
                    0 => {
                        m.invoke_virtual(
                            class::LOCATION_MANAGER,
                            "getLastKnownLocation",
                            &[v],
                            true,
                        );
                        m.move_result(v);
                    }
                    1 => {
                        m.invoke_virtual(class::TELEPHONY_MANAGER, "getDeviceId", &[v], true);
                        m.move_result(v);
                    }
                    _ => {
                        m.invoke_virtual(class::ACTIVITY, "getIntent", &[m.this()], true);
                        m.move_result(c);
                        m.const_string(s, "in");
                        m.invoke_virtual(class::INTENT, "getStringExtra", &[c, s], true);
                        m.move_result(v);
                    }
                },
                Op::Sink(k) => match k % 3 {
                    0 => {
                        m.invoke_virtual(class::LOG, "d", &[v], false);
                    }
                    1 => {
                        m.invoke_virtual(class::SMS_MANAGER, "sendTextMessage", &[v], false);
                    }
                    _ => {
                        m.invoke_virtual(class::HTTP, "getOutputStream", &[v], true);
                        m.move_result(c);
                    }
                },
                Op::Stash(f) => {
                    m.iput(v, m.this(), "LDiff;", FIELDS[(*f as usize) % FIELDS.len()]);
                }
                Op::Load(f) => {
                    m.iget(v, m.this(), "LDiff;", FIELDS[(*f as usize) % FIELDS.len()]);
                }
                Op::NewIntent => {
                    m.new_instance(i, class::INTENT);
                    *has_intent = true;
                }
                Op::SetAction(a) => {
                    ensure_intent(m, i, has_intent);
                    m.const_string(s, ACTIONS[(*a as usize) % ACTIONS.len()]);
                    m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
                }
                Op::PutExtra(k) => {
                    ensure_intent(m, i, has_intent);
                    m.const_string(s, KEYS[(*k as usize) % KEYS.len()]);
                    m.invoke_virtual(class::INTENT, "putExtra", &[i, s, v], false);
                }
                Op::SetTarget => {
                    ensure_intent(m, i, has_intent);
                    m.const_string(s, "Lcom/other/Tgt;");
                    m.invoke_virtual(class::INTENT, "setClassName", &[i, s], false);
                }
                Op::Send(w) => {
                    ensure_intent(m, i, has_intent);
                    let name = match w % 3 {
                        0 => "startService",
                        1 => "startActivity",
                        _ => "sendBroadcast",
                    };
                    m.invoke_virtual(class::CONTEXT, name, &[m.this(), i], false);
                }
                Op::Call(h) => {
                    let name = format!("h{}", h % N_HELPERS);
                    m.invoke_virtual("LDiff;", &name, &[m.this(), v], true);
                    m.move_result(v);
                }
                Op::PermCheck => {
                    m.const_string(s, perm::SEND_SMS);
                    m.invoke_virtual(
                        class::CONTEXT,
                        "checkCallingPermission",
                        &[m.this(), s],
                        true,
                    );
                    m.move_result(c);
                }
                Op::Branch(live, body) => {
                    let join = m.new_label();
                    if *live {
                        // An unwritten (or joined) field reads as unknown:
                        // both paths survive.
                        m.iget(c, m.this(), "LDiff;", "f0");
                    } else {
                        m.const_int(c, 0);
                    }
                    m.if_eqz(c, join);
                    emit_ops(m, body, (v, i, s, c), has_intent);
                    m.bind(join);
                }
            }
        }
    }

    fn ensure_intent(
        m: &mut separ::dex::build::MethodBuilder<'_, '_>,
        i: Reg,
        has_intent: &mut bool,
    ) {
        if !*has_intent {
            m.new_instance(i, class::INTENT);
            *has_intent = true;
        }
    }

    {
        let mut m = cb.method("onStartCommand", 3, false, false);
        emit(
            &mut m,
            &spec.entry_ops,
            spec.broken_helper && spec.call_broken,
        );
        m.ret_void();
        m.finish();
    }
    {
        let mut m = cb.method("onCreate", 1, false, false);
        emit(&mut m, &spec.create_ops, false);
        m.ret_void();
        m.finish();
    }
    for (k, body) in spec.helpers.iter().enumerate() {
        let name = format!("h{k}");
        let mut m = cb.method(&name, 2, false, true);
        let v = m.reg();
        let i = m.reg();
        let s = m.reg();
        let c = m.reg();
        m.mov(v, m.param(1));
        let mut has_intent = false;
        emit_ops(&mut m, body, (v, i, s, c), &mut has_intent);
        m.ret(v);
        m.finish();
    }
    // Helpers the strategy didn't generate still exist (Call targets any
    // of the three), as identity functions.
    for k in spec.helpers.len()..N_HELPERS as usize {
        let name = format!("h{k}");
        let mut m = cb.method(&name, 2, false, true);
        m.ret(m.param(1));
        m.finish();
    }
    if spec.broken_helper {
        let mut m = cb.method("broken", 2, false, true);
        m.ret(m.param(1));
        m.finish();
    }
    cb.finish();
    let mut apk = apk.finish();
    if spec.broken_helper {
        // Mangle the method after construction: a move-result with no
        // directly preceding value-returning invoke survives the codec
        // (it is structurally well-formed) but is a verifier Error, so
        // the extractor's lint pre-pass quarantines the scope before
        // analysis.
        let broken = apk.dex.classes[0]
            .methods
            .last_mut()
            .expect("broken helper was just built");
        broken.code = vec![
            Instr::MoveResult { dst: Reg(0) },
            Instr::Return { reg: Reg(0) },
        ];
    }
    apk
}

/// Strips the one field that legitimately differs between the two
/// strategies' extractions of a package: the visit counter.
fn normalized(mut model: AppModel) -> AppModel {
    model.stats.instructions_visited = 0;
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: summary-based extraction is observationally
    /// identical to the per-context reference, and the codec returns the
    /// model extracted from the package's bytes byte-for-byte.
    #[test]
    fn summary_extraction_matches_per_context_reference(spec in app_spec()) {
        let apk = build_app(&spec);
        let summaries = extract_apk_with(&apk, AnalysisOptions::default());
        let reference = extract_apk_with(
            &apk,
            AnalysisOptions {
                strategy: AnalysisStrategy::PerContext,
                ..AnalysisOptions::default()
            },
        );
        prop_assert_eq!(
            normalized(summaries.clone()),
            normalized(reference),
            "strategies diverged on {:?}",
            spec
        );
        if spec.broken_helper {
            prop_assert!(
                summaries.stats.quarantined_methods >= 1,
                "the mangled method must be quarantined: {:?}",
                summaries.stats
            );
        }

        // Codec transparency: decoded == extracted, byte-for-byte.
        let cold = separ::analysis::extract(&codec::encode(&apk)).expect("decodes");
        let entry = cache::encode_entry(&cold);
        let warm = cache::decode_entry(&entry).expect("a valid entry");
        prop_assert_eq!(cache::encode_entry(&warm), entry);
        prop_assert_eq!(normalized(warm), normalized(summaries));
    }
}

/// A fresh, empty store directory for one test.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("separ-store-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store-backed analysis in a fresh process's view of the store.
fn analyze_in(dir: &Path, packages: &[Vec<u8>]) -> Report {
    let store = SessionStore::open(dir).expect("store opens");
    Separ::new()
        .analyze_packages_in(&store, packages)
        .expect("analyzes")
}

/// A store-backed report agrees with a store-less one on every derived
/// artifact: the resolved models, the exploits and the policies.
fn assert_same_analysis(stored: &Report, packages: &[Vec<u8>]) {
    let fresh = Separ::new()
        .analyze_packages(packages)
        .expect("analyzes without a store");
    assert_eq!(stored.apps, fresh.apps);
    assert_eq!(stored.exploits, fresh.exploits);
    assert_eq!(stored.policies, fresh.policies);
}

fn market_packages(total: usize, seed: u64) -> Vec<Vec<u8>> {
    generate(&MarketSpec::scaled(total, seed))
        .iter()
        .map(|a| codec::encode(&a.apk).to_vec())
        .collect()
}

#[test]
fn mutating_one_app_reextracts_only_that_app() {
    let dir = store_dir("mutate");
    let mut packages = market_packages(12, 21);
    let signatures = SignatureRegistry::standard().len();

    let first = analyze_in(&dir, &packages);
    assert_eq!(first.stats.extracted, packages.len());
    assert_eq!(first.stats.synthesized, signatures);

    // Touch exactly one app, one that some slices keep: grant it an
    // extra permission and re-encode.
    let mut mutated = codec::decode(&packages[10]).expect("decodes");
    mutated
        .manifest
        .uses_permissions
        .push("android.permission.CAMERA".to_string());
    packages[10] = codec::encode(&mutated).to_vec();

    // The signatures whose slice the change moved, by the session that
    // keys every re-run.
    let mut session = IncrementalSession::new(
        SignatureRegistry::standard(),
        SeparConfig::default(),
        first.apps.clone(),
    )
    .expect("session starts");
    let moved = session
        .apply_batch(vec![SessionOp::Install(
            separ::analysis::extract(&packages[10]).expect("decodes"),
        )])
        .expect("applies")
        .signatures_rerun;
    assert!(
        0 < moved && moved < signatures,
        "the permission moves some slices, not all: {moved}"
    );

    let second = analyze_in(&dir, &packages);
    assert_eq!(
        second.stats.extracted, 1,
        "only the mutated app re-extracts"
    );
    assert_eq!(
        second.stats.synthesized, moved,
        "only the signatures whose slice moved are synthesized"
    );
    assert_same_analysis(&second, &packages);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_disk_entry_falls_back_at_bundle_level() {
    let dir = store_dir("corrupt");
    let packages = market_packages(4, 9);
    let cold = analyze_in(&dir, &packages);
    assert_eq!(cold.stats.extracted, packages.len());

    // Flip one byte in the middle of the first entry of the pack.
    let pack = std::fs::read_dir(dir.join("packs"))
        .expect("packs dir exists")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "pack"))
        .expect("one pack");
    let mut data = std::fs::read(&pack).expect("readable");
    data[cache::encode_entry(&cold.apps[0]).len() / 2] ^= 0x55;
    std::fs::write(&pack, &data).expect("rewritable");

    // Restore skips exactly that entry; a new process re-extracts that
    // app alone, and reuses every result (its model is the same).
    let restored = SessionStore::open(&dir)
        .expect("store opens")
        .restore()
        .expect("restores");
    assert_eq!(
        (restored.apps.len(), restored.skipped),
        (packages.len() - 1, 1)
    );
    let warm = analyze_in(&dir, &packages);
    assert_eq!(warm.stats.extracted, 1);
    assert_eq!(warm.stats.synthesized, 0);
    assert_same_analysis(&warm, &packages);
    // The store was repaired: the next run extracts nothing.
    assert_eq!(analyze_in(&dir, &packages).stats.extracted, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_persisted_by_a_session_serves_batch_analysis() {
    let dir = store_dir("interop");
    let packages = market_packages(12, 5);
    // The daemon's path: models into a session, the session's results
    // and models into the store, with no package digests.
    let models = packages
        .iter()
        .map(|p| separ::analysis::extract(p).expect("decodes"))
        .collect();
    let session = IncrementalSession::new(
        SignatureRegistry::standard(),
        SeparConfig::default(),
        models,
    )
    .expect("session starts");
    {
        let store = SessionStore::open(&dir).expect("store opens");
        store.persist_results(session.results()).expect("persists");
        store.persist(session.apps()).expect("persists");
    }
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");

    // Rows without digests: every package is extracted, but its model
    // names the same slices, so every result is reused.
    let first = analyze_in(&dir, &packages);
    assert_eq!(
        (first.stats.extracted, first.stats.synthesized),
        (packages.len(), 0)
    );
    assert_same_analysis(&first, &packages);
    // The same pack, now with digests: only the manifest was rewritten.
    let rewritten = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    assert_ne!(rewritten, manifest);
    assert!(rewritten.starts_with(&manifest[..manifest.find(r#","apps""#).expect("apps")]));

    let second = analyze_in(&dir, &packages);
    assert_eq!((second.stats.extracted, second.stats.synthesized), (0, 0));
    assert_same_analysis(&second, &packages);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_models_are_resolved_again_in_each_bundle() {
    // Two apps each start `LResp;` for a result, and each holds an
    // `LResp;` that replies: every reply resolves to every requester in
    // the bundle.
    let app = |package: &str, requester: &str| {
        let apk = result_channel_case(
            package,
            requester,
            "LResp;",
            IccMethod::StartActivityForResult,
            Resource::DeviceId,
            Resource::Sms,
            "k",
        );
        codec::encode(&apk).to_vec()
    };
    let (a, b) = (app("com.a", "LReqA;"), app("com.b", "LReqB;"));
    let reply_targets = |report: &Report| -> Vec<String> {
        let passive = report.apps[0]
            .components
            .iter()
            .flat_map(|c| &c.sent_intents)
            .find(|i| i.is_passive)
            .expect("a passive reply");
        passive.resolved_targets.iter().cloned().collect()
    };
    let dir = store_dir("resolution");
    // `com.a`'s stored model was resolved against the bundle before: the
    // next bundle takes it from the store and must resolve it afresh.
    let both = vec![a.clone(), b.clone()];
    let runs = [
        (both.clone(), vec!["LReqA;", "LReqB;"], 2),
        (vec![a.clone()], vec!["LReqA;"], 0),
        (both, vec!["LReqA;", "LReqB;"], 1),
    ];
    for (bundle, targets, extracted) in runs {
        let report = analyze_in(&dir, &bundle);
        assert_eq!(report.stats.extracted, extracted);
        assert_eq!(reply_targets(&report), targets);
        assert_same_analysis(&report, &bundle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// SHA-256 over the content addresses of the models extracted from the
/// `scaled(total, seed)` markets, in market order, and the instructions
/// the interpreter visited. Each package goes through its encoded bytes,
/// so decoding is covered too.
fn extraction_digest(total: usize, seeds: &[u64]) -> (String, u64) {
    let mut addresses = Vec::new();
    let mut visited = 0;
    for &seed in seeds {
        for app in generate(&MarketSpec::scaled(total, seed)) {
            let model = separ::analysis::extract(&codec::encode(&app.apk)).expect("decodes");
            visited += model.stats.instructions_visited;
            addresses.extend_from_slice(&cache::model_address(&model));
        }
    }
    let digest = cache::sha256(&addresses)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    (digest, visited)
}

/// Every extracted model, byte for byte, is pinned: a change to any
/// constant, intent, flow, diagnostic or counter of any app moves the
/// digest. Recorded before the interpreter's values became inline sets.
#[test]
fn extraction_digest_is_pinned() {
    assert_eq!(
        extraction_digest(150, &[1, 7]),
        (
            "64bf15905a7a7dcfc7b7f965aa2d3c174b90649cf9eee4e2da061815c0aa661a".to_string(),
            242_043
        )
    );
}

/// The same pin over 1,000-app markets (a release-mode CI step).
#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn extraction_digest_is_pinned_at_scale() {
    assert_eq!(
        extraction_digest(1000, &[1, 7]),
        (
            "7313c63cd8b680101c42d9670691003aacee5a3f97ed9eaaa41a031c22ce22a1".to_string(),
            1_588_315
        )
    );
}

/// An app whose abstract values outgrow the interpreter's inline sets
/// (`SET_CAP`, 8 elements), which the seeded markets never do:
///
/// * a loop collects ten action constants into one register, one per
///   conditional reassignment in its body, and the register becomes a
///   sent intent's action: the ninth constant overflows the set, which
///   widens to empty and "unknown", and the reassignments after it and
///   the back edge refill it;
/// * a `BinOp` adds two three-valued registers (nine sums, none zero):
///   widening makes the sum unknown, so the branch it guards stays live
///   and the intent sent behind it is extracted.
fn widening_app() -> Apk {
    let mut apk = ApkBuilder::new("com.widen.app");
    apk.add_component(ComponentDecl::new("LWiden;", ComponentKind::Service));
    let mut cb = apk.class_extends("LWiden;", class::SERVICE);
    // Never written: every read is an unknown value, so both paths of
    // a branch on it stay live.
    cb.field("f", false);
    let mut m = cb.method("onStartCommand", 3, false, false);
    let (action, intent, cond, x, y, sum) = (m.reg(), m.reg(), m.reg(), m.reg(), m.reg(), m.reg());
    // Registers that may hold any of `values`.
    let choose = |m: &mut separ::dex::build::MethodBuilder<'_, '_>, dst: Reg, values: &[i64]| {
        m.const_int(dst, values[0]);
        for &v in &values[1..] {
            let keep = m.new_label();
            m.iget(cond, m.this(), "LWiden;", "f");
            m.if_eqz(cond, keep);
            m.const_int(dst, v);
            m.bind(keep);
        }
    };
    m.new_instance(intent, class::INTENT);
    m.const_string(action, "widen.A0");
    let head = m.new_label();
    m.bind(head);
    for k in 1..10 {
        let keep = m.new_label();
        m.iget(cond, m.this(), "LWiden;", "f");
        m.if_eqz(cond, keep);
        m.const_string(action, &format!("widen.A{k}"));
        m.bind(keep);
    }
    m.iget(cond, m.this(), "LWiden;", "f");
    m.if_nez(cond, head);
    m.invoke_virtual(class::INTENT, "setAction", &[intent, action], false);
    m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), intent], false);
    choose(&mut m, x, &[1, 2, 3]);
    choose(&mut m, y, &[10, 20, 30]);
    m.binop(BinOp::Add, sum, x, y);
    let zero = m.new_label();
    let done = m.new_label();
    m.if_eqz(sum, zero);
    m.goto(done);
    m.bind(zero);
    m.new_instance(intent, class::INTENT);
    m.const_string(action, "widen.B");
    m.invoke_virtual(class::INTENT, "setAction", &[intent, action], false);
    m.invoke_virtual(class::CONTEXT, "startActivity", &[m.this(), intent], false);
    m.bind(done);
    m.ret_void();
    m.finish();
    cb.finish();
    apk.finish()
}

/// The widening path, pinned end to end: the actions the loop's intent
/// ends up with (the two constants the overflow dropped are missing),
/// the intent behind the sum's live branch, and the whole model byte
/// for byte. A set that kept its first eight elements instead of
/// overflowing would send `widen.A0`..`widen.A7` and prove the sum
/// nonzero.
#[test]
fn widening_is_pinned() {
    let model = separ::analysis::extract(&codec::encode(&widening_app())).expect("decodes");
    let sent: Vec<(String, Option<String>)> = model.components[0]
        .sent_intents
        .iter()
        .map(|i| (format!("{:?}", i.via), i.action.clone()))
        .collect();
    let mut expected: Vec<(String, Option<String>)> = [0, 3, 4, 5, 6, 7, 8, 9]
        .map(|k| ("StartService".to_string(), Some(format!("widen.A{k}"))))
        .into();
    expected.push(("StartActivity".into(), Some("widen.B".into())));
    assert_eq!(sent, expected);
    let address: String = cache::model_address(&model)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        (address.as_str(), model.stats.instructions_visited),
        (
            "3bb45a3b8c8d3a6e8dfcef1edf9474215fb0612a7a166f242b10b7aae11394ba",
            360
        )
    );
}

/// A model's content address is a function of the package: extracting
/// the same bytes twice files the model under one address.
#[test]
fn extracting_twice_gives_one_address() {
    for app in generate(&MarketSpec::scaled(6, 3)) {
        let bytes = codec::encode(&app.apk);
        let first = separ::analysis::extract(&bytes).expect("decodes");
        let second = separ::analysis::extract(&bytes).expect("decodes");
        assert_eq!(cache::encode_entry(&first), cache::encode_entry(&second));
        assert_eq!(cache::model_address(&first), cache::model_address(&second));
    }
}
