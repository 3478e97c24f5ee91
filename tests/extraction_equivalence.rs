//! Differential proof harness for the summary-based extractor.
//!
//! The rewrite of the abstract interpreter around validated per-method
//! summaries ships inside this harness: on randomized apps — with fields,
//! abstract intents, live and dead branches, helper chains, direct and
//! mutual recursion, and verifier-quarantined methods — the summary
//! strategy must extract *exactly* the model the retained per-context
//! reference does, and the content-hash model cache must be transparent:
//! a warm hit is byte-for-byte the cold extraction.

use std::sync::Arc;

use proptest::prelude::*;
use separ::analysis::absint::{AnalysisOptions, AnalysisStrategy};
use separ::analysis::cache::{self, CacheOutcome, ModelCache};
use separ::analysis::extractor::extract_apk_with;
use separ::analysis::AppModel;
use separ::android::api::class;
use separ::android::types::perm;
use separ::core::Separ;
use separ::corpus::market::{generate, MarketSpec};
use separ::dex::build::ApkBuilder;
use separ::dex::codec;
use separ::dex::instr::{Instr, Reg};
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
    /// identical to the per-context reference, and a cache hit returns
    /// the cold model byte-for-byte.
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

        // Cache transparency: hit == cold, byte-for-byte.
        let bytes = codec::encode(&apk);
        let model_cache = ModelCache::new();
        let (cold, first) = model_cache.get_or_extract(&bytes).expect("decodes");
        let (warm, second) = model_cache.get_or_extract(&bytes).expect("decodes");
        prop_assert_eq!(first, CacheOutcome::Miss);
        prop_assert_eq!(second, CacheOutcome::MemoryHit);
        prop_assert_eq!(cache::encode_entry(&cold), cache::encode_entry(&warm));
        prop_assert_eq!(normalized((*cold).clone()), normalized(summaries));
    }
}

/// Policy identity modulo id (ids are presentation, not identity).
fn policy_fingerprint(policies: &[separ::core::Policy]) -> Vec<String> {
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

#[test]
fn mutating_one_app_reextracts_only_that_app() {
    let market = generate(&MarketSpec::scaled(8, 21));
    let mut packages: Vec<Vec<u8>> = market
        .iter()
        .map(|a| codec::encode(&a.apk).to_vec())
        .collect();
    let model_cache = Arc::new(ModelCache::new());
    let separ = Separ::new().with_model_cache(model_cache.clone());

    let first = separ.analyze_packages(&packages).expect("analyzes");
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(first.stats.cache_misses, packages.len());

    // Touch exactly one app: grant it an extra permission and re-encode.
    let mut mutated = codec::decode(&packages[3]).expect("decodes");
    mutated
        .manifest
        .uses_permissions
        .push("android.permission.CAMERA".to_string());
    packages[3] = codec::encode(&mutated).to_vec();

    let second = separ.analyze_packages(&packages).expect("analyzes");
    assert_eq!(
        second.stats.cache_hits,
        packages.len() - 1,
        "every untouched app must be served from the cache"
    );
    assert_eq!(
        second.stats.cache_misses, 1,
        "only the mutated app re-extracts"
    );
    let stats = model_cache.stats();
    assert_eq!(stats.memory_hits as usize, packages.len() - 1);
    assert_eq!(stats.misses as usize, packages.len() + 1);
}

#[test]
fn corrupted_disk_entry_falls_back_at_bundle_level() {
    let dir = std::env::temp_dir().join(format!("separ-bundle-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let market = generate(&MarketSpec::scaled(4, 9));
    let packages: Vec<Vec<u8>> = market
        .iter()
        .map(|a| codec::encode(&a.apk).to_vec())
        .collect();

    // Populate the file-backed store, then drop the process-local cache.
    let cold = Separ::new()
        .with_model_cache(Arc::new(ModelCache::with_dir(&dir)))
        .analyze_packages(&packages)
        .expect("analyzes");
    assert_eq!(cold.stats.cache_misses, packages.len());

    // Corrupt one stored entry mid-payload.
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), packages.len());
    let victim = &entries[0];
    let mut data = std::fs::read(victim).expect("readable");
    let mid = data.len() / 2;
    data[mid] ^= 0x55;
    std::fs::write(victim, &data).expect("rewritable");

    // A fresh cache over the same directory — a new process — detects
    // the corruption, re-extracts that app, and serves the rest from
    // disk; the report is unchanged.
    let model_cache = Arc::new(ModelCache::with_dir(&dir));
    let warm = Separ::new()
        .with_model_cache(model_cache.clone())
        .analyze_packages(&packages)
        .expect("analyzes despite corruption");
    assert_eq!(warm.stats.cache_hits, packages.len() - 1);
    assert_eq!(warm.stats.cache_misses, 1);
    let stats = model_cache.stats();
    assert_eq!(stats.corrupt, 1);
    assert_eq!(stats.disk_hits as usize, packages.len() - 1);

    // Cached and uncached analyses agree on every derived artifact.
    let fresh = Separ::new()
        .analyze_packages(&packages)
        .expect("analyzes uncached");
    assert_eq!(
        policy_fingerprint(&warm.policies),
        policy_fingerprint(&fresh.policies)
    );
    let debug_sorted = |r: &separ::core::Report| {
        let mut v: Vec<String> = r.exploits.iter().map(|e| format!("{e:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(debug_sorted(&warm), debug_sorted(&fresh));
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
