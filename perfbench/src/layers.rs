//! The traced run: replays a workload's bundle one public entry point at
//! a time and times each call from outside the program.
//!
//! Every traced run measures every layer, in four sections:
//!
//! 1. pipeline stages on the workload's bundle — `codec::decode`,
//!    `extract_apk`, `update_passive_intent_targets`,
//!    `slicing::summarize_bundle`, `Separ::analyze_models`, plus the
//!    report's solver counts;
//! 2. churn on the workload's bundle — the cycle through the daemon
//!    (per-kind confirmation and install-to-protected latency) and the
//!    same cycle on an `IncrementalSession` + `SessionStore` +
//!    `SharedPdp`, the daemon worker's three steps;
//! 3. decisions — `Request::parse`, `PdpReader::evaluate` and
//!    `Daemon::handle` on the probe traffic of the churned daemon;
//! 4. device — a phone-size device (`DEVICE_APPS` market apps, the
//!    motivating GPS→SMS trio and a ping app) with SEPAR's policies for
//!    its bundle: `Device::launch` and `Device::run_until_idle` with hooks
//!    on and off, and `resolution::filter_matches` over every installed
//!    filter.
//!
//! Sections 3 and 4 time single calls in hot loops, so their timed
//! passes alternate with untimed ones; the difference is reported as
//! tracing overhead.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use separ_analysis::model::{update_passive_intent_targets, AppModel};
use separ_analysis::{extract_apk, slicing};
use separ_android::resolution::{filter_matches, IntentData};
use separ_android::types::Resource;
use separ_core::policy::{merge_delta, Policy};
use separ_core::{
    policy_io, Executor, IncrementalSession, Separ, SeparConfig, SessionOp, SignatureRegistry,
    VulnKind,
};
use separ_corpus::motivating;
use separ_dex::codec;
use separ_dex::program::Apk;
use separ_enforce::{CompiledPolicySet, Device, PromptHandler, SharedPdp};
use separ_serve::{Daemon, Request, SessionStore};

use crate::churn::{self, of_kinds, Cycle, Kind, KINDS, TOGGLED_PERMISSION};
use crate::decide::{published, reference, reply_is, Traffic};
use crate::harness::{
    boot_daemon, fresh_app, ping_app, seed_store, Bundle, Metrics, Tally, WorkDir, PING_ACTION,
    PING_APP,
};
use crate::stats::{median, ms, us};
use crate::{Config, LayerInput};

/// Decision sweeps over the probe traffic per pass.
const DECIDE_SWEEPS: usize = 200;
/// Untimed and timed churn cycles through the daemon.
const DAEMON_CYCLES: (usize, usize) = (1, 2);
/// Market apps on the device: phone size.
pub const DEVICE_APPS: usize = 200;
/// Implicit ICCs per ping launch.
pub const BURST: usize = 100;
/// Timed samples (ping launches) per device pass; about 1 ms each.
const DEVICE_SAMPLES: usize = 200;

/// Time spent with per-call timers and without, over the hot-loop
/// sections.
#[derive(Debug, Default)]
struct Overhead {
    timed: Duration,
    bare: Duration,
}

/// Runs all four sections, returning the per-layer metrics.
///
/// # Errors
///
/// Fails if a package does not decode, the daemon cannot boot or a
/// bundle analysis fails.
pub fn run(input: LayerInput, cfg: &Config, tally: &mut Tally) -> Result<Metrics, String> {
    let mut metrics = Metrics::default();
    let mut overhead = Overhead::default();
    let packages = input
        .packages
        .unwrap_or_else(|| Bundle::market(cfg.apps, cfg.seed).packages);
    let models = pipeline(&packages, &mut metrics)?;
    drop(packages);
    let work = WorkDir::new("layers").map_err(|e| e.to_string())?;
    let (daemon, _store) = match input.daemon {
        Some(d) => d,
        None => {
            let store = WorkDir::new("layers-daemon").map_err(|e| e.to_string())?;
            seed_store(&store.join("store"), &models)?;
            (boot_daemon(&store.join("store"))?.0, store)
        }
    };
    let live = churn_steps(&daemon, &work, &models, cfg.seed, tally, &mut metrics)?;
    decisions(&daemon, live, tally, &mut metrics, &mut overhead)?;
    drop(daemon);
    device(cfg.seed, tally, &mut metrics, &mut overhead)?;
    let bare = overhead.bare.as_secs_f64();
    metrics.put(
        "tracing_overhead_pct",
        100.0 * (overhead.timed.as_secs_f64() - bare) / bare,
        "%",
    );
    Ok(metrics)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Section 1: the analysis pipeline, stage by stage. Returns the
/// extracted models (before passive resolution).
fn pipeline(packages: &[Vec<u8>], metrics: &mut Metrics) -> Result<Vec<AppModel>, String> {
    let exec = Executor::new(0);
    let (decoded, t_decode) = timed(|| exec.try_ordered_map(packages, |b| codec::decode(b)));
    let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
    let (models, t_extract) = timed(|| exec.ordered_map(&decoded, extract_apk));
    drop(decoded);
    let mut resolved = models.clone();
    let ((), t_passive) = timed(|| update_passive_intent_targets(&mut resolved));
    let (summaries, t_summarize) = timed(|| slicing::summarize_bundle(&resolved));
    drop((resolved, summaries));
    let input_models = models.clone();
    let (report, t_analyze) = timed(|| Separ::new().analyze_models(input_models));
    let report = report.map_err(|e| format!("analyze_models: {e}"))?;
    let n = packages.len().max(1) as f64;
    metrics.put("dex.decode_ms", ms(t_decode), "ms");
    metrics.put("analysis.extract_ms", ms(t_extract), "ms");
    metrics.put("analysis.extract_us_per_app", us(t_extract) / n, "us");
    metrics.put("analysis.passive_resolution_ms", ms(t_passive), "ms");
    metrics.put("analysis.summarize_ms", ms(t_summarize), "ms");
    metrics.put("core.analyze_models_ms", ms(t_analyze), "ms");
    let s = &report.stats;
    metrics.put("logic.primary_vars", s.primary_vars as f64, "count");
    metrics.put("logic.cnf_clauses", s.cnf_clauses as f64, "count");
    metrics.put("logic.conflicts", s.conflicts as f64, "count");
    metrics.put("logic.propagations", s.propagations as f64, "count");
    metrics.put("analysis.slice_kept", s.slice_kept as f64, "count");
    metrics.put("core.exploits", report.exploits.len() as f64, "count");
    metrics.put("core.policies", report.policies.len() as f64, "count");
    Ok(models)
}

/// One churn op replayed on the daemon worker's three steps.
#[derive(Debug)]
struct Step {
    kind: Kind,
    batch: Duration,
    pdp_swap: Duration,
    persist: Duration,
    rerun: usize,
    delta_policies: usize,
}

/// Exploit descriptions grouped by vulnerability kind.
fn exploits_by_kind(session: &IncrementalSession) -> BTreeMap<VulnKind, BTreeSet<String>> {
    let mut out: BTreeMap<VulnKind, BTreeSet<String>> = BTreeMap::new();
    for e in session.exploits() {
        out.entry(e.kind()).or_default().insert(e.to_string());
    }
    out
}

/// Section 2: `DAEMON_CYCLES` through the daemon, then a warm-up and a
/// timed cycle on the daemon worker's three steps, called directly.
/// Returns the policy set the daemon's live PDP holds afterwards: its
/// set at boot with every op's delta merged in (`merge_delta` gives
/// re-added policies fresh ids).
fn churn_steps(
    daemon: &Daemon,
    work: &WorkDir,
    models: &[AppModel],
    seed: u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<Vec<Policy>, String> {
    let (mut live, _) = published(daemon)?;
    let cycle = Cycle::new(models, seed)?;
    let served = churn::replay(daemon, &cycle, DAEMON_CYCLES.0, DAEMON_CYCLES.1, tally);
    for (name, kind) in [
        ("serve.install_p50_ms", Kind::Install),
        ("serve.uninstall_p50_ms", Kind::Uninstall),
        ("serve.permission_p50_ms", Kind::Permission),
    ] {
        let confirm: Vec<f64> = of_kinds(&served.confirm, &[kind])
            .into_iter()
            .map(ms)
            .collect();
        metrics.put(name, median(&confirm), "ms");
    }
    let protect: Vec<f64> = of_kinds(&served.protect, &[Kind::Install])
        .into_iter()
        .map(ms)
        .collect();
    metrics.put("serve.protect_p50_ms", median(&protect), "ms");

    let fresh = extract_apk(&fresh_app(seed));
    let perm = |granted| SessionOp::SetPermission {
        package: cycle.toggled_package.clone(),
        permission: TOGGLED_PERMISSION.to_string(),
        granted,
    };
    let ops = [
        SessionOp::Install(fresh),
        perm(true),
        perm(false),
        SessionOp::Uninstall(cycle.fresh_package.clone()),
    ];
    let mut session = IncrementalSession::new(
        SignatureRegistry::standard(),
        SeparConfig::default(),
        models.to_vec(),
    )
    .map_err(|e| format!("session: {e}"))?;
    let store_dir = work.join("replay");
    let store = SessionStore::open(&store_dir).map_err(|e| format!("store: {e}"))?;
    store
        .persist(session.apps())
        .map_err(|e| format!("store: {e}"))?;
    let packages = session.apps().iter().map(|a| a.package.clone()).collect();
    let pdp = SharedPdp::new(CompiledPolicySet::compile(
        session.policies().to_vec(),
        packages,
    ));
    let baseline = policy_io::to_json(session.policies());

    // The second of two cycles is timed; the first one's deltas are
    // those of every daemon cycle, which starts from the same state.
    let mut steps = Vec::with_capacity(ops.len());
    let mut cycle_deltas = Vec::with_capacity(ops.len());
    let mut exploit_sets_changed = 0usize;
    for c in 0..2 {
        for (op, kind) in ops.iter().zip(KINDS) {
            let before = exploits_by_kind(&session);
            let (delta, batch) = timed(|| session.apply_batch(vec![op.clone()]));
            let Ok(delta) = delta else {
                tally.op(false, || format!("replay {kind:?}: apply_batch failed"));
                continue;
            };
            tally.op(true, String::new);
            let after = exploits_by_kind(&session);
            if c == 0 {
                cycle_deltas.push((delta.added.clone(), delta.removed.clone()));
            }
            let ((), pdp_swap) = timed(|| pdp.apply_delta(delta.added.clone(), &delta.removed));
            let (persisted, persist) = timed(|| store.persist(session.apps()));
            tally.op(persisted.is_ok(), || {
                format!("replay {kind:?}: persist failed")
            });
            if c == 1 {
                let kinds: BTreeSet<&VulnKind> = before.keys().chain(after.keys()).collect();
                exploit_sets_changed += kinds
                    .iter()
                    .filter(|k| before.get(k) != after.get(k))
                    .count();
                steps.push(Step {
                    kind,
                    batch,
                    pdp_swap,
                    persist,
                    rerun: delta.signatures_rerun,
                    delta_policies: delta.added.len() + delta.removed.len(),
                });
            }
        }
        let now = policy_io::to_json(session.policies());
        tally.op(now == baseline, || {
            format!("replay cycle {c}: policies changed")
        });
    }
    let of = |kind: Kind| steps.iter().filter(move |s| s.kind == kind);
    for (name, kind) in [
        ("core.apply_batch_ms.install", Kind::Install),
        ("core.apply_batch_ms.uninstall", Kind::Uninstall),
        ("core.apply_batch_ms.permission", Kind::Permission),
    ] {
        let batch: Vec<f64> = of(kind).map(|s| ms(s.batch)).collect();
        metrics.put(name, median(&batch), "ms");
    }
    for (name, kind) in [
        ("core.signatures_rerun.install", Kind::Install),
        ("core.signatures_rerun.permission", Kind::Permission),
    ] {
        let rerun = of(kind).map(|s| s.rerun).max().unwrap_or(0);
        metrics.put(name, rerun as f64, "count");
    }
    let rerun: usize = steps.iter().map(|s| s.rerun).sum();
    metrics.put(
        "core.rerun_useful_ratio",
        exploit_sets_changed as f64 / rerun.max(1) as f64,
        "ratio",
    );
    let delta_policies: usize = steps.iter().map(|s| s.delta_policies).sum();
    metrics.put(
        "core.delta_policies",
        delta_policies as f64 / steps.len().max(1) as f64,
        "count",
    );
    let pdp_us: Vec<f64> = steps.iter().map(|s| us(s.pdp_swap)).collect();
    metrics.put("enforce.pdp_apply_delta_us", median(&pdp_us), "us");
    let persist: Vec<f64> = steps.iter().map(|s| ms(s.persist)).collect();
    metrics.put("serve.persist_ms", median(&persist), "ms");
    // The daemon's confirmation latency beyond the three steps: queueing,
    // hex decoding, extracting the new package, the snapshot.
    let residual: Vec<f64> = served
        .confirm
        .iter()
        .zip(&steps)
        .map(|(total, s)| ms(*total) - ms(s.batch + s.pdp_swap + s.persist))
        .collect();
    metrics.put("serve.handle_residual_ms", median(&residual), "ms");
    for _ in 0..DAEMON_CYCLES.0 + DAEMON_CYCLES.1 {
        for (added, removed) in &cycle_deltas {
            merge_delta(&mut live, added.clone(), removed);
        }
    }
    Ok(live)
}

/// Section 3: the decision path on the churned daemon, split into
/// parse, evaluate and the rest of `handle`. Answers are checked
/// strictly against `live`, the set the daemon's PDP holds; answers that
/// name another policy than `query policies` would are counted apart.
fn decisions(
    daemon: &Daemon,
    live: Vec<Policy>,
    tally: &mut Tally,
    metrics: &mut Metrics,
    overhead: &mut Overhead,
) -> Result<(), String> {
    let (listed, packages) = published(daemon)?;
    let traffic = Traffic::new(live, packages);
    let listed = reference(&listed, &traffic.packages, &traffic.contexts);
    let pdp = SharedPdp::new(CompiledPolicySet::compile(
        traffic.policies.clone(),
        traffic.packages.clone(),
    ));
    let mut reader = pdp.reader();
    let mut prompt = PromptHandler::AlwaysDeny;
    let n = traffic.lines.len();
    let (mut parse, mut evaluate, mut handle) = (
        Vec::with_capacity(n * DECIDE_SWEEPS),
        Vec::with_capacity(n * DECIDE_SWEEPS),
        Vec::with_capacity(n * DECIDE_SWEEPS),
    );
    let mut id_mismatches = 0usize;
    // Timed and bare sweeps alternate, so drift in the daemon cannot
    // pass for tracing overhead.
    for sweep in 0..2 * DECIDE_SWEEPS {
        let started = Instant::now();
        if sweep % 2 == 1 {
            for (line, (event, ctx)) in traffic.lines.iter().zip(&traffic.contexts) {
                black_box(Request::parse(black_box(line)).is_ok());
                black_box(reader.evaluate(*event, ctx, &mut prompt));
                black_box(daemon.handle(line));
            }
            overhead.bare += started.elapsed();
            continue;
        }
        for (i, (line, (event, ctx))) in traffic.lines.iter().zip(&traffic.contexts).enumerate() {
            let t0 = Instant::now();
            let parsed = Request::parse(line);
            let t1 = Instant::now();
            let decision = reader.evaluate(*event, ctx, &mut prompt);
            let t2 = Instant::now();
            let reply = daemon.handle(line);
            let t3 = Instant::now();
            parse.push((t1 - t0).as_nanos() as f64);
            evaluate.push((t2 - t1).as_nanos() as f64);
            handle.push((t3 - t2).as_nanos() as f64);
            // Answers are a function of the policy set, so the first
            // sweep checks them all and later sweeps only add timers.
            if sweep > 0 {
                continue;
            }
            let expected = traffic.expected[i];
            let evaluated = (decision.label(), decision.policy_id());
            tally.op(
                parsed.is_ok() && evaluated == expected && traffic.matches(i, &reply),
                || format!("decide probe {i}: evaluate {evaluated:?}, handle {reply}"),
            );
            let (label, id) = listed[i];
            if !reply_is(&reply, label, id) {
                id_mismatches += 1;
            }
        }
        overhead.timed += started.elapsed();
    }
    let (p, e, h) = (median(&parse), median(&evaluate), median(&handle));
    metrics.put("serve.parse_us", p / 1e3, "us");
    metrics.put("enforce.evaluate_ns", e, "ns");
    metrics.put("serve.handle_residual_us", (h - p - e) / 1e3, "us");
    metrics.put(
        "enforce.non_allow_ratio",
        traffic.non_allow_ratio(),
        "ratio",
    );
    metrics.put(
        "serve.policy_id_mismatch_ratio",
        id_mismatches as f64 / n.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// The device bundle: what SEPAR analyzes (an `apps`-app market,
/// navigator, messenger, ping app) and what is installed on top (the
/// malicious app).
pub fn device_bundle(apps: usize, seed: u64) -> (Bundle, Vec<Apk>) {
    let mut apks: Vec<Apk> = Bundle::market(apps, seed).apks;
    apks.push(motivating::navigator_app());
    apks.push(motivating::messenger_app(false));
    apks.push(ping_app(BURST));
    (
        Bundle::from_apks(apks),
        vec![motivating::malicious_app("+15550000")],
    )
}

/// Boots a device over `analyzed` plus `extra` with `policies` installed
/// and hooks on (prompts answered "deny").
pub fn boot_device(analyzed: &Bundle, extra: &[Apk], policies: &[Policy]) -> Device {
    let mut apks = analyzed.apks.clone();
    apks.extend(extra.iter().cloned());
    let mut device = Device::new(apks);
    device.install_policies(
        policies.to_vec(),
        analyzed.package_names(),
        PromptHandler::AlwaysDeny,
    );
    device
}

/// Section 4: the device path with hooks on and off, and the intent
/// filter scan that resolution performs per ICC.
fn device(
    seed: u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
    overhead: &mut Overhead,
) -> Result<(), String> {
    let (bundle, extra) = device_bundle(DEVICE_APPS, seed);
    let policies = Separ::new()
        .analyze_apks(&bundle.apks)
        .map_err(|e| format!("device bundle analysis: {e}"))?
        .policies;

    let mut on = boot_device(&bundle, &extra, &policies);
    let (mut launch, mut deliver, mut both) = (Vec::new(), Vec::new(), Vec::new());
    // After a warm-up, timed and bare samples alternate, so the device's
    // growing audit log cannot pass for tracing overhead.
    let (samples, warmup) = (DEVICE_SAMPLES, DEVICE_SAMPLES / 10);
    for s in 0..warmup + 2 * samples {
        if s >= warmup && (s - warmup) % 2 == 1 {
            let t0 = Instant::now();
            let launched = on.launch(PING_APP.0, PING_APP.1);
            let n = on.run_until_idle();
            overhead.bare += t0.elapsed();
            tally.op(launched && n == BURST, || {
                format!("device sample {s}: delivered {n}")
            });
            continue;
        }
        let t0 = Instant::now();
        let launched = on.launch(PING_APP.0, PING_APP.1);
        let t1 = Instant::now();
        let n = on.run_until_idle();
        let t2 = Instant::now();
        tally.op(launched && n == BURST, || {
            format!("device sample {s}: delivered {n}")
        });
        if s >= warmup {
            launch.push(us(t1 - t0) / BURST as f64);
            deliver.push(us(t2 - t1) / BURST as f64);
            both.push(us(t2 - t0) / BURST as f64);
            overhead.timed += t2 - t0;
        }
    }
    on.launch("com.navigator", motivating::LOCATION_FINDER);
    on.run_until_idle();
    let leaked = on.audit.leaked(Resource::Location, Resource::Sms);
    tally.op(!leaked, || {
        "device: Location leaked to SMS with hooks on".into()
    });
    let audit_events = on.audit.events().len();
    drop(on);

    let mut off = boot_device(&bundle, &extra, &policies);
    off.set_enforcement(false);
    let mut unhooked = Vec::new();
    for s in 0..warmup + samples {
        let t0 = Instant::now();
        off.launch(PING_APP.0, PING_APP.1);
        let n = off.run_until_idle();
        let took = t0.elapsed();
        tally.op(n == BURST, || {
            format!("hooks-off sample {s}: delivered {n}")
        });
        if s >= warmup {
            unhooked.push(us(took) / BURST as f64);
        }
    }
    drop(off);

    let filters: Vec<_> = bundle
        .apks
        .iter()
        .chain(&extra)
        .flat_map(|a| &a.manifest.components)
        .flat_map(|c| &c.intent_filters)
        .collect();
    let intent = IntentData::for_action(PING_ACTION).with_extra("k", "k");
    let mut scans = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let hits = filters
            .iter()
            .filter(|f| filter_matches(black_box(&intent), f))
            .count();
        scans.push(us(t.elapsed()));
        tally.op(hits >= 1, || {
            "filter scan: the ping filter did not match".into()
        });
    }

    let (hooked, bare) = (median(&both), median(&unhooked));
    metrics.put("enforce.launch_us_per_icc", median(&launch), "us");
    metrics.put("enforce.deliver_us_per_icc", median(&deliver), "us");
    metrics.put("android.filter_match_us_per_icc", median(&scans), "us");
    metrics.put("enforce.hooks_off_us_per_icc", bare, "us");
    metrics.put(
        "enforce.hook_overhead_pct",
        100.0 * (hooked - bare) / bare,
        "%",
    );
    metrics.put("enforce.audit_events", audit_events as f64, "count");
    Ok(())
}
