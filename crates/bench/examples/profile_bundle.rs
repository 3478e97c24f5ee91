//! Phase-level profiling of one bundle analysis, emitting both a
//! human-readable summary and a machine-readable `BENCH_pipeline.json`
//! for before/after comparisons.
//!
//! Two full pipeline runs are profiled over the same generated market:
//! the unsliced reference path (`Separ::analyze_models_unsliced`, every
//! signature against the shared per-bundle translation base) and the
//! default pipeline with signature-guided relevance slicing on top. A
//! paper-scale section re-runs synthesis at 4,000 apps both ways and
//! asserts the sliced universe is strictly smaller for every signature
//! while enumerating the same number of exploits.
//! All timing comes from the separ-obs span tree — the per-stage fields
//! of [`separ_core::BundleStats`] are span-derived projections, and the
//! per-phase breakdown is the trace's own span rollup; this example adds
//! no `Instant` re-timing of its own. The run also measures what the
//! *disabled* probes cost (the default configuration ships with the
//! collector off) and records that overhead, which must stay under 2%
//! of the workload wall time.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use separ_analysis::extractor::extract_apk;
use separ_core::{BundleStats, Executor, Report, Separ, SessionStore};
use separ_dex::program::Apk;
use separ_obs::Trace;

/// One profiled pipeline configuration: name, span-derived wall time,
/// the stats projection, exploit count, and the run's trace snapshot.
struct RunResult {
    name: String,
    wall: Duration,
    stats: BundleStats,
    exploits: usize,
    trace: Trace,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// [`Separ::analyze_apks`], or with `unsliced` the same spans and
/// extraction stats around the unsliced reference synthesis.
fn analyze(apks: &[Apk], unsliced: bool) -> Report {
    let separ = Separ::new();
    if !unsliced {
        return separ.analyze_apks(apks).expect("well-typed signatures");
    }
    let obs = separ_obs::global();
    let _root = obs.span("pipeline.analyze");
    let extraction = obs.span("pipeline.extraction");
    let extraction_id = extraction.id();
    let models = Executor::new(0).ordered_map(apks, extract_apk);
    drop(extraction);
    let mut report = separ
        .analyze_models_unsliced(models)
        .expect("well-typed signatures");
    report.stats.extraction_wall = obs.duration(extraction_id);
    report.stats.extraction_cpu = obs.subtree_sum(extraction_id, "ame.extract");
    report
}

fn run_json(out: &mut String, run: &RunResult) {
    let stats = &run.stats;
    let _ = write!(
        out,
        concat!(
            "    {{\n",
            "      \"config\": \"{}\",\n",
            "      \"wall_ms\": {:.3},\n",
            "      \"extraction_wall_ms\": {:.3},\n",
            "      \"extraction_cpu_ms\": {:.3},\n",
            "      \"resolution_ms\": {:.3},\n",
            "      \"synthesis_wall_ms\": {:.3},\n",
            "      \"construction_cpu_ms\": {:.3},\n",
            "      \"solving_cpu_ms\": {:.3},\n",
            "      \"primary_vars\": {},\n",
            "      \"cnf_clauses\": {},\n",
            "      \"shared_base_reuse\": {},\n",
            "      \"slice_kept\": {},\n",
            "      \"slice_dropped\": {},\n",
            "      \"conflicts\": {},\n",
            "      \"propagations\": {},\n",
            "      \"exploits\": {},\n",
            "      \"phases\": [\n"
        ),
        run.name,
        ms(run.wall),
        ms(stats.extraction_wall),
        ms(stats.extraction_cpu),
        ms(stats.resolution),
        ms(stats.synthesis_wall),
        ms(stats.construction),
        ms(stats.solving),
        stats.primary_vars,
        stats.cnf_clauses,
        stats.shared_base_reuse,
        stats.slice_kept,
        stats.slice_dropped,
        stats.conflicts,
        stats.propagations,
        run.exploits,
    );
    // Per-phase breakdown straight from the span tree.
    let rollup = run.trace.span_rollup();
    for (i, r) in rollup.iter().enumerate() {
        let _ = write!(
            out,
            concat!(
                "        {{\"span\": \"{}\", \"count\": {}, ",
                "\"total_ms\": {:.3}, \"self_ms\": {:.3}}}{}\n"
            ),
            r.name,
            r.count,
            ns_ms(r.total_ns),
            ns_ms(r.self_ns),
            if i + 1 == rollup.len() { "" } else { "," },
        );
    }
    let _ = write!(out, "      ],\n      \"per_signature\": [\n");
    for (i, s) in stats.per_signature.iter().enumerate() {
        let _ = write!(
            out,
            concat!(
                "        {{\"name\": \"{}\", \"vars\": {}, \"clauses\": {}, ",
                "\"slice_kept\": {}, \"slice_dropped\": {}, ",
                "\"conflicts\": {}, \"propagations\": {}, \"restarts\": {}, ",
                "\"learnts\": {}, \"minimized_lits\": {}, ",
                "\"construction_ms\": {:.3}, \"solving_ms\": {:.3}}}{}\n"
            ),
            s.name,
            s.primary_vars,
            s.cnf_clauses,
            s.slice_kept,
            s.slice_dropped,
            s.solver.conflicts,
            s.solver.propagations,
            s.solver.restarts,
            s.solver.learnts,
            s.solver.minimized_lits,
            ms(s.construction),
            ms(s.solving),
            if i + 1 == stats.per_signature.len() {
                ""
            } else {
                ","
            },
        );
    }
    let _ = write!(out, "      ]\n    }}");
}

fn main() {
    let spec = separ_corpus::market::MarketSpec::scaled(50, 7);
    let market = separ_corpus::market::generate(&spec);
    let apks: Vec<_> = market.into_iter().map(|m| m.apk).collect();

    // --- Disabled-collector overhead -----------------------------------
    // The global collector starts disabled, so this run pays only the
    // no-op probes — exactly what a default (non-traced) deployment pays.
    let t0 = Instant::now();
    let report = Separ::new()
        .analyze_apks(&apks)
        .expect("well-typed signatures");
    let disabled_wall = t0.elapsed();
    assert_eq!(
        report.stats.extraction_wall,
        Duration::ZERO,
        "span-derived timings must be zero while the collector is off"
    );
    drop(report);
    // Cost of one disabled span open/close, measured hot.
    let iters = 4_000_000u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(separ_obs::span("bench.noop"));
    }
    let disabled_span_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);

    // --- Traced runs ---------------------------------------------------
    separ_obs::global().enable();
    // The first leg is the unsliced reference (shared base, no slicing),
    // kept comparable with the pre-slicing revisions of this benchmark;
    // the second is the shipping pipeline.
    let legs = [("polarity-shared-base", true), ("polarity-sliced", false)];
    let mut runs: Vec<RunResult> = Vec::new();
    for (name, unsliced) in legs {
        separ_obs::global().reset();
        let root = separ_obs::span("bench.run");
        let root_id = root.id();
        let report = analyze(&apks, unsliced);
        drop(root);
        let wall = separ_obs::global().duration(root_id);
        let trace = separ_obs::global().snapshot_subtree(root_id);
        println!(
            "{name}: wall={wall:?} synthesis={:?} construction={:?} solving={:?} \
             vars={} clauses={} conflicts={} propagations={} exploits={} spans={}",
            report.stats.synthesis_wall,
            report.stats.construction,
            report.stats.solving,
            report.stats.primary_vars,
            report.stats.cnf_clauses,
            report.stats.conflicts,
            report.stats.propagations,
            report.exploits.len(),
            trace.spans().len(),
        );
        runs.push(RunResult {
            name: name.to_string(),
            wall,
            stats: report.stats,
            exploits: report.exploits.len(),
            trace,
        });
    }

    // Slicing smoke: the sliced default must enumerate exactly as many
    // exploits as the unsliced polarity leg over the same bundle, while
    // never translating a larger formula.
    assert_eq!(
        runs[0].exploits, runs[1].exploits,
        "slicing changed the exploit count at 50 apps"
    );
    assert!(
        runs[1].stats.cnf_clauses <= runs[0].stats.cnf_clauses
            && runs[1].stats.primary_vars <= runs[0].stats.primary_vars,
        "slicing must not grow the formula"
    );
    println!(
        "slicing (50 apps): kept {} / dropped {} app slots, vars {} -> {}, clauses {} -> {}",
        runs[1].stats.slice_kept,
        runs[1].stats.slice_dropped,
        runs[0].stats.primary_vars,
        runs[1].stats.primary_vars,
        runs[0].stats.cnf_clauses,
        runs[1].stats.cnf_clauses,
    );

    // --- Paper-scale extraction trajectory ------------------------------
    // The paper's market experiment runs ~4,000 apps; extraction is the
    // per-app stage, so it is what must scale. Collector off: these are
    // clean wall times for the summary-based extractor, then for a whole
    // analysis on a session store, cold (an empty store: extract,
    // synthesize, persist) and warm (a reopened store: restore every
    // model and result, extract and synthesize nothing).
    separ_obs::global().disable();
    let scale_spec = separ_corpus::market::MarketSpec::scaled(4000, 7);
    let scale_market = separ_corpus::market::generate(&scale_spec);
    let scale_apks: Vec<_> = scale_market.into_iter().map(|m| m.apk).collect();
    let scale_n = scale_apks.len() as f64;
    let packages: Vec<Vec<u8>> = scale_apks
        .iter()
        .map(|a| separ_dex::codec::encode(a).to_vec())
        .collect();

    let t0 = Instant::now();
    let mut scale_components = 0usize;
    for apk in &scale_apks {
        scale_components += extract_apk(apk).components.len();
    }
    let extract_wall = t0.elapsed();
    let extract_per_app = ms(extract_wall) / scale_n;

    // Seed-bench reference: 89.366 ms extraction over 50 apps before the
    // summary engine (committed BENCH_pipeline.json at the seed revision).
    let baseline_per_app = 89.366 / 50.0;
    let speedup = baseline_per_app / extract_per_app;

    let store_dir =
        std::env::temp_dir().join(format!("separ-profile-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let analyze_in_store = || {
        let store = SessionStore::open(&store_dir).expect("store opens");
        let t0 = Instant::now();
        let report = Separ::new()
            .analyze_packages_in(&store, &packages)
            .expect("well-formed packages");
        (report, t0.elapsed())
    };
    let (cold, cold_wall) = analyze_in_store();
    let (warm, warm_wall) = analyze_in_store();
    let _ = std::fs::remove_dir_all(&store_dir);
    let warm_per_app = ms(warm_wall) / scale_n;

    println!(
        "market scale({}): extract={extract_wall:?} ({extract_per_app:.3} ms/app, \
         {speedup:.1}x vs seed {baseline_per_app:.3}) store cold={cold_wall:?} \
         warm={warm_wall:?} ({warm_per_app:.4} ms/app) warm extracted={} synthesized={}",
        scale_apks.len(),
        warm.stats.extracted,
        warm.stats.synthesized,
    );
    assert!(
        speedup >= 2.0,
        "summary-based extraction must stay well ahead of the seed baseline \
         ({extract_per_app:.3} ms/app vs {baseline_per_app:.3})"
    );
    assert!(
        warm_per_app < extract_per_app / 4.0 && warm_wall * 4 < cold_wall,
        "a warm store must make re-analysis near-free \
         ({warm_per_app:.4} ms/app vs {extract_per_app:.3} to extract; \
         warm={warm_wall:?} cold={cold_wall:?})"
    );
    assert_eq!(
        (
            cold.stats.extracted,
            warm.stats.extracted,
            warm.stats.synthesized
        ),
        (scale_apks.len(), 0, 0),
        "an empty store extracts everything, a warm one nothing"
    );
    assert!(
        warm.exploits == cold.exploits && warm.policies == cold.policies,
        "a warm store must change no exploit or policy"
    );

    // --- Paper-scale synthesis: slicing off vs on ------------------------
    // The whole point of relevance slicing is that the relational universe
    // a signature is translated against stops growing with market size.
    // Run the full pipeline at 4,000 apps both ways (collector on, so
    // synthesis wall is span-derived like the 50-app legs) and demand a
    // strict per-signature reduction with identical exploit counts.
    let mut scale_runs: Vec<(&str, BundleStats, usize, Duration)> = Vec::new();
    for (name, unsliced) in [("unsliced", true), ("sliced", false)] {
        separ_obs::global().reset();
        separ_obs::global().enable();
        let root = separ_obs::span("bench.scale");
        let root_id = root.id();
        let report = analyze(&scale_apks, unsliced);
        drop(root);
        let wall = separ_obs::global().duration(root_id);
        separ_obs::global().disable();
        println!(
            "market scale({}) {name}: wall={wall:?} synthesis={:?} vars={} clauses={} \
             kept={} dropped={} exploits={}",
            scale_apks.len(),
            report.stats.synthesis_wall,
            report.stats.primary_vars,
            report.stats.cnf_clauses,
            report.stats.slice_kept,
            report.stats.slice_dropped,
            report.exploits.len(),
        );
        scale_runs.push((name, report.stats, report.exploits.len(), wall));
    }
    assert_eq!(
        scale_runs[0].2, scale_runs[1].2,
        "slicing changed the exploit count at market scale"
    );
    for (u, s) in scale_runs[0]
        .1
        .per_signature
        .iter()
        .zip(&scale_runs[1].1.per_signature)
    {
        assert_eq!(u.exploits, s.exploits, "{}: exploit counts diverge", s.name);
        assert!(
            s.primary_vars < u.primary_vars,
            "{}: slicing must strictly shrink primary vars ({} vs {})",
            s.name,
            s.primary_vars,
            u.primary_vars
        );
        assert!(
            s.cnf_clauses < u.cnf_clauses,
            "{}: slicing must strictly shrink the CNF ({} vs {})",
            s.name,
            s.cnf_clauses,
            u.cnf_clauses
        );
    }

    // Disabled overhead: the workload executes one probe per recorded
    // span; extrapolate their no-op cost against the untraced wall time.
    // (An upper bound — it charges every probe at the measured hot-loop
    // cost.)
    let spans_per_run = runs[0].trace.spans().len() as f64;
    let disabled_overhead_pct =
        100.0 * (spans_per_run * disabled_span_ns) / disabled_wall.as_nanos() as f64;
    println!(
        "obs overhead (disabled): {disabled_span_ns:.2} ns/probe x {spans_per_run} spans \
         = {disabled_overhead_pct:.4}% of the {disabled_wall:?} untraced run"
    );
    assert!(
        disabled_overhead_pct < 2.0,
        "disabled-collector overhead must stay under 2%"
    );

    // Paper-scale synthesis legs as JSON (nested under "market_scale").
    let mut scale_json = String::new();
    for (i, (name, stats, exploits, wall)) in scale_runs.iter().enumerate() {
        let _ = write!(
            scale_json,
            concat!(
                "      {{\"config\": \"{}\", \"wall_ms\": {:.3}, ",
                "\"synthesis_wall_ms\": {:.3}, \"primary_vars\": {}, ",
                "\"cnf_clauses\": {}, \"slice_kept\": {}, ",
                "\"slice_dropped\": {}, \"exploits\": {}, \"per_signature\": [\n"
            ),
            name,
            ms(*wall),
            ms(stats.synthesis_wall),
            stats.primary_vars,
            stats.cnf_clauses,
            stats.slice_kept,
            stats.slice_dropped,
            exploits,
        );
        for (j, s) in stats.per_signature.iter().enumerate() {
            let _ = write!(
                scale_json,
                concat!(
                    "        {{\"name\": \"{}\", \"vars\": {}, \"clauses\": {}, ",
                    "\"slice_kept\": {}, \"slice_dropped\": {}, \"exploits\": {}, ",
                    "\"construction_ms\": {:.3}, \"solving_ms\": {:.3}}}{}\n"
                ),
                s.name,
                s.primary_vars,
                s.cnf_clauses,
                s.slice_kept,
                s.slice_dropped,
                s.exploits,
                ms(s.construction),
                ms(s.solving),
                if j + 1 == stats.per_signature.len() {
                    ""
                } else {
                    ","
                },
            );
        }
        let _ = writeln!(
            scale_json,
            "      ]}}{}",
            if i + 1 == scale_runs.len() { "" } else { "," }
        );
    }

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        concat!(
            "  \"workload\": \"market scaled(50, 7)\",\n",
            "  \"apps\": {},\n",
            "  \"components\": {},\n",
            "  \"intents\": {},\n",
            "  \"obs\": {{\n",
            "    \"disabled_wall_ms\": {:.3},\n",
            "    \"disabled_span_ns_per_op\": {:.2},\n",
            "    \"spans_per_run\": {},\n",
            "    \"disabled_overhead_pct\": {:.4}\n",
            "  }},\n",
            "  \"market_scale\": {{\n",
            "    \"workload\": \"market scaled(4000, 7)\",\n",
            "    \"apps\": {},\n",
            "    \"components\": {},\n",
            "    \"seed_baseline_per_app_ms\": {:.3},\n",
            "    \"extraction_wall_ms\": {:.3},\n",
            "    \"extraction_per_app_ms\": {:.3},\n",
            "    \"speedup_vs_seed\": {:.2},\n",
            "    \"store_cold_wall_ms\": {:.3},\n",
            "    \"store_warm_wall_ms\": {:.3},\n",
            "    \"store_warm_per_app_ms\": {:.4},\n",
            "    \"store_cold_extracted\": {},\n",
            "    \"store_warm_extracted\": {},\n",
            "    \"store_warm_synthesized\": {},\n",
            "    \"synthesis\": [\n{}    ]\n",
            "  }},\n",
            "  \"runs\": [\n"
        ),
        apks.len(),
        runs[0].stats.components,
        runs[0].stats.intents,
        ms(disabled_wall),
        disabled_span_ns,
        spans_per_run as u64,
        disabled_overhead_pct,
        scale_apks.len(),
        scale_components,
        baseline_per_app,
        ms(extract_wall),
        extract_per_app,
        speedup,
        ms(cold_wall),
        ms(warm_wall),
        warm_per_app,
        cold.stats.extracted,
        warm.stats.extracted,
        warm.stats.synthesized,
        scale_json,
    );
    for (i, run) in runs.iter().enumerate() {
        run_json(&mut out, run);
        out.push_str(if i + 1 == runs.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_pipeline.json", &out).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
}
