//! Quick pass: every workload at a small size, untraced on two seeds and
//! traced on one, with every output check. The reported metric names must be
//! exactly the ones `BENCHMARK.json` declares.

use separ_obs::json::Value;
use separ_perfbench::{run, Config, Workload};

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn check(workload: Workload, apps: usize, seed: u64, trace: bool) {
    let cfg = Config {
        workload,
        apps,
        seed,
        seconds: 0.05,
        trace,
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{workload:?} seed {seed}: {e}"));
    assert!(outcome.tally.attempted > 0);
    assert_eq!(
        outcome.tally.failed, 0,
        "{workload:?} seed {seed} trace {trace}: failed ops"
    );
    let names: Vec<String> = outcome.metrics.0.iter().map(|m| m.0.to_string()).collect();
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(names, expected, "{workload:?}: metric names");
    for (name, value, _) in &outcome.metrics.0 {
        assert!(value.is_finite(), "{workload:?}: {name} = {value}");
        if !trace {
            assert!(*value > 0.0, "{workload:?}: {name} = {value}");
        }
    }
}

#[test]
fn analyze_small() {
    for seed in [3, 11] {
        check(Workload::Analyze, 60, seed, false);
    }
    check(Workload::Analyze, 60, 3, true);
}

#[test]
fn decide_small() {
    for seed in [3, 11] {
        check(Workload::Decide, 60, seed, false);
    }
    check(Workload::Decide, 60, 3, true);
}

#[test]
fn icc_small() {
    for seed in [3, 11] {
        check(Workload::Icc, 60, seed, false);
    }
    check(Workload::Icc, 60, 3, true);
}
