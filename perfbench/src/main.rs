//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a provenance line, then as its last line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! Exits non-zero, printing no result, if the workload cannot be set up.

use std::fmt::Write as _;
use std::process::ExitCode;

use separ_obs::json::quote;
use separ_perfbench::{run, Config, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.1).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, apps) = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds: expected 0 < s <= 600".into());
    }
    Ok(Config {
        workload,
        apps,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The commit the sources came from, when run from a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let name = Workload::ALL
        .iter()
        .find(|w| w.0 == cfg.workload)
        .map_or("?", |w| w.1);
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host =
        std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut prov = format!(
        r#"{{"provenance":{{"git_rev":{},"host":{},"nproc":{nproc},"workload":{},"seed":{},"seconds":{},"trace":{}"#,
        quote(&git_rev()),
        quote(host.trim()),
        quote(name),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
    );
    for (k, v) in &outcome.params {
        let _ = write!(prov, ",{}:{}", quote(k), quote(v));
    }
    prov.push_str("}}");
    println!("{prov}");

    let mut tally = outcome.tally;
    let mut metrics = String::new();
    for (i, (metric, value, unit)) in outcome.metrics.0.iter().enumerate() {
        tally.op(value.is_finite(), || format!("metric {metric} is {value}"));
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            r#"{sep}{}:{{"value":{value},"unit":{}}}"#,
            quote(metric),
            quote(unit)
        );
    }
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
    );
    ExitCode::SUCCESS
}
