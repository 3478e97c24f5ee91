//! RQ4: policy-enforcement overhead.
//!
//! Runs an ICC-heavy benchmark app on the simulated device twice per
//! repetition — hooks disabled vs. policies installed — and reports the
//! relative execution-time overhead with a 95% confidence interval over
//! 33 repetitions (the paper's repetition count). Non-ICC work is
//! measured separately to confirm the hooks cost nothing off the ICC
//! path.

use std::time::Instant;

use separ_android::api::class;
use separ_core::policy::{Condition, Policy, PolicyAction, PolicyEvent};
use separ_dex::build::ApkBuilder;
use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ_dex::program::Apk;
use separ_enforce::{Device, PromptHandler};

/// The overhead measurement.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Mean relative overhead of enforcement on the ICC workload.
    pub icc_mean: f64,
    /// Half-width of the 95% confidence interval.
    pub icc_ci95: f64,
    /// Time per ICC call with hooks off, in µs (median repetition).
    pub icc_base_us: f64,
    /// Time per ICC call with policies installed, in µs (median
    /// repetition).
    pub icc_hooked_us: f64,
    /// Relative overhead on the CPU-only workload: the median hooked
    /// run against the median bare run.
    pub compute_overhead: f64,
    /// Repetitions used.
    pub repetitions: usize,
    /// ICC deliveries per repetition.
    pub deliveries: usize,
}

/// An app whose main activity fires `n` startService calls at a local
/// service that immediately returns (pure ICC churn).
fn icc_benchmark_app(n: usize) -> Apk {
    let mut apk = ApkBuilder::new("com.bench.icc");
    apk.add_component(ComponentDecl::new("LPinger;", ComponentKind::Activity));
    let mut svc = ComponentDecl::new("LPong;", ComponentKind::Service);
    svc.intent_filters
        .push(IntentFilterDecl::for_actions(["com.bench.PING"]));
    apk.add_component(svc);
    {
        let mut cb = apk.class_extends("LPinger;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let s = m.reg();
        for _ in 0..n {
            m.new_instance(i, class::INTENT);
            m.const_string(s, "com.bench.PING");
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
        let v = m.reg();
        let k = m.reg();
        m.const_string(k, "k");
        m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
        m.move_result(v);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    apk.finish()
}

/// A pure-compute app (no ICC at all).
fn compute_benchmark_app(n: usize) -> Apk {
    let mut apk = ApkBuilder::new("com.bench.cpu");
    apk.add_component(ComponentDecl::new("LCruncher;", ComponentKind::Activity));
    let mut cb = apk.class_extends("LCruncher;", class::ACTIVITY);
    let mut m = cb.method("onCreate", 1, false, false);
    let a = m.reg();
    let b = m.reg();
    m.const_int(a, 1);
    m.const_int(b, 3);
    for _ in 0..n {
        m.binop(separ_dex::instr::BinOp::Add, a, a, b);
        m.binop(separ_dex::instr::BinOp::Mul, b, b, a);
    }
    m.ret_void();
    m.finish();
    cb.finish();
    apk.finish()
}

/// A policy set that matches nothing in the benchmark (realistic: the
/// synthesized policies guard other apps) but must still be evaluated on
/// every hook.
fn decoy_policies(n: usize) -> Vec<Policy> {
    (0..n as u32)
        .map(|i| Policy {
            id: i,
            vulnerability: "information-leakage".into(),
            event: if i % 2 == 0 {
                PolicyEvent::IccReceive
            } else {
                PolicyEvent::IccSend
            },
            conditions: vec![
                Condition::ReceiverIs(format!("LOtherComponent{i};")),
                Condition::ExtraTagged("LOCATION".into()),
            ],
            action: PolicyAction::Prompt,
            rationale: String::new(),
        })
        .collect()
}

fn time_run(apk: &Apk, main: (&str, &str), enforce: bool, policies: usize) -> f64 {
    let mut device = Device::new(vec![apk.clone()]);
    if enforce {
        device.install_policies(
            decoy_policies(policies),
            vec!["com.other".into()],
            PromptHandler::AlwaysDeny,
        );
    }
    let t0 = Instant::now();
    device.launch(main.0, main.1);
    device.run_until_idle();
    t0.elapsed().as_secs_f64()
}

/// Runs the overhead experiment.
pub fn run(repetitions: usize, icc_calls: usize, policies: usize) -> Overhead {
    let icc_app = icc_benchmark_app(icc_calls);
    let cpu_app = compute_benchmark_app(2000);
    let icc = |enforce| time_run(&icc_app, ("com.bench.icc", "LPinger;"), enforce, policies);
    let cpu = |enforce| time_run(&cpu_app, ("com.bench.cpu", "LCruncher;"), enforce, policies);
    // Warm up.
    let _ = (icc(false), icc(true));
    let mut icc_overheads = Vec::with_capacity(repetitions);
    let (mut bases, mut hookeds) = (Vec::new(), Vec::new());
    let (mut cpu_bases, mut cpu_hookeds) = (Vec::new(), Vec::new());
    for _ in 0..repetitions {
        let (base, hooked) = (icc(false), icc(true));
        icc_overheads.push((hooked - base) / base);
        bases.push(base);
        hookeds.push(hooked);
        cpu_bases.push(cpu(false));
        cpu_hookeds.push(cpu(true));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let icc_mean = mean(&icc_overheads);
    let var = icc_overheads
        .iter()
        .map(|x| (x - icc_mean).powi(2))
        .sum::<f64>()
        / (icc_overheads.len().max(2) - 1) as f64;
    // 95% CI half-width with the normal approximation (n = 33 in the
    // paper's setup is large enough).
    let ci95 = 1.96 * (var / icc_overheads.len() as f64).sqrt();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
    };
    let per_icc_us = |v: &mut Vec<f64>| median(v) * 1e6 / icc_calls.max(1) as f64;
    // One descheduled launch swings a single ratio; the medians of the
    // bare and hooked runs do not move with it.
    let cpu_base = median(&mut cpu_bases);
    Overhead {
        icc_mean,
        icc_ci95: ci95,
        icc_base_us: per_icc_us(&mut bases),
        icc_hooked_us: per_icc_us(&mut hookeds),
        compute_overhead: (median(&mut cpu_hookeds) - cpu_base) / cpu_base,
        repetitions,
        deliveries: icc_calls,
    }
}

/// Renders the result in the paper's phrasing.
pub fn render(o: &Overhead) -> String {
    format!(
        "ICC enforcement overhead: {:.2}% ± {:.2}% (95% CI, {} repetitions, {} ICC calls/run)\n\
         per ICC call (median run): {:.2} µs hooks off, {:.2} µs with policies\n\
         non-ICC workload overhead: {:.2}%\n",
        o.icc_mean * 100.0,
        o.icc_ci95 * 100.0,
        o.repetitions,
        o.deliveries,
        o.icc_base_us,
        o.icc_hooked_us,
        o.compute_overhead * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_finite_and_compute_path_is_cheap() {
        let o = run(5, 50, 10);
        assert!(o.icc_mean.is_finite());
        assert!(o.icc_ci95.is_finite() && o.icc_ci95 >= 0.0);
        // Hooks only intercept ICC: the pure-compute overhead must be far
        // below the ICC overhead band (allow noise).
        assert!(
            o.compute_overhead.abs() < 0.5,
            "compute overhead should be small, got {}",
            o.compute_overhead
        );
    }

    #[test]
    fn enforcement_actually_intercepts_the_workload() {
        let apk = icc_benchmark_app(10);
        let mut device = Device::new(vec![apk]);
        device.install_policies(decoy_policies(4), vec![], PromptHandler::AlwaysDeny);
        device.launch("com.bench.icc", "LPinger;");
        device.run_until_idle();
        let stats = device.hook_stats();
        assert_eq!(stats.icc_hooks, 10);
        assert_eq!(stats.delivery_hooks, 10);
        // Decoy policies never fire.
        assert_eq!(device.audit.blocked_count(), 0);
    }
}
