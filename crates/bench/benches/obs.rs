//! Microbenchmarks of the separ-obs probes.
//!
//! The headline number is the **disabled** path: probes stay compiled
//! into release binaries, so a disabled span/event/timer call must be
//! a single atomic load and nothing else. The enabled numbers bound
//! what `--trace` costs when it is on.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use separ_obs::Collector;

fn bench_disabled(c: &mut Criterion) {
    let collector = Collector::new_disabled();
    let mut group = c.benchmark_group("obs_disabled");
    group.bench_function("span_open_close", |b| {
        b.iter(|| black_box(collector.span("bench.noop")));
    });
    group.bench_function("event", |b| {
        b.iter(|| collector.event("bench.noop", black_box(Vec::new())));
    });
    group.bench_function("timer_observe", |b| {
        b.iter(|| collector.observe("bench.noop", black_box(collector.timer())));
    });
    group.finish();
}

fn bench_enabled(c: &mut Criterion) {
    let collector = Collector::new();
    let mut group = c.benchmark_group("obs_enabled");
    group.bench_function("span_open_close", |b| {
        b.iter(|| black_box(collector.span("bench.span")));
        collector.reset();
    });
    group.bench_function("timer_observe", |b| {
        b.iter(|| collector.observe("bench.hist", black_box(collector.timer())));
        collector.reset();
    });
    group.finish();
}

criterion_group!(benches, bench_disabled, bench_enabled);
criterion_main!(benches);
