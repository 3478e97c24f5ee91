//! Integration tests for the separ-obs collector and exporters:
//! panic-safe span closing, cross-thread parenting, histogram bucket
//! boundaries, Chrome trace-event conformance, and the canonicalization
//! that makes exports deterministic across thread interleavings.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use separ_obs::{export, Collector, SpanId, LATENCY_BOUNDS_NS};

#[test]
fn span_guard_records_the_span_during_panic_unwinding() {
    let c = Collector::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _outer = c.span("outer");
        let _inner = c.span("inner");
        panic!("stage blew up");
    }));
    assert!(result.is_err());
    let trace = c.snapshot();
    // Both guards dropped during unwinding; both spans are recorded and
    // the nesting survived.
    assert_eq!(trace.count_named("outer"), 1);
    assert_eq!(trace.count_named("inner"), 1);
    let outer = trace.spans().iter().find(|s| s.name == "outer").unwrap();
    let inner = trace.spans().iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(inner.parent, outer.id);
    assert_eq!(outer.parent, SpanId::NONE);
    // The thread's span stack is clean: a new span is again a root.
    let after = c.span("after");
    assert!(after.id().is_some());
    drop(after);
    let trace = c.snapshot();
    let after = trace.spans().iter().find(|s| s.name == "after").unwrap();
    assert_eq!(after.parent, SpanId::NONE);
}

#[test]
fn adopt_parents_cross_thread_spans_under_the_forking_span() {
    let c = &Collector::new();
    let stage = c.span("stage");
    let stage_id = stage.id();
    let parent = c.current_span();
    assert_eq!(parent, stage_id);
    std::thread::scope(|scope| {
        for i in 0..4 {
            scope.spawn(move || {
                let _ctx = c.adopt(parent);
                let mut span = c.span("worker");
                span.set_arg("i", i.to_string());
            });
        }
    });
    drop(stage);
    assert_eq!(c.subtree_count(stage_id, "worker"), 4);
    let trace = c.snapshot();
    for s in trace.spans().iter().filter(|s| s.name == "worker") {
        // Canonical ids renumber spans, so compare against the
        // canonical id of the (unique) stage span.
        let stage = trace.spans().iter().find(|s| s.name == "stage").unwrap();
        assert_eq!(s.parent, stage.id);
    }
}

#[test]
fn adopt_is_scoped_to_the_guard_lifetime() {
    let c = &Collector::new();
    let stage = c.span("stage");
    let parent = c.current_span();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            {
                let _ctx = c.adopt(parent);
                drop(c.span("inside"));
            }
            // Adoption ended: this span is a root again.
            drop(c.span("outside"));
        });
    });
    drop(stage);
    let trace = c.snapshot();
    let stage = trace.spans().iter().find(|s| s.name == "stage").unwrap();
    let inside = trace.spans().iter().find(|s| s.name == "inside").unwrap();
    let outside = trace.spans().iter().find(|s| s.name == "outside").unwrap();
    assert_eq!(inside.parent, stage.id);
    assert_eq!(outside.parent, SpanId::NONE);
}

#[test]
fn latency_histogram_buckets_split_exactly_at_the_bounds() {
    let c = Collector::new();
    // One decade per bucket; a bound value itself lands in its bucket,
    // bound+1 in the next.
    for &b in &LATENCY_BOUNDS_NS {
        c.observe_ns("lat", b);
        c.observe_ns("lat", b + 1);
    }
    let trace = c.snapshot();
    let h = trace.histograms().get("lat").expect("histogram recorded");
    assert_eq!(h.bounds(), &LATENCY_BOUNDS_NS);
    // Bucket 0 gets only its own bound (100); every later bucket gets
    // its bound plus the previous bound + 1; overflow gets 1e9 + 1.
    let mut expected = vec![2u64; LATENCY_BOUNDS_NS.len() + 1];
    expected[0] = 1;
    *expected.last_mut().unwrap() = 1;
    assert_eq!(h.counts(), expected.as_slice());
    assert_eq!(h.count(), 2 * LATENCY_BOUNDS_NS.len() as u64);
    assert_eq!(h.max(), LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1] + 1);
}

#[test]
fn disabled_collector_records_nothing_and_hands_out_inert_guards() {
    let c = Collector::new_disabled();
    let mut span = c.span("ghost");
    assert_eq!(span.id(), SpanId::NONE);
    span.set_arg("k", "v");
    drop(span);
    c.event("ghost.event", vec![("k", "v".to_string())]);
    let t = c.timer();
    assert!(!t.is_live());
    c.observe("ghost.lat", t);
    c.observe_ns("ghost.lat", 42);
    assert_eq!(c.current_span(), SpanId::NONE);
    assert_eq!(c.duration(SpanId::NONE), Duration::ZERO);
    let trace = c.snapshot();
    assert!(trace.spans().is_empty());
    assert!(trace.events().is_empty());
    assert!(trace.histograms().is_empty());
}

#[test]
fn enable_toggles_recording_mid_stream() {
    let c = Collector::new_disabled();
    drop(c.span("before"));
    c.enable();
    drop(c.span("during"));
    c.disable();
    drop(c.span("after"));
    let trace = c.snapshot();
    assert_eq!(trace.spans().len(), 1);
    assert_eq!(trace.spans()[0].name, "during");
}

#[test]
fn chrome_trace_matches_the_trace_event_format() {
    let c = Collector::new();
    {
        let _a = c.span("a");
        let mut b = c.span("b");
        b.set_arg("k", "v");
        c.event("e", vec![("n", "1".to_string())]);
    }
    let stripped = export::strip_timing(&c.snapshot().chrome_trace());
    // Golden output per the Chrome trace-event spec: complete events
    // carry ph:"X" with ts/dur, instants ph:"i" with a scope, and every
    // record carries pid/tid. Timestamps/tids are zeroed by
    // strip_timing; span ids are canonical (parent before child).
    let expected = concat!(
        "{\"traceEvents\":[\n",
        " {\"name\":\"a\",\"cat\":\"separ\",\"ph\":\"X\",\"ts\":0,\"dur\":0,",
        "\"pid\":1,\"tid\":0,\"args\":{\"span\":1,\"parent\":0}},\n",
        " {\"name\":\"b\",\"cat\":\"separ\",\"ph\":\"X\",\"ts\":0,\"dur\":0,",
        "\"pid\":1,\"tid\":0,\"args\":{\"span\":2,\"parent\":1,\"k\":\"v\"}},\n",
        " {\"name\":\"e\",\"cat\":\"separ\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0,",
        "\"pid\":1,\"tid\":0,\"args\":{\"span\":2,\"n\":\"1\"}}\n",
        "],\"displayTimeUnit\":\"ms\"}\n",
    );
    assert_eq!(stripped, expected);
}

#[test]
fn events_jsonl_emits_one_object_per_event() {
    let c = Collector::new();
    {
        let _s = c.span("stage");
        c.event("tick", vec![("n", "1".to_string())]);
        c.event("tick", vec![("n", "2".to_string())]);
    }
    let stripped = export::strip_timing(&c.snapshot().events_jsonl());
    let lines: Vec<&str> = stripped.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(
        lines[0],
        "{\"name\":\"tick\",\"span\":1,\"tid\":0,\"ts_us\":0,\"args\":{\"n\":\"1\"}}"
    );
    assert_eq!(
        lines[1],
        "{\"name\":\"tick\",\"span\":1,\"tid\":0,\"ts_us\":0,\"args\":{\"n\":\"2\"}}"
    );
}

/// Runs the same fan-out workload and returns the stripped exports.
/// Thread scheduling scrambles recording order differently every run;
/// canonicalization must hide that.
fn scrambled_run() -> (String, String) {
    let c = &Collector::new();
    let root = c.span("root");
    let parent = c.current_span();
    std::thread::scope(|scope| {
        for i in 0..8 {
            scope.spawn(move || {
                let _ctx = c.adopt(parent);
                let mut outer = c.span("chunk");
                outer.set_arg("i", i.to_string());
                c.event("chunk.start", vec![("i", i.to_string())]);
                for j in 0..3 {
                    let mut inner = c.span("item");
                    inner.set_arg("j", j.to_string());
                }
            });
        }
    });
    drop(root);
    let trace = c.snapshot();
    (
        export::strip_timing(&trace.chrome_trace()),
        export::strip_timing(&trace.events_jsonl()),
    )
}

#[test]
fn canonicalized_exports_are_identical_across_interleavings() {
    let (trace_a, events_a) = scrambled_run();
    let (trace_b, events_b) = scrambled_run();
    assert_eq!(trace_a, trace_b, "chrome trace must be run-independent");
    assert_eq!(events_a, events_b, "events JSONL must be run-independent");
    // Sanity: the workload really is in there.
    assert!(trace_a.contains("\"name\":\"chunk\""));
    assert_eq!(events_a.lines().count(), 8);
}

#[test]
fn subtree_queries_see_only_the_rooted_subtree() {
    let c = Collector::new();
    let outer = c.span("outer");
    let outer_id = outer.id();
    {
        let _mid = c.span("mid");
        drop(c.span("leaf"));
        drop(c.span("leaf"));
    }
    drop(outer);
    // A sibling tree that must not leak into the subtree queries.
    {
        let _other = c.span("other");
        drop(c.span("leaf"));
    }
    assert_eq!(c.subtree_count(outer_id, "leaf"), 2);
    assert_eq!(c.subtree_count(outer_id, "mid"), 1);
    let trace = c.snapshot();
    assert_eq!(trace.count_named("leaf"), 3);
    let sub = c.snapshot_subtree(outer_id);
    assert_eq!(sub.count_named("leaf"), 2);
    assert_eq!(sub.count_named("other"), 0);
    assert!(c.subtree_sum(outer_id, "leaf") <= c.duration(outer_id));
}

#[test]
fn text_summary_reports_spans_and_histograms() {
    let c = Collector::new();
    drop(c.span("work"));
    c.observe_ns("lat", 5_000);
    let summary = c.snapshot().text_summary();
    assert!(summary.contains("work"));
    assert!(summary.contains("lat"));
    assert!(summary.contains("count=1"));
}
