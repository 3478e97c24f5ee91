//! `separ serve` load generator: concurrent clients replay a scripted
//! churn trace against a real daemon over a real unix socket.
//!
//! Each leg boots a fresh store-backed daemon, serves it on a socket,
//! and lets 1, 4 or 16 client threads drive it simultaneously. Every
//! client owns two market apps and loops a deterministic trace over
//! them — install, permission toggles, in-place update reinstalls —
//! interleaved with `decide` and `query` reads, measuring wall-clock
//! latency per request. After the clients finish, a control connection
//! reads the daemon's own counters and shuts it down.
//!
//! Asserted invariants (the CI smoke contract):
//!
//! * every request is answered `ok` — zero dropped, zero failed;
//! * the daemon reports exactly the churn ops the clients sent
//!   (accepted ⇒ applied);
//! * shutdown drains cleanly and the server loop exits;
//! * a mid-load `metrics` scrape answers with non-empty rolling
//!   p50/p99 decide latencies, in JSON and Prometheus form alike;
//! * a socket subscriber receives every applied batch's `policy_delta`
//!   event exactly once, in sequence order;
//! * the live-metrics recording cost is under 2% of the socket-level
//!   p50 decide latency (measured, asserted, and reported).
//!
//! Results (requests/s, p50/p99 latency, coalescing factor, metrics
//! scrape latency per leg, plus the live-metrics overhead block) land
//! in `BENCH_serve.json`. `--quick` runs the CI configuration.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use separ_corpus::market::{generate, MarketSpec};
use separ_obs::json::Value;
use separ_serve::protocol::encode_hex;
use separ_serve::{
    kind_slot, serve, Daemon, Endpoint, PolicyDeltaEvent, ServeConfig, ServeMetrics,
};

/// One client's scripted requests: (line, is_churn).
fn client_trace(
    packages: &[(String, String)],
    client: usize,
    rounds: usize,
) -> Vec<(String, bool)> {
    let own = &packages[client * 2..client * 2 + 2];
    let pkg = |i: usize| own[i].1.as_str();
    let mut out = Vec::new();
    for (bytes_hex, _) in own {
        out.push((
            format!(r#"{{"cmd":"install","bytes_hex":"{bytes_hex}"}}"#),
            true,
        ));
    }
    for r in 0..rounds {
        out.push((
            format!(
                concat!(
                    r#"{{"cmd":"set_permission","package":"{}","#,
                    r#""permission":"android.permission.SEND_SMS","granted":{}}}"#
                ),
                pkg(r % 2),
                r % 2 == 0
            ),
            true,
        ));
        out.push((
            format!(r#"{{"cmd":"install","bytes_hex":"{}"}}"#, own[r % 2].0),
            true,
        ));
        out.push((
            format!(
                concat!(
                    r#"{{"cmd":"decide","event":"icc_send","sender_app":"{}","#,
                    r#""sender_component":"LMain;","action":"android.intent.action.VIEW","#,
                    r#""prompt":"deny"}}"#
                ),
                pkg(0)
            ),
            false,
        ));
        out.push((r#"{"cmd":"query","what":"summary"}"#.to_string(), false));
    }
    out
}

struct Rpc {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Rpc {
    fn connect(sock: &PathBuf) -> Rpc {
        // The server thread races us to bind; retry briefly.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(sock) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
                    return Rpc {
                        reader,
                        writer: stream,
                    };
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("connect {}: {e}", sock.display()),
            }
        }
    }

    fn call(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        let v = Value::parse(response.trim()).expect("response is valid JSON");
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "request failed: {line} -> {response}"
        );
        v
    }
}

struct Leg {
    clients: usize,
    requests: u64,
    churn_ops: u64,
    wall: Duration,
    latencies_ns: Vec<u64>,
    batches: u64,
    ops_coalesced: u64,
    deadline_misses: u64,
    uptime_ms: u64,
    queue_depth: u64,
    /// Daemon-reported 10s-window decide latency (µs) from the final
    /// mid-load scrape.
    decide_p50_us: f64,
    decide_p99_us: f64,
    /// Mid-load `metrics` scrape latencies (ns, sorted) — the cost of
    /// observing the daemon while it is under load.
    scrape_ns: Vec<u64>,
    subscriber_events: u64,
}

/// Subscribes over its own socket and collects `policy_delta` events
/// until the server closes the stream at shutdown. Returns the seqs in
/// arrival order.
fn subscriber(sock: &PathBuf) -> Vec<u64> {
    let mut rpc = Rpc::connect(sock);
    let ack = rpc.call(r#"{"cmd":"subscribe"}"#);
    assert_eq!(ack.get("subscribed").and_then(Value::as_bool), Some(true));
    let mut seqs = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        match rpc.reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let ev = PolicyDeltaEvent::parse(line.trim()).expect("policy_delta event");
                seqs.push(ev.seq);
            }
        }
    }
    seqs
}

fn run_leg(clients: usize, rounds: usize, quick: bool) -> Leg {
    let dir =
        std::env::temp_dir().join(format!("separ-serve-load-{}-{clients}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sock = dir.join("sock");
    let daemon = Daemon::start(ServeConfig {
        store_dir: Some(dir.join("store")),
        queue_capacity: 256,
        batch_max: 64,
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let endpoint = Endpoint::Unix(sock.clone());
    let server = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || serve(daemon, &endpoint).expect("server runs"))
    };

    // Each client owns two apps; package bytes are prepared up front so
    // hex encoding never lands inside a latency measurement.
    let market = generate(&MarketSpec::scaled(clients * 2, 7));
    let packages: Vec<(String, String)> = market
        .iter()
        .map(|m| {
            (
                encode_hex(&separ_dex::codec::encode(&m.apk)),
                m.apk.package().to_string(),
            )
        })
        .collect();

    // The subscriber rides along for the whole leg: it must see every
    // applied batch exactly once, in order, without slowing anything.
    let sub_thread = {
        let sock = sock.clone();
        std::thread::spawn(move || subscriber(&sock))
    };

    type ClientResults = Vec<(u64, u64, Vec<u64>)>;
    let started = Instant::now();
    let stop_sampler = AtomicBool::new(false);
    let (results, sampler): (ClientResults, (Vec<u64>, Value)) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let packages = &packages;
                let sock = &sock;
                s.spawn(move || {
                    let mut rpc = Rpc::connect(sock);
                    let mut latencies = Vec::new();
                    let mut churn = 0u64;
                    for (line, is_churn) in client_trace(packages, client, rounds) {
                        let t = Instant::now();
                        rpc.call(&line);
                        latencies.push(t.elapsed().as_nanos() as u64);
                        churn += u64::from(is_churn);
                    }
                    (latencies.len() as u64, churn, latencies)
                })
            })
            .collect();
        // The sampler scrapes `metrics` (both formats) while the
        // clients hammer the daemon — observing the service must
        // work *under* load, not only after it.
        let sampler = {
            let sock = &sock;
            let stop = &stop_sampler;
            s.spawn(move || {
                let mut rpc = Rpc::connect(sock);
                let mut scrape_ns = Vec::new();
                let mut prom = false;
                loop {
                    let line = if prom {
                        r#"{"cmd":"metrics","format":"prometheus"}"#
                    } else {
                        r#"{"cmd":"metrics"}"#
                    };
                    let t = Instant::now();
                    let v = rpc.call(line);
                    scrape_ns.push(t.elapsed().as_nanos() as u64);
                    if prom {
                        let body = v.get("body").and_then(Value::as_str).expect("body");
                        assert!(body.contains("# TYPE separ_uptime_seconds gauge"));
                    }
                    prom = !prom;
                    if stop.load(Ordering::Relaxed) {
                        // One final JSON scrape after the clients
                        // finished: the decide windows must still
                        // be warm (10s rolling horizon).
                        let last = rpc.call(r#"{"cmd":"metrics"}"#);
                        return (scrape_ns, last);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        stop_sampler.store(true, Ordering::Relaxed);
        (results, sampler.join().expect("sampler thread"))
    });
    let wall = started.elapsed();
    let (mut scrape_ns, metrics) = sampler;
    scrape_ns.sort_unstable();

    // The acceptance gate: a daemon under load answers `metrics` with
    // non-empty rolling decide latencies.
    let decide = metrics
        .get("rolling")
        .and_then(|r| r.get("decide"))
        .and_then(|d| d.get("10s"))
        .expect("rolling decide 10s window is non-empty");
    let decide_p50_us = decide.get("p50_us").and_then(Value::as_f64).expect("p50");
    let decide_p99_us = decide.get("p99_us").and_then(Value::as_f64).expect("p99");
    assert!(decide.get("count").and_then(Value::as_u64).unwrap() > 0);
    assert!(decide_p50_us > 0.0 && decide_p99_us >= decide_p50_us);
    let uptime_ms = metrics
        .get("uptime_ms")
        .and_then(Value::as_u64)
        .expect("uptime");

    // Control connection: daemon-side truth, then shutdown.
    let mut control = Rpc::connect(&sock);
    let stats = control.call(r#"{"cmd":"stats"}"#);
    let stopped = control.call(r#"{"cmd":"shutdown"}"#);
    assert_eq!(stopped.get("stopped").and_then(Value::as_bool), Some(true));
    server.join().expect("server joins cleanly");

    let stat = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0);
    let requests: u64 = results.iter().map(|(n, _, _)| n).sum();
    let churn_ops: u64 = results.iter().map(|(_, c, _)| c).sum();
    assert_eq!(stat("failed"), 0, "daemon reported failed requests");
    assert_eq!(stat("queue_depth"), 0, "queue not drained");
    assert_eq!(
        stat("ops_coalesced"),
        churn_ops,
        "accepted churn ops must all be applied"
    );
    assert!(stats.get("uptime_ms").and_then(Value::as_u64).is_some());

    // The subscription contract, over a real socket: every batch,
    // exactly once, in order.
    let seqs = sub_thread.join().expect("subscriber thread");
    assert_eq!(
        seqs,
        (1..=stat("batches")).collect::<Vec<_>>(),
        "subscriber must see every policy delta exactly once, in order"
    );

    let mut latencies_ns: Vec<u64> = results.into_iter().flat_map(|(_, _, l)| l).collect();
    latencies_ns.sort_unstable();
    if !quick {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Leg {
        clients,
        requests,
        churn_ops,
        wall,
        latencies_ns,
        batches: stat("batches"),
        ops_coalesced: stat("ops_coalesced"),
        deadline_misses: stat("deadline_misses"),
        uptime_ms,
        queue_depth: stat("queue_depth"),
        decide_p50_us,
        decide_p99_us,
        scrape_ns,
        subscriber_events: seqs.len() as u64,
    }
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 3 } else { 10 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serve_load: scripted churn, {rounds} round(s)/client, {cores} core(s){}",
        if quick { " [quick]" } else { "" }
    );
    let mut legs = Vec::new();
    for clients in [1usize, 4, 16] {
        let leg = run_leg(clients, rounds, quick);
        let coalescing = leg.ops_coalesced as f64 / leg.batches.max(1) as f64;
        println!(
            "  {:>2} client(s): {} requests ({} churn) in {:.1}ms — {:.0} req/s, p50 {:.2}ms, p99 {:.2}ms, {:.2} ops/batch",
            leg.clients,
            leg.requests,
            leg.churn_ops,
            leg.wall.as_secs_f64() * 1e3,
            leg.requests as f64 / leg.wall.as_secs_f64(),
            percentile_ms(&leg.latencies_ns, 0.50),
            percentile_ms(&leg.latencies_ns, 0.99),
            coalescing,
        );
        println!(
            "              metrics: {} mid-load scrape(s) p50 {:.2}ms; daemon decide p50 {:.0}µs p99 {:.0}µs; {} delta event(s) subscribed",
            leg.scrape_ns.len(),
            percentile_ms(&leg.scrape_ns, 0.50),
            leg.decide_p50_us,
            leg.decide_p99_us,
            leg.subscriber_events,
        );
        // Concurrency is what makes batches coalesce; with one client
        // the factor is exactly 1.
        if leg.clients == 1 {
            assert!((coalescing - 1.0).abs() < f64::EPSILON);
        }
        legs.push(leg);
    }
    // Concurrent clients must actually coalesce somewhere across the
    // multi-client legs (the scripted trace overlaps churn by design).
    let coalesced = legs
        .iter()
        .any(|l| l.clients > 1 && l.ops_coalesced > l.batches);
    assert!(
        coalesced,
        "no multi-client leg ever folded two ops into one batch"
    );

    // The live-metrics overhead gate: the per-request recording cost
    // (one rolling-histogram record) must be negligible against the
    // socket-level decide latency the daemon actually serves. Measured
    // per-record, asserted against the single-client leg's daemon-side
    // p50 — an on/off A-B over sockets would drown the signal in
    // scheduler noise.
    let record_ns = {
        let metrics = ServeMetrics::new();
        let decide = kind_slot("decide").expect("decide has a window");
        let iters = 200_000u64;
        let t = Instant::now();
        for i in 0..iters {
            metrics.record(decide, 1_000 + (i % 1_000));
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    let decide_p50_ns = legs[0].decide_p50_us * 1_000.0;
    let overhead_pct = record_ns / decide_p50_ns * 100.0;
    println!(
        "live metrics overhead: {record_ns:.0}ns/record vs decide p50 {decide_p50_ns:.0}ns = {overhead_pct:.3}%"
    );
    assert!(
        overhead_pct < 2.0,
        "live-metrics recording must stay under 2% of the decide path"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"workload\": \"scripted churn trace over market apps, unix socket\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"rounds_per_client\": {rounds},");
    json.push_str("  \"legs\": [\n");
    for (i, leg) in legs.iter().enumerate() {
        let _ = write!(
            json,
            concat!(
                "    {{ \"clients\": {}, \"requests\": {}, \"churn_ops\": {}, ",
                "\"wall_ms\": {:.1}, \"requests_per_sec\": {:.0}, ",
                "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, ",
                "\"batches\": {}, \"ops_coalesced\": {}, \"coalescing_factor\": {:.2}, ",
                "\"deadline_misses\": {}, \"failed\": 0, ",
                "\"uptime_ms\": {}, \"queue_depth\": {}, ",
                "\"decide_p50_us\": {:.1}, \"decide_p99_us\": {:.1}, ",
                "\"metrics_scrapes\": {}, \"metrics_scrape_p50_ms\": {:.3}, ",
                "\"subscriber_events\": {} }}{}\n"
            ),
            leg.clients,
            leg.requests,
            leg.churn_ops,
            leg.wall.as_secs_f64() * 1e3,
            leg.requests as f64 / leg.wall.as_secs_f64(),
            percentile_ms(&leg.latencies_ns, 0.50),
            percentile_ms(&leg.latencies_ns, 0.99),
            leg.batches,
            leg.ops_coalesced,
            leg.ops_coalesced as f64 / leg.batches.max(1) as f64,
            leg.deadline_misses,
            leg.uptime_ms,
            leg.queue_depth,
            leg.decide_p50_us,
            leg.decide_p99_us,
            leg.scrape_ns.len(),
            percentile_ms(&leg.scrape_ns, 0.50),
            leg.subscriber_events,
            if i + 1 < legs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        concat!(
            "  \"live_metrics\": {{ \"record_ns\": {:.0}, \"decide_p50_ns\": {:.0}, ",
            "\"overhead_pct\": {:.3}, \"asserted_below_pct\": 2.0 }}\n"
        ),
        record_ns, decide_p50_ns, overhead_pct
    );
    json.push_str("}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
