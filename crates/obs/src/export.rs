//! Trace snapshots and the three exporters (Chrome trace JSON, JSONL
//! events, text summary).
//!
//! A [`Trace`] is an owned, **canonicalized** snapshot of a collector:
//! span ids are renumbered in a content-determined order so that two
//! runs of the same workload — at any thread count — produce the same
//! ids and the same sibling/event ordering. Canonicalization sorts
//! siblings by `(name, args, subtree fingerprint)`, where the
//! fingerprint hashes the span's name, args, attached events, and the
//! sorted fingerprints of its children; ids are then assigned by
//! depth-first traversal. Thread ids are remapped densely by first
//! appearance in canonical order. After [`strip_timing`] removes
//! timestamps and durations, exporter output is byte-identical across
//! runs.

use std::collections::BTreeMap;

use crate::collector::{EventRecord, SpanId, SpanRecord};
use crate::json;
use crate::metrics::Histogram;

/// An owned, canonicalized snapshot of a collector (see module docs).
#[derive(Debug, Clone)]
pub struct Trace {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    histograms: BTreeMap<&'static str, Histogram>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_args(mut h: u64, args: &[(&'static str, String)]) -> u64 {
    for (k, v) in args {
        h = fnv_bytes(h, k.as_bytes());
        h = fnv_bytes(h, &[0x1f]);
        h = fnv_bytes(h, v.as_bytes());
        h = fnv_bytes(h, &[0x1e]);
    }
    h
}

impl Trace {
    /// Builds a canonicalized trace from raw collector records.
    pub(crate) fn build(
        spans: Vec<SpanRecord>,
        events: Vec<EventRecord>,
        histograms: BTreeMap<&'static str, Histogram>,
    ) -> Trace {
        // Index spans and group events by their original span id
        // (within-span event order is the thread's recording order and
        // is deterministic).
        let idx_of: BTreeMap<SpanId, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut span_events: BTreeMap<SpanId, Vec<&EventRecord>> = BTreeMap::new();
        for e in &events {
            span_events.entry(e.span).or_default().push(e);
        }

        // Children lists; a span whose parent is outside the snapshot
        // (NONE, or pruned by snapshot_subtree) is a root.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match idx_of.get(&s.parent) {
                Some(&p) if s.parent != s.id => children[p].push(i),
                _ => roots.push(i),
            }
        }

        // Bottom-up subtree fingerprints: hash name, args, attached
        // events (so identical-looking siblings that differ only in
        // their events cannot swap), then sorted child fingerprints.
        let mut fp = vec![0u64; spans.len()];
        let mut order: Vec<usize> = Vec::with_capacity(spans.len());
        let mut stack: Vec<(usize, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((i, expanded)) = stack.pop() {
            if expanded {
                order.push(i);
                continue;
            }
            stack.push((i, true));
            for &c in &children[i] {
                stack.push((c, false));
            }
        }
        for &i in &order {
            let s = &spans[i];
            let mut h = fnv_bytes(FNV_OFFSET, s.name.as_bytes());
            h = fnv_args(h, &s.args);
            for e in span_events.get(&s.id).map(|v| v.as_slice()).unwrap_or(&[]) {
                h = fnv_bytes(h, e.name.as_bytes());
                h = fnv_args(h, &e.args);
            }
            let mut child_fps: Vec<u64> = children[i].iter().map(|&c| fp[c]).collect();
            child_fps.sort_unstable();
            for c in child_fps {
                h = fnv_bytes(h, &c.to_le_bytes());
            }
            fp[i] = h;
        }

        // Sort sibling lists (and roots) by (name, args, fingerprint),
        // then assign canonical ids by depth-first traversal.
        let sort_key = |&i: &usize| (spans[i].name, spans[i].args.clone(), fp[i]);
        roots.sort_by_key(sort_key);
        for list in &mut children {
            list.sort_by_key(sort_key);
        }
        let mut new_id = vec![SpanId::NONE; spans.len()];
        let mut next = 1u64;
        let mut dfs: Vec<usize> = roots.iter().rev().copied().collect();
        let mut canonical_order: Vec<usize> = Vec::with_capacity(spans.len());
        while let Some(i) = dfs.pop() {
            new_id[i] = SpanId(next);
            next += 1;
            canonical_order.push(i);
            for &c in children[i].iter().rev() {
                dfs.push(c);
            }
        }

        // Dense thread-id remap by first appearance in canonical order.
        let mut tid_map: BTreeMap<u64, u64> = BTreeMap::new();
        let remap_tid = |tid: u64, map: &mut BTreeMap<u64, u64>| {
            let n = map.len() as u64 + 1;
            *map.entry(tid).or_insert(n)
        };

        let mut out_spans: Vec<SpanRecord> = Vec::with_capacity(spans.len());
        for &i in &canonical_order {
            let s = &spans[i];
            let parent = idx_of
                .get(&s.parent)
                .filter(|_| s.parent != s.id)
                .map(|&p| new_id[p])
                .unwrap_or(SpanId::NONE);
            out_spans.push(SpanRecord {
                id: new_id[i],
                parent,
                name: s.name,
                args: s.args.clone(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                tid: remap_tid(s.tid, &mut tid_map),
            });
        }

        // Events: unattached events first (sorted by name then args),
        // then per canonical span in id order, preserving each span's
        // recording order.
        let mut out_events: Vec<EventRecord> = Vec::with_capacity(events.len());
        if let Some(orphans) = span_events.get(&SpanId::NONE) {
            let mut orphans: Vec<&EventRecord> = orphans.clone();
            orphans.sort_by(|a, b| (a.name, &a.args).cmp(&(b.name, &b.args)));
            for e in orphans {
                let mut e = e.clone();
                e.tid = remap_tid(e.tid, &mut tid_map);
                out_events.push(e);
            }
        }
        for &i in &canonical_order {
            if let Some(list) = span_events.get(&spans[i].id) {
                for e in list {
                    let mut e = (*e).clone();
                    e.span = new_id[i];
                    e.tid = remap_tid(e.tid, &mut tid_map);
                    out_events.push(e);
                }
            }
        }

        Trace {
            spans: out_spans,
            events: out_events,
            histograms,
        }
    }

    /// The canonicalized spans, ordered by canonical id (a depth-first
    /// traversal: every span appears after its parent).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The canonicalized events (unattached first, then grouped by
    /// span in canonical order).
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// The latency histograms at snapshot time.
    pub fn histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.histograms
    }

    /// Number of spans named `name`.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Renders the trace in Chrome trace-event JSON (complete events
    /// `ph:"X"`, instant events `ph:"i"`), loadable in `chrome://tracing`
    /// or Perfetto. Timestamps are microseconds from the collector
    /// epoch.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 160);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n ");
        };
        for s in &self.spans {
            sep(&mut out, &mut first);
            out.push_str("{\"name\":");
            json::write_str(s.name, &mut out);
            out.push_str(",\"cat\":\"separ\",\"ph\":\"X\",\"ts\":");
            push_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, s.dur_ns);
            out.push_str(&format!(",\"pid\":1,\"tid\":{}", s.tid));
            out.push_str(",\"args\":{\"span\":");
            out.push_str(&s.id.0.to_string());
            out.push_str(",\"parent\":");
            out.push_str(&s.parent.0.to_string());
            for (k, v) in &s.args {
                out.push(',');
                json::write_str(k, &mut out);
                out.push(':');
                json::write_str(v, &mut out);
            }
            out.push_str("}}");
        }
        for e in &self.events {
            sep(&mut out, &mut first);
            out.push_str("{\"name\":");
            json::write_str(e.name, &mut out);
            out.push_str(",\"cat\":\"separ\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            push_us(&mut out, e.ts_ns);
            out.push_str(&format!(",\"pid\":1,\"tid\":{}", e.tid));
            out.push_str(",\"args\":{\"span\":");
            out.push_str(&e.span.0.to_string());
            for (k, v) in &e.args {
                out.push(',');
                json::write_str(k, &mut out);
                out.push(':');
                json::write_str(v, &mut out);
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders the events as one JSON object per line.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str("{\"name\":");
            json::write_str(e.name, &mut out);
            out.push_str(",\"span\":");
            out.push_str(&e.span.0.to_string());
            out.push_str(&format!(",\"tid\":{},\"ts_us\":", e.tid));
            push_us(&mut out, e.ts_ns);
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(k, &mut out);
                out.push(':');
                json::write_str(v, &mut out);
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Renders a human-readable summary: per-span-name rollup (count,
    /// total and self time) and histograms.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let rollup = self.span_rollup();
        if !rollup.is_empty() {
            out.push_str("spans (by total time):\n");
            out.push_str(&format!(
                "  {:<28} {:>7} {:>12} {:>12}\n",
                "name", "count", "total", "self"
            ));
            for r in &rollup {
                out.push_str(&format!(
                    "  {:<28} {:>7} {:>12} {:>12}\n",
                    r.name,
                    r.count,
                    format_ns(r.total_ns),
                    format_ns(r.self_ns),
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("latency histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<28} count={} mean={} p50={} p90={} p99={} max={}\n",
                    k,
                    h.count(),
                    format_ns(h.mean()),
                    format_ns(h.quantile(0.50)),
                    format_ns(h.quantile(0.90)),
                    format_ns(h.quantile(0.99)),
                    format_ns(h.max()),
                ));
                for (i, &c) in h.counts().iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let label = match h.bounds().get(i) {
                        Some(&b) => format!("<= {}", format_ns(b)),
                        None => format!("> {}", format_ns(*h.bounds().last().unwrap_or(&0))),
                    };
                    out.push_str(&format!("    {label:<12} {c}\n"));
                }
            }
        }
        out
    }

    /// Aggregates spans by name: count, total time, and self time
    /// (total minus direct children), sorted by descending total.
    pub fn span_rollup(&self) -> Vec<SpanRollup> {
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some() {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanRollup> = BTreeMap::new();
        for s in &self.spans {
            let r = by_name.entry(s.name).or_insert(SpanRollup {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            r.count += 1;
            r.total_ns += s.dur_ns;
            r.self_ns += s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        let mut rollup: Vec<SpanRollup> = by_name.into_values().collect();
        rollup.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        rollup
    }
}

/// One row of [`Trace::span_rollup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRollup {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children) in
    /// nanoseconds.
    pub self_ns: u64,
}

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with sub-microsecond precision; Chrome accepts
    // fractional `ts`/`dur`.
    out.push_str(&(ns / 1000).to_string());
    let frac = ns % 1000;
    if frac != 0 {
        out.push_str(&format!(".{frac:03}"));
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Replaces the numeric value after every timing-ish key (`"ts"`,
/// `"dur"`, `"ts_us"`, `"tid"`) with `0`, so two exports of the same
/// workload can be compared byte-for-byte. Works on both the Chrome
/// trace JSON and the events JSONL.
pub fn strip_timing(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let keys: [&[u8]; 4] = [b"\"ts\":", b"\"dur\":", b"\"ts_us\":", b"\"tid\":"];
    let mut i = 0;
    'outer: while i < bytes.len() {
        for key in keys {
            if bytes[i..].starts_with(key) {
                out.push_str(std::str::from_utf8(key).unwrap());
                i += key.len();
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                    j += 1;
                }
                out.push('0');
                i = j;
                continue 'outer;
            }
        }
        // Advance one full UTF-8 character.
        let ch_len = utf8_len(bytes[i]);
        out.push_str(std::str::from_utf8(&bytes[i..i + ch_len]).unwrap());
        i += ch_len;
    }
    out
}

fn utf8_len(b: u8) -> usize {
    if b < 0x80 {
        1
    } else if b >> 5 == 0b110 {
        2
    } else if b >> 4 == 0b1110 {
        3
    } else {
        4
    }
}
