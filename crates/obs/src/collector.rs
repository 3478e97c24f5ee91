//! The thread-safe span/event/histogram collector.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::export::Trace;
use crate::metrics::Histogram;

/// Identifier of a span within one [`Collector`].
///
/// Ids are assigned in creation order starting at 1; [`SpanId::NONE`]
/// (0) marks "no span" — the parent of a root span, or the result of
/// querying a disabled collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots; returned while disabled).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real span id (not [`SpanId::NONE`]).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One closed span: a named interval with a parent link, structured
/// arguments, and the thread it ran on.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Creation-order id (1-based).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Static span name, e.g. `"logic.solve"`.
    pub name: &'static str,
    /// Key/value arguments attached via [`SpanGuard::set_arg`].
    pub args: Vec<(&'static str, String)>,
    /// Start offset from the collector epoch, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense id of the thread the span ran on.
    pub tid: u64,
}

/// One structured event, attached to the span that was open when it
/// fired.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// The innermost open span at the time (or [`SpanId::NONE`]).
    pub span: SpanId,
    /// Static event name, e.g. `"sat.tick"`.
    pub name: &'static str,
    /// Key/value payload.
    pub args: Vec<(&'static str, String)>,
    /// Timestamp offset from the collector epoch, in nanoseconds.
    pub ts_ns: u64,
    /// Dense id of the thread the event fired on.
    pub tid: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    histograms: BTreeMap<&'static str, Histogram>,
}

// Per-thread span context, keyed by collector id so tests with local
// collectors don't bleed into the global one. `stack` holds the open
// spans of this thread; `base` holds adopted parents (from the thread
// that forked this one).
thread_local! {
    static STACK: RefCell<Vec<(u64, SpanId)>> = const { RefCell::new(Vec::new()) };
    static BASE: RefCell<Vec<(u64, SpanId)>> = const { RefCell::new(Vec::new()) };
    static TID: RefCell<Option<u64>> = const { RefCell::new(None) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_CID: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    TID.with(|t| {
        let mut t = t.borrow_mut();
        *t.get_or_insert_with(|| NEXT_TID.fetch_add(1, Ordering::Relaxed))
    })
}

/// A thread-safe collector of spans, events and latency histograms.
///
/// All instrumentation entry points first load one atomic `enabled`
/// flag; while disabled they return without reading the clock, taking
/// the lock, or allocating, so probes are cheap enough to stay compiled
/// into release binaries.
pub struct Collector {
    cid: u64,
    enabled: AtomicBool,
    epoch: Instant,
    next_span: AtomicU64,
    inner: Mutex<Inner>,
}

impl Collector {
    fn with_enabled(enabled: bool) -> Collector {
        Collector {
            cid: NEXT_CID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A new collector that records immediately (for tests and tools).
    pub fn new() -> Collector {
        Collector::with_enabled(true)
    }

    /// A new collector that starts disabled (every probe is a no-op
    /// until [`Collector::enable`]).
    pub fn new_disabled() -> Collector {
        Collector::with_enabled(false)
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording (already-open span guards still close their
    /// spans).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether the collector is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread, falling back to an
    /// adopted parent ([`Collector::adopt`]); [`SpanId::NONE`] while
    /// disabled or outside any span.
    pub fn current_span(&self) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        let top = STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(cid, _)| *cid == self.cid)
                .map(|&(_, id)| id)
        });
        if let Some(id) = top {
            return id;
        }
        BASE.with(|b| {
            b.borrow()
                .iter()
                .rev()
                .find(|(cid, _)| *cid == self.cid)
                .map(|&(_, id)| id)
                .unwrap_or(SpanId::NONE)
        })
    }

    /// Opens a span as a child of [`Collector::current_span`]. The span
    /// is recorded when the guard drops — including during panic
    /// unwinding, so partially-executed stages still show up in traces.
    ///
    /// Returns an inert guard while disabled (no clock read, no
    /// allocation).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                collector: self,
                live: None,
                _not_send: PhantomData,
            };
        }
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let parent = self.current_span();
        STACK.with(|s| s.borrow_mut().push((self.cid, id)));
        SpanGuard {
            collector: self,
            live: Some(LiveSpan {
                id,
                parent,
                name,
                args: Vec::new(),
                start_ns: self.now_ns(),
            }),
            _not_send: PhantomData,
        }
    }

    /// Adopts `parent` as this thread's base span until the returned
    /// guard drops. Worker threads call this with the span id the
    /// spawning thread captured via [`Collector::current_span`], so
    /// fanned-out work parents under the stage that forked it.
    pub fn adopt(&self, parent: SpanId) -> AdoptGuard<'_> {
        let adopted = self.is_enabled() && parent.is_some();
        if adopted {
            BASE.with(|b| b.borrow_mut().push((self.cid, parent)));
        }
        AdoptGuard {
            collector: self,
            adopted,
            _not_send: PhantomData,
        }
    }

    /// Records a structured event on the innermost open span of this
    /// thread (no-op while disabled).
    pub fn event(&self, name: &'static str, args: Vec<(&'static str, String)>) {
        if !self.is_enabled() {
            return;
        }
        let rec = EventRecord {
            span: self.current_span(),
            name,
            args,
            ts_ns: self.now_ns(),
            tid: thread_id(),
        };
        self.inner.lock().unwrap().events.push(rec);
    }

    /// Starts a latency timer. Returns an inert timer (no clock read)
    /// while disabled.
    pub fn timer(&self) -> ObsTimer {
        ObsTimer(if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Records the elapsed time of `t` into the named latency histogram
    /// (default decade buckets). Inert timers are ignored.
    pub fn observe(&self, name: &'static str, t: ObsTimer) {
        let Some(start) = t.0 else { return };
        if !self.is_enabled() {
            return;
        }
        let ns = start.elapsed().as_nanos() as u64;
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name)
            .or_insert_with(Histogram::latency)
            .record(ns);
    }

    /// Records `ns` directly into the named latency histogram (no-op
    /// while disabled).
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name)
            .or_insert_with(Histogram::latency)
            .record(ns);
    }

    /// The recorded duration of a closed span, or zero if the id is
    /// unknown (e.g. the collector was disabled when the span opened).
    pub fn duration(&self, id: SpanId) -> Duration {
        if !id.is_some() {
            return Duration::ZERO;
        }
        let inner = self.inner.lock().unwrap();
        inner
            .spans
            .iter()
            .find(|s| s.id == id)
            .map(|s| Duration::from_nanos(s.dur_ns))
            .unwrap_or(Duration::ZERO)
    }

    /// Sum of the durations of all closed spans named `name` in the
    /// subtree rooted at `root` (inclusive). Zero when `root` is
    /// [`SpanId::NONE`] or unknown.
    pub fn subtree_sum(&self, root: SpanId, name: &str) -> Duration {
        let mut total = 0u64;
        self.for_subtree(root, |s| {
            if s.name == name {
                total += s.dur_ns;
            }
        });
        Duration::from_nanos(total)
    }

    /// Number of closed spans named `name` in the subtree rooted at
    /// `root` (inclusive).
    pub fn subtree_count(&self, root: SpanId, name: &str) -> usize {
        let mut n = 0usize;
        self.for_subtree(root, |s| {
            if s.name == name {
                n += 1;
            }
        });
        n
    }

    fn for_subtree(&self, root: SpanId, mut f: impl FnMut(&SpanRecord)) {
        if !root.is_some() {
            return;
        }
        let inner = self.inner.lock().unwrap();
        let mut index: BTreeMap<SpanId, usize> = BTreeMap::new();
        let mut children: BTreeMap<SpanId, Vec<SpanId>> = BTreeMap::new();
        for (i, s) in inner.spans.iter().enumerate() {
            index.insert(s.id, i);
            children.entry(s.parent).or_default().push(s.id);
        }
        // The root itself may still be open (no record yet); descendants
        // that already closed are reachable through the children map
        // regardless.
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if let Some(&i) = index.get(&id) {
                f(&inner.spans[i]);
            }
            if let Some(kids) = children.get(&id) {
                stack.extend(kids.iter().copied());
            }
        }
    }

    /// An owned snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        let inner = self.inner.lock().unwrap();
        Trace::build(
            inner.spans.clone(),
            inner.events.clone(),
            inner.histograms.clone(),
        )
    }

    /// A snapshot restricted to the subtree rooted at `root`
    /// (inclusive), with histograms included whole. Use this in tests that
    /// share the process-global collector: spans recorded by other
    /// concurrently-running tests fall outside the subtree and are
    /// excluded.
    pub fn snapshot_subtree(&self, root: SpanId) -> Trace {
        let mut spans = Vec::new();
        self.for_subtree(root, |s| spans.push(s.clone()));
        let inner = self.inner.lock().unwrap();
        let keep: std::collections::BTreeSet<SpanId> = spans.iter().map(|s| s.id).collect();
        let events = inner
            .events
            .iter()
            .filter(|e| keep.contains(&e.span))
            .cloned()
            .collect();
        Trace::build(spans, events, inner.histograms.clone())
    }

    /// Clears all recorded spans, events and histograms
    /// (enabled state is unchanged).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = Inner::default();
    }
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

struct LiveSpan {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    args: Vec<(&'static str, String)>,
    start_ns: u64,
}

/// RAII guard for an open span; the span closes and is recorded when
/// the guard drops (also during panic unwinding). Not `Send` — spans
/// belong to the thread that opened them.
pub struct SpanGuard<'c> {
    collector: &'c Collector,
    live: Option<LiveSpan>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// The id of this span, or [`SpanId::NONE`] for inert guards
    /// (collector disabled at open time).
    pub fn id(&self) -> SpanId {
        self.live.as_ref().map(|l| l.id).unwrap_or(SpanId::NONE)
    }

    /// Attaches a key/value argument to the span (no-op on inert
    /// guards).
    pub fn set_arg(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(live) = self.live.as_mut() {
            live.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end_ns = self.collector.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop this span; tolerate out-of-order drops defensively.
            if let Some(pos) = s
                .iter()
                .rposition(|&(cid, id)| cid == self.collector.cid && id == live.id)
            {
                s.remove(pos);
            }
        });
        let rec = SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            args: live.args,
            start_ns: live.start_ns,
            dur_ns: end_ns.saturating_sub(live.start_ns),
            tid: thread_id(),
        };
        self.collector.inner.lock().unwrap().spans.push(rec);
    }
}

/// RAII guard for an adopted base span (see [`Collector::adopt`]). Not
/// `Send`.
pub struct AdoptGuard<'c> {
    collector: &'c Collector,
    adopted: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AdoptGuard<'_> {
    fn drop(&mut self) {
        if !self.adopted {
            return;
        }
        BASE.with(|b| {
            let mut b = b.borrow_mut();
            if let Some(pos) = b.iter().rposition(|&(cid, _)| cid == self.collector.cid) {
                b.remove(pos);
            }
        });
    }
}

/// A latency timer handed out by [`Collector::timer`]; inert (no clock
/// was read) when the collector was disabled.
#[derive(Debug, Clone, Copy)]
pub struct ObsTimer(pub(crate) Option<Instant>);

impl ObsTimer {
    /// Whether this timer is actually running.
    pub fn is_live(self) -> bool {
        self.0.is_some()
    }
}
