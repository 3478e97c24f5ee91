//! The compiled policy decision engine.
//!
//! [`Pdp::evaluate`](crate::pdp::Pdp::evaluate) must sit on *every*
//! intercepted ICC call, so a linear scan over the installed ECA rules —
//! with a string comparison per condition and a `String` clone per deny —
//! cannot be the hot path. This module compiles an installed policy set
//! once, into an immutable, indexed [`CompiledPolicySet`]:
//!
//! * every string a condition can mention (component classes, actions,
//!   packages) is interned into a policy-local [string pool](StringPool),
//!   so evaluation compares `u32` ids instead of strings;
//! * `ExtraTagged` conditions are pre-resolved to a [`Resource`] bitmask,
//!   so an arbitrary conjunction of tag requirements is a single
//!   mask-AND at decision time;
//! * policies are bucketed by `(event, receiver-component id)` in a
//!   hash index; policies with no `ReceiverIs` condition land in a small
//!   fallback list. First-match semantics are preserved exactly: every
//!   policy keeps its priority (its position in the installed set) and
//!   candidate buckets are merged in priority order;
//! * the deny path is allocation-free — each policy's vulnerability
//!   category is interned once as an `Arc<str>` at compile time and
//!   cloned by refcount into [`Decision`]s.
//!
//! On top of the immutable set sits [`SharedPdp`], the swap handle that
//! makes the read path lock-free and shareable across concurrent
//! emulated runtimes. `apply_delta` rebuilds a new compiled set *off to
//! the side* and publishes it atomically (a slot store plus a version
//! bump); [`PdpReader`]s keep evaluating against the snapshot `Arc` they
//! already hold and pick up the new set at their next version check — a
//! single relaxed-ordering load on the sustained path. Readers always
//! hold a strong reference to the set they are reading, so reclamation
//! of retired sets is plain `Arc` refcounting: no grace periods, no
//! hazard pointers, no reader-side locks. Evaluation, receiver-index
//! hit and prompt counts live in cache-line-padded relaxed atomics,
//! striped per reader, so sixteen concurrent runtimes never contend on
//! a counter line; [`SharedPdp::totals`] sums them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use separ_android::types::Resource;
use separ_core::policy::{self, Condition, Policy, PolicyAction, PolicyEvent};

use crate::pdp::{Decision, IccContext, PromptHandler};

// ---------------------------------------------------------------------
// Hashing & interning
// ---------------------------------------------------------------------

/// FNV-1a. The pool and index keys are short strings and `u32`s; SipHash
/// buys nothing here but latency on the decision path.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FnvBuild = BuildHasherDefault<Fnv>;
type FnvMap<K, V> = HashMap<K, V, FnvBuild>;

/// A policy-local string interner: built once at compile time, read-only
/// afterwards. Context strings that are not in the pool cannot equal any
/// policy string, which is exactly what [`StringPool::lookup`]'s `None`
/// encodes.
#[derive(Default, Debug)]
pub struct StringPool {
    map: FnvMap<Box<str>, u32>,
}

impl StringPool {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.map.len() as u32;
        self.map.insert(s.into(), id);
        id
    }

    /// The id of `s`, or `None` if no installed policy mentions it.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------
// Lowered conditions
// ---------------------------------------------------------------------

/// A pre-lowered condition: ids instead of strings, bitmask instead of a
/// tag-set probe. `ReceiverIs` has no variant — it is compiled away into
/// the receiver index key.
#[derive(Clone, Debug)]
enum CompiledCond {
    /// Sender component id equals.
    SenderIs(u32),
    /// Sender component id not among these (sorted).
    SenderNotIn(Box<[u32]>),
    /// Receiver id (when resolved) not among these (sorted).
    ReceiverNotIn(Box<[u32]>),
    /// Action id equals.
    ActionIs(u32),
    /// The intent carries at least these resource tags (mask-AND).
    Tags(u32),
    /// Sender package id not among these (sorted; the bundle default is
    /// substituted at compile time).
    SenderAppNotIn(Box<[u32]>),
}

/// An [`IccContext`] lowered against one pool: every field is the
/// interned id of the corresponding string, or `None` when the string is
/// absent or unknown to the pool (the two are indistinguishable to every
/// compiled condition, which is why collapsing them is sound).
struct LoweredCtx {
    sender_component: Option<u32>,
    sender_app: Option<u32>,
    receiver: Option<u32>,
    action: Option<u32>,
    tags: u32,
}

fn contains(sorted: &[u32], id: u32) -> bool {
    sorted.binary_search(&id).is_ok()
}

impl CompiledCond {
    #[inline]
    fn holds(&self, ctx: &LoweredCtx) -> bool {
        match self {
            CompiledCond::SenderIs(id) => ctx.sender_component == Some(*id),
            CompiledCond::SenderNotIn(ids) => match ctx.sender_component {
                None => true,
                Some(id) => !contains(ids, id),
            },
            // An unresolved receiver (send events) conservatively meets a
            // NotIn — delivery could still reach a non-intended receiver.
            CompiledCond::ReceiverNotIn(ids) => match ctx.receiver {
                None => true,
                Some(id) => !contains(ids, id),
            },
            CompiledCond::ActionIs(id) => ctx.action == Some(*id),
            CompiledCond::Tags(mask) => ctx.tags & mask == *mask,
            CompiledCond::SenderAppNotIn(ids) => match ctx.sender_app {
                None => true,
                Some(id) => !contains(ids, id),
            },
        }
    }
}

/// The resource-tag bitmask of a context's extras (19 resources < 32).
fn tag_mask(tags: &std::collections::BTreeSet<Resource>) -> u32 {
    tags.iter().fold(0u32, |m, r| m | (1u32 << (*r as u32)))
}

/// One compiled policy: the residual conditions that were not compiled
/// into the index key. The action is read from the source policy on a
/// hit (hits are rare relative to scans; matching stays compact).
#[derive(Debug)]
struct Matcher {
    conds: Box<[CompiledCond]>,
}

impl Matcher {
    #[inline]
    fn matches(&self, ctx: &LoweredCtx) -> bool {
        self.conds.iter().all(|c| c.holds(ctx))
    }
}

/// Per-event index: policies with a `ReceiverIs` condition bucketed by
/// receiver id, the rest in a fallback list. Both store policy indices
/// in ascending priority order.
#[derive(Default, Debug)]
struct EventIndex {
    by_receiver: FnvMap<u32, Vec<u32>>,
    fallback: Vec<u32>,
}

// ---------------------------------------------------------------------
// The compiled set
// ---------------------------------------------------------------------

/// An immutable, indexed compilation of one installed policy set. Build
/// it once per install or delta with [`CompiledPolicySet::compile`];
/// share it freely (`Send + Sync`, no interior mutability on the
/// decision path).
#[derive(Debug)]
pub struct CompiledPolicySet {
    policies: Vec<Policy>,
    /// Interned vulnerability categories, parallel to `policies`
    /// (refcount-cloned into deny decisions — no allocation).
    vulns: Vec<Arc<str>>,
    matchers: Vec<Matcher>,
    pool: StringPool,
    send: EventIndex,
    receive: EventIndex,
    bundle_packages: Vec<String>,
}

impl CompiledPolicySet {
    /// Compiles a policy set. `bundle_packages` are the analyzed bundle's
    /// packages, substituted for empty `SenderAppNotIn` lists exactly as
    /// the linear reference does at evaluation time.
    ///
    /// Policies that can never match (contradictory `ReceiverIs`
    /// conditions, unknown resource names in `ExtraTagged`) and policies
    /// whose [content identity](Policy::content_key) duplicates an
    /// earlier one are left out of the index entirely — first occurrence
    /// wins, as in the linear scan.
    pub fn compile(policies: Vec<Policy>, bundle_packages: Vec<String>) -> CompiledPolicySet {
        let mut pool = StringPool::default();
        let bundle_ids: Box<[u32]> = {
            let mut ids: Vec<u32> = bundle_packages.iter().map(|p| pool.intern(p)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_boxed_slice()
        };
        let mut vulns: Vec<Arc<str>> = Vec::with_capacity(policies.len());
        let mut vuln_intern: FnvMap<Box<str>, Arc<str>> = FnvMap::default();
        let mut matchers: Vec<Matcher> = Vec::with_capacity(policies.len());
        let mut send = EventIndex::default();
        let mut receive = EventIndex::default();
        {
            let mut seen = std::collections::BTreeSet::new();
            for (i, p) in policies.iter().enumerate() {
                vulns.push(
                    vuln_intern
                        .entry(p.vulnerability.as_str().into())
                        .or_insert_with(|| Arc::from(p.vulnerability.as_str()))
                        .clone(),
                );
                // Content duplicates never decide (the first occurrence
                // shadows them under first-match), so they stay out of
                // the index.
                let mut dead = !seen.insert(p.content_key());
                let mut receiver_key: Option<u32> = None;
                let mut tags = 0u32;
                let mut conds: Vec<CompiledCond> = Vec::with_capacity(p.conditions.len());
                let intern_sorted = |pool: &mut StringPool, names: &[String]| -> Box<[u32]> {
                    let mut ids: Vec<u32> = names.iter().map(|n| pool.intern(n)).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids.into_boxed_slice()
                };
                for c in &p.conditions {
                    match c {
                        Condition::ReceiverIs(class) => {
                            let id = pool.intern(class);
                            match receiver_key {
                                None => receiver_key = Some(id),
                                Some(prev) if prev == id => {}
                                // Two different required receivers: the
                                // conjunction is unsatisfiable.
                                Some(_) => dead = true,
                            }
                        }
                        Condition::SenderIs(class) => {
                            conds.push(CompiledCond::SenderIs(pool.intern(class)));
                        }
                        Condition::SenderNotIn(classes) => {
                            conds
                                .push(CompiledCond::SenderNotIn(intern_sorted(&mut pool, classes)));
                        }
                        Condition::ReceiverNotIn(classes) => {
                            conds.push(CompiledCond::ReceiverNotIn(intern_sorted(
                                &mut pool, classes,
                            )));
                        }
                        Condition::ActionIs(a) => {
                            conds.push(CompiledCond::ActionIs(pool.intern(a)));
                        }
                        Condition::ExtraTagged(name) => match Resource::from_name(name) {
                            Some(r) => tags |= 1u32 << (r as u32),
                            // Unknown resource names never match in the
                            // linear reference either.
                            None => dead = true,
                        },
                        Condition::SenderAppNotIn(packages) => {
                            let ids = if packages.is_empty() {
                                bundle_ids.clone()
                            } else {
                                intern_sorted(&mut pool, packages)
                            };
                            conds.push(CompiledCond::SenderAppNotIn(ids));
                        }
                    }
                }
                if tags != 0 {
                    conds.push(CompiledCond::Tags(tags));
                }
                matchers.push(Matcher {
                    conds: conds.into_boxed_slice(),
                });
                if dead {
                    continue;
                }
                let index = match p.event {
                    PolicyEvent::IccSend => &mut send,
                    PolicyEvent::IccReceive => &mut receive,
                };
                match receiver_key {
                    Some(id) => index.by_receiver.entry(id).or_default().push(i as u32),
                    None => index.fallback.push(i as u32),
                }
            }
        }
        CompiledPolicySet {
            policies,
            vulns,
            matchers,
            pool,
            send,
            receive,
            bundle_packages,
        }
    }

    /// The installed policies, in priority order, ids untouched.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// The bundle packages this set was compiled against.
    pub fn bundle_packages(&self) -> &[String] {
        &self.bundle_packages
    }

    /// The string pool (exposed for diagnostics).
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    fn lower(&self, ctx: &IccContext) -> LoweredCtx {
        LoweredCtx {
            sender_component: self.pool.lookup(&ctx.sender_component),
            sender_app: self.pool.lookup(&ctx.sender_app),
            receiver: ctx
                .receiver_component
                .as_deref()
                .and_then(|r| self.pool.lookup(r)),
            action: ctx.action.as_deref().and_then(|a| self.pool.lookup(a)),
            tags: tag_mask(&ctx.tags),
        }
    }

    /// The index of the first matching policy for `event`/`ctx`, or
    /// `None` when no policy matches (allow). Pure: prompting and
    /// counters are the caller's business.
    pub fn decide(&self, event: PolicyEvent, ctx: &IccContext) -> Option<usize> {
        self.decide_indexed(event, ctx).0
    }

    /// [`CompiledPolicySet::decide`], plus whether the receiver index
    /// had a bucket for `ctx` (`false` means only the fallback list was
    /// scanned).
    fn decide_indexed(&self, event: PolicyEvent, ctx: &IccContext) -> (Option<usize>, bool) {
        let low = self.lower(ctx);
        let index = match event {
            PolicyEvent::IccSend => &self.send,
            PolicyEvent::IccReceive => &self.receive,
        };
        let bucket = low.receiver.and_then(|r| index.by_receiver.get(&r));
        let indexed = bucket.is_some();
        let bucket: &[u32] = bucket.map_or(&[], Vec::as_slice);
        let fallback: &[u32] = &index.fallback;
        // Merge the two priority-ascending candidate lists; the first
        // candidate whose residual conditions hold decides.
        let (mut bi, mut fi) = (0usize, 0usize);
        loop {
            let next = match (bucket.get(bi), fallback.get(fi)) {
                (Some(&b), Some(&f)) => {
                    if b < f {
                        bi += 1;
                        b
                    } else {
                        fi += 1;
                        f
                    }
                }
                (Some(&b), None) => {
                    bi += 1;
                    b
                }
                (None, Some(&f)) => {
                    fi += 1;
                    f
                }
                (None, None) => return (None, indexed),
            } as usize;
            if self.matchers[next].matches(&low) {
                return (Some(next), indexed);
            }
        }
    }

    /// The interned vulnerability category of policy `i`.
    fn vulnerability(&self, i: usize) -> Arc<str> {
        Arc::clone(&self.vulns[i])
    }
}

// ---------------------------------------------------------------------
// The shared, atomically swapped handle
// ---------------------------------------------------------------------

/// Counter stripes: one padded cache line per stripe so concurrent
/// readers never bounce a counter line between cores.
const COUNTER_STRIPES: usize = 16;

#[repr(align(64))]
#[derive(Debug)]
struct PaddedCounter(AtomicU64);

#[derive(Debug)]
struct Stripes([PaddedCounter; COUNTER_STRIPES]);

impl Stripes {
    const fn new() -> Stripes {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: PaddedCounter = PaddedCounter(AtomicU64::new(0));
        Stripes([ZERO; COUNTER_STRIPES])
    }

    #[inline]
    fn add(&self, stripe: usize, n: u64) {
        self.0[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.0.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Debug)]
struct SharedInner {
    /// Bumped (release) on every publish; readers poll it relaxed-cheap
    /// and only touch `slot` when it moved.
    version: AtomicU64,
    /// The current compiled set. Locked only to publish and to refresh a
    /// stale reader — never on the sustained decision path.
    slot: Mutex<Arc<CompiledPolicySet>>,
    evaluations: Stripes,
    index_hits: Stripes,
    prompts: Stripes,
    denied: Stripes,
    readers: AtomicUsize,
}

/// The lock-free-read swap handle over a [`CompiledPolicySet`].
///
/// Clone it to share one installed policy set between any number of
/// threads; call [`SharedPdp::reader`] per thread for a decision-making
/// endpoint. [`SharedPdp::publish`] / [`SharedPdp::apply_delta`] rebuild
/// off to the side and swap atomically while readers keep deciding.
#[derive(Clone, Debug)]
pub struct SharedPdp {
    inner: Arc<SharedInner>,
}

impl SharedPdp {
    /// Wraps a compiled set in a swap handle.
    pub fn new(set: CompiledPolicySet) -> SharedPdp {
        SharedPdp {
            inner: Arc::new(SharedInner {
                version: AtomicU64::new(1),
                slot: Mutex::new(Arc::new(set)),
                evaluations: Stripes::new(),
                index_hits: Stripes::new(),
                prompts: Stripes::new(),
                denied: Stripes::new(),
                readers: AtomicUsize::new(0),
            }),
        }
    }

    /// A decision endpoint bound to this handle. Each concurrent runtime
    /// (thread) should hold its own reader.
    pub fn reader(&self) -> PdpReader {
        let stripe = self.inner.readers.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
        let snapshot = self.snapshot();
        PdpReader {
            inner: Arc::clone(&self.inner),
            set: snapshot,
            seen_version: self.inner.version.load(Ordering::Acquire),
            stripe,
        }
    }

    /// The current compiled set (strong reference; survives any number
    /// of later publishes).
    pub fn snapshot(&self) -> Arc<CompiledPolicySet> {
        self.inner.slot.lock().expect("pdp slot").clone()
    }

    /// Atomically replaces the installed set. Concurrent readers finish
    /// their in-flight decisions on the old set and observe the new one
    /// at their next evaluation.
    pub fn publish(&self, set: CompiledPolicySet) {
        let arc = Arc::new(set);
        *self.inner.slot.lock().expect("pdp slot") = arc;
        self.inner.version.fetch_add(1, Ordering::Release);
    }

    /// Applies a policy-set change: retires `removed` by content
    /// identity, appends `added` under fresh ids (unchanged policies
    /// keep theirs — see [`policy::merge_delta`]) and publishes the
    /// recompiled set atomically.
    pub fn apply_delta(&self, added: Vec<Policy>, removed: &[Policy]) {
        let current = self.snapshot();
        let mut policies = current.policies().to_vec();
        policy::merge_delta(&mut policies, added, removed);
        self.publish(CompiledPolicySet::compile(
            policies,
            current.bundle_packages().to_vec(),
        ));
    }

    /// Total evaluations across all readers (relaxed; exact once the
    /// counted operations have completed).
    pub fn evaluations(&self) -> u64 {
        self.inner.evaluations.sum()
    }

    /// Total prompts shown across all readers.
    pub fn prompts(&self) -> u64 {
        self.inner.prompts.sum()
    }

    /// One coherent-enough reading of all decision counters, for live
    /// telemetry endpoints. Relaxed like the individual accessors — no
    /// decision path is perturbed to take it.
    pub fn totals(&self) -> PdpTotals {
        let evaluations = self.inner.evaluations.sum();
        let denied = self.inner.denied.sum();
        PdpTotals {
            evaluations,
            index_hits: self.inner.index_hits.sum(),
            allowed: evaluations.saturating_sub(denied),
            denied,
            prompts: self.inner.prompts.sum(),
            swaps: self.inner.version.load(Ordering::Relaxed).saturating_sub(1),
            policies: self.snapshot().policies().len(),
        }
    }
}

/// A point-in-time reading of a [`SharedPdp`]'s decision counters (see
/// [`SharedPdp::totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdpTotals {
    /// Decisions evaluated across all readers since construction.
    pub evaluations: u64,
    /// Evaluations whose receiver had a bucket in the receiver index;
    /// the other `evaluations - index_hits` scanned only the fallback
    /// list.
    pub index_hits: u64,
    /// Evaluations whose outcome let the event proceed (including
    /// prompt-consented ones).
    pub allowed: u64,
    /// Evaluations whose outcome blocked the event (outright denies and
    /// prompt refusals).
    pub denied: u64,
    /// Prompts shown.
    pub prompts: u64,
    /// Atomic set swaps published since construction.
    pub swaps: u64,
    /// Policies in the currently installed set.
    pub policies: usize,
}

/// A per-thread decision endpoint over a [`SharedPdp`].
///
/// The sustained evaluation path is lock-free: one relaxed version
/// check, then index lookups on the snapshot `Arc` this reader already
/// holds. Only the first evaluation after a publish touches the slot
/// mutex (to clone the new snapshot).
#[derive(Debug)]
pub struct PdpReader {
    inner: Arc<SharedInner>,
    set: Arc<CompiledPolicySet>,
    seen_version: u64,
    stripe: usize,
}

impl PdpReader {
    /// Adopts the latest published set if a swap happened.
    #[inline]
    pub fn refresh(&mut self) {
        let v = self.inner.version.load(Ordering::Acquire);
        if v != self.seen_version {
            self.set = self.inner.slot.lock().expect("pdp slot").clone();
            self.seen_version = v;
        }
    }

    /// The snapshot this reader currently decides against.
    pub fn current(&self) -> &CompiledPolicySet {
        &self.set
    }

    /// Evaluates one event: the first matching policy decides; `Prompt`
    /// actions consult `prompt` with the deciding policy and the event.
    pub fn evaluate(
        &mut self,
        event: PolicyEvent,
        ctx: &IccContext,
        prompt: &mut PromptHandler,
    ) -> Decision {
        self.refresh();
        self.inner.evaluations.add(self.stripe, 1);
        let (decided, indexed) = self.set.decide_indexed(event, ctx);
        if indexed {
            self.inner.index_hits.add(self.stripe, 1);
        }
        let Some(i) = decided else {
            return Decision::Allow;
        };
        let p = &self.set.policies()[i];
        match p.action {
            PolicyAction::Allow => Decision::Allow,
            PolicyAction::Deny => {
                self.inner.denied.add(self.stripe, 1);
                Decision::Deny {
                    policy_id: p.id,
                    vulnerability: self.set.vulnerability(i),
                }
            }
            PolicyAction::Prompt => {
                self.inner.prompts.add(self.stripe, 1);
                if prompt.answer(p, ctx) {
                    Decision::PromptAllowed { policy_id: p.id }
                } else {
                    self.inner.denied.add(self.stripe, 1);
                    Decision::PromptDenied {
                        policy_id: p.id,
                        vulnerability: self.set.vulnerability(i),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Probe workloads
// ---------------------------------------------------------------------

/// Synthesizes a deterministic decision workload from an installed
/// policy set: for each policy, one context engineered to satisfy it and
/// one near-miss, plus a handful of unmatched contexts. Used by
/// `separ enforce --threads` and the CI throughput smoke to exercise the
/// index with realistic hit/miss traffic.
pub fn probe_contexts(policies: &[Policy]) -> Vec<(PolicyEvent, IccContext)> {
    let mut out = Vec::with_capacity(policies.len() * 2 + 2);
    for p in policies {
        let mut hit = IccContext {
            sender_app: "com.probe.external".into(),
            sender_component: "LProbe;".into(),
            receiver_app: Some("com.probe.receiver".into()),
            receiver_component: None,
            action: None,
            tags: Default::default(),
        };
        for c in &p.conditions {
            match c {
                Condition::ReceiverIs(class) => hit.receiver_component = Some(class.clone()),
                Condition::SenderIs(class) => hit.sender_component = class.clone(),
                Condition::ActionIs(a) => hit.action = Some(a.clone()),
                Condition::ExtraTagged(name) => {
                    if let Some(r) = Resource::from_name(name) {
                        hit.tags.insert(r);
                    }
                }
                // The probe sender/app names are chosen to stay outside
                // any realistic NotIn list; good enough for traffic.
                Condition::SenderNotIn(_)
                | Condition::ReceiverNotIn(_)
                | Condition::SenderAppNotIn(_) => {}
            }
        }
        let mut miss = hit.clone();
        miss.receiver_component = Some("LNoSuchComponent;".into());
        out.push((p.event, hit));
        out.push((p.event, miss));
    }
    // Unmatched background traffic, present even for an empty set.
    for i in 0..2 {
        out.push((
            PolicyEvent::IccReceive,
            IccContext {
                sender_app: format!("com.bg{i}"),
                sender_component: "LBg;".into(),
                receiver_app: Some("com.bg.peer".into()),
                receiver_component: Some("LBgPeer;".into()),
                action: Some("com.bg.PING".into()),
                tags: Default::default(),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(
        id: u32,
        event: PolicyEvent,
        conditions: Vec<Condition>,
        action: PolicyAction,
    ) -> Policy {
        Policy {
            id,
            vulnerability: "test-vuln".into(),
            event,
            conditions,
            action,
            rationale: String::new(),
        }
    }

    fn recv_ctx(receiver: &str) -> IccContext {
        IccContext {
            sender_app: "com.a".into(),
            sender_component: "LA;".into(),
            receiver_app: Some("com.b".into()),
            receiver_component: Some(receiver.into()),
            action: None,
            tags: Default::default(),
        }
    }

    #[test]
    fn bucketed_and_fallback_policies_merge_in_priority_order() {
        // Priority 0: fallback deny on action; priority 1: bucketed
        // allow on receiver. A context matching both must take #0.
        let set = CompiledPolicySet::compile(
            vec![
                policy(
                    0,
                    PolicyEvent::IccReceive,
                    vec![Condition::ActionIs("ACT".into())],
                    PolicyAction::Deny,
                ),
                policy(
                    1,
                    PolicyEvent::IccReceive,
                    vec![Condition::ReceiverIs("LR;".into())],
                    PolicyAction::Allow,
                ),
            ],
            vec![],
        );
        let mut ctx = recv_ctx("LR;");
        ctx.action = Some("ACT".into());
        assert_eq!(set.decide(PolicyEvent::IccReceive, &ctx), Some(0));
        ctx.action = None;
        assert_eq!(set.decide(PolicyEvent::IccReceive, &ctx), Some(1));
        ctx.receiver_component = Some("LOther;".into());
        assert_eq!(set.decide(PolicyEvent::IccReceive, &ctx), None);
    }

    #[test]
    fn contradictory_receivers_and_unknown_tags_are_dead() {
        let set = CompiledPolicySet::compile(
            vec![
                policy(
                    0,
                    PolicyEvent::IccReceive,
                    vec![
                        Condition::ReceiverIs("LR;".into()),
                        Condition::ReceiverIs("LQ;".into()),
                    ],
                    PolicyAction::Deny,
                ),
                policy(
                    1,
                    PolicyEvent::IccReceive,
                    vec![Condition::ExtraTagged("NO_SUCH_RESOURCE".into())],
                    PolicyAction::Deny,
                ),
            ],
            vec![],
        );
        assert_eq!(set.decide(PolicyEvent::IccReceive, &recv_ctx("LR;")), None);
        assert_eq!(set.decide(PolicyEvent::IccReceive, &recv_ctx("LQ;")), None);
    }

    #[test]
    fn swap_is_visible_to_readers_and_counts() {
        let shared = SharedPdp::new(CompiledPolicySet::compile(vec![], vec![]));
        let mut reader = shared.reader();
        let mut prompt = PromptHandler::AlwaysDeny;
        let ctx = recv_ctx("LR;");
        assert_eq!(
            reader.evaluate(PolicyEvent::IccReceive, &ctx, &mut prompt),
            Decision::Allow
        );
        shared.apply_delta(
            vec![policy(
                9,
                PolicyEvent::IccReceive,
                vec![Condition::ReceiverIs("LR;".into())],
                PolicyAction::Deny,
            )],
            &[],
        );
        let d = reader.evaluate(PolicyEvent::IccReceive, &ctx, &mut prompt);
        assert!(matches!(d, Decision::Deny { policy_id: 0, .. }));
        assert_eq!(shared.evaluations(), 2);
        assert_eq!(shared.prompts(), 0);
    }

    #[test]
    fn index_hits_count_evaluations_answered_from_a_receiver_bucket() {
        let shared = SharedPdp::new(CompiledPolicySet::compile(
            vec![policy(
                0,
                PolicyEvent::IccReceive,
                vec![Condition::ReceiverIs("LR;".into())],
                PolicyAction::Deny,
            )],
            vec![],
        ));
        let mut reader = shared.reader();
        let mut prompt = PromptHandler::AlwaysDeny;
        let mut evaluate = |ctx: &IccContext| {
            let before = shared.totals();
            reader.evaluate(PolicyEvent::IccReceive, ctx, &mut prompt);
            let after = shared.totals();
            assert_eq!(after.evaluations, before.evaluations + 1);
            after.index_hits - before.index_hits
        };
        assert_eq!(evaluate(&recv_ctx("LR;")), 1, "LR; has a bucket");
        let mut receiverless = recv_ctx("LR;");
        receiverless.receiver_component = None;
        assert_eq!(evaluate(&receiverless), 0, "no receiver, no bucket");
        assert_eq!(evaluate(&recv_ctx("LOther;")), 0, "LOther; has none");
        let totals = shared.totals();
        assert_eq!((totals.evaluations, totals.index_hits), (3, 1));
    }
}
