//! The abstract interpreter at the core of AME.
//!
//! One engine performs, simultaneously and per component:
//!
//! * **constant string/int propagation** (for Intent actions, extra keys,
//!   permission-check arguments) — flow-sensitive, with definite-constant
//!   branch pruning, so leaks guarded by dead branches are correctly
//!   ignored;
//! * **Intent tracking** — allocation-site-based abstract Intent objects
//!   whose actions/categories/data/targets/extras accumulate
//!   configuration-API effects, with one model entity emitted per
//!   disambiguated value as the paper prescribes;
//! * **taint analysis** — flow-, field- and context-sensitive propagation
//!   from source APIs (and Intent reads, the ICC source) to sink APIs (and
//!   Intent sends, the ICC sink). Context sensitivity comes from analyzing
//!   callees under their actual abstract arguments (memoized), which
//!   subsumes k-limited call strings for the app sizes involved. The
//!   analysis is deliberately **path-insensitive** (both arms of
//!   non-constant branches are joined), like the paper's.
//!
//! Dynamically registered broadcast receivers are observed but their
//! filters are *not* modelled — reproducing the paper's two ICC-Bench
//! false negatives.
//!
//! # Method summaries
//!
//! The interpreter runs each component's entry points repeatedly (once per
//! bounded field-fixpoint round). The reference behavior (the test-only
//! `AnalysisStrategy::PerContext` behind the crate's `reference` feature)
//! clears its `(method, abstract args)` memo table before every entry
//! point, re-analyzing every reachable method per run. The interpreter
//! keeps those entries as *validated summaries* instead: each records the
//! field/intent state it read (with versions), the methods its computation
//! entered, and the recursive calls its computation saw blocked. A later run may reuse
//! the entry — skipping the whole subtree — exactly when replaying it
//! would reproduce the reference result: same inlining depth, all read
//! dependencies unchanged, every previously-entered callee currently
//! enterable and every externally-blocked callee currently blocked. All
//! interpreter side effects (flows, intent configuration, permission uses)
//! are monotone inserts derived from the arguments and recorded
//! dependencies, so a validated skip leaves the engine state exactly as a
//! re-execution would. The differential suite in
//! `tests/extraction_equivalence.rs` checks the two strategies against
//! each other on randomized apps.

use std::collections::{BTreeSet, HashMap};

use separ_android::api::{self, ApiKind, IccMethod, IntentConfigKind};
use separ_android::types::{FlowPath, Resource};
use separ_dex::instr::{BinOp, Instr};
use separ_dex::program::{Apk, Dex};
use separ_dex::refs::{MethodId, StrId};

use crate::callgraph::MethodNode;
use crate::domain::{ResourceSet, SmallSet, Val};
use crate::index::ApkIndex;

/// Maximum inlining depth.
const MAX_DEPTH: usize = 12;

/// An abstract Intent object (allocation-site based).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AbstractIntent {
    /// Possible action strings.
    pub actions: BTreeSet<String>,
    /// Whether an action was set to a statically unknown value.
    pub actions_unknown: bool,
    /// Categories added.
    pub categories: BTreeSet<String>,
    /// MIME types set.
    pub data_types: BTreeSet<String>,
    /// Data schemes set.
    pub data_schemes: BTreeSet<String>,
    /// Explicit target classes set.
    pub targets: BTreeSet<String>,
    /// Extra keys attached.
    pub extra_keys: BTreeSet<String>,
    /// Taints flowing into extras.
    pub extra_taints: BTreeSet<Resource>,
    /// ICC methods through which this intent was observed being sent.
    pub sent_via: BTreeSet<IccMethod>,
    /// Whether this is the component's *received* intent.
    pub is_received: bool,
}

/// How the interpreter reuses work across entry points and fixpoint
/// rounds: a test-only choice (a default build always keeps summaries).
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisStrategy {
    /// Memoized per-method summaries, revalidated across runs against
    /// recorded field/intent dependencies and the recursion context.
    /// Produces the same facts as [`AnalysisStrategy::PerContext`] (the
    /// differential equivalence suite enforces this).
    #[default]
    Summaries,
    /// Re-analyze every method per entry-point run (the memo table is
    /// cleared between runs). Retained as the reference implementation
    /// for the differential harness.
    PerContext,
}

/// Tool-profile knobs, used to reproduce comparator tools' documented
/// blind spots (the Table I baselines) as genuine analyzer restrictions.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Prune branches whose condition is a definite constant (SEPAR does;
    /// DidFail-like tools do not, producing false positives on
    /// unreachable-leak decoys).
    pub prune_dead_branches: bool,
    /// Model `registerReceiver` filters statically (AmanDroid-like tools
    /// do; SEPAR's extractor does not — its two ICC-Bench false
    /// negatives).
    pub model_dynamic_receivers: bool,
    /// Work-reuse strategy; changes performance, never extracted facts
    /// (apart from the visit/hit counters). Test-only.
    #[cfg(any(test, feature = "reference"))]
    #[doc(hidden)]
    pub strategy: AnalysisStrategy,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            prune_dead_branches: true,
            model_dynamic_receivers: false,
            #[cfg(any(test, feature = "reference"))]
            strategy: AnalysisStrategy::Summaries,
        }
    }
}

/// The result of analyzing one component.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ComponentFacts {
    /// Sensitive source→sink paths.
    pub flows: BTreeSet<FlowPath>,
    /// The abstract intent table (index 0 is the received intent).
    pub intents: Vec<AbstractIntent>,
    /// Permissions checked via `checkCallingPermission` on reachable paths.
    pub dynamic_checks: BTreeSet<String>,
    /// Permissions exercised by reachable API calls.
    pub used_permissions: BTreeSet<String>,
    /// Whether `registerReceiver` is reachable.
    pub registers_dynamically: bool,
    /// Dynamically registered `(receiver class, action)` pairs — only
    /// populated when [`AnalysisOptions::model_dynamic_receivers`] is set.
    pub dynamic_filters: Vec<(String, String)>,
    /// Instructions abstractly visited.
    pub instructions_visited: u64,
    /// Method analyses answered from a (validated) summary.
    pub summary_hits: u64,
    /// Method analyses that ran the interpreter.
    pub summary_misses: u64,
}

/// Index of the received intent in every intent table.
pub const RECEIVED_INTENT: usize = 0;

/// Analyzes one component of an app: all its lifecycle entry points.
pub fn analyze_component(apk: &Apk, component_class: &str) -> ComponentFacts {
    analyze_component_with(apk, component_class, AnalysisOptions::default())
}

/// Analyzes one component under an explicit tool profile.
pub fn analyze_component_with(
    apk: &Apk,
    component_class: &str,
    options: AnalysisOptions,
) -> ComponentFacts {
    let index = ApkIndex::new(apk);
    analyze_component_indexed(apk, &index, component_class, options)
}

/// Analyzes one component against a prebuilt per-app index (the extractor
/// builds the index once and shares it across components).
pub(crate) fn analyze_component_indexed(
    apk: &Apk,
    index: &ApkIndex,
    component_class: &str,
    options: AnalysisOptions,
) -> ComponentFacts {
    let mut engine = Engine::new(apk, index, options);
    let dex = &apk.dex;
    let Some(decl) = apk.manifest.component(component_class) else {
        return engine.into_facts();
    };
    let Some(ty) = dex.pools.find_type(component_class) else {
        return engine.into_facts();
    };
    let Some(&ci) = index.class_of_type.get(&ty) else {
        return engine.into_facts();
    };
    // Iterate to a (bounded) fixpoint over the field state so that values
    // stored by one entry point are visible to loads in another.
    for _round in 0..3 {
        let before = engine.fields_fingerprint();
        for &ep in api::entry_points(decl.kind) {
            let Some(mi) = dex.classes[ci]
                .methods
                .iter()
                .position(|m| dex.pools.str_at(m.name) == ep)
            else {
                continue;
            };
            let method = &dex.classes[ci].methods[mi];
            let mut args: Vec<Val> = Vec::new();
            if !method.is_static {
                args.push(Val::top()); // `this`
            }
            while args.len() < method.num_params as usize {
                // Entry-point parameters beyond the receiver may carry the
                // received intent.
                let mut v = Val::default();
                v.intents.insert(RECEIVED_INTENT as u32);
                v.unknown = true;
                args.push(v);
            }
            engine.begin_run();
            let _ = engine.analyze_method((ci, mi), &args, 0);
        }
        if engine.fields_fingerprint() == before {
            break;
        }
    }
    engine.into_facts()
}

/// Dependency key bit marking an abstract-intent (vs field) dependency.
const INTENT_DEP_BIT: u32 = 0x8000_0000;
/// Blocker position marking a requirement imported from a summary whose
/// blocker is no longer on the stack: external to every enclosing frame.
const ALWAYS_EXTERNAL: u32 = u32::MAX;

fn node_key(node: MethodNode) -> u64 {
    ((node.0 as u64) << 32) | node.1 as u64
}

/// FNV-1a fingerprint of an abstract argument vector (memo-bucket key;
/// collisions are resolved by full slice comparison in the bucket).
fn args_fingerprint(args: &[Val]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ args.len() as u64;
    for v in args {
        v.fingerprint(&mut h);
    }
    h
}

fn icc_bit(m: IccMethod) -> u16 {
    1u16 << (m as u16)
}

/// Internal abstract Intent state: interned ids and bitmasks; converted
/// to the public [`AbstractIntent`] once per component.
#[derive(Clone, Default)]
struct IntentState {
    actions: SmallSet<u32>,
    actions_unknown: bool,
    categories: SmallSet<u32>,
    data_types: SmallSet<u32>,
    data_schemes: BTreeSet<String>,
    targets: SmallSet<u32>,
    extra_keys: SmallSet<u32>,
    extra_taints: ResourceSet,
    sent_via: u16,
    is_received: bool,
}

/// A memoized method analysis with everything needed to decide, in a
/// later run, whether replaying it would reproduce the reference result.
struct MemoEntry {
    ret: Val,
    /// Inlining depth the entry was computed at (the `MAX_DEPTH` cutoff
    /// makes results depth-dependent).
    depth: u32,
    /// Last run in which this entry was computed or validated; entries
    /// from the current run are reused unconditionally, matching the
    /// reference memo.
    validated_run: u64,
    /// Field/intent versions read by the computation (transitively).
    deps: Vec<(u32, u64)>,
    /// Methods the computation entered or reused (transitively); each
    /// must not be in progress for a replay to take the same path.
    entered: SmallSet<u64>,
    /// Methods whose calls were blocked by an activation *outside* this
    /// computation; each must still be in progress for a replay to block
    /// them again.
    ext_blocked: SmallSet<u64>,
}

/// One memo bucket: the (argument-vector, entry) variants sharing a
/// (method node, argument fingerprint) key.
type MemoBucket = Vec<(Vec<Val>, MemoEntry)>;

/// Per-activation dependency/footprint accumulator (mirrors the
/// interpreter's call stack).
struct DepFrame {
    node: u64,
    deps: Vec<(u32, u64)>,
    entered: SmallSet<u64>,
    /// Blocked calls as (callee, blocker stack position); positions at or
    /// above the frame's own are internal and vanish when it pops.
    blocked: Vec<(u64, u32)>,
}

struct Engine<'a> {
    dex: &'a Dex,
    index: &'a ApkIndex,
    options: AnalysisOptions,
    flows: BTreeSet<FlowPath>,
    intents: Vec<IntentState>,
    intent_versions: Vec<u64>,
    intent_sites: HashMap<(u64, u32), u32>,
    dynamic_checks: SmallSet<u32>,
    used_permissions: BTreeSet<&'static str>,
    registers_dynamically: bool,
    dynamic_filters: Vec<(String, String)>,
    fields: Vec<Option<Val>>,
    field_versions: Vec<u64>,
    /// Memoized analyses keyed by (method node, argument fingerprint),
    /// each bucket a short list of (argument-vector, entry) variants: a
    /// lookup walks the arguments once to fingerprint them and compares
    /// slices only within the (almost always singleton) bucket, so the
    /// hot path never allocates.
    memo: HashMap<(u64, u64), MemoBucket>,
    dep_stack: Vec<DepFrame>,
    run: u64,
    visited: u64,
    summary_hits: u64,
    summary_misses: u64,
}

#[derive(Clone, PartialEq, Debug)]
struct Frame {
    regs: Vec<Val>,
    pending: Val,
}

impl Frame {
    fn join(&mut self, other: &Frame) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            changed |= a.join(b);
        }
        changed |= self.pending.join(&other.pending);
        changed
    }
}

impl<'a> Engine<'a> {
    fn new(apk: &'a Apk, index: &'a ApkIndex, options: AnalysisOptions) -> Engine<'a> {
        let received = IntentState {
            is_received: true,
            ..Default::default()
        };
        let num_fields = apk.dex.pools.num_fields();
        Engine {
            dex: &apk.dex,
            index,
            options,
            flows: BTreeSet::new(),
            intents: vec![received],
            intent_versions: vec![0],
            intent_sites: HashMap::new(),
            dynamic_checks: SmallSet::default(),
            used_permissions: BTreeSet::new(),
            registers_dynamically: false,
            dynamic_filters: Vec::new(),
            fields: vec![None; num_fields],
            field_versions: vec![0; num_fields],
            memo: HashMap::new(),
            dep_stack: Vec::new(),
            run: 0,
            visited: 0,
            summary_hits: 0,
            summary_misses: 0,
        }
    }

    /// Starts one entry-point run. Memoized analyses are kept for
    /// validation; the reference strategy forgets them all.
    fn begin_run(&mut self) {
        self.run += 1;
        #[cfg(any(test, feature = "reference"))]
        if self.options.strategy == AnalysisStrategy::PerContext {
            self.memo.clear();
        }
    }

    fn into_facts(self) -> ComponentFacts {
        let pools = &self.dex.pools;
        let resolve = |set: &SmallSet<u32>| -> BTreeSet<String> {
            set.iter()
                .map(|id| pools.str_at(StrId::from_index(id as usize)).to_string())
                .collect()
        };
        let intents = self
            .intents
            .iter()
            .map(|st| AbstractIntent {
                actions: resolve(&st.actions),
                actions_unknown: st.actions_unknown,
                categories: resolve(&st.categories),
                data_types: resolve(&st.data_types),
                data_schemes: st.data_schemes.clone(),
                targets: resolve(&st.targets),
                extra_keys: resolve(&st.extra_keys),
                extra_taints: st.extra_taints.to_btree(),
                sent_via: IccMethod::ALL
                    .iter()
                    .copied()
                    .filter(|&m| st.sent_via & icc_bit(m) != 0)
                    .collect(),
                is_received: st.is_received,
            })
            .collect();
        ComponentFacts {
            flows: self.flows,
            intents,
            dynamic_checks: resolve(&self.dynamic_checks),
            used_permissions: self
                .used_permissions
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            registers_dynamically: self.registers_dynamically,
            dynamic_filters: self.dynamic_filters,
            instructions_visited: self.visited,
            summary_hits: self.summary_hits,
            summary_misses: self.summary_misses,
        }
    }

    fn fields_fingerprint(&self) -> usize {
        self.fields
            .iter()
            .flatten()
            .map(|v| {
                v.strings.len()
                    + v.ints.len()
                    + v.taints.len()
                    + v.intents.len()
                    + usize::from(v.unknown)
            })
            .sum::<usize>()
            + self.fields.iter().filter(|f| f.is_some()).count() * 1000
            + self.flows.len() * 7
            + self
                .intents
                .iter()
                .map(|i| {
                    i.actions.len()
                        + i.categories.len()
                        + i.extra_keys.len()
                        + i.extra_taints.len()
                        + i.targets.len()
                        + i.sent_via.count_ones() as usize
                })
                .sum::<usize>()
                * 13
    }

    fn stack_pos(&self, node: u64) -> Option<u32> {
        self.dep_stack
            .iter()
            .position(|f| f.node == node)
            .map(|p| p as u32)
    }

    fn dep_version(&self, key: u32) -> u64 {
        if key & INTENT_DEP_BIT != 0 {
            self.intent_versions[(key & !INTENT_DEP_BIT) as usize]
        } else {
            self.field_versions[key as usize]
        }
    }

    /// Reads a field's abstract value, recording the dependency in the
    /// current activation (absent fields read as top; their version still
    /// guards against later first writes).
    fn read_field(&mut self, idx: usize) -> Val {
        let version = self.field_versions[idx];
        if let Some(f) = self.dep_stack.last_mut() {
            f.deps.push((idx as u32, version));
        }
        self.fields[idx].unwrap_or_else(Val::top)
    }

    /// Joins a value into a field, bumping its version when the readable
    /// state changes (including the first write of the bottom value,
    /// which turns reads from top into the joined state).
    fn write_field(&mut self, idx: usize, v: &Val) {
        let slot = &mut self.fields[idx];
        let newly = slot.is_none();
        let changed = slot.get_or_insert_with(Val::default).join(v);
        if newly || changed {
            self.field_versions[idx] += 1;
        }
    }

    fn record_intent_dep(&mut self, idx: usize) {
        let version = self.intent_versions[idx];
        if let Some(f) = self.dep_stack.last_mut() {
            f.deps.push((INTENT_DEP_BIT | idx as u32, version));
        }
    }

    /// Analyzes one method under abstract arguments; returns the abstract
    /// return value.
    fn analyze_method(&mut self, node: MethodNode, args: &[Val], depth: usize) -> Val {
        if depth > MAX_DEPTH {
            return Val::top();
        }
        let nkey = node_key(node);
        let mkey = (nkey, args_fingerprint(args));
        if let Some(variants) = self.memo.get(&mkey) {
            if let Some(entry) = variants
                .iter()
                .find(|(a, _)| a.as_slice() == args)
                .map(|(_, e)| e)
            {
                // Entries touched this run are reused unconditionally (the
                // reference memo does the same within a run). Older entries
                // must prove a replay would reproduce the reference result.
                let valid = entry.validated_run == self.run
                    || (entry.depth == depth as u32
                        && self.stack_pos(nkey).is_none()
                        && entry.deps.iter().all(|&(d, v)| self.dep_version(d) == v)
                        && entry.entered.iter().all(|x| self.stack_pos(x).is_none())
                        && entry
                            .ext_blocked
                            .iter()
                            .all(|x| self.stack_pos(x).is_some()));
                if valid {
                    self.summary_hits += 1;
                    let run = self.run;
                    // Disjoint field borrows: the entry stays borrowed from
                    // `memo` while the parent frame (a different field) is
                    // updated, so nothing is cloned on the hit path.
                    let entry = self
                        .memo
                        .get_mut(&mkey)
                        .and_then(|vs| vs.iter_mut().find(|(a, _)| a.as_slice() == args))
                        .map(|(_, e)| e)
                        .expect("entry present");
                    entry.validated_run = run;
                    let ret = entry.ret;
                    if !self.dep_stack.is_empty() {
                        let blocked: Vec<(u64, u32)> = entry
                            .ext_blocked
                            .iter()
                            .map(|x| {
                                let pos = self
                                    .dep_stack
                                    .iter()
                                    .position(|f| f.node == x)
                                    .map(|p| p as u32);
                                (x, pos.unwrap_or(ALWAYS_EXTERNAL))
                            })
                            .collect();
                        let parent = self.dep_stack.last_mut().expect("non-empty stack");
                        parent.deps.extend_from_slice(&entry.deps);
                        parent.entered.merge(&entry.entered);
                        parent.entered.insert(nkey);
                        parent.blocked.extend_from_slice(&blocked);
                    }
                    return ret;
                }
            }
        }
        if let Some(q) = self.stack_pos(nkey) {
            // Recursion breaker. Record the blocked call (and its
            // blocker's position) in the enclosing activation.
            if let Some(f) = self.dep_stack.last_mut() {
                f.blocked.push((nkey, q));
            }
            return Val::top();
        }
        self.summary_misses += 1;
        self.dep_stack.push(DepFrame {
            node: nkey,
            deps: Vec::new(),
            entered: SmallSet::default(),
            blocked: Vec::new(),
        });
        let ret = self.interpret(node, args, depth);
        let frame = self.dep_stack.pop().expect("frame pushed");
        let p = self.dep_stack.len() as u32;
        // Blocked calls whose blocker sat within this activation replay
        // identically; only externally-blocked ones become requirements.
        let mut ext_blocked = SmallSet::default();
        let mut keep_blocked: Vec<(u64, u32)> = Vec::new();
        for (x, q) in frame.blocked {
            if q != ALWAYS_EXTERNAL && q >= p {
                continue;
            }
            ext_blocked.insert(x);
            keep_blocked.push((x, q));
        }
        let mut deps = frame.deps;
        deps.sort_unstable();
        deps.dedup();
        if let Some(parent) = self.dep_stack.last_mut() {
            parent.deps.extend_from_slice(&deps);
            parent.entered.merge(&frame.entered);
            parent.entered.insert(nkey);
            parent.blocked.extend_from_slice(&keep_blocked);
        }
        let entry = MemoEntry {
            ret,
            depth: depth as u32,
            validated_run: self.run,
            deps,
            entered: frame.entered,
            ext_blocked,
        };
        let variants = self.memo.entry(mkey).or_default();
        if let Some(slot) = variants.iter_mut().find(|(a, _)| a.as_slice() == args) {
            slot.1 = entry;
        } else {
            variants.push((args.to_vec(), entry));
        }
        ret
    }

    /// Runs the flow-sensitive worklist interpretation of one method body.
    fn interpret(&mut self, node: MethodNode, args: &[Val], depth: usize) -> Val {
        let dex = self.dex;
        let nk = node_key(node);
        let method = &dex.classes[node.0].methods[node.1];
        let code = &method.code;
        let num_regs = method.num_registers as usize;
        let first_param = num_regs - method.num_params as usize;

        let mut init = Frame {
            regs: vec![Val::default(); num_regs],
            pending: Val::default(),
        };
        let params = args.len().min(method.num_params as usize);
        init.regs[first_param..first_param + params].copy_from_slice(&args[..params]);
        let mut ret = Val::default();
        if code.is_empty() {
            return ret;
        }
        let mut states: Vec<Option<Frame>> = vec![None; code.len()];
        states[0] = Some(init);
        let mut worklist = vec![0usize];
        // Joins a state into a successor, re-queuing it on change. A
        // program point's frame is allocated once, when first reached.
        fn flow_into(
            states: &mut [Option<Frame>],
            worklist: &mut Vec<usize>,
            s: usize,
            state: &Frame,
        ) {
            if s >= states.len() {
                return;
            }
            let changed = match &mut states[s] {
                Some(existing) => existing.join(state),
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed {
                worklist.push(s);
            }
        }
        // The working frame and the invoke-argument buffer live across
        // visits, so a visit copies values into them without allocating.
        // Every instruction reads its operands before writing its
        // destination, so the working frame serves as both pre- and
        // post-state.
        let mut next = Frame {
            regs: Vec::with_capacity(num_regs),
            pending: Val::default(),
        };
        let mut arg_values: Vec<Val> = Vec::new();
        while let Some(pc) = worklist.pop() {
            let Some(state) = &states[pc] else {
                continue;
            };
            next.regs.clone_from(&state.regs);
            next.pending = state.pending;
            self.visited += 1;
            let instr = &code[pc];
            // Fall-through / branch successors (at most two).
            let mut succ1: Option<usize> = None;
            let mut succ2: Option<usize> = None;
            match instr {
                Instr::Nop => succ1 = Some(pc + 1),
                Instr::ConstString { dst, value } => {
                    next.regs[dst.index()] = Val::of_string(value.index() as u32);
                    succ1 = Some(pc + 1);
                }
                Instr::ConstInt { dst, value } => {
                    next.regs[dst.index()] = Val::of_int(*value);
                    succ1 = Some(pc + 1);
                }
                Instr::ConstNull { dst } => {
                    next.regs[dst.index()] = Val::default();
                    succ1 = Some(pc + 1);
                }
                Instr::Move { dst, src } => {
                    next.regs[dst.index()] = next.regs[src.index()];
                    succ1 = Some(pc + 1);
                }
                Instr::NewInstance { dst, class } => {
                    if Some(*class) == self.index.intent_type {
                        let site = (nk, pc as u32);
                        let idx = match self.intent_sites.get(&site) {
                            Some(&i) => i,
                            None => {
                                self.intents.push(IntentState::default());
                                self.intent_versions.push(0);
                                let i = (self.intents.len() - 1) as u32;
                                self.intent_sites.insert(site, i);
                                i
                            }
                        };
                        let mut v = Val::default();
                        v.intents.insert(idx);
                        next.regs[dst.index()] = v;
                    } else {
                        next.regs[dst.index()] = Val::top();
                    }
                    succ1 = Some(pc + 1);
                }
                Instr::Invoke {
                    method: m, args, ..
                } => {
                    arg_values.clear();
                    arg_values.extend(args.iter().map(|r| next.regs[r.index()]));
                    next.pending = self.abstract_invoke(*m, &arg_values, depth);
                    succ1 = Some(pc + 1);
                }
                Instr::MoveResult { dst } => {
                    next.regs[dst.index()] = std::mem::take(&mut next.pending);
                    succ1 = Some(pc + 1);
                }
                Instr::IGet { dst, object, field } => {
                    let _ = object;
                    next.regs[dst.index()] = self.read_field(field.index());
                    succ1 = Some(pc + 1);
                }
                Instr::IPut { src, object, field } => {
                    let _ = object;
                    self.write_field(field.index(), &next.regs[src.index()]);
                    succ1 = Some(pc + 1);
                }
                Instr::SGet { dst, field } => {
                    next.regs[dst.index()] = self.read_field(field.index());
                    succ1 = Some(pc + 1);
                }
                Instr::SPut { src, field } => {
                    self.write_field(field.index(), &next.regs[src.index()]);
                    succ1 = Some(pc + 1);
                }
                Instr::IfEqz { reg, target } => {
                    match next.regs[reg.index()]
                        .definite_nonzero()
                        .filter(|_| self.options.prune_dead_branches)
                    {
                        Some(true) => succ1 = Some(pc + 1),
                        Some(false) => succ1 = Some(*target as usize),
                        None => {
                            succ1 = Some(pc + 1);
                            succ2 = Some(*target as usize);
                        }
                    }
                }
                Instr::IfNez { reg, target } => {
                    match next.regs[reg.index()]
                        .definite_nonzero()
                        .filter(|_| self.options.prune_dead_branches)
                    {
                        Some(true) => succ1 = Some(*target as usize),
                        Some(false) => succ1 = Some(pc + 1),
                        None => {
                            succ1 = Some(pc + 1);
                            succ2 = Some(*target as usize);
                        }
                    }
                }
                Instr::Goto { target } => succ1 = Some(*target as usize),
                Instr::BinOp { op, dst, lhs, rhs } => {
                    let l = &next.regs[lhs.index()];
                    let r = &next.regs[rhs.index()];
                    let mut v = Val::default();
                    if l.unknown || r.unknown || l.ints.is_empty() || r.ints.is_empty() {
                        v.unknown = true;
                    } else {
                        for a in l.ints.iter() {
                            for b in r.ints.iter() {
                                v.ints.insert(match op {
                                    BinOp::Add => a.wrapping_add(b),
                                    BinOp::Sub => a.wrapping_sub(b),
                                    BinOp::Mul => a.wrapping_mul(b),
                                    BinOp::CmpEq => i64::from(a == b),
                                });
                            }
                        }
                        v.widen();
                    }
                    // Taints union *after* widening, without re-widening
                    // (reference behavior).
                    v.taints.union(l.taints);
                    v.taints.union(r.taints);
                    next.regs[dst.index()] = v;
                    succ1 = Some(pc + 1);
                }
                Instr::ReturnVoid => {}
                Instr::Return { reg } => {
                    ret.join(&next.regs[reg.index()]);
                }
                Instr::Throw { .. } => {}
            }
            for s in [succ1, succ2].into_iter().flatten() {
                flow_into(&mut states, &mut worklist, s, &next);
            }
        }
        ret
    }

    /// Handles one (abstract) invocation: framework semantics or callee
    /// inlining.
    fn abstract_invoke(&mut self, method: MethodId, args: &[Val], depth: usize) -> Val {
        let info = self.index.invoke[method.index()];
        if let Some(p) = info.permission {
            self.used_permissions.insert(p);
        }

        match info.kind {
            ApiKind::Source(resource) => {
                let mut v = Val::top();
                v.taints.insert(resource);
                v
            }
            ApiKind::Sink(resource) => {
                for a in args {
                    for t in a.taints.iter() {
                        self.flows.insert(FlowPath::new(t, resource));
                    }
                    // Anything read from an Intent counts as ICC-sourced
                    // even without an explicit read call on record.
                    for i in a.intents.iter() {
                        if self.intents[i as usize].is_received {
                            self.flows.insert(FlowPath::new(Resource::Icc, resource));
                        }
                    }
                }
                Val::top()
            }
            ApiKind::Icc(icc) => {
                let bit = icc_bit(icc);
                for a in args {
                    for idx in a.intents.iter() {
                        let idx = idx as usize;
                        self.record_intent_dep(idx);
                        let entry = &mut self.intents[idx];
                        entry.sent_via |= bit;
                        // Data leaving in an Intent is an ICC-sink flow.
                        let taints = entry.extra_taints;
                        for t in taints.iter() {
                            self.flows.insert(FlowPath::new(t, Resource::Icc));
                        }
                    }
                }
                Val::top()
            }
            ApiKind::IntentRead => {
                if info.is_get_intent {
                    // Returns the component's received intent itself.
                    let mut v = Val::top();
                    v.intents.insert(RECEIVED_INTENT as u32);
                    return v;
                }
                let mut v = Val::top();
                let from_received = args
                    .iter()
                    .flat_map(|a| a.intents.iter())
                    .any(|i| self.intents[i as usize].is_received);
                if from_received {
                    v.taints.insert(Resource::Icc);
                }
                v
            }
            ApiKind::IntentConfig(kind) => {
                self.apply_intent_config(kind, args);
                Val::default()
            }
            ApiKind::PermissionCheck => {
                for a in &args[1.min(args.len())..] {
                    for s in a.strings.iter() {
                        self.dynamic_checks.insert(s);
                    }
                }
                Val::top()
            }
            ApiKind::DynamicRegister => {
                // SEPAR's extractor observes the call but does NOT model
                // the attached filter (the paper's documented limitation);
                // AmanDroid-profile runs do.
                self.registers_dynamically = true;
                if self.options.model_dynamic_receivers {
                    let dex = self.dex;
                    let resolve_sorted = |a: Option<&Val>| -> Vec<&str> {
                        let mut out: Vec<&str> = a
                            .map(|a| {
                                a.strings
                                    .iter()
                                    .map(|id| dex.pools.str_at(StrId::from_index(id as usize)))
                                    .collect()
                            })
                            .unwrap_or_default();
                        out.sort_unstable();
                        out
                    };
                    let classes = resolve_sorted(args.get(1));
                    let actions = resolve_sorted(args.get(2));
                    for c in &classes {
                        for a in &actions {
                            let pair = (c.to_string(), a.to_string());
                            if !self.dynamic_filters.contains(&pair) {
                                self.dynamic_filters.push(pair);
                            }
                        }
                    }
                }
                Val::top()
            }
            ApiKind::Neutral => {
                // Program-defined method? Inline it. Otherwise an unknown
                // API: propagate taint conservatively.
                if let Some(target) = info.target {
                    return self.analyze_method(target, args, depth + 1);
                }
                let mut v = Val::top();
                for a in args {
                    v.taints.union(a.taints);
                }
                v
            }
        }
    }

    fn apply_intent_config(&mut self, kind: IntentConfigKind, args: &[Val]) {
        let Some(receiver) = args.first() else {
            return;
        };
        let rest = &args[1..];
        let rest_strings = || rest.iter().flat_map(|a| a.strings.iter());
        let rest_unknown = rest.iter().any(|a| a.unknown && a.strings.is_empty());
        let dex = self.dex;
        for idx in receiver.intents.iter() {
            let idx = idx as usize;
            match kind {
                IntentConfigKind::Init => {}
                IntentConfigKind::SetAction => {
                    let entry = &mut self.intents[idx];
                    for s in rest_strings() {
                        entry.actions.insert(s);
                    }
                    if rest_unknown {
                        entry.actions_unknown = true;
                    }
                }
                IntentConfigKind::AddCategory => {
                    let entry = &mut self.intents[idx];
                    for s in rest_strings() {
                        entry.categories.insert(s);
                    }
                }
                IntentConfigKind::SetType => {
                    let entry = &mut self.intents[idx];
                    for s in rest_strings() {
                        entry.data_types.insert(s);
                    }
                }
                IntentConfigKind::SetData => {
                    let entry = &mut self.intents[idx];
                    for s in rest_strings() {
                        // The scheme is everything before the first ':'.
                        let text = dex.pools.str_at(StrId::from_index(s as usize));
                        let scheme = text.split(':').next().unwrap_or(text).to_string();
                        entry.data_schemes.insert(scheme);
                    }
                }
                IntentConfigKind::PutExtra => {
                    let entry = &mut self.intents[idx];
                    if let Some(key) = rest.first() {
                        for s in key.strings.iter() {
                            entry.extra_keys.insert(s);
                        }
                    }
                    let mut changed = false;
                    for value in rest.iter().skip(1) {
                        changed |= entry.extra_taints.union(value.taints);
                    }
                    if changed {
                        // Later ICC sends read these taints: invalidate
                        // summaries that read the previous state.
                        self.intent_versions[idx] += 1;
                    }
                }
                IntentConfigKind::SetTarget => {
                    let entry = &mut self.intents[idx];
                    for s in rest_strings() {
                        let text = dex.pools.str_at(StrId::from_index(s as usize));
                        if text.starts_with('L') && text.ends_with(';') {
                            entry.targets.insert(s);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_android::api::class;
    use separ_android::types::perm;
    use separ_dex::build::ApkBuilder;
    use separ_dex::manifest::{ComponentDecl, ComponentKind};

    /// Strips the counters that legitimately differ between strategies.
    fn normalized(mut f: ComponentFacts) -> ComponentFacts {
        f.instructions_visited = 0;
        f.summary_hits = 0;
        f.summary_misses = 0;
        f
    }

    /// Asserts the summary strategy extracts exactly the reference facts.
    fn assert_strategies_agree(apk: &Apk, component: &str) {
        let summaries = analyze_component_with(apk, component, AnalysisOptions::default());
        let reference = analyze_component_with(
            apk,
            component,
            AnalysisOptions {
                strategy: AnalysisStrategy::PerContext,
                ..AnalysisOptions::default()
            },
        );
        assert_eq!(
            normalized(summaries),
            normalized(reference),
            "strategies diverged on {component}"
        );
    }

    /// Builds Listing 1's LocationFinder: reads GPS, puts it into an
    /// implicit intent, startService.
    fn location_finder() -> Apk {
        let mut apk = ApkBuilder::new("com.example.navigator");
        apk.uses_permission(perm::ACCESS_FINE_LOCATION);
        apk.add_component(ComponentDecl::new(
            "Lcom/example/LocationFinder;",
            ComponentKind::Service,
        ));
        let mut cb = apk.class_extends("Lcom/example/LocationFinder;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 3, false, false);
        let loc = m.reg();
        let intent = m.reg();
        let s = m.reg();
        m.invoke_virtual(
            class::LOCATION_MANAGER,
            "getLastKnownLocation",
            &[loc],
            true,
        );
        m.move_result(loc);
        m.new_instance(intent, class::INTENT);
        m.const_string(s, "showLoc");
        m.invoke_virtual(class::INTENT, "setAction", &[intent, s], false);
        m.const_string(s, "locationInfo");
        m.invoke_virtual(class::INTENT, "putExtra", &[intent, s, loc], false);
        m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), intent], false);
        m.ret_void();
        m.finish();
        cb.finish();
        apk.finish()
    }

    #[test]
    fn listing1_extraction() {
        let apk = location_finder();
        let facts = analyze_component(&apk, "Lcom/example/LocationFinder;");
        // The Location -> ICC path is found.
        assert!(
            facts
                .flows
                .contains(&FlowPath::new(Resource::Location, Resource::Icc)),
            "flows: {:?}",
            facts.flows
        );
        // The sent intent has the right action and tainted extra.
        let sent: Vec<&AbstractIntent> = facts
            .intents
            .iter()
            .filter(|i| !i.sent_via.is_empty())
            .collect();
        assert_eq!(sent.len(), 1);
        assert!(sent[0].actions.contains("showLoc"));
        assert!(sent[0].extra_keys.contains("locationInfo"));
        assert!(sent[0].extra_taints.contains(&Resource::Location));
        assert!(sent[0].sent_via.contains(&IccMethod::StartService));
        // Location permission usage recorded.
        assert!(facts.used_permissions.contains(perm::ACCESS_FINE_LOCATION));
        assert_strategies_agree(&apk, "Lcom/example/LocationFinder;");
    }

    /// Builds Listing 2's MessageSender: reads intent extras, sends SMS,
    /// with an (uncalled) hasPermission check.
    fn message_sender(call_check: bool) -> Apk {
        let mut apk = ApkBuilder::new("com.example.messenger");
        apk.uses_permission(perm::SEND_SMS);
        let mut decl = ComponentDecl::new("Lcom/example/MessageSender;", ComponentKind::Service);
        decl.exported = Some(true);
        apk.add_component(decl);
        let mut cb = apk.class_extends("Lcom/example/MessageSender;", class::SERVICE);
        {
            let mut m = cb.method("onStartCommand", 3, false, false);
            let num = m.reg();
            let msg = m.reg();
            let k = m.reg();
            let intent = m.param(1);
            m.const_string(k, "PHONE_NUM");
            m.invoke_virtual(class::INTENT, "getStringExtra", &[intent, k], true);
            m.move_result(num);
            m.const_string(k, "TEXT_MSG");
            m.invoke_virtual(class::INTENT, "getStringExtra", &[intent, k], true);
            m.move_result(msg);
            if call_check {
                let ok = m.reg();
                let done = m.new_label();
                m.invoke_virtual(
                    "Lcom/example/MessageSender;",
                    "hasPermission",
                    &[m.this()],
                    true,
                );
                m.move_result(ok);
                m.if_eqz(ok, done);
                m.invoke_virtual(
                    "Lcom/example/MessageSender;",
                    "sendText",
                    &[m.this(), num, msg],
                    false,
                );
                m.bind(done);
            } else {
                m.invoke_virtual(
                    "Lcom/example/MessageSender;",
                    "sendText",
                    &[m.this(), num, msg],
                    false,
                );
            }
            m.ret_void();
            m.finish();
        }
        {
            let mut m = cb.method("sendText", 3, false, false);
            let mgr = m.reg();
            m.invoke_static(class::SMS_MANAGER, "getDefault", &[], true);
            m.move_result(mgr);
            m.invoke_virtual(
                class::SMS_MANAGER,
                "sendTextMessage",
                &[mgr, m.param(1), m.param(2)],
                false,
            );
            m.ret_void();
            m.finish();
        }
        {
            let mut m = cb.method("hasPermission", 1, false, true);
            let p = m.reg();
            let r = m.reg();
            m.const_string(p, perm::SEND_SMS);
            m.invoke_virtual(
                class::CONTEXT,
                "checkCallingPermission",
                &[m.this(), p],
                true,
            );
            m.move_result(r);
            m.ret(r);
            m.finish();
        }
        cb.finish();
        apk.finish()
    }

    #[test]
    fn listing2_finds_icc_to_sms_flow() {
        let apk = message_sender(false);
        let facts = analyze_component(&apk, "Lcom/example/MessageSender;");
        assert!(
            facts
                .flows
                .contains(&FlowPath::new(Resource::Icc, Resource::Sms)),
            "flows: {:?}",
            facts.flows
        );
        // hasPermission is never called: the check is NOT recorded.
        assert!(facts.dynamic_checks.is_empty());
        assert!(facts.used_permissions.contains(perm::SEND_SMS));
        assert_strategies_agree(&apk, "Lcom/example/MessageSender;");
    }

    #[test]
    fn reachable_permission_check_is_recorded() {
        let apk = message_sender(true);
        let facts = analyze_component(&apk, "Lcom/example/MessageSender;");
        assert!(facts.dynamic_checks.contains(perm::SEND_SMS));
        // The flow still exists on the permission-granted path.
        assert!(facts
            .flows
            .contains(&FlowPath::new(Resource::Icc, Resource::Sms)));
        assert_strategies_agree(&apk, "Lcom/example/MessageSender;");
    }

    #[test]
    fn dead_branch_leak_is_pruned() {
        // const v0, 0; if-eqz v0 -> skip; <leak>; skip: return
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LDead;", ComponentKind::Service));
        let mut cb = apk.class_extends("LDead;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 3, false, false);
        let flag = m.reg();
        let loc = m.reg();
        let skip = m.new_label();
        m.const_int(flag, 0);
        m.if_eqz(flag, skip);
        // Unreachable leak:
        m.invoke_virtual(
            class::LOCATION_MANAGER,
            "getLastKnownLocation",
            &[loc],
            true,
        );
        m.move_result(loc);
        m.invoke_virtual(class::SMS_MANAGER, "sendTextMessage", &[loc], false);
        m.bind(skip);
        m.ret_void();
        m.finish();
        cb.finish();
        let apk = apk.finish();
        let facts = analyze_component(&apk, "LDead;");
        assert!(
            facts.flows.is_empty(),
            "dead leak must be ignored: {:?}",
            facts.flows
        );
        assert_strategies_agree(&apk, "LDead;");
    }

    #[test]
    fn taint_survives_field_round_trip() {
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LFieldy;", ComponentKind::Service));
        let mut cb = apk.class_extends("LFieldy;", class::SERVICE);
        cb.field("stash", false);
        let mut m = cb.method("onStartCommand", 3, false, false);
        let v = m.reg();
        m.invoke_virtual(class::TELEPHONY_MANAGER, "getDeviceId", &[v], true);
        m.move_result(v);
        m.iput(v, m.this(), "LFieldy;", "stash");
        m.iget(v, m.this(), "LFieldy;", "stash");
        m.invoke_virtual(class::LOG, "d", &[v], false);
        m.ret_void();
        m.finish();
        cb.finish();
        let apk = apk.finish();
        let facts = analyze_component(&apk, "LFieldy;");
        assert!(facts
            .flows
            .contains(&FlowPath::new(Resource::DeviceId, Resource::Log)));
        assert_strategies_agree(&apk, "LFieldy;");
    }

    #[test]
    fn dynamic_register_is_flagged_but_not_modelled() {
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LDyn;", ComponentKind::Activity));
        let mut cb = apk.class_extends("LDyn;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let r = m.reg();
        m.invoke_virtual(class::CONTEXT, "registerReceiver", &[m.this(), r], true);
        m.ret_void();
        m.finish();
        cb.finish();
        let apk = apk.finish();
        let facts = analyze_component(&apk, "LDyn;");
        assert!(facts.registers_dynamically);
        assert_strategies_agree(&apk, "LDyn;");
    }

    #[test]
    fn taint_propagates_through_helper_methods() {
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LHelperApp;", ComponentKind::Service));
        let mut cb = apk.class_extends("LHelperApp;", class::SERVICE);
        {
            let mut m = cb.method("onStartCommand", 3, false, false);
            let v = m.reg();
            m.invoke_virtual(class::LOCATION_MANAGER, "getLastKnownLocation", &[v], true);
            m.move_result(v);
            m.invoke_virtual("LHelperApp;", "launder", &[m.this(), v], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.ret_void();
            m.finish();
        }
        {
            // launder(x) { return wrap(x) } ; wrap(x) { return x }
            let mut m = cb.method("launder", 2, false, true);
            let r = m.reg();
            m.invoke_virtual("LHelperApp;", "wrap", &[m.this(), m.param(1)], true);
            m.move_result(r);
            m.ret(r);
            m.finish();
            let mut m = cb.method("wrap", 2, false, true);
            m.ret(m.param(1));
            m.finish();
        }
        cb.finish();
        let apk = apk.finish();
        let facts = analyze_component(&apk, "LHelperApp;");
        assert!(facts
            .flows
            .contains(&FlowPath::new(Resource::Location, Resource::Log)));
        assert_strategies_agree(&apk, "LHelperApp;");
    }

    #[test]
    fn explicit_target_extraction() {
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LSender;", ComponentKind::Activity));
        let mut cb = apk.class_extends("LSender;", class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let t = m.reg();
        m.new_instance(i, class::INTENT);
        m.const_string(t, "Lcom/other/Target;");
        m.invoke_virtual(class::INTENT, "setClassName", &[i, t], false);
        m.invoke_virtual(
            class::ACTIVITY,
            "startActivityForResult",
            &[m.this(), i],
            false,
        );
        m.ret_void();
        m.finish();
        cb.finish();
        let apk = apk.finish();
        let facts = analyze_component(&apk, "LSender;");
        let sent: Vec<_> = facts
            .intents
            .iter()
            .filter(|x| !x.sent_via.is_empty())
            .collect();
        assert_eq!(sent.len(), 1);
        assert!(sent[0].targets.contains("Lcom/other/Target;"));
        assert!(sent[0]
            .sent_via
            .contains(&IccMethod::StartActivityForResult));
        assert_strategies_agree(&apk, "LSender;");
    }

    /// Self- and mutually-recursive helpers: the recursion breaker and
    /// the summary footprint validation must agree with the reference.
    #[test]
    fn recursion_is_handled_identically_by_both_strategies() {
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LRec;", ComponentKind::Service));
        let mut cb = apk.class_extends("LRec;", class::SERVICE);
        {
            let mut m = cb.method("onStartCommand", 3, false, false);
            let v = m.reg();
            m.invoke_virtual(class::TELEPHONY_MANAGER, "getDeviceId", &[v], true);
            m.move_result(v);
            m.invoke_virtual("LRec;", "ping", &[m.this(), v], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.invoke_virtual("LRec;", "selfish", &[m.this(), v], true);
            m.move_result(v);
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.ret_void();
            m.finish();
        }
        {
            // ping(x) -> pong(x) -> ping(x): mutual recursion.
            let mut m = cb.method("ping", 2, false, true);
            let r = m.reg();
            m.invoke_virtual("LRec;", "pong", &[m.this(), m.param(1)], true);
            m.move_result(r);
            m.ret(r);
            m.finish();
            let mut m = cb.method("pong", 2, false, true);
            let r = m.reg();
            m.invoke_virtual("LRec;", "ping", &[m.this(), m.param(1)], true);
            m.move_result(r);
            m.ret(r);
            m.finish();
            // selfish(x) -> selfish(x): direct recursion.
            let mut m = cb.method("selfish", 2, false, true);
            let r = m.reg();
            m.invoke_virtual("LRec;", "selfish", &[m.this(), m.param(1)], true);
            m.move_result(r);
            m.ret(r);
            m.finish();
        }
        cb.finish();
        let apk = apk.finish();
        assert_strategies_agree(&apk, "LRec;");
    }

    /// Cross-entry-point field propagation forces extra fixpoint rounds;
    /// the summary strategy must answer the repeats from its memo while
    /// extracting the same facts.
    #[test]
    fn summaries_are_reused_across_fixpoint_rounds() {
        let mut apk = ApkBuilder::new("t");
        apk.add_component(ComponentDecl::new("LRounds;", ComponentKind::Service));
        let mut cb = apk.class_extends("LRounds;", class::SERVICE);
        cb.field("stash", false);
        {
            // onCreate stores tainted data into the field...
            let mut m = cb.method("onCreate", 1, false, false);
            let v = m.reg();
            m.invoke_virtual(class::LOCATION_MANAGER, "getLastKnownLocation", &[v], true);
            m.move_result(v);
            m.iput(v, m.this(), "LRounds;", "stash");
            m.ret_void();
            m.finish();
        }
        {
            // ...and onStartCommand leaks it.
            let mut m = cb.method("onStartCommand", 3, false, false);
            let v = m.reg();
            m.iget(v, m.this(), "LRounds;", "stash");
            m.invoke_virtual(class::LOG, "d", &[v], false);
            m.ret_void();
            m.finish();
        }
        cb.finish();
        let apk = apk.finish();
        let facts = analyze_component(&apk, "LRounds;");
        assert!(facts
            .flows
            .contains(&FlowPath::new(Resource::Location, Resource::Log)));
        assert!(
            facts.summary_hits > 0,
            "fixpoint repeats should reuse summaries: {facts:?}"
        );
        assert_strategies_agree(&apk, "LRounds;");
    }

    /// The default options must equal explicitly-spelled defaults, so
    /// `extract_apk` (which uses the former) and `extract_apk_with`
    /// cannot drift.
    #[test]
    fn default_options_match_explicit_defaults() {
        let d = AnalysisOptions::default();
        assert!(d.prune_dead_branches);
        assert!(!d.model_dynamic_receivers);
        assert_eq!(d.strategy, AnalysisStrategy::Summaries);
        assert_eq!(d.strategy, AnalysisStrategy::default());
    }
}
