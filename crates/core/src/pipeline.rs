//! The SEPAR façade: bundle in, report out.
//!
//! Orchestrates the full ASE pipeline: passive-intent resolution across
//! the bundle (Algorithm 1), per-signature exploit synthesis, and ECA
//! policy derivation. Extraction fans out across the bundle and synthesis
//! fans out across the signature registry on the shared [`Executor`];
//! results merge in bundle/registry order, so the [`Report`] is identical
//! whatever [`SeparConfig::threads`] says (only the wall-clock timings in
//! [`BundleStats`] vary).
//!
//! Every timing field of [`BundleStats`] is **derived from the span
//! tree** recorded by the global [`separ_obs`] collector (one source of
//! truth for "where did the time go"; the same spans feed `--trace`
//! exports). When the collector is disabled — the default — the span
//! probes are no-ops and all timing fields are zero; the count-type
//! fields are always populated. Timing consumers (the CLI, the bench
//! crate) enable the collector first.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use separ_analysis::cache::{CacheOutcome, ModelCache};
use separ_analysis::extractor::{extract, extract_apk};
use separ_analysis::model::{update_passive_intent_targets, AppModel};
use separ_analysis::slicing::{self, AppSummary};
use separ_android::resolution;
use separ_dex::error::DexError;
use separ_dex::manifest::ComponentKind;
use separ_dex::program::Apk;
use separ_logic::{Atom, LogicError, Problem, SolverStats};

use crate::encode::{AtomRegistry, BundleBase, Relations};
use crate::exec::Executor;
use crate::exploit::{Exploit, VulnKind};
use crate::footprint::{Footprint, MalReceivers};
use crate::policy::{finalize_policies, policies_for_exploit, Policy};
use crate::reuse::{ModelAddress, ResultKey};
use crate::signature::{SignatureRegistry, Synthesis, SynthesisContext, VulnerabilitySignature};
use crate::vulns::DEFAULT_SCENARIO_LIMIT;

/// Tunables for an analysis run. There is one synthesis path: every
/// signature is sliced to its footprint and lowered with the
/// polarity-aware CNF encoding.
#[derive(Debug, Clone, Copy)]
pub struct SeparConfig {
    /// Worker threads for extraction and per-signature synthesis;
    /// `0` means one per available hardware thread.
    pub threads: usize,
    /// Maximum minimal scenarios enumerated per signature.
    pub scenario_limit: usize,
}

impl Default for SeparConfig {
    fn default() -> SeparConfig {
        SeparConfig {
            threads: 0,
            scenario_limit: DEFAULT_SCENARIO_LIMIT,
        }
    }
}

impl SeparConfig {
    /// A strictly single-threaded configuration (the reference the
    /// determinism suite compares parallel runs against).
    pub fn serial() -> SeparConfig {
        SeparConfig {
            threads: 1,
            ..SeparConfig::default()
        }
    }
}

/// One signature's contribution to a bundle analysis (per-stage timing
/// plus the count-type results).
#[derive(Debug, Clone)]
pub struct SignatureStats {
    /// The signature plugin's name.
    pub name: &'static str,
    /// Time translating relational logic to CNF.
    pub construction: Duration,
    /// Time inside the SAT solver.
    pub solving: Duration,
    /// The rest of the signature's time: its `ase.signature` span minus
    /// `logic.translate` and `logic.solve` — building the problem,
    /// decoding and dropping instances, the finder's teardown.
    pub enumerate: Duration,
    /// Primary (free) boolean variables in the instance.
    pub primary_vars: usize,
    /// CNF clauses asserted into the SAT solver.
    pub cnf_clauses: usize,
    /// Whether the signature translated from the shared per-bundle base.
    pub shared_base: bool,
    /// SAT-solver counters accumulated across the enumeration.
    pub solver: SolverStats,
    /// Exploit scenarios the signature decoded.
    pub exploits: usize,
    /// Apps the relevance slice kept for this signature (equals the
    /// bundle size when the footprint keeps everything).
    pub slice_kept: usize,
    /// Apps the relevance slice excluded from this signature's universe.
    pub slice_dropped: usize,
}

/// Aggregate statistics for one bundle analysis (Table II's columns plus
/// per-stage timing). CPU-summed durations add the time every worker
/// spent; wall durations measure the stage end to end, so
/// `*_cpu / *_wall` approximates the realized parallel speedup.
#[derive(Debug, Clone, Default)]
pub struct BundleStats {
    /// Components across the bundle.
    pub components: usize,
    /// Intent entities across the bundle.
    pub intents: usize,
    /// Intent filters across the bundle.
    pub filters: usize,
    /// Verification diagnostics across the bundle (all severities).
    pub diagnostics: usize,
    /// Method bodies the verifier quarantined across the bundle.
    pub quarantined_methods: usize,
    /// Wall-clock time of the extraction stage (zero for
    /// [`Separ::analyze_models`], which takes pre-extracted models).
    pub extraction_wall: Duration,
    /// CPU-summed extraction time across apps.
    pub extraction_cpu: Duration,
    /// Time resolving passive intent targets across the bundle
    /// (Algorithm 1; serial, it is a cross-app fixpoint).
    pub resolution: Duration,
    /// Total CNF-construction time across signatures (CPU-summed).
    pub construction: Duration,
    /// Total SAT time across signatures (CPU-summed).
    pub solving: Duration,
    /// Wall-clock time of the synthesis stage (all signatures).
    pub synthesis_wall: Duration,
    /// Total primary variables across signatures.
    pub primary_vars: usize,
    /// Total CNF clauses across signatures.
    pub cnf_clauses: usize,
    /// Signatures that translated from the shared per-bundle base.
    pub shared_base_reuse: usize,
    /// App slots kept across per-signature relevance slices (sums over
    /// signatures: at most `apps × signatures`).
    pub slice_kept: usize,
    /// App slots dropped across per-signature relevance slices.
    pub slice_dropped: usize,
    /// Total SAT conflicts across signatures.
    pub conflicts: u64,
    /// Total SAT propagations across signatures.
    pub propagations: u64,
    /// Apps whose model came from the content-hash cache (always zero
    /// without [`Separ::with_model_cache`]).
    pub cache_hits: usize,
    /// Apps whose model was extracted from scratch this run.
    pub cache_misses: usize,
    /// Per-signature breakdown, in registry order.
    pub per_signature: Vec<SignatureStats>,
}

impl BundleStats {
    /// The count-type portion of the stats: everything except timings.
    /// Two analyses of the same bundle must agree on this exactly,
    /// whatever their thread counts — the determinism suite asserts it.
    pub fn counts(&self) -> CountStats {
        CountStats {
            components: self.components,
            intents: self.intents,
            filters: self.filters,
            diagnostics: self.diagnostics,
            quarantined_methods: self.quarantined_methods,
            primary_vars: self.primary_vars,
            cnf_clauses: self.cnf_clauses,
            shared_base_reuse: self.shared_base_reuse,
            slice_kept: self.slice_kept,
            slice_dropped: self.slice_dropped,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            per_signature: self
                .per_signature
                .iter()
                .map(|s| (s.name, s.primary_vars, s.cnf_clauses, s.exploits))
                .collect(),
        }
    }
}

/// The timing-free projection of [`BundleStats`] (see
/// [`BundleStats::counts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountStats {
    /// Components across the bundle.
    pub components: usize,
    /// Intent entities across the bundle.
    pub intents: usize,
    /// Intent filters across the bundle.
    pub filters: usize,
    /// Verification diagnostics across the bundle (all severities).
    pub diagnostics: usize,
    /// Method bodies the verifier quarantined across the bundle.
    pub quarantined_methods: usize,
    /// Total primary variables across signatures.
    pub primary_vars: usize,
    /// Total CNF clauses across signatures (the solver is deterministic,
    /// so clause counts are exact and thread-independent).
    pub cnf_clauses: usize,
    /// Signatures that translated from the shared per-bundle base.
    pub shared_base_reuse: usize,
    /// App slots kept across per-signature relevance slices.
    pub slice_kept: usize,
    /// App slots dropped across per-signature relevance slices.
    pub slice_dropped: usize,
    /// Apps whose model came from the content-hash cache.
    pub cache_hits: usize,
    /// Apps whose model was extracted from scratch this run.
    pub cache_misses: usize,
    /// Per signature: `(name, primary_vars, cnf_clauses, exploits)` in
    /// registry order.
    pub per_signature: Vec<(&'static str, usize, usize, usize)>,
}

/// An end-to-end analysis failure: either a package failed to decode or
/// a signature produced an ill-typed specification.
#[derive(Debug)]
pub enum AnalyzeError {
    /// A binary package is malformed.
    Dex(DexError),
    /// A signature specification is ill-typed.
    Logic(LogicError),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Dex(e) => write!(f, "package decode failed: {e}"),
            AnalyzeError::Logic(e) => write!(f, "signature synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<DexError> for AnalyzeError {
    fn from(e: DexError) -> AnalyzeError {
        AnalyzeError::Dex(e)
    }
}

impl From<LogicError> for AnalyzeError {
    fn from(e: LogicError) -> AnalyzeError {
        AnalyzeError::Logic(e)
    }
}

/// The result of analyzing one bundle.
#[derive(Debug)]
pub struct Report {
    /// The (passive-intent-resolved) app models analyzed.
    pub apps: Vec<AppModel>,
    /// Synthesized exploit scenarios, all signatures.
    pub exploits: Vec<Exploit>,
    /// Derived, deduplicated ECA policies.
    pub policies: Vec<Policy>,
    /// Statistics.
    pub stats: BundleStats,
}

impl Report {
    /// Packages of apps vulnerable to the given category.
    pub fn vulnerable_apps(&self, kind: VulnKind) -> BTreeSet<&str> {
        self.exploits
            .iter()
            .filter(|e| e.kind() == kind)
            .map(|e| e.guarded_app())
            .collect()
    }

    /// Exploits of one category.
    pub fn exploits_of(&self, kind: VulnKind) -> impl Iterator<Item = &Exploit> + '_ {
        self.exploits.iter().filter(move |e| e.kind() == kind)
    }
}

/// The SEPAR analysis-and-synthesis engine.
///
/// # Examples
///
/// ```no_run
/// use separ_core::Separ;
///
/// let separ = Separ::new().with_threads(8);
/// let apks: Vec<separ_dex::Apk> = vec![/* a bundle */];
/// let report = separ.analyze_apks(&apks)?;
/// for policy in &report.policies {
///     println!("{policy:?}");
/// }
/// # Ok::<(), separ_logic::LogicError>(())
/// ```
#[derive(Debug)]
pub struct Separ {
    registry: SignatureRegistry,
    config: SeparConfig,
    model_cache: Option<Arc<ModelCache>>,
}

impl Default for Separ {
    fn default() -> Separ {
        Separ::new()
    }
}

impl Separ {
    /// SEPAR with the four standard signature plugins.
    pub fn new() -> Separ {
        Separ {
            registry: SignatureRegistry::standard(),
            config: SeparConfig::default(),
            model_cache: None,
        }
    }

    /// SEPAR with a custom plugin registry.
    pub fn with_registry(registry: SignatureRegistry) -> Separ {
        Separ {
            registry,
            config: SeparConfig::default(),
            model_cache: None,
        }
    }

    /// Attaches a content-hash model cache: extraction is skipped for
    /// packages whose bytes the cache has seen before (see
    /// [`ModelCache`]). Share one cache across engines to share its
    /// memory.
    pub fn with_model_cache(mut self, cache: Arc<ModelCache>) -> Separ {
        self.model_cache = Some(cache);
        self
    }

    /// The attached model cache, if any.
    pub fn model_cache(&self) -> Option<&Arc<ModelCache>> {
        self.model_cache.as_ref()
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: SeparConfig) -> Separ {
        self.config = config;
        self
    }

    /// Overrides just the worker-thread count (`0` = all hardware
    /// threads). The report is identical for every value; only wall-clock
    /// timings change.
    pub fn with_threads(mut self, threads: usize) -> Separ {
        self.config.threads = threads;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> SeparConfig {
        self.config
    }

    fn executor(&self) -> Executor {
        Executor::new(self.config.threads)
    }

    /// Analyzes a bundle of packages end to end (AME + ASE).
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature produced an ill-typed
    /// specification.
    pub fn analyze_apks(&self, apks: &[Apk]) -> Result<Report, LogicError> {
        self.analyze_extracted(apks, |apk| {
            Ok(match &self.model_cache {
                Some(cache) => Extracted::Cached(cache.get_or_extract_apk(apk)),
                None => Extracted::Fresh(extract_apk(apk)),
            })
        })
    }

    /// Analyzes a bundle of *binary* packages end to end: decode →
    /// verify → extract (or a cache hit skipping all three) → synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::Dex`] if an uncached package fails to
    /// decode, or [`AnalyzeError::Logic`] if a signature produced an
    /// ill-typed specification.
    pub fn analyze_packages(&self, packages: &[Vec<u8>]) -> Result<Report, AnalyzeError> {
        self.analyze_extracted(packages, |bytes| {
            Ok(match &self.model_cache {
                Some(cache) => Extracted::Cached(cache.get_or_extract(bytes)?),
                None => Extracted::Fresh(extract(bytes)?),
            })
        })
    }

    /// Extracts every input on the executor under a
    /// `pipeline.extraction` span, analyzes the models, and fills the
    /// report's extraction stats.
    fn analyze_extracted<T, E>(
        &self,
        inputs: &[T],
        extract: impl Fn(&T) -> Result<Extracted, E> + Sync,
    ) -> Result<Report, E>
    where
        T: Sync,
        E: From<LogicError> + Send,
    {
        let obs = separ_obs::global();
        let _root = obs.span("pipeline.analyze");
        let extraction = obs.span("pipeline.extraction");
        let extraction_id = extraction.id();
        let results = self.executor().try_ordered_map(inputs, extract)?;
        drop(extraction);
        let hits = results
            .iter()
            .filter(|e| matches!(e, Extracted::Cached((_, o)) if o.is_hit()))
            .count();
        let misses = results.len() - hits;
        // Passive-intent resolution mutates the models: one the cache
        // shares is cloned, a freshly extracted one is moved.
        let apps = results
            .into_iter()
            .map(|e| match e {
                Extracted::Fresh(m) => m,
                Extracted::Cached((m, _)) => AppModel::clone(&m),
            })
            .collect();
        let mut report = self.analyze_models(apps)?;
        // Wall time is the stage span; CPU time sums the per-app
        // `ame.extract` spans the workers recorded beneath it.
        report.stats.extraction_wall = obs.duration(extraction_id);
        report.stats.extraction_cpu = obs.subtree_sum(extraction_id, "ame.extract");
        report.stats.cache_hits = hits;
        report.stats.cache_misses = misses;
        Ok(report)
    }

    /// Analyzes pre-extracted app models (ASE only).
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature produced an ill-typed
    /// specification.
    pub fn analyze_models(&self, apps: Vec<AppModel>) -> Result<Report, LogicError> {
        self.analyze_models_with(apps, Slicing::On(None))
    }

    /// [`Separ::analyze_models`] with every signature translated against
    /// the whole bundle: the unsliced reference that the slicing
    /// differential suites compare against. Test-only.
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if a signature produced an ill-typed
    /// specification.
    #[cfg(any(test, feature = "reference"))]
    #[doc(hidden)]
    pub fn analyze_models_unsliced(&self, apps: Vec<AppModel>) -> Result<Report, LogicError> {
        self.analyze_models_with(apps, Slicing::Off)
    }

    fn analyze_models_with(
        &self,
        mut apps: Vec<AppModel>,
        mode: Slicing<'_>,
    ) -> Result<Report, LogicError> {
        let obs = separ_obs::global();
        // Bundle-level Algorithm 1: passive intents may cross apps.
        let resolution = obs.span("pipeline.resolution");
        let resolution_id = resolution.id();
        update_passive_intent_targets(&mut apps);
        drop(resolution);
        let mut stats = BundleStats {
            components: apps.iter().map(|a| a.components.len()).sum(),
            intents: apps.iter().map(AppModel::num_intents).sum(),
            filters: apps.iter().map(AppModel::num_filters).sum(),
            diagnostics: apps.iter().map(|a| a.diagnostics.len()).sum(),
            quarantined_methods: apps.iter().map(|a| a.stats.quarantined_methods).sum(),
            resolution: obs.duration(resolution_id),
            ..BundleStats::default()
        };
        let synthesis = obs.span("pipeline.synthesis");
        let synthesis_id = synthesis.id();
        let syntheses = synthesize_all(
            &self.executor(),
            &self.registry,
            &apps,
            &self.config,
            mode,
            None,
        )?;
        drop(synthesis);
        stats.synthesis_wall = obs.duration(synthesis_id);
        let mut exploits = Vec::new();
        for (sig, syn) in self.registry.iter().zip(syntheses) {
            let run = syn.expect("unfiltered synthesis ran every signature");
            let syn = run.synthesis;
            // Per-signature stage timings come from the spans recorded
            // under this signature's `ase.signature` span.
            let construction = obs.subtree_sum(run.span, "logic.translate");
            let solving = obs.subtree_sum(run.span, "logic.solve");
            let enumerate = obs
                .duration(run.span)
                .saturating_sub(construction + solving);
            stats.construction += construction;
            stats.solving += solving;
            stats.primary_vars += syn.primary_vars;
            stats.cnf_clauses += syn.cnf_clauses;
            stats.shared_base_reuse += usize::from(syn.shared_base);
            stats.slice_kept += run.slice_kept;
            stats.slice_dropped += run.slice_dropped;
            stats.conflicts += syn.solver.conflicts;
            stats.propagations += syn.solver.propagations;
            stats.per_signature.push(SignatureStats {
                name: sig.name(),
                construction,
                solving,
                enumerate,
                primary_vars: syn.primary_vars,
                cnf_clauses: syn.cnf_clauses,
                shared_base: syn.shared_base,
                solver: syn.solver,
                exploits: syn.exploits.len(),
                slice_kept: run.slice_kept,
                slice_dropped: run.slice_dropped,
            });
            if separ_obs::enabled() {
                separ_obs::event(
                    "ase.synthesized",
                    vec![
                        ("signature", sig.name().to_string()),
                        ("exploits", syn.exploits.len().to_string()),
                        ("conflicts", syn.solver.conflicts.to_string()),
                    ],
                );
            }
            exploits.extend(syn.exploits);
        }
        let policies = derive_policies(&apps, exploits.iter());
        Ok(Report {
            apps,
            exploits,
            policies,
            stats,
        })
    }
}

/// One package's model as extraction hands it over.
enum Extracted {
    /// Extracted by this run, owned outright.
    Fresh(AppModel),
    /// Looked up in or inserted into a [`ModelCache`], which shares it.
    Cached((Arc<AppModel>, CacheOutcome)),
}

/// One signature's synthesis result plus the observability/slicing
/// bookkeeping [`Separ::analyze_models`] folds into [`BundleStats`].
pub(crate) struct SignatureRun {
    /// The decoded synthesis.
    pub synthesis: Synthesis,
    /// The signature's `ase.signature` span (per-stage timings hang off
    /// it).
    pub span: separ_obs::SpanId,
    /// Apps the relevance slice kept for this signature.
    pub slice_kept: usize,
    /// Apps the relevance slice dropped for this signature.
    pub slice_dropped: usize,
    /// The key of the slice synthesized (`None` on the batch path, which
    /// keys nothing).
    pub key: Option<ResultKey>,
}

/// How [`synthesize_all`] picks each signature's universe.
#[derive(Clone, Copy)]
pub(crate) enum Slicing<'a> {
    /// Slice every signature to its declared [`Footprint`], with the
    /// bundle's capability summaries if the caller has them (`None`
    /// summarizes the bundle, under an `ase.slice` span).
    On(Option<&'a [AppSummary]>),
    /// Translate every signature against the whole bundle: the unsliced
    /// reference path.
    #[cfg(any(test, feature = "reference"))]
    Off,
}

/// How one signature's universe is prepared for translation.
#[derive(Clone, Copy)]
enum SlicePlan {
    /// Translate against the shared, untightened full-bundle base.
    Full,
    /// Translate against the prepared (sliced and/or mal-tightened) base
    /// at this index.
    Prepared(usize),
    /// The slice kept no apps: the signature's facts are unsatisfiable
    /// over an empty relevant universe, so synthesis is skipped outright.
    Empty,
}

/// A sliced universe shared by every signature whose `(kept apps,
/// footprint)` key coincides: the sliced app models (or `None` when the
/// slice kept the whole bundle and only mal rows were tightened) and the
/// translation base built over them.
struct PreparedBase {
    apps: Option<Vec<AppModel>>,
    base: BundleBase,
}

/// Drops the malicious free rows a signature's declared footprint never
/// constrains. Sound for the same reason slicing itself is: the encoder
/// asserts no problem facts, so a free row no signature fact mentions is
/// false in every minimal model, and shrinking the upper bound to exclude
/// it cannot change the minimal-model set.
fn apply_footprint(
    fp: &Footprint,
    summaries: &[&AppSummary],
    problem: &mut Problem,
    atoms: &AtomRegistry,
    rels: &Relations,
) {
    let mal = atoms.mal_intent;
    match fp.mal_receivers {
        MalReceivers::All => {}
        MalReceivers::None => {
            problem.tighten_upper(rels.can_receive, |t| t.atoms()[0] != mal);
        }
        MalReceivers::Matching => {
            let matching: BTreeSet<Atom> = atoms
                .components
                .iter()
                .filter(|&&((ai, ci), _)| {
                    let caps = summaries[ai].components[ci].caps;
                    fp.demands.iter().any(|d| d.component_matches(&caps))
                })
                .map(|&(_, a)| a)
                .collect();
            problem.tighten_upper(rels.can_receive, |t| {
                t.atoms()[0] != mal || matching.contains(&t.atoms()[1])
            });
        }
    }
    if !fp.mal_extras {
        problem.tighten_upper(rels.extras, |t| t.atoms()[0] != mal);
    }
    if !fp.mal_action {
        problem.tighten_upper(rels.intent_action, |t| t.atoms()[0] != mal);
    }
    if !fp.mal_filter {
        problem.tighten_upper(rels.mal_filter_actions, |_| false);
    }
}

/// What [`synthesize_all`] may skip: results its caller already holds,
/// looked up by each signature's [`ResultKey`].
pub(crate) struct Reuse<'a> {
    /// Each app's model content address, in bundle order.
    pub addresses: &'a [ModelAddress],
    /// Whether a result of registry signature `i` synthesized for `key`
    /// is at hand (the caller keeps it if so). Called serially, once per
    /// signature in registry order, before any base is built.
    pub have: &'a mut dyn FnMut(usize, &ResultKey) -> bool,
}

/// Runs `sig.synthesize_with` for every registry signature, fanned out on
/// `executor`, returning per-signature results in registry order (`None`
/// where `reuse` already held the result). Shared by the full pipeline
/// and [`crate::IncrementalSession`] re-runs.
///
/// Each signature's declared [`Footprint`] is intersected with the
/// bundle's capability summaries first: the signature translates against
/// a base built over only the apps its slice kept, with the malicious
/// free rows its facts never constrain dropped from the upper bounds.
/// Signatures whose slices (and footprints) coincide share one prepared
/// base; a signature whose slice is empty skips translation and solving
/// entirely. On the unsliced reference path every signature shares the
/// one whole-bundle base.
///
/// With `reuse`, every planned signature is keyed by its slice (see
/// [`crate::reuse`]) before any base is built; a signature whose result
/// is at hand builds, translates and solves nothing. The batch path
/// passes no `reuse` and computes no keys.
pub(crate) fn synthesize_all(
    executor: &Executor,
    registry: &SignatureRegistry,
    apps: &[AppModel],
    config: &SeparConfig,
    mode: Slicing<'_>,
    reuse: Option<Reuse<'_>>,
) -> Result<Vec<Option<SignatureRun>>, LogicError> {
    let signatures: Vec<(usize, &dyn VulnerabilitySignature)> =
        registry.iter().enumerate().collect();
    let mut out: Vec<Option<SignatureRun>> = Vec::new();
    out.resize_with(registry.len(), || None);
    if signatures.is_empty() {
        return Ok(out);
    }

    // Plan each signature's universe up front (serially: plans must not
    // depend on executor fan-out order).
    let mut plans: Vec<(SlicePlan, usize, usize)> = Vec::with_capacity(signatures.len());
    // Each distinct `(kept, footprint)` slice gets the next slot.
    let mut slices: Vec<(Vec<usize>, Footprint)> = Vec::new();
    let computed: Vec<AppSummary>;
    let summaries: &[AppSummary] = match mode {
        #[cfg(any(test, feature = "reference"))]
        Slicing::Off => {
            plans.resize(signatures.len(), (SlicePlan::Full, apps.len(), 0));
            &[]
        }
        Slicing::On(given) => {
            let _slice_span = separ_obs::span("ase.slice");
            let summaries = match given {
                Some(s) => s,
                None => {
                    computed = slicing::summarize_bundle(apps);
                    &computed
                }
            };
            let mut by_key: std::collections::BTreeMap<(Vec<usize>, Footprint), usize> =
                std::collections::BTreeMap::new();
            for (_, sig) in &signatures {
                let fp = sig.footprint();
                if fp.is_everything() && !fp.tightens_mal() {
                    plans.push((SlicePlan::Full, apps.len(), 0));
                    continue;
                }
                let kept: Vec<usize> = slicing::select_apps(&fp.demands, summaries)
                    .into_iter()
                    .collect();
                if kept.is_empty() {
                    plans.push((SlicePlan::Empty, 0, apps.len()));
                    continue;
                }
                let (kept_n, dropped_n) = (kept.len(), apps.len() - kept.len());
                let slot = *by_key.entry((kept, fp)).or_insert_with_key(|key| {
                    slices.push(key.clone());
                    slices.len() - 1
                });
                plans.push((SlicePlan::Prepared(slot), kept_n, dropped_n));
            }
            summaries
        }
    };

    // Key every planned signature by its slice, and drop the ones whose
    // result is at hand.
    let mut keys: Vec<Option<ResultKey>> = vec![None; signatures.len()];
    let mut wanted = vec![true; signatures.len()];
    if let Some(Reuse { addresses, have }) = reuse {
        let _reuse_span = separ_obs::span("ase.reuse");
        let limit = config.scenario_limit;
        for (j, ((i, sig), (plan, _, _))) in signatures.iter().zip(&plans).enumerate() {
            let key = match *plan {
                SlicePlan::Full => ResultKey::of_slice(sig.name(), limit, addresses.iter()),
                SlicePlan::Prepared(slot) => ResultKey::of_slice(
                    sig.name(),
                    limit,
                    slices[slot].0.iter().map(|&a| &addresses[a]),
                ),
                SlicePlan::Empty => ResultKey::of_slice(sig.name(), limit, [].iter()),
            };
            if have(*i, &key) {
                wanted[j] = false;
            } else {
                keys[j] = Some(key);
            }
        }
    }
    type SignatureJob<'a> = (
        (usize, &'a dyn VulnerabilitySignature),
        (SlicePlan, usize, usize),
        Option<ResultKey>,
    );
    let mut jobs: Vec<SignatureJob> = signatures
        .into_iter()
        .zip(plans)
        .zip(keys)
        .zip(wanted)
        .filter_map(|(((sig, plan), key), wanted)| wanted.then_some((sig, plan, key)))
        .collect();
    if jobs.is_empty() {
        return Ok(out);
    }

    // Build the prepared bases the remaining jobs translate against, in
    // first-use order, on the executor.
    let mut remap: Vec<Option<usize>> = vec![None; slices.len()];
    let mut to_build: Vec<&(Vec<usize>, Footprint)> = Vec::new();
    for (_, (plan, _, _), _) in &mut jobs {
        if let SlicePlan::Prepared(slot) = plan {
            *slot = *remap[*slot].get_or_insert_with(|| {
                to_build.push(&slices[*slot]);
                to_build.len() - 1
            });
        }
    }
    let prepared: Vec<PreparedBase> = executor.ordered_map_by_cost(
        &to_build,
        |(kept, _)| kept.len(),
        |&(kept, fp)| {
            let sub_apps: Option<Vec<AppModel>> = if kept.len() == apps.len() {
                None
            } else {
                Some(kept.iter().map(|&i| apps[i].clone()).collect())
            };
            let sub_summaries: Vec<&AppSummary> = kept.iter().map(|&i| &summaries[i]).collect();
            let _base_span = separ_obs::span("pipeline.bundle_base");
            let base = BundleBase::new_with(
                sub_apps.as_deref().unwrap_or(apps),
                |problem, atoms, rels| apply_footprint(fp, &sub_summaries, problem, atoms, rels),
            );
            PreparedBase {
                apps: sub_apps,
                base,
            }
        },
    );

    // The whole-bundle base is only paid for when some job needs it.
    let full_base = if jobs
        .iter()
        .any(|(_, (plan, _, _), _)| matches!(plan, SlicePlan::Full))
    {
        let base_span = separ_obs::span("pipeline.bundle_base");
        let base = BundleBase::new(apps);
        drop(base_span);
        Some(base)
    } else {
        None
    };

    // The largest slice usually solves longest: start it first.
    let syntheses = executor.try_ordered_map_by_cost(
        &jobs,
        |&(_, (_, kept, _), _)| kept,
        |&((_, sig), (plan, kept, dropped), key)| {
            let mut span = separ_obs::span("ase.signature");
            span.set_arg("signature", sig.name());
            let span_id = span.id();
            let (ctx_apps, base): (&[AppModel], &BundleBase) = match plan {
                SlicePlan::Empty => {
                    return Ok(SignatureRun {
                        synthesis: Synthesis::default(),
                        span: span_id,
                        slice_kept: kept,
                        slice_dropped: dropped,
                        key,
                    });
                }
                SlicePlan::Full => (apps, full_base.as_ref().expect("full base was built")),
                SlicePlan::Prepared(i) => {
                    let p = &prepared[i];
                    (p.apps.as_deref().unwrap_or(apps), &p.base)
                }
            };
            sig.synthesize_with(&SynthesisContext {
                apps: ctx_apps,
                base,
                limit: config.scenario_limit,
            })
            .map(|synthesis| SignatureRun {
                synthesis,
                span: span_id,
                slice_kept: kept,
                slice_dropped: dropped,
                key,
            })
        },
    )?;
    for (((i, _), _, _), run) in jobs.into_iter().zip(syntheses) {
        out[i] = Some(run);
    }
    Ok(out)
}

/// Derives the final, deduplicated policy set from exploit scenarios.
pub(crate) fn derive_policies<'a>(
    apps: &[AppModel],
    exploits: impl Iterator<Item = &'a Exploit>,
) -> Vec<Policy> {
    let _span = separ_obs::span("pipeline.derive_policies");
    let exploits: Vec<&Exploit> = exploits.collect();
    // Only hijack policies ask who else receives an intent.
    let router = exploits
        .iter()
        .any(|e| matches!(e, Exploit::IntentHijack { .. }))
        .then(|| resolution::Router::new(apps.iter().map(|a| &a.components)));
    let mut policies = Vec::new();
    for e in exploits {
        let intended = router
            .as_ref()
            .map_or_else(Vec::new, |router| intended_recipients(apps, router, e));
        policies.extend(policies_for_exploit(e, &intended));
    }
    finalize_policies(policies)
}

/// For a hijack exploit, the components legitimately able to receive the
/// victim intent (used to scope `ReceiverNotIn` policy conditions): the
/// classes `router` (built over `apps`) delivers the action-only intent
/// to when the victim's app sends it, to any component kind (an
/// `IntentHijack` exploit records no delivery method), minus the
/// victim's class; sorted and distinct. Empty for other exploit kinds.
fn intended_recipients(
    apps: &[AppModel],
    router: &resolution::Router,
    exploit: &Exploit,
) -> Vec<String> {
    let Exploit::IntentHijack {
        victim_app,
        victim_component,
        hijacked_action,
        ..
    } = exploit
    else {
        return Vec::new();
    };
    let mut intent = resolution::IntentData::new();
    intent.action = hijacked_action.as_deref().map(Into::into);
    let from_app = apps.iter().position(|a| a.package == *victim_app);
    let component = |(ai, ci): resolution::Slot| &apps[ai].components[ci];
    let mut slots = Vec::new();
    for kind in ComponentKind::ALL {
        router.route(component, kind, &intent, from_app, &mut slots);
    }
    let classes: BTreeSet<&str> = slots
        .into_iter()
        .map(|slot| component(slot).class.as_str())
        .filter(|class| *class != victim_component)
        .collect();
    classes.into_iter().map(String::from).collect()
}

/// Reference for [`intended_recipients`]: scans every component of the
/// bundle for each exploit.
#[cfg(test)]
pub(crate) fn intended_recipients_by_scan(apps: &[AppModel], exploit: &Exploit) -> Vec<String> {
    let Exploit::IntentHijack {
        victim_app,
        victim_component,
        hijacked_action,
        ..
    } = exploit
    else {
        return Vec::new();
    };
    let mut intent = resolution::IntentData::new();
    intent.action = hijacked_action.as_deref().map(Into::into);
    let mut out = BTreeSet::new();
    for app in apps {
        let same_app = app.package == *victim_app;
        for c in &app.components {
            if c.class == *victim_component || !(same_app || c.exported) {
                continue;
            }
            if resolution::any_filter_matches(&intent, &c.filters) {
                out.insert(c.class.clone());
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::tests_support::{app, comp, sent};
    use crate::policy::{Condition, PolicyEvent};
    use separ_android::api::IccMethod;
    use separ_android::types::{perm, FlowPath, Resource};
    use separ_dex::manifest::{ComponentKind, IntentFilterDecl};

    fn motivating_bundle() -> Vec<AppModel> {
        let mut lf = comp("LLocationFinder;", ComponentKind::Service);
        lf.paths
            .insert(FlowPath::new(Resource::Location, Resource::Icc));
        lf.sent_intents.push(sent(
            Some("showLoc"),
            IccMethod::StartService,
            &[Resource::Location],
        ));
        let mut rf = comp("LRouteFinder;", ComponentKind::Service);
        rf.filters.push(IntentFilterDecl::for_actions(["showLoc"]));
        rf.exported = true;
        let mut ms = comp("LMessageSender;", ComponentKind::Service);
        ms.exported = true;
        ms.paths.insert(FlowPath::new(Resource::Icc, Resource::Sms));
        ms.used_permissions.insert(perm::SEND_SMS.into());
        let mut app2 = app("com.messenger", vec![ms]);
        app2.uses_permissions.insert(perm::SEND_SMS.into());
        vec![app("com.nav", vec![lf, rf]), app2]
    }

    #[test]
    fn end_to_end_motivating_example() {
        let report = Separ::new()
            .analyze_models(motivating_bundle())
            .expect("analysis succeeds");
        // The paper's Figure 1 attack surface: hijack + launch +
        // escalation are all synthesized against this bundle.
        assert!(!report.vulnerable_apps(VulnKind::IntentHijack).is_empty());
        assert!(report
            .vulnerable_apps(VulnKind::ComponentLaunch)
            .contains("com.messenger"));
        assert!(report
            .vulnerable_apps(VulnKind::PrivilegeEscalation)
            .contains("com.messenger"));
        // Policies: at least one per synthesized category.
        assert!(!report.policies.is_empty());
        let hijack_policy = report
            .policies
            .iter()
            .find(|p| p.vulnerability == VulnKind::IntentHijack.name())
            .expect("hijack policy");
        assert_eq!(hijack_policy.event, PolicyEvent::IccSend);
        assert!(hijack_policy
            .conditions
            .contains(&Condition::ActionIs("showLoc".into())));
        // RouteFinder is the intended recipient and is carved out.
        assert!(hijack_policy
            .conditions
            .contains(&Condition::ReceiverNotIn(vec!["LRouteFinder;".into()])));
        // Stats are populated.
        assert_eq!(report.stats.components, 3);
        assert_eq!(report.stats.intents, 1);
        assert_eq!(report.stats.filters, 1);
        assert!(report.stats.primary_vars > 0);
        // Per-signature breakdown covers the registry in order.
        assert_eq!(report.stats.per_signature.len(), 4);
        assert_eq!(
            report
                .stats
                .per_signature
                .iter()
                .map(|s| s.primary_vars)
                .sum::<usize>(),
            report.stats.primary_vars
        );
        assert_eq!(
            report
                .stats
                .per_signature
                .iter()
                .map(|s| s.exploits)
                .sum::<usize>(),
            report.exploits.len()
        );
    }

    #[test]
    fn clean_bundle_produces_no_policies() {
        let apps = vec![app(
            "com.clean",
            vec![comp("LMain;", ComponentKind::Activity)],
        )];
        let report = Separ::new().analyze_models(apps).expect("succeeds");
        assert!(report.exploits.is_empty());
        assert!(report.policies.is_empty());
    }

    #[test]
    fn scenario_limit_caps_enumeration() {
        let report = Separ::new()
            .with_config(SeparConfig {
                scenario_limit: 1,
                ..SeparConfig::default()
            })
            .analyze_models(motivating_bundle())
            .expect("succeeds");
        for kind in VulnKind::ALL {
            assert!(report.exploits_of(kind).count() <= 1);
        }
    }

    #[test]
    fn every_signature_reuses_the_shared_bundle_base() {
        // Unsliced: this test pins the shared-base translation path,
        // where all four signatures reuse the one whole-bundle base.
        let report = Separ::new()
            .analyze_models_unsliced(motivating_bundle())
            .expect("succeeds");
        assert_eq!(report.stats.shared_base_reuse, 4);
        assert!(report.stats.cnf_clauses > 0);
        assert!(report.stats.propagations > 0);
        assert!(report.stats.conflicts < report.stats.propagations);
        for s in &report.stats.per_signature {
            assert!(s.shared_base, "{} must translate from the base", s.name);
            assert!(s.cnf_clauses > 0, "{} reports its clause count", s.name);
        }
        assert_eq!(
            report
                .stats
                .per_signature
                .iter()
                .map(|s| s.cnf_clauses)
                .sum::<usize>(),
            report.stats.cnf_clauses
        );
    }

    #[test]
    fn slicing_preserves_results_and_shrinks_the_universe() {
        let sliced = Separ::new()
            .analyze_models(motivating_bundle())
            .expect("succeeds");
        let unsliced = Separ::new()
            .analyze_models_unsliced(motivating_bundle())
            .expect("succeeds");
        assert_eq!(result_sets(&sliced), result_sets(&unsliced));
        // Unsliced runs drop nothing and keep every app for every
        // signature; sliced runs record what each footprint excluded.
        assert_eq!(unsliced.stats.slice_dropped, 0);
        assert_eq!(unsliced.stats.slice_kept, 2 * 4);
        assert!(sliced.stats.slice_dropped > 0);
        assert!(sliced.stats.slice_kept < unsliced.stats.slice_kept);
        // Tightened bounds translate to strictly smaller formulas.
        assert!(sliced.stats.primary_vars < unsliced.stats.primary_vars);
        assert!(sliced.stats.cnf_clauses < unsliced.stats.cnf_clauses);
        for (s, u) in sliced
            .stats
            .per_signature
            .iter()
            .zip(&unsliced.stats.per_signature)
        {
            assert_eq!(s.name, u.name);
            assert!(s.primary_vars <= u.primary_vars, "{}", s.name);
            assert_eq!(s.slice_kept + s.slice_dropped, 2, "{}", s.name);
        }
    }

    /// Exploit/policy *sets* for an order-free comparison: enumeration
    /// order may differ between the sliced and unsliced universes.
    fn result_sets(report: &Report) -> (BTreeSet<String>, BTreeSet<String>) {
        (
            report.exploits.iter().map(|e| format!("{e:?}")).collect(),
            report
                .policies
                .iter()
                .map(|p| {
                    format!(
                        "{:?} {:?} {:?} {:?}",
                        p.vulnerability, p.event, p.conditions, p.action
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let serial = Separ::new()
            .with_config(SeparConfig::serial())
            .analyze_models(motivating_bundle())
            .expect("succeeds");
        for threads in [2, 8] {
            let parallel = Separ::new()
                .with_threads(threads)
                .analyze_models(motivating_bundle())
                .expect("succeeds");
            assert_eq!(parallel.exploits, serial.exploits);
            assert_eq!(parallel.policies, serial.policies);
            assert_eq!(parallel.stats.counts(), serial.stats.counts());
        }
    }

    /// Every exploit the report decoded, plus a synthetic hijack of every
    /// intent the bundle sends (so actionless intents and actions no
    /// exploit names are covered too).
    fn hijack_probes(apps: &[AppModel], report: &Report) -> Vec<Exploit> {
        let mut probes = report.exploits.clone();
        for app in apps {
            for c in &app.components {
                for intent in &c.sent_intents {
                    probes.push(Exploit::IntentHijack {
                        victim_app: app.package.clone(),
                        victim_component: c.class.clone(),
                        hijacked_action: intent.action.clone(),
                        leaked: BTreeSet::new(),
                    });
                }
            }
        }
        probes
    }

    #[test]
    fn intended_recipients_match_the_per_exploit_scan() {
        let market: Vec<AppModel> =
            separ_corpus::market::generate(&separ_corpus::market::MarketSpec::scaled(120, 7))
                .iter()
                .map(|m| extract_apk(&m.apk))
                .collect();
        for apps in [motivating_bundle(), market] {
            let report = Separ::new().analyze_models(apps).expect("succeeds");
            let probes = hijack_probes(&report.apps, &report);
            assert!(probes
                .iter()
                .any(|e| matches!(e, Exploit::IntentHijack { .. })));
            let router = resolution::Router::new(report.apps.iter().map(|a| &a.components));
            let mut nonempty = 0;
            for e in &probes {
                let expected = intended_recipients_by_scan(&report.apps, e);
                nonempty += usize::from(!expected.is_empty());
                assert_eq!(
                    intended_recipients(&report.apps, &router, e),
                    expected,
                    "{e}"
                );
            }
            assert!(nonempty > 0, "some probe has intended recipients");
        }
    }
}
